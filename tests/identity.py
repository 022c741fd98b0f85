"""Bit-identity harness: dump a fixed, seeded set of program outputs, and
compare two dumps array by array.

    python tests/identity.py dump DIR
    python tests/identity.py compare A B

``dump`` writes ``DIR/arrays.npz``, one array per name, at two small
configs: the acceptance shape (28 px, 5 tokens, D=48, batch 32) and a
depth-4 64 px D=96 shape at batch 4, whose GELU input spans several of
the engine's chunks.  Every op of the first stays on one lane; the
second (``wide``) hands gradient products, the row halves of forward
weight products and of weight gradients, attention halves, GELU halves
and AdamW chunks to the engine's second lane, where two CPUs allow one,
and ``dump`` prints how many tasks ran there.  Per config it holds:

* ``no_grad``, recorded and traced logits of the base model and of the
  frozen- and learnable-compressed models under a class-token plan, a
  class-free plan that prunes token 0 in the last layer and the identity
  plan, with every parameter gradient of the recorded and traced runs
* every trace's maps, dL/dA and token gradients; the base model's also
  with a bump added to every layer's maps
* the scores of every scorer that reads a trace (all but ``random``)
* the parameters, AdamW state, exported plan and losses after three
  distill steps (two with learnable matrices, one frozen) under each
  compressing plan

Besides these, ``plan/NNN`` holds the plan file (or the refusal) of each
of 200 random ``global_plan`` calls, and ``cli/`` every file and the
normalised stdout of a short CLI chain on an IDX pair: train-baseline,
score, compress, finetune, eval, ``flops --csv`` and ``visualize --split
val``, whose pixmaps are among the files.

``compare`` prints each array that differs between two dumps, with its
largest difference in units in the last place for floats, and exits 1
on any difference or on an array present in one dump only.

Dump at two trees (say, a parent commit exported to a scratch directory
and the working tree) with the same OpenBLAS build and thread count, then
compare.  Run as a script, the harness pins OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` is already set.  No reference digests are kept:
the bits depend on the BLAS build, its CPU kernel and the thread count.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from prunemerge import tensor as T
from prunemerge.checkpoint import save_plan
from prunemerge.cli import main as cli_main
from prunemerge.compression import compress_model, global_plan, identity_plan
from prunemerge.data import Dataset, synthetic_shapes, write_idx
from prunemerge.errors import ContractError
from prunemerge.finetune import DistillConfig, finetune
from prunemerge.scoring import ScorerVariant, scores_from_trace
from prunemerge.vit import ModelConfig, VisionTransformer

from helpers import fresh

ACCEPTANCE = ModelConfig(image_size=28, patch_size=14, channels=1,
                         embed_dim=48, depth=2, heads=4, mlp_ratio=2,
                         num_classes=10)
CHUNKED = ModelConfig(image_size=64, patch_size=8, channels=3, embed_dim=96,
                      depth=4, heads=4, mlp_ratio=4, num_classes=10)
# (config, batch): at batch 4 the wide shape's GELU input is 99,840
# elements, three chunks of the engine's 32,768.
SHAPES = {"acc": (ACCEPTANCE, 32), "wide": (CHUNKED, 4)}


def _plans(config: ModelConfig, rng: np.random.Generator) -> dict:
    """The class-token plan, a class-free plan whose last layer prunes
    token 0, and the identity plan."""
    n, depth = config.num_tokens, config.depth
    scores = [rng.uniform(0.1, 1.0, n) for _ in range(depth)]
    free = [rng.uniform(0.1, 1.0, n) for _ in range(depth)]
    free[-1][0] = 0.0
    class_free = global_plan(free, 0.7, 0.2, class_token=False)
    assert class_free.entries[-1].mask[0] == 0
    return {"class": global_plan(scores, 0.7, 0.1),
            "class_free": class_free,
            "identity": identity_plan(depth, n)}


def _run(out: dict, prefix: str, model, images, labels, bumps=None) -> list:
    """``no_grad``, recorded and traced logits of ``model`` with the
    recorded and traced runs' gradients and traces; returns the traces."""
    params = list(model.named_parameters())
    kwargs = {"attn_bumps": bumps} if bumps else {}
    with T.no_grad():
        out[f"{prefix}/no_grad.logits"] = model.forward(images, **kwargs).data
    for mode in ("recorded", "traced"):
        T.zero_grads(p for _, p in params)
        traces = [] if mode == "traced" else None
        logits = model.forward(images, traces=traces, **kwargs)
        T.backward(T.cross_entropy(logits, labels))
        out[f"{prefix}/{mode}.logits"] = logits.data
        for name, p in params:
            if p.grad is not None:
                out[f"{prefix}/{mode}.grad.{name}"] = p.grad
    for trace in traces:
        key = f"{prefix}/trace{trace.layer}"
        out[f"{key}.maps"] = trace.maps
        if trace.grads is not None:
            out[f"{key}.grads"] = trace.grads
        if trace.tokens is not None and trace.tokens.grad is not None:
            out[f"{key}.token_grad"] = trace.tokens.grad
    return traces


def _model_arrays(out: dict, tag: str, config: ModelConfig, batch: int,
                  reduced: bool) -> None:
    rng = np.random.default_rng(2024)
    images = rng.uniform(0.0, 1.0, (batch, config.channels,
                                    config.image_size, config.image_size))
    labels = rng.integers(0, config.num_classes, batch)
    base = VisionTransformer.build(config, seed=3)
    traces = _run(out, f"{tag}/base", base, images, labels)
    for variant in ScorerVariant:
        if variant is ScorerVariant.RANDOM:
            continue
        for trace in traces:
            out[f"{tag}/scores.{variant.value}.layer{trace.layer}"] = \
                scores_from_trace(trace, variant)
    if not reduced:
        bumps = {t.layer: rng.normal(0.0, 0.01, t.maps.shape)
                 for t in traces}
        _run(out, f"{tag}/base_bumped", base, images, labels, bumps)

    plans = _plans(config, rng)
    if reduced:
        plans = {"class": plans["class"]}
    data = Dataset(images, labels, config.num_classes)
    for name, plan in plans.items():
        for learnable in (False, True):
            kind = "learnable" if learnable else "frozen"
            model = compress_model(base, plan, learnable_matrices=learnable)
            _run(out, f"{tag}/{name}.{kind}", model, images, labels)
        if name == "identity":
            continue
        model = compress_model(base, plan, learnable_matrices=True)
        _, metrics, optimizer = finetune(
            model, base.frozen_copy(), data,
            DistillConfig(epochs=3, freeze_epoch=2, batch_size=batch,
                          seed=7))
        key = f"{tag}/{name}.distill"
        out[f"{key}.metrics"] = np.array(
            [[row[k] for k in ("loss", "ce", "kl", "lr")] for row in metrics])
        for pname, p in model.named_parameters():
            out[f"{key}.param.{pname}"] = p.data
        for pname in optimizer.m:
            out[f"{key}.opt.m.{pname}"] = optimizer.m[pname]
            out[f"{key}.opt.v.{pname}"] = optimizer.v[pname]
            out[f"{key}.opt.t.{pname}"] = np.array(optimizer.t[pname],
                                                   dtype=np.int64)
        for aname, value in model.export_plan().to_arrays().items():
            out[f"{key}.{aname}"] = value


def _random_plans(out: dict, count: int, work: Path) -> None:
    """The saved file of each of ``count`` random ``global_plan`` calls,
    or the message it was refused with."""
    rng = np.random.default_rng(77)
    for i in range(count):
        depth, n = int(rng.integers(1, 8)), int(rng.integers(2, 40))
        scores = [rng.uniform(0.0, 1.0, n) for _ in range(depth)]
        exempt = [l for l in range(depth) if rng.uniform() < 0.2]
        try:
            plan = global_plan(scores, float(rng.uniform(0.05, 1.0)),
                               float(rng.uniform(0.0, 0.6)),
                               exempt_layers=exempt,
                               class_token=bool(rng.integers(2)))
        except ContractError as e:
            out[f"plan/{i:03d}.refused"] = _bytes(str(e).encode())
            continue
        save_plan(fresh(work / "plan.pmvt"), plan)
        out[f"plan/{i:03d}.pmvt"] = _bytes((work / "plan.pmvt").read_bytes())


def _bytes(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype=np.uint8).copy()


def _cli_chain(out: dict, work: Path) -> None:
    """Every file and the stdout of a short CLI chain at the acceptance
    shape, with the working directory's path replaced by ``<work>``."""
    corpus = synthetic_shapes(160, image_size=ACCEPTANCE.image_size, seed=11)
    write_idx(work / "images.idx",
              np.round(corpus.images[:, 0] * 255).astype(np.uint8))
    write_idx(work / "labels.idx", corpus.labels.astype(np.uint8))
    c = ACCEPTANCE
    (work / "run.cfg").write_text(
        f"image_size={c.image_size}\npatch_size={c.patch_size}\n"
        f"embed_dim={c.embed_dim}\ndepth={c.depth}\nheads={c.heads}\n"
        f"mlp_ratio={c.mlp_ratio}\ndataset=idx\n"
        f"idx_images={work / 'images.idx'}\n"
        f"idx_labels={work / 'labels.idx'}\nval_count=32\nepochs=2\n"
        f"batch_size=32\niterations=2\nexempt_layers=none\nseed=5\n",
        encoding="utf-8")
    cfg = ["--config", str(work / "run.cfg")]
    base, plan, student, scores, maps = (str(work / name) for name in (
        "base.pmvt", "plan.pmvt", "student.pmvt", "scores.csv", "maps"))
    stages = [
        ["train-baseline", "--out", base, "--metrics", base + ".csv"],
        ["score", "--ckpt", base, "--out", scores],
        ["compress", "--ckpt", base, "--scores", scores, "--out", plan],
        ["finetune", "--ckpt", base, "--plan", plan, "--out", student,
         "--metrics", student + ".csv", "--epochs", "2", "--freeze-at", "1"],
        ["eval", "--ckpt", student],
        ["eval", "--ckpt", base, "--plan", plan],
        ["flops", "--plan", plan, "--csv"],
        ["visualize", "--plan", plan, "--out-dir", maps, "--split", "val",
         "--image", "3"],
    ]
    stdout = io.StringIO()
    for argv in stages:
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv[:1] + cfg + argv[1:])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    out["cli/stdout"] = _bytes(
        stdout.getvalue().replace(str(work), "<work>").encode())
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.suffix not in (".idx", ".cfg"):
            out[f"cli/{path.relative_to(work).as_posix()}"] = \
                _bytes(path.read_bytes())


def collect(reduced: bool = False) -> dict[str, np.ndarray]:
    """Every array of a dump; ``reduced`` keeps the acceptance shape's
    base model, trace scorers and class-token plan and 20 random
    plans."""
    out: dict[str, np.ndarray] = {}
    shapes = {"acc": SHAPES["acc"]} if reduced else SHAPES
    for tag, (config, batch) in shapes.items():
        _model_arrays(out, tag, config, batch, reduced)
    with tempfile.TemporaryDirectory() as tmp:
        _random_plans(out, 20 if reduced else 200, Path(tmp))
    if not reduced:
        with tempfile.TemporaryDirectory() as tmp:
            _cli_chain(out, Path(tmp))
    return {k: np.ascontiguousarray(v) for k, v in out.items()}


def _ulps(x: np.ndarray, y: np.ndarray) -> int:
    """The largest distance between two float arrays' elements in units
    in the last place: their bits, read as integers that order like the
    floats, subtracted without overflow."""
    def ordered(a):
        bits = a.reshape(-1).view(f"i{a.itemsize}").astype(np.int64)
        magnitude = bits & np.int64(2 ** (8 * a.itemsize - 1) - 1)
        return np.where(bits < 0, -magnitude, bits)

    a, b = ordered(x), ordered(y)
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    return int((hi.view(np.uint64) - lo.view(np.uint64)).max())


def differences(a: dict[str, np.ndarray],
                b: dict[str, np.ndarray]) -> list[str]:
    """One line per array that differs between dumps ``a`` and ``b``."""
    lines = []
    for name in sorted(set(a) | set(b)):
        if name not in b or name not in a:
            lines.append(f"{name}: only in {'A' if name in a else 'B'}")
            continue
        x, y = a[name], b[name]
        if x.dtype != y.dtype or x.shape != y.shape:
            lines.append(f"{name}: {x.dtype}{list(x.shape)} vs "
                         f"{y.dtype}{list(y.shape)}")
        elif x.tobytes() != y.tobytes():
            if x.dtype.kind == "f":
                what = f"max |d| {_ulps(x, y)} ulp"
            else:
                gap = np.abs(x.astype(np.int64) - y.astype(np.int64)).max()
                what = f"max |d| {gap}"
            count = int((x.reshape(-1).view(np.uint8).reshape(x.size, -1)
                         != y.reshape(-1).view(np.uint8).reshape(y.size, -1))
                        .any(axis=1).sum())
            lines.append(f"{name}: {count} of {x.size} elements differ, "
                         f"{what}")
    return lines


def _load(path: Path) -> dict[str, np.ndarray]:
    with np.load(path / "arrays.npz") as archive:
        return {k: archive[k] for k in archive.files}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "dump":
        target = Path(argv[1])
        target.mkdir(parents=True, exist_ok=True)
        arrays = collect()
        np.savez(target / "arrays.npz", **arrays)
        print(f"{len(arrays)} arrays written to {target / 'arrays.npz'}; "
              f"{T._lane_tasks} tasks ran on the second lane")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        a, b = _load(Path(argv[1])), _load(Path(argv[2]))
        lines = differences(a, b)
        for line in lines:
            print(line)
        print(f"{len(set(a) | set(b))} arrays compared; {len(lines)} differ")
        return 1 if lines else 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
