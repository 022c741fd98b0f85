"""The benchmark's workloads, driven through prunemerge's public API and CLI.

A workload object is bound to a working directory and has these phases:

* ``prepare(seed)`` makes every input from the seed and writes it to the
  working directory: IDX files and a config file, or weights, a plan and
  images.  It runs once per benchmark run, in the benchmark's process,
  and is not part of any timing.
* ``setup(workdir)`` is what ``setup_s`` times in a fresh interpreter:
  imports plus loading checkpoints, plans and data into models.
* ``load_inputs()`` reads back the prepared images, after set-up.
* ``gates(state)`` runs the one-off correctness checks.
* ``unit(state, k)`` is one closed-loop operation.  It returns what it
  measured and raises ``GateFailure`` when an output is wrong.

Every fresh interpreter runs ``UNITS`` units after its set-up (see
bench.py for why).  Work done only to check outputs runs inside
``self.quiet()``, which a traced run uses to keep that work out of the
trace.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from prunemerge import checkpoint, compression, data, vit
from prunemerge import tensor as T
from prunemerge.flops import model_flops
from prunemerge.vit import ModelConfig, VisionTransformer

# Program functions are called through their modules, so that a traced
# run sees every call.  The package re-exports the function ``finetune``
# under the submodule's name, hence the explicit module lookup.
ft = importlib.import_module("prunemerge.finetune")

DEIT_TINY = ModelConfig(image_size=224, patch_size=16, channels=3,
                        embed_dim=192, depth=12, heads=3, mlp_ratio=4,
                        num_classes=1000)
ACC = ModelConfig(image_size=28, patch_size=14, channels=1, embed_dim=48,
                  depth=2, heads=4, mlp_ratio=2, num_classes=10)
RATE, TAU = 0.7, 0.1


class GateFailure(Exception):
    """An output of the program failed a correctness check."""


@dataclass
class Metric:
    """One reported number; those named in BENCHMARK.json go to the
    JSON result."""

    name: str
    value: float
    unit: str
    samples: list[float] | None = None   # per-unit values behind a timing
    in_result: bool = False


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Workload:
    name = ""
    unit_name = ""
    config: ModelConfig
    UNITS = 1     # units each fresh interpreter runs after its set-up
    PLAN = "plan.pmvt"

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.quiet = contextlib.nullcontext

    def load_inputs(self) -> None:
        pass

    def gates(self, state) -> list[tuple[str, bool, str]]:
        return []

    def analytic(self):
        """The FlopsReport of the plan the workload runs."""
        return model_flops(self.config,
                           checkpoint.load_plan(self.workdir / self.PLAN))


# ----------------------------------------------------------------------
# acc-pipeline: the whole CLI chain at the acceptance shape
# ----------------------------------------------------------------------

class AccPipeline(Workload):
    """train-baseline -> score -> compress -> finetune -> eval via cli.main."""

    name = "acc-pipeline"
    unit_name = "pipeline"
    config = ACC
    TRAIN, VAL = 2048, 512
    BASE_EPOCHS, DISTILL_EPOCHS, FREEZE_AT = 3, 2, 1
    ARTIFACTS = ("base.pmvt", "scores.csv", "plan.pmvt", "student.pmvt")
    PLAN = "rep0/plan.pmvt"   # the first pipeline's plan
    # Accuracy floors, so that a speed-up that trades away accuracy fails
    # a gate.  Seeded pipelines at these epochs reached base_top1
    # 0.59-0.79, with pm_top1 - base_top1 from -0.06 to +0.05.
    MIN_TOP1 = 0.5
    MAX_TOP1_DROP = 0.1

    def prepare(self, seed: int) -> None:
        workdir = self.workdir
        corpus = data.synthetic_shapes(self.TRAIN + self.VAL,
                                       image_size=ACC.image_size, seed=seed)
        pixels = np.round(corpus.images[:, 0] * 255).astype(np.uint8)
        data.write_idx(workdir / "images.idx", pixels)
        data.write_idx(workdir / "labels.idx", corpus.labels.astype(np.uint8))
        c = ACC
        (workdir / "run.cfg").write_text(
            f"image_size={c.image_size}\npatch_size={c.patch_size}\n"
            f"channels={c.channels}\nembed_dim={c.embed_dim}\n"
            f"depth={c.depth}\nheads={c.heads}\nmlp_ratio={c.mlp_ratio}\n"
            f"num_classes={c.num_classes}\ndataset=idx\n"
            f"idx_images={workdir / 'images.idx'}\n"
            f"idx_labels={workdir / 'labels.idx'}\n"
            f"val_count={self.VAL}\nrate={RATE}\npm_threshold={TAU}\n"
            f"exempt_layers=none\nepochs={self.BASE_EPOCHS}\n"
            f"batch_size=32\nseed={seed}\n", encoding="utf-8")

    @staticmethod
    def setup(workdir: Path):
        from prunemerge.cli import main
        from prunemerge.runconfig import load_config
        cfg = load_config(workdir / "run.cfg")
        full = data.load_idx_pair(cfg["idx_images"], cfg["idx_labels"],
                                  num_classes=cfg["num_classes"])
        n = len(full)
        return SimpleNamespace(main=main, cfg=cfg,
                               val=full.subset(n - cfg["val_count"], n))

    def unit(self, state, k: int, span=None) -> dict[str, float]:
        rep = self.workdir / f"rep{k}"
        rep.mkdir()
        cfg = ["--config", str(self.workdir / "run.cfg")]
        base, scores, plan, student = (str(rep / a) for a in self.ARTIFACTS)
        stages = (
            ("train-baseline", ["--out", base]),
            ("score", ["--ckpt", base, "--out", scores]),
            ("compress", ["--ckpt", base, "--scores", scores, "--out", plan]),
            ("finetune", ["--ckpt", base, "--plan", plan, "--out", student,
                          "--epochs", str(self.DISTILL_EPOCHS),
                          "--freeze-at", str(self.FREEZE_AT)]),
            ("eval", ["--ckpt", student]),
        )
        times, printed = {}, {}
        for cmd, args in stages:
            buf = io.StringIO()
            with span(f"cli.main.{cmd}") if span else \
                    contextlib.nullcontext():
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    rc = state.main([cmd, *cfg, *args])
                times[cmd] = time.perf_counter() - t0
            if rc != 0:
                raise GateFailure(f"{cmd} exited {rc}")
            printed[cmd] = buf.getvalue()

        with self.quiet():
            self._check_outputs(state, rep, printed)
        return {"train_s": times["train-baseline"],
                "score_s": times["score"], "compress_s": times["compress"],
                "finetune_s": times["finetune"], "eval_s": times["eval"],
                "pipeline_s": sum(times.values()),
                "base_top1": _top1(printed["train-baseline"]),
                "pm_top1": _top1(printed["eval"])}

    def _check_outputs(self, state, rep: Path, printed: dict) -> None:
        first = self.workdir / "rep0"
        for name in self.ARTIFACTS:
            if (rep / name).read_bytes() != (first / name).read_bytes():
                raise GateFailure(f"{name} differs from the first repeat")
        pm_top1 = _top1(printed["eval"])
        self.check_accuracy(_top1(printed["train-baseline"]), pm_top1)
        student, _ = checkpoint.load_model(rep / "student.pmvt")
        expect = ft.evaluate_accuracy(student, state.val,
                                      batch_size=state.cfg["batch_size"])
        if pm_top1 != expect:
            raise GateFailure(
                f"eval printed {pm_top1!r}, reloaded student scores "
                f"{expect!r}")
        if rep != first:
            for name in self.ARTIFACTS:
                (rep / name).unlink()
            rep.rmdir()

    @classmethod
    def check_accuracy(cls, base_top1: float, pm_top1: float) -> None:
        if base_top1 < cls.MIN_TOP1 or pm_top1 < cls.MIN_TOP1 \
                or pm_top1 < base_top1 - cls.MAX_TOP1_DROP:
            raise GateFailure(
                f"accuracy below its floor: base_top1 {base_top1}, pm_top1 "
                f"{pm_top1} (floor {cls.MIN_TOP1}, largest drop "
                f"{cls.MAX_TOP1_DROP})")

    def metrics(self, samples: dict[str, list[float]]) -> list[Metric]:
        n = self.TRAIN
        train = [self.BASE_EPOCHS * n / s for s in samples["train_s"]]
        distill = [self.DISTILL_EPOCHS * n / s for s in samples["finetune_s"]]
        out = [
            Metric("pipeline_s", _median(samples["pipeline_s"]), "s",
                   samples["pipeline_s"], in_result=True),
            Metric("train_images_per_s", _median(train), "images/s", train),
            Metric("distill_images_per_s", _median(distill), "images/s",
                   distill),
            Metric("base_images_per_s", _median(train), "images/s",
                   in_result=True),
            Metric("pm_images_per_s", _median(distill), "images/s",
                   in_result=True),
            Metric("base_top1", samples["base_top1"][0], "fraction"),
            Metric("pm_top1", samples["pm_top1"][0], "fraction"),
        ]
        for stage in ("score_s", "compress_s", "eval_s"):
            out.append(Metric(f"stage.{stage}", _median(samples[stage]), "s",
                              samples[stage]))
        return out


def _top1(printed: str) -> float:
    for line in printed.splitlines():
        if line.startswith("top1_accuracy="):
            return float(line.partition("=")[2])
    raise GateFailure("no top1_accuracy line in the CLI output")


# ----------------------------------------------------------------------
# DeiT-tiny shape: inference and distillation
# ----------------------------------------------------------------------

class _Deit(Workload):
    """Seeded weights, scores and images at the DeiT-tiny shape."""

    config = DEIT_TINY
    BATCH = 8

    def prepare(self, seed: int) -> None:
        workdir = self.workdir
        rng = np.random.default_rng(seed)
        model = VisionTransformer.build(DEIT_TINY, seed=seed)
        checkpoint.save_model(workdir / "base.pmvt", model)
        scores = [rng.random(DEIT_TINY.num_tokens)
                  for _ in range(DEIT_TINY.depth)]
        plan = compression.global_plan(scores, RATE, TAU, exempt_layers=())
        checkpoint.save_plan(workdir / self.PLAN, plan)
        c = DEIT_TINY
        np.save(workdir / "images.npy", rng.random(
            (self.BATCH, c.channels, c.image_size, c.image_size)))
        np.save(workdir / "labels.npy",
                rng.integers(0, c.num_classes, self.BATCH))

    def load_inputs(self) -> None:
        self.images = np.load(self.workdir / "images.npy")
        self.labels = np.load(self.workdir / "labels.npy")


class DeitInfer(_Deit):
    """Base and compressed forward on identical batches."""

    name = "deit-infer"
    unit_name = "batch pair"
    ORACLE_BATCH = 2
    ORACLE_TOL = 1e-9

    @staticmethod
    def setup(workdir: Path):
        # As ``eval --plan`` builds them: a grad-tracking base from the
        # checkpoint, and the compressed model on top of it.
        base, _ = checkpoint.load_model(workdir / "base.pmvt")
        plan = checkpoint.load_plan(workdir / "plan.pmvt")
        pm = compression.compress_model(base, plan)
        return SimpleNamespace(base=base, pm=pm, base_logits=None,
                               pm_logits=None)

    def gates(self, state) -> list[tuple[str, bool, str]]:
        x = self.images[:self.ORACLE_BATCH]
        got = state.pm.forward(x).data
        diff = float(np.abs(got - dense_oracle(state.pm, x)).max())
        out = [("compressed logits match the dense oracle",
                diff <= self.ORACLE_TOL, f"max |diff| {diff:.3g}")]
        identity = compression.identity_plan(DEIT_TINY.depth,
                                             DEIT_TINY.num_tokens)
        ident = compression.compress_model(state.base, identity)
        diff = float(np.abs(ident.forward(x).data
                            - state.base.forward(x).data).max())
        out.append(("identity plan reproduces the base logits",
                    diff <= self.ORACLE_TOL, f"max |diff| {diff:.3g}"))
        return out

    def unit(self, state, k: int, span=None) -> dict[str, float]:
        # As in evaluate_accuracy, each model's previous logits (and the
        # graph behind them) stay referenced while the next forward runs;
        # what becomes garbage is left to the interpreter.
        x = self.images
        state.base_logits, base_s = _timed(state.base.forward, x)
        state.pm_logits, pm_s = _timed(state.pm.forward, x)
        with self.quiet():
            self._check_first_pass(state, k)
        return {"base_s": base_s, "pm_s": pm_s, "pair_s": base_s + pm_s}

    def _check_first_pass(self, state, k: int) -> None:
        """The first pass of a run is the reference every later pass, in
        any process, must reproduce bit for bit."""
        path = self.workdir / "first_pass.npz"
        if not path.exists():
            np.savez(path, base=state.base_logits.data,
                     pm=state.pm_logits.data)
        with np.load(path) as ref:
            if not (np.array_equal(ref["base"], state.base_logits.data)
                    and np.array_equal(ref["pm"], state.pm_logits.data)):
                raise GateFailure(
                    f"pass {k}: logits differ from the first pass")

    def metrics(self, samples: dict[str, list[float]]) -> list[Metric]:
        b = self.BATCH
        base = [b / s for s in samples["base_s"]]
        pm = [b / s for s in samples["pm_s"]]
        med_base, med_pm = _median(samples["base_s"]), _median(samples["pm_s"])
        return [
            Metric("base_infer_images_per_s", b / med_base, "images/s", base),
            Metric("pm_infer_images_per_s", b / med_pm, "images/s", pm),
            Metric("base_images_per_s", b / med_base, "images/s",
                   in_result=True),
            Metric("pm_images_per_s", b / med_pm, "images/s",
                   in_result=True),
            Metric("pipeline_s", _median(samples["pair_s"]), "s",
                   samples["pair_s"], in_result=True),
            Metric("measured_reduction", 1.0 - med_pm / med_base, "fraction"),
            Metric("flops.analytic_reduction", self.analytic().reduction,
                   "fraction"),
        ]


def dense_oracle(pm, images: np.ndarray) -> np.ndarray:
    """Compressed forward with dense matrices: R @ B(M @ z) + masked z."""
    cfg, p = pm.config, pm.params
    z = vit.patchify(images, cfg, p.embed).data
    for layer, blk in enumerate(p.blocks):
        entry = pm.plan.entries[layer]
        if entry is None:
            z = vit.block_forward(T.Tensor(z), blk, cfg.heads).data
            continue
        y = vit.block_forward(T.Tensor(entry.merge.data @ z), blk,
                              cfg.heads).data
        z = entry.reconstruct @ y + z * (1.0 - entry.mask)[:, None]
    z = T.layer_norm(T.Tensor(z), p.ln_f_g, p.ln_f_b).data
    return z[:, 0, :] @ p.head_w.data + p.head_b.data


class DeitDistill(_Deit):
    """Distill steps with learnable merge and reconstruct matrices."""

    name = "deit-distill"
    unit_name = "distill step"
    UNITS = 2
    BATCH = 4
    LR_HORIZON = 100  # steps of the cosine schedule

    @staticmethod
    def setup(workdir: Path):
        # As ``finetune`` builds them: student from the base checkpoint,
        # teacher as a frozen copy, matrices learnable before the freeze.
        base, _ = checkpoint.load_model(workdir / "base.pmvt")
        teacher_base, _ = checkpoint.load_model(workdir / "base.pmvt")
        plan = checkpoint.load_plan(workdir / "plan.pmvt")
        model = compression.compress_model(base, plan,
                                           learnable_matrices=True)
        params = list(model.named_parameters())
        distill = ft.DistillConfig(epochs=1, freeze_epoch=1,
                                batch_size=DeitDistill.BATCH)
        return SimpleNamespace(
            model=model, teacher=teacher_base.frozen_copy(), params=params,
            optimizer=ft.AdamW(params, weight_decay=distill.weight_decay),
            distill=distill, step=0, loss=None, student_logits=None,
            outside=None)

    def gates(self, state) -> list[tuple[str, bool, str]]:
        return [("matrices start with zeros outside their groups",
                 self._zeros_kept(state), "")]

    @staticmethod
    def _outside(model) -> dict:
        """Per layer, the entries outside each group of the merge and
        reconstruct matrices."""
        out = {}
        for layer in model.merge_t:
            groups = model.plan.entries[layer].merge.groups
            merge = np.ones(model.merge_t[layer].shape, dtype=bool)
            recon = np.ones(model.recon_t[layer].shape, dtype=bool)
            for row, (a, b) in enumerate(groups):
                merge[row, a:b] = False
                recon[a:b, row] = False
            out[layer] = (merge, recon)
        return out

    def _zeros_kept(self, state) -> bool:
        m = state.model
        if state.outside is None:
            state.outside = self._outside(m)
        return all(not m.merge_t[l].data[mo].any()
                   and not m.recon_t[l].data[ro].any()
                   for l, (mo, ro) in state.outside.items())

    def unit(self, state, k: int, span=None) -> dict[str, float]:
        # Mirrors one iteration of finetune(): the previous step's graph
        # stays referenced from ``state`` while the next forward runs.
        images, labels, d = self.images, self.labels, state.distill
        lr = ft.cosine_lr(state.step, self.LR_HORIZON, d.base_lr)
        t0 = time.perf_counter()
        teacher_logits = state.teacher.forward(images)
        t1 = time.perf_counter()
        state.student_logits = state.model.forward(images)
        t2 = time.perf_counter()
        state.loss, _, _ = ft.self_distill_loss(
            state.student_logits, teacher_logits, labels,
            alpha=d.alpha, temperature=d.temperature)
        loss_val = float(state.loss.data)
        if not np.isfinite(loss_val):
            raise GateFailure(f"non-finite loss {loss_val} at step {k}")
        for _, p in state.params:
            p.grad = None
        T.backward(state.loss)
        t3 = time.perf_counter()
        state.optimizer.step(lr)
        t4 = time.perf_counter()
        state.step += 1
        with self.quiet():
            if not self._zeros_kept(state):
                raise GateFailure(
                    f"step {k}: a matrix entry outside its group moved")
        return {"teacher_s": t1 - t0, "student_s": t2 - t1,
                "loss_backward_s": t3 - t2, "adamw_s": t4 - t3,
                "step_s": t4 - t0}

    def metrics(self, samples: dict[str, list[float]]) -> list[Metric]:
        b = self.BATCH
        distill = [b / s for s in samples["step_s"]]
        teacher = [b / s for s in samples["teacher_s"]]
        out = [
            Metric("distill_images_per_s", _median(distill), "images/s",
                   distill),
            Metric("teacher_images_per_s", _median(teacher), "images/s",
                   teacher),
            Metric("base_images_per_s", _median(teacher), "images/s",
                   in_result=True),
            Metric("pm_images_per_s", _median(distill), "images/s",
                   in_result=True),
            Metric("pipeline_s", _median(samples["step_s"]), "s",
                   samples["step_s"], in_result=True),
        ]
        for part in ("student_s", "loss_backward_s", "adamw_s"):
            out.append(Metric(f"step.{part}", _median(samples[part]), "s",
                              samples[part]))
        return out


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


WORKLOADS = {w.name: w for w in (AccPipeline, DeitInfer, DeitDistill)}
