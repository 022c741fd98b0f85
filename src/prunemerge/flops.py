"""Multiply-add accounting for the transformer and its compressed form.

Counts follow the usual convention that makes per-block totals exact:
matrix products only.  Softmax, normalization, and GELU are reported as
informational element counts, never added to totals.  A compressed layer
runs its block at the kept-token width and pays a fixed 6*N*D overhead:
2ND to merge, 2ND to reconstruct, and 2ND for the masked shortcut add.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .compression import (CompressionPlan, generate_merge_matrix,
                          grouped_merge)
from .errors import ContractError

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover
    threadpool_limits = None

BLOCK_OPS = ("qkv", "qk_t", "av", "out", "fc1", "fc2")
OVERHEAD_OPS = ("merge", "reconstruct", "mask")


def block_flops(n_tokens: int, dim: int) -> dict[str, int]:
    """Per-operation multiply-adds of one uncompressed block."""
    if n_tokens < 1 or dim < 1:
        raise ContractError(
            f"need positive sizes, got tokens={n_tokens} dim={dim}")
    n, d = int(n_tokens), int(dim)
    return {
        "qkv": 3 * n * d * d,
        "qk_t": n * n * d,
        "av": n * n * d,
        "out": n * d * d,
        "fc1": 4 * n * d * d,
        "fc2": 4 * n * d * d,
    }


def overhead_flops(n_tokens: int, dim: int) -> dict[str, int]:
    """Prune-and-merge per-layer overhead, total 6*N*D.

    The 2ND merge and 2ND reconstruct costs are explicit; the remaining
    2ND books the masked-shortcut multiply and add, as the paper counts
    them (``reconstruct_tokens`` copies the pruned rows instead).
    """
    n, d = int(n_tokens), int(dim)
    return {"merge": 2 * n * d, "reconstruct": 2 * n * d, "mask": 2 * n * d}


@dataclass
class FlopsReport:
    """Layer-by-layer multiply-add breakdown with encoder/model totals.

    ``reduction`` compares encoder totals against the uncompressed
    baseline of the same configuration (patch embed and head are
    unaffected by token compression).
    """

    layers: list[dict[str, int]]
    patch_embed: int
    head: int
    informational: dict[str, int] = field(default_factory=dict)
    baseline_encoder_total: int = 0

    @property
    def encoder_total(self) -> int:
        return sum(sum(layer.values()) for layer in self.layers)

    @property
    def total(self) -> int:
        return self.encoder_total + self.patch_embed + self.head

    @property
    def reduction(self) -> float:
        if self.baseline_encoder_total == 0:
            return 0.0
        return 1.0 - self.encoder_total / self.baseline_encoder_total

    def to_csv(self) -> str:
        lines = ["layer,op,multiply_adds"]
        for i, layer in enumerate(self.layers):
            for op in BLOCK_OPS + OVERHEAD_OPS:
                if op in layer:
                    lines.append(f"{i},{op},{layer[op]}")
        lines.append(f"stem,patch_embed,{self.patch_embed}")
        lines.append(f"stem,head,{self.head}")
        for name, count in sorted(self.informational.items()):
            lines.append(f"info,{name},{count}")
        lines.append(f"total,encoder,{self.encoder_total}")
        lines.append(f"total,model,{self.total}")
        lines.append(f"total,reduction_pct,{self.reduction * 100:.4f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "layers": [dict(layer) for layer in self.layers],
            "patch_embed": self.patch_embed,
            "head": self.head,
            "informational": dict(self.informational),
            "encoder_total": self.encoder_total,
            "total": self.total,
            "baseline_encoder_total": self.baseline_encoder_total,
            "reduction": self.reduction,
        }

    def to_table(self) -> str:
        header = f"{'layer':>6} " + " ".join(
            f"{op:>12}" for op in BLOCK_OPS + OVERHEAD_OPS) + f" {'total':>14}"
        rows = [header, "-" * len(header)]
        for i, layer in enumerate(self.layers):
            cells = " ".join(f"{layer.get(op, 0):>12}"
                             for op in BLOCK_OPS + OVERHEAD_OPS)
            rows.append(f"{i:>6} {cells} {sum(layer.values()):>14}")
        rows.append(f"patch embed: {self.patch_embed}")
        rows.append(f"head:        {self.head}")
        rows.append(f"encoder:     {self.encoder_total}")
        rows.append(f"model:       {self.total}")
        rows.append(f"reduction:   {self.reduction * 100:.2f}%")
        return "\n".join(rows) + "\n"


def model_flops(config, plan: CompressionPlan | None = None) -> FlopsReport:
    """Whole-model accounting; ``plan`` is a CompressionPlan that fits
    ``config`` (its exempt layers run uncompressed), or None for the
    uncompressed model.

    The count is the paper's: every layer's full block at its token
    width.  The forward pass computes only the class-token row of the
    last block past its keys and values (``vit.block_forward``), on the
    base model and the compressed one alike, so measured speed-ups include
    a saving this count does not model.
    """
    n, d = config.num_tokens, config.embed_dim
    kept = {}
    if plan is not None:
        plan.check_fits(config)
        kept = plan.kept_per_layer()
    layers: list[dict[str, int]] = []
    info_tokens: list[int] = []
    for layer in range(config.depth):
        if layer in kept:
            counts = block_flops(kept[layer], d)
            counts.update(overhead_flops(n, d))
            info_tokens.append(kept[layer])
        else:
            counts = block_flops(n, d)
            info_tokens.append(n)
        layers.append(counts)

    informational = {
        "softmax_elements": sum(config.heads * t * t for t in info_tokens),
        "layer_norm_elements": sum(2 * t * d for t in info_tokens) + n * d,
        "gelu_elements": sum(t * 4 * d for t in info_tokens),
    }
    baseline = config.depth * sum(block_flops(n, d).values())
    return FlopsReport(
        layers=layers,
        patch_embed=config.num_patches * config.patch_dim * d,
        head=d * config.num_classes,
        informational=informational,
        baseline_encoder_total=baseline,
    )


# ----------------------------------------------------------------------
# wall-clock micro-benchmark
# ----------------------------------------------------------------------

def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS this process has
    loaded, found through the library's own exports.  Empty where the
    process map cannot be read or no library exports them."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        if not path.startswith("/"):
            continue
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"),
                                                ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _single_blas_worker():
    """Run the body with BLAS pinned to one worker, yielding whether the
    pin took effect.  Uses threadpoolctl when installed, else OpenBLAS's
    own thread-count functions; the previous counts return on exit."""
    if threadpool_limits is not None:
        with threadpool_limits(limits=1):
            yield True
        return
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield bool(controls) and all(get() == 1 for get, _ in controls)
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def micro_benchmark(n_tokens: int = 128, dim: int = 128,
                    repetitions: int = 25, seed: int = 0) -> dict:
    """Median/IQR wall-clock comparison of the grouped merge kernel (the
    one the model runs) against the dense matmul.

    Both run on identical inputs and must agree within 1e-10 before any
    timing is recorded.  Timing runs pinned to a single BLAS worker (see
    ``_single_blas_worker``) where that is possible; otherwise BLAS keeps
    the threads its environment allows (OPENBLAS_NUM_THREADS and
    friends).  The report's ``blas_pinned`` says which happened.
    Absolute numbers are machine-specific and only the relative ordering
    is meaningful.
    """
    if n_tokens < 1 or dim < 1:
        raise ContractError(
            f"need positive sizes, got tokens={n_tokens} dim={dim}")
    if repetitions < 10:
        raise ContractError(
            f"need at least 10 repetitions, got {repetitions}")
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.05, 1.0, size=n_tokens)
    kept = max(1, n_tokens // 2)
    merge = generate_merge_matrix(scores, kept, n_tokens // 10)
    z = rng.standard_normal((n_tokens, dim))

    # The dense matrix is a derived view; build it once, here, so that the
    # timed dense path is the matmul alone.
    dense = merge.data
    variants = {"grouped": functools.partial(grouped_merge, z, merge),
                "dense": functools.partial(np.matmul, dense, z)}
    reference = variants["dense"]()
    results = {}
    with _single_blas_worker() as pinned:
        for name, fn in variants.items():
            if not np.allclose(fn(), reference, atol=1e-10):
                raise ContractError(f"variant {name} disagrees with dense "
                                    f"reference before timing")
        # Warm every variant before timing any: in a cold process the
        # first-timed variant otherwise absorbs the CPU ramp-up and cache
        # misses, which skews comparisons more than the kernels differ.
        for _ in range(100):
            for fn in variants.values():
                fn()
        # Both kernels run in every repetition, the order alternating
        # between repetitions, so that host load and cache state during
        # the run land on both alike and cannot flip the comparison.
        names = list(variants)
        times: dict[str, list[float]] = {n: [] for n in names}
        for rep in range(repetitions):
            for name in names[::-1] if rep % 2 else names:
                fn = variants[name]
                t0 = time.perf_counter()
                fn()
                times[name].append(time.perf_counter() - t0)
        for name, samples in times.items():
            q1, q2, q3 = np.percentile(samples, [25, 50, 75])
            results[name] = {"median_s": float(q2), "iqr_s": float(q3 - q1)}

    return {
        "n_tokens": n_tokens,
        "dim": dim,
        "repetitions": repetitions,
        "blas_pinned": pinned,
        "variants": results,
    }
