"""In-memory span tracing around the public functions of prunemerge.

A ``Tracer`` keeps every span as (name, start_ns, end_ns, parent) in a
list; nothing is written until the run ends.  ``Patcher`` swaps each
traced function for a wrapper at every place it is looked up -- the
defining module, every prunemerge module that imported the name
directly, or the class that owns a method -- and puts the originals
back on ``restore``.  With no patcher installed the program runs
untouched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

import numpy as np

# (span name, module, attribute).  A dotted attribute names a method on
# a class defined in that module.  Span names double as metric prefixes.
TRACED = (
    ("tensor.matmul", "prunemerge.tensor", "matmul"),
    ("tensor.gelu", "prunemerge.tensor", "gelu"),
    ("tensor.softmax_rows", "prunemerge.tensor", "softmax_rows"),
    ("tensor.layer_norm", "prunemerge.tensor", "layer_norm"),
    ("tensor.backward", "prunemerge.tensor", "backward"),
    ("vit.patchify", "prunemerge.vit", "patchify"),
    ("vit.block_forward", "prunemerge.vit", "block_forward"),
    ("vit.VisionTransformer.forward", "prunemerge.vit",
     "VisionTransformer.forward"),
    ("vit.VisionTransformer.frozen_copy", "prunemerge.vit",
     "VisionTransformer.frozen_copy"),
    ("compression.merge_tokens", "prunemerge.compression", "merge_tokens"),
    ("compression.reconstruct_tokens", "prunemerge.compression",
     "reconstruct_tokens"),
    ("compression.pm_forward_tensors", "prunemerge.compression",
     "pm_forward_tensors"),
    ("compression.global_plan", "prunemerge.compression", "global_plan"),
    ("compression.pseudoinverse", "prunemerge.compression", "pseudoinverse"),
    ("compression.compress_model", "prunemerge.compression",
     "compress_model"),
    ("compression.CompressedModel.forward", "prunemerge.compression",
     "CompressedModel.forward"),
    ("scoring.collect_scores", "prunemerge.scoring", "collect_scores"),
    ("scoring.scores_from_trace", "prunemerge.scoring", "scores_from_trace"),
    ("scoring.export_scores_csv", "prunemerge.scoring", "export_scores_csv"),
    ("scoring.load_scores_csv", "prunemerge.scoring", "load_scores_csv"),
    ("finetune.AdamW.step", "prunemerge.finetune", "AdamW.step"),
    ("finetune.self_distill_loss", "prunemerge.finetune",
     "self_distill_loss"),
    ("finetune.evaluate_accuracy", "prunemerge.finetune",
     "evaluate_accuracy"),
    ("finetune.train_baseline", "prunemerge.finetune", "train_baseline"),
    ("finetune.finetune", "prunemerge.finetune", "finetune"),
    ("data.load_idx_pair", "prunemerge.data", "load_idx_pair"),
    ("data.batches.wait", "prunemerge.data", "batches"),
    ("checkpoint.save_arrays", "prunemerge.checkpoint", "save_arrays"),
    ("checkpoint.load_arrays", "prunemerge.checkpoint", "load_arrays"),
    ("checkpoint.save_model", "prunemerge.checkpoint", "save_model"),
    ("checkpoint.load_model", "prunemerge.checkpoint", "load_model"),
    ("checkpoint.save_plan", "prunemerge.checkpoint", "save_plan"),
    ("checkpoint.load_plan", "prunemerge.checkpoint", "load_plan"),
)

# Span covering the tracer's own bookkeeping, so it never counts as the
# self time of the span that encloses it.
OBSERVE = "trace.observe"


class Tracer:
    """Spans and counters of one traced section, kept in memory."""

    def __init__(self):
        self.spans: list = []   # (name, start_ns, end_ns, parent index)
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._pending = None    # (output tensor, node ids) of last forward

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def drop_pending(self) -> None:
        """Release the last forward's graph held for replay counting."""
        self._pending = None


def self_times(spans) -> list[int]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            a, b = max(spans[c][1], reach), min(spans[c][2], end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


# ----------------------------------------------------------------------
# observers: counts gathered at the traced boundaries
# ----------------------------------------------------------------------

def _observe_forward(tracer, args, kwargs, out):
    from prunemerge.tensor import Tape
    nodes = Tape.trace(out).nodes
    tracer.add("forwards", 1)
    tracer.add("graph_nodes", len(nodes))
    if nodes:
        # The strong reference keeps the node ids valid until a backward
        # claims them or the next forward replaces them.
        tracer._pending = (out, {id(n) for n in nodes})


def _observe_pm_forward(tracer, args, kwargs, out):
    _observe_forward(tracer, args, kwargs, out)
    tracer.add("pm_images", np.asarray(args[1]).shape[0])


def _observe_backward(tracer, args, kwargs, tape):
    if tracer._pending is not None:
        ids = tracer._pending[1]
        tracer.add("graph_replayed",
                   sum(1 for n in tape.nodes if id(n) in ids))
        tracer._pending = None


def _observe_merge(tracer, args, kwargs, out):
    z = args[0]
    n = z.shape[-2]
    tracer.add("merge_bytes", z.data.nbytes + 8 * n + out.data.nbytes)


def _observe_reconstruct(tracer, args, kwargs, out):
    y = args[0]
    n = out.shape[-2]
    tracer.add("merge_bytes", y.data.nbytes + 8 * n + out.data.nbytes)


def _observe_shortcut(tracer, args, kwargs, out):
    mask = np.asarray(args[4])
    tracer.add("shortcut_pruned_rows", int((mask == 0).sum()))
    tracer.add("shortcut_rows", mask.size)


def _observe_save_arrays(tracer, args, kwargs, out):
    tracer.add("bytes_written", os.path.getsize(args[0]))


def _observe_save_plan(tracer, args, kwargs, out):
    tracer.add("plan_bytes", os.path.getsize(args[0]))


OBSERVERS = {
    "vit.VisionTransformer.forward": _observe_forward,
    "compression.CompressedModel.forward": _observe_pm_forward,
    "tensor.backward": _observe_backward,
    "compression.merge_tokens": _observe_merge,
    "compression.reconstruct_tokens": _observe_reconstruct,
    "compression.pm_forward_tensors": _observe_shortcut,
    "checkpoint.save_arrays": _observe_save_arrays,
    "checkpoint.save_plan": _observe_save_plan,
}


# ----------------------------------------------------------------------
# wrappers and patching
# ----------------------------------------------------------------------

def _wrap(fn, name: str, tracer: Tracer):
    observer = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observer is not None:
            obs = tracer.open(OBSERVE)
            observer(tracer, args, kwargs, out)
            tracer.close(obs)
        return out

    return wrapper


def _wrap_generator(fn, name: str, tracer: Tracer):
    """Time each ``next`` on the generator ``fn`` returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            yield item

    return wrapper


def _resolve(module_name: str, attr: str):
    """(owner, attribute name) where ``attr`` is defined."""
    owner = importlib.import_module(module_name)
    *classes, leaf = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, leaf


class Patcher:
    """Installs the tracing wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.replaced: list[tuple[object, str, object]] = []
        self.patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        importlib.import_module("prunemerge.cli")  # loads every module
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "prunemerge" or name.startswith("prunemerge.")]
        for span_name, module_name, attr in TRACED:
            owner, leaf = _resolve(module_name, attr)
            original = owner.__dict__[leaf]
            make = _wrap_generator if span_name == "data.batches.wait" \
                else _wrap
            wrapper = make(original, span_name, self.tracer)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [m for m in modules
                         if any(v is original for v in vars(m).values())]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        self.replaced.append((site, key, original))
        self.patched.extend(self.replaced)

    def restore(self) -> None:
        while self.replaced:
            site, key, original = self.replaced.pop()
            setattr(site, key, original)

    @contextlib.contextmanager
    def suspended(self):
        """Run the body with the originals in place."""
        self.restore()
        try:
            yield
        finally:
            self.install()

    def unrestored(self) -> list[str]:
        """Every patched name that is not its original object again."""
        return [f"{getattr(site, '__name__', site)}.{key}"
                for site, key, original in self.patched
                if vars(site).get(key) is not original]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
