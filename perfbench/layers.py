"""Per-layer metrics from the spans and counters of a traced run.

Every value describes one set-up plus one workload unit: work recorded
before the loop (preparing inputs, loading models) counts once, work in
the loop is divided by the number of traced units.  Metric names map to
spans by suffix: ``X.s`` is the inclusive time of span ``X``,
``X.self_s`` its self time, ``X.wait_s`` the time inside span ``X.wait``
and ``X.calls`` the number of ``X`` spans.
"""

from __future__ import annotations

import re

from spans import self_times

PM_FORWARD = "compression.CompressedModel.forward"
PM_LAYER = "compression.pm_forward_tensors"
BLOCK = "vit.block_forward"
LAYER_PARTS = {"compression.merge_tokens": "merge_s", BLOCK: "block_s",
               "compression.reconstruct_tokens": "reconstruct_s"}
LAYER_METRIC = re.compile(r"compression\.layer(\d\d)\.(\w+)$")
MAX_LAYERS = 12


def _catalogue() -> list[tuple[str, str]]:
    out = [("tensor.graph_nodes", "count"),
           ("tensor.graph_replayed_frac", "fraction"),
           ("tensor.backward.s", "s"), ("tensor.matmul.s", "s"),
           ("tensor.matmul.calls", "count"), ("tensor.gelu.s", "s"),
           ("tensor.softmax_rows.s", "s"),
           ("tensor.layer_norm.s", "s"),
           ("vit.patchify.s", "s"), ("vit.block_forward.s", "s"),
           ("vit.VisionTransformer.forward.s", "s"),
           ("compression.CompressedModel.forward.s", "s"),
           ("compression.merge_tokens.s", "s"),
           ("compression.reconstruct_tokens.s", "s"),
           ("compression.pm_forward_tensors.self_s", "s"),
           ("compression.merge_bytes", "bytes_computed"),
           ("compression.shortcut_useful_frac", "fraction"),
           ("compression.global_plan.s", "s"),
           ("compression.pseudoinverse.s", "s")]
    for layer in range(MAX_LAYERS):
        p = f"compression.layer{layer:02d}."
        out += [(p + part, "s") for part in
                ("block_s", "merge_s", "reconstruct_s", "shortcut_s")]
        out.append((p + "multiply_adds", "count"))
    out += [("scoring.collect_scores.s", "s"),
            ("scoring.scores_from_trace.s", "s"),
            ("finetune.AdamW.step.s", "s"),
            ("finetune.self_distill_loss.s", "s"),
            ("finetune.evaluate_accuracy.s", "s"),
            ("data.batches.wait_s", "s"),
            ("data.load_idx_pair.s", "s"),
            ("checkpoint.save_arrays.s", "s"),
            ("checkpoint.load_arrays.s", "s"),
            ("checkpoint.bytes_written", "bytes"),
            ("checkpoint.plan_bytes", "bytes")]
    out += [(f"cli.main.{cmd}.self_s", "s") for cmd in
            ("train-baseline", "score", "compress", "finetune", "eval")]
    out += [("flops.analytic_reduction", "fraction"),
            ("trace.overhead_s", "s")]
    return out


# Every per-layer metric a traced run reports, with its unit.
# BENCHMARK.json lists the subset that every workload exercises.
CATALOGUE = _catalogue()


class SpanTotals:
    """Span time and counts split into a one-off part and a loop part."""

    def __init__(self, spans, loop_start: int, units: int):
        self.spans = spans
        self.selfs = self_times(spans)
        self.loop_start = loop_start
        self.units = units
        self.children: dict[int, list[int]] = {}
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self.by_name.setdefault(span[0], []).append(i)
            if span[3] >= 0:
                self.children.setdefault(span[3], []).append(i)

    def per_unit(self, pairs) -> float:
        """Sum of (span index, amount) as one-off + loop / units."""
        once = loop = 0.0
        for i, amount in pairs:
            if i < self.loop_start:
                once += amount
            else:
                loop += amount
        return once + loop / self.units

    def inclusive(self, name: str) -> float:
        return self.per_unit((i, self._dur(i))
                             for i in self.by_name.get(name, ()))

    def self_time(self, name: str) -> float:
        return self.per_unit((i, self.selfs[i] * 1e-9)
                             for i in self.by_name.get(name, ()))

    def calls(self, name: str) -> float:
        return self.per_unit((i, 1.0) for i in self.by_name.get(name, ()))

    def layer_rows(self) -> dict[int, dict[str, float]]:
        """Block, merge, reconstruct and shortcut time of each layer of
        the compressed model, from the children of each of its forwards."""
        parts: dict[int, dict[str, list]] = {}
        for i in self.by_name.get(PM_FORWARD, ()):
            layers = [c for c in self.children.get(i, ())
                      if self.spans[c][0] in (PM_LAYER, BLOCK)]
            for layer, c in enumerate(layers):
                row = parts.setdefault(layer, {})
                if self.spans[c][0] == BLOCK:
                    row.setdefault("block_s", []).append(
                        (c, self._dur(c)))
                    continue
                row.setdefault("shortcut_s", []).append(
                    (c, self.selfs[c] * 1e-9))
                for g in self.children.get(c, ()):
                    key = LAYER_PARTS.get(self.spans[g][0])
                    if key:
                        row.setdefault(key, []).append((g, self._dur(g)))
        return {layer: {k: self.per_unit(v) for k, v in row.items()}
                for layer, row in parts.items()}

    def _dur(self, i: int) -> float:
        return (self.spans[i][2] - self.spans[i][1]) * 1e-9


def per_unit_count(counts: dict, once_counts: dict, units: int,
                   key: str) -> float:
    """Counter ``key`` as its one-off part plus its loop part / units."""
    once = once_counts.get(key, 0.0)
    return once + (counts.get(key, 0.0) - once) / units


def per_layer(totals: SpanTotals, counts: dict[str, float],
              once_counts: dict[str, float], layer_flops: list[int],
              extra: dict[str, float]) -> dict[str, float]:
    """Value of every metric in the catalogue.

    ``counts`` are the counters at the end of the traced section and
    ``once_counts`` their values when the loop started.  ``layer_flops``
    holds each model layer's analytic multiply-adds per image;
    ``extra`` supplies values computed outside the trace.
    """
    def count(key: str) -> float:
        return per_unit_count(counts, once_counts, totals.units, key)

    rows = totals.layer_rows()
    forwards = count("forwards")
    rows_mult = count("shortcut_rows")
    special = {
        "tensor.graph_nodes":
            count("graph_nodes") / forwards if forwards else 0.0,
        "tensor.graph_replayed_frac":
            count("graph_replayed") / count("graph_nodes")
            if count("graph_nodes") else 0.0,
        "compression.merge_bytes": count("merge_bytes"),
        "compression.shortcut_useful_frac":
            count("shortcut_pruned_rows") / rows_mult if rows_mult else 0.0,
        "checkpoint.bytes_written": count("bytes_written"),
        "checkpoint.plan_bytes": count("plan_bytes"),
    }
    special.update(extra)
    out = {}
    for name, _ in CATALOGUE:
        m = LAYER_METRIC.match(name)
        if name in special:
            out[name] = float(special[name])
        elif m:
            layer, part = int(m.group(1)), m.group(2)
            if part == "multiply_adds":
                out[name] = float(layer_flops[layer]) \
                    if layer < len(layer_flops) else 0.0
            else:
                out[name] = rows.get(layer, {}).get(part, 0.0)
        elif name.endswith(".self_s"):
            out[name] = totals.self_time(name[:-len(".self_s")])
        elif name.endswith(".wait_s"):
            out[name] = totals.inclusive(name[:-len("_s")])
        elif name.endswith(".calls"):
            out[name] = totals.calls(name[:-len(".calls")])
        elif name.endswith(".s"):
            out[name] = totals.inclusive(name[:-len(".s")])
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out
