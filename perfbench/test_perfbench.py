"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    s = [["a", 0, 100, -1],
         ["b", 10, 40, 0],
         ["c", 20, 30, 1],
         ["d", 50, 70, 0],
         ["e", 60, 65, 3]]
    assert spans.self_times(s) == [50, 20, 10, 15, 5]


def test_self_time_counts_overlap_and_overhang_once():
    s = [["a", 0, 100, -1],
         ["b", 10, 50, 0],
         ["c", 30, 60, 0],      # overlaps b
         ["d", 90, 120, 0]]     # runs past its parent
    assert spans.self_times(s) == [100 - 50 - 10, 40, 30, 30]


def test_tracer_nesting_and_self_times_add_up():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
        with tracer.span("inner"):
            pass
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "leaf", "inner"]
    assert parents == [-1, 0, 1, 0]
    outer = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == outer[2] - outer[1]


def test_span_totals_split_one_off_and_per_unit():
    s = [["x", 0, 10, -1],       # one-off
         ["x", 20, 24, -1],      # loop, unit 1
         ["x", 30, 36, -1]]      # loop, unit 2
    totals = layers.SpanTotals(s, loop_start=1, units=2)
    assert totals.inclusive("x") == pytest.approx((10 + (4 + 6) / 2) * 1e-9)
    assert totals.calls("x") == 2.0


def test_layer_rows_follow_the_compressed_forward():
    pm, blk = layers.PM_LAYER, layers.BLOCK
    s = [[layers.PM_FORWARD, 0, 100, -1],
         [pm, 10, 40, 0],
         ["compression.merge_tokens", 11, 13, 1],
         [blk, 13, 33, 1],
         ["compression.reconstruct_tokens", 33, 36, 1],
         [blk, 50, 80, 0]]            # an exempt layer
    rows = layers.SpanTotals(s, loop_start=0, units=1).layer_rows()
    assert rows[0]["merge_s"] == pytest.approx(2e-9)
    assert rows[0]["block_s"] == pytest.approx(20e-9)
    assert rows[0]["reconstruct_s"] == pytest.approx(3e-9)
    assert rows[0]["shortcut_s"] == pytest.approx((30 - 25) * 1e-9)
    assert rows[1] == {"block_s": pytest.approx(30e-9)}


def test_merged_trace_keeps_parents_and_splits_one_off_from_loop():
    import bench
    tracer = spans.Tracer()
    tracer.spans = [["compression.global_plan", 0, 5, -1]]
    tracer.counts = {"plan_bytes": 7}
    child = {"spans": [["checkpoint.load_model", 10, 20, -1],
                       ["checkpoint.load_arrays", 11, 19, 0],
                       ["vit.block_forward", 30, 40, -1],
                       ["tensor.gelu", 31, 33, 2]],
             "loop_start": 2, "counts": {"forwards": 3, "plan_bytes": 0},
             "once_counts": {"forwards": 1}}
    merged, loop_start, counts, once = bench.merge_trace(tracer, child)
    assert [p for *_, p in merged] == [-1, -1, 1, -1, 3]
    assert loop_start == 3
    assert counts == {"forwards": 3, "plan_bytes": 7}
    assert once == {"forwards": 1, "plan_bytes": 7}
    totals = layers.SpanTotals(merged, loop_start, units=1)
    assert totals.self_time("checkpoint.load_model") == pytest.approx(2e-9)
    assert totals.inclusive("tensor.gelu") == pytest.approx(2e-9)


def test_accuracy_gate_floors():
    from workloads import AccPipeline, GateFailure
    AccPipeline.check_accuracy(0.7, 0.65)
    for base, pm in ((0.45, 0.7), (0.7, 0.45), (0.8, 0.69)):
        with pytest.raises(GateFailure):
            AccPipeline.check_accuracy(base, pm)


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------

def _bindings():
    """Every attribute of every prunemerge module and traced class."""
    import prunemerge.cli  # noqa: F401 - loads every module
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "prunemerge" or name.startswith("prunemerge."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(name, key, k)] = v
    return out


def _tiny_compressed_forward():
    from prunemerge import compression
    from prunemerge.vit import ModelConfig, VisionTransformer
    cfg = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                      depth=2, heads=2, mlp_ratio=2, num_classes=3)
    rng = np.random.default_rng(0)
    base = VisionTransformer.build(cfg, seed=0)
    scores = [rng.random(cfg.num_tokens) for _ in range(cfg.depth)]
    plan = compression.global_plan(scores, 0.7, 0.2, exempt_layers=())
    pm = compression.compress_model(base, plan)
    return pm.forward(rng.random((2, 1, 8, 8)))


def test_patcher_wraps_every_lookup_site_and_restores_originals():
    before = _bindings()
    import prunemerge.compression as compression
    import prunemerge.vit as vit
    tracer = spans.Tracer()
    patcher = spans.Patcher(tracer)
    with patcher:
        # compression imported block_forward by name; both sites wrap
        assert compression.block_forward is not before[
            ("prunemerge.compression", "block_forward")]
        assert vit.block_forward is compression.block_forward
        _tiny_compressed_forward()
    names = {s[0] for s in tracer.spans}
    assert {"compression.CompressedModel.forward", "vit.block_forward",
            "compression.merge_tokens", "compression.reconstruct_tokens",
            "compression.pm_forward_tensors", "tensor.matmul",
            "compression.global_plan"} <= names
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert patcher.unrestored() == []
    after = _bindings()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []


def test_suspended_patcher_records_nothing():
    tracer = spans.Tracer()
    patcher = spans.Patcher(tracer)
    with patcher:
        with patcher.suspended():
            _tiny_compressed_forward()
        assert tracer.spans == []
    assert patcher.unrestored() == []


def test_traced_generator_times_each_next_and_restores():
    from prunemerge import data
    tracer = spans.Tracer()
    ds = data.Dataset(np.zeros((5, 1, 2, 2)), np.zeros(5, dtype=np.int64), 2)
    with spans.Patcher(tracer):
        got = [len(x) for x, _ in data.batches(ds, 2, seed=0, epoch=0)]
    assert got == [2, 2, 1]
    waits = [s for s in tracer.spans if s[0] == "data.batches.wait"]
    assert len(waits) == 4          # three batches, then the exhausted call


# ----------------------------------------------------------------------
# BENCHMARK.json and the metric catalogue
# ----------------------------------------------------------------------

def test_benchmark_json_names_and_units():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
        for m in SPEC[group]:
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("higher", "lower")
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200


def test_workload_names_match_the_code():
    from workloads import WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_benchmark_per_layer_metrics_come_from_the_catalogue():
    units = dict(layers.CATALOGUE)
    assert len(units) == len(layers.CATALOGUE)
    for name, unit in layers.CATALOGUE:
        assert NAME.fullmatch(name) and UNIT.fullmatch(unit), name
    for m in SPEC["per_layer"]:
        assert units.get(m["name"]) == m["unit"], m


def test_every_reported_metric_has_a_rule_and_a_prediction():
    names = [n for n, _ in layers.CATALOGUE]
    totals = layers.SpanTotals([], loop_start=0, units=1)
    values = layers.per_layer(totals, {}, {}, [1] * 12, {
        "flops.analytic_reduction": 0.0, "trace.overhead_s": 0.0})
    assert sorted(values) == sorted(names)

    predictions = json.loads((HERE / "predictions.json").read_text())
    covered = set()
    workloads = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in predictions["predictions"]:
        covered.update(entry["metrics"])
        for pair in entry["moves"] + entry["unmoved"]:
            workload, _, metric = pair.partition(":")
            assert workload in workloads and metric in e2e, pair
    for name in names:
        family = re.sub(r"layer\d\d\..*", "layerNN.*", name)
        assert name in covered or family in covered, name


def test_summary_reports_the_supported_percentile():
    s = report.summary(list(range(30)))
    assert s["high_label"] == "p66" and s["n"] == 30
    assert s["median"] == pytest.approx(14.5)
    s = report.summary([3.0, 1.0, 2.0])
    assert s["high_label"] == "max" and s["high"] == 3.0
