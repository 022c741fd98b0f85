"""Runs one workload: inputs, gates, a closed loop of fresh interpreters,
report.

The program's autodiff graphs are reference cycles (a tensor holds its
node, the node its output) that only the interpreter's cyclic collector
frees, and its automatic full collections come rarely: one process that
runs DeiT-shaped forwards back to back keeps every graph and grows by
gigabytes per batch until it runs out of memory.  The benchmark collects
nothing itself.  So that memory stays bounded, each step of the closed
loop is a fresh interpreter that sets up (timed as ``setup_s``), runs
the workload's ``UNITS`` units with the interpreter's own collection
only, and reports its timings and its peak resident memory.
"""

from __future__ import annotations

import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import prunemerge
import report
from prunemerge.flops import BLOCK_OPS, OVERHEAD_OPS
from layers import CATALOGUE, SpanTotals, per_layer, per_unit_count
from spans import Patcher, Tracer
from workloads import WORKLOADS, GateFailure, Metric

MIN_PROCESSES = 3
CHILD_TIMEOUT_S = 150


@dataclass
class Loop:
    """Outcome of the fresh interpreters of one run."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    walls: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    peaks: list[float] = field(default_factory=list)
    gates: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    processes: int = 0
    attempted: int = 0
    failed: int = 0

    def add(self, ready: float | None, res: dict) -> None:
        self.processes += 1
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        if ready is None:
            return
        self.setups.append(ready)
        self.walls += res["walls"]
        for key, values in res["samples"].items():
            self.samples.setdefault(key, []).extend(values)
        self.peaks.append(res["peak_rss_mb"])
        self.gates += [f"  [{'PASS' if ok else 'FAIL'}] {name}"
                       + (f" ({detail})" if detail else "")
                       for name, ok, detail in res["gates"]]
        if "trace" in res:
            self.traces.append(res["trace"])


# ----------------------------------------------------------------------
# inside one fresh interpreter
# ----------------------------------------------------------------------

def child(name: str, mode: str, workdir: Path, first: int) -> int:
    """Set up, print ``ready``, then run the gates (mode ``gates``) or
    units ``first`` onwards (``units``, or ``traced`` with every public
    function wrapped from before set-up).  Results go to a JSON file in
    ``workdir``."""
    w = WORKLOADS[name](workdir)
    tracer = Tracer() if mode == "traced" else None
    patcher = Patcher(tracer) if tracer else None
    if patcher:
        patcher.install()
    state = w.setup(workdir)
    print("ready", flush=True)
    w.load_inputs()
    out = {"samples": {}, "walls": [], "gates": [], "attempted": 0,
           "failed": 0}
    if mode == "gates":
        try:
            out["gates"] = [[g, bool(ok), d] for g, ok, d in w.gates(state)]
        except Exception:  # noqa: BLE001 - a raising gate is a failed gate
            out["gates"] = [["gates ran to the end", False,
                             traceback.format_exc(limit=1).strip()]]
        out["attempted"] = len(out["gates"])
        out["failed"] = sum(not ok for _, ok, _ in out["gates"])
    else:
        loop_start, once_counts = 0, {}
        if tracer:
            loop_start, once_counts = len(tracer.spans), dict(tracer.counts)
            w.quiet = patcher.suspended
        for k in range(first, first + w.UNITS):
            _run_unit(w, state, k, tracer.span if tracer else None, out)
        if tracer:
            patcher.restore()
            tracer.drop_pending()
            leftover = patcher.unrestored()
            out["gates"].append(["every wrapped name is its original "
                                 "object again", not leftover,
                                 ", ".join(leftover)])
            out["attempted"] += 1
            out["failed"] += bool(leftover)
            out["trace"] = {"spans": tracer.spans, "loop_start": loop_start,
                            "counts": tracer.counts,
                            "once_counts": once_counts}
    out["peak_rss_mb"] = _peak_rss_mb()
    _child_path(workdir, mode, first).write_text(json.dumps(out),
                                                 encoding="utf-8")
    return 0


def _run_unit(w, state, k: int, span, out: dict) -> None:
    out["attempted"] += 1
    t0 = time.perf_counter()
    try:
        timings = w.unit(state, k, span=span)
    except GateFailure as exc:
        out["failed"] += 1
        report.stderr(f"gate failed in {w.unit_name} {k}: {exc}")
    except Exception:  # noqa: BLE001 - count it and keep going
        out["failed"] += 1
        report.stderr(f"{w.unit_name} {k} raised:\n"
                      + traceback.format_exc())
    else:
        out["walls"].append(time.perf_counter() - t0)
        for key, value in timings.items():
            out["samples"].setdefault(key, []).append(value)


def _child_path(workdir: Path, mode: str, first: int) -> Path:
    return workdir / f"child-{mode}-{first}.json"


# ----------------------------------------------------------------------
# the benchmark's own process
# ----------------------------------------------------------------------

def spawn(run_py: Path, w, mode: str, first: int) -> tuple[float | None,
                                                           dict]:
    """Run one fresh interpreter to its end.  Returns the seconds until it
    was ready (None if it failed) and what it reported."""
    cmd = [sys.executable, str(run_py), "--workload", w.name, "--child",
           mode, str(w.workdir), str(first)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          cwd=run_py.resolve().parent.parent) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        try:
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    path = _child_path(w.workdir, mode, first)
    if proc.returncode == 0 and line.strip() == b"ready" and path.is_file():
        return ready, json.loads(path.read_text(encoding="utf-8"))
    report.stderr(f"{mode} process for {w.name} failed "
                  f"(exit {proc.returncode})")
    lost = 1 if mode == "gates" else w.UNITS
    return None, {"attempted": lost, "failed": lost}


def closed_loop(run_py: Path, w, seconds: float, min_processes: int,
                first: int, mode: str = "units") -> Loop:
    """Start fresh interpreters one after another while the next one
    should end within ``seconds``, keeping at least ``min_processes``."""
    loop = Loop()
    end = time.perf_counter() + seconds
    last = 0.0      # wall time of the previous process
    while loop.processes < min_processes \
            or time.perf_counter() + last < end:
        t0 = time.perf_counter()
        loop.add(*spawn(run_py, w, mode, first))
        first += w.UNITS
        last = time.perf_counter() - t0
        if loop.failed > min_processes * w.UNITS:
            break
    return loop


def run(run_py: Path, name: str, seed: int, seconds: float, trace: bool,
        blas_env: dict) -> int:
    if name not in WORKLOADS:
        report.stderr(f"error: unknown workload {name!r}; choose from "
                      f"{', '.join(WORKLOADS)} or all")
        return 2
    root = run_py.resolve().parent.parent
    if Path(prunemerge.__file__).resolve().parent != root / "src" \
            / "prunemerge":
        report.stderr(f"error: imported prunemerge from "
                      f"{prunemerge.__file__}")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = run_py.resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    try:
        w = WORKLOADS[name](workdir)
        runner = _traced if trace else _untraced
        return runner(w, run_py, spec, seed, seconds, out_dir, blas_env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(w, run_py, spec, seed, seconds, out_dir, blas_env):
    w.prepare(seed)
    gates = closed_loop(run_py, w, 0, 1, first=0, mode="gates")
    loop = closed_loop(run_py, w, seconds, MIN_PROCESSES, first=0)
    attempted = gates.attempted + loop.attempted
    failed = gates.failed + loop.failed
    if not loop.walls:
        report.stderr("error: no unit completed; nothing to report")
        return 1
    setups = gates.setups + loop.setups
    metrics = w.metrics(loop.samples) + [
        Metric("setup_s", float(np.median(setups)), "s", setups,
               in_result=True),
        Metric("peak_rss_mb", float(np.median(loop.peaks)), "MB",
               loop.peaks, in_result=True),
        Metric("failed_frac", failed / attempted, "fraction"),
    ]
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = _result(metrics, wanted, attempted, failed)
    env = report.environment(blas_env)
    lines = [f"perfbench {w.name}  seed={seed} seconds={seconds:g} trace=0  "
             f"closed loop, one caller, {loop.attempted} {w.unit_name} "
             f"units in {loop.processes} fresh processes", "environment:",
             *report.env_lines(env), "correctness gates:", *gates.gates,
             f"  {failed} of {attempted} operations failed", "metrics:",
             *(report.metric_line(m) for m in metrics)]
    record = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": 0, "environment": env, "gates": gates.gates,
              "metrics": [_metric_record(m) for m in metrics],
              "result": result}
    _finish(out_dir / f"{w.name}-seed{seed}-trace0.json", record, lines,
            result)
    return 0


def _traced(w, run_py, spec, seed, seconds, out_dir, blas_env):
    tracer = Tracer()
    patcher = Patcher(tracer)
    with patcher:
        w.prepare(seed)
    leftover = patcher.unrestored()
    gates = closed_loop(run_py, w, 0, 1, first=0, mode="gates")
    plain = closed_loop(run_py, w, seconds / 2, 1, first=0)
    traced = closed_loop(run_py, w, 0, 1, first=plain.attempted,
                         mode="traced")
    gate_lines = gates.gates + traced.gates + [
        f"  [{'FAIL' if leftover else 'PASS'}] every name wrapped while "
        f"preparing inputs is its original object again"
        + (f" ({', '.join(leftover)})" if leftover else "")]
    attempted = gates.attempted + plain.attempted + traced.attempted + 1
    failed = gates.failed + plain.failed + traced.failed + bool(leftover)
    if not plain.walls or not traced.walls:
        report.stderr("error: no unit completed; nothing to report")
        return 1

    all_spans, loop_start, counts, once_counts = merge_trace(
        tracer, traced.traces[0])
    units = len(traced.walls)
    totals = SpanTotals(all_spans, loop_start, units)
    flops = w.analytic()
    layer_flops = [sum(row.values()) for row in flops.layers]
    overhead = float(np.median(traced.walls) - np.median(plain.walls))
    extra = {
        "flops.analytic_reduction": flops.reduction,
        "trace.overhead_s": overhead,
    }
    values = per_layer(totals, counts, once_counts, layer_flops, extra)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = [Metric(n, values[n], unit, in_result=n in wanted)
               for n, unit in CATALOGUE]
    result = _result(metrics, wanted, attempted, failed)

    pm_images = per_unit_count(counts, once_counts, units, "pm_images")
    table = _layer_table(totals.layer_rows(), flops, pm_images)
    reduction = {m.name: m for m in w.metrics(plain.samples)}.get(
        "measured_reduction")
    env = report.environment(blas_env)
    lines = [f"perfbench {w.name}  seed={seed} seconds={seconds:g} trace=1  "
             f"{len(plain.walls)} untraced + {units} traced "
             f"{w.unit_name} units; values are per set-up plus one unit",
             "environment:", *report.env_lines(env),
             "correctness gates:", *gate_lines,
             f"  {failed} of {attempted} operations failed",
             f"tracing overhead: {report.fmt(overhead)} s per unit "
             f"({report.fmt(np.median(traced.walls))} traced - "
             f"{report.fmt(np.median(plain.walls))} untraced)",
             f"measured_reduction "
             f"{report.fmt(reduction.value) if reduction else 'n/a'} "
             f"beside analytic {report.fmt(flops.reduction)}",
             "per model layer (compressed model, seconds per unit):",
             *table, "per-layer metrics (* = in BENCHMARK.json):",
             *(report.metric_line(m, m.in_result) for m in metrics)]
    record = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": 1, "environment": env, "gates": gate_lines,
              "layer_table": table,
              "metrics": [_metric_record(m) for m in metrics],
              "result": result}
    spans_path = out_dir / f"{w.name}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start_ns", "end_ns", "parent"],
         "loop_start": loop_start, "spans": all_spans}),
        encoding="utf-8")
    _finish(out_dir / f"{w.name}-seed{seed}-trace1.json", record, lines,
            result)
    return 0


def merge_trace(tracer: Tracer, trace: dict):
    """One span list and one set of counters: the inputs prepared in this
    process, then the traced child's set-up and units.  Returns the
    spans, the index of the first loop span, and the counters at the end
    and at the start of the loop."""
    offset = len(tracer.spans)
    spans = tracer.spans + [[n, a, b, p + offset if p >= 0 else -1]
                            for n, a, b, p in trace["spans"]]

    def summed(counts: dict) -> dict:
        return {k: tracer.counts.get(k, 0) + counts.get(k, 0)
                for k in {*tracer.counts, *counts}}

    return (spans, offset + trace["loop_start"], summed(trace["counts"]),
            summed(trace["once_counts"]))


def _layer_table(rows, flops, pm_images: float) -> list[str]:
    """Measured time per layer beside its analytic multiply-adds.

    ``ns/MA`` divides the measured time by the multiply-adds of the
    images that went through the compressed model in one unit: for the
    block, its six matrix products; for the rest, the merge, reconstruct
    and masked-shortcut terms of the layer's FlopsReport row.
    """
    out = [f"  {'layer':>5} {'block_s':>9} {'merge_s':>9} {'recon_s':>9} "
           f"{'shortcut_s':>10} {'block MA/img':>12} {'other MA/img':>12} "
           f"{'ns/MA block':>11} {'ns/MA other':>11}"]
    for layer, counts in enumerate(flops.layers):
        row = rows.get(layer, {})
        block, merge, recon, shortcut = (row.get(k, 0.0) for k in (
            "block_s", "merge_s", "reconstruct_s", "shortcut_s"))
        block_ma = sum(counts.get(op, 0) for op in BLOCK_OPS)
        other_ma = sum(counts.get(op, 0) for op in OVERHEAD_OPS)
        out.append(
            f"  {layer:>5} {block:>9.4g} {merge:>9.4g} {recon:>9.4g} "
            f"{shortcut:>10.4g} {block_ma:>12d} {other_ma:>12d} "
            f"{_ns_per(block, block_ma, pm_images):>11.3g} "
            f"{_ns_per(merge + recon + shortcut, other_ma, pm_images):>11.3g}")
    return out


def _ns_per(seconds: float, per_image: int, images: float) -> float:
    if not per_image or not images:
        return float("nan")
    return seconds / (per_image * images) * 1e9


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric_record(m: Metric) -> dict:
    rec = {"name": m.name, "value": m.value, "unit": m.unit}
    if m.samples:
        rec.update(report.summary(m.samples), samples=m.samples)
    return rec


def _result(metrics, wanted: dict, attempted: int, failed: int) -> dict:
    chosen = {m.name: m for m in metrics if m.in_result}
    missing = set(wanted) - set(chosen)
    if missing:
        raise KeyError(f"workload computed no value for {sorted(missing)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": chosen[n].value, "unit": u}
                        for n, u in wanted.items()}}


def _finish(path: Path, record: dict, lines: list[str], result: dict) -> None:
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(f"record written to {path}")
    print(json.dumps(result), flush=True)


def run_all(run_py: Path, seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run_py), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 \
            else {"exit": proc.returncode}
    print(json.dumps(results), flush=True)
    return status
