"""``grid-full``: the paper's headline grid, cold into an empty cache, then warm.

One operation is one cold ``run_grid(builtin_grid("full"))`` — 198 cells, 2
worker processes, a fresh cache directory — followed by warm re-runs against
the cache it filled.  The seed permutes the algorithm and cost-model axes,
so the dispatch order varies while the cell set (and every answer) stays
the same.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from typing import Dict, List

from common import (
    ALGORITHMS,
    HERE,
    Context,
    GCPauses,
    HostSpeed,
    Result,
    Spans,
    median,
    peak_rss_mb,
    probe_ready_seconds,
    ratio,
    settle,
    timed_calls,
    total_cpu_seconds,
)

WORKERS = 2
#: Warm re-runs after each cold grid.
WARM_PER_COLD = 10
#: Host-speed samples right before and right after each untraced cold grid
#: (a cold grid runs for seconds, a sample for about 80 ms).
HOST_SAMPLES_AROUND_COLD = 3
SETUP_SAMPLES = 5
REFERENCE = os.path.join(HERE, "reference", "grid_cells.json")


def grid_spec(seed: int, smoke: bool):
    """The grid one run measures: ``full`` (``tiny`` in smoke mode), axes seeded."""
    from repro.grid import GridSpec, builtin_grid

    base = builtin_grid("tiny" if smoke else "full")
    rng = random.Random(seed)
    algorithms = list(base.algorithms)
    cost_models = list(base.cost_models)
    rng.shuffle(algorithms)
    rng.shuffle(cost_models)
    return GridSpec(
        name=base.name,
        algorithms=algorithms,
        workloads=base.workloads,
        cost_models=cost_models,
    )


def cell_digest(payload: Dict[str, object]) -> str:
    """SHA-256 of a cell's deterministic payload in canonical JSON."""
    from repro.grid import deterministic_payload

    text = json.dumps(
        deterministic_payload(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(result: Result, report, reference: Dict[str, str], warm: bool) -> None:
    """Every cell present, none failed, each digest equal to the reference.

    ``reference`` is the label -> digest map of the grid that ran, so a cell
    the grid no longer produces is caught as well as a changed answer.
    """
    result.attempted += len(report.results)
    result.failed += report.failed
    result.check(report.failed == 0, f"{report.failed} grid cell(s) failed")
    labels = sorted(cell.cell.label for cell in report.results)
    if labels != sorted(reference):
        missing = sorted(set(reference) - set(labels))
        result.problems.append(
            f"grid ran {len(labels)} cells, reference has {len(reference)}"
            f" (missing: {', '.join(missing[:5]) or 'none'})"
        )
    if warm:
        result.check(
            report.cache_hits == len(report.results),
            f"warm grid served {report.cache_hits}/{len(report.results)} cells from cache",
        )
    for cell in report.results:
        if not cell.ok:
            continue
        expected = reference.get(cell.cell.label)
        result.check(expected is not None, f"no reference for cell {cell.cell.label}")
        if expected is not None and cell_digest(cell.payload) != expected:
            result.problems.append(f"cell {cell.cell.label}: payload differs from reference")


def cell_walls(trace_path: str) -> Dict[str, float]:
    """Wall seconds of each ``grid.cell`` span in a ``run_grid`` trace file."""
    from repro.obs.trace import read_trace

    _, records = read_trace(trace_path)
    walls: Dict[str, float] = {}
    for record in records:
        if record.get("type") == "span" and record.get("name") == "grid.cell":
            label = record.get("attrs", {}).get("cell")
            walls[label] = walls.get(label, 0.0) + float(record.get("wall", 0.0))
    return walls


def run(ctx: Context, spans: Spans) -> Result:
    from repro.grid import ResultCache, run_grid

    result = Result(bypassed=("service.", "exec.", "engine_x.", "storage."))
    setup = [probe_ready_seconds("grid", ctx.workdir) for _ in range(SETUP_SAMPLES)]
    spec = grid_spec(ctx.seed, ctx.smoke)
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)[spec.name]
    warm_per_cold = 2 if ctx.smoke else WARM_PER_COLD

    cold_walls: List[float] = []
    cold_cpus: List[float] = []
    warm_walls: List[float] = []
    traced_walls: List[float] = []
    layer: Dict[str, List[float]] = {}
    host = HostSpeed()
    deadline = ctx.deadline()
    iteration = 0
    while True:
        started = time.perf_counter()
        # In the traced pass, odd iterations are traced and even ones are
        # not, so both see the same conditions and their ratio is the
        # tracing overhead.
        traced = ctx.trace and iteration % 2 == 1
        cache_dir = os.path.join(ctx.workdir, f"grid-cache-{iteration}")
        trace_path = (
            os.path.join(ctx.trace_dir, f"grid-full-seed{ctx.seed}-cold{iteration}.jsonl")
            if traced
            else None
        )
        store_spans = len(spans.durations("grid.ResultCache.store"))
        if not traced:
            host.sample(HOST_SAMPLES_AROUND_COLD)
        settle()
        with GCPauses() as pauses, timed_calls(
            spans, [(ResultCache, "store", "grid.ResultCache.store")] if traced else []
        ), spans.span("grid-full.cold", op=iteration):
            cpu0 = total_cpu_seconds()
            t0 = time.perf_counter()
            report = run_grid(spec, cache_dir=cache_dir, workers=WORKERS, trace=trace_path)
            wall = time.perf_counter() - t0
            cpu = total_cpu_seconds() - cpu0
        check_report(result, report, reference, warm=False)
        if traced:
            traced_walls.append(wall)
            walls = cell_walls(trace_path)
            telemetry = report.telemetry
            execute_s = telemetry.phases.get("grid.execute", 0.0)
            counters = telemetry.metrics.get("counters", {})
            hits = counters.get("cost.evaluator.memo.hits", 0)
            lookups = hits + counters.get("cost.evaluator.memo.misses", 0)
            stores = spans.durations("grid.ResultCache.store")[store_spans:]
            samples = {
                "grid.execute_s": execute_s,
                "grid.cell_max_s": max(walls.values(), default=0.0),
                "grid.worker_idle_s": WORKERS * execute_s - sum(walls.values()),
                "grid.cache.stores": telemetry.cache_stores,
                "grid.cache_store_ms": 1e3 * median(stores),
                "algorithms.compute_s": sum(walls.values()),
                "cost.memo_hit_ratio": ratio(hits, lookups),
                "cost.memo_lookups": lookups,
                "python.gc_pause_s": pauses.total,
            }
            for algorithm in ALGORITHMS:
                samples[f"algorithms.{algorithm}.cell_s"] = sum(
                    seconds for label, seconds in walls.items()
                    if label.split("/", 1)[0] == algorithm
                )
            for name, value in samples.items():
                layer.setdefault(name, []).append(value)
        else:
            host.sample(HOST_SAMPLES_AROUND_COLD)
            cold_walls.append(wall)
            cold_cpus.append(cpu)

        for repeat in range(warm_per_cold):
            settle()
            with spans.span("grid-full.warm", op=iteration):
                t0 = time.perf_counter()
                warm = run_grid(spec, cache_dir=cache_dir, workers=WORKERS)
                warm_walls.append(time.perf_counter() - t0)
            if repeat == warm_per_cold - 1:
                check_report(result, warm, reference, warm=True)
            else:
                result.attempted += len(warm.results)
                result.failed += warm.failed
            phases = warm.telemetry.phases
            layer.setdefault("grid.resolve_s", []).append(phases.get("grid.resolve", 0.0))
            layer.setdefault("grid.cache_scan_s", []).append(phases.get("grid.cache-scan", 0.0))
            layer.setdefault("grid.cache.hits", []).append(warm.cache_hits)
            layer.setdefault("grid.cache.hit_ratio", []).append(warm.hit_rate)
        shutil.rmtree(cache_dir, ignore_errors=True)
        iteration += 1
        last = time.perf_counter() - started
        enough = iteration >= (2 if ctx.trace else 1)
        if enough and time.perf_counter() + last > deadline:
            break

    result.metrics = {
        "setup_s": median(setup) * host.factor,
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": 1e3 * median(cold_walls) * host.factor,
        "cpu_ms_per_op": 1e3 * median(cold_cpus) * host.factor,
    }
    result.named = {
        "host_factor": host.factor,
        "raw_setup_s": median(setup),
        "cold_grids": len(cold_walls),
        "cold_grid_s": median(cold_walls),
        "grid_cpu_s": median(cold_cpus),
        "warm_grid_ms": 1e3 * median(warm_walls),
        "warm_grids": len(warm_walls),
    }
    if ctx.trace:
        result.metrics.update({name: median(values) for name, values in layer.items()})
        result.metrics["grid.warm_grid_ms"] = 1e3 * median(warm_walls)
        result.metrics["obs.trace_overhead_ratio"] = (
            median(traced_walls) / median(cold_walls) - 1.0
        )
    return result
