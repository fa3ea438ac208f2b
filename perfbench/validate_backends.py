"""``validate-measured`` and ``validate-sqlite``: ``validate_costs`` per backend.

One operation is one ``LayoutAdvisor.validate_costs`` call on one workload of
a fixed list: the six algorithms recommend layouts, then every layout plus
the Row and Column baselines is materialised and replayed on the backend —
the numpy scan executor at 200k rows, or SQLite at 2k rows.  The data seed
is the benchmark seed.  Each backend is its own workload so that a change to
one moves that workload's figures and leaves the other's alone.

Each untimed pass samples the host's speed (:class:`common.HostSpeed`) right
before every call, and ``setup_s``, ``op_p50_ms`` and ``cpu_ms_per_op`` are
scaled by it; the raw figures are printed beside them.

After the timed passes, one untimed call per workload at
:data:`REFERENCE_DATA_SEED` is checked against scan accounting committed in
``reference/validate_scans.json``, which ``make_reference.py`` writes.
"""

from __future__ import annotations

import json
import os
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
    cpu_seconds,
    median,
    peak_rss_mb,
    probe_ready_seconds,
    ratio,
    settle,
    timed_calls,
)

#: Workloads whose measured table holds at least 200k rows, so both backends
#: run at the row counts below.
WORKLOADS = ("tpch:partsupp@1", "star:tiny", "telemetry:small")
SMOKE_WORKLOADS = ("tpch:partsupp@1",)
ROWS = {"measured": 200_000, "sqlite": 2_000}
SMOKE_ROWS = {"measured": 2_000, "sqlite": 500}
SETUP_SAMPLES = 5
REFERENCE = os.path.join(HERE, "reference", "validate_layouts.json")
SCANS_REFERENCE = os.path.join(HERE, "reference", "validate_scans.json")
#: Data seed of the untimed call checked against ``SCANS_REFERENCE``.
REFERENCE_DATA_SEED = 0
#: What each backend's report says about one layout's scans.
SCAN_FIELDS = {
    "measured": ("partitions", "blocks_read", "seeks", "checksum"),
    "sqlite": ("partitions", "rows_scanned", "bytes_scanned"),
}


def canonical_layout(partitioning) -> List[List[str]]:
    """A layout as sorted lists of column names (order-independent)."""
    return sorted(sorted(group) for group in partitioning.as_names())


def recommended_layouts(workload_id: str) -> Dict[str, List[List[str]]]:
    """Every layout ``validate_costs`` executes for ``workload_id``, by label."""
    from repro.core.advisor import LayoutAdvisor

    with LayoutCapture("measured") as capture:
        LayoutAdvisor().validate_costs(_resolve(workload_id), rows=1000)
    return {label: canonical_layout(layout) for label, layout in sorted(capture.layouts.items())}


def _resolve(workload_id: str):
    from repro.grid.spec import resolve_workload

    return resolve_workload(workload_id)


class LayoutCapture:
    """Keeps the ``layouts`` argument of the backend's validation entry point.

    ``validate_costs`` imports ``validate_layouts`` / ``validate_layouts_sqlite``
    from their modules at call time, so replacing the module attribute sees
    every call.  The wrapper costs one extra Python call per operation.
    """

    def __init__(self, backend: str) -> None:
        if backend == "measured":
            from repro.exec import validation as module

            self.attribute = "validate_layouts"
        else:
            from repro.engine_x import validation as module

            self.attribute = "validate_layouts_sqlite"
        self.module = module
        self.layouts = None

    def __enter__(self) -> "LayoutCapture":
        original = getattr(self.module, self.attribute)
        self.original = original

        def capture(workload, layouts, **kwargs):
            self.layouts = dict(layouts)
            return original(workload, layouts, **kwargs)

        setattr(self.module, self.attribute, capture)
        return self

    def __exit__(self, *exc_info) -> None:
        setattr(self.module, self.attribute, self.original)


def scan_accounting(backend: str, report) -> Dict[str, Dict[str, int]]:
    """Per layout label, the scan figures a backend's report gives."""
    return {
        validation.label: {name: getattr(validation, name) for name in SCAN_FIELDS[backend]}
        for validation in report.validations
    }


def reference_scans(backend: str, workload_id: str, rows: int):
    """The report of the untimed call checked against ``SCANS_REFERENCE``."""
    from repro.core.advisor import LayoutAdvisor

    return LayoutAdvisor().validate_costs(
        _resolve(workload_id), rows=rows, data_seed=REFERENCE_DATA_SEED, backend=backend
    )


def expected_scans(workload, layouts, rows: int, data_seed: int) -> Dict[str, tuple]:
    """Per layout, the rows and bytes the numpy executor scans at ``rows``.

    SQLite must scan exactly these (the invariant of the three-backend
    differential harness).
    """
    from repro.exec.executor import VectorizedScanExecutor
    from repro.grid.spec import resolve_cost_model

    model = resolve_cost_model("hdd")
    expected = {}
    data = None
    for label, layout in layouts.items():
        executor = VectorizedScanExecutor(
            layout, disk=model.disk, rows=rows, data_seed=data_seed, data=data
        )
        data = executor.data
        run = executor.execute_workload(workload)
        expected[label] = (sum(r.rows_scanned for r in run.runs), run.bytes_scanned)
    return expected


def check_call(result: Result, backend: str, workload_id: str, report, layouts,
               reference, expected, rows: int) -> None:
    got = {label: canonical_layout(layout) for label, layout in (layouts or {}).items()}
    result.check(got == reference[workload_id], f"{workload_id}: layouts differ from reference")
    result.check(report.rows == rows, f"{workload_id}: ran {report.rows} rows, wanted {rows}")
    validated = sorted(validation.label for validation in report.validations)
    result.check(
        validated == sorted(reference[workload_id]),
        f"{workload_id}: validated {validated}, wanted every layout of the reference",
    )
    for validation in report.validations:
        if backend == "measured":
            exact = abs(validation.predicted_seconds - validation.measured_io_seconds)
            result.check(
                exact <= 1e-9 * max(validation.predicted_seconds, 1e-12),
                f"{workload_id}/{validation.label}: measured I/O departs from the model",
            )
        else:
            same = (validation.rows_scanned, validation.bytes_scanned) == expected[validation.label]
            result.check(same, f"{workload_id}/{validation.label}: SQLite scanned other rows/bytes")


def check_reference_scans(result: Result, backend: str, workload_id: str, report,
                          reference: Dict[str, Dict[str, int]]) -> None:
    """The untimed fixed-seed call's scan accounting equals the committed one."""
    got = scan_accounting(backend, report)
    result.check(
        sorted(got) == sorted(reference),
        f"{workload_id}: fixed-seed call validated {sorted(got)}, reference has {sorted(reference)}",
    )
    for label, want in reference.items():
        if label in got and got[label] != want:
            result.problems.append(
                f"{workload_id}/{label}: fixed-seed scans {got[label]} differ from reference {want}"
            )


def _span_sum(spans: Spans, first: int, name: str, minus_children: str = "") -> float:
    """Summed wall of spans ``name`` recorded since index ``first``.

    With ``minus_children``, the time of child spans of that name is taken
    off (a layer's self time).
    """
    records = spans.records[first:]
    total = 0.0
    for record in records:
        if record["name"] != name:
            continue
        total += record["wall"]
        if minus_children:
            total -= sum(
                child["wall"] for child in records
                if child["parent"] == record["id"] and child["name"] == minus_children
            )
    return total


def run(ctx: Context, spans: Spans, backend: str) -> Result:
    from repro.core import algorithm as core_algorithm
    from repro.core.advisor import LayoutAdvisor
    from repro.engine_x import executor as engine_executor
    from repro.exec import executor as exec_executor
    from repro.obs import metrics as obs_metrics

    other = "exec." if backend == "sqlite" else "engine_x."
    result = Result(
        bypassed=("service.", "grid.", other) + tuple(f"algorithms.{a}." for a in ALGORITHMS)
    )
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    setup = [probe_ready_seconds("validate", ctx.workdir) for _ in range(SETUP_SAMPLES)]
    workload_ids = SMOKE_WORKLOADS if ctx.smoke else WORKLOADS
    rows = (SMOKE_ROWS if ctx.smoke else ROWS)[backend]
    workloads = {workload_id: _resolve(workload_id) for workload_id in workload_ids}
    advisor = LayoutAdvisor()
    # Pay lazy imports and first-use set-up before any timed call.
    advisor.validate_costs(workloads[workload_ids[0]], rows=100, backend=backend)
    targets = [
        (core_algorithm.PartitioningAlgorithm, "run", "algorithms.run"),
        (exec_executor, "generate_table_data", "storage.generate"),
        (engine_executor, "generate_table_data", "storage.generate"),
        (exec_executor.VectorizedScanExecutor, "__init__", "exec.materialize"),
        (exec_executor.VectorizedScanExecutor, "execute_workload", "exec.scan"),
        (engine_executor.SQLiteExecutor, "__init__", "engine_x.materialize"),
        (engine_executor.SQLiteExecutor, "execute_workload", "engine_x.execute"),
    ]

    expected: Dict[str, Dict[str, tuple]] = {}
    walls: Dict[str, List[float]] = {workload_id: [] for workload_id in workload_ids}
    cpus: Dict[str, List[float]] = {workload_id: [] for workload_id in workload_ids}
    traced_walls: List[float] = []
    layer: Dict[str, List[float]] = {}
    host = HostSpeed()
    deadline = ctx.deadline()
    passes = 0
    while True:
        started = time.perf_counter()
        # The traced pass alternates untraced and traced passes over the list.
        traced = ctx.trace and passes % 2 == 1
        for workload_id in workload_ids:
            workload = workloads[workload_id]
            if not traced:
                host.sample()
            first = len(spans.records)
            counters = obs_metrics.registry().snapshot()
            settle()
            result.attempted += 1
            try:
                with GCPauses() as pauses, LayoutCapture(backend) as capture, \
                        timed_calls(spans, targets if traced else []), \
                        spans.span(f"validate-{backend}.call", workload=workload_id):
                    cpu0 = cpu_seconds()
                    t0 = time.perf_counter()
                    report = advisor.validate_costs(
                        workload, rows=rows, data_seed=ctx.seed, backend=backend
                    )
                    wall = time.perf_counter() - t0
                    cpu = cpu_seconds() - cpu0
            except Exception as error:  # an operation that raised is a failure
                result.failed += 1
                result.problems.append(f"{workload_id}: {type(error).__name__}: {error}")
                continue
            if backend == "sqlite" and workload_id not in expected:
                expected[workload_id] = expected_scans(
                    workload, capture.layouts, report.rows, ctx.seed
                )
            check_call(result, backend, workload_id, report, capture.layouts,
                       reference, expected.get(workload_id), rows)
            if not traced:
                walls[workload_id].append(wall)
                cpus[workload_id].append(cpu)
                continue
            traced_walls.append(wall)
            delta = obs_metrics.registry().delta(counters).get("counters", {})
            hits = delta.get("cost.evaluator.memo.hits", 0)
            lookups = hits + delta.get("cost.evaluator.memo.misses", 0)
            scans = [
                spans.results[record["id"]] for record in spans.records[first:]
                if record["name"] == "exec.scan"
            ]
            samples = {
                "algorithms.compute_s": _span_sum(spans, first, "algorithms.run"),
                "storage.generate_s": _span_sum(spans, first, "storage.generate"),
                "exec.materialize_s": _span_sum(spans, first, "exec.materialize", "storage.generate"),
                "exec.scan_s": _span_sum(spans, first, "exec.scan"),
                "exec.bytes_scanned": sum(run.bytes_scanned for run in scans),
                "engine_x.materialize_s": _span_sum(
                    spans, first, "engine_x.materialize", "storage.generate"
                ),
                "engine_x.execute_s": _span_sum(spans, first, "engine_x.execute"),
                "engine_x.rows_inserted": delta.get("engine_x.rows_inserted", 0),
                "engine_x.queries": delta.get("engine_x.queries", 0),
                "cost.memo_hit_ratio": ratio(hits, lookups),
                "cost.memo_lookups": lookups,
                "python.gc_pause_s": pauses.total,
            }
            for name, value in samples.items():
                layer.setdefault(name, []).append(value)
            spans.results.clear()
        passes += 1
        last = time.perf_counter() - started
        enough = passes >= (2 if ctx.trace else 1)
        if enough and time.perf_counter() + last > deadline:
            break

    # Output check outside the timed passes: the same call at a fixed data
    # seed must reproduce the committed scan accounting.
    with open(SCANS_REFERENCE, encoding="utf-8") as handle:
        scans = json.load(handle)[backend][str(rows)]
    for workload_id in workload_ids:
        result.attempted += 1
        try:
            report = reference_scans(backend, workload_id, rows)
        except Exception as error:  # an operation that raised is a failure
            result.failed += 1
            result.problems.append(f"{workload_id} (fixed seed): {type(error).__name__}: {error}")
            continue
        check_reference_scans(result, backend, workload_id, report, scans[workload_id])

    # The workloads of the list cost different amounts, so a median over all
    # calls would depend on how many calls of each a run fits in.  Each
    # workload's median call is taken first and the list is averaged.
    per_call = sum(median(values) for values in walls.values()) / len(walls)
    cpu_per_call = sum(median(values) for values in cpus.values()) / len(cpus)
    result.metrics = {
        "setup_s": median(setup) * host.factor,
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": 1e3 * per_call * host.factor,
        "cpu_ms_per_op": 1e3 * cpu_per_call * host.factor,
    }
    result.named = {
        f"{backend}_validate_s": per_call,
        f"{backend}_validate_cpu_s": cpu_per_call,
        "host_factor": host.factor,
        "raw_setup_s": median(setup),
        "calls": sum(len(values) for values in walls.values()),
        "rows": rows,
    }
    result.named.update(
        {f"{workload_id} median_s": median(values) for workload_id, values in walls.items()}
    )
    if ctx.trace:
        result.metrics.update({name: median(values) for name, values in layer.items()})
        result.metrics["obs.trace_overhead_ratio"] = median(traced_walls) / median(
            [wall for values in walls.values() for wall in values]
        ) - 1.0
    return result
