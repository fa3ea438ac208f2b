"""The benchmark's own tests: every workload at a tiny size, both passes.

    python3 -m pytest perfbench -q

Each smoke run is a real run of ``run.py`` (``--smoke`` shrinks the inputs),
so these check what a comparison run relies on: the output line's shape,
every metric of ``BENCHMARK.json`` by name and unit, and passing output
checks.  They are not part of the tier-1 suite (``pytest.ini`` collects
``tests/`` only).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from common import HERE, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace):
    completed = run_benchmark(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {entry["name"]: entry["unit"] for entry in wanted}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_spec_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    bounds = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # A comparison of two commits makes 4 + 22 runs per workload, each
    # measuring run_seconds plus at most about 12 s of set-up and checks,
    # and must end within 57 minutes.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 12) < 3420


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_benchmark(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_grid_check_catches_a_changed_answer():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from common import Result
    from grid_full import REFERENCE, check_report, grid_spec
    from repro.grid import run_grid

    with open(REFERENCE, encoding="utf-8") as handle:
        references = json.load(handle)
    assert len(references["full"]) == 198
    report = run_grid(grid_spec(seed=5, smoke=True), cache_dir=None, workers=1)
    reference = references["tiny"]
    good = Result()
    check_report(good, report, reference, warm=False)
    assert good.correct and good.attempted == len(report.results)

    label = report.results[0].cell.label
    bad = Result()
    check_report(bad, report, dict(reference, **{label: "0" * 64}), warm=False)
    assert bad.problems == [f"cell {label}: payload differs from reference"]

    # A grid that silently drops a cell fails the check too.
    report.results = report.results[1:]
    short = Result()
    check_report(short, report, reference, warm=False)
    assert len(short.problems) == 1 and label in short.problems[0]


def test_validate_check_catches_changed_or_missing_scans():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from common import Result
    from validate_backends import (
        SCANS_REFERENCE, SMOKE_ROWS, check_reference_scans, reference_scans,
    )

    with open(SCANS_REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)["measured"][str(SMOKE_ROWS["measured"])]["tpch:partsupp@1"]
    report = reference_scans("measured", "tpch:partsupp@1", SMOKE_ROWS["measured"])
    good = Result()
    args = ("measured", "tpch:partsupp@1", report)
    check_reference_scans(good, *args, reference)
    assert good.correct

    changed = Result()
    label = report.validations[0].label
    wrong = dict(reference, **{label: dict(reference[label], checksum=reference[label]["checksum"] + 1)})
    check_reference_scans(changed, *args, wrong)
    assert len(changed.problems) == 1 and label in changed.problems[0]

    dropped = Result()
    report.validations = report.validations[1:]
    check_reference_scans(dropped, *args, reference)
    assert len(dropped.problems) == 1 and "reference has" in dropped.problems[0]


def test_service_streams_are_seeded_and_dedup_never_crosses_threads():
    from service_mix import job_streams

    assert job_streams(3, 40) == job_streams(3, 40)
    assert job_streams(3, 40) != job_streams(4, 40)
    first, second = (
        {(kind, json.dumps(body, sort_keys=True)) for kind, body in stream}
        for stream in job_streams(3, 40)
    )
    assert not first & second


def test_host_speed_scales_by_reference_over_median_calibration():
    from common import CALIBRATION_REFERENCE_S, HostSpeed

    host = HostSpeed()
    assert host.factor == 1.0
    host.sample(3)
    assert len(host.samples) == 3 and all(seconds > 0 for seconds in host.samples)
    host.samples = [0.1, 0.3, 0.2]
    assert host.factor == CALIBRATION_REFERENCE_S / 0.2
