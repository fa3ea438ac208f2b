"""The repository benchmark: one command, four workloads, named metrics.

Run one workload (what a comparison of two commits runs, many times)::

    python3 perfbench/run.py --workload grid-full --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The lines before it name the same figures in each workload's
own terms (``cold_grid_s``, ``jobs_per_s``, ...) and record the machine.

Run everything (each workload untraced, then traced, each in a fresh
interpreter) and write the results with the machine to a JSON file::

    python3 perfbench/run.py --all --seed 1 --seconds 25 --out results.json

``--smoke`` shrinks every workload to a tiny size (the benchmark's own
tests use it).  See ``perfbench/README.md`` for what each workload loads
and which metric each layer moves.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import subprocess
import sys
import time

from common import ROOT, SRC, Context, Spans, machine

WORKLOADS = ("grid-full", "service-mix", "validate-measured", "validate-sqlite")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space of a run, inside the checkout (and ignored by git).
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def workload_runner(name: str):
    """The ``run(ctx, spans) -> Result`` function of one workload."""
    if name == "grid-full":
        import grid_full

        return grid_full.run
    if name == "service-mix":
        import service_mix

        return service_mix.run
    import validate_backends

    return functools.partial(validate_backends.run, backend=name.split("-", 1)[1])


def report_metrics(name: str, result, trace: bool, spec) -> dict:
    """Every metric the spec lists for this pass, with its unit.

    A workload reports what it measured; the layers it never reaches
    (``result.bypassed``) read 0.  Any other missing metric is a bug in the
    benchmark and fails the run.
    """
    metrics = result.metrics
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        metric = entry["name"]
        if metric in metrics:
            value = float(metrics[metric])
        elif trace and metric.startswith(result.bypassed):
            value = 0.0
        else:
            raise KeyError(f"workload {name} did not report metric {metric!r}")
        out[metric] = {"value": value, "unit": entry["unit"]}
    return out


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    workdir = os.path.join(RUNS_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(RUNS_DIR, "traces")
    os.makedirs(workdir, exist_ok=True)
    # Everything the program writes to "temporary" storage stays in the run dir.
    os.environ["TMPDIR"] = workdir
    os.environ["REPRO_ENGINE_X_TMPDIR"] = workdir
    import tempfile

    tempfile.tempdir = workdir
    ctx = Context(
        seed=args.seed,
        seconds=float(args.seconds),
        trace=bool(args.trace),
        smoke=args.smoke,
        workdir=workdir,
        trace_dir=trace_dir,
    )
    spans = Spans(enabled=ctx.trace)
    try:
        result = workload_runner(args.workload)(ctx, spans)
        if ctx.trace:
            spans.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}-spans.jsonl"))
        metrics = report_metrics(args.workload, result, ctx.trace, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    for name, value in result.named.items():
        print(f"{args.workload}  {name} = {value}")
    for name, entry in metrics.items():
        print(f"{args.workload}  {name} = {entry['value']:.6g} {entry['unit']}")
    for problem in result.problems[:20]:
        print(f"{args.workload}  CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": max(1, int(result.attempted)),
                "failed": int(result.failed),
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload untraced then traced, each in its own interpreter."""
    results = {"machine": machine(), "seed": args.seed, "seconds": args.seconds, "runs": []}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            started = time.perf_counter()
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = completed.stdout.strip().splitlines()
            sys.stdout.write(completed.stdout if completed.returncode == 0 else completed.stderr)
            if completed.returncode != 0 or not lines:
                ok = False
                results["runs"].append({"workload": workload, "trace": trace, "error": completed.stderr[-2000:]})
                continue
            record = json.loads(lines[-1])
            record.update(workload=workload, trace=trace,
                          run_seconds=time.perf_counter() - started)
            ok = ok and record["correct"] and record["failed"] == 0
            results["runs"].append(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    parser.add_argument("--out", help="with --all: write the results JSON here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("one of --workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
