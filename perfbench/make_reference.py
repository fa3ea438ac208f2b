"""Regenerate the reference answers the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Writes, under ``perfbench/reference/``:

- ``grid_cells.json``: grid name (``full``, ``tiny``) -> cell label ->
  SHA-256 of the cell's deterministic payload, computed serially with no
  cache;
- ``validate_layouts.json``: workload -> label -> layout ``validate_costs``
  executes;
- ``validate_scans.json``: backend -> rows -> workload -> label -> the scan
  figures of ``validate_costs`` at the fixed data seed, for the row counts
  and workloads of both the full and the smoke runs.

Only rerun it when a change is *meant* to alter answers, and say so in the
change: the benchmark's correctness check is only as good as these files.
"""

from __future__ import annotations

import json
import os
import sys

from common import HERE, SRC

sys.path.insert(0, SRC)


def grid_cells() -> dict:
    from grid_full import cell_digest
    from repro.grid import builtin_grid, run_grid

    digests = {}
    for name in ("full", "tiny"):
        report = run_grid(builtin_grid(name), cache_dir=None, workers=1)
        if report.failed:
            raise SystemExit(f"{report.failed} cell(s) of grid {name!r} failed")
        digests[name] = {cell.cell.label: cell_digest(cell.payload) for cell in report.results}
    return digests


def validate_layouts() -> dict:
    from validate_backends import WORKLOADS, SMOKE_WORKLOADS, recommended_layouts

    return {
        workload: recommended_layouts(workload)
        for workload in sorted(set(WORKLOADS) | set(SMOKE_WORKLOADS))
    }


def validate_scans() -> dict:
    from validate_backends import (
        ROWS, SMOKE_ROWS, SMOKE_WORKLOADS, WORKLOADS, reference_scans, scan_accounting,
    )

    scans = {}
    for backend in ROWS:
        scans[backend] = {
            str(rows): {
                workload: scan_accounting(backend, reference_scans(backend, workload, rows))
                for workload in workloads
            }
            for rows, workloads in ((ROWS[backend], WORKLOADS), (SMOKE_ROWS[backend], SMOKE_WORKLOADS))
        }
    return scans


def main() -> int:
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for filename, build in (
        ("grid_cells.json", grid_cells),
        ("validate_layouts.json", validate_layouts),
        ("validate_scans.json", validate_scans),
    ):
        path = os.path.join(HERE, "reference", filename)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(build(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
