"""Set-up probe: a fresh interpreter that gets ready and says so.

``python probe.py grid|validate`` imports ``repro``, builds what the
workload needs before its first operation, prints ``ready`` and exits.  The
parent times spawn-to-``ready`` as one ``setup_s`` sample.
"""

import sys


def main(mode: str) -> int:
    import repro  # noqa: F401  (the import is what is being timed)

    if mode == "grid":
        from repro.grid import builtin_grid

        builtin_grid("full").cells()
    elif mode == "validate":
        from repro.core.advisor import LayoutAdvisor
        from repro.exec.validation import validate_layouts  # noqa: F401
        from repro.engine_x.validation import validate_layouts_sqlite  # noqa: F401

        LayoutAdvisor()
    else:
        print(f"unknown probe mode {mode!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
