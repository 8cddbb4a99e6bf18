"""Record the reference verdict of every workload into reference.json.

usage: PYTHONPATH=src python3 perfbench/record_reference.py

Run once at the commit whose reports are the reference (the seed code).  For
each workload it stores the CLI arguments, the exit code and the SHA-256 of
the report after ``bpuverify.report.strip_elapsed``; run.py checks every
timed and traced run against these.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    reference = {}
    for name, args in run.WORKLOADS.items():
        child = run.run_child([sys.executable, "-m", "bpuverify.cli", *args], env)
        if child.timed_out or child.exit_code not in (0, 1):
            sys.stderr.write(child.stderr.decode("utf-8", "replace"))
            print(f"{name}: exit {child.exit_code}, not recorded", file=sys.stderr)
            return 1
        reference[name] = {
            "argv": list(args),
            "exit_code": child.exit_code,
            "sha256": run.report_digest(child.stdout),
        }
        print(f"{name}: exit {child.exit_code}, {child.wall_s:.2f} s", flush=True)
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
