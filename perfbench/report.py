"""Print every benchmark metric of every workload.

    python3 perfbench/report.py [--seed 1] [--seconds 50]

Runs run.py once per workload with --trace 0 (the end-to-end metrics and
fail_ratio) and once with --trace 1 (the per-layer metrics and the
tracing overhead), each in a fresh interpreter, one after another, and
relays their tables: every metric by name, with its unit and sample count.
Exits 1 when any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import items

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    args = ap.parse_args(argv)
    status = 0
    for trace in (0, 1):
        for workload in items.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]) + "\n", flush=True)
            if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
                sys.stderr.write(proc.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
