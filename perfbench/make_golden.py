"""Regenerate golden/<workload>.json, the output digests of the shipped seeds.

    python3 perfbench/make_golden.py

Runs every item of every workload once per shipped seed and writes the
digest of each output, but only when every output passes the reference
checks.  Run it when the item lists change; a change to the program must
keep the digests, since its reports are meant to stay byte-identical.
"""

from __future__ import annotations

import json
import sys

import checks
import items
import run

SEEDS = (1, 2, 3)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from hwquartic import harness
    clearers = run.cache_clearers("hwquartic")
    golden = {}
    for workload in items.WORKLOADS:
        for seed in SEEDS:
            chosen = items.build(workload, seed)
            calls = run.run_sweep(harness.main, chosen, clearers, True).calls
            bad = [(i["id"], r) for i, r in zip(chosen, checks.judge(chosen, [calls])[0])
                   if r is not None]
            if bad:
                print(f"{workload} seed {seed}: {len(bad)} failing items, "
                      f"first {bad[0]}; nothing written", file=sys.stderr)
                return 1
            golden.setdefault(workload, {})[str(seed)] = {
                i["id"]: c.digest for i, c in zip(chosen, calls)}
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, seeds in golden.items():
        path = checks.GOLDEN_DIR / f"{workload}.json"
        path.write_text(json.dumps({"seeds": seeds}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: seeds {', '.join(seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
