"""Check that the traced run's counts are exact, and record them for two seeds.

    python3 perfbench/selfcheck.py --seeds 1,2 --out perfbench/baseline/counts.json

Runs every workload traced twice at the first seed and once at the second.
Every per-layer metric with unit "count", and every regime share, must
read the same in both runs at the first seed. The seeded workloads must
change at least one of them under the second seed; tcp-pair has no seeded
input and must not. Exits 1 if any of this fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import scenarios
from spread import machine, run_once

SEEDED = {"converge-suite", "mesh-scale", "oracle-check"}
SECONDS = 1     # run.py's --seconds, which a traced run does not use


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--out")
    args = parser.parse_args()
    first, second = (int(s) for s in args.seeds.split(","))
    scenarios.bootstrap()
    bench = json.loads((scenarios.ROOT / "BENCHMARK.json").read_text())
    exact = [m["name"] for m in bench["per_layer"]
             if m["unit"] == "count" or ".case_share." in m["name"]]

    ok = True
    doc = {"machine": machine(), "exact": exact, "workloads": {}}
    for workload in ("converge-suite", "mesh-scale", "oracle-check", "tcp-pair"):
        a, b, other = (run_once(workload, seed, SECONDS, trace=1)
                       for seed in (first, first, second))
        unequal = [n for n in exact if a[n] != b[n]]
        changed = [n for n in exact if a[n] != other[n]]
        good = not unequal and bool(changed) == (workload in SEEDED)
        ok &= good
        print(f"{workload:15s} repeat-unequal {unequal or 'none'}; "
              f"changed under seed {second}: {len(changed)} of {len(exact)}"
              f"{'' if good else '  FAIL'}", flush=True)
        doc["workloads"][workload] = {
            "repeat_unequal": unequal, "changed_under_second_seed": changed,
            f"seed{first}": a, f"seed{second}": other}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
