"""Run the benchmark over many seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads converge-suite,tcp-pair --seeds 1-10 \
        --out perfbench/baseline/e2e.json

For each workload, runs `perfbench/run.py --trace 0` once per seed for
BENCHMARK.json's run_seconds, one run after another, and prints every
end-to-end metric's median, quartiles (statistics.quantiles, n=4) and
quartile spread as a share of the median, next to a third of the bound
BENCHMARK.json gives it. --out also records every value and the machine.
Exits 1 if a run fails or a spread reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import scenarios


def machine() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=scenarios.ROOT,
                         capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha.stdout.strip() if sha.returncode == 0 else None}


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    out = subprocess.run(
        [sys.executable, str(scenarios.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=scenarios.ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n"
                           f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    result = json.loads(out.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    scenarios.bootstrap()
    bench = json.loads((scenarios.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    doc = {"machine": machine(), "seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            try:
                metrics = run_once(workload, seed, seconds)
            except RuntimeError as e:
                print(e, file=sys.stderr)
                return 1
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[name] / 3
            steady &= ok
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
            print(f"{workload:15s} {name:16s} median {med:12.6g}  "
                  f"spread {spread:7.2%}  bound/3 {bounds[name] / 3:6.2%}"
                  f"{'' if ok else '  TOO WIDE'}", flush=True)
        doc["workloads"][workload] = summary
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
