"""gridclear benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload converge-suite --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; gridclear is imported from `src/`.
With --trace 0 the workload repeats its unit of work until --seconds is
used up (each unit at least once) and the end-to-end metrics are reported;
with --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics, the tracing overhead, and writes the spans to
.perfbench_out/. Every unit checks its outputs. One line per metric goes to stdout, then, as the last line, a
JSON object with the keys correct, attempted, failed and metrics.

Exit codes: 0 every check passed, 1 a check failed or the gridclear sources
are missing, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter_ns

import scenarios

SETUP_PROBES = 5
SETUP_TIMEOUT = 60.0    # seconds; a set-up probe that takes longer is killed
PROBE_SCRIPT = scenarios.ROOT / "perfbench" / "setup_probe.py"
SPANS_DIR = scenarios.ROOT / ".perfbench_out"

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "clear_s": "s",
    "rounds_to_clear": "count",
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "rounds_per_s": "1/s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of cold set-up processes (see setup_probe.py).

    Waits for each probe with a blocking wait and kills it from a timer:
    a wait with a timeout polls the child every 50 ms, which rounds the
    set-up time to that step.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter_ns()
        proc = subprocess.Popen([sys.executable, str(PROBE_SCRIPT), "--workload",
                                 workload, "--seed", str(seed)], cwd=scenarios.ROOT)
        killer = threading.Timer(SETUP_TIMEOUT, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        times.append((perf_counter_ns() - start) / 1e9)
        if code != 0:
            raise SystemExit(f"perfbench: set-up probe exited {code}")
    return statistics.median(times)


def end_to_end(workload: str, seed: int, results):
    """Metrics from measured results; results sharing a "key" repeat one unit
    of work (a market), and every metric takes the median over repeats."""
    from workloads import percentile
    groups = {}
    for r in results:
        groups.setdefault(r.get("key"), []).append(r)
    clear_s = sum(statistics.median(r["clear_ns"] for r in g)
                  for g in groups.values()) / 1e9
    rounds = sum(g[0]["rounds"] for g in groups.values())
    # Each unit of work weighs the same however often it was repeated.
    samples = [(d, 1.0 / len(g)) for g in groups.values() for r in g
               for d in r["round_ns"]]
    values, weights = [d for d, _ in samples], [w for _, w in samples]
    metrics = {
        "clear_s": clear_s,
        "rounds_to_clear": rounds,
        "round_ms_p50": percentile(values, 0.5, weights) / 1e6,
        "round_ms_p95": percentile(values, 0.95, weights) / 1e6,
        "rounds_per_s": rounds / clear_s,
        "verify_s": sum(statistics.median(r["verify_ns"] for r in g)
                        for g in groups.values()) / 1e9,
    }
    if workload == "tcp-pair":
        metrics["setup_s"] = statistics.median(r["info"]["setup_s"] for r in results)
        metrics["peak_rss_mb"] = max(r["info"]["peak_rss_mb"] for r in results)
    else:
        metrics["setup_s"] = setup_seconds(workload, seed)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = {"round_ms_p50": len(samples), "round_ms_p95": len(samples),
              "setup_s": len(results) if workload == "tcp-pair" else SETUP_PROBES,
              "clear_s": len(results),
              "verify_s": len(results)}
    return {name: metrics[name] for name in END_TO_END}, counts


def traced(work, workload: str, seed: int, checks):
    """One untraced pass, then one traced pass; per-layer metrics."""
    from layers import LAYERS, layer_metrics
    from tracing import Tracer

    start = perf_counter_ns()
    plain = work.one_pass(checks)
    plain_ns = perf_counter_ns() - start
    tracer = Tracer()
    if workload != "tcp-pair":     # agents trace themselves
        tracer.install()
    try:
        start = perf_counter_ns()
        result = work.one_pass(checks, traced=True)
        traced_ns = perf_counter_ns() - start
    finally:
        tracer.uninstall()
    if plain is None or result is None:
        return None
    if workload == "tcp-pair":
        tracer.root = result["info"]["tree"]
    tracer.write(SPANS_DIR / f"spans-{workload}-seed{seed}.json")
    metrics = layer_metrics(tracer.root, result)
    metrics["trace.overhead_s"] = (traced_ns - plain_ns) / 1e9
    metrics["trace.overhead_share"] = (traced_ns - plain_ns) / plain_ns
    return {name: (metrics[name], LAYERS[name]) for name in LAYERS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("converge-suite", "mesh-scale", "oracle-check",
                                 "tcp-pair"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    scenarios.bootstrap()
    from workloads import WORKLOADS, Checks

    checks = Checks()
    work = WORKLOADS[args.workload](args.seed)
    metrics = {}
    if args.trace:
        layers = traced(work, args.workload, args.seed, checks)
        for name, (value, unit) in (layers or {}).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{args.workload} {name} = {value!r} {unit}")
    else:
        results = work.measure(checks, args.seconds)
        if results:
            values, counts = end_to_end(args.workload, args.seed, results)
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": values[name], "unit": unit}
                n = f"  (n={counts[name]})" if name in counts else ""
                print(f"{args.workload} {name} = {values[name]!r} {unit}{n}")
        note = work.held_out(checks)
        if note:
            print(f"{args.workload} {note} (not in the metrics above)")
        share = checks.failed / checks.attempted if checks.attempted else 1.0
        print(f"{args.workload} fail_share = {share!r} "
              f"({checks.failed} of {checks.attempted} checks)")
    for note in checks.notes[:20]:
        print(f"{args.workload} FAILED: {note}")
    correct = checks.failed == 0 and checks.attempted > 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
