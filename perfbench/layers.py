"""Per-layer metrics of one traced pass, read off the span tree.

Times are per call and include the wrappers' own cost (see the
trace.overhead_* metrics). Counts are per pass and repeat exactly at a
fixed seed. A layer the workload does not reach reports 0.
"""

from __future__ import annotations

import statistics

from gridclear.transport import FRAME_SIZE
from tracing import nodes, totals
from workloads import percentile

CASES = range(1, 7)
MARKETS = ("full4", "ring4", "line4", "full6", "ring6", "seeded")

LAYERS = {              # name -> unit
    "cost_models.gen_inverse.calls": "count",
    "cost_models.gen_inverse.us": "us",
    "cost_models.gen_marginal.per_inverse": "count",
    "cost_models.transfer_inverse.calls": "count",
    "cost_models.transfer_inverse.us": "us",
    "local_solver.solve.calls": "count",
    **{f"local_solver.solve.us.case{c}": "us" for c in CASES},
    **{f"local_solver.case_share.case{c}": "share" for c in CASES},
    "local_solver.time_share.case3": "share",
    "local_solver.net_expenditure.us": "us",
    **{f"market.rounds.{m}": "count" for m in MARKETS},
    "market.step.self_us": "us",
    "market.trace_append.us": "us",
    "market.feasibilize.us": "us",
    "market.trace_mb": "MB",
    "market.trace_csv.ms": "ms",
    "transport.frames_per_round": "count",
    "transport.bytes_per_round": "B-computed",
    "transport.encode.us": "us",
    "transport.decode.us": "us",
    "transport.post.us": "us",
    "transport.collect.us": "us",
    "transport.tcp.wait_share": "share",
    "transport.tcp.compute_us": "us",
    "transport.tcp.connect_s": "s",
    "oracle.global.s": "s",
    "oracle.global.grad_evals": "count",
    "oracle.global.evals_per_iter": "count",
    "oracle.local.calls": "count",
    "oracle.local.ms_p50": "ms",
    "oracle.local.ms_p95": "ms",
    "oracle.verify_share": "share",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}


def _per_call(ns: int, calls: int, scale: float) -> float:
    return ns / calls / scale if calls else 0.0


def layer_metrics(tree, result: dict) -> dict:
    info = result["info"]
    rounds = result["rounds"]
    out = {}

    calls, ns = totals(tree, "cost_models.gen_inverse")
    marginals, _ = totals(tree, "cost_models.gen_marginal",
                          under="cost_models.gen_inverse")
    out["cost_models.gen_inverse.calls"] = calls
    out["cost_models.gen_inverse.us"] = _per_call(ns, calls, 1e3)
    out["cost_models.gen_marginal.per_inverse"] = marginals / calls if calls else 0.0
    calls, ns = totals(tree, "cost_models.transfer_inverse")
    out["cost_models.transfer_inverse.calls"] = calls
    out["cost_models.transfer_inverse.us"] = _per_call(ns, calls, 1e3)

    by_case = {c: [0, 0] for c in CASES}
    for node in nodes(tree, "local_solver.solve"):
        for case, (calls, ns) in node.tags.items():
            by_case[case][0] += calls
            by_case[case][1] += ns
    solves = sum(calls for calls, _ in by_case.values())
    solve_ns = sum(ns for _, ns in by_case.values())
    out["local_solver.solve.calls"] = solves
    for c in CASES:
        out[f"local_solver.solve.us.case{c}"] = _per_call(by_case[c][1], by_case[c][0], 1e3)
    for c in CASES:
        out[f"local_solver.case_share.case{c}"] = by_case[c][0] / solves if solves else 0.0
    out["local_solver.time_share.case3"] = by_case[3][1] / solve_ns if solve_ns else 0.0
    calls, ns = totals(tree, "local_solver.net_expenditure")
    out["local_solver.net_expenditure.us"] = _per_call(ns, calls, 1e3)

    market_rounds = info.get("rounds", {})
    for m in MARKETS[:-1]:
        out[f"market.rounds.{m}"] = market_rounds.get(m, 0)
    out["market.rounds.seeded"] = sum(r for label, r in market_rounds.items()
                                      if label.startswith("seeded"))
    steps = nodes(tree, "market.step")
    out["market.step.self_us"] = _per_call(sum(n.self_ns() for n in steps),
                                           sum(n.calls for n in steps), 1e3)
    calls, ns = totals(tree, "market.trace_append")
    out["market.trace_append.us"] = _per_call(ns, calls, 1e3)
    calls, ns = totals(tree, "market.feasibilize")
    out["market.feasibilize.us"] = _per_call(ns, calls, 1e3)
    out["market.trace_mb"] = info.get("trace_mb", 0.0)
    calls, ns = totals(tree, "market.trace_csv")
    out["market.trace_csv.ms"] = _per_call(ns, calls, 1e6)

    # Loopback rounds are the market.step calls of the whole pass (seeded
    # markets and repeated clears included); an agent pair has no steps.
    all_rounds = totals(tree, "market.step")[0] or rounds
    frames, ns = totals(tree, "transport.encode")
    out["transport.frames_per_round"] = frames / all_rounds
    out["transport.bytes_per_round"] = FRAME_SIZE * frames / all_rounds
    out["transport.encode.us"] = _per_call(ns, frames, 1e3)
    calls, ns = totals(tree, "transport.decode")
    out["transport.decode.us"] = _per_call(ns, calls, 1e3)
    if "busy_ns" in info:       # tcp: the agents' timing proxies
        busy, wait = info["busy_ns"], info["collect_ns"]
        out["transport.post.us"] = _per_call(info["post_ns"], info["posts"], 1e3)
        out["transport.collect.us"] = _per_call(wait, info["collects"], 1e3)
        out["transport.tcp.wait_share"] = wait / busy
        agent_rounds = rounds * info["agents"]
        out["transport.tcp.compute_us"] = (busy - wait - info["post_ns"]) / agent_rounds / 1e3
        out["transport.tcp.connect_s"] = info["connect_s"]
    else:
        calls, ns = totals(tree, "transport.post")
        out["transport.post.us"] = _per_call(ns, calls, 1e3)
        calls, ns = totals(tree, "transport.collect")
        out["transport.collect.us"] = _per_call(ns, calls, 1e3)
        out["transport.tcp.wait_share"] = 0.0
        out["transport.tcp.compute_us"] = 0.0
        out["transport.tcp.connect_s"] = 0.0

    local_ns = info.get("local_ns", [])
    if "global_ns" in info:
        m = info["oracle_m"]
        grads, _ = totals(tree, "cost_models.gen_marginal", under="oracle.global")
        values, _ = totals(tree, "cost_models.gen_value", under="oracle.global")
        out["oracle.global.s"] = info["global_ns"] / 1e9
        out["oracle.global.grad_evals"] = grads / m
        out["oracle.global.evals_per_iter"] = values / grads if grads else 0.0
        out["oracle.verify_share"] = ((info["global_ns"] + sum(local_ns))
                                      / result["verify_ns"])
    else:
        out["oracle.global.s"] = 0.0
        out["oracle.global.grad_evals"] = 0
        out["oracle.global.evals_per_iter"] = 0.0
        out["oracle.verify_share"] = 0.0
    out["oracle.local.calls"] = len(local_ns)
    out["oracle.local.ms_p50"] = statistics.median(local_ns) / 1e6 if local_ns else 0.0
    out["oracle.local.ms_p95"] = percentile(local_ns, 0.95) / 1e6 if local_ns else 0.0
    return out
