"""One node of the tcp-pair workload, run as its own process.

    python3 perfbench/agent.py --node 0 --ports 41000,41001 --rounds 2000 --trace 0

Pins itself to one CPU (node i to the i-th allowed CPU, modulo their
number), connects to the other node over `TcpTransport`, runs `run_agent` for the
given round count through a proxy that times every post and collect, and
prints one JSON line: the last price, the per-round times, the proxy's
totals, the peak RSS and, with --trace 1, the span tree of the process.
Timestamps that the parent compares across processes use time.monotonic().
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from time import perf_counter_ns

import scenarios


class TimedTransport:
    """Forwards to a transport, timing each post and collect; a round ends
    when a collect of `round_end_kind` (the bid phase) returns."""

    def __init__(self, inner, round_end_kind):
        self.inner = inner
        self.round_end_kind = round_end_kind
        self.post_ns = self.collect_ns = 0
        self.posts = self.collects = 0
        self.round_ends = []

    def post(self, messages) -> None:
        start = perf_counter_ns()
        self.inner.post(messages)
        self.post_ns += perf_counter_ns() - start
        self.posts += 1

    def collect(self, node, round_no, kind, senders):
        start = perf_counter_ns()
        got = self.inner.collect(node, round_no, kind, senders)
        end = perf_counter_ns()
        self.collect_ns += end - start
        self.collects += 1
        if kind == self.round_end_kind:
            self.round_ends.append(end)
        return got


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--node", type=int, required=True)
    parser.add_argument("--ports", required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One agent per CPU: fewer migrations, a steadier round-time tail.
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[args.node % len(cpus)]})
    scenarios.bootstrap()
    from gridclear import market
    from gridclear.transport import MessageKind, TcpTransport
    from tracing import Tracer

    scn = scenarios.tcp_market()
    addresses = {i: ("127.0.0.1", int(p)) for i, p in enumerate(args.ports.split(","))}
    neighbors = [j for j in range(scn.topology.m)
                 if j != args.node and (scn.topology.adj[j][args.node]
                                        or scn.topology.adj[args.node][j])]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    transport = TcpTransport(args.node, addresses, neighbors)
    try:
        t0 = time.monotonic()
        transport.connect()
        connected = time.monotonic()
        proxy = TimedTransport(transport, MessageKind.BID)
        run_start = perf_counter_ns()
        result = market.run_agent(scn, args.node, args.rounds, proxy)
        run_ns = perf_counter_ns() - run_start
        finished = time.monotonic()
    finally:
        transport.close()
    ends = [run_start] + proxy.round_ends
    print(json.dumps({
        "node": args.node,
        "connected": connected,
        "connect_s": connected - t0,
        "finished": finished,
        "price_history_last": result["price_history"][-1],
        "round_ns": [b - a for a, b in zip(ends, ends[1:])],
        "run_ns": run_ns,
        "post_ns": proxy.post_ns, "posts": proxy.posts,
        "collect_ns": proxy.collect_ns, "collects": proxy.collects,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "tree": tracer.root.to_dict() if tracer is not None else None,
    }))


if __name__ == "__main__":
    main()
