"""The four benchmark workloads, each a closed loop driven from one process.

A workload object builds its inputs from the seed once, then repeats its
unit of work until the run's time is used up: one pass (run the mesh for a
fixed round count, validate against the oracles, one agent-pair TCP run)
or, in converge-suite, one market. The next market, round or pass starts
only when the previous one has ended. Every unit checks its own outputs
with thresholds copied from the acceptance tests and the CLI.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import time
from time import perf_counter_ns

import scenarios
from gridclear import local_solver, market, oracle
from tracing import Node

AGENT_SCRIPT = scenarios.ROOT / "perfbench" / "agent.py"
AGENT_TIMEOUT = 60.0            # seconds; an agent pair that takes longer is killed
SUBGRADIENT_PAIRS = 10          # subgradient probes per market clear
PROBE_EVERY = 20                # mesh-scale rounds between two probes
MARKET_REPEATS = 5              # market clears per oracle-check pass


class Checks:
    """Correctness checks made so far: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class RoundTimer:
    """Times every `market.step` call while active (`market.run` drives its
    rounds through the module's `step`)."""

    def __init__(self):
        self.samples = []       # ns per round

    def __enter__(self):
        inner = self._inner = market.step
        samples = self.samples

        def timed_step(state, scenario):
            start = perf_counter_ns()
            out = inner(state, scenario)
            samples.append(perf_counter_ns() - start)
            return out

        market.step = timed_step
        return self

    def __exit__(self, *exc):
        market.step = self._inner


def trace_mb(trace) -> float:
    """Memory held by an IterationTrace, from sys.getsizeof over its objects."""
    seen, total, todo = set(), 0, [trace]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, market.IterationTrace):
            todo.extend(vars(obj).values())
    return total / 2**20


def cleared(trace, scn) -> bool:
    """Converged within the scenario tolerances, dual <= primal + 1e-9 on
    every row and a best dual that never decreases."""
    if not trace.converged or trace.rounds() == 0:
        return False
    rel_gap = trace.gaps[-1] / max(1e-12, abs(trace.primals[-1]))
    worst = max(abs(x) for x in trace.subgradients[-1])
    return (rel_gap <= scn.tol_gap and worst <= scn.tol_mismatch
            and weakly_dual(trace))


def weakly_dual(trace) -> bool:
    """The acceptance test's rule: dual <= primal + 1e-9 on every row, and
    the best dual never decreases."""
    for k in range(trace.rounds()):
        if trace.duals[k] > trace.primals[k] + 1e-9:
            return False
        if k and trace.best_duals[k] < trace.best_duals[k - 1]:
            return False
    return True


def probe_rng():
    """Price vectors for the subgradient check. They do not depend on the
    workload seed (like `gridclear validate --seed 0`), so the cost of the
    check does not either."""
    return scenarios.seeded_rng(0, 4)


def subgradient_holds(trace, scn, rng, pairs: int = SUBGRADIENT_PAIRS) -> bool:
    """The CLI's subgradient inequality, D(lam) <= D(lam_k) + g_k . (lam - lam_k)
    + 1e-6, at `pairs` random (round, price vector) pairs."""
    m = scn.topology.m
    for _ in range(pairs):
        k = int(rng.integers(0, trace.rounds()))
        lam = rng.uniform(40.0, 90.0, size=m)
        rhs = trace.duals[k] + sum(g * (a - b) for g, a, b in
                                   zip(trace.subgradients[k], lam, trace.prices[k]))
        if market.dual_value(lam, scn) > rhs + 1e-6:
            return False
    return True


class Workload:
    """A workload whose unit of measurement is one whole pass."""

    def measure(self, checks: Checks, seconds: float):
        """Passes until the next one would overrun `seconds` (at least one)."""
        results = []
        deadline = perf_counter_ns() + seconds * 1e9
        while True:
            start = perf_counter_ns()
            result = self.one_pass(checks)
            took = perf_counter_ns() - start
            if result is not None:
                results.append(result)
            if perf_counter_ns() + took > deadline:
                return results

    def held_out(self, checks: Checks):
        """Work checked after the measurement and left out of its metrics."""
        return None


# ---------------------------------------------------------------------------
# converge-suite
# ---------------------------------------------------------------------------

class ConvergeSuite(Workload):
    """The fixed suite, then a seeded batch, each market run to convergence.

    The end-to-end numbers cover the fixed suite, so that they compare
    across seeds and commits. A measured run clears the whole suite,
    then keeps clearing its markets in turn, each only while it still fits
    in the time budget. The 4-node markets, whose rounds set the median
    round time, are so sampled across the run and not only in its first
    seconds. The seeded batch runs after the measurement and is checked
    the same way; its round count ranges from tens to thousands between
    seeds.
    """

    def __init__(self, seed: int):
        markets = scenarios.converge_markets(seed)
        cut = len(scenarios.FIXED_SUITE)
        self.fixed, self.seeded = markets[:cut], markets[cut:]

    def measure(self, checks: Checks, seconds: float):
        deadline = perf_counter_ns() + seconds * 1e9
        results, last = [], {}

        def clear(label, scn):
            start = perf_counter_ns()
            result = clear_market(label, scn, checks)
            last[label] = perf_counter_ns() - start
            if result is not None:
                results.append(result)

        for label, scn in self.fixed:
            clear(label, scn)
        while any(perf_counter_ns() + last[label] <= deadline for label, _ in self.fixed):
            for label, scn in self.fixed:
                if perf_counter_ns() + last[label] <= deadline:
                    clear(label, scn)
        return results

    def held_out(self, checks: Checks):
        start = perf_counter_ns()
        results = [clear_market(label, scn, checks) for label, scn in self.seeded]
        rounds = sum(r["rounds"] for r in results if r is not None)
        return (f"seeded batch: {rounds} rounds in "
                f"{(perf_counter_ns() - start) / 1e9!r} s")

    def one_pass(self, checks: Checks, traced: bool = False) -> dict:
        """The whole suite and the seeded batch once (the traced run's unit)."""
        results = [clear_market(label, scn, checks, traced)
                   for label, scn in self.fixed + self.seeded]
        results = [r for r in results if r is not None]
        fixed = [r for r in results if not r["key"].startswith("seeded")]
        return {"clear_ns": sum(r["clear_ns"] for r in fixed),
                "verify_ns": sum(r["verify_ns"] for r in fixed),
                "rounds": sum(r["rounds"] for r in fixed),
                "round_ns": [d for r in fixed for d in r["round_ns"]],
                "info": {"rounds": {r["key"]: r["rounds"] for r in results},
                         "trace_mb": max(r["info"].get("trace_mb", 0.0)
                                         for r in results)}}


def clear_market(label: str, scn, checks: Checks, traced: bool = False):
    """Run one market to convergence with `market.run`, then check it.

    With traced=True also writes the trace CSV and sizes the trace.
    Returns None if the run raised.
    """
    with RoundTimer() as timer:
        start = perf_counter_ns()
        try:
            trace = market.run(scn)
        except (RuntimeError, ValueError) as e:
            checks.check(False, f"{label}: {e}")
            return None
        clear_ns = perf_counter_ns() - start
    start = perf_counter_ns()
    checks.check(cleared(trace, scn),
                 f"{label}: not cleared after {trace.rounds()} rounds")
    checks.check(subgradient_holds(trace, scn, probe_rng()),
                 f"{label}: subgradient inequality violated")
    verify_ns = perf_counter_ns() - start
    result = {"key": label, "clear_ns": clear_ns, "verify_ns": verify_ns,
              "rounds": trace.rounds(), "round_ns": timer.samples, "info": {}}
    if traced:
        trace.trace_csv()
        result["info"]["trace_mb"] = trace_mb(trace)
    return result


# ---------------------------------------------------------------------------
# mesh-scale
# ---------------------------------------------------------------------------

class MeshScale(Workload):
    """A 20-node full mesh stepped for a fixed round count.

    The measured passes run the fixed mesh, so that the end-to-end numbers
    compare across seeds: the regime mix of a 200-round run, and with it
    the round time, follows the demands. The seeded mesh runs once after
    the measurement, checked the same way, and is the mesh of the traced
    run, so that its counts change with the seed.
    """

    def __init__(self, seed: int):
        self.fixed, self.seeded = scenarios.build_inputs("mesh-scale", seed)
        self.scn = self.seeded

    def measure(self, checks: Checks, seconds: float):
        self.scn = self.fixed
        try:
            return super().measure(checks, seconds)
        finally:
            self.scn = self.seeded

    def held_out(self, checks: Checks):
        start = perf_counter_ns()
        result = self.one_pass(checks)
        if result is None:
            return None
        return (f"seeded mesh: {result['rounds']} rounds in "
                f"{(perf_counter_ns() - start) / 1e9!r} s")

    def one_pass(self, checks: Checks, traced: bool = False) -> dict:
        scn = self.scn
        probes = probe_rng()
        verify_ns = 0
        with RoundTimer() as timer:
            start = perf_counter_ns()
            state = market.new_state(scn)
            try:
                for k in range(1, scenarios.MESH_ROUNDS + 1):
                    market.step(state, scn)
                    if k % PROBE_EVERY == 0:
                        # One subgradient probe now and then, so that the
                        # check time is sampled across the pass.
                        t0 = perf_counter_ns()
                        checks.check(subgradient_holds(state.trace, scn, probes, 1),
                                     f"subgradient inequality violated by round {k}")
                        verify_ns += perf_counter_ns() - t0
            except (RuntimeError, ValueError) as e:
                checks.check(False, f"mesh round {state.trace.rounds() + 1}: {e}")
                return None
            clear_ns = perf_counter_ns() - start - verify_ns
        trace = state.trace
        start = perf_counter_ns()
        for k in range(trace.rounds()):
            checks.check(trace.duals[k] <= trace.primals[k] + 1e-9,
                         f"weak duality violated at round {k}")
        verify_ns += perf_counter_ns() - start
        return {"clear_ns": clear_ns, "verify_ns": verify_ns,
                "rounds": trace.rounds(), "round_ns": timer.samples,
                "info": {"trace_mb": trace_mb(trace)}}


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

class OracleCheck(Workload):
    """The oracle-compare path on line [2, 11, 9, 6], then the local oracle
    against the closed form on seeded random problems.

    The 0.2 s market clear runs MARKET_REPEATS times a pass, once before the
    oracles and then after each equal share of the local problems, so that
    the clear and round timings are sampled across the whole pass, not in
    one short window. `verify_s` leaves the repeats out.
    """

    def __init__(self, seed: int):
        self.scn, self.problems = scenarios.build_inputs("oracle-check", seed)

    def one_pass(self, checks: Checks, traced: bool = False) -> dict:
        try:
            return self._checked_pass(checks)
        except (RuntimeError, ValueError) as e:
            checks.check(False, f"oracle-check pass failed: {e}")
            return None

    def _checked_pass(self, checks: Checks) -> dict:
        clears = []
        with RoundTimer() as timer:
            start = perf_counter_ns()
            trace = market.run(self.scn)
            clears.append(perf_counter_ns() - start)

            t0 = perf_counter_ns()
            reference = oracle.solve_global_numeric(self.scn)
            global_ns = perf_counter_ns() - t0
            rel = abs(trace.primals[-1] - reference.total_cost) / abs(reference.total_cost)
            checks.check(trace.converged and rel <= 0.005,
                         f"market primal off the global oracle by {rel:.3e}")

            local_ns = []
            for k, p in enumerate(self.problems):
                closed = local_solver.net_expenditure(p, local_solver.solve_local(p))
                t0 = perf_counter_ns()
                numeric = oracle.solve_local_numeric(p).objective
                local_ns.append(perf_counter_ns() - t0)
                rel = abs(closed - numeric) / max(1.0, abs(numeric))
                checks.check(rel <= 1e-6,
                             f"closed form off the local oracle by {rel:.3e} for {p}")
                if (k + 1) % (len(self.problems) // (MARKET_REPEATS - 1)) == 0:
                    t0 = perf_counter_ns()
                    market.run(self.scn)
                    clears.append(perf_counter_ns() - t0)
            verify_ns = perf_counter_ns() - start - sum(clears[1:])
        # The pass's time per clear: a blend of its repeats, where their
        # median would jump between the machine's fast and slow spells.
        return {"clear_ns": sum(clears) // len(clears), "verify_ns": verify_ns,
                "rounds": trace.rounds(), "round_ns": timer.samples,
                "info": {"trace_mb": trace_mb(trace), "global_ns": global_ns,
                         "local_ns": local_ns, "oracle_m": self.scn.topology.m}}


# ---------------------------------------------------------------------------
# tcp-pair
# ---------------------------------------------------------------------------

def free_ports(n: int):
    """Ports the kernel just handed out, as the acceptance test picks them."""
    socks = [socket.socket() for _ in range(n)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class TcpPair(Workload):
    """Two agent processes over one TCP connection, for a fixed round count,
    checked against a loopback run of the same rounds."""

    AGENTS = 2

    def __init__(self, seed: int):
        self.scn = scenarios.tcp_market()

    def _spawn_pair(self, traced: bool):
        ports = ",".join(str(p) for p in free_ports(self.AGENTS))
        spawned = time.monotonic()
        procs = []
        try:
            for node in range(self.AGENTS):
                procs.append(subprocess.Popen(
                    [sys.executable, str(AGENT_SCRIPT), "--node", str(node),
                     "--ports", ports, "--rounds", str(scenarios.TCP_ROUNDS),
                     "--trace", "1" if traced else "0"],
                    cwd=scenarios.ROOT, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True))
            deadline = time.monotonic() + AGENT_TIMEOUT
            results = []
            for node, proc in enumerate(procs):
                out, err = proc.communicate(
                    timeout=max(0.1, deadline - time.monotonic()))
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"agent {node} exited {proc.returncode}: {err.strip()[-500:]}")
                results.append(json.loads(out.splitlines()[-1]))
            return spawned, results
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def one_pass(self, checks: Checks, traced: bool = False) -> dict:
        try:
            spawned, agents = self._spawn_pair(traced)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            checks.check(False, f"agent pair failed: {e}")
            return None
        connected = max(a["connected"] for a in agents)
        start = perf_counter_ns()
        reference = market.run(self.scn, rounds=scenarios.TCP_ROUNDS)
        diffs = [abs(a["price_history_last"] - reference.final_prices[a["node"]])
                 for a in agents]
        checks.check(max(diffs) <= 1e-9,
                     f"tcp and loopback prices differ by {max(diffs):.3e}")
        verify_ns = perf_counter_ns() - start
        rounds = scenarios.TCP_ROUNDS
        tree = Node("root")
        for a in agents:
            if a["tree"] is not None:
                tree.merge(Node.from_dict(a["tree"]))
        info = {
            "setup_s": connected - spawned,
            "connect_s": max(a["connect_s"] for a in agents),
            "peak_rss_mb": max(a["peak_rss_kb"] for a in agents) / 1024,
            "post_ns": sum(a["post_ns"] for a in agents),
            "posts": sum(a["posts"] for a in agents),
            "collect_ns": sum(a["collect_ns"] for a in agents),
            "collects": sum(a["collects"] for a in agents),
            "busy_ns": sum(a["run_ns"] for a in agents),
            "agents": len(agents),
            "tree": tree,
        }
        return {"clear_ns": round(1e9 * (max(a["finished"] for a in agents) - connected)),
                "verify_ns": verify_ns, "rounds": rounds,
                "round_ns": [d for a in agents for d in a["round_ns"]],
                "info": info}


WORKLOADS = {
    "converge-suite": ConvergeSuite,
    "mesh-scale": MeshScale,
    "oracle-check": OracleCheck,
    "tcp-pair": TcpPair,
}


def percentile(values, q: float, weights=None):
    """Nearest-rank percentile; with weights, of the weighted distribution."""
    pairs = sorted(zip(values, weights or [1.0] * len(values)))
    need = q * sum(w for _, w in pairs) * (1.0 - 1e-12)
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= need:
            return value
    return pairs[-1][0]
