"""Round-based market clearing by subgradient price coordination.

Every node posts a selling price, solves its own cost minimization against
the neighbors' posted prices, bids for the energy it wants to buy, and then
moves its own price by the gap between what neighbors requested from it and
what it offered. The prices are the dual variables of the supply-demand
coupling constraints, so the trace tracks the dual value alongside a
feasibilized primal cost; their gap closing is the convergence signal.

Each node scales its price move by its own secant step, the two-point
(Barzilai-Borwein) step on the dual: alpha = -dprice / dmismatch over its
last two rounds when that is positive, else half its last step, clamped to
[ALPHA_MIN, ALPHA_MAX]; the first step is the scenario's alpha0. A node
reads only its own price and mismatch for this, so the rule needs no extra
message.

A node's round is one routine, `TradingAgent.play_round`, and all
inter-node data flows through the transport it is given (see transport
module). `step` drives every node's round over the in-process loopback and
records the trace; `run_agent` drives one node's rounds, typically over TCP
sockets with each node in its own process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cost_models import CostModel
from .local_solver import (LocalProblem, LocalSolution, net_expenditure,
                           solve_local)
from .topology import Topology
from .transport import LoopbackTransport, Message, MessageKind

__all__ = [
    "ALPHA_MIN",
    "ALPHA_MAX",
    "secant_step",
    "Scenario",
    "IterationTrace",
    "TradingAgent",
    "MarketState",
    "local_problem",
    "solve_all",
    "dual_value",
    "feasibilize_and_cost",
    "new_state",
    "step",
    "run",
    "run_agent",
]


# Bounds of the secant price step, ($/MWh) per MWh of mismatch.
ALPHA_MIN = 1e-3
ALPHA_MAX = 1e7


def secant_step(alpha: float, d_price: float, d_mismatch: float) -> float:
    """Next step of a node whose price moved by d_price while its mismatch
    moved by d_mismatch: -d_price / d_mismatch when that is positive, else
    half of alpha; clamped to [ALPHA_MIN, ALPHA_MAX]."""
    step = 0.5 * alpha
    if d_mismatch != 0.0:
        ratio = -d_price / d_mismatch
        if ratio > 0.0:
            step = ratio
    return min(ALPHA_MAX, max(ALPHA_MIN, step))


@dataclass(frozen=True)
class Scenario:
    """One market instance: who can trade with whom, at what cost."""

    topology: Topology
    demands: tuple               # MWh per node
    gen_costs: tuple             # CostModel per node
    transfer_cost: CostModel
    alpha0: float = 0.5          # ($/MWh) per MWh, every node's first step
    tol_gap: float = 1e-4        # relative duality gap at convergence
    tol_mismatch: float = 1e-3   # MWh, max supply-demand mismatch
    max_iters: int = 20000

    def __post_init__(self):
        m = self.topology.m
        demands = tuple(float(d) for d in self.demands)
        gen_costs = tuple(self.gen_costs)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "gen_costs", gen_costs)
        if len(demands) != m:
            raise ValueError(f"{len(demands)} demands for {m} nodes")
        if len(gen_costs) != m:
            raise ValueError(f"{len(gen_costs)} generation costs for {m} nodes")
        for d in demands:
            if not (math.isfinite(d) and d >= 0.0):
                raise ValueError(f"demands must be nonnegative, got {d}")
        if not (math.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
        if not (math.isfinite(self.tol_gap) and self.tol_gap > 0):
            raise ValueError(f"tol_gap must be positive, got {self.tol_gap}")
        if not (math.isfinite(self.tol_mismatch) and self.tol_mismatch > 0):
            raise ValueError(
                f"tol_mismatch must be positive, got {self.tol_mismatch}")
        if not isinstance(self.max_iters, int) or self.max_iters < 1:
            raise ValueError(
                f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass(eq=False)
class IterationTrace:
    """Per-round history of a market run.

    Row k holds the prices the nodes used during round k together with
    everything computed from them, not the prices the round's update moved
    them to, so the last row is self-consistent at convergence. Bids are
    kept for the last row only, as a read-only copy of the array `append`
    was given; `final_bids` turns it into nested tuples of floats when
    read. Traces compare by identity.
    """

    m: int
    prices: list = field(default_factory=list)        # tuple of $/MWh
    subgradients: list = field(default_factory=list)  # tuple of MWh
    duals: list = field(default_factory=list)         # $
    best_duals: list = field(default_factory=list)    # $
    primals: list = field(default_factory=list)       # $
    gaps: list = field(default_factory=list)          # $, primal - best dual
    cases: list = field(default_factory=list)         # tuple of case ids
    converged: bool = False
    _bids: np.ndarray | None = field(default=None, init=False,
                                     repr=False)      # M×M, row = seller

    def rounds(self) -> int:
        return len(self.prices)

    @property
    def final_prices(self):
        return self.prices[-1]

    @property
    def final_cases(self):
        return self.cases[-1]

    @property
    def final_bids(self) -> tuple:
        """Bid matrix of the last row as M×M nested tuples of floats
        (row = seller); () before the first row."""
        if self._bids is None:
            return ()
        return tuple(tuple(row) for row in self._bids.tolist())

    def append(self, prices, bids, subgrad, dual, primal, cases) -> None:
        best = max(self.best_duals[-1], dual) if self.best_duals else dual
        self.prices.append(tuple(float(x) for x in prices))
        self._bids = np.array(bids, dtype=float)
        self._bids.flags.writeable = False
        self.subgradients.append(tuple(float(x) for x in subgrad))
        self.duals.append(float(dual))
        self.best_duals.append(float(best))
        self.primals.append(float(primal))
        self.gaps.append(float(primal) - float(best))
        self.cases.append(tuple(int(c) for c in cases))

    def convergence(self) -> tuple:
        """(relative duality gap, worst absolute mismatch in MWh) of the
        last row."""
        rel_gap = self.gaps[-1] / max(1e-12, abs(self.primals[-1]))
        return rel_gap, max(abs(x) for x in self.subgradients[-1])

    def trace_csv(self) -> str:
        """Full history, one row per round."""
        m = self.m
        header = (["k"]
                  + [f"lambda_{i}" for i in range(m)]
                  + [f"subgrad_{i}" for i in range(m)]
                  + ["dual", "best_dual", "primal", "gap"]
                  + [f"case_{i}" for i in range(m)])
        lines = [",".join(header)]
        for k in range(self.rounds()):
            row = ([str(k)]
                   + [repr(x) for x in self.prices[k]]
                   + [repr(x) for x in self.subgradients[k]]
                   + [repr(self.duals[k]), repr(self.best_duals[k]),
                      repr(self.primals[k]), repr(self.gaps[k])]
                   + [str(c) for c in self.cases[k]])
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def trades_csv(self) -> str:
        """Final bid matrix; row i lists what each node bought from node i."""
        lines = [",".join(repr(x) for x in row) for row in self.final_bids]
        return "\n".join(lines) + "\n"


class TradingAgent:
    """One node's market behavior.

    Holds only what the node itself may know: its own price, the prices its
    potential suppliers posted, the bids addressed to it, and its own last
    price step. Everything else arrives as messages. Its subproblem is
    built from a price table holding just those prices, so a lookup of any
    other node's price fails.
    """

    def __init__(self, node: int, scenario: Scenario):
        top = scenario.topology
        self.node = top.check_node(node)
        self.scenario = scenario
        self.sellers = top.sellers[node]   # nodes this one may buy from
        self.buyers = top.buyers[node]     # nodes that may buy from this one
        # standalone marginal cost at its own demand
        self.price = float(scenario.gen_costs[node].marginal(scenario.demands[node]))
        self.seller_prices = {}
        self.received_bids = {}
        self.problem = None
        self.solution = None
        self._solved_at = None      # prices of the last solve
        self.alpha = scenario.alpha0
        self._last_move = None      # (price, mismatch) of the last update

    def play_round(self, transport, k: int):
        """Round k of this node's protocol over `transport`, as a generator
        that yields after each of its two posts: post its price to its
        buyers; collect its sellers' prices and solve; post its bids to its
        sellers; collect its buyers' bids. `run_agent` runs it straight
        through; `step` advances every node's round one phase at a time,
        so that every node posts before any node collects."""
        node = self.node
        transport.post([Message(k, node, j, MessageKind.PRICE, self.price)
                        for j in self.buyers])
        yield
        inbox = transport.collect(node, k, MessageKind.PRICE, self.sellers)
        self.seller_prices = {j: inbox[j].value for j in self.sellers}
        try:
            e_buy = self.solve().e_buy
        except Exception as e:
            raise RuntimeError(
                f"local solve failed at node {node}, round {k}: {e}") from e
        transport.post([Message(k, node, j, MessageKind.BID,
                                float(e_buy.get(j, 0.0)))
                        for j in self.sellers])
        yield
        inbox = transport.collect(node, k, MessageKind.BID, self.buyers)
        self.received_bids = {j: inbox[j].value for j in self.buyers}

    def solve(self) -> LocalSolution:
        """Solve the subproblem at the current prices. When they equal the
        prices of the last solve, its solution is still the optimum and is
        returned as it is."""
        prices = {**self.seller_prices, self.node: self.price}
        if prices != self._solved_at:
            self.problem = local_problem(self.scenario, self.node, prices)
            self.solution = solve_local(self.problem)
            self._solved_at = prices
        return self.solution

    def update_price(self) -> float:
        """Move the own price by the secant step times the mismatch (energy
        requested from this node minus what it offered, MWh), floored at
        zero; returns the mismatch."""
        requested = 0.0
        for j in self.buyers:   # ascending ids: fixed summation order
            requested += self.received_bids[j]
        m = requested - self.solution.e_sell
        if self._last_move is not None:
            last_price, last_m = self._last_move
            self.alpha = secant_step(self.alpha, self.price - last_price,
                                     m - last_m)
        self._last_move = (self.price, m)
        self.price = max(0.0, self.price + self.alpha * m)
        return m


# ---------------------------------------------------------------------------
# node subproblems and whole-market views (duality, primal recovery)
# ---------------------------------------------------------------------------

def local_problem(scenario: Scenario, node: int, prices) -> LocalProblem:
    """Node `node`'s subproblem at posted prices indexed by node id.

    Only the node's own price and its sellers' prices are read, so a
    mapping holding just those is enough.
    """
    top = scenario.topology
    top.check_node(node)
    return LocalProblem(
        node=node, demand=scenario.demands[node],
        gen_cost=scenario.gen_costs[node],
        transfer_cost=scenario.transfer_cost,
        seller_prices={j: float(prices[j]) for j in top.sellers[node]},
        own_price=float(prices[node]))


def solve_all(prices, scenario: Scenario) -> list:
    """[(problem, optimum)] of every node at one price vector."""
    out = []
    for i in range(scenario.topology.m):
        p = local_problem(scenario, i, prices)
        out.append((p, solve_local(p)))
    return out


def dual_value(prices, scenario: Scenario) -> float:
    """Sum of per-node optimal net expenditures at the given prices."""
    total = 0.0
    for p, s in solve_all(prices, scenario):
        total += net_expenditure(p, s)
    return total


def feasibilize_and_cost(bids, scenario: Scenario):
    """Turn a bid matrix into a feasible operating point and price it.

    Trades are taken verbatim (row = seller); each node then generates
    whatever its demand plus outgoing trades still require, floored at
    zero. Returns the total cost in $: generation node by node, then
    transfers in row-major edge order.

    Raises ValueError on a non-finite bid, else on the first bid in
    row-major order that is negative or lies on a missing edge.
    """
    top = scenario.topology
    m = top.m
    B = np.asarray(bids, dtype=float)
    if B.shape != (m, m):
        raise ValueError(f"bid matrix shape {B.shape}, expected {(m, m)}")
    finite = np.isfinite(B)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite bid {B[i][j]} at [{i}][{j}]")
    sellers, buyers = top.edge_index
    off_edge = B != 0.0
    off_edge[sellers, buyers] = False
    bad = off_edge | (B < 0.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        if B[i][j] < 0.0:
            raise ValueError(f"negative bid {B[i][j]} at [{i}][{j}]")
        raise ValueError(f"bid on missing edge {i}->{j}")
    sold = B.sum(axis=1)
    bought = B.sum(axis=0)
    cost = 0.0
    for i in range(m):
        g = max(0.0, scenario.demands[i] + sold[i] - bought[i])
        cost += scenario.gen_costs[i].value(g)
    for c in scenario.transfer_cost.value(B[sellers, buyers]).tolist():
        cost += c
    return float(cost)


# ---------------------------------------------------------------------------
# loopback driver
# ---------------------------------------------------------------------------

@dataclass
class MarketState:
    round: int
    agents: list
    transport: LoopbackTransport
    trace: IterationTrace


def new_state(scenario: Scenario) -> MarketState:
    m = scenario.topology.m
    agents = [TradingAgent(i, scenario) for i in range(m)]
    return MarketState(0, agents, LoopbackTransport(m), IterationTrace(m))


def step(state: MarketState, scenario: Scenario) -> MarketState:
    """One full synchronous round: prices out, local solves, bids out,
    then every node updates its own price. Appends one trace row."""
    k = state.round
    agents = state.agents
    rounds = [a.play_round(state.transport, k) for a in agents]
    for _ in range(3):      # price posts, collects and bid posts, bid collects
        for r in rounds:
            next(r, None)

    m = len(agents)
    bids = np.zeros((m, m))
    for j, a in enumerate(agents):
        for i, amount in a.solution.e_buy.items():
            bids[i, j] = amount
    prices = [a.price for a in agents]
    sg = [a.update_price() for a in agents]
    dual = 0.0
    for a in agents:
        dual += net_expenditure(a.problem, a.solution)
    primal = feasibilize_and_cost(bids, scenario)
    state.trace.append(prices, bids, sg, dual, primal,
                       [a.solution.case_id for a in agents])
    state.round += 1
    return state


def _row_converged(trace: IterationTrace, scenario: Scenario) -> bool:
    rel_gap, worst = trace.convergence()
    return rel_gap <= scenario.tol_gap and worst <= scenario.tol_mismatch


def run(scenario: Scenario, rounds: int | None = None) -> IterationTrace:
    """Drive the market over the loopback transport.

    By default, iterates until the relative duality gap and the worst
    supply-demand mismatch both fall inside the scenario tolerances, or
    max_iters rounds elapse; the trace's `converged` flag tells which. Pass
    `rounds` to run a fixed number of rounds instead (the convergence test
    is still evaluated on the last row).
    """
    if rounds is not None and rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    state = new_state(scenario)
    limit = scenario.max_iters if rounds is None else rounds
    for _ in range(limit):
        step(state, scenario)
        if rounds is None and _row_converged(state.trace, scenario):
            state.trace.converged = True
            return state.trace
    if rounds is not None:
        state.trace.converged = _row_converged(state.trace, scenario)
    return state.trace


# ---------------------------------------------------------------------------
# per-process driver (socket mode)
# ---------------------------------------------------------------------------

def run_agent(scenario: Scenario, node: int, rounds: int, transport) -> dict:
    """Run one node for a fixed number of rounds over the given transport.

    Every process in the mesh must use the same round count. Returns the
    node's price history (the price used in each round, matching the trace
    rows of a loopback run) and its final post-update price.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    agent = TradingAgent(node, scenario)
    history = []
    cases = []
    for k in range(rounds):
        for _ in agent.play_round(transport, k):
            pass
        history.append(agent.price)
        cases.append(agent.solution.case_id)
        agent.update_price()
    return {
        "node": node,
        "rounds": rounds,
        "price_history": history,
        "final_price": agent.price,
        "case_history": cases,
    }
