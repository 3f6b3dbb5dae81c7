import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gridclear import market, topology
from gridclear.cost_models import (DEFAULT_GENERATION_COST,
                                   DEFAULT_TRANSFER_COST, SoftCappedQuadratic)
from gridclear.local_solver import LocalProblem, net_expenditure, solve_local
from gridclear.market import (ALPHA_MAX, ALPHA_MIN, Scenario, TradingAgent,
                              dual_value, feasibilize_and_cost, local_problem,
                              run, run_agent, secant_step, solve_all)
from gridclear.transport import LoopbackTransport, TransportError

GEN = DEFAULT_GENERATION_COST
TR = DEFAULT_TRANSFER_COST


def scenario(kind, demands, **kw):
    m = len(demands)
    return Scenario(topology=topology.build(kind, m), demands=tuple(demands),
                    gen_costs=(GEN,) * m, transfer_cost=TR, **kw)


def test_secant_step_rule():
    agent = TradingAgent(0, scenario("line", [2.0, 10.0]))
    agent.solution = SimpleNamespace(e_sell=0.0)
    prices, mismatches = [], []

    def update(requested):
        agent.received_bids = {1: requested}
        prices.append(agent.price)
        mismatches.append(agent.update_price())

    # the first step is alpha0
    update(2.0)
    assert agent.alpha == 0.5
    assert agent.price == prices[0] + 0.5 * 2.0
    # then -dprice / dmismatch over the node's last two rounds
    update(1.5)
    secant = -(prices[1] - prices[0]) / (mismatches[1] - mismatches[0])
    assert secant > 0.0 and agent.alpha == secant
    assert agent.price == prices[1] + secant * 1.5
    # the mismatch rose with the price: the ratio is negative, so halve
    update(2.0)
    assert agent.alpha == 0.5 * secant
    # the mismatch did not move: no ratio, so halve again
    update(2.0)
    assert agent.alpha == 0.25 * secant
    # both clamps
    assert secant_step(0.5, 1e9, -1e-3) == ALPHA_MAX
    assert secant_step(0.5, 1e-9, -1.0) == ALPHA_MIN
    assert secant_step(1.5 * ALPHA_MIN, 1.0, 1.0) == ALPHA_MIN
    assert secant_step(4.0 * ALPHA_MAX, 0.0, 0.0) == ALPHA_MAX
    assert (ALPHA_MIN, ALPHA_MAX) == (1e-3, 1e7)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario("full", [1.0, -2.0])
    with pytest.raises(ValueError):
        Scenario(topology=topology.build("full", 3), demands=(1.0, 2.0),
                 gen_costs=(GEN,) * 3, transfer_cost=TR)
    with pytest.raises(ValueError):
        scenario("full", [1.0, 2.0], tol_gap=0.0)
    with pytest.raises(ValueError):
        scenario("full", [1.0, 2.0], max_iters=0)
    with pytest.raises(ValueError, match="max_iters"):
        scenario("full", [1.0, 2.0], max_iters=2.5)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha0 must be positive"):
            scenario("full", [1.0, 2.0], alpha0=bad)


def test_initial_prices_are_standalone_marginal_costs():
    scn = scenario("full", [8.0, 11.0, 6.0])
    expected = (GEN.marginal(8.0), GEN.marginal(11.0), GEN.marginal(6.0))
    assert tuple(TradingAgent(i, scn).price for i in range(3)) == expected
    assert run(scn, rounds=1).prices[0] == expected


def test_fixed_round_run_records_every_round():
    scn = scenario("line", [2.0, 10.0])
    trace = run(scn, rounds=5)
    assert trace.rounds() == 5
    assert not trace.converged
    for hist in (trace.prices, trace.subgradients, trace.duals,
                 trace.best_duals, trace.primals, trace.gaps, trace.cases):
        assert len(hist) == 5
    for bad in (0, -3):
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            run(scn, rounds=bad)
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            run_agent(scn, 0, bad, LoopbackTransport(2))


def test_price_update_rule():
    scn = scenario("line", [2.0, 10.0])
    trace = run(scn, rounds=2)
    alpha0 = scn.alpha0
    for i in range(2):
        expected = max(0.0, trace.prices[0][i]
                       + alpha0 * trace.subgradients[0][i])
        assert trace.prices[1][i] == expected


def test_trace_row_self_consistency():
    scn = scenario("line", [2.0, 10.0])
    trace = run(scn, rounds=50)
    for k in range(50):
        assert trace.duals[k] <= trace.primals[k] + 1e-9
        assert trace.gaps[k] == trace.primals[k] - trace.best_duals[k]
        if k:
            assert trace.best_duals[k] >= trace.best_duals[k - 1]


def test_subgradient_matches_resolved_solutions():
    scn = scenario("line", [2.0, 6.0, 10.0])
    trace = run(scn, rounds=3)
    lam = trace.prices[0]
    top = scn.topology
    solutions = []
    for i in range(3):
        p = LocalProblem(node=i, demand=scn.demands[i], gen_cost=GEN,
                         transfer_cost=TR,
                         seller_prices={j: lam[j] for j in top.sellers[i]},
                         own_price=lam[i])
        solutions.append(solve_local(p))
    for i in range(3):
        requested = 0.0
        for j in top.buyers[i]:
            requested += solutions[j].e_buy.get(i, 0.0)
        assert requested - solutions[i].e_sell == trace.subgradients[0][i]


def test_node_ids_out_of_range_are_rejected():
    scn = scenario("line", [2.0, 6.0, 10.0])
    for node in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            TradingAgent(node, scn)
        with pytest.raises(ValueError, match="out of range"):
            local_problem(scn, node, [50.0, 50.0, 50.0, 50.0])


def test_local_problem_reads_only_own_and_seller_prices():
    scn = scenario("line", [2.0, 6.0, 10.0])
    # node 0 buys only from node 1: prices of nodes 0 and 1 are all it needs
    p = local_problem(scn, 0, {0: 55.0, 1: 61.0})
    assert p.seller_prices == {1: 61.0} and p.own_price == 55.0
    assert p.demand == 2.0 and p.gen_cost is GEN and p.transfer_cost is TR
    with pytest.raises(KeyError):
        local_problem(scn, 1, {0: 55.0, 1: 61.0})   # node 1 also buys from 2


def test_symmetric_market_clears_without_trades():
    scn = scenario("full", [7.0, 7.0])
    trace = run(scn)
    assert trace.converged
    assert max(max(row) for row in trace.final_bids) <= 1e-3
    assert trace.primals[-1] == pytest.approx(2 * GEN.value(7.0), rel=1e-6)


def test_unbalanced_market_converges_to_oracle_cost():
    scn = scenario("line", [2.0, 10.0])
    trace = run(scn)
    assert trace.converged
    assert trace.primals[-1] == pytest.approx(883.8153485134, rel=5e-3)
    assert trace.rounds() < scn.max_iters


def test_fixed_suite_clears_within_its_rounds():
    # The benchmark's fixed scenario suite, with the rounds the per-node
    # secant step needs on it (510 in all); a step rule may only lower them.
    suite = [
        ("full", (8.0, 11.0, 11.0, 6.0), 248),
        ("ring", (8.0, 11.0, 11.0, 6.0), 171),
        ("line", (2.0, 11.0, 9.0, 6.0), 46),
        ("full", (1.0, 3.0, 10.0, 6.0, 9.0, 4.0), 30),
        ("ring", (9.0, 2.0, 7.0, 10.0, 1.0, 5.0), 15),
    ]
    for kind, demands, rounds in suite:
        trace = run(scenario(kind, demands))
        assert trace.converged, (kind, demands)
        assert trace.rounds() <= rounds, (kind, demands, trace.rounds())


def test_trace_csv_roundtrips():
    scn = scenario("line", [2.0, 10.0])
    trace = run(scn, rounds=4)
    lines = trace.trace_csv().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["k", "lambda_0", "lambda_1", "subgrad_0", "subgrad_1",
                      "dual", "best_dual", "primal", "gap", "case_0", "case_1"]
    assert len(lines) == 1 + 4
    row2 = lines[2].split(",")
    assert int(row2[0]) == 1
    assert float(row2[5]) == trace.duals[1]
    assert float(row2[7]) == trace.primals[1]


def test_trades_csv_is_final_bid_matrix():
    scn = scenario("line", [2.0, 10.0])
    trace = run(scn, rounds=3)
    rows = [line.split(",") for line in trace.trades_csv().strip().split("\n")]
    assert len(rows) == 2 and all(len(r) == 2 for r in rows)
    assert float(rows[0][1]) == trace.final_bids[0][1]


def test_feasibilize_prices_a_bid_matrix():
    scn = scenario("line", [2.0, 10.0])
    cost = feasibilize_and_cost([[0.0, 1.0], [0.0, 0.0]], scn)
    assert cost == pytest.approx(GEN.value(3.0) + GEN.value(9.0) + TR.value(1.0),
                                 rel=1e-12)
    # oversold node generates the extra; overbought node floors at zero
    cost = feasibilize_and_cost([[0.0, 12.0], [0.0, 0.0]], scn)
    assert cost == pytest.approx(GEN.value(14.0) + GEN.value(0.0) + TR.value(12.0),
                                 rel=1e-12)


def test_feasibilize_rejects_bad_bids():
    scn = scenario("line", [2.0, 10.0])
    with pytest.raises(ValueError, match="negative bid"):
        feasibilize_and_cost([[0.0, -1.0], [0.0, 0.0]], scn)
    with pytest.raises(ValueError, match="shape"):
        feasibilize_and_cost([[0.0, 0.0]], scn)
    scn3 = scenario("line", [2.0, 6.0, 10.0])
    with pytest.raises(ValueError, match="missing edge"):
        feasibilize_and_cost([[0.0, 0.0, 1.0]] + [[0.0] * 3] * 2, scn3)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite bid"):
            feasibilize_and_cost([[0.0, bad], [0.0, 0.0]], scn)


def test_feasibilize_reports_the_first_bad_bid_in_row_major_order():
    # [0][2] (no edge 0->2 in a line) comes before the negative [1][0]
    scn = scenario("line", [2.0, 6.0, 10.0])
    bids = [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match=r"bid on missing edge 0->2"):
        feasibilize_and_cost(bids, scn)
    bids[0][2] = 0.0
    with pytest.raises(ValueError, match=r"negative bid -1\.0 at \[1\]\[0\]"):
        feasibilize_and_cost(bids, scn)


def reference_cost(bids, scn):
    """feasibilize_and_cost as a plain loop over every cell: generation
    node by node, then each edge's transfer in row-major order."""
    adj, m = scn.topology.adj, scn.topology.m
    B = np.asarray(bids, dtype=float)
    sold, bought = B.sum(axis=1), B.sum(axis=0)
    cost = 0.0
    for i in range(m):
        cost += scn.gen_costs[i].value(
            max(0.0, scn.demands[i] + sold[i] - bought[i]))
    for i in range(m):
        for j in range(m):
            if adj[i][j]:
                cost += scn.transfer_cost.value(B[i][j])
    return float(cost)


def test_feasibilize_matches_a_cell_by_cell_loop():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        adj = rng.random((m, m)) < 0.6
        np.fill_diagonal(adj, False)
        bids = np.where(adj & (rng.random((m, m)) < 0.7),
                        rng.uniform(0.0, 6.0, size=(m, m)), 0.0)
        scn = Scenario(topology=topology.from_adjacency(adj.tolist()),
                       demands=tuple(rng.uniform(0.0, 13.0, size=m)),
                       gen_costs=(GEN,) * m, transfer_cost=TR)
        assert feasibilize_and_cost(bids, scn) == reference_cost(bids, scn)
        assert feasibilize_and_cost(bids.tolist(), scn) == reference_cost(bids, scn)


def test_final_bids_are_nested_tuples_of_floats():
    scn = scenario("ring", [2.0, 6.0, 10.0, 4.0])
    trace = run(scn, rounds=5)
    bids = trace.final_bids
    assert type(bids) is tuple and len(bids) == 4
    assert all(type(row) is tuple and len(row) == 4 for row in bids)
    assert all(type(x) is float for row in bids for x in row)
    assert any(x > 0.0 for row in bids for x in row)
    assert market.IterationTrace(4).final_bids == ()


def test_trace_keeps_its_own_bids_and_compares_them():
    def record(bids):
        trace = market.IterationTrace(2)
        trace.append([1.0, 2.0], bids, [0.0, 0.0], 3.0, 4.0, (1, 1))
        return trace

    bids = np.array([[0.0, 0.5], [0.25, 0.0]])
    trace = record(bids)
    bids[0, 1] = 9.0                # the caller reuses its buffer
    assert trace.final_bids == ((0.0, 0.5), (0.25, 0.0))
    # traces compare by identity: one that differs only in its bids is
    # never equal to another
    assert trace == trace
    assert trace != record([[0.0, 0.5], [0.125, 0.0]])


def test_large_sparse_market_rows_match_whole_market_views():
    # A 400-node ring and a 30-node random digraph: every row's dual is the
    # dual function at that row's prices, and its primal is the cost of the
    # bids every node makes at those prices, both exactly.
    rng = np.random.default_rng(3)
    ring = scenario("ring", rng.uniform(1.0, 11.0, size=400).tolist())
    adj = rng.random((30, 30)) < 0.1
    np.fill_diagonal(adj, False)
    digraph = Scenario(topology=topology.from_adjacency(adj.tolist()),
                       demands=tuple(rng.uniform(1.0, 11.0, size=30)),
                       gen_costs=(GEN,) * 30, transfer_cost=TR)
    for scn in (ring, digraph):
        m = scn.topology.m
        trace = run(scn, rounds=3)
        for k in range(3):
            lam = trace.prices[k]
            assert trace.duals[k] == dual_value(lam, scn), (m, k)
            bids = np.zeros((m, m))
            for j, (_, sol) in enumerate(solve_all(lam, scn)):
                for i, amount in sol.e_buy.items():
                    bids[i, j] = amount
            assert trace.primals[k] == feasibilize_and_cost(bids, scn), (m, k)


def test_dual_never_exceeds_optimal_cost():
    # weak duality against the frozen two-node optimum
    scn = scenario("line", [2.0, 10.0])
    rng = np.random.default_rng(5)
    for _ in range(5):
        lam = rng.uniform(40.0, 90.0, size=2)
        assert dual_value(lam, scn) <= 883.8153485134 + 1e-6


def test_dual_lies_below_every_subgradient_plane():
    # The dual is concave, so each round's subgradient bounds it from above
    # everywhere: D(lam) <= D(lam_k) + g_k . (lam - lam_k).
    scn = scenario("full", [8.0, 11.0, 11.0, 6.0])
    trace = run(scn)
    assert trace.converged
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(0, trace.rounds()))
        lam = rng.uniform(40.0, 90.0, size=4)
        plane = trace.duals[k] + float(np.dot(trace.subgradients[k],
                                              lam - np.array(trace.prices[k])))
        assert dual_value(lam, scn) <= plane + 1e-6, f"round {k}, lam {lam}"


def test_agent_rejects_wrong_sender_set():
    # node 0 buys from node 1, which never posts: the round cannot go on
    scn = scenario("line", [2.0, 10.0])
    agent = TradingAgent(0, scn)
    tr = LoopbackTransport(2)
    with pytest.raises(TransportError, match=r"no PRICE from \[1\]"):
        for _ in agent.play_round(tr, 0):
            pass
    assert agent.solution is None


def test_tiny_demand_market_clears():
    # node 0 buys 1e-9 MWh from a cheap neighbor, below where the transfer
    # marginal resolves its demand
    scn = Scenario(topology=topology.build("line", 2), demands=(1e-9, 5.0),
                   gen_costs=(GEN, SoftCappedQuadratic(a=10.0, b=20.0, c=0.3,
                                                       e_max=10.0)),
                   transfer_cost=TR)
    trace = run(scn)
    assert trace.converged
    assert trace.final_cases[0] == 2


def failing_solve(monkeypatch, fails):
    solve = market.solve_local

    def solve_or_fail(p):
        if fails(p):
            raise ValueError("no root")
        return solve(p)

    monkeypatch.setattr(market, "solve_local", solve_or_fail)


def test_solve_failure_names_node_and_round(monkeypatch):
    # loopback: three good rounds, then node 2's solve fails
    scn = scenario("full", [8.0, 11.0, 11.0, 6.0])
    state = market.new_state(scn)
    for _ in range(3):
        market.step(state, scn)
    failing_solve(monkeypatch, lambda p: p.node == 2)
    with pytest.raises(RuntimeError,
                       match="local solve failed at node 2, round 3: no root"):
        market.step(state, scn)
    # one agent over its own transport
    failing_solve(monkeypatch, lambda p: True)
    scn = scenario("full", [4.0])
    with pytest.raises(RuntimeError,
                       match="local solve failed at node 0, round 0: no root"):
        run_agent(scn, 0, 5, LoopbackTransport(1))


def test_agent_price_floor_at_zero():
    scn = scenario("line", [2.0, 10.0], alpha0=1.0)
    agent = TradingAgent(0, scn)
    # selling with no takers drives the price down, but never below zero
    agent.solution = solve_local(LocalProblem(
        node=0, demand=2.0, gen_cost=GEN, transfer_cost=TR,
        seller_prices={1: 80.0}, own_price=70.0))
    assert agent.solution.e_sell > 1.0
    agent.received_bids = {1: 0.0}
    agent.price = 0.5
    agent.update_price()
    assert agent.price == 0.0


def count_solves(monkeypatch):
    calls = []
    solve = market.solve_local

    def counting(p):
        calls.append(p)
        return solve(p)

    monkeypatch.setattr(market, "solve_local", counting)
    return calls


def test_agent_solves_once_per_distinct_prices(monkeypatch):
    calls = count_solves(monkeypatch)
    agent = TradingAgent(1, scenario("line", [2.0, 6.0, 10.0]))  # buys from 0, 2

    def solve_at(own, p0, p2):
        agent.price = own
        agent.seller_prices = {0: p0, 2: p2}
        return agent.solve()

    first = solve_at(60.0, 58.0, 62.0)
    assert solve_at(60.0, 58.0, 62.0) is first
    assert len(calls) == 1
    # one ulp on any one price is a new subproblem
    up = lambda x: math.nextafter(x, math.inf)
    for prices in [(up(60.0), 58.0, 62.0), (60.0, up(58.0), 62.0),
                   (60.0, 58.0, up(62.0))]:
        n = len(calls)
        solve_at(*prices)
        solve_at(*prices)
        assert len(calls) == n + 1, prices
        assert agent.problem.own_price == prices[0]
        assert agent.problem.seller_prices == {0: prices[1], 2: prices[2]}
    # only the last solve is remembered
    solve_at(60.0, 58.0, 62.0)
    assert len(calls) == 5


def trace_digest(trace) -> str:
    # The last bids are hashed as `final_bids`, whose floats print exactly;
    # the stored array's repr would round them.
    h = hashlib.sha256()
    recorded = dict(vars(trace), _bids=trace.final_bids)
    for name, value in sorted(recorded.items()):
        h.update(repr((name, value)).encode())
    return h.hexdigest()


def test_memo_leaves_tcp_line_trace_unchanged(monkeypatch):
    # The two-node line the TCP benchmark runs: its prices stop moving
    # after a few dozen rounds, so most rounds reuse the last solution.
    scn = scenario("line", [2.0, 11.0])
    calls = count_solves(monkeypatch)
    memo = run(scn, rounds=2000)
    assert len(calls) < 200
    solve = TradingAgent.solve

    def without_memo(self):
        self._solved_at = None
        return solve(self)

    monkeypatch.setattr(TradingAgent, "solve", without_memo)
    calls.clear()
    fresh = run(scn, rounds=2000)
    assert len(calls) == 2 * 2000
    assert trace_digest(fresh) == trace_digest(memo)


def stiff_markets():
    """Ten of the seeded markets (seed 7: 2-6 nodes, demands U(0.5, 13)
    MWh, topology cycling full/ring/line) that the diminishing step
    alpha0 / (1 + k/1000) left unconverged at 20,000 rounds. Demands past
    the soft cap near 11 MWh make their duals stiff."""
    rng = np.random.default_rng(7)
    kinds = ("full", "ring", "line")
    out = []
    for i in range(60):
        m = int(rng.integers(2, 7))
        demands = tuple(float(x) for x in rng.uniform(0.5, 13.0, size=m))
        if i in (3, 11, 14, 17, 21, 24, 28, 29, 31, 34):
            out.append(scenario(kinds[i % 3], demands))
    return out


def test_stiff_markets_clear():
    for scn in stiff_markets():
        label = f"{scn.topology.m} nodes, demands {scn.demands}"
        trace = run(scn)
        assert trace.converged, label
        for k in range(trace.rounds()):
            assert trace.duals[k] <= trace.primals[k] + 1e-9, (label, k)
        lam = trace.final_prices
        for i in range(scn.topology.m):
            p = local_problem(scn, i, lam)
            cost = net_expenditure(p, solve_local(p))
            standalone = GEN.value(scn.demands[i]) + TR.value(0.0)
            assert cost <= standalone + 1e-6, (label, i)
