import numpy as np
import pytest

from gridclear import topology
from gridclear.cost_models import (DEFAULT_GENERATION_COST,
                                   DEFAULT_TRANSFER_COST)
from gridclear.local_solver import LocalProblem, solve_local
from gridclear.market import (Scenario, StepSchedule, TradingAgent,
                              dual_value, feasibilize_and_cost, local_problem,
                              run, run_agent)
from gridclear.transport import LoopbackTransport, ProtocolError

GEN = DEFAULT_GENERATION_COST
TR = DEFAULT_TRANSFER_COST


def scenario(kind, demands, **kw):
    m = len(demands)
    return Scenario(topology=topology.build(kind, m), demands=tuple(demands),
                    gen_costs=(GEN,) * m, transfer_cost=TR, **kw)


def test_step_schedule_decays():
    s = StepSchedule(alpha0=0.5, kappa=1000.0)
    assert s.alpha(0) == 0.5
    assert s.alpha(1000) == 0.25
    assert s.alpha(3000) == 0.125
    with pytest.raises(ValueError):
        s.alpha(-1)
    with pytest.raises(ValueError):
        StepSchedule(alpha0=0.0)
    with pytest.raises(ValueError):
        StepSchedule(kappa=-5.0)


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
    alpha0 = scn.step.alpha(0)
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
                         seller_prices={j: lam[j]
                                        for j in sorted(topology.in_sellers(top, i))},
                         own_price=lam[i])
        solutions.append(solve_local(p))
    for i in range(3):
        requested = 0.0
        for j in sorted(topology.out_buyers(top, i)):
            requested += solutions[j].e_buy.get(i, 0.0)
        assert requested - solutions[i].e_sell == trace.subgradients[0][i]


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
    scn = scenario("line", [2.0, 10.0])
    agent = TradingAgent(0, scn)
    with pytest.raises(ProtocolError):
        agent.take_prices({})
    with pytest.raises(RuntimeError):
        agent.bid_messages(0)


def test_agent_price_floor_at_zero():
    scn = scenario("line", [2.0, 10.0])
    agent = TradingAgent(0, scn)
    # selling with no takers drives the price down, but never below zero
    agent.solution = solve_local(LocalProblem(
        node=0, demand=2.0, gen_cost=GEN, transfer_cost=TR,
        seller_prices={1: 80.0}, own_price=70.0))
    assert agent.solution.e_sell > 1.0
    agent.received_bids = {1: 0.0}
    agent.price = 0.5
    agent.update_price(alpha=1.0)
    assert agent.price == 0.0
