import ast
import math
from pathlib import Path

import numpy as np
import pytest

from gridclear import oracle, topology
from gridclear.cost_models import (DEFAULT_GENERATION_COST,
                                   DEFAULT_TRANSFER_COST, SoftCappedQuadratic)
from gridclear.local_solver import LocalProblem, net_expenditure, solve_local
from gridclear.market import Scenario
from gridclear.oracle import (local_gradient, local_objective,
                              solve_global_numeric, solve_local_numeric)

GEN = DEFAULT_GENERATION_COST
TR = DEFAULT_TRANSFER_COST


def scenario(kind, demands):
    m = len(demands)
    return Scenario(topology=topology.build(kind, m), demands=tuple(demands),
                    gen_costs=(GEN,) * m, transfer_cost=TR)


def local(demand, own_price, seller_prices=None):
    return LocalProblem(node=0, demand=demand, gen_cost=GEN, transfer_cost=TR,
                        seller_prices=seller_prices or {}, own_price=own_price)


def test_single_node_cost_is_standalone_generation():
    g = solve_global_numeric(scenario("full", [5.0]))
    assert g.total_cost == pytest.approx(377.4152000149002, rel=1e-12)
    assert g.generations[0] == 5.0
    assert g.trades.shape == (1, 1) and g.trades[0][0] == 0.0


def test_symmetric_pair_never_trades():
    g = solve_global_numeric(scenario("full", [5.0, 5.0]))
    assert g.total_cost == pytest.approx(2 * 377.4152000149002, rel=1e-12)
    assert np.all(g.trades == 0.0)


def test_unbalanced_pair_frozen_solution():
    # cheap node 0 (demand 2) exports to expensive node 1 (demand 10)
    g = solve_global_numeric(scenario("line", [2.0, 10.0]))
    assert g.total_cost == pytest.approx(883.8153485134, rel=1e-9)
    assert g.trades[0][1] == pytest.approx(1.2211911076192956, abs=1e-6)
    assert g.trades[1][0] <= 1e-9
    assert g.generations[0] == pytest.approx(3.221191107619296, abs=1e-6)
    assert g.generations[1] == pytest.approx(8.778808892380704, abs=1e-6)
    # trading must beat the no-trade operating point
    assert g.total_cost < GEN.value(2.0) + GEN.value(10.0)


def test_global_balances_energy():
    g = solve_global_numeric(scenario("ring", [3.0, 9.0, 6.0]))
    demands = np.array([3.0, 9.0, 6.0])
    sold = g.trades.sum(axis=1)
    bought = g.trades.sum(axis=0)
    assert np.allclose(g.generations, demands + sold - bought, atol=1e-12)
    assert np.all(g.generations >= 0.0)
    assert np.all(g.trades >= 0.0)


def test_global_respects_missing_edges():
    g = solve_global_numeric(scenario("line", [2.0, 6.0, 10.0]))
    assert g.trades[0][2] == 0.0
    assert g.trades[2][0] == 0.0


def test_stiff_market_keeps_generation_nonnegative():
    # both nodes sit past the soft cap: the cost is so steep that an
    # unguarded gradient step overshoots into negative generation
    g = solve_global_numeric(scenario("line", [12.0, 13.0]))
    assert np.all(g.generations >= 0.0)
    assert np.allclose(g.generations,
                       [12.0, 13.0] + g.trades.sum(axis=1) - g.trades.sum(axis=0),
                       atol=1e-12)
    assert g.total_cost < GEN.value(12.0) + GEN.value(13.0)
    assert (GEN.marginal(g.generations[0]) + TR.marginal(g.trades[0][1])
            == pytest.approx(GEN.marginal(g.generations[1]), rel=1e-6))


def test_global_fails_fast_when_optimal_generation_is_zero():
    # node 0's generator is dear enough that it should buy all its demand
    dear = SoftCappedQuadratic(a=86.3852, b=100.0, c=0.3284, e_max=10.0)
    scn = Scenario(topology=topology.build("full", 2), demands=(1.0, 5.0),
                   gen_costs=(dear, GEN), transfer_cost=TR)
    with pytest.raises(RuntimeError):
        solve_global_numeric(scn)


def test_global_size_guard():
    with pytest.raises(ValueError):
        solve_global_numeric(scenario("full", [5.0] * 7))


def test_local_objective_matches_net_expenditure():
    p = local(1.0, 50.0, {1: 30.0, 2: 48.0})
    s = solve_local(p)
    buys = np.array([s.e_buy[1], s.e_buy[2]])
    assert local_objective(p, s.e_sell, buys) == pytest.approx(
        net_expenditure(p, s), rel=1e-12)


def test_local_objective_infeasible_is_infinite():
    p = local(1.0, 50.0, {1: 30.0})
    assert local_objective(p, 4.0, np.array([5.0])) < math.inf  # resold, balanced
    assert local_objective(p, 0.0, np.array([5.0])) == math.inf  # negative generation
    assert local_objective(p, -0.1, np.array([0.0])) == math.inf
    assert local_objective(p, 0.0, np.array([-0.1])) == math.inf


def test_local_gradient_matches_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-6
    inputs = [(local(5.0, 60.0), 1.0, np.zeros(0))]   # no sellers: sale only
    while len(inputs) < 51:
        p = local(float(rng.uniform(1.0, 8.0)), float(rng.uniform(40.0, 80.0)),
                  {1: float(rng.uniform(40.0, 80.0)),
                   2: float(rng.uniform(40.0, 80.0))})
        sell = float(rng.uniform(0.1, 2.0))
        buys = rng.uniform(0.1, 1.5, size=2)
        if p.demand + sell - float(buys.sum()) > 0.2:
            inputs.append((p, sell, buys))
    for p, sell, buys in inputs:
        ds, db = local_gradient(p, sell, buys)
        fd = (local_objective(p, sell + h, buys)
              - local_objective(p, sell - h, buys)) / (2 * h)
        assert ds == pytest.approx(fd, abs=1e-4)
        for k in range(len(buys)):
            up, down = buys.copy(), buys.copy()
            up[k] += h
            down[k] -= h
            fd = (local_objective(p, sell, up)
                  - local_objective(p, sell, down)) / (2 * h)
            assert db[k] == pytest.approx(fd, abs=1e-4)


def test_local_numeric_matches_closed_form():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(0, 4))
        sellers = {j + 1: float(rng.uniform(40.0, 80.0)) for j in range(n)}
        demand = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 11.0))
        p = local(demand, float(rng.uniform(40.0, 80.0)), sellers)
        closed = net_expenditure(p, solve_local(p))
        numeric = solve_local_numeric(p)
        assert numeric.objective == pytest.approx(closed, rel=1e-6, abs=1e-6)
        assert numeric.e_sell >= 0.0
        assert all(v >= 0.0 for v in numeric.e_buy.values())
        assert set(numeric.e_buy) == set(p.seller_prices)


def test_local_numeric_prefers_cheap_seller():
    # tiny demand, one seller below the node's own price and one above it:
    # the optimizer must route through the cheap one even though the
    # expensive one also improves on generating
    p = local(0.55, 50.2, {1: 54.1, 2: 49.9})
    closed = net_expenditure(p, solve_local(p))
    numeric = solve_local_numeric(p)
    assert numeric.objective == pytest.approx(closed, rel=1e-9, abs=1e-9)


def test_local_numeric_past_the_soft_cap():
    # demands past e_max, where the cap makes the derivative along a line
    # steepest and the line search has the most to do
    rng = np.random.default_rng(27)
    worst = 0.0
    for k in range(300):
        sellers = {j + 1: float(rng.uniform(40.0, 80.0)) for j in range(k % 4)}
        p = local(float(rng.uniform(10.5, 13.0)),
                  float(rng.uniform(40.0, 80.0)), sellers)
        closed = net_expenditure(p, solve_local(p))
        numeric = solve_local_numeric(p).objective
        worst = max(worst, abs(closed - numeric) / max(1.0, abs(numeric)))
    assert worst <= 1e-6, f"worst objective disagreement {worst:.3e}"


def test_local_numeric_refuses_a_box_limited_optimum():
    # at own price 900 the node buys 16.92 MWh and sells 21.70 (objective
    # -12961.757679990324); the search box stops the purchase at 15
    p = local(6.0, 900.0, {1: 40.0})
    assert net_expenditure(p, solve_local(p)) == pytest.approx(
        -12961.757679990324, rel=1e-12)
    with pytest.raises(ValueError, match="seller 1 at BUY_BOX"):
        solve_local_numeric(p)


def test_oracle_shares_no_code_with_the_closed_form():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 node.module.startswith("gridclear")):
            module = (node.module or "").removeprefix("gridclear.")
            imported |= {(module, a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.name, None) for a in node.names
                         if a.name.startswith("gridclear")}
    assert imported == {("local_solver", "LocalProblem")}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"bracketed_root", "solve_local", "inverse_marginal"}
