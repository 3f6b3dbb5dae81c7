import math

import numpy as np
import pytest

from gridclear.cost_models import (DEFAULT_GENERATION_COST,
                                   DEFAULT_TRANSFER_COST, SoftCappedQuadratic)
from gridclear.local_solver import (CASE_EPS, LocalProblem, LocalSolution,
                                    net_expenditure, solve_local, verify_kkt)

GEN = DEFAULT_GENERATION_COST
TR = DEFAULT_TRANSFER_COST


def problem(demand, own_price, seller_prices=None):
    return LocalProblem(node=0, demand=demand, gen_cost=GEN, transfer_cost=TR,
                        seller_prices=seller_prices or {}, own_price=own_price)


def test_case1_generates_exactly_demand():
    # own price below marginal cost at demand, sellers too expensive to use
    p = problem(5.0, 50.0, {1: 65.0})
    s = solve_local(p)
    assert s.case_id == 1
    assert s.e_gen == 5.0
    assert s.e_sell == 0.0
    assert s.total_bought() == 0.0
    assert verify_kkt(p, s) <= 1e-9


def test_case2_buys_everything():
    p = problem(2.0, 40.0, {1: 30.0})
    s = solve_local(p)
    assert s.case_id == 2
    assert s.e_gen == 0.0
    assert s.e_sell == 0.0
    assert s.total_bought() == pytest.approx(2.0, abs=1e-12)
    # demand 2 from one seller: transfer marginal 1 + 3*4 = 13, so the
    # internal valuation sits 30 + 13 - 40 = 3 above the node's own price
    assert s.eta == pytest.approx(3.0, abs=1e-9)
    assert {j for j, v in s.e_buy.items() if v > 0.0} == {1}
    assert verify_kkt(p, s) <= 1e-6


def test_case3_generates_and_buys():
    p = problem(5.0, 40.0, {1: 30.0})
    s = solve_local(p)
    assert s.case_id == 3
    assert s.e_gen > 0.1
    assert s.total_bought() > 0.1
    assert s.e_sell == 0.0
    assert s.balance_residual(p.demand) == pytest.approx(0.0, abs=1e-9)
    # generation and delivered purchase cost meet at the internal valuation
    q = p.own_price + s.eta
    assert GEN.marginal(s.e_gen) == pytest.approx(q, abs=1e-6)
    assert TR.marginal(s.e_buy[1]) + 30.0 == pytest.approx(q, abs=1e-6)


def reference_eta(p, generates=True):
    """Premium of regime 3 (or of regime 2, which does not generate) by
    bisecting eta, from the inverse marginals alone."""
    def supply(eta):
        y = p.own_price + eta
        return (GEN.inverse_marginal(y) if generates else 0.0) + sum(
            TR.inverse_marginal(y - lam) for lam in p.seller_prices.values())

    if supply(0.0) >= p.demand:
        return 0.0
    lo, hi = 0.0, 1.0
    while supply(hi) < p.demand:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if supply(mid) < p.demand:
            lo = mid
        else:
            hi = mid


def regime3_edges():
    # premium collapses to zero: supply at the node's own price meets
    # demand, or exceeds it by less than CASE_EPS, too little to sell
    for lam, sellers in [(60.0, {1: 50.0}), (58.0, {1: 45.0, 2: 56.5}),
                         (65.0, {1: 40.0, 2: 55.0, 3: 62.0})]:
        supply = GEN.inverse_marginal(lam) + sum(
            TR.inverse_marginal(lam - v) for v in sellers.values())
        for offset in (-0.5 * CASE_EPS, 0.0, 1e-12, 1e-10, 1e-6):
            yield problem(supply + offset, lam, sellers)
    # generation vanishes: purchases at the first-MWh cost nearly meet
    # demand (when they meet it, the buy-only regime 2 holds)
    cp0 = GEN.marginal(0.0)
    for lam, sellers in [(40.0, {1: 30.0}), (45.0, {1: 35.0, 2: 50.0}),
                         (30.0, {1: 20.0, 2: 25.0})]:
        bought = sum(TR.inverse_marginal(cp0 - v) for v in sellers.values())
        for offset in (2e-9, 1e-8, 1e-6):
            yield problem(bought + offset, lam, sellers)


def regime2_edges():
    cp0 = GEN.marginal(0.0)
    for lam, sellers in [(40.0, {1: 30.0}), (45.0, {1: 35.0, 2: 50.0}),
                         (30.0, {1: 20.0, 2: 25.0, 3: 28.0})]:
        # premium collapses to zero: purchases at the node's own price
        # meet demand
        at_own = sum(TR.inverse_marginal(lam - v) for v in sellers.values())
        # generation about to start: purchases at the first-MWh generation
        # cost meet demand
        at_cp0 = sum(TR.inverse_marginal(cp0 - v) for v in sellers.values())
        for offset in (0.0, 1e-12, 1e-10, 1e-6):
            yield problem(at_own + offset, lam, sellers)
            yield problem(at_cp0 - offset, lam, sellers)


def random_regime_problems(regime, count, seed=8):
    rng = np.random.default_rng(seed)
    found = 0
    while found < count:
        n = int(rng.integers(1, 5))
        sellers = {j + 1: float(rng.uniform(20.0, 75.0)) for j in range(n)}
        p = problem(float(rng.uniform(0.0, 13.0)),
                    float(rng.uniform(20.0, 80.0)), sellers)
        if solve_local(p).case_id == regime:
            found += 1
            yield p


def test_regime2_root_matches_eta_bisection():
    problems = list(regime2_edges()) + list(random_regime_problems(2, 500))
    zero_eta = 0
    for p in problems:
        s = solve_local(p)
        assert s.case_id == 2, p
        assert abs(s.balance_residual(p.demand)) <= 1e-9, p
        q = p.own_price + s.eta
        for j in (j for j, v in s.e_buy.items() if v > 0.0):
            delivered = TR.marginal(s.e_buy[j]) + p.seller_prices[j]
            assert delivered == pytest.approx(q, rel=1e-9), p
        assert abs(s.eta - reference_eta(p, generates=False)) <= 1e-9, p
        zero_eta += s.eta == 0.0
    # on the boundary with the resale regime the premium is exactly zero
    assert zero_eta >= 3


def test_regime3_generation_space_root_matches_eta_bisection():
    problems = list(regime3_edges()) + list(random_regime_problems(3, 2000))
    zero_eta = zero_gen = 0
    for p in problems:
        s = solve_local(p)
        assert s.case_id == 3, p
        q = p.own_price + s.eta
        assert GEN.marginal(s.e_gen) == pytest.approx(q, rel=1e-9), p
        assert abs(s.balance_residual(p.demand)) <= 1e-9, p
        assert abs(s.eta - reference_eta(p)) <= 1e-9, p
        zero_eta += s.eta == 0.0
        zero_gen += s.e_gen <= 1e-8
    # on the boundary itself the premium is exactly zero
    assert zero_eta >= 3 and zero_gen >= 6


def test_regime3_solve_has_no_nested_generation_inverse(monkeypatch):
    # Regime 3 bisects generation directly; the only generation inverse is
    # the supply at the node's own price, used to test for a surplus.
    calls = []
    inverse = SoftCappedQuadratic.inverse_marginal

    def counting(self, y):
        calls.append(y)
        return inverse(self, y)

    monkeypatch.setattr(SoftCappedQuadratic, "inverse_marginal", counting)
    s = solve_local(problem(5.0, 40.0, {1: 30.0, 2: 45.0}))
    assert s.case_id == 3 and s.e_gen > 0.1 and s.eta > 0.0
    assert len(calls) <= 1


def test_regime3_solve_makes_at_most_60_marginal_calls(monkeypatch):
    # The bisections this replaced made about 104 calls a solve: 45 in the
    # generation inverse at the node's own price and 55 in the root.
    problems = list(random_regime_problems(3, 500))
    # node 1 of the two-node line [2, 11] near its converged prices
    problems.append(problem(11.0, 69.75, {0: 69.85}))
    calls = []
    marginal = SoftCappedQuadratic.marginal

    def counting(self, x):
        calls.append(x)
        return marginal(self, x)

    monkeypatch.setattr(SoftCappedQuadratic, "marginal", counting)
    for p in problems:
        calls.clear()
        assert solve_local(p).case_id == 3, p
        assert len(calls) <= 60, (len(calls), p)


def test_case4_generates_surplus_to_sell():
    p = problem(5.0, 70.0, {1: 80.0})
    s = solve_local(p)
    assert s.case_id == 4
    assert s.e_sell > 0.5
    assert s.e_gen == pytest.approx(5.0 + s.e_sell, abs=1e-12)
    assert s.total_bought() == 0.0
    # sells until the marginal generation cost reaches its own price
    assert GEN.marginal(s.e_gen) == pytest.approx(70.0, abs=1e-6)


def test_case5_resells_without_generating():
    p = problem(1.0, 50.0, {1: 30.0})
    s = solve_local(p)
    assert s.case_id == 5
    assert s.e_gen == 0.0
    expected_buy = TR.inverse_marginal(50.0 - 30.0)
    assert s.e_buy[1] == pytest.approx(expected_buy, abs=1e-9)
    assert s.e_sell == pytest.approx(expected_buy - 1.0, abs=1e-9)
    assert verify_kkt(p, s) <= 1e-6


def test_case6_generates_buys_and_sells():
    p = problem(5.0, 70.0, {1: 40.0})
    s = solve_local(p)
    assert s.case_id == 6
    assert s.e_gen > 0.1
    assert s.e_buy[1] == pytest.approx(TR.inverse_marginal(30.0), abs=1e-9)
    assert s.e_sell == pytest.approx(s.e_gen + s.e_buy[1] - 5.0, abs=1e-9)
    assert GEN.marginal(s.e_gen) == pytest.approx(70.0, abs=1e-6)


def test_zero_demand_idle():
    p = problem(0.0, 50.0, {1: 60.0})
    s = solve_local(p)
    assert s.case_id == 1
    assert s.e_gen == s.e_sell == s.total_bought() == 0.0


def test_zero_demand_pure_resale():
    # nothing to consume, but generating and reselling cheap imports pays
    p = problem(0.0, 70.0, {1: 40.0})
    s = solve_local(p)
    assert s.case_id == 6
    assert s.e_sell == pytest.approx(s.e_gen + s.e_buy[1], abs=1e-9)
    assert s.e_sell > 1.0
    assert verify_kkt(p, s) <= 1e-6


def test_only_cheap_sellers_activate():
    p = problem(1.0, 50.0, {1: 30.0, 2: 48.0, 3: 60.0})
    s = solve_local(p)
    assert s.case_id == 5
    assert {j for j, v in s.e_buy.items() if v > 0.0} == {1, 2}
    assert s.e_buy[1] == pytest.approx(TR.inverse_marginal(20.0), abs=1e-9)
    assert s.e_buy[2] == pytest.approx(TR.inverse_marginal(2.0), abs=1e-9)
    assert s.e_buy[3] == 0.0


def test_tiny_demand_bought_whole_from_cheapest_seller():
    # gamma'(demand) = 1 + 3 demand^2 rounds to gamma'(0) below ~1e-8 MWh, so
    # the first purchase is a float jump at the cheapest seller's edge
    for demand in (1e-7, 1e-8, 1e-9, 1e-12, 1e-15):
        p = problem(demand, 10.0, {1: 20.0, 2: 25.0})
        s = solve_local(p)
        assert s.case_id == 2, demand
        assert sum(s.e_buy.values()) == demand
        assert s.e_buy[2] == 0.0
        assert verify_kkt(p, s) <= 1e-9, demand


def test_no_sellers_low_price():
    p = problem(5.0, 50.0)
    s = solve_local(p)
    assert s.case_id == 1
    assert s.e_gen == 5.0


def test_no_sellers_high_price():
    p = problem(5.0, 70.0)
    s = solve_local(p)
    assert s.case_id == 4
    assert s.e_sell > 0.0


def test_net_expenditure_manual():
    p = problem(1.0, 50.0, {1: 30.0})
    s = solve_local(p)
    buy = s.e_buy[1]
    expected = TR.value(buy) + 30.0 * buy - 50.0 * s.e_sell + GEN.value(0.0)
    assert net_expenditure(p, s) == pytest.approx(expected, rel=1e-12)


def test_net_expenditure_rejects_imbalance():
    p = problem(5.0, 50.0, {1: 65.0})
    bad = LocalSolution(0, 1, 4.0, 0.0, {1: 0.0}, 0.0)
    with pytest.raises(ValueError, match="balance"):
        net_expenditure(p, bad)


def test_net_expenditure_accepts_solutions_at_extreme_prices():
    # An unchecked price step once reached ~1e21 $/MWh: the node then trades
    # ~1e11 MWh, and its energy balance carries rounding of a few ulps of that.
    for own_price in (8e21, 3e21):
        p = problem(6.0, own_price, {1: 60.0, 2: 42.0})
        s = solve_local(p)
        assert s.case_id == 6 and s.e_sell > 1e10
        assert math.isfinite(net_expenditure(p, s))
    # at everyday volumes the balance tolerance is still 1e-6 MWh
    p = problem(5.0, 50.0, {1: 65.0})
    off = LocalSolution(0, 1, 5.0 + 2e-6, 0.0, {1: 0.0}, 0.0)
    with pytest.raises(ValueError, match="balance"):
        net_expenditure(p, off)


def test_problem_validation():
    for demand in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="demand"):
            problem(demand, 50.0)
    with pytest.raises(ValueError):
        problem(1.0, float("nan"))
    with pytest.raises(ValueError):
        problem(1.0, 50.0, {1: float("inf")})


def test_random_instances_satisfy_kkt():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(0, 4))
        sellers = {j + 1: float(rng.uniform(40.0, 80.0)) for j in range(n)}
        demand = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 11.0))
        p = problem(demand, float(rng.uniform(40.0, 80.0)), sellers)
        s = solve_local(p)
        assert 1 <= s.case_id <= 6
        assert s.e_gen >= 0.0 and s.e_sell >= 0.0
        assert all(v >= 0.0 for v in s.e_buy.values())
        assert abs(s.balance_residual(p.demand)) <= 1e-9
        assert verify_kkt(p, s) <= 1e-6


def test_price_shift_moves_solution_continuously():
    # nudging the own price by a hair cannot jump the solution
    p_lo = problem(5.0, 59.847, {1: 65.0})
    p_hi = problem(5.0, 59.849, {1: 65.0})
    s_lo, s_hi = solve_local(p_lo), solve_local(p_hi)
    assert abs(s_lo.e_gen - s_hi.e_gen) < 1e-2
    assert abs(s_lo.e_sell - s_hi.e_sell) < 1e-2
