"""End-to-end requirements of the package, checked against independent oracles.

Expected values come from sources that do not share code with the machinery
under test: the projected-gradient global solver, the direction-set local
solver, hand-computed cost-curve constants, and cross-checks between the two
transports. Each test freezes its tolerances; none of them may be loosened
to make a failing build pass.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gridclear import topology
from gridclear.cost_models import (DEFAULT_GENERATION_COST,
                                   DEFAULT_TRANSFER_COST)
from gridclear.local_solver import (LocalProblem, net_expenditure,
                                    solve_local, verify_kkt)
from gridclear.market import Scenario, run
from gridclear.oracle import (local_gradient, local_objective,
                              solve_global_numeric, solve_local_numeric)

GEN = DEFAULT_GENERATION_COST
TR = DEFAULT_TRANSFER_COST

_CACHE = {}


def scenario(kind, demands):
    m = len(demands)
    return Scenario(topology=topology.build(kind, m), demands=tuple(demands),
                    gen_costs=(GEN,) * m, transfer_cost=TR)


def local(demand, own_price, seller_prices=None):
    return LocalProblem(node=0, demand=demand, gen_cost=GEN, transfer_cost=TR,
                        seller_prices=seller_prices or {}, own_price=own_price)


def random_local_instances(count, seed=20260819):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(0, 4))
        sellers = {j + 1: float(rng.uniform(40.0, 80.0)) for j in range(n)}
        demand = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 11.0))
        yield local(demand, float(rng.uniform(40.0, 80.0)), sellers)


def randomized_market_runs():
    """Twenty seeded market instances with their oracle costs, run once."""
    if "randomized" not in _CACHE:
        rng = np.random.default_rng(1105)
        kinds = ("full", "ring", "line")
        runs = []
        for i in range(20):
            m = int(rng.integers(2, 5))
            demands = tuple(float(x) for x in rng.uniform(1.0, 11.0, size=m))
            scn = scenario(kinds[i % 3], demands)
            t0 = time.perf_counter()
            trace = run(scn)
            elapsed = time.perf_counter() - t0
            oracle = solve_global_numeric(scn).total_cost
            runs.append((scn, trace, oracle, elapsed))
        _CACHE["randomized"] = runs
    return _CACHE["randomized"]


def reference_trace():
    """The four-node full-mesh market with demands [8, 11, 11, 6]."""
    if "reference" not in _CACHE:
        _CACHE["reference"] = run(scenario("full", (8.0, 11.0, 11.0, 6.0)))
    return _CACHE["reference"]


def ring_trace():
    if "ring" not in _CACHE:
        _CACHE["ring"] = run(scenario("ring", (11.0, 11.0, 11.0, 1.0)))
    return _CACHE["ring"]


def solutions_at_final_prices(scn, trace):
    lam = trace.final_prices
    out = []
    for i in range(scn.topology.m):
        p = LocalProblem(
            node=i, demand=scn.demands[i], gen_cost=scn.gen_costs[i],
            transfer_cost=scn.transfer_cost,
            seller_prices={j: lam[j] for j in scn.topology.sellers[i]},
            own_price=lam[i])
        out.append((p, solve_local(p)))
    return out


# 1 -- the distributed algorithm lands on the global optimum ------------------

def test_randomized_markets_match_global_oracle():
    for scn, trace, oracle, elapsed in randomized_market_runs():
        label = f"m={scn.topology.m} demands={scn.demands}"
        assert trace.converged, label
        assert elapsed < 60.0, label
        rel = abs(trace.primals[-1] - oracle) / abs(oracle)
        assert rel <= 0.005, f"{label}: primal off by {rel:.3e}"


# 2 -- closed-form local solutions are optimal --------------------------------

def test_closed_form_matches_numeric_oracle_everywhere():
    worst_obj = worst_kkt = 0.0
    for p in random_local_instances(10000):
        s = solve_local(p)
        worst_kkt = max(worst_kkt, verify_kkt(p, s))
        closed = net_expenditure(p, s)
        numeric = solve_local_numeric(p).objective
        worst_obj = max(worst_obj, abs(closed - numeric) / max(1.0, abs(numeric)))
    assert worst_obj <= 1e-6, f"worst objective disagreement {worst_obj:.3e}"
    assert worst_kkt <= 1e-6, f"worst first-order residual {worst_kkt:.3e}"


# 3 -- the six regimes partition price space ----------------------------------

def regime_margins(p):
    """Per regime 1..6, the least slack (lhs - rhs) among its conditions.

    A regime holds iff its margin is >= 0. The conditions compare the
    node's own price lam with its marginal generation cost at zero (cp0)
    and at demand (cp_dem), the cheapest seller's delivered price, and the
    supply of generation plus purchases at an internal price.
    """
    d, lam = p.demand, p.own_price
    cp0, cp_dem, g0 = GEN.marginal(0.0), GEN.marginal(d), TR.marginal(0.0)
    lam_min = min(p.seller_prices.values(), default=math.inf)

    def bought(q):
        return sum(TR.inverse_marginal(q - v)
                   for v in p.seller_prices.values())

    supply = GEN.inverse_marginal(lam) + bought(lam)
    if d > 0.0:
        idle = min(cp_dem - lam, lam_min - (cp_dem - g0))
        buy = min(cp0 - lam, d - supply, bought(cp0) - d)
        gen_buy = min(d - supply, d - bought(cp0), (cp_dem - g0) - lam_min)
    else:
        # nothing to consume: buying pays only for resale
        idle = min(cp0 - lam, lam_min - (lam - g0))
        buy = gen_buy = -math.inf
    gen_sell = min(lam - cp_dem, lam_min - (lam - g0))
    buy_sell = min(cp0 - lam, (lam - g0) - lam_min, bought(lam) - d)
    all_three = min(lam - cp0, (lam - g0) - lam_min, supply - d)
    return (idle, buy, gen_buy, gen_sell, buy_sell, all_three)


def test_exactly_one_regime_fires():
    for p in random_local_instances(10000):
        margins = regime_margins(p)
        fired = [r for r, m in enumerate(margins, start=1) if m >= -1e-9]
        assert len(fired) == 1, f"{fired} regimes fire for {p}: {margins}"
        assert solve_local(p).case_id == fired[0], p


def test_regime_boundaries_agree():
    # crossing a regime boundary must not jump the solution
    cp_dem = GEN.marginal(5.0)
    cp0 = GEN.marginal(0.0)
    nudges = [
        # (below, above, expected case pair)
        (local(5.0, cp_dem - 1e-6, {1: 100.0}),
         local(5.0, cp_dem + 1e-6, {1: 100.0}), (1, 4)),
        (local(5.0, 50.0, {1: cp_dem - 1.0 + 1e-6}),
         local(5.0, 50.0, {1: cp_dem - 1.0 - 1e-6}), (1, 3)),
        (local(1.0, cp0 - 1e-6, {1: 30.0}),
         local(1.0, cp0 + 1e-6, {1: 30.0}), (5, 6)),
    ]
    for p_lo, p_hi, pair in nudges:
        s_lo, s_hi = solve_local(p_lo), solve_local(p_hi)
        assert (s_lo.case_id, s_hi.case_id) == pair
        assert abs(s_lo.e_gen - s_hi.e_gen) <= 1e-5
        assert abs(s_lo.e_sell - s_hi.e_sell) <= 1e-5
        assert abs(s_lo.total_bought() - s_hi.total_bought()) <= 1e-5

    # at an exact boundary point, both adjacent regimes' formulas coincide:
    # generating-and-selling vs also importing at zero headroom
    lam, lam_j = 70.0, 70.0 - TR.marginal(0.0)
    gen = GEN.inverse_marginal(lam)
    buy = TR.inverse_marginal(lam - lam_j)
    assert buy == 0.0
    s = solve_local(local(5.0, lam, {1: lam_j}))
    assert s.case_id in (4, 6)
    assert s.e_gen == pytest.approx(gen, abs=1e-9)
    assert s.e_sell == pytest.approx(gen + buy - 5.0, abs=1e-9)

    # buying-everything vs buying-and-generating, at the demand where the
    # purchase capacity at the first-unit generation cost is exactly spent
    demand = TR.inverse_marginal(cp0 - 30.0)
    s2 = solve_local(local(demand - 1e-11, 40.0, {1: 30.0}))
    s3 = solve_local(local(demand + 1e-11, 40.0, {1: 30.0}))
    assert (s2.case_id, s3.case_id) == (2, 3)
    assert abs(s2.eta - s3.eta) <= 1e-9
    assert GEN.inverse_marginal(40.0 + s3.eta) <= 1e-9
    p = local(demand, 40.0, {1: 30.0})
    s = solve_local(p)
    assert s.case_id in (2, 3)
    assert s.total_bought() == pytest.approx(demand, abs=1e-9)


# 4 -- the reference market converges with the documented price order ---------

def test_reference_market_converges_with_price_ordering():
    trace = reference_trace()
    assert trace.converged
    assert trace.rounds() <= 20000
    rel_gap = trace.gaps[-1] / max(1e-12, abs(trace.primals[-1]))
    assert rel_gap <= 1e-3
    assert max(abs(x) for x in trace.subgradients[-1]) <= 1e-3
    lam = trace.final_prices
    # the node with the smallest demand sells cheapest, the ones with the
    # largest demand charge the most, and the two equal-demand nodes match
    assert lam[3] < lam[0] < lam[1]
    assert abs(lam[1] - lam[2]) <= 1e-3


# 5 -- equal demands leave nothing to trade -----------------------------------

def test_equal_demands_produce_no_trades():
    trace = run(scenario("full", (11.0, 11.0, 11.0, 11.0)))
    assert trace.converged
    worst = max(max(row) for row in trace.final_bids)
    assert worst <= 1e-3, f"symmetric market trades {worst} MWh"


# 6 -- trading never loses money against standalone operation -----------------

def test_trading_never_costs_more_than_standalone():
    checked = [(scenario("full", (8.0, 11.0, 11.0, 6.0)), reference_trace())]
    checked += [(scn, trace) for scn, trace, _, _ in randomized_market_runs()]
    for scn, trace in checked:
        assert trace.converged
        for i, (p, s) in enumerate(solutions_at_final_prices(scn, trace)):
            cost = net_expenditure(p, s)
            standalone = scn.gen_costs[i].value(scn.demands[i]) + TR.value(0.0)
            assert cost <= standalone + 1e-6, (
                f"node {i} of demands={scn.demands}: trading {cost:.6f} "
                f"vs standalone {standalone:.6f}")


# 7 -- a ring squeezes energy through middlemen -------------------------------

def test_ring_market_has_intermediary():
    trace = ring_trace()
    assert trace.converged
    scn = scenario("ring", (11.0, 11.0, 11.0, 1.0))
    middlemen = []
    for i, (p, s) in enumerate(solutions_at_final_prices(scn, trace)):
        if i in (1, 2) and s.case_id == 6:
            if s.e_sell > 0.01 and s.total_bought() > 0.01:
                middlemen.append(i)
    # the cheap node sits two hops from node 1, so at least one of the
    # nodes between them must buy and resell
    assert middlemen, f"no intermediary; cases {trace.final_cases}"


# 8 -- sellers price at their marginal generation cost ------------------------

def test_sellers_price_at_marginal_generation_cost():
    checked = [(scenario("full", (8.0, 11.0, 11.0, 6.0)), reference_trace()),
               (scenario("ring", (11.0, 11.0, 11.0, 1.0)), ring_trace())]
    checked += [(scn, trace) for scn, trace, _, _ in randomized_market_runs()]
    sellers_seen = 0
    for scn, trace in checked:
        lam = trace.final_prices
        for i, (p, s) in enumerate(solutions_at_final_prices(scn, trace)):
            if s.case_id in (4, 6):
                sellers_seen += 1
                assert abs(lam[i] - GEN.marginal(s.e_gen)) <= 1e-3 * lam[i], (
                    f"node {i} of demands={scn.demands}: price {lam[i]:.6f} "
                    f"vs marginal cost {GEN.marginal(s.e_gen):.6f}")
    assert sellers_seen > 0


# 9 -- numerical identities the machinery rests on ----------------------------

def test_inverse_marginal_roundtrips():
    rng = np.random.default_rng(9)
    for _ in range(500):
        y = GEN.marginal(float(rng.uniform(0.0, 11.5)))
        back = GEN.marginal(GEN.inverse_marginal(y))
        assert abs(back - y) <= 1e-6 * max(1.0, abs(y))
        y = float(rng.uniform(1.0 + 1e-9, 400.0))
        back = TR.marginal(TR.inverse_marginal(y))
        assert abs(back - y) <= 1e-6 * max(1.0, abs(y))


def test_analytic_gradients_match_central_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 4))
        p = local(float(rng.uniform(0.5, 10.0)), float(rng.uniform(40.0, 80.0)),
                  {j + 1: float(rng.uniform(40.0, 80.0)) for j in range(n)})
        sell = float(rng.uniform(0.1, 3.0))
        buys = rng.uniform(0.1, 2.0, size=n)
        if p.demand + sell - float(buys.sum()) <= 0.2:
            continue
        checked += 1
        ds, db = local_gradient(p, sell, buys)
        fd = (local_objective(p, sell + h, buys)
              - local_objective(p, sell - h, buys)) / (2 * h)
        assert abs(ds - fd) <= 1e-5 * max(1.0, abs(ds))
        for k in range(n):
            up, down = buys.copy(), buys.copy()
            up[k] += h
            down[k] -= h
            fd = (local_objective(p, sell, up)
                  - local_objective(p, sell, down)) / (2 * h)
            assert abs(db[k] - fd) <= 1e-5 * max(1.0, abs(db[k]))


def test_weak_duality_and_monotone_best_dual():
    trace = reference_trace()
    for k in range(trace.rounds()):
        assert trace.duals[k] <= trace.primals[k] + 1e-9, f"round {k}"
        if k:
            assert trace.best_duals[k] >= trace.best_duals[k - 1], f"round {k}"


# 10 -- socket mesh and loopback produce the same numbers ---------------------

def test_socket_and_loopback_runs_agree(tmp_path):
    import socket as socketlib
    rounds = 300
    socks = [socketlib.socket() for _ in range(4)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    doc = {
        "demands": [8, 11, 11, 6],
        "rounds": rounds,
        "agents": [{"id": i, "addr": f"127.0.0.1:{p}"}
                   for i, p in enumerate(ports)],
    }
    cfg = tmp_path / "mesh.json"
    cfg.write_text(json.dumps(doc))
    procs = [subprocess.Popen(
        [sys.executable, "-m", "gridclear.cli_harness", "agent",
         "--config", str(cfg), "--id", str(i), "--out", str(tmp_path)])
        for i in range(4)]
    try:
        for p in procs:
            assert p.wait(timeout=120) == 0
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
    socket_prices = [
        json.loads((tmp_path / f"agent_{i}.json").read_text())["price_history"][-1]
        for i in range(4)]

    trace = run(scenario("full", (8.0, 11.0, 11.0, 6.0)), rounds=rounds)
    diffs = [abs(a - b) for a, b in zip(socket_prices, trace.final_prices)]
    assert max(diffs) <= 1e-9, f"transports disagree by {max(diffs):.3e}"


# 11 -- adding links never raises the cost ------------------------------------

def test_more_links_never_cost_more():
    # The paper's topology result as an exact certificate. A line's links
    # are a subset of a ring's, and a ring's of a full mesh's, so the
    # optimal cost can only fall as links are added. Weak duality certifies
    # each step from numbers the traces hold, at whatever prices they
    # stopped: best dual (full) <= primal (ring), best dual (ring) <= primal
    # (line), and best dual (line) <= the islanded cost sum_i C_i(d_i).
    # Thirty markets of 4-6 nodes with demands U(1, 11) MWh; README's
    # "Results by topology" table comes from the same population.
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = int(rng.integers(4, 7))
        demands = tuple(float(x) for x in rng.uniform(1.0, 11.0, size=m))
        trace = {kind: run(Scenario(topology=topology.build(kind, m),
                                    demands=demands, gen_costs=(GEN,) * m,
                                    transfer_cost=TR, max_iters=5000))
                 for kind in ("full", "ring", "line")}
        islanded = sum(GEN.value(d) for d in demands)
        for lower, upper, label in (
                (trace["full"].best_duals[-1], trace["ring"].primals[-1],
                 "full vs ring"),
                (trace["ring"].best_duals[-1], trace["line"].primals[-1],
                 "ring vs line"),
                (trace["line"].best_duals[-1], islanded, "line vs islanded")):
            assert lower <= upper + 1e-9 * abs(upper), (label, demands)
