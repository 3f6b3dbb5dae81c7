"""Closed-form solution of one microgrid's trading subproblem.

Given its own selling price and the prices of connected sellers, a node
chooses how much to generate, buy and offer for sale to minimize

    C(e_gen) + sum_j gamma(e_buy[j]) + sum_j price_j * e_buy[j]
             - own_price * e_sell

subject to the internal energy balance

    e_gen = demand + e_sell - sum_j e_buy[j],   all quantities >= 0.

The optimum falls into exactly one of six regimes, distinguished by which
of (sell, buy, generate) are active:

    1  neither sells nor buys (generates exactly its demand)
    2  buys only
    3  generates and buys
    4  generates and sells
    5  buys and sells (generates nothing)
    6  generates, buys and sells

Each regime has a closed-form solution built from the inverse marginal
costs; regimes 2 and 3 need a scalar root for eta, the premium of the
node's internal energy value over its own price. Both roots are found on
fixed brackets by `bracketed_root` (safeguarded regula falsi). Regime 2
solves for eta on [0, lam_min + gamma'(demand) - own_price], where lam_min
is the cheapest seller's price. Regime 3 solves for the generation g on
[0, demand] in g + purchases(C'(g)) = demand, one marginal-cost evaluation
per step, and reads eta off C'(g).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cost_models import CostModel, bracketed_root

__all__ = [
    "LocalProblem",
    "LocalSolution",
    "CaseClassificationError",
    "classify",
    "solve_local",
    "solve_eta",
    "net_expenditure",
    "verify_kkt",
]

# Tolerance on every inequality in the case conditions. Boundaries between
# regimes are measure-zero and the solutions coincide there, so this only
# disambiguates ties.
CASE_EPS = 1e-9

# Energies below this are treated as inactive when checking multipliers.
ACTIVE_ATOL = 1e-9

# MWh of negative energy or imbalance a feasible solution may show.
FEASIBLE_ATOL = 1e-6


class CaseClassificationError(RuntimeError):
    """No regime's conditions hold, even with boundary tolerance."""


@dataclass(frozen=True)
class LocalProblem:
    """One node's view of the market for a single round."""

    node: int
    demand: float                 # MWh it must consume this round
    gen_cost: CostModel
    transfer_cost: CostModel
    seller_prices: dict           # node -> $/MWh, connected sellers only
    own_price: float              # $/MWh this node charges buyers

    def __post_init__(self):
        if not (math.isfinite(self.demand) and self.demand >= 0):
            raise ValueError(f"demand must be finite and >= 0, got {self.demand}")
        if not math.isfinite(self.own_price):
            raise ValueError(f"own price must be finite, got {self.own_price}")
        for j, lam in self.seller_prices.items():
            if not math.isfinite(lam):
                raise ValueError(f"seller {j} price must be finite, got {lam}")


@dataclass(frozen=True)
class LocalSolution:
    node: int
    case_id: int                  # 1..6
    e_gen: float                  # MWh generated
    e_sell: float                 # MWh offered for sale
    e_buy: dict                   # seller node -> MWh bought
    active_sellers: frozenset
    eta: float                    # $/MWh internal-price premium, 0 when unused

    def total_bought(self) -> float:
        return sum(self.e_buy.values())

    def balance_residual(self, demand: float) -> float:
        return self.e_gen - (demand + self.e_sell - self.total_bought())


class _Quantities:
    """Derived prices and clamped inverse marginals shared by the regimes."""

    def __init__(self, p: LocalProblem):
        self.p = p
        gen, tr = p.gen_cost, p.transfer_cost
        self.transfer = tr
        self.cp0 = gen.marginal(0.0)            # marginal cost of the first MWh
        self.cp_dem = gen.marginal(p.demand)    # marginal cost at own demand
        self.g0 = tr.marginal(0.0)              # marginal transfer cost at zero
        self.lam = p.own_price
        self.sellers = sorted(p.seller_prices)
        self.prices = p.seller_prices
        self.lam_min = min(p.seller_prices.values()) if p.seller_prices else math.inf
        # Supply available if the node prices energy internally at lam
        # (generation is clamped to 0 below cp0).
        self.own_gen = gen.inverse_marginal(self.lam)
        self.buy_at_own = self.total_buy_at(self.lam)
        # Purchases if the internal price sat exactly at the first-MWh
        # generation cost (the buy-only / buy-and-generate threshold).
        self.buy_at_cp0 = self.total_buy_at(self.cp0)

    def buy_at(self, q: float) -> dict:
        # Each seller supplies the quantity whose marginal transfer cost
        # matches the price headroom q - lam_j (zero when q is below the
        # delivered price of the first MWh).
        return {
            j: self.transfer.inverse_marginal(q - self.prices[j])
            for j in self.sellers
        }

    def total_buy_at(self, q: float) -> float:
        inverse, prices = self.transfer.inverse_marginal, self.prices
        return sum(inverse(q - prices[j]) for j in self.sellers)

    def buy_at_premium(self, eta: float) -> float:
        """Purchases at internal price own_price + eta, MWh."""
        return self.total_buy_at(self.lam + eta)

    def supply_at_gen(self, g: float) -> float:
        """Generating g and buying at internal price C'(g), MWh."""
        return g + self.total_buy_at(self.p.gen_cost.marginal(g))


def _margins(q: _Quantities):
    """Per-regime margin = min over the regime's conditions of (lhs - rhs).

    A regime's conditions all hold iff its margin >= 0; the six regions
    partition price space, sharing only their boundaries.
    """
    e_c = q.p.demand
    lam, cp0, cp_dem, g0, lam_min = q.lam, q.cp0, q.cp_dem, q.g0, q.lam_min
    supply_own = q.own_gen + q.buy_at_own       # energy available at price lam

    if e_c > 0.0:
        m1 = min(cp_dem - lam, lam_min - (cp_dem - g0))
        m2 = min(cp0 - lam, e_c - supply_own, q.buy_at_cp0 - e_c)
        m3 = min(e_c - supply_own, e_c - q.buy_at_cp0, (cp_dem - g0) - lam_min)
    else:
        # With nothing to consume, buying only ever pays if it can be resold,
        # so the buy-to-consume regimes vanish and regime 1 widens.
        m1 = min(cp0 - lam, lam_min - (lam - g0))
        m2 = -math.inf
        m3 = -math.inf
    m4 = min(lam - cp_dem, lam_min - (lam - g0))
    m5 = min(cp0 - lam, (lam - g0) - lam_min, q.buy_at_own - e_c)
    m6 = min(lam - cp0, (lam - g0) - lam_min, supply_own - e_c)
    return (m1, m2, m3, m4, m5, m6)


def _classify(q: _Quantities):
    margins = _margins(q)
    for case_id, margin in enumerate(margins, start=1):
        if margin >= -CASE_EPS:
            if case_id in (2, 3):
                solve = _solve_eta if case_id == 2 else _solve_gen
                eta, active = solve(q)
                return case_id, active, eta
            if case_id in (5, 6):
                active = frozenset(
                    j for j in q.sellers if q.prices[j] < q.lam - q.g0
                )
                return case_id, active, 0.0
            return case_id, frozenset(), 0.0
    p = q.p
    raise CaseClassificationError(
        f"node {p.node}: no regime matched. own_price={p.own_price}, "
        f"demand={p.demand}, seller_prices={p.seller_prices}, "
        f"margins={margins}"
    )


def classify(p: LocalProblem):
    """Return (case_id, active_sellers, eta) for the regime that holds at p.

    Regimes are checked in order 1..6 with CASE_EPS slack; the first whose
    conditions all hold wins (ties only happen on region boundaries, where
    the solutions coincide).
    """
    return _classify(_Quantities(p))


def _solve_eta(q: _Quantities):
    """Regime 2: the premium at which purchases alone cover demand.

    Purchases rise with eta, so the root lies in [0, lam_min +
    gamma'(demand) - own_price]: at the top end the cheapest seller alone
    covers demand.
    """
    e_c = q.p.demand
    if q.buy_at_own >= e_c:
        # Boundary with the sell regimes: purchases already meet demand at
        # the node's own price, so the premium collapses to zero.
        return 0.0, _active_at(q, 0.0)
    if not q.sellers:
        raise CaseClassificationError(
            f"node {q.p.node}: no sellers, regime 2 cannot cover demand {e_c}")
    hi = q.lam_min + q.transfer.marginal(e_c) - q.lam
    eta = bracketed_root(q.buy_at_premium, e_c, 0.0, hi, q.buy_at_own - e_c,
                         q.buy_at_premium(hi) - e_c)
    return eta, _active_at(q, eta)


def _solve_gen(q: _Quantities):
    """Regime 3: the premium at which generation plus purchases cover demand.

    Generation g and internal price C'(g) move together, so solve
    g + purchases(C'(g)) = demand for g in [0, demand]: the left side rises
    with g, is below demand at g = 0 (otherwise purchases alone cover
    demand, which is regime 2's root) and at least demand at g = demand.
    """
    e_c = q.p.demand
    if q.own_gen + q.buy_at_own >= e_c:
        # Boundary with the sell regimes: supply already meets demand at the
        # node's own price, so the premium collapses to zero.
        return 0.0, _active_at(q, 0.0)
    if q.buy_at_cp0 >= e_c:
        return _solve_eta(q)
    g = bracketed_root(q.supply_at_gen, e_c, 0.0, e_c, q.buy_at_cp0 - e_c,
                       (e_c + q.total_buy_at(q.cp_dem)) - e_c)
    # Supply at own_price falls short of demand, so C'(g) >= own_price up
    # to rounding.
    eta = max(0.0, q.p.gen_cost.marginal(g) - q.lam)
    return eta, _active_at(q, eta)


def _active_at(q: _Quantities, eta: float) -> frozenset:
    return frozenset(j for j in q.sellers if q.lam + eta - q.prices[j] > q.g0)


def solve_eta(case_id: int, p: LocalProblem):
    """Root of the internal-price equation for regimes 2 and 3.

    eta is the premium of the node's internal energy value over its own
    price; returns (eta, active sellers). Regime 2 finds eta on
    [0, lam_min + gamma'(demand) - own_price], where the cheapest seller
    alone covers demand at the top end; it raises CaseClassificationError
    for a node with demand and no sellers. Regime 3 finds the generation
    g on [0, demand] with g + purchases(C'(g)) = demand and returns
    max(0, C'(g) - own_price).
    """
    if case_id == 2:
        return _solve_eta(_Quantities(p))
    if case_id == 3:
        return _solve_gen(_Quantities(p))
    raise ValueError(f"eta is only defined for regimes 2 and 3, got {case_id}")


def _buy_with_exact_total(q: _Quantities, internal_price: float, total: float):
    """Purchases at the given internal price, nudged to sum exactly to total.

    The root for the internal price is only accurate to float resolution, so
    the raw purchase sum can miss the target by ~1e-12 MWh; the residual is
    absorbed by the largest purchase to make the energy balance exact.
    """
    buys = q.buy_at(internal_price)
    bought = sum(buys.values())
    if bought > 0.0:
        j_big = max(buys, key=buys.get)
        buys[j_big] = max(0.0, buys[j_big] + (total - bought))
    return buys


def solve_local(p: LocalProblem) -> LocalSolution:
    """The unique minimizer of the node's subproblem at the given prices."""
    q = _Quantities(p)
    case_id, active, eta = _classify(q)
    zero_buys = {j: 0.0 for j in q.sellers}

    if case_id == 1:
        return LocalSolution(p.node, 1, p.demand, 0.0, zero_buys, active, 0.0)

    if case_id == 2:
        buys = _buy_with_exact_total(q, q.lam + eta, p.demand)
        return LocalSolution(p.node, 2, 0.0, 0.0, buys, active, eta)

    if case_id == 3:
        buys = q.buy_at(q.lam + eta)
        e_gen = p.demand - sum(buys.values())
        if e_gen < 0.0:  # boundary with regime 2, off by root tolerance
            buys = _buy_with_exact_total(q, q.lam + eta, p.demand)
            e_gen = 0.0
        return LocalSolution(p.node, 3, e_gen, 0.0, buys, active, eta)

    if case_id == 4:
        e_sell = max(0.0, q.own_gen - p.demand)
        return LocalSolution(p.node, 4, p.demand + e_sell, e_sell, zero_buys,
                             active, 0.0)

    if case_id == 5:
        buys = q.buy_at(q.lam)
        e_sell = max(0.0, sum(buys.values()) - p.demand)
        if e_sell == 0.0:  # boundary: purchases exactly cover demand
            buys = _buy_with_exact_total(q, q.lam, p.demand)
        return LocalSolution(p.node, 5, 0.0, e_sell, buys, active, 0.0)

    # regime 6
    buys = q.buy_at(q.lam)
    e_gen = q.own_gen
    e_sell = max(0.0, e_gen + sum(buys.values()) - p.demand)
    if e_sell == 0.0:  # boundary: demand exactly absorbs generation + buys
        e_gen = max(0.0, p.demand - sum(buys.values()))
    return LocalSolution(p.node, 6, e_gen, e_sell, buys, active, 0.0)


def net_expenditure(p: LocalProblem, s: LocalSolution) -> float:
    """Generation + transfer + purchase cost minus sale income, in $."""
    _check_feasible(p, s)
    total = p.gen_cost.value(s.e_gen) - p.own_price * s.e_sell
    for j, amount in s.e_buy.items():
        total += p.transfer_cost.value(amount) + p.seller_prices[j] * amount
    return total


def _check_feasible(p: LocalProblem, s: LocalSolution):
    atol = FEASIBLE_ATOL
    if s.e_gen < -atol or s.e_sell < -atol or any(v < -atol for v in s.e_buy.values()):
        raise ValueError(f"node {p.node}: negative energies in solution")
    unknown = set(s.e_buy) - set(p.seller_prices)
    if unknown:
        raise ValueError(f"node {p.node}: purchases from non-sellers {unknown}")
    residual = s.balance_residual(p.demand)
    # Rounding in the balance grows with the energy moved; allow a few ulps
    # of it on top of FEASIBLE_ATOL (which dominates at normal volumes).
    volume = s.e_gen + s.e_sell + s.total_bought()
    if abs(residual) > atol + 4 * sys.float_info.epsilon * volume:
        raise ValueError(
            f"node {p.node}: energy balance violated by {residual} MWh"
        )


def verify_kkt(p: LocalProblem, s: LocalSolution) -> float:
    """Max absolute first-order optimality residual of s for problem p.

    Multipliers are reconstructed from the regime: the internal energy value
    q is own_price + eta for regimes 2-3, own_price for 4-6, and for regime
    1 the marginal generation cost at demand (at zero demand the node's own
    price, where the multiplier is degenerate). Stationarity then requires
    marginal costs to meet q on every active quantity, and the
    complementary-slackness direction to hold on every inactive one.
    """
    _check_feasible(p, s)
    gen, tr = p.gen_cost, p.transfer_cost
    cp0 = gen.marginal(0.0)

    if s.case_id == 1:
        q = gen.marginal(p.demand) if p.demand > ACTIVE_ATOL else p.own_price
    elif s.case_id in (2, 3):
        q = p.own_price + s.eta
    else:
        q = p.own_price

    residual = abs(s.balance_residual(p.demand))
    # generation: marginal cost equals q when generating, else q may not
    # exceed the cost of the first MWh
    if s.e_gen > ACTIVE_ATOL:
        residual = max(residual, abs(gen.marginal(s.e_gen) - q))
    else:
        residual = max(residual, q - cp0 if q > cp0 else 0.0)
    # selling: q equals own price while selling, else own price cannot beat q
    if s.e_sell > ACTIVE_ATOL:
        residual = max(residual, abs(q - p.own_price))
    else:
        residual = max(residual, p.own_price - q if p.own_price > q else 0.0)
    # purchases: delivered marginal price equals q on active links, and is
    # not below q on inactive ones
    for j, lam_j in p.seller_prices.items():
        amount = s.e_buy.get(j, 0.0)
        if amount > ACTIVE_ATOL:
            residual = max(residual, abs(tr.marginal(amount) + lam_j - q))
        else:
            delivered0 = tr.marginal(0.0) + lam_j
            residual = max(residual, q - delivered0 if q > delivered0 else 0.0)
    return residual
