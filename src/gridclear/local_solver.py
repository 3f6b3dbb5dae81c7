"""Closed-form solution of one microgrid's trading subproblem.

Given its own selling price and the prices of connected sellers, a node
chooses how much to generate, buy and offer for sale to minimize

    C(e_gen) + sum_j gamma(e_buy[j]) + sum_j price_j * e_buy[j]
             - own_price * e_sell

subject to the internal energy balance

    e_gen = demand + e_sell - sum_j e_buy[j],   all quantities >= 0.

The solution follows from one supply-demand equation. At an internal price
q the node's supply is its own generation C'^-1(q) plus its purchases
sum_j gamma'^-1(q - price_j), each clamped to zero below the first MWh's
marginal cost. If the supply at its own price exceeds demand, the node
sells the surplus at that price. Otherwise it values energy at
own_price + eta, where the premium eta >= 0 is the least that makes supply
cover demand, and sells nothing. The premium is found on a fixed bracket by
`bracketed_root` (safeguarded regula falsi): when purchases alone cover
demand below C'(0), on [0, lam_min + gamma'(demand) - own_price], where
lam_min is the cheapest seller's price; otherwise as the generation g on
[0, demand] with g + purchases(C'(g)) = demand, one marginal-cost
evaluation per step, reading eta off C'(g).

Which of (generate, buy, sell) come out positive names the regime:

    1  neither sells nor buys (generates exactly its demand)
    2  buys only
    3  generates and buys
    4  generates and sells
    5  buys and sells (generates nothing)
    6  generates, buys and sells
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cost_models import CostModel, bracketed_root

__all__ = [
    "LocalProblem",
    "LocalSolution",
    "solve_local",
    "net_expenditure",
    "verify_kkt",
]

# MWh of surplus at its own price below which a node sells nothing. A
# buyer's price settles onto the edge where that surplus is zero; the slack
# keeps it from trading rounding-sized sales there.
CASE_EPS = 1e-9

# Energies below this are treated as inactive when checking multipliers.
ACTIVE_ATOL = 1e-9

# MWh of negative energy or imbalance a feasible solution may show.
FEASIBLE_ATOL = 1e-6


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
    eta: float                    # $/MWh internal-price premium, 0 when unused

    def total_bought(self) -> float:
        return sum(self.e_buy.values())

    def balance_residual(self, demand: float) -> float:
        return self.e_gen - (demand + self.e_sell - self.total_bought())


def _buy_with_exact_total(buys: dict, total: float, seller_prices: dict) -> None:
    """Nudge the purchases in place to sum exactly to total.

    The root for the internal price is only accurate to float resolution, so
    the raw purchase sum can miss the target by ~1e-12 MWh; the largest
    purchase takes what the others leave of it, which makes the energy
    balance exact when it is the only one. A demand too small to resolve
    (gamma'(demand) rounds to gamma'(0)) can put the root on the float jump
    of a purchase, below which nothing is bought; the cheapest seller then
    supplies all of it.
    """
    bought = sum(buys.values())
    if bought > 0.0:
        j_big = max(buys, key=buys.get)
        buys[j_big] = max(0.0, total - (bought - buys[j_big]))
    else:
        buys[min(seller_prices, key=seller_prices.get)] = total


# Regime by which of (generate, buy, sell) are positive. A node that does
# none of them (no demand and nothing worth reselling) counts as idle.
_REGIMES = {
    (True, False, False): 1, (False, False, False): 1,
    (False, True, False): 2, (True, True, False): 3,
    (True, False, True): 4, (False, True, True): 5, (True, True, True): 6,
}


def solve_local(p: LocalProblem) -> LocalSolution:
    """The unique minimizer of the node's subproblem at the given prices."""
    gen, lam, demand = p.gen_cost, p.own_price, p.demand
    inverse = p.transfer_cost.inverse_marginal
    sellers = sorted(p.seller_prices.items())

    def buys_at(q):
        # Each seller supplies the quantity whose marginal transfer cost
        # matches the price headroom q - lam_j (zero when q is below the
        # delivered price of the first MWh).
        return {j: inverse(q - lam_j) for j, lam_j in sellers}

    def bought_at(q):
        return sum(inverse(q - lam_j) for _, lam_j in sellers)

    own_gen = gen.inverse_marginal(lam)
    buys = buys_at(lam)
    bought = sum(buys.values())
    surplus = own_gen + bought - demand
    if surplus > CASE_EPS or demand == 0.0:
        # Supply at its own price exceeds demand: sell the surplus at lam.
        # Without purchases, generating demand plus the sale keeps the
        # energy balance exact.
        e_gen = own_gen if bought else demand + surplus
        return LocalSolution(p.node, _REGIMES[e_gen > 0.0, bought > 0.0,
                                              surplus > 0.0],
                             e_gen, surplus, buys, 0.0)

    eta = 0.0
    buy_only = False
    if surplus < 0.0:
        short_at_cp0 = bought_at(gen.marginal(0.0)) - demand
        if short_at_cp0 >= 0.0:
            # Purchases alone cover demand below the first MWh's cost. They
            # rise with the premium, and at the top of the bracket the
            # cheapest seller alone covers demand.
            buy_only = True
            hi = (min(p.seller_prices.values())
                  + p.transfer_cost.marginal(demand) - lam)
            short_at_hi = bought_at(lam + hi) - demand
            if short_at_hi < 0.0:
                # Only rounding leaves them short there, as when
                # gamma'(demand) rounds to gamma'(0) at a tiny demand: the
                # root is the top itself.
                eta = hi
            else:
                eta = bracketed_root(lambda e: bought_at(lam + e), demand,
                                     0.0, hi, surplus, short_at_hi)
        else:
            # With no seller delivering below C'(demand) the node generates
            # all of it. Otherwise generation g and internal price C'(g)
            # move together: g + purchases(C'(g)) rises with g, is short of
            # demand at g = 0 and covers it at g = demand.
            bought_at_cap = bought_at(gen.marginal(demand))
            if bought_at_cap > 0.0:
                g = bracketed_root(lambda g: g + bought_at(gen.marginal(g)),
                                   demand, 0.0, demand, short_at_cp0,
                                   (demand + bought_at_cap) - demand)
                eta = max(0.0, gen.marginal(g) - lam)
    if eta:
        buys = buys_at(lam + eta)
    e_gen = 0.0 if buy_only else demand - sum(buys.values())
    if e_gen <= 0.0:  # purchases cover demand, up to root tolerance
        _buy_with_exact_total(buys, demand, p.seller_prices)
        e_gen = 0.0
    # Whatever of demand the node does not generate, it buys.
    return LocalSolution(p.node, _REGIMES[e_gen > 0.0, e_gen < demand, False],
                         e_gen, 0.0, buys, eta)


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
