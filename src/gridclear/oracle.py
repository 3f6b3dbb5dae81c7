"""Independent numeric solvers used to validate the closed-form machinery.

Two deliberately different algorithm families:

  - solve_global_numeric: projected gradient with Barzilai-Borwein steps
    on all inter-node trades (the coupled cost-minimization over the grid).
  - solve_local_numeric: coarse grid scan plus descent over single and
    paired coordinate directions for one node's subproblem, each line
    minimized by Illinois steps on the sign of its directional derivative.

Neither touches the closed-form solver or the inverse-marginal closed
forms, so agreement with the closed-form solver is evidence rather than
tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .local_solver import LocalProblem

__all__ = [
    "GlobalSolution",
    "LocalNumericResult",
    "solve_global_numeric",
    "solve_local_numeric",
    "local_objective",
    "local_gradient",
]

GRID_STEP = 0.05          # MWh, coarse scan resolution
BUY_BOX = 15.0            # MWh upper bound per purchase variable
SELL_BOX = 64.0           # MWh upper bound for the sale offer
PG_TOL = 1e-7             # projected-gradient norm at termination
MAX_ITERS = 2_000_000     # projected-gradient iterations before giving up
MAX_NODES = 6             # the oracle is a desk-scale instrument
MAX_SWEEPS = 400          # direction-set sweeps of the local oracle


@dataclass
class GlobalSolution:
    trades: np.ndarray        # MWh, trades[i][j] = energy sold by i to j
    generations: np.ndarray   # MWh per node
    total_cost: float         # $


@dataclass
class LocalNumericResult:
    objective: float          # $
    e_sell: float             # MWh
    e_buy: dict               # seller node -> MWh


# ---------------------------------------------------------------------------
# global problem
# ---------------------------------------------------------------------------

def solve_global_numeric(scenario) -> GlobalSolution:
    """Minimize total generation + transfer cost over all feasible trades.

    Projected gradient descent on the directed-trade matrix (trades >= 0)
    with Barzilai-Borwein steps s.s / s.y, or 1.0 when s.y <= 0, halved
    while the candidate drives a node's generation negative or raises the
    cost beyond float noise. Terminates when the projected-gradient norm
    falls below PG_TOL.

    Needs every node's optimal generation to be positive: the iterate
    cannot settle on the generation >= 0 face, so halving stops moving it
    and RuntimeError is raised. The market itself clears such scenarios.
    """
    top = scenario.topology
    m = top.m
    if m > MAX_NODES:
        raise ValueError(f"global oracle handles at most {MAX_NODES} nodes, got {m}")
    demands = np.asarray(scenario.demands, dtype=float)
    gens = scenario.gen_costs
    transfer = scenario.transfer_cost
    mask = np.array([[bool(top.adj[i][j]) for j in range(m)] for i in range(m)])

    if not mask.any():
        g = demands.copy()
        total = float(sum(gens[i].value(g[i]) for i in range(m)))
        return GlobalSolution(np.zeros((m, m)), g, total)

    def generation(t):
        return demands + t.sum(axis=1) - t.sum(axis=0)

    def cost(t):
        g = generation(t)
        if np.any(g < 0.0):
            return math.inf
        total = sum(gens[i].value(g[i]) for i in range(m))
        total += float(np.sum(transfer.value(t[mask])))
        return float(total)

    def grad(t):
        g = generation(t)
        cm = np.array([gens[i].marginal(g[i]) for i in range(m)])
        out = np.zeros((m, m))
        out[mask] = transfer.marginal(t[mask])
        out += cm[:, None] - cm[None, :]
        out[~mask] = 0.0
        return out

    def pg_norm(t, gr):
        pg = np.where(t > 0.0, gr, np.minimum(gr, 0.0))[mask]
        return float(np.linalg.norm(pg))

    t = np.zeros((m, m))
    f = cost(t)
    gr = grad(t)
    step = 1.0
    for _ in range(MAX_ITERS):
        residual = pg_norm(t, gr)
        if residual <= PG_TOL:
            return GlobalSolution(t, generation(t), f)
        noise = 1e-12 * (1.0 + abs(f))
        while True:
            cand = np.maximum(0.0, t - step * gr)
            cand[~mask] = 0.0
            if np.array_equal(cand, t):
                raise RuntimeError(
                    f"global oracle stalled: projected-gradient norm {residual:.3e}")
            f_cand = cost(cand)
            if f_cand <= f + noise:
                break
            step *= 0.5
        gr_cand = grad(cand)
        s = cand - t
        sy = float(np.sum(s * (gr_cand - gr)))
        step = float(np.sum(s * s)) / sy if sy > 0.0 else 1.0
        t, f, gr = cand, f_cand, gr_cand
    raise RuntimeError(
        f"global oracle did not converge: projected-gradient norm {residual:.3e}"
    )


# ---------------------------------------------------------------------------
# local subproblem
# ---------------------------------------------------------------------------

def local_objective(p: LocalProblem, e_sell: float, e_buy) -> float:
    """Net expenditure of node p; inf outside the feasible set.

    Implied generation within roundoff dust of zero counts as feasible
    (iterates sit exactly on that face at many optima).
    """
    buys = np.asarray(e_buy, dtype=float)
    e_gen = p.demand + e_sell - buys.sum()
    if e_gen < -1e-9 or e_sell < 0.0 or np.any(buys < 0.0):
        return math.inf
    total = p.gen_cost.value(max(0.0, e_gen)) - p.own_price * e_sell
    if buys.size:
        prices = np.array([p.seller_prices[j] for j in sorted(p.seller_prices)])
        total += float(np.sum(p.transfer_cost.value(buys)) + prices @ buys)
    return float(total)


def local_gradient(p: LocalProblem, e_sell: float, e_buy):
    """Analytic gradient of the net expenditure in (e_sell, e_buy...).

    The point must be feasible; implied generation a hair below zero from
    segment-endpoint roundoff is clamped.
    """
    buys = np.asarray(e_buy, dtype=float)
    e_gen = p.demand + e_sell - buys.sum()
    if e_gen < -1e-9:
        raise ValueError(f"infeasible point: implied generation {e_gen}")
    cm = p.gen_cost.marginal(max(0.0, e_gen))
    d_sell = cm - p.own_price
    if buys.size:
        prices = np.array([p.seller_prices[j] for j in sorted(p.seller_prices)])
        d_buys = p.transfer_cost.marginal(buys) + prices - cm
    else:
        d_buys = buys
    return d_sell, d_buys


def solve_local_numeric(p: LocalProblem) -> LocalNumericResult:
    """Minimize one node's net expenditure without the closed forms.

    Descent over the direction set {sell, each purchase, sell+purchase
    pairs, purchase swaps}, two-sided along the feasible segment. The
    compound directions matter: when generation is pinned at zero,
    profitable moves can need the sale and a purchase to rise together,
    or one purchase to displace another, while every single coordinate is
    blocked. Together with the singles these positively span the tangent
    cone of the feasible set at any point, so the descent cannot stall
    away from the optimum. The first sweep scans a coarse grid along each
    direction; all line minimizations finish with Illinois steps (modified
    regula falsi, Dowell & Jarratt 1971) on the directional derivative,
    bisecting when a step leaves the bracket (the objective is convex along
    any line).

    The search runs inside the box SELL_BOX x BUY_BOX^n; ValueError is
    raised when it ends on the box, naming the coordinate.
    """
    sellers = sorted(p.seller_prices)
    n = len(sellers)
    if n > 8:
        raise ValueError(f"local oracle handles at most 8 sellers, got {n}")
    prices = np.array([p.seller_prices[j] for j in sellers])
    x = np.zeros(1 + n)   # layout: [sell, buys...]
    hi = np.array([SELL_BOX] + [BUY_BOX] * n)

    directions = list(np.eye(1 + n))
    for k in range(n):
        d = np.zeros(1 + n)
        d[0] = d[1 + k] = 1.0
        directions.append(d)
    for k in range(n):
        for j in range(k + 1, n):
            d = np.zeros(1 + n)
            d[1 + k], d[1 + j] = 1.0, -1.0
            directions.append(d)

    def segment(x, d):
        # largest [t_lo, t_hi] keeping x + t*d inside the box and e_gen >= 0
        t_lo, t_hi = -math.inf, math.inf
        for i in range(1 + n):
            if d[i] > 0:
                t_lo = max(t_lo, -x[i] / d[i])
                t_hi = min(t_hi, (hi[i] - x[i]) / d[i])
            elif d[i] < 0:
                t_lo = max(t_lo, (hi[i] - x[i]) / d[i])
                t_hi = min(t_hi, -x[i] / d[i])
        slope = d[0] - d[1:].sum()   # d e_gen / dt
        e_gen = p.demand + x[0] - x[1:].sum()
        if slope > 0:
            t_lo = max(t_lo, -e_gen / slope)
        elif slope < 0:
            t_hi = min(t_hi, -e_gen / slope)
        return t_lo, t_hi

    def dirderiv(x, d, t):
        y = np.maximum(0.0, x + t * d)
        ds, db = local_gradient(p, y[0], y[1:])
        return float(d[0] * ds + (d[1:] @ db if n else 0.0))

    def values_on_grid(x, d, ts):
        sell = x[0] + ts * d[0]
        buys = np.maximum(0.0, x[1:][None, :] + ts[:, None] * d[1:][None, :])
        e_gen = p.demand + sell - buys.sum(axis=1)
        vals = p.gen_cost.value(np.maximum(e_gen, 0.0)) - p.own_price * sell
        if n:
            vals = vals + p.transfer_cost.value(buys).sum(axis=1) + buys @ prices
        return np.where(e_gen < -1e-12, math.inf, vals)

    def minimize_line(x, d, coarse: bool):
        t_lo, t_hi = segment(x, d)
        if t_hi - t_lo < 1e-14:
            return 0.0
        if coarse:
            ts = np.arange(t_lo, t_hi + GRID_STEP, GRID_STEP)
            ts = np.clip(ts, t_lo, t_hi)
            k = int(np.argmin(values_on_grid(x, d, ts)))
            t_lo = float(ts[max(0, k - 1)])
            t_hi = float(ts[min(len(ts) - 1, k + 1)])
        # convex along the line: the directional derivative rises through
        # zero on [t_lo, t_hi]; Illinois steps (regula falsi that halves the
        # kept end's derivative when the same end moves twice) close in on it
        f_lo = dirderiv(x, d, t_lo)
        if f_lo >= 0.0:
            return t_lo
        f_hi = dirderiv(x, d, t_hi)
        if f_hi <= 0.0:
            return t_hi
        moved = 0   # -1 when t_lo moved last, +1 when t_hi did
        for _ in range(200):
            mid = 0.5 * (t_lo + t_hi)
            if mid <= t_lo or mid >= t_hi:
                break
            spread = f_hi - f_lo
            t = t_hi - f_hi * (t_hi - t_lo) / spread
            if not (math.isfinite(spread) and t_lo < t < t_hi):
                t = mid
            f = dirderiv(x, d, t)
            if f == 0.0:
                return t
            if f < 0.0:
                t_lo, f_lo = t, f
                if moved == -1:
                    f_hi *= 0.5
                moved = -1
            else:
                t_hi, f_hi = t, f
                if moved == 1:
                    f_lo *= 0.5
                moved = 1
        return 0.5 * (t_lo + t_hi)

    for sweep in range(MAX_SWEEPS):
        largest = 0.0
        for d in directions:
            t = minimize_line(x, d, coarse=(sweep == 0))
            if t != 0.0:
                x = np.maximum(0.0, x + t * d)
                largest = max(largest, abs(t))
        if sweep > 0 and largest < 1e-10:
            break

    # The box bounds the search, not the problem: a point on it (to the
    # rounding of a segment end) is the best inside the box, and the true
    # optimum may lie beyond.
    on_box = np.flatnonzero(x >= hi - 1e-9)
    if on_box.size:
        i = int(on_box[0])
        what = (f"sale at SELL_BOX = {SELL_BOX}" if i == 0 else
                f"purchase from seller {sellers[i - 1]} at BUY_BOX = {BUY_BOX}")
        raise ValueError(f"local oracle search stopped on its box: {what} MWh")

    obj = local_objective(p, x[0], x[1:])
    return LocalNumericResult(obj, float(x[0]), {
        j: float(x[1 + k]) for k, j in enumerate(sellers)
    })
