"""Convex cost models for energy generation and transfer.

Every model exposes three operations:

    value(x)            cost in $ of producing/transferring x MWh
    marginal(x)         exact derivative d value / dx in $/MWh
    inverse_marginal(y) the x >= 0 with marginal(x) = y, clamped to 0
                        for y below marginal(0)

Marginals are strictly increasing, so the inverse is well defined above
marginal(0). value() and marginal() accept floats or numpy arrays.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostModel",
    "SoftCappedQuadratic",
    "CubicTransfer",
    "bracketed_root",
    "DEFAULT_GENERATION_COST",
    "DEFAULT_TRANSFER_COST",
]


def _check_nonnegative(x):
    if isinstance(x, (int, float)):
        if x < 0:
            raise ValueError(f"cost models are defined for x >= 0, got {x}")
    elif np.any(np.asarray(x) < 0):
        raise ValueError("cost models are defined for x >= 0, got negative entries")


class CostModel(ABC):
    """A positive, increasing, convex, twice-differentiable scalar cost."""

    @abstractmethod
    def value(self, x):
        """Cost in $ at quantity x (MWh)."""

    @abstractmethod
    def marginal(self, x):
        """Exact derivative of value at x, in $/MWh."""

    def inverse_marginal(self, y: float) -> float:
        """Quantity x >= 0 whose marginal cost equals y.

        For y <= marginal(0) returns 0 (the marginal never drops below its
        value at zero, so the clamp makes boundary behavior continuous).
        The upper bound doubles from 1 until it encloses y; then
        `bracketed_root` narrows the bracket to 1e-12 MWh on log marginal,
        which a steep soft cap leaves far closer to linear than the
        marginal itself.
        """
        if not math.isfinite(y):
            raise ValueError(f"inverse_marginal needs a finite price, got {y}")
        m_lo = self.marginal(0.0)
        if y <= m_lo:
            return 0.0
        lo, hi = 0.0, 1.0
        for _ in range(200):
            try:
                m_hi = self.marginal(hi)
            except OverflowError:
                m_hi = math.inf  # astronomically above any finite y
            if m_hi >= y:
                break
            lo, hi, m_lo = hi, hi * 2.0, m_hi
        else:
            raise ValueError(f"could not bracket marginal value {y}")
        log_y = math.log(y)
        return bracketed_root(lambda x: _log(self.marginal(x)), log_y, lo, hi,
                              _log(m_lo) - log_y, _log(m_hi) - log_y,
                              xtol=1e-12)


def _log(m: float) -> float:
    return math.log(m) if m > 0.0 else -math.inf


# How far inside the bracket `bracketed_root` keeps its point, relative to
# the bracket's magnitude: four ulps.
_ULPS = 4.0 * sys.float_info.epsilon


def bracketed_root(f, target: float, lo: float, hi: float,
                   r_lo: float, r_hi: float, xtol: float = 0.0) -> float:
    """The point in [lo, hi] where increasing f crosses target.

    r_lo = f(lo) - target < 0 <= r_hi = f(hi) - target. Each step takes
    the Illinois point: regula falsi, with the residual of an endpoint
    kept twice in a row halved. The point stays a few ulps inside the
    bracket, so a root found to rounding from one side closes the bracket
    on the next step instead of leaving the far end to bisection. Where a
    residual is infinite, or the bracket is a few ulps wide, the step
    bisects. Stops at an exact root, or when the bracket is at most xtol
    wide or down to two adjacent floats, and returns its midpoint: the
    same bracket and accuracy as plain bisection.
    """
    kept = 0    # -1 after lo moved, +1 after hi moved
    for _ in range(400):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if width <= xtol or mid <= lo or mid >= hi:
            break
        inset = _ULPS * max(abs(lo), abs(hi))
        spread = r_hi - r_lo
        if width <= 2.0 * inset or math.isinf(spread):
            x = mid
        else:
            x = lo - r_lo * (width / spread)
            x = min(max(x, lo + inset), hi - inset)
        r = f(x) - target
        if r < 0.0:
            if kept < 0:
                r_hi *= 0.5
            lo, r_lo, kept = x, r, -1
        elif r > 0.0:
            if kept > 0:
                r_lo *= 0.5
            hi, r_hi, kept = x, r, 1
        else:
            return x
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SoftCappedQuadratic(CostModel):
    """Quadratic generation cost with a steep multiplicative soft cap.

    value(x) = (a + b*x + c*x^2) * (1 + (cap_scale*x/e_max)^cap_exponent)

    The cap term is negligible well below e_max and grows violently past it,
    playing the role of a maximum-generation limit without a hard constraint.
    """

    a: float            # $ constant term
    b: float            # $/MWh linear coefficient
    c: float            # $/MWh^2 quadratic coefficient
    e_max: float        # MWh nominal maximum generation
    cap_scale: float = 0.9
    cap_exponent: int = 30

    def __post_init__(self):
        if self.a < 0 or self.b <= 0 or self.c < 0 or self.e_max <= 0:
            raise ValueError(
                "need a >= 0, b > 0, c >= 0, e_max > 0, got "
                f"a={self.a}, b={self.b}, c={self.c}, e_max={self.e_max}"
            )
        if self.cap_scale < 0 or self.cap_exponent < 2:
            raise ValueError("need cap_scale >= 0 and cap_exponent >= 2")

    def value(self, x):
        _check_nonnegative(x)
        base = self.a + self.b * x + self.c * x * x
        u = (self.cap_scale / self.e_max) * x
        return base * (1.0 + u ** self.cap_exponent)

    def marginal(self, x):
        _check_nonnegative(x)
        n = self.cap_exponent
        r = self.cap_scale / self.e_max
        u = r * x
        base = self.a + self.b * x + self.c * x * x
        dbase = self.b + 2.0 * self.c * x
        return dbase * (1.0 + u ** n) + base * n * u ** (n - 1) * r


@dataclass(frozen=True)
class CubicTransfer(CostModel):
    """Transfer cost lin*x + cub*x^3 with zero cost at zero transfer."""

    lin: float = 1.0    # $/MWh
    cub: float = 1.0    # $/MWh^3

    def __post_init__(self):
        if self.lin < 0 or self.cub <= 0:
            raise ValueError(
                f"need lin >= 0 and cub > 0, got lin={self.lin}, cub={self.cub}"
            )

    def value(self, x):
        _check_nonnegative(x)
        return self.lin * x + self.cub * x * x * x

    def marginal(self, x):
        _check_nonnegative(x)
        return self.lin + 3.0 * self.cub * x * x

    def inverse_marginal(self, y: float) -> float:
        # The cubic marginal has an exact algebraic inverse; no bisection
        # needed (this runs inside root-finding inner loops).
        if not math.isfinite(y):
            raise ValueError(f"inverse_marginal needs a finite price, got {y}")
        if y <= self.lin:
            return 0.0
        return math.sqrt((y - self.lin) / (3.0 * self.cub))


# Default scenario costs: every node gets the same generator model unless the
# config says otherwise, and transfers cost x + x^3.
DEFAULT_GENERATION_COST = SoftCappedQuadratic(a=86.3852, b=56.5640, c=0.3284, e_max=10.0)
DEFAULT_TRANSFER_COST = CubicTransfer(lin=1.0, cub=1.0)
