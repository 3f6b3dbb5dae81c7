import numpy as np
import pytest

from gridclear.cost_models import (DEFAULT_GENERATION_COST,
                                   DEFAULT_TRANSFER_COST, CubicTransfer,
                                   SoftCappedQuadratic)

GEN = DEFAULT_GENERATION_COST
TR = DEFAULT_TRANSFER_COST


def test_generation_values_at_known_points():
    assert GEN.value(0.0) == 86.3852
    assert GEN.value(5.0) == pytest.approx(377.4152000149002, rel=1e-14)
    assert GEN.value(11.0) == pytest.approx(1301.8623257360086, rel=1e-14)


def test_generation_marginal_at_known_points():
    assert GEN.marginal(0.0) == 56.564
    assert GEN.marginal(5.0) == pytest.approx(59.84800009176454, rel=1e-14)
    # past the nominal max the soft cap makes the next MWh very expensive
    assert GEN.marginal(11.0) == pytest.approx(1620.6190148216506, rel=1e-14)


def test_marginal_matches_finite_difference():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(200):
        x = float(rng.uniform(h, 12.0))
        fd = (GEN.value(x + h) - GEN.value(x - h)) / (2 * h)
        assert GEN.marginal(x) == pytest.approx(fd, rel=1e-6)
        fd = (TR.value(x + h) - TR.value(x - h)) / (2 * h)
        assert TR.marginal(x) == pytest.approx(fd, rel=1e-6)


def test_marginal_strictly_increasing():
    xs = np.linspace(0.0, 12.0, 241)
    for model in (GEN, TR):
        ms = [model.marginal(float(x)) for x in xs]
        assert all(b > a for a, b in zip(ms, ms[1:]))


def test_soft_cap_negligible_below_max_dominant_above():
    quad = lambda x: 86.3852 + 56.5640 * x + 0.3284 * x * x
    assert GEN.value(3.0) == pytest.approx(quad(3.0), rel=1e-12)
    assert GEN.value(14.0) > 10.0 * quad(14.0)


def test_inverse_marginal_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = float(rng.uniform(0.0, 11.5))
        y = GEN.marginal(x)
        assert GEN.marginal(GEN.inverse_marginal(y)) == pytest.approx(y, rel=1e-9)
        y = float(rng.uniform(1.0 + 1e-9, 300.0))
        assert TR.marginal(TR.inverse_marginal(y)) == pytest.approx(y, rel=1e-12)


def reference_inverse(model, y):
    """Bisection on the same bracket: doubled from 1 until it encloses y,
    then halved until it is at most 1e-12 MWh wide."""
    if y <= model.marginal(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while model.marginal(hi) < y:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if model.marginal(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_soft_cap_inverse_matches_bisection():
    rng = np.random.default_rng(12)
    prices = [float(y) for y in rng.uniform(57.0, 2000.0, size=1000)]
    for y in prices + [1e6, 1e12, 8e21]:
        x = GEN.inverse_marginal(y)
        assert abs(x - reference_inverse(GEN, y)) <= 2e-12, y


def test_inverse_marginal_clamps_below_first_unit():
    assert GEN.inverse_marginal(GEN.marginal(0.0) - 1.0) == 0.0
    assert GEN.inverse_marginal(0.0) == 0.0
    assert TR.inverse_marginal(1.0) == 0.0
    assert TR.inverse_marginal(0.5) == 0.0


def test_inverse_marginal_rejects_non_finite():
    with pytest.raises(ValueError):
        GEN.inverse_marginal(float("nan"))
    with pytest.raises(ValueError):
        TR.inverse_marginal(float("inf"))


def test_transfer_closed_forms():
    assert TR.value(2.0) == 10.0
    assert TR.marginal(2.0) == 13.0
    assert TR.inverse_marginal(13.0) == 2.0
    assert TR.value(0.0) == 0.0
    assert TR.marginal(0.0) == 1.0


def test_array_inputs_match_scalar():
    xs = np.array([0.0, 1.5, 7.25])
    for model in (GEN, TR):
        vals = model.value(xs)
        margs = model.marginal(xs)
        for i, x in enumerate(xs):
            assert vals[i] == model.value(float(x))
            assert margs[i] == model.marginal(float(x))


def test_negative_quantity_rejected():
    for model in (GEN, TR):
        with pytest.raises(ValueError):
            model.value(-0.1)
        with pytest.raises(ValueError):
            model.marginal(-0.1)
    with pytest.raises(ValueError):
        GEN.value(np.array([1.0, -2.0]))


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        SoftCappedQuadratic(a=1.0, b=0.0, c=1.0, e_max=10.0)
    with pytest.raises(ValueError):
        SoftCappedQuadratic(a=1.0, b=1.0, c=1.0, e_max=-1.0)
    with pytest.raises(ValueError):
        SoftCappedQuadratic(a=1.0, b=1.0, c=1.0, e_max=10.0, cap_exponent=1)
    with pytest.raises(ValueError):
        CubicTransfer(lin=1.0, cub=0.0)
    with pytest.raises(ValueError):
        CubicTransfer(lin=-1.0, cub=1.0)
