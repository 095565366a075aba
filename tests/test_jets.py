"""Jet composition and inversion against polynomial oracles.

The reference values come from plain coefficient arithmetic on
polynomials (see tests/_helpers.py) and from a handful of closed-form
expansions frozen as literals, so nothing here reuses the partition
table being tested.
"""

import numpy as np
import pytest

from diffeolab import MAX_ORDER, Diffeo1, compose_derivs, invert_derivs
from diffeolab.jets import _rows_raw
from _helpers import BELL, poly_compose, poly_derivs, series_invert

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


# -- the partition table ------------------------------------------------------

def test_table_order_two_rows():
    assert set(_rows_raw(2)) == {(1, (2,), 1), (2, (1, 1), 1)}


def test_table_order_three_interior_coefficient():
    rows = _rows_raw(3)
    by_parts = {parts: (blocks, coeff) for blocks, parts, coeff in rows}
    assert by_parts[(1, 2)] == (2, 3)
    assert sum(coeff for _, _, coeff in rows) == 5


def test_coefficient_sums_are_partition_counts():
    for k in range(1, 11):
        assert sum(coeff for _, _, coeff in _rows_raw(k)) == BELL[k]


def test_table_order_bounds():
    # maps carry jets only of the orders the table covers
    Diffeo1("compact", -1.0, 1.0, MAX_ORDER, np.zeros((3, MAX_ORDER + 1)))
    for k in (0, MAX_ORDER + 1):
        with pytest.raises(ValueError, match="order k must lie in"):
            Diffeo1("compact", -1.0, 1.0, k, np.zeros((3, k + 1)))


# -- composition against the polynomial oracle --------------------------------

def test_compose_derivs_matches_polynomial_composition():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 7))
        cf = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 8)))
        cg = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 8)))
        x0 = float(rng.uniform(-1.0, 1.0))
        dg = poly_derivs(cg, x0, k)
        df = poly_derivs(cf, dg[0], k)
        got = compose_derivs(df, dg)
        want = poly_derivs(poly_compose(cf, cg), x0, k)
        scale = np.maximum(1.0, np.abs(want))
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    assert worst <= 1e-9


def test_cubic_after_quadratic_third_derivative():
    # f(y) = y + y^3 composed with g(x) = x + x^2 at 0
    k = 3
    df = poly_derivs([0.0, 1.0, 0.0, 1.0], 0.0, k)
    dg = poly_derivs([0.0, 1.0, 1.0], 0.0, k)
    got = compose_derivs(df, dg)
    np.testing.assert_allclose(got, [0.0, 1.0, 2.0, 6.0], atol=1e-12)


def test_compose_derivs_vectorized_grid():
    xs = np.linspace(-0.5, 0.5, 9)
    k = 4
    dg = np.stack([poly_derivs([0.0, 1.0, 0.3], x, k) for x in xs])
    df = np.stack([poly_derivs([0.2, 0.8, 0.0, -0.1], g0, k)
                   for g0 in dg[:, 0]])
    got = compose_derivs(df, dg)
    want = np.stack([poly_derivs(poly_compose([0.2, 0.8, 0.0, -0.1],
                                              [0.0, 1.0, 0.3]), x, k)
                     for x in xs])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_associativity_of_composition():
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        d1, d2, d3 = (rng.uniform(-1.5, 1.5, size=k + 1) for _ in range(3))
        left = compose_derivs(compose_derivs(d1, d2), d3)
        right = compose_derivs(d1, compose_derivs(d2, d3))
        assert float(np.max(np.abs(left - right))) <= 1e-8


def test_compose_derivs_rejects_order_mismatch():
    with pytest.raises(ValueError, match="jet orders differ"):
        compose_derivs(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0]))


# -- inversion -----------------------------------------------------------------

def test_invert_quadratic_frozen_values():
    # f(x) = x + x^2: the inverse branch at 0 is y - y^2 + 2y^3 - 5y^4 + ...
    d = poly_derivs([0.0, 1.0, 1.0], 0.0, 4)
    inv = invert_derivs(d, 0.0)
    np.testing.assert_allclose(inv, [0.0, 1.0, -2.0, 12.0, -120.0],
                               atol=1e-10)


def test_invert_linear_map():
    d = invert_derivs(np.array([0.0, 2.0, 0.0]), 0.0)
    np.testing.assert_allclose(d, [0.0, 0.5, 0.0], atol=1e-15)


def test_invert_matches_series_inversion_oracle():
    rng = np.random.default_rng(43)
    worst = 0.0
    fact = np.array([1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0])
    for _ in range(200):
        k = int(rng.integers(1, 7))
        a = rng.uniform(-1.5, 1.5, size=k + 1)
        a[0] = 0.0
        a[1] = rng.uniform(0.4, 2.0)
        d = a * fact[: k + 1]
        got = invert_derivs(d, 0.0)
        want = series_invert(a, k) * fact[: k + 1]
        scale = np.maximum(1.0, np.abs(want))
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    assert worst <= 1e-9


def test_invert_then_compose_is_identity():
    rng = np.random.default_rng(44)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        d = rng.uniform(-1.0, 1.0, size=k + 1)
        d[1] = rng.uniform(0.5, 2.0)
        x0 = float(rng.uniform(-1.0, 1.0))
        back = compose_derivs(invert_derivs(d, x0), d)
        want = np.zeros(k + 1)
        want[:2] = x0, 1.0
        assert float(np.max(np.abs(back - want))) <= 1e-9


def test_invert_requires_positive_slope():
    with pytest.raises(ValueError):
        invert_derivs(np.array([0.0, -1.0, 0.3]), 0.0)
    with pytest.raises(ValueError):
        invert_derivs(np.array([0.0, 0.0, 1.0]), 0.0)


if HAVE_HYPOTHESIS:

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_double_inversion_restores_jet(k, data):
        vals = data.draw(st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=k + 1,
            max_size=k + 1))
        d = np.array(vals)
        d[1] = 0.5 + abs(d[1])
        inv = invert_derivs(d, 0.1)
        assert inv[0] == 0.1
        back = invert_derivs(inv, d[0])
        np.testing.assert_allclose(back, d, rtol=0, atol=1e-9)
