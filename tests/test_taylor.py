"""Truncated-series arithmetic against closed forms.

Every check here pins the coefficient routines to independent ground
truth: numpy polynomial products, explicit exp expansions, and the
defining identities of the smooth step.
"""

import numpy as np
from numpy.polynomial import polynomial as P

from diffeolab._taylor import (
    coeffs_to_derivs,
    compose_affine,
    exp_well_series,
    factorials,
    poly_jets,
    smoothstep_series,
    tconst,
    tdiv,
    texp,
    tmul,
    trecip,
    tvar,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_factorials_and_coeff_deriv_round_trip():
    assert np.array_equal(factorials(5), [1, 1, 2, 6, 24, 120])
    rng = np.random.default_rng(3)
    c = rng.normal(size=(4, 7))
    back = coeffs_to_derivs(c) / factorials(6)
    np.testing.assert_allclose(back, c, rtol=0, atol=1e-15)


def test_tconst_tvar_shapes():
    c = tconst(2.5, 3, (4,))
    assert c.shape == (4, 4)
    assert np.all(c[:, 0] == 2.5) and np.all(c[:, 1:] == 0.0)
    v = tvar([0.5, -1.0], 3)
    np.testing.assert_array_equal(v[:, 0], [0.5, -1.0])
    assert np.all(v[:, 1] == 1.0) and np.all(v[:, 2:] == 0.0)


def test_tmul_matches_polynomial_product():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        a = rng.normal(size=k + 1)
        b = rng.normal(size=k + 1)
        got = tmul(a, b)
        want = P.polymul(a, b)[: k + 1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_tdiv_and_trecip_invert_tmul():
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        a = rng.normal(size=k + 1)
        b = rng.normal(size=k + 1)
        b[0] = rng.uniform(0.5, 2.0) * (1 if b[0] >= 0 else -1)
        np.testing.assert_allclose(tmul(tdiv(a, b), b), a, rtol=0, atol=1e-10)
        one = tconst(1.0, k)
        np.testing.assert_allclose(tmul(trecip(b), b), one, rtol=0, atol=1e-10)


def test_texp_of_identity_is_exponential_series():
    k = 8
    for x in (-1.0, 0.0, 0.7):
        got = texp(tvar(x, k))
        want = np.exp(x) / factorials(k)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_exp_well_series_values_and_flat_tail():
    ts = np.array([-1.0, 0.0, 1e-30, 0.3, 1.0, 2.5])
    out = exp_well_series(ts, 4)
    assert np.all(out[:3] == 0.0)
    np.testing.assert_allclose(out[3:, 0], np.exp(-1.0 / ts[3:]), rtol=1e-14)
    # first derivative of exp(-1/t) is exp(-1/t)/t^2
    d1 = coeffs_to_derivs(out[3:])[:, 1]
    np.testing.assert_allclose(d1, np.exp(-1.0 / ts[3:]) / ts[3:] ** 2,
                               rtol=1e-12)


def test_smoothstep_partition_of_unity():
    ts = np.linspace(-0.5, 1.5, 201)
    k = 4
    s = smoothstep_series(ts, k)
    s_flip = smoothstep_series(1.0 - ts, k)
    # S(t) + S(1-t) = 1, and the derivative columns cancel in pairs
    np.testing.assert_allclose(s[:, 0] + s_flip[:, 0], 1.0, atol=1e-14)
    signs = (-1.0) ** np.arange(1, k + 1)
    np.testing.assert_allclose(s[:, 1:], -s_flip[:, 1:] * signs, atol=1e-12)
    assert np.all(s[ts <= 0.0][:, 0] == 0.0)
    assert np.all(s[ts >= 1.0][:, 0] == 1.0)
    assert np.all(np.diff(s[:, 0]) >= 0.0)


def test_smoothstep_derivative_matches_finite_difference():
    ts = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    s = smoothstep_series(ts, 2)
    fd = (smoothstep_series(ts + h, 0)[:, 0]
          - smoothstep_series(ts - h, 0)[:, 0]) / (2 * h)
    np.testing.assert_allclose(coeffs_to_derivs(s)[:, 1], fd,
                               rtol=1e-7, atol=1e-9)


def test_compose_affine_rescales_argument():
    rng = np.random.default_rng(5)
    c = rng.normal(size=6)
    scale = -0.75
    got = compose_affine(c, scale)
    hs = np.linspace(-0.4, 0.4, 11)
    np.testing.assert_allclose(P.polyval(hs, got),
                               P.polyval(scale * hs, c), atol=1e-13)


if HAVE_HYPOTHESIS:

    @given(st.integers(1, 8),
           st.lists(st.floats(-2, 2), min_size=9, max_size=9),
           st.lists(st.floats(-2, 2), min_size=9, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_tmul_commutes_and_distributes(k, xs, ys):
        a = np.array(xs)[: k + 1]
        b = np.array(ys)[: k + 1]
        np.testing.assert_allclose(tmul(a, b), tmul(b, a), atol=1e-12)
        np.testing.assert_allclose(tmul(a, b + b), 2 * tmul(a, b), atol=1e-11)


def test_poly_jets_matches_the_polyval_loop_bitwise():
    # the reference: numpy's polyval of each polyder, order by order
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, (5, 7))
    for m in (1, 2, 5, 12):
        c = rng.normal(size=m)
        for order in (0, 1, m - 1, m + 2):
            got = poly_jets(c, x, order)
            d = c
            for j in range(order + 1):
                assert np.array_equal(got[..., j], P.polyval(x, d))
                d = P.polyder(d)
    assert poly_jets([1.0, 2.0, 3.0], 0.5, 2).shape == (3,)


def test_batched_poly_jets_are_the_per_point_jets_bitwise():
    rng = np.random.default_rng(13)
    for k in range(1, 13):
        c = rng.uniform(-1.0, 1.0, (9, k + 1))
        x = rng.uniform(-1.5, 1.5, 9)
        got = poly_jets(c, x, k)
        assert got.shape == (9, k + 1)
        for i in range(9):
            assert np.array_equal(got[i], poly_jets(c[i], x[i], k))
        # the batch broadcasts against a grid of points per polynomial
        grid = rng.uniform(-1.5, 1.5, (4, 9))
        got = poly_jets(c, grid, k)
        for p in np.ndindex(grid.shape):
            assert np.array_equal(got[p], poly_jets(c[p[1]], grid[p], k))
