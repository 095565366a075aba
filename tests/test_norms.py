"""Weighted norms and the inequality gallery behind the iteration.

Closed-form bumps give exact expected values for the sup entries; every
inequality verifier must come back with nonnegative slack on random
small maps.
"""

import numpy as np
import pytest

from diffeolab import (
    Diffeo1,
    PreconditionError,
    holder,
    holder_norm,
    identity,
    log_refined_holder,
    norm_report,
    translate_conjugate,
    verify_derivation,
    verify_domination,
    verify_lip_met,
    verify_subadditivity,
)
from diffeolab.modulus import SampledModulus
from diffeolab.norms import holder_seminorm_samples, sample_grid
from _helpers import every_sample_jets, small_bump, small_periodic

ALPHA = holder(0.5)


# -- the report ----------------------------------------------------------------

def test_identity_has_zero_norms():
    r = norm_report(identity(2), ALPHA)
    assert r.sup_dev == (0.0, 0.0, 0.0)
    assert r.holder_dev == (0.0, 0.0)
    assert r.m_k == 0.0


def test_bump_sup_entry_is_the_amplitude():
    eps = 1e-3
    r = norm_report(small_bump(eps), ALPHA)
    assert r.sup_dev[0] == pytest.approx(eps, abs=1e-9 * eps)
    assert r.m_k > 0.0
    # the top seminorm estimate is stable under halving the sample step
    assert 0.9 <= r.refine_ratio <= 1.1


def test_norms_scale_linearly_with_amplitude():
    r1 = norm_report(small_bump(1e-3), ALPHA)
    r2 = norm_report(small_bump(2e-3), ALPHA)
    np.testing.assert_allclose(np.array(r2.sup_dev),
                               2.0 * np.array(r1.sup_dev), rtol=1e-9)
    np.testing.assert_allclose(np.array(r2.holder_dev),
                               2.0 * np.array(r1.holder_dev), rtol=1e-9)
    assert holder_norm(small_bump(2e-3), ALPHA) == pytest.approx(
        2.0 * holder_norm(small_bump(1e-3), ALPHA), rel=1e-9)


def test_ball_memberships():
    r = norm_report(small_bump(1e-3), ALPHA,
                    balls=(("C0", 1e-2), ("C0", 1e-4), ("CkAlpha", 1e-2)))
    assert r.memberships["C0:0.01"] is True
    assert r.memberships["C0:0.0001"] is False
    with pytest.raises(ValueError):
        norm_report(small_bump(1e-3), ALPHA, balls=(("weird", 1e-2),))


def test_translation_conjugation_preserves_derivative_entries():
    f = small_bump(1e-3, center=0.0, radius=0.7)
    g = translate_conjugate(f, 2.0)
    rf = norm_report(f, ALPHA)
    rg = norm_report(g, ALPHA)
    np.testing.assert_allclose(rf.sup_dev[1:], rg.sup_dev[1:], rtol=1e-12)
    np.testing.assert_allclose(rf.holder_dev, rg.holder_dev, rtol=1e-12)


def _two_arrays_per_stride(vals, step, alpha):
    """The estimator with a fresh difference and absolute value per stride,
    and one call of alpha per stride, on a Python float."""
    m = len(vals)
    strides, s = [], 1
    while s <= m - 1 and len(strides) < 23:
        strides.append(s)
        s *= 2
    if strides[-1] != m - 1:
        strides.append(m - 1)
    best = 0.0
    for s in strides:
        gap = float(np.max(np.abs(vals[s:] - vals[:-s])))
        best = max(best, gap / float(alpha(float(s * step))))
    return best


@pytest.mark.parametrize("m", [2, 3, 1000, 1 << 13, 9000])
def test_one_buffer_estimator_matches_fresh_arrays(m):
    rng = np.random.default_rng(m)
    jets = rng.standard_normal((m, 3)) * np.array([1e-3, 1.0, 1e4])
    for col in range(3):
        vals = jets[:, col]                 # a strided column, as callers pass
        for alpha in (ALPHA, holder(0.9)):
            got = holder_seminorm_samples(vals, 1.0 / 512, alpha)
            want = _two_arrays_per_stride(vals, 1.0 / 512, alpha)
            assert got.hex() == want.hex()


# the sampled modulus is extrapolated beyond 0.5, as at the longest strides
MODULI = (ALPHA, log_refined_holder(0.5, 0.3),
          SampledModulus(xs=np.array([0.0, 0.01, 0.1, 0.5]),
                         ys=np.array([0.0, 0.2, 0.45, 0.8])))
MODULUS_IDS = ["holder", "omegaz", "sampled"]


@pytest.mark.parametrize("alpha", MODULI, ids=MODULUS_IDS)
def test_moduli_evaluate_an_array_with_the_scalar_floats(alpha):
    rng = np.random.default_rng(47)
    xs = np.concatenate([np.geomspace(1e-9, 1e3, 4000),
                         rng.uniform(0.0, 4.0, 4000)])
    got = alpha(xs)
    want = np.array([float(alpha(float(x))) for x in xs])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _maps_for_the_dense_oracle(k):
    rng = np.random.default_rng(53 + k)
    # random node jets: the support touches both grid ends; on [-1, 1]
    # both ends are samples, on [-0.7, 1.3] only the left one is, and on
    # the 40-node grid neither is
    maps = []
    for a, b, n in ((-1.0, 1.0, 17), (-0.7, 1.3, 23), (-0.7, 1.3, 40)):
        jets = 1e-3 * rng.standard_normal((n, k + 1))
        jets[[0, -1]] = 0.0
        maps.append(Diffeo1("compact", a, b, k, jets))
    # a bump whose support misses the ends of a wider grid
    bump = small_bump(1e-3, center=0.2, radius=0.5, k=k)
    wide = np.linspace(-1.7, 2.1, 120)
    maps.append(Diffeo1("compact", -1.7, 2.1, k,
                        bump.displacement_jets(wide, k)))
    maps += [small_periodic(rng, k=k, eps=1e-3), identity(k, -0.7, 1.3)]
    return maps


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alpha", MODULI, ids=MODULUS_IDS)
def test_norms_are_bitwise_the_dense_pass(k, alpha):
    # holder_norm and norm_report evaluate a compact map only inside its
    # support and alpha once per ladder; the oracle evaluates every sample
    # and calls alpha per stride
    maps = _maps_for_the_dense_oracle(k)
    ends = [(m.a in sample_grid(m), m.b in sample_grid(m)) for m in maps[:3]]
    assert ends == [(True, True), (True, False), (False, False)]
    for f in maps:
        xs = sample_grid(f)
        h = xs[1] - xs[0]
        jets = every_sample_jets(f, xs, k)
        for lowest in range(k + 1):
            got = f.displacement_jets(xs, k, lowest)
            assert np.array_equal(got.view(np.uint64),
                                  jets[:, lowest:].copy().view(np.uint64))
        for j in range(1, k + 1):
            want = _two_arrays_per_stride(jets[:, j], h, alpha)
            assert holder_norm(f, alpha, j).hex() == want.hex(), (f.n, j)
        r = norm_report(f, alpha, k)
        sup_dev = [float(np.max(np.abs(jets[:, i]))) for i in range(k + 1)]
        holder_dev = [_two_arrays_per_stride(jets[:, i], h, alpha)
                      for i in range(1, k + 1)]
        top_half = _two_arrays_per_stride(jets[::2, k], 2 * h, alpha)
        ratio = holder_dev[-1] / top_half if top_half > 0 else 1.0
        assert [v.hex() for v in r.sup_dev] == [v.hex() for v in sup_dev]
        assert [v.hex() for v in r.holder_dev] == [v.hex()
                                                   for v in holder_dev]
        assert r.m_k.hex() == max(sup_dev[1:]).hex()
        assert r.refine_ratio.hex() == ratio.hex()
        assert (r.window, r.samples) == ((xs[0], xs[-1]), xs.size)


# -- inequality verifiers --------------------------------------------------------

def test_domination_constant_for_unit_window():
    # both maps supported in an interval of length ~1 starting at 0
    f = small_bump(1e-3, center=0.5, radius=0.5)
    g = small_bump(5e-4, center=0.5, radius=0.5)
    for i in (0, 1):
        rep = verify_domination(f, g, i, ALPHA)
        assert rep.ok, rep.to_dict()
        assert rep.constants["ell"] == pytest.approx(3.0, abs=0.05)


def test_domination_needs_agreement_at_window_ends():
    f = small_bump(1e-3, center=0.5, radius=0.5)
    g = small_periodic(np.random.default_rng(1), eps=1e-4)
    with pytest.raises((PreconditionError, ValueError)):
        verify_domination(f, g, 0, ALPHA)


def test_derivation_inequalities_on_random_pairs():
    rng = np.random.default_rng(22)
    for _ in range(5):
        f = small_bump(rng.uniform(1e-4, 1e-3), center=rng.uniform(-0.2, 0.2))
        g = small_bump(rng.uniform(1e-4, 1e-3), center=rng.uniform(-0.2, 0.2))
        rep = verify_derivation(f, g, ALPHA)
        assert rep.ok, rep.to_dict()


def test_subadditivity_of_the_norm():
    rng = np.random.default_rng(24)
    terms = [small_bump(rng.uniform(1e-4, 1e-3),
                        center=rng.uniform(-0.4, 0.4)) for _ in range(4)]
    rep = verify_subadditivity(terms, ALPHA)
    assert rep.ok, rep.to_dict()


def test_norm_ladder_constant_for_unit_support():
    f = small_bump(1e-3, center=0.5, radius=0.5)
    rep = verify_lip_met(f, ALPHA)
    assert rep.ok, rep.to_dict()
    # K = |J| + alpha(|J|) + |J|/alpha(|J|) = 3 for a unit window
    assert rep.constants["K"] == pytest.approx(3.0, abs=0.05)
