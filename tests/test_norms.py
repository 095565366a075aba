"""Weighted norms and the inequality gallery behind the iteration.

Closed-form bumps give exact expected values for the sup entries; every
inequality verifier must come back with nonnegative slack on random
small maps.
"""

import numpy as np
import pytest

from diffeolab import (
    PreconditionError,
    holder,
    holder_norm,
    identity,
    norm_report,
    translate_conjugate,
    verify_derivation,
    verify_domination,
    verify_lip_met,
    verify_subadditivity,
)
from diffeolab.norms import holder_seminorm_samples
from _helpers import small_bump, small_periodic

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
    """The estimator with a fresh difference and absolute value per stride."""
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
        best = max(best, gap / float(alpha(s * step)))
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
