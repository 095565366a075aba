"""Concave moduli: oscillation profiles, majorants, tameness, algebra laws.

Ground truth used here: closed-form oscillation of x^2 on [0, 1], the
power rule for scale functionals, and direct concavity/monotonicity
checks on sampled grids.
"""

import tracemalloc

import numpy as np
import pytest

from diffeolab import (
    DEFAULT_TOL,
    PreconditionError,
    check_modulus_laws,
    classify_tameness,
    concavity_slack,
    holder,
    lcm_sandwich_slack,
    least_concave_majorant,
    log_refined_holder,
    modulus_from_dict,
    oscillation_modulus,
)
from diffeolab.modulus import (
    ConstructionFailure,
    TamenessVerdict,
    default_abscissae,
    default_t_grid,
    tameness_functional,
)
from _helpers import classify_side_per_t


# -- basic scale families ------------------------------------------------------

def test_power_modulus_values_and_concavity():
    w = holder(0.5)
    assert abs(w(4.0) - 2.0) < 1e-15
    assert abs(w(0.25) - 0.5) < 1e-15
    assert concavity_slack(w, default_abscissae()) >= 0.0


def test_power_modulus_rejects_bad_exponent():
    for s in (0.0, -0.3, 1.2):
        with pytest.raises(ValueError):
            holder(s)
    holder(1.0)  # the boundary case is legitimate


def test_log_refined_family_construction():
    w = log_refined_holder(0.5, 0.3)
    xs = default_abscissae()
    assert np.all(w(xs) > 0.0)
    assert concavity_slack(w, xs) >= -1e-12
    # the exponent pair is ordered lexicographically; (1, 1) is out of range
    with pytest.raises(ValueError):
        log_refined_holder(1.0, 1.0)
    assert issubclass(ConstructionFailure, ValueError)


def test_default_abscissae_shape():
    xs = default_abscissae()
    assert xs.shape == (512,)
    assert xs[0] == pytest.approx(1e-9) and xs[-1] == pytest.approx(1e3)
    assert np.all(np.diff(xs) > 0)


# -- oscillation profiles and the least concave majorant -----------------------

def test_oscillation_of_square_matches_closed_form():
    xs = np.linspace(0.0, 1.0, 201)
    ts, mus = oscillation_modulus(xs, xs ** 2)
    # largest |x^2 - y^2| over |x - y| <= t on [0, 1] is 1 - (1 - t)^2
    np.testing.assert_allclose(mus, 2.0 * ts - ts ** 2, atol=1e-14)
    i = int(np.argmin(np.abs(ts - 0.5)))
    assert mus[i] == pytest.approx(0.75, abs=1e-14)
    assert np.all(np.diff(mus) >= 0.0)


def _pair_oscillation(xs, fs):
    """Every sample pair sorted by separation, the running max of |f(x)-f(y)|
    kept at the last of each run of equal separations: O(n^2) memory."""
    order = np.argsort(xs)
    xs, fs = xs[order], fs[order]
    i, j = np.triu_indices(xs.shape[0], k=1)
    sep = xs[j] - xs[i]
    dif = np.abs(fs[j] - fs[i])
    rank = np.argsort(sep, kind="stable")
    sep, dif = sep[rank], dif[rank]
    running = np.maximum.accumulate(dif)
    keep = np.append(np.abs(np.diff(sep)) > 1e-15, True)
    return sep[keep], running[keep]


@pytest.mark.parametrize("n,hi", [(101, 1.0), (161, 4.0), (2001, 1.0)])
def test_oscillation_matches_the_pair_oracle_bitwise(n, hi):
    rng = np.random.default_rng(n)
    xs = np.linspace(0.0, hi, n)
    for fs in (xs ** 2, np.cumsum(np.abs(rng.normal(0.0, 0.1, n))),
               np.sin(7.0 * xs) + rng.normal(0.0, 1e-3, n)):
        ts, mus = oscillation_modulus(xs, fs)
        want_ts, want_mus = _pair_oscillation(xs, fs)
        assert ts.shape == (n - 1,)
        assert np.array_equal(ts, want_ts)
        assert np.array_equal(mus, want_mus)


def test_oscillation_memory_stays_linear():
    # every pair at once would hold n^2 = 16e6 floats, 128 MB
    xs = np.linspace(0.0, 1.0, 4001)
    fs = np.sin(9.0 * xs)
    tracemalloc.start()
    try:
        oscillation_modulus(xs, fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_oscillation_refuses_a_nonuniform_grid():
    xs = np.linspace(0.0, 1.0, 11)
    with pytest.raises(PreconditionError, match="uniform sample grid"):
        oscillation_modulus(xs ** 2, xs)
    with pytest.raises(PreconditionError, match="uniform sample grid"):
        oscillation_modulus(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="at least two samples"):
        oscillation_modulus(xs[:1], xs[:1])
    with pytest.raises(ValueError, match="finite"):
        oscillation_modulus(xs, np.where(xs > 0.5, np.nan, xs))


def test_oscillation_of_constant_is_zero():
    xs = np.linspace(0.0, 1.0, 101)
    ts, mus = oscillation_modulus(xs, np.full(101, 3.7))
    assert np.all(mus == 0.0)


def test_majorant_of_concave_profile_is_the_profile():
    ts = np.linspace(0.0, 3.0, 301)[1:]
    mus = np.minimum(ts, 1.0)
    beta0, beta = least_concave_majorant(ts, mus)
    np.testing.assert_allclose(beta0(ts), mus, atol=1e-12)
    # the strict version dominates both the profile and the identity
    assert np.all(beta(ts) >= beta0(ts) - 1e-15)
    assert np.all(beta(ts) >= ts - 1e-15)


def test_majorant_sandwich_on_square_profile():
    xs = np.linspace(0.0, 1.0, 201)
    ts, mus = oscillation_modulus(xs, xs ** 2)
    beta0, _ = least_concave_majorant(ts, mus)
    lo, hi = lcm_sandwich_slack(ts, mus, beta0)
    assert lo >= -1e-12 and hi >= -1e-12
    assert concavity_slack(beta0, ts) >= -1e-12


def test_majorant_sandwich_on_random_cumulative_profiles():
    rng = np.random.default_rng(7)
    for _ in range(5):
        xs = np.linspace(0.0, 4.0, 161)
        fs = np.cumsum(np.abs(rng.normal(0.0, 0.1, 161)))
        ts, mus = oscillation_modulus(xs, fs)
        beta0, _ = least_concave_majorant(ts, mus)
        lo, hi = lcm_sandwich_slack(ts, mus, beta0)
        assert lo >= -1e-12 and hi >= -1e-12


# -- tameness ------------------------------------------------------------------

def test_power_moduli_are_tame_on_both_sides():
    for s in (0.25, 0.5, 0.75):
        v = classify_tameness(holder(s))
        assert v.sup_tame.label() == "Yes"
        assert v.sub_tame.label() == "Yes"
        assert v.sup_tame.margin < 1.0


def test_identity_modulus_tameness_is_one_sided():
    v = classify_tameness(holder(1.0))
    assert v.sub_tame.label() == "Yes"
    assert v.sup_tame.label() == "Inconclusive"


def test_tameness_functional_power_rule():
    xs = default_abscissae()
    for s in (0.25, 0.5, 0.75):
        w = holder(s)
        for t in default_t_grid(12):
            sup_vals = tameness_functional(w, t, xs, "sup")
            np.testing.assert_allclose(sup_vals, t ** (1.0 - s), atol=1e-10)
            sub_vals = tameness_functional(w, t, xs, "sub")
            np.testing.assert_allclose(sub_vals, t ** s, atol=1e-10)


def classify_tameness_per_t(alpha, margin):
    t_grid, x_grid = default_t_grid(), default_abscissae()
    return TamenessVerdict(
        sup_tame=classify_side_per_t(alpha, t_grid, x_grid, "sup", margin),
        sub_tame=classify_side_per_t(alpha, t_grid, x_grid, "sub", margin))


def _oracle_moduli():
    xs = np.linspace(0.0, 4.0, 161)
    fs = np.cumsum(np.abs(np.random.default_rng(3).normal(0.0, 0.1, 161)))
    beta0, beta = least_concave_majorant(*oscillation_modulus(xs, fs))
    return ([holder(s) for s in np.linspace(0.1, 1.0, 10)]
            + [log_refined_holder(0.5, 0.3), log_refined_holder(0.3, 0.1),
               modulus_from_dict(beta0.to_dict()), beta])


def test_tameness_verdicts_are_those_of_the_per_t_loop():
    margin = DEFAULT_TOL.tameness_margin
    verdicts = set()
    for alpha in _oracle_moduli():
        got = classify_tameness(alpha)
        assert got == classify_tameness_per_t(alpha, margin), alpha
        verdicts.add((got.sup_tame.yes, got.sub_tame.yes))
    assert len(verdicts) > 1


def test_tameness_verdict_serializes():
    d = classify_tameness(holder(0.5)).to_dict()
    assert d["sup_tame"]["verdict"] == "Yes"
    assert d["sub_tame"]["verdict"] == "Yes"


# -- algebra laws ---------------------------------------------------------------

def test_modulus_laws_hold_for_standard_families():
    grid = np.geomspace(1e-4, 1e2, 61)
    for w in (holder(0.25), holder(0.5), log_refined_holder(0.5, 0.3)):
        for c in (0.3, 2.0, 7.0):
            report = check_modulus_laws(w, c, grid)
            assert report.passed, report.to_dict()
            assert report.worst_lower >= 0.0
            assert report.worst_upper >= 0.0


# -- serialization ---------------------------------------------------------------

def test_modulus_round_trips_through_dict():
    xs = np.geomspace(1e-6, 10.0, 200)
    w = holder(0.5)
    back = modulus_from_dict(w.to_dict())
    np.testing.assert_allclose(back(xs), w(xs), rtol=1e-15)

    profile = np.linspace(0.0, 1.0, 201)
    beta0, _ = least_concave_majorant(
        *oscillation_modulus(profile, profile ** 2))
    back2 = modulus_from_dict(beta0.to_dict())
    ts = np.linspace(1e-3, 0.9, 50)
    np.testing.assert_allclose(back2(ts), beta0(ts), rtol=0, atol=1e-15)


def test_modulus_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        modulus_from_dict({"kind": "nope"})
