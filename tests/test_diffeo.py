"""Displacement-form diffeomorphisms: algebra, inverses, supports, surgery.

Finite differences and closed-form presets supply the ground truth; the
group laws are exercised on random small bumps and periodic wiggles.
"""

import numpy as np
import pytest

from diffeolab import (
    DEFAULT_TOL,
    ConstructionError,
    Diffeo1,
    PreconditionError,
    compose,
    compose_all,
    from_dict,
    from_preset,
    identity,
    inverse,
    post_translate,
    support_interval,
    to_dict,
    translate_conjugate,
    translation,
)
from diffeolab.diffeo import (TAILS, _build_adaptive, _hermite_tables,
                              fragment, refined_grid)
from diffeolab.jets import MAX_ORDER
from _helpers import c0_gap, small_bump, small_periodic

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


# -- construction and evaluation ----------------------------------------------

def test_identity_evaluates_to_the_coordinate():
    f = identity(2)
    xs = np.linspace(-5.0, 5.0, 101)
    np.testing.assert_array_equal(f(xs), xs)
    jets = f.jet_at(xs, 2)
    np.testing.assert_array_equal(jets[:, 0], xs)
    assert np.all(jets[:, 1] == 1.0) and np.all(jets[:, 2] == 0.0)
    assert support_interval(f) is None


def test_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        Diffeo1("weird", 0.0, 1.0, 2, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        Diffeo1("compact", 0.0, 1.0, 2, np.zeros((5, 2)))  # k+1 columns
    with pytest.raises(ValueError):
        Diffeo1("periodic", 0.0, 2.0, 2, np.zeros((5, 3)))  # unit period
    bad = np.zeros((5, 3))
    bad[0, 0] = 0.5  # compact tails must vanish at the ends
    with pytest.raises(ValueError):
        Diffeo1("compact", 0.0, 1.0, 2, bad)


def test_constructor_rejects_orientation_loss():
    # a displacement steeper than -1 folds the line
    with pytest.raises(PreconditionError):
        from_preset("smooth_bump_displacement", {"eps": 2.0, "radius": 1.0})


def test_bump_preset_geometry():
    eps = 1e-3
    f = small_bump(eps, center=0.5, radius=1.0)
    xs = np.linspace(-2.0, 3.0, 4001)
    disp = f(xs) - xs
    assert np.max(np.abs(disp)) == pytest.approx(eps, abs=1e-9 * eps)
    supp = support_interval(f)
    assert supp[0] >= -0.5 - f.h and supp[1] <= 1.5 + f.h
    assert f.tail == "compact"


def test_periodic_preset_commutes_with_unit_shift():
    f = from_preset("periodic_wiggle", {"eps": 1e-3, "freq": 2})
    xs = np.random.default_rng(0).uniform(-3.0, 3.0, 1000)
    gap = np.abs(f(xs + 1.0) - f(xs) - 1.0)
    assert float(np.max(gap)) <= 1e-10


def test_evaluate_returns_full_jets():
    f = small_bump(1e-3)
    out = f.jet_at(np.linspace(-0.5, 0.5, 7))
    assert out.shape == (7, 3)
    np.testing.assert_allclose(out[:, 1], 1.0, atol=2e-3)


def _random_map(tail, k, rng):
    """A map of the given tail class with random node jets on 7 nodes,
    spaced 1/3 apart (1/6 for the periodic class)."""
    a, b = (0.0, 1.0) if tail == "periodic" else (-0.5, 1.5)
    jets = 0.1 * rng.standard_normal((7, k + 1))
    if tail == "compact":
        jets[[0, -1]] = 0.0
    elif tail == "periodic":
        jets[-1] = jets[0]
    else:
        jets[0] = 0.0
        jets[3] = jets[-1]  # node b - 1 starts the repeating profile
    return Diffeo1(tail, a, b, k, jets)


def _probe_points(f):
    """Both grid ends, a node, points inside cells and outside the grid."""
    inside = f.a + f.h * np.array([0.37, 2.5, 5.91])
    return np.concatenate([[f.a, f.b, f.a + 3 * f.h], inside,
                           [f.a - 0.7, f.b + 0.3, f.b + 2.6]])


def _polyval_oracle(f, xs):
    """Displacement jets point by point: the tail law folds x into the
    grid, then np.polyval runs the same Horner steps as the engine on the
    cell's coefficients, highest power first."""
    tables = _hermite_tables(f.jets, f.h)
    out = np.zeros(xs.shape + (f.k + 1,))
    for p in np.ndindex(xs.shape):
        x = xs[p]
        if f.tail == "periodic":
            x = f.a + np.mod(x - f.a, 1.0)
        elif x <= f.a or (f.tail == "compact" and x >= f.b):
            continue
        elif x > f.b:
            x = (f.b - 1.0) + np.mod(x - (f.b - 1.0), 1.0)
        pos = (x - f.a) / f.h
        cell = min(int(pos), f.n - 2)
        for j in range(f.k + 1):
            out[p + (j,)] = (np.polyval(tables[j][::-1, cell], pos - cell)
                             / f.h ** j)
    return out


@pytest.mark.parametrize("tail", TAILS)
def test_displacement_jets_matches_per_cell_polyval_bitwise(tail):
    rng = np.random.default_rng(23)
    for k in range(1, MAX_ORDER + 1):
        f = _random_map(tail, k, rng)
        xs = _probe_points(f)
        want = _polyval_oracle(f, xs)
        np.testing.assert_array_equal(f.displacement_jets(xs), want)
        np.testing.assert_array_equal(f.displacement_jets(xs.reshape(3, 3)),
                                      want.reshape(3, 3, k + 1))
        for x, w in zip(xs, want):
            np.testing.assert_array_equal(f.displacement_jets(float(x)), w)


@pytest.mark.parametrize("tail", TAILS)
def test_lower_order_request_is_a_prefix(tail):
    rng = np.random.default_rng(29)
    for k in range(1, MAX_ORDER + 1):
        f = _random_map(tail, k, rng)
        xs = _probe_points(f).reshape(3, 3)
        full = f.displacement_jets(xs, k)
        for j in range(k):
            np.testing.assert_array_equal(f.displacement_jets(xs, j),
                                          full[..., :j + 1])


# -- composition ----------------------------------------------------------------

def test_composition_agrees_with_pointwise_evaluation():
    f = small_bump(2e-3, center=0.2)
    g = small_bump(1e-3, center=-0.3)
    fg = compose(f, g)
    xs = np.linspace(-2.0, 2.0, 2001)
    np.testing.assert_allclose(fg(xs), f(g(xs)), atol=1e-9)


def test_composition_jets_match_central_differences():
    f = small_bump(5e-4, center=0.1, radius=0.8)
    g = small_bump(8e-4, center=-0.2, radius=1.1)
    fg = compose(f, g)
    xs = np.linspace(-1.2, 1.2, 49)
    h = 1e-5
    d1 = (fg(xs + h) - fg(xs - h)) / (2 * h)
    d2 = (fg(xs + h) - 2 * fg(xs) + fg(xs - h)) / h ** 2
    jets = fg.jet_at(xs, 2)
    np.testing.assert_allclose(jets[:, 1], d1, rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(jets[:, 2], d2, rtol=1e-3, atol=1e-4)


def test_associativity_on_random_triples():
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = small_bump(rng.uniform(1e-4, 1e-3), center=rng.uniform(-0.5, 0.5))
        g = small_bump(rng.uniform(1e-4, 1e-3), center=rng.uniform(-0.5, 0.5))
        h = small_bump(rng.uniform(1e-4, 1e-3), center=rng.uniform(-0.5, 0.5))
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert c0_gap(left, right, -2.0, 2.0) <= 1e-7


def test_support_of_composition_in_joint_hull():
    f = small_bump(1e-3, center=-1.0, radius=0.5)
    g = small_bump(1e-3, center=1.0, radius=0.5)
    supp = support_interval(compose(f, g), slack=1e-9)
    assert supp[0] >= -1.5 - f.h and supp[1] <= 1.5 + g.h


def test_compose_all_against_nested_compose():
    maps = [small_bump(3e-4, center=c) for c in (-0.4, 0.0, 0.4)]
    a = compose_all(maps)
    b = compose(maps[0], compose(maps[1], maps[2]))
    assert c0_gap(a, b, -2.0, 2.0) <= 1e-9


# -- inversion -------------------------------------------------------------------

def test_inverse_round_trip_and_derivative_identity():
    f = small_bump(5e-3, center=0.3, radius=1.2)
    fi = inverse(f)
    xs = np.linspace(-1.5, 2.0, 2001)
    assert float(np.max(np.abs(fi(f(xs)) - xs))) <= 1e-9
    assert float(np.max(np.abs(f(fi(xs)) - xs))) <= 1e-9
    # (f^{-1})'(f(x)) f'(x) = 1
    fx = f.jet_at(xs, 1)
    fix = fi.jet_at(fx[:, 0], 1)
    np.testing.assert_allclose(fix[:, 1] * fx[:, 1], 1.0, atol=1e-9)


def test_inverse_of_periodic_map_is_periodic():
    rng = np.random.default_rng(2)
    g = small_periodic(rng, eps=1e-3)
    gi = inverse(g)
    assert gi.tail == "periodic"
    xs = np.linspace(-2.0, 2.0, 1001)
    assert float(np.max(np.abs(gi(g(xs)) - xs))) <= 1e-9


def test_inverse_distance_is_lipschitz_in_the_maps():
    rng = np.random.default_rng(3)
    for _ in range(10):
        eps = rng.uniform(1e-4, 5e-3)
        f = small_bump(eps, center=rng.uniform(-0.3, 0.3))
        g = small_bump(eps * rng.uniform(0.5, 1.0),
                       center=rng.uniform(-0.3, 0.3))
        xs = np.linspace(-2.0, 2.0, 2001)
        lhs = float(np.max(np.abs(inverse(f)(xs) - inverse(g)(xs))))
        lip = float(np.max(np.abs(inverse(f).jet_at(xs, 1)[:, 1])))
        rhs = lip * float(np.max(np.abs(f(xs) - g(xs))))
        assert lhs <= rhs * (1.0 + 1e-6) + 1e-12


# -- translations ------------------------------------------------------------------

def test_translation_map_and_conjugation():
    t = translation(0.7, 2)
    xs = np.linspace(-2.0, 2.0, 101)
    np.testing.assert_allclose(t(xs), xs + 0.7, atol=1e-14)

    f = small_bump(1e-3, center=0.0, radius=0.8)
    b = 0.9
    shifted = translate_conjugate(f, b)
    # pointwise three-way form T_b o f o T_{-b}
    ys = np.linspace(-2.5, 3.0, 2001)
    tb, tmb = translation(b, 2), translation(-b, 2)
    assert float(np.max(np.abs(shifted(ys) - tb(f(tmb(ys)))))) <= 1e-8
    supp = support_interval(shifted)
    assert supp[0] >= -0.8 + b - f.h and supp[1] <= 0.8 + b + f.h


def test_post_translate_shifts_values():
    f = small_periodic(np.random.default_rng(9), eps=1e-3)
    g = post_translate(f, 0.25)
    xs = np.linspace(-1.5, 1.5, 301)
    np.testing.assert_allclose(g(xs), f(xs) + 0.25, atol=1e-14)
    with pytest.raises(ValueError):
        post_translate(small_bump(1e-3), 0.25)  # periodic class only


def test_adaptive_build_breaking_a_tail_law_is_a_construction_error():
    def fn(xs):  # a compact build whose end jets do not vanish
        out = np.zeros(xs.shape + (3,))
        out[:, 0] = 1e-3 * np.cos(xs)
        out[:, 1] = -1e-3 * np.sin(xs)
        out[:, 2] = -1e-3 * np.cos(xs)
        return out

    with pytest.raises(ConstructionError, match="^compact tail: "):
        _build_adaptive("compact", -1.0, 1.0, 2, fn, 33, DEFAULT_TOL)


def test_adaptive_build_passes_precondition_errors_through():
    u = -2.0 * np.polynomial.Polynomial([0.0, 1.0]) * \
        np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** 4

    def fn(xs):  # flat ends, but the slope 1 + u' reaches -1 at 0
        return np.stack([u(xs), u.deriv(1)(xs), u.deriv(2)(xs)], axis=-1)

    with pytest.raises(PreconditionError, match="orientation lost"):
        _build_adaptive("compact", -1.0, 1.0, 2, fn, 33, DEFAULT_TOL)


# -- serialization ------------------------------------------------------------------

def test_dict_round_trip_is_bit_exact():
    f = small_bump(2e-3, center=0.1, radius=0.9)
    back = from_dict(to_dict(f))
    assert back.tail == f.tail and back.k == f.k
    assert np.array_equal(back.jets, f.jets)
    xs = np.linspace(-1.0, 1.0, 101)
    assert np.array_equal(back(xs), f(xs))


def test_from_dict_accepts_preset_form():
    params = {"eps": 1e-3, "center": 0.0, "radius": 1.0}
    d = {"preset": "smooth_bump_displacement", "params": params}
    assert np.array_equal(from_dict(d).jets,
                          from_preset("smooth_bump_displacement",
                                      params).jets)


def test_from_dict_rejects_unknown_class():
    with pytest.raises(ValueError):
        from_dict({"class": "nope", "grid": {"a": 0.0, "b": 1.0, "n": 2},
                   "k": 1, "jets": [[0.0, 0.0], [0.0, 0.0]]})


# -- fragmentation -------------------------------------------------------------------

def test_fragment_identity_and_single_element():
    assert fragment(identity(2, -1.0, 1.0), [(-2.0, 2.0)]) == []
    f = small_bump(1e-3)
    pieces = fragment(f, [(-2.0, 2.0)])
    assert len(pieces) == 1
    assert np.array_equal(pieces[0].jets, f.jets)


def test_fragment_two_elements_reconstructs():
    f = small_bump(1e-3, center=0.0, radius=1.0)
    cover = [(-1.5, 0.3), (-0.3, 1.5)]
    pieces = fragment(f, cover)
    assert len(pieces) == 2
    recon = compose_all(pieces)
    probe = refined_grid(f, 8)
    assert float(np.max(np.abs(recon(probe) - f(probe)))) <= 1e-8
    for piece, (lo, hi) in zip(pieces, cover):
        supp = support_interval(piece, slack=1e-9)
        assert supp[0] >= lo - piece.h and supp[1] <= hi + piece.h


def test_fragment_refuses_large_maps_and_bad_covers():
    f = small_bump(1e-3)
    with pytest.raises(PreconditionError):
        fragment(f, [(-1.5, 0.0), (0.4, 1.5)])  # gap over the support
    with pytest.raises(PreconditionError):
        fragment(f, [(-0.5, 1.5)])  # does not reach left of the support
    g = small_bump(0.4, radius=1.0)
    with pytest.raises(PreconditionError):
        fragment(g, [(-1.5, 0.3), (-0.3, 1.5)])  # C^1 size above 1/(2K)


if HAVE_HYPOTHESIS:

    @given(st.floats(1e-5, 5e-3), st.floats(-0.5, 0.5), st.floats(0.5, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_inverse_round_trip_property(eps, center, radius):
        f = small_bump(eps, center=center, radius=radius)
        xs = np.linspace(center - radius, center + radius, 257)
        assert float(np.max(np.abs(inverse(f)(f(xs)) - xs))) <= 1e-9
