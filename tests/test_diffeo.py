"""Displacement-form diffeomorphisms: algebra, inverses, supports, surgery.

Finite differences and closed-form presets supply the ground truth; the
group laws are exercised on random small bumps and periodic wiggles.
"""

import base64

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
    holder,
    identity,
    inverse,
    make_config,
    make_rescaler,
    post_translate,
    support_interval,
    to_dict,
    translate_conjugate,
    translation,
)
from diffeolab import diffeo
from diffeolab.diffeo import TAILS, _build_adaptive, _frac
from diffeolab.jets import MAX_ORDER, compose_derivs
from _helpers import (c0_gap, count_solve_steps, hermite_tables, small_bump,
                      small_periodic)

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
    tables = hermite_tables(f.jets, f.h)
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
        # a one-order request is that column of the full request, bitwise
        full = f.displacement_jets(xs)
        for j in range(k + 1):
            one = f.displacement_jets(xs, j, j)
            assert one.shape == xs.shape + (1,)
            assert np.array_equal(one.view(np.uint64),
                                  full[:, j:j + 1].copy().view(np.uint64))


def test_frac_is_np_mod_bitwise():
    rng = np.random.default_rng(29)
    edge = 2.0 ** 53 - 1.0
    special = [0.0, 1e-300, 5e-324, 1.0, 3.0, 0.5, np.nextafter(1.0, 0.0),
               edge, edge - 0.5, 2.0 ** 52 + 0.5, 1e16]
    ys = np.concatenate([special, np.negative(special),
                         rng.uniform(-10.0, 10.0, 100_000),
                         rng.normal(0.0, 1e-9, 100_000),
                         rng.uniform(-1e16, 1e16, 100_000)])
    # int64 views tell -0.0 from +0.0
    assert np.array_equal(_frac(ys).view(np.int64),
                          np.mod(ys, 1.0).view(np.int64))


@pytest.mark.parametrize("tail", ["periodic", "ep"])
def test_folded_jets_are_those_of_the_np_mod_fold(tail, monkeypatch):
    rng = np.random.default_rng(31)
    f = _random_map(tail, 3, rng)
    xs = np.concatenate([rng.uniform(f.a - 40.0, f.b + 40.0, 4097),
                         f.a + np.arange(-20.0, 21.0),
                         [f.b + 1e-13, f.a - 1e-13, f.b + 1e9, f.a - 1e9]])
    got = f.displacement_jets(xs)
    monkeypatch.setattr(diffeo, "_frac", lambda y: np.mod(y, 1.0))
    assert np.array_equal(f.displacement_jets(xs), got)


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


def _compose_pairs(k):
    rng = np.random.default_rng(23)
    return {
        # the shape of spread's slots: f acts on none of g's grid
        "disjoint": (small_bump(2e-3, center=1.5, radius=0.5, k=k),
                     small_bump(1e-3, center=-1.0, radius=0.5, k=k)),
        "overlapping": (small_bump(2e-3, center=0.6, radius=0.9, k=k),
                        small_bump(1e-3, center=-0.3, radius=1.1, k=k)),
        "periodic": (translate_conjugate(small_periodic(rng, k=k), 0.3),
                     small_periodic(rng, k=k)),
    }


@pytest.mark.parametrize("shape", ["disjoint", "overlapping", "periodic"])
@pytest.mark.parametrize("k", [2, 3])
def test_compose_sampler_is_bitwise_the_unmasked_chain_rule(k, shape):
    # the sampler applies f through _apply_letter, which evaluates only the
    # points inside a compact f's grid; the reference evaluates f everywhere
    f, g = _compose_pairs(k)[shape]
    fn = diffeo._displacement_fn_compose(f, g)
    lo, hi = min(f.a, g.a), max(f.b, g.b)
    xs = np.linspace(lo, hi, 4097)
    xs = np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:])])
    for order in (0, k):
        gj = g.jet_at(xs, order)
        want = compose_derivs(f.jet_at(gj[..., 0], order), gj)
        want[..., 0] -= xs
        if order:
            want[..., 1] -= 1.0
        got = fn(xs, order)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_group_operations_refuse_eventually_periodic_maps():
    # ep maps come only from the limit word, which evaluates them; no
    # composition, inversion or support is computed for them
    ep = _random_map("ep", 2, np.random.default_rng(31))
    bump = small_bump(1e-3)
    wiggle = small_periodic(np.random.default_rng(37), eps=1e-3)
    for f, g in ((ep, bump), (bump, ep), (ep, ep), (ep, wiggle),
                 (wiggle, ep)):
        with pytest.raises(ValueError, match="incompatible tail classes"):
            compose(f, g)
    with pytest.raises(ValueError, match="class 'ep'"):
        inverse(ep)
    with pytest.raises(ValueError, match="class 'ep'"):
        ep.inverse_values(np.array([0.5]))
    with pytest.raises(ValueError, match="class 'ep'"):
        support_interval(ep)


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


def test_inverse_values_outside_the_grid():
    # a compact map is the identity outside [a, b], so y is its own root
    # there; a periodic map is solved one period over and shifted back
    f = small_bump(5e-3, center=0.3, radius=1.2)
    ys = np.array([-7.5, f.a - 1e-9, f.a, f.b, f.b + 1e-9, 3.25])
    np.testing.assert_array_equal(f.inverse_values(ys), ys)
    g = small_periodic(np.random.default_rng(5), eps=1e-3)
    ys = np.linspace(-3.2, 5.7, 2001)
    assert float(np.max(np.abs(g(g.inverse_values(ys)) - ys))) <= 1e-12


def test_inverse_solves_take_at_most_three_steps(monkeypatch):
    steps = count_solve_steps(monkeypatch)
    inverse(small_bump(5e-3, center=0.3, radius=1.2))
    inverse(make_rescaler(make_config(2, holder(0.5), 4)))
    assert steps and max(steps) <= 3


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
    def fn(xs, order):  # a compact build whose end jets do not vanish
        out = np.zeros(xs.shape + (3,))
        out[:, 0] = 1e-3 * np.cos(xs)
        out[:, 1] = -1e-3 * np.sin(xs)
        out[:, 2] = -1e-3 * np.cos(xs)
        return out[:, :order + 1]

    with pytest.raises(ConstructionError, match="^compact tail: "):
        _build_adaptive("compact", -1.0, 1.0, 2, fn, 33, DEFAULT_TOL)


def test_adaptive_build_passes_precondition_errors_through():
    u = -2.0 * np.polynomial.Polynomial([0.0, 1.0]) * \
        np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** 4

    def fn(xs, order):  # flat ends, but the slope 1 + u' reaches -1 at 0
        jets = np.stack([u(xs), u.deriv(1)(xs), u.deriv(2)(xs)], axis=-1)
        return jets[..., :order + 1]

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


def _extreme_map(tail, k):
    """A map of the given tail class on 9 nodes whose node jets hold
    +-1e300, -0.0 and the least subnormal at nodes 1 and 2, away from the
    boundary rows and from the ep fold at node 4."""
    a, b = (0.0, 1.0) if tail == "periodic" else (-1.0, 1.0)
    jets = 1e-3 * np.random.default_rng(k).standard_normal((9, k + 1))
    jets[1, :2] = 1e300, 5e-324
    jets[2, :2] = -1e300, -0.0
    if tail == "compact":
        jets[[0, -1]] = 0.0
    elif tail == "periodic":
        jets[-1] = jets[0]
    else:
        jets[0] = 0.0
        jets[4] = jets[-1]  # node b - 1 starts the repeating profile
    return Diffeo1(tail, a, b, k, jets)


@pytest.mark.parametrize("tail", TAILS)
@pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
def test_dict_round_trip_keeps_every_bit(tail, k):
    # the ep constructor evaluates its fold, whose high-order Hermite
    # coefficients overflow on these payloads; only the bytes matter here
    with np.errstate(over="ignore", invalid="ignore"):
        f = _extreme_map(tail, k)
        d = to_dict(f)
        back = from_dict(d)
    assert isinstance(d["jets"], str) and d["jets"].isascii()
    assert (back.tail, back.a, back.b, back.k) == (f.tail, f.a, f.b, f.k)
    assert back.jets.tobytes() == f.jets.tobytes()
    assert np.signbit(back.jets[2, 1]) and back.jets[1, 1] == 5e-324


def _bump_dict():
    return to_dict(small_bump(2e-3, center=0.1, radius=0.9))


def _with_jets(jets):
    d = _bump_dict()
    d["jets"] = jets
    return d


@pytest.mark.parametrize("name,d", [
    ("not base64", _with_jets("not base64!")),
    ("one byte short",
     _with_jets(base64.b64encode(
         base64.b64decode(_bump_dict()["jets"])[:-1]).decode("ascii"))),
    ("a list", _with_jets(small_bump(2e-3).jets.tolist())),
    ("NaN", _with_jets(base64.b64encode(np.full(
        (513, 3), np.nan).astype("<f8").tobytes()).decode("ascii"))),
    ("no jets", {key: v for key, v in _bump_dict().items() if key != "jets"}),
    ("a text node count",
     {**_bump_dict(), "grid": {"a": -1.0, "b": 1.0, "n": "many"}}),
    ("an unknown preset",
     {"preset": "scaled_family",
      "params": {"inner": {"preset": "smooth_bump_displacement",
                           "params": {"eps": 1e-3}},
                 "scale": 2.0}}),
])
def test_from_dict_refuses_malformed_maps(name, d):
    with pytest.raises(ValueError, match="^malformed map"):
        from_dict(d)


def test_from_dict_rejects_unknown_class():
    jets = base64.b64encode(np.zeros((2, 2)).tobytes()).decode("ascii")
    with pytest.raises(ValueError, match="unknown tail class 'nope'"):
        from_dict({"class": "nope", "grid": {"a": 0.0, "b": 1.0, "n": 2},
                   "k": 1, "jets": jets})


if HAVE_HYPOTHESIS:

    @given(st.floats(1e-5, 5e-3), st.floats(-0.5, 0.5), st.floats(0.5, 1.5))
    @settings(max_examples=25, deadline=None)
    def test_inverse_round_trip_property(eps, center, radius):
        f = small_bump(eps, center=center, radius=radius)
        xs = np.linspace(center - radius, center + radius, 257)
        assert float(np.max(np.abs(inverse(f)(f(xs)) - xs))) <= 1e-9
