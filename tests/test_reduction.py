"""Rolling up, spreading, norm reduction, and the conjugacy word.

The central round trip: rolling up the spread of a recentered periodic
map gives that map back.  The limit word must agree with the quotient of
the rolled-up maps on the far right and intertwine the unit shift.
"""

import dataclasses
import math

import numpy as np
import pytest

from diffeolab import (
    DEFAULT_TOL,
    ConstructionError,
    Diffeo1,
    PreconditionError,
    blend_toward_identity,
    compose,
    compose_all,
    conjugator,
    holder,
    identity,
    inverse,
    isotopy_step,
    lambda_limit,
    make_config,
    post_translate,
    reduce_norm,
    reduction_sweep,
    refined_grid,
    roll_equivariance_residual,
    roll_norm_check,
    roll_params,
    roll_up,
    spread,
    spread_once,
    support_interval,
    sweep_profile,
)
from diffeolab import (calibrated_bump, from_preset, holder_norm, reduction,
                       rescaler_params, smallness_threshold)
from diffeolab.config import EVAL_DENSITY
from diffeolab.diffeo import _apply_letter, _build_adaptive, _grid_cells
from diffeolab.fixpoint import _renorm_full
from diffeolab.jets import compose_derivs
from diffeolab.reduction import _sup_norms, _word, spreading_smallness
from _helpers import small_bump, small_periodic

ALPHA = holder(0.5)


# -- the periodic cutoff and the configuration ---------------------------------

def test_cutoff_profile_plateaus():
    z = reduction.PlateauBump()
    near_ints = np.array([-1.05, 0.0, 0.08, 1.0, 2.95])
    np.testing.assert_array_equal(z(near_ints), np.ones(5))
    near_halves = np.array([-0.5, 0.45, 0.55, 1.5])
    np.testing.assert_array_equal(z(near_halves), np.zeros(4))
    xs = np.linspace(0.0, 1.0, 301)
    assert np.all(z(xs) >= 0.0) and np.all(z(xs) <= 1.0)
    np.testing.assert_allclose(z(xs), z(xs + 3.0), rtol=0, atol=1e-12)


def test_cutoff_jets_are_those_of_the_np_mod_fold(monkeypatch):
    z = reduction.PlateauBump()
    xs = np.concatenate([np.random.default_rng(37).uniform(-50.0, 50.0, 4097),
                         np.arange(-20.0, 21.0) + 0.1, [-1e-13, -1e9 - 0.45]])
    got = z.jets(xs, 3)
    monkeypatch.setattr(reduction, "_frac", lambda y: np.mod(y, 1.0))
    # a fresh instance: z's cache would hand back `got` itself
    assert np.array_equal(reduction.PlateauBump().jets(xs, 3), got)


def test_cutoff_cache_gives_the_bits_of_a_fresh_instance():
    z = reduction.PlateauBump()
    lattice = np.linspace(0.0, 1.0, 1025)
    for xs, order in [(lattice, 2), (lattice, 2), (lattice + 0.25, 2),
                      (lattice, 3), (lattice[:513], 2), (lattice, 1),
                      (lattice.reshape(25, 41), 2), (lattice, 2)]:
        got = z.jets(xs, order)
        want = reduction.PlateauBump().jets(xs, order)
        assert got.shape == xs.shape + (order + 1,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cutoff_cache_is_bounded_and_cannot_be_poisoned():
    z = reduction.PlateauBump()
    for i in range(3 * reduction.PlateauBump._CACHED):
        z.jets(np.linspace(0.0, 1.0, 129) + i / 7.0, 2)
        assert len(z._cache) <= reduction.PlateauBump._CACHED
    xs = np.linspace(-0.5, 0.5, 257)
    got = z.jets(xs, 2)
    with pytest.raises(ValueError):
        got[0, 0] = 7.0
    with pytest.raises(ValueError):
        z(xs)[0] = 7.0
    # the key is a copy of the points: changing them after the call asks
    # for another lattice
    xs[100] = 0.3
    fresh = reduction.PlateauBump()
    assert np.array_equal(z.jets(xs, 2), fresh.jets(xs, 2))
    assert np.array_equal(z.jets(np.linspace(-0.5, 0.5, 257), 2), got)


def test_config_windows():
    cfg = make_config(2, ALPHA, 4)
    assert cfg.B == 1 and cfg.D == (-2.0, 2.0) and cfg.E == (-8.0, 8.0)
    cfg1 = make_config(1, ALPHA, 2)
    assert cfg1.B == 2 and cfg1.D == (-4.0, 4.0) and cfg1.E == (-2.0, 2.0)
    assert 0.0 < spreading_smallness() < 1e-2
    assert cfg.eps0 == spreading_smallness()
    assert cfg.delta0 > 0.0


# -- rolling up ------------------------------------------------------------------

def test_roll_up_identity_is_exact():
    rolled = roll_up(identity(2, -0.5, 0.5))
    assert rolled.tail == "periodic"
    assert np.all(rolled.jets == 0.0)
    assert roll_params(identity(2, -0.5, 0.5))[3] == 1


def roll_word(g, x, r, s, order=None):
    """Full-map jets of the rolling-up word (shift by r-s) o (Tg)^s o
    (shift by -r) at the points x, as roll_up's sampler runs it."""
    Y = _word(x - r, [(g, s, 0.0, 1.0)], g.k if order is None else order)
    Y[:, 0] += r - float(s)
    return Y


def test_roll_word_is_stable_in_shift_and_length():
    g = small_bump(1e-3, center=0.3, radius=1.2)
    lo, length, a, s = roll_params(g)
    assert a <= 1e-3 + 1e-12
    assert s >= (length + 1.0) / (1.0 - a) - 1.0
    xs = np.linspace(0.0, 1.0, 1000)
    r = xs - lo
    w1 = roll_word(g, xs, r, s)
    w2 = roll_word(g, xs, r + 1.0, s + 1)
    assert float(np.max(np.abs(w1 - w2))) <= 1e-9
    # the periodic rolled map is the word with integer shifts
    w_int = roll_word(g, xs, np.ceil(xs - lo), s)
    rolled = roll_up(g)
    assert float(np.max(np.abs(rolled.jet_at(xs, 2) - w_int))) <= 2e-8


def test_rolled_displacement_bounded_by_word_budget():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = small_bump(rng.uniform(1e-5, 5e-4),
                       center=rng.uniform(-0.5, 0.5),
                       radius=rng.uniform(0.6, 1.4))
        lo, length, a, s = roll_params(g)
        rolled = roll_up(g)
        c0 = float(np.max(np.abs(rolled.jets[:, 0])))
        assert c0 <= s * a + 1e-12


def test_roll_equivariance_under_translation():
    g = small_bump(2e-4, center=0.1, radius=1.0)
    for b in (0.37, -1.2, 2.0):
        assert roll_equivariance_residual(g, b) <= 1e-9


def test_roll_norm_check_bounds_and_refusal():
    cfg = make_config(2, ALPHA, 1)
    f = small_bump(1e-5, center=0.0, radius=1.2)
    rep = roll_norm_check(f, cfg)
    assert rep.ok, rep.to_dict()
    supp = support_interval(f)
    factor = 4.0 * ((supp[1] - supp[0]) + 1.0)
    assert rep.constants["factor"] == pytest.approx(factor, rel=1e-12)
    with pytest.raises(PreconditionError):
        roll_norm_check(small_bump(5e-2, radius=1.2), cfg)


def _dense_sups(f, lowest, order):
    """The sup pass over every sample of the refined grid: the oracle of
    _sup_norms, which evaluates only the cells that can hold a sup."""
    uj = f.displacement_jets(refined_grid(f, EVAL_DENSITY), order, lowest)
    return tuple(float(np.max(np.abs(uj[:, j])))
                 for j in range(order - lowest + 1))


def _random_map(rng, tail, k, eps, a=-0.7, b=1.3, n=None):
    n = n or int(rng.integers(20, 300))
    jets = eps * rng.standard_normal((n, k + 1))
    if tail == "periodic":
        b = a + 1.0
        jets[-1] = jets[0]
    else:
        jets[[0, -1]] = 0.0
    return Diffeo1(tail, a, b, k, jets)


def _first_grid_with_extra_samples(a, b):
    """The smallest node count n whose grid over [a, b] gives refined_grid
    more than 8 samples per cell plus one, since (b - a) / h rounds up."""
    for n in range(2, 2000):
        if math.ceil((b - a) / ((b - a) / (n - 1))) > n - 1:
            return n
    raise AssertionError("no such grid")


def test_cell_samples_are_those_the_evaluation_puts_in_live_cells():
    # random grids, and live sets of every density, against the cell of
    # every sample as displacement_jets assigns it
    rng = np.random.default_rng(41)
    for trial in range(200):
        tail = ("compact", "periodic")[trial % 2]
        a = float(rng.uniform(-40.0, 40.0))
        b = a + (1.0 if tail == "periodic" else float(rng.uniform(0.01, 30)))
        n = int(rng.integers(2, 400))
        f = Diffeo1(tail, a, b, 1, np.zeros((n, 2)))
        xs = refined_grid(f, EVAL_DENSITY)
        cell, _ = _grid_cells(f._fold(xs)[0], f.a, f.h, n - 1)
        live = rng.uniform(size=n - 1) < rng.choice([0.02, 0.3, 1.0])
        got = reduction._cell_samples(f, xs, live)
        assert np.array_equal(np.unique(got), xs[live[cell]])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("eps", [1e-3, 1e-12, 1e-290])
def test_sup_norms_are_bitwise_the_dense_pass(k, eps):
    rng = np.random.default_rng([k, int(-math.log10(eps))])
    n_extra = _first_grid_with_extra_samples(-0.7, 1.3)
    maps = [_random_map(rng, "compact", k, eps),
            _random_map(rng, "periodic", k, eps),
            _random_map(rng, "compact", k, eps, n=n_extra),
            identity(k, -0.7, 1.3),
            Diffeo1("periodic", 0.0, 1.0, k, np.zeros((65, k + 1)))]
    xs = refined_grid(maps[2], EVAL_DENSITY)
    assert xs.size > 8 * (maps[2].n - 1) + 1
    if k >= 2:
        g = sweep_profile(2, k, eps=eps)
        maps += [g, roll_up(g)]
    for f in maps:
        for lowest in range(k + 1):
            for order in range(lowest, k + 1):
                got = _sup_norms(f, lowest, order)
                want = _dense_sups(f, lowest, order)
                assert [v.hex() for v in got] == [v.hex() for v in want], \
                    (f.tail, f.n, lowest, order)


# -- spreading ---------------------------------------------------------------------

def test_isotopy_steps_telescope():
    rng = np.random.default_rng(32)
    h = small_periodic(rng, eps=2e-4)
    h = post_translate(h, -float(h(np.array(0.0))))
    assert np.array_equal(isotopy_step(h, 1, 1).jets, h.jets)
    for B in (2, 4):
        steps = [isotopy_step(h, B, i) for i in range(1, B + 1)]
        prod = compose_all(list(reversed(steps)))
        xs = np.linspace(0.0, 1.0, 1001)
        assert float(np.max(np.abs(prod(xs) - h(xs)))) <= 1e-8


def test_blend_keeps_a_fraction_of_the_displacement():
    rng = np.random.default_rng(33)
    h = small_periodic(rng, eps=1e-3)
    half = blend_toward_identity(h, 0.5)
    np.testing.assert_allclose(half.jets, 0.5 * h.jets, rtol=0, atol=0)
    assert np.all(blend_toward_identity(h, 0.0).jets == 0.0)


def test_spread_round_trip_recovers_recentered_input():
    rng = np.random.default_rng(34)
    xs = np.linspace(0.0, 1.0, 2049)
    cases = [(2, 1), (1, 2), (1, 4)]
    for k, A in cases:
        cfg = make_config(k, ALPHA, A)
        g = small_periodic(rng, k=k, eps=3e-5)
        sp = spread(g, cfg)
        supp = support_interval(sp, slack=1e-9)
        assert supp[0] >= -2.0 * cfg.B - sp.h
        assert supp[1] <= 2.0 * cfg.B + sp.h
        target = post_translate(g, -float(g(np.array(0.0))))
        rolled = roll_up(sp)
        assert float(np.max(np.abs(rolled(xs) - target(xs)))) <= 1e-6


def _spread_once_through_copies(h):
    """spread_once as it was built from maps: the damped factor h0, its
    inverse, the composite h o h0^{-1}, both factors cut out of their
    windows, and the composite of the two cuts."""
    def damped_fn(xs, order):
        return reduction._leibniz(reduction._ZETA.jets(xs, order),
                                  h.displacement_jets(xs, order))

    def cut(f, a, b):
        jets = f.displacement_jets(np.linspace(a, b, max(129, f.n)), f.k)
        jets[[0, -1]] = 0.0
        return Diffeo1("compact", a, b, f.k, jets)

    h0 = _build_adaptive("periodic", h.a, h.a + 1.0, h.k, damped_fn,
                         max(257, h.n), DEFAULT_TOL)
    h1 = compose(h, inverse(h0))
    return compose(cut(h1, 1.0, 2.0), cut(h0, -1.5, -0.5))


# per-order bounds on |planted - through copies| at the nodes, about four
# times the largest gap measured over k in {1, 2, 3}, A in {1, 2, 4, 8}:
# 3.3e-15, 2.2e-12, 8.2e-10 and 1.2e-6; order 3 reads the noise of the
# copies' own order-0 rounding, amplified by h^-3
_SPREAD_GAPS = (1.5e-14, 1e-11, 4e-9, 5e-6)


@pytest.mark.parametrize("k,A", [(1, 2), (2, 2), (2, 8), (3, 4)])
def test_spread_once_plants_what_the_copies_planted(k, A):
    cfg = make_config(k, ALPHA, A)
    if k == 1:
        g = calibrated_bump(0.6 * cfg.delta0, ALPHA, 1, center=0.1)
    else:
        g = sweep_profile(A, k, eps=1e-7)
        g = sweep_profile(A, k, eps=0.6e-7 * cfg.delta0
                          / holder_norm(g, ALPHA, k))
    r = roll_up(g)
    h = post_translate(r, -float(r(np.array(0.0))))
    if cfg.B > 1:
        h = isotopy_step(h, cfg.B, cfg.B)
        h = post_translate(h, -float(h(np.array(0.0))))
    got = spread_once(h, cfg)
    want = _spread_once_through_copies(h)
    assert (got.tail, got.a, got.b, got.n) == (want.tail, want.a, want.b,
                                               want.n)
    gaps = np.max(np.abs(got.jets - want.jets), axis=0)
    assert np.all(gaps <= _SPREAD_GAPS[:k + 1]), gaps


def test_spread_once_refuses_factors_moving_their_window_ends():
    cfg = make_config(2, ALPHA, 2)
    r = roll_up(sweep_profile(2, 2, eps=4e-6))
    h = post_translate(r, -float(r(np.array(0.0))))
    strict = dataclasses.replace(DEFAULT_TOL, surgery_boundary=0.0)
    with pytest.raises(PreconditionError,
                       match="window ends are not fixed to all orders"):
        spread_once(h, cfg, strict)


def test_spread_once_refuses_damped_factors_that_do_not_separate():
    # h0's interpolant on 257 nodes differs from h's on 200 by the
    # interpolation error alone, so h o h0^{-1} moves the window where the
    # cutoff is 1 by 7e-18, which a zero tolerance refuses (on a grid that
    # h0's refines, the residual is exactly 0)
    cfg = make_config(2, ALPHA, 2)
    g = small_periodic(np.random.default_rng(36), k=2, eps=3e-5, n=200)
    h = post_translate(g, -float(g(np.array(0.0))))
    spread_once(h, cfg)
    strict = dataclasses.replace(DEFAULT_TOL, window_fix=0.0)
    with pytest.raises(ConstructionError,
                       match="damped factors do not separate"):
        spread_once(h, cfg, strict)


def test_spread_requires_a_small_periodic_map():
    cfg = make_config(2, ALPHA, 1)
    with pytest.raises(PreconditionError):
        spread(small_bump(1e-4), cfg)  # compact, not periodic
    rng = np.random.default_rng(35)
    big = small_periodic(rng, eps=5e-2)
    with pytest.raises(PreconditionError):
        spread(big, cfg)


# -- norm reduction -------------------------------------------------------------------

def test_reduce_norm_keeps_support_in_the_target_window():
    cfg = make_config(2, ALPHA, 2)
    g = sweep_profile(2, eps=4e-6)
    res = reduce_norm(g, cfg)
    assert res.norm_in > 0.0 and res.norm_out > 0.0
    assert res.ratio == pytest.approx(res.norm_out / res.norm_in, rel=1e-12)
    supp = support_interval(res.map, slack=1e-9)
    assert supp[0] >= cfg.D[0] - res.map.h
    assert supp[1] <= cfg.D[1] + res.map.h
    assert res.rolled_slope < 1.0


def test_reduce_norm_refuses_oversized_input():
    cfg = make_config(2, ALPHA, 2)
    with pytest.raises(PreconditionError):
        reduce_norm(sweep_profile(2, eps=0.3), cfg)


def test_reduction_sweep_rows():
    rows = reduction_sweep([1, 2], 2, ALPHA)
    assert [r["A"] for r in rows] == [1, 2]
    for r in rows:
        assert r["ratio"] == pytest.approx(
            r["plain_ratio"] * r["rescale_factor"], rel=1e-12)
        assert r["norm_in"] > 0.0 and r["norm_out"] > 0.0
    assert rows[1]["ratio"] < rows[0]["ratio"]


def _quarter_ball_profile(A, k, scale=1.0):
    """sweep_profile(A, k) at scale times a quarter of the ball radius."""
    per_eps = holder_norm(sweep_profile(A, k, 1e-7), ALPHA, k) / 1e-7
    eps = 0.25 * smallness_threshold(k) / per_eps
    return sweep_profile(A, k, scale * eps)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("A", [1, 2, 4, 8])
def test_reduced_norm_is_linear_in_the_amplitude(k, A):
    # at these sizes the reduction is linear to first order, so doubling
    # the input doubles the output norm; rounding noise in the rolled map's
    # top jets would not scale with the input
    cfg = make_config(k, ALPHA, A)
    once = reduce_norm(_quarter_ball_profile(A, k), cfg).norm_out
    twice = reduce_norm(_quarter_ball_profile(A, k, 2.0), cfg).norm_out
    assert 1.98 <= twice / once <= 2.02


def test_roll_up_starts_at_twice_the_input_density():
    # the sweep family has the same node spacing at every width, so its
    # rolled maps have the same grid whatever the width
    sizes = {roll_up(_quarter_ball_profile(A, k)).n
             for k in (2, 3) for A in (1, 2, 4, 8)}
    assert sizes == {513}
    # a coarse input, the k=2, A=4 search's conjugated iterate, starts
    # (and stays) at the 129-node floor
    cfg = make_config(2, ALPHA, 4)
    f = calibrated_bump(0.7 * cfg.delta0, ALPHA, 2, center=0.05)
    step = _renorm_full(identity(2, -2.0, 2.0), f, rescaler_params(cfg),
                        cfg, DEFAULT_TOL)
    assert 2.0 / step.conjugated.h + 1.0 < 129
    assert roll_up(step.conjugated).n == 129


# -- the conjugacy word ----------------------------------------------------------------

def test_lambda_limit_of_equal_maps_is_identity():
    cfg = make_config(2, ALPHA, 2)
    g = sweep_profile(2, eps=4e-6)
    lam = lambda_limit(g, g, cfg)
    xs = np.linspace(-6.0, 8.0, 1000)
    assert float(np.max(np.abs(lam.map(xs) - xs))) <= 1e-9
    assert lam.intertwine_residual <= 1e-9


def test_lambda_limit_agrees_with_rolled_quotient_on_the_right():
    cfg = make_config(2, ALPHA, 2)
    g = sweep_profile(2, eps=4e-6)
    v = reduce_norm(g, cfg).map
    lam = lambda_limit(g, v, cfg)
    assert lam.intertwine_residual <= 1e-7
    ru, rv = roll_up(g), roll_up(v)
    xs = np.linspace(2.0 * cfg.A + 0.5, 2.0 * cfg.A + 3.5, 400)
    want = rv(inverse(ru)(xs))
    assert float(np.max(np.abs(lam.map(xs) - want))) <= 1e-7
    # the translation read off the word's periodic tail is the rolled
    # quotient's
    xs_p = np.linspace(0.0, 1.0, 2049)
    tvals = compose(rv, inverse(ru))(xs_p) - xs_p
    b = float(np.mean(tvals))
    assert abs(lam.translation - b) <= 1e-14
    assert abs(lam.translation_dev
               - float(np.max(np.abs(tvals - b)))) <= 1e-12
    # identity on the far left
    left = np.linspace(-2.0 * cfg.A - 3.0, -2.0 * cfg.A, 200)
    assert float(np.max(np.abs(lam.map(left) - left))) <= 1e-9


# The reference words: every letter applied to every point.

def _plain_letter(g, Y, order):
    return compose_derivs(g.jet_at(Y[..., 0], order), Y)


def _plain_roll_word(g, x, r, s, order):
    Y = np.zeros(x.shape + (order + 1,))
    Y[..., 0] = x - r
    Y[..., 1] = 1.0
    for _ in range(s):
        Y = _plain_letter(g, Y, order)
        Y[..., 0] += 1.0
    Y[..., 0] += r - float(s)
    return Y


def _plain_lambda_map(u, v, A, s):
    k = u.k
    u_inv = inverse(u)

    def fn(xs, order):
        Y = np.zeros(xs.shape + (order + 1,))
        Y[..., 0] = xs
        if order >= 1:
            Y[..., 1] = 1.0
        for _ in range(s):
            Y[..., 0] -= 1.0
            Y = _plain_letter(u_inv, Y, order)
        for _ in range(s):
            Y = _plain_letter(v, Y, order)
            Y[..., 0] += 1.0
        Y[..., 0] -= xs
        if order >= 1:
            Y[..., 1] -= 1.0
        return Y

    lo, hi = -2.0 * A, 2.0 * A + 2.5
    # the largest power of two, at least 4, not above the coarser density
    per_unit = 4
    while 2 * per_unit <= 1.0 / max(u.h, v.h):
        per_unit *= 2
    n0 = int(round(per_unit * (hi - lo))) + 1
    return _build_adaptive("ep", lo, hi, k, fn, n0, DEFAULT_TOL)


@pytest.mark.parametrize("k, A", [(2, 4), (3, 2)])
def test_lambda_limit_word_is_bitwise_the_unmasked_word(k, A):
    cfg = make_config(k, ALPHA, A)
    if k == 2:
        u = sweep_profile(A, k)
        v = reduce_norm(u, cfg).map
    else:
        u = sweep_profile(A, k, eps=1e-7)
        v = sweep_profile(A, k, eps=5e-8, phase=1.0)
    lam = lambda_limit(u, v, cfg)
    ref = _plain_lambda_map(u, v, A, lam.word_length // 2)
    assert (lam.map.a, lam.map.b, lam.map.n) == (ref.a, ref.b, ref.n)
    assert np.array_equal(lam.map.jets, ref.jets)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("A", [2, 4, 8])
def test_word_and_witness_grids_hold_the_period_end_and_the_cut(
        k, A, monkeypatch):
    # both builds start at a power-of-two density, so the word's stored
    # period end and the conjugator's cut 2A + 3/4 fall on grid nodes; the
    # pair is the one a search step hands to conjugator
    cfg = make_config(k, ALPHA, A)
    f = calibrated_bump(0.7 * cfg.delta0, ALPHA, k, center=0.1)
    step = _renorm_full(identity(k, -2.0, 2.0), f, rescaler_params(cfg),
                        cfg, DEFAULT_TOL)
    g, red = step.conjugated, step.map
    starts = []

    def recording(tail, lo, hi, k, fn, n0, tol):
        starts.append((hi - lo) / (n0 - 1))
        return _build_adaptive(tail, lo, hi, k, fn, n0, tol)

    monkeypatch.setattr(reduction, "_build_adaptive", recording)
    cert = conjugator(g, red, cfg)
    lam = lambda_limit(g, red, cfg).map
    h_word, h_witness = starts[-1], starts[1]
    assert 1.0 / h_word in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
    assert h_word >= max(g.h, red.h) > h_word / 2.0 or h_word == 0.25
    assert h_witness == lam.h
    for m in (lam, cert.lam):
        for x in (m.b - 1.0, 2.0 * A + 0.75):
            assert np.count_nonzero(m.nodes == x) == 1, (m.tail, x)


def test_roll_word_is_bitwise_the_unmasked_word_on_unsorted_points():
    rng = np.random.default_rng(41)
    g = small_bump(2e-3, center=0.4, radius=0.8)
    xs = rng.permutation(np.linspace(-3.0, 4.0, 1501))
    r = rng.integers(-2, 3, xs.size).astype(float) + np.ceil(xs - g.a)
    _, _, _, s = roll_params(g)
    for order in (1, 2):
        want = _plain_roll_word(g, xs, r, s, order)
        assert np.array_equal(roll_word(g, xs, r, s, order), want)


def test_a_letter_on_a_grid_wider_than_its_support():
    bump = small_bump(1e-3, center=0.2, radius=0.7, n=257)
    xs = np.linspace(-3.0, 3.0, 1537)
    jets = np.zeros((xs.size, 3))
    on = (xs > bump.a) & (xs < bump.b)
    jets[on] = bump.displacement_jets(xs[on], 2)
    wide = Diffeo1("compact", -3.0, 3.0, 2, jets)
    assert support_interval(wide)[1] - support_interval(wide)[0] < 2.0
    rng = np.random.default_rng(42)
    pts = rng.uniform(-5.0, 5.0, 801)
    Y = np.stack([pts, rng.uniform(0.5, 2.0, pts.size),
                  rng.normal(size=pts.size)], axis=1)
    want = _plain_letter(wide, Y, 2)
    _apply_letter(wide, Y, 2)
    assert np.array_equal(Y, want)
    # the inverse of a compact map is a letter of the word too
    u_inv = inverse(wide)
    Y = want.copy()
    want = _plain_letter(u_inv, Y, 2)
    _apply_letter(u_inv, Y, 2)
    assert np.array_equal(Y, want)


def test_a_batch_outside_the_letter_grid_is_left_alone():
    g = small_bump(1e-3, center=0.0, radius=0.5)
    pts = np.concatenate([np.linspace(-4.0, g.a, 50),
                          np.linspace(g.b, 4.0, 50)])
    Y = np.stack([pts, np.full(pts.size, 1.5), np.full(pts.size, -0.25)],
                 axis=1)
    before = Y.copy()
    _apply_letter(g, Y, 2)
    assert np.array_equal(Y, before)
    assert np.array_equal(Y, _plain_letter(g, before, 2))


def _scalar_word_length(u, A):
    """The word length s of lambda_limit(u, u) as it was found with a
    scalar loop, one letter of (shifted u)^-1 at a time on the point hi."""
    (a,) = _sup_norms(u, order=0)
    hi = 2.0 * A + 2.5
    u_inv = inverse(u)
    s = int(np.ceil((4.0 * A + 1.5) / (1.0 - a)))
    while True:
        y = hi
        for _ in range(s):
            y = float(u_inv(np.array(y - 1.0)))
        if y <= -2.0 * A:
            return s
        s += int(np.ceil((y + 2.0 * A) / (1.0 - a))) + 1


def test_the_word_length_probe_is_the_scalar_loop(monkeypatch):
    class Stop(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stop

    probes = []
    word = reduction._word

    def spy(x0, runs, order):
        if order == 0:
            probes.append(sum(count for _, count, _, _ in runs))
        return word(x0, runs, order)

    # the probe runs before the word is built; stop there
    monkeypatch.setattr(reduction, "_word", spy)
    monkeypatch.setattr(reduction, "_build_adaptive", stop)
    cases = [(sweep_profile(A, 2), A) for A in (1, 2, 4)]
    cases += [(from_preset("smooth_bump_displacement",
                           {"eps": eps, "radius": 0.9, "k": 2}), 1)
              for eps in (0.05, 0.2, 0.3)]
    rounds = []
    for u, A in cases:
        probes.clear()
        with pytest.raises(Stop):
            lambda_limit(u, u, make_config(2, ALPHA, A))
        assert probes[-1] == _scalar_word_length(u, A)
        rounds.append(len(probes))
    # both a first guess that holds and one that is lengthened are covered
    assert 1 in rounds and 2 in rounds


def test_lambda_limit_refuses_a_word_above_the_cap_before_building(
        monkeypatch):
    cfg = make_config(2, ALPHA, 1)
    u = from_preset("smooth_bump_displacement",
                    {"eps": 0.2, "radius": 0.9, "k": 2})
    built = []
    monkeypatch.setattr(reduction, "_build_adaptive",
                        lambda *a, **kw: built.append(a[0]))
    tol = DEFAULT_TOL.with_overrides(word_cap=6)
    with pytest.raises(ConstructionError, match="word length 7 exceeds"):
        lambda_limit(u, u, cfg, tol)
    assert built == []


def test_conjugator_certificate_for_a_reduced_pair(monkeypatch):
    cfg = make_config(2, ALPHA, 2)
    g = sweep_profile(2, eps=4e-6)
    res = reduce_norm(g, cfg)
    rolled = []

    def counting_roll_up(f, tol=None):
        rolled.append(f)
        return roll_up(f, tol)

    monkeypatch.setattr(reduction, "roll_up", counting_roll_up)
    cert = conjugator(g, res.map, cfg)
    # the translation is read off the limit word: nothing is rolled
    assert rolled == []
    assert cert.residual <= 1e-5
    supp = support_interval(cert.lam, slack=1e-9)
    assert supp[0] >= -2.0 * cfg.A - cert.lam.h
    assert supp[1] <= 2.0 * cfg.A + 1.0 + cert.lam.h


def test_conjugator_of_equal_maps_is_trivial():
    cfg = make_config(2, ALPHA, 2)
    g = sweep_profile(2, eps=4e-6)
    cert = conjugator(g, g, cfg)
    assert abs(cert.b) <= 1e-15
    assert cert.residual <= 1e-12
    assert float(np.max(np.abs(cert.lam.jets))) <= 1e-8


def test_conjugator_rejects_misplaced_supports():
    cfg = make_config(2, ALPHA, 1)
    far = small_bump(1e-4, center=3.0, radius=0.5)  # outside [-2A, 2A]
    with pytest.raises(PreconditionError):
        conjugator(far, far, cfg)


def test_conjugator_refuses_a_pair_not_separated_by_a_translation():
    cfg = make_config(2, ALPHA, 1)
    u = small_bump(1e-4)
    v = small_bump(1e-4, center=0.3, radius=0.5)
    with pytest.raises(PreconditionError, match="non-translation"):
        conjugator(u, v, cfg)
