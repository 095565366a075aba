"""The points and jet orders each adaptive build asks its sampler for.

`_build_adaptive` makes one sampler call per round, at order k, on the
nodes interleaved with the midpoints, and checks the interpolant at the
midpoints against order 0 alone.  That is sound only if a sampler's
order-0 output does not depend on the order asked for: the oracle tests
below check it bitwise, for every sampler of the package, on the nodes and
midpoints of the build that sampler served.  The guard tests record the
calls the pipelines really make, and check that one call on the
interleaved points gives, bit for bit, what separate calls on the nodes
and on the midpoints give.
"""

import numpy as np
import pytest

from diffeolab import (
    PlateauField,
    calibrated_bump,
    compose,
    conjugator,
    fixed_point_search,
    holder,
    inverse,
    lambda_limit,
    make_config,
    make_rescaler,
    reduce_norm,
    roll_up,
    spread_once,
    sweep_profile,
    trajectory_chart,
)
from diffeolab import diffeo, fixpoint, reduction
from _helpers import small_bump, small_periodic

ALPHA = holder(0.5)


class _Build:
    def __init__(self, name, lo, hi, k, fn, built, calls):
        self.name, self.k, self.fn, self.built = name, k, fn, built
        self.lo, self.hi = lo, hi
        self.calls = calls              # (points, order, jets) per call


@pytest.fixture
def builds(monkeypatch):
    """Every _build_adaptive call made through the package, with its
    grid, its sampler, the map built and the calls made."""
    out = []
    original = diffeo._build_adaptive

    def recording(tail, lo, hi, k, fn, n0, tol):
        calls = []

        def sampler(xs, order=None):
            jets = fn(xs, order)
            calls.append((xs.copy(), order, jets.copy()))
            return jets

        built = original(tail, lo, hi, k, sampler, n0, tol)
        out.append(_Build(fn.__qualname__.split(".")[0], lo, hi, k, fn,
                          built, calls))
        return built

    for module in (diffeo, reduction, fixpoint):
        monkeypatch.setattr(module, "_build_adaptive", recording)
    return out


def _nodes_and_mids(f):
    xs = np.linspace(f.a, f.b, f.n)
    return xs, 0.5 * (xs[:-1] + xs[1:])


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_order0_is_a_prefix(builds, name):
    chosen = [b for b in builds if b.name == name]
    assert chosen, f"no build by the {name} sampler"
    for b in chosen:
        for pts in _nodes_and_mids(b.built):
            full = b.fn(pts, b.k)
            zero = b.fn(pts, 0)
            assert full.shape == pts.shape + (b.k + 1,)
            assert zero.shape == pts.shape + (1,)
            assert np.array_equal(_bits(zero[..., 0]), _bits(full[..., 0]))


# -- oracles: order 0 is column 0 of the full order, bitwise ------------------

@pytest.mark.parametrize("k", [2, 3])
def test_compose_sampler_order0_is_a_prefix(builds, k):
    rng = np.random.default_rng(5)
    compose(small_bump(2e-3, center=0.2, k=k), small_bump(1e-3, k=k))
    compose(small_periodic(rng, k=k), small_periodic(rng, k=k))
    _assert_order0_is_a_prefix(builds, "_displacement_fn_compose")


@pytest.mark.parametrize("k", [2, 3])
def test_inverse_sampler_order0_is_a_prefix(builds, k):
    inverse(small_bump(2e-3, center=0.1, radius=0.9, k=k))
    inverse(small_periodic(np.random.default_rng(6), k=k))
    _assert_order0_is_a_prefix(builds, "inverse")


@pytest.mark.parametrize("k", [2, 3])
def test_roll_up_sampler_order0_is_a_prefix(builds, k):
    roll_up(sweep_profile(2, k))
    _assert_order0_is_a_prefix(builds, "roll_up")


@pytest.mark.parametrize("k", [2, 3])
def test_spread_once_damped_sampler_order0_is_a_prefix(builds, k):
    cfg = make_config(k, ALPHA, 2)
    spread_once(roll_up(sweep_profile(2, k)), cfg)
    _assert_order0_is_a_prefix(builds, "spread_once")


@pytest.mark.parametrize("k", [2, 3])
def test_lambda_word_sampler_order0_is_a_prefix(builds, k):
    cfg = make_config(k, ALPHA, 2)
    u = sweep_profile(2, k, eps=1e-7)
    v = sweep_profile(2, k, eps=5e-8, phase=1.0)
    lambda_limit(u, v, cfg)
    _assert_order0_is_a_prefix(builds, "lambda_limit")


def test_conjugator_sampler_and_chart_order0_is_a_prefix(builds):
    cfg = make_config(2, ALPHA, 2)
    g = sweep_profile(2, eps=4e-6)
    conjugator(g, reduce_norm(g, cfg).map, cfg)
    _assert_order0_is_a_prefix(builds, "conjugator")
    chart = trajectory_chart(PlateauField(cfg.A), 2)
    (lam,) = [b.built for b in builds if b.name == "conjugator"]
    for xs in _nodes_and_mids(lam):
        xs = xs[xs <= 2.0 * cfg.A + 0.75]   # the chart side of the witness
        ys = chart.inverse_value(xs)
        for pts in (xs, ys):
            assert np.array_equal(_bits(chart.jet_at(pts, 0)[..., 0]),
                                  _bits(chart.jet_at(pts, 2)[..., 0]))


@pytest.mark.parametrize("k", [2, 3])
def test_rescaler_sampler_order0_is_a_prefix(builds, k):
    make_rescaler(make_config(k, ALPHA, 4))
    _assert_order0_is_a_prefix(builds, "_rescaler_fn")


# -- guards: one call per round, on the nodes and midpoints interleaved -------

def _assert_one_call_per_round(builds):
    assert builds
    for b in builds:
        sizes = []
        for pts, order, _ in b.calls:
            assert order == b.k, b.name
            assert pts.size % 2 == 1, b.name
            n = (pts.size + 1) // 2
            xs = np.linspace(b.lo, b.hi, n)
            mids = 0.5 * (xs[:-1] + xs[1:])
            assert np.array_equal(_bits(pts[0::2]), _bits(xs)), b.name
            assert np.array_equal(_bits(pts[1::2]), _bits(mids)), b.name
            sizes.append(n)
        # each round doubles the grid, and the last one made the map
        assert sizes[1:] == [2 * n - 1 for n in sizes[:-1]], b.name
        assert sizes[-1] == b.built.n, b.name
        # the one call gives what separate calls on nodes and midpoints give
        pts, _, jets = b.calls[-1]
        assert np.array_equal(_bits(jets[0::2]),
                              _bits(b.fn(pts[0::2].copy(), b.k))), b.name
        assert np.array_equal(_bits(jets[1::2, 0]),
                              _bits(b.fn(pts[1::2].copy(), 0)[..., 0])), \
            b.name


@pytest.mark.parametrize("k", [2, 3])
def test_reduce_norm_samples_each_round_in_one_call(builds, k):
    g = sweep_profile(2, k, eps=4e-6 if k == 2 else 2e-8)
    reduce_norm(g, make_config(k, ALPHA, 2))
    assert {b.name for b in builds} == {"roll_up", "spread_once"}
    _assert_one_call_per_round(builds)


def test_search_samples_each_round_in_one_call(builds):
    cfg = make_config(2, ALPHA, 4)
    assert fixed_point_search(calibrated_bump(1e-3, ALPHA), cfg).converged
    assert {"roll_up", "lambda_limit", "conjugator"} <= {b.name
                                                        for b in builds}
    _assert_one_call_per_round(builds)
