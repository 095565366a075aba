"""The jet orders each adaptive build asks its sampler for.

`_build_adaptive` samples its nodes at order k and checks the interpolant
at the midpoints against order 0 alone.  That is sound only if a sampler's
order-0 output does not depend on the order asked for: the oracle tests
below check it bitwise, for every sampler of the package, on the nodes and
midpoints of the build that sampler served.  The guard tests record the
orders the pipelines really ask for.
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
    def __init__(self, name, k, fn, built, calls):
        self.name, self.k, self.fn, self.built = name, k, fn, built
        self.calls = calls              # (points, order) per sampler call


@pytest.fixture
def builds(monkeypatch):
    """Every _build_adaptive call made through the package, with its
    sampler, the map built and the orders asked for."""
    out = []
    original = diffeo._build_adaptive

    def recording(tail, lo, hi, k, fn, n0, tol):
        calls = []

        def sampler(xs, order=None):
            calls.append((xs.size, order))
            return fn(xs, order)

        built = original(tail, lo, hi, k, sampler, n0, tol)
        out.append(_Build(fn.__qualname__.split(".")[0], k, fn, built, calls))
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


# -- guards: nodes at k, midpoints at 0 ----------------------------------------

def _assert_nodes_at_k_mids_at_0(builds):
    assert builds
    for b in builds:
        assert len(b.calls) % 2 == 0, b.name
        nodes, mids = b.calls[0::2], b.calls[1::2]
        assert [o for _, o in nodes] == [b.k] * len(nodes), b.name
        assert [o for _, o in mids] == [0] * len(mids), b.name
        assert [m for m, _ in mids] == [n - 1 for n, _ in nodes], b.name
        assert nodes[-1][0] == b.built.n, b.name


@pytest.mark.parametrize("k", [2, 3])
def test_reduce_norm_samples_nodes_at_k_and_midpoints_at_0(builds, k):
    g = sweep_profile(2, k, eps=4e-6 if k == 2 else 2e-8)
    reduce_norm(g, make_config(k, ALPHA, 2))
    assert {"roll_up", "spread_once", "_displacement_fn_compose",
            "inverse"} <= {b.name for b in builds}
    _assert_nodes_at_k_mids_at_0(builds)


def test_search_samples_nodes_at_k_and_midpoints_at_0(builds):
    cfg = make_config(2, ALPHA, 4)
    assert fixed_point_search(calibrated_bump(1e-3, ALPHA), cfg).converged
    assert {"roll_up", "lambda_limit", "conjugator"} <= {b.name
                                                        for b in builds}
    _assert_nodes_at_k_mids_at_0(builds)
