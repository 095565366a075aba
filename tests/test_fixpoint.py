"""Rescaling, the renormalized step, the search, and its certificates.

The hard guarantee established here: every certificate chain the search
emits verifies on replay, and tampering with any stored map is caught.
"""

import dataclasses
import json

import numpy as np
import pytest

from diffeolab import (
    DEFAULT_TOL,
    ConstructionError,
    PreconditionError,
    calibrated_bump,
    ck_distance,
    compose,
    compose_all,
    dump_chain,
    fixed_point_search,
    from_dict,
    holder,
    holder_norm,
    identity,
    inverse,
    load_chain,
    make_config,
    make_rescaler,
    rescale_displacement,
    rescale_factor,
    scaling_ratio,
    support_interval,
    verify_certificate,
    write_chain,
)
from diffeolab.fixpoint import _renorm_full
from _helpers import small_bump

ALPHA = holder(0.5)


@pytest.fixture(scope="module")
def cfg():
    return make_config(2, ALPHA, 4)


@pytest.fixture(scope="module")
def preset_f():
    return calibrated_bump(1e-3, ALPHA)


@pytest.fixture(scope="module")
def converged(preset_f, cfg):
    return fixed_point_search(preset_f, cfg)


# -- rescaling -------------------------------------------------------------------

def test_scaling_ratio_and_inner_slope(cfg):
    assert scaling_ratio(cfg) == 4.0
    q = make_rescaler(cfg)
    assert float(q(np.array(1.0))) == pytest.approx(4.0, abs=1e-9)
    assert float(q(np.array(-1.0))) == pytest.approx(-4.0, abs=1e-9)


def test_rescaler_is_identity_when_windows_match():
    cfg1 = make_config(2, ALPHA, 1)
    assert scaling_ratio(cfg1) == 1.0
    q = make_rescaler(cfg1)
    xs = np.linspace(-3.9, 3.9, 301)
    assert float(np.max(np.abs(q(xs) - xs))) == 0.0


def test_rescaler_conjugation_is_pure_scaling(cfg, preset_f):
    q = make_rescaler(cfg)
    ratio = scaling_ratio(cfg)
    g = compose_all([q, preset_f, inverse(q)])
    xs = np.linspace(-7.5, 7.5, 1501)
    want = ratio * preset_f.jet_at(xs / ratio, 0)[:, 0]
    assert float(np.max(np.abs(g(xs) - want))) <= 1e-8


def test_rescaler_widens_an_empty_blend_zone():
    # k=1, A=2: the first blend zone starts and ends at |x| = 16, so the
    # widened zone is used
    cfg1 = make_config(1, ALPHA, 2)
    q = make_rescaler(cfg1)
    assert q.b == 48.0
    assert float(q(np.array(3.0))) == pytest.approx(1.5, abs=1e-9)


def test_rescaler_refuses_windows_too_thin_to_blend(cfg):
    thin = dataclasses.replace(cfg, D=(-0.05, 0.05), E=(-0.05, 0.05))
    with pytest.raises(ConstructionError, match="^rescaling stage: "):
        make_rescaler(thin)


# -- calibration -----------------------------------------------------------------

def test_calibrated_bump_hits_the_target_norm():
    for target in (1e-3, 2.5e-4):
        f = calibrated_bump(target, ALPHA)
        assert holder_norm(f, ALPHA) == pytest.approx(target, rel=1e-9)


# -- the renormalized step ---------------------------------------------------------

def test_renorm_step_fixes_the_identity(cfg):
    q = make_rescaler(cfg)
    out = _renorm_full(identity(2, -1.0, 1.0), identity(2, -1.0, 1.0), q, cfg,
                       DEFAULT_TOL).map
    assert np.all(out.jets == 0.0)


def test_renorm_step_keeps_iterates_in_the_window(cfg, preset_f):
    q = make_rescaler(cfg)
    u = calibrated_bump(3e-4, ALPHA, center=0.3, radius=1.2)
    out = _renorm_full(u, preset_f, q, cfg, DEFAULT_TOL).map
    supp = support_interval(out, slack=1e-9)
    assert supp[0] >= cfg.D[0] - out.h and supp[1] <= cfg.D[1] + out.h


def test_renorm_step_refuses_oversized_composites(cfg, preset_f):
    q = make_rescaler(cfg)
    big = small_bump(2e-3, radius=1.0)
    with pytest.raises(PreconditionError):
        _renorm_full(big, preset_f, q, cfg, DEFAULT_TOL).map


def test_renorm_step_names_the_composite_gate(cfg, preset_f):
    q = make_rescaler(cfg)
    big = small_bump(2e-3, radius=1.0)
    with pytest.raises(PreconditionError, match="^composition stage: "):
        _renorm_full(big, preset_f, q, cfg, DEFAULT_TOL).map


def test_renorm_step_reads_the_rescaler(cfg, preset_f):
    # the identity is not x -> 4x on the support of f, so the exact
    # rescaling is refused instead of applied blindly
    fake = identity(2, -16.0, 16.0)
    u = identity(2, -2.0, 2.0)
    with pytest.raises(ConstructionError, match="^rescaling stage: "):
        _renorm_full(u, preset_f, fake, cfg, DEFAULT_TOL).map


def test_contractivity_probe_is_logged_not_asserted(cfg, preset_f):
    # the contraction factor of one step on a probe pair; recorded for
    # inspection because the constant, not its exact value, is the claim
    q = make_rescaler(cfg)
    u1 = calibrated_bump(3e-4, ALPHA, center=0.3, radius=1.2)
    u2 = calibrated_bump(5e-4, ALPHA, center=-0.2, radius=1.0)
    before = ck_distance(u1, u2)
    after = ck_distance(_renorm_full(u1, preset_f, q, cfg, DEFAULT_TOL).map,
                        _renorm_full(u2, preset_f, q, cfg, DEFAULT_TOL).map)
    print(f"one-step distance ratio on probe pair: {after / before:.3f}")
    assert np.isfinite(after / before)


def test_ck_distance_axioms():
    u = small_bump(1e-3)
    v = small_bump(2e-3)
    assert ck_distance(u, u) == 0.0
    assert ck_distance(u, v) == ck_distance(v, u)
    assert ck_distance(u, v) > 0.0


# -- the search ---------------------------------------------------------------------

def test_identity_input_converges_immediately(cfg):
    res = fixed_point_search(identity(2, -1.0, 1.0), cfg)
    assert res.converged and res.iterations == 1 and res.residual == 0.0


def test_search_converges_on_the_calibrated_preset(converged):
    assert converged.converged
    assert converged.residual <= 1e-6
    assert converged.iterations <= 10
    residuals = [t["residual"] for t in converged.trace]
    assert residuals == sorted(residuals, reverse=True)
    for entry in converged.trace:
        assert {"iteration", "residual", "norm_composed",
                "norm_reduced"} <= set(entry)


def test_conjugated_is_the_exact_rescale(converged, preset_f):
    g = from_dict(converged.chain["maps"]["conjugated"])
    want = rescale_displacement(compose(preset_f, converged.u0), 4.0)
    assert (g.a, g.b, g.n) == (want.a, want.b, want.n)
    assert np.array_equal(g.jets, want.jets)


@pytest.mark.parametrize("A", [4, 8])
def test_conjugation_scales_the_norm_exactly(preset_f, A):
    # the first step composes with the identity on [-2, 2]; the estimator
    # samples of the conjugate are those of f o u scaled by A, so the
    # seminorm scales by exactly rescale_factor
    res = fixed_point_search(preset_f, make_config(2, ALPHA, A),
                             tol=DEFAULT_TOL.with_overrides(fix_max_iter=1))
    first = res.trace[0]
    assert first["norm_conjugated"] == pytest.approx(
        rescale_factor(ALPHA, A, 2) * first["norm_composed"], rel=1e-9)


def test_search_converges_at_width_8(preset_f):
    res = fixed_point_search(preset_f, make_config(2, ALPHA, 8))
    assert res.converged and res.residual <= 1e-6
    assert verify_certificate(res.chain)["ok"]


def test_search_reports_no_convergence_honestly(preset_f, cfg):
    tol = DEFAULT_TOL.with_overrides(fix_tol=1e-30, fix_max_iter=2)
    res = fixed_point_search(preset_f, cfg, tol=tol)
    assert not res.converged
    assert res.chain is None and res.u0 is None
    assert len(res.trace) == 2
    assert res.residual > 1e-30


def test_search_refuses_inadmissible_input(cfg):
    with pytest.raises(PreconditionError):
        fixed_point_search(small_bump(1e-2, radius=1.5), cfg)  # too large
    far = small_bump(1e-4, center=5.0, radius=1.0)  # outside the window
    with pytest.raises(PreconditionError):
        fixed_point_search(far, cfg)


# -- certificates ----------------------------------------------------------------------

def test_emitted_certificate_verifies(converged):
    report = verify_certificate(converged.chain)
    assert report["ok"]
    names = [item["name"] for item in report["items"]]
    assert names == ["rescale-conjugation", "flow-conjugacy", "fixed-point",
                     "support-u0", "support-witness"]
    assert all(item["ok"] for item in report["items"])


def test_tampered_witness_fails_exactly_one_item(converged):
    chain = json.loads(dump_chain(converged.chain))
    chain["maps"]["witness"]["jets"][40][0] += 1e-3
    report = verify_certificate(chain)
    assert not report["ok"]
    bad = [item["name"] for item in report["items"] if not item["ok"]]
    assert bad == ["flow-conjugacy"]


def test_tampered_iterate_fails(converged):
    chain = json.loads(dump_chain(converged.chain))
    chain["maps"]["u0"]["jets"][64][0] += 1e-4
    assert not verify_certificate(chain)["ok"]


def test_malformed_chain_raises(converged):
    with pytest.raises(ValueError):
        verify_certificate({"format": "homology-certificate-chain"})
    chain = json.loads(dump_chain(converged.chain))
    del chain["maps"]["witness"]
    with pytest.raises(ValueError):
        verify_certificate(chain)


def test_chain_file_round_trip(tmp_path, converged):
    path = tmp_path / "chain.json"
    write_chain(str(path), converged.chain)
    back = load_chain(str(path))
    assert dump_chain(back) == dump_chain(converged.chain)
    assert verify_certificate(back)["ok"]
