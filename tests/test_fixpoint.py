"""Rescaling, the renormalized step, the search, and its certificates.

The hard guarantee established here: every certificate chain the search
emits verifies on replay, and tampering with any stored map, rescaler
parameter or config number is caught.
"""

import dataclasses
import json
import math
import re

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
    log_refined_holder,
    make_config,
    make_rescaler,
    make_rho,
    rescale_displacement,
    rescaler_params,
    rescale_factor,
    scaling_ratio,
    support_interval,
    time_t_map,
    to_dict,
    verify_certificate,
    witness_window,
    write_chain,
)
from diffeolab import diffeo, fixpoint, flow, reduction
from diffeolab.cli import EXIT_USAGE, main
from diffeolab.fixpoint import _BlendProfile, _renorm_full
from _helpers import map_jets, put_map_jets, raise_map_order, small_bump

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
        rescaler_params(thin)
    with pytest.raises(ConstructionError, match="^rescaling stage: "):
        make_rescaler(thin)


@pytest.mark.parametrize("A", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_make_rescaler_follows_its_closed_form(k, A):
    # the Hermite rescaler spans [-zo, zo], is x -> ratio*x on [-zi, zi],
    # meets the identity at zo, and its least node slope is the closed-form
    # level the zone rule checks
    c = make_config(k, ALPHA, A)
    ratio, zi, zo, kk = rescaler_params(c)
    assert (ratio, kk) == (scaling_ratio(c), k)
    q = make_rescaler(c)
    assert (q.a, q.b, q.k) == (-zo, zo, k)
    inner = np.abs(q.nodes) <= zi
    assert np.max(np.abs(q.jets[inner, 0]
                         - (ratio - 1.0) * q.nodes[inner])) <= 1e-12 * zi
    assert np.all(q.jets[inner, 1] == ratio - 1.0)
    assert np.all(q.jets[inner, 2:] == 0.0)
    assert np.all(q.jets[[0, -1]] == 0.0)
    slope = _BlendProfile(ratio, zi, zo, k).min_slope
    assert slope > 1e-3
    assert float(np.min(q.jets[:, 1])) + 1.0 == pytest.approx(slope, abs=1e-9)


@pytest.mark.parametrize("A", [4, 8])
@pytest.mark.parametrize("k", [2, 3])
def test_rescaler_inverse_builds_and_round_trips(k, A):
    q = make_rescaler(make_config(k, ALPHA, A))
    qi = inverse(q)
    xs = np.linspace(q.a - 1.0, q.b + 1.0, 20001)
    assert float(np.max(np.abs(qi(q(xs)) - xs))) <= 1e-9


# -- calibration -----------------------------------------------------------------

def test_calibrated_bump_hits_the_target_norm():
    for target in (1e-3, 2.5e-4):
        f = calibrated_bump(target, ALPHA)
        assert holder_norm(f, ALPHA) == pytest.approx(target, rel=1e-9)


# -- the renormalized step ---------------------------------------------------------

def test_renorm_step_fixes_the_identity(cfg):
    q = rescaler_params(cfg)
    out = _renorm_full(identity(2, -1.0, 1.0), identity(2, -1.0, 1.0), q, cfg,
                       DEFAULT_TOL).map
    assert np.all(out.jets == 0.0)


def test_renorm_step_keeps_iterates_in_the_window(cfg, preset_f):
    q = rescaler_params(cfg)
    u = calibrated_bump(3e-4, ALPHA, center=0.3, radius=1.2)
    out = _renorm_full(u, preset_f, q, cfg, DEFAULT_TOL).map
    supp = support_interval(out, slack=1e-9)
    assert supp[0] >= cfg.D[0] - out.h and supp[1] <= cfg.D[1] + out.h


def test_renorm_step_refuses_oversized_composites(cfg, preset_f):
    q = rescaler_params(cfg)
    big = small_bump(2e-3, radius=1.0)
    with pytest.raises(PreconditionError):
        _renorm_full(big, preset_f, q, cfg, DEFAULT_TOL).map


def test_renorm_step_names_the_composite_gate(cfg, preset_f):
    q = rescaler_params(cfg)
    big = small_bump(2e-3, radius=1.0)
    with pytest.raises(PreconditionError, match="^composition stage: "):
        _renorm_full(big, preset_f, q, cfg, DEFAULT_TOL).map


def test_renorm_step_reads_the_rescaler(cfg, preset_f):
    # a rescaler linear only on [-0.5, 0.5] is not x -> 4x on the support
    # of f, so the exact rescaling is refused instead of applied blindly
    ratio, _, zo, k = rescaler_params(cfg)
    u = identity(2, -2.0, 2.0)
    with pytest.raises(ConstructionError, match="^rescaling stage: "):
        _renorm_full(u, preset_f, (ratio, 0.5, zo, k), cfg, DEFAULT_TOL).map


@pytest.mark.parametrize("center,side", [(-0.5, 0), (0.5, 1)])
def test_renorm_step_refuses_a_support_outside_the_linear_zone(cfg, preset_f,
                                                               center, side):
    # the zone [-zi, zi] must hold supp(f o u): a zi a little short of its
    # reach on either side is refused, a zi at its reach rescales as usual
    ratio, _, zo, k = rescaler_params(cfg)
    u = calibrated_bump(3e-4, ALPHA, center=center, radius=1.2)
    supp = support_interval(compose(preset_f, u))
    reach = abs(supp[side])
    assert reach > abs(supp[1 - side])
    with pytest.raises(ConstructionError, match="^rescaling stage: "):
        _renorm_full(u, preset_f, (ratio, reach - 1e-3, zo, k), cfg,
                     DEFAULT_TOL)
    step = _renorm_full(u, preset_f, (ratio, reach, zo, k), cfg, DEFAULT_TOL)
    fu = compose(preset_f, u)
    assert np.array_equal(step.conjugated.jets,
                          rescale_displacement(fu, ratio).jets)


def test_contractivity_probe_is_logged_not_asserted(cfg, preset_f):
    # the contraction factor of one step on a probe pair; recorded for
    # inspection because the constant, not its exact value, is the claim
    q = rescaler_params(cfg)
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


def test_a_search_rolls_the_conjugated_map_once(preset_f, cfg, monkeypatch):
    rolled = []
    roll_up = reduction.roll_up

    def counting_roll_up(f, tol=None):
        rolled.append(f)
        return roll_up(f, tol)

    monkeypatch.setattr(reduction, "roll_up", counting_roll_up)
    res = fixed_point_search(preset_f, cfg)
    assert res.converged and res.iterations >= 2
    # one roll per reduction step: the certificate reads the rolled
    # quotient off the limit word's periodic tail and rolls nothing
    assert len(rolled) == res.iterations
    assert len({id(f) for f in rolled}) == len(rolled)
    conjugated = map_jets(res.chain["maps"]["conjugated"])
    assert sum(f.jets.shape == conjugated.shape
               and np.array_equal(f.jets, conjugated) for f in rolled) == 1


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


def test_k1_chains_replay_their_own_witness_window():
    # at k = 1 the source window E is [-2, 2] while the witness lives on
    # [-2A, 2A + 1]; the replay must bound it by the same window
    alpha = log_refined_holder(0.5, 0.3)
    cfg1 = make_config(1, alpha, 8)
    assert witness_window(cfg1) == (-16.0, 17.0)
    f = calibrated_bump(0.3 * cfg1.delta0, alpha, k=1, center=0.1)
    res = fixed_point_search(f, cfg1)
    assert res.converged
    report = verify_certificate(json.loads(dump_chain(res.chain)))
    assert report["ok"], [it for it in report["items"] if not it["ok"]]
    # at k >= 2 the window is E widened by one unit to the right, as before
    cfg2 = make_config(2, alpha, 8)
    assert witness_window(cfg2) == (cfg2.E[0], cfg2.E[1] + 1.0)


def test_search_reports_no_convergence_honestly(preset_f, cfg):
    tol = DEFAULT_TOL.with_overrides(fix_tol=1e-30, fix_max_iter=2)
    res = fixed_point_search(preset_f, cfg, tol=tol)
    assert not res.converged
    assert res.chain is None and res.u0 is None
    assert len(res.trace) == 2
    assert res.residual > 1e-30


def test_search_names_the_certificate_stage(preset_f, cfg):
    tol = DEFAULT_TOL.with_overrides(overlap=1e-300)
    with pytest.raises(ConstructionError,
                       match="^certificate stage: piecewise overlap"):
        fixed_point_search(preset_f, cfg, tol=tol)


def test_search_refuses_a_chain_its_replay_fails(preset_f, cfg, monkeypatch):
    # the search replays its own chain: a failing item is a refusal
    monkeypatch.setattr(fixpoint, "_rescale_residual", lambda *a: 1.0)
    with pytest.raises(ConstructionError, match=(
            "^certificate stage: replay failed on rescale-conjugation$")):
        fixed_point_search(preset_f, cfg)


def test_search_types_a_replay_that_cannot_read_its_chain(preset_f, cfg,
                                                          monkeypatch):
    def unreadable(chain, maps, tol, residuals=None):
        raise ValueError("malformed certificate chain: test")
    monkeypatch.setattr(fixpoint, "_replay", unreadable)
    with pytest.raises(ConstructionError, match=(
            "^certificate stage: replay failed: malformed certificate")):
        fixed_point_search(preset_f, cfg)


def _item_bits(report):
    """The report with every number as the uint64 bits of its float."""
    def bits(v):
        if isinstance(v, list):
            return [bits(x) for x in v]
        if isinstance(v, float):
            return int(np.float64(v).view(np.uint64))
        return v
    return [{key: bits(v) for key, v in item.items()}
            for item in report["items"]]


@pytest.mark.parametrize("k", [2, 3])
def test_search_replays_held_maps_as_the_chain_replays(k, monkeypatch):
    # the search replays the maps it holds; the chain's decoded maps must
    # give the same report, item for item and bit for bit
    held = []
    replay = fixpoint._replay

    def recording(*args):
        held.append(replay(*args))
        return held[-1]

    monkeypatch.setattr(fixpoint, "_replay", recording)
    cfg = make_config(k, ALPHA, 4)
    res = fixed_point_search(calibrated_bump(0.5 * cfg.delta0, ALPHA, k=k),
                             cfg)
    assert res.converged and len(held) == 1 and held[0]["ok"]
    decoded = verify_certificate(json.loads(dump_chain(res.chain)))
    assert len(held) == 2 and held[1] is decoded
    assert _item_bits(held[0]) == _item_bits(decoded)


@pytest.mark.parametrize("k, A, alpha", [
    (2, 4, ALPHA), (3, 4, ALPHA), (1, 8, log_refined_holder(0.5, 0.3))])
def test_a_converged_search_evaluates_each_identity_once(k, A, alpha,
                                                         monkeypatch):
    # the self-replay reports the residuals the search computed on the
    # maps it holds, and evaluates none of the four identities again; the
    # flow conjugacy is evaluated without solving the witness's inverse
    calls = {"rescale": 0, "flow": 0, "time-one": 0}
    distances, solves, reports = [], [], []
    distance, replay = ck_distance, fixpoint._replay
    inverse_values = diffeo.Diffeo1.inverse_values

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    def counting_distance(u, v):
        distances.append(v)
        return distance(u, v)

    def counting_solve(self, y, xtol=None):
        solves.append(self)
        return inverse_values(self, y, xtol)

    def recording(*args):
        reports.append(replay(*args))
        return reports[-1]

    monkeypatch.setattr(fixpoint, "_rescale_residual",
                        counting("rescale", fixpoint._rescale_residual))
    flow_residual = counting("flow", reduction._flow_conjugacy_residual)
    monkeypatch.setattr(reduction, "_flow_conjugacy_residual", flow_residual)
    monkeypatch.setattr(fixpoint, "_flow_conjugacy_residual", flow_residual)
    monkeypatch.setattr(fixpoint, "_flow_time_one_residual",
                        counting("time-one", fixpoint._flow_time_one_residual))
    monkeypatch.setattr(fixpoint, "ck_distance", counting_distance)
    monkeypatch.setattr(diffeo.Diffeo1, "inverse_values", counting_solve)
    monkeypatch.setattr(fixpoint, "_replay", recording)
    cfg = make_config(k, alpha, A)
    res = fixed_point_search(
        calibrated_bump(0.3 * cfg.delta0, alpha, k=k, center=0.1), cfg)
    assert res.converged and len(reports) == 1 and reports[0]["ok"]
    assert calls == {"rescale": 1, "flow": 1, "time-one": 1}
    assert sum(v is res.u0 for v in distances) == 1
    lam = res.certificates[0].lam
    assert all(m is not lam for m in solves)
    # the held residuals are those the written chain's replay recomputes,
    # at k = 1 too, where the source window is not the witness's; that
    # replay solves no inverse at all
    del solves[:]
    decoded = verify_certificate(json.loads(dump_chain(res.chain)))
    assert calls == {"rescale": 2, "flow": 2, "time-one": 2}
    assert solves == []
    assert "flow-time-one" in [item["name"] for item in decoded["items"]]
    assert _item_bits(reports[0]) == _item_bits(decoded)


def test_search_refuses_width_one_before_building(monkeypatch):
    # at A=1 the scaling ratio and the rescale factor are both 1
    def no_build(*args):
        raise AssertionError("the search built a rescaler")
    monkeypatch.setattr(fixpoint, "rescaler_params", no_build)
    cfg1 = make_config(2, ALPHA, 1)
    with pytest.raises(PreconditionError, match=(
            "^configuration stage: at A=1 the scaling ratio is 1 and the "
            "rescale factor 1")):
        fixed_point_search(identity(2, -1.0, 1.0), cfg1)


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
    assert names == ["config", "rescale-conjugation", "flow-conjugacy",
                     "flow-time-one", "fixed-point", "support-f", "support-u0",
                     "support-conjugated", "support-reduced",
                     "support-witness"]
    assert all(item["ok"] for item in report["items"])


def test_the_certificate_flow_map_is_the_direct_integration(converged):
    tau = converged.certificates[0].tau
    fresh = time_t_map(make_rho(4), 1.0, 2)
    assert (tau.a, tau.b, tau.n) == (fresh.a, fresh.b, fresh.n)
    assert np.array_equal(tau.jets, fresh.jets)
    assert converged.chain["maps"]["flow_time_one"] == to_dict(fresh)
    # one map serves every search, so no caller may change it
    assert not tau.jets.flags.writeable


def test_searches_share_one_unit_time_map(preset_f, cfg):
    flow._unit_time_map.cache_clear()
    first = fixed_point_search(identity(2, -1.0, 1.0), cfg).certificates[0]
    second = fixed_point_search(preset_f, cfg).certificates[0]
    assert first.b != second.b
    # the time-b map is built per search and never cached
    assert flow._unit_time_map.cache_info().currsize == 1
    assert second.tau is first.tau


def test_the_replay_builds_no_map(converged, monkeypatch):
    # every identity is checked by evaluation at sample points
    def refuse(*args, **kwargs):
        raise AssertionError("the replay built a map")

    for module in (diffeo, fixpoint):
        for name in ("_build_adaptive", "compose", "inverse"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert verify_certificate(json.loads(dump_chain(converged.chain)))["ok"]


def test_tampered_witness_fails_exactly_one_item(converged):
    chain = json.loads(dump_chain(converged.chain))
    jets = map_jets(chain["maps"]["witness"])
    jets[40][0] += 1e-3
    put_map_jets(chain["maps"]["witness"], jets)
    report = verify_certificate(chain)
    assert not report["ok"]
    bad = [item["name"] for item in report["items"] if not item["ok"]]
    assert bad == ["flow-conjugacy"]


def _copy(converged):
    return json.loads(dump_chain(converged.chain))


def _failed(report):
    return {item["name"]: item["recomputed"] for item in report["items"]
            if not item["ok"]}


def test_the_chain_stores_rescaler_parameters_not_a_map(converged, cfg):
    chain = converged.chain
    assert (chain["format"], chain["version"]) == (
        "homology-certificate-chain", 3)
    assert set(chain["maps"]) == {"f", "u0", "conjugated", "reduced",
                                  "witness", "flow_time_one"}
    assert chain["rescaler"] == dict(zip(("ratio", "zi", "zo", "k"),
                                         rescaler_params(cfg)))
    assert len(dump_chain(chain)) <= 0.4e6


@pytest.mark.parametrize("name,x0,identity", [
    ("f", 0.1, "rescale-conjugation"),
    ("u0", 0.2, "fixed-point"),
    ("conjugated", 0.4, "rescale-conjugation"),
    ("reduced", 0.2, "flow-conjugacy"),
    ("witness", 1.0, "flow-conjugacy"),
    # no one spot: 60 evenly spaced nodes over 5%-95% of the grid, each
    # tampered in turn
    pytest.param("flow_time_one", None, "flow-time-one",
                 id="flow_time_one-sweep-flow-time-one"),
])
def test_tampering_any_map_fails_its_identity(converged, name, x0, identity):
    m = converged.chain["maps"][name]
    a, b, n = m["grid"]["a"], m["grid"]["b"], m["grid"]["n"]
    if x0 is None:
        nodes = np.round(np.linspace(0.05, 0.95, 60) * (n - 1)).astype(int)
    else:
        nodes = [round((x0 - a) / (b - a) * (n - 1))]
    passed = []
    for i in nodes:
        chain = _copy(converged)
        jets = map_jets(chain["maps"][name])
        jets[i][0] += 1e-3
        put_map_jets(chain["maps"][name], jets)
        report = verify_certificate(chain)
        if report["ok"] or not (_failed(report).get(identity, 0.0)
                                > DEFAULT_TOL.cert_tol):
            passed.append(a + (b - a) * i / (n - 1))
    assert passed == []


@pytest.mark.parametrize("name", fixpoint._CHAIN_MAPS)
def test_a_map_stored_at_another_order_fails_the_config(converged, name):
    # reduced and u0 meet in the fixed-point distance, which compares the
    # orders both carry; the config item names the map whose k is off.
    # flow-time-one reads tau's interpolant, whose zero top-order jets are
    # not the flow's (2.7e-5 against cert_tol)
    chain = _copy(converged)
    raise_map_order(chain["maps"][name])
    report = verify_certificate(chain)
    assert not report["ok"]
    assert list(_failed(report)) == (
        ["config", "flow-time-one"] if name == "flow_time_one" else ["config"])
    assert report["items"][0]["mismatch"] == [f"{name}.k"]


def test_a_flow_map_on_another_grid_fails_the_config(converged):
    # the identity on two nodes meets the flow identity at both and at the
    # one midpoint, so only the grid tells it from the unit-time map
    chain = _copy(converged)
    chain["maps"]["flow_time_one"] = to_dict(identity(2, -20.0, 20.0))
    report = verify_certificate(chain)
    assert "flow-time-one" not in _failed(report)
    assert report["items"][0]["mismatch"] == ["flow_time_one.grid"]


@pytest.mark.parametrize("key,value", [("ratio", 5.0), ("zi", 9.0),
                                       ("zo", 65.0), ("k", 3)])
def test_tampered_rescaler_parameters_fail_the_config(converged, key, value):
    chain = _copy(converged)
    chain["rescaler"][key] = value
    report = verify_certificate(chain)
    assert not report["ok"]
    assert _failed(report)["config"] > DEFAULT_TOL.cert_tol


@pytest.mark.parametrize("key,value", [("k", 3), ("D", [-3.0, 3.0]),
                                       ("E", [-8.0, 9.0]), ("B", 2),
                                       ("delta0", 1.0)])
def test_tampered_config_fails(converged, key, value):
    chain = _copy(converged)
    chain["config"][key] = value
    report = verify_certificate(chain)
    assert not report["ok"]
    assert _failed(report)["config"] > DEFAULT_TOL.cert_tol


@pytest.mark.parametrize("key,value", [("D", "junk"), ("D", 2.0),
                                       ("E", [-8.0, 8.0, 1.0]),
                                       ("delta0", None)])
def test_unreadable_config_values_are_malformed(converged, key, value):
    chain = _copy(converged)
    chain["config"][key] = value
    with pytest.raises(ValueError, match=f"malformed certificate chain: "
                                         f".*{key} is "):
        verify_certificate(chain)


def _numpy_gap(key, stored, want):
    """The config gap as numpy arrays: the oracle of fixpoint._gap."""
    try:
        s = np.asarray(stored, dtype=float)
        with np.errstate(over="ignore"):
            diff = np.abs(s - np.asarray(want, dtype=float))
        ok = s.shape == np.shape(want) and bool(np.all(np.isfinite(diff)))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{key} is {stored!r} where a value like "
                         f"{want!r} belongs")
    return float(np.max(diff, initial=0.0))


@pytest.mark.parametrize("key,stored,want", [
    ("delta0", 1e-3, 1e-3), ("delta0", 2.5e-3, 1e-3), ("eps0", -0.0, 0.0),
    ("eps0", 1e300, -1e300), ("B", 1, 1), ("B", 3, 1), ("rescaler.k", 2.0, 2),
    ("D", [-2.0, 2.0], [-2.0, 2.0]), ("D", [-3.0, 2.5], [-2.0, 2.0]),
    ("E", [-8, 8], [-8.0, 8.0]), ("E", (-8.0, 9.0), [-8.0, 8.0])])
def test_config_gap_is_the_numpy_gap(key, stored, want):
    got = fixpoint._gap(key, stored, want)
    assert type(got) is float
    assert np.float64(got).view(np.uint64) == np.float64(
        _numpy_gap(key, stored, want)).view(np.uint64)


@pytest.mark.parametrize("key,stored,want", [
    ("delta0", "junk", 1e-3), ("D", "junk", [-2.0, 2.0]),
    ("delta0", None, 1e-3), ("D", [-2.0, None], [-2.0, 2.0]),
    ("delta0", math.nan, 1e-3), ("delta0", math.inf, 1e-3),
    ("D", [-math.inf, 2.0], [-2.0, 2.0]), ("eps0", 1e308, -1e308),
    ("D", 2.0, [-2.0, 2.0]), ("delta0", [1e-3], 1e-3),
    ("D", [-2.0], [-2.0, 2.0]), ("E", [-8.0, 8.0, 1.0], [-8.0, 8.0]),
    ("D", [[-2.0, 2.0]], [-2.0, 2.0]), ("D", [[-2.0], [2.0]], [-2.0, 2.0]),
    ("delta0", {}, 1e-3), ("D", {"lo": -2.0}, [-2.0, 2.0])])
def test_config_gap_refuses_what_the_numpy_gap_refuses(key, stored, want):
    with pytest.raises(ValueError) as oracle:
        _numpy_gap(key, stored, want)
    with pytest.raises(ValueError) as plain:
        fixpoint._gap(key, stored, want)
    assert str(plain.value) == str(oracle.value)
    assert str(plain.value).startswith(f"{key} is ")


@pytest.mark.parametrize("key,stored,want", [
    ("delta0", "0.001", 1e-3), ("D", ["-2", "2"], [-2.0, 2.0]),
    ("delta0", True, 1e-3), ("B", True, 1), ("D", [True, 2.0], [-2.0, 2.0])])
def test_config_gap_refuses_strings_and_bools(key, stored, want):
    # numpy reads "0.001" as 0.001 and True as 1.0; a chain stores numbers
    _numpy_gap(key, stored, want)
    with pytest.raises(ValueError, match=(
            f"^{key} is {re.escape(repr(stored))} where a value like ")):
        fixpoint._gap(key, stored, want)


def test_a_widened_config_fails_the_conjugation(converged):
    # A = 8 rescales by 8, but the conjugate was rescaled by 4; the stored
    # D, E and rescaler entry no longer match the recomputed ones either
    chain = _copy(converged)
    chain["config"]["A"] = 8
    report = verify_certificate(chain)
    assert not report["ok"]
    failed = _failed(report)
    assert failed["rescale-conjugation"] > DEFAULT_TOL.cert_tol
    assert failed["config"] > DEFAULT_TOL.cert_tol


def test_a_small_stored_residual_is_no_licence(converged):
    # the recomputed residual must meet cert_tol, however large the stored
    # one claims to be
    chain = _copy(converged)
    w = chain["maps"]["witness"]
    put_map_jets(w, map_jets(w) * 1.5)
    chain["identities"]["flow_conjugacy"]["residual"] = 1.0
    report = verify_certificate(chain)
    assert not report["ok"]
    assert _failed(report)["flow-conjugacy"] > DEFAULT_TOL.cert_tol


def test_an_input_reaching_past_the_target_is_caught(converged):
    # a second bump at x = 5 lies outside D and outside D widened by one;
    # the conjugation's samples follow the support out to it
    chain = _copy(converged)
    f = from_dict(chain["maps"]["f"])
    chain["maps"]["f"] = to_dict(
        compose(f, small_bump(1e-4, center=5.0, radius=0.5)))
    report = verify_certificate(chain)
    assert not report["ok"]
    failed = _failed(report)
    assert failed["rescale-conjugation"] > DEFAULT_TOL.cert_tol
    assert "support-f" in failed


@pytest.mark.parametrize("fmt,version", [("junk", 99),
                                         ("homology-certificate-chain", 1),
                                         ("homology-certificate-chain", 2),
                                         (None, 2)])
def test_other_formats_and_versions_are_refused(converged, fmt, version):
    chain = _copy(converged)
    chain["format"], chain["version"] = fmt, version
    with pytest.raises(ValueError, match=f"format {fmt!r}, version "
                                         f"{version!r}"):
        verify_certificate(chain)


def test_tampered_iterate_fails(converged):
    chain = json.loads(dump_chain(converged.chain))
    jets = map_jets(chain["maps"]["u0"])
    jets[64][0] += 1e-4
    put_map_jets(chain["maps"]["u0"], jets)
    assert not verify_certificate(chain)["ok"]


def test_malformed_chain_raises(converged):
    with pytest.raises(ValueError):
        verify_certificate({"format": "homology-certificate-chain"})
    chain = json.loads(dump_chain(converged.chain))
    del chain["maps"]["witness"]
    with pytest.raises(ValueError):
        verify_certificate(chain)


@pytest.mark.parametrize("name", fixpoint._CHAIN_MAPS)
def test_a_map_of_another_tail_class_is_refused(tmp_path, capsys, converged,
                                                name, monkeypatch):
    chain = _copy(converged)
    chain["maps"][name]["class"] = "ep"
    built = []
    monkeypatch.setattr(fixpoint, "map_from_dict",
                        lambda *a: built.append(a) or from_dict(*a))
    with pytest.raises(ValueError, match=f"maps.{name} has class 'ep'"):
        verify_certificate(chain)
    assert built == []  # refused before any map is built or evaluated
    path = tmp_path / "ep.json"
    path.write_text(json.dumps(chain))
    capsys.readouterr()
    assert main(["perfect", "verify", str(path),
                 "--out", str(tmp_path)]) == EXIT_USAGE
    assert f"maps.{name} has class 'ep'" in capsys.readouterr().err


def test_chain_file_round_trip(tmp_path, converged):
    path = tmp_path / "chain.json"
    write_chain(str(path), converged.chain)
    back = load_chain(str(path))
    assert dump_chain(back) == dump_chain(converged.chain)
    assert verify_certificate(back)["ok"]
