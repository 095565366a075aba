"""Fixed-point renormalization experiment with verifiable homology certificates.

Starting from the identity, each step composes the input map with the
current iterate, conjugates the composite by a fixed rescaler so that it
fills the wide source interval, and applies the norm reduction to land
back on the narrow target interval.  A fixed point of this step witnesses
the input map's first-homology class as trivial: the run serializes the
maps, the rescaler's parameters and the identities involved into a
certificate chain that an independent replay can check without trusting
any stored number.

The conjugation is exact, not resampled.  The rescaler is the linear map
x -> ratio*x on [-zi, zi], twice the target interval, which holds the
support of the composite, so conjugating by it is the pure rescaling
u(x) -> ratio * u(x/ratio) of the composite's node jets.  Four closed-form
parameters (ratio, zi, zo, k) fix the rescaler, and only they enter the
search and the chain: each step checks the composite's support against
[-zi, zi] before it takes the shortcut, and the replay evaluates the
rescaler in closed form.  `make_rescaler` builds the Hermite map of the
same parameters for callers that want it as a Diffeo1.

The certificate's identities are one table, _IDENTITIES, which the chain
stores with statements read off its words.  A word identity is evaluated at
sample points by one evaluator, reduction._word at order 0, never by
building the maps it mentions, so the replay builds no map and solves no
inverse.  The unit-time flow map's check against its plateau field and the
fixed point's C^k distance are the table's two other rows.  The search
replays its own chain on the maps it holds through verify_certificate's
replay, and stores what it computed in the unreplayed `report` section.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from ._taylor import poly_jets
from .config import EVAL_DENSITY, Tolerances, DEFAULT_TOL
from .errors import PreconditionError, ConstructionError
from .flow import PlateauField, _time_map_grid
from .diffeo import (Diffeo1, _build_adaptive, _minus_identity,
                     _support_inside, _unit_nodes, compose, from_preset,
                     identity, refined_grid, rescale_displacement,
                     support_interval, support_within,
                     to_dict as map_to_dict, from_dict as map_from_dict)
from .norms import holder_norm
from .reduction import (MatherConfig, PsiResult, reduce_norm, conjugator,
                        ConjugacyCertificate, make_config, rescale_factor,
                        witness_window, _word)


# -- rescaling conjugator ----------------------------------------------------

@functools.lru_cache(maxsize=None)
def _step_poly(k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients of the polynomial step with k+2 flat derivatives at
    both ends: 0 at t=0, 1 at t=1, monotone in between; those of its
    antiderivative vanishing at 0; and that antiderivative's value at 1.
    Built once per k, since every rescaler of order k reads them; the
    arrays are read-only."""
    m = k + 2
    c = np.zeros(2 * m + 2)
    for j in range(m + 1):
        c[m + 1 + j] = (math.comb(m + j, j) * math.comb(2 * m + 1, m - j)
                        * (-1) ** j)
    ci = npp.polyint(c)
    for arr in (c, ci):
        arr.setflags(write=False)
    return c, ci, float(npp.polyval(1.0, ci))


class _BlendProfile:
    """Slope profile of the rescaler across one blend zone, in the unit
    coordinate t = (|x|-zi)/(zo-zi).

    The slope starts at `ratio`, drops (or rises) quickly to a flat level
    `ell`, and returns to 1 at the outer edge; `ell` is pinned by the
    integral constraint that makes the rescaler meet the identity exactly
    at zo.  Transitions use a polynomial step so the antiderivative is
    available in closed form.
    """

    def __init__(self, ratio: float, zi: float, zo: float, k: int):
        self.ratio = ratio
        self.zi = zi
        self.zo = zo
        self.span = zo - zi
        self.mean = (zo - ratio * zi) / self.span
        self.c, self.ci, self.ivalue = _step_poly(k)
        self.w = min(0.05, 0.5 * self.mean / (ratio + 1.0))
        w, eye = self.w, self.ivalue
        self.ell = ((self.mean - ratio * w * (1.0 - eye) - w * eye)
                    / (1.0 - w))

    @property
    def min_slope(self) -> float:
        """Least slope of the rescaler: each step moves monotonically
        between ratio, ell and 1, so the extremes are those levels."""
        return min(self.ratio, self.ell, 1.0)

    @property
    def feasible(self) -> bool:
        return self.mean > 0.0 and self.min_slope > 1e-3

    def jets(self, t: np.ndarray, order: int) -> np.ndarray:
        """Rows [integral, slope, slope', ...] of the profile at t, up to
        the given order (at most k); the step polynomial's jets are
        evaluated only for the slope rows."""
        w, ell, ratio = self.w, self.ell, self.ratio
        out = np.zeros(t.shape + (order + 1,))
        fall = t <= w
        rise = t >= 1.0 - w
        flat = ~(fall | rise)
        base = ell * w + (ratio - ell) * w * (1.0 - self.ivalue)
        if fall.any():
            a = t[fall] / w
            anti = npp.polyval(a, self.ci)
            out[fall, 0] = (ell * t[fall]
                            + (ratio - ell) * (t[fall] - w * anti))
            if order >= 1:
                sj = poly_jets(self.c, a, order - 1)
                out[fall, 1] = ell + (ratio - ell) * (1.0 - sj[..., 0])
            for j in range(2, order + 1):
                out[fall, j] = -(ratio - ell) * sj[..., j - 1] / w ** (j - 1)
        if flat.any():
            out[flat, 0] = base + ell * (t[flat] - w)
            if order >= 1:
                out[flat, 1] = ell
        if rise.any():
            a = (t[rise] - (1.0 - w)) / w
            anti = npp.polyval(a, self.ci)
            start = base + ell * (1.0 - 2.0 * w)
            out[rise, 0] = (start + ell * (t[rise] - 1.0 + w)
                            + (1.0 - ell) * w * anti)
            if order >= 1:
                sj = poly_jets(self.c, a, order - 1)
                out[rise, 1] = ell + (1.0 - ell) * sj[..., 0]
            for j in range(2, order + 1):
                out[rise, j] = (1.0 - ell) * sj[..., j - 1] / w ** (j - 1)
        return out


def _rescaler_fn(ratio: float, zi: float, zo: float, k: int):
    """Displacement jets of the rescaler with these parameters, in closed
    form."""
    span = zo - zi
    prof = _BlendProfile(ratio, zi, zo, k)

    def fn(xs: np.ndarray, order: int) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape + (order + 1,))
        ax = np.abs(xs)
        inner = ax <= zi
        outer = ax >= zo
        mid = ~(inner | outer)
        out[inner, 0] = (ratio - 1.0) * xs[inner]
        if order >= 1:
            out[inner, 1] = ratio - 1.0
        if mid.any():
            t = (ax[mid] - zi) / span
            pj = prof.jets(t, order)
            q = np.zeros(pj.shape)
            q[:, 0] = ratio * zi + span * pj[:, 0]
            for j in range(1, order + 1):
                q[:, j] = pj[:, j] / span ** (j - 1)
            sg = np.where(xs[mid] < 0.0, -1.0, 1.0)
            for j in range(order + 1):
                q[:, j] *= sg ** (j + 1)
            out[mid] = _minus_identity(q, xs[mid])
        return out

    return fn


def scaling_ratio(cfg: MatherConfig) -> float:
    """Width of the source interval over width of the target interval."""
    return (cfg.E[1] - cfg.E[0]) / (cfg.D[1] - cfg.D[0])


def rescaler_params(cfg: MatherConfig) -> tuple[float, float, float, int]:
    """(ratio, zi, zo, k) of the rescaler: an odd diffeomorphism equal to
    ratio*x on [-zi, zi], twice the target interval, and to the identity
    outside [-zo, zo], four source widths, joined by a monotone blend with
    the matching integral.

    If the first blend zone is thinner than one unit or its slope falls to
    1e-3 or below, the zone is widened once before giving up.
    """
    width_d = cfg.D[1] - cfg.D[0]
    width_e = cfg.E[1] - cfg.E[0]
    ratio = scaling_ratio(cfg)
    zi = 2.0 * width_d
    worst = None
    for zo in (4.0 * width_e, 4.0 * (width_e + width_d)):
        if not zo - zi > 1.0:
            continue
        prof = _BlendProfile(ratio, zi, zo, cfg.k)
        if prof.feasible:
            return ratio, zi, zo, cfg.k
        worst = prof.min_slope
    raise ConstructionError(
        f"rescaling stage: no monotone blend zone outside |x| = {zi:g} "
        f"(worst slope level {worst})")


def make_rescaler(cfg: MatherConfig,
                  tol: Tolerances | None = None) -> Diffeo1:
    """The rescaler of rescaler_params(cfg) as a Hermite map on [-zo, zo].

    Maps supported in the target interval are carried onto the source
    interval by pure scaling under conjugation.
    """
    tol = tol or DEFAULT_TOL
    ratio, zi, zo, k = rescaler_params(cfg)
    n0 = _unit_nodes(2.0 * zo, 513)
    return _build_adaptive("compact", -zo, zo, k,
                           _rescaler_fn(ratio, zi, zo, k), n0, tol)


class _RescalerLetter:
    """The rescaler as a letter of reduction._word: compact on [-zo, zo],
    with jets in closed form, all that _apply_letter reads of a map."""

    tail = "compact"

    def __init__(self, params: tuple[float, float, float, int]):
        self.ratio = params[0]
        self.a, self.b = -params[2], params[2]
        self._disp = _rescaler_fn(*params)

    def jet_at(self, x: np.ndarray, order: int) -> np.ndarray:
        out = self._disp(x, order)
        out[..., 0] += x
        if order >= 1:
            out[..., 1] += 1.0
        return out


# -- the renormalized reduction step -----------------------------------------

@dataclass(frozen=True)
class RenormStep:
    """One application of the renormalized reduction, with diagnostics."""

    map: Diffeo1
    conjugated: Diffeo1             # rescaler o (f o u) o rescaler^{-1}, the
                                    # exact rescale of f o u's node jets by
                                    # the rescaler parameters' ratio
    reduction: PsiResult
    norm_composed: float            # norm of f o u before rescaling


def _check_linear_on(params: tuple[float, float, float, int],
                     supp: tuple[float, float]) -> None:
    """Refuse unless supp lies in [-zi, zi], where the rescaler is
    x -> ratio*x."""
    ratio, zi = params[0], params[1]
    if not (supp[0] >= -zi and supp[1] <= zi):
        raise ConstructionError(
            f"rescaling stage: support {supp} of f o u leaves [-{zi:g}, "
            f"{zi:g}], where the rescaler is x -> {ratio:g}x")


def _renorm_full(u: Diffeo1, f: Diffeo1,
                 params: tuple[float, float, float, int],
                 cfg: MatherConfig, tol: Tolerances) -> RenormStep:
    try:
        fu = compose(f, u, tol)
    except (PreconditionError, ConstructionError) as e:
        raise type(e)(f"composition stage: {e}") from e
    norm_fu = holder_norm(fu, cfg.alpha, cfg.k)
    if norm_fu > 3.0 * cfg.delta0:
        raise PreconditionError(
            f"composition stage: composite norm {norm_fu:.3e} exceeds the "
            f"iteration ball {3.0 * cfg.delta0:.1e}")
    supp = support_interval(fu)
    if supp is not None:
        _check_linear_on(params, supp)
    g = rescale_displacement(fu, params[0])
    try:
        red = reduce_norm(g, cfg, tol)
    except (PreconditionError, ConstructionError) as e:
        raise type(e)(f"reduction stage: {e}") from e
    inside, supp = support_within(red.map, cfg.D)
    if not inside:
        raise ConstructionError(
            f"reduction stage: iterate support {supp} escapes the target "
            f"interval {cfg.D}")
    return RenormStep(map=red.map, conjugated=g, reduction=red,
                      norm_composed=norm_fu)


def ck_distance(u: Diffeo1, v: Diffeo1) -> float:
    """Largest absolute gap between the jets of u and v, of every order
    both carry, sampled on the union of both refined grids with tail
    extension.  Maps of different k are compared on the lower one's
    orders; the replay's config item is what refuses such a pair."""
    k = min(u.k, v.k)
    xs = np.union1d(refined_grid(u, EVAL_DENSITY),
                    refined_grid(v, EVAL_DENSITY))
    return float(np.max(np.abs(u.jet_at(xs, k) - v.jet_at(xs, k))))


# -- the search and its certificate chain ------------------------------------

@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of the iteration; u0 is None when it did not settle."""

    u0: Diffeo1 | None
    iterations: int
    residual: float
    trace: list
    certificate: ConjugacyCertificate | None
    chain: dict | None

    @property
    def converged(self) -> bool:
        return self.u0 is not None


def calibrated_bump(target: float, alpha, k: int = 2, center: float = 0.0,
                    radius: float = 1.5,
                    tol: Tolerances | None = None) -> Diffeo1:
    """The smooth bump displacement rescaled in amplitude so its norm hits
    the target; the norm is linear in the amplitude at these sizes, so two
    correction passes land within rounding."""
    tol = tol or DEFAULT_TOL
    if target <= 0.0:
        raise ValueError("target norm must be positive")
    eps = 2e-5
    f = from_preset("smooth_bump_displacement",
                    {"eps": eps, "center": center, "radius": radius, "k": k},
                    tol)
    for _ in range(2):
        measured = holder_norm(f, alpha, k)
        if abs(measured - target) <= 1e-6 * target:
            break
        eps *= target / measured
        f = from_preset("smooth_bump_displacement",
                        {"eps": eps, "center": center, "radius": radius,
                         "k": k}, tol)
    return f


CHAIN_FORMAT = "homology-certificate-chain"
CHAIN_VERSION = 4
_CHAIN_MAPS = ("f", "u0", "conjugated", "reduced", "witness",
               "flow_time_one")

# The certificate's identities, in replay order.  A "words" row states
# lhs = rhs, words of chain maps and the rescaler written outermost first,
# read at `samples` points over its window (D or witness_window) widened by
# `widen` left and right, and out to the support of each word in
# `supports`: a map's, pulled back by x -> ratio*x through a rescaler.
_IDENTITIES = (
    {"name": "rescale-conjugation", "check": "words",
     "lhs": ["conjugated", "rescaler"], "rhs": ["rescaler", "f", "u0"],
     "window": "D", "widen": [1.0, 1.0], "samples": 1025,
     "supports": [["f"], ["u0"], ["conjugated", "rescaler"]]},
    {"name": "flow-conjugacy", "check": "words",
     "lhs": ["flow_time_one", "reduced", "witness"],
     "rhs": ["witness", "flow_time_one", "conjugated"],
     "window": "witness", "widen": [2.0, 1.0], "samples": 2049,
     "supports": [["reduced"], ["conjugated"], ["witness"]]},
    {"name": "flow-time-one", "check": "unit-time-flow",
     "lhs": ["flow_time_one"]},
    {"name": "fixed-point", "check": "ck_distance",
     "lhs": ["reduced"], "rhs": ["u0"]},
)


def _statement(row: dict) -> str:
    """The identity a row of _IDENTITIES states, read off its words."""
    lhs, rhs = (" o ".join(row.get(side, ())) for side in ("lhs", "rhs"))
    if row["check"] == "unit-time-flow":
        return f"{lhs} is the unit-time map of the plateau field of A"
    metric = " in the C^k metric" if row["check"] == "ck_distance" else ""
    return f"{lhs} = {rhs}{metric}"


def _identity_table() -> list:
    """The chain's `identities` section: _IDENTITIES with the statements,
    as fresh JSON data."""
    return json.loads(json.dumps([{**row, "statement": _statement(row)}
                                  for row in _IDENTITIES]))


_TABLE = _identity_table()              # what a chain must hold; never changed


def _supports(maps: dict, names) -> dict:
    """support_interval of each named chain map."""
    return {name: support_interval(maps[name]) for name in names}


def _samples(lo: float, hi: float, n: int, supports) -> np.ndarray:
    """n samples over [lo, hi], widened a unit past any support it does not
    hold, at the same spacing."""
    step = (hi - lo) / (n - 1)
    for s in supports:
        if s is not None:
            lo, hi = min(lo, s[0] - 1.0), max(hi, s[1] + 1.0)
    return np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)


def _flow_time_one_residual(tau: Diffeo1, field: PlateauField) -> float:
    """Largest gap of the identities that fix the unit-time map tau of the
    field rho.  At the nodes x where x and x + 1 both lie on the plateau,
    tau is the unit translation: its node jet is x + 1, 1, 0, ..., so a
    cell between two such nodes interpolates the translation exactly.
    Elsewhere, at the nodes and at the midpoints of the cells with an end
    off those nodes, tau meets the 1-D flow identity
    rho(tau(x)) = tau'(x) rho(x).  Where rho vanishes that identity reads
    only rho(tau(x)), so a change of tau there by a value next to the
    field's outer edge goes unseen."""
    xs = tau.nodes
    shift = ((np.abs(xs) <= field.plateau)
             & (np.abs(xs + 1.0) <= field.plateau))
    cells = ~(shift[:-1] & shift[1:])
    pts = np.concatenate([xs[~shift], xs[:-1][cells] + 0.5 * tau.h])
    J = tau.jet_at(pts, 1)
    flow = np.abs(field.values(J[:, 0]) - J[:, 1] * field.values(pts))
    unit = np.compress(shift, tau.jets, axis=0)
    unit[:, 0] -= 1.0
    return float(max(np.max(flow, initial=0.0),
                     np.max(np.abs(unit), initial=0.0)))


def _residual(row: dict, maps: dict, supp: dict, cfg: MatherConfig) -> float:
    """The residual of one row of _IDENTITIES on the maps, keyed by their
    chain names, with "rescaler" a _RescalerLetter when a word reads it;
    supp holds the supports of the maps the row's sample rule reads."""
    check = row["check"]
    if check == "ck_distance":
        return ck_distance(maps[row["lhs"][0]], maps[row["rhs"][0]])
    if check == "unit-time-flow":
        return _flow_time_one_residual(maps[row["lhs"][0]],
                                       PlateauField(cfg.A))
    lo, hi = cfg.D if row["window"] == "D" else witness_window(cfg)
    left, right = row["widen"]
    reach = []
    for word in row["supports"]:        # [map] or [map, "rescaler"]
        s = supp[word[0]]
        if s is not None and word[1:]:
            s = tuple(end / maps["rescaler"].ratio for end in s)
        reach.append(s)
    xs = _samples(lo - left, hi + right, row["samples"], reach)
    lhs, rhs = (_word(xs, [(maps[name], 1, 0.0, 0.0)
                           for name in reversed(row[side])], 0)[:, 0]
                for side in ("lhs", "rhs"))
    return float(np.max(np.abs(lhs - rhs)))


def identity_residual(name: str, maps: dict, cfg: MatherConfig) -> float:
    """The replay's residual of the certificate identity `name` on the maps
    keyed by their chain names; `mather lambda` reads its flow conjugacy."""
    (row,) = [row for row in _IDENTITIES if row["name"] == name]
    return _residual(row, maps, _supports(maps, {
        word[0] for word in row.get("supports", ())}), cfg)


def _assemble_chain(maps: dict, params: tuple[float, float, float, int],
                    step: RenormStep, cfg: MatherConfig, tol: Tolerances,
                    iterations: int, trace: list) -> dict:
    """The replayed part of the certificate chain of a converged search,
    from the maps it holds, keyed by their names in the chain."""
    ratio, zi, zo, k = params
    return {
        "format": CHAIN_FORMAT,
        "version": CHAIN_VERSION,
        "config": {**cfg.to_dict(), "fix_tol": tol.fix_tol,
                   "cert_tol": tol.cert_tol},
        "iterations": iterations,
        "residual": trace[-1]["residual"],
        "trace": trace,
        "rescaler": {"ratio": ratio, "zi": zi, "zo": zo, "k": k},
        "maps": {name: map_to_dict(maps[name]) for name in _CHAIN_MAPS},
        "identities": _identity_table(),
        "homology": {
            "statement": ("reduced = u0 and reduced is conjugate to "
                          "conjugated, which is conjugate to f o u0; hence "
                          "[f] + [u0] = [u0] and [f] vanishes in first "
                          "homology"),
            "reduction": step.reduction.to_dict(),
        },
    }


def _replay_own_chain(chain: dict, maps: dict, tol: Tolerances) -> dict:
    """The replay report of a chain on its own maps, unless it fails."""
    try:
        report = _replay(chain, maps, tol)
    except ValueError as e:
        raise ConstructionError(
            f"certificate stage: replay failed: {e}") from e
    failed = [item["name"] for item in report["items"] if not item["ok"]]
    if failed:
        raise ConstructionError(
            f"certificate stage: replay failed on {', '.join(failed)}")
    return report


def fixed_point_search(f: Diffeo1, cfg: MatherConfig,
                       tol: Tolerances | None = None) -> FixedPointResult:
    """Iterate the renormalized reduction from the identity until the step
    is stationary, then certify the run.

    Stationarity means the C^k distance between the iterate and its image
    is at most tol.fix_tol, within at most tol.fix_max_iter steps.  At
    A=1 neither the rescaling nor the norm scaling shrinks anything, so
    the search refuses before it builds a map.
    Non-convergence is a reported outcome, not an exception: u0 is None
    and the trace records every residual.  A converged run replays its
    own chain, and refuses with "certificate stage: replay failed ..."
    unless every item passes.  That replay, verify_certificate's on the
    maps the search holds (the chain's jets bit for bit), is the only
    evaluation of the identities; the chain's unreplayed `report` section
    keeps its residuals and the conjugator's diagnostics.
    """
    tol = tol or DEFAULT_TOL
    if cfg.A == 1:
        ratio = scaling_ratio(cfg)
        rf = rescale_factor(cfg.alpha, cfg.A, cfg.k)
        raise PreconditionError(
            f"configuration stage: at A=1 the scaling ratio is {ratio:g} "
            f"and the rescale factor {rf:g}, so the renormalized step "
            f"cannot contract")
    if f.tail != "compact":
        raise PreconditionError("the experiment needs a compact input map")
    if f.k != cfg.k:
        raise PreconditionError("input jet order disagrees with the config")
    inside, supp = support_within(f, cfg.D)
    if not inside:
        raise PreconditionError(
            f"input support {supp} is not inside the target interval "
            f"{cfg.D}")
    norm_f = holder_norm(f, cfg.alpha, cfg.k)
    if norm_f > cfg.delta0:
        raise PreconditionError(
            f"input norm {norm_f:.3e} exceeds the ball radius "
            f"{cfg.delta0:.1e}")

    params = rescaler_params(cfg)
    u = identity(cfg.k, cfg.D[0], cfg.D[1])
    trace: list = []
    residual = math.inf
    for it in range(1, tol.fix_max_iter + 1):
        step = _renorm_full(u, f, params, cfg, tol)
        residual = ck_distance(step.map, u)
        trace.append({
            "iteration": it,
            "residual": float(residual),
            "norm_composed": float(step.norm_composed),
            "norm_conjugated": float(step.reduction.norm_in),
            "norm_reduced": float(step.reduction.norm_out),
            "rolled_slope": float(step.reduction.rolled_slope),
        })
        if residual <= tol.fix_tol:
            try:
                cert = conjugator(step.conjugated, step.map, cfg, tol)
            except (PreconditionError, ConstructionError) as e:
                raise type(e)(f"certificate stage: {e}") from e
            maps = {"f": f, "u0": u, "conjugated": step.conjugated,
                    "reduced": step.map, "witness": cert.lam,
                    "flow_time_one": cert.tau}
            chain = _assemble_chain(maps, params, step, cfg, tol, it, trace)
            replayed = _replay_own_chain(chain, maps, tol)
            names = [row["name"] for row in _IDENTITIES]
            chain["report"] = {
                "residuals": {item["name"]: item["recomputed"]
                              for item in replayed["items"]
                              if item["name"] in names},
                "conjugator": {"tail_flow_time": cert.b,
                               "word_length": cert.word_length,
                               "translation_dev": cert.translation_dev,
                               "overlaps": dict(cert.overlaps)},
            }
            return FixedPointResult(u0=u, iterations=it,
                                    residual=float(residual), trace=trace,
                                    certificate=cert, chain=chain)
        u = step.map
    return FixedPointResult(u0=None, iterations=tol.fix_max_iter,
                            residual=float(residual), trace=trace,
                            certificate=None, chain=None)


# -- serialization and replay -------------------------------------------------

def dump_chain(chain: dict) -> str:
    return json.dumps(chain, sort_keys=True, separators=(",", ":"))


def write_atomic(path: str, text: str) -> None:
    """Write utf-8 text atomically, creating the directory if needed: the
    file either keeps its old content or holds the complete new text,
    never a partial write."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_chain(path: str, chain: dict) -> None:
    """Write dump_chain(chain) to path with write_atomic."""
    write_atomic(path, dump_chain(chain))


def load_chain(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _gap(key: str, stored, want) -> float:
    """Largest absolute difference of two numbers, or of two equal-length
    lists of numbers, in plain floats; a ValueError naming the key when
    they cannot be compared.  A number is an int or a float, not a bool
    or a string, and the difference must be finite."""
    if isinstance(want, list):
        ok = isinstance(stored, (list, tuple)) and len(stored) == len(want)
        pairs = zip(stored, want) if ok else ()
    else:
        ok, pairs = True, ((stored, want),)
    gap = 0.0
    for s, w in pairs:
        number = isinstance(s, (int, float)) and not isinstance(s, bool)
        try:
            d = abs(float(s) - float(w)) if number else math.nan
        except OverflowError:           # an int beyond the float range
            d = math.inf
        if not math.isfinite(d):
            ok = False
            break
        gap = max(gap, d)
    if not ok:
        raise ValueError(f"{key} is {stored!r} where a value like "
                         f"{want!r} belongs")
    return gap


_MALFORMED = (KeyError, IndexError, TypeError, ValueError, ConstructionError)


def verify_certificate(chain: dict, tol: Tolerances | None = None) -> dict:
    """Replay a version-4 certificate chain, trusting no stored number.

    Every map is rebuilt from its jets.  The `config` item requires the
    stored config, `rescaler` entry, map orders and flow_time_one grid to
    equal those the search's rules give for the stored k and A; the
    `identities` item requires the chain's table to be the code's, so no
    word can be rewritten into a tautology.  Each identity of the code's
    table passes when its recomputed residual is at most cert_tol.  The
    report's `unreplayed` list names the fields no item reads.  A chain of
    another format or version (1 to 3 included), one that cannot be read,
    or one with a map whose class is not "compact" is a ValueError; the
    class is checked before any map is built.
    """
    tol = tol or DEFAULT_TOL
    if not isinstance(chain, dict):
        raise ValueError(f"a certificate chain is a JSON object, found "
                         f"{type(chain).__name__}")
    found = (chain.get("format"), chain.get("version"))
    if found != (CHAIN_FORMAT, CHAIN_VERSION):
        raise ValueError(
            f"not a {CHAIN_FORMAT} version {CHAIN_VERSION}: found format "
            f"{found[0]!r}, version {found[1]!r}")
    try:
        for name in _CHAIN_MAPS:
            tail = dict(chain["maps"][name]).get("class")
            if tail != "compact":
                raise ValueError(f"maps.{name} has class {tail!r}; every "
                                 f"chain map is compact")
        maps = {name: map_from_dict(chain["maps"][name], tol)
                for name in _CHAIN_MAPS}
    except _MALFORMED as e:
        raise ValueError(f"malformed certificate chain: {e!r}") from e
    return _replay(chain, maps, tol)


# the chain's fields that no replay item reads
_UNREPLAYED = ("config.alpha", "config.fix_tol", "config.cert_tol",
               "iterations", "residual", "trace", "homology", "report")


def _replay(chain: dict, maps: dict, tol: Tolerances) -> dict:
    """The report of verify_certificate on a chain of the right format,
    whose maps, keyed by their names in the chain, are given as Diffeo1s.
    Each map's support is computed once and read by every item that
    needs it.  A field that cannot be read is a ValueError."""
    try:
        cfgd = dict(chain["config"])
        k, A = cfgd["k"], cfgd["A"]
        if type(k) is not int or type(A) is not int:
            raise ValueError(f"config k and A must be integers, found "
                             f"{k!r} and {A!r}")
        # the replay never evaluates the modulus, so none is rebuilt
        cfg = make_config(k, None, A)
        params = rescaler_params(cfg)
        stored_q = dict(chain["rescaler"])
        table = chain["identities"]
        want = {"B": cfg.B, "D": list(cfg.D), "E": list(cfg.E),
                "eps0": cfg.eps0, "delta0": cfg.delta0}
        found_cfg = {key: cfgd.get(key) for key in want}
        for key, value in zip(("ratio", "zi", "zo", "k"), params):
            want[f"rescaler.{key}"] = value
            found_cfg[f"rescaler.{key}"] = stored_q.get(key)
        for name, m in maps.items():
            want[f"{name}.k"] = k
            found_cfg[f"{name}.k"] = m.k
        # flow-time-one samples tau on its own grid, which must be the one
        # every time-t map of the field has
        tau = maps["flow_time_one"]
        want["flow_time_one.grid"] = list(_time_map_grid(PlateauField(A)))
        found_cfg["flow_time_one.grid"] = [tau.a, tau.b, tau.n]
        gaps = {key: _gap(key, found_cfg[key], want[key]) for key in want}
    except _MALFORMED as e:
        raise ValueError(f"malformed certificate chain: {e!r}") from e

    # the chain's table must be the code's, row for row; the code's rows
    # are what is evaluated
    rows = table if isinstance(table, list) else []
    differ = [row["name"] for i, row in enumerate(_TABLE)
              if i >= len(rows) or rows[i] != row]
    if len(rows) != len(_TABLE):
        differ.append("length")
    items = [{"name": "config", "recomputed": max(gaps.values()),
              "bound": 0.0,
              "mismatch": sorted(key for key, v in gaps.items() if v > 0.0),
              "ok": all(v == 0.0 for v in gaps.values())},
             {"name": "identities", "recomputed": None, "bound": None,
              "mismatch": differ, "ok": not differ}]

    supp = _supports(maps, ("f", "u0", "conjugated", "reduced", "witness"))
    letters = {**maps, "rescaler": _RescalerLetter(params)}
    for row in _IDENTITIES:
        recomputed = _residual(row, letters, supp, cfg)
        items.append({"name": row["name"], "recomputed": recomputed,
                      "bound": tol.cert_tol,
                      "ok": bool(recomputed <= tol.cert_tol)})

    for name, win in (("f", cfg.D), ("u0", cfg.D), ("conjugated", cfg.E),
                      ("reduced", cfg.D), ("witness", witness_window(cfg))):
        sm = supp[name]
        items.append({"name": f"support-{name}",
                      "recomputed": None if sm is None else list(sm),
                      "bound": list(win),
                      "ok": bool(_support_inside(sm, win, maps[name].h))})

    return {"ok": all(item["ok"] for item in items), "items": items,
            "unreplayed": list(_UNREPLAYED)}
