"""Fixed-point renormalization experiment with verifiable homology certificates.

Starting from the identity, each step composes the input map with the
current iterate, conjugates the composite by a fixed rescaler so that it
fills the wide source interval, and applies the norm reduction to land
back on the narrow target interval.  A fixed point of this step witnesses
the input map's first-homology class as trivial: the run serializes every
map and identity involved into a certificate chain that an independent
replay can check without trusting any stored number.

The conjugation is exact, not resampled.  The rescaler is the linear map
x -> ratio*x on twice the target interval, which holds the support of the
composite, so conjugating by it is the pure rescaling u(x) -> ratio *
u(x/ratio) of the composite's node jets.  Each step checks the rescaler's
node jets over that support before it takes the shortcut.
"""

from __future__ import annotations

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
from .diffeo import (Diffeo1, _build_adaptive, compose, from_preset,
                     identity, inverse, refined_grid, rescale_displacement,
                     support_interval, to_dict as map_to_dict,
                     from_dict as map_from_dict)
from .norms import holder_norm
from .reduction import (MatherConfig, PsiResult, reduce_norm, conjugator,
                        ConjugacyCertificate)


# -- rescaling conjugator ----------------------------------------------------

def _step_poly(k: int) -> np.ndarray:
    """Coefficients of the polynomial step with k+2 flat derivatives at
    both ends: 0 at t=0, 1 at t=1, monotone in between."""
    m = k + 2
    c = np.zeros(2 * m + 2)
    for j in range(m + 1):
        c[m + 1 + j] = (math.comb(m + j, j) * math.comb(2 * m + 1, m - j)
                        * (-1) ** j)
    return c


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
        self.k = k
        self.span = zo - zi
        self.mean = (zo - ratio * zi) / self.span
        self.c = _step_poly(k)
        self.ci = npp.polyint(self.c)
        self.ivalue = float(npp.polyval(1.0, self.ci))
        self.w = min(0.05, 0.5 * self.mean / (ratio + 1.0))
        w, eye = self.w, self.ivalue
        self.ell = ((self.mean - ratio * w * (1.0 - eye) - w * eye)
                    / (1.0 - w))

    @property
    def feasible(self) -> bool:
        return self.mean > 0.0 and self.ell > 1e-3

    def jets(self, t: np.ndarray) -> np.ndarray:
        """Rows [integral, slope, slope', ...] of the profile at t."""
        k = self.k
        w, ell, ratio = self.w, self.ell, self.ratio
        out = np.zeros(t.shape + (k + 1,))
        fall = t <= w
        rise = t >= 1.0 - w
        flat = ~(fall | rise)
        base = ell * w + (ratio - ell) * w * (1.0 - self.ivalue)
        if fall.any():
            a = t[fall] / w
            sj = poly_jets(self.c, a, max(k - 1, 0))
            anti = npp.polyval(a, self.ci)
            out[fall, 0] = (ell * t[fall]
                            + (ratio - ell) * (t[fall] - w * anti))
            out[fall, 1] = ell + (ratio - ell) * (1.0 - sj[..., 0])
            for j in range(2, k + 1):
                out[fall, j] = -(ratio - ell) * sj[..., j - 1] / w ** (j - 1)
        if flat.any():
            out[flat, 0] = base + ell * (t[flat] - w)
            out[flat, 1] = ell
        if rise.any():
            a = (t[rise] - (1.0 - w)) / w
            sj = poly_jets(self.c, a, max(k - 1, 0))
            anti = npp.polyval(a, self.ci)
            start = base + ell * (1.0 - 2.0 * w)
            out[rise, 0] = (start + ell * (t[rise] - 1.0 + w)
                            + (1.0 - ell) * w * anti)
            out[rise, 1] = ell + (1.0 - ell) * sj[..., 0]
            for j in range(2, k + 1):
                out[rise, j] = (1.0 - ell) * sj[..., j - 1] / w ** (j - 1)
        return out


def _rescaler_fn(ratio: float, zi: float, zo: float, k: int,
                 prof: _BlendProfile):
    span = zo - zi

    def fn(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape + (k + 1,))
        ax = np.abs(xs)
        inner = ax <= zi
        outer = ax >= zo
        mid = ~(inner | outer)
        out[inner, 0] = (ratio - 1.0) * xs[inner]
        if k >= 1:
            out[inner, 1] = ratio - 1.0
        if mid.any():
            t = (ax[mid] - zi) / span
            pj = prof.jets(t)
            q = np.zeros(pj.shape)
            q[:, 0] = ratio * zi + span * pj[:, 0]
            for j in range(1, k + 1):
                q[:, j] = pj[:, j] / span ** (j - 1)
            sg = np.where(xs[mid] < 0.0, -1.0, 1.0)
            for j in range(k + 1):
                q[:, j] *= sg ** (j + 1)
            q[:, 0] -= xs[mid]
            if k >= 1:
                q[:, 1] -= 1.0
            out[mid] = q
        return out

    return fn


def scaling_ratio(cfg: MatherConfig) -> float:
    """Width of the source interval over width of the target interval."""
    return (cfg.E[1] - cfg.E[0]) / (cfg.D[1] - cfg.D[0])


def make_rescaler(cfg: MatherConfig,
                  tol: Tolerances | None = None) -> Diffeo1:
    """An odd diffeomorphism equal to ratio*x on twice the target interval
    and to the identity outside four source widths, joined by a monotone
    blend with the matching integral.

    Maps supported in the target interval are carried onto the source
    interval by pure scaling under conjugation.  If the first blend zone
    is thinner than one unit or cannot stay monotone, the zone is widened
    once before giving up.
    """
    tol = tol or DEFAULT_TOL
    width_d = cfg.D[1] - cfg.D[0]
    width_e = cfg.E[1] - cfg.E[0]
    ratio = width_e / width_d
    zi = 2.0 * width_d
    worst = None
    for zo in (4.0 * width_e, 4.0 * (width_e + width_d)):
        if not zo - zi > 1.0:
            continue
        prof = _BlendProfile(ratio, zi, zo, cfg.k)
        if not prof.feasible:
            worst = prof.ell
            continue
        n0 = max(513, int(round(256.0 * 2.0 * zo)) + 1)
        q = _build_adaptive("compact", -zo, zo, cfg.k,
                            _rescaler_fn(ratio, zi, zo, cfg.k, prof),
                            n0, tol)
        slope_min = float(np.min(q.jets[:, 1])) + 1.0
        if slope_min > 1e-3:
            return q
        worst = slope_min
    raise ConstructionError(
        f"rescaling stage: no monotone blend zone outside |x| = {zi:g} "
        f"(worst slope level {worst})")


# -- the renormalized reduction step -----------------------------------------

@dataclass(frozen=True)
class RenormStep:
    """One application of the renormalized reduction, with diagnostics."""

    map: Diffeo1
    conjugated: Diffeo1             # rescaler o (f o u) o rescaler^{-1}, the
                                    # exact rescale of f o u's node jets
    reduction: PsiResult
    norm_composed: float            # norm of f o u before rescaling


def _check_linear_on(rescaler: Diffeo1, supp: tuple[float, float],
                     ratio: float, tol: Tolerances) -> None:
    """Refuse unless the rescaler's node jets over every grid cell meeting
    supp are those of x -> ratio*x; the interpolant is then that line."""
    i0 = math.floor((supp[0] - rescaler.a) / rescaler.h)
    i1 = math.ceil((supp[1] - rescaler.a) / rescaler.h)
    if i0 < 0 or i1 > rescaler.n - 1:
        raise ConstructionError(
            f"rescaling stage: support {supp} of f o u leaves the rescaler "
            f"grid [{rescaler.a:g}, {rescaler.b:g}]")
    want = np.zeros((i1 - i0 + 1, rescaler.k + 1))
    want[:, 0] = (ratio - 1.0) * rescaler.nodes[i0:i1 + 1]
    want[:, 1] = ratio - 1.0
    gap = float(np.max(np.abs(rescaler.jets[i0:i1 + 1] - want)))
    if not gap <= tol.node_zero:
        raise ConstructionError(
            f"rescaling stage: rescaler departs from x -> {ratio:g}x by "
            f"{gap:.3e} on the support {supp} of f o u")


def _renorm_full(u: Diffeo1, f: Diffeo1, rescaler: Diffeo1,
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
    ratio = scaling_ratio(cfg)
    supp = support_interval(fu)
    if supp is not None:
        _check_linear_on(rescaler, supp, ratio, tol)
    g = rescale_displacement(fu, ratio)
    try:
        red = reduce_norm(g, cfg, tol)
    except (PreconditionError, ConstructionError) as e:
        raise type(e)(f"reduction stage: {e}") from e
    supp = support_interval(red.map)
    if supp is not None and (supp[0] < cfg.D[0] - red.map.h
                             or supp[1] > cfg.D[1] + red.map.h):
        raise ConstructionError(
            f"iterate support {supp} escapes the target interval {cfg.D}")
    return RenormStep(map=red.map, conjugated=g, reduction=red,
                      norm_composed=norm_fu)


def ck_distance(u: Diffeo1, v: Diffeo1) -> float:
    """Largest absolute gap between the full jets of u and v, sampled on
    the union of both refined grids with tail extension."""
    if u.k != v.k:
        raise ValueError("operands carry different jet orders")
    xs = np.union1d(refined_grid(u, EVAL_DENSITY),
                    refined_grid(v, EVAL_DENSITY))
    return float(np.max(np.abs(u.jet_at(xs, u.k) - v.jet_at(xs, v.k))))


# -- the search and its certificate chain ------------------------------------

@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of the iteration; u0 is None when it did not settle."""

    u0: Diffeo1 | None
    iterations: int
    residual: float
    trace: list
    certificates: list
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


def _assemble_chain(f: Diffeo1, u0: Diffeo1, rescaler: Diffeo1, g: Diffeo1,
                    red: PsiResult, cert: ConjugacyCertificate,
                    fix_residual: float, cfg: MatherConfig, tol: Tolerances,
                    iterations: int, trace: list) -> dict:
    fu = compose(f, u0, tol)
    xs = np.linspace(cfg.D[0] - 1.0, cfg.D[1] + 1.0, 1025)
    rescale_res = float(np.max(np.abs(g(rescaler(xs)) - rescaler(fu(xs)))))
    return {
        "format": "homology-certificate-chain",
        "version": 1,
        "config": {**cfg.to_dict(), "fix_tol": tol.fix_tol,
                   "cert_tol": tol.cert_tol},
        "iterations": iterations,
        "residual": fix_residual,
        "trace": trace,
        "maps": {
            "f": map_to_dict(f),
            "u0": map_to_dict(u0),
            "rescaler": map_to_dict(rescaler),
            "conjugated": map_to_dict(g),
            "reduced": map_to_dict(red.map),
            "witness": map_to_dict(cert.lam),
            "flow_time_one": map_to_dict(cert.tau),
        },
        "identities": {
            "rescale_conjugation": {
                "statement": "conjugated o rescaler = rescaler o (f o u0)",
                "residual": rescale_res,
                "samples": 1025,
            },
            "flow_conjugacy": {
                "statement": ("flow_time_one o reduced = witness o "
                              "flow_time_one o conjugated o witness^{-1}"),
                "residual": cert.residual,
                "tail_flow_time": cert.b,
                "word_length": cert.word_length,
                "translation_dev": cert.translation_dev,
                "overlaps": dict(cert.overlaps),
            },
            "fixed_point": {
                "statement": "reduced = u0 in the C^k metric",
                "residual": fix_residual,
            },
        },
        "homology": {
            "statement": ("reduced = u0 and reduced is conjugate to "
                          "conjugated, which is conjugate to f o u0; hence "
                          "[f] + [u0] = [u0] and [f] vanishes in first "
                          "homology"),
            "reduction": red.to_dict(),
        },
    }


def fixed_point_search(f: Diffeo1, cfg: MatherConfig,
                       tol: Tolerances | None = None) -> FixedPointResult:
    """Iterate the renormalized reduction from the identity until the step
    is stationary, then certify the run.

    Stationarity means the C^k distance between the iterate and its image
    is at most tol.fix_tol, within at most tol.fix_max_iter steps.
    Non-convergence is a reported outcome, not an exception: u0 is None
    and the trace records every residual.
    """
    tol = tol or DEFAULT_TOL
    if f.tail != "compact":
        raise PreconditionError("the experiment needs a compact input map")
    if f.k != cfg.k:
        raise PreconditionError("input jet order disagrees with the config")
    supp = support_interval(f)
    if supp is not None and (supp[0] < cfg.D[0] - f.h
                             or supp[1] > cfg.D[1] + f.h):
        raise PreconditionError(
            f"input support {supp} is not inside the target interval "
            f"{cfg.D}")
    norm_f = holder_norm(f, cfg.alpha, cfg.k)
    if norm_f > cfg.delta0:
        raise PreconditionError(
            f"input norm {norm_f:.3e} exceeds the ball radius "
            f"{cfg.delta0:.1e}")

    rescaler = make_rescaler(cfg, tol)
    u = identity(cfg.k, cfg.D[0], cfg.D[1])
    trace: list = []
    residual = math.inf
    for it in range(1, tol.fix_max_iter + 1):
        step = _renorm_full(u, f, rescaler, cfg, tol)
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
            cert = conjugator(step.conjugated, step.map, cfg, tol)
            chain = _assemble_chain(f, u, rescaler, step.conjugated,
                                    step.reduction, cert, float(residual),
                                    cfg, tol, it, trace)
            return FixedPointResult(u0=u, iterations=it,
                                    residual=float(residual), trace=trace,
                                    certificates=[cert], chain=chain)
        u = step.map
    return FixedPointResult(u0=None, iterations=tol.fix_max_iter,
                            residual=float(residual), trace=trace,
                            certificates=[], chain=None)


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
    with open(path) as fh:
        return json.load(fh)


def verify_certificate(chain: dict, tol: Tolerances | None = None) -> dict:
    """Replay a certificate chain: rebuild every map from its serialized
    jets and recompute each stated identity, trusting no stored residual.
    A recomputed residual passes when it is below twice the stored one or
    the certificate tolerance, whichever is larger."""
    tol = tol or DEFAULT_TOL
    try:
        cfgd = dict(chain["config"])
        maps = chain["maps"]
        ids = chain["identities"]
        window_d = (float(cfgd["D"][0]), float(cfgd["D"][1]))
        half_e = float(cfgd["A"]) * 2.0
        if int(cfgd["k"]) == 1:
            half_e = 2.0
        f = map_from_dict(maps["f"], tol)
        u0 = map_from_dict(maps["u0"], tol)
        rescaler = map_from_dict(maps["rescaler"], tol)
        g = map_from_dict(maps["conjugated"], tol)
        red = map_from_dict(maps["reduced"], tol)
        lam = map_from_dict(maps["witness"], tol)
        tau = map_from_dict(maps["flow_time_one"], tol)
        stored = {
            "rescale-conjugation":
                float(ids["rescale_conjugation"]["residual"]),
            "flow-conjugacy": float(ids["flow_conjugacy"]["residual"]),
            "fixed-point": float(ids["fixed_point"]["residual"]),
        }
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ValueError(f"malformed certificate chain: {e!r}") from e

    items = []

    def check(name: str, recomputed: float) -> None:
        bound = max(2.0 * stored[name], tol.cert_tol)
        items.append({"name": name, "stored": stored[name],
                      "recomputed": float(recomputed), "bound": bound,
                      "ok": bool(recomputed <= bound)})

    fu = compose(f, u0, tol)
    xs = np.linspace(window_d[0] - 1.0, window_d[1] + 1.0, 1025)
    check("rescale-conjugation",
          float(np.max(np.abs(g(rescaler(xs)) - rescaler(fu(xs))))))

    lam_inv = inverse(lam, tol)
    xs = np.linspace(-half_e - 2.0, half_e + 2.0, 2049)
    check("flow-conjugacy",
          float(np.max(np.abs(tau(red(xs)) - lam(tau(g(lam_inv(xs))))))))

    check("fixed-point", ck_distance(red, u0))

    for name, m, win in (("support-u0", u0, window_d),
                         ("support-witness", lam,
                          (-half_e, half_e + 1.0))):
        sm = support_interval(m)
        ok = sm is None or (sm[0] >= win[0] - m.h and sm[1] <= win[1] + m.h)
        items.append({"name": name, "stored": None,
                      "recomputed": None if sm is None else list(sm),
                      "bound": list(win), "ok": bool(ok)})

    return {"ok": all(item["ok"] for item in items), "items": items}
