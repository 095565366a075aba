"""Concave moduli of continuity: construction, evaluation, classification.

A concave modulus is a concave homeomorphism of [0, oo) used to measure
oscillation.  Three families live here: pure powers x^s, the
log-corrected power family exp(-sigma*L - tau*L/log L) with L = log(1/x)
(completed beyond its certified concavity region by a sqrt extension),
and piecewise-linear sampled moduli, which is also the output format of
the least concave majorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import DEFAULT_TOL, Tolerances
from .errors import PreconditionError


def default_abscissae() -> np.ndarray:
    """Geometric sample grid of 512 points on [1e-9, 1e3]: tameness
    behavior lives at x -> 0."""
    return np.geomspace(1e-9, 1e3, 512)


class ConcaveModulus:
    """Base: an evaluable concave homeomorphism of [0, oo)."""

    kind = "abstract"

    def __call__(self, x):
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class HolderModulus(ConcaveModulus):
    s: float
    kind = "holder"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, np.power(np.maximum(x, 0.0), self.s), 0.0)

    def to_dict(self) -> dict:
        return {"kind": "holder", "s": self.s}


def holder(s: float) -> HolderModulus:
    """The power modulus x -> x^s for s in (0, 1]."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"holder exponent must be in (0, 1], got {s}")
    return HolderModulus(s=float(s))


def _log_power_core(x: np.ndarray, sigma: float, tau: float) -> np.ndarray:
    """exp(-sigma*L - tau*L/log L), L = log(1/x); valid for 0 < x < 1/e."""
    L = np.log(1.0 / x)
    return np.exp(-sigma * L - tau * L / np.log(L))


@dataclass(frozen=True)
class LogHolderModulus(ConcaveModulus):
    """Power modulus with a log-scale correction, completed by a sqrt tail.

    Closed form on (0, delta/2], then a*sqrt(x)+b matching the value at
    delta/2 with the chord slope of the closed form over [delta/2, delta],
    which keeps the glued function concave.
    """

    sigma: float
    tau: float
    delta: float
    ext_a: float
    ext_b: float
    kind = "omegaz"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        cut = 0.5 * self.delta
        inner = (x > 0.0) & (x <= cut)
        outer = x > cut
        if np.any(inner):
            out[inner] = _log_power_core(x[inner], self.sigma, self.tau)
        if np.any(outer):
            out[outer] = self.ext_a * np.sqrt(x[outer]) + self.ext_b
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "omegaz",
            "sigma": self.sigma,
            "tau": self.tau,
            "delta": self.delta,
            "ext_a": self.ext_a,
            "ext_b": self.ext_b,
        }


class ConstructionFailure(ValueError):
    """No admissible concavity cutoff found above the scan floor."""


# scan knobs for the concavity cutoff of the log-corrected family
_SCAN_TOP = math.exp(-math.e)   # keep log L safely away from its pole
_SCAN_RATIO = 0.93
_SCAN_RUN = 64
_SCAN_FLOOR = 1e-12
_SCAN_STEP = 0.01               # relative step of the second difference


def _second_difference_negative(x: float, sigma: float, tau: float) -> bool:
    h = x * _SCAN_STEP
    sample = np.array([x - h, x, x + h])
    v = _log_power_core(sample, sigma, tau)
    return bool(v[0] - 2.0 * v[1] + v[2] < 0.0)


def log_refined_holder(sigma: float, tau: float) -> ConcaveModulus:
    """Modulus exp(-sigma*log(1/x) - tau*log(1/x)/loglog(1/x)).

    The exponent pair must satisfy (0,0) < (sigma, tau) <= (1, 0) in the
    lexicographic order.  tau = 0 reduces exactly to the power modulus.
    The concavity cutoff delta is found by scanning x downward
    geometrically until 64 consecutive second differences of the closed
    form are negative; delta is half the abscissa where that run starts.
    """
    if not (0.0 <= sigma <= 1.0):
        raise ValueError(f"sigma must be in [0, 1], got {sigma}")
    lex_positive = sigma > 0.0 or tau > 0.0
    lex_at_most_one = sigma < 1.0 or tau <= 0.0
    if not (lex_positive and lex_at_most_one):
        raise ValueError(f"(sigma, tau)=({sigma}, {tau}) outside (0, 1] lexicographically")
    if tau == 0.0:
        return holder(sigma)

    x = _SCAN_TOP
    run = 0
    run_start = x
    while x >= _SCAN_FLOOR:
        if _second_difference_negative(x, sigma, tau):
            if run == 0:
                run_start = x
            run += 1
            if run >= _SCAN_RUN:
                delta = 0.5 * run_start
                return _finish_log_refined(sigma, tau, delta)
        else:
            run = 0
        x *= _SCAN_RATIO
    raise ConstructionFailure(
        f"no concavity window found above {_SCAN_FLOOR} for sigma={sigma}, tau={tau}"
    )


def _finish_log_refined(sigma: float, tau: float, delta: float) -> LogHolderModulus:
    half = 0.5 * delta
    v_half, v_full = _log_power_core(np.array([half, delta]), sigma, tau)
    chord = (v_full - v_half) / half
    if chord <= 0.0:
        raise ConstructionFailure(
            f"closed form not increasing near delta={delta} for sigma={sigma}, tau={tau}"
        )
    a = 2.0 * math.sqrt(half) * chord
    b = v_half - a * math.sqrt(half)
    return LogHolderModulus(sigma=sigma, tau=tau, delta=delta, ext_a=a, ext_b=b)


@dataclass(frozen=True)
class SampledModulus(ConcaveModulus):
    """Piecewise-linear modulus through (0,0); linear extrapolation with the
    final slope beyond the last abscissa (concavity preserving)."""

    xs: np.ndarray
    ys: np.ndarray
    kind = "sampled"

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise ValueError("sampled modulus must start at (0, 0)")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("abscissae must be strictly increasing")
        if np.any(np.diff(ys) < 0.0):
            raise ValueError("values must be nondecreasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.ys)
        if self.xs.shape[0] >= 2:
            slope = (self.ys[-1] - self.ys[-2]) / (self.xs[-1] - self.xs[-2])
            beyond = x > self.xs[-1]
            if np.any(beyond):
                out = np.where(beyond, self.ys[-1] + slope * (x - self.xs[-1]), out)
        return out

    def to_dict(self) -> dict:
        return {"kind": "sampled", "xs": self.xs.tolist(), "ys": self.ys.tolist()}


def modulus_from_dict(d: dict) -> ConcaveModulus:
    kind = d["kind"]
    if kind == "holder":
        return holder(d["s"])
    if kind == "omegaz":
        if "delta" in d:
            return LogHolderModulus(
                sigma=float(d["sigma"]),
                tau=float(d["tau"]),
                delta=float(d["delta"]),
                ext_a=float(d["ext_a"]),
                ext_b=float(d["ext_b"]),
            )
        return log_refined_holder(float(d["sigma"]), float(d["tau"]))
    if kind == "sampled":
        return SampledModulus(xs=np.asarray(d["xs"]), ys=np.asarray(d["ys"]))
    raise ValueError(f"unknown modulus kind {kind!r}")


# ---------------------------------------------------------------------------
# oscillation and the least concave majorant

# cells of one array pass in oscillation_modulus and _classify_side: bounds
# the temporaries, and so the memory, of either
_BLOCK_CELLS = 1 << 14


def oscillation_modulus(xs, fs) -> tuple[np.ndarray, np.ndarray]:
    """mu(t) = sup{|f(x)-f(y)| : |x-y| <= t} over all pairs of a uniform
    sample grid.

    Returns (ts, mus) with one entry per stride s = 1..n-1: the largest
    separation xs[i+s] - xs[i], and the running max over strides up to s
    of |fs[i+s] - fs[i]|, so mus is nondecreasing.  Memory is O(n).
    Samples whose steps differ by more than 1e-9 of the first step are
    refused.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or xs.shape != fs.shape or xs.shape[0] < 2:
        raise ValueError("need at least two samples of a real map")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
        raise ValueError("samples must be finite")
    order = np.argsort(xs)
    xs, fs = xs[order], fs[order]
    steps = np.diff(xs)
    if not steps[0] > 0.0 or np.ptp(steps) > 1e-9 * steps[0]:
        raise PreconditionError(
            f"oscillation needs a uniform sample grid; steps range over "
            f"[{steps.min():.6g}, {steps.max():.6g}]")
    n = xs.shape[0]
    # row s of a window view over the NaN-padded samples is the samples
    # shifted by s; fmax skips the pads, and max and abs are exact, so each
    # stride's max is the one its own slice gives
    pad = np.full(n - 1, np.nan)
    xw = sliding_window_view(np.concatenate((xs, pad)), n)
    fw = sliding_window_view(np.concatenate((fs, pad)), n)
    ts = np.empty(n - 1)
    gaps = np.empty(n - 1)
    rows = max(1, _BLOCK_CELLS // n)
    for lo in range(1, n, rows):
        hi = min(lo + rows, n)
        m = n - lo          # stride lo has the most pairs in this block
        ts[lo - 1:hi - 1] = np.fmax.reduce(xw[lo:hi, :m] - xs[:m], axis=1)
        d = fw[lo:hi, :m] - fs[:m]
        gaps[lo - 1:hi - 1] = np.fmax.reduce(np.abs(d, out=d), axis=1)
    return ts, np.maximum.accumulate(gaps)


def least_concave_majorant(ts, mus) -> tuple[SampledModulus, SampledModulus]:
    """Upper concave hull of an oscillation profile, and the hull plus Id.

    The first output majorizes the samples and (for genuine oscillation
    data) stays below twice the samples; the second is the strictly
    increasing completion obtained by adding the identity.
    """
    ts = np.asarray(ts, dtype=float)
    mus = np.asarray(mus, dtype=float)
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample abscissae must be strictly increasing")
    if np.any(np.diff(mus) < 0.0):
        raise ValueError("oscillation samples must be nondecreasing")
    if ts[0] > 0.0:
        ts = np.concatenate(([0.0], ts))
        mus = np.concatenate(([0.0], mus))
    if mus[0] != 0.0:
        raise ValueError("oscillation at separation 0 must be 0")

    # monotone-chain upper hull; collinear middle points are dropped so the
    # earlier vertex starts the merged segment
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(ts, mus):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (x - hx[-2])
            if cross >= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(float(x))
        hy.append(float(y))

    hull_x = np.array(hx)
    hull_y = np.array(hy)
    beta0 = SampledModulus(xs=hull_x, ys=hull_y)
    beta = SampledModulus(xs=hull_x, ys=hull_y + hull_x)
    return beta0, beta


def lcm_sandwich_slack(ts, mus, beta0: ConcaveModulus) -> tuple[float, float]:
    """(min(beta0 - mu), min(2 mu - beta0)) over the sample abscissae."""
    ts = np.asarray(ts, dtype=float)
    mus = np.asarray(mus, dtype=float)
    vals = beta0(ts)
    return float(np.min(vals - mus)), float(np.min(2.0 * mus - vals))


# ---------------------------------------------------------------------------
# tameness classification


@dataclass(frozen=True)
class TamenessSide:
    yes: bool
    t0: float | None = None
    margin: float | None = None

    def label(self) -> str:
        return "Yes" if self.yes else "Inconclusive"


@dataclass(frozen=True)
class TamenessVerdict:
    sup_tame: TamenessSide
    sub_tame: TamenessSide

    def to_dict(self) -> dict:
        return {
            "sup_tame": {
                "verdict": self.sup_tame.label(),
                "t0": self.sup_tame.t0,
                "margin": self.sup_tame.margin,
            },
            "sub_tame": {
                "verdict": self.sub_tame.label(),
                "t0": self.sub_tame.t0,
                "margin": self.sub_tame.margin,
            },
        }


def default_t_grid(n: int = 48) -> np.ndarray:
    return np.geomspace(1e-6, 0.9, n)


def tameness_functional(alpha: ConcaveModulus, t, x_grid, side: str) -> np.ndarray:
    """Pointwise ratios whose sup over x defines the tameness functional.

    side "sup": t*alpha(x)/alpha(t*x); side "sub": alpha(t*x)/alpha(x).
    t is a number, or a column of them for one row of ratios per t.
    """
    x = np.asarray(x_grid, dtype=float)
    ax = alpha(x)
    atx = alpha(t * x)
    if side == "sup":
        return t * ax / atx
    if side == "sub":
        return atx / ax
    raise ValueError("side must be 'sup' or 'sub'")


def _classify_side(
    alpha: ConcaveModulus, t_grid: np.ndarray, x_grid: np.ndarray, side: str, margin: float
) -> TamenessSide:
    best_t, best_margin = None, 0.0
    rows = max(1, _BLOCK_CELLS // x_grid.shape[0])
    for ts in np.split(t_grid, range(rows, t_grid.shape[0], rows)):
        vals = tameness_functional(alpha, ts[:, None], x_grid, side)
        finite = np.all(np.isfinite(vals), axis=1)
        sups = np.max(vals, axis=1)
        # a row whose max sits at an end with the ratios still strictly
        # climbing into it has not bracketed the sup, so a Yes from its t
        # would be unsound
        top = np.argmax(vals, axis=1)
        eps = 1e-12 * np.maximum(1.0, np.max(np.abs(vals), axis=1))
        edge = (((top == 0) & (vals[:, 0] > vals[:, 1] + eps))
                | ((top == vals.shape[1] - 1)
                   & (vals[:, -1] > vals[:, -2] + eps)))
        for t, sup in zip(ts[finite & ~edge], sups[finite & ~edge]):
            if sup <= 1.0 - margin and 1.0 - sup > best_margin:
                best_t, best_margin = float(t), float(1.0 - sup)
    if best_t is None:
        return TamenessSide(yes=False)
    return TamenessSide(yes=True, t0=best_t, margin=best_margin)


def classify_tameness(
    alpha: ConcaveModulus, tol: Tolerances = DEFAULT_TOL
) -> TamenessVerdict:
    """One-sided tameness test: Yes is sound, absence of Yes proves nothing.

    A t0 of default_t_grid() qualifies when the measured sup of the
    defining ratio over default_abscissae() stays below 1 by the
    configured margin and the maximum is attained away from the grid ends
    (an end maximum with ratios still climbing means the sup was not
    bracketed).
    """
    t_grid = default_t_grid()
    x_grid = default_abscissae()
    return TamenessVerdict(
        sup_tame=_classify_side(alpha, t_grid, x_grid, "sup", tol.tameness_margin),
        sub_tame=_classify_side(alpha, t_grid, x_grid, "sub", tol.tameness_margin),
    )


# ---------------------------------------------------------------------------
# law checks


@dataclass(frozen=True)
class ModulusLawReport:
    worst_lower: float     # min of alpha(Cx) - min(C,1) alpha(x)
    worst_upper: float     # min of max(C,1) alpha(x) - alpha(Cx)
    worst_ratio_step: float  # min increment of x/alpha(x) along the grid
    passed: bool

    def to_dict(self) -> dict:
        return {
            "worst_lower": self.worst_lower,
            "worst_upper": self.worst_upper,
            "worst_ratio_step": self.worst_ratio_step,
            "passed": self.passed,
        }


def check_modulus_laws(
    alpha: ConcaveModulus, C: float, grid, tol: Tolerances = DEFAULT_TOL
) -> ModulusLawReport:
    """Scaling inequalities min(C,1)a(x) <= a(Cx) <= max(C,1)a(x) and
    monotonicity of x/a(x), evaluated at every grid point."""
    if C <= 0.0:
        raise ValueError("C must be positive")
    x = np.asarray(grid, dtype=float)
    ax = alpha(x)
    acx = alpha(C * x)
    lower = acx - min(C, 1.0) * ax
    upper = max(C, 1.0) * ax - acx
    ratio = x / ax
    steps = np.diff(ratio)
    slack = tol.concavity_rel * max(1.0, float(np.max(np.abs(ratio))))
    report = ModulusLawReport(
        worst_lower=float(np.min(lower)),
        worst_upper=float(np.min(upper)),
        worst_ratio_step=float(np.min(steps)) if steps.size else 0.0,
        passed=bool(
            np.min(lower) >= -tol.concavity_rel * max(1.0, float(np.max(np.abs(acx))))
            and np.min(upper) >= -tol.concavity_rel * max(1.0, float(np.max(np.abs(acx))))
            and (steps.size == 0 or float(np.min(steps)) >= -slack)
        ),
    )
    return report


def concavity_slack(alpha: ConcaveModulus, xs) -> float:
    """Worst relative chord violation over consecutive triples (>= -1e-12
    means the concavity invariant holds)."""
    xs = np.asarray(xs, dtype=float)
    v = alpha(xs)
    x1, x2, x3 = xs[:-2], xs[1:-1], xs[2:]
    v1, v2, v3 = v[:-2], v[1:-1], v[2:]
    chord = v1 + (v3 - v1) * (x2 - x1) / (x3 - x1)
    scale = np.maximum(1.0, np.abs(v2))
    return float(np.min((v2 - chord) / scale))
