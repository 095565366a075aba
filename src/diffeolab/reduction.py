"""Rolling-up, spreading, and norm-reduction operators.

The pipeline has three legs.  ``roll_up`` mixes a small compactly
supported diffeomorphism with the unit translation, producing a map
that commutes with integer shifts (a circle map).  ``spread`` runs the
other way: it cuts a small circle map into discrete-isotopy factors
and plants each factor on its own slot of a fixed compact interval,
sampling the planted map straight from the factor's exact jets, with no
intermediate map built.  ``reduce_norm`` composes the two legs;
its output lives on the fixed target interval no matter how wide the
input's support was, and the measured norm ratio is the quantity the
fixed-point experiment feeds on.

A limit word of two rolled-up maps detects conjugacy: ``lambda_limit``
realizes the limit as an eventually periodic diffeomorphism whose
periodic tail is the rolled quotient, and reads off that tail how far
the quotient is from a translation.  When it is a translation,
``conjugator`` cuts the word down to a compactly supported conjugacy
witness through the plateau-flow chart, emitting a verifiable
certificate.

The rolling-up and limit words run through one kernel, _word, whose
letters are diffeo's one letter primitive, _apply_letter, as compose's are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._taylor import compose_affine, coeffs_to_derivs, smoothstep_series
from .config import (DEFAULT_TOL, ESTIMATOR_SLACK, EVAL_DENSITY, Tolerances,
                     smallness_threshold)
from .diffeo import (Diffeo1, _apply_letter, _build_adaptive, _frac,
                     _grid_cells, _inverse_jets, _minus_identity, _unit_nodes,
                     compose, compose_all, inverse, post_translate,
                     refined_grid, support_interval, support_within,
                     translate_conjugate)
from .errors import ConstructionError, PreconditionError
from .flow import (OVERLAP_REACH, PlateauField, _plateau_jets, _unit_time_map,
                   time_t_map, trajectory_chart)
from .jets import compose_derivs, invert_derivs
from .norms import SlackReport, holder_norm

# -- the periodic cutoff profile --------------------------------------------

class PlateauBump:
    """1-periodic C^inf profile: 1 on [-1/10, 1/10] + Z, 0 on the windows
    of the same width around half-integers, monotone smoothstep ramps of
    width 3/10 in between.

    jets keeps its _CACHED most recently used results, keyed by the
    points' shape and bytes and the order, and returns read-only arrays.
    spread_once damps a rolled map, whose grid always starts at 0 with
    one of a few node counts, so its builds sample the profile on the
    same lattice call after call."""

    PLATEAU = 0.1
    ZERO_LO = 0.4
    ZERO_HI = 0.6
    WIDTH = 0.3
    _CACHED = 4

    def __init__(self):
        self._slope_sup = None
        self._cache: dict[tuple, np.ndarray] = {}

    def jets(self, x, order: int) -> np.ndarray:
        """Derivatives 0..order at the points x, shape x.shape +
        (order + 1,), read-only: a result the cache holds is shared."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        key = (order, x.shape, x.tobytes())
        out = self._cache.pop(key, None)
        if out is None:
            out = self._jets(x, order)
            out.setflags(write=False)
            if len(self._cache) >= self._CACHED:
                del self._cache[next(iter(self._cache))]
        self._cache[key] = out      # the least recently used goes first
        return out

    def _jets(self, x: np.ndarray, order: int) -> np.ndarray:
        t = _frac(x)
        out = np.zeros(x.shape + (order + 1,))
        ones = (t <= self.PLATEAU) | (t >= 1.0 - self.PLATEAU)
        out[ones, 0] = 1.0
        # both ramps in one series call; the falling one, left of 1/2, runs
        # the smoothstep backward
        ramp = (((t > self.PLATEAU) & (t < self.ZERO_LO))
                | ((t > self.ZERO_HI) & (t < 1.0 - self.PLATEAU)))
        if ramp.any():
            tr = t[ramp]
            down = tr < 0.5
            y = np.where(down, self.ZERO_LO - tr,
                         tr - self.ZERO_HI) / self.WIDTH
            s = smoothstep_series(y, order)
            c = compose_affine(s, 1.0 / self.WIDTH)
            c[down] = compose_affine(s[down], -1.0 / self.WIDTH)
            out[ramp] = coeffs_to_derivs(c)
        return out

    def __call__(self, x) -> np.ndarray:
        return self.jets(x, 0)[..., 0]

    @property
    def slope_sup(self) -> float:
        if self._slope_sup is None:
            # evaluated once, so kept out of the cache
            xs = np.linspace(0.0, 1.0, 8193)
            self._slope_sup = float(np.max(np.abs(self._jets(xs, 1)[:, 1])))
        return self._slope_sup


_ZETA = PlateauBump()


def spreading_smallness() -> float:
    """The C^1 gate for the spreading leg: one hundredth of the reciprocal
    of (1 + sup zeta + sup zeta')."""
    return 1.0 / (100.0 * (2.0 + _ZETA.slope_sup))


# -- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class MatherConfig:
    """Geometry and smallness knobs of one norm-reduction pipeline."""

    k: int
    alpha: object                   # concave modulus, callable
    A: int
    B: int                          # number of spreading slots
    D: tuple[float, float]          # target support interval
    E: tuple[float, float]          # source support interval
    eps0: float                     # C^1 gate for spreading
    delta0: float                   # C^{k,alpha} ball radius for the pipeline

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "alpha": self.alpha.to_dict() if hasattr(self.alpha, "to_dict")
                     else str(self.alpha),
            "A": self.A, "B": self.B,
            "D": list(self.D), "E": list(self.E),
            "eps0": self.eps0, "delta0": self.delta0,
        }


def make_config(k: int, alpha, A: int) -> MatherConfig:
    """Geometry rule: for k >= 2 the target is the fixed interval [-2,2]
    and the source widens with A; for k = 1 the roles swap and the number
    of spreading slots grows with A instead.  The spreading gate is
    spreading_smallness() and the ball radius smallness_threshold(k)."""
    if k < 1:
        raise ValueError("jet order must be at least 1")
    if A < 1 or A != int(A):
        raise ValueError("the width parameter must be a positive integer")
    A = int(A)
    if k >= 2:
        B, D, E = 1, (-2.0, 2.0), (-2.0 * A, 2.0 * A)
    else:
        B, D, E = A, (-2.0 * A, 2.0 * A), (-2.0, 2.0)
    return MatherConfig(k=k, alpha=alpha, A=A, B=B, D=D, E=E,
                        eps0=spreading_smallness(),
                        delta0=smallness_threshold(k))


def witness_window(cfg: MatherConfig) -> tuple[float, float]:
    """The grid, and so the support bound, of the conjugacy witness:
    [-2A, 2A + 1], the plateau of the field of cfg.A and its right ramp.
    lambda_limit needs both maps inside [-2A, 2A], which is E for k >= 2
    and D for k = 1, so the window is not E widened by one."""
    return -2.0 * cfg.A, 2.0 * cfg.A + 1.0


# -- rolling up ---------------------------------------------------------------

def _cell_samples(f: Diffeo1, xs: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The samples of xs = refined_grid(f, density) whose cell of f's grid
    is marked in live, with the cells assigned by the rule evaluation uses
    (f's fold, then _grid_cells).  Only the samples near each live cell's
    share of the grid are looked at: a sample on a node can round into
    either cell, so the share is widened by one sample each side, and a
    periodic map folds its last sample into its first cell."""
    cells = live.size
    per = (xs.size - 1) / cells             # samples per cell, at least 8
    span = np.arange(-1, int(math.ceil(per)) + 2)
    first = np.floor(np.flatnonzero(live) * per).astype(int)
    near = np.clip((first[:, None] + span).ravel(), 0, xs.size - 1)
    x = xs[np.concatenate((near, [0, xs.size - 1]))]
    cell, _ = _grid_cells(f._fold(x)[0], f.a, f.h, cells)
    return x[live[cell]]


def _sup_norms(f: Diffeo1, lowest: int = 0,
               order: int = 1) -> tuple[float, ...]:
    """(sup |u^(lowest)|, ..., sup |u^(order)|) of the displacement over
    the samples of refined_grid(f, EVAL_DENSITY).  Each sup is the same
    whichever other orders are asked for.

    Only the samples whose cell can hold a sup are evaluated.  On a cell
    of f's coefficient table c, |u^(j)| is at most the sum over i of
    |c_(i+j)| (i+j)!/i! / h^j, since the local coordinate t lies in
    [0, 1].  The samples of the cell with the largest such bound, for
    each order, give a lower bound on that order's sup; then every sample
    in a cell whose bound, widened for the rounding of both sides,
    reaches it is evaluated (_cell_samples).  The samples left out
    hold values below a sampled one, so each sup is bitwise the largest
    value over all the samples."""
    xs = refined_grid(f, EVAL_DENSITY)
    if f._dc is None:
        f.displacement_jets(xs[:1], 0)  # builds and keeps f's table
    c = f._dc
    rows, cells = c.shape
    absc = np.abs(c)
    bound = np.empty((order - lowest + 1, cells))
    falling = np.ones(rows)             # i!/(i-j)! in row i, 0 for i < j
    for j in range(order + 1):
        if j:
            falling = falling * (np.arange(rows) - (j - 1))
        if j >= lowest:
            bound[j - lowest] = (falling @ absc) / f.h ** j
    # far above the rounding of a Horner pass and of the bound, some tens
    # of ulps, and of subnormal arithmetic
    bound = bound * (1.0 + 1e-12) + 1e-300
    top = np.zeros(cells, dtype=bool)
    top[np.argmax(bound, axis=1)] = True
    low = np.max(np.abs(f.displacement_jets(_cell_samples(f, xs, top), order,
                                            lowest)), axis=0)
    live = np.any(bound >= low[:, None], axis=0)
    uj = f.displacement_jets(_cell_samples(f, xs, live), order, lowest)
    return tuple(float(s) for s in np.max(np.abs(uj), axis=0))


def _word(x0: np.ndarray, runs, order: int) -> np.ndarray:
    """Full-map jets, orders 0..order, of a word at the points x0 (1-d).
    Each run (g, count, before, after) appends count letters, each the
    map g between a shift by `before` and one by `after`, applied through
    _apply_letter: so each map acts only on the points inside its grid,
    with the floats of applying it everywhere.  A zero shift is skipped,
    not added, so it cannot turn a -0.0 into 0.0."""
    Y = np.zeros((x0.size, order + 1))
    Y[:, 0] = x0
    if order >= 1:
        Y[:, 1] = 1.0
    for g, count, before, after in runs:
        for _ in range(count):
            if before:
                Y[:, 0] += before
            _apply_letter(g, Y, order)
            if after:
                Y[:, 0] += after
    return Y


def roll_params(g: Diffeo1):
    """(inf supp, support length, sup displacement, word length) used by
    the rolling-up word."""
    if g.tail != "compact":
        raise PreconditionError("rolling up needs a compactly supported map")
    supp = support_interval(g)
    if supp is None:
        return float(g.a), 0.0, 0.0, 1
    (a,) = _sup_norms(g, order=0)
    if a >= 1.0:
        raise PreconditionError(
            f"displacement sup {a:.3f} reaches 1; the word does not advance")
    length = supp[1] - supp[0]
    s = int(math.ceil((length + 1.0) / (1.0 - a)))
    return float(supp[0]), float(length), a, s


def roll_up(g: Diffeo1, tol: Tolerances | None = None) -> Diffeo1:
    """Mix g with the unit translation into a map commuting with integer
    shifts.  Exact on the identity; for small g the displacement of the
    output is bounded by (word length) * (displacement sup).

    The build starts at twice g's nodes per unit, ceil(2/g.h) + 1 nodes
    on the unit period, within [129, 4097], and doubles from there while
    the order-0 midpoint residual asks for it.  It is sized by g's node
    spacing, not its node count, for two reasons.  A coarser start, at
    g's own density, leaves the rolled map's order-2 jets further than
    2e-8 from the word.  A finer one amplifies the rounding of the word's
    order-0 values by about h^-3 in the order-3 jets, so at k = 3 a roll
    on g's node count (4A times g's density for a source of width 4A)
    reads rounding noise where the norm should be."""
    tol = tol or DEFAULT_TOL
    inf_supp, _, _, s = roll_params(g)
    if s > tol.word_cap:
        raise ConstructionError(f"word length {s} exceeds the cap")

    def fn(xs: np.ndarray, order: int) -> np.ndarray:
        # (shift by r - s) o (T g)^s o (shift by -r), r an integer per point
        r = np.ceil(xs - inf_supp)
        Y = _word(xs - r, [(g, s, 0.0, 1.0)], order)
        Y[:, 0] += r - float(s)
        return _minus_identity(Y, xs)

    n0 = max(129, min(math.ceil(2.0 / g.h) + 1, 4097))
    return _build_adaptive("periodic", 0.0, 1.0, g.k, fn, n0, tol)


def roll_norm_check(f: Diffeo1, cfg: MatherConfig,
                    tol: Tolerances | None = None) -> SlackReport:
    """Measure the rolled-up map's top seminorm against the linear bound
    4 (support length + 1) times the input's seminorm."""
    tol = tol or DEFAULT_TOL
    norm_f = holder_norm(f, cfg.alpha, cfg.k)
    if norm_f > cfg.delta0:
        raise PreconditionError(
            f"seminorm {norm_f:.3e} exceeds the ball radius {cfg.delta0:.1e}")
    supp = support_interval(f)
    length = 0.0 if supp is None else supp[1] - supp[0]
    factor = 4.0 * (length + 1.0)
    gf = roll_up(f, tol)
    norm_gf = holder_norm(gf, cfg.alpha, cfg.k)
    return SlackReport(
        name="roll-up-norm",
        constants={"factor": factor},
        values={"norm_in": norm_f, "norm_rolled": norm_gf},
        slacks={"norm": factor * norm_f * (1.0 + ESTIMATOR_SLACK) - norm_gf})


def roll_equivariance_residual(g: Diffeo1, b: float,
                               tol: Tolerances | None = None) -> float:
    """Sup distance between roll_up of the b-shifted conjugate and the
    b-shifted conjugate of roll_up."""
    tol = tol or DEFAULT_TOL
    lhs = roll_up(translate_conjugate(g, b), tol)
    rhs = translate_conjugate(roll_up(g, tol), b)
    xs = np.linspace(rhs.a, rhs.a + 1.0, 1025)
    return float(np.max(np.abs(lhs(xs) - rhs(xs))))


# -- spreading ----------------------------------------------------------------

def _leibniz(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Derivatives 0..m of a product from those of its two factors, a and
    b of one shape with the orders on the last axis, by Leibniz's rule."""
    out = np.zeros(a.shape)
    for j in range(a.shape[-1]):
        for i in range(j + 1):
            out[..., j] += math.comb(j, i) * a[..., i] * b[..., j - i]
    return out


def spread_once(g: Diffeo1, cfg: MatherConfig,
                tol: Tolerances | None = None) -> Diffeo1:
    """One-slot spreading: recenter g to fix 0 into h, damp h to the
    identity through the periodic cutoff into h0, and plant the two
    factors, h0 on [-3/2, -1/2] and h o h0^{-1} on [1, 2].  The output is
    supported in [-3/2, 2] and rolls back up to the recentered input.

    The factors are planted in one adaptive build of the output, which
    samples each from exact jets: h0 from its interpolant, and h o
    h0^{-1} by solving h0 at the sample (_inverse_jets) and applying h to
    the root's jets.  So neither h0^{-1}, nor h o h0^{-1}, nor a copy of
    either factor restricted to its window is ever built.

    Refuses (ConstructionError) unless h o h0^{-1} fixes [-1/20, 1/20],
    where the cutoff is 1, and h0 fixes [9/20, 11/20], where it is 0, to
    tol.window_fix; and (PreconditionError) unless both factors fix their
    window ends with all displacement jets vanishing there, as a factor
    cut out of a window must.  Each factor's fixed-window and window-end
    probes are one sampler call, so they cost one inverse solve of h0.
    h0's build reads the cutoff's jets on the same lattice for every h of
    one node count, which PlateauBump.jets keeps."""
    tol = tol or DEFAULT_TOL
    if g.tail != "periodic":
        raise PreconditionError("spreading applies to periodic maps")
    k = g.k
    g0 = float(g(np.array(0.0)))
    # g(0) is u(0) + 0.0, which is never -0.0; when it is 0.0, as for every
    # map spread recenters, the translation by -0.0 would copy g bit for bit
    h = g if g0 == 0.0 else post_translate(g, -g0)
    sup0, sup1 = _sup_norms(h)
    if sup1 > cfg.eps0:
        raise PreconditionError(
            f"slope deviation {sup1:.3e} exceeds the spreading gate "
            f"{cfg.eps0:.3e}")
    if sup0 > 0.05:
        raise ConstructionError(
            "recentered displacement too large for the fixed-window argument")

    def damped_fn(xs: np.ndarray, order: int) -> np.ndarray:
        return _leibniz(_ZETA.jets(xs, order), h.displacement_jets(xs, order))

    h0 = _build_adaptive("periodic", h.a, h.a + 1.0, k, damped_fn,
                         max(257, h.n), tol)

    def h1_jets(ys: np.ndarray, order: int) -> np.ndarray:
        # displacement jets of h o h0^{-1}
        jets = _inverse_jets(h0, ys, order, tol)
        _apply_letter(h, jets, order)
        return _minus_identity(jets, ys)

    # each factor's fixed window and window ends, probed in one call: the
    # samplers are pointwise, and an order's values do not depend on the
    # highest order asked for
    win = np.linspace(-0.05, 0.05, 65)
    p0 = win + 0.5
    j1 = h1_jets(np.concatenate((win, [1.0, 2.0])), k)
    j0 = h0.displacement_jets(np.concatenate((p0, [-1.5, -0.5])), k)
    fix1 = float(np.max(np.abs(j1[:-2, 0])))
    fix0 = float(np.max(np.abs((j0[:-2, 0] + p0) - p0)))   # h0(p0) - p0
    if max(fix0, fix1) > tol.window_fix:
        raise ConstructionError(
            f"fixed-window residual {max(fix0, fix1):.3e} exceeds "
            f"{tol.window_fix:.1e}; the damped factors do not separate")

    worst = max(float(np.max(np.abs(j1[-2:]))),
                float(np.max(np.abs(j0[-2:]))))
    if worst > tol.surgery_boundary:
        raise PreconditionError(
            f"window ends are not fixed to all orders: jet residual "
            f"{worst:.3e} exceeds {tol.surgery_boundary:.1e}")

    def fn(xs: np.ndarray, order: int) -> np.ndarray:
        out = np.zeros(xs.shape + (order + 1,))
        left = (xs > -1.5) & (xs < -0.5)
        out[left] = h0.displacement_jets(xs[left], order)
        right = (xs > 1.0) & (xs < 2.0)
        out[right] = h1_jets(xs[right], order)
        return out

    return _build_adaptive("compact", -1.5, 2.0, k, fn, max(257, h.n), tol)


def blend_toward_identity(h: Diffeo1, t: float) -> Diffeo1:
    """The convex blend keeping a fraction t of h's displacement."""
    if h.tail != "periodic":
        raise PreconditionError("blending is defined for periodic maps")
    if not 0.0 <= t <= 1.0:
        raise ValueError("blend fraction must lie in [0, 1]")
    return Diffeo1("periodic", h.a, h.b, h.k, h.jets * t)


def isotopy_step(h: Diffeo1, B: int, i: int,
                 tol: Tolerances | None = None) -> Diffeo1:
    """The i-th of B discrete-isotopy factors from the identity to h:
    the blend at i/B composed with the inverse blend at (i-1)/B."""
    tol = tol or DEFAULT_TOL
    if not 1 <= i <= B:
        raise ValueError("factor index out of range")
    if abs(float(h(np.array(0.0)))) > tol.node_zero:
        raise PreconditionError("the isotopy needs a map fixing 0")
    (sup1,) = _sup_norms(h, lowest=1)
    if sup1 >= 1.0:
        raise PreconditionError("slope deviation reaches 1; blends may fold")
    gi = blend_toward_identity(h, i / B)
    if i == 1:
        return gi
    return compose(gi, inverse(blend_toward_identity(h, (i - 1) / B), tol),
                   tol)


def spread(g: Diffeo1, cfg: MatherConfig,
           tol: Tolerances | None = None) -> Diffeo1:
    """Multi-slot spreading: plant the B discrete-isotopy factors of the
    recentered map on disjoint slots four units apart.  Supported in
    [-2B, 2B]; rolling the output back up recovers the recentered input."""
    tol = tol or DEFAULT_TOL
    if g.tail != "periodic":
        raise PreconditionError("spreading applies to periodic maps")
    B = cfg.B
    g0 = float(g(np.array(0.0)))
    h = post_translate(g, -g0)
    if B == 1:
        # the one factor is h itself, planted at offset 0: isotopy_step
        # and the translation would only copy it, and spread_once's slope
        # gate is far stricter than isotopy_step's fold gate
        out = spread_once(h, cfg, tol)
    else:
        factors = []
        for i in range(B, 0, -1):
            hi = isotopy_step(h, B, i, tol)
            wi = spread_once(hi, cfg, tol)
            factors.append(translate_conjugate(wi, float(-2 * B - 2 + 4 * i)))
        out = compose_all(factors, tol)
    if not support_within(out, (-2.0 * B, 2.0 * B))[0]:
        raise ConstructionError("spread support leaked outside the target")
    return out


# -- the norm-reduction step --------------------------------------------------

@dataclass(frozen=True)
class PsiResult:
    """One norm-reduction application with its measured norms."""

    map: Diffeo1
    norm_in: float
    norm_out: float
    rolled_slope: float             # C^1 size of the rolled-up midpoint
    support: tuple[float, float] | None

    @property
    def ratio(self) -> float:
        return self.norm_out / self.norm_in if self.norm_in > 0 else 0.0

    def to_dict(self) -> dict:
        return {"norm_in": self.norm_in, "norm_out": self.norm_out,
                "ratio": self.ratio, "rolled_slope": self.rolled_slope,
                "support": None if self.support is None else
                list(self.support)}


def reduce_norm(g: Diffeo1, cfg: MatherConfig,
                tol: Tolerances | None = None) -> PsiResult:
    """Roll g up and spread it back onto the target interval.  The output
    is supported in cfg.D regardless of where g lived inside cfg.E, and
    represents the same first-homology class."""
    tol = tol or DEFAULT_TOL
    if g.tail != "compact":
        raise PreconditionError("the reduction step needs a compact map")
    inside, supp = support_within(g, cfg.E)
    if not inside:
        raise PreconditionError(
            f"support {supp} is not inside the source interval {cfg.E}")
    norm_in = holder_norm(g, cfg.alpha, cfg.k)
    if norm_in > cfg.delta0:
        raise PreconditionError(
            f"seminorm {norm_in:.3e} exceeds the ball radius "
            f"{cfg.delta0:.1e}")
    rolled = roll_up(g, tol)
    (rolled_slope,) = _sup_norms(rolled, lowest=1)
    out = spread(rolled, cfg, tol)
    norm_out = holder_norm(out, cfg.alpha, cfg.k)
    return PsiResult(map=out, norm_in=norm_in, norm_out=norm_out,
                     rolled_slope=rolled_slope,
                     support=support_interval(out))


def sweep_profile(A: int, k: int = 2, eps: float = 4e-6,
                  phase: float = 0.3) -> Diffeo1:
    """The fixed sweep family member for width A: a unit-frequency sine
    displacement under a smooth plateau envelope filling the source
    interval.  Unit-scale oscillation across the whole interval is what
    makes the rolled-up copies add coherently, so the measured reduction
    ratio exhibits the source-over-target width factor instead of
    collapsing by cancellation."""
    hi = 2.0 * A - 0.05
    n = _unit_nodes(2.0 * hi)
    xs = np.linspace(-hi, hi, n)
    env = _plateau_jets(xs, k, hi - 1.0, hi)
    w = 2.0 * np.pi
    car = np.empty((n, k + 1))
    for j in range(k + 1):
        car[:, j] = eps * w ** j * np.sin(w * xs + phase + j * np.pi / 2.0)
    jets = _leibniz(env, car)
    jets[0] = 0.0
    jets[-1] = 0.0
    return Diffeo1("compact", -hi, hi, k, jets)


def half_ball_eps(cfg: MatherConfig) -> float:
    """The amplitude at which sweep_profile(cfg.A, cfg.k) has half the
    ball radius cfg.delta0 as its seminorm: the seminorm is linear in eps,
    so one measurement at a reference eps calibrates it."""
    eps_ref = 1e-7
    per_eps = holder_norm(sweep_profile(cfg.A, cfg.k, eps_ref), cfg.alpha,
                          cfg.k) / eps_ref
    return 0.5 * cfg.delta0 / per_eps


def rescale_factor(alpha, A: int, k: int) -> float:
    """The exact norm scaling of conjugation by x -> A x on the top
    seminorm: A^(1-k) times the largest value of alpha(s/A)/alpha(s)."""
    s = np.logspace(-6.0, 3.0, 241)
    sup = float(np.max(np.asarray(alpha(s / A)) / np.asarray(alpha(s))))
    return float(A) ** (1 - k) * sup


def reduction_sweep(A_values, k: int, alpha,
                    tol: Tolerances | None = None) -> list[dict]:
    """Measure the reduction step on the fixed sweep family at each width
    (sweep_profile at its default phase), each input sized to half the
    ball radius (half_ball_eps).
    The plain ratio (output seminorm over input seminorm) tracks the
    width factor of the reduction bound; multiplying by the exact
    rescaling factor of conjugation back to the target interval gives the
    contraction number the fixed-point iteration sees per application."""
    tol = tol or DEFAULT_TOL
    rows = []
    for A in A_values:
        A = int(A)
        cfg = make_config(k, alpha, A)
        g = sweep_profile(A, k, half_ball_eps(cfg))
        res = reduce_norm(g, cfg, tol)
        resc = rescale_factor(alpha, A, k)
        rows.append({
            "A": A,
            "norm_in": res.norm_in,
            "norm_out": res.norm_out,
            "plain_ratio": res.ratio,
            "rescale_factor": resc,
            "ratio": res.ratio * resc,
            "rolled_slope": res.rolled_slope,
        })
    return rows


# -- the limit word and the conjugacy certificate ------------------------------

@dataclass(frozen=True)
class LambdaResult:
    """The limit word of two rolled-up maps, with its diagnostics."""

    map: Diffeo1
    word_length: int
    translation: float              # mean of lam(x) - x over the word's
                                    # stored period, which is the rolled
                                    # quotient rolled-v o rolled-u^{-1}
    translation_dev: float          # sup of |lam(x) - x - translation| there
    intertwine_residual: float      # shifted-u vs shifted-v equivariance


def lambda_limit(u: Diffeo1, v: Diffeo1, cfg: MatherConfig,
                 tol: Tolerances | None = None) -> LambdaResult:
    """The stabilized word (shifted v)^s (shifted u)^{-s}: the identity
    left of -2A, and the quotient of the rolled-up maps right of
    2A + 1/2.  Conjugating the unit shift by it carries shifted-u words
    to shifted-v words.  The word's stored period [2A + 3/2, 2A + 5/2]
    lies in that right tail, so its mean translation, and the deviation
    from it, are those of the rolled quotient, which is never built; they
    are read from exact word samples there, not from the interpolant.
    Both the word and the probe of its length s run through _word.  A
    length s above tol.word_cap is refused before the word is built.

    The build starts at 2^m nodes per unit, the largest power of two not
    above the coarser letter's density 1/max(u.h, v.h), and at least 4,
    and doubles from there while the order-0 midpoint gap asks for it.  A
    power-of-two density keeps hi - 1, where the ep fold is checked, and
    the conjugator's cut 2A + 3/4 on grid nodes; off that lattice the
    k = 3 fold check compares interpolated jets and fails."""
    tol = tol or DEFAULT_TOL
    k = u.k
    A = cfg.A
    for name, f in (("first", u), ("second", v)):
        if f.tail != "compact":
            raise PreconditionError(f"the {name} map must be compact")
        if not support_within(f, (-2.0 * A, 2.0 * A))[0]:
            raise PreconditionError(
                f"the {name} map is supported outside [-2A, 2A]")
    if v.k != k:
        raise ValueError("operands carry different jet orders")
    (au,) = _sup_norms(u, order=0)
    (av,) = _sup_norms(v, order=0)
    a = max(au, av)
    if a >= 1.0:
        raise PreconditionError("displacement sup reaches 1")
    lo = -2.0 * A
    hi = 2.0 * A + 2.5
    u_inv = inverse(u, tol)

    s = int(math.ceil((4.0 * A + 1.5) / (1.0 - a)))
    while True:
        if s > tol.word_cap:
            raise ConstructionError(f"word length {s} exceeds the cap")
        # where s letters of (shifted u)^-1 carry hi
        y = float(_word(np.array([hi]), [(u_inv, s, -1.0, 0.0)], 0)[0, 0])
        if y <= -2.0 * A:
            break
        s += int(math.ceil((y + 2.0 * A) / (1.0 - a))) + 1

    def fn(xs: np.ndarray, order: int) -> np.ndarray:
        Y = _word(xs, [(u_inv, s, -1.0, 0.0), (v, s, 0.0, 1.0)], order)
        return _minus_identity(Y, xs)

    per_unit = max(4, 2 ** (math.frexp(1.0 / max(u.h, v.h))[1] - 1))
    n0 = int(round((hi - lo) * per_unit)) + 1
    lam = _build_adaptive("ep", lo, hi, k, fn, n0, tol)

    xs_p = np.linspace(hi - 1.0, hi, 2049)
    tvals = fn(xs_p, 0)[:, 0]
    b = float(np.mean(tvals))
    dev = float(np.max(np.abs(tvals - b)))

    xs_w = np.linspace(-2.0 * A - 2.0, 2.0 * A + 3.0, 1025)
    lhs = v(lam(xs_w)) + 1.0
    rhs = lam(u(xs_w) + 1.0)
    intertwine = float(np.max(np.abs(lhs - rhs)))
    if intertwine > tol.intertwine:
        raise ConstructionError(
            f"intertwining residual {intertwine:.3e} exceeds "
            f"{tol.intertwine:.1e}")
    return LambdaResult(map=lam, word_length=2 * s, translation=b,
                        translation_dev=dev, intertwine_residual=intertwine)


@dataclass(frozen=True)
class ConjugacyCertificate:
    """A compactly supported witness lam with tau o v = lam o tau o u o
    lam^{-1}, checkable by evaluating tau o v o lam = lam o tau o u."""

    b: float                        # translation separating the rolled maps
    tau: Diffeo1                    # unit-time plateau-flow map
    lam: Diffeo1                    # the witness, supported in [-2A, 2A+1]
    residual: float                 # sup distance of the two sides
    overlaps: dict                  # piecewise-assembly agreement
    word_length: int
    translation_dev: float          # deviation of the limit word's periodic
                                    # tail (the rolled quotient) from T_b


def conjugator(u: Diffeo1, v: Diffeo1, cfg: MatherConfig,
               tol: Tolerances | None = None) -> ConjugacyCertificate:
    """Build the compactly supported conjugacy witness for a pair whose
    rolled-up maps differ by a translation, as the limit word's periodic
    tail reads it (lambda_limit).  Piecewise: the identity left of -2A,
    the chart conjugate of the limit word in the middle, and the time-b
    flow map right of 2A + 1/2; the pieces are checked to agree on the
    overlaps before assembly.  The plateau field is that of cfg.A, and
    the certificate's tau is its unit-time map.

    The witness is built on witness_window(cfg) at the limit word's own
    density, so its grid holds the cut 2A + 3/4 as a node as the word's
    does, and doubles while its order-0 midpoint gap asks for it.  The
    residual is _flow_conjugacy_residual with no supports: the gap of
    tau o v o lam against lam o tau o u, so no inverse of the witness is
    solved.  It is what verify_certificate recomputes for a chain whose
    supports lie in their windows, so a search can hand it to its own
    replay."""
    tol = tol or DEFAULT_TOL
    lam_res = lambda_limit(u, v, cfg, tol)
    b, dev = lam_res.translation, lam_res.translation_dev
    if dev > tol.tol_b:
        raise PreconditionError(
            f"rolled-up maps differ by a non-translation: deviation "
            f"{dev:.3e} exceeds {tol.tol_b:.1e}")
    k = u.k
    A = cfg.A
    Lam = lam_res.map

    field = PlateauField(A)
    chart = trajectory_chart(field, k, tol=tol)
    tau = _unit_time_map(field, k, tol)
    tau_b = time_t_map(field, b, k, tol=tol)
    cut = 2.0 * A + 0.75

    def chart_side(xs: np.ndarray, order: int) -> np.ndarray:
        # the chart's slope is read at every order, as in inverse(), so
        # invert_derivs' positive-slope refusal covers every sampled point
        ys = chart.inverse_value(xs)
        Ji = invert_derivs(chart.jet_at(ys, max(order, 1)),
                           ys)[..., :order + 1]
        J2 = compose_derivs(Lam.jet_at(Ji[..., 0], order), Ji)
        return compose_derivs(chart.jet_at(J2[..., 0], order), J2)

    def fn(xs: np.ndarray, order: int) -> np.ndarray:
        out = np.empty(xs.shape + (order + 1,))
        mid = xs <= cut
        if mid.any():
            out[mid] = chart_side(xs[mid], order)
        if (~mid).any():
            out[~mid] = tau_b.jet_at(xs[~mid], order)
        return _minus_identity(out, xs)

    xs_r = np.linspace(2.0 * A + 0.55, 2.0 * A + OVERLAP_REACH, 101)
    right = float(np.max(np.abs(chart_side(xs_r, 0)[..., 0] - tau_b(xs_r))))
    xs_l = np.linspace(-2.0 * A - OVERLAP_REACH, -2.0 * A, 101)
    left = float(np.max(np.abs(chart_side(xs_l, 0)[..., 0] - xs_l)))
    if max(left, right) > tol.overlap:
        raise ConstructionError(
            f"piecewise overlap residual {max(left, right):.3e} exceeds "
            f"{tol.overlap:.1e}")

    lo, hi = witness_window(cfg)
    n0 = int(round((hi - lo) / Lam.h)) + 1
    lam = _build_adaptive("compact", lo, hi, k, fn, n0, tol)

    return ConjugacyCertificate(
        b=b, tau=tau, lam=lam,
        residual=_flow_conjugacy_residual(u, v, lam, tau, cfg),
        overlaps={"left": left, "right": right},
        word_length=lam_res.word_length, translation_dev=dev)


def _samples(lo: float, hi: float, n: int, supports) -> np.ndarray:
    """n samples over [lo, hi], widened a unit past any support it does not
    hold, at the same spacing."""
    step = (hi - lo) / (n - 1)
    for s in supports:
        if s is not None:
            lo, hi = min(lo, s[0] - 1.0), max(hi, s[1] + 1.0)
    return np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)


def _flow_conjugacy_residual(u: Diffeo1, v: Diffeo1, lam: Diffeo1,
                             tau: Diffeo1, cfg: MatherConfig,
                             supports=()) -> float:
    """Largest gap of tau o v o lam = lam o tau o u, the conjugacy
    tau o v = lam o tau o u o lam^{-1} composed on the right by lam, so
    evaluated with no inverse solve, over 2049 samples of the witness
    window widened by two units left and one right, and further out to
    any of the supports it does not hold (_samples).  conjugator and the
    certificate replay both read the flow conjugacy here."""
    lo, hi = witness_window(cfg)
    xs = _samples(lo - 2.0, hi + 1.0, 2049, supports)
    return float(np.max(np.abs(tau(v(lam(xs))) - lam(tau(u(xs))))))
