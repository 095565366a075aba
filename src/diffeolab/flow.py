"""Plateau vector field, its time-t maps, and the trajectory chart.

The field rho is 1 on [-2A, 2A], 0 outside [-2A-1, 2A+1], even, and
smooth: rho(x) = S(2A+1-|x|) / (S(2A+1-|x|) + S(|x|-2A)) with
S(t) = exp(-1/t) for t > 0 and 0 otherwise.

Time-t maps use the 1-D flow identity rho(Phi_t(x)) = Phi_t'(x) rho(x)
instead of variational equations.  A node whose path x -> x + t stays on
the plateau moves by exactly t with all higher jets 0, and a node where
rho(x) = 0 never moves.  One adaptive high-order Runge-Kutta solve
integrates the displacements D = Phi_t(x) - x of the remaining ramp
nodes only, a vector of scalar ODEs whose right-hand side is the
closed-form field value.  Both integrations here use the package's own
DOP853 (`_dop853.integrate`), which reproduces SciPy's
`solve_ivp(method="DOP853")` bit for bit without loading SciPy.  The jets
then follow from the identity:
Phi_t' - 1 = (rho(x+D) - rho(x)) / rho(x), and order m of its Leibniz
expansion gives Phi_t^(m+1) from the lower orders through the chain-rule
table.  Next to the edge D is so small that x + D rounds to x; there
rho(x+D) - rho(x) comes from a Taylor shift in D from the jets of rho at
x, since a difference of two values would collapse every jet of such a
node to zero.  The unit-time map depends only on (A, k, tolerances), so
the process builds it once per key (`_unit_time_map`) and every
certificate shares that read-only map.

The chart phi(x) is the trajectory of 0 evaluated at time x.  It is x
exactly on the plateau [-2A, 2A], and it is odd since rho is even.  Right
of the plateau phi(2A + s) = 2A + P(s), where the half-edge profile P
solves P' = R(P), P(0) = 0 with R(s) = rho(2A + s), a ramp that does not
involve A.  So one profile, integrated once per process for each
(k, ode_tol) on s in [0, L] with L = PROFILE_SPAN = 40, serves the chart
of every A.  Its jets need no extra integration: P' = R(P) is the time-t
identity with rho(x) replaced by 1 (s is time), and the same triangular
recursion gives the higher orders.  Left of the plateau the jets reflect,
phi^(m)(-x) = (-1)^(m+1) phi^(m)(x).  phi increases from -2A-1 to 2A+1
but only logarithmically fast outside the plateau, so the chart is
clamped to its value at W = 2A + L beyond W; that value,
attained = 2A + P(L) = 2A + 0.8875, sits visibly inside the asymptote and
inverse lookups are restricted to the attained range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _dop853, _taylor
from .config import DEFAULT_TOL, Tolerances
from .diffeo import (Diffeo1, _cell_bracket, _hermite_coeffs, _hermite_eval,
                     _solve_increasing, _unit_nodes, support_interval)
from .errors import ConstructionError, PreconditionError
from .jets import compose_derivs

# time-t maps: displacements up to this size get rho(x + d) - rho(x) from
# a Taylor shift with this many terms instead of from values at x + d
_SHIFT_BELOW = 1e-5
_SHIFT_TERMS = 4

# the chart's half-edge profile P(s) = phi(2A + s) - 2A is tabulated for
# s in [0, PROFILE_SPAN]; the chart is clamped beyond W = 2A + PROFILE_SPAN
PROFILE_SPAN = 40.0

# the conjugator checks its pieces on [2A + 0.55, 2A + OVERLAP_REACH] and
# [-2A - OVERLAP_REACH, -2A] through the chart inverse, so the profile must
# reach past it: P = 0.884 at s = 32.9, and P(PROFILE_SPAN) = 0.8875
OVERLAP_REACH = 0.884


def _plateau_jets(x, order: int, plateau: float, edge: float) -> np.ndarray:
    """Derivatives 0..order of the even ramp that is 1 on |x| <= plateau
    and falls by a smoothstep to 0 at |x| = edge (edge - plateau = 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(x)
    out = np.zeros(x.shape + (order + 1,))
    flat = ax <= plateau
    out[flat, 0] = 1.0
    ramp = (~flat) & (ax < edge)
    if ramp.any():
        coeffs = _taylor.compose_affine(
            _taylor.smoothstep_series(edge - ax[ramp], order), -1.0)
        jets = _taylor.coeffs_to_derivs(coeffs)
        # mirror to negative arguments: odd orders change sign
        sign = np.where(x[ramp][:, None] < 0.0,
                        (-1.0) ** np.arange(order + 1)[None, :], 1.0)
        out[ramp] = jets * sign
    return out


@dataclass(frozen=True)
class PlateauField:
    """Unit-plateau bump field: 1 on [-2A, 2A], 0 outside [-2A-1, 2A+1]."""
    A: int

    @property
    def plateau(self) -> float:
        return 2.0 * self.A

    @property
    def edge(self) -> float:
        return 2.0 * self.A + 1.0

    def jets(self, x, order: int) -> np.ndarray:
        """Derivatives 0..order of rho, exactly even in x."""
        return _plateau_jets(x, order, self.plateau, self.edge)

    def values(self, x) -> np.ndarray:
        """rho itself, bitwise equal to jets(x, 0)[..., 0]: the same float
        operations and flat cuts, without the series arithmetic."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ax = np.abs(x)
        out = np.zeros(x.shape)
        flat = ax <= self.plateau
        out[flat] = 1.0
        ramp = (~flat) & (ax < self.edge)
        if ramp.any():
            t = self.edge - ax[ramp]
            val = np.where(t >= 1.0, 1.0, 0.0)
            mid = (t > _taylor._FLAT_CUT) & (t < 1.0 - _taylor._FLAT_CUT)
            tm = t[mid]
            # mid keeps both t and 1 - t above the cut: one exp for S(t)
            # and S(1 - t) together
            s = np.exp(-1.0 / np.concatenate([tm, 1.0 - tm]))
            up, down = s[:tm.size], s[tm.size:]
            val[mid] = up / (up + down)
            out[ramp] = val
        return out

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        val = self.values(x)
        return val[0] if scalar else val


def make_rho(A: int) -> PlateauField:
    if A < 1 or int(A) != A:
        raise ValueError("A must be a positive integer")
    return PlateauField(int(A))


def _identity_jets(y: np.ndarray, rho_y: np.ndarray,
                   v: np.ndarray) -> np.ndarray:
    """Jets 0..k of a map Phi with rho(Phi) = Phi' * v, from its values y,
    the jets 0..k-1 of rho at y and the jets 0..k-1 of v at the base
    points (v nonzero there).  Order m of the identity reads
    Phi^(m+1) v = (rho o Phi)^(m) - sum_{j<m} C(m, j) Phi^(j+1) v^(m-j),
    and (rho o Phi)^(m) needs only Phi^(0..m): the jets follow
    triangularly."""
    k = rho_y.shape[-1]
    jets = np.zeros(y.shape + (k + 1,))
    jets[:, 0] = y
    for m in range(k):
        acc = compose_derivs(rho_y[:, :m + 1], jets[:, :m + 1])[:, m]
        for j in range(m):
            acc = acc - math.comb(m, j) * jets[:, j + 1] * v[:, m - j]
        jets[:, m + 1] = acc / v[:, 0]
    return jets


def _rho_shift(field: PlateauField, x: np.ndarray, d: np.ndarray,
               rj: np.ndarray, k: int) -> np.ndarray:
    """rho^(m)(x + d) - rho^(m)(x) for m < k, given the jets
    0..k+_SHIFT_TERMS-1 of rho at x.

    Next to the edge d falls below ulp(x), so x + d rounds to x, and a
    difference of two values would lose the displacement and with it
    every jet there.  Tiny displacements therefore take the Taylor shift
    sum_{i=1..4} rho^(m+i)(x) d^i / i! instead.
    """
    out = np.empty((x.size, k))
    shift = np.abs(d) <= _SHIFT_BELOW
    acc = np.zeros((int(shift.sum()), k))
    ds = d[shift, None]
    for i in range(_SHIFT_TERMS, 0, -1):
        acc = (acc + rj[shift, i:i + k]) * (ds / i)
    out[shift] = acc
    far = ~shift
    out[far] = field.jets(x[far] + d[far], k - 1) - rj[far, :k]
    return out


def _time_map_grid(field: PlateauField) -> tuple[float, float, int]:
    """(a, b, n) of the grid of every time-t map of the field: its
    support [-2A - 1, 2A + 1] at the density of _unit_nodes."""
    return -field.edge, field.edge, _unit_nodes(2.0 * field.edge)


def time_t_map(field: PlateauField, t: float, k: int,
               tol: Tolerances | None = None) -> Diffeo1:
    """The time-t map of the field as a compactly supported diffeomorphism,
    on _time_map_grid(field)."""
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got {t!r}")
    tol = tol or DEFAULT_TOL
    lo, hi, n = _time_map_grid(field)
    xs = np.linspace(lo, hi, n)
    jets = np.zeros((n, k + 1))
    if t == 0.0:
        return Diffeo1("compact", lo, hi, k, jets, tol=tol)
    # a node whose path x -> x + t stays on the plateau moves by exactly t;
    # where rho(x) = 0 the node never moves: the map is the identity there
    flat = (np.abs(xs) <= field.plateau) & (np.abs(xs + t) <= field.plateau)
    jets[flat, 0] = t
    ramp = ~flat & (field.values(xs) != 0.0)
    x = xs[ramp]
    # the displacements D = Phi_t(x) - x; atol = ode_tol^2 leaves ode_tol
    # a relative tolerance down to displacements of size ode_tol
    try:
        d = _dop853.integrate(lambda _s, d: field.values(x + d), t,
                              np.zeros(x.size), rtol=tol.ode_tol,
                              atol=tol.ode_tol ** 2, t_eval=[t])[:, -1]
    except _dop853.IntegrationError as exc:
        raise ConstructionError(
            f"flow stage: flow integration failed: {exc}") from exc
    rj = field.jets(x, k + _SHIFT_TERMS - 1)
    drho = _rho_shift(field, x, d, rj, k)
    phi = _identity_jets(x + d, rj[:, :k] + drho, rj[:, :k])
    jets[ramp, 0] = d
    # Phi' = rho(Phi) / rho, so Phi' - 1 = (rho(x + D) - rho(x)) / rho(x)
    jets[ramp, 1] = drho[:, 0] / rj[:, 0]
    jets[ramp, 2:] = phi[:, 2:]
    return Diffeo1("compact", lo, hi, k, jets, tol=tol)


# bounded: the key holds every tolerance, so a caller sweeping tolerances
# would otherwise keep one map per setting for the life of the process
@functools.lru_cache(maxsize=16)
def _unit_time_map(field: PlateauField, k: int, tol: Tolerances) -> Diffeo1:
    """time_t_map(field, 1.0, k, tol=tol), built once per key: a Diffeo1's
    jets are read-only, so one map serves every caller."""
    return time_t_map(field, 1.0, k, tol=tol)


@dataclass(frozen=True)
class _EdgeProfile:
    """The half-edge profile P on [0, PROFILE_SPAN]: node values and the
    Hermite coefficient table of its jets 0..k on the grid of spacing h."""
    h: float
    values: np.ndarray
    table: np.ndarray

    def jet_at(self, s: np.ndarray, order: int) -> np.ndarray:
        return _hermite_eval(self.table, s, 0.0, self.h, order)


@functools.lru_cache(maxsize=None)
def _edge_profile(k: int, ode_tol: float) -> _EdgeProfile:
    """Integrate P' = R(P), P(0) = 0 on [0, PROFILE_SPAN], with
    R(s) = rho(2A + s) for every A (the ramp of PlateauField(0)), and
    tabulate it at the density of _unit_nodes with jets 0..k."""
    ramp = PlateauField(0)
    n = _unit_nodes(PROFILE_SPAN)
    ss = np.linspace(0.0, PROFILE_SPAN, n)
    try:
        vals = _dop853.integrate(lambda _s, p: ramp.values(p), PROFILE_SPAN,
                                 [0.0], rtol=ode_tol, atol=ode_tol,
                                 t_eval=ss)[0]
    except _dop853.IntegrationError as exc:
        raise ConstructionError(
            f"flow stage: chart integration failed: {exc}") from exc
    if not vals[-1] > OVERLAP_REACH:
        raise ConstructionError(
            f"flow stage: the chart reaches 2A + {vals[-1]:.6f}, not past "
            f"the overlap windows' end 2A + {OVERLAP_REACH}")
    # P' = R(P): the identity with v = 1, since s is time
    unit = np.zeros((n, k))
    unit[:, 0] = 1.0
    jets = _identity_jets(vals, ramp.jets(vals, k - 1), unit)
    # one profile serves every caller: its arrays are read-only
    table = _hermite_coeffs(jets[:-1], jets[1:], ss[1])
    for arr in (vals, table):
        arr.setflags(write=False)
    return _EdgeProfile(ss[1], vals, table)


class Chart:
    """The trajectory chart of a plateau field: phi(x) = x on the plateau
    [-2A, 2A], 2A + P(x - 2A) right of it, odd, and clamped to its value
    at W = 2A + PROFILE_SPAN beyond W."""

    def __init__(self, field: PlateauField, k: int, profile: _EdgeProfile):
        self.field = field
        self.k = k
        self.w = field.plateau + PROFILE_SPAN
        self._profile = profile

    @property
    def asymptote(self) -> float:
        return self.field.edge

    @property
    def attained(self) -> float:
        """Largest chart value, 2A + P(L) (strictly below the asymptote)."""
        return self.field.plateau + float(self._profile.values[-1])

    def jet_at(self, x, order: int | None = None) -> np.ndarray:
        if order is None:
            order = self.k
        if order > self.k:
            raise PreconditionError(
                f"flow stage: chart jets of order {order} requested from a "
                f"chart of order {self.k}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape + (order + 1,))
        out[..., 0] = x
        if order >= 1:
            out[..., 1] = 1.0
        ax = np.abs(x)
        ramp = ax > self.field.plateau
        if ramp.any():
            s = ax[ramp] - self.field.plateau
            pj = self._profile.jet_at(np.minimum(s, PROFILE_SPAN), order)
            beyond = s > PROFILE_SPAN
            pj[beyond, 1:] = 0.0
            pj[:, 0] += self.field.plateau
            # phi is odd: phi^(m)(-x) = (-1)^(m+1) phi^(m)(x)
            sign = np.where(x[ramp][:, None] < 0.0,
                            -(-1.0) ** np.arange(order + 1)[None, :], 1.0)
            out[ramp] = pj * sign
        return out

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        val = self.jet_at(np.atleast_1d(x), 0)[..., 0]
        return float(val[0]) if scalar else val

    def inverse_value(self, y) -> np.ndarray:
        """Solve phi(x) = y: y itself on the plateau, else 2A + s with
        P(s) = |y| - 2A, bracketed by the profile cell and solved by the
        Newton-bisection loop shared with Diffeo1.inverse_values to steps
        of 1e-12, which takes about 3 steps; odd.  |y| must lie strictly
        below the attained value."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(np.abs(y) >= self.attained):
            raise PreconditionError(
                "flow stage: chart inverse requested outside attained range")
        x = y.copy()
        ramp = np.abs(y) > self.field.plateau
        if ramp.any():
            p = np.abs(y[ramp]) - self.field.plateau
            prof = self._profile
            lo, hi, s0 = _cell_bracket(0.0, prof.h, prof.values, p)
            s = _solve_increasing(lambda s: prof.jet_at(s, 1), p, lo, hi, s0,
                                  1e-12)
            x[ramp] = np.copysign(self.field.plateau + s, y[ramp])
        return x


def trajectory_chart(field: PlateauField, k: int,
                     tol: Tolerances | None = None) -> Chart:
    """The trajectory of 0 as a function of time, on the process's one
    edge profile for (k, tol.ode_tol)."""
    tol = tol or DEFAULT_TOL
    return Chart(field, k, _edge_profile(k, tol.ode_tol))


def verify_chart_conjugation(field: PlateauField, b: float, samples: int,
                             k: int = 2, chart: Chart | None = None,
                             tol: Tolerances | None = None) -> float:
    """Residual of the intertwining identity: applying the chart inverse,
    translating by b, and mapping back should equal the time-b map."""
    tol = tol or DEFAULT_TOL
    chart = chart or trajectory_chart(field, k, tol=tol)
    tau = time_t_map(field, b, k, tol=tol)
    reach = chart(chart.w - abs(b) - 0.5)
    r = min(chart.attained - 1e-9, reach)
    xs = np.linspace(-r, r, samples)
    lhs = chart(chart.inverse_value(xs) + b)
    rhs = tau(xs)
    return float(np.max(np.abs(lhs - rhs)))


def verify_chart_fixes_support(field: PlateauField, u: Diffeo1, samples: int,
                               chart: Chart | None = None,
                               tol: Tolerances | None = None) -> float:
    """Residual of the identity that maps supported inside the plateau
    commute with the chart."""
    tol = tol or DEFAULT_TOL
    chart = chart or trajectory_chart(field, u.k, tol=tol)
    supp = support_interval(u)
    if supp is not None and (supp[0] < -field.plateau
                             or supp[1] > field.plateau):
        raise PreconditionError(
            "flow stage: map must be supported inside the plateau")
    r = chart.attained - 1e-9
    xs = np.linspace(-r, r, samples)
    lhs = chart(u(chart.inverse_value(xs)))
    rhs = u(xs)
    return float(np.max(np.abs(lhs - rhs)))
