"""Plateau vector field, its time-t maps, and the trajectory chart.

The field rho is 1 on [-2A, 2A], 0 outside [-2A-1, 2A+1], even, and
smooth: rho(x) = S(2A+1-|x|) / (S(2A+1-|x|) + S(|x|-2A)) with
S(t) = exp(-1/t) for t > 0 and 0 otherwise.

Time-t maps use the 1-D flow identity rho(Phi_t(x)) = Phi_t'(x) rho(x)
instead of variational equations.  One adaptive high-order Runge-Kutta
solve integrates only the displacements D = Phi_t(x) - x of all nodes, a
vector of n scalar ODEs whose right-hand side is the closed-form field
value.  The jets then follow from the identity: Phi_t' - 1 =
(rho(x+D) - rho(x)) / rho(x), and order m of its Leibniz expansion gives
Phi_t^(m+1) from the lower orders through the chain-rule table.  Where
rho(x) = 0 the map is the identity.  Next to the edge D is so small that
x + D rounds to x; there rho(x+D) - rho(x) comes from a Taylor shift in
D from the jets of rho at x, since a difference of two values would
collapse every jet of such a node to zero.

The chart phi(x) is the trajectory of 0 evaluated at time x.  Its
derivative jets need no extra integration: phi' = rho(phi) is the same
identity with rho(x) replaced by 1 (x is time), and the same triangular
recursion gives the higher orders.  phi increases from -2A-1 to 2A+1 but
only logarithmically fast outside the plateau, so the tabulated window
ends at W = 8(2A+1) with a constant clamp beyond; the clamp value still
sits visibly inside the asymptote and inverse lookups are restricted to
the attained range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import _taylor
from .config import DEFAULT_TOL, Tolerances
from .diffeo import (Diffeo1, _cell_bracket, _hermite_eval, _hermite_tables,
                     _solve_increasing, support_interval)
from .errors import ConstructionError, PreconditionError
from .jets import compose_derivs

_ODE_METHOD = "DOP853"

# tabulation density for flow objects; the Hermite residual scales like
# (1/density)^(2k+2), so 256 keeps C^0 errors near 1e-12 for k = 2
_NODES_PER_UNIT = 256

# time-t maps: displacements up to this size get rho(x + d) - rho(x) from
# a Taylor shift with this many terms instead of from values at x + d
_SHIFT_BELOW = 1e-5
_SHIFT_TERMS = 4


def _auto_nodes(width: float) -> int:
    n = int(round(width * _NODES_PER_UNIT)) + 1
    if n % 2 == 0:
        n += 1
    return max(n, 129)


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
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ax = np.abs(x)
        out = np.zeros(x.shape + (order + 1,))
        flat = ax <= self.plateau
        out[flat, 0] = 1.0
        ramp = (~flat) & (ax < self.edge)
        if ramp.any():
            t = self.edge - ax[ramp]
            coeffs = _taylor.compose_affine(
                _taylor.smoothstep_series(t, order), -1.0)
            jets = _taylor.coeffs_to_derivs(coeffs)
            # mirror to negative arguments: odd orders change sign
            sign = np.where(x[ramp][:, None] < 0.0,
                            (-1.0) ** np.arange(order + 1)[None, :], 1.0)
            out[ramp] = jets * sign
        return out

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


def time_t_map(field: PlateauField, t: float, k: int,
               tol: Tolerances | None = None) -> Diffeo1:
    """The time-t map of the field as a compactly supported diffeomorphism."""
    tol = tol or DEFAULT_TOL
    lo, hi = -field.edge, field.edge
    n = _auto_nodes(hi - lo)
    xs = np.linspace(lo, hi, n)
    jets = np.zeros((n, k + 1))
    if t == 0.0:
        return Diffeo1("compact", lo, hi, k, jets, tol=tol)
    # the displacements D = Phi_t(x) - x; atol = ode_tol^2 leaves ode_tol
    # a relative tolerance down to displacements of size ode_tol
    sol = solve_ivp(lambda _s, d: field.values(xs + d), (0.0, t), np.zeros(n),
                    method=_ODE_METHOD, atol=tol.ode_tol ** 2,
                    rtol=tol.ode_tol, t_eval=[t])
    if not sol.success:
        raise ConstructionError(f"flow integration failed: {sol.message}")
    rj = field.jets(xs, k + _SHIFT_TERMS - 1)
    # where rho(x) = 0 the node never moves: the map is the identity there
    live = rj[:, 0] != 0.0
    x, d, rj = xs[live], sol.y[live, -1], rj[live]
    drho = _rho_shift(field, x, d, rj, k)
    phi = _identity_jets(x + d, rj[:, :k] + drho, rj[:, :k])
    jets[live, 0] = d
    # Phi' = rho(Phi) / rho, so Phi' - 1 = (rho(x + D) - rho(x)) / rho(x)
    jets[live, 1] = drho[:, 0] / rj[:, 0]
    jets[live, 2:] = phi[:, 2:]
    return Diffeo1("compact", lo, hi, k, jets, tol=tol)


class Chart:
    """Monotone map phi with range inside (-2A-1, 2A+1), tabulated as jets
    on [-W, W] and clamped to its end values beyond."""

    def __init__(self, field: PlateauField, k: int, jets: np.ndarray,
                 w: float):
        self.field = field
        self.k = k
        self.w = w
        n = jets.shape[0]
        self.n = n
        self.h = 2.0 * w / (n - 1)
        jets = np.array(jets, dtype=float)
        jets.setflags(write=False)
        self.jets = jets
        self._dc = None

    @property
    def asymptote(self) -> float:
        return self.field.edge

    @property
    def attained(self) -> float:
        """Largest chart value in the table (strictly below the asymptote)."""
        return float(self.jets[-1, 0])

    def jet_at(self, x, order: int | None = None) -> np.ndarray:
        if order is None:
            order = self.k
        if order > self.k:
            raise ValueError("requested order exceeds the chart order")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._dc is None:
            self._dc = _hermite_tables(self.jets, self.h)
        xf = np.minimum(np.maximum(x, -self.w), self.w)
        out = _hermite_eval(self._dc, xf, -self.w, self.h, order)
        beyond = np.abs(x) > self.w
        if beyond.any():
            clamp = np.where(x[beyond] > 0, self.jets[-1, 0], self.jets[0, 0])
            out[beyond] = 0.0
            out[beyond, 0] = clamp
        return out

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        val = self.jet_at(np.atleast_1d(x), 0)[..., 0]
        return float(val[0]) if scalar else val

    def inverse_value(self, y) -> np.ndarray:
        """Solve phi(x) = y inside the tabulated window [-W, W]: bracket
        each point by its table cell and run the Newton-bisection loop
        shared with Diffeo1.inverse_values to steps of 1e-12, which takes
        about 3 steps.  y must lie strictly inside the attained range."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(y <= self.jets[0, 0]) or np.any(y >= self.jets[-1, 0]):
            raise PreconditionError(
                "flow stage: chart inverse requested outside attained range")
        lo, hi, x0 = _cell_bracket(-self.w, self.h, self.jets[:, 0], y)
        return _solve_increasing(lambda x: self.jet_at(x, 1), y, lo, hi, x0,
                                 1e-12)


def trajectory_chart(field: PlateauField, k: int,
                     tol: Tolerances | None = None) -> Chart:
    """Integrate the trajectory of 0 for time x, for x in [-W, W]."""
    tol = tol or DEFAULT_TOL
    w = 8.0 * field.edge
    n = _auto_nodes(2.0 * w)
    xs = np.linspace(-w, w, n)
    half = (n - 1) // 2
    vals = np.empty(n)
    vals[half] = 0.0

    for sign, sl in ((1.0, slice(half + 1, n)), (-1.0, slice(half - 1, None, -1))):
        times = sign * xs[sl] if sign < 0 else xs[sl]
        sol = solve_ivp(lambda _s, y: sign * field.values(y),
                        (0.0, float(times[-1])),
                        [0.0], method=_ODE_METHOD,
                        atol=tol.ode_tol, rtol=tol.ode_tol,
                        t_eval=times)
        if not sol.success:
            raise ConstructionError(f"chart integration failed: {sol.message}")
        vals[sl] = sol.y[0]

    # phi' = rho(phi): the identity with v = 1, since x is time
    unit = np.zeros((n, k))
    unit[:, 0] = 1.0
    return Chart(field, k, _identity_jets(vals, field.jets(vals, k - 1), unit),
                 w)


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
