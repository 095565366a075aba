"""One-dimensional diffeomorphisms stored through displacement jets.

A map f is kept as its displacement u = f - Id, sampled with derivatives
0..k on a uniform grid and interpolated between nodes by the two-point
Hermite polynomial of order 2k+1, so the model is C^k globally.  A map
keeps one table of the interpolant's monomial coefficients per cell,
built on its first evaluation; the derivatives of every order are read
off that table at evaluation time (_horner).  Tail
classes fix the behaviour outside the grid: compactly supported maps are
the identity there, periodic maps commute with the unit translation, and
eventually-periodic ("ep") maps are the identity on the left and
1-periodic on the right, with the final unit window of the grid holding
the repeating profile.

Group operations (composition, inversion) take compact or periodic maps
and re-sample the exact jet propagation of the operands onto a fresh
grid, doubling the node count until the midpoint interpolation residual
is small (_build_adaptive).  Each doubling round asks its sampler once,
for the nodes and the midpoints together.  The limit word of the
conjugacy certificate builds ep maps, which are only evaluated.

One letter primitive, _apply_letter, applies a map to jets by the chain
rule: compose is the two-letter word f o g, and the words of reduction.py
are longer words of the same letter.
"""

from __future__ import annotations

import base64
import functools
import math

import numpy as np

from . import _taylor
from .config import DEFAULT_TOL, Tolerances
from .errors import ConstructionError, PreconditionError
from .jets import MAX_ORDER, compose_derivs, invert_derivs

TAILS = ("compact", "periodic", "ep")

# extra slack, in units of the interpolation residual, allowed when checking
# structural tail identities on re-sampled objects
_FOLD_SLACK = 10.0

# density of the grids sized by their width alone (_unit_nodes); the Hermite
# residual scales like (1/density)^(2k+2), so 256 keeps C^0 errors near
# 1e-12 for k = 2
_NODES_PER_UNIT = 256


def _frac(y: np.ndarray) -> np.ndarray:
    """np.mod(y, 1.0), bit for bit for finite y, several times faster:
    y - floor(y) rounds the same exact value once, and gives +0.0 at
    integers."""
    return y - np.floor(y)


@functools.lru_cache(maxsize=None)
def _hermite_plan(k: int) -> tuple[np.ndarray, ...]:
    """The scalar constants of _hermite_coeffs at order k, each an integer
    held exactly as a float64, laid out to broadcast over the cell axis:

    - fact[j] = j!, shape (k+1, 1);
    - falling[i, j] = i!/(i-j)! for j <= i, the j-th derivative of t^i
      at t = 1;
    - weights[m, j] for m < j, the coefficient of q_m in the j-th
      derivative at t = 1 of the correction sum_m q_m t^{k+1} (t-1)^m;
    - signed[m, s] = C(m, s) (-1)^(m-s), the coefficient of t^s in
      (t-1)^m.

    The arrays are read-only: every call at order k shares them."""
    fact = _taylor.factorials(k)[:, None]
    falling = np.zeros((k + 1, k + 1))
    weights = np.zeros((k + 1, k + 1))
    signed = np.zeros((k + 1, k + 1))
    for i in range(k + 1):
        for j in range(i + 1):
            falling[i, j] = math.factorial(i) / math.factorial(i - j)
            signed[i, j] = math.comb(i, j) * (-1.0) ** (i - j)
    for j in range(k + 1):
        for m in range(j):
            weights[m, j] = math.comb(j, m) * math.factorial(m) \
                * math.factorial(k + 1) // math.factorial(k + 1 - (j - m))
    for arr in (fact, falling, weights, signed):
        arr.setflags(write=False)
    return fact, falling, weights, signed


def _hermite_coeffs(j0: np.ndarray, j1: np.ndarray, h: float) -> np.ndarray:
    """Monomial coefficients, per cell, of the order-2k+1 interpolant.

    j0 and j1 hold the jets at the left and right ends of each cell of
    width h, with shape (cells, k+1) and derivative order on the last axis;
    the result has shape (2k+2, cells), in their dtype, laid out
    (coefficients, cells): row i holds the coefficient of t^i in every
    cell, where t is the local coordinate (x - x_left)/h.

    Rows 0..k are the left Taylor part d0_i / i!, with d0_i = h^i j0_i.
    Rows k+1.. are the correction sum_m q_m t^{k+1} (t-1)^m that matches
    the right jets: q solves a triangular system at t = 1.  The scalar
    constants come from _hermite_plan; the arithmetic runs on whole
    (orders, cells) blocks in place, one ufunc per order.  Each element
    takes the same IEEE operations in the same order as the loop over
    single orders kept as the oracle of tests/test_hermite_tables.py:
    every sum starts from zero, as there (0.0 + -0.0 is +0.0), and a
    product by a signed binomial equals the loop's product by the
    binomial and then by -1, since rounding is symmetric in sign.

    This is the only table a map, or the chart's edge profile, keeps: the
    coefficients of the derivatives in t are derived from its rows by
    _horner at each evaluation."""
    cells, kp1 = j0.shape
    k = kp1 - 1
    fact, falling, weights, signed = _hermite_plan(k)
    hp = (h ** np.arange(kp1))[:, None]
    c = np.zeros((2 * kp1, cells), dtype=j0.dtype)
    low, high = c[:kp1], c[kp1:]
    np.multiply(j0.T, hp, out=low)
    np.divide(low, fact, out=low)
    # q first holds the derivatives at t=1 of the left Taylor part ...
    q = np.zeros((kp1, cells), dtype=j0.dtype)
    tmp = np.empty((kp1, cells), dtype=j0.dtype)
    for i in range(kp1):
        np.multiply(low[i], falling[i, :i + 1, None], out=tmp[:i + 1])
        np.add(q[:i + 1], tmp[:i + 1], out=q[:i + 1])
    # ... then what the correction must add to reach h^j j1_j there ...
    np.multiply(j1.T, hp, out=tmp)
    np.subtract(tmp, q, out=q)
    # ... and, row by row, the correction's own coefficients q_m
    for m in range(kp1):
        np.divide(q[m], fact[m], out=q[m])
        np.multiply(q[m], weights[m, m + 1:, None], out=tmp[:k - m])
        np.subtract(q[m + 1:], tmp[:k - m], out=q[m + 1:])
        np.multiply(q[m], signed[m, :m + 1, None], out=tmp[:m + 1])
        np.add(high[:m + 1], tmp[:m + 1], out=high[:m + 1])
    return c


def _grid_cells(xf: np.ndarray, lo: float, h: float,
                cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell index and local coordinate t of float64 points xf on the grid
    lo + h*i of `cells` cells.

    Every point must be finite and none may lie left of lo, so that
    pos >= 0 and truncation is the floor; a NaN casts to the most negative
    int and has no cell.  Every caller makes sure of the second: a map's
    points are folded into its grid first (Diffeo1._fold), and the chart's
    edge profile is read at s = |x| - 2A > 0 or inside inverse-solve
    brackets that start at 0.  A non-finite point is the caller's error
    (Diffeo1.displacement_jets asks for finite x).
    Only the right end is clamped: a point at lo + h*cells, or one that
    rounds past it, is in the last cell."""
    pos = (xf - lo) / h
    idx = np.minimum(pos.astype(int), cells - 1)
    return idx, pos - idx


def _hermite_eval(c: np.ndarray, xf: np.ndarray, lo: float, h: float,
                  order: int, lowest: int = 0) -> np.ndarray:
    """Derivatives lowest..order of the interpolant with coefficient table
    c on the grid lo + h*i at points xf already folded into the grid."""
    idx, t = _grid_cells(xf, lo, h, c.shape[1])
    return _horner(c, idx, t, h, order, lowest)


def _horner(c: np.ndarray, idx: np.ndarray, t: np.ndarray, h: float,
            order: int, lowest: int = 0) -> np.ndarray:
    """Derivatives lowest..order of the interpolant at local coordinates t
    in cells idx, by Horner's rule on the rows of the table c of
    _hermite_coeffs, in its dtype (t should carry the same precision).

    Row i of the order-j polynomial in t is row i+1 of order j-1 times
    i+1.  The kernel derives those rows in place, one multiply per order.
    A call that asks for more than one order, or has fewer points than
    the table has cells, gathers the rows at the points once and derives
    them there.  A call for one order at more points than cells, such as
    the Holder estimator's many samples per cell, derives the rows over
    the cells and gathers each row as Horner reads it.  Rows below
    `lowest` feed no order asked for and are skipped.  Each coefficient
    is the same product of the same floats either way, so an order's
    values are bitwise those of a table built per order, and do not
    depend on which other orders are asked for: each order is its own
    Horner pass."""
    rows, cells = c.shape
    gathered = order > lowest or idx.size < cells
    # blk holds rows base.. of the current order; c itself is never written
    blk, base, owned = c[lowest:], lowest, gathered
    if gathered:
        blk = blk.take(idx, axis=1)

    def pick(row):
        return row if gathered else row.take(idx)

    scale = np.arange(1.0, rows)
    out = np.empty(t.shape + (order - lowest + 1,), dtype=c.dtype)
    for j in range(order + 1):
        if j:
            keep = max(j, lowest)           # rows below it are not read
            f = scale[keep - j:rows - j]
            f = f.reshape(f.shape + (1,) * (blk.ndim - 1))
            blk, base = blk[keep - base:], keep
            if owned:
                blk *= f
            else:
                blk, owned = blk * f, True
        if j < lowest:
            continue
        acc = pick(blk[-1]) * t
        for i in range(blk.shape[0] - 2, 0, -1):
            acc += pick(blk[i])
            acc *= t
        acc += pick(blk[0])
        out[..., j - lowest] = acc / h ** j
    return out


def _cell_bracket(a: float, h: float, node_values: np.ndarray,
                  y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bracket F(x) = y by a grid cell, for an increasing F with values
    node_values at the nodes a + h*i: the cell [x_i, x_i+1] whose end
    values hold y (the first or last cell for y beyond them), and the
    guess of the line through the two end values."""
    i = np.searchsorted(node_values, y, side="right") - 1
    i = np.minimum(np.maximum(i, 0), node_values.size - 2)
    f0, f1 = node_values[i], node_values[i + 1]
    lo, hi = a + h * i, a + h * (i + 1)
    t = np.minimum(np.maximum((y - f0) / (f1 - f0), 0.0), 1.0)
    return lo, hi, lo + h * t


def _solve_increasing(jet1, y: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      x0: np.ndarray, tolx: float) -> np.ndarray:
    """Solve F(x) = y pointwise for an increasing F, where jet1(x) gives
    F and F' at x, by Newton steps safeguarded by bisection of the bracket
    [lo, hi] that F(lo) <= y <= F(hi) must hold.  Each step narrows the
    bracket to the side of the root; a step that leaves the bracket, but
    not one that lands on an end of it, is replaced by its midpoint.  A
    point stops once its own step is at most tolx, and only the points
    still moving are evaluated again; after 80 steps the loop gives up
    and returns where the points are.  From a bracket of one grid cell
    (_cell_bracket) this takes 1 to 3 steps."""
    x = np.array(x0, dtype=float)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    act = np.arange(x.size)
    for _ in range(80):
        if act.size == 0:
            break
        xa, ya = x[act], y[act]
        jet = jet1(xa)
        fx = jet[..., 0] - ya
        neg = fx < 0.0
        la = np.where(neg, xa, lo[act])
        ha = np.where(neg, hi[act], xa)
        xn = xa - fx / np.maximum(jet[..., 1], 1e-14)
        outside = (xn < la) | (xn > ha) | ~np.isfinite(xn)
        xn = np.where(outside, 0.5 * (la + ha), xn)
        x[act], lo[act], hi[act] = xn, la, ha
        act = act[np.abs(xn - xa) > tolx]
    return x


class Diffeo1:
    """Orientation-preserving C^k map of the line in displacement form.

    Instances are treated as immutable values; the node array is frozen on
    construction.  `tail` is one of "compact", "periodic", "ep".
    """

    def __init__(self, tail: str, a: float, b: float, k: int,
                 jets: np.ndarray, tol: Tolerances | None = None):
        tol = tol or DEFAULT_TOL
        if tail not in TAILS:
            raise ValueError(f"unknown tail class {tail!r}")
        jets = np.array(jets, dtype=float)
        if jets.ndim != 2:
            raise ValueError("jets must be a 2-d array (nodes, orders)")
        n, kp1 = jets.shape
        if kp1 != k + 1:
            raise ValueError("jet columns must equal k+1")
        if not 1 <= k <= MAX_ORDER:
            raise ValueError(f"order k must lie in 1..{MAX_ORDER}")
        if n < 2:
            raise ValueError("need at least two nodes")
        if not np.all(np.isfinite(jets)):
            raise ValueError("jets must be finite")
        a = float(a)
        b = float(b)
        if not b > a:
            raise ValueError("empty grid interval")

        if tail == "compact":
            for row in (0, n - 1):
                worst = float(np.max(np.abs(jets[row])))
                if worst > tol.node_zero:
                    raise ValueError(
                        f"compact tail: boundary jets reach {worst:.3e}, "
                        f"beyond the snap tolerance {tol.node_zero:.1e}")
                jets[row] = 0.0
        elif tail == "periodic":
            if abs(b - a - 1.0) > 1e-12:
                raise ValueError("periodic grid must span one period")
            b = a + 1.0
            worst = float(np.max(np.abs(jets[-1] - jets[0])))
            if worst > max(tol.periodic_match, _FOLD_SLACK * tol.interp_residual):
                raise ValueError(
                    f"periodic tail: endpoint jets differ by {worst:.3e}")
            jets[-1] = jets[0]
        else:
            if b - a < 1.0 - 1e-12:
                raise ValueError("ep grid must store a full trailing period")
            worst = float(np.max(np.abs(jets[0])))
            if worst > tol.node_zero:
                raise ValueError(
                    f"ep tail: left boundary jets reach {worst:.3e}")
            jets[0] = 0.0

        if np.any(1.0 + jets[:, 1] <= 0.0):
            raise PreconditionError("orientation lost: f' <= 0 at a node")

        jets.setflags(write=False)
        self.tail = tail
        self.a = a
        self.b = b
        self.k = k
        self.jets = jets
        self.n = n
        self.h = (b - a) / (n - 1)
        self._dc: np.ndarray | None = None      # float64 coefficient table

        if tail == "ep":
            self._check_ep_fold(tol)

    # -- interpolation ---------------------------------------------------

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n)

    def _check_ep_fold(self, tol: Tolerances) -> None:
        left = self.displacement_jets(np.array([self.b - 1.0]))[0]
        gap = float(np.max(np.abs(left - self.jets[-1])))
        if gap > max(tol.periodic_match, _FOLD_SLACK * tol.interp_residual):
            raise ValueError(
                f"ep tail: profile mismatch {gap:.3e} across the fold")

    def _fold(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map arbitrary points into the grid; also return the identity mask."""
        if self.tail == "compact":
            ident = (x <= self.a) | (x >= self.b)
            xf = np.minimum(np.maximum(x, self.a), self.b)
        elif self.tail == "periodic":
            ident = np.zeros(x.shape, dtype=bool)
            xf = self.a + _frac(x - self.a)
        else:
            ident = x <= self.a
            xf = np.where(x > self.b,
                          (self.b - 1.0) + _frac(x - (self.b - 1.0)), x)
            xf = np.minimum(np.maximum(xf, self.a), self.b)
        return xf, ident

    def displacement_jets(self, x, order: int | None = None,
                          lowest: int = 0) -> np.ndarray:
        """Derivatives lowest..order of the displacement, vectorized over
        finite x (a NaN, or an infinite point of a periodic or ep map, has
        no cell); each is bitwise the same whichever other orders are asked
        for.  A compact map is the identity off (a, b), where every
        derivative is +0.0.  So, as in _apply_letter, only the index range
        from the first to the last point strictly inside (a, b) is
        evaluated, and the points around it are zero-filled."""
        if order is None:
            order = self.k
        if order > self.k:
            raise ValueError("requested order exceeds the model order")
        if not 0 <= lowest <= order:
            raise ValueError("lowest order must lie in 0..order")
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        xf, ident = self._fold(x)
        if self._dc is None:
            self._dc = _hermite_coeffs(self.jets[:-1], self.jets[1:], self.h)
        m = order - lowest + 1
        xf, ident = xf.ravel(), ident.ravel()
        lo, hi = 0, x.size
        if self.tail == "compact" and ident.any():
            live = ~ident
            lo, hi = int(live.argmax()), x.size - int(live[::-1].argmax())
            if not live[lo]:
                lo = hi = 0                     # no point inside (a, b)
        if (lo, hi) == (0, x.size):
            out = _hermite_eval(self._dc, xf, self.a, self.h, order, lowest)
            out[ident] = 0.0
        else:
            inner = _hermite_eval(self._dc, xf[lo:hi], self.a, self.h,
                                  order, lowest)
            inner[ident[lo:hi]] = 0.0
            # allocated after the evaluation, whose temporaries are freed
            out = np.zeros((x.size, m))
            out[lo:hi] = inner
        out = out.reshape(x.shape + (m,))
        if scalar:
            return out[0]
        return out

    def jet_at(self, x, order: int | None = None) -> np.ndarray:
        """Full-map derivatives 0..order: f(x), f'(x), ..."""
        if order is None:
            order = self.k
        out = self.displacement_jets(x, order)
        out[..., 0] += np.asarray(x, dtype=float)
        if order >= 1:
            out[..., 1] += 1.0
        return out

    def __call__(self, x) -> np.ndarray:
        return self.jet_at(x, 0)[..., 0]

    # -- structural queries ----------------------------------------------

    def inverse_values(self, y, xtol: float | None = None) -> np.ndarray:
        """Solve f(x) = y pointwise for a compact or periodic map.

        A compact map is the identity outside [a, b], so there x = y
        exactly.  A periodic map commutes with the unit shift, so y is
        first moved by an integer m into [f(a), f(a) + 1) and m is added
        back to the root.  Every other point is bracketed by its node cell
        (_cell_bracket) and solved by _solve_increasing to steps of xtol;
        one more Newton step, with the residual taken in displacement form
        (_newton_step), then leaves x within ulp(x) + 2 ulp(x - y) of the
        interpolant's root, plus the float64 error of u(x): one ulp of x
        where the displacement and its slope are small, so those roots
        carry no rounding noise from node to node.  Everything is float64,
        read from the map's one coefficient table; each root is the same
        whichever points are solved with it.  A residual above 1e-8 after
        the loop is a ConstructionError."""
        if self.tail == "ep":
            raise ValueError(f"no inverse is solved for a map of class "
                             f"{self.tail!r}")
        tolx = 1e-12 if xtol is None else xtol
        y = np.asarray(y, dtype=float)
        shape = y.shape
        y = y.ravel()
        x = y.copy()
        if self.tail == "periodic":
            sel = np.arange(y.size)
            m = np.floor(y - (self.a + self.jets[0, 0]))
        else:
            sel = np.flatnonzero((y > self.a) & (y < self.b))
            m = 0.0
        ys = y[sel] - m
        lo, hi, x0 = _cell_bracket(self.a, self.h,
                                   self.nodes + self.jets[:, 0], ys)
        xs = _solve_increasing(lambda x: self.jet_at(x, 1), ys, lo, hi, x0,
                               tolx) + m
        if xs.size:
            x[sel], resid = self._newton_step(xs, y[sel])
            if resid > 1e-8:
                raise ConstructionError(
                    f"inverse solve stalled with residual {resid:.3e}")
        return x[0] if shape == () else x.reshape(shape)

    def _newton_step(self, x: np.ndarray,
                     y: np.ndarray) -> tuple[np.ndarray, float]:
        """One Newton step toward f(x) = y, and the largest residual
        |f(x) - y| before the step.  The residual is taken in displacement
        form, r = (x - y) + u(x), from the float64 table: x - y is exact
        wherever y/2 <= x <= 2y (Sterbenz), so r carries the error of u(x)
        and ulp(r).  u(x) is off by ulp(u) and by |u'| times the rounding
        of the cell position (x - a) / h: far below ulp(x) where u and u'
        are small, about |u'| ulp(b - a) on a map of large displacement
        over a wide grid, such as a rescaler.  The table is the one the
        solve before this step built.  The residual is a few ulp at most,
        so the step takes the slope of the cell's chord."""
        xf, ident = self._fold(x)
        i, t = _grid_cells(xf, self.a, self.h, self.n - 1)
        u = _horner(self._dc, i, t, self.h, 0)[:, 0]
        u[ident] = 0.0
        r = (x - y) + u
        slope = 1.0 + (self.jets[i + 1, 0] - self.jets[i, 0]) / self.h
        xn = x - r / np.maximum(slope, 1e-14)
        return xn, float(np.max(np.abs(r)))


# -- constructors ---------------------------------------------------------

def identity(k: int, lo: float = -1.0, hi: float = 1.0) -> Diffeo1:
    return Diffeo1("compact", lo, hi, k, np.zeros((2, k + 1)))


def translation(c: float, k: int) -> Diffeo1:
    """The map x + c, modelled as a periodic displacement."""
    jets = np.zeros((2, k + 1))
    jets[:, 0] = c
    return Diffeo1("periodic", 0.0, 1.0, k, jets)


def _unit_nodes(width: float, floor: int = 2) -> int:
    """Nodes of a uniform grid over `width` units at _NODES_PER_UNIT nodes
    per unit, and at least `floor`."""
    return max(floor, int(round(width * _NODES_PER_UNIT)) + 1)


def refined_grid(f: Diffeo1, density: int) -> np.ndarray:
    """Uniform sample of f's grid, `density` points per node spacing."""
    m = int(math.ceil((f.b - f.a) / f.h)) * density + 1
    return np.linspace(f.a, f.b, m)


def _minus_identity(jets: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Displacement jets from full-map jets (orders 0..m, any m) at xs, in
    place: x is taken from order 0 and 1 from order 1, if present."""
    jets[..., 0] -= xs
    if jets.shape[-1] > 1:
        jets[..., 1] -= 1.0
    return jets


def _apply_letter(g: Diffeo1, Y: np.ndarray, order: int) -> None:
    """Replace the jets Y (points x orders 0..order) by those of g o Y,
    in place.  A compact g is the identity off (g.a, g.b): there jet_at
    gives exactly (x, 1, 0, ...) and compose_derivs returns Y itself, up
    to the sign of a zero.  So only the index range from the first to the
    last point strictly inside (g.a, g.b) is evaluated.  The range is a
    contiguous superset of those points and needs no sorted order; a point
    in it but off the grid still gets the exact identity.  Any other g
    acts on every point.  The base points are copied out of Y first: a
    contiguous array compares and evaluates faster than Y's column.  At
    order 0 the chain rule would only copy g's values, so they are
    written directly."""
    x = Y[:, 0].copy()
    if g.tail == "compact":
        inside = (x > g.a) & (x < g.b)
        if not inside.any():
            return
        lo, hi = int(inside.argmax()), x.size - int(inside[::-1].argmax())
        Y, x = Y[lo:hi], x[lo:hi]
    J = g.jet_at(x, order)
    Y[:] = J if order == 0 else compose_derivs(J, Y)


def _displacement_fn_compose(f: Diffeo1, g: Diffeo1):
    def fn(xs: np.ndarray, order: int) -> np.ndarray:
        Y = g.jet_at(xs, order)
        _apply_letter(f, Y, order)
        return _minus_identity(Y, xs)

    return fn


def _build_adaptive(tail: str, lo: float, hi: float, k: int, fn,
                    n0: int, tol: Tolerances) -> Diffeo1:
    """Sample displacement jets from fn on ever finer grids until the
    midpoint residual of the interpolant is below tolerance.  Sampled jets
    the constructor rejects, such as a broken tail law, are a failed
    construction, not bad input.

    The sampler is called as fn(xs, order) and returns the displacement
    jets of orders 0..order at the points xs, shape xs.shape + (order+1,);
    each point's jets depend on that point alone, and each order's values
    are the same whatever order is asked for.  So each round makes one
    call, at order k, on the nodes interleaved with the midpoints: the
    even rows are the map's node jets and order 0 of the odd rows is what
    the midpoint check compares, bitwise what separate calls would give.
    Up to about 10^3 nodes, such as the k = 2, A = 4 witness's 545, one
    call on 2n - 1 points costs less than the two calls; on several
    thousand nodes, such as the k = 1, A = 8 witness's 33 793, it can
    cost more."""
    n = max(int(n0), 2)
    n = min(n, tol.max_nodes)
    while True:
        xs = np.linspace(lo, hi, n)
        mids = 0.5 * (xs[:-1] + xs[1:])
        pts = np.empty(2 * n - 1)
        pts[0::2], pts[1::2] = xs, mids
        sampled = fn(pts, k)
        try:
            obj = Diffeo1(tail, lo, hi, k, sampled[0::2], tol=tol)
        except PreconditionError:
            raise
        except ValueError as e:
            raise ConstructionError(str(e)) from e
        resid = float(np.max(np.abs(obj.displacement_jets(mids, 0)[..., 0]
                                    - sampled[1::2, 0])))
        if resid <= tol.interp_residual or 2 * n - 1 > tol.max_nodes:
            return obj
        n = 2 * n - 1


def compose(f: Diffeo1, g: Diffeo1, tol: Tolerances | None = None) -> Diffeo1:
    """The map f o g of two compact or two periodic maps, re-sampled onto a
    grid fixed by the tail algebra."""
    tol = tol or DEFAULT_TOL
    if f.k != g.k:
        raise ValueError("operands carry different jet orders")
    pair = (f.tail, g.tail)
    if pair == ("compact", "compact"):
        tail = "compact"
        lo, hi = min(f.a, g.a), max(f.b, g.b)
    elif pair == ("periodic", "periodic"):
        tail = "periodic"
        lo, hi = g.a, g.a + 1.0
    else:
        raise ValueError(f"incompatible tail classes {pair}")
    n0 = max(f.n, g.n)
    return _build_adaptive(tail, lo, hi, f.k, _displacement_fn_compose(f, g),
                           n0, tol)


def compose_all(maps: list[Diffeo1], tol: Tolerances | None = None) -> Diffeo1:
    """Compose a list left-to-right: maps[0] o maps[1] o ... o maps[-1]."""
    if not maps:
        raise ValueError("nothing to compose")
    acc = maps[-1]
    for f in reversed(maps[:-1]):
        acc = compose(f, acc, tol)
    return acc


def inverse(f: Diffeo1, tol: Tolerances | None = None) -> Diffeo1:
    """The inverse of a compact or periodic map, with node abscissae solved
    to tight tolerance."""
    tol = tol or DEFAULT_TOL
    if f.tail == "compact":
        lo, hi = f.a, f.b
    elif f.tail == "periodic":
        lo, hi = f.a, f.a + 1.0
    else:
        raise ValueError(f"no inverse is built for a map of class {f.tail!r}")

    def fn(ys: np.ndarray, order: int) -> np.ndarray:
        return _minus_identity(_inverse_jets(f, ys, order, tol), ys)

    return _build_adaptive(f.tail, lo, hi, f.k, fn, f.n, tol)


def _inverse_jets(f: Diffeo1, ys: np.ndarray, order: int,
                  tol: Tolerances) -> np.ndarray:
    """Full-map jets, orders 0..order, of f^{-1} at the points ys: the
    roots x of f(x) = ys to tol.invert_abscissa (inverse_values) and the
    inverse-function jets of f there.  f' is read at every order, so the
    positive-slope refusal of invert_derivs covers every point."""
    xs = f.inverse_values(ys, tol.invert_abscissa)
    return invert_derivs(f.jet_at(xs, max(order, 1)), xs)[..., :order + 1]


def support_interval(f: Diffeo1, slack: float = 1e-10):
    """Smallest closed interval outside which a compact map is the
    identity at grid resolution, or None for maps with no such interval
    (periodic maps, and the identity)."""
    if f.tail == "periodic":
        return None
    if f.tail != "compact":
        raise ValueError(f"no support is computed for a map of class "
                         f"{f.tail!r}")
    # in the flat jets, entry i belongs to node i // (k + 1)
    active = np.flatnonzero(np.abs(f.jets.ravel()) > slack)
    if not active.size:
        return None
    lo, hi = f.a + f.h * (active[[0, -1]] // (f.k + 1))
    return (float(lo), float(hi))


def support_within(f: Diffeo1, window: tuple[float, float]):
    """(inside, support): whether f's support lies in the window up to one
    grid step of f, and the support itself (None when f has none)."""
    supp = support_interval(f)
    return _support_inside(supp, window, f.h), supp


def _support_inside(supp, window: tuple[float, float], h: float) -> bool:
    """Whether a support_interval result lies in the window up to h."""
    return supp is None or (supp[0] >= window[0] - h
                            and supp[1] <= window[1] + h)


def translate_conjugate(f: Diffeo1, c: float) -> Diffeo1:
    """T_c o f o T_{-c}: the displacement profile shifted by c, exactly."""
    return Diffeo1(f.tail, f.a + c, f.b + c, f.k, np.array(f.jets))


def post_translate(f: Diffeo1, c: float) -> Diffeo1:
    """T_c o f for a periodic map: displacement raised by the constant c."""
    if f.tail != "periodic":
        raise ValueError("post-translation preserves only the periodic class")
    jets = np.array(f.jets)
    jets[:, 0] += c
    return Diffeo1("periodic", f.a, f.b, f.k, jets)


def rescale_displacement(f: Diffeo1, lam: float) -> Diffeo1:
    """Conjugation by x -> lam * x, exact on nodes: u(x) -> lam u(x/lam)."""
    if f.tail != "compact":
        raise ValueError("rescaling is defined for compactly supported maps")
    if lam <= 0:
        raise ValueError("scale must be positive")
    jets = np.array(f.jets)
    jets *= lam ** (1.0 - np.arange(f.k + 1))
    return Diffeo1("compact", lam * f.a, lam * f.b, f.k, jets)


# -- presets ---------------------------------------------------------------

def _bump_series(xs: np.ndarray, eps: float, center: float, radius: float,
                 k: int) -> np.ndarray:
    """Taylor coefficients of eps*exp(1 - 1/(1-y^2)), y=(x-c)/r, at xs."""
    y = (xs - center) / radius
    inside = np.abs(y) < 1.0 - 1e-8
    out = np.zeros((len(xs), k + 1))
    if inside.any():
        yv = np.zeros((inside.sum(), k + 1))
        yv[:, 0] = y[inside]
        if k >= 1:
            yv[:, 1] = 1.0 / radius
        w = -_taylor.tmul(yv, yv)
        w[:, 0] += 1.0
        expo = -_taylor.trecip(w)
        expo[:, 0] += 1.0
        out[inside] = eps * _taylor.texp(expo)
    return out


def _preset_bump(eps: float, center: float = 0.0, radius: float = 1.0,
                 k: int = 2, n: int = 513,
                 tol: Tolerances | None = None) -> Diffeo1:
    if radius <= 0:
        raise ValueError("radius must be positive")
    lo, hi = center - radius, center + radius
    xs = np.linspace(lo, hi, n)
    coeffs = _bump_series(xs, eps, center, radius, k)
    jets = _taylor.coeffs_to_derivs(coeffs)
    return Diffeo1("compact", lo, hi, k, jets, tol=tol)


def _preset_wiggle(eps: float, freq: int = 1, phase: float = 0.0,
                   k: int = 2, n: int = 513, a: float = 0.0,
                   tol: Tolerances | None = None) -> Diffeo1:
    if int(freq) != freq or freq < 1:
        raise ValueError("freq must be a positive integer")
    w = 2.0 * math.pi * freq
    frac = np.mod(np.linspace(0.0, 1.0, n), 1.0)
    jets = np.zeros((n, k + 1))
    for j in range(k + 1):
        jets[:, j] = eps * w ** j * np.sin(w * frac + w * a + phase
                                           + j * math.pi / 2.0)
    return Diffeo1("periodic", a, a + 1.0, k, jets, tol=tol)


def from_preset(name: str, params: dict | None = None,
                tol: Tolerances | None = None) -> Diffeo1:
    params = dict(params or {})
    if name == "smooth_bump_displacement":
        return _preset_bump(tol=tol, **params)
    if name == "periodic_wiggle":
        return _preset_wiggle(tol=tol, **params)
    raise ValueError(f"unknown preset {name!r}")


# -- serialization ----------------------------------------------------------

def to_dict(f: Diffeo1) -> dict:
    """The map as JSON-ready data.  `jets` is one ASCII string: the padded
    base64 (RFC 4648) of the (n, k+1) jet array as little-endian float64 in
    row-major order, so every node jet round-trips bit for bit."""
    raw = f.jets.astype("<f8").tobytes()
    return {
        "class": f.tail,
        "grid": {"a": f.a, "b": f.b, "n": f.n},
        "k": f.k,
        "jets": base64.b64encode(raw).decode("ascii"),
    }


def _decode_jets(text, n: int, k: int) -> np.ndarray:
    """The (n, k+1) jet array held by a to_dict `jets` string."""
    if not isinstance(text, str):
        raise ValueError(f"malformed map: jets must be a base64 string, "
                         f"found {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:
        raise ValueError(f"malformed map: jets are not base64 ({e})") from e
    if n < 0 or k < 0 or len(raw) != 8 * n * (k + 1):
        raise ValueError(f"malformed map: jets hold {len(raw)} bytes, not "
                         f"the 8*n*(k+1) of n = {n} nodes at order k = {k}")
    return np.frombuffer(raw, "<f8").reshape(n, k + 1)


def from_dict(d: dict, tol: Tolerances | None = None) -> Diffeo1:
    """Rebuild a map from to_dict output, or from {"preset", "params"}.

    A missing key, a value of the wrong type, jets that are not the base64
    of exactly n*(k+1) float64, or data the Diffeo1 constructor refuses
    (non-finite jets, say) is a ValueError starting "malformed map"; a
    PreconditionError of the constructor passes through.  So does one of
    a preset, whose other refusals read "malformed map" too.
    """
    try:
        if "preset" in d:
            return from_preset(d["preset"], d.get("params", {}), tol)
        grid = d["grid"]
        n, k = int(grid["n"]), int(d["k"])
        a, b = float(grid["a"]), float(grid["b"])
        tail = d["class"]
        jets = d["jets"]
    except KeyError as e:
        raise ValueError(f"malformed map: missing key {e}") from e
    except PreconditionError:
        raise
    except (TypeError, AttributeError, ValueError) as e:
        raise ValueError(f"malformed map: {e}") from e
    jets = _decode_jets(jets, n, k)
    try:
        return Diffeo1(tail, a, b, k, jets, tol=tol)
    except PreconditionError:
        raise
    except ValueError as e:
        raise ValueError(f"malformed map: {e}") from e
