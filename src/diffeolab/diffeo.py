"""One-dimensional diffeomorphisms stored through displacement jets.

A map f is kept as its displacement u = f - Id, sampled with derivatives
0..k on a uniform grid and interpolated between nodes by the two-point
Hermite polynomial of order 2k+1, so the model is C^k globally.  Tail
classes fix the behaviour outside the grid: compactly supported maps are
the identity there, periodic maps commute with the unit translation, and
eventually-periodic maps are the identity on the left and 1-periodic on
the right, with the final unit window of the grid holding the repeating
profile.

Group operations (composition, inversion) re-sample the exact jet
propagation of the operands onto a fresh grid, doubling the node count
until the midpoint interpolation residual is small.
"""

from __future__ import annotations

import math

import numpy as np

from . import _taylor
from .config import DEFAULT_TOL, EVAL_DENSITY, Tolerances
from .errors import ConstructionError, PreconditionError
from .jets import MAX_ORDER, compose_derivs, invert_derivs

TAILS = ("compact", "periodic", "ep")

# extra slack, in units of the interpolation residual, allowed when checking
# structural tail identities on re-sampled objects
_FOLD_SLACK = 10.0


def _hermite_coeffs(jets: np.ndarray, h: float) -> np.ndarray:
    """Monomial coefficients, per interval, of the order-2k+1 interpolant.

    jets has shape (n, k+1) with derivative order on the last axis; the
    result has shape (2k+2, n-1), laid out (coefficients, cells): row i
    holds the coefficient of t^i in every cell, where t is the local
    coordinate (x - x_left)/h.
    """
    n, kp1 = jets.shape
    k = kp1 - 1
    fact = _taylor.factorials(k)[:, None]
    hp = h ** np.arange(k + 1)
    d0 = (jets[:-1] * hp).T
    d1 = (jets[1:] * hp).T
    c = np.zeros((2 * k + 2, n - 1))
    c[: k + 1] = d0 / fact

    # derivatives at t=1 of the left Taylor part
    falling = np.zeros((2 * k + 2, k + 1))
    for i in range(2 * k + 2):
        for j in range(min(i, k) + 1):
            falling[i, j] = math.factorial(i) / math.factorial(i - j)
    taylor_end = np.zeros((k + 1, n - 1))
    for j in range(k + 1):
        acc = np.zeros(n - 1)
        for i in range(j, k + 1):
            acc += c[i] * falling[i, j]
        taylor_end[j] = acc

    need = d1 - taylor_end
    # correction sum_m q_m t^{k+1} (t-1)^m, solved triangularly at t=1
    q = np.zeros((k + 1, n - 1))
    for j in range(k + 1):
        acc = need[j].copy()
        for m in range(j):
            w = math.comb(j, m) * math.factorial(m) \
                * math.factorial(k + 1) // math.factorial(k + 1 - (j - m))
            acc -= w * q[m]
        q[j] = acc / math.factorial(j)
    for m in range(k + 1):
        for s in range(m + 1):
            c[k + 1 + s] += q[m] * math.comb(m, s) * (-1.0) ** (m - s)
    return c


def _hermite_tables(jets: np.ndarray, h: float) -> list[np.ndarray]:
    """Monomial coefficients of the interpolant and of its derivatives
    1..k in the local coordinate t, for _hermite_eval: one (coefficients,
    cells) table per derivative order, as laid out by _hermite_coeffs."""
    dc = [_hermite_coeffs(jets, h)]
    for _ in range(jets.shape[1] - 1):
        prev = dc[-1]
        dc.append(prev[1:] * np.arange(1, prev.shape[0])[:, None])
    return dc


def _hermite_eval(dc: list[np.ndarray], xf: np.ndarray, lo: float, h: float,
                  order: int) -> np.ndarray:
    """Derivatives 0..order of the interpolant on the grid lo + h*i at
    points xf already folded into the grid, by Horner's rule on the
    coefficient rows gathered at each point's cell."""
    pos = (xf - lo) / h
    idx = np.minimum(np.maximum(pos.astype(int), 0), dc[0].shape[1] - 1)
    t = pos - idx
    out = np.empty(xf.shape + (order + 1,))
    for j in range(order + 1):
        rows = dc[j]
        acc = rows[-1].take(idx)
        for i in range(rows.shape[0] - 2, -1, -1):
            acc *= t
            acc += rows[i].take(idx)
        out[..., j] = acc / h ** j
    return out


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
        self._dc: list[np.ndarray] | None = None

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
            xf = self.a + np.mod(x - self.a, 1.0)
        else:
            ident = x <= self.a
            xf = np.where(x > self.b,
                          (self.b - 1.0) + np.mod(x - (self.b - 1.0), 1.0),
                          x)
            xf = np.minimum(np.maximum(xf, self.a), self.b)
        return xf, ident

    def displacement_jets(self, x, order: int | None = None) -> np.ndarray:
        """Derivatives 0..order of the displacement, vectorized over x."""
        if order is None:
            order = self.k
        if order > self.k:
            raise ValueError("requested order exceeds the model order")
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        xf, ident = self._fold(x)
        if self._dc is None:
            self._dc = _hermite_tables(self.jets, self.h)
        out = _hermite_eval(self._dc, xf, self.a, self.h, order)
        out[ident] = 0.0
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

    def deriv(self, x, j: int) -> np.ndarray:
        out = self.displacement_jets(x, j)[..., j]
        if j == 0:
            out = out + np.asarray(x, dtype=float)
        elif j == 1:
            out = out + 1.0
        return out

    # -- structural queries ----------------------------------------------

    def core_sup(self) -> float:
        """Right end of the non-periodic part of the grid."""
        if self.tail == "ep":
            return self.b - 1.0
        return self.b

    def displacement_bounds(self) -> tuple[float, float]:
        u = self.jets[:, 0]
        return float(u.min()), float(u.max())

    def inverse_values(self, y, xtol: float | None = None) -> np.ndarray:
        """Solve f(x) = y pointwise by safeguarded Newton iteration."""
        tolx = 1e-12 if xtol is None else xtol
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y).astype(float)
        umin, umax = self.displacement_bounds()
        pad = 1e-6 + 0.1 * (umax - umin)
        lo = y - umax - pad
        hi = y - umin + pad
        for _ in range(60):
            bad_lo = self(lo) > y
            bad_hi = self(hi) < y
            if not (bad_lo.any() or bad_hi.any()):
                break
            pad *= 2.0
            lo = np.where(bad_lo, y - umax - pad, lo)
            hi = np.where(bad_hi, y - umin + pad, hi)
        else:
            raise ConstructionError("could not bracket the inverse")
        x = np.clip(y - self.displacement_jets(y, 0)[..., 0], lo, hi)
        for _ in range(80):
            jet = self.jet_at(x, 1)
            fx = jet[..., 0] - y
            neg = fx < 0.0
            lo = np.where(neg, x, lo)
            hi = np.where(neg, hi, x)
            step = fx / np.maximum(jet[..., 1], 1e-14)
            xn = x - step
            outside = (xn <= lo) | (xn >= hi) | ~np.isfinite(xn)
            xn = np.where(outside, 0.5 * (lo + hi), xn)
            moved = np.max(np.abs(xn - x))
            x = xn
            if moved <= tolx:
                break
        # two polish sweeps accepted on residual decrease: stopping on step
        # size alone leaves per-node errors ~xtol whose node-to-node
        # roughness the Hermite cells amplify by 1/h^2 in the top jet
        for _ in range(2):
            jet = self.jet_at(x, 1)
            fx = jet[..., 0] - y
            step = fx / np.maximum(jet[..., 1], 1e-14)
            xn = x - step
            xn = np.where(np.isfinite(xn), xn, x)
            fxn = self(xn) - y
            x = np.where(np.abs(fxn) <= np.abs(fx), xn, x)
        resid = float(np.max(np.abs(self(x) - y)))
        if resid > 1e-8:
            raise ConstructionError(
                f"inverse solve stalled with residual {resid:.3e}")
        if scalar:
            return x[0]
        return x


# -- constructors ---------------------------------------------------------

def identity(k: int, lo: float = -1.0, hi: float = 1.0) -> Diffeo1:
    return Diffeo1("compact", lo, hi, k, np.zeros((2, k + 1)))


def translation(c: float, k: int) -> Diffeo1:
    """The map x + c, modelled as a periodic displacement."""
    jets = np.zeros((2, k + 1))
    jets[:, 0] = c
    return Diffeo1("periodic", 0.0, 1.0, k, jets)


def refined_grid(f: Diffeo1, density: int) -> np.ndarray:
    """Uniform sample of f's grid, `density` points per node spacing."""
    m = int(math.ceil((f.b - f.a) / f.h)) * density + 1
    return np.linspace(f.a, f.b, m)


def _displacement_fn_compose(f: Diffeo1, g: Diffeo1):
    k = f.k

    def fn(xs: np.ndarray) -> np.ndarray:
        gj = g.jet_at(xs, k)
        fj = f.jet_at(gj[..., 0], k)
        out = compose_derivs(fj, gj)
        out[..., 0] -= xs
        out[..., 1] -= 1.0
        return out

    return fn


def _build_adaptive(tail: str, lo: float, hi: float, k: int, fn,
                    n0: int, tol: Tolerances) -> Diffeo1:
    """Sample displacement jets from fn on ever finer grids until the
    midpoint residual of the interpolant is below tolerance.  Sampled jets
    the constructor rejects, such as a broken tail law, are a failed
    construction, not bad input."""
    n = max(int(n0), 2)
    n = min(n, tol.max_nodes)
    while True:
        xs = np.linspace(lo, hi, n)
        jets = fn(xs)
        try:
            obj = Diffeo1(tail, lo, hi, k, jets, tol=tol)
        except PreconditionError:
            raise
        except ValueError as e:
            raise ConstructionError(str(e)) from e
        mids = 0.5 * (xs[:-1] + xs[1:])
        direct = fn(mids)[..., 0]
        resid = float(np.max(np.abs(obj.displacement_jets(mids, 0)[..., 0]
                                    - direct)))
        if resid <= tol.interp_residual or 2 * n - 1 > tol.max_nodes:
            return obj
        n = 2 * n - 1


def compose(f: Diffeo1, g: Diffeo1, tol: Tolerances | None = None) -> Diffeo1:
    """The map f o g, re-sampled onto a grid fixed by the tail algebra."""
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
    elif "periodic" in pair:
        raise ValueError(f"incompatible tail classes {pair}")
    else:
        tail = "ep"
        lo = min(f.a, g.a)
        umin_g, _ = g.displacement_bounds()
        hi_core = max(g.core_sup(), f.core_sup() + max(0.0, -umin_g))
        hi = hi_core + 1.0
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
    """The inverse map, with node abscissae solved to tight tolerance."""
    tol = tol or DEFAULT_TOL
    if f.tail == "compact":
        lo, hi = f.a, f.b
    elif f.tail == "periodic":
        lo, hi = f.a, f.a + 1.0
    else:
        cs = f.core_sup()
        lo = f.a
        hi = float(cs + f.displacement_jets(np.array([cs]), 0)[0, 0]) + 1.0

    def fn(ys: np.ndarray) -> np.ndarray:
        xs = f.inverse_values(ys, tol.invert_abscissa)
        fj = f.jet_at(xs, f.k)
        out = invert_derivs(fj, xs)
        out[..., 0] -= ys
        out[..., 1] -= 1.0
        return out

    return _build_adaptive(f.tail, lo, hi, f.k, fn, f.n, tol)


def support_interval(f: Diffeo1, slack: float = 1e-10):
    """Smallest closed interval outside which the tail law already holds
    at grid resolution, or None for maps with no such interval (periodic
    maps, and the identity)."""
    if f.tail == "periodic":
        return None
    active = np.any(np.abs(f.jets) > slack, axis=1)
    if not active.any():
        return None
    nodes = f.nodes
    lo = float(nodes[int(np.argmax(active))])
    if f.tail == "compact":
        hi = float(nodes[f.n - 1 - int(np.argmax(active[::-1]))])
        return (lo, hi)
    sel = nodes <= f.b - 1.0 + 1e-12
    xs = nodes[sel]
    here = f.jets[sel]
    there = f.displacement_jets(xs + 1.0)
    ok = np.max(np.abs(here - there), axis=1) <= max(slack, 1e-9)
    idx = len(ok)
    while idx > 0 and ok[idx - 1]:
        idx -= 1
    hi = float(xs[idx]) if idx < len(xs) else f.core_sup()
    return (lo, max(lo, hi))


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
    if name == "scaled_family":
        inner_spec = params["inner"]
        scale = float(params["scale"])
        inner = from_preset(inner_spec["preset"],
                            inner_spec.get("params", {}), tol)
        return rescale_displacement(inner, scale)
    raise ValueError(f"unknown preset {name!r}")


# -- serialization ----------------------------------------------------------

def to_dict(f: Diffeo1) -> dict:
    return {
        "class": f.tail,
        "grid": {"a": f.a, "b": f.b, "n": f.n},
        "k": f.k,
        "jets": f.jets.tolist(),
    }


def from_dict(d: dict, tol: Tolerances | None = None) -> Diffeo1:
    """Rebuild a map from to_dict output, or from {"preset", "params"}.  A
    missing key or a value of the wrong type is a ValueError."""
    try:
        if "preset" in d:
            return from_preset(d["preset"], d.get("params", {}), tol)
        grid = d["grid"]
        jets = np.asarray(d["jets"], dtype=float)
        n, k = int(grid["n"]), int(d["k"])
        a, b = float(grid["a"]), float(grid["b"])
        tail = d["class"]
    except KeyError as e:
        raise ValueError(f"malformed map: missing key {e}") from e
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed map: {e}") from e
    if jets.shape != (n, k + 1):
        raise ValueError("jet array shape disagrees with grid/order fields")
    return Diffeo1(tail, a, b, k, jets, tol=tol)


# -- fragmentation -----------------------------------------------------------

def _partition_series(xs: np.ndarray, cover: list[tuple[float, float]],
                      k: int) -> list[np.ndarray]:
    """Taylor coefficients at xs of a partition of unity subordinate to the
    cover, built from smoothed steps; valid where the cover has depth."""
    bumps = []
    for (l, r) in cover:
        w = (r - l) / 4.0
        tl = (xs - l) / w
        tr = (r - xs) / w
        sl = _taylor.compose_affine(_taylor.smoothstep_series(tl, k), 1.0 / w)
        sr = _taylor.compose_affine(_taylor.smoothstep_series(tr, k), -1.0 / w)
        bumps.append(_taylor.tmul(sl, sr))
    total = np.sum(bumps, axis=0)
    covered = total[:, 0] > 1e-12
    parts = []
    for psi in bumps:
        phi = np.zeros_like(psi)
        if covered.any():
            phi[covered] = _taylor.tdiv(psi[covered], total[covered])
        parts.append(phi)
    return parts


def fragment(g: Diffeo1, cover: list[tuple[float, float]],
             tol: Tolerances | None = None) -> list[Diffeo1]:
    """Split g into a composition of maps, each supported in one cover
    element: the returned list composes left-to-right back to g.

    Refuses (PreconditionError) when the measured C^1 size of g is not
    below 1/(2K), K = 2 + sum of the partition derivative sups, and fails
    (ConstructionError) when the product misses g by more than 1e-8.
    """
    tol = tol or DEFAULT_TOL
    if g.tail != "compact":
        raise ValueError("fragmentation expects a compactly supported map")
    cover = sorted([(float(l), float(r)) for (l, r) in cover])
    if not cover:
        raise ValueError("empty cover")
    for (l, r) in cover:
        if not r > l:
            raise ValueError("cover elements must be nonempty open intervals")

    supp = support_interval(g, slack=tol.node_zero)
    if supp is None:
        return []
    lo_s, hi_s = supp
    reach = cover[0][1]
    if cover[0][0] >= lo_s:
        raise PreconditionError("cover does not reach left of the support")
    for (l, r) in cover[1:]:
        if l >= reach and l < hi_s:
            raise PreconditionError(f"cover gap at {l:.6g}")
        reach = max(reach, r)
    if reach <= hi_s:
        raise PreconditionError("cover does not reach right of the support")

    xs = g.nodes
    parts = _partition_series(xs, cover, g.k)

    dense = refined_grid(g, EVAL_DENSITY)
    parts_dense = _partition_series(dense, cover, g.k)
    phi_slopes = [float(np.max(np.abs(p[:, 1]))) for p in parts_dense]
    big_k = 2.0 + sum(phi_slopes)
    uj = g.displacement_jets(dense, 1)
    eps = max(float(np.max(np.abs(uj[:, 0]))), float(np.max(np.abs(uj[:, 1]))))
    if not eps < 0.5 / big_k:
        raise PreconditionError(
            f"fragmentation refused: C^1 size {eps:.3e} is not below "
            f"1/(2K) = {0.5 / big_k:.3e} (K = {big_k:.3f})")

    u_coeffs = _taylor.derivs_to_coeffs(np.array(g.jets))
    stages = [identity(g.k, g.a, g.b)]
    running = np.zeros_like(parts[0])
    for phi in parts:
        running = running + phi
        disp = _taylor.coeffs_to_derivs(_taylor.tmul(running, u_coeffs))
        stages.append(Diffeo1("compact", g.a, g.b, g.k, disp, tol=tol))

    pieces = []
    for j in range(1, len(stages)):
        if j == 1:
            piece = stages[1]
        else:
            piece = compose(inverse(stages[j - 1], tol), stages[j], tol)
        pieces.append(piece)
        got = support_interval(piece, slack=1e-9)
        l, r = cover[j - 1]
        cell = piece.h
        if got is not None and (got[0] < l - cell or got[1] > r + cell):
            raise ConstructionError(
                f"fragment {j} leaks outside its cover element")

    recon = compose_all(pieces, tol)
    probe = refined_grid(g, 4)
    err = float(np.max(np.abs(recon(probe) - g(probe))))
    if err > 1e-8:
        raise ConstructionError(
            f"fragment product misses the original by {err:.3e}")
    return pieces
