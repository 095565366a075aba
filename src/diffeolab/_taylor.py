"""Truncated Taylor-coefficient arithmetic, vectorized over leading axes.

A "series" is an ndarray whose last axis holds coefficients c_0..c_K of
f(x0 + h) = sum c_j h^j.  All routines broadcast over the leading axes, so
one call handles a whole grid of expansion points.  Used wherever an
analytic formula must supply exact derivative jets (bump presets, plateau
fields, partition-of-unity weights, smooth blends).
"""

from __future__ import annotations

import math

import numpy as np

# below this, exp(-1/t) and all its derivatives are flush zero in float64
_FLAT_CUT = 1e-18


def factorials(k: int) -> np.ndarray:
    return np.array([math.factorial(j) for j in range(k + 1)], dtype=float)


def coeffs_to_derivs(c: np.ndarray) -> np.ndarray:
    """c_j -> f^(j) = j! c_j along the last axis."""
    return c * factorials(c.shape[-1] - 1)


def tconst(value, k: int, shape=()) -> np.ndarray:
    out = np.zeros(shape + (k + 1,))
    out[..., 0] = value
    return out


def tvar(value, k: int) -> np.ndarray:
    """Series of the identity coordinate at the points `value`."""
    value = np.asarray(value, dtype=float)
    out = np.zeros(value.shape + (k + 1,))
    out[..., 0] = value
    if k >= 1:
        out[..., 1] = 1.0
    return out


def tmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated to the common order."""
    k = a.shape[-1] - 1
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape)
    for n in range(k + 1):
        # sum_{j<=n} a_j b_{n-j}
        out[..., n] = np.einsum("...j,...j->...", a[..., : n + 1], b[..., n::-1])
    return out


def tdiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a/b as truncated series; b_0 must be nonzero."""
    k = a.shape[-1] - 1
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape)
    out[..., 0] = a[..., 0] / b[..., 0]
    for n in range(1, k + 1):
        acc = a[..., n].copy()
        acc -= np.einsum("...j,...j->...", out[..., :n], b[..., n:0:-1])
        out[..., n] = acc / b[..., 0]
    return out


def trecip(b: np.ndarray) -> np.ndarray:
    return tdiv(tconst(1.0, b.shape[-1] - 1, b.shape[:-1]), b)


def texp(a: np.ndarray) -> np.ndarray:
    """exp of a series: e' = a' e gives the usual recursion."""
    k = a.shape[-1] - 1
    out = np.zeros(a.shape)
    out[..., 0] = np.exp(a[..., 0])
    for n in range(1, k + 1):
        # e_n = (1/n) sum_{j=1..n} j a_j e_{n-j}
        j = np.arange(1, n + 1)
        out[..., n] = np.einsum("...j,...j->...", a[..., 1 : n + 1] * j, out[..., n - 1 :: -1][..., :n]) / n
    return out


def exp_well_series(t: np.ndarray, k: int) -> np.ndarray:
    """Series of S(t) = exp(-1/t) for t > 0, 0 for t <= 0, at the points t.

    The cut at _FLAT_CUT avoids inf*0 in the recursion; below it the value
    and every derivative are flush zero in float64 anyway.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (k + 1,))
    live = t > _FLAT_CUT
    if np.any(live):
        tt = tvar(t[live], k)
        out[live] = texp(tmul(tconst(-1.0, k, tt.shape[:-1]), trecip(tt)))
    return out


def smoothstep_series(t: np.ndarray, k: int) -> np.ndarray:
    """Series of the S-function smoothstep: 0 for t<=0, 1 for t>=1, else
    S(t)/(S(t)+S(1-t)).  Smooth and monotone on the line."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (k + 1,))
    out[..., 0] = np.where(t >= 1.0, 1.0, 0.0)
    mid = (t > _FLAT_CUT) & (t < 1.0 - _FLAT_CUT)
    if np.any(mid):
        tm = t[mid]
        up = exp_well_series(tm, k)
        # S(1 - t) at tm + h is S at (1 - tm) - h
        down = compose_affine(exp_well_series(1.0 - tm, k), -1.0)
        out[mid] = tdiv(up, up + down)
    return out


def compose_affine(c: np.ndarray, scale: float) -> np.ndarray:
    """Series of x -> f(a + scale*h) given the series of f at a."""
    k = c.shape[-1] - 1
    pw = scale ** np.arange(k + 1)
    return c * pw


def poly_jets(c, x, order: int) -> np.ndarray:
    """Derivatives 0..order of the polynomial sum c_i x^i at the points x,
    on a new last axis.  The coefficients sit on c's last axis; leading
    axes of c hold a batch of polynomials that broadcasts against x.  One
    Horner pass evaluates every order; each order takes the same steps as
    numpy's polyval of the polyder coefficients."""
    c = np.asarray(c, dtype=float)
    m = c.shape[-1]
    d = np.zeros(c.shape[:-1] + (order + 1, m))
    d[..., 0, :] = c
    for j in range(1, min(order, m - 1) + 1):
        d[..., j, :m - j] = (d[..., j - 1, 1:m - j + 1]
                             * np.arange(1, m - j + 1))
    x = np.asarray(x, dtype=float)[..., None]
    acc = np.zeros(np.broadcast_shapes(x.shape[:-1], c.shape[:-1])
                   + (order + 1,))
    for i in range(m - 1, -1, -1):
        acc = acc * x + d[..., i]
    return acc
