"""Exact finite-order derivative calculus.

Composition of derivative jets by the higher-order chain rule and
inverse-function jets by the triangular recursion.  Coefficient tables are
generated once by symbolic differentiation over exact integers and cached;
only jet values are floating point.

A term of the order-k chain rule is (f^(i) o g) * prod_t g^(j_t) with the
part sizes j_1 <= ... <= j_i summing to k.  The two extreme terms are
(i=k, parts (1,..,1)) and (i=1, parts (k,)); everything in between is the
"interior" set with 1 < i < k.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_ORDER = 12  # coefficients stay comfortably inside 64-bit integers


@lru_cache(maxsize=None)
def _rows_raw(k: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Terms (blocks, parts, coeff) of the order-k derivative of f o g:
    blocks is the order of the outer derivative factor, parts the inner
    derivative orders (ascending, summing to k), coeff the integer count."""
    if k == 1:
        return ((1, (1,), 1),)
    acc: dict[tuple[int, tuple[int, ...]], int] = {}
    for blocks, parts, coeff in _rows_raw(k - 1):
        # d/dx of (f^(i) o g): bumps the outer order and appends a g' factor
        key = (blocks + 1, tuple(sorted(parts + (1,))))
        acc[key] = acc.get(key, 0) + coeff
        # d/dx of each inner factor g^(j_t)
        for t in range(len(parts)):
            bumped = list(parts)
            bumped[t] += 1
            key = (blocks, tuple(sorted(bumped)))
            acc[key] = acc.get(key, 0) + coeff
    return tuple((b, p, c) for (b, p), c in sorted(acc.items()))


def compose_derivs(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Derivatives 0..k of f o g from those of f (at g(x)) and g (at x).

    F and G have the derivative orders on the last axis and broadcast over
    the leading axes.
    """
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    k = F.shape[-1] - 1
    if G.shape[-1] - 1 != k:
        raise ValueError("jet orders differ")
    if F.shape != G.shape:
        F, G = np.broadcast_arrays(F, G)
    out = np.zeros(F.shape)
    out[..., 0] = F[..., 0]
    for m in range(1, k + 1):
        total = np.zeros(F.shape[:-1])
        for blocks, parts, coeff in _rows_raw(m):
            term = coeff * F[..., blocks]
            for j in parts:
                term = term * G[..., j]
            total += term
        out[..., m] = total
    return out


def invert_derivs(F: np.ndarray, base) -> np.ndarray:
    """Derivatives 0..k of the inverse map at f(x), given those of f at x.

    Uses (f^-1)' = 1/(f' o f^-1) and, for each higher order, minus the sum
    of the interior chain-rule terms with one extra first-derivative factor,
    all divided through by the leading coefficient.
    """
    F = np.asarray(F, dtype=float)
    k = F.shape[-1] - 1
    base = np.broadcast_to(np.asarray(base, dtype=float), F.shape[:-1])
    if np.any(F[..., 1] <= 0.0):
        raise ValueError("inverse jet needs a positive first derivative")
    H = np.zeros(F.shape)
    H[..., 0] = base
    H[..., 1] = 1.0 / F[..., 1]
    for m in range(2, k + 1):
        acc = -F[..., m] * H[..., 1] ** (m + 1)
        for blocks, parts, coeff in _rows_raw(m):
            if not (1 < blocks < m):
                continue
            term = coeff * F[..., blocks] * H[..., 1]
            for j in parts:
                term = term * H[..., j]
            acc -= term
        H[..., m] = acc
    return H
