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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 12  # coefficients stay comfortably inside 64-bit integers


@dataclass(frozen=True)
class Row:
    blocks: int              # order of the outer derivative factor
    parts: tuple[int, ...]   # inner derivative orders, ascending, sum = k
    coeff: int


@dataclass(frozen=True)
class CompositionTable:
    order: int
    rows: tuple[Row, ...]

    def coefficient_sum(self) -> int:
        return sum(r.coeff for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "rows": [
                {"blocks": r.blocks, "parts": list(r.parts), "coeff": r.coeff}
                for r in self.rows
            ],
            "coefficient_sum": self.coefficient_sum(),
        }


@lru_cache(maxsize=None)
def _rows_raw(k: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
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


def build_table(k: int) -> CompositionTable:
    """Coefficient table for the order-k derivative of a composition."""
    if not (1 <= k <= MAX_ORDER):
        raise ValueError(f"jet order must be in 1..{MAX_ORDER}, got {k}")
    return CompositionTable(order=k, rows=tuple(Row(*r) for r in _rows_raw(k)))


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


@dataclass(frozen=True)
class Jet:
    """Derivative values of orders 0..k of a map at a base point."""

    d: np.ndarray
    base: float

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))

    @property
    def order(self) -> int:
        return self.d.shape[-1] - 1

    def value(self) -> float:
        return float(self.d[0])


def identity_jet(x: float, k: int) -> Jet:
    d = np.zeros(k + 1)
    d[0] = x
    if k >= 1:
        d[1] = 1.0
    return Jet(d=d, base=float(x))


def compose_jets(f_jet: Jet, g_jet: Jet) -> Jet:
    """Jet of f o g at x from the jet of f at g(x) and the jet of g at x;
    the two base points must agree within 1e-9."""
    if f_jet.order != g_jet.order:
        raise ValueError("jet orders differ")
    if abs(f_jet.base - g_jet.value()) > 1e-9:
        raise ValueError(
            f"base mismatch: f at {f_jet.base}, g evaluates to {g_jet.value()}"
        )
    return Jet(d=compose_derivs(f_jet.d, g_jet.d), base=g_jet.base)


def invert_jet(f_jet: Jet) -> Jet:
    """Jet of the inverse map at f(x) from the jet of f at x."""
    d = invert_derivs(f_jet.d, f_jet.base)
    return Jet(d=d, base=float(f_jet.d[0]))
