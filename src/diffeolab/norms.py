"""Norms, seminorms, and norm-inequality checks for one-dimensional maps.

Conventions: for a function phi, ``|phi|_k`` is the sup of the k-th
derivative alone, and ``|phi|_{k,alpha}`` is the concave-modulus Holder
seminorm of the k-th derivative.  Checks on a pair of maps f, g measure
the jets of their difference.  Displacements are used throughout, which
changes nothing for k >= 1 since constants drop out of seminorms and
derivative sups.  The distance between two maps is
``fixpoint.ck_distance``.

Holder seminorms are estimated from below: for each of a ladder of
dyadic separations between the sample step and the window width, the
sup over all aligned sample pairs is taken.  Estimates therefore never
exceed the true seminorm, and inequality checks allow a small
estimator slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ESTIMATOR_SLACK, EVAL_DENSITY
from .diffeo import Diffeo1, support_interval
from .errors import PreconditionError

_MAX_SAMPLES = 1 << 19


# -- sampling ----------------------------------------------------------------

def eval_window(f: Diffeo1) -> tuple[float, float]:
    """Interval on which sup norms and pair sups of f's displacement are
    computed; covers the grid plus a margin (periodic maps: two periods)."""
    if f.tail == "periodic":
        return (f.a, f.a + 2.0)
    margin = min(2.0, 0.25 * (f.b - f.a)) + 2.0 * f.h
    return (f.a - margin, f.b + margin)


def sample_grid(*maps: Diffeo1) -> np.ndarray:
    """Uniform samples of the union of the maps' eval_windows at the finest
    step h / EVAL_DENSITY among them, clamped to 16..2^19 points."""
    windows = [eval_window(m) for m in maps]
    lo = min(w[0] for w in windows)
    hi = max(w[1] for w in windows)
    step = min(m.h / EVAL_DENSITY for m in maps)
    count = int(np.ceil((hi - lo) / step)) + 1
    return np.linspace(lo, hi, min(max(count, 16), _MAX_SAMPLES))


# -- Holder estimator --------------------------------------------------------

def holder_seminorm_samples(vals: np.ndarray, step: float, alpha) -> float:
    """Lower estimate of [phi]_alpha from uniform samples of phi, over the
    dyadic strides 1, 2, 4, ... below the sample count, at most 23 of
    them, and the full span.  alpha is called once, on the array of
    stride lengths; a modulus evaluates an array elementwise, with the
    floats of one call per stride."""
    m = len(vals)
    if m < 2:
        return 0.0
    strides = []
    s = 1
    while s <= m - 1 and len(strides) < 23:
        strides.append(s)
        s *= 2
    if strides[-1] != m - 1:
        strides.append(m - 1)
    scales = alpha(np.array(strides) * step)
    best = 0.0
    diff = np.empty(m - 1, dtype=vals.dtype)    # one buffer for every stride
    for s, scale in zip(strides, scales):
        d = diff[:m - s]
        np.subtract(vals[s:], vals[:-s], out=d)
        gap = float(np.max(np.abs(d, out=d)))
        best = max(best, gap / float(scale))
    return best


def holder_norm(f: Diffeo1, alpha, k: int | None = None) -> float:
    """The seminorm [f^{(k)}]_alpha, estimated on a dense grid."""
    k = f.k if k is None else k
    xs = sample_grid(f)
    vals = f.displacement_jets(xs, k, k)[:, 0]
    return holder_seminorm_samples(vals, xs[1] - xs[0], alpha)


# -- reports -----------------------------------------------------------------

@dataclass(frozen=True)
class NormReport:
    k: int
    alpha_label: str
    window: tuple[float, float]
    samples: int
    sup_dev: tuple[float, ...]      # |f - Id|_i for i = 0..k
    holder_dev: tuple[float, ...]   # [f^{(i)} - delta_{i1}]_alpha for i = 1..k
    m_k: float
    memberships: dict
    refine_ratio: float             # top seminorm: full / half sampling

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "alpha": self.alpha_label,
            "window": list(self.window),
            "samples": self.samples,
            "sup_dev": list(self.sup_dev),
            "holder_dev": list(self.holder_dev),
            "M_k": self.m_k,
            "memberships": dict(self.memberships),
            "refine_ratio": self.refine_ratio,
        }


def norm_report(f: Diffeo1, alpha, k: int | None = None,
                balls: tuple = ()) -> NormReport:
    """Sup norms and Holder seminorms of the displacement of f.

    `balls` lists requested memberships as (kind, delta) with kind one of
    "C0", "Ck", "CkAlpha".
    """
    k = f.k if k is None else k
    if k > f.k:
        raise ValueError("requested order exceeds the model order")
    xs = sample_grid(f)
    jets = f.displacement_jets(xs, k)
    sup_dev = tuple(float(np.max(np.abs(jets[:, i]))) for i in range(k + 1))
    h = xs[1] - xs[0]
    holder_dev = tuple(holder_seminorm_samples(jets[:, i], h, alpha)
                       for i in range(1, k + 1))
    m_k = max(sup_dev[1:]) if k >= 1 else 0.0
    top_half = holder_seminorm_samples(jets[::2, k], 2 * h, alpha)
    top = holder_dev[-1] if holder_dev else 0.0
    ratio = top / top_half if top_half > 0 else 1.0
    memberships = {}
    for kind, delta in balls:
        if kind == "C0":
            value = sup_dev[0]
        elif kind == "Ck":
            value = sup_dev[k]
        elif kind == "CkAlpha":
            value = holder_dev[k - 1]
        else:
            raise ValueError(f"unknown ball kind {kind!r}")
        memberships[f"{kind}:{delta:g}"] = bool(value <= delta)
    label = getattr(alpha, "label", None) or type(alpha).__name__
    return NormReport(k, label, (float(xs[0]), float(xs[-1])), len(xs),
                      sup_dev, holder_dev, m_k, memberships, ratio)


# -- inequality checks -------------------------------------------------------

def _joint_support_window(f: Diffeo1, g: Diffeo1) -> tuple[float, float]:
    pieces = [support_interval(f), support_interval(g)]
    pieces = [p for p in pieces if p is not None]
    if not pieces:
        return (0.0, 1.0)
    return (min(p[0] for p in pieces), max(p[1] for p in pieces))


@dataclass(frozen=True)
class SlackReport:
    """Measured values of a norm inequality; every slack must be >= 0."""
    name: str
    constants: dict
    values: dict
    slacks: dict

    @property
    def ok(self) -> bool:
        return all(v >= 0.0 for v in self.slacks.values())

    def to_dict(self) -> dict:
        return {"name": self.name, "constants": dict(self.constants),
                "values": dict(self.values), "slacks": dict(self.slacks),
                "ok": self.ok}


def verify_domination(f: Diffeo1, g: Diffeo1, i: int, alpha) -> SlackReport:
    """Check that the order-i difference norms of two maps that agree far
    away are dominated by the order-(i+1) sup, with the explicit constants
    ell*alpha(1), ell, ell/alpha(ell) for ell = |J| + 2.

    For i = 0 the maps must agree at the ends of the joint support window.
    """
    if i + 1 > min(f.k, g.k):
        raise ValueError("need jets of order i+1")
    window = _joint_support_window(f, g)
    ell = (window[1] - window[0]) + 2.0
    if i == 0:
        edge = np.array(window)
        gap = float(np.max(np.abs(f(edge) - g(edge))))
        if gap > 1e-9:
            raise PreconditionError(
                f"order-0 domination needs equality on the window ends; "
                f"measured gap {gap:.3e}")
    xs = sample_grid(f, g)
    diff = f.jet_at(xs, i + 1) - g.jet_at(xs, i + 1)
    sup_i = float(np.max(np.abs(diff[:, i])))
    sup_ip1 = float(np.max(np.abs(diff[:, i + 1])))
    h = xs[1] - xs[0]
    sem_i = holder_seminorm_samples(diff[:, i], h, alpha)
    a1 = float(alpha(1.0))
    al = float(alpha(ell))
    slack = ESTIMATOR_SLACK
    return SlackReport(
        name=f"domination[i={i}]",
        constants={"ell": ell, "alpha(1)": a1, "alpha(ell)": al},
        values={"sup_i": sup_i, "sup_ip1": sup_ip1, "sem_i": sem_i},
        slacks={
            "sup_vs_sem": ell * a1 * sem_i * (1.0 + slack) - sup_i,
            "sup_vs_next": ell * sup_ip1 * (1.0 + slack) - sup_i,
            "sem_vs_next": (ell / al) * sup_ip1 * (1.0 + slack) - sem_i,
        })


def verify_derivation(f: Diffeo1, g: Diffeo1, alpha) -> SlackReport:
    """Check the product, multi-product (over phi, psi and phi + psi), and
    precomposition seminorm inequalities on the displacements of the
    given maps."""
    xs = sample_grid(f, g)
    h = xs[1] - xs[0]
    phi = f.displacement_jets(xs, 0)[:, 0]
    psi = g.displacement_jets(xs, 0)[:, 0]

    def sem(v):
        return holder_seminorm_samples(v, h, alpha)

    def sup(v):
        return float(np.max(np.abs(v)))

    slack = ESTIMATOR_SLACK
    lhs1 = sem(phi * psi)
    rhs1 = sem(phi) * sup(psi) + sup(phi) * sem(psi)

    flist = [phi, psi, phi + psi]
    prod = np.ones_like(xs)
    for v in flist:
        prod = prod * v
    m = len(flist)
    lhs2 = sem(prod)
    rhs2 = max(sup(v) for v in flist) ** (m - 1) * sum(sem(v) for v in flist)

    comp = f.displacement_jets(g(xs), 0)[:, 0]
    g1 = float(np.max(np.abs(g.jet_at(xs, 1)[:, 1])))
    lhs3 = sem(comp)
    rhs3 = sem(phi) * max(g1, 1.0)

    return SlackReport(
        name="derivation",
        constants={"m": m, "max(|g|_1,1)": max(g1, 1.0)},
        values={"product_lhs": lhs1, "product_rhs": rhs1,
                "multi_lhs": lhs2, "multi_rhs": rhs2,
                "precompose_lhs": lhs3, "precompose_rhs": rhs3},
        slacks={"product": rhs1 * (1.0 + slack) - lhs1,
                "multi": rhs2 * (1.0 + slack) - lhs2,
                "precompose": rhs3 * (1.0 + slack) - lhs3})


def verify_subadditivity(terms: list[Diffeo1], alpha) -> SlackReport:
    """[sum phi_i]_alpha <= sum [phi_i]_alpha on displacement samples."""
    if not terms:
        raise ValueError("need at least one term")
    xs = sample_grid(*terms)
    h = xs[1] - xs[0]
    vals = [t.displacement_jets(xs, 0)[:, 0] for t in terms]
    lhs = holder_seminorm_samples(np.sum(vals, axis=0), h, alpha)
    rhs = sum(holder_seminorm_samples(v, h, alpha) for v in vals)
    return SlackReport(
        name="subadditivity",
        constants={"terms": len(terms)},
        values={"lhs": lhs, "rhs": rhs},
        slacks={"subadditivity": rhs - lhs})


def verify_lip_met(f: Diffeo1, alpha) -> SlackReport:
    """Norm ladder on a compactly supported displacement: with
    K = |J| + alpha(|J|) + |J|/alpha(|J|), the order-k sup is at most
    K times the order-k seminorm, and both order-(k-1) quantities are
    at most K times the order-k sup."""
    supp = support_interval(f)
    if supp is None:
        jlen = 1.0
    else:
        jlen = max(supp[1] - supp[0], 1e-6)
    a_j = float(alpha(jlen))
    big_k = jlen + a_j + jlen / a_j
    xs = sample_grid(f)
    h = xs[1] - xs[0]
    k = f.k
    jets = f.displacement_jets(xs, k)
    sup_k = float(np.max(np.abs(jets[:, k])))
    sem_k = holder_seminorm_samples(jets[:, k], h, alpha)
    sup_km1 = float(np.max(np.abs(jets[:, k - 1])))
    sem_km1 = holder_seminorm_samples(jets[:, k - 1], h, alpha)
    slack = ESTIMATOR_SLACK
    return SlackReport(
        name="norm_ladder",
        constants={"K": big_k, "|J|": jlen},
        values={"sup_k": sup_k, "sem_k": sem_k,
                "sup_km1": sup_km1, "sem_km1": sem_km1},
        slacks={
            "sup_le_K_sem": big_k * sem_k * (1.0 + slack) - sup_k,
            "lower_sup_le_K_sup": big_k * sup_k * (1.0 + slack) - sup_km1,
            "lower_sem_le_K_sup": big_k * sup_k * (1.0 + slack) - sem_km1,
        })
