"""Shared builders and oracles for the test suite.

The polynomial oracles here work purely on coefficient arrays through
numpy's polynomial routines, so they share no code path with the
Faa di Bruno machinery they are used to check.
"""

import base64

import numpy as np
from numpy.polynomial import polynomial as P

from diffeolab import Diffeo1, diffeo, flow, from_preset
from diffeolab._taylor import poly_jets
from diffeolab.jets import compose_derivs, invert_derivs
from diffeolab.modulus import (TamenessSide, default_abscissae,
                               default_t_grid, holder, tameness_functional)


# Partition counts B_1..B_10, frozen from the classical recurrence
# B_{n+1} = sum_j C(n,j) B_j starting at B_0 = 1.
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203,
        7: 877, 8: 4140, 9: 21147, 10: 115975}


def poly_compose(cf, cg):
    """Coefficients of f(g(x)) by Horner accumulation over f's coefficients."""
    cc = np.zeros(1)
    for a in reversed(np.asarray(cf, dtype=float)):
        cc = P.polymul(cc, np.asarray(cg, dtype=float))
        if cc.size == 0:
            cc = np.zeros(1)
        cc[0] += a
    return cc


def poly_derivs(c, x, k):
    """Derivative values of orders 0..k of the polynomial with coefficients c."""
    c = np.asarray(c, dtype=float)
    out = np.empty(k + 1)
    for i in range(k + 1):
        out[i] = P.polyval(x, c) if c.size else 0.0
        c = P.polyder(c) if c.size > 1 else np.zeros(1)
    return out


def series_invert(a, k):
    """Coefficients b_1..b_k of the series inverse of sum a_j x^j (a_0 = 0),
    solved order by order against the composition oracle."""
    a = np.asarray(a, dtype=float)[:k + 1]
    if abs(a[0]) > 0:
        raise ValueError("inversion oracle expects a_0 = 0")
    b = np.zeros(k + 1)
    b[1] = 1.0 / a[1]
    for n in range(2, k + 1):
        got = poly_compose(a, b)
        got = got[n] if got.size > n else 0.0
        # adding b_n changes the order-n composed coefficient by a_1 * b_n
        b[n] = -got / a[1]
    return b


def small_bump(eps, center=0.0, radius=1.0, k=2, n=513):
    return from_preset("smooth_bump_displacement",
                       {"eps": eps, "center": center, "radius": radius,
                        "k": k, "n": n})


def small_periodic(rng, k=2, eps=1e-4, n=257):
    """Two-harmonic periodic displacement with randomized amplitudes and
    phases, small enough for every operator under test."""
    xs = np.linspace(0.0, 1.0, n)
    w = 2.0 * np.pi
    a1 = rng.uniform(0.4, 1.0)
    a2 = 0.25 * rng.uniform(0.4, 1.0)
    p1 = rng.uniform(0.0, 2.0 * np.pi)
    p2 = rng.uniform(0.0, 2.0 * np.pi)
    jets = np.zeros((n, k + 1))
    for j in range(k + 1):
        jets[:, j] = eps * (a1 * w ** j * np.sin(w * xs + p1 + j * np.pi / 2)
                            + a2 * (2 * w) ** j
                            * np.sin(2 * w * xs + p2 + j * np.pi / 2))
    return Diffeo1("periodic", 0.0, 1.0, k, jets)


def c0_gap(f, g, lo, hi, n=2001):
    xs = np.linspace(lo, hi, n)
    return float(np.max(np.abs(f(xs) - g(xs))))


def count_solve_steps(monkeypatch):
    """Wrap the shared Newton loop so that every solve appends the number
    of steps it took (calls of its jet1) to the returned list."""
    steps = []
    solve = diffeo._solve_increasing

    def counted(jet1, *args):
        calls = [0]

        def jet1_counted(x):
            calls[0] += 1
            return jet1(x)

        x = solve(jet1_counted, *args)
        steps.append(calls[0])
        return x

    monkeypatch.setattr(diffeo, "_solve_increasing", counted)
    monkeypatch.setattr(flow, "_solve_increasing", counted)
    return steps


def map_jets(m):
    """The (n, k+1) jet array of a serialized map (the `to_dict` form, as
    stored in a chain), decoded from its base64 float64 text as a writable
    copy."""
    raw = base64.b64decode(m["jets"], validate=True)
    return np.frombuffer(raw, "<f8").reshape(m["grid"]["n"], m["k"] + 1).copy()


def put_map_jets(m, jets):
    """Store the jet array `jets` back into the serialized map m."""
    m["jets"] = base64.b64encode(
        np.asarray(jets, dtype="<f8").tobytes()).decode("ascii")


def raise_map_order(m):
    """Store the serialized map m at order k + 1, its new jets all zero."""
    jets = map_jets(m)
    put_map_jets(m, np.hstack([jets, np.zeros((len(jets), 1))]))
    m["k"] += 1


# -- the per-order Hermite tables, a reference for diffeo._horner --------------

def hermite_tables(jets, h):
    """Coefficient tables of the interpolant of grid jets (n, k+1) and of
    its derivatives 1..k in the local coordinate t, one (coefficients,
    cells) table per order: table j is table j-1 without its row 0, row i
    times i+1."""
    dc = [diffeo._hermite_coeffs(jets[:-1], jets[1:], h)]
    for _ in range(jets.shape[1] - 1):
        prev = dc[-1]
        dc.append(prev[1:] * np.arange(1, prev.shape[0])[:, None])
    return dc


def horner_per_order(dc, idx, t, h, order, lowest=0):
    """Derivatives lowest..order at local coordinates t in cells idx, by
    Horner's rule on each order's own table, its rows gathered one at a
    time."""
    out = np.empty(np.shape(t) + (order - lowest + 1,), dtype=dc[0].dtype)
    for j in range(lowest, order + 1):
        rows = dc[j]
        acc = rows[-1].take(idx)
        for i in range(rows.shape[0] - 2, -1, -1):
            acc *= t
            acc += rows[i].take(idx)
        out[..., j - lowest] = acc / h ** j
    return out


def every_sample_jets(f, xs, order, lowest=0):
    """f.displacement_jets(xs, order, lowest) with every point evaluated:
    the tail fold, one Horner pass on the map's table at all the folded
    points, and +0.0 where the map is the identity."""
    if f._dc is None:
        f.displacement_jets(np.zeros(0), 0)     # builds f's table
    xf, ident = f._fold(np.asarray(xs, dtype=float))
    out = diffeo._hermite_eval(f._dc, xf, f.a, f.h, order, lowest)
    out[ident] = 0.0
    return out

# -- loop references for the vectorized verify battery ------------------------

def oscillation_per_stride(xs, fs):
    """oscillation_modulus one stride at a time, on sorted samples."""
    order = np.argsort(xs)
    xs, fs = xs[order], fs[order]
    n = xs.shape[0]
    ts, gaps = np.empty(n - 1), np.empty(n - 1)
    for s in range(1, n):
        ts[s - 1] = np.max(xs[s:] - xs[:-s])
        gaps[s - 1] = np.max(np.abs(fs[s:] - fs[:-s]))
    return ts, np.maximum.accumulate(gaps)


def _edge_attained(vals):
    n = vals.shape[0]
    top = int(np.argmax(vals))
    eps = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    if top == 0 and vals[0] > vals[1] + eps:
        return True
    if top == n - 1 and vals[-1] > vals[-2] + eps:
        return True
    return False


def classify_side_per_t(alpha, t_grid, x_grid, side, margin):
    """One side of the tameness classifier one t at a time: a fresh row of
    ratios, its sup and its edge test for each t."""
    best_t, best_margin = None, 0.0
    for t in t_grid:
        vals = tameness_functional(alpha, float(t), x_grid, side)
        if not np.all(np.isfinite(vals)):
            continue
        sup = float(np.max(vals))
        if sup <= 1.0 - margin and not _edge_attained(vals):
            if 1.0 - sup > best_margin:
                best_t, best_margin = float(t), 1.0 - sup
    if best_t is None:
        return TamenessSide(yes=False)
    return TamenessSide(yes=True, t0=best_t, margin=best_margin)


def tameness_rows_per_t():
    """The emit-plots tameness table one (s, t, side) at a time."""
    ts = np.geomspace(1e-4, 0.9, 33)
    xg = default_abscissae()
    rows = []
    for s in (0.25, 0.5, 0.75):
        a = holder(s)
        for t in ts:
            sup = float(np.max(tameness_functional(a, float(t), xg, "sup")))
            sub = float(np.max(tameness_functional(a, float(t), xg, "sub")))
            rows.append([s, float(t), sup, sub])
    return rows


def suite_jets_per_trial(rng, tol):
    """The verify battery's jets suite one trial at a time."""
    worst = 0.0
    for _ in range(60):
        k = int(rng.integers(2, 7))
        cf = rng.uniform(-1.0, 1.0, k + 1)
        cg = rng.uniform(-1.0, 1.0, k + 1)
        x0 = float(rng.uniform(-0.5, 0.5))
        gx = float(P.polyval(x0, cg))
        comp = compose_derivs(poly_jets(cf, gx, k), poly_jets(cg, x0, k))
        cc = np.zeros(1)
        for a in reversed(cf):
            cc = P.polymul(cc, cg)
            cc[0] += a
        oracle = poly_jets(cc, x0, k)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        worst = max(worst, float(np.max(np.abs(comp - oracle))) / scale)
    for _ in range(60):
        k = int(rng.integers(2, 7))
        d = rng.uniform(-0.5, 0.5, k + 1)
        d[1] = float(rng.uniform(0.8, 1.5))
        di = invert_derivs(d, 0.0)
        back = compose_derivs(di, d)
        expected = np.zeros(k + 1)
        expected[1] = 1.0
        worst = max(worst, float(np.max(np.abs(back - expected))))
    return {"ok": worst <= 1e-9, "worst_rel_error": worst}
