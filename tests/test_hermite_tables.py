"""How the Hermite coefficient tables are built, and how few are built.

`_hermite_coeffs` runs on whole (orders, cells) blocks with constants from
a per-order plan; the oracle below is the plain loop over single orders it
replaced, and the two must agree bit for bit, signed zeros included, in
float64 and in long double.  An inverse solve reads the map's one float64
table: its roots must not depend on how the points are grouped, and must
lie within one ulp of a long-double root computed here.  The guard tests
record how many tables and dense sup passes one norm reduction builds,
that no table is built in another dtype, and check its output against the
path that still made the bitwise copies.

A map keeps only the order-0 table; `_horner` derives the rows of the
higher orders at evaluation.  Its reference is the list of per-order
tables with a Horner pass per order (`_helpers.hermite_tables`,
`_helpers.horner_per_order`), and the two must agree bit for bit.
"""

import math

import numpy as np
import pytest

from diffeolab import (
    PsiResult,
    holder,
    holder_norm,
    inverse,
    isotopy_step,
    make_config,
    post_translate,
    reduce_norm,
    refined_grid,
    roll_up,
    spread_once,
    support_interval,
    sweep_profile,
    translate_conjugate,
)
from diffeolab import _taylor, diffeo, flow, reduction
from diffeolab.config import DEFAULT_TOL, EVAL_DENSITY
from diffeolab.diffeo import _hermite_coeffs
from diffeolab.jets import MAX_ORDER
from _helpers import (hermite_tables, horner_per_order, small_bump,
                      small_periodic)

ALPHA = holder(0.5)


def _loop_hermite_coeffs(j0, j1, h):
    """The kernel as a loop over single orders, constants recomputed on
    every call: the reference for the block kernel."""
    cells, kp1 = j0.shape
    k = kp1 - 1
    fact = _taylor.factorials(k)[:, None]
    hp = h ** np.arange(k + 1)
    d0 = (j0 * hp).T
    d1 = (j1 * hp).T
    c = np.zeros((2 * k + 2, cells), dtype=j0.dtype)
    c[: k + 1] = d0 / fact

    falling = np.zeros((2 * k + 2, k + 1))
    for i in range(2 * k + 2):
        for j in range(min(i, k) + 1):
            falling[i, j] = math.factorial(i) / math.factorial(i - j)
    taylor_end = np.zeros((k + 1, cells), dtype=j0.dtype)
    for j in range(k + 1):
        acc = np.zeros(cells, dtype=j0.dtype)
        for i in range(j, k + 1):
            acc += c[i] * falling[i, j]
        taylor_end[j] = acc

    need = d1 - taylor_end
    q = np.zeros((k + 1, cells), dtype=j0.dtype)
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


def _same(a, b):
    """Equal by value and by sign, NaN matching NaN.  Long doubles are not
    compared by their bytes: the padding bytes of each element differ."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _jets(rng, cells, k, zero):
    """Cell-end jets spread over many magnitudes, with signed zeros, huge
    values of both signs and a subnormal planted among them."""
    j = rng.standard_normal((cells, k + 1)) \
        * 10.0 ** rng.integers(-9, 4, (cells, k + 1))
    j[rng.random(j.shape) < 0.25] = zero
    special = [0.0, -0.0, 1e300, -1e300, 5e-324, -2.5e-320]
    j.flat[:len(special)] = special[:j.size]
    return j


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("k", range(1, 13))
def test_block_kernel_matches_the_loop_bit_for_bit(k, dtype):
    rng = np.random.default_rng(k)
    for cells in (1, 2, 513):
        j0 = _jets(rng, cells, k, -0.0).astype(dtype)
        j1 = _jets(rng, cells, k, 0.0).astype(dtype)
        for h in (1.0 / 512.0, 0.37, 3.0):
            with np.errstate(over="ignore", invalid="ignore"):
                want = _loop_hermite_coeffs(j0, j1, h)
                got = _hermite_coeffs(j0, j1, h)
            assert _same(got, want), (cells, h)


# -- one table per map: the derivative rows are derived at evaluation ----------

def _bit_equal(a, b):
    """Bitwise equality: float64 as int64 views, long doubles by value and
    sign (_same), since their padding bytes are not part of the value."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == np.longdouble:
        return _same(a, b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def _point_shapes(cells):
    """0-d, 1-d and 2-d point sets with fewer points than cells, as many,
    and more."""
    return [(), (cells - 1,), (cells,), (cells + 7,),
            (2, cells // 2 - 1), (2, cells // 2), (3, cells)]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("k", range(1, MAX_ORDER + 1))
def test_kernel_matches_the_per_order_tables_bit_for_bit(k, dtype):
    rng = np.random.default_rng(100 + k)
    cells, h = 12, 0.37
    # magnitudes 1e-9..1e3 with signed zeros and subnormals, no overflow
    jets = rng.standard_normal((cells + 1, k + 1)) \
        * 10.0 ** rng.integers(-9, 4, (cells + 1, k + 1))
    jets[rng.random(jets.shape) < 0.25] = -0.0
    jets.flat[:3] = [0.0, 5e-324, -2.5e-320]
    jets = jets.astype(dtype)
    c = _hermite_coeffs(jets[:-1], jets[1:], h)
    oracle = hermite_tables(jets, h)
    for shape in _point_shapes(cells):
        idx = rng.integers(0, cells, shape)
        t = np.asarray(rng.random(shape), dtype=dtype)
        for order in range(k + 1):
            for lowest in range(order + 1):
                got = diffeo._horner(c, idx, t, h, order, lowest)
                want = horner_per_order(oracle, idx, t, h, order, lowest)
                assert _bit_equal(got, want), (shape, lowest, order)


def _arrays_held(obj):
    """The array, list and tuple attributes of an object, by name."""
    return {name: v for name, v in vars(obj).items()
            if isinstance(v, (np.ndarray, list, tuple))}


@pytest.mark.parametrize("k", [1, 2, 3, MAX_ORDER])
def test_a_map_evaluated_at_every_order_holds_one_table(k):
    f = small_bump(2e-3, center=0.1, radius=0.9, k=k, n=65)
    sparse = np.linspace(f.a, f.b, 7)
    dense = refined_grid(f, EVAL_DENSITY)
    for xs in (sparse, dense, float(sparse[3])):
        for order in range(k + 1):
            for lowest in range(order + 1):
                f.displacement_jets(xs, order, lowest)
    held = _arrays_held(f)
    assert set(held) == {"jets", "_dc"}
    assert held["_dc"].dtype == np.float64
    assert held["_dc"].shape == (2 * k + 2, f.n - 1)


def test_the_edge_profile_holds_one_table():
    for k in (1, 3):
        profile = flow._edge_profile(k, DEFAULT_TOL.ode_tol)
        held = _arrays_held(profile)
        assert set(held) == {"values", "table"}
        n = profile.values.size
        assert held["table"].dtype == np.float64
        assert held["table"].shape == (2 * k + 2, n - 1)
        assert not held["table"].flags.writeable
        # evaluation leaves the read-only table as it was
        before = held["table"].copy()
        profile.jet_at(np.linspace(0.0, 1.0, 5 * n), k)
        profile.jet_at(np.linspace(0.0, 1.0, 3), k)
        assert np.array_equal(before.view(np.int64),
                              held["table"].view(np.int64))


# -- the inverse solve in float64 ----------------------------------------------

def _table_dtypes(monkeypatch):
    """The dtypes of the coefficient tables built from now on."""
    dtypes = []
    original = diffeo._hermite_coeffs

    def recording(j0, j1, h):
        dtypes.append(j0.dtype)
        return original(j0, j1, h)

    monkeypatch.setattr(diffeo, "_hermite_coeffs", recording)
    return dtypes


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("make", [
    lambda: small_bump(2e-3, center=0.1, radius=0.9, n=257),
    lambda: small_periodic(np.random.default_rng(8)),
], ids=["compact", "periodic"])
def test_the_cached_table_gives_the_per_point_roots(make):
    # each root is bitwise the same whether solved with every point at
    # once, in chunks smaller than n - 1, or alone on a cached table
    f = make()
    lo, hi = (f.a, f.b) if f.tail == "compact" else (-0.7, 2.3)
    y_all = np.linspace(lo, hi, 3 * f.n)[1:-1]
    y_few = y_all[::37]

    few_first = f.inverse_values(y_few)
    full = f.inverse_values(y_all)
    few_cached = f.inverse_values(y_few)
    assert np.array_equal(_bits(few_cached), _bits(few_first))
    assert np.array_equal(_bits(full[::37]), _bits(few_first))

    # the same map, solved in chunks smaller than n - 1
    g = diffeo.Diffeo1(f.tail, f.a, f.b, f.k, f.jets)
    chunks = np.array_split(y_all, 8)
    assert max(c.size for c in chunks) < f.n - 1
    per_chunk = np.concatenate([g.inverse_values(c) for c in chunks])
    assert np.array_equal(_bits(full), _bits(per_chunk))


@pytest.mark.parametrize("make", [
    lambda: small_bump(2e-3, center=0.1, radius=0.9, n=257),
    lambda: small_periodic(np.random.default_rng(9)),
], ids=["compact", "periodic"])
def test_an_inverse_build_makes_only_float64_tables(monkeypatch, make):
    f = make()
    dtypes = _table_dtypes(monkeypatch)
    inverse(f)
    assert dtypes and all(d == np.float64 for d in dtypes)
    assert set(_arrays_held(f)) == {"jets", "_dc"}


def _long_double_roots(f, x, y):
    """Two Newton steps from the roots x of f(x) = y with every operation
    in long double, on the map's long-double coefficient table."""
    jl = f.jets.astype(np.longdouble)
    c = _hermite_coeffs(jl[:-1], jl[1:], f.h)
    xl = x.astype(np.longdouble)
    for _ in range(2):
        xf, ident = f._fold(xl)
        i, t = diffeo._grid_cells(xf, f.a, f.h, f.n - 1)
        u, du = diffeo._horner(c, i, t, f.h, 1).T
        u[ident], du[ident] = 0.0, 0.0
        xl = xl - (xl + u - y) / (1.0 + du)
    return xl


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is float64 on this platform")
@pytest.mark.parametrize("make", [
    lambda: small_bump(2e-3, center=0.1, radius=0.9, k=3, n=257),
    lambda: small_bump(2e-3, center=0.1, radius=0.9, k=2, n=257),
    lambda: small_periodic(np.random.default_rng(10)),
], ids=["bump-k3", "bump-k2", "periodic"])
def test_float64_roots_match_the_long_double_root_to_the_ulp(make):
    # the float64 step rounds x - y, u(x) and their sum at the scale of
    # the displacement x - y, and the new root at the scale of x: so one
    # ulp of x where the displacement is far smaller than x, and ulp(x) +
    # 2 ulp(x - y) near x = 0
    f = make()
    lo, hi = (f.a, f.b) if f.tail == "compact" else (-0.7, 2.3)
    y = np.linspace(lo, hi, 100_003)[1:-1]
    x = f.inverse_values(y)
    gap = np.abs(_long_double_roots(f, x, y) - x)
    ulp_x, ulp_d = np.spacing(np.abs(x)), np.spacing(np.abs(x - y))
    far = np.abs(x) >= 32.0 * np.abs(x - y)
    assert far.mean() > 0.9
    assert np.all(gap[far] <= ulp_x[far])
    assert np.all(gap <= ulp_x + 2.0 * ulp_d)


# -- guards: tables and sup passes of one norm reduction -----------------------

def _profile(k):
    return sweep_profile(4, k, eps=4e-6 if k == 2 else 2e-8)


@pytest.mark.parametrize("k", [2, 3])
def test_reduce_norm_builds_five_tables_and_three_sup_passes(monkeypatch, k):
    tables, passes = [], []
    build, sups = diffeo._hermite_coeffs, reduction._sup_norms

    def counting_tables(j0, j1, h):
        tables.append(j0.dtype)
        return build(j0, j1, h)

    def counting_sups(f, lowest=0, order=1):
        passes.append((lowest, order))
        return sups(f, lowest, order)

    monkeypatch.setattr(diffeo, "_hermite_coeffs", counting_tables)
    monkeypatch.setattr(reduction, "_sup_norms", counting_sups)
    reduce_norm(_profile(k), make_config(k, ALPHA, 4))
    # input, roll-up, recentering, damped factor and the planted product,
    # the damped factor's inverse solve included: no table of another dtype
    assert tables == [np.dtype(np.float64)] * 5
    # roll_params reads order 0, rolled_slope order 1, spread_once both
    assert passes == [(0, 0), (1, 1), (0, 1)]


def _reference_reduce_norm(g, cfg):
    """reduce_norm through the copies it used to make: the isotopy factor
    isotopy_step(h, 1, 1), spread_once's translation by -h(0) = -0.0, the
    translation of the planted factor by 0, and a rolled slope read off
    orders 0..1."""
    norm_in = holder_norm(g, cfg.alpha, cfg.k)
    rolled = roll_up(g)
    xs = refined_grid(rolled, EVAL_DENSITY)
    rolled_slope = float(np.max(np.abs(rolled.displacement_jets(xs, 1)[:, 1])))
    h = post_translate(rolled, -float(rolled(np.array(0.0))))
    factor = isotopy_step(h, 1, 1)
    factor = post_translate(factor, -float(factor(np.array(0.0))))
    out = translate_conjugate(spread_once(factor, cfg), 0.0)
    return PsiResult(map=out, norm_in=norm_in,
                     norm_out=holder_norm(out, cfg.alpha, cfg.k),
                     rolled_slope=rolled_slope,
                     support=support_interval(out))


@pytest.mark.parametrize("k", [2, 3])
def test_reduce_norm_without_copies_matches_the_copying_path(k):
    cfg = make_config(k, ALPHA, 4)
    g = _profile(k)
    got = reduce_norm(g, cfg)
    want = _reference_reduce_norm(g, cfg)
    for name in ("norm_in", "norm_out", "rolled_slope"):
        assert np.array_equal(_bits(getattr(got, name)),
                              _bits(getattr(want, name))), name
    assert got.support == want.support
    f, r = got.map, want.map
    assert (f.tail, f.a, f.b, f.k, f.n) == (r.tail, r.a, r.b, r.k, r.n)
    assert np.array_equal(_bits(f.jets), _bits(r.jets))
