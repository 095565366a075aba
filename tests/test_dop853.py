"""The in-package DOP853 against SciPy's, bit for bit.

`_dop853.integrate` claims the same IEEE operations, in the same order, as
`scipy.integrate.solve_ivp(method="DOP853")`.  SciPy is the oracle here
and only here: the package itself never imports it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diffeolab import (DEFAULT_TOL, ConstructionError, PlateauField,
                       make_rho, time_t_map, trajectory_chart)
from diffeolab import _dop853, flow

SRC = Path(__file__).resolve().parent.parent / "src"


def scipy_integrate(fun, t_end, y0, rtol, atol, t_eval):
    """`_dop853.integrate`'s contract, answered by SciPy."""
    sol = solve_ivp(fun, (0.0, t_end), y0, method="DOP853", rtol=rtol,
                    atol=atol, t_eval=t_eval)
    assert sol.success, sol.message
    return sol.y


def assert_bitwise(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def assert_scipys_bitwise(*args, **kw):
    ours = _dop853.integrate(*args, **kw)
    assert_bitwise(ours, scipy_integrate(*args, **kw))


def time_t_problem(A, t):
    """time_t_map's ODE: the displacements of the ramp nodes."""
    field = make_rho(A)
    xs = np.linspace(-field.edge, field.edge,
                     flow._unit_nodes(2.0 * field.edge))
    flat = (np.abs(xs) <= field.plateau) & (np.abs(xs + t) <= field.plateau)
    x = xs[~flat & (field.values(xs) != 0.0)]
    return (lambda _s, d: field.values(x + d)), x.size


@pytest.mark.parametrize("A", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", [-3.2, -4.19e-6, 1e-3, 1.0, 2.5])
def test_time_t_map_is_the_scipy_built_map(A, k, t, monkeypatch):
    # the map reads its displacements from one integration, so equal jets
    # mean an equal solution of time_t_map's problem
    field = make_rho(A)
    ours = time_t_map(field, t, k)
    monkeypatch.setattr(flow._dop853, "integrate", scipy_integrate)
    ref = time_t_map(field, t, k)
    assert_bitwise(ours.jets, ref.jets)


@pytest.mark.parametrize("ode_tol", [DEFAULT_TOL.ode_tol, 2.5e-12, 1e-8])
def test_edge_profile_problem_is_scipys_bitwise(ode_tol):
    ramp = PlateauField(0)
    ss = np.linspace(0.0, flow.PROFILE_SPAN,
                     flow._unit_nodes(flow.PROFILE_SPAN))
    args = (lambda _s, p: ramp.values(p), flow.PROFILE_SPAN, [0.0])
    kw = dict(rtol=ode_tol, atol=ode_tol, t_eval=ss)
    assert_scipys_bitwise(*args, **kw)


def test_backward_multi_point_output_is_scipys_bitwise():
    fun, n = time_t_problem(2, -2.5)
    t_eval = np.linspace(-1e-3, -2.5, 37)
    args = (fun, -2.5, np.zeros(n))
    kw = dict(rtol=1e-12, atol=1e-24, t_eval=t_eval)
    assert_scipys_bitwise(*args, **kw)


@pytest.mark.parametrize("t_end", [7.0, -7.0])
def test_a_time_dependent_system_is_scipys_bitwise(t_end):
    # nonzero y0 takes the other branch of the initial step, and the
    # right-hand side reads the stage times
    def fun(t, y):
        return np.array([y[1], -np.sin(y[0]) + 0.3 * np.cos(t)])

    t_eval = np.linspace(0.0, t_end, 50)
    args = (fun, t_end, np.array([1.0, -0.5]))
    kw = dict(rtol=1e-9, atol=1e-11, t_eval=t_eval)
    assert_scipys_bitwise(*args, **kw)


def test_a_failed_integration_reports_scipys_message():
    def fun(_t, y):
        return np.full(y.shape, np.nan)

    sol = solve_ivp(fun, (0.0, 1.0), np.zeros(3), method="DOP853",
                    rtol=1e-12, atol=1e-24, t_eval=[1.0])
    assert not sol.success
    with pytest.raises(_dop853.IntegrationError) as e:
        _dop853.integrate(fun, 1.0, np.zeros(3), rtol=1e-12, atol=1e-24,
                          t_eval=[1.0])
    assert str(e.value) == sol.message


def test_a_nan_field_refuses_with_a_typed_error(monkeypatch):
    def nan_values(self, x):
        return np.full(np.shape(x), np.nan)

    monkeypatch.setattr(PlateauField, "values", nan_values)
    with pytest.raises(ConstructionError) as e:
        time_t_map(make_rho(1), 0.6, 2)
    assert type(e.value) is ConstructionError
    assert str(e.value).startswith("flow stage: flow integration failed")
    # a tolerance no other test uses, so the profile is not cached yet
    tol = DEFAULT_TOL.with_overrides(ode_tol=5.5e-12)
    with pytest.raises(ConstructionError) as e:
        trajectory_chart(make_rho(1), 2, tol=tol)
    assert type(e.value) is ConstructionError
    assert str(e.value).startswith("flow stage: chart integration failed")


def test_the_package_never_loads_scipy():
    code = (
        "import sys\n"
        "import diffeolab, diffeolab.cli\n"
        "field = diffeolab.make_rho(2)\n"
        "diffeolab.trajectory_chart(field, 2)\n"
        "diffeolab.time_t_map(field, 0.7, 2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
