"""Plateau fields, their flows, and the trajectory chart.

The field is 1 on the inner plateau and 0 beyond the edge, so the flow
must move at unit speed inside and freeze outside; the chart conjugates
the unit translation to the time-one map.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diffeolab import (
    DEFAULT_TOL,
    ConstructionError,
    PreconditionError,
    compose,
    compose_derivs,
    identity,
    inverse,
    make_rho,
    time_t_map,
    trajectory_chart,
    verify_chart_conjugation,
    verify_chart_fixes_support,
)
from diffeolab import flow
from _helpers import c0_gap, count_solve_steps, small_bump


def variational_time_t_jets(field, t, k, n):
    """Reference time-t map: integrate the nodes together with the
    variational equations, dY/ds = jet of rho o Phi, for all k + 1
    orders, and return the node abscissae and displacement jets."""
    xs = np.linspace(-field.edge, field.edge, n)

    def rhs(_s, state):
        Y = state.reshape(-1, k + 1)
        return compose_derivs(field.jets(Y[:, 0], k), Y).reshape(-1)

    y0 = np.zeros((n, k + 1))
    y0[:, 0] = xs
    y0[:, 1] = 1.0
    sol = solve_ivp(rhs, (0.0, t), y0.reshape(-1), method="DOP853",
                    atol=1e-12, rtol=1e-12, t_eval=[t])
    assert sol.success
    jets = sol.y[:, -1].reshape(n, k + 1)
    jets[:, 0] -= xs
    jets[:, 1] -= 1.0
    return xs, jets


def test_field_plateau_and_cutoff_values():
    field = make_rho(1)
    assert field.plateau == 2.0 and field.edge == 3.0
    xs = np.linspace(-2.0, 2.0, 101)
    np.testing.assert_array_equal(field(xs), np.ones(101))
    assert np.all(field.jets(xs, 2)[:, 1:] == 0.0)
    edge = np.array([-3.0, 3.0, -5.0, 7.0])
    np.testing.assert_array_equal(field(edge), np.zeros(4))
    mid = float(field(np.array([2.5]))[0])
    assert 0.0 < mid < 1.0
    # even profile
    ys = np.linspace(0.0, 3.5, 57)
    np.testing.assert_array_equal(field(ys), field(-ys))


def test_field_values_match_order_zero_jets_bitwise():
    for A in (1, 4):
        field = make_rho(A)
        xs = np.linspace(-field.edge - 0.5, field.edge + 0.5, 100001)
        vals = field.values(xs)
        assert vals.tobytes() == field.jets(xs, 0)[:, 0].tobytes()


def test_time_zero_map_is_identity():
    f = time_t_map(make_rho(1), 0.0, 2)
    assert np.all(f.jets == 0.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_time_t_map_refuses_a_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        time_t_map(make_rho(1), t, 2)


def test_flow_moves_at_unit_speed_on_the_plateau():
    field = make_rho(1)
    for t in (0.25, 0.7, -0.5):
        tau = time_t_map(field, t, 2)
        xs = np.linspace(-1.0, 1.0, 201)  # stays inside the plateau
        assert float(np.max(np.abs(tau(xs) - (xs + t)))) <= 1e-9
        jets = tau.jet_at(xs, 2)
        np.testing.assert_allclose(jets[:, 1], 1.0, atol=1e-9)


def test_flow_group_law_and_reversibility():
    field = make_rho(1)
    t1, t2 = 0.3, 0.4
    a = compose(time_t_map(field, t1, 2), time_t_map(field, t2, 2))
    b = time_t_map(field, t1 + t2, 2)
    assert c0_gap(a, b, -3.0, 3.0) <= 1e-8
    back = compose(time_t_map(field, 0.5, 2), time_t_map(field, -0.5, 2))
    assert c0_gap(back, identity(2, -3.0, 3.0), -3.0, 3.0) <= 1e-8


def test_flow_maps_keep_orientation_for_long_times():
    field = make_rho(1)
    xs = np.linspace(-3.0, 3.0, 601)
    for t in (-4.0, -1.0, 1.0, 4.0):
        tau = time_t_map(field, t, 2)
        slopes = tau.jet_at(xs, 1)[:, 1]
        assert np.all(slopes > 0.0)


@pytest.mark.parametrize("A", [1, 4])
@pytest.mark.parametrize("t", [1.0, 0.6, -4.19e-6, -2.5])
def test_plateau_nodes_move_by_exactly_t(A, t):
    field = make_rho(A)
    tau = time_t_map(field, t, 3)
    xs = tau.nodes
    flat = (np.abs(xs) <= field.plateau) & (np.abs(xs + t) <= field.plateau)
    assert flat.sum() > 100
    assert np.all(tau.jets[flat, 0] == t)
    assert np.all(tau.jets[flat, 1:] == 0.0)


@pytest.mark.parametrize("A", [1, 4])
@pytest.mark.parametrize("t", [1.0, 0.6, -4.19e-6])
def test_ramp_nodes_match_an_all_node_integration(A, t):
    # the map integrates only the nodes whose path meets a ramp; one solve
    # over every node, with the same tolerances, must give the same
    # displacements there
    field = make_rho(A)
    tau = time_t_map(field, t, 2)
    xs = tau.nodes
    ode_tol = DEFAULT_TOL.ode_tol
    sol = solve_ivp(lambda _s, d: field.values(xs + d), (0.0, t),
                    np.zeros(xs.size), method="DOP853", atol=ode_tol ** 2,
                    rtol=ode_tol, t_eval=[t])
    assert sol.success
    ramp = (np.abs(xs) > field.plateau) | (np.abs(xs + t) > field.plateau)
    gap = np.abs(tau.jets[ramp, 0] - sol.y[ramp, -1])
    assert float(np.max(gap)) <= 1e-11


@pytest.mark.parametrize("A,t", [(1, 0.6), (4, 1.0), (8, -0.37)])
def test_time_t_map_matches_variational_route(A, t):
    # node jets of the 1-D identity route against the variational ODE;
    # near the edge a difference of two rho values instead of the Taylor
    # shift misses C3 by 4.4e-7 at A=1, t=0.6
    k = 3
    field = make_rho(A)
    tau = time_t_map(field, t, k)
    xs, ref = variational_time_t_jets(field, t, k, tau.n)
    gap = np.max(np.abs(tau.jets - ref), axis=0)
    assert np.all(gap <= [1e-11, 1e-11, 2e-10, 2e-8]), gap
    # a node where rho vanishes never moves
    still = field.values(xs) == 0.0
    assert still.any()
    assert np.all(tau.jets[still] == 0.0)


def test_chart_is_identity_inside_and_bounded_outside():
    field = make_rho(1)
    chart = trajectory_chart(field, 2)
    xs = np.linspace(-2.0, 2.0, 201)
    vals = chart.jet_at(xs, 0)[:, 0]
    assert float(np.max(np.abs(vals - xs))) <= 1e-10
    # odd, monotone, and asymptotic strictly below the cutoff edge
    ys = np.linspace(0.0, chart.w, 400)
    v_pos = chart.jet_at(ys, 0)[:, 0]
    v_neg = chart.jet_at(-ys, 0)[:, 0]
    assert float(np.max(np.abs(v_pos + v_neg))) <= 1e-10
    assert np.all(np.diff(v_pos) > 0.0)
    far = float(chart.jet_at(np.array([10.0 * field.plateau]), 0)[0, 0])
    assert far < field.edge
    assert chart.attained < chart.asymptote


@pytest.mark.parametrize("A", [1, 4])
def test_chart_is_exactly_the_identity_on_the_plateau(A):
    chart = trajectory_chart(make_rho(A), 3)
    xs = np.linspace(-2.0 * A, 2.0 * A, 4001)
    jets = chart.jet_at(xs)
    assert jets[:, 0].tobytes() == xs.tobytes()
    assert np.all(jets[:, 1] == 1.0) and np.all(jets[:, 2:] == 0.0)
    np.testing.assert_array_equal(chart.inverse_value(xs), xs)


@pytest.mark.parametrize("A", [1, 4])
def test_chart_is_exactly_odd(A):
    chart = trajectory_chart(make_rho(A), 3)
    xs = np.linspace(0.0, chart.w + 3.0, 20001)
    pos, neg = chart.jet_at(xs), chart.jet_at(-xs)
    assert (-pos[:, 0]).tobytes() == neg[:, 0].tobytes()
    # phi^(m)(-x) = (-1)^(m+1) phi^(m)(x) exactly (0.0 == -0.0 here)
    np.testing.assert_array_equal(neg[:, 1:], pos[:, 1:] * [1.0, -1.0, 1.0])


@pytest.mark.parametrize("A", [1, 4])
def test_chart_matches_a_direct_trajectory_of_zero(A):
    # the chart rests on one A-free profile; the trajectory of 0 under the
    # field of this A, integrated here from time 0, must agree with it
    field = make_rho(A)
    times = np.linspace(2.0 * A, 2.0 * A + 32.0, 1001)
    sol = solve_ivp(lambda _s, y: field.values(y), (0.0, times[-1]), [0.0],
                    method="DOP853", atol=1e-13, rtol=1e-13, t_eval=times)
    assert sol.success
    chart = trajectory_chart(field, 2)
    assert float(np.max(np.abs(chart(times) - sol.y[0]))) <= 1e-10
    assert float(np.max(np.abs(chart(-times) + sol.y[0]))) <= 1e-10


def test_one_profile_serves_every_width(monkeypatch):
    calls = []
    solve = flow._dop853.integrate

    def counted(*args, **kwargs):
        calls.append(kwargs.get("rtol"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(flow._dop853, "integrate", counted)
    # tolerances no other test uses, so neither profile is cached yet
    tol = DEFAULT_TOL.with_overrides(ode_tol=2.5e-12)
    charts = [trajectory_chart(make_rho(A), 2, tol=tol) for A in (1, 2, 4, 8)]
    assert calls == [2.5e-12]
    assert all(c._profile is charts[0]._profile for c in charts)
    trajectory_chart(make_rho(4), 2,
                     tol=DEFAULT_TOL.with_overrides(ode_tol=3.5e-12))
    assert calls == [2.5e-12, 3.5e-12]


def test_profile_refuses_a_reach_it_does_not_attain(monkeypatch):
    # the conjugator's overlap windows end at 2A + OVERLAP_REACH, which
    # the chart inverse must reach inside the profile
    assert flow.OVERLAP_REACH < trajectory_chart(make_rho(1), 2).attained - 2
    monkeypatch.setattr(flow, "OVERLAP_REACH", 0.95)
    tol = DEFAULT_TOL.with_overrides(ode_tol=4.5e-12)
    with pytest.raises(ConstructionError, match="flow stage"):
        trajectory_chart(make_rho(1), 2, tol=tol)


def test_chart_conjugates_translation_to_the_flow():
    field = make_rho(1)
    assert verify_chart_conjugation(field, 0.0, 101) <= 1e-12
    assert verify_chart_conjugation(field, 1.0, 1000) <= 1e-7
    assert verify_chart_conjugation(field, 0.6, 257) <= 1e-7
    assert verify_chart_conjugation(field, -0.8, 257) <= 1e-7


@pytest.mark.parametrize("A,k", [(1, 2), (1, 3), (4, 2), (4, 3)])
def test_chart_inverse_value_inverts_the_chart(A, k):
    chart = trajectory_chart(make_rho(A), k)
    r = chart.attained - 1e-9
    ys = np.linspace(-r, r, 1001)
    assert float(np.max(np.abs(chart(chart.inverse_value(ys)) - ys))) <= 1e-12


@pytest.mark.parametrize("A", [1, 4, 16])
def test_chart_inverse_takes_few_steps(A, monkeypatch):
    chart = trajectory_chart(make_rho(A), 2)
    steps = count_solve_steps(monkeypatch)
    r = chart.attained - 1e-9
    chart.inverse_value(np.linspace(-r, r, 1001))
    assert len(steps) == 1 and steps[0] <= 4


def test_chart_conjugation_fixes_small_supported_maps():
    field = make_rho(2)  # plateau [-4, 4]
    u = small_bump(1e-3, center=0.0, radius=1.5)
    assert verify_chart_fixes_support(field, u, 400) <= 1e-7


def test_chart_conjugation_rejects_escaping_support():
    field = make_rho(1)  # plateau [-2, 2]
    u = small_bump(1e-3, center=2.0, radius=1.0)
    with pytest.raises(ValueError):
        verify_chart_fixes_support(field, u, 100)


def test_flow_refusals_are_typed():
    field = make_rho(1)
    chart = trajectory_chart(field, 2)
    u = small_bump(1e-3, center=2.0, radius=1.0)
    with pytest.raises(PreconditionError, match="flow stage") as e:
        verify_chart_fixes_support(field, u, 100, chart=chart)
    assert type(e.value) is PreconditionError
    with pytest.raises(PreconditionError, match="flow stage") as e:
        chart.inverse_value(np.array([field.edge]))
    assert type(e.value) is PreconditionError
    with pytest.raises(PreconditionError, match="flow stage") as e:
        chart.jet_at(np.array([0.5, 2.5]), 3)
    assert type(e.value) is PreconditionError


def test_flow_map_inverse_is_faithful_at_the_flat_edge():
    # the time-1 map flattens toward the edge (least node slope 0.16), yet
    # its inverse builds and matches the time-(-1) map of the same flow
    field = make_rho(1)
    tau = time_t_map(field, 1.0, 2)
    tau_inv = inverse(tau)
    exact = time_t_map(field, -1.0, 2)
    xs = np.linspace(-field.edge - 0.5, field.edge + 0.5, 20001)
    gap = np.max(np.abs(tau_inv.jet_at(xs, 1) - exact.jet_at(xs, 1)), axis=0)
    assert gap[0] <= 1e-9
    assert gap[1] <= 1e-7
    assert float(np.max(np.abs(tau_inv(tau(xs)) - xs))) <= 1e-9
