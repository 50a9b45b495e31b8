import numpy as np
import pytest

from morseflow.flow import (
    ArcBudget,
    Converged,
    ReachLevel,
    StepControl,
    arc_length,
    ascend_to_level,
    descend_to_level,
    flow_limit,
    integrate,
    trajectory_csv_text,
    write_trajectory_csv,
)
from morseflow.polynomial import PolynomialSystem, parse_polynomial
from morseflow.space import SingularSpace


def r1_quartic():
    f = parse_polynomial("x^4", ["x"])
    Z = SingularSpace(1, PolynomialSystem(["x"], ()), ((-1.5, 1.5),))
    return f, Z


def r1_square():
    f = parse_polynomial("x^2", ["x"])
    Z = SingularSpace(1, PolynomialSystem(["x"], ()), ((-2.0, 2.0),))
    return f, Z


class TestIntegrate:
    def test_saddle_descent_matches_exact_exponential(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.0], "descend", [Converged(1e-8)])
        assert traj.termination == "converged"
        # on the x-axis the flow is x' = -2x, x(t) = e^(-2t)
        exact = np.exp(-2.0 * traj.t)
        assert np.max(np.abs(traj.y[:, 0] - exact)) < 1e-8
        assert np.max(np.abs(traj.y[:, 1])) == 0.0
        assert np.linalg.norm(traj.endpoint) < 1e-8

    def test_start_at_fixed_point_is_single_sample(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [0.0, 0.0], "descend", [Converged(1e-8)])
        assert traj.termination == "converged"
        assert traj.n_samples == 1

    def test_reach_level_conserves_product(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 1.0], "descend", [ReachLevel(-0.5)])
        assert traj.termination == "reach_level"
        assert abs(traj.final_f - (-0.5)) < 1e-10
        # x' = -2x, y' = 2y makes x*y a first integral
        assert abs(traj.endpoint[0] * traj.endpoint[1] - 1.0) < 1e-6

    def test_f_monotone_and_arc_nondecreasing(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.3], "descend", [ReachLevel(-0.9)])
        assert np.all(np.diff(traj.f) <= 1e-9)
        assert np.all(np.diff(traj.arc) >= 0.0)

    def test_samples_stay_on_variety(self, cone):
        f, Z = cone
        x0 = Z.retract([0.5, 0.5, np.sqrt(0.5)])
        traj = integrate(f, Z, x0, "descend", [ReachLevel(-0.5)])
        assert traj.termination == "reach_level"
        assert all(Z.is_member(y) for y in traj.y)

    def test_arc_column_matches_gradient_quadrature(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.7], "descend", [ReachLevel(-0.8)])
        quad = np.trapezoid(traj.grad_norm, traj.t)
        assert abs(traj.total_arc - quad) < 1e-3 * quad

    def test_energy_identity_per_step(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.2], "descend", [ReachLevel(-0.5)])
        span = traj.f[0] - traj.f[-1]
        df = traj.f[:-1] - traj.f[1:]
        power = 0.5 * (traj.grad_norm[:-1] ** 2 + traj.grad_norm[1:] ** 2) * np.diff(traj.t)
        mask = df > 1e-9 * span
        assert mask.any()
        assert np.max(np.abs(power[mask] - df[mask]) / df[mask]) < 1e-2

    def test_polyline_length_bounded_by_arc(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [0.9, 0.5], "descend", [ReachLevel(-0.7)])
        polyline = np.sum(np.linalg.norm(np.diff(traj.y, axis=0), axis=1))
        assert polyline <= 1.01 * traj.total_arc

    def test_deterministic_bit_for_bit(self, saddle):
        f, Z = saddle
        a = integrate(f, Z, [1.0, 0.3], "descend", [ReachLevel(-0.5)])
        b = integrate(f, Z, [1.0, 0.3], "descend", [ReachLevel(-0.5)])
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.arc, b.arc)
        assert a.termination == b.termination

    def test_bad_direction_rejected(self, saddle):
        f, Z = saddle
        with pytest.raises(ValueError):
            integrate(f, Z, [1.0, 0.0], "sideways", [Converged(1e-8)])


class TestLevelTargets:
    def test_descend_endpoint_matches_conserved_product_oracle(self, saddle):
        f, Z = saddle
        traj = descend_to_level(f, Z, [0.01, 0.01], -0.01)
        assert traj.termination == "reach_level"
        # endpoint solves x*y = 1e-4, y^2 - x^2 = 0.01
        y_sq = (0.01 + np.sqrt(0.01**2 + 4e-8)) / 2.0
        oracle = np.array([1e-4 / np.sqrt(y_sq), np.sqrt(y_sq)])
        assert np.linalg.norm(traj.endpoint - oracle) < 1e-6

    def test_descend_below_minimum_is_captured(self):
        f, Z = r1_square()
        traj = descend_to_level(f, Z, [1.0], -0.5)
        assert traj.captured
        assert traj.termination == "converged"
        assert abs(traj.endpoint[0]) < 1e-6

    def test_quartic_capture_with_loose_tolerance(self):
        # the pull toward x = 0 decays like x^3, so a tight gradient
        # tolerance is unreachable within the step limit
        f, Z = r1_quartic()
        traj = descend_to_level(f, Z, [0.5], -0.5, grad_tol=1e-5)
        assert traj.captured
        assert abs(traj.endpoint[0]) < 0.05

    def test_round_trip_between_regular_levels(self, saddle):
        f, Z = saddle
        start = np.array([1e-3, np.sqrt(0.01 + 1e-6)])  # exactly on f = -0.01
        up = ascend_to_level(f, Z, start, -0.005)
        assert up.termination == "reach_level"
        down = descend_to_level(f, Z, up.endpoint, -0.01)
        assert down.termination == "reach_level"
        assert np.linalg.norm(down.endpoint - start) < 1e-6

    def test_wrong_side_target_rejected(self, saddle):
        f, Z = saddle
        with pytest.raises(ValueError):
            descend_to_level(f, Z, [1.0, 0.0], 2.0)


class TestFlowLimit:
    def test_descend_to_origin(self, saddle):
        f, Z = saddle
        res = flow_limit(f, Z, [1.0, 0.0], "descend")
        assert res.kind == "converged"
        assert np.linalg.norm(res.point) < 1e-8

    def test_backward_flow_identifies_downhill_branch(self, saddle):
        f, Z = saddle
        res = flow_limit(f, Z, [0.0, 1.0], "ascend")
        assert res.kind == "converged"
        assert np.linalg.norm(res.point) < 1e-8

    def test_tight_arc_budget_is_inconclusive(self, saddle):
        f, Z = saddle
        res = flow_limit(f, Z, [1.0, 1.0], "descend", arc_budget=1e-3)
        assert res.kind == "inconclusive"
        assert res.trajectory.termination == "arc_budget"


class TestArcLength:
    def test_zero_at_start(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.0], "descend", [Converged(1e-8)])
        assert arc_length(traj, 0.0) == 0.0

    def test_line_flow_total_equals_displacement(self):
        f, Z = r1_square()
        traj = integrate(f, Z, [1.0], "descend", [Converged(1e-8)])
        assert abs(traj.total_arc - 1.0) < 0.02

    def test_monotone_in_time(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.5], "descend", [ReachLevel(-0.5)])
        ts = np.linspace(traj.t[0], traj.t[-1], 17)
        vals = [arc_length(traj, t) for t in ts]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestCsv:
    def test_header_and_shape(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.5], "descend", [ReachLevel(-0.5)])
        lines = trajectory_csv_text(traj).splitlines()
        assert lines[0] == "t,y_1,y_2,f,grad_norm,arc_len"
        assert len(lines) == traj.n_samples + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 1.0, 0.5, 0.75, pytest.approx(np.sqrt(5.0)), 0.0]

    def test_file_write_round_trip(self, saddle, tmp_path):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.5], "descend", [ReachLevel(-0.5)])
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        assert path.read_text() == trajectory_csv_text(traj)


def test_step_control_max_step_is_honoured(saddle):
    f, Z = saddle
    ctrl = StepControl(max_step=1e-3)
    traj = integrate(f, Z, [1.0, 0.0], "descend", [ArcBudget(0.1)], control=ctrl)
    assert np.max(np.diff(traj.t)) <= 1e-3 * (1.0 + 1e-12)


def test_unlandable_level_is_landing_failed():
    # no bisection point can lie within 1e-300 of the target, so the
    # crossing must not be reported as reach_level
    f = parse_polynomial("x^2 - y^2", ["x", "y"])
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-2.0, 2.0), (-2.0, 2.0)),
                      level_tol=1e-300)
    traj = integrate(f, Z, [1.0, 0.5], "descend", [ReachLevel(0.1)])
    assert traj.termination == "landing_failed"
    assert traj.final_f > 0.1
