from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bisection_landing
import stage_retracting_advance
from morseflow import flow, levelmap
from morseflow.cli import builtin_problem, load_problem, problem_objects
from morseflow.critical import PROBE_RADIUS
from morseflow.flow import (
    INCONCLUSIVE_TERMINATIONS,
    ArcBudget,
    Capture,
    Converged,
    ReachLevel,
    _Field,
    integrate,
    integrate_ensemble,
    trajectory_csv_text,
)
from morseflow.levelmap import check_condition2
from morseflow.polynomial import PolynomialSystem, parse_polynomial
from morseflow.sampling import band_samples, substream
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
        traj = integrate(f, Z, [0.01, 0.01], "descend", [ReachLevel(-0.01), Converged(1e-8)])
        assert traj.termination == "reach_level"
        # endpoint solves x*y = 1e-4, y^2 - x^2 = 0.01
        y_sq = (0.01 + np.sqrt(0.01**2 + 4e-8)) / 2.0
        oracle = np.array([1e-4 / np.sqrt(y_sq), np.sqrt(y_sq)])
        assert np.linalg.norm(traj.endpoint - oracle) < 1e-6

    def test_descend_below_minimum_is_captured(self):
        f, Z = r1_square()
        traj = integrate(f, Z, [1.0], "descend", [ReachLevel(-0.5), Converged(1e-8)])
        assert traj.termination == "converged"
        assert abs(traj.endpoint[0]) < 1e-6

    def test_quartic_capture_with_loose_tolerance(self):
        # the pull toward x = 0 decays like x^3, so a tight gradient
        # tolerance is unreachable within the step limit
        f, Z = r1_quartic()
        traj = integrate(f, Z, [0.5], "descend", [ReachLevel(-0.5), Converged(1e-5)])
        assert traj.termination == "converged"
        assert abs(traj.endpoint[0]) < 0.05

    def test_round_trip_between_regular_levels(self, saddle):
        f, Z = saddle
        start = np.array([1e-3, np.sqrt(0.01 + 1e-6)])  # exactly on f = -0.01
        up = integrate(f, Z, start, "ascend", [ReachLevel(-0.005), Converged(1e-8)])
        assert up.termination == "reach_level"
        down = integrate(f, Z, up.endpoint, "descend", [ReachLevel(-0.01), Converged(1e-8)])
        assert down.termination == "reach_level"
        assert np.linalg.norm(down.endpoint - start) < 1e-6

    def test_wrong_side_target_rejected(self, saddle):
        f, Z = saddle
        with pytest.raises(ValueError):
            integrate(f, Z, [1.0, 0.0], "descend", [ReachLevel(2.0), Converged(1e-8)])


class TestFlowLimit:
    def test_descend_to_origin(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.0], "descend", [Converged(1e-8)])
        assert traj.termination == "converged"
        assert np.linalg.norm(traj.endpoint) < 1e-8

    def test_backward_flow_identifies_downhill_branch(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [0.0, 1.0], "ascend", [Converged(1e-8)])
        assert traj.termination == "converged"
        assert np.linalg.norm(traj.endpoint) < 1e-8

    def test_tight_arc_budget_is_inconclusive(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 1.0], "descend", [Converged(1e-8), ArcBudget(1e-3)])
        assert traj.termination == "arc_budget"
        assert traj.termination in INCONCLUSIVE_TERMINATIONS


class TestArcLength:
    def test_zero_at_start(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.0], "descend", [Converged(1e-8)])
        assert traj.t[0] == 0.0 and traj.arc[0] == 0.0

    def test_line_flow_total_equals_displacement(self):
        f, Z = r1_square()
        traj = integrate(f, Z, [1.0], "descend", [Converged(1e-8)])
        assert abs(traj.total_arc - 1.0) < 0.02

    def test_monotone_in_time(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.5], "descend", [ReachLevel(-0.5)])
        assert traj.n_samples > 2
        assert (np.diff(traj.t) > 0).all() and (np.diff(traj.arc) > 0).all()
        assert traj.total_arc == traj.arc[-1]


class TestCsv:
    def test_header_and_shape(self, saddle):
        f, Z = saddle
        traj = integrate(f, Z, [1.0, 0.5], "descend", [ReachLevel(-0.5)])
        lines = trajectory_csv_text(traj).splitlines()
        assert lines[0] == "t,y_1,y_2,f,grad_norm,arc_len"
        assert len(lines) == traj.n_samples + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 1.0, 0.5, 0.75, pytest.approx(np.sqrt(5.0)), 0.0]


@pytest.mark.parametrize("objective", ["x", "0.01*x", "10*x"])
def test_step_control_max_step_is_honoured(objective):
    # steps are at most 0.1 * the box diameter long in space, whatever |grad f|;
    # a linear f has no step error, so its steps grow to the cap before the
    # flow leaves the box
    f = parse_polynomial(objective, ["x", "y"])
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-2.0, 2.0), (-2.0, 2.0)))
    traj = integrate(f, Z, [1.9, 0.0], "descend", stops=())
    chords = np.linalg.norm(np.diff(traj.y, axis=0), axis=1)
    max_step = 0.1 * Z.box_diameter
    assert np.all(chords <= max_step * (1 + 1e-12))
    assert np.max(chords) >= 0.99 * max_step


@pytest.mark.parametrize("fraction", [0.05, 0.2])
def test_the_step_cap_is_max_step_fraction_of_the_box(fraction, monkeypatch):
    # a resolution study halves or doubles the cap by patching the module constant
    monkeypatch.setattr(flow, "MAX_STEP_FRACTION", fraction)
    f = parse_polynomial("x", ["x", "y"])
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-2.0, 2.0), (-2.0, 2.0)))
    traj = integrate(f, Z, [1.9, 0.0], "descend", stops=())
    chords = np.linalg.norm(np.diff(traj.y, axis=0), axis=1)
    max_step = fraction * Z.box_diameter
    assert np.all(chords <= max_step * (1 + 1e-12))
    assert np.max(chords) >= 0.99 * max_step


def test_quartic_ascent_meets_its_exact_hitting_time():
    # x' = 4x^3 from x0 reaches x^4 = 1 at t = (1/x0^2 - 1)/8; where the
    # gradient is small, the length cap lets the steps run long in time
    f, Z = r1_quartic()
    x0 = 0.034
    traj = integrate(f, Z, [x0], "ascend", [ReachLevel(1.0)])
    assert traj.termination == "reach_level"
    assert traj.t[-1] == pytest.approx((1 / x0**2 - 1) / 8, rel=1e-6)
    assert traj.n_accepted < 100


def test_unlandable_level_is_landing_failed():
    # no landing point can lie within 1e-300 of the target, so the
    # crossing must not be reported as reach_level
    f = parse_polynomial("x^2 - y^2", ["x", "y"])
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-2.0, 2.0), (-2.0, 2.0)),
                      level_tol=1e-300)
    traj = integrate(f, Z, [1.0, 0.5], "descend", [ReachLevel(0.1)])
    assert traj.termination == "landing_failed"
    assert traj.final_f > 0.1


def test_unlandable_landing_stops_when_its_bracket_holds_no_double(monkeypatch):
    # the landing brackets the crossing in the upper half of the step, where
    # a tolerance of 1e-16 * h is below one ulp; the bracket itself runs out
    f = parse_polynomial("x^2 - y^2", ["x", "y"])
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-2.0, 2.0), (-2.0, 2.0)),
                      level_tol=1e-300)
    calls = []
    advance = _Field.advance

    def counted(self, *args):
        calls.append(1)
        return advance(self, *args)

    monkeypatch.setattr(_Field, "advance", counted)
    traj = integrate(f, Z, [1.0, 0.5], "descend", [ReachLevel(0.5)])
    assert traj.termination == "landing_failed"
    # a bisection of a double runs out within 64 rounds; the cap is 90
    assert len(calls) < 64


def test_overflowing_step_is_rejected_not_recorded():
    # a box of half-width 1e100 caps steps near 2.8e100: from (1, 1) every
    # step from the first, cap / 64, down to the smallest, 1e-12 * cap,
    # overflows, and its error is NaN
    f = parse_polynomial("x^4 + y^4", ["x", "y"])
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-1e100, 1e100), (-1e100, 1e100)))
    with np.errstate(all="ignore"):
        traj = integrate(f, Z, [1.0, 1.0], "descend", stops=[ArcBudget(10.0)])
    assert np.isfinite(traj.y).all() and np.isfinite(traj.f).all()
    assert np.isfinite(traj.grad_norm).all() and np.isfinite(traj.arc).all()
    assert traj.termination in ("step_underflow", "left_box")


def test_nan_coordinate_is_outside_the_box():
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-2.0, 2.0), (-2.0, 2.0)))
    assert not Z.inside_box([np.nan, 0.0])
    assert not Z.inside_box([0.0, np.inf])
    assert Z.inside_box([2.0, -2.0])
    rows = np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, -np.inf], [2.0, -2.0]])
    assert Z.inside_box(rows).tolist() == [True, False, False, True]


def test_box_test_of_a_block_matches_each_point():
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-2.0, 2.0), (-1.0, 1.0)))
    rows = np.array([[0.0, 0.0], [1.95, 0.0], [0.0, -1.0], [-2.0 - 1e-10, 0.5], [np.nan, 0.0]])
    block = Z.inside_box(rows)
    assert block.dtype == bool and block.shape == (5,)
    assert block.tolist() == [Z.inside_box(x) for x in rows]
    assert all(type(Z.inside_box(x)) is bool for x in rows)
    assert block.tolist() == [True, True, True, False, False]


def test_ensemble_names_the_first_member_on_the_wrong_side(saddle):
    f, Z = saddle
    rows = np.array([[1.0, 0.0], [1.0, 0.3], [1.0, 0.5], [0.0, 1.0]])  # f = 1, 0.91, 0.75, -1
    flows = integrate_ensemble(f, Z, rows[:3], "descend", 0.5, stops=())
    assert set(flows.termination.tolist()) == {"reach_level"}
    with pytest.raises(ValueError, match=r"^member 2: target level 0\.8 is on the wrong side of f\(x0\) = 0\.75 for descend$"):
        integrate_ensemble(f, Z, rows, "descend", 0.8, stops=())
    with pytest.raises(ValueError, match=r"^member 0: target level 0\.8 .* for ascend$"):
        integrate_ensemble(f, Z, rows, "ascend", 0.8, stops=())
    with pytest.raises(ValueError, match="^member 1: "):
        integrate_ensemble(f, Z, rows[[3, 0]], "ascend", 0.95, stops=())
    # per member: member 1 ascends from 0.91 to 0.5; a member with no level is never on the wrong side
    with pytest.raises(ValueError, match="^member 1: .* for ascend$"):
        integrate_ensemble(f, Z, rows[:2], ["descend", "ascend"], [0.5, 0.5], stops=())
    flows = integrate_ensemble(f, Z, rows[:2], ["descend", "ascend"], [0.5, None], [ArcBudget(1.0)])
    assert flows.termination[0] == "reach_level" and flows.final_f[1] > 0.91
    # a NaN level is a target that no flow can reach, not a missing one
    with pytest.raises(ValueError, match="^member 0: target level nan"):
        integrate_ensemble(f, Z, rows[:1], "descend", float("nan"), stops=())


@pytest.mark.parametrize("direction", ["descend", "ascend"])
@pytest.mark.parametrize("offset", [-0.5, 0.0, 0.5])
def test_a_start_within_level_tol_of_its_target_ends_at_once(saddle, direction, offset):
    f, Z = saddle
    level = 1.0 + offset * Z.level_tol  # f(1, 0) = 1, on either side of it by half the tolerance
    traj = integrate_ensemble(f, Z, [[1.0, 0.0]], direction, level, stops=(), record=True).recorded[0]
    assert traj.termination == "reach_level"
    assert (traj.n_samples, traj.n_accepted, traj.n_rejected) == (1, 0, 0)
    assert traj.final_f == 1.0
    beyond = 1.0 + (3.0 if direction == "descend" else -3.0) * Z.level_tol
    with pytest.raises(ValueError, match="^member 0: .* wrong side"):
        integrate_ensemble(f, Z, [[1.0, 0.0]], direction, beyond, stops=())


# -- the ensemble integrator ---------------------------------------------

PROBLEMS = Path(__file__).resolve().parent / "problems"


def ensemble_case(name, quartic, cone, planes_lift):
    """(f, Z, starts, directions, levels): mixed directions, targets and no targets."""
    if name == "quartic":  # m = 0
        f, Z = quartic
        starts = np.array([[0.3], [0.9], [-0.5], [1.2]])
    elif name == "cone":  # m = 1
        f, Z = cone
        starts = np.array([Z.retract(p) for p in
                           ([0.5, 0.5, 0.7], [0.3, -0.2, 0.4], [-0.4, 0.1, 0.5], [0.2, 0.6, -0.6])])
    else:  # m = 2
        f, Z = planes_lift
        starts = np.array([[0.7, 0.0, 0.0], [0.0, 0.5, 0.0], [-0.4, 0.0, 0.0], [0.0, -1.1, 0.0]])
    values = [float(f.evaluate(p)) for p in starts]
    directions = ["descend", "ascend", "descend", "ascend"]
    levels = [values[0] - 0.1, values[1] + 0.1, None, None]
    return f, Z, starts, directions, levels


@pytest.mark.parametrize("name", ["quartic", "cone", "planes-lift"])
def test_ensemble_member_is_bit_identical_to_integrate(name, quartic, cone, planes_lift):
    f, Z, starts, directions, levels = ensemble_case(name, quartic, cone, planes_lift)
    ends = {}
    for limit in (5.0, 0.01):  # the tight arc budget ends members that the loose one lets land
        stops = [Converged(1e-3), ArcBudget(limit)]
        flows = integrate_ensemble(f, Z, starts, directions, levels, stops, record=True)
        for x0, direction, level, traj in zip(starts, directions, levels, flows.recorded.values()):
            reach = [] if level is None else [ReachLevel(level)]
            one = integrate(f, Z, x0, direction, stops + reach)
            assert traj.termination == one.termination
            assert (traj.n_accepted, traj.n_rejected) == (one.n_accepted, one.n_rejected)
            assert one.n_accepted == one.n_samples - 1
            for column in ("t", "y", "f", "grad_norm", "arc"):
                assert np.array_equal(getattr(traj, column), getattr(one, column))
        ends[limit] = set(flows.termination.tolist())
    assert "reach_level" in ends[5.0] and "arc_budget" in ends[0.01]


def ending_case(name, quartic, cone, planes_lift):
    """(f, Z, points, stops, max_steps) for 14 points, each flowing down and up, with no level and to one 0.2 away.

    With MAX_STEPS at max_steps, the 56 members end reach_level, converged,
    left_box, arc_budget and step_limit, at many different iterations.
    """
    if name == "quartic":
        f, Z = quartic
        points = np.linspace(-1.3, 1.3, 14)[:, None]
        return f, Z, points, [Converged(1e-3), ArcBudget(0.8)], 50
    if name == "cone":  # the members on the line x = z, y = 0 are captured at the vertex
        f, Z = cone
        r = np.linspace(0.2, 1.4, 7)
        points = np.array([[v, 0.0, v] for v in r] + [Z.retract([v, 0.3 * v, 1.1 * v]) for v in r])
        return f, Z, points, [Converged(1e-8), ArcBudget(3.0), Capture((0.0, 0.0, 0.0), 1e-2)], 40
    if name == "long-tail":  # the stiff descent from (0.3, 0.03) steps on long after every other member ends
        f = parse_polynomial("x^4 + 500*y^2", ["x", "y"])
        Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-1.5, 1.5), (-1.5, 1.5)))
        points = np.array([[v, 0.0] for v in np.linspace(-1.3, 1.3, 13)] + [[0.3, 0.03]])
        return f, Z, points, [Converged(1e-3), ArcBudget(0.8)], 700
    f, Z = planes_lift
    r = np.linspace(0.05, 1.5, 7)
    points = np.array([[v, 0.0, 0.0] for v in r] + [[0.0, -v, 0.0] for v in r])
    return f, Z, points, [Converged(1e-8), ArcBudget(1.2)], 65


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["quartic", "cone", "planes-lift", "long-tail"])
def test_members_ending_at_different_iterations_each_match_integrate(name, quartic, cone, planes_lift,
                                                                     monkeypatch):
    f, Z, points, stops, max_steps = ending_case(name, quartic, cone, planes_lift)
    monkeypatch.setattr(flow, "MAX_STEPS", max_steps)
    starts = np.repeat(points, 4, axis=0)
    directions = ["descend", "descend", "ascend", "ascend"] * len(points)
    levels = [lv for v in f.evaluate(points) for lv in (None, v - 0.2, None, v + 0.2)]
    record = np.arange(len(starts)) % 5 == 0
    flows = integrate_ensemble(f, Z, starts, directions, levels, stops, record)
    assert list(flows.recorded) == np.flatnonzero(record).tolist()
    attempts = {}
    for i, (x0, direction, level) in enumerate(zip(starts, directions, levels)):
        one = integrate(f, Z, x0, direction, stops + ([] if level is None else [ReachLevel(level)]))
        assert flows.termination[i] == one.termination
        assert (flows.n_accepted[i], flows.n_rejected[i]) == (one.n_accepted, one.n_rejected)
        assert np.array_equal(flows.endpoint[i], one.endpoint)
        assert (flows.final_f[i], flows.total_arc[i]) == (one.final_f, one.total_arc)
        if record[i]:
            for column in ("t", "y", "f", "grad_norm", "arc"):
                assert np.array_equal(getattr(flows.recorded[i], column), getattr(one, column))
        attempts.setdefault(one.termination, set()).add(one.n_accepted + one.n_rejected)
    for term in ("reach_level", "converged", "left_box", "arc_budget", "step_limit"):
        assert term in attempts
    assert attempts["step_limit"] == {max_steps}
    assert len(set().union(*attempts.values())) >= 10
    if name == "long-tail":
        # every other member, the crossings among them, ends 500 attempts before the stiff descent
        longest, runner_up = sorted((flows.n_accepted + flows.n_rejected).tolist())[:-3:-1]
        assert longest == max_steps and longest - runner_up >= 500

    # the same members in another order end the same, bit for bit
    order = np.random.default_rng(7).permutation(len(starts))
    shuffled = integrate_ensemble(f, Z, starts[order], [directions[i] for i in order],
                                  [levels[i] for i in order], stops, record[order])
    assert shuffled.termination.tolist() == flows.termination[order].tolist()
    for field in ("n_accepted", "n_rejected", "endpoint", "final_f", "total_arc"):
        assert np.array_equal(getattr(shuffled, field), getattr(flows, field)[order])
    for k, traj in shuffled.recorded.items():
        for column in ("t", "y", "f", "grad_norm", "arc"):
            assert np.array_equal(getattr(traj, column), getattr(flows.recorded[order[k]], column))


class TestCapture:
    ORIGIN = (0.0, 0.0, 0.0)

    def test_flow_through_the_point_ends_converged_there(self, cone):
        # without the capture this flow runs through the vertex onto the other nappe
        f, Z = cone
        free = integrate(f, Z, [0.5, 0.0, 0.5], "descend", [Converged(1e-8)])
        assert free.final_f < -0.1
        traj = integrate(f, Z, [0.5, 0.0, 0.5], "descend", [Converged(1e-8), Capture(self.ORIGIN, 1e-5)])
        assert traj.termination == "converged"
        assert np.array_equal(traj.endpoint, self.ORIGIN) and traj.final_f == 0.0
        assert traj.n_accepted == traj.n_samples - 1

    def test_back_flow_to_the_level_of_the_point_is_captured_not_landed(self, cone):
        f, Z = cone
        traj = integrate(f, Z, [-0.1, 0.0, 0.1], "ascend",
                         [ReachLevel(0.0), Converged(1e-8), Capture(self.ORIGIN, 1e-5)])
        assert traj.termination == "converged"
        assert np.array_equal(traj.endpoint, self.ORIGIN)

    def test_descent_that_starts_below_the_point_is_never_captured(self, cone):
        # the chord of the first step passes within the radius, but f(point)
        # lies above both of its f values
        f, Z = cone
        stops = [Converged(1e-8), ArcBudget(5.0)]
        free = integrate(f, Z, [-0.01, 0.0, 0.01], "descend", stops)
        traj = integrate(f, Z, [-0.01, 0.0, 0.01], "descend", stops + [Capture(self.ORIGIN, 1.0)])
        assert traj.termination == free.termination == "left_box"
        for column in ("t", "y", "f", "grad_norm", "arc"):
            assert np.array_equal(getattr(traj, column), getattr(free, column))

    def test_ensemble_member_with_a_capture_is_bit_identical_to_integrate(self, cone):
        f, Z = cone
        starts = np.array([[0.5, 0.0, 0.5], [-0.1, 0.0, 0.1], Z.retract([0.3, -0.2, 0.4]), [-0.01, 0.0, 0.01]])
        directions = ["descend", "ascend", "descend", "descend"]
        levels = [None, 0.0, 0.1, None]
        stops = [Converged(1e-8), Capture(self.ORIGIN, 1e-5)]
        flows = integrate_ensemble(f, Z, starts, directions, levels, stops, record=True)
        for x0, direction, level, traj in zip(starts, directions, levels, flows.recorded.values()):
            one = integrate(f, Z, x0, direction, stops + ([] if level is None else [ReachLevel(level)]))
            assert traj.termination == one.termination
            assert (traj.n_accepted, traj.n_rejected) == (one.n_accepted, one.n_rejected)
            for column in ("t", "y", "f", "grad_norm", "arc"):
                assert np.array_equal(getattr(traj, column), getattr(one, column))
        assert flows.termination.tolist() == ["converged", "converged", "reach_level", "left_box"]


def test_unrecorded_member_ends_as_integrate_does(saddle):
    f, Z = saddle
    starts = np.array([[1.0, 0.3], [0.9, 0.5]])
    flows = integrate_ensemble(f, Z, starts, "descend", -0.5, (), record=[True, False])
    again = integrate(f, Z, starts[1], "descend", [ReachLevel(-0.5)])
    assert list(flows.recorded) == [0]
    assert flows.recorded[0].n_samples == flows.n_accepted[0] + 1 > 2
    assert flows.termination[1] == again.termination == "reach_level"
    assert (flows.n_accepted[1], flows.n_rejected[1]) == (again.n_accepted, again.n_rejected)
    assert same_bits(flows.endpoint[1], again.endpoint)
    assert same_bits(flows.final_f[1], again.f[-1]) and same_bits(flows.total_arc[1], again.arc[-1])


def test_start_off_z_is_named_by_its_row(cone):
    f, Z = cone
    starts = np.array([Z.retract(p) for p in ([0.5, 0.5, 0.7], [0.3, -0.2, 0.4], [0.2, 0.6, -0.6])])
    starts = np.insert(starts, 2, [0.5, 0.5, 0.5], axis=0)  # residual 0.25
    starts = np.vstack([starts, [[0.1, 0.0, 0.0]]])  # a second bad row; the first is named
    with pytest.raises(ValueError, match=r"start point 2 at \[0\.5, 0\.5, 0\.5\] is not on Z"):
        integrate_ensemble(f, Z, starts, "descend", levels=None, stops=())
    starts[2] = [0.5, 0.5, 3.0]  # on no cone point, and outside the box
    with pytest.raises(ValueError, match="start point 2 at"):
        integrate_ensemble(f, Z, starts, "descend", levels=None, stops=())


def test_ensemble_validates_every_member_before_stepping(saddle):
    f, Z = saddle
    with pytest.raises(ValueError, match="wrong side"):
        integrate_ensemble(f, Z, [[1.0, 0.3], [1.0, 0.0]], "descend", [-0.5, 2.0], stops=())
    with pytest.raises(ValueError, match="not on Z"):
        integrate_ensemble(f, Z, [[1.0, 0.3], [5.0, 0.0]], "descend", levels=None, stops=())
    with pytest.raises(ValueError, match="direction"):
        integrate_ensemble(f, Z, [[1.0, 0.3]], ["sideways"], levels=None, stops=())
    empty = integrate_ensemble(f, Z, np.zeros((0, 2)), directions="descend", levels=None, stops=(), record=True)
    assert empty.termination.shape == empty.final_f.shape == (0,) and empty.endpoint.shape == (0, 2)
    assert empty.recorded == {}


coordinate = st.floats(-1.5, 1.5, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=6))
def test_batched_retraction_never_increases_a_residual(points):
    f, Z = problem_objects(load_problem(PROBLEMS / "planes-lift.json"))
    X = np.array(points)
    before = [Z.residual(x) for x in X]
    out, ok = Z.retract_batch(X)
    for x, r0, good in zip(out, before, ok):
        assert Z.residual(x) <= r0
        assert not good or Z.residual(x) <= Z.retract_tol


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6),
       st.tuples(coordinate, coordinate, coordinate), st.tuples(coordinate, coordinate, coordinate))
def test_batched_projection_is_idempotent_and_orthogonal(points, v, w):
    # on the lifted planes (m = 2) the rank cut matters at the origin
    f, Z = problem_objects(load_problem(PROBLEMS / "planes-lift.json"))
    X = np.array([[a, 0.0, 0.0] if i % 2 else [0.0, b, 0.0] for i, (a, b) in enumerate(points)])
    X[0] = 0.0
    V, W = np.tile(v, (len(X), 1)), np.tile(w, (len(X), 1))
    PV, rank = Z.tangent_project_batch(X, V)
    PW, _ = Z.tangent_project_batch(X, W)
    PPV, _ = Z.tangent_project_batch(X, PV)
    assert rank[0] == 1
    assert np.allclose(PPV, PV, atol=1e-12)
    assert np.allclose(np.sum(PV * (W - PW), axis=1), 0.0, atol=1e-12)
    for x, pv in zip(X, PV):
        assert np.allclose(Z.tangent_project(x, v), pv, atol=1e-15)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.floats(0.05, 1.5), st.sampled_from(["x", "y"]),
                          st.sampled_from(["descend", "ascend"])), min_size=1, max_size=4))
def test_recorded_members_keep_the_flow_invariants(starts):
    f, Z = problem_objects(load_problem(PROBLEMS / "planes-lift.json"))
    X0 = np.array([[r, 0.0, 0.0] if axis == "x" else [0.0, r, 0.0] for r, axis, _ in starts])
    directions = [d for _, _, d in starts]
    values = [float(f.evaluate(x)) for x in X0]
    levels = [v - 0.01 if d == "descend" else v + 0.01 for v, d in zip(values, directions)]
    flows = integrate_ensemble(f, Z, X0, directions, levels, [Converged(1e-8)], record=True)
    for traj, direction, level in zip(flows.recorded.values(), directions, levels):
        steps = np.diff(traj.f) * (1.0 if direction == "descend" else -1.0)
        assert np.all(steps <= Z.level_tol)
        assert all(Z.is_member(y) for y in traj.y)
        if traj.termination == "reach_level":
            assert abs(traj.final_f - level) <= Z.level_tol


def test_step_limit_ends_each_member_on_its_own_count(saddle, monkeypatch):
    f, Z = saddle
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    flows = integrate_ensemble(f, Z, [[1.0, 0.3], [0.0, 0.0], [0.9, 0.5]], "descend",
                               levels=None, stops=[Converged(1e-8)])
    assert flows.termination.tolist() == ["step_limit", "converged", "step_limit"]
    assert (flows.n_accepted + flows.n_rejected).tolist() == [3, 0, 3]


def test_step_limit_counts_rejected_attempts(monkeypatch):
    # the saddle above rejects no step; the quartic ascent from 0.034 rejects
    # 1 of its first 60 attempts, and the cap counts it too
    f, Z = named_problem("quartic")
    monkeypatch.setattr(flow, "MAX_STEPS", 60)
    flows = integrate_ensemble(f, Z, [[0.034], [0.5]], "ascend", levels=1.0, stops=())
    assert flows.termination.tolist() == ["step_limit", "reach_level"]
    assert list(zip(flows.n_accepted.tolist(), flows.n_rejected.tolist())) == [(59, 1), (17, 0)]
    assert flows.n_rejected[0] > 0


# -- step growth after a rejection: SAFETY_AFTER_REJECTION ---------------


def quartic_ascent():
    f, Z = named_problem("quartic")
    return integrate(f, Z, [0.034], "ascend", [ReachLevel(1.0)])


def test_quartic_ascent_stops_cycling_between_accepted_and_rejected_steps():
    # along x' = 4x^3 the error grows faster than the h^5 model, so growing
    # by SAFETY = 0.9 after a rejection failed about every second step
    # (70 accepted and 46 rejected); the smaller growth factor fails once
    traj = quartic_ascent()
    assert traj.termination == "reach_level"
    assert traj.n_rejected <= 5
    assert traj.n_accepted + traj.n_rejected <= 80


def test_after_rejection_growth_leaves_rejection_free_flows_bit_for_bit(monkeypatch):
    # a member that never fails its error test steps by SAFETY alone, so
    # giving the after-rejection rule the same factor changes none of its
    # bits; the quartic ascent, which fails once, then cycles as before
    f, Z = named_problem("saddle")
    X, directions, levels = band_starts(f, Z, 24)
    flows = integrate_ensemble(f, Z, X, directions, levels, [Converged(1e-8)], record=True)
    ascent = quartic_ascent()
    assert not flows.n_rejected.any()
    monkeypatch.setattr(flow, "SAFETY_AFTER_REJECTION", flow.SAFETY)
    same = integrate_ensemble(f, Z, X, directions, levels, [Converged(1e-8)], record=True)
    for traj, other in zip(flows.recorded.values(), same.recorded.values()):
        assert traj.termination == other.termination
        assert (traj.n_accepted, traj.n_rejected) == (other.n_accepted, other.n_rejected)
        for a, b in zip((traj.t, traj.y, traj.f, traj.grad_norm, traj.arc),
                        (other.t, other.y, other.f, other.grad_norm, other.arc)):
            assert a.tobytes() == b.tobytes()
    cycling = quartic_ascent()
    assert (cycling.n_accepted, cycling.n_rejected) == (70, 46)
    assert cycling.y.tobytes() != ascent.y.tobytes()


@pytest.mark.parametrize("x0", [0.1, 0.003, -0.05])
def test_stable_descent_into_a_rank_drop_rejects_no_step(x0):
    # on {xy = 0, z = 0} the xy row (y, x, 0) falls below RANK_TOL beside the
    # unit z row as the flow reaches the saddle, so the rank of Dg drops from
    # 2 to 1 there; the projected field is smooth along the x axis, so the
    # step control has nothing to retry
    f, Z = named_problem("planes-lift")
    traj = integrate(f, Z, [x0, 0.0, 0.0], "descend", [Converged(1e-8)])
    assert traj.termination == "converged"
    assert Z.is_member(traj.y).all()
    assert np.all(np.diff(traj.f) <= Z.level_tol)
    assert traj.n_rejected == 0
    assert traj.n_accepted <= 50


# -- the projection-method step: stages off Z, only the endpoint retracted --


def named_problem(name):
    path = PROBLEMS / f"{name}.json"
    return problem_objects(load_problem(path) if path.exists() else builtin_problem(name))


def band_starts(f, Z, count):
    """count band points of Z, flowing alternately down and up to a level 0.5 away."""
    X = np.array(band_samples(f, Z, -0.6, 0.6, substream(3, "reference-step"), count))
    assert len(X) == count
    directions = ["descend", "ascend"] * (count // 2)
    levels = [v - 0.5 if d == "descend" else v + 0.5 for v, d in zip(f.evaluate(X), directions)]
    return X, directions, levels


@pytest.mark.parametrize("name", ["cone", "cone-lift", "planes-lift"])
def test_endpoint_retraction_ends_each_member_as_stage_retraction_did(name, monkeypatch):
    # the largest endpoint gap to the reference is 1.6e-9 (cone); the planes
    # keep their flows on the coordinate axes, where both agree bit for bit
    f, Z = named_problem(name)
    X, directions, levels = band_starts(f, Z, 24)
    flows = integrate_ensemble(f, Z, X, directions, levels, [Converged(1e-8)], record=True)
    monkeypatch.setattr(_Field, "advance", stage_retracting_advance.advance)
    reference = integrate_ensemble(f, Z, X, directions, levels, [Converged(1e-8)], record=True)
    for traj, ref in zip(flows.recorded.values(), reference.recorded.values()):
        assert traj.termination == ref.termination
        assert np.linalg.norm(traj.endpoint - ref.endpoint) <= 1e-8
        assert Z.is_member(traj.y).all() and (Z.residual(traj.y) <= Z.retract_tol).all()
    assert "reach_level" in flows.termination.tolist()


class SpaceLayerField(_Field):
    """The field with every projection and retraction called, as on a constrained Z."""

    def __init__(self, f, Z):
        super().__init__(f, Z)
        self.constrained, self.projected_grad = True, self._projected_grad


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_flows(flows, reference):
    """Two ensembles end alike and record alike, bit for bit."""
    assert flows.termination.tolist() == reference.termination.tolist()
    for field in ("n_accepted", "n_rejected", "endpoint", "final_f", "total_arc"):
        assert same_bits(getattr(flows, field), getattr(reference, field))
    assert list(flows.recorded) == list(reference.recorded)
    for traj, ref in zip(flows.recorded.values(), reference.recorded.values()):
        assert (traj.direction, traj.termination, traj.n_accepted, traj.n_rejected) == \
            (ref.direction, ref.termination, ref.n_accepted, ref.n_rejected)
        for column in ("t", "y", "f", "grad_norm", "arc"):
            assert same_bits(getattr(traj, column), getattr(ref, column))


@pytest.mark.parametrize("name", ["quartic", "cone", "planes-lift", "wells"])
def test_ensemble_arrays_equal_the_trajectories_it_builds(name):
    # every third member is recorded; members 0 and 1, one recorded and one
    # not, start on their levels and accept no step
    f, Z = named_problem(name)
    X, directions, levels = band_starts(f, Z, 24)
    levels[:2] = f.evaluate(X[:2]).tolist()
    record = np.arange(24) % 3 == 0
    flows = integrate_ensemble(f, Z, X, directions, levels, [Converged(1e-4)], record)
    assert flows.termination.shape == flows.n_accepted.shape == flows.total_arc.shape == (24,)
    assert flows.endpoint.shape == (24, Z.ambient_dim)
    # recorded holds the members in record, in member order, each with every accepted
    # sample, its last one the arrays' row
    assert list(flows.recorded) == np.flatnonzero(record).tolist()
    for i, traj in flows.recorded.items():
        assert type(traj.termination) is str and traj.termination == flows.termination[i]
        assert traj.direction == directions[i]
        assert (traj.n_accepted, traj.n_rejected) == (flows.n_accepted[i], flows.n_rejected[i])
        assert traj.n_samples == flows.n_accepted[i] + 1
        assert same_bits(traj.endpoint, flows.endpoint[i])
        assert same_bits(traj.f[-1], flows.final_f[i]) and same_bits(traj.arc[-1], flows.total_arc[i])
    assert flows.recorded[0].n_samples == 1 and flows.n_accepted[1] == 0
    empty = integrate_ensemble(f, Z, X[:0], "descend", None, [Converged(1e-4)], record=True)
    for field in ("termination", "n_accepted", "n_rejected", "final_f", "total_arc"):
        assert getattr(empty, field).shape == (0,)
    assert empty.endpoint.shape == (0, Z.ambient_dim) and empty.recorded == {}


@pytest.mark.parametrize("name, constrained", [("saddle", 0), ("cone", 1), ("cone-lift", 1), ("planes-lift", 1)])
def test_a_step_retracts_once_on_a_constrained_z_and_never_on_rn(name, constrained, monkeypatch):
    # on a constrained Z a step makes one retract_batch call over all rows; on
    # R^n it calls neither retract_batch nor tangent_project_batch, evaluates
    # no g, and takes the step the space layer's identities take, bit for bit
    f, Z = named_problem(name)
    X, directions, _ = band_starts(f, Z, 6)
    calls, projections, g_rows = [], [], []
    retract_batch, project = SingularSpace.retract_batch, SingularSpace.tangent_project_batch
    evaluate = PolynomialSystem.evaluate

    def counted(self, Y, *args, **kwargs):
        out = retract_batch(self, Y, *args, **kwargs)
        calls.append((Y.copy(), out[0].copy()))
        return out

    def counted_project(self, Y, V):
        projections.append(len(Y))
        return project(self, Y, V)

    def counted_g(self, Y):
        if self is Z.constraints:
            g_rows.append(len(Y))
        return evaluate(self, Y)

    monkeypatch.setattr(SingularSpace, "retract_batch", counted)
    monkeypatch.setattr(SingularSpace, "tangent_project_batch", counted_project)
    monkeypatch.setattr(PolynomialSystem, "evaluate", counted_g)
    fld = _Field(f, Z)
    sign = np.array([-1.0 if d == "descend" else 1.0 for d in directions])
    K1 = sign[:, None] * fld.projected_grad(X)
    step = fld.advance(X, K1, np.full(6, 0.05), sign)
    y_new, _, ok = step
    assert ok.all() and Z.is_member(y_new).all()
    assert bool(constrained) == (len(Z.constraints) > 0) == bool(g_rows)
    if constrained:
        assert [len(y) for y, _ in calls] == [6]
        assert projections == [6] * 6
        return
    assert calls == [] and projections == []
    forced = SpaceLayerField(f, Z)
    K1_forced = sign[:, None] * forced.projected_grad(X)
    forced_step = forced.advance(X, K1_forced, np.full(6, 0.05), sign)
    assert [len(y) for y, _ in calls] == [6] and projections == [6] * 6 and not g_rows
    (y5, out), = calls
    assert same_bits(out, y5) and same_bits(K1, K1_forced)
    for ours, theirs in zip(step, forced_step):
        assert same_bits(ours, theirs)


def condition2_flows(f, Z):
    """Condition 2's ensemble, with its first flow of each direction recorded for a collect dict."""
    ensembles, real = [], levelmap.integrate_ensemble

    def spy(*args, **kwargs):
        ensembles.append(real(*args, **kwargs))
        return ensembles[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(levelmap, "integrate_ensemble", spy)
        check_condition2(f, Z, -1.0, 1.0, seed=0, collect={})
    (flows,) = ensembles
    return flows


def test_rn_ensembles_equal_the_ensembles_through_the_space_layer(quartic, saddle, monkeypatch):
    # condition 2's 400 band flows on the quartic and the saddle, two of them
    # recorded as the pipeline keeps them; then classify's saddle witnesses, a
    # recorded descent and a captured back-flow from each of six probes below
    # the saddle of x^2 - y^2
    angles = np.pi / 2 + np.array([-0.6, 0.0, 0.6, np.pi - 0.6, np.pi, np.pi + 0.6])
    probes = PROBE_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    witnesses = dict(X0=np.repeat(probes, 2, axis=0), directions=["descend", "ascend"] * 6,
                     levels=[None, 0.0] * 6, record=[True, False] * 6,
                     stops=[Converged(1e-8), ArcBudget(max(50.0 * PROBE_RADIUS, 1.0)),
                            Capture((0.0, 0.0), PROBE_RADIUS)])

    def ensembles():
        flows = [condition2_flows(*quartic), condition2_flows(*saddle)]
        return flows + [integrate_ensemble(*saddle, **witnesses)]

    assert not len(quartic[1].constraints) and not len(saddle[1].constraints)
    assert (saddle[0].evaluate(probes) < 0.0).all()
    flows = ensembles()
    assert [len(ens.termination) for ens in flows] == [400, 400, 12]
    assert "converged" in flows[0].termination.tolist() and "reach_level" in flows[1].termination.tolist()
    assert (flows[2].termination[1::2] == "converged").all() and not flows[2].endpoint[1::2].any()
    assert list(flows[2].recorded) == list(range(0, 12, 2))
    assert all(t.n_samples > 2 for t in flows[2].recorded.values())
    monkeypatch.setattr(flow, "_Field", SpaceLayerField)
    for ours, forced in zip(flows, ensembles()):
        assert_same_flows(ours, forced)


# -- the landing: regula falsi against tests/bisection_landing.py --------


@pytest.mark.parametrize("name", ["saddle", "quartic", "cone", "planes-lift"])
def test_landing_lands_every_row_the_bisection_lands_in_few_rounds(name, monkeypatch):
    f, Z = named_problem(name)
    X, directions, levels = band_starts(f, Z, 24)
    rounds, landing = [], [False]
    advance, land = _Field.advance, flow._land

    def counted_advance(self, *args):
        if landing[0]:
            rounds[-1] += 1
        return advance(self, *args)

    def counted_land(*args):
        rounds.append(0)
        landing[0] = True
        result = land(*args)
        landing[0] = False
        return result

    monkeypatch.setattr(_Field, "advance", counted_advance)
    monkeypatch.setattr(flow, "_land", counted_land)
    # the quartic's descents below its minimum converge, slowly, at 1e-8
    stops = [Converged(1e-4)]
    flows = integrate_ensemble(f, Z, X, directions, levels, stops)
    monkeypatch.setattr(flow, "_land", bisection_landing.land)
    reference = integrate_ensemble(f, Z, X, directions, levels, stops)
    assert flows.termination.tolist() == reference.termination.tolist()
    assert "reach_level" in reference.termination.tolist()
    for term, final_f, level in zip(flows.termination, flows.final_f, levels):
        if term == "reach_level":
            assert abs(final_f - level) <= Z.level_tol
    assert rounds and max(rounds) <= 6
