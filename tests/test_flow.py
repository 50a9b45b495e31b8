from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stage_retracting_advance
from morseflow import flow
from morseflow.cli import builtin_problem, load_problem, problem_objects
from morseflow.flow import (
    INCONCLUSIVE_TERMINATIONS,
    ArcBudget,
    Converged,
    ReachLevel,
    _Field,
    check_level_target,
    integrate,
    integrate_ensemble,
    trajectory_csv_text,
)
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


def test_step_control_max_step_is_honoured(saddle):
    f, Z = saddle
    traj, = integrate_ensemble(f, Z, [[1.0, 0.0]], "descend", stops=[ArcBudget(0.1)], max_step=1e-3, record=True)
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


def test_overflowing_step_is_rejected_not_recorded():
    # from (1, 1) every step from the first, 1e100 / 64, down to the
    # smallest, 1e-12 * 1e100, overflows, and its error is NaN
    f = parse_polynomial("x^4 + y^4", ["x", "y"])
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-2.0, 2.0), (-2.0, 2.0)))
    with np.errstate(all="ignore"):
        traj, = integrate_ensemble(f, Z, [[1.0, 1.0]], "descend", stops=[ArcBudget(10.0)], max_step=1e100,
                                   record=True)
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


def test_level_target_check_names_the_first_wrong_row(saddle):
    f, _ = saddle
    rows = np.array([[1.0, 0.0], [1.0, 0.3], [1.0, 0.5], [0.0, 1.0]])  # f = 1, 0.91, 0.75, -1
    check_level_target(f, rows[:3], 0.5, "descend")
    with pytest.raises(ValueError, match="at row 2$"):
        check_level_target(f, rows, 0.8, "descend")
    with pytest.raises(ValueError, match="at row 0$"):
        check_level_target(f, rows, 0.8, "ascend")
    with pytest.raises(ValueError, match="not above .* at row 1$"):
        check_level_target(f, rows[[3, 0]], 0.95, "ascend")


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
        for x0, direction, level, traj in zip(starts, directions, levels, flows):
            reach = [] if level is None else [ReachLevel(level)]
            one = integrate(f, Z, x0, direction, stops + reach)
            assert traj.termination == one.termination
            assert (traj.n_accepted, traj.n_rejected) == (one.n_accepted, one.n_rejected)
            assert one.n_accepted == one.n_samples - 1
            for column in ("t", "y", "f", "grad_norm", "arc"):
                assert np.array_equal(getattr(traj, column), getattr(one, column))
        ends[limit] = {t.termination for t in flows}
    assert "reach_level" in ends[5.0] and "arc_budget" in ends[0.01]


def test_unrecorded_member_keeps_start_and_end(saddle):
    f, Z = saddle
    starts = np.array([[1.0, 0.3], [0.9, 0.5]])
    full, bare = integrate_ensemble(f, Z, starts, "descend", -0.5, record=[True, False])
    again = integrate(f, Z, starts[1], "descend", [ReachLevel(-0.5)])
    assert full.n_samples == full.n_accepted + 1 > 2
    assert bare.n_samples == 2
    assert bare.n_accepted == again.n_accepted
    assert bare.termination == again.termination == "reach_level"
    for column in ("t", "y", "f", "grad_norm", "arc"):
        kept = getattr(again, column)
        assert np.array_equal(getattr(bare, column), kept[[0, -1]])


def test_start_off_z_is_named_by_its_row(cone):
    f, Z = cone
    starts = np.array([Z.retract(p) for p in ([0.5, 0.5, 0.7], [0.3, -0.2, 0.4], [0.2, 0.6, -0.6])])
    starts = np.insert(starts, 2, [0.5, 0.5, 0.5], axis=0)  # residual 0.25
    starts = np.vstack([starts, [[0.1, 0.0, 0.0]]])  # a second bad row; the first is named
    with pytest.raises(ValueError, match=r"start point 2 at \[0\.5, 0\.5, 0\.5\] is not on Z"):
        integrate_ensemble(f, Z, starts, "descend")
    starts[2] = [0.5, 0.5, 3.0]  # on no cone point, and outside the box
    with pytest.raises(ValueError, match="start point 2 at"):
        integrate_ensemble(f, Z, starts, "descend")


def test_ensemble_validates_every_member_before_stepping(saddle):
    f, Z = saddle
    with pytest.raises(ValueError, match="wrong side"):
        integrate_ensemble(f, Z, [[1.0, 0.3], [1.0, 0.0]], "descend", [-0.5, 2.0])
    with pytest.raises(ValueError, match="not on Z"):
        integrate_ensemble(f, Z, [[1.0, 0.3], [5.0, 0.0]], "descend")
    with pytest.raises(ValueError, match="direction"):
        integrate_ensemble(f, Z, [[1.0, 0.3]], ["sideways"])
    assert integrate_ensemble(f, Z, np.zeros((0, 2))) == []


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
    for traj, direction, level in zip(flows, directions, levels):
        steps = np.diff(traj.f) * (1.0 if direction == "descend" else -1.0)
        assert np.all(steps <= Z.level_tol)
        assert all(Z.is_member(y) for y in traj.y)
        if traj.termination == "reach_level":
            assert abs(traj.final_f - level) <= Z.level_tol


def test_step_limit_ends_each_member_on_its_own_count(saddle, monkeypatch):
    f, Z = saddle
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    flows = integrate_ensemble(f, Z, [[1.0, 0.3], [0.0, 0.0], [0.9, 0.5]], "descend",
                               stops=[Converged(1e-8)])
    assert [t.termination for t in flows] == ["step_limit", "converged", "step_limit"]
    assert [t.n_accepted + t.n_rejected for t in flows] == [3, 0, 3]


# -- the projection-method step: stages off Z, only the endpoint retracted --


def named_problem(name):
    spec = load_problem(PROBLEMS / f"{name}.json") if name.endswith("-lift") else builtin_problem(name)
    return problem_objects(spec)


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
    for traj, ref in zip(flows, reference):
        assert traj.termination == ref.termination
        assert np.linalg.norm(traj.endpoint - ref.endpoint) <= 1e-8
        assert Z.is_member(traj.y).all() and (Z.residual(traj.y) <= Z.retract_tol).all()
    assert "reach_level" in {t.termination for t in flows}


@pytest.mark.parametrize("name, calls", [("saddle", 0), ("cone", 1), ("cone-lift", 1), ("planes-lift", 1)])
def test_a_step_retracts_once_on_a_constrained_z_and_never_on_rn(name, calls, monkeypatch):
    f, Z = named_problem(name)
    X, directions, _ = band_starts(f, Z, 6)
    rows = []
    retract_batch = SingularSpace.retract_batch

    def counted(self, Y, *args, **kwargs):
        rows.append(len(Y))
        return retract_batch(self, Y, *args, **kwargs)

    monkeypatch.setattr(SingularSpace, "retract_batch", counted)
    fld = _Field(f, Z)
    sign = np.array([-1.0 if d == "descend" else 1.0 for d in directions])
    y_new, _, ok = fld.advance(X, sign[:, None] * fld.projected_grad(X)[0], np.full(6, 0.05), sign)
    assert rows == [6] * calls
    assert ok.all() and Z.is_member(y_new).all()
