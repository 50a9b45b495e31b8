import dataclasses
from pathlib import Path

import numpy as np
import pytest

from morseflow import critical
from morseflow.cli import builtin_problem, load_problem, problem_objects
from morseflow.critical import (
    CLUSTER_TOL,
    CRIT_TOL,
    CriticalPoint,
    check_condition1,
    classify,
    find_critical_points,
)


def locations(cps):
    return sorted(tuple(round(c, 4) for c in cp.location) for cp in cps)


class TestFindCriticalPoints:
    def test_saddle_has_only_the_origin(self, saddle):
        f, Z = saddle
        cps = find_critical_points(f, Z)
        assert len(cps) == 1
        assert np.linalg.norm(cps[0].point()) < 1e-6
        assert abs(cps[0].value) < 1e-8

    def test_quartic_flat_minimum_found(self, quartic):
        f, Z = quartic
        cps = find_critical_points(f, Z)
        assert locations(cps) == [(0.0,)]

    def test_planes_crossing_point(self, planes):
        f, Z = planes
        cps = find_critical_points(f, Z)
        assert locations(cps) == [(0.0, 0.0)]

    def test_cone_vertex_is_the_only_fixed_point(self, cone):
        f, Z = cone
        cps = find_critical_points(f, Z)
        assert locations(cps) == [(0.0, 0.0, 0.0)]

    def test_every_point_is_on_variety_with_tiny_gradient(self, cone, planes):
        for f, Z in (cone, planes):
            for cp in find_critical_points(f, Z):
                assert Z.is_member(cp.point())
                assert cp.grad_norm < CRIT_TOL

    def test_finer_grid_adds_nothing_new(self, saddle):
        f, Z = saddle
        coarse = find_critical_points(f, Z, grid_density=5)
        fine = find_critical_points(f, Z, grid_density=11)
        assert len(fine) >= len(coarse)
        for cp in coarse:
            assert min(
                np.linalg.norm(cp.point() - other.point()) for other in fine
            ) < 1e-6

    def test_two_well_polynomial_finds_all_three(self):
        # x^2 (x - 0.1)^2 has fixed points at 0, 0.05, 0.1
        from morseflow.polynomial import PolynomialSystem, parse_polynomial
        from morseflow.space import SingularSpace

        f = parse_polynomial("x^4 - 0.2*x^3 + 0.01*x^2", ["x"])
        Z = SingularSpace(1, PolynomialSystem(["x"], ()), ((-0.2, 0.3),))
        cps = find_critical_points(f, Z, grid_density=11)
        assert locations(cps) == [(0.0,), (0.05,), (0.1,)]


class TestClassify:
    def test_saddle_origin(self, saddle):
        f, Z = saddle
        (cp,) = find_critical_points(f, Z)
        assert classify(f, Z, cp) == "saddle"

    def test_quartic_minimum(self, quartic):
        f, Z = quartic
        (cp,) = find_critical_points(f, Z)
        assert classify(f, Z, cp) == "minimum"

    def test_cone_vertex_saddle(self, cone):
        f, Z = cone
        (cp,) = find_critical_points(f, Z)
        assert classify(f, Z, cp) == "saddle"

    def test_planes_crossing_saddle(self, planes):
        f, Z = planes
        (cp,) = find_critical_points(f, Z)
        assert classify(f, Z, cp) == "saddle"

    def test_maximum_recognised(self, saddle):
        from morseflow.polynomial import parse_polynomial

        _, Z = saddle
        f = parse_polynomial("0 - x^2 - y^2", ["x", "y"])
        cp = CriticalPoint(location=(0.0, 0.0), value=0.0, grad_norm=0.0)
        assert classify(f, Z, cp) == "maximum"

    def test_rejects_non_critical_input(self, saddle):
        f, Z = saddle
        fake = CriticalPoint(location=(1.0, 0.0), value=1.0, grad_norm=2.0)
        with pytest.raises(ValueError):
            classify(f, Z, fake)

    def test_constant_objective_degenerate(self, saddle):
        from morseflow.polynomial import parse_polynomial

        _, Z = saddle
        f = parse_polynomial("0", ["x", "y"])
        cp = CriticalPoint(location=(0.3, 0.1), value=0.0, grad_norm=0.0)
        assert classify(f, Z, cp) == "degenerate"


class TestCondition1:
    def test_single_value_passes_with_infinite_gap(self):
        report = check_condition1([0.0])
        assert report.verdict == "pass"
        assert report.witnesses["min_gap"] == float("inf")

    def test_two_separated_values_pass(self):
        report = check_condition1([0.0, 1.0], gap_tol=0.1)
        assert report.verdict == "pass"
        assert report.witnesses["min_gap"] == 1.0

    def test_nearby_values_merge_to_one(self):
        report = check_condition1([0.0, 1e-9], value_merge_tol=1e-6)
        assert report.verdict == "pass"
        assert report.witnesses["n_values"] == 1

    def test_close_but_distinct_values_fail(self):
        report = check_condition1([0.0, 5e-5], gap_tol=1e-4)
        assert report.verdict == "fail"
        assert report.witnesses["min_gap"] == pytest.approx(5e-5)

    def test_accepts_critical_point_objects(self, saddle):
        f, Z = saddle
        report = check_condition1(find_critical_points(f, Z))
        assert report.verdict == "pass"
        assert report.witnesses["values"] == [pytest.approx(0.0, abs=1e-8)]

    def test_condition_number_in_payload(self):
        payload = check_condition1([0.0]).to_payload()
        assert payload["condition"] == 1
        assert payload["verdict"] == "pass"


class TestLevelSets:
    def test_values_grouped_by_merge_tolerance(self):
        cps = [
            CriticalPoint(location=(0.0,), value=0.0, grad_norm=0.0),
            CriticalPoint(location=(1.0,), value=1e-9, grad_norm=0.0),
            CriticalPoint(location=(2.0,), value=1.0, grad_norm=0.0),
        ]
        w = check_condition1(cps).witnesses
        assert (w["n_points"], w["n_values"]) == (3, 2)
        assert w["values"][0] == pytest.approx(0.0, abs=1e-9)
        assert w["values"][1] == 1.0


def test_critical_point_payload_and_replace(saddle):
    f, Z = saddle
    (cp,) = find_critical_points(f, Z)
    payload = cp.to_payload()
    assert set(payload) == {"location", "value", "grad_norm", "kind", "cluster_radius"}
    relabelled = dataclasses.replace(cp, kind="saddle")
    assert relabelled.kind == "saddle"
    assert relabelled.location == cp.location


PROBLEMS = Path(__file__).parent / "problems"


def planes_lift():
    return problem_objects(load_problem(PROBLEMS / "planes-lift.json"))


def line_jacobian(X):
    return np.ones((len(X), 1, 1))


class TestBatchedRefinement:
    @pytest.mark.parametrize("name", ["cone", "planes-lift", "cone-singular"])
    def test_each_row_matches_refining_it_alone(self, name, cone, monkeypatch):
        f, Z = planes_lift() if name == "planes-lift" else cone
        if name == "cone-singular":
            system = critical._singular_system(Z)
            resid, jac, X0 = system.evaluate, system.jacobian_at, critical._grid_seeds(Z, 3)
        else:
            starts, ok = Z.retract_batch(critical._grid_seeds(Z, 3))
            resid, jac, X0 = critical._smooth_residual(f, Z), None, starts[ok]
        kw = dict(jac=jac, max_step_len=2.0 * Z.box_diameter)
        X, _, good = critical._refine(resid, X0, 1e-12, **kw)
        assert good.any()
        for i in range(len(X0)):
            Xi, _, good_i = critical._refine(resid, X0[i:i + 1], 1e-12, **kw)
            assert good_i[0] == good[i]
            np.testing.assert_array_equal(Xi[0], X[i])
        # and whatever the block boundaries
        monkeypatch.setattr(critical, "REFINE_BLOCK", 4)
        X4, _, good4 = critical._refine(resid, X0, 1e-12, **kw)
        np.testing.assert_array_equal(X4, X)
        np.testing.assert_array_equal(good4, good)

    def test_non_finite_row_fails_alone(self):
        # root at x = 0.5; the residual is NaN beyond x = 5
        def resid(X):
            return np.where(X > 5.0, np.nan, X * X - 0.25)

        X0 = np.array([[1.0], [10.0], [2.0]])
        X, _, good = critical._refine(resid, X0, 1e-12)
        assert good.tolist() == [True, False, True]
        assert X[[0, 2], 0] == pytest.approx([0.5, 0.5], abs=1e-12)
        for i in (0, 2):
            Xi, _, _ = critical._refine(resid, X0[i:i + 1], 1e-12)
            assert Xi[0, 0] == X[i, 0]

    def test_stalled_seed_fails(self):
        # x^2 + 1 has no root: from 2 the residual falls 5 -> 1.5625, then
        # six steps each keep more than half of it, and the seed dies on the
        # stall rule at step 7, long before max_iter
        calls = []

        def jac(X):
            calls.append(len(X))
            return 2.0 * X[:, :, None]

        _, _, good = critical._refine(lambda X: X * X + 1.0, [[2.0]], 1e-12, jac=jac, max_iter=80)
        assert not good[0]
        assert len(calls) == 7

    def test_max_step_len_caps_the_first_step(self):
        def resid(X):
            return X - 100.0

        X, _, good = critical._refine(resid, [[0.0]], 1e-12, jac=line_jacobian,
                                      max_iter=1, polish_iter=0, max_step_len=1.0)
        assert X[0, 0] == 1.0 and not good[0]
        X, _, good = critical._refine(resid, [[0.0]], 1e-12, jac=line_jacobian,
                                      max_iter=1, polish_iter=0)
        assert X[0, 0] == 100.0 and good[0]

    # the critical points the one-seed-at-a-time search found
    @pytest.mark.parametrize("name, locations, values", [
        ("saddle", [(0.0, 0.0)], [0.0]),
        ("quartic", [(0.0,)], [0.0]),
        ("planes", [(0.0, 0.0)], [0.0]),
        ("cone", [(0.0, 0.0, 0.0)], [0.0]),
        ("planes-lift", [(0.0, 0.0, 0.0)], [0.0]),
    ])
    def test_search_finds_what_the_scalar_search_found(self, name, locations, values):
        if name == "planes-lift":
            f, Z = planes_lift()
        else:
            f, Z = problem_objects(builtin_problem(name))
        cps = find_critical_points(f, Z)
        assert len(cps) == len(locations)
        for cp, loc, value in zip(cps, locations, values):
            assert np.linalg.norm(cp.point() - np.array(loc)) <= CLUSTER_TOL
            assert abs(cp.value - value) <= 1e-8
