import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blocked_refine
from morseflow import critical, flow, space
from morseflow.cli import (
    BUILTIN,
    builtin_problem,
    load_problem,
    problem_objects,
    run_experiment,
    spec_from_mapping,
)
from morseflow.polynomial import Polynomial, PolynomialSystem, gradient, parse_polynomial
from morseflow.sampling import ring_probes, substream
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

    def test_lifted_cone_vertex_at_the_origin_is_a_saddle(self, cone_lift):
        # the witness up-flow runs into the vertex and is captured there
        f, Z = cone_lift
        assert classify(f, Z, CriticalPoint(location=(0.0,) * 4, value=0.0, grad_norm=0.0)) == "saddle"

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

    @pytest.mark.parametrize("name", ["saddle", "quartic", "planes", "cone"])
    def test_probe_values_are_the_pointwise_values(self, name):
        # classify evaluates its probe ring in one batched call
        f, Z = problem_objects(builtin_problem(name))
        (cp,) = find_critical_points(f, Z)
        probes = np.array(ring_probes(Z, cp.point(), 0.01, substream(0, "classify")))
        assert len(probes) > 1
        np.testing.assert_array_equal(f.evaluate(probes), [f.evaluate(p) for p in probes])

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

    def test_no_value_is_inconclusive(self):
        # an empty search does not show that f has no critical point
        report = check_condition1([])
        assert report.verdict == "inconclusive"
        assert "no critical point was found" in report.witnesses["reason"]

    def test_two_separated_values_pass(self, monkeypatch):
        monkeypatch.setattr(critical, "GAP_TOL", 0.1)
        report = check_condition1([0.0, 1.0])
        assert report.verdict == "pass"
        assert report.witnesses["min_gap"] == 1.0

    def test_nearby_values_merge_to_one(self, monkeypatch):
        monkeypatch.setattr(critical, "VALUE_MERGE_TOL", 1e-6)
        report = check_condition1([0.0, 1e-9])
        assert report.verdict == "pass"
        assert report.witnesses["n_values"] == 1

    def test_close_but_distinct_values_fail(self, monkeypatch):
        monkeypatch.setattr(critical, "GAP_TOL", 1e-4)
        report = check_condition1([0.0, 5e-5])
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


def search_passes(f, Z):
    """(resid, jac, seeds) of each pass of find_critical_points on the default grid."""
    seeds = critical._grid_seeds(Z, critical.default_grid_density(Z.ambient_dim))
    starts, retracted = Z.retract_batch(seeds)
    system = critical._singular_system(Z)
    return [(critical._smooth_residual(f, Z), None, starts[retracted]),
            (system.evaluate, system.jacobian_at, seeds)]


def line_jacobian(X):
    return np.ones((len(X), 1, 1))


class TestBatchedRefinement:
    @pytest.mark.parametrize("name", ["cone", "planes-lift", "cone-singular", "quartic"])
    def test_each_row_matches_refining_it_alone(self, name, cone, quartic, monkeypatch):
        f, Z = planes_lift() if name == "planes-lift" else quartic if name == "quartic" else cone
        if name == "cone-singular":
            system = critical._singular_system(Z)
            resid, jac, X0 = system.evaluate, system.jacobian_at, critical._grid_seeds(Z, 3)
        else:
            # on R^n the smooth pass has the exact Hessian, and the 7 quartic
            # seeds take scaled steps at the root of multiplicity 3
            starts, ok = Z.retract_batch(critical._grid_seeds(Z, 7 if name == "quartic" else 3))
            jac = gradient(f).jacobian_at if name == "quartic" else None
            resid, X0 = critical._smooth_residual(f, Z), starts[ok]
        kw = dict(jac=jac, max_step_len=2.0 * Z.box_diameter)
        X, _, good = critical._refine(resid, X0, 1e-12, **kw)
        assert good.any()
        if name == "quartic":
            assert good.all() and np.abs(X).max() <= 1e-12
        for i in range(len(X0)):
            Xi, _, good_i = critical._refine(resid, X0[i:i + 1], 1e-12, **kw)
            assert good_i[0] == good[i]
            np.testing.assert_array_equal(Xi[0], X[i])
        # and whatever the pool width; rows leave phase one at different
        # steps, so in narrow pools one Jacobian call mixes both phases
        for width in (1, 3, 4):
            monkeypatch.setattr(critical, "REFINE_POOL", width)
            Xw, _, good_w = critical._refine(resid, X0, 1e-12, **kw)
            np.testing.assert_array_equal(Xw, X)
            np.testing.assert_array_equal(good_w, good)

    @pytest.mark.parametrize("name", ["cone", "cone-lift", "planes-lift"])
    def test_pool_matches_the_blocked_refinement(self, name):
        # both passes of the search on the full default grid, against the
        # fixed-block loop the pool replaced
        spec = builtin_problem(name) if name == "cone" else load_problem(PROBLEMS / f"{name}.json")
        f, Z = problem_objects(spec)
        for resid, jac, X0 in search_passes(f, Z):
            kw = dict(jac=jac, max_step_len=2.0 * Z.box_diameter)
            got = critical._refine(resid, X0, 1e-12, **kw)
            for a, b in zip(got, blocked_refine.refine(resid, X0, 1e-12, **kw)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("width", [4, critical.REFINE_POOL])
    def test_pool_bounds_every_batch(self, width, cone, monkeypatch):
        f, Z = cone
        monkeypatch.setattr(critical, "REFINE_POOL", width)
        seen = {"jac": [], "resid": [], "differences": []}
        differencing = []

        def traced(fn, key):
            def call(X, *args):
                seen["differences" if differencing and key == "resid" else key].append(len(X))
                return fn(X, *args)
            return call

        def differences(resid, X):
            differencing.append(True)
            try:
                return central_differences(resid, X)
            finally:
                differencing.pop()

        central_differences = critical._central_differences
        monkeypatch.setattr(critical, "_central_differences", differences)
        n = Z.ambient_dim
        for resid, jac, X0 in search_passes(f, Z):  # 343 seeds each
            assert len(X0) > width
            critical._refine(traced(resid, "resid"), X0, 1e-12,
                             jac=jac and traced(jac, "jac"), max_step_len=2.0 * Z.box_diameter)
        assert max(seen["jac"]) == width
        assert max(seen["resid"]) <= width * max(space.LINE_SEARCH_ROUNDS)
        assert max(seen["differences"]) == 2 * n * width

    def test_the_quartic_smooth_pass_takes_a_few_steps(self, quartic, monkeypatch):
        # 4x^3 has a triple root: plain Newton shrinks each step by 2/3, and
        # below |x| ~ 1e-7 a central-difference Jacobian stalls it further
        f, Z = quartic
        solves, passes = [], []
        lstsq, refine = critical._lstsq_steps, critical._refine
        monkeypatch.setattr(critical, "_lstsq_steps", lambda J, R: solves.append(len(J)) or lstsq(J, R))
        monkeypatch.setattr(critical, "_refine", lambda *a, **kw: passes.append(refine(*a, **kw)) or passes[-1])
        cp, = find_critical_points(f, Z)
        (X, _, good), = passes
        assert len(X) == 7 and good.all()
        assert np.abs(X).max() <= 1e-12 and cp.cluster_radius <= 1e-12
        assert len(solves) <= 6

    @pytest.mark.parametrize("x0", [3.0, -2.0, 1.5])
    def test_a_triple_root_with_its_exact_jacobian_takes_a_few_steps(self, x0):
        calls = []

        def jac(X):
            calls.append(len(X))
            return 3.0 * ((X - 1.0) ** 2)[:, :, None]

        X, _, good = critical._refine(lambda X: (X - 1.0) ** 3, [[x0]], 1e-12, jac=jac)
        assert good[0] and abs(X[0, 0] - 1.0) <= 1e-14
        assert len(calls) <= 6

    def test_without_a_jacobian_no_step_is_scaled(self):
        # central differences: the triple root is refined as the fixed-block
        # loop, which has no scaled step, refines it
        def resid(X):
            return (X - 1.0) ** 3

        X0 = np.array([[3.0], [-2.0], [1.5]])
        for a, b in zip(critical._refine(resid, X0, 1e-12), blocked_refine.refine(resid, X0, 1e-12)):
            np.testing.assert_array_equal(a, b)

    def test_a_refused_scaled_polish_step_falls_back_to_the_plain_one(self):
        # x^2 above a wall at x = 0.1, polished from x = 1 (residual below
        # tol = 10): steps of 1/2, 1/4, then the scaled step to 0 hits the
        # wall, and the plain step to 0.125 is kept in the same iteration;
        # the polish ends where it ends without the scaled step
        def resid(X):
            return np.where(X < 0.1, 100.0, X * X)

        def jac(X):
            return 2.0 * X[:, :, None]

        got = critical._refine(resid, [[1.0]], 10.0, jac=jac)
        assert got[0][0, 0] == 0.125 and got[2][0]
        for a, b in zip(got, blocked_refine.refine(resid, [[1.0]], 10.0, jac=jac)):
            np.testing.assert_array_equal(a, b)

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

    def test_copies_of_a_row_are_refined_once(self, cone):
        # the singular pass of the cone from a 3-grid: 27 bit-distinct seeds
        _, Z = cone
        system = critical._singular_system(Z)
        A = critical._grid_seeds(Z, 3)
        kw = dict(jac=system.jacobian_at, max_step_len=2.0 * Z.box_diameter)

        def refine(X0):
            blocks = []

            def resid(X):
                blocks.append(np.array(X))
                return system.evaluate(X)

            return critical._refine(resid, X0, 1e-12, **kw), blocks

        (X, R, good), seen = refine(np.vstack([A, A, A]))
        _, alone = refine(A)
        # the first call holds each row of A once, and no later call
        # repeats work for a copy
        assert sorted(map(tuple, seen[0])) == sorted(map(tuple, A))
        np.testing.assert_array_equal(np.concatenate(seen), np.concatenate(alone))
        for i in range(len(X)):
            (Xi, Ri, good_i), _ = refine(A[i % len(A)][None])
            np.testing.assert_array_equal(X[i], Xi[0])
            np.testing.assert_array_equal(R[i], Ri[0])
            assert good[i] == good_i[0]

    def test_signed_zeros_are_distinct_rows(self):
        # 0.0 == -0.0 as floats, but the residual tells them apart
        X, _, good = critical._refine(lambda X: X - np.copysign(0.5, X), [[0.0], [-0.0]], 1e-12,
                                      jac=line_jacobian)
        assert good.all()
        assert X[:, 0].tolist() == [0.5, -0.5]

    def test_an_empty_block_keeps_its_width(self, cone):
        f, Z = cone
        X, R, good = critical._refine(critical._smooth_residual(f, Z), np.zeros((0, 3)), 1e-12)
        assert X.shape == (0, 3) and R.shape == (0, 4) and good.shape == (0,)

    def test_stalled_seed_fails(self):
        # x^2 + 1 has no root: from 2 the residual falls 5 -> 1.5625, then
        # six steps each keep more than half of it, and the seed dies on the
        # stall rule at step 7, long before REFINE_ITER
        calls = []

        def jac(X):
            calls.append(len(X))
            return 2.0 * X[:, :, None]

        _, _, good = critical._refine(lambda X: X * X + 1.0, [[2.0]], 1e-12, jac=jac)
        assert not good[0]
        assert len(calls) == 7

    def test_max_step_len_caps_the_first_step(self, monkeypatch):
        def resid(X):
            return X - 100.0

        monkeypatch.setattr(critical, "REFINE_ITER", 1)
        monkeypatch.setattr(critical, "POLISH_ITER", 0)
        X, _, good = critical._refine(resid, [[0.0]], 1e-12, jac=line_jacobian, max_step_len=1.0)
        assert X[0, 0] == 1.0 and not good[0]
        X, _, good = critical._refine(resid, [[0.0]], 1e-12, jac=line_jacobian)
        assert X[0, 0] == 100.0 and good[0]

    def test_zero_steps_fail_before_the_line_search(self, cone, monkeypatch):
        # 21 smooth-pass rows of the cone grid solve to a step of exactly
        # zero, which cannot lower their residual: they fail unsearched
        f, Z = cone
        searched, zero = [], []

        def counting(resid, X, D, rn, t):
            searched.append(len(D))
            zero.append(int((~D.any(axis=1)).sum()))
            return line_search(resid, X, D, rn, t)

        line_search = critical.line_search
        monkeypatch.setattr(critical, "line_search", counting)
        cps = find_critical_points(f, Z)
        assert sum(searched) > 0 and sum(zero) == 0
        assert len(cps) == 1 and np.linalg.norm(cps[0].point()) <= CLUSTER_TOL

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


# row entries whose bits a float comparison would mix up: signed zeros, infinities,
# the smallest subnormal, and NaNs with different payloads and signs
BIT_VALUES = np.concatenate([
    [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, 5e-324],
    np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000001]).view(float),
])


@st.composite
def bit_blocks(draw, max_rows=16):
    # entries are drawn by index, so each NaN keeps its payload
    n = draw(st.integers(1, 3))
    idx = draw(st.lists(st.lists(st.integers(0, len(BIT_VALUES) - 1), min_size=n, max_size=n), max_size=max_rows))
    return BIT_VALUES[np.array(idx, dtype=int).reshape(-1, n)]


def bits(A):
    return np.ascontiguousarray(A).view(np.int64)


class TestRefineKernels:
    """The row key and the central differences against the code they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(bit_blocks())
    def test_distinct_rows_match_the_unique_reference(self, X0):
        first, copy = critical._distinct_rows(X0)
        _, ref_first, ref_copy = np.unique(X0.view(np.int64), axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(first, ref_first) and np.array_equal(copy, ref_copy.ravel())
        assert np.array_equal(bits(X0[first]), bits(X0[ref_first]))
        assert np.array_equal(bits(X0[first][copy]), bits(X0))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 2**32 - 1), st.booleans())
    def test_differences_match_the_per_column_loop(self, n, N, seed, nan_row):
        # h = 1e-7 * max(1, |x|), so entries beyond 1 in size, and signed zeros, are drawn
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(N, n)) * rng.choice([0.01, 1.0, 40.0], size=(N, n))
        X[rng.random((N, n)) < 0.2] = rng.choice([0.0, -0.0])
        if nan_row and N:
            X[rng.integers(N)] = np.nan
        blocks = []

        def resid(P):
            blocks.append(P.copy())
            return np.stack([P.prod(axis=1) + P[:, 0] ** 3, np.sin(P).sum(axis=1)], axis=1)

        def outcome(differences):
            try:
                return bits(differences(resid, X.copy()))
            except ValueError as e:  # an empty block has no width to reshape by
                return repr(e)

        got, ref = outcome(critical._central_differences), outcome(blocked_refine._central_differences)
        assert type(got) is type(ref) and np.array_equal(got, ref)
        assert len(blocks) == 2 and np.array_equal(bits(blocks[0]), bits(blocks[1]))
        if N:
            assert got.shape == (N, 2, n)


def named_problem(name):
    if name in ("cone-lift", "planes-lift"):
        return problem_objects(load_problem(PROBLEMS / f"{name}.json"))
    return problem_objects(builtin_problem(name))


def singular_system(constraints, variables=("x", "y", "z", "w")):
    return critical._singular_system(space.SingularSpace(
        len(variables), PolynomialSystem(variables, [parse_polynomial(c, variables) for c in constraints]),
        [(-1, 1)] * len(variables)))


class TestSingularPassSkip:
    # the singular pass solves {g = 0, Dg = 0}; a linear constraint puts a
    # non-zero constant in Dg, so that system has no root and the pass is skipped
    @pytest.mark.parametrize("name, constant", [
        ("cone-lift", "d(w)/dw = 1"), ("planes-lift", "d(z)/dz = 1"), ("cone", None), ("planes", None),
    ])
    def test_refine_runs_once_per_pass_that_can_find_a_point(self, name, constant, monkeypatch, caplog):
        f, Z = named_problem(name)
        seeds = []

        def counting(resid, X0, *args, **kw):
            seeds.append(len(X0))
            return refine(resid, X0, *args, **kw)

        refine = critical._refine
        monkeypatch.setattr(critical, "_refine", counting)
        with caplog.at_level("INFO", logger="morseflow.critical"):
            find_critical_points(f, Z)
        singular = [r.getMessage() for r in caplog.records if r.getMessage().startswith("singular pass")]
        if constant:
            assert len(seeds) == 1
            assert singular == [f"singular pass skipped: {constant} is a non-zero constant, "
                                "so {g = 0, Dg = 0} has no root"]
        else:
            # the singular pass still refines the whole raw grid, 343 seeds on the cone
            grid = critical.default_grid_density(Z.ambient_dim) ** Z.ambient_dim
            assert seeds[1:] == [grid]
            assert singular == [f"singular pass: {grid}/{grid} seeds refined to 1 rank-collapse points"]

    @pytest.mark.parametrize("level, calls", [("INFO", 2), ("WARNING", 1)])
    def test_the_log_counts_are_built_only_under_info(self, level, calls, cone, monkeypatch, caplog):
        # the singular-pass line clusters the rank-collapse points; the
        # search itself clusters once, over every point found
        f, Z = cone
        seen = []
        dedupe = critical._dedupe
        monkeypatch.setattr(critical, "_dedupe", lambda P, tol: seen.append(len(P)) or dedupe(P, tol))
        with caplog.at_level(level, logger="morseflow.critical"):
            cps = find_critical_points(f, Z)
        assert len(cps) == 1 and len(seen) == calls
        assert (seen[0] == 343) == (level == "INFO")

    @pytest.mark.parametrize("name", ["cone-lift", "planes-lift"])
    def test_skip_changes_no_point(self, name, monkeypatch):
        f, Z = named_problem(name)
        skipped = find_critical_points(f, Z)
        monkeypatch.setattr(critical, "_constant_entry", lambda system: None)
        searched = find_critical_points(f, Z)
        assert len(skipped) == 1
        assert [dataclasses.asdict(cp) for cp in skipped] == [dataclasses.asdict(cp) for cp in searched]

    @pytest.mark.parametrize("constraints", [["0.6*x + 0.8*w"], ["x^2 + y^2 - z^2", "0.6*x + 0.8*w"]])
    def test_an_oblique_linear_constraint_skips(self, constraints):
        system = singular_system(constraints)
        k = critical._constant_entry(system)
        assert k is not None
        # d(0.6*x + 0.8*w)/dx, the first derivative of the linear constraint
        assert system.components[k].evaluate([0.3, -0.2, 0.7, 0.1]) == 0.6

    def test_a_system_with_a_constant_component_skips(self):
        names = ("x", "y")
        system = PolynomialSystem(names, [parse_polynomial("x*y", names), Polynomial.constant(names, -2.5)])
        assert critical._constant_entry(system) == 1

    @pytest.mark.parametrize("constraints, variables", [
        (["x*y"], ("x", "y")),
        (["x^2 + y^2 - z^2"], ("x", "y", "z")),
        (["x^2"], ("x",)),
        ([], ("x", "y")),
    ])
    def test_a_system_that_can_have_a_root_does_not_skip(self, constraints, variables):
        assert critical._constant_entry(singular_system(constraints, variables)) is None

    def test_a_zero_derivative_is_not_a_non_zero_constant(self):
        _, Z = named_problem("cone-lift")
        system = critical._singular_system(Z)
        names = Z.constraints.variables
        # entries: g1, g2, then dg1/dx ... dg1/dw, dg2/dx ... dg2/dw
        dw = [system.components[2 + len(names) + j] for j in range(len(names))]
        assert [len(p.terms) for p in dw] == [0, 0, 0, 1]
        assert critical._constant_entry(system) == 2 + 2 * len(names) - 1
        assert critical._constant_entry(PolynomialSystem(names, dw[:3])) is None
        assert critical._constant_entry(PolynomialSystem(names, [Polynomial.zero(names)])) is None


# singular points that only a {g = 0, Dg = 0} root reaches: the cone with its
# box shifted off the vertex, the cone under f = 0.6x + 0.8y (whose smooth
# pass stops 4.5e-7 short of the vertex, off Z by 2e-13) and a cusp
SINGULAR_ONLY = {
    "shifted cone": {**BUILTIN["cone"], "box": [[-2, 2], [-2.1, 2], [-2, 2.2]]},
    "rotated cone": {**BUILTIN["cone"], "objective": "0.6*x + 0.8*y"},
    "shifted cusp": {**BUILTIN["cone"], "name": "cusp", "variables": ["x", "y"], "objective": "x",
                     "constraints": ["y^2 - x^3"], "box": [[-2, 2.1], [-1.9, 2]]},
}


class TestSingularOnlyPoints:
    @pytest.mark.parametrize("name", SINGULAR_ONLY)
    def test_the_singular_pass_accepts_the_point_without_a_flow(self, name, monkeypatch):
        f, Z = problem_objects(spec_from_mapping(SINGULAR_ONLY[name]))

        def no_flow(*args, **kw):
            raise AssertionError("the critical search started a flow")

        monkeypatch.setattr(critical, "integrate_ensemble", no_flow)
        cps = find_critical_points(f, Z)
        assert len(cps) == 1
        assert np.linalg.norm(cps[0].point()) <= CLUSTER_TOL
        assert abs(cps[0].value) <= 1e-8
        assert cps[0].grad_norm < CRIT_TOL

    def test_the_rotated_cone_vertex_is_the_singular_root(self):
        f, Z = problem_objects(spec_from_mapping(SINGULAR_ONLY["rotated cone"]))
        cp, = find_critical_points(f, Z)
        assert cp.location == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", ["shifted cone", "shifted cusp"])
    def test_the_smooth_pass_alone_misses_the_point(self, name, monkeypatch):
        f, Z = problem_objects(spec_from_mapping(SINGULAR_ONLY[name]))
        monkeypatch.setattr(critical, "_constant_entry", lambda system: 0)
        assert all(np.linalg.norm(cp.point()) > CLUSTER_TOL for cp in find_critical_points(f, Z))


class TestLiftedSearch:
    def test_the_six_variable_cone_lift_refines_each_distinct_start_once(self, monkeypatch, caplog):
        # w = v = u = 0 pins three coordinates, so the 6**6 grid retracts to
        # 216 distinct starts; the points found are not asserted
        doc = {**BUILTIN["cone"], "variables": ["x", "y", "z", "w", "v", "u"],
               "constraints": ["x^2 + y^2 - z^2", "w", "v", "u"],
               "box": [[-2, 2], [-2, 2], [-2, 2], [-1, 1], [-1, 1], [-1, 1]]}
        f, Z = problem_objects(spec_from_mapping(doc))
        calls = []

        def traced(f, Z):
            resid = smooth_residual(f, Z)
            return lambda X: calls.append(len(X)) or resid(X)

        smooth_residual = critical._smooth_residual
        monkeypatch.setattr(critical, "_smooth_residual", traced)
        with caplog.at_level("INFO", logger="morseflow.critical"):
            find_critical_points(f, Z)
        smooth, = [r.getMessage() for r in caplog.records if r.getMessage().startswith("smooth pass")]
        assert "/46656 seeds (216 distinct starts) refined" in smooth
        # the pool starts from every distinct start at once
        assert calls[0] == 216


def test_steep_saddle_is_classified_within_a_few_thousand_steps(monkeypatch):
    # the up-flow witness of 6(x^2 - y^2) settles near y = 1e-9, where the
    # error test's ATOL floor holds |grad f| near Converged's 1e-8; growing by
    # SAFETY after each rejection kept it from converging in 5,000 attempts
    # (614 of them rejected), and SAFETY_AFTER_REJECTION converges in 38
    doc = {**BUILTIN["saddle"], "name": "steep-saddle", "objective": "6*x^2 - 6*y^2"}
    f, Z = problem_objects(spec_from_mapping(doc))
    monkeypatch.setattr(flow, "MAX_STEPS", 5_000)
    cp = CriticalPoint(location=(0.0, 0.0), value=0.0, grad_norm=0.0)
    assert classify(f, Z, cp) == "saddle"


# f = y on the line {x^2 = 0}: the search finds points on the box faces y = -1 and y = 1
BOX_FACE = {**BUILTIN["planes"], "name": "box-face", "objective": "y", "constraints": ["x^2"],
            "box": [[-1, 1], [-1, 1]]}


class TestBoxFacePoints:
    def test_classify_drops_the_probes_outside_the_box(self):
        # the probe at (0, -1.01) once became a saddle witness's start, which
        # the ensemble refused; every probe left in the box lies above
        f, Z = problem_objects(spec_from_mapping(BOX_FACE))
        cp = CriticalPoint(location=(0.0, -1.0), value=-1.0, grad_norm=0.0)
        assert classify(f, Z, cp) == "minimum"

    def test_too_few_probes_in_the_box_leave_the_point_unresolved(self, monkeypatch, caplog):
        f, Z = problem_objects(spec_from_mapping(BOX_FACE))
        cp = CriticalPoint(location=(0.0, -1.0), value=-1.0, grad_norm=0.0)
        # the two axis probes along the line only: one lies below y = -1
        monkeypatch.setattr(critical, "ring_probes", lambda *a, **kw: [np.array([0.0, -0.99]),
                                                                      np.array([0.0, -1.01])])
        with caplog.at_level("WARNING", logger="morseflow.critical"):
            assert classify(f, Z, cp) == "unresolved"
        assert "only 1 on-Z probes inside the box" in caplog.text

    def test_the_stages_record_no_error(self):
        report = run_experiment(spec_from_mapping(BOX_FACE), stages=("critical", "loja"))
        assert report.stage_errors == {}
        face = [i for i, cp in enumerate(report.critical_points) if abs(cp["location"][1]) == 1.0]
        assert len(face) == 2
        errors = {fit["point_index"]: fit.get("error", "") for fit in report.lojasiewicz_fits}
        for i in face:
            assert "delta = 0" in errors[i] and "lies on a box face" in errors[i]
