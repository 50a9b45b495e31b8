from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import halving_retraction
import strided_rows
from morseflow import space
from morseflow.cli import builtin_problem, load_problem, problem_objects
from morseflow.polynomial import PolynomialSystem, gradient, parse_polynomial
from morseflow.space import (
    SingularSpace,
    line_search,
    min_norm_steps,
    norms,
    orthogonal_rows,
    project_to_level_set,
    row_norms,
    row_sums,
)

PROBLEMS = Path(__file__).resolve().parent / "problems"
LEVEL_PROBLEMS = {
    "cone": problem_objects(builtin_problem("cone")),
    "planes": problem_objects(builtin_problem("planes")),
    "planes-lift": problem_objects(load_problem(PROBLEMS / "planes-lift.json")),
}
RETRACT_SPACES = {
    **{name: Z for name, (_, Z) in LEVEL_PROBLEMS.items()},
    "cone-lift": problem_objects(load_problem(PROBLEMS / "cone-lift.json"))[1],
}


def make_space(constraint_texts, variables, box):
    system = PolynomialSystem(
        variables, tuple(parse_polynomial(t, variables) for t in constraint_texts)
    )
    return SingularSpace(ambient_dim=len(variables), constraints=system, box=tuple(box))


@pytest.fixture
def planes2():
    return make_space(["x*y"], ["x", "y"], [(-2, 2), (-2, 2)])


@pytest.fixture
def cone_wide():
    # box wide enough to contain the (3,4,5) membership example
    return make_space(["x^2 + y^2 - z^2"], ["x", "y", "z"], [(-10, 10)] * 3)


@pytest.fixture
def free_plane():
    return make_space([], ["x", "y"], [(-2, 2), (-2, 2)])


@st.composite
def level_blocks(draw):
    """(problem name, starts, level): starts within a radius of the origin,
    on Z or off it, and a level near or at the critical value 0."""
    name = draw(st.sampled_from(sorted(LEVEL_PROBLEMS)))
    _, Z = LEVEL_PROBLEMS[name]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = draw(st.sampled_from([0.003, 0.03, 0.3, 1.5]))
    X = radius * rng.uniform(-1.0, 1.0, size=(draw(st.integers(1, 8)), Z.ambient_dim))
    if draw(st.booleans()):
        X = Z.retract_batch(X)[0]
    c = draw(st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.1])) * radius**2
    return name, X, c


class TestResidualAndMembership:
    def test_on_variety_residual_zero(self, planes2):
        assert planes2.residual([1.0, 0.0]) == 0.0

    def test_off_variety_residual(self, planes2):
        assert planes2.residual([1.0, 1.0]) == 1.0

    def test_unconstrained_residual_zero(self, free_plane):
        assert free_plane.residual([1.7, -0.3]) == 0.0

    def test_cone_pythagorean_point_is_member(self, cone_wide):
        assert cone_wide.is_member([3.0, 4.0, 5.0])

    def test_cone_off_point_rejected(self, cone_wide):
        assert not cone_wide.is_member([1.0, 1.0, 1.0])

    def test_point_outside_box_rejected(self, planes2):
        assert not planes2.is_member([3.0, 0.0])

    def test_dimension_mismatch(self, planes2, free_plane):
        # one point and a block, with and without constraints: the error names both dimensions
        for Z in (planes2, free_plane):
            for x in ([1.0, 0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):
                for check in (Z.residual, Z.inside_box, Z.is_member):
                    with pytest.raises(ValueError, match=r"shape \((3,|2, 3)\), expected \(2,\) or \(N, 2\)"):
                        check(x)


class TestBlockMembership:
    """residual and is_member on an (N, n) block: one entry per row, each the one-point result."""

    # a point of Z beyond the box walls
    OUTSIDE = {"cone": [1.5, 2.0, 2.5], "planes-lift": [3.0, 0.0, 0.0]}

    @pytest.fixture(params=["cone", "planes-lift"])
    def space_and_block(self, request):
        """Rows: 6 on Z, 200 off Z, 1 on Z outside the box, 2 with NaN."""
        _, Z = LEVEL_PROBLEMS[request.param]
        rng = np.random.default_rng(5)
        on_z = Z.retract_batch(rng.uniform(-1.0, 1.0, size=(6, Z.ambient_dim)))[0]
        off_z = rng.uniform(-2.0, 2.0, size=(200, Z.ambient_dim))
        nan = on_z[:2].copy()
        nan[0, 0] = np.nan
        nan[1] = np.nan
        return Z, np.concatenate([on_z, off_z, [self.OUTSIDE[request.param]], nan])

    def test_block_entries_equal_the_one_point_results(self, space_and_block):
        Z, X = space_and_block
        res, member = Z.residual(X), Z.is_member(X)
        assert res.shape == member.shape == (len(X),)
        assert member.dtype == bool
        for x, r, m in zip(X, res, member):
            one = Z.residual(x)
            assert type(one) is float and type(Z.is_member(x)) is bool
            assert np.array_equal(one, r, equal_nan=True)
            assert Z.is_member(x) == m

    def test_block_flags_follow_the_rows(self, space_and_block, monkeypatch):
        Z, X = space_and_block
        res, member = Z.residual(X), Z.is_member(X)
        assert member[:6].all() and not member[6:].any()
        assert (res[6:206] > space.MEMBER_TOL).all()
        assert res[206] <= space.MEMBER_TOL  # on Z, but outside the box
        assert np.isnan(res[207:]).all() and np.isfinite(res[:207]).all()
        monkeypatch.setattr(space, "MEMBER_TOL", -1.0)
        assert not Z.is_member(X[:6]).any()

    def test_single_point_keeps_the_norm_of_g(self, space_and_block):
        Z, X = space_and_block
        for x in X:
            assert np.array_equal(Z.residual(x), float(np.linalg.norm(Z.constraints.evaluate(x))), equal_nan=True)

    def test_unconstrained_block_is_zero(self, free_plane):
        X = np.array([[0.5, 0.5], [3.0, 0.0], [np.nan, 0.0]])
        assert np.array_equal(free_plane.residual(X), np.zeros(3))
        assert free_plane.residual(X[0]) == 0.0
        assert free_plane.is_member(X).tolist() == [True, False, False]


class TestTangentProject:
    def test_planes_smooth_point_kills_normal_component(self, planes2):
        v = planes2.tangent_project([1.0, 0.0], [0.7, -1.3])
        assert np.allclose(v, [0.7, 0.0], atol=1e-12)

    def test_unconstrained_is_identity(self, free_plane):
        v = np.array([0.3, -0.9])
        assert np.array_equal(free_plane.tangent_project([0.1, 0.2], v), v)

    def test_cone_vertex_full_null_space(self, cone_wide):
        v = np.array([0.5, -0.25, 1.0])
        assert np.allclose(cone_wide.tangent_project([0.0, 0.0, 0.0], v), v, atol=1e-15)

    def test_idempotent_at_random_points(self, planes2, cone_wide):
        rng = np.random.default_rng(7)
        for Z in (planes2, cone_wide):
            for _ in range(25):
                x = Z.retract(rng.uniform(-1.5, 1.5, size=Z.ambient_dim))
                v = rng.normal(size=Z.ambient_dim)
                pv = Z.tangent_project(x, v)
                ppv = Z.tangent_project(x, pv)
                assert np.linalg.norm(ppv - pv) < 1e-12

    def test_orthogonality_of_residual_to_projections(self, planes2, cone_wide):
        rng = np.random.default_rng(11)
        for Z in (planes2, cone_wide):
            for _ in range(25):
                x = Z.retract(rng.uniform(-1.5, 1.5, size=Z.ambient_dim))
                v = rng.normal(size=Z.ambient_dim)
                w = rng.normal(size=Z.ambient_dim)
                pv = Z.tangent_project(x, v)
                pw = Z.tangent_project(x, w)
                assert abs(np.dot(v - pv, pw)) < 1e-10


class TestRetract:
    def test_fixed_point_on_variety(self, planes2):
        x = np.array([0.0, 1.3])
        assert np.array_equal(planes2.retract(x), x)

    def test_cone_near_point_pulled_back(self, cone_wide):
        x = np.array([3.0, 4.0, 5.0 + 1e-6])
        y = cone_wide.retract(x)
        assert cone_wide.residual(y) < 1e-12
        assert np.linalg.norm(y - x) < 1e-5

    def test_unconstrained_identity(self, free_plane):
        x = np.array([0.4, -1.9])
        assert np.array_equal(free_plane.retract(x), x)

    def test_never_increases_residual(self, cone_wide):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            y = cone_wide.retract(x)
            assert cone_wide.residual(y) <= cone_wide.residual(x)
            assert cone_wide.residual(y) < cone_wide.retract_tol


class TestRiemannianGrad:
    def test_unconstrained_is_ambient_gradient(self, free_plane):
        f = parse_polynomial("x^2 - y^2", ["x", "y"])
        g = free_plane.tangent_project([1.0, 1.0], gradient(f).evaluate(np.array([1.0, 1.0])))
        assert np.allclose(g, [2.0, -2.0], atol=1e-15)

    def test_planes_y_branch(self, planes2):
        # tangent direction at (0, 0.5) is the y-axis
        f = parse_polynomial("x^2 - y^2", ["x", "y"])
        g = planes2.tangent_project([0.0, 0.5], gradient(f).evaluate(np.array([0.0, 0.5])))
        assert np.allclose(g, [0.0, -1.0], atol=1e-12)

    def test_vanishes_at_critical_point(self, free_plane):
        f = parse_polynomial("x^2 - y^2", ["x", "y"])
        g = free_plane.tangent_project([0.0, 0.0], gradient(f).evaluate(np.zeros(2)))
        assert np.allclose(g, 0.0, atol=1e-15)


def project_one(f, Z, x, c):
    """project_to_level_set on one start; asserts that it succeeded."""
    points, ok = project_to_level_set(f, Z, np.array([x], dtype=float), c)
    assert ok.tolist() == [True]
    return points[0]


def scalar_level_projection(f, Z, x, c):
    """Reference: the one-point damped Gauss-Newton loop on (g, f - c) that
    the batched projection replaced, solving each step with lstsq."""
    x = np.array(x, dtype=float)
    grad_f = gradient(f)

    def joint(p):
        return np.concatenate([Z.constraints.evaluate(p), [f.evaluate(p) - c]])

    r = joint(x)
    res = float(np.linalg.norm(r))
    for _ in range(space.GAUSS_NEWTON_ITER):
        if res <= Z.level_tol:
            return x
        J = np.vstack([Z.constraints.jacobian_at(x), grad_f.evaluate(x)[None, :]])
        d = np.linalg.lstsq(J, r, rcond=space.RANK_TOL)[0]
        lam = 1.0
        for _ in range(25):
            x_new = x + (-lam) * d
            r_new = joint(x_new)
            res_new = float(np.linalg.norm(r_new))
            if res_new < res:
                break
            lam *= 0.5
        else:
            return None
        x, r, res = x_new, r_new, res_new
    return x if res <= Z.level_tol else None


class TestProjectToLevelSet:
    def test_plane_level_zero(self, free_plane):
        f = parse_polynomial("x^2 - y^2", ["x", "y"])
        y = project_one(f, free_plane, [1.0, 1.01], 0.0)
        assert abs(f.evaluate(y)) < 1e-10
        assert min(abs(y[0] - y[1]), abs(y[0] + y[1])) < 1e-9

    def test_fixed_point(self, planes2):
        f = parse_polynomial("x^2 - y^2", ["x", "y"])
        x = np.array([0.0, 0.5])
        y = project_one(f, planes2, x, -0.25)
        assert np.allclose(y, x, atol=1e-12)

    def test_cone_level_one(self, cone_wide):
        f = parse_polynomial("x", ["x", "y", "z"])
        y = project_one(f, cone_wide, [1.0, 0.0, 1.001], 1.0)
        assert abs(y[0] - 1.0) < 1e-10
        assert cone_wide.is_member(y)

    @settings(max_examples=40, deadline=None)
    @given(level_blocks())
    def test_ok_rows_lie_on_z_at_the_level(self, block):
        name, X, c = block
        f, Z = LEVEL_PROBLEMS[name]
        points, ok = project_to_level_set(f, Z, X, c)
        for q in points[ok]:
            assert Z.is_member(q)
            assert abs(f.evaluate(q) - c) <= Z.level_tol

    @settings(max_examples=40, deadline=None)
    @given(level_blocks())
    def test_rows_are_batch_independent(self, block):
        name, X, c = block
        f, Z = LEVEL_PROBLEMS[name]
        points, ok = project_to_level_set(f, Z, X, c)
        for i, x in enumerate(X):
            alone, ok_alone = project_to_level_set(f, Z, x[None, :], c)
            assert np.array_equal(alone[0], points[i], equal_nan=True)
            assert ok_alone[0] == ok[i]

    @settings(max_examples=40, deadline=None)
    @given(level_blocks())
    def test_ok_rows_match_the_scalar_loop(self, block):
        name, X, c = block
        f, Z = LEVEL_PROBLEMS[name]
        points, ok = project_to_level_set(f, Z, X, c)
        for x, q in zip(X[ok], points[ok]):
            ref = scalar_level_projection(f, Z, x, c)
            assert ref is not None
            assert np.max(np.abs(q - ref)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(LEVEL_PROBLEMS)), st.floats(0.05, 1.0))
    def test_landing_outside_the_box_is_not_ok(self, name, excess):
        # planes: the level x^2 = (2 + excess)^2 on the x-axis; cone: x = 2 + excess
        f, Z = LEVEL_PROBLEMS[name]
        x = np.zeros(Z.ambient_dim)
        x[0] = 2.0 - excess / 2.0
        if name == "cone":
            x[2], c = x[0], 2.0 + excess
        else:
            c = (2.0 + excess) ** 2
        points, ok = project_to_level_set(f, Z, x[None, :], c)
        assert not ok[0]
        assert abs(f.evaluate(points[0]) - c) <= Z.level_tol  # the solve converged, outside the box
        assert not Z.inside_box(points[0])

    @pytest.mark.parametrize("name", sorted(LEVEL_PROBLEMS))
    def test_empty_block(self, name):
        f, Z = LEVEL_PROBLEMS[name]
        points, ok = project_to_level_set(f, Z, np.zeros((0, Z.ambient_dim)), 0.0)
        assert points.shape == (0, Z.ambient_dim) and ok.shape == (0,)


def walled_identity(P):
    """The residual P itself, NaN beyond radius 4: its norm is the distance to the origin."""
    return np.where(row_norms(P)[:, None] > 4.0, np.nan, P)


# a row x with step -c x lands at |1 - c / 2^k| |x| after k halvings, so
# c = 1.5 * 2^k descends first after exactly k of them; from |x| >= 0.5,
# c >= 12 starts beyond the NaN wall, and c <= 0 never descends
HALVINGS = (0, 1, 2, 5, 11, 24)
NEVER = (1.5 * 2.0**25, 1.5 * 2.0**30, 0.0, -1.0)


@st.composite
def search_blocks(draw):
    """(X, D, whether each row descends): a row of every kind, shuffled, and more drawn."""
    cs = [1.5 * 2.0**k for k in HALVINGS] + list(NEVER)
    cs += draw(st.lists(st.sampled_from(cs), max_size=8))
    cs = draw(st.permutations(cs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(len(cs), 3))
    X *= rng.uniform(0.5, 1.0, size=(len(cs), 1)) / row_norms(X)[:, None]
    c = np.array(cs)
    return X, -c[:, None] * X, (c > 0.0) & (c <= 1.5 * 2.0 ** max(HALVINGS))


class TestLineSearch:
    """``line_search`` against the one-length-at-a-time loop of the old ``retract_batch``."""

    @settings(max_examples=40, deadline=None)
    @given(search_blocks())
    def test_picks_what_the_halving_loop_picked(self, block):
        X, D, descends = block
        rn = norms(walled_identity(X))
        hit, P, R, RN = line_search(walled_identity, X, D, rn, np.ones(len(X)))
        found, P_ref, R_ref, RN_ref = halving_retraction.halving_search(walled_identity, X, -D, rn)
        assert np.array_equal(hit, found) and np.array_equal(hit, descends)
        assert np.array_equal(P, P_ref[found])
        assert np.array_equal(R, R_ref[found])
        assert np.array_equal(RN, RN_ref[found])

    @pytest.mark.parametrize("radius", [0.5, 1.0])
    def test_drawn_rows_reach_the_nan_wall_and_the_last_length(self, radius):
        # at either end of the drawn radii: c = 1.5 * 2^5 starts beyond the
        # wall and descends after 5 halvings, 1.5 * 2^24 descends only at the
        # last of the 25 lengths, and 1.5 * 2^25 at none of them
        X = np.array([[radius, 0.0, 0.0]] * 3)
        c = np.array([1.5 * 2.0**5, 1.5 * 2.0**24, 1.5 * 2.0**25])
        P = X[:, None, :] - (c[:, None] * 0.5 ** np.arange(25))[:, :, None] * X[:, None, :]
        down = norms(walled_identity(P.reshape(-1, 3))).reshape(3, 25) < radius
        assert np.isnan(walled_identity(P[0, :1])).all()
        assert np.flatnonzero(down[0])[0] == 5 and np.flatnonzero(down[1]).tolist() == [24]
        assert not down[2].any()

    def test_full_steps_take_one_resid_call(self):
        calls = []

        def counted(P):
            calls.append(len(P))
            return walled_identity(P)

        X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 3))
        hit, P, _, _ = line_search(counted, X, -0.5 * X, norms(X), np.ones(16))
        assert hit.all() and np.array_equal(P, 0.5 * X)
        assert calls == [16]
        # a row that needs 10 halvings tries them in rounds of 5 and 8
        calls.clear()
        D = -0.5 * X
        D[3] = -1.5 * 2.0**10 * X[3]
        hit, _, _, _ = line_search(counted, X, D, norms(X), np.ones(16))
        assert hit.all() and calls == [16, 5, 8]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(RETRACT_SPACES)), st.integers(0, 2**32 - 1),
           st.sampled_from([0.003, 0.3, 1.5, 20.0]), st.integers(1, 12))
    def test_retraction_matches_the_halving_retraction(self, name, seed, radius, n_rows):
        Z = RETRACT_SPACES[name]
        X = radius * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n_rows, Z.ambient_dim))
        points, ok = Z.retract_batch(X)
        ref, ok_ref = halving_retraction.retract_batch(Z, X)
        assert np.array_equal(points, ref, equal_nan=True) and np.array_equal(ok, ok_ref)


class FixedJacobian:
    """Stands in for the constraint system: Dg is the given stack at every point."""

    def __init__(self, J):
        self.J = J
        self.variables = tuple(f"x{i}" for i in range(J.shape[2]))

    def __len__(self):
        return self.J.shape[1]

    def jacobian_at(self, X):
        return self.J


def fixed_space(J):
    return SingularSpace(J.shape[2], FixedJacobian(J), ((-1.0, 1.0),) * J.shape[2])


def project(J, V):
    return fixed_space(J).tangent_project_batch(np.zeros((len(J), J.shape[2])), V)


def step(J, R):
    return fixed_space(J)._min_norm_steps(J, R)


def svd_projection(A, v, rank_tol=1e-8):
    _, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > rank_tol * s[0]))
    return v - Vt[:rank].T @ (Vt[:rank] @ v), rank


# kept singular values stay at least 10x above rank_tol, cut ones 10x below
KEPT = (1.0, 0.5, 0.1, 1e-2, 1e-7)
CUT = (1e-9, 1e-12, 0.0)


@st.composite
def jacobian_stacks(draw, m, sigmas=KEPT + CUT, size=(1, 6)):
    """Stacks of m x n matrices with chosen singular values, zero rows and parallel rows."""
    n = draw(st.integers(2, 5))
    N = draw(st.integers(*size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(N):
        sigma = np.zeros(m)
        k = min(m, n)
        sigma[:k] = [1.0] + [draw(st.sampled_from(sigmas)) for _ in range(k - 1)]
        U = np.linalg.qr(rng.normal(size=(m, m)))[0]
        Vt = np.linalg.qr(rng.normal(size=(n, n)))[0]
        A = 10.0 ** draw(st.integers(-3, 3)) * (U[:, :k] * sigma[:k]) @ Vt[:k]
        kind = draw(st.sampled_from(["plain", "plain", "zero", "parallel"]))
        if kind == "zero":
            A[draw(st.integers(0, m - 1))] = 0.0
        elif kind == "parallel" and m > 1:
            A[draw(st.integers(1, m - 1))] = draw(st.sampled_from([2.0, -0.5, 3.0])) * A[0]
        stack.append(A)
    return np.array(stack).reshape(N, m, n)


def separated(A, lo=10 * 1e-8, hi=1e-8 / 10):
    """Whether every singular value of A is at least lo or at most hi times the largest.

    The defaults keep them 10x away from the rank cut; the accuracy tests
    also keep the kept ones within a condition number of 100.
    """
    s = np.linalg.svd(A, compute_uv=False)
    return bool(np.all((s >= lo * s[0]) | (s <= hi * s[0])))


# the retraction's spaces with m = 1 ... 4 rows; the graph lifts' rows are not orthogonal, so pairs turn
KERNEL_SPACES = {
    **RETRACT_SPACES,
    **{name: problem_objects(load_problem(PROBLEMS / f"{name}.json"))[1] for name in ("cone-graph", "cone-graph3")},
    "cone-graph4": make_space(["x^2 + y^2 - z^2", "w - x*y", "v - x - w", "u - v*y"], ["x", "y", "z", "w", "v", "u"],
                              [(-2, 2)] * 3 + [(-4.5, 4.5), (-7, 7), (-14, 14)]),
}


class TestOrthogonalRows:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(jacobian_stacks))
    def test_rank_matches_the_svd(self, J):
        assume(all(separated(A) for A in J))
        V = np.ones((len(J), J.shape[2]))
        _, rank = project(J, V)
        assert rank.tolist() == [svd_projection(A, V[0])[1] for A in J]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda m: jacobian_stacks(m, sigmas=KEPT[:4] + CUT[1:])),
           st.integers(0, 2**32 - 1))
    def test_projection_matches_the_svd(self, J, seed):
        assume(all(separated(A, 1e-2) for A in J))
        rng = np.random.default_rng(seed)
        V = rng.normal(size=(len(J), J.shape[2]))
        P, _ = project(J, V)
        PP, _ = project(J, P)
        for A, v, p, pp in zip(J, V, P, PP):
            ref, rank = svd_projection(A, v)
            scale = np.linalg.norm(v)
            assert np.linalg.norm(p - ref) <= 1e-12 * scale
            assert np.linalg.norm(pp - p) <= 1e-12 * scale
            # orthogonal to the kept rows: the top right singular vectors
            Vt = np.linalg.svd(A)[2]
            assert np.all(np.abs(Vt[:rank] @ p) <= 1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda m: jacobian_stacks(m, sigmas=KEPT[:4] + CUT[1:])),
           st.integers(0, 2**32 - 1))
    def test_step_matches_min_norm_steps(self, J, seed):
        assume(all(separated(A, 1e-2) for A in J))
        R = np.random.default_rng(seed).normal(size=J.shape[:2])
        D, ref = step(J, R), min_norm_steps(J, R, 1e-8)
        assert np.all(np.linalg.norm(D - ref, axis=1) <= 1e-12 * np.linalg.norm(ref, axis=1))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda m: jacobian_stacks(m, size=(2, 6))),
           st.integers(0, 2**32 - 1), st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_entry_spoils_its_row_only(self, J, seed, bad):
        rng = np.random.default_rng(seed)
        V, R = rng.normal(size=(len(J), J.shape[2])), rng.normal(size=J.shape[:2])
        i = int(rng.integers(len(J)))
        J[i, rng.integers(J.shape[1]), rng.integers(J.shape[2])] = bad
        P, D = project(J, V)[0], step(J, R)
        assert np.all(np.isnan(P[i])) and np.all(np.isnan(D[i]))
        others = np.arange(len(J)) != i
        assert np.array_equal(P[others], project(J[others], V[others])[0])
        assert np.array_equal(D[others], step(J[others], R[others]))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(lambda m: jacobian_stacks(m, size=(2, 8))),
           st.integers(0, 2**32 - 1))
    def test_rows_are_batch_independent(self, J, seed):
        rng = np.random.default_rng(seed)
        V, R = rng.normal(size=(len(J), J.shape[2])), rng.normal(size=J.shape[:2])
        P, rank = project(J, V)
        D = step(J, R)
        subset = rng.permutation(len(J))[: rng.integers(1, len(J) + 1)]
        P_sub, rank_sub = project(J[subset], V[subset])
        assert np.array_equal(P_sub, P[subset]) and np.array_equal(rank_sub, rank[subset])
        assert np.array_equal(step(J[subset], R[subset]), D[subset])
        for i in range(len(J)):
            assert np.array_equal(project(J[i:i + 1], V[i:i + 1])[0][0], P[i])

    @settings(max_examples=40, deadline=None)
    @given(jacobian_stacks(3, size=(1, 8)))
    def test_three_rows_converge_well_inside_the_sweep_cap(self, J):
        B, s2, _ = orthogonal_rows(J, 1e-8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space, "JACOBI_SWEEPS", space.JACOBI_SWEEPS // 4)
            B_short, s2_short, _ = orthogonal_rows(J, 1e-8)
        assert np.array_equal(B, B_short) and np.array_equal(s2, s2_short)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: jacobian_stacks(m, size=(0, 6))), st.integers(0, 2**32 - 1),
           st.sampled_from([None, np.nan, np.inf, -np.inf]))
    def test_contiguous_rows_give_the_strided_kernels_bits(self, J, seed, bad):
        rng = np.random.default_rng(seed)
        V, R = rng.normal(size=(len(J), J.shape[2])), rng.normal(size=J.shape[:2])
        if bad is not None and len(J):
            J[rng.integers(len(J)), rng.integers(J.shape[1]), rng.integers(J.shape[2])] = bad
        J0, R0 = J.copy(), R.copy()
        B, s2, W = orthogonal_rows(J, 1e-8, R)
        assert np.array_equal(J, J0, equal_nan=True) and np.array_equal(R, R0)
        assert B.shape == (J.shape[1], *J.shape[::2]) and s2.shape == W.shape == R.T.shape
        if J.shape[1] > 1:
            assert all(b.flags.c_contiguous for b in B)
        for got, ref in zip((B, s2, W), strided_rows.orthogonal_rows(J0, 1e-8, R0)):
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, ref, strict=True))
        P, rank = project(J, V)
        D = step(J, R)
        assert np.array_equal(J, J0, equal_nan=True) and np.array_equal(R, R0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space, "orthogonal_rows", strided_rows.orthogonal_rows)
            P_ref, rank_ref = project(J, V)
            D_ref = step(J, R)
        assert np.array_equal(P, P_ref, equal_nan=True) and np.array_equal(rank, rank_ref)
        assert np.array_equal(D, D_ref, equal_nan=True)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KERNEL_SPACES)), st.integers(0, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([None, np.nan, np.inf]))
    def test_contiguous_rows_retract_to_the_strided_kernels_bits(self, name, N, seed, bad):
        Z = KERNEL_SPACES[name]
        rng = np.random.default_rng(seed)
        lo, hi = Z._box_bounds
        X = rng.uniform(lo, hi, size=(N, Z.ambient_dim)) * rng.choice([0.1, 0.5, 1.0], size=(N, 1))
        if bad is not None and N:
            X[rng.integers(N), rng.integers(Z.ambient_dim)] = bad
        got = Z.retract_batch(X)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(space, "orthogonal_rows", strided_rows.orthogonal_rows)
            ref = Z.retract_batch(X)
        assert np.array_equal(got[0], ref[0], equal_nan=True) and np.array_equal(got[1], ref[1])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(jacobian_stacks(1, size=(1, 8)), st.integers(0, 2**32 - 1),
           st.sampled_from([None, np.nan, np.inf]))
    def test_one_row_gives_the_closed_form_bits(self, J, seed, bad):
        rng = np.random.default_rng(seed)
        V, R = rng.normal(size=(len(J), J.shape[2])), rng.normal(size=(len(J), 1))
        if bad is not None:
            J[rng.integers(len(J)), 0, rng.integers(J.shape[2])] = bad

        # the rank-1 closed forms the kernel replaced
        row = J[:, 0]
        s2 = row_sums(row * row)
        coef = np.zeros(len(J))
        np.divide(row_sums(row * V), s2, out=coef, where=s2 != 0.0)
        ref_p, ref_rank = V - row * coef[:, None], (s2 != 0.0).astype(int)
        coef = np.zeros(len(J))
        np.divide(R[:, 0], s2, out=coef, where=s2 != 0.0)
        ref_d = row * coef[:, None]

        P, rank = project(J, V)
        assert np.array_equal(P, ref_p, equal_nan=True) and np.array_equal(rank, ref_rank)
        assert np.array_equal(step(J, R), ref_d, equal_nan=True)
