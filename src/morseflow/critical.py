"""Fixed points of the constrained descent flow.

Locates them by grid-seeded least-squares Newton refinement, classifies
them from probe values plus witness flows, and checks that distinct
critical values stay separated.

Two search passes are needed because criticality has two faces here: on a
smooth stratum the projected gradient vanishes, while at a rank-collapse
point of the constraints the projected gradient can be useless and the
honest test is dynamic (the flow cannot leave the point).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import ArcBudget, Converged, StepControl, TimeBudget, integrate_ensemble
from .polynomial import Polynomial, PolynomialSystem, gradient
from .sampling import _dedupe, ring_probes, substream
from .space import SingularSpace, min_norm_steps, row_norms, row_sums

log = logging.getLogger(__name__)

CRIT_TOL = 1e-9
CLUSTER_TOL = 1e-6
# the residual each critical-search seed is refined below
REFINE_TOL = 1e-12
# a rank-collapse point is fixed when its probe flows stay within
# 2 * FIXED_RHO over an arc of 10 * FIXED_RHO
FIXED_RHO = 1e-4
# classify probes a ring with this many directions (the axes first)
N_PROBES = 24
VALUE_MERGE_TOL = 1e-8
GAP_TOL = 1e-4
DEFAULT_GRID_DENSITY = 7
# grid_density ** n_vars seeds each start a Newton refinement in the critical search
MAX_GRID_SEEDS = 100_000
# the critical search steps at most this many seeds at a time, which bounds its working arrays
REFINE_POOL = 256
# the 30 step lengths of a line search, taken in rounds of these sizes
LINE_SEARCH_ROUNDS = (1, 5, 8, 16)

KINDS = ("minimum", "maximum", "saddle", "degenerate", "unresolved")


@dataclass(frozen=True)
class CriticalPoint:
    """A fixed point of the flow on Z.

    grad_norm is the residual of criticality: the projected-gradient norm
    at the location or, for dynamically validated singular points, the
    smallest projected-gradient norm observed along the stagnation probes.
    """

    location: tuple[float, ...]
    value: float
    grad_norm: float
    kind: str = "unresolved"
    cluster_radius: float = 0.0

    def point(self) -> np.ndarray:
        return np.asarray(self.location, dtype=float)

    def to_payload(self) -> dict:
        return {
            "location": [float(v) for v in self.location],
            "value": float(self.value),
            "grad_norm": float(self.grad_norm),
            "kind": self.kind,
            "cluster_radius": float(self.cluster_radius),
        }


@dataclass
class ConditionReport:
    """Verdict plus witnesses for one numbered condition check."""

    condition: int
    verdict: str
    witnesses: dict
    modulus_table: Optional[list] = None

    def to_payload(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "modulus_table": self.modulus_table,
        }


def default_grid_density(n_vars: int) -> int:
    """The largest density up to DEFAULT_GRID_DENSITY whose grid has at most MAX_GRID_SEEDS seeds."""
    d = DEFAULT_GRID_DENSITY
    while d > 2 and d**n_vars > MAX_GRID_SEEDS:
        d -= 1
    return d


def _grid_seeds(Z: SingularSpace, grid_density: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, grid_density) for lo, hi in Z.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _norms(A: np.ndarray) -> np.ndarray:
    return np.sqrt(row_sums(A * A))


def _lstsq_steps(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    # eps * max(m, n): the default singular-value cut of numpy's least-squares solver
    return min_norm_steps(J, R, np.finfo(float).eps * max(J.shape[1:]))


def _central_differences(resid, X: np.ndarray) -> np.ndarray:
    """Jacobians of resid at the rows of X, with h = 1e-7 * max(1, |x_j|) per row.

    All 2n displaced copies of the block go through one resid call.
    """
    N, n = X.shape
    H = 1e-7 * np.maximum(1.0, np.abs(X))
    P = np.repeat(X[None], 2 * n, axis=0)
    for j in range(n):
        P[2 * j, :, j] += H[:, j]
        P[2 * j + 1, :, j] -= H[:, j]
    D = resid(P.reshape(2 * n * N, n)).reshape(n, 2, N, -1)
    return ((D[:, 0] - D[:, 1]) / (2.0 * H.T[:, :, None])).transpose(1, 2, 0)


def _refine(resid, X0, tol, jac=None, max_iter=80, polish_iter=40, max_step_len=None):
    """Damped least-squares Newton on every row of X0.

    Returns the refined rows, their residuals and a mask of the rows that
    converged; a failed row holds its last accepted iterate.

    Phase one drives a row's residual below tol; phase two keeps stepping at
    full length until the step itself is negligible, which pins down the
    location even where the residual landscape is extremely flat (x^4
    near 0 reaches residual 1e-12 while still 1e-4 away from the root).
    resid (and jac, else central differences) map an (N, n) block to its
    rows' residuals (and Jacobians).

    The rows step in a pool of at most REFINE_POOL, which bounds every
    working array.  Each iteration tops the pool up from the unstarted rows
    in order, takes one Jacobian and one least-squares solve over the whole
    pool, then line-searches the phase-one rows and tests the full step of
    the polishing ones; a row leaves the pool the moment it is done.  Rows
    never interact: a row's result does not depend on the rows refined with
    it, or on the pool width.
    """
    X = np.array(X0, dtype=float)
    N, n = X.shape
    R, rn, ok = None, np.zeros(N), np.zeros(N, dtype=bool)
    # per row: steps taken in its phase, steps that kept over half the residual, in phase two
    used, stall, polish = np.zeros(N, dtype=int), np.zeros(N, dtype=int), np.zeros(N, dtype=bool)

    def settle(rows):
        """The rows still to step; a phase-one row below tol or out of steps polishes or fails."""
        rows = rows[ok[rows]]
        done = rows[~polish[rows] & ((rn[rows] < tol) | (used[rows] >= max_iter))]
        ok[done] = rn[done] < tol
        polish[done], used[done] = True, 0
        rows = rows[ok[rows]]
        return rows[~polish[rows] | (used[rows] < polish_iter)]

    pool, queued = np.zeros(0, dtype=int), 0
    while True:
        # no rows still make one (empty) residual call, so R has its width
        while R is None or (queued < N and len(pool) < REFINE_POOL):
            new = np.arange(queued, min(N, queued + REFINE_POOL - len(pool)))
            queued += len(new)
            r = resid(X[new])
            if R is None:
                R = np.zeros((N, r.shape[1]))
            R[new], rn[new] = r, _norms(r)
            ok[new] = np.isfinite(rn[new])
            pool = np.concatenate([pool, settle(new)])
        if not pool.size:
            return X, R, ok
        x = X[pool]
        step = _lstsq_steps(jac(x) if jac else _central_differences(resid, x), -R[pool])
        moving = np.isfinite(step).all(axis=1)
        # a non-finite step fails a phase-one row and ends a polishing one
        ok[pool[~moving & ~polish[pool]]] = False

        one = np.flatnonzero(moving & ~polish[pool])
        rows, x1, s1 = pool[one], x[one], step[one]
        t = np.ones(len(rows))
        if max_step_len is not None:
            sn = _norms(s1)
            long = sn > max_step_len
            t[long] = max_step_len / sn[long]
        # each row takes the first of its steps t, t/2, ..., t/2^29 whose
        # residual is finite and lower; the halvings are tried in rounds of
        # several at once, which picks the same step in fewer calls
        todo, tried = np.arange(len(rows)), 0
        for width in LINE_SEARCH_ROUNDS:
            if not todo.size:
                break
            T = t[todo, None] * 0.5 ** np.arange(tried, tried + width)
            xn = x1[todo, None, :] + T[:, :, None] * s1[todo, None, :]
            r_new = resid(xn.reshape(-1, n)).reshape(len(todo), width, -1)
            rn_new = _norms(r_new)
            down = np.isfinite(rn_new) & (rn_new < rn[rows[todo], None])
            found, k = down.any(axis=1), down.argmax(axis=1)
            hit, k = rows[todo[found]], k[found]
            xn, r_new, rn_new = xn[found, k], r_new[found, k], rn_new[found, k]
            # a local minimum of the residual above tol is a dead seed, not a root
            stall[hit] = np.where(rn_new > 0.5 * rn[hit], stall[hit] + 1, 0)
            X[hit], R[hit], rn[hit] = xn, r_new, rn_new
            todo, tried = todo[~found], tried + width
        ok[rows[todo]] = False
        ok[rows[stall[rows] >= 6]] = False

        # polish: the full step, kept unless the residual rises above tol;
        # a rise or a negligible step ends the polish
        two = np.flatnonzero(moving & polish[pool])
        if two.size:
            rows, xn, s2 = pool[two], x[two] + step[two], step[two]
            r_new = resid(xn)
            rn_new = _norms(r_new)
            kept = np.isfinite(rn_new) & (rn_new <= np.maximum(rn[rows], tol))
            rows, xn, s2, moving[two] = rows[kept], xn[kept], s2[kept], kept
            X[rows], R[rows], rn[rows] = xn, r_new[kept], rn_new[kept]
            moving[two[kept]] = _norms(s2) >= 1e-14 * (1.0 + _norms(xn))
        used[pool] += 1
        pool = settle(pool[moving])


def _numerically_fixed(f: Polynomial, Z: SingularSpace, p: np.ndarray):
    """Dynamic criticality test at a rank-collapse point of the constraints.

    Accepted as fixed when flows probed both ways stay inside the
    2 * FIXED_RHO ball over an arc budget of 10 * FIXED_RHO.  Returns
    (fixed, residual) where residual is the smallest projected-gradient
    norm seen along the probes; a genuinely fixed point exhibits ~0 there even when the raw
    ambient gradient does not vanish.
    """
    p = np.asarray(p, dtype=float)
    probes = integrate_ensemble(
        f,
        Z,
        [p, p],
        directions=("descend", "ascend"),
        stops=[Converged(1e-8), ArcBudget(10.0 * FIXED_RHO), TimeBudget(1e4)],
        control=StepControl(max_step=FIXED_RHO / 4.0),
        record=True,
    )
    for traj in probes:
        disp = float(np.max(np.linalg.norm(traj.y - p[None, :], axis=1)))
        if disp > 2.0 * FIXED_RHO:
            return False, np.inf
    return True, min(float(np.min(traj.grad_norm)) for traj in probes)


def _smooth_residual(f: Polynomial, Z: SingularSpace):
    """The map from an (N, n) block to its rows' {g, projected gradient of f}."""
    grad_sys = gradient(f)

    def resid(X):
        P = Z.tangent_project_batch(X, grad_sys.evaluate(X))[0]
        return np.concatenate([Z.constraints.evaluate(X), P], axis=1)

    return resid


def _singular_system(Z: SingularSpace) -> PolynomialSystem:
    # roots of this system are the points where every constraint gradient vanishes
    entries = list(Z.constraints.components)
    for comp in Z.constraints.components:
        for var in Z.constraints.variables:
            entries.append(comp.derivative(var))
    return PolynomialSystem(Z.constraints.variables, entries)


def find_critical_points(f: Polynomial, Z: SingularSpace, grid_density: int | None = None) -> list[CriticalPoint]:
    """Locate and deduplicate the fixed points of the flow inside the box.

    Grid seeds are retracted to Z and refined by damped least-squares
    Newton on {g = 0, projected gradient = 0}, to below REFINE_TOL.  A
    second pass hunts points where all constraint gradients vanish; those
    failing the first-order test are kept only when probe flows show the
    point is numerically fixed.  Each pass refines all its seeds in one
    :func:`_refine` call.  Non-convergent seeds are discarded (counts
    logged), and the points found are clustered within CLUSTER_TOL.  The
    grid density defaults to :func:`default_grid_density` of the dimension.
    """
    if grid_density is None:
        grid_density = default_grid_density(Z.ambient_dim)
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2")
    grad_sys = gradient(f)
    max_len = 2.0 * Z.box_diameter

    seeds = _grid_seeds(Z, grid_density)
    starts, retracted = Z.retract_batch(seeds)
    X, R, ok = _refine(_smooth_residual(f, Z), starts[retracted], REFINE_TOL, max_step_len=max_len)
    gn = _norms(R[:, len(Z.constraints):])
    hits = np.flatnonzero(ok & (gn < CRIT_TOL))
    hits = hits[Z.is_member(X[hits])]
    found = list(zip(X[hits], gn[hits]))
    log.info("smooth pass: %d/%d seeds refined to critical points", len(found), len(seeds))

    if len(Z.constraints):
        system = _singular_system(Z)
        X, _, ok = _refine(system.evaluate, seeds, REFINE_TOL, jac=system.jacobian_at, max_step_len=max_len)
        X = X[ok]
        sing_hits = _dedupe(X[Z.is_member(X)], CLUSTER_TOL)
        log.info("singular pass: %d/%d seeds refined to %d rank-collapse points",
                 int(ok.sum()), len(seeds), len(sing_hits))
        for x in sing_hits:
            gn = float(np.linalg.norm(Z.tangent_project(x, grad_sys.evaluate(x))))
            if gn < CRIT_TOL:
                found.append((x, gn))
                continue
            fixed, gn_dyn = _numerically_fixed(f, Z, x)
            if fixed and gn_dyn < CRIT_TOL:
                found.append((x, gn_dyn))
            else:
                log.info("singular point %s rejected: flow escapes (residual %g)", x, gn_dyn)
    if not found:
        return []

    # representative = best-converged member; residual breaks grad-norm ties
    # (an off-variety point can carry an exactly zero projected gradient)
    locs, gns = np.array([x for x, _ in found]), np.array([g for _, g in found])
    res = Z.residual(locs)
    order = sorted(range(len(found)), key=lambda i: (gns[i], res[i], tuple(locs[i])))
    locs, gns = locs[order], gns[order]
    reps = np.array(_dedupe(locs, CLUSTER_TOL))
    # each point belongs to the first representative within CLUSTER_TOL
    dist = row_norms((locs[:, None] - reps[None]).reshape(-1, Z.ambient_dim)).reshape(len(locs), len(reps))
    home = np.argmax(dist <= CLUSTER_TOL, axis=1)
    cps = [
        CriticalPoint(
            location=tuple(float(v) for v in rep),
            value=float(f.evaluate(rep)),
            grad_norm=float(gns[home == k].min()),
            kind="unresolved",
            cluster_radius=float(dist[home == k, k].max()),
        )
        for k, rep in enumerate(reps)
    ]
    cps.sort(key=lambda c: (c.value, c.location))
    return cps


def _saddle_witnesses(f, Z, cp, below_probe, probe_radius) -> bool:
    """Both saddle witnesses: the down-flow escapes, the back-flow returns."""
    center = cp.point()
    down, up = integrate_ensemble(
        f, Z, [below_probe, below_probe], directions=("descend", "ascend"), levels=(None, cp.value),
        stops=[Converged(1e-8), ArcBudget(max(50.0 * probe_radius, 1.0))], record=(True, False),
    )
    max_dist = float(np.max(np.linalg.norm(down.y - center[None, :], axis=1)))
    end_dist = float(np.linalg.norm(up.endpoint - center))
    return (max_dist > 2.0 * probe_radius and up.termination in ("reach_level", "converged")
            and end_dist <= probe_radius)


def classify(
    f: Polynomial,
    Z: SingularSpace,
    cp: CriticalPoint,
    probe_radius: float = 0.01,
    seed: int = 0,
) -> str:
    """Classify a critical point from f-values on a retracted ring of N_PROBES probes.

    minimum / maximum when every probe lies beyond probe_tol on one side,
    saddle when both sides are populated and the two witness flows confirm
    it, degenerate when the probes cannot separate the values at all.
    probe_tol adapts to the observed spread, so flat quartic bowls and
    steep cones are judged by the same rule.
    """
    if cp.grad_norm >= CRIT_TOL:
        raise ValueError("classify expects a validated critical point")
    center = cp.point()
    rng = substream(seed, "classify")
    n_extra = max(0, N_PROBES - 2 * Z.ambient_dim)
    probes = ring_probes(Z, center, probe_radius, rng, n_random=n_extra, require_in_box=False)
    # a stratum of dimension k offers 2k axis probes; the ambient dimension
    # would ask a lifted problem for probes its stratum cannot have
    local_dim = Z.ambient_dim - Z.effective_rank(center)
    min_probes = max(2, min(2 * local_dim, 6))
    if len(probes) < min_probes:
        log.warning(
            "only %d on-Z probes at radius %g around %s; classification unresolved",
            len(probes), probe_radius, cp.location,
        )
        return "unresolved"
    probes = np.array(probes)
    values = f.evaluate(probes)
    dv = values - cp.value
    scale = float(np.max(np.abs(dv)))
    if scale <= 1e-12 * (1.0 + abs(cp.value)):
        return "degenerate"
    probe_tol = max(1e-12, 1e-3 * scale)
    has_above = bool(np.any(dv > probe_tol))
    has_below = bool(np.any(dv < -probe_tol))
    if has_above and has_below:
        below = probes[int(np.argmin(dv))]
        if _saddle_witnesses(f, Z, cp, below, probe_radius):
            return "saddle"
        log.warning("two-sided probes but witness flows failed at %s", cp.location)
        return "unresolved"
    if has_above:
        return "minimum"
    if has_below:
        return "maximum"
    return "degenerate"


def check_condition1(cps, gap_tol: float = GAP_TOL, value_merge_tol: float = VALUE_MERGE_TOL) -> ConditionReport:
    """Isolated critical values: clustered values must sit more than gap_tol apart.

    Accepts CriticalPoint instances or bare values.
    """
    values = sorted(float(getattr(cp, "value", cp)) for cp in cps)
    merged: list[list[float]] = []
    for v in values:
        if merged and v - merged[-1][-1] <= value_merge_tol:
            merged[-1].append(v)
        else:
            merged.append([v])
    centers = [float(np.mean(group)) for group in merged]
    gaps = [b - a for a, b in zip(centers, centers[1:])]
    min_gap = min(gaps) if gaps else float("inf")
    verdict = "pass" if min_gap > gap_tol else "fail"
    witnesses = {
        "values": centers,
        "min_gap": min_gap,
        "n_points": len(values),
        "n_values": len(centers),
    }
    if not values:
        witnesses["warning"] = "no critical points supplied; vacuously isolated"
    return ConditionReport(condition=1, verdict=verdict, witnesses=witnesses)
