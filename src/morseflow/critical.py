"""Fixed points of the constrained descent flow.

Locates them by grid-seeded least-squares Newton refinement, classifies
them from probe values plus witness flows, and checks that distinct
critical values stay separated.

Two search passes are needed because criticality has two faces here: on a
smooth stratum the projected gradient vanishes, while a point of Z where
every constraint gradient vanishes is singular, and so critical, whatever
the projected gradient does there.  The second pass solves {g = 0, Dg = 0}
and accepts every root it converges to on Z; it is skipped, exactly, when
one of its entries is a non-zero constant (a linear constraint's gradient):
that system has no root.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import CONVERGED, ArcBudget, Capture, integrate_ensemble
from .polynomial import Polynomial, PolynomialSystem, gradient, jacobian
from .sampling import _dedupe, ring_probes, substream
from .space import SingularSpace, line_search, min_norm_steps, norms, row_norms

log = logging.getLogger(__name__)

CRIT_TOL = 1e-9
CLUSTER_TOL = 1e-6
# the residual each critical-search seed is refined below, in at most
# REFINE_ITER steps, then polished by at most POLISH_ITER full steps
REFINE_TOL = 1e-12
REFINE_ITER = 80
POLISH_ITER = 40
# classify probes a ring of radius PROBE_RADIUS (see sampling.RING_PROBES)
PROBE_RADIUS = 0.01
VALUE_MERGE_TOL = 1e-8
GAP_TOL = 1e-4
DEFAULT_GRID_DENSITY = 7
# grid_density ** n_vars seeds each start a Newton refinement in the critical search
MAX_GRID_SEEDS = 100_000
# the critical search steps at most this many seeds at a time, which bounds its working arrays
REFINE_POOL = 256
# with an exact Jacobian, a row whose last two ratios of undamped step lengths
# agree within SCHRODER_AGREE (relative), at a ratio below SCHRODER_MAX_RATIO,
# converges linearly to a multiple root, and its next step is lengthened
SCHRODER_AGREE = 0.1
SCHRODER_MAX_RATIO = 0.95


@dataclass(frozen=True)
class CriticalPoint:
    """A fixed point of the flow on Z.

    grad_norm is the residual of criticality: the norm of the projected
    gradient at the location for a smooth-pass point, and the norm of
    {g, Dg} there for a rank-collapse point of the singular pass.
    """

    location: tuple[float, ...]
    value: float
    grad_norm: float
    kind: str
    cluster_radius: float

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


def _lstsq_steps(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    # eps * max(m, n): the default singular-value cut of numpy's least-squares solver
    return min_norm_steps(J, R, np.finfo(float).eps * max(J.shape[1:]))


def _central_differences(resid, X: np.ndarray) -> np.ndarray:
    """Jacobians of resid at the rows of X, with h = 1e-7 * max(1, |x_j|) per row.

    All 2n displaced copies of the block go through one resid call.  An
    empty block gives a (0, k, n) array for a residual of width k.
    """
    N, n = X.shape
    H = 1e-7 * np.maximum(1.0, np.abs(X))
    P, j = np.repeat(X[None], 2 * n, axis=0), np.arange(n)
    P[2 * j, :, j] += H.T
    P[2 * j + 1, :, j] -= H.T
    D = resid(P.reshape(2 * n * N, n))
    D = D.reshape(n, 2, N, D.shape[1])  # the residual's width, which an empty block cannot infer
    return ((D[:, 0] - D[:, 1]) / (2.0 * H.T[:, :, None])).transpose(1, 2, 0)


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each bit-distinct row of X, and each row's index among those rows.

    Rows are keyed on their bits by one lexsort, not on float equality,
    which would merge 0.0 with -0.0; first is in ``np.unique(axis=0)``'s order.
    """
    order = np.lexsort(X.view(np.int64).T[::-1])
    K = X.view(np.int64)[order]
    head = np.ones(len(K), dtype=bool)
    head[1:] = (K[1:] != K[:-1]).any(axis=1)
    copy = np.empty(len(K), dtype=np.intp)
    copy[order] = np.cumsum(head) - 1
    return order[head], copy


def _refine(resid, X0, tol, jac, max_step_len):
    """Damped least-squares Newton on every row of X0.

    Returns the refined rows, their residuals and a mask of the rows that
    converged; a failed row holds its last accepted iterate.  Rows never
    interact: a row's result does not depend on the rows refined with it,
    or on the pool width.  So each bit-distinct row (:func:`_distinct_rows`,
    one lexsort of the rows' int64 bits) is refined once, and its result is
    copied to every row with its bits.

    Phase one drives a row's residual below tol in at most REFINE_ITER
    steps; phase two keeps stepping at full length, at most POLISH_ITER
    times, until the step itself is negligible, which pins down the
    location even where the residual landscape is extremely flat (4x^3,
    the gradient of x^4, is below 1e-12 while still 6e-5 away from the
    root).  resid (and jac, or central differences when jac is None) map
    an (N, n) block to its rows' residuals (and Jacobians).

    At a root of multiplicity m, Newton converges only linearly, each step
    (m - 1) / m times the one before, so plain steps would polish that
    4x^3 root only by 2/3 a step.  Given jac, a row keeps the length of
    its last undamped step (a phase-one step accepted at its first,
    uncapped trial length, or a kept polish step) and its ratio rho to the
    one before; a damped step clears both.  When the next step's ratio
    agrees with rho within SCHRODER_AGREE and lies below
    SCHRODER_MAX_RATIO, that step is scaled by 1 / (1 - ratio), the sum of
    the remaining geometric series (Schroeder's step).  The rule needs an
    exact Jacobian: the h^2 error of central differences corrupts the
    ratios (their Jacobian of 4x^3 is 12x^2 + 4h^2, so below |x| ~ h each
    step shrinks to about x^3 / h^2), and without jac it is off and costs
    nothing: no ratio, scale or retry is formed, and a polish step is the
    plain step.

    Each distinct row's residual is taken once, in blocks of REFINE_POOL
    rows; the rows still to step wait in one queue, in sorted-bit order.
    Each iteration steps the pool, the queue's first REFINE_POOL rows,
    which bounds every working array: one Jacobian and one least-squares
    solve over the pool, then a line search of the phase-one rows
    (:func:`space.line_search`, whose first trial length is the step's
    scale, capped at max_step_len; a row whose step is exactly zero cannot
    descend and fails without a search) and a test of the polishing ones'
    scaled step, then of their plain step if the scaled one is refused.  A
    row leaves the queue once done; the rest of the pool returns to its front.
    """
    X0 = np.array(X0, dtype=float)
    first, copy = _distinct_rows(X0)
    X = X0[first]
    N = len(X)
    # an empty X still makes one (empty) residual call, so R has its width
    R = np.concatenate([resid(X[i:i + REFINE_POOL]) for i in range(0, max(N, 1), REFINE_POOL)])
    rn = norms(R)
    ok = np.isfinite(rn)
    # per row: steps taken in its phase, steps that kept over half the residual, in phase two
    used, stall, polish = np.zeros(N, dtype=int), np.zeros(N, dtype=int), np.zeros(N, dtype=bool)
    # per row: the length of its last undamped step, and that length's ratio to the one before
    last, rho = np.full(N, np.nan), np.full(N, np.nan)

    def settle(rows):
        """The rows still to step; a phase-one row below tol or out of steps polishes or fails."""
        rows = rows[ok[rows]]
        done = rows[~polish[rows] & ((rn[rows] < tol) | (used[rows] >= REFINE_ITER))]
        ok[done] = rn[done] < tol
        polish[done], used[done] = True, 0
        rows = rows[ok[rows]]
        return rows[~polish[rows] | (used[rows] < POLISH_ITER)]

    def full_step(x, s, rn_old):
        """x + s, its residuals and their norms, and the mask to keep: a finite norm at most max(rn_old, tol)."""
        xn = x + s
        r_new = resid(xn)
        rn_new = norms(r_new)
        return xn, r_new, rn_new, np.isfinite(rn_new) & (rn_new <= np.maximum(rn_old, tol))

    live = settle(np.arange(N))
    while live.size:
        pool = live[:REFINE_POOL]
        x = X[pool]
        step = _lstsq_steps(jac(x) if jac else _central_differences(resid, x), -R[pool])
        moving = np.isfinite(step).all(axis=1)
        # a non-finite step fails a phase-one row and ends a polishing one
        ok[pool[~moving & ~polish[pool]]] = False
        sn, scale = norms(step), np.ones(len(pool))
        if jac:
            ratio = sn / last[pool]
            fire = (np.abs(ratio - rho[pool]) <= SCHRODER_AGREE * rho[pool]) & (ratio < SCHRODER_MAX_RATIO)
            scale = 1.0 / (1.0 - np.where(fire, ratio, 0.0))

        one = np.flatnonzero(moving & ~polish[pool])
        zero = ~step[one].any(axis=1)
        ok[pool[one[zero]]] = False
        one = one[~zero]
        if one.size:
            rows = pool[one]
            t = np.divide(max_step_len, sn[one], out=scale[one], where=scale[one] * sn[one] > max_step_len)
            down, xn, r_new, rn_new = line_search(resid, x[one], step[one], rn[rows], t)
            hit = rows[down]
            # a local minimum of the residual above tol is a dead seed, not a root
            stall[hit] = np.where(rn_new > 0.5 * rn[hit], stall[hit] + 1, 0)
            X[hit], R[hit], rn[hit] = xn, r_new, rn_new
            ok[rows[~down | (stall[rows] >= 6)]] = False
            if jac:
                # the first trial point is the one line_search forms, so equal bits mean it was accepted
                d = one[down]
                full = (t[down] == scale[d]) & (xn == x[d] + t[down, None] * step[d]).all(axis=1)
                last[hit], rho[hit] = np.where(full, sn[d], np.nan), np.where(full, ratio[d], np.nan)

        # polish: the scaled step, else the plain one, kept unless the
        # residual rises above tol; a rise or a negligible step ends the polish
        two = np.flatnonzero(moving & polish[pool])
        if two.size:
            rows, s2 = pool[two], scale[two, None] * step[two] if jac else step[two]
            xn, r_new, rn_new, kept = full_step(x[two], s2, rn[rows])
            if jac:
                retry = np.flatnonzero(~kept & fire[two])
                if retry.size:
                    s2[retry] = step[two[retry]]
                    xn[retry], r_new[retry], rn_new[retry], kept[retry] = full_step(x[two[retry]], s2[retry],
                                                                                    rn[rows[retry]])
                last[rows], rho[rows] = np.where(kept, sn[two], np.nan), np.where(kept, ratio[two], np.nan)
            rows, xn, s2, moving[two] = rows[kept], xn[kept], s2[kept], kept
            X[rows], R[rows], rn[rows] = xn, r_new[kept], rn_new[kept]
            moving[two[kept]] = norms(s2) >= 1e-14 * (1.0 + norms(xn))
        used[pool] += 1
        live = np.concatenate([settle(pool[moving]), live[REFINE_POOL:]])
    return X[copy], R[copy], ok[copy]


def _smooth_residual(f: Polynomial, Z: SingularSpace):
    """The map from an (N, n) block to its rows' {g, projected gradient of f}; on R^n, the gradient alone."""
    grad_sys, m = gradient(f), len(Z.constraints)

    def resid(X):
        P = Z.tangent_project_batch(X, grad_sys.evaluate(X))[0]
        return np.concatenate([Z.constraints.evaluate(X), P], axis=1) if m else P

    return resid


def _singular_system(Z: SingularSpace) -> PolynomialSystem:
    # roots of this system are the points where every constraint gradient vanishes
    g = Z.constraints
    return PolynomialSystem(g.variables, (*g, *[d for row in jacobian(g) for d in row]))


def _constant_entry(system: PolynomialSystem) -> Optional[int]:
    """The index of the first component of system that is a non-zero constant, else None.

    A system with such a component has no root anywhere.  The zero polynomial
    has no terms (_canonical drops zero coefficients), so it never counts.
    """
    return next((i for i, p in enumerate(system) if len(p.terms) == 1 and not any(p.terms[0].exponents)), None)


def search_seeds(Z: SingularSpace, grid_density: int | None) -> np.ndarray:
    """The critical search's grid seeds; a density of None is :func:`default_grid_density` of the dimension."""
    if grid_density is None:
        grid_density = default_grid_density(Z.ambient_dim)
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2")
    return _grid_seeds(Z, grid_density)


def singular_roots(Z: SingularSpace, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The singular pass: the roots of {g = 0, Dg = 0} on Z refined from seeds, and the norm of {g, Dg} at each.

    Refines every seed to below REFINE_TOL in one :func:`_refine` call, with
    the system's exact Jacobian, and accepts every root it reaches on Z: a
    point where all constraint gradients vanish is singular, so critical.
    Skipped, exactly, when the system has a non-zero constant entry
    (:func:`_constant_entry`) and so no root, and on R^n, where there is no
    constraint; both give no root.  It reads only Z and the seeds, so it can
    run in another process beside the smooth pass.
    """
    none = np.zeros((0, Z.ambient_dim)), np.zeros(0)
    if not len(Z.constraints):
        return none
    system = _singular_system(Z)
    k = _constant_entry(system)
    if k is not None:
        g, names = Z.constraints.components, system.variables
        i, j = divmod(k - len(g), len(names))
        entry = f"constraint {g[k]}" if k < len(g) else f"d({g[i]})/d{names[j]} = {system.components[k]}"
        log.info("singular pass skipped: %s is a non-zero constant, so {g = 0, Dg = 0} has no root", entry)
        return none
    X, R, ok = _refine(system.evaluate, seeds, REFINE_TOL, jac=system.jacobian_at, max_step_len=2.0 * Z.box_diameter)
    hits = np.flatnonzero(ok)
    hits = hits[Z.is_member(X[hits])]
    if log.isEnabledFor(logging.INFO):  # the line counts what the search does not need
        log.info("singular pass: %d/%d seeds refined to %d rank-collapse points",
                 int(ok.sum()), len(seeds), len(_dedupe(X[hits], CLUSTER_TOL)))
    return X[hits], norms(R[hits])


def find_critical_points(f: Polynomial, Z: SingularSpace, grid_density: int | None,
                         singular=None) -> list[CriticalPoint]:
    """Locate and deduplicate the fixed points of the flow inside the box.

    Grid seeds (:func:`search_seeds`) are retracted to Z and refined by
    damped least-squares Newton on {g = 0, projected gradient = 0}, to below
    REFINE_TOL; on R^n that residual is grad f, and the pass has its exact
    Jacobian, the Hessian, so :func:`_refine` scales its steps at a multiple
    root.  With constraints it takes central differences, which keep that
    rule off.  The pass refines all its seeds in one :func:`_refine` call,
    which refines each bit-distinct start once; non-convergent seeds are
    discarded (counted and logged only when INFO is on).  The singular
    pass's roots (:func:`singular_roots` of the raw seeds) join its points,
    with the norm of {g, Dg} as their residual; no pass targets a rank drop
    of Dg that a linear row survives.  The points found are clustered
    within CLUSTER_TOL.

    singular is the source of the singular roots, called with Z and the
    seeds only after the smooth pass: None runs :func:`singular_roots` here;
    the pipeline passes one that reads the roots a forked process found, so
    this process never waits while it still has work.
    """
    seeds = search_seeds(Z, grid_density)
    starts, retracted = Z.retract_batch(seeds)
    starts = starts[retracted]
    # on R^n the smooth residual is grad f, whose exact Jacobian is the Hessian
    hessian = None if len(Z.constraints) else gradient(f).jacobian_at
    X, R, ok = _refine(_smooth_residual(f, Z), starts, REFINE_TOL, jac=hessian, max_step_len=2.0 * Z.box_diameter)
    gn = norms(R[:, len(Z.constraints):])
    hits = np.flatnonzero(ok & (gn < CRIT_TOL))
    hits = hits[Z.is_member(X[hits])]
    found = list(zip(X[hits], gn[hits]))
    # the log line counts what the search does not need, so it is built only when shown
    if log.isEnabledFor(logging.INFO):
        log.info("smooth pass: %d/%d seeds (%d distinct starts) refined to critical points",
                 len(found), len(seeds), len(_distinct_rows(starts)[0]))
    found += zip(*(singular or singular_roots)(Z, seeds))
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


def _saddle_witnesses(f, Z, cp, below_probe) -> bool:
    """Both saddle witnesses: the down-flow escapes, the back-flow returns."""
    center = cp.point()
    flows = integrate_ensemble(
        f, Z, [below_probe, below_probe], directions=("descend", "ascend"), levels=(None, cp.value),
        stops=[CONVERGED, ArcBudget(max(50.0 * PROBE_RADIUS, 1.0)), Capture(cp.location, PROBE_RADIUS)],
        record=(True, False),
    )
    max_dist = float(np.max(np.linalg.norm(flows.recorded[0].y - center[None, :], axis=1)))
    end_dist = float(np.linalg.norm(flows.endpoint[1] - center))
    return (max_dist > 2.0 * PROBE_RADIUS and flows.termination[1] in ("reach_level", "converged")
            and end_dist <= PROBE_RADIUS)


def classify(f: Polynomial, Z: SingularSpace, cp: CriticalPoint, seed: int) -> str:
    """Classify a critical point from f-values on a retracted probe ring of radius PROBE_RADIUS.

    Probes outside the box are dropped; too few left gives "unresolved".

    minimum / maximum when every probe lies beyond probe_tol on one side,
    saddle when both sides are populated and the two witness flows confirm
    it (the up-flow from the lowest probe is captured within PROBE_RADIUS
    of the point, so a flow that runs into a singular point ends there),
    degenerate when the probes cannot separate the values at all.
    probe_tol adapts to the observed spread, so flat quartic bowls and
    steep cones are judged by the same rule.
    """
    if cp.grad_norm >= CRIT_TOL:
        raise ValueError("classify expects a validated critical point")
    center = cp.point()
    rng = substream(seed, "classify")
    probes = np.array(ring_probes(Z, center, PROBE_RADIUS, rng)).reshape(-1, Z.ambient_dim)
    # a point on a box face has probes beyond it, where no witness flow may start
    probes = probes[Z.inside_box(probes)]
    # a stratum of dimension k offers 2k axis probes; the ambient dimension
    # would ask a lifted problem for probes its stratum cannot have
    local_dim = Z.ambient_dim - Z.effective_rank(center)
    min_probes = max(2, min(2 * local_dim, 6))
    if len(probes) < min_probes:
        log.warning(
            "only %d on-Z probes inside the box at radius %g around %s; classification unresolved",
            len(probes), PROBE_RADIUS, cp.location,
        )
        return "unresolved"
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
        if _saddle_witnesses(f, Z, cp, below):
            return "saddle"
        log.warning("two-sided probes but witness flows failed at %s", cp.location)
        return "unresolved"
    if has_above:
        return "minimum"
    if has_below:
        return "maximum"
    return "degenerate"


def _merged_values(values) -> tuple[list[float], float]:
    """The means of the sorted values grouped within VALUE_MERGE_TOL of the one before, and the smallest gap between means."""
    merged: list[list[float]] = []
    for v in sorted(values):
        if merged and v - merged[-1][-1] <= VALUE_MERGE_TOL:
            merged[-1].append(v)
        else:
            merged.append([v])
    centers = [float(np.mean(group)) for group in merged]
    return centers, min((b - a for a, b in zip(centers, centers[1:])), default=float("inf"))


def check_condition1(cps) -> ConditionReport:
    """Isolated critical values: values merged within VALUE_MERGE_TOL must sit more than GAP_TOL apart.

    No value at all is inconclusive: an empty search does not show that f
    has no critical point.
    """
    values = [cp.value for cp in cps]
    centers, min_gap = _merged_values(values)
    verdict = "pass" if min_gap > GAP_TOL else "fail"
    witnesses = {
        "values": centers,
        "min_gap": min_gap,
        "n_points": len(values),
        "n_values": len(centers),
    }
    if not values:
        verdict = "inconclusive"
        witnesses["reason"] = ("no critical point was found; the search does not show "
                               "that none exists")
    return ConditionReport(condition=1, verdict=verdict, witnesses=witnesses)
