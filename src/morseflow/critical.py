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
from typing import Optional, Sequence

import numpy as np

from .flow import ArcBudget, Converged, ReachLevel, StepControl, TimeBudget, integrate
from .polynomial import Polynomial, PolynomialSystem, gradient
from .sampling import ring_probes, substream
from .space import SingularSpace

log = logging.getLogger(__name__)

CRIT_TOL = 1e-9
CLUSTER_TOL = 1e-6
VALUE_MERGE_TOL = 1e-8
GAP_TOL = 1e-4
DEFAULT_GRID_DENSITY = 7
# grid_density ** n_vars seeds each start a Newton refinement in the critical search
MAX_GRID_SEEDS = 100_000

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


@dataclass(frozen=True)
class CriticalLevelSet:
    """Critical points sharing one value within value_merge_tol."""

    value: float
    points: tuple[CriticalPoint, ...]


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


def _constraint_values(Z: SingularSpace, x: np.ndarray) -> np.ndarray:
    if not len(Z.constraints):
        return np.zeros(0)
    return Z.constraints.evaluate(x)


def _fd_jacobian(fn, x: np.ndarray, rel_step: float = 1e-7) -> np.ndarray:
    r0 = fn(x)
    J = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = rel_step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (fn(xp) - fn(xm)) / (2.0 * h)
    return J


def _gauss_newton(resid_fn, x0, tol, jac_fn=None, max_iter=80, polish_iter=40, max_step_len=None):
    """Damped least-squares Newton; returns the refined point or None.

    Phase one drives the residual below tol; phase two keeps stepping at
    full length until the step itself is negligible, which pins down the
    location even where the residual landscape is extremely flat (x^4
    near 0 reaches residual 1e-12 while still 1e-4 away from the root).
    """
    x = np.asarray(x0, dtype=float).copy()
    r = resid_fn(x)
    rn = float(np.linalg.norm(r))
    if not np.isfinite(rn):
        return None
    stall = 0
    for _ in range(max_iter):
        if rn < tol:
            break
        J = jac_fn(x) if jac_fn is not None else _fd_jacobian(resid_fn, x)
        step = np.linalg.lstsq(J, -r, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            return None
        t = 1.0
        sn = float(np.linalg.norm(step))
        if max_step_len is not None and sn > max_step_len:
            t = max_step_len / sn
        accepted = False
        for _ in range(30):
            xn = x + t * step
            r_new = resid_fn(xn)
            rn_new = float(np.linalg.norm(r_new))
            if np.isfinite(rn_new) and rn_new < rn:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return None
        # local minimum of the residual above tol is a dead seed, not a root
        stall = stall + 1 if rn_new > 0.5 * rn else 0
        x, r, rn = xn, r_new, rn_new
        if stall >= 6:
            return None
    if rn >= tol:
        return None
    for _ in range(polish_iter):
        J = jac_fn(x) if jac_fn is not None else _fd_jacobian(resid_fn, x)
        step = np.linalg.lstsq(J, -r, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        xn = x + step
        r_new = resid_fn(xn)
        rn_new = float(np.linalg.norm(r_new))
        if not np.isfinite(rn_new) or rn_new > max(rn, tol):
            break
        x, r, rn = xn, r_new, rn_new
        if float(np.linalg.norm(step)) < 1e-14 * (1.0 + float(np.linalg.norm(x))):
            break
    return x


def _numerically_fixed(f: Polynomial, Z: SingularSpace, p: np.ndarray, rho: float = 1e-4):
    """Dynamic criticality test at a rank-collapse point of the constraints.

    Accepted as fixed when flows probed both ways stay inside the 2*rho
    ball over an arc budget of 10*rho.  Returns (fixed, residual) where
    residual is the smallest projected-gradient norm seen along the
    probes; a genuinely fixed point exhibits ~0 there even when the raw
    ambient gradient does not vanish.
    """
    p = np.asarray(p, dtype=float)
    best = np.inf
    control = StepControl(max_step=rho / 4.0)
    for direction in ("descend", "ascend"):
        traj = integrate(
            f,
            Z,
            p,
            direction=direction,
            stops=[Converged(1e-8), ArcBudget(10.0 * rho), TimeBudget(1e4)],
            control=control,
        )
        disp = float(np.max(np.linalg.norm(traj.y - p[None, :], axis=1)))
        if disp > 2.0 * rho:
            return False, np.inf
        best = min(best, float(np.min(traj.grad_norm)))
    return True, best


def _singular_system(Z: SingularSpace) -> PolynomialSystem:
    # roots of this system are the points where every constraint gradient vanishes
    entries = list(Z.constraints.components)
    for comp in Z.constraints.components:
        for var in Z.constraints.variables:
            entries.append(comp.derivative(var))
    return PolynomialSystem(Z.constraints.variables, entries)


def find_critical_points(
    f: Polynomial,
    Z: SingularSpace,
    grid_density: int | None = None,
    refine_tol: float = 1e-12,
    crit_tol: float = CRIT_TOL,
    cluster_tol: float = CLUSTER_TOL,
) -> list[CriticalPoint]:
    """Locate and deduplicate the fixed points of the flow inside the box.

    Grid seeds are retracted to Z and refined by damped least-squares
    Newton on {g = 0, projected gradient = 0}.  A second pass hunts points
    where all constraint gradients vanish; those failing the first-order
    test are kept only when probe flows show the point is numerically
    fixed.  Non-convergent seeds are discarded (count logged).  The grid
    density defaults to :func:`default_grid_density` of the dimension.
    """
    if grid_density is None:
        grid_density = default_grid_density(Z.ambient_dim)
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2")
    grad_sys = gradient(f)
    max_len = 2.0 * Z.box_diameter

    def resid(x):
        return np.concatenate([_constraint_values(Z, x), Z.tangent_project(x, grad_sys.evaluate(x))])

    seeds = _grid_seeds(Z, grid_density)
    found = []
    discarded = 0
    starts, retracted = Z.retract_batch(seeds)
    for start, ok in zip(starts, retracted):
        if not ok:
            discarded += 1
            continue
        x = _gauss_newton(resid, start, refine_tol, max_step_len=max_len)
        if x is None:
            discarded += 1
            continue
        gn = float(np.linalg.norm(Z.tangent_project(x, grad_sys.evaluate(x))))
        if gn >= crit_tol or not Z.is_member(x) or not Z.inside_box(x, margin=-1e-9):
            discarded += 1
            continue
        found.append((x, gn))
    log.info("smooth pass: %d/%d seeds refined to critical points", len(found), len(seeds))

    if len(Z.constraints):
        system = _singular_system(Z)
        sing_hits = []
        for seed_pt in seeds:
            x = _gauss_newton(system.evaluate, np.asarray(seed_pt, dtype=float), refine_tol,
                              jac_fn=system.jacobian_at, max_step_len=max_len)
            if x is None:
                continue
            if not Z.is_member(x) or not Z.inside_box(x, margin=-1e-9):
                continue
            if all(np.linalg.norm(x - h) > cluster_tol for h in sing_hits):
                sing_hits.append(x)
        for x in sing_hits:
            gn = float(np.linalg.norm(Z.tangent_project(x, grad_sys.evaluate(x))))
            if gn < crit_tol:
                found.append((x, gn))
                continue
            fixed, gn_dyn = _numerically_fixed(f, Z, x)
            if fixed and gn_dyn < crit_tol:
                found.append((x, gn_dyn))
            else:
                log.info("singular point %s rejected: flow escapes (residual %g)", x, gn_dyn)

    # representative = best-converged member; residual breaks grad-norm ties
    # (an off-variety point can carry an exactly zero projected gradient)
    ranked = sorted(found, key=lambda pg: (pg[1], Z.residual(pg[0]), tuple(pg[0])))
    clusters = []
    for loc, gn in ranked:
        home = None
        for cl in clusters:
            if np.linalg.norm(loc - cl["rep"]) <= cluster_tol:
                home = cl
                break
        if home is None:
            clusters.append({"rep": loc, "gn": gn, "members": [loc]})
        else:
            home["members"].append(loc)
            home["gn"] = min(home["gn"], gn)

    cps = []
    for cl in clusters:
        radius = max((float(np.linalg.norm(m - cl["rep"])) for m in cl["members"]), default=0.0)
        cps.append(
            CriticalPoint(
                location=tuple(float(v) for v in cl["rep"]),
                value=float(f.evaluate(cl["rep"])),
                grad_norm=float(cl["gn"]),
                kind="unresolved",
                cluster_radius=radius,
            )
        )
    cps.sort(key=lambda c: (c.value, c.location))
    return cps


def _saddle_witnesses(f, Z, cp, below_probe, probe_radius) -> bool:
    """Both saddle witnesses: the down-flow escapes, the back-flow returns."""
    center = cp.point()
    budget = ArcBudget(max(50.0 * probe_radius, 1.0))

    down = integrate(f, Z, below_probe, direction="descend", stops=[Converged(1e-8), budget])
    max_dist = float(np.max(np.linalg.norm(down.y - center[None, :], axis=1)))
    if max_dist <= 2.0 * probe_radius:
        return False

    up = integrate(
        f, Z, below_probe, direction="ascend",
        stops=[ReachLevel(cp.value), Converged(1e-8), budget],
    )
    end_dist = float(np.linalg.norm(up.endpoint - center))
    return up.termination in ("reach_level", "converged") and end_dist <= probe_radius


def classify(
    f: Polynomial,
    Z: SingularSpace,
    cp: CriticalPoint,
    probe_radius: float = 0.01,
    n_probes: int = 24,
    seed: int = 0,
) -> str:
    """Classify a critical point from f-values on a retracted probe ring.

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
    n_extra = max(0, n_probes - 2 * Z.ambient_dim)
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
    values = np.array([float(f.evaluate(p)) for p in probes])
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


def critical_level_sets(
    cps: Sequence[CriticalPoint],
    value_merge_tol: float = VALUE_MERGE_TOL,
) -> list[CriticalLevelSet]:
    """Group critical points into level sets whose values agree within tol."""
    groups: list[list[CriticalPoint]] = []
    for cp in sorted(cps, key=lambda c: (c.value, c.location)):
        if groups and cp.value - groups[-1][-1].value <= value_merge_tol:
            groups[-1].append(cp)
        else:
            groups.append([cp])
    return [
        CriticalLevelSet(value=float(np.mean([c.value for c in g])), points=tuple(g))
        for g in groups
    ]


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
