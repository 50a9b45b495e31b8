"""Adaptive integration of projected gradient flows on a constrained zero set.

The flow is ``dy/dt = -grad f(y)`` (descending) or its negative (ascending),
where the gradient is the ambient one projected onto the tangent space of Z.
Because the projection annihilates the constraint Jacobian exactly, Z is
invariant for the extended vector field and the constraint residual only
drifts at the integrator-error scale; a retraction after every stage and every
accepted step keeps it at ``retract_tol``.

Stepping uses the Cash-Karp embedded Runge-Kutta 4(5) pair with standard
proportional step control.  A trajectory terminates on the first stop
criterion that fires; a time and an arc-length budget are always active so
every call terminates.  Level crossings are landed exactly (to ``level_tol``
in f) by bisecting the step length of the crossing step; a crossing that no
bisection point lands ends the trajectory with ``landing_failed``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .polynomial import Polynomial, gradient
from .space import RetractionError, SingularSpace

__all__ = [
    "ReachLevel",
    "Converged",
    "ArcBudget",
    "TimeBudget",
    "LeftBox",
    "StepControl",
    "FlowTrajectory",
    "FlowLimitResult",
    "integrate",
    "descend_to_level",
    "ascend_to_level",
    "flow_limit",
    "arc_length",
    "write_trajectory_csv",
    "trajectory_csv_text",
    "INCONCLUSIVE_TERMINATIONS",
]


# -- stop criteria -----------------------------------------------------


@dataclass(frozen=True)
class ReachLevel:
    """Stop when f crosses the level c (landed to level_tol)."""

    c: float


@dataclass(frozen=True)
class Converged:
    """Stop when the projected gradient norm stays below grad_tol."""

    grad_tol: float = 1e-8


@dataclass(frozen=True)
class ArcBudget:
    limit: float


@dataclass(frozen=True)
class TimeBudget:
    limit: float


@dataclass(frozen=True)
class LeftBox:
    """Stop on leaving the working box (always enforced)."""


StopCriterion = ReachLevel | Converged | ArcBudget | TimeBudget | LeftBox

# Terminations that decide nothing: the flow neither reached a level nor
# demonstrably converged nor left the region.  landing_failed: the flow
# crossed its ReachLevel target but no bisection point lies within level_tol.
INCONCLUSIVE_TERMINATIONS = frozenset(
    {"arc_budget", "time_budget", "step_underflow", "retraction_failed", "step_limit",
     "landing_failed"}
)


@dataclass
class StepControl:
    atol: float = 1e-9
    rtol: float = 1e-9
    max_step: float | None = None  # default: 0.1 * box diameter
    initial_step: float | None = None  # default: max_step / 64
    min_step: float | None = None  # default: 1e-12 * max_step
    safety: float = 0.9
    max_steps: int = 200_000
    default_time_budget: float = 1e6
    default_arc_budget: float = 1e3
    conv_consecutive: int = 3


@dataclass
class FlowTrajectory:
    direction: str
    variables: tuple[str, ...]
    t: np.ndarray
    y: np.ndarray
    f: np.ndarray
    grad_norm: np.ndarray
    arc: np.ndarray
    termination: str
    rank_transitions: int = 0
    captured: bool = False

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @property
    def endpoint(self) -> np.ndarray:
        return self.y[-1]

    @property
    def final_f(self) -> float:
        return float(self.f[-1])

    @property
    def total_arc(self) -> float:
        return float(self.arc[-1])


@dataclass
class FlowLimitResult:
    kind: str  # "converged" | "exited" | "inconclusive"
    point: np.ndarray
    trajectory: FlowTrajectory


# Cash-Karp 4(5) coefficients.
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = np.array([37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771])
_CK_B4 = np.array([2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4])
_CK_A_ROWS = [np.array(row) for row in _CK_A]


class _Field:
    """Cached evaluators for f, grad f and the tangent projection along a flow."""

    def __init__(self, f: Polynomial, Z: SingularSpace):
        self.f = f
        self.Z = Z
        self.grad_sys = gradient(f)
        self.m = len(Z.constraints)

    def value(self, y: np.ndarray) -> float:
        return self.f.evaluate(y)

    def projected_grad(self, y: np.ndarray) -> np.ndarray:
        g = self.grad_sys.evaluate(y)
        if self.m == 0:
            return g
        J = self.Z.constraints.jacobian_at(y)
        if self.m == 1:
            row = J[0]
            s2 = float(row @ row)
            if s2 == 0.0:
                return g
            return g - row * (float(row @ g) / s2)
        U, s, Vt = np.linalg.svd(J)
        smax = s[0] if s.size else 0.0
        rank = 0 if smax == 0.0 else int(np.sum(s > self.Z.rank_tol * smax))
        null_rows = Vt[rank:]
        return null_rows.T @ (null_rows @ g)


def _resolve_control(Z: SingularSpace, control: StepControl | None) -> StepControl:
    ctrl = StepControl() if control is None else replace(control)
    if ctrl.max_step is None:
        ctrl.max_step = 0.1 * Z.box_diameter
    if ctrl.initial_step is None:
        ctrl.initial_step = ctrl.max_step / 64.0
    if ctrl.min_step is None:
        ctrl.min_step = 1e-12 * ctrl.max_step
    return ctrl


def integrate(
    f: Polynomial,
    Z: SingularSpace,
    x0: Sequence[float] | np.ndarray,
    direction: str = "descend",
    stops: Sequence[StopCriterion] = (),
    control: StepControl | None = None,
) -> FlowTrajectory:
    """Integrate the projected gradient flow from a point of Z.

    ``stops`` may hold at most one :class:`ReachLevel`; a :class:`TimeBudget`
    and an :class:`ArcBudget` are added with generous defaults when absent, so
    the integration always terminates.  Box containment is always enforced:
    a step that would leave the box ends the trajectory at the last interior
    sample with termination ``left_box``.  Every recorded sample lies on Z.
    """
    if direction not in ("descend", "ascend"):
        raise ValueError(f"direction must be 'descend' or 'ascend', got {direction!r}")
    ctrl = _resolve_control(Z, control)
    fld = _Field(f, Z)
    sign = -1.0 if direction == "descend" else 1.0

    x0 = np.asarray(x0, dtype=float)
    if not Z.is_member(x0):
        raise ValueError(f"start point {x0.tolist()} is not on Z (residual {Z.residual(x0):.3e} or outside box)")
    y = Z.retract(x0) if (len(Z.constraints) and Z.residual(x0) > Z.retract_tol) else x0.copy()

    reach: ReachLevel | None = None
    conv: Converged | None = None
    arc_budget = None
    time_budget = None
    for s in stops:
        if isinstance(s, ReachLevel):
            if reach is not None:
                raise ValueError("at most one reach_level stop is supported")
            reach = s
        elif isinstance(s, Converged):
            conv = s
        elif isinstance(s, ArcBudget):
            arc_budget = s.limit
        elif isinstance(s, TimeBudget):
            time_budget = s.limit
        elif isinstance(s, LeftBox):
            pass
        else:
            raise TypeError(f"unknown stop criterion {s!r}")
    if arc_budget is None:
        arc_budget = ctrl.default_arc_budget
    if time_budget is None:
        time_budget = ctrl.default_time_budget

    n = Z.ambient_dim
    constrained = len(Z.constraints) > 0

    fy = fld.value(y)
    gvec = fld.projected_grad(y)
    gn = float(np.linalg.norm(gvec))

    if reach is not None:
        gap = fy - reach.c if direction == "descend" else reach.c - fy
        if gap < -Z.level_tol:
            raise ValueError(f"target level {reach.c} is on the wrong side of f(x0) = {fy} for {direction}")

    ts, ys, fs, gns, arcs = [0.0], [y.copy()], [fy], [gn], [0.0]
    rank_transitions = 0

    def _done(term: str) -> FlowTrajectory:
        return FlowTrajectory(
            direction=direction,
            variables=tuple(f.variables),
            t=np.array(ts),
            y=np.array(ys),
            f=np.array(fs),
            grad_norm=np.array(gns),
            arc=np.array(arcs),
            termination=term,
            rank_transitions=rank_transitions,
        )

    # Immediate stops at the start point.
    if reach is not None and abs(fy - reach.c) <= Z.level_tol:
        return _done("reach_level")
    if conv is not None and gn < conv.grad_tol:
        return _done("converged")

    def _advance(y0: np.ndarray, k1: np.ndarray, h: float) -> tuple[np.ndarray, float]:
        """One Cash-Karp step of length h; returns (retracted endpoint, scaled error)."""
        K = np.empty((6, n))
        K[0] = k1
        for i in range(1, 6):
            p = y0 + h * (_CK_A_ROWS[i] @ K[:i])
            if constrained:
                p = Z.retract(p)
            K[i] = sign * fld.projected_grad(p)
        y5 = y0 + h * (_CK_B5 @ K)
        y4 = y0 + h * (_CK_B4 @ K)
        y_new = Z.retract(y5) if constrained else y5
        scale = ctrl.atol + ctrl.rtol * np.maximum(np.abs(y0), np.abs(y_new))
        err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
        return y_new, err

    def _land(y0: np.ndarray, k1: np.ndarray, h_hi: float, c: float) -> tuple[np.ndarray, float] | None:
        """Bisect the step length so the endpoint has |f - c| <= level_tol.

        Returns None when no bisection point lands within level_tol.
        """
        f_lo = fld.value(y0)
        lo, hi = 0.0, h_hi
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            try:
                y_mid, _ = _advance(y0, k1, mid)
            except RetractionError:
                hi = mid
                continue
            f_mid = fld.value(y_mid)
            if abs(f_mid - c) <= Z.level_tol:
                return y_mid, mid
            if (f_mid - c > 0) == (f_lo - c > 0):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-16 * h_hi:
                break
        return None

    h = min(ctrl.initial_step, ctrl.max_step)
    t = 0.0
    arc = 0.0
    conv_run = 0
    rank_cur = Z.effective_rank(y) if constrained else 0
    n_steps = 0

    while n_steps < ctrl.max_steps:
        n_steps += 1
        k1 = sign * gvec
        try:
            y_new, err = _advance(y, k1, h)
        except RetractionError:
            h *= 0.5
            if h < ctrl.min_step:
                return _done("retraction_failed")
            continue
        if err > 1.0:
            h *= max(0.1, ctrl.safety * err ** -0.2)
            if h < ctrl.min_step:
                return _done("step_underflow")
            continue

        if constrained:
            rank_new = Z.effective_rank(y_new)
            if rank_new != rank_cur and h > 1e-6 * ctrl.max_step:
                # Do not step across a rank transition of Dg at full length;
                # resolve it with smaller steps.
                h *= 0.5
                continue
        else:
            rank_new = 0

        f_new = fld.value(y_new)

        if reach is not None and (fy - reach.c) * (f_new - reach.c) <= 0.0:
            landed = _land(y, k1, h, reach.c)
            if landed is None:
                return _done("landing_failed")
            y_land, h_land = landed
            if not Z.inside_box(y_land):
                return _done("left_box")
            g_land = fld.projected_grad(y_land)
            gn_land = float(np.linalg.norm(g_land))
            ts.append(t + h_land)
            ys.append(y_land)
            fs.append(fld.value(y_land))
            gns.append(gn_land)
            arcs.append(arc + h_land * 0.5 * (gn + gn_land))
            return _done("reach_level")

        if not Z.inside_box(y_new):
            return _done("left_box")

        if rank_new != rank_cur:
            rank_transitions += 1
            rank_cur = rank_new

        g_new = fld.projected_grad(y_new)
        gn_new = float(np.linalg.norm(g_new))
        t += h
        arc += h * 0.5 * (gn + gn_new)
        y, fy, gvec, gn = y_new, f_new, g_new, gn_new
        ts.append(t)
        ys.append(y.copy())
        fs.append(fy)
        gns.append(gn)
        arcs.append(arc)

        if conv is not None:
            conv_run = conv_run + 1 if gn < conv.grad_tol else 0
            if conv_run >= ctrl.conv_consecutive:
                return _done("converged")
        if arc >= arc_budget:
            return _done("arc_budget")
        if t >= time_budget:
            return _done("time_budget")

        h = min(ctrl.max_step, h * min(5.0, max(0.2, ctrl.safety * (err + 1e-300) ** -0.2)))

    return _done("step_limit")


def descend_to_level(
    f: Polynomial,
    Z: SingularSpace,
    x0: Sequence[float] | np.ndarray,
    c: float,
    grad_tol: float = 1e-8,
    control: StepControl | None = None,
    arc_budget: float | None = None,
) -> FlowTrajectory:
    """Descend until f = c; flags ``captured`` if the flow converges first."""
    fx = f.evaluate(np.asarray(x0, dtype=float))
    if not c < fx:
        raise ValueError(f"descend target {c} is not below f(x0) = {fx}")
    stops: list[StopCriterion] = [ReachLevel(float(c)), Converged(grad_tol)]
    if arc_budget is not None:
        stops.append(ArcBudget(arc_budget))
    traj = integrate(f, Z, x0, "descend", stops, control)
    traj.captured = traj.termination == "converged"
    return traj


def ascend_to_level(
    f: Polynomial,
    Z: SingularSpace,
    x0: Sequence[float] | np.ndarray,
    c: float,
    grad_tol: float = 1e-8,
    control: StepControl | None = None,
    arc_budget: float | None = None,
) -> FlowTrajectory:
    """Ascend until f = c; flags ``captured`` if the flow converges first."""
    fx = f.evaluate(np.asarray(x0, dtype=float))
    if not c > fx:
        raise ValueError(f"ascend target {c} is not above f(x0) = {fx}")
    stops: list[StopCriterion] = [ReachLevel(float(c)), Converged(grad_tol)]
    if arc_budget is not None:
        stops.append(ArcBudget(arc_budget))
    traj = integrate(f, Z, x0, "ascend", stops, control)
    traj.captured = traj.termination == "converged"
    return traj


def flow_limit(
    f: Polynomial,
    Z: SingularSpace,
    x0: Sequence[float] | np.ndarray,
    direction: str = "descend",
    grad_tol: float = 1e-8,
    control: StepControl | None = None,
    arc_budget: float | None = None,
    time_budget: float | None = None,
) -> FlowLimitResult:
    """Run the flow to its limit; never silently treats budget exhaustion as convergence."""
    stops: list[StopCriterion] = [Converged(grad_tol)]
    if arc_budget is not None:
        stops.append(ArcBudget(arc_budget))
    if time_budget is not None:
        stops.append(TimeBudget(time_budget))
    traj = integrate(f, Z, x0, direction, stops, control)
    if traj.termination == "converged":
        kind = "converged"
    elif traj.termination == "left_box":
        kind = "exited"
    else:
        kind = "inconclusive"
    return FlowLimitResult(kind=kind, point=traj.endpoint.copy(), trajectory=traj)


def arc_length(traj: FlowTrajectory, up_to_t: float | None = None) -> float:
    """Cumulative arc length ``∫ ||grad f|| dt`` up to a time (default: total)."""
    if up_to_t is None:
        return traj.total_arc
    if up_to_t < 0 or up_to_t > traj.t[-1] + 1e-12:
        raise ValueError(f"time {up_to_t} outside trajectory range [0, {traj.t[-1]}]")
    return float(np.interp(up_to_t, traj.t, traj.arc))


# -- serialization -----------------------------------------------------


def _csv_rows(traj: FlowTrajectory):
    n = traj.y.shape[1]
    header = ["t"] + [f"y_{i+1}" for i in range(n)] + ["f", "grad_norm", "arc_len"]
    yield header
    for i in range(traj.n_samples):
        row = [repr(float(traj.t[i]))]
        row += [repr(float(v)) for v in traj.y[i]]
        row += [repr(float(traj.f[i])), repr(float(traj.grad_norm[i])), repr(float(traj.arc[i]))]
        yield row


def trajectory_csv_text(traj: FlowTrajectory) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in _csv_rows(traj):
        w.writerow(row)
    return buf.getvalue()


def write_trajectory_csv(traj: FlowTrajectory, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        for row in _csv_rows(traj):
            w.writerow(row)
