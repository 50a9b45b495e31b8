"""Adaptive integration of projected gradient flows on a constrained zero set.

The flow is ``dy/dt = -grad f(y)`` (descending) or its negative (ascending),
where the gradient is the ambient one projected onto the tangent space of Z.
Because the projection annihilates the constraint Jacobian exactly, Z is
invariant for the extended vector field (defined off Z too), so a step is taken
in the ambient space and only its result is retracted onto Z, to
``retract_tol``: the projection method of Hairer, Lubich & Wanner, *Geometric
Numerical Integration*, IV.4.  The stages are not retracted.

One integrator steps an ensemble: :func:`integrate_ensemble` advances N flows
together as the rows of an ``(N, n)`` array, each with its own direction,
level target, step size, time, arc length, rank of Dg and counters.  Every
stage evaluates and projects the field at all live rows in one batched call,
and one more call retracts the endpoints.  Stepping uses the Cash-Karp embedded
Runge-Kutta 4(5) pair with standard proportional step control, applied to each
row on its own: a row whose error test or endpoint retraction fails retries
with a smaller step while the others move on.  A member terminates on the
first stop criterion that fires for it and leaves the ensemble, the others
keeping their order; a time and an arc-length budget are always active so
every member terminates.  Level crossings leave the ensemble too, and are
landed afterwards (to ``level_tol`` in f) by one batched bisection of each
crossing step's length, each bisection point a retracted step endpoint; a
crossing that no bisection point lands ends with ``landing_failed``.  Rows
never interact, so a member's trajectory is the same bit for bit in any
ensemble.

:func:`integrate` is the ensemble of one, with every sample kept.  In a larger
ensemble only the members marked in ``record`` keep every accepted sample;
the rest keep their start and end samples, which bounds the memory of a
condition check.  Every trajectory counts its accepted and rejected steps.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polynomial import Polynomial, gradient
from .space import RetractionError, SingularSpace, row_sums

__all__ = [
    "ReachLevel",
    "Converged",
    "ArcBudget",
    "FlowTrajectory",
    "integrate",
    "integrate_ensemble",
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

    grad_tol: float


@dataclass(frozen=True)
class ArcBudget:
    """Stop when the arc length reaches limit."""

    limit: float


StopCriterion = ReachLevel | Converged | ArcBudget

# Terminations that decide nothing: the flow neither reached a level nor
# demonstrably converged nor left the region.  landing_failed: the flow
# crossed its ReachLevel target but no bisection point lies within level_tol.
INCONCLUSIVE_TERMINATIONS = frozenset(
    {"arc_budget", "time_budget", "step_underflow", "retraction_failed", "step_limit",
     "landing_failed"}
)


# the error test of a step scales by ATOL + RTOL * |y|; a new step length is
# SAFETY times the one the error estimate asks for
ATOL = 1e-9
RTOL = 1e-9
SAFETY = 0.9
# every flow stops at TIME_BUDGET in time, and at ARC_BUDGET in arc length
# unless an ArcBudget sets its own
TIME_BUDGET = 1e6
ARC_BUDGET = 1e3
# a member ends with step_limit after this many attempted steps
MAX_STEPS = 200_000
# Converged fires after this many accepted steps in a row below its grad_tol
CONV_CONSECUTIVE = 3


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
    n_accepted: int
    n_rejected: int

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


# Cash-Karp 4(5) coefficients; zero weights are left out of the sums.
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def _combine(weights, K):
    """``sum_j weights[j] * K[j]``, added term by term in stage order."""
    total = None
    for w, k in zip(weights, K):
        if w != 0.0:
            term = w * k
            total = term if total is None else total + term
    return total


class _Field:
    """The projected gradient field of f on Z, and one Cash-Karp step of it, per row."""

    def __init__(self, f: Polynomial, Z: SingularSpace):
        self.f = f
        self.Z = Z
        self.grad_sys = gradient(f)
        self.constrained = len(Z.constraints) > 0

    def projected_grad(self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Projected gradient at each row, and the effective rank of Dg there."""
        return self.Z.tangent_project_batch(Y, self.grad_sys.evaluate(Y))

    def advance(self, Y0, K1, H, sign):
        """One Cash-Karp step of length H[i] from each row Y0[i].

        The stages are not retracted: stage i evaluates the projected
        gradient at ``Y0 + h * sum_j a_ij K_j``, which may lie slightly off
        Z.  Only the endpoint is retracted, in one call over all rows.
        Returns the retracted endpoints, the scaled error estimates and a
        mask of the rows whose retraction succeeded; a failed row has a NaN
        endpoint and error.
        """
        h = H[:, None]
        K = [K1]
        for i in range(1, 6):
            K.append(sign[:, None] * self.projected_grad(Y0 + h * _combine(_CK_A[i], K))[0])
        y5 = Y0 + h * _combine(_CK_B5, K)
        y4 = Y0 + h * _combine(_CK_B4, K)
        y_new, ok = y5, np.ones(len(Y0), dtype=bool)
        if self.constrained:
            y_new, ok = self.Z.retract_batch(y5)
            y_new[~ok] = np.nan
        scale = ATOL + RTOL * np.maximum(np.abs(Y0), np.abs(y_new))
        return y_new, np.sqrt(row_sums(((y5 - y4) / scale) ** 2) / Y0.shape[1]), ok


class _Members:
    """Stepping state of a set of ensemble members, one array row per member.

    ``idx`` is the member's index in the ensemble; ``c`` is its ReachLevel
    target (NaN when it has none, so every crossing test on it is false);
    ``k1`` is the first stage of the step being attempted.
    """

    FIELDS = ("idx", "sign", "c", "record", "y", "fy", "g", "gn", "k1", "h", "t", "arc",
              "rank", "conv_run", "n_steps", "n_accepted", "n_rejected")

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def __len__(self) -> int:
        return len(self.idx)

    def select(self, rows) -> "_Members":
        return _Members(**{name: getattr(self, name)[rows] for name in self.FIELDS})

    @staticmethod
    def concat(parts: list["_Members"]) -> "_Members":
        return _Members(**{name: np.concatenate([getattr(p, name) for p in parts])
                           for name in _Members.FIELDS})


def _shared_stops(stops):
    """(Converged or None, arc budget) from the shared stop criteria."""
    conv = None
    arc_budget = ARC_BUDGET
    for s in stops:
        if isinstance(s, ReachLevel):
            raise ValueError("ReachLevel targets are per member; pass them as levels")
        if isinstance(s, Converged):
            conv = s
        elif isinstance(s, ArcBudget):
            arc_budget = s.limit
        else:
            raise TypeError(f"unknown stop criterion {s!r}")
    return conv, arc_budget


def _per_member(value, n: int, name: str) -> list:
    items = [value] * n if value is None or isinstance(value, (str, int, float)) else list(value)
    if len(items) != n:
        raise ValueError(f"{name} has {len(items)} entries for {n} members")
    return items


def integrate_ensemble(
    f: Polynomial,
    Z: SingularSpace,
    X0: Sequence[Sequence[float]] | np.ndarray,
    directions: str | Sequence[str] = "descend",
    levels: float | Sequence[float | None] | None = None,
    stops: Sequence[StopCriterion] = (),
    max_step: float | None = None,
    record: bool | Sequence[bool] = False,
) -> list[FlowTrajectory]:
    """Integrate the projected gradient flow from every row of X0 at once.

    Member i starts at ``X0[i]``, flows in ``directions[i]`` and, when
    ``levels[i]`` is not None, stops on crossing that level (a per-member
    :class:`ReachLevel`).  A single direction or level applies to every
    member.  ``stops`` holds the shared criteria (:class:`Converged`,
    :class:`ArcBudget`).  Every member also stops at TIME_BUDGET,
    ARC_BUDGET (unless an :class:`ArcBudget` is given) and MAX_STEPS, so it
    terminates; box containment is always enforced.  Steps are at most
    ``max_step`` long (default: 0.1 * the box diameter); the first is
    max_step / 64, and a retry shorter than 1e-12 * max_step ends the
    member.  Every step-control and stop rule applies to each member on its
    own, so member i ends exactly as ``integrate`` from ``X0[i]`` does, bit
    for bit.

    Members in ``record`` (one flag, or one per member) keep every accepted
    sample; the others keep their start and end samples only.  Invalid
    input (a direction, a start off Z, a target on the wrong side) raises
    before any member steps.  Returns one trajectory per member, in order.
    """
    X0 = np.array(X0, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != Z.ambient_dim:
        raise ValueError(f"start points have shape {X0.shape}, expected (N, {Z.ambient_dim})")
    N = len(X0)
    directions = _per_member(directions, N, "directions")
    for d in directions:
        if d not in ("descend", "ascend"):
            raise ValueError(f"direction must be 'descend' or 'ascend', got {d!r}")
    levels = _per_member(levels, N, "levels")
    record = np.broadcast_to(np.asarray(record, dtype=bool), (N,)).copy()
    if max_step is None:
        max_step = 0.1 * Z.box_diameter
    min_step = 1e-12 * max_step
    conv, arc_budget = _shared_stops(stops)
    fld = _Field(f, Z)

    res = Z.residual(X0)
    bad = np.flatnonzero(~Z.is_member(X0))
    if bad.size:
        i = bad[0]
        raise ValueError(f"start point {i} at {X0[i].tolist()} is not on Z (residual {res[i]:.3e} or outside box)")
    Y = X0.copy()
    off = res > Z.retract_tol
    if off.any():
        Y[off], ok = Z.retract_batch(X0[off])
        if not ok.all():
            i = np.flatnonzero(off)[np.flatnonzero(~ok)[0]]
            raise RetractionError(f"start point {i} at {X0[i].tolist()} does not retract onto Z")

    sign = np.array([-1.0 if d == "descend" else 1.0 for d in directions])
    c = np.array([np.nan if lv is None else float(lv) for lv in levels])
    fy = f.evaluate(Y)
    g, rank = fld.projected_grad(Y)
    gn = np.sqrt(row_sums(g * g))
    gap = np.where(sign < 0, fy - c, c - fy)
    wrong = np.flatnonzero(gap < -Z.level_tol)
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"target level {c[i]} is on the wrong side of f(x0) = {fy[i]} for {directions[i]}")

    act = _Members(idx=np.arange(N), sign=sign, c=c, record=record, y=Y, fy=fy, g=g, gn=gn,
                   rank=rank, k1=np.zeros_like(Y), h=np.full(N, max_step / 64.0),
                   t=np.zeros(N), arc=np.zeros(N),
                   **{name: np.zeros(N, dtype=int)
                      for name in ("conv_run", "n_steps", "n_accepted", "n_rejected")})
    history = {int(i): [(0.0, Y[i].copy(), fy[i], gn[i], 0.0)] for i in np.flatnonzero(record)}
    out: list[FlowTrajectory | None] = [None] * N

    def finish(done: _Members, term: str) -> None:
        for r in range(len(done)):
            i = int(done.idx[r])
            if i in history:
                samples = history.pop(i)
            else:
                samples = [(0.0, Y[i], fy[i], gn[i], 0.0)]
                if done.n_accepted[r]:
                    samples.append((done.t[r], done.y[r], done.fy[r], done.gn[r], done.arc[r]))
            ts, ys, fs, gns, arcs = zip(*samples)
            out[i] = FlowTrajectory(
                direction=directions[i], variables=tuple(f.variables),
                t=np.array(ts), y=np.array(ys), f=np.array(fs), grad_norm=np.array(gns),
                arc=np.array(arcs), termination=term,
                n_accepted=int(done.n_accepted[r]), n_rejected=int(done.n_rejected[r]),
            )

    def keep_samples(ms: _Members, rows: np.ndarray) -> None:
        for r in rows:
            history[int(ms.idx[r])].append((ms.t[r], ms.y[r].copy(), ms.fy[r], ms.gn[r], ms.arc[r]))

    # immediate stops at the start point
    at_level = np.abs(fy - c) <= Z.level_tol
    finish(act.select(at_level), "reach_level")
    at_rest = ~at_level & (gn < conv.grad_tol) if conv is not None else np.zeros(N, dtype=bool)
    finish(act.select(at_rest), "converged")
    act = act.select(~at_level & ~at_rest)

    TERMS = ("", "land", "retraction_failed", "step_underflow", "left_box",
             "converged", "arc_budget", "time_budget")
    crossings: list[_Members] = []
    while len(act):
        over = act.n_steps >= MAX_STEPS
        if over.any():
            finish(act.select(over), "step_limit")
            act = act.select(~over)
            continue
        act.n_steps += 1
        act.k1 = act.sign[:, None] * act.g
        y_new, err, ok = fld.advance(act.y, act.k1, act.h, act.sign)
        h = act.h
        code = np.zeros(len(act), dtype=int)

        rejected = ok & ~(err <= 1.0)  # a NaN error is a rejection
        g_new, rank_new = fld.projected_grad(y_new)
        # do not step across a rank transition of Dg at full length;
        # resolve it with smaller steps
        halve = ok & ~rejected & (rank_new != act.rank) & (h > 1e-6 * max_step)
        shrink = np.fmax(0.1, SAFETY * np.where(rejected, err, 1.0) ** -0.2)  # NaN: 0.1
        h_retry = np.where(rejected, h * shrink, 0.5 * h)
        code[~ok & (h_retry < min_step)] = TERMS.index("retraction_failed")
        code[rejected & (h_retry < min_step)] = TERMS.index("step_underflow")
        act.n_rejected += ~ok | rejected | halve

        step = ok & ~rejected & ~halve
        f_new = f.evaluate(y_new)
        cross = step & ((act.fy - act.c) * (f_new - act.c) <= 0.0)
        code[cross] = TERMS.index("land")
        outside = step & ~cross & ~Z.inside_box(y_new)
        code[outside] = TERMS.index("left_box")
        step &= ~cross & ~outside

        gn_new = np.sqrt(row_sums(g_new * g_new))
        act.rank = np.where(step, rank_new, act.rank)
        act.t = np.where(step, act.t + h, act.t)
        act.arc = np.where(step, act.arc + h * 0.5 * (act.gn + gn_new), act.arc)
        act.y = np.where(step[:, None], y_new, act.y)
        act.g = np.where(step[:, None], g_new, act.g)
        act.fy = np.where(step, f_new, act.fy)
        act.gn = np.where(step, gn_new, act.gn)
        act.n_accepted += step
        keep_samples(act, np.flatnonzero(step & act.record))
        # the first stop that fires wins: set the others first
        code[step & (act.t >= TIME_BUDGET)] = TERMS.index("time_budget")
        code[step & (act.arc >= arc_budget)] = TERMS.index("arc_budget")
        if conv is not None:
            act.conv_run = np.where(step, np.where(gn_new < conv.grad_tol, act.conv_run + 1, 0), act.conv_run)
            code[step & (act.conv_run >= CONV_CONSECUTIVE)] = TERMS.index("converged")
        h_next = np.minimum(max_step, h * np.minimum(5.0, np.maximum(0.2, SAFETY * (err + 1e-300) ** -0.2)))
        act.h = np.where(step, h_next, np.where(cross, h, h_retry))

        if code.any():
            for k in np.unique(code[code > 0]):
                ended = act.select(code == k)
                if TERMS[k] == "land":
                    crossings.append(ended)
                else:
                    finish(ended, TERMS[k])
            act = act.select(code == 0)

    if crossings:
        _land(fld, _Members.concat(crossings), finish, keep_samples)
    return out


def _land(fld: _Field, cr: _Members, finish, keep_samples) -> None:
    """Land every crossing member on its level by bisecting its crossing step.

    Member i re-takes its crossing step with lengths bisected in
    [0, h_i] until the endpoint has |f - c_i| <= level_tol; f at the step's
    start is taken from the stepping state.  A member that no bisection
    point lands ends with ``landing_failed``.
    """
    Z = fld.Z
    k = len(cr)
    lo, hi = np.zeros(k), cr.h.copy()
    searching = np.ones(k, dtype=bool)
    landed = np.zeros(k, dtype=bool)
    y_land, h_land, f_land = np.zeros_like(cr.y), np.zeros(k), np.zeros(k)
    for _ in range(90):
        s = np.flatnonzero(searching)
        if not s.size:
            break
        mid = 0.5 * (lo[s] + hi[s])
        y_mid, _, ok = fld.advance(cr.y[s], cr.k1[s], mid, cr.sign[s])
        hi[s[~ok]] = mid[~ok]
        s, mid, y_mid = s[ok], mid[ok], y_mid[ok]
        f_mid = fld.f.evaluate(y_mid)
        hit = np.abs(f_mid - cr.c[s]) <= Z.level_tol
        y_land[s[hit]], h_land[s[hit]], f_land[s[hit]] = y_mid[hit], mid[hit], f_mid[hit]
        landed[s[hit]] = True
        searching[s[hit]] = False
        s, mid, f_mid = s[~hit], mid[~hit], f_mid[~hit]
        same_side = (f_mid - cr.c[s] > 0) == (cr.fy[s] - cr.c[s] > 0)
        lo[s[same_side]] = mid[same_side]
        hi[s[~same_side]] = mid[~same_side]
        searching[s[hi[s] - lo[s] <= 1e-16 * cr.h[s]]] = False

    finish(cr.select(~landed), "landing_failed")
    cr = cr.select(landed)
    y_land, h_land, f_land = y_land[landed], h_land[landed], f_land[landed]
    inside = Z.inside_box(y_land)
    finish(cr.select(~inside), "left_box")
    cr, y_land, h_land, f_land = cr.select(inside), y_land[inside], h_land[inside], f_land[inside]
    g_land = fld.projected_grad(y_land)[0]
    gn_land = np.sqrt(row_sums(g_land * g_land))
    cr.arc = cr.arc + h_land * 0.5 * (cr.gn + gn_land)
    cr.t = cr.t + h_land
    cr.y, cr.fy, cr.gn = y_land, f_land, gn_land
    cr.n_accepted = cr.n_accepted + 1
    keep_samples(cr, np.flatnonzero(cr.record))
    finish(cr, "reach_level")


def integrate(
    f: Polynomial,
    Z: SingularSpace,
    x0: Sequence[float] | np.ndarray,
    direction: str = "descend",
    stops: Sequence[StopCriterion] = (),
) -> FlowTrajectory:
    """Integrate the projected gradient flow from one point of Z.

    ``stops`` may hold at most one :class:`ReachLevel`; the time, arc and
    step budgets of :func:`integrate_ensemble` apply, so the integration
    always terminates.  Box containment is always enforced:
    a step that would leave the box ends the trajectory at the last interior
    sample with termination ``left_box``.  Every recorded sample lies on Z.
    This is :func:`integrate_ensemble` on one member, with every sample kept.
    """
    reach = [s for s in stops if isinstance(s, ReachLevel)]
    if len(reach) > 1:
        raise ValueError("at most one reach_level stop is supported")
    shared = [s for s in stops if not isinstance(s, ReachLevel)]
    level = reach[0].c if reach else None
    x0 = np.asarray(x0, dtype=float)
    return integrate_ensemble(f, Z, x0[None, :], direction, [level], shared, record=True)[0]


def check_level_target(f: Polynomial, X, c: float, direction: str) -> None:
    """Raise ValueError unless the level c lies strictly beyond f in the flow direction at every row of X.

    X has shape (N, n); f is evaluated once over the block, and the error
    names the first row on the wrong side.
    """
    fx = f.evaluate(np.asarray(X, dtype=float))
    below = direction == "descend"
    wrong = np.flatnonzero(~(c < fx) if below else ~(c > fx))
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"{direction} target {c} is not {'below' if below else 'above'} f(x) = {fx[i]} at row {i}")


def check_on_level(f: Polynomial, Z: SingularSpace, X, c: float, what: str) -> None:
    """Raise ValueError unless every row of X is on Z with f within level_tol of c.

    X has shape (N, n); the error names the first bad row as ``{what} {i}``.
    """
    off_z = ~Z.is_member(X)
    bad = np.flatnonzero(off_z | (np.abs(f.evaluate(X) - c) > Z.level_tol))
    if bad.size:
        i = bad[0]
        if off_z[i]:
            raise ValueError(f"{what} {i} is not on Z (residual {Z.residual(X[i]):.3g})")
        raise ValueError(f"{what} {i} is not on the level {c}")


# -- serialization -----------------------------------------------------


def trajectory_csv_text(traj: FlowTrajectory) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t"] + [f"y_{i+1}" for i in range(traj.y.shape[1])] + ["f", "grad_norm", "arc_len"])
    for i in range(traj.n_samples):
        row = [repr(float(traj.t[i]))]
        row += [repr(float(v)) for v in traj.y[i]]
        row += [repr(float(traj.f[i])), repr(float(traj.grad_norm[i])), repr(float(traj.arc[i]))]
        w.writerow(row)
    return buf.getvalue()
