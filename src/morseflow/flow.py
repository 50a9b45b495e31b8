"""Adaptive integration of projected gradient flows on a constrained zero set.

The flow is ``dy/dt = -grad f(y)`` (descending) or its negative (ascending),
where the gradient is the ambient one projected onto the tangent space of Z.
Because the projection annihilates the constraint Jacobian exactly, Z is
invariant for the extended vector field (defined off Z too), so a step is taken
in the ambient space and only its result is retracted onto Z, to
``retract_tol``: the projection method of Hairer, Lubich & Wanner, *Geometric
Numerical Integration*, IV.4.  The stages are not retracted.

One integrator steps an ensemble: :func:`integrate_ensemble` advances N flows
together as the rows of an ``(N, n)`` array, each with its own direction, level
target, step size, time, arc length and counters.  Every stage evaluates and
projects the field at all live rows in one batched call, and one more call
retracts the endpoints.  On Z = R^n both calls are identities that copy their
input, six projections and one retraction per step, so the field decides at
construction to skip them: its field is the gradient and a step's endpoint is
its 5th-order solution (5 % of the quartic's pipeline, measured in-process).
Stepping uses the Cash-Karp embedded Runge-Kutta 4(5) pair with proportional
step control, applied to each row on its own, whose safety factor drops from
0.9 to 0.8 once the row's error test has failed
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.4), and a cap on each step's
length in space (not its duration, which grows where the gradient is small): a
row whose error test or endpoint retraction fails retries with a smaller step
while the others move on.  A member terminates on the first stop criterion that
fires for it; a time and an arc-length budget are always active so every member
terminates.  Row i of every state array is member i for the whole run: a
member that ends keeps its row, marked with its termination and its state
frozen, and costs no more field work, as the field is evaluated and retracted
at the live rows only, gathered by one index array.  A :class:`Capture` ends a
member at its point when a step runs into it, in place of any crossing.  Once
every member has ended, the level crossings are landed (to ``level_tol`` in f)
by one batched regula falsi over each crossing step's length, each trial point
a retracted step endpoint; a crossing that no trial point lands ends with
``landing_failed``.  Rows never interact, so a member's trajectory is the same
bit for bit in any ensemble.

The ensemble returns an :class:`Ensemble`: every member's end state as arrays
(termination, step counts, endpoint, final f, arc length), and a read-only
sequence of trajectories, each built when it is read.  :func:`integrate` is
the ensemble of one, with every sample kept.  In a larger ensemble only the
members marked in ``record`` keep every accepted sample; the rest keep their
start and end samples, which bounds the memory of a condition check, and a
check that reads only end states builds no trajectory.  Every trajectory
counts its accepted and rejected steps.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .polynomial import Polynomial, gradient
from .space import RetractionError, SingularSpace, norms, row_sums


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


@dataclass(frozen=True)
class Capture:
    """Stop at point when a step's chord passes within radius of it and f(point) lies between the step's f values."""

    point: tuple[float, ...]
    radius: float


StopCriterion = ReachLevel | Converged | ArcBudget | Capture

# the convergence stop of classify's witnesses, the unstable slice, condition 4,
# the level map, the verified flow estimates and ``morseflow flow``
CONVERGED = Converged(1e-8)

# Terminations that decide nothing: the flow neither reached a level nor
# demonstrably converged nor left the region.  landing_failed: the flow
# crossed its ReachLevel target but no re-taken step of the landing ends
# within level_tol of it.
INCONCLUSIVE_TERMINATIONS = frozenset(
    {"arc_budget", "time_budget", "step_underflow", "retraction_failed", "step_limit",
     "landing_failed"}
)


# the error test of a step scales by ATOL + RTOL * |y|; a new step length is
# SAFETY times the one the error estimate asks for
ATOL = 1e-9
RTOL = 1e-9
SAFETY = 0.9
# once its error test has failed, a member grows its steps by this in place of SAFETY:
# where the error outgrows the h^5 model (x' = 4x^3), 0.9 fails about every second step
SAFETY_AFTER_REJECTION = 0.8
# every flow stops at TIME_BUDGET in time, and at ARC_BUDGET in arc length
# unless an ArcBudget sets its own
TIME_BUDGET = 1e6
ARC_BUDGET = 1e3
# a member ends with step_limit after this many steps, accepted or rejected
MAX_STEPS = 200_000
# Converged fires after this many accepted steps in a row below its grad_tol
CONV_CONSECUTIVE = 3
# a step is at most MAX_STEP_FRACTION times the box diameter long in space
MAX_STEP_FRACTION = 0.1


@dataclass
class FlowTrajectory:
    direction: str
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


class Ensemble(Sequence):
    """The members of one :func:`integrate_ensemble` call, in order: a read-only sequence of trajectories.

    Item i is member i's :class:`FlowTrajectory`, built each time it is
    read: from its recorded samples, else from its start and end samples.
    Every member's end state is also held as one array each, indexed by
    member, under the trajectory's names: termination, n_accepted,
    n_rejected, endpoint (N, n), final_f and total_arc.  A caller that reads
    only end states builds no trajectory.
    """

    def __init__(self, directions, termination, n_accepted, n_rejected, endpoint, final_f, total_arc,
                 stacked, history):
        self.termination, self.n_accepted, self.n_rejected = termination, n_accepted, n_rejected
        self.endpoint, self.final_f, self.total_arc = endpoint, final_f, total_arc
        self._directions, self._stacked, self._history = directions, stacked, history

    def __len__(self) -> int:
        return len(self.termination)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if isinstance(i, range):
            return [self[k] for k in i]
        n_acc = int(self.n_accepted[i])
        if i in self._history:
            columns = [np.array(col) for col in zip(*self._history[i])]
        else:
            columns = [col[i] if n_acc else col[i, :1] for col in self._stacked]
        # the columns are in FlowTrajectory's field order: t, y, f, grad_norm, arc
        return FlowTrajectory(self._directions[i], *columns, str(self.termination[i]), n_acc,
                              int(self.n_rejected[i]))


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
    """The projected gradient field of f on Z, and one Cash-Karp step of it, per row.

    With no constraint (Z = R^n) the field is the gradient itself and no step
    calls the space layer, whose projection and retraction are identities there.
    """

    def __init__(self, f: Polynomial, Z: SingularSpace):
        self.f = f
        self.Z = Z
        self.grad_sys = gradient(f)
        self.constrained = len(Z.constraints) > 0
        self.projected_grad = self._projected_grad if self.constrained else self.grad_sys.evaluate

    def _projected_grad(self, Y: np.ndarray) -> np.ndarray:
        """Projected gradient at each row."""
        return self.Z.tangent_project_batch(Y, self.grad_sys.evaluate(Y))[0]

    def advance(self, Y0, K1, H, sign):
        """One Cash-Karp step of length H[i] from each row Y0[i].

        The stages are not retracted: stage i evaluates the projected
        gradient at ``Y0 + h * sum_j a_ij K_j``, which may lie slightly off
        Z.  Only the endpoint is retracted, in one call over all rows, and
        on R^n not at all.
        Returns the retracted endpoints, the scaled error estimates and a
        mask of the rows whose retraction succeeded; a failed row has a NaN
        endpoint and error.
        """
        h, sg = H[:, None], sign[:, None]
        K = [K1]
        for i in range(1, 6):
            K.append(sg * self.projected_grad(Y0 + h * _combine(_CK_A[i], K)))
        y5 = Y0 + h * _combine(_CK_B5, K)
        y4 = Y0 + h * _combine(_CK_B4, K)
        if self.constrained:
            y_new, ok = self.Z.retract_batch(y5)
            y_new[~ok] = np.nan
        else:
            y_new, ok = y5, np.ones(len(y5), dtype=bool)
        scale = ATOL + RTOL * np.maximum(np.abs(Y0), np.abs(y_new))
        return y_new, np.sqrt(row_sums(((y5 - y4) / scale) ** 2) / Y0.shape[1]), ok


def _shared_stops(stops):
    """(Converged or None, arc budget, Capture or None) from the shared stop criteria."""
    conv = cap = None
    arc_budget = ARC_BUDGET
    for s in stops:
        if isinstance(s, ReachLevel):
            raise ValueError("ReachLevel targets are per member; pass them as levels")
        if isinstance(s, Converged):
            conv = s
        elif isinstance(s, ArcBudget):
            arc_budget = s.limit
        elif isinstance(s, Capture):
            cap = s
        else:
            raise TypeError(f"unknown stop criterion {s!r}")
    return conv, arc_budget, cap


def _per_member(value, n: int, name: str) -> list:
    items = [value] * n if value is None or isinstance(value, (str, int, float)) else list(value)
    if len(items) != n:
        raise ValueError(f"{name} has {len(items)} entries for {n} members")
    return items


def integrate_ensemble(
    f: Polynomial,
    Z: SingularSpace,
    X0: Sequence[Sequence[float]] | np.ndarray,
    directions: str | Sequence[str],
    levels: float | Sequence[float | None] | None,
    stops: Sequence[StopCriterion],
    record: bool | Sequence[bool] = False,
) -> Ensemble:
    """Integrate the projected gradient flow from every row of X0 at once.

    Member i starts at ``X0[i]``, flows in ``directions[i]`` and, when
    ``levels[i]`` is not None, stops on crossing that level (a per-member
    :class:`ReachLevel`).  A single direction or level applies to every
    member.  ``stops`` holds the shared criteria (:class:`Converged`,
    :class:`ArcBudget`, :class:`Capture`).  Every member also stops at TIME_BUDGET,
    ARC_BUDGET (unless an :class:`ArcBudget` is given) and MAX_STEPS, so it
    terminates; box containment is always enforced.  A step is at most
    max_step = MAX_STEP_FRACTION * the box diameter long in space: its
    duration h is capped so that h * |grad_Z f| at its start is at most
    max_step.  The first step's duration is max_step / 64, and a retry
    shorter in time than 1e-12 * max_step ends the member.  Every
    step-control and stop rule applies to each member on its own, so member
    i ends exactly as ``integrate`` from ``X0[i]`` does, bit for bit.
    Member i keeps row i of the state for the whole run.  Once every member
    has ended, the crossing steps are landed by :func:`_land`, and a crossing
    ends ``reach_level`` at its landing, ``left_box`` when the landing lies
    outside the box, or ``landing_failed``.

    Members in ``record`` (one flag, or one per member) keep every accepted
    sample; the others keep their start and end samples only.  Invalid
    input (a direction, a start off Z, a target beyond level_tol on the
    wrong side) raises before any member steps, naming the member; a start
    within level_tol of its target ends ``reach_level`` at once.  Returns
    an :class:`Ensemble`: item i is member i's trajectory, built when it is
    read, and its arrays hold every member's end state.
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
    max_step = MAX_STEP_FRACTION * Z.box_diameter
    min_step = 1e-12 * max_step
    conv, arc_budget, cap = _shared_stops(stops)
    fld = _Field(f, Z)
    if cap is not None:
        p = np.array(cap.point, dtype=float)[None, :]
        f_p, g_p = f.evaluate(p), fld.projected_grad(p)

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
    g = fld.projected_grad(Y)
    gn = norms(g)
    gap = np.where(sign < 0, fy - c, c - fy)
    wrong = np.flatnonzero(~(gap >= -Z.level_tol) & np.array([lv is not None for lv in levels], dtype=bool))
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"member {i}: target level {c[i]} is on the wrong side of f(x0) = {fy[i]} for {directions[i]}")

    # The stepping state, one entry per member, never re-indexed: c is a
    # member's ReachLevel target (NaN when it has none, so every crossing test
    # on it is false); f_end is f at the endpoint of the step being attempted;
    # g stays the field at the step's start until the step is accepted, so a
    # crossing member's first stage is sign * g; was_rejected is set once its
    # error test fails, and its steps then grow by SAFETY_AFTER_REJECTION.  A
    # member that ends keeps its entries frozen until the ensemble ends (a
    # crossing's h and f_end are those of its crossing step).  The start
    # samples Y, f0 and gn0 are kept apart, as the landing writes into the state.
    y, f0, gn0, f_end = Y.copy(), fy.copy(), gn.copy(), fy.copy()
    h, t, arc = np.full(N, max_step / 64.0), np.zeros(N), np.zeros(N)
    conv_run, n_accepted, n_rejected = (np.zeros(N, dtype=int) for _ in range(3))
    was_rejected = np.zeros(N, dtype=bool)
    history = {int(i): [(0.0, Y[i].copy(), fy[i], gn[i], 0.0)] for i in np.flatnonzero(record)}

    def keep_samples(rows: np.ndarray) -> None:
        for i in rows:
            history[int(i)].append((t[i], y[i].copy(), fy[i], gn[i], arc[i]))

    TERMS = ("", "land", "retraction_failed", "step_underflow", "left_box", "converged",
             "arc_budget", "time_budget", "step_limit", "reach_level", "landing_failed")
    # a member's code is 0 while it steps; one that ends keeps its code
    code = np.zeros(N, dtype=int)
    # immediate stops at the start point
    code[np.abs(fy - c) <= Z.level_tol] = TERMS.index("reach_level")
    if conv is not None:
        code[(code == 0) & (gn < conv.grad_tol)] = TERMS.index("converged")
    attempts = 0  # every live member attempts one step per iteration
    while True:
        if attempts == MAX_STEPS:
            code[code == 0] = TERMS.index("step_limit")
        live = code == 0
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        attempts += 1
        # the field is evaluated at the live rows only; an ended row keeps its values
        s = sign[rows]
        y_new, g_new, err, ok = y.copy(), g.copy(), np.zeros(N), np.zeros(N, dtype=bool)
        y_live, err[rows], ok[rows] = fld.advance(y[rows], s[:, None] * g[rows], h[rows], s)
        y_new[rows] = y_live
        g_new[rows] = fld.projected_grad(y_live)
        f_end[rows] = f.evaluate(y_live)
        f_new = f_end

        failed = live & ~ok
        rejected = ok & ~(err <= 1.0)  # a NaN error is a rejection
        # the proportional step factor SAFETY * err ** -0.2, with SAFETY_AFTER_REJECTION for the
        # growth of a member whose error test failed before (a retry keeps SAFETY); the 1e-300
        # guards err = 0 and leaves a rejected row's err (> 1 or NaN) as it is
        factor = np.where(was_rejected & ~rejected, SAFETY_AFTER_REJECTION, SAFETY) * (err + 1e-300) ** -0.2
        was_rejected |= rejected
        h_retry = np.where(rejected, h * np.fmax(0.1, factor), 0.5 * h)  # NaN: 0.1
        code[failed & (h_retry < min_step)] = TERMS.index("retraction_failed")
        code[rejected & (h_retry < min_step)] = TERMS.index("step_underflow")
        n_rejected += failed | rejected

        step = ok & ~rejected
        cross = step & ((fy - c) * (f_new - c) <= 0.0)
        if cap is not None:
            # the point of the chord [y, y_new] nearest p, then f(p) between the step's ends
            d = y_new - y
            u = np.clip(row_sums((p - y) * d) / np.maximum(row_sums(d * d), 1e-300), 0.0, 1.0)
            near = row_sums((y + u[:, None] * d - p) ** 2) <= cap.radius**2
            captured = step & near & ((fy - f_p) * (f_new - f_p) <= 0.0)
            y_new[captured], f_new[captured], g_new[captured] = p, f_p, g_p
            cross &= ~captured
        code[cross] = TERMS.index("land")
        outside = step & ~cross & ~Z.inside_box(y_new)
        code[outside] = TERMS.index("left_box")
        step &= ~cross & ~outside

        gn_new = norms(g_new)
        t = np.where(step, t + h, t)
        arc = np.where(step, arc + h * 0.5 * (gn + gn_new), arc)
        y = np.where(step[:, None], y_new, y)
        g = np.where(step[:, None], g_new, g)
        fy = np.where(step, f_new, fy)
        gn = np.where(step, gn_new, gn)
        n_accepted += step
        if history:
            keep_samples(np.flatnonzero(step & record))
        # the first stop that fires wins: set the others first
        code[step & (t >= TIME_BUDGET)] = TERMS.index("time_budget")
        code[step & (arc >= arc_budget)] = TERMS.index("arc_budget")
        if conv is not None:
            conv_run = np.where(step, np.where(gn_new < conv.grad_tol, conv_run + 1, 0), conv_run)
            code[step & (conv_run >= CONV_CONSECUTIVE)] = TERMS.index("converged")
        if cap is not None:
            code[captured] = TERMS.index("converged")
        # the next step is at most max_step long in space, h * |grad| at its start;
        # a crossing member keeps the h of its crossing step for the landing
        cap_h = np.divide(max_step, gn_new, out=np.full_like(gn_new, np.inf), where=gn_new > 0)
        h_next = np.minimum(cap_h, h * np.minimum(5.0, np.maximum(0.2, factor)))
        h = np.where(step, h_next, np.where(failed | rejected, h_retry, h))

    # every crossing ends landing_failed, left_box, or reach_level with its landing as a last sample
    rows = np.flatnonzero(code == TERMS.index("land"))
    if rows.size:
        landed, y_land, h_land, f_land = _land(fld, y[rows], g[rows], sign[rows], c[rows], h[rows],
                                               fy[rows], f_end[rows])
        inside = Z.inside_box(y_land)
        code[rows] = np.where(landed, np.where(inside, TERMS.index("reach_level"), TERMS.index("left_box")),
                              TERMS.index("landing_failed"))
        hit = landed & inside
        rows, y_land, h_land, f_land = rows[hit], y_land[hit], h_land[hit], f_land[hit]
        gn_land = norms(fld.projected_grad(y_land))
        arc[rows] += h_land * 0.5 * (gn[rows] + gn_land)
        t[rows] += h_land
        y[rows], fy[rows], gn[rows] = y_land, f_land, gn_land
        n_accepted[rows] += 1
        keep_samples(rows[record[rows]])

    # each column's start and end samples of every member, stacked; an
    # unrecorded member's columns are rows of these, cut to length 1 when it
    # accepted no step
    zeros = np.zeros(N)
    stacked = [np.stack(pair, axis=1) for pair in ((zeros, t), (Y, y), (f0, fy), (gn0, gn), (zeros, arc))]
    return Ensemble(directions, np.array(TERMS)[code], n_accepted, n_rejected, y, fy, arc, stacked, history)


def _land(fld: _Field, y, g, sign, c, h, f_start, f_end):
    """Find where each crossing step meets its level, by regula falsi over the step's length.

    Row i re-takes the step of length h[i] from y[i], whose first stage is
    ``sign[i] * g[i]``, with lengths in [0, h[i]] chosen by the Illinois
    regula falsi (Dowell & Jarratt, BIT 1971) on f - c[i], until the
    endpoint has |f - c[i]| <= level_tol.  f at the two ends of the step,
    f_start[i] and f_end[i], is known from stepping.  A secant point that is
    not finite or not strictly inside the bracket is replaced by the
    midpoint, and a failed retraction moves the upper end down with f there
    unknown.  A row that 90 rounds do not land, or whose bracket holds no
    double strictly inside, has not landed.  Returns ``(landed, y_land,
    h_land, f_land)``: a mask of the rows that landed and, at those rows,
    the landing point, the length of the step to it and f there.
    """
    Z = fld.Z
    k = len(y)
    lo, hi = np.zeros(k), h.copy()
    f_lo, f_hi = f_start - c, f_end - c
    moved = np.zeros(k)  # the end that moved last: -1 lo, 1 hi, 0 neither
    searching = np.ones(k, dtype=bool)
    landed = np.zeros(k, dtype=bool)
    y_land, h_land, f_land = np.zeros_like(y), np.zeros(k), np.zeros(k)
    for _ in range(90):
        s = np.flatnonzero(searching)
        if not s.size:
            break
        # f_lo is never 0 and f_hi is 0, NaN or of the other sign, so this divides by no 0
        m = lo[s] - f_lo[s] * (hi[s] - lo[s]) / (f_hi[s] - f_lo[s])
        m = np.where((lo[s] < m) & (m < hi[s]), m, 0.5 * (lo[s] + hi[s]))
        y_m, _, ok = fld.advance(y[s], sign[s, None] * g[s], m, sign[s])
        hi[s[~ok]], f_hi[s[~ok]], moved[s[~ok]] = m[~ok], np.nan, 0.0
        s, m, y_m = s[ok], m[ok], y_m[ok]
        f_m = fld.f.evaluate(y_m)
        hit = np.abs(f_m - c[s]) <= Z.level_tol
        y_land[s[hit]], h_land[s[hit]], f_land[s[hit]] = y_m[hit], m[hit], f_m[hit]
        landed[s[hit]] = True
        searching[s[hit]] = False
        s, m, d = s[~hit], m[~hit], f_m[~hit] - c[s[~hit]]
        low = (d > 0) == (f_lo[s] > 0)
        # Illinois: an end kept twice in a row has its f halved
        f_hi[s[low & (moved[s] < 0)]] *= 0.5
        f_lo[s[~low & (moved[s] > 0)]] *= 0.5
        lo[s[low]], f_lo[s[low]] = m[low], d[low]
        hi[s[~low]], f_hi[s[~low]] = m[~low], d[~low]
        moved[s] = np.where(low, -1.0, 1.0)
        searching[s[np.nextafter(lo[s], hi[s]) >= hi[s]]] = False
    return landed, y_land, h_land, f_land


def integrate(
    f: Polynomial,
    Z: SingularSpace,
    x0: Sequence[float] | np.ndarray,
    direction: str,
    stops: Sequence[StopCriterion],
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
