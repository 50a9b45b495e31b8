"""Power-law lower envelope of the gradient near a critical point.

Close to a critical point with value c the projected gradient dominates a
power of the value gap: grad_norm(y) >= C * |c - f(y)|^(1 - theta).  This
module estimates (C, theta) from on-Z samples, derives the level offset
and arc-length bound that the estimate licenses, and verifies the implied
inequalities along actual flow trajectories.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .critical import CLUSTER_TOL, CriticalPoint
from .flow import CONVERGED, check_on_level, integrate_ensemble
from .polynomial import gradient
from .sampling import gaussian_cloud, substream
from .space import SingularSpace, row_norms, row_sums

log = logging.getLogger(__name__)

# verify_flow_estimates and the holdout test forgive relative shortfalls up to CHECK_SLACK
CHECK_SLACK = 0.05
THETA_MIN = 0.05
THETA_MAX = 0.95
N_BINS = 30
# estimate_fit draws FIT_SAMPLES cloud points and needs MIN_SAMPLES usable ones
FIT_SAMPLES = 400
MIN_SAMPLES = 100
# choose_epsilon takes this fraction of the offset the fit licenses, so the arc bound stays below delta/2
SAFETY = 0.5


class FitError(RuntimeError):
    """Raised when the sampled cloud does not support a power-law envelope."""

    def __init__(self, message, measured_slope=None):
        super().__init__(message)
        self.measured_slope = measured_slope


@dataclass(frozen=True)
class LojasiewiczFit:
    """Fitted envelope: grad_norm >= constant_C * |critical_value - f|^(1-theta).

    Valid on the ball of radius_delta around the critical point it was
    fitted at, and it holds at every fitting sample, since the constant is
    lowered until each one clears it; holdout_pass_fraction is measured on a
    fresh draw.
    """

    theta: float
    constant_C: float
    radius_delta: float
    critical_value: float
    n_samples: int
    holdout_pass_fraction: float

    def to_payload(self) -> dict:
        return {
            "theta": float(self.theta),
            "C": float(self.constant_C),
            "delta": float(self.radius_delta),
            "critical_value": float(self.critical_value),
            "n_samples": int(self.n_samples),
            "holdout_pass_fraction": float(self.holdout_pass_fraction),
        }


def _sample_cloud(f, Z, cp, radius, n_samples, rng):
    """On-Z samples in the radius ball with a usable value gap, as (u, v) logs."""
    P = np.array(gaussian_cloud(Z, cp.point(), radius, rng, n_samples)).reshape(-1, Z.ambient_dim)
    c = float(f.evaluate(cp.point()))
    gap = np.abs(c - f.evaluate(P))
    gn = np.sqrt(row_sums(Z.tangent_project_batch(P, gradient(f).evaluate(P))[0] ** 2))
    keep = (gap > 1e-14) & (gn >= 1e-300)
    return np.log(gap[keep]), np.log(gn[keep]), c


def estimate_fit(f, Z: SingularSpace, cp: CriticalPoint, radius: float, seed: int) -> LojasiewiczFit:
    """Fit the envelope exponent and constant from a cloud of FIT_SAMPLES draws.

    The inequality is a lower bound, so an ordinary regression through the
    cloud would overestimate C and corrupt theta.  Instead: bin u =
    log|c - f| into quantile bins, take the minimum v = log grad_norm per
    bin, put a least-squares line through those minima, then lower the
    intercept until every sample clears the line.  theta = 1 - slope.
    """
    rng = substream(seed, "loja-fit")
    u, v, c = _sample_cloud(f, Z, cp, radius, FIT_SAMPLES, rng)
    if u.size < MIN_SAMPLES:
        raise FitError(f"only {u.size} usable on-Z samples (need {MIN_SAMPLES}); "
                       "radius too small or stratum too thin")

    edges = np.quantile(u, np.linspace(0.0, 1.0, N_BINS + 1))
    mins_u, mins_v = [], []
    for k in range(N_BINS):
        if k < N_BINS - 1:
            mask = (u >= edges[k]) & (u < edges[k + 1])
        else:
            mask = (u >= edges[k]) & (u <= edges[k + 1])
        if not np.any(mask):
            continue
        idx = np.argmin(v[mask])
        mins_u.append(u[mask][idx])
        mins_v.append(v[mask][idx])
    if len(mins_u) < 5:
        raise FitError(f"only {len(mins_u)} populated bins; value gaps too clustered")

    slope, intercept = np.polyfit(np.array(mins_u), np.array(mins_v), 1)
    theta = 1.0 - float(slope)
    if not (THETA_MIN <= theta <= THETA_MAX):
        raise FitError(
            f"fitted slope {slope:.4f} gives exponent {theta:.4f} outside "
            f"[{THETA_MIN}, {THETA_MAX}]; no usable power-law envelope at radius {radius}",
            measured_slope=float(slope),
        )

    # lower the line until it clears every fitting sample
    violation = np.max(intercept + slope * u - v)
    shift = max(0.0, float(violation))
    constant = float(np.exp(intercept - shift))

    hold_rng = substream(seed, "loja-holdout")
    hu, hv, _ = _sample_cloud(f, Z, cp, radius, max(200, FIT_SAMPLES // 2), hold_rng)
    if hu.size:
        h_fit = constant * np.exp((1.0 - theta) * hu)
        h_act = np.exp(hv)
        frac = float(np.mean(h_act >= h_fit * (1.0 - CHECK_SLACK)))
    else:
        frac = float("nan")

    return LojasiewiczFit(
        theta=theta,
        constant_C=constant,
        radius_delta=float(radius),
        critical_value=c,
        n_samples=int(u.size),
        holdout_pass_fraction=frac,
    )


def choose_epsilon(fit: LojasiewiczFit, nearest_gap: float) -> float:
    """Level offset licensed by the fit: eps = SAFETY * (C*theta*delta/2)^(1/theta).

    Guarantees length_bound(fit, eps) = SAFETY^theta * delta/2 < delta/2.
    Validated against nearest_gap, the spacing to the next critical value
    (no other critical value may sit inside the offset; inf when there is
    none).
    """
    if not (0.0 < fit.theta <= 1.0):
        raise ValueError(f"exponent {fit.theta} outside (0, 1]")
    eps = SAFETY * (fit.constant_C * fit.theta * fit.radius_delta / 2.0) ** (1.0 / fit.theta)
    if eps > nearest_gap:
        raise ValueError(
            f"eps {eps:.6g} exceeds the spacing {nearest_gap:.6g} to the nearest "
            "other critical value; shrink delta"
        )
    return float(eps)


def length_bound(fit: LojasiewiczFit, eps: float) -> float:
    """Arc-length cap for flow lines descending from the critical level by eps."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return float(eps**fit.theta / (fit.constant_C * fit.theta))


def verify_flow_estimates(
    f,
    Z: SingularSpace,
    cp: CriticalPoint,
    fit: LojasiewiczFit,
    eps: float,
    starts,
) -> dict:
    """Descend each start by eps below the critical level and check the estimates.

    (i)   d/dt (c - f)^theta >= C*theta*grad_norm*(1 - CHECK_SLACK) at interior samples;
    (ii)  arc(t) <= (c - f(y_t))^theta / (C*theta) * (1 + CHECK_SLACK) at every sample;
    (iii) the endpoint stays within delta of the critical point.

    Captured trajectories (converged before the target level) are excluded
    from (ii)/(iii) and counted as stable-set evidence.  Minima are
    refused: there is no level below to descend to.  All starts descend as
    one ensemble, every sample recorded.
    """
    if cp.kind == "minimum":
        raise ValueError("critical point is a minimum; no descending side exists")
    c = fit.critical_value
    target = c - eps
    theta, C = fit.theta, fit.constant_C
    delta = fit.radius_delta
    center = cp.point()

    starts = np.reshape(np.asarray(starts, dtype=float), (-1, Z.ambient_dim))
    check_on_level(f, Z, starts, c, "start")
    near = np.flatnonzero(row_norms(starts - center) <= CLUSTER_TOL)
    if near.size:
        raise ValueError(f"start {near[0]} coincides with the critical point; zero-length flow")

    n_captured = n_inconclusive = i_pass = i_total = ii_traj_pass = ii_total_traj = iii_pass = arc_pass = 0
    i_worst, ii_worst, iii_worst, arc_worst = np.inf, 0.0, 0.0, 0.0
    arc_bound = length_bound(fit, eps)

    flows = integrate_ensemble(f, Z, starts, "descend", target, [CONVERGED], record=True)
    for traj in flows.recorded.values():
        if traj.termination not in ("reach_level", "converged"):
            n_inconclusive += 1
            continue

        # (i) at each interior sample k unless t[k+1] - t[k-1] <= 0; the worst ratios
        # go through Python's min and max, which pass over a NaN ratio
        w = np.maximum(c - traj.f, 0.0) ** theta
        dt = traj.t[2:] - traj.t[:-2]
        use = ~(dt <= 0)
        lhs = (w[2:] - w[:-2])[use] / dt[use]
        rhs = C * theta * traj.grad_norm[1:-1][use]
        i_total += int(np.count_nonzero(use))
        i_pass += int(np.count_nonzero(lhs >= rhs * (1.0 - CHECK_SLACK)))
        i_worst = min([i_worst, *(lhs[rhs > 0] / rhs[rhs > 0])])

        if traj.termination == "converged":
            n_captured += 1
            continue

        ii_total_traj += 1
        gaps = np.maximum(c - traj.f, 0.0)
        bounds = gaps**theta / (C * theta)
        scored = ~(bounds <= 0.0)
        ratios = traj.arc[scored] / bounds[scored]
        ii_worst = max([ii_worst, *ratios])
        if not (np.any(traj.arc[~scored] > 1e-15) or np.any(ratios > 1.0 + CHECK_SLACK)):
            ii_traj_pass += 1

        total = float(traj.total_arc)
        arc_worst = max(arc_worst, total / arc_bound if arc_bound > 0 else np.inf)
        if total < arc_bound * (1.0 + CHECK_SLACK):
            arc_pass += 1

        dist = float(np.linalg.norm(traj.endpoint - center))
        iii_worst = max(iii_worst, dist)
        if dist < delta:
            iii_pass += 1

    return {
        "n_starts": len(starts),
        "n_captured": n_captured,
        "n_inconclusive": n_inconclusive,
        "check_i": {
            "n_samples": i_total,
            "n_pass": i_pass,
            "pass_fraction": i_pass / i_total if i_total else float("nan"),
            "worst_ratio": float(i_worst) if i_total else float("nan"),
        },
        "check_ii": {
            "n_trajectories": ii_total_traj,
            "n_pass": ii_traj_pass,
            "pass_fraction": ii_traj_pass / ii_total_traj if ii_total_traj else float("nan"),
            "worst_ratio": float(ii_worst),
        },
        "check_iii": {
            "n_trajectories": ii_total_traj,
            "n_pass": iii_pass,
            "pass_fraction": iii_pass / ii_total_traj if ii_total_traj else float("nan"),
            "worst_distance": float(iii_worst),
            "delta": float(delta),
        },
        "total_arc": {
            "bound": float(arc_bound),
            "n_pass": arc_pass,
            "worst_ratio": float(arc_worst),
            # with no trajectory checked there is nothing to be within
            "all_within": ii_total_traj > 0 and arc_pass == ii_total_traj,
        },
    }


def default_delta(Z: SingularSpace, cp: CriticalPoint, others) -> float:
    """Validity radius: half the spacing to the nearest other critical point,
    capped by the distance from the point to the box walls.

    Raises FitError at a point on a box face, where that cap is 0.
    """
    delta = min(min(c - lo, hi - c) for c, (lo, hi) in zip(cp.location, Z.box))
    if delta <= 0.0:
        raise FitError(f"delta = 0: the point {cp.location} lies on a box face, so no ball around it fits in the box")
    p = cp.point()
    for other in others:
        d = float(np.linalg.norm(other.point() - p))
        if d > CLUSTER_TOL:
            delta = min(delta, d / 2.0)
    return float(delta)
