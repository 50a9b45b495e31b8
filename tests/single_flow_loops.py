"""Reference copies of the loops that ran one ``integrate`` call per flow.

``unstable_slice`` polished each landing with its own flow, ``level_map``
moved each source with its own flow, and ``verify_flow_estimates``
descended each start with its own flow, through the single-flow wrappers
``descend_to_level`` and ``ascend_to_level`` (a ``ReachLevel`` and a
``Converged(1e-8)`` stop).  The batched versions in ``morseflow.levelmap``
and ``morseflow.lojasiewicz`` must give the same slice points, level pairs
and check dicts, bit for bit; tests/test_levelmap.py and
tests/test_lojasiewicz.py check that, from the starts of :func:`level_points`.
Input validation is left out: it only raises.
"""

import numpy as np

from morseflow.flow import ArcBudget, Converged, ReachLevel, integrate, integrate_ensemble
from morseflow.levelmap import SLICE_CLUSTER_TOL, LevelPair, LevelSetMap
from morseflow.lojasiewicz import length_bound
from morseflow.sampling import ring_probes, substream
from morseflow.space import project_to_level_set


def level_points(f, Z, c, seed, count=8):
    """Up to count points of Z ∩ {f = c}, projected from seeded draws near the origin."""
    X = substream(seed, "reference-starts").uniform(-0.5, 0.5, size=(4 * count, Z.ambient_dim))
    Q, ok = project_to_level_set(f, Z, X, c)
    return Q[ok][:count]


def to_level(f, Z, x0, c, direction):
    """One flow to the level c: the deleted ``descend_to_level`` / ``ascend_to_level``."""
    return integrate(f, Z, x0, direction, [ReachLevel(float(c)), Converged(1e-8)])


def unstable_slice_points(f, Z, cp, level, n_points=24, probe_radius=1e-3, seed=0,
                          curvature_margin=0.5):
    """The slice points, and the endpoint of each polish flow in landing order."""
    center = cp.point()
    rng = substream(seed, "unstable-slice")
    n_extra = max(0, n_points - 2 * Z.ambient_dim)
    probes = ring_probes(Z, center, probe_radius, rng, n_random=n_extra)
    cutoff = cp.value - curvature_margin * probe_radius**2
    starts = [p for p in probes if float(f.evaluate(p)) < cutoff]
    flows = integrate_ensemble(f, Z, starts, "descend", level, [Converged(1e-8)])
    landings = [traj.endpoint for traj in flows if traj.termination == "reach_level"]
    reps = []
    for q in landings:
        if all(np.linalg.norm(q - r) > SLICE_CLUSTER_TOL for r in reps):
            reps.append(q)
    ups = integrate_ensemble(f, Z, reps, "ascend", cp.value, [Converged(1e-8)])
    validated, polished = [], []
    for rep, up in zip(reps, ups):
        if up.termination not in ("reach_level", "converged"):
            continue
        dist = float(np.linalg.norm(up.endpoint - center))
        if dist > SLICE_CLUSTER_TOL and up.termination == "reach_level":
            polish = integrate(
                f, Z, up.endpoint, direction="ascend",
                stops=[Converged(1e-8), ArcBudget(max(10.0 * dist, 1e-6))],
            )
            polished.append(polish.endpoint)
            dist = min(dist, float(np.linalg.norm(polish.endpoint - center)))
        if dist <= SLICE_CLUSTER_TOL:
            validated.append(tuple(float(v) for v in rep))
    validated.sort()
    return validated, polished


def level_map(f, Z, a, b, sources):
    pairs = []
    for s in sources:
        s = np.asarray(s, dtype=float)
        if b == a:
            pairs.append(LevelPair(tuple(s), tuple(s), 0.0, False, "identity"))
            continue
        traj = to_level(f, Z, s, b, "ascend" if b > a else "descend")
        pairs.append(
            LevelPair(
                source=tuple(float(v) for v in s),
                image=tuple(float(v) for v in traj.endpoint),
                arc=float(traj.total_arc),
                captured=traj.termination == "converged",
                termination=traj.termination,
            )
        )
    return LevelSetMap(level_from=float(a), level_to=float(b), pairs=pairs)


def verify_flow_estimates(f, Z, cp, fit, eps, starts, check_slack=0.05):
    c = fit.critical_value
    target = c - eps
    theta, C = fit.theta, fit.constant_C
    delta = fit.radius_delta
    center = cp.point()
    starts = [np.asarray(s, dtype=float) for s in starts]

    n_captured = 0
    n_inconclusive = 0
    i_pass = i_total = 0
    i_worst = np.inf
    ii_traj_pass = 0
    ii_total_traj = 0
    ii_worst = 0.0
    iii_pass = 0
    iii_worst = 0.0
    arc_bound = length_bound(fit, eps)
    arc_worst = 0.0
    arc_pass = 0

    for s in starts:
        traj = to_level(f, Z, s, target, "descend")
        if traj.termination not in ("reach_level", "converged"):
            n_inconclusive += 1
            continue

        w = np.maximum(c - traj.f, 0.0) ** theta
        for k in range(1, traj.n_samples - 1):
            dt = traj.t[k + 1] - traj.t[k - 1]
            if dt <= 0:
                continue
            lhs = (w[k + 1] - w[k - 1]) / dt
            rhs = C * theta * traj.grad_norm[k]
            i_total += 1
            if lhs >= rhs * (1.0 - check_slack):
                i_pass += 1
            if rhs > 0:
                i_worst = min(i_worst, lhs / rhs)

        if traj.termination == "converged":
            n_captured += 1
            continue

        ii_total_traj += 1
        gaps = np.maximum(c - traj.f, 0.0)
        bounds = gaps**theta / (C * theta)
        ok = True
        for k in range(traj.n_samples):
            if bounds[k] <= 0.0:
                if traj.arc[k] > 1e-15:
                    ok = False
                continue
            ratio = traj.arc[k] / bounds[k]
            ii_worst = max(ii_worst, ratio)
            if ratio > 1.0 + check_slack:
                ok = False
        if ok:
            ii_traj_pass += 1

        total = float(traj.total_arc)
        arc_worst = max(arc_worst, total / arc_bound if arc_bound > 0 else np.inf)
        if total < arc_bound * (1.0 + check_slack):
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
            "all_within": arc_pass == ii_total_traj,
        },
    }
