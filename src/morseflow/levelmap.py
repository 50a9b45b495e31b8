"""Level-to-level transport along the flow, and the empirical condition checks.

The flow carries one level set of f onto another; between critical values
that transport is invertible, and approaching a critical level it
degenerates exactly on the stable set.  This module realizes the
transport map, samples unstable-set slices, and runs the compactness and
landing-modulus checks against them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .critical import CLUSTER_TOL, ConditionReport, CriticalPoint
from .flow import CONVERGED, INCONCLUSIVE_TERMINATIONS, Capture, Converged, check_on_level, integrate_ensemble
from .sampling import _dedupe, ball_probes, band_samples, ring_probes, substream
from .space import SingularSpace, project_to_level_set

log = logging.getLogger(__name__)

SLICE_CLUSTER_TOL = 10.0 * CLUSTER_TOL
# condition 4 passes when the smallest radius lands within TUBE_RHO of the
# slice and each landing distance exceeds the one before by at most MONOTONE_SLACK
TUBE_RHO = 0.05
MONOTONE_SLACK = 0.1
# the unstable slice descends from the ring probes of radius SLICE_PROBE_RADIUS (see
# sampling.RING_PROBES) that lie SLICE_START_DROP = CURVATURE_MARGIN * radius**2 below the critical value
SLICE_PROBE_RADIUS = 1e-3
CURVATURE_MARGIN = 0.5
SLICE_START_DROP = CURVATURE_MARGIN * SLICE_PROBE_RADIUS**2
# condition 2 draws up to this many band samples; condition 4 up to
# N_PER_RADIUS ball probes at each of the strictly decreasing RADII
COND2_SAMPLES = 200
N_PER_RADIUS = 40
RADII = (0.1, 0.03, 0.01, 0.003)
# a condition-2 flow converges once its projected gradient stays below this
COND2_CONV_TOL = 1e-4


@dataclass(frozen=True)
class LevelPair:
    """One transported source: where it landed, how far it travelled."""

    source: tuple
    image: tuple
    arc: float
    captured: bool
    termination: str


@dataclass
class LevelSetMap:
    level_from: float
    level_to: float
    pairs: list

    @property
    def images(self):
        return [p.image for p in self.pairs if not p.captured and p.termination in ("reach_level", "identity")]

    @property
    def n_captured(self):
        return sum(1 for p in self.pairs if p.captured)

    @property
    def n_inconclusive(self):
        return sum(1 for p in self.pairs if p.termination in INCONCLUSIVE_TERMINATIONS)


class EmptySlice(ValueError):
    """An empty unstable slice: no ring probe starts below the critical value, or no landing is validated."""


def level_map(f, Z: SingularSpace, a: float, b: float, sources) -> LevelSetMap:
    """Transport points of f^{-1}(a) to f^{-1}(b) along the flow.

    Direction follows the sign of b - a.  Captured trajectories (converged
    before the target level) are flagged, not errors; their image is the
    numerical limit point.  Budget-terminated pairs keep their termination
    string so callers can report them.  All sources flow as one ensemble.
    """
    S = np.reshape(np.asarray(sources, dtype=float), (-1, Z.ambient_dim))
    check_on_level(f, Z, S, a, "source")
    if b == a:
        pairs = [LevelPair(tuple(s), tuple(s), 0.0, False, "identity") for s in S]
        return LevelSetMap(level_from=float(a), level_to=float(b), pairs=pairs)
    direction = "ascend" if b > a else "descend"
    flows = integrate_ensemble(f, Z, S, direction, b, [CONVERGED])
    pairs = [
        LevelPair(
            source=tuple(float(v) for v in s),
            image=tuple(float(v) for v in end),
            arc=float(arc),
            captured=term == "converged",
            termination=str(term),
        )
        for s, term, end, arc in zip(S, flows.termination, flows.endpoint, flows.total_arc)
    ]
    return LevelSetMap(level_from=float(a), level_to=float(b), pairs=pairs)


def roundtrip_error(f, Z: SingularSpace, a: float, b: float, sources) -> float:
    """Max displacement after transporting a -> b -> a, over non-captured sources.

    Small values witness invertibility of the transport; meaningful only
    when no critical value separates the levels (otherwise the number is
    still reported and documents where invertibility dies).
    """
    if a == b:
        return 0.0
    fwd = level_map(f, Z, a, b, sources)
    worst = 0.0
    live = [(np.asarray(p.source), np.asarray(p.image)) for p in fwd.pairs
            if not p.captured and p.termination == "reach_level"]
    if not live:
        return 0.0
    back = level_map(f, Z, b, a, [img for _, img in live])
    for (src, _), pair in zip(live, back.pairs):
        if pair.captured or pair.termination != "reach_level":
            continue
        worst = max(worst, float(np.linalg.norm(np.asarray(pair.image) - src)))
    return worst


def unstable_slice(f, Z: SingularSpace, cp: CriticalPoint, level: float, seed: int) -> list:
    """Sample the downward-leaving flow of a critical point on a lower level: the sorted slice points.

    Probes on a small ring that sit genuinely below the critical value are
    descended to the level; landings are clustered, and each cluster
    representative must be validated by flowing back up to the critical
    point (an unstable-set point, flowed backward, returns to where it
    came from).  A back-flow that runs into the point within
    SLICE_CLUSTER_TOL is captured there (:class:`Capture`), as at a cone's
    vertex, where f jumps along the step.  An empty slice raises
    :class:`EmptySlice`, and so does a minimum: nothing leaves it downward.
    A level not below every probe start is refused by the target check of
    :func:`integrate_ensemble`.
    """
    descents = integrate_ensemble(f, Z, _slice_starts(f, Z, cp, seed), "descend", level, [CONVERGED])
    return _slice_from(f, Z, cp, level, descents.endpoint[descents.termination == "reach_level"])


def _slice_starts(f, Z: SingularSpace, cp: CriticalPoint, seed: int) -> np.ndarray:
    """The ring probes of radius SLICE_PROBE_RADIUS that lie SLICE_START_DROP below the critical value."""
    rng = substream(seed, "unstable-slice")
    probes = np.reshape(ring_probes(Z, cp.point(), SLICE_PROBE_RADIUS, rng), (-1, Z.ambient_dim))
    starts = probes[f.evaluate(probes) < cp.value - SLICE_START_DROP]
    if not len(starts):
        raise EmptySlice(f"no ring probe at radius {SLICE_PROBE_RADIUS:g} lies {SLICE_START_DROP:g} below the "
                         "critical value; the point is a minimum, or the radius is too small")
    return starts


def _slice_from(f, Z: SingularSpace, cp: CriticalPoint, level: float, landings) -> list:
    """The slice validated from the landings on level of the descents from :func:`_slice_starts`
    (see :func:`unstable_slice`)."""
    center = cp.point()
    if not len(landings):
        raise EmptySlice(f"no probe flow reached level {level:g}; slice is empty")

    reps = _dedupe(landings, SLICE_CLUSTER_TOL)
    ups = integrate_ensemble(f, Z, reps, "ascend", cp.value,
                             [CONVERGED, Capture(cp.location, SLICE_CLUSTER_TOL)])
    # dropped landings are routine (back-flows ending 1e-3 off the point), so one INFO line per slice, not per landing
    validated, dropped, farthest = [], {}, 0.0
    for rep, why, end in zip(reps, ups.termination, ups.endpoint):
        why = str(why)
        if why in ("reach_level", "converged"):
            dist = float(np.linalg.norm(end - center))
            farthest, why = max(farthest, dist), "too_far" if dist > SLICE_CLUSTER_TOL else None
        if why:
            dropped[why] = dropped.get(why, 0) + 1
        else:
            validated.append(tuple(float(v) for v in rep))
    kept = (f"{len(validated)} of {len(reps)} landings kept, dropped {dropped}; "
            f"farthest back-flow end {farthest:.3g} from the point")
    log.info("slice at level %g: %s", level, kept)
    if not validated:
        raise EmptySlice(f"no slice landing survived back-flow validation at level {level:g}: {kept}")
    validated.sort()
    return validated


def check_condition2(f, Z: SingularSpace, a: float, b: float, seed: int, collect) -> ConditionReport:
    """Compactness of the flow over the band (a, b).

    Every sampled point of Z with value inside the band (up to
    COND2_SAMPLES of them) must, in both flow directions, either reach the
    band edge or converge (with the limit still in the band).  Callers are
    responsible for choosing a and b away from critical values.  Budget or
    box exits leave the dichotomy undecided and make the verdict
    inconclusive (witnesses.reason counts them), and so does a band in
    which the sampler finds no point of Z.  The witnesses are read from
    the ensemble's end-state arrays.  Unless it is None, ``collect`` is a
    dict keyed by family, ``cond2/descend`` and ``cond2/ascend``: the first
    flow of each direction is recorded, with every sample, and set under its
    family unless the dict already holds one.
    """
    if not a < b:
        raise ValueError(f"band requires a < b, got ({a}, {b})")
    rng = substream(seed, "cond2")
    samples = band_samples(f, Z, a, b, rng, COND2_SAMPLES)
    witnesses = {
        "band": [float(a), float(b)],
        "n_requested": COND2_SAMPLES,
        "n_samples": len(samples),
        "n_reach": 0,
        "n_converged": 0,
        "n_inconclusive": 0,
        "n_violations": 0,
        "n_accepted_steps": 0,
        "n_rejected_steps": 0,
        "terminations": {},
    }
    if not samples:
        witnesses["reason"] = "no point of Z found in the band; rejection sampling cannot show the band misses Z"
        log.warning("condition 2 on (%g, %g): no samples found", a, b)
        return ConditionReport(condition=2, verdict="inconclusive", witnesses=witnesses)

    # each sample flows down to a, then up to b; the first flow of each
    # direction is recorded in full for collect, and none without it
    flows = integrate_ensemble(
        f, Z, np.repeat(samples, 2, axis=0), ["descend", "ascend"] * len(samples),
        [a, b] * len(samples), [Converged(COND2_CONV_TOL)],
        record=collect is not None and np.arange(2 * len(samples)) < 2,
    )
    for traj in flows.recorded.values():
        collect.setdefault(f"cond2/{traj.direction}", traj)
    term = flows.termination
    names, first, counts = np.unique(term, return_index=True, return_counts=True)
    converged = term == "converged"
    in_band = (a - Z.level_tol <= flows.final_f) & (flows.final_f <= b + Z.level_tol)
    witnesses.update(
        n_reach=int(np.count_nonzero(term == "reach_level")),
        n_converged=int(np.count_nonzero(converged)),
        n_violations=int(np.count_nonzero(converged & ~in_band)),
        n_accepted_steps=int(flows.n_accepted.sum()),
        n_rejected_steps=int(flows.n_rejected.sum()),
        terminations={str(names[k]): int(counts[k]) for k in np.argsort(first)},
    )
    witnesses["n_inconclusive"] = len(term) - witnesses["n_reach"] - witnesses["n_converged"]

    if witnesses["n_violations"]:
        verdict = "fail"
    elif witnesses["n_inconclusive"]:
        verdict = "inconclusive"
        witnesses["reason"] = f"{witnesses['n_inconclusive']} flows ended undecided; terminations {witnesses['terminations']}"
    else:
        verdict = "pass"
    return ConditionReport(condition=2, verdict=verdict, witnesses=witnesses)


def check_condition4(f, Z: SingularSpace, cp: CriticalPoint, eps: float, seed: int, collect) -> ConditionReport:
    """Landing modulus: flows from shrinking balls land ever closer to the slice.

    For each radius r in RADII, up to N_PER_RADIUS on-Z probes within r of
    the critical point are descended to the slice level; d(r) is the worst
    distance from a landing to the nearest slice point.  Probes captured by
    the critical level itself (converged at value >= cp.value - eps/2) are
    the stable-set exclusion and are counted, not scored.  Verdict passes when
    d is non-increasing within MONOTONE_SLACK and the smallest radius lands
    inside the tube of radius TUBE_RHO; a radius that lands no probe makes it
    inconclusive, and witnesses.reason names it.

    The slice at cp.value - eps is :func:`unstable_slice`'s, its descents in
    the probes' ensemble; witnesses.slice_points lists it.  An empty slice,
    or an eps below SLICE_START_DROP (a slice level above every start),
    makes the verdict inconclusive, and witnesses.reason says why.  Each
    radius is scored from the ensemble's end-state arrays.  Unless it is
    None, ``collect`` is a dict keyed by family, ``cond4/r=<r>``: the first
    probe flow of each radius whose family the dict lacks (an earlier point
    may have set it) is recorded, with every sample, and set under it.
    """
    if cp.kind == "minimum":
        raise ValueError("landing modulus needs a non-minimal critical point")
    target = cp.value - eps
    if eps < SLICE_START_DROP:
        reason = (f"eps {eps:g} is below {SLICE_START_DROP:g} = CURVATURE_MARGIN * SLICE_PROBE_RADIUS**2, the least "
                  "drop of a slice start below the critical value, so the slice level lies above every start")
        return ConditionReport(condition=4, verdict="inconclusive", witnesses={"eps": float(eps), "reason": reason})
    try:
        ring = _slice_starts(f, Z, cp, seed)
    except EmptySlice as e:
        return ConditionReport(condition=4, verdict="inconclusive", witnesses={"eps": float(eps), "reason": str(e)})
    capture_level = cp.value - eps / 2.0
    center = cp.point()
    probes = [np.reshape(ball_probes(Z, center, r, substream(seed, f"cond4-radius-{idx}"), N_PER_RADIUS),
                         (-1, Z.ambient_dim)) for idx, r in enumerate(RADII)]
    firsts = np.cumsum([0] + [len(p) for p in probes])
    starts = np.concatenate(probes)
    # the proof walks a sequence on the critical level itself; cover that
    # variant where the level set is nondegenerate, else keep the raw probe
    Q, ok = project_to_level_set(f, Z, starts, cp.value)
    qd = np.linalg.norm(Q - center, axis=1)
    use = ok & (CLUSTER_TOL < qd) & (qd <= 2.0 * np.repeat(RADII, np.diff(firsts)))
    starts[use] = Q[use]

    # the slice descends from the ring ahead of the probes; the first flow
    # of each radius whose family collect lacks is recorded in full for it
    n = len(ring)
    record = np.zeros(n + len(starts), dtype=bool)
    if collect is not None:
        record[[n + firsts[idx] for idx, r in enumerate(RADII)
                if firsts[idx] < firsts[idx + 1] and f"cond4/r={r:g}" not in collect]] = True
    flows = integrate_ensemble(f, Z, np.concatenate([ring, starts]), "descend", target, [CONVERGED], record=record)
    try:
        slice_ = _slice_from(f, Z, cp, target, flows.endpoint[:n][flows.termination[:n] == "reach_level"])
    except EmptySlice as e:
        return ConditionReport(condition=4, verdict="inconclusive", witnesses={"eps": float(eps), "reason": str(e)})
    slice_pts = np.asarray(slice_, dtype=float)

    table = []
    witnesses = {
        "eps": float(eps),
        "level": float(target),
        "tube_rho": TUBE_RHO,
        "capture_level": float(capture_level),
        "slice_size": len(slice_),
        "n_other_converged": 0,
        "n_inconclusive": 0,
        "n_projected": int(use.sum()),
    }
    for idx, r in enumerate(RADII):
        lo, hi = n + int(firsts[idx]), n + int(firsts[idx + 1])
        if lo < hi and record[lo]:
            collect[f"cond4/r={r:g}"] = flows.recorded[lo]
        term = flows.termination[lo:hi]
        landed = flows.endpoint[lo:hi][term == "reach_level"]
        # each landing's distance to its nearest slice point, from one norm over every pair
        d = np.min(np.linalg.norm(slice_pts[None, :, :] - landed[:, None, :], axis=2), axis=1)
        converged = term == "converged"
        captured = converged & (flows.final_f[lo:hi] >= capture_level)
        n_landed, n_captured = len(landed), int(np.count_nonzero(captured))
        witnesses["n_other_converged"] += int(np.count_nonzero(converged & ~captured))
        witnesses["n_inconclusive"] += hi - lo - n_landed - int(np.count_nonzero(converged))
        if n_landed == 0:
            log.warning("radius %g: no probe landed (captured %d of %d)", r, n_captured, hi - lo)
        table.append([float(r), float(np.max(d, initial=0.0)), n_landed, n_captured])

    unlanded = [row[0] for row in table if row[2] == 0]
    if unlanded:
        verdict = "inconclusive"
        witnesses["reason"] = f"no probe landed at radius {unlanded}"
    else:
        ds = [row[1] for row in table]
        # absolute floor: when flows collapse onto the slice exactly, the
        # measured distances are integrator noise and must not order-compare
        monotone = all(d2 <= d1 * (1.0 + MONOTONE_SLACK) + 1e-8 for d1, d2 in zip(ds, ds[1:]))
        verdict = "pass" if monotone and ds[-1] < TUBE_RHO else "fail"
        witnesses["d_final"] = ds[-1]
        witnesses["monotone_within_slack"] = bool(monotone)
    witnesses["slice_points"] = [list(p) for p in slice_]
    return ConditionReport(condition=4, verdict=verdict, witnesses=witnesses, modulus_table=table)

