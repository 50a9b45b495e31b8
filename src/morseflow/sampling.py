"""Seeded sampling helpers shared by the estimation and checking modules.

Every random draw in the package flows from one integer seed through a
named substream, so a stage re-run on its own sees exactly the draws it
would see inside a full experiment.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .space import SingularSpace, row_norms

# ring_probes sends RING_PROBES - 2n random directions after the fixed ones of
# unit_directions: 24, 28, 44 and 64 directions for n = 1 to 4, before retraction drops any
RING_PROBES = 24
# ball_probes draws at most BALL_OVERSAMPLE * count + 64 candidates
BALL_OVERSAMPLE = 8
# band_samples draws from the box shrunk about its centre by BAND_MARGIN;
# < 1 keeps samples away from the box walls, where flows would leave the
# box at once and say nothing about the band
BAND_MARGIN = 0.9


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for a named stage, derived from the root seed."""
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), key]))


def unit_directions(dim: int, rng: np.random.Generator, n_random: int) -> np.ndarray:
    """Probe directions: the 2 * dim axes, the 4 diagonals of each coordinate
    pair, the 2**dim corners when 3 <= dim <= 6, then n_random random ones.

    The deterministic head of the list keeps probe-based classification
    reproducible even when a retraction swallows most random directions
    (thin strata admit only a few escape routes).
    """
    dirs = []
    eye = np.eye(dim)
    for i in range(dim):
        dirs.append(eye[i].copy())
        dirs.append(-eye[i])
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(dim)
                    v[i] = si
                    v[j] = sj
                    dirs.append(v / np.sqrt(2.0))
    if 3 <= dim <= 6:
        for bits in range(2**dim):
            v = np.array([1.0 if (bits >> k) & 1 == 0 else -1.0 for k in range(dim)])
            dirs.append(v / np.sqrt(dim))
    if n_random > 0:
        extra = rng.normal(size=(n_random, dim))
        norms = np.linalg.norm(extra, axis=1)
        for row, nr in zip(extra, norms):
            if nr > 1e-12:
                dirs.append(row / nr)
    return np.array(dirs)


def _dedupe(points, tol: float):
    """Greedy clustering: keep each point more than tol from every point kept before it.

    The first remaining point is kept, and every remaining point not more
    than tol from it (a NaN distance included) is dropped, until none
    remain.  :func:`row_norms` is ``np.linalg.norm`` per row, bit for bit.
    """
    rest, kept = np.asarray(points, dtype=float), []
    while len(rest):
        kept.append(rest[0])
        rest = rest[1:][row_norms(rest[1:] - rest[0]) > tol]
    return kept


def _rejection_sample(Z: SingularSpace, count: int, max_draws: int, draw, keep):
    """Up to count points of Z, in draw order: retracted candidates that pass keep.

    Each round spends k = count - len(out) draws, capped by the draws left:
    draw(k) gives a block of at most k candidates, one retract_batch puts
    them on Z, and keep maps the retracted rows to a mask.  Hits never
    exceed the block, so the last draw is the one-by-one sampler's.
    """
    out = []
    draws = 0
    while len(out) < count and draws < max_draws:
        k = min(count - len(out), max_draws - draws)
        draws += k
        P, ok = Z.retract_batch(draw(k))
        P = P[ok]
        out.extend(P[keep(P)])
    return out


def ring_probes(Z: SingularSpace, center, radius: float, rng: np.random.Generator):
    """Points of Z at distance ~radius from center, inside the box or not.

    Sends the probe directions of RING_PROBES out, retracts, rescales back
    to the target distance and retracts once more.  Directions the retraction collapses
    toward the center (normal directions at a singular point) are dropped,
    so the survivors genuinely chart the local strata.
    """
    center = np.asarray(center, dtype=float)
    n_random = max(0, RING_PROBES - 2 * center.size)
    P, ok = Z.retract_batch(center + radius * unit_directions(center.size, rng, n_random))
    P = P[ok]
    dist = row_norms(P - center)
    far = dist >= 0.25 * radius
    P, ok = Z.retract_batch(center + (radius / dist[far])[:, None] * (P[far] - center))
    P = P[ok]
    dist = row_norms(P - center)
    return _dedupe(P[(0.5 * radius <= dist) & (dist <= 1.5 * radius)], 1e-6 * radius)


def ball_probes(
    Z: SingularSpace,
    center,
    radius: float,
    rng: np.random.Generator,
    count: int,
):
    """Up to count points of Z inside the closed radius-ball around center.

    Draws uniformly from the ambient ball and retracts; the center itself
    (and anything the retraction pins to it) is excluded.
    """
    center = np.asarray(center, dtype=float)
    n = center.size

    def draw(k):
        block = []
        for _ in range(k):
            d = rng.normal(size=n)
            nd = np.linalg.norm(d)
            if nd < 1e-12:
                continue
            r = radius * rng.uniform() ** (1.0 / n)
            block.append(center + (r / nd) * d)
        return np.reshape(block, (-1, n))

    def keep(P):
        dist = row_norms(P - center)
        return (1e-6 * radius < dist) & (dist <= radius) & Z.inside_box(P)

    return _rejection_sample(Z, count, BALL_OVERSAMPLE * count + 64, draw, keep)


def gaussian_cloud(
    Z: SingularSpace,
    center,
    radius: float,
    rng: np.random.Generator,
    count: int,
):
    """Rejection sampler: ambient Gaussian around center, retract, keep in-ball hits.

    Draws at most 40 * count + 200 candidates.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    return _rejection_sample(
        Z, count, 40 * count + 200,
        lambda k: center + (0.5 * radius) * rng.normal(size=(k, n)),
        lambda P: row_norms(P - center) <= radius,
    )


def band_samples(f, Z: SingularSpace, a: float, b: float, rng: np.random.Generator, count: int):
    """Up to count points of Z in the box shrunk by BAND_MARGIN with f strictly inside (a, b).

    Draws at most 200 * count + 500 candidates.
    """
    lows = np.array([lo for lo, _ in Z.box])
    highs = np.array([hi for _, hi in Z.box])
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows) * BAND_MARGIN

    def keep(P):
        val = f.evaluate(P)
        return (np.abs(P - mid) <= half + 1e-12).all(axis=1) & (a < val) & (val < b)

    return _rejection_sample(
        Z, count, 200 * count + 500, lambda k: mid + half * rng.uniform(-1.0, 1.0, size=(k, Z.ambient_dim)), keep)
