from pathlib import Path

import numpy as np
import pytest

import greedy_dedupe
from morseflow import sampling
from morseflow.cli import load_problem, problem_objects
from morseflow.sampling import (
    _dedupe,
    ball_probes,
    band_samples,
    gaussian_cloud,
    ring_probes,
    substream,
    unit_directions,
)
from morseflow.space import RetractionError


class TestSubstream:
    def test_same_name_same_stream(self):
        a = substream(7, "stage").uniform(size=5)
        b = substream(7, "stage").uniform(size=5)
        assert np.array_equal(a, b)

    def test_names_decouple_streams(self):
        a = substream(7, "alpha").uniform(size=5)
        b = substream(7, "beta").uniform(size=5)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = substream(1, "stage").uniform(size=5)
        b = substream(2, "stage").uniform(size=5)
        assert not np.array_equal(a, b)


class TestDedupe:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_greedy_loop(self, seed):
        rng = np.random.default_rng(seed)
        # clumps around a few centres, with exact copies and near misses of the tolerance
        centres = rng.uniform(-1, 1, size=(6, 3))
        P = centres[rng.integers(0, 6, size=200)] + rng.normal(scale=0.05, size=(200, 3))
        P[::7] = P[1::7][:len(P[::7])]
        for tol in (0.0, 0.02, 0.1, 0.5):
            got, ref = _dedupe(P, tol), greedy_dedupe.dedupe(P, tol)
            assert len(got) == len(ref)
            np.testing.assert_array_equal(np.reshape(got, (-1, 3)), np.reshape(ref, (-1, 3)))

    def test_an_empty_list_keeps_nothing(self):
        assert _dedupe([], 1e-6) == [] == greedy_dedupe.dedupe([], 1e-6)
        assert _dedupe(np.zeros((0, 2)), 1e-6) == []

    def test_a_nan_first_point_swallows_the_rest(self):
        # every distance to NaN is NaN, which is not > tol
        P = np.array([[np.nan, 0.0], [1.0, 0.0], [np.nan, 1.0], [5.0, 5.0]])
        got, ref = _dedupe(P, 1e-6), greedy_dedupe.dedupe(P, 1e-6)
        assert len(got) == len(ref) == 1
        np.testing.assert_array_equal(got[0], ref[0])

    def test_a_later_nan_point_is_dropped(self):
        P = np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 0.0]])
        got, ref = _dedupe(P, 1e-6), greedy_dedupe.dedupe(P, 1e-6)
        np.testing.assert_array_equal(got, ref)
        assert len(got) == 2


class TestUnitDirections:
    def test_axes_always_present(self):
        dirs = unit_directions(2, np.random.default_rng(0))
        rows = {tuple(np.round(d, 12)) for d in dirs}
        assert (1.0, 0.0) in rows and (-1.0, 0.0) in rows
        assert (0.0, 1.0) in rows and (0.0, -1.0) in rows

    def test_all_unit_norm(self):
        rng = np.random.default_rng(0)
        dirs = unit_directions(3, rng=rng, n_random=10)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dim, count", [(1, 24), (2, 28), (3, 44), (4, 64)])
    def test_a_ring_of_24_asks_for_the_documented_count(self, dim, count):
        # classify and the unstable slice add 24 - 2n random directions to the fixed ones
        assert len(unit_directions(dim, np.random.default_rng(0), max(0, 24 - 2 * dim))) == count


class TestProbes:
    def test_ring_probes_sit_near_the_radius(self, cone):
        _, Z = cone
        pts = ring_probes(Z, np.zeros(3), 0.1, rng=substream(0, "t"), n_random=8)
        assert len(pts) > 0
        for p in pts:
            assert Z.is_member(p)
            assert 0.05 <= np.linalg.norm(p) <= 0.15

    def test_ball_probes_fill_the_ball(self, saddle):
        _, Z = saddle
        pts = ball_probes(Z, np.zeros(2), 0.2, substream(0, "b"), 30)
        assert len(pts) == 30
        norms = [np.linalg.norm(p) for p in pts]
        assert max(norms) <= 0.2
        assert min(norms) > 0.0

    def test_band_samples_respect_the_band(self, cone):
        f, Z = cone
        pts = band_samples(f, Z, -0.8, 0.8, substream(0, "band"), 50)
        assert len(pts) == 50
        for p in pts:
            assert Z.is_member(p)
            assert -0.8 < f.evaluate(p) < 0.8


# One-at-a-time references: each candidate is drawn and retracted on its own.

def ring_probes_reference(Z, center, radius, rng=None, n_random=0):
    center = np.asarray(center, dtype=float)
    out = []
    for d in unit_directions(center.size, rng, n_random):
        try:
            p = Z.retract(center + radius * d)
        except RetractionError:
            continue
        dist = np.linalg.norm(p - center)
        if dist < 0.25 * radius:
            continue
        try:
            p = Z.retract(center + (radius / dist) * (p - center))
        except RetractionError:
            continue
        dist = np.linalg.norm(p - center)
        if dist < 0.5 * radius or dist > 1.5 * radius:
            continue
        out.append(p)
    return _dedupe(out, 1e-6 * radius)


def ball_probes_reference(Z, center, radius, rng, count, oversample=8):
    center = np.asarray(center, dtype=float)
    n = center.size
    out = []
    attempts = 0
    budget = oversample * count + 64
    while len(out) < count and attempts < budget:
        attempts += 1
        d = rng.normal(size=n)
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            continue
        r = radius * rng.uniform() ** (1.0 / n)
        try:
            p = Z.retract(center + (r / nd) * d)
        except RetractionError:
            continue
        dist = np.linalg.norm(p - center)
        if 1e-6 * radius < dist <= radius and Z.inside_box(p):
            out.append(p)
    return out


def gaussian_cloud_reference(Z, center, radius, rng, count, max_draws=None):
    center = np.asarray(center, dtype=float)
    n = center.size
    if max_draws is None:
        max_draws = 40 * count + 200
    out = []
    draws = 0
    while len(out) < count and draws < max_draws:
        draws += 1
        x = center + (0.5 * radius) * rng.normal(size=n)
        try:
            p = Z.retract(x)
        except RetractionError:
            continue
        if np.linalg.norm(p - center) <= radius:
            out.append(p)
    return out


def band_samples_reference(f, Z, a, b, rng, count, margin_frac=0.9, max_draws=None):
    if max_draws is None:
        max_draws = 200 * count + 500
    lows = np.array([lo for lo, _ in Z.box])
    highs = np.array([hi for _, hi in Z.box])
    mid = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows) * margin_frac
    out = []
    draws = 0
    while len(out) < count and draws < max_draws:
        draws += 1
        x = mid + half * rng.uniform(-1.0, 1.0, size=Z.ambient_dim)
        try:
            p = Z.retract(x)
        except RetractionError:
            continue
        if not all(abs(p - mid) <= half + 1e-12):
            continue
        val = float(f.evaluate(p))
        if a < val < b:
            out.append(p)
    return out


def same_points(got, ref):
    return len(got) == len(ref) and all(np.array_equal(p, q) for p, q in zip(got, ref))


def cap_draws(monkeypatch, max_draws):
    """Make the shared rejection sampler stop at max_draws (None: the sampler's own cap).

    Returns the list of caps the sampler was called with.
    """
    caps = []
    real = sampling._rejection_sample

    def capped(Z, count, own_cap, draw, keep):
        caps.append(own_cap)
        return real(Z, count, own_cap if max_draws is None else max_draws, draw, keep)

    monkeypatch.setattr(sampling, "_rejection_sample", capped)
    return caps


PLANES_LIFT = Path(__file__).resolve().parent / "problems" / "planes-lift.json"


@pytest.fixture(scope="module", params=["cone", "planes-lift"])
def problem(request, cone):
    if request.param == "cone":
        return cone
    return problem_objects(load_problem(PLANES_LIFT))


class TestBatchedSamplersMatchOneAtATime:
    # each case: (kwargs, whether the run must stop on its draw cap)
    @pytest.mark.parametrize("count, max_draws, capped", [(40, None, False), (400, 150, True)])
    def test_gaussian_cloud(self, problem, count, max_draws, capped, monkeypatch):
        _, Z = problem
        center = np.zeros(Z.ambient_dim)
        caps = cap_draws(monkeypatch, max_draws)
        got = gaussian_cloud(Z, center, 0.3, substream(3, "g"), count)
        ref = gaussian_cloud_reference(Z, center, 0.3, substream(3, "g"), count, max_draws)
        assert caps == [40 * count + 200]
        assert same_points(got, ref)
        assert (len(got) < count) == capped

    @pytest.mark.parametrize("band, count, max_draws, capped",
                             [((-0.8, 0.8), 40, None, False), ((0.3, 0.31), 60, 300, True)])
    def test_band_samples(self, problem, band, count, max_draws, capped, monkeypatch):
        f, Z = problem
        caps = cap_draws(monkeypatch, max_draws)
        got = band_samples(f, Z, *band, substream(4, "b"), count)
        ref = band_samples_reference(f, Z, *band, substream(4, "b"), count, max_draws=max_draws)
        assert caps == [200 * count + 500]
        assert same_points(got, ref)
        assert (len(got) < count) == capped

    @pytest.mark.parametrize("count, oversample, capped", [(30, 8, False), (200, 0, True)])
    def test_ball_probes(self, problem, count, oversample, capped, monkeypatch):
        _, Z = problem
        center = np.zeros(Z.ambient_dim)
        monkeypatch.setattr(sampling, "BALL_OVERSAMPLE", oversample)
        got = ball_probes(Z, center, 0.2, substream(5, "p"), count)
        ref = ball_probes_reference(Z, center, 0.2, substream(5, "p"), count, oversample)
        assert same_points(got, ref)
        assert (len(got) < count) == capped

    def test_ring_probes(self, problem):
        _, Z = problem
        center = np.zeros(Z.ambient_dim)
        center[0] = 1.99  # the ring pokes out of the box
        center = Z.retract(center)
        got = ring_probes(Z, center, 0.05, substream(6, "r"), 12)
        ref = ring_probes_reference(Z, center, 0.05, substream(6, "r"), 12)
        assert len(got) > 0 and same_points(got, ref)
