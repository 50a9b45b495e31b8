import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import per_flow_tallies
import single_flow_loops
from morseflow import flow, levelmap
from morseflow.cli import builtin_problem, load_problem, problem_objects
from morseflow.critical import CriticalPoint, find_critical_points
from morseflow.levelmap import (
    SLICE_CLUSTER_TOL,
    check_condition2,
    check_condition4,
    level_map,
    roundtrip_error,
    unstable_slice,
)
from morseflow.flow import Converged, ReachLevel, integrate
from test_flow import same_bits


def on_saddle_level(x, level):
    """Point (x, y) of x^2 - y^2 = level with y > 0."""
    return np.array([x, np.sqrt(x * x - level)])


def origin_cp(dim=2, kind="saddle"):
    return CriticalPoint(location=(0.0,) * dim, value=0.0, grad_norm=0.0, kind=kind, cluster_radius=0.0)


class TestLevelMap:
    def test_transport_conserves_product(self, saddle):
        f, Z = saddle
        src = on_saddle_level(1e-3, -0.01)
        out = level_map(f, Z, -0.01, 0.01, [src])
        (pair,) = out.pairs
        assert not pair.captured
        image = np.asarray(pair.image)
        assert abs(f.evaluate(image) - 0.01) < 1e-9
        assert abs(image[0] * image[1] - src[0] * src[1]) < 1e-6

    def test_equal_levels_identity(self, saddle):
        f, Z = saddle
        src = on_saddle_level(0.3, -0.01)
        out = level_map(f, Z, -0.01, -0.01, [src])
        assert np.array_equal(out.pairs[0].image, src)
        assert out.pairs[0].arc == 0.0

    def test_source_off_level_rejected(self, saddle):
        f, Z = saddle
        with pytest.raises(ValueError):
            level_map(f, Z, -0.01, 0.01, [np.array([0.5, 0.5])])

    def test_ascent_into_critical_level_is_captured(self, saddle):
        # the downhill branch is the y-axis; raising such a point to the
        # critical level runs into the fixed point instead of crossing
        f, Z = saddle
        sources = [np.array([0.0, 0.1]), np.array([0.0, -0.1])]
        out = level_map(f, Z, -0.01, 0.0, sources)
        for pair in out.pairs:
            assert pair.captured
            assert np.linalg.norm(np.asarray(pair.image)) < 1e-6
        assert out.n_captured == 2
        assert out.images == []


class TestRoundtrip:
    def test_regular_band_is_reversible(self, saddle):
        f, Z = saddle
        sources = [on_saddle_level(x, -0.01) for x in np.linspace(-1.2, 1.2, 10)]
        assert roundtrip_error(f, Z, -0.01, -0.005, sources) < 1e-6

    def test_equal_levels_zero(self, saddle):
        f, Z = saddle
        assert roundtrip_error(f, Z, -0.01, -0.01, [on_saddle_level(0.2, -0.01)]) == 0.0


class TestUnstableSlice:
    def test_saddle_slice_is_two_axis_points(self, saddle):
        f, Z = saddle
        slc = unstable_slice(f, Z, origin_cp(), -0.01, seed=0)
        got = sorted(tuple(np.round(p, 8)) for p in slc)
        assert len(got) == 2
        assert np.allclose(got[0], (0.0, -0.1), atol=1e-7)
        assert np.allclose(got[1], (0.0, 0.1), atol=1e-7)

    def test_slice_points_flow_back_to_the_fixed_point(self, saddle):
        f, Z = saddle
        slc = unstable_slice(f, Z, origin_cp(), -0.01, seed=0)
        for p in slc:
            traj = integrate(f, Z, np.asarray(p), "ascend", [ReachLevel(0.0), Converged(1e-8)])
            assert np.linalg.norm(traj.endpoint) < SLICE_CLUSTER_TOL

    def test_cone_slice_lands_on_the_rays(self, cone):
        f, Z = cone
        cp = origin_cp(dim=3)
        slc = unstable_slice(f, Z, cp, -0.1, seed=0)
        got = sorted(tuple(np.round(p, 8)) for p in slc)
        assert len(got) == 2
        assert np.allclose(got[0], (-0.1, 0.0, -0.1), atol=1e-6)
        assert np.allclose(got[1], (-0.1, 0.0, 0.1), atol=1e-6)

    def test_one_info_line_counts_the_dropped_landings(self, cone, caplog, monkeypatch):
        # at level -0.01 eight of the cone's ten landings flow back about 1e-3
        # from the vertex; one more is made to leave the box on its way back
        f, Z = cone
        real = levelmap.integrate_ensemble

        def spy(*args, **kwargs):
            flows = real(*args, **kwargs)
            if args[3] == "ascend":
                termination = flows.termination.copy()
                termination[0] = "left_box"
                flows = dataclasses.replace(flows, termination=termination)
            return flows

        monkeypatch.setattr(levelmap, "integrate_ensemble", spy)
        with caplog.at_level("INFO", logger="morseflow.levelmap"):
            slc = unstable_slice(f, Z, origin_cp(dim=3), -0.01, seed=0)
        line, = [r for r in caplog.records if r.name == "morseflow.levelmap"]
        assert line.levelname == "INFO"
        kept = len(slc)
        assert line.getMessage() == (f"slice at level -0.01: {kept} of 10 landings kept, dropped "
                                     f"{{'left_box': 1, 'too_far': {9 - kept}}}; farthest back-flow end 0.000995 "
                                     "from the point")

    def test_a_slice_with_no_landing_left_logs_its_line_and_raises(self, cone, caplog, monkeypatch):
        # a capture and a validation radius of 1e-300: no back-flow ends close enough
        f, Z = cone
        monkeypatch.setattr(levelmap, "SLICE_CLUSTER_TOL", 1e-300)
        with caplog.at_level("INFO", logger="morseflow.levelmap"), \
                pytest.raises(levelmap.EmptySlice, match="no slice landing survived back-flow validation"):
            unstable_slice(f, Z, origin_cp(dim=3), -0.01, seed=0)
        line, = [r.getMessage() for r in caplog.records if r.name == "morseflow.levelmap"]
        assert line.startswith("slice at level -0.01: 0 of ")

    @pytest.mark.parametrize("k", range(-6, 7))
    def test_nudged_cone_slice_still_validates_both_rays(self, cone, k, monkeypatch):
        # a back-flow runs into the vertex, where f jumps along the step; a
        # capture stop ends it there whatever the last bits of its start
        f, Z = cone
        real = levelmap._dedupe
        monkeypatch.setattr(levelmap, "_dedupe", lambda pts, tol: [r * (1.0 + k * 1e-12) for r in real(pts, tol)])
        got = unstable_slice(f, Z, origin_cp(dim=3), -0.1, seed=0)
        assert len(got) == 2
        assert np.allclose(got, [(-0.1, 0.0, -0.1), (-0.1, 0.0, 0.1)], atol=1e-6)

    def test_minimum_refused(self, quartic):
        f, Z = quartic
        cp = CriticalPoint(location=(0.0,), value=0.0, grad_norm=0.0, kind="minimum", cluster_radius=0.0)
        with pytest.raises(levelmap.EmptySlice, match="^no ring probe at radius 0.001 lies 5e-07 below"):
            unstable_slice(f, Z, cp, -0.01, seed=0)

    def test_level_must_be_below_value(self, saddle):
        f, Z = saddle
        with pytest.raises(ValueError, match="wrong side"):
            unstable_slice(f, Z, origin_cp(), 0.5, seed=0)

    def test_level_above_every_start_is_refused_by_the_ensemble(self, saddle):
        # every start lies at least CURVATURE_MARGIN * radius**2 = 5e-7 below
        # the critical value, so a level of -1e-9 is above all of them
        f, Z = saddle
        with pytest.raises(ValueError, match=r"^member 0: target level -1e-09 is on the wrong side .* for descend$"):
            unstable_slice(f, Z, origin_cp(), -1e-9, seed=0)


class TestMatchesTheSingleFlowLoops:
    """The batched slice and level map against tests/single_flow_loops.py."""

    # the reference rides each landing that flows back a touch away from
    # the critical point on toward it, and it rides this many at level -0.01
    RIDES = {("cone", 0): 8, ("cone", 1): 7, ("cone-lift", 0): 7, ("cone-lift", 1): 10}

    @pytest.fixture(scope="class")
    def problems(self, saddle, cone, planes_lift, cone_lift):
        return {"saddle": saddle, "cone": cone, "planes-lift": planes_lift, "cone-lift": cone_lift}

    @pytest.fixture(scope="class")
    def lifted_vertex(self, cone_lift):
        # the vertex as the critical search returns it, a few 1e-9 off the
        # origin: at the exact origin the reference's back-flows, which have
        # no capture stop, end landing_failed
        cp, = find_critical_points(*cone_lift, grid_density=None)
        return cp

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["saddle", "cone", "planes-lift", "cone-lift"])
    def test_slice_points_are_bit_identical(self, problems, lifted_vertex, name, seed, monkeypatch):
        # no ride validates a landing, so the slice without rides keeps the
        # reference's points: one descent and one back-flow ensemble
        f, Z = problems[name]
        cp = lifted_vertex if name == "cone-lift" else origin_cp(dim=Z.ambient_dim)
        calls = []
        real = levelmap.integrate_ensemble

        def spy(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(levelmap, "integrate_ensemble", spy)
        got = unstable_slice(f, Z, cp, -0.01, seed=seed)
        monkeypatch.undo()
        want, polished = single_flow_loops.unstable_slice_points(f, Z, cp, -0.01, seed=seed)
        assert len(calls) == 2
        assert len(got) == 2
        assert repr(got) == repr(want)
        assert len(polished) == self.RIDES.get((name, seed), 0)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["saddle", "cone", "planes-lift"])
    def test_level_pairs_are_bit_identical(self, problems, name, seed):
        # the slice points lie on the unstable set, so flowing them up to the
        # critical level is captured
        f, Z = problems[name]
        slice_points = unstable_slice(f, Z, origin_cp(dim=Z.ambient_dim), -0.01, seed=seed)
        sources = np.vstack([single_flow_loops.level_points(f, Z, -0.01, seed, count=3), slice_points])
        for b in (-0.005, 0.0, -0.02, -0.01):  # up, up into the critical level, down, identity
            got = level_map(f, Z, -0.01, b, sources)
            assert repr(got) == repr(single_flow_loops.level_map(f, Z, -0.01, b, sources))


class TestCondition2:
    def test_saddle_band_passes_clean(self, saddle, monkeypatch):
        f, Z = saddle
        monkeypatch.setattr(levelmap, "COND2_SAMPLES", 60)
        report = check_condition2(f, Z, -1.0, 1.0, seed=0, collect=None)
        assert report.verdict == "pass"
        assert report.witnesses["n_inconclusive"] == 0
        assert report.witnesses["n_violations"] == 0
        assert 0 < report.witnesses["n_samples"] <= report.witnesses["n_requested"] == 60
        assert "reason" not in report.witnesses

    def test_band_missing_the_surface_is_vacuous(self, saddle, monkeypatch):
        # the sampler cannot show that the band misses Z, so no sample is no verdict
        f, Z = saddle
        monkeypatch.setattr(levelmap, "COND2_SAMPLES", 40)
        report = check_condition2(f, Z, 10.0, 11.0, seed=0, collect=None)
        assert report.verdict == "inconclusive"
        assert "no point of Z" in report.witnesses["reason"]
        assert report.witnesses["n_samples"] == 0

    def test_exiting_flows_are_inconclusive_not_fail(self, monkeypatch):
        from morseflow.polynomial import PolynomialSystem, parse_polynomial
        from morseflow.space import SingularSpace

        f = parse_polynomial("x^2 - y^2", ["x", "y"])
        Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-0.9, 0.9), (-0.9, 0.9)))
        monkeypatch.setattr(levelmap, "COND2_SAMPLES", 40)
        report = check_condition2(f, Z, -1.0, 1.0, seed=0, collect=None)
        assert report.verdict == "inconclusive"
        assert report.witnesses["terminations"].get("left_box", 0) > 0

    def test_undecided_flows_are_counted_in_the_reason(self, saddle, monkeypatch):
        # flows cut off by the step cap decide nothing; the reason gives their
        # count and how every flow ended
        f, Z = saddle
        monkeypatch.setattr(levelmap, "COND2_SAMPLES", 20)
        monkeypatch.setattr(flow, "MAX_STEPS", 3)
        report = check_condition2(f, Z, -1.0, 1.0, seed=0, collect=None)
        w = report.witnesses
        assert report.verdict == "inconclusive"
        assert w["n_inconclusive"] == w["terminations"]["step_limit"] > 0
        assert w["reason"] == f"{w['n_inconclusive']} flows ended undecided; terminations {w['terminations']}"

    def test_collect_hook_sees_trajectories(self, saddle, monkeypatch):
        f, Z = saddle
        kept = {}
        monkeypatch.setattr(levelmap, "COND2_SAMPLES", 20)
        check_condition2(f, Z, -1.0, 1.0, seed=0, collect=kept)
        assert list(kept) == ["cond2/descend", "cond2/ascend"]
        assert [t.direction for t in kept.values()] == ["descend", "ascend"]
        assert all(t.n_samples == t.n_accepted + 1 > 1 for t in kept.values())

    def test_ordering_precondition(self, saddle):
        f, Z = saddle
        with pytest.raises(ValueError):
            check_condition2(f, Z, 1.0, -1.0, seed=0, collect=None)

    def test_quartic_band_steps_are_capped_in_length_not_time(self, quartic, monkeypatch):
        # near the degenerate minimum |grad f| = 4|x|^3 is tiny, so steps capped
        # in time rather than in length would number about 100,000
        f, Z = quartic
        ensembles = []
        real = levelmap.integrate_ensemble

        def spy(*args, **kwargs):
            ensembles.append(real(*args, **kwargs))
            return ensembles[-1]

        monkeypatch.setattr(levelmap, "integrate_ensemble", spy)
        report = check_condition2(f, Z, -1.0, 1.0, seed=0, collect=None)
        (flows,) = ensembles
        assert report.verdict == "pass"
        assert report.witnesses["terminations"] == {"converged": 204, "reach_level": 196}
        assert flows.n_accepted.sum() <= 20_000
        assert (flows.n_accepted + flows.n_rejected).max() <= 150

    def test_quartic_band_rejects_few_steps_and_reports_its_step_counts(self, quartic, monkeypatch):
        # a member grows its steps by SAFETY_AFTER_REJECTION once its error
        # test has failed, so the ascents no longer cycle between accepted and
        # rejected steps (1,386 rejections and 117 attempts by SAFETY alone)
        f, Z = quartic
        ensembles = []
        real = levelmap.integrate_ensemble

        def spy(*args, **kwargs):
            ensembles.append(real(*args, **kwargs))
            return ensembles[-1]

        monkeypatch.setattr(levelmap, "integrate_ensemble", spy)
        report = check_condition2(f, Z, -1.0, 1.0, seed=0, collect=None)
        (flows,) = ensembles
        w = report.witnesses
        assert w["n_accepted_steps"] == flows.n_accepted.sum()
        assert w["n_rejected_steps"] == flows.n_rejected.sum() <= 200
        assert (flows.n_accepted + flows.n_rejected).max() <= 80


class TestCondition4:
    def test_saddle_modulus_shrinks(self, saddle, monkeypatch):
        f, Z = saddle
        cp = origin_cp()
        monkeypatch.setattr(levelmap, "N_PER_RADIUS", 12)
        monkeypatch.setattr(levelmap, "RADII", (0.1, 0.03))
        report = check_condition4(f, Z, cp, 0.01, seed=0, collect=None)
        assert report.verdict == "pass"
        rows = report.modulus_table
        assert [r for r, *_ in rows] == [0.1, 0.03]
        assert rows[1][1] <= rows[0][1] * 1.1 + 1e-8
        assert report.witnesses["d_final"] < 0.05
        assert report.witnesses["slice_points"] == [list(p) for p in unstable_slice(f, Z, cp, -0.01, seed=0)]

    def test_payload_schema(self, saddle, monkeypatch):
        f, Z = saddle
        cp = origin_cp()
        monkeypatch.setattr(levelmap, "N_PER_RADIUS", 8)
        monkeypatch.setattr(levelmap, "RADII", (0.05, 0.02))
        payload = check_condition4(f, Z, cp, 0.01, seed=0, collect=None).to_payload()
        assert payload["condition"] == 4
        assert set(payload) == {"condition", "verdict", "witnesses", "modulus_table"}
        for row in payload["modulus_table"]:
            assert len(row) == 4

    def test_a_radius_that_lands_no_probe_is_named(self, saddle, monkeypatch):
        f, Z = saddle
        cp = origin_cp()
        monkeypatch.setattr(levelmap, "N_PER_RADIUS", 8)
        monkeypatch.setattr(levelmap, "RADII", (0.1, 0.03))
        real = levelmap.ball_probes

        def none_at_003(Z, center, radius, rng, count):
            return [] if radius == 0.03 else real(Z, center, radius, rng, count)

        monkeypatch.setattr(levelmap, "ball_probes", none_at_003)
        report = check_condition4(f, Z, cp, 0.01, seed=0, collect=None)
        assert report.verdict == "inconclusive"
        assert [row[2] > 0 for row in report.modulus_table] == [True, False]
        assert report.witnesses["reason"] == "no probe landed at radius [0.03]"

    def test_huge_radius_spanning_other_basins_fails(self, saddle, monkeypatch):
        # a ball this size reaches probes whose landings sit far from the
        # downhill branch, so the tube criterion cannot hold
        f, Z = saddle
        cp = origin_cp()
        monkeypatch.setattr(levelmap, "N_PER_RADIUS", 12)
        monkeypatch.setattr(levelmap, "RADII", (1.9,))
        report = check_condition4(f, Z, cp, 0.01, seed=0, collect=None)
        assert report.verdict == "fail"
        assert report.modulus_table[0][1] > 0.05

    def test_a_slice_with_no_landing_left_is_inconclusive(self, cone, caplog, monkeypatch):
        # a capture and a validation radius of 1e-300: no back-flow ends close
        # enough, so the slice is empty and the reason counts what was dropped
        f, Z = cone
        monkeypatch.setattr(levelmap, "SLICE_CLUSTER_TOL", 1e-300)
        with caplog.at_level("INFO", logger="morseflow.levelmap"):
            report = check_condition4(f, Z, origin_cp(dim=3), 0.01, seed=0, collect=None)
        line, = [r.getMessage() for r in caplog.records if r.name == "morseflow.levelmap"]
        assert line.startswith("slice at level -0.01: 0 of ") and "dropped {" in line
        assert report.verdict == "inconclusive" and report.modulus_table is None
        assert report.witnesses == {"eps": 0.01, "reason": line.replace(
            "slice at level -0.01:", "no slice landing survived back-flow validation at level -0.01:")}

    def test_a_point_with_no_ring_probe_below_it_is_inconclusive(self, quartic):
        # the quartic's origin is a minimum that a wrong kind sends here: no ring probe lies below it
        f, Z = quartic
        cp = CriticalPoint(location=(0.0,), value=0.0, grad_norm=0.0, kind="saddle", cluster_radius=0.0)
        report = check_condition4(f, Z, cp, 0.01, seed=0, collect=None)
        assert report.verdict == "inconclusive"
        assert report.witnesses == {"eps": 0.01, "reason": (
            "no ring probe at radius 0.001 lies 5e-07 below the critical value; "
            "the point is a minimum, or the radius is too small")}

    def test_the_radii_strictly_decrease(self):
        # the modulus table reads d(r) as r shrinks, and the monotone test compares neighbours
        assert all(r2 < r1 for r1, r2 in zip(levelmap.RADII, levelmap.RADII[1:]))

    def test_minimum_refused(self, quartic):
        f, Z = quartic
        cp = CriticalPoint(location=(0.0,), value=0.0, grad_norm=0.0, kind="minimum", cluster_radius=0.0)
        with pytest.raises(ValueError):
            check_condition4(f, Z, cp, 0.01, seed=0, collect=None)


class TestMatchesThePerFlowTallies:
    """Conditions 2 and 4 against the per-flow loops of tests/per_flow_tallies.py, on the same ensembles."""

    @staticmethod
    def problem(name):
        path = Path(__file__).resolve().parent / "problems" / f"{name}.json"
        spec = load_problem(path) if path.exists() else builtin_problem(name)
        return spec, *problem_objects(spec)

    @staticmethod
    def watch(monkeypatch):
        """Each ensemble that levelmap integrates, with its directions and the record flags it was given."""
        calls, real = [], levelmap.integrate_ensemble

        def spy(*args, **kwargs):
            calls.append((real(*args, **kwargs), args[3], kwargs.get("record", False)))
            return calls[-1][0]

        monkeypatch.setattr(levelmap, "integrate_ensemble", spy)
        return calls

    @staticmethod
    def members(flows, directions):
        """Each member as one object: its recorded trajectory, else its end state from the arrays."""
        directions = [directions] * len(flows.termination) if isinstance(directions, str) else directions
        return [flows.recorded.get(i) or SimpleNamespace(
            direction=d, termination=str(flows.termination[i]), n_accepted=int(flows.n_accepted[i]),
            n_rejected=int(flows.n_rejected[i]), endpoint=flows.endpoint[i], final_f=float(flows.final_f[i]))
            for i, d in enumerate(directions)]

    @staticmethod
    def assert_keeps_the_recorded_flows(kept, reference, flows, record):
        # collect keeps exactly the recorded flows, in order, each with every sample, as the loop does
        assert list(kept) == list(reference) and all(kept[k] is reference[k] for k in kept)
        assert list(flows.recorded) == np.flatnonzero(record).tolist()
        assert [id(t) for t in kept.values()] == [id(t) for t in flows.recorded.values()]
        assert kept and all(t.n_samples == t.n_accepted + 1 for t in kept.values())

    @pytest.fixture(scope="class")
    def wells_points(self):
        _, f, Z = self.problem("wells")
        return find_critical_points(f, Z, grid_density=None)

    # a step cap of 40 ends some flows step_limit beside reach_level and converged ones
    @pytest.mark.parametrize("max_steps", [flow.MAX_STEPS, 40])
    @pytest.mark.parametrize("name", ["saddle", "quartic", "cone", "planes-lift", "wells"])
    def test_condition2_witnesses_equal_the_loop(self, name, max_steps, monkeypatch):
        spec, f, Z = self.problem(name)
        a, b = spec.tolerances.get("band", (-1.0, 1.0))
        monkeypatch.setattr(flow, "MAX_STEPS", max_steps)
        calls, kept, reference = self.watch(monkeypatch), {}, {}
        report = check_condition2(f, Z, a, b, seed=0, collect=kept)
        ((flows, directions, record),) = calls
        want = per_flow_tallies.condition2_witnesses(self.members(flows, directions), a, b, Z.level_tol, reference)
        # repr compares the order of the termination histogram too
        assert repr({k: report.witnesses[k] for k in want}) == repr(want)
        self.assert_keeps_the_recorded_flows(kept, reference, flows, record)

    # wells: a maximum that fails, one whose probes are partly captured by its
    # level, and one whose probes partly converge at a lower minimum
    @pytest.mark.parametrize("name, point, eps", [
        ("saddle", (0.0, 0.0), 0.01),
        ("cone", (0.0, 0.0, 0.0), 0.01),
        ("planes-lift", (0.0, 0.0, 0.0), 0.01),
        ("wells", 8, 0.01),
        ("wells", 15, 0.3),
        ("wells", 18, 0.7),
    ])
    def test_condition4_table_equals_the_loop(self, wells_points, name, point, eps, monkeypatch):
        _, f, Z = self.problem(name)
        if isinstance(point, int):
            cp = dataclasses.replace(wells_points[point], kind="maximum")
        else:
            cp = CriticalPoint(location=point, value=0.0, grad_norm=0.0, kind="saddle", cluster_radius=0.0)
        calls, kept, reference = self.watch(monkeypatch), {}, {}
        counts, ball_probes = [], levelmap.ball_probes

        def counted(*args):
            counts.append(len(np.reshape(ball_probes(*args), (-1, Z.ambient_dim))))
            return ball_probes(*args)

        monkeypatch.setattr(levelmap, "ball_probes", counted)
        report = check_condition4(f, Z, cp, eps, seed=0, collect=kept)
        flows, directions, record = calls[0]  # the slice's ring descents, then every radius's probes
        n = len(flows.termination) - sum(counts)
        table, want = per_flow_tallies.condition4_table(
            self.members(flows, directions)[n:], np.cumsum([0] + counts),
            np.asarray(report.witnesses["slice_points"]), report.witnesses["capture_level"], reference)
        assert repr(report.modulus_table) == repr(table)
        assert {k: report.witnesses[k] for k in want} == want
        self.assert_keeps_the_recorded_flows(kept, reference, flows, record)

    def test_one_dict_keeps_the_first_targets_flows(self, wells_points):
        # condition 4 at two wells targets in turn, one dict passed to both: every family
        # is the first target's, bit for bit, though the second recorded flows of its own
        _, f, Z = self.problem("wells")
        first, second = (dataclasses.replace(wells_points[i], kind="maximum") for i in (8, 15))
        alone, other, kept = {}, {}, {}
        check_condition4(f, Z, first, 0.01, seed=0, collect=alone)
        check_condition4(f, Z, second, 0.3, seed=0, collect=other)
        check_condition4(f, Z, first, 0.01, seed=0, collect=kept)
        check_condition4(f, Z, second, 0.3, seed=0, collect=kept)
        families = [f"cond4/r={r:g}" for r in levelmap.RADII]
        assert list(kept) == list(alone) == list(other) == families
        for family in families:
            for column in ("t", "y", "f", "grad_norm", "arc"):
                assert same_bits(getattr(kept[family], column), getattr(alone[family], column))
            assert (kept[family].termination, kept[family].n_accepted, kept[family].n_rejected) == \
                (alone[family].termination, alone[family].n_accepted, alone[family].n_rejected)
            assert not same_bits(other[family].y, alone[family].y)

    @pytest.mark.parametrize("name", ["cone", "wells"])
    def test_no_collect_records_no_flow(self, wells_points, name, monkeypatch):
        spec, f, Z = self.problem(name)
        cp = (dataclasses.replace(wells_points[8], kind="maximum") if name == "wells"
              else CriticalPoint(location=(0.0, 0.0, 0.0), value=0.0, grad_norm=0.0, kind="saddle",
                                 cluster_radius=0.0))
        calls = self.watch(monkeypatch)
        check_condition2(f, Z, *spec.tolerances.get("band", (-1.0, 1.0)), seed=0, collect=None)
        check_condition4(f, Z, cp, 0.01, seed=0, collect=None)
        assert len(calls) == 3
        assert all(flows.recorded == {} and not np.any(record) for flows, _, record in calls)
