"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from morseflow import levelmap
from morseflow.cli import STAGES, builtin_problem, problem_objects, run_experiment, spec_from_mapping
from morseflow.critical import CriticalPoint, check_condition1, find_critical_points
from morseflow.levelmap import check_condition2, check_condition4, level_map, roundtrip_error, unstable_slice
from morseflow.lojasiewicz import choose_epsilon, estimate_fit, length_bound, verify_flow_estimates
from morseflow.polynomial import Polynomial, PolynomialSystem, gradient, parse_polynomial
from morseflow.space import SingularSpace


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number} PASS: {label}")


def origin_cp(dim=2, kind="saddle"):
    return CriticalPoint(location=(0.0,) * dim, value=0.0, grad_norm=0.0, kind=kind, cluster_radius=0.0)


@pytest.fixture(scope="module")
def bowl():
    f = parse_polynomial("x^2 + y^2", ["x", "y"])
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-1, 1), (-1, 1)))
    return f, Z


@pytest.fixture(scope="module")
def saddle_fit(saddle):
    f, Z = saddle
    return estimate_fit(f, Z, origin_cp(), radius=0.5, seed=0)


@pytest.fixture(scope="module")
def saddle_verify(saddle, saddle_fit):
    f, Z = saddle
    eps = choose_epsilon(saddle_fit, nearest_gap=float("inf"))
    rays = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    starts = []
    for i, d in enumerate(np.linspace(0.005, 0.245, 50)):
        sx, sy = rays[i % 4]
        starts.append((sx * d / np.sqrt(2), sy * d / np.sqrt(2)))
    report = verify_flow_estimates(f, Z, origin_cp(), saddle_fit, eps, starts)
    return eps, report


@pytest.fixture(scope="module")
def saddle_experiment():
    return run_experiment(builtin_problem("saddle"), stages=STAGES)


def test_criterion_1_lojasiewicz_recovery(bowl, quartic):
    f2, Z2 = bowl
    f4, Z4 = quartic
    min2 = origin_cp(kind="minimum")
    min4 = CriticalPoint(location=(0.0,), value=0.0, grad_norm=0.0, kind="minimum", cluster_radius=0.0)
    with criterion(1, "exponent and constant recovered across 20 seeds"):
        for seed in range(20):
            fit = estimate_fit(f2, Z2, min2, radius=0.5, seed=seed)
            assert 0.45 <= fit.theta <= 0.55, f"bowl seed {seed}: theta {fit.theta}"
            assert 1.4 <= fit.constant_C <= 2.6, f"bowl seed {seed}: C {fit.constant_C}"
            fit4 = estimate_fit(f4, Z4, min4, radius=0.5, seed=seed)
            assert 0.20 <= fit4.theta <= 0.30, f"quartic seed {seed}: theta {fit4.theta}"


def test_criterion_2_differential_inequality(saddle_verify):
    _, report = saddle_verify
    with criterion(2, "descent rate dominates the gradient at >=99% of interior samples"):
        frac = report["check_i"]["pass_fraction"]
        assert frac >= 0.99, f"pass fraction {frac}"
        assert report["check_i"]["n_samples"] > 0


def test_criterion_3_arc_length_bound(saddle_verify, saddle_fit):
    eps, report = saddle_verify
    with criterion(3, "arc bound pointwise and total, endpoints confined"):
        ii = report["check_ii"]
        assert ii["n_trajectories"] == 50
        assert ii["n_pass"] == 50, f"pointwise failures: {50 - ii['n_pass']}"
        total = report["total_arc"]
        assert total["bound"] == pytest.approx(length_bound(saddle_fit, eps))
        assert total["all_within"], f"worst total ratio {total['worst_ratio']}"
        iii = report["check_iii"]
        assert iii["n_pass"] == 50
        assert iii["worst_distance"] < saddle_fit.radius_delta


def test_criterion_4_level_map_homeomorphism(saddle):
    f, Z = saddle
    with criterion(4, "level transport is reversible; downhill-branch ascents are captured"):
        xs = np.linspace(-1.2, 1.2, 50)
        sources = [np.array([x, np.sqrt(x * x + 0.01)]) for x in xs]
        err = roundtrip_error(f, Z, -0.01, -0.005, sources)
        assert err < 1e-6, f"roundtrip error {err}"
        axis_sources = [np.array([0.0, 0.1]), np.array([0.0, -0.1])]
        out = level_map(f, Z, -0.01, 0.0, axis_sources)
        assert out.n_captured == 2
        for pair in out.pairs:
            assert pair.captured
            assert np.linalg.norm(np.asarray(pair.image)) < 1e-6


def test_criterion_5_landing_modulus(saddle, cone, monkeypatch):
    with criterion(5, "landing modulus shrinks on saddle and cone; landings match the invariant"):
        f, Z = saddle
        cp = origin_cp()
        ensembles, real = [], levelmap.integrate_ensemble

        def spy(f, Z, X0, *args, **kwargs):
            ensembles.append((np.array(X0), real(f, Z, X0, *args, **kwargs)))
            return ensembles[-1][1]

        monkeypatch.setattr(levelmap, "integrate_ensemble", spy)
        report = check_condition4(f, Z, cp, 0.01, seed=0, collect=None)
        monkeypatch.undo()
        # the first ensemble descends the slice's ring probes, then the probes of every radius;
        # on R^2 no start is retracted, so each flow starts at its row of X0
        starts, flows = ensembles[0]
        n = len(levelmap._slice_starts(f, Z, cp, 0))
        landed = flows.termination[n:] == "reach_level"
        assert report.verdict == "pass"
        assert [row[0] for row in report.modulus_table] == [0.1, 0.03, 0.01, 0.003]
        assert report.witnesses["monotone_within_slack"]
        assert report.witnesses["d_final"] < 0.05
        assert report.witnesses["slice_points"] == [list(p) for p in unstable_slice(f, Z, cp, -0.01, seed=0)]
        assert landed.any()
        for s, e in zip(starts[n:][landed], flows.endpoint[n:][landed]):
            assert abs(s[0] * s[1] - e[0] * e[1]) <= 1e-4, "conserved product drifted"

        fc, Zc = cone
        report_c = check_condition4(fc, Zc, origin_cp(dim=3), 0.01, seed=0, collect=None)
        assert report_c.verdict == "pass"
        assert report_c.witnesses["monotone_within_slack"]
        assert report_c.witnesses["d_final"] < 0.05


def test_criterion_6_flow_compactness(saddle, quartic, planes, cone):
    benchmarks = {"saddle": saddle, "quartic": quartic, "planes": planes, "cone": cone}
    with criterion(6, "every band flow exits or converges on all four benchmarks"):
        for name, (f, Z) in benchmarks.items():
            band = builtin_problem(name).tolerances["band"]
            report = check_condition2(f, Z, band[0], band[1], seed=0, collect=None)
            assert report.verdict == "pass", f"{name}: {report.verdict}"
            assert report.witnesses["n_inconclusive"] == 0, name
            assert report.witnesses["n_samples"] > 0, name


def test_criterion_7_isolated_critical_values(saddle, quartic, planes, cone):
    benchmarks = {"saddle": saddle, "quartic": quartic, "planes": planes, "cone": cone}
    with criterion(7, "each benchmark reports exactly the known critical values"):
        for name, (f, Z) in benchmarks.items():
            cps = find_critical_points(f, Z, grid_density=None)
            report = check_condition1(cps)
            assert report.verdict == "pass", name
            values = report.witnesses["values"]
            assert len(values) == 1, f"{name}: {values}"
            assert abs(values[0]) < 1e-8, f"{name}: {values}"


def test_criterion_8_corollary_pipeline(saddle_experiment):
    with criterion(8, "full pipeline passes; shrunken box degrades to inconclusive"):
        assert saddle_experiment.corollary_verdict == "pass"
        for key in ("cond1", "cond2", "cond4"):
            assert saddle_experiment.condition_reports[key]["verdict"] == "pass"

        shrunk = spec_from_mapping(
            {
                **{k: v for k, v in saddle_experiment.problem.items()},
                "name": "saddle-shrunk",
                "box": [[-0.9, 0.9], [-0.9, 0.9]],
            }
        )
        degraded = run_experiment(shrunk, stages=STAGES)
        assert degraded.corollary_verdict == "inconclusive"
        terms = degraded.condition_reports["cond2"]["witnesses"]["terminations"]
        assert terms.get("left_box", 0) > 0


def test_criterion_9_numerical_hygiene(planes, cone, saddle_experiment):
    with criterion(9, "gradients match finite differences; projection idempotent; reports reproducible"):
        rng = np.random.default_rng(99)
        names = ["x", "y", "z", "w"]
        for _ in range(100):
            n = int(rng.integers(1, 5))
            p = Polynomial.zero(names[:n])
            for _ in range(rng.integers(1, 7)):
                term = Polynomial.constant(names[:n], float(rng.uniform(-3, 3)))
                exps = rng.integers(0, 4, size=n)
                while exps.sum() > 6:
                    exps = rng.integers(0, 4, size=n)
                for nm, e in zip(names, exps):
                    term = term * Polynomial.variable(names[:n], nm) ** int(e)
                p = p + term
            g = gradient(p)
            x = rng.uniform(-1.5, 1.5, size=n)
            exact = g.evaluate(x)
            h = 1e-5
            for i in range(n):
                step = np.zeros(n)
                step[i] = h
                fd = (p.evaluate(x + step) - p.evaluate(x - step)) / (2 * h)
                scale = max(abs(exact[i]), abs(fd), 1.0)
                assert abs(exact[i] - fd) / scale < 1e-6

        for _, Z in (planes, cone):
            for _ in range(25):
                x = Z.retract(rng.uniform(-1.5, 1.5, size=Z.ambient_dim))
                v = rng.normal(size=Z.ambient_dim)
                pv = Z.tangent_project(x, v)
                assert np.linalg.norm(Z.tangent_project(x, pv) - pv) < 1e-12

        fresh = run_experiment(spec_from_mapping(saddle_experiment.problem), stages=STAGES)
        first = json.dumps(saddle_experiment.to_payload(), indent=2, sort_keys=True)
        second = json.dumps(fresh.to_payload(), indent=2, sort_keys=True)
        assert first.encode() == second.encode()
