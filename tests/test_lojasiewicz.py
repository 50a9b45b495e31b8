import numpy as np
import pytest

import single_flow_loops
from morseflow import lojasiewicz
from morseflow.critical import CLUSTER_TOL, CriticalPoint
from morseflow.flow import Converged, ReachLevel, integrate
from morseflow.lojasiewicz import (
    FitError,
    LojasiewiczFit,
    choose_epsilon,
    default_delta,
    estimate_fit,
    length_bound,
    verify_flow_estimates,
)
from morseflow.polynomial import PolynomialSystem, parse_polynomial
from morseflow.sampling import substream
from morseflow.space import SingularSpace


def bowl():
    f = parse_polynomial("x^2 + y^2", ["x", "y"])
    Z = SingularSpace(2, PolynomialSystem(["x", "y"], ()), ((-1, 1), (-1, 1)))
    cp = CriticalPoint(location=(0.0, 0.0), value=0.0, grad_norm=0.0, kind="minimum", cluster_radius=0.0)
    return f, Z, cp


def origin_cp(kind="saddle"):
    return CriticalPoint(location=(0.0, 0.0), value=0.0, grad_norm=0.0, kind=kind, cluster_radius=0.0)


def make_fit(theta, C, delta=0.2, value=0.0):
    return LojasiewiczFit(
        theta=theta,
        constant_C=C,
        radius_delta=delta,
        critical_value=value,
        n_samples=400,
        holdout_pass_fraction=1.0,
    )


class TestEstimateFit:
    def test_bowl_recovers_closed_form(self):
        # |grad| = 2*sqrt(f) exactly, so theta = 1/2 and C = 2
        f, Z, cp = bowl()
        fit = estimate_fit(f, Z, cp, radius=0.5, seed=0)
        assert 0.45 <= fit.theta <= 0.55
        assert 1.4 <= fit.constant_C <= 2.6
        assert fit.radius_delta == 0.5
        assert fit.critical_value == 0.0

    def test_quartic_exponent(self, quartic):
        # |f'| = 4|x|^3 = 4|f|^(3/4), so theta = 1/4 and C = 4
        f, Z = quartic
        cp = CriticalPoint(location=(0.0,), value=0.0, grad_norm=0.0, kind="minimum", cluster_radius=0.0)
        fit = estimate_fit(f, Z, cp, radius=0.5, seed=1)
        assert 0.20 <= fit.theta <= 0.30
        assert 3.0 <= fit.constant_C <= 5.0

    def test_saddle_exponent(self, saddle):
        f, Z = saddle
        fit = estimate_fit(f, Z, origin_cp(), radius=0.3, seed=0)
        assert 0.45 <= fit.theta <= 0.60

    def test_envelope_clears_every_sample(self):
        f, Z, cp = bowl()
        fit = estimate_fit(f, Z, cp, radius=0.5, seed=4)
        # the same cloud the fit drew: C * |c - f|^(1-theta) <= |grad f| at each sample,
        # up to the rounding of exp and log
        u, v, _ = lojasiewicz._sample_cloud(f, Z, cp, 0.5, lojasiewicz.FIT_SAMPLES, substream(4, "loja-fit"))
        assert u.size == fit.n_samples
        assert np.all(fit.constant_C * np.exp((1.0 - fit.theta) * u) <= np.exp(v) * (1.0 + 1e-12))
        assert fit.holdout_pass_fraction >= 0.95
        assert fit.n_samples >= 100

    def test_payload_schema(self):
        f, Z, cp = bowl()
        payload = estimate_fit(f, Z, cp, radius=0.5, seed=0).to_payload()
        assert set(payload) == {
            "theta", "C", "delta", "critical_value",
            "n_samples", "holdout_pass_fraction",
        }

    def test_cone_has_no_power_law_envelope(self, cone):
        # the projected gradient is bounded below near the vertex, so the
        # measured slope sits outside the exponent range; refusal, not clamp
        f, Z = cone
        cp = CriticalPoint(location=(0.0, 0.0, 0.0), value=0.0, grad_norm=0.0, kind="saddle", cluster_radius=0.0)
        with pytest.raises(FitError) as err:
            estimate_fit(f, Z, cp, radius=0.5, seed=0)
        assert err.value.measured_slope is not None

    def test_too_few_samples_refused(self, monkeypatch):
        f, Z, cp = bowl()
        monkeypatch.setattr(lojasiewicz, "FIT_SAMPLES", 50)
        with pytest.raises(FitError):
            estimate_fit(f, Z, cp, radius=0.5, seed=0)

    def test_same_seed_reproduces(self):
        f, Z, cp = bowl()
        a = estimate_fit(f, Z, cp, radius=0.5, seed=9)
        b = estimate_fit(f, Z, cp, radius=0.5, seed=9)
        assert a == b


class TestQuantileEdges:
    """The fit's bin edges are np.quantile's default linear rule, bit for bit.

    The samples are logs of value gaps, so equal samples have equal bits
    (log never returns -0.0); the cases keep that, since a sort and
    np.quantile's partition may order a -0.0 and a 0.0 differently.
    """

    QUANTILES = np.linspace(0.0, 1.0, lojasiewicz.N_BINS + 1)

    @staticmethod
    def cases():
        rng = np.random.default_rng(44)
        for n in rng.integers(lojasiewicz.MIN_SAMPLES, lojasiewicz.FIT_SAMPLES + 1, size=40):
            u = rng.normal(-8.0, 4.0, size=n)
            yield u
            yield np.round(u) + 0.0  # ties
            yield np.sort(u)
            yield np.sort(u)[::-1].copy()
            run = u.copy()
            run[rng.integers(n // 2):] = u[0]  # a constant run
            yield run
        yield np.full(lojasiewicz.MIN_SAMPLES, -3.5)
        yield np.arange(lojasiewicz.FIT_SAMPLES, dtype=float)

    def test_the_edges_are_np_quantiles_bits(self):
        n_cases = 0
        for u in self.cases():
            assert lojasiewicz._quantile_edges(u).tobytes() == np.quantile(u, self.QUANTILES).tobytes()
            n_cases += 1
        assert n_cases == 202

    def test_the_sample_is_left_as_it_was(self):
        u = np.array([3.0, -1.0, 2.0, 0.5] * 30)
        kept = u.copy()
        lojasiewicz._quantile_edges(u)
        assert u.tobytes() == kept.tobytes()


class TestChooseEpsilon:
    def test_worked_example(self, monkeypatch):
        monkeypatch.setattr(lojasiewicz, "SAFETY", 1.0)
        eps = choose_epsilon(make_fit(0.5, 2.0, delta=0.2), nearest_gap=float("inf"))
        assert eps == pytest.approx(0.01)
        # the induced arc bound is exactly half the validity radius
        assert length_bound(make_fit(0.5, 2.0), eps) == pytest.approx(0.1)

    def test_zero_safety_degenerates(self, monkeypatch):
        monkeypatch.setattr(lojasiewicz, "SAFETY", 0.0)
        assert choose_epsilon(make_fit(0.5, 2.0), nearest_gap=float("inf")) == 0.0

    def test_linear_case(self):
        fit = make_fit(1.0, 2.0, delta=0.2)
        assert choose_epsilon(fit, nearest_gap=float("inf")) == pytest.approx(lojasiewicz.SAFETY * 2.0 * 0.1)

    def test_gap_guard(self):
        with pytest.raises(ValueError):
            choose_epsilon(make_fit(0.5, 2.0, delta=0.2), nearest_gap=1e-3)

    def test_the_safety_keeps_the_arc_bound_below_half_delta(self):
        fit = make_fit(0.5, 2.0, delta=0.2)
        assert 0.0 < lojasiewicz.SAFETY < 1.0
        assert length_bound(fit, choose_epsilon(fit, nearest_gap=float("inf"))) < fit.radius_delta / 2.0


class TestLengthBound:
    def test_arithmetic(self):
        assert length_bound(make_fit(0.5, 2.0), 0.01) == pytest.approx(0.1)
        assert length_bound(make_fit(0.25, 4.0), 1e-4) == pytest.approx(0.1)

    def test_vanishes_with_eps(self):
        assert length_bound(make_fit(0.5, 2.0), 1e-30) < 1e-14

    def test_monotone_in_eps_and_constant(self):
        fit = make_fit(0.5, 2.0)
        assert length_bound(fit, 0.02) > length_bound(fit, 0.01)
        assert length_bound(make_fit(0.5, 3.0), 0.01) < length_bound(fit, 0.01)

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            length_bound(make_fit(0.5, 2.0), 0.0)


@pytest.fixture(scope="module")
def saddle_report(saddle):
    f, Z = saddle
    cp = origin_cp()
    fit = estimate_fit(f, Z, cp, radius=0.5, seed=0)
    eps = choose_epsilon(fit, nearest_gap=float("inf"))
    dists = np.linspace(0.01, 0.24, 10)
    starts = [(d / np.sqrt(2), d / np.sqrt(2)) for d in dists]
    report = verify_flow_estimates(f, Z, cp, fit, eps, starts)
    return fit, eps, report


class TestVerifyFlowEstimates:
    def test_differential_inequality_holds(self, saddle_report):
        _, _, report = saddle_report
        assert report["check_i"]["pass_fraction"] >= 0.99

    def test_arc_bound_holds_pointwise_and_total(self, saddle_report):
        fit, eps, report = saddle_report
        assert report["check_ii"]["n_pass"] == report["check_ii"]["n_trajectories"] == 10
        assert report["total_arc"]["all_within"]
        assert report["total_arc"]["bound"] == pytest.approx(length_bound(fit, eps))

    def test_endpoints_confined(self, saddle_report):
        fit, _, report = saddle_report
        assert report["check_iii"]["worst_distance"] < fit.radius_delta
        assert report["check_iii"]["n_pass"] == 10

    def test_descent_makes_height_proxy_grow(self, saddle):
        # (c - f)^theta along a descending flow never shrinks
        f, Z = saddle
        fit = estimate_fit(f, Z, origin_cp(), radius=0.5, seed=0)
        traj = integrate(f, Z, [0.02, 0.02], "descend", [ReachLevel(-0.01), Converged(1e-8)])
        w = (0.0 - traj.f) ** fit.theta
        assert np.all(np.diff(w[traj.f < -1e-14]) > -1e-12)

    def test_minimum_refused(self):
        f, Z, cp = bowl()
        fit = estimate_fit(f, Z, cp, radius=0.5, seed=0)
        with pytest.raises(ValueError):
            verify_flow_estimates(f, Z, cp, fit, 0.01, [(0.1, 0.1)])

    def test_start_off_level_refused(self, saddle):
        f, Z = saddle
        fit = make_fit(0.5, 2.0, delta=0.5)
        with pytest.raises(ValueError):
            verify_flow_estimates(f, Z, origin_cp(), fit, 0.01, [(0.1, 0.0)])

    def test_no_checked_trajectory_is_not_all_within(self, saddle):
        # an empty block descends nothing, so the arc bound is unchecked
        f, Z = saddle
        fit = make_fit(0.5, 2.0, delta=0.5)
        report = verify_flow_estimates(f, Z, origin_cp(), fit, 0.01, np.zeros((0, 2)))
        assert report["check_ii"]["n_trajectories"] == 0
        assert report["total_arc"]["all_within"] is False

    def test_start_at_critical_point_refused(self, saddle):
        f, Z = saddle
        fit = make_fit(0.5, 2.0, delta=0.5)
        with pytest.raises(ValueError):
            verify_flow_estimates(f, Z, origin_cp(), fit, 0.01, [(0.0, 0.0)])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name, level, eps", [
    ("saddle", 0.0, 0.005),
    ("cone", 0.0, 0.005),
    # planes-lift meets its critical level only at the origin, so its starts
    # lie on the level 0.01 above it
    ("planes-lift", 0.01, 0.005),
])
def test_batched_descents_match_the_single_flow_loop(name, level, eps, seed, saddle, cone, planes_lift):
    f, Z = {"saddle": saddle, "cone": cone, "planes-lift": planes_lift}[name]
    cp = CriticalPoint(location=(0.0,) * Z.ambient_dim, value=level, grad_norm=0.0, kind="saddle", cluster_radius=0.0)
    fit = make_fit(0.5, 1.0, delta=0.3, value=level)
    starts = single_flow_loops.level_points(f, Z, level, seed)
    starts = starts[np.linalg.norm(starts, axis=1) > CLUSTER_TOL]
    assert len(starts) >= 2
    got = verify_flow_estimates(f, Z, cp, fit, eps, starts)
    assert got["check_ii"]["n_trajectories"] > 0
    assert repr(got) == repr(single_flow_loops.verify_flow_estimates(f, Z, cp, fit, eps, starts))


class TestDefaultDelta:
    def test_wall_distance(self, saddle):
        _, Z = saddle
        assert default_delta(Z, origin_cp(), ()) == 2.0

    def test_capped_by_neighbour_spacing(self, saddle):
        _, Z = saddle
        other = CriticalPoint(location=(0.5, 0.0), value=0.25, grad_norm=0.0, kind="unresolved", cluster_radius=0.0)
        assert default_delta(Z, origin_cp(), [other]) == 0.25

    def test_self_in_others_ignored(self, saddle):
        _, Z = saddle
        cp = origin_cp()
        assert default_delta(Z, cp, [cp]) == 2.0

    def test_a_point_on_a_box_face_names_the_cause(self):
        Z = SingularSpace(2, PolynomialSystem(("x", "y"), [parse_polynomial("x^2", ("x", "y"))]),
                          [(-1, 1), (-1, 1)])
        cp = CriticalPoint(location=(0.0, -1.0), value=-1.0, grad_norm=0.0, kind="unresolved", cluster_radius=0.0)
        with pytest.raises(FitError, match=r"delta = 0: the point \(0\.0, -1\.0\) lies on a box face"):
            default_delta(Z, cp, ())
