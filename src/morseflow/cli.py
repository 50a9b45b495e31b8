"""Problem files, benchmark registry, experiment orchestration, report emission.

A problem file is one JSON document that fully determines a run; every
random draw derives from its single seed through named substreams, so two
runs with the same file and seed produce byte-identical reports.

Exit codes: 0 all requested verdicts pass, 1 any fail, 2 any
inconclusive, 3 usage error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .critical import (
    MAX_GRID_SEEDS,
    ConditionReport,
    CriticalPoint,
    check_condition1,
    classify,
    find_critical_points,
)
from .flow import Converged, ReachLevel, integrate, trajectory_csv_text
from .levelmap import check_condition2, check_condition4, unstable_slice
from .lojasiewicz import FitError, choose_epsilon, default_delta, estimate_fit
from .polynomial import ParseError, Polynomial, PolynomialSystem, parse_polynomial
from .space import RetractionError, SingularSpace

log = logging.getLogger(__name__)

STAGES = ("critical", "loja", "cond1", "cond2", "cond4")
STAGE_DEPS = {
    "critical": (),
    "loja": ("critical",),
    "cond1": ("critical",),
    "cond2": ("critical",),
    "cond4": ("critical", "loja"),
}
SAFETY = 0.5
KNOWN_TOLERANCES = {"band", "cond4_eps", "fit_radius", "conv_grad_tol", "grid_density"}


class ValidationError(ValueError):
    """A problem file field failed validation; the message names the field."""


@dataclass(frozen=True)
class ProblemSpec:
    """One fully-specified run: geometry, objective, box, knobs, seed."""

    name: str
    variables: tuple
    objective: str
    constraints: tuple
    box: tuple
    proper_on_box: bool = False
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "variables": list(self.variables),
            "objective": self.objective,
            "constraints": list(self.constraints),
            "box": [[float(lo), float(hi)] for lo, hi in self.box],
            "proper_on_box": bool(self.proper_on_box),
            "tolerances": dict(self.tolerances),
            "seed": int(self.seed),
        }


BUILTIN = {
    "saddle": {
        "name": "saddle",
        "variables": ["x", "y"],
        "objective": "x^2 - y^2",
        "constraints": [],
        "box": [[-2, 2], [-2, 2]],
        "proper_on_box": True,
        "tolerances": {"band": [-1, 1]},
        "seed": 0,
    },
    "quartic": {
        "name": "quartic",
        "variables": ["x"],
        "objective": "x^4",
        "constraints": [],
        "box": [[-1.5, 1.5]],
        "proper_on_box": True,
        "tolerances": {"band": [-1, 1]},
        "seed": 0,
    },
    "planes": {
        "name": "planes",
        "variables": ["x", "y"],
        "objective": "x^2 - y^2",
        "constraints": ["x*y"],
        "box": [[-2, 2], [-2, 2]],
        "proper_on_box": True,
        "tolerances": {"band": [-1, 1]},
        "seed": 0,
    },
    "cone": {
        "name": "cone",
        "variables": ["x", "y", "z"],
        "objective": "x",
        "constraints": ["x^2 + y^2 - z^2"],
        "box": [[-2, 2], [-2, 2], [-2, 2]],
        "proper_on_box": True,
        # the gradient never decays toward the vertex, so no power-law
        # envelope exists and the level offset must be pinned by hand
        "tolerances": {"band": [-0.8, 0.8], "cond4_eps": 0.01},
        "seed": 0,
    },
}


def spec_from_mapping(data) -> ProblemSpec:
    """Validate a parsed problem document into a ProblemSpec."""
    if not isinstance(data, dict):
        raise ValidationError("problem document must be a JSON object")
    for key in ("name", "variables", "objective", "box"):
        if key not in data:
            raise ValidationError(f"missing required field '{key}'")
    unknown = set(data) - {"name", "variables", "objective", "constraints", "box",
                           "proper_on_box", "tolerances", "seed"}
    if unknown:
        raise ValidationError(f"unknown field(s) {sorted(unknown)}")
    if not isinstance(data["name"], str):
        raise ValidationError("field 'name' must be a string")
    proper = data.get("proper_on_box", False)
    if not isinstance(proper, bool):
        raise ValidationError(f"field 'proper_on_box' must be true or false, got {proper!r}")

    variables = data["variables"]
    if (not isinstance(variables, (list, tuple)) or not variables
            or any(not isinstance(v, str) for v in variables)):
        raise ValidationError("field 'variables' must be a non-empty list of names")
    if len(set(variables)) != len(variables):
        raise ValidationError("field 'variables' contains duplicates")

    objective = data["objective"]
    if not isinstance(objective, str):
        raise ValidationError("field 'objective' must be a polynomial string")
    _check_polynomial("objective", objective, variables)

    constraints = data.get("constraints", [])
    if not isinstance(constraints, (list, tuple)):
        raise ValidationError("field 'constraints' must be a list of polynomial strings")
    for i, text in enumerate(constraints):
        if not isinstance(text, str):
            raise ValidationError(f"field 'constraints[{i}]' must be a string")
        _check_polynomial(f"constraints[{i}]", text, variables)

    box = data["box"]
    if not isinstance(box, (list, tuple)) or len(box) != len(variables):
        raise ValidationError("field 'box' must give one [lo, hi] pair per variable")
    for i, pair in enumerate(box):
        if not _is_interval(pair):
            raise ValidationError(f"field 'box[{i}]' must be two finite numbers lo < hi, got {pair!r}")

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValidationError("field 'tolerances' must be an object")
    bad = set(tolerances) - KNOWN_TOLERANCES
    if bad:
        raise ValidationError(f"field 'tolerances' has unknown key(s) {sorted(bad)}")
    _check_tolerances(tolerances, len(variables))

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError("field 'seed' must be an integer")

    return ProblemSpec(
        name=data["name"],
        variables=tuple(variables),
        objective=objective,
        constraints=tuple(constraints),
        box=tuple((float(lo), float(hi)) for lo, hi in box),
        proper_on_box=proper,
        tolerances=dict(tolerances),
        seed=seed,
    )


def _check_polynomial(label: str, text: str, variables) -> None:
    try:
        p = parse_polynomial(text, variables)
    except ParseError as e:
        raise ValidationError(f"field '{label}': {e}") from e
    bad = [t.coefficient for t in p.terms if not math.isfinite(t.coefficient)]
    if bad:
        raise ValidationError(f"field '{label}': coefficient {bad[0]} is not finite")


def _is_number(v) -> bool:
    """A finite JSON number: not a boolean, and an integer only if it fits a float."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _is_interval(v) -> bool:
    """A JSON pair [lo, hi] of finite numbers with lo < hi."""
    return (isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_number(x) for x in v)
            and float(v[0]) < float(v[1]))


def _check_tolerances(tol: dict, n_vars: int) -> None:
    if "band" in tol and not _is_interval(tol["band"]):
        raise ValidationError(f"tolerance 'band' must be two finite numbers lo < hi, got {tol['band']!r}")
    for key in ("cond4_eps", "fit_radius", "conv_grad_tol"):
        if key in tol and not (_is_number(tol[key]) and tol[key] > 0):
            raise ValidationError(f"tolerance '{key}' must be a finite number > 0, got {tol[key]!r}")
    if "grid_density" in tol:
        d = tol["grid_density"]
        if not isinstance(d, int) or isinstance(d, bool) or d < 2:
            raise ValidationError(f"tolerance 'grid_density' must be an integer >= 2, got {d!r}")
        if d ** n_vars > MAX_GRID_SEEDS:
            raise ValidationError(
                f"tolerance 'grid_density' {d} asks for {d}^{n_vars} seeds, "
                f"more than the limit of {MAX_GRID_SEEDS}")


def load_problem(path) -> ProblemSpec:
    """Read and validate a JSON problem file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    return spec_from_mapping(data)


def builtin_problem(name: str) -> ProblemSpec:
    if name not in BUILTIN:
        raise ValidationError(f"unknown benchmark '{name}'; choose from {sorted(BUILTIN)}")
    return spec_from_mapping(BUILTIN[name])


def problem_objects(spec: ProblemSpec):
    """Build the polynomial objective and the constrained space from a spec."""
    f = parse_polynomial(spec.objective, spec.variables)
    system = PolynomialSystem(
        spec.variables, tuple(parse_polynomial(c, spec.variables) for c in spec.constraints)
    )
    Z = SingularSpace(ambient_dim=len(spec.variables), constraints=system, box=spec.box)
    return f, Z


@dataclass
class ExperimentReport:
    """Everything one run measured, in JSON-ready plain containers."""

    problem: dict
    stages: list
    critical_points: list
    lojasiewicz_fits: list
    condition_reports: dict
    corollary_verdict: str
    stage_errors: dict
    trajectory_manifest: list
    trajectories: dict = field(default_factory=dict, compare=False, repr=False)

    def to_payload(self) -> dict:
        return {
            "problem": self.problem,
            "stages": list(self.stages),
            "critical_points": self.critical_points,
            "lojasiewicz_fits": self.lojasiewicz_fits,
            "condition_reports": self.condition_reports,
            "corollary_verdict": self.corollary_verdict,
            "stage_errors": self.stage_errors,
            "trajectory_manifest": self.trajectory_manifest,
        }

    @classmethod
    def from_payload(cls, data: dict) -> "ExperimentReport":
        return cls(
            problem=data["problem"],
            stages=list(data["stages"]),
            critical_points=data["critical_points"],
            lojasiewicz_fits=data["lojasiewicz_fits"],
            condition_reports=data["condition_reports"],
            corollary_verdict=data["corollary_verdict"],
            stage_errors=data["stage_errors"],
            trajectory_manifest=data["trajectory_manifest"],
        )

    def verdicts(self) -> list:
        out = [rep["verdict"] for rep in self.condition_reports.values()]
        if all(f"cond{k}" in self.condition_reports for k in (1, 2, 4)):
            out.append(self.corollary_verdict)
        return out


def load_report(path) -> ExperimentReport:
    with open(path) as fh:
        return ExperimentReport.from_payload(json.load(fh))


class _TrajectoryKeeper:
    """Retains the first trajectory seen for each tag family."""

    def __init__(self):
        self.kept = {}
        self.manifest = []

    def __call__(self, tag: str, traj):
        family = tag.rsplit("/", 1)[0] if tag.count("/") >= 2 else tag
        if any(k.startswith(family) for k in self.kept):
            return
        self.kept[tag] = traj
        self.manifest.append(
            {
                "tag": tag,
                "direction": traj.direction,
                "termination": traj.termination,
                "n_samples": int(traj.n_samples),
            }
        )


def _stage_skip_report(condition: int, reason: str) -> dict:
    return ConditionReport(condition, "inconclusive", {"error": reason}).to_payload()


def run_experiment(spec: ProblemSpec, stages=STAGES) -> ExperimentReport:
    """Run the requested stages against one problem and assemble the report.

    Stage errors are isolated: a failing stage records an inconclusive
    fragment and the remaining stages still run.  The final verdict passes
    only when the three condition checks pass and the problem asserts
    proper_on_box.  An unknown stage, a stage without its dependencies or
    an empty stage list raises :class:`ValidationError`.
    """
    stages = tuple(stages)
    for s in stages:
        if s not in STAGES:
            raise ValidationError(f"unknown stage '{s}'; choose from {','.join(STAGES)}")
        missing = [d for d in STAGE_DEPS[s] if d not in stages]
        if missing:
            raise ValidationError(f"stage '{s}' requires {','.join(missing)}")
    if not stages:
        raise ValidationError("no stages requested")
    ordered = [s for s in STAGES if s in stages]

    f, Z = problem_objects(spec)
    tol = spec.tolerances
    keeper = _TrajectoryKeeper()
    report = ExperimentReport(
        problem=spec.to_payload(),
        stages=ordered,
        critical_points=[],
        lojasiewicz_fits=[],
        condition_reports={},
        corollary_verdict="inconclusive",
        stage_errors={},
        trajectory_manifest=[],
    )

    cps: list[CriticalPoint] = []
    if "critical" in stages:
        try:
            cps = find_critical_points(f, Z, grid_density=tol.get("grid_density"))
            cps = [replace(cp, kind=_classify_isolated(f, Z, cp, i, spec.seed, report.stage_errors))
                   for i, cp in enumerate(cps)]
            report.critical_points = [cp.to_payload() for cp in cps]
        except Exception as e:  # noqa: BLE001 - stage isolation is the contract
            log.exception("critical stage failed")
            report.stage_errors["critical"] = repr(e)
            cps = []

    critical_ok = "critical" in stages and "critical" not in report.stage_errors

    fits: dict[int, object] = {}
    if "loja" in stages:
        if not critical_ok:
            report.stage_errors.setdefault("loja", "dependency 'critical' failed")
        else:
            for i, cp in enumerate(cps):
                radius = float(tol.get("fit_radius", min(default_delta(Z, cp, cps), 0.5)))
                try:
                    fit = estimate_fit(f, Z, cp, radius, seed=spec.seed)
                    fits[i] = fit
                    entry = fit.to_payload()
                    entry["point_index"] = i
                    report.lojasiewicz_fits.append(entry)
                except FitError as e:
                    report.lojasiewicz_fits.append(
                        {
                            "point_index": i,
                            "error": str(e),
                            "measured_slope": e.measured_slope,
                        }
                    )
                except Exception as e:  # noqa: BLE001
                    log.exception("fit failed at point %d", i)
                    report.stage_errors[f"loja[{i}]"] = repr(e)

    if "cond1" in stages:
        if not critical_ok:
            report.condition_reports["cond1"] = _stage_skip_report(1, "dependency 'critical' failed")
        else:
            try:
                report.condition_reports["cond1"] = check_condition1(cps).to_payload()
            except Exception as e:  # noqa: BLE001
                log.exception("condition 1 failed")
                report.condition_reports["cond1"] = _stage_skip_report(1, repr(e))

    if "cond2" in stages:
        band = tuple(tol.get("band", (-1.0, 1.0)))
        try:
            near = [v for v in (cp.value for cp in cps) if min(abs(v - band[0]), abs(v - band[1])) <= 1e-8]
            if near:
                report.condition_reports["cond2"] = _stage_skip_report(
                    2, f"band endpoint touches critical value(s) {near}")
            else:
                report.condition_reports["cond2"] = check_condition2(
                    f, Z, band[0], band[1],
                    n_samples=200,
                    seed=spec.seed,
                    conv_grad_tol=float(tol.get("conv_grad_tol", 1e-4)),
                    collect=keeper,
                ).to_payload()
        except Exception as e:  # noqa: BLE001
            log.exception("condition 2 failed")
            report.condition_reports["cond2"] = _stage_skip_report(2, repr(e))

    if "cond4" in stages:
        if not critical_ok:
            report.condition_reports["cond4"] = _stage_skip_report(4, "dependency 'critical' failed")
        else:
            report.condition_reports["cond4"] = _run_cond4(f, Z, spec, cps, fits, keeper)

    report.trajectory_manifest = keeper.manifest
    report.trajectories = keeper.kept

    conds = report.condition_reports
    if all(f"cond{k}" in conds for k in (1, 2, 4)):
        verdicts = [conds[f"cond{k}"]["verdict"] for k in (1, 2, 4)]
        if "fail" in verdicts:
            report.corollary_verdict = "fail"
        elif "inconclusive" in verdicts or not spec.proper_on_box:
            report.corollary_verdict = "inconclusive"
        else:
            report.corollary_verdict = "pass"
    return report


def _classify_isolated(f, Z, cp, i, seed, stage_errors) -> str:
    """classify, with a failure recorded under classify[i] and the point left unresolved."""
    try:
        return classify(f, Z, cp, seed=seed)
    except Exception as e:  # noqa: BLE001 - one point must not abort the stage
        log.exception("classification failed at point %d", i)
        stage_errors[f"classify[{i}]"] = repr(e)
        return "unresolved"


def _run_cond4(f, Z, spec, cps, fits, keeper) -> dict:
    tol = spec.tolerances
    targets = [(i, cp) for i, cp in enumerate(cps) if cp.kind in ("saddle", "maximum")]
    # a point of unknown kind may be a saddle whose landing check never ran
    unsettled = [i for i, cp in enumerate(cps) if cp.kind in ("unresolved", "degenerate")]
    if not targets and not unsettled:
        return ConditionReport(
            4, "pass", {"warning": "no non-minimal critical points; vacuously satisfied"}).to_payload()
    gap = check_condition1(cps).witnesses["min_gap"]
    per_point = []
    table = None
    for i, cp in targets:
        try:
            eps, eps_note = _pick_eps(fits.get(i), gap, tol)
            slc = unstable_slice(f, Z, cp, cp.value - eps, seed=spec.seed)
            frag = check_condition4(f, Z, cp, eps, slc, seed=spec.seed, collect=keeper)
            entry = frag.to_payload()
            entry["point_index"] = i
            entry["witnesses"]["eps_source"] = eps_note
            entry["witnesses"]["slice_points"] = [list(p) for p in slc.points]
            per_point.append(entry)
            if table is None:
                table = frag.modulus_table
        except Exception as e:  # noqa: BLE001
            log.exception("condition 4 failed at point %d", i)
            per_point.append({**_stage_skip_report(4, repr(e)), "point_index": i})
    order = {"fail": 0, "inconclusive": 1, "pass": 2}
    verdicts = [p["verdict"] for p in per_point] + (["inconclusive"] if unsettled else [])
    witnesses = {"per_point": per_point}
    if unsettled:
        witnesses["error"] = (f"critical point(s) {unsettled} are unresolved or degenerate, "
                              "so condition 4 was not checked there")
    return ConditionReport(4, min(verdicts, key=order.get), witnesses, table).to_payload()


def _pick_eps(fit, gap, tolerances):
    """Level offset for the landing check: the fitted recipe when it exists,
    else the per-problem override."""
    knob = tolerances.get("cond4_eps")
    if fit is not None:
        try:
            return choose_epsilon(fit, SAFETY, nearest_gap=gap), "lojasiewicz fit"
        except ValueError as e:
            if knob is not None:
                return float(knob), f"fit rejected ({e}); problem override"
            raise
    if knob is not None:
        return float(knob), "no fit available; problem override"
    raise RuntimeError("no usable level offset: fit failed and no cond4_eps override given")


def _sanitize(tag: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=-]+", "_", tag)


def emit_report(report: ExperimentReport, format: str = "json", out_dir=".") -> list:
    """Write the report; returns the sorted list of created files.

    json: a single re-loadable document.  csv-bundle: the same document
    plus summary tables and one CSV per retained trajectory (a freshly run
    report carries them; a re-loaded one does not).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    created = []

    payload = json.dumps(report.to_payload(), indent=2, sort_keys=True)
    report_path = out / "report.json"
    report_path.write_text(payload + "\n")
    created.append(str(report_path))

    if format == "json":
        return sorted(created)
    if format != "csv-bundle":
        raise ValueError(f"unknown format '{format}' (expected 'json' or 'csv-bundle')")

    variables = report.problem["variables"]
    tables = [("critical_points.csv",
               [f"loc_{v}" for v in variables] + ["value", "grad_norm", "kind", "cluster_radius"],
               [[repr(float(x)) for x in cp["location"]]
                + [repr(float(cp["value"])), repr(float(cp["grad_norm"])), cp["kind"],
                   repr(float(cp["cluster_radius"]))]
                for cp in report.critical_points])]
    if report.lojasiewicz_fits:
        cols = ["point_index", "theta", "C", "delta", "critical_value",
                "n_samples", "envelope_slack", "holdout_pass_fraction", "error"]
        tables.append(("lojasiewicz_fits.csv", cols,
                       [[str(entry.get(c, "")) for c in cols] for entry in report.lojasiewicz_fits]))
    cond4 = report.condition_reports.get("cond4")
    if cond4 and cond4.get("modulus_table"):
        tables.append(("modulus_table.csv", ["r", "d", "n_landed", "n_captured"],
                       [[repr(r), repr(d), int(n_landed), int(n_captured)]
                        for r, d, n_landed, n_captured in cond4["modulus_table"]]))
    for name, header, rows in tables:
        with open(out / name, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        created.append(str(out / name))

    for tag, traj in sorted(report.trajectories.items()):
        traj_path = out / f"traj_{_sanitize(tag)}.csv"
        traj_path.write_text(trajectory_csv_text(traj))
        created.append(str(traj_path))

    return sorted(created)


class _Parser(argparse.ArgumentParser):
    """argparse uses exit code 2; usage errors here must be 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="morseflow", description="flows, critical points and condition checks on polynomial zero sets")
    parser.add_argument("-v", "--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run experiment stages on a problem file")
    run.add_argument("--problem", required=True, help="path to a JSON problem file")
    run.add_argument("--stages", default=",".join(STAGES),
                     help=f"comma-separated subset of {','.join(STAGES)}")
    run.add_argument("--out", default=None, help="output directory (default: print report)")
    run.add_argument("--format", choices=("json", "csv-bundle"), default="json")
    run.add_argument("--seed", type=int, default=None, help="override the problem seed")

    bench = sub.add_parser("bench", help="run a built-in benchmark")
    bench.add_argument("name", choices=sorted(BUILTIN))
    bench.add_argument("--stages", default=",".join(STAGES))
    bench.add_argument("--out", default=None)
    bench.add_argument("--format", choices=("json", "csv-bundle"), default="json")
    bench.add_argument("--seed", type=int, default=None)

    flow_p = sub.add_parser("flow", help="integrate one flow line and emit its CSV")
    flow_p.add_argument("--problem", required=True)
    flow_p.add_argument("--from", dest="start", required=True,
                        help="comma-separated start coordinates")
    flow_p.add_argument("--direction", choices=("down", "up"), default="down")
    flow_p.add_argument("--stop-level", type=float, default=None)
    flow_p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    return parser


def _cmd_run(spec: ProblemSpec, args) -> int:
    stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    report = run_experiment(spec, stages)
    if args.out is not None:
        files = emit_report(report, format=args.format, out_dir=args.out)
        for path in files:
            print(path)
    else:
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
    verdicts = report.verdicts()
    if "fail" in verdicts:
        return 1
    if "inconclusive" in verdicts:
        return 2
    return 0


def _cmd_flow(args) -> int:
    spec = load_problem(args.problem)
    f, Z = problem_objects(spec)
    try:
        coords = np.array([float(v) for v in args.start.split(",")])
    except ValueError:
        raise ValidationError(f"--from expects comma-separated numbers, got {args.start!r}")
    if coords.size != len(spec.variables):
        raise ValidationError(
            f"--from gave {coords.size} coordinates for {len(spec.variables)} variables")
    try:
        start = Z.retract(coords)
    except RetractionError as e:
        print(f"morseflow: start point cannot be placed on Z: {e}", file=sys.stderr)
        return 4
    direction = "descend" if args.direction == "down" else "ascend"
    stops = [Converged(1e-8)]
    if args.stop_level is not None:
        stops.append(ReachLevel(args.stop_level))
    traj = integrate(f, Z, start, direction=direction, stops=stops)
    text = trajectory_csv_text(traj)
    if args.out is not None:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    log.info("flow terminated by %s after %d samples", traj.termination, traj.n_samples)
    return 0 if traj.termination in ("reach_level", "converged") else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command == "run":
            return _cmd_run(load_problem(args.problem), args)
        if args.command == "bench":
            return _cmd_run(builtin_problem(args.name), args)
        if args.command == "flow":
            return _cmd_flow(args)
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as e:
        print(f"morseflow: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - CLI boundary
        log.exception("run failed")
        print(f"morseflow: error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
