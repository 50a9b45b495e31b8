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
import os
import pickle
import re
import sys
import threading
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .critical import (
    MAX_GRID_SEEDS,
    ConditionReport,
    CriticalPoint,
    _merged_values,
    check_condition1,
    classify,
    find_critical_points,
)
from .flow import CONVERGED, ReachLevel, integrate, trajectory_csv_text
from .levelmap import check_condition2, check_condition4
from .levelmap import check_condition2 as _imported_check_condition2
from .lojasiewicz import FitError, choose_epsilon, default_delta, estimate_fit
from .polynomial import ParseError, Polynomial, PolynomialSystem, parse_polynomial
from .space import RetractionError, SingularSpace

log = logging.getLogger(__name__)

# the corollary needs these conditions together
COROLLARY = ("cond1", "cond2", "cond4")
WORST_FIRST = ("fail", "inconclusive", "pass")
# condition 4 is checked at these kinds of critical point
COND4_KINDS = ("saddle", "maximum")
KNOWN_TOLERANCES = {"band", "cond4_eps", "grid_density"}


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
    proper_on_box: bool
    tolerances: dict
    seed: int

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
    unknown = set(data) - {fd.name for fd in fields(ProblemSpec)}
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
    # finite bounds can still span more than the largest float, and the grid and box diameter with them
    if not math.isfinite(math.hypot(*(float(hi) - float(lo) for lo, hi in box))):
        raise ValidationError("field 'box' must have a finite diameter, but its spans overflow a float")

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValidationError("field 'tolerances' must be an object")
    bad = set(tolerances) - KNOWN_TOLERANCES
    if bad:
        raise ValidationError(f"field 'tolerances' has unknown key(s) {sorted(bad)}")
    _check_tolerances(tolerances, len(variables))

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"field 'seed' must be a non-negative integer, got {seed!r}")

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
    if "cond4_eps" in tol and not (_is_number(tol["cond4_eps"]) and tol["cond4_eps"] > 0):
        raise ValidationError(f"tolerance 'cond4_eps' must be a finite number > 0, got {tol['cond4_eps']!r}")
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
    corollary_premises: dict
    stage_errors: dict
    trajectory_manifest: list
    # the retained trajectories, which the payload leaves out
    trajectories: dict

    def to_payload(self) -> dict:
        return {fd.name: getattr(self, fd.name) for fd in fields(self) if fd.name != "trajectories"}

    @property
    def corollary_ran(self) -> bool:
        """The corollary has a verdict only when every condition it needs ran."""
        return all(k in self.condition_reports for k in COROLLARY)

    def verdicts(self) -> list:
        out = [rep["verdict"] for rep in self.condition_reports.values()]
        return out + [self.corollary_verdict] if self.corollary_ran else out


@dataclass
class _Run:
    """What the stages of one run share: the problem, the report and the points found."""

    spec: ProblemSpec
    f: Polynomial
    Z: SingularSpace
    report: ExperimentReport
    # the conditions' kept trajectories, by family (``cond4/r=0.1``); the first of each wins
    kept: dict
    cps: list
    fits: dict

    @property
    def band(self) -> tuple:
        return tuple(self.spec.tolerances.get("band", (-1.0, 1.0)))


def _worst(verdicts) -> str:
    return min(verdicts, key=WORST_FIRST.index)


def _skipped(condition: int, reason: str) -> dict:
    return ConditionReport(condition, "inconclusive", {"reason": reason}).to_payload()


def _premise(status: str, reason: str) -> dict:
    return {"status": status, "reason": reason}


def _judged(condition: int, premises: dict, frag: dict | None) -> dict:
    """The one rule that withholds a pass: a verdict short of a fail that rests on a failed premise is
    inconclusive, and witnesses.reason names the first failed premise where the check gave no reason.
    frag is the check's fragment, or None when a failed premise kept the check from running."""
    frag = {**(frag or ConditionReport(condition, "inconclusive", {}).to_payload()), "premises": premises}
    failed = next((k for k, p in premises.items() if p["status"] == "failed"), None)
    if failed is not None and frag["verdict"] != "fail":
        frag["verdict"] = "inconclusive"
        frag["witnesses"].setdefault("reason", f"premise {failed} failed: {premises[failed]['reason']}")
    return frag


def _search_complete(cps) -> dict:
    if not cps:
        return _premise("failed", "the critical search found no point")
    return _premise("unchecked", f"the search found {len(cps)} point(s); nothing checks that it missed none")


def _isolated(errors: dict, key: str, call):
    """call(), or None once its error is recorded in errors[key].

    One stage, or one point of a stage, must not abort the run.
    """
    try:
        return call()
    except Exception as e:  # noqa: BLE001 - stage isolation is the contract
        log.exception("%s failed", key)
        errors[key] = repr(e)
        return None


# Each stage runner reads the stage functions as module globals when it runs,
# so that a tracer or a test can replace them on this module and see their
# calls.  Calls made in a forked child are not seen, so cond2's flows run in
# a child beside the other stages only while check_condition2 is the function
# imported here.  Those flows read no critical point: only cond2's premises
# do, and the parent judges them once the child has been joined.

def _run_critical(run: _Run) -> None:
    f, Z, seed = run.f, run.Z, run.spec.seed
    cps = find_critical_points(f, Z, grid_density=run.spec.tolerances.get("grid_density"))
    cps = [replace(cp, kind=_isolated(run.report.stage_errors, f"classify[{i}]",
                                      lambda: classify(f, Z, cp, seed=seed)) or "unresolved")
           for i, cp in enumerate(cps)]
    run.report.critical_points = [cp.to_payload() for cp in cps]
    run.cps = cps


def _run_loja(run: _Run) -> None:
    for i, cp in enumerate(run.cps):
        entry = _isolated(run.report.stage_errors, f"loja[{i}]", lambda: _fit_entry(run, i, cp))
        if entry is not None:
            run.report.lojasiewicz_fits.append(entry)


def _fit_entry(run: _Run, i: int, cp: CriticalPoint) -> dict:
    """The fit of point i, or the slope that a rejected fit measured."""
    try:
        radius = min(default_delta(run.Z, cp, run.cps), 0.5)
        run.fits[i] = estimate_fit(run.f, run.Z, cp, radius, seed=run.spec.seed)
    except FitError as e:
        return {"point_index": i, "error": str(e), "measured_slope": e.measured_slope}
    return {**run.fits[i].to_payload(), "point_index": i}


def _run_cond1(run: _Run) -> dict:
    return _judged(1, {"search_complete": _search_complete(run.cps)}, check_condition1(run.cps).to_payload())


def _run_cond2(run: _Run) -> dict:
    premises = _cond2_premises(run)
    return _judged(2, premises, None if premises["band_clear"]["status"] == "failed" else _cond2_flows(run))


def _cond2_flows(run: _Run) -> dict:
    """Condition 2's check, unjudged: its flows read the band and no critical point."""
    a, b = run.band
    return check_condition2(run.f, run.Z, a, b, seed=run.spec.seed, collect=run.kept).to_payload()


def _cond2_premises(run: _Run) -> dict:
    a, b = run.band
    near = [v for v in (cp.value for cp in run.cps) if min(abs(v - a), abs(v - b)) <= 1e-8]
    return {"search_complete": _search_complete(run.cps), "band_clear": (
        _premise("failed", f"band endpoint touches critical value(s) {near}") if near
        else _premise("checked", "no critical value found lies within 1e-08 of a band endpoint"))}


def _run_cond4(run: _Run) -> dict:
    cps = run.cps
    targets = [(i, cp) for i, cp in enumerate(cps) if cp.kind in COND4_KINDS]
    # a point of unknown kind may be a saddle whose landing check never ran
    unsettled = [i for i, cp in enumerate(cps) if cp.kind in ("unresolved", "degenerate")]
    premises = {"search_complete": _search_complete(cps), "kinds_settled": (
        _premise("failed", f"point(s) {unsettled} are unresolved or degenerate; condition 4 was not checked there")
        if unsettled else _premise("checked", "every critical point found is a minimum, saddle or maximum"))}
    if not targets and not unsettled:  # after an empty search there is nothing to check
        vacuous = ConditionReport(4, "pass", {"warning": "no non-minimal critical points; vacuously satisfied"})
        return _judged(4, premises, vacuous.to_payload() if cps else None)
    gap = _merged_values([cp.value for cp in cps])[1]
    errors = {}
    per_point = []
    for i, cp in targets:
        key = f"cond4[{i}]"
        entry = _isolated(errors, key, lambda: _cond4_entry(run, i, cp, gap))
        per_point.append({**_skipped(4, errors[key]), "point_index": i} if key in errors else entry)
    table = next((p["modulus_table"] for p in per_point if p["modulus_table"] is not None), None)
    # no target at all is a pass over them, which the unsettled points withhold
    verdict = _worst([p["verdict"] for p in per_point] + ["pass"])
    return _judged(4, premises, ConditionReport(4, verdict, {"per_point": per_point}, table).to_payload())


def _cond4_entry(run: _Run, i: int, cp: CriticalPoint, gap: float) -> dict:
    """The condition 4 fragment of target point i, with its level offset and slice."""
    eps, premise = _pick_eps(run.fits.get(i), gap, run.spec.tolerances)
    entry = None
    if eps is not None:
        entry = check_condition4(run.f, run.Z, cp, eps, seed=run.spec.seed, collect=run.kept).to_payload()
    return {**_judged(4, {"eps_licensed": premise}, entry), "point_index": i}


# stage -> (the stages it needs, its runner); the order is the run order.
# A condition's runner returns its report fragment.
STAGES = {
    "critical": ((), _run_critical),
    "loja": (("critical",), _run_loja),
    "cond1": (("critical",), _run_cond1),
    "cond2": (("critical",), _run_cond2),
    "cond4": (("critical", "loja"), _run_cond4),
}


def _log_stage(name: str, ran: str, seconds, error) -> None:
    if log.isEnabledFor(logging.INFO):  # the line is encoded only when shown
        log.info(json.dumps(dict(stage=name, ran=ran, seconds=seconds and round(seconds, 4), error=error)))


class _RecordList(logging.Handler):
    """Keeps log records picklable, as ``logging.handlers.QueueHandler`` would, without
    importing that module: it imports socket, which took 7 ms in each child."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args = self.format(record), None
        record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


def _may_fork_cond2(stages) -> bool:
    """cond2 can run in a forked child: only on Linux (fork is its default start method), onto a
    second CPU, with no thread to copy holding a lock, and with the imported check_condition2
    (a replaced one sees its call)."""
    return ("cond2" in stages and sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1 and check_condition2 is _imported_check_condition2)


def _fork_cond2(run: _Run):
    """Fork a child that runs cond2's flows and pipes back what it made; returns its pid and the pipe.

    Returns None, and cond2 runs in this process, when no child can be started.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    status = 1
    try:  # the child leaves only through os._exit, never into its caller's code
        os.close(r)
        records, top = _RecordList(), logging.getLogger(__package__)
        top.handlers, top.propagate = [records], False
        t0, errors = time.perf_counter(), {}
        out = _isolated(errors, "cond2", lambda: _cond2_flows(run))
        with os.fdopen(w, "wb") as fh:
            pickle.dump((out, errors.get("cond2"), run.kept, records.records,
                         time.perf_counter() - t0), fh)
        status = 0
    finally:
        os._exit(status)


def _reap(child, sent: bool) -> int:
    """Wait for the forked child, killed first unless it sent its result; returns its exit status."""
    pid, pipe = child
    if not sent:
        import signal  # here only: importing it costs every other run 0.15 MB

        os.kill(pid, signal.SIGKILL)
    pipe.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _join_cond2(run: _Run, data: bytes, status: int, failed: dict) -> dict:
    """The forked cond2's flows judged on their premises; their trajectories and log records join this process's."""
    if status == 0 and data:
        out, error, kept, records, seconds = pickle.loads(data)
    else:
        out, kept, records, seconds = None, {}, [], None
        error = f"condition 2 worker exited with status {status} before sending its result"
    # no stage before cond2 keeps a trajectory, so the child's families (cond2's) come first, then cond4's
    run.kept = {**kept, **run.kept}
    for r in records:
        logging.getLogger(r.name).handle(r)
    _log_stage("cond2", "child", seconds, error)
    if error is None:
        return _judged(2, _cond2_premises(run), out)
    failed["cond2"] = error
    return _skipped(2, error)


def run_experiment(spec: ProblemSpec, stages) -> ExperimentReport:
    """Run the requested stages against one problem and assemble the report.

    Stages run in table order.  A stage that raises, or that needs a stage
    that did, records why: a condition as an inconclusive fragment whose
    witnesses.reason is the error, any other stage under ``stage_errors``;
    the remaining stages still run.  The final verdict passes only when the
    three conditions pass and no premise in corollary_premises failed.  An
    unknown stage, a stage without its dependencies or an empty stage list
    raises :class:`ValidationError`.

    cond2's flows may run in a forked child beside the other stages: on a
    constrained Z it is forked before critical, on R^n after critical and
    only when cond4 has a saddle or a maximum to check (the rule is in the
    stage loop).  A child whose flows the run will not use, after a failed
    critical or when a band end touches a critical value, is killed at
    once.  The parent judges cond2's premises at the join: the report is
    the same bytes, the child's log records follow cond4's, and no child
    outlives the call.  Each stage logs a JSON line, and so does the
    corollary once it has run: its verdict and every premise it rests on
    that is not checked.
    """
    stages = tuple(stages)
    for s in stages:
        if s not in STAGES:
            raise ValidationError(f"unknown stage '{s}'; choose from {','.join(STAGES)}")
        missing = [d for d in STAGES[s][0] if d not in stages]
        if missing:
            raise ValidationError(f"stage '{s}' requires {','.join(missing)}")
    if not stages:
        raise ValidationError("no stages requested")

    f, Z = problem_objects(spec)
    report = ExperimentReport(
        problem=spec.to_payload(),
        stages=[s for s in STAGES if s in stages],
        critical_points=[],
        lojasiewicz_fits=[],
        condition_reports={},
        corollary_verdict="inconclusive",
        corollary_premises={},
        stage_errors={},
        trajectory_manifest=[],
        trajectories={},
    )
    run = _Run(spec, f, Z, report, {}, [], {})
    failed = {}  # stage -> why it did not finish
    child = data = None  # cond2's forked child: its pid and pipe, and what it sent
    try:
        # a constrained Z's critical search outlasts a fork, so cond2's flows start before it
        if len(Z.constraints) and _may_fork_cond2(report.stages):
            child = _fork_cond2(run)
        for name in report.stages:
            deps, runner = STAGES[name]
            broken = [d for d in deps if d in failed]
            if broken:
                failed[name] = f"dependency '{broken[0]}' failed"
            elif name == "cond2" and child is not None:
                report.condition_reports[name] = None  # its slot, filled at the join
                continue
            t0 = time.perf_counter()
            out = None if broken else _isolated(failed, name, lambda: runner(run))
            _log_stage(name, "process", time.perf_counter() - t0, failed.get(name))
            if name.startswith("cond"):
                report.condition_reports[name] = (
                    _skipped(int(name[4:]), failed[name]) if name in failed else out)
            elif name in failed:
                report.stage_errors[name] = failed[name]
            if name != "critical":
                continue
            # cond2 runs its flows only after a critical search whose values no band end touches
            flows = "critical" not in failed and _cond2_premises(run)["band_clear"]["status"] != "failed"
            if child is not None and not flows:
                _reap(child, False)  # stop the flows the run will not use; cond2 runs here without them
                child = None
            # on R^n the fork pays only beside cond4's flows, so it waits for a target to check
            elif (flows and not len(Z.constraints) and "cond4" in report.stages
                    and _may_fork_cond2(report.stages) and any(cp.kind in COND4_KINDS for cp in run.cps)):
                child = _fork_cond2(run)
        if child is not None:
            data = child[1].read()
    finally:
        if child is not None:
            status = _reap(child, data is not None)  # killed when unwinding from an exception
    if child is not None:
        report.condition_reports["cond2"] = _join_cond2(run, data, status, failed)

    report.trajectories = {f"{family}/{t.termination}": t for family, t in run.kept.items()}
    report.trajectory_manifest = [
        {"tag": tag, "direction": t.direction, "termination": t.termination,
         "n_samples": int(t.n_samples)}
        for tag, t in report.trajectories.items()]
    if report.corollary_ran:
        # the corollary rests on its conditions' premises and on f being proper on the box
        frags = [report.condition_reports[k] for k in COROLLARY]
        report.corollary_premises = {k: p for frag in frags for k, p in frag.get("premises", {}).items()}
        report.corollary_premises["proper"] = (_premise("asserted", "the problem asserts proper_on_box")
                                               if spec.proper_on_box else _premise("failed", "proper_on_box is false"))
        report.corollary_verdict = _judged(0, report.corollary_premises, {
            "verdict": _worst([frag["verdict"] for frag in frags]), "witnesses": {}})["verdict"]
        if log.isEnabledFor(logging.INFO):
            log.info(json.dumps({"corollary": report.corollary_verdict, "assumes": {
                k: p["status"] for k, p in report.corollary_premises.items() if p["status"] != "checked"}}))
    return report


def _pick_eps(fit, gap, tolerances):
    """Level offset for the landing check and its eps_licensed premise: the fitted
    recipe when it exists, else the per-problem override, else no offset."""
    knob = tolerances.get("cond4_eps")
    why = "no fit available"
    if fit is not None:
        try:
            return choose_epsilon(fit, nearest_gap=gap), _premise("unchecked", "lojasiewicz fit")
        except ValueError as e:
            why = f"fit rejected ({e})"
    if knob is not None:
        return float(knob), _premise("asserted", f"{why}; problem override")
    return None, _premise("failed", f"no usable level offset: {why} and no cond4_eps override given")


def _sanitize(tag: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=-]+", "_", tag)


def emit_report(report: ExperimentReport, format: str, out_dir) -> list:
    """Write the report; returns the sorted list of created files.

    json: a single document.  csv-bundle: the same document plus summary
    tables and one CSV per trajectory in ``report.trajectories``.
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
                "n_samples", "holdout_pass_fraction", "error"]
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

    stage_opts = _Parser(add_help=False)
    stage_opts.add_argument("--stages", default=",".join(STAGES),
                            help=f"comma-separated subset of {','.join(STAGES)}")
    stage_opts.add_argument("--out", default=None, help="output directory (default: print report)")
    stage_opts.add_argument("--format", choices=("json", "csv-bundle"), default="json")
    stage_opts.add_argument("--seed", type=int, default=None, help="override the problem seed")
    run = sub.add_parser("run", parents=[stage_opts], help="run experiment stages on a problem file")
    run.add_argument("--problem", required=True, help="path to a JSON problem file")
    bench = sub.add_parser("bench", parents=[stage_opts], help="run a built-in benchmark")
    bench.add_argument("name", choices=sorted(BUILTIN))

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
        if args.seed < 0:
            raise ValidationError(f"--seed must be a non-negative integer, got {args.seed}")
        spec = replace(spec, seed=args.seed)
    report = run_experiment(spec, stages)
    if args.out is not None:
        files = emit_report(report, format=args.format, out_dir=args.out)
        for path in files:
            print(path)
    else:
        print(json.dumps(report.to_payload(), indent=2, sort_keys=True))
    # a run without verdicts (critical and loja only) exits 0
    return {"fail": 1, "inconclusive": 2, "pass": 0}[_worst(report.verdicts() + ["pass"])]


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
    if not Z.inside_box(coords):
        raise ValidationError(f"--from {args.start!r} is not a finite point inside the box {list(spec.box)}")
    if args.stop_level is not None and not math.isfinite(args.stop_level):
        raise ValidationError(f"--stop-level must be a finite number, got {args.stop_level}")
    try:
        start = Z.retract(coords)
    except RetractionError as e:
        print(f"morseflow: start point cannot be placed on Z: {e}", file=sys.stderr)
        return 4
    direction = "descend" if args.direction == "down" else "ascend"
    stops = [CONVERGED]
    if args.stop_level is not None:
        f0 = float(f.evaluate(start))
        if (f0 - args.stop_level if direction == "descend" else args.stop_level - f0) < -Z.level_tol:
            raise ValidationError(f"--stop-level {args.stop_level} is {'above' if direction == 'descend' else 'below'} "
                                  f"f = {f0} at the start, so a {direction}ing flow cannot reach it")
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
        if args.command == "flow":
            return _cmd_flow(args)
        spec = load_problem(args.problem) if args.command == "run" else builtin_problem(args.name)
        return _cmd_run(spec, args)
    except ValidationError as e:
        print(f"morseflow: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - CLI boundary
        log.exception("run failed")
        print(f"morseflow: error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    # run as a script this module would be a second copy of itself; exit as for a usage error
    print("morseflow: run `morseflow ...` or `python -m morseflow ...`, not `python -m morseflow.cli`",
          file=sys.stderr)
    sys.exit(3)
