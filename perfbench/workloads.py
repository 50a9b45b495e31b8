"""Benchmark workloads, their expected outputs, and the output check.

A workload is a problem document plus the stages to run.  The seed reaches
the program only as the document's ``seed`` field.  Expectations are the
critical values, kinds and verdicts of the un-lifted built-in problem: a
variable pinned by a linear constraint must change none of them.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

PROBLEMS = Path(__file__).resolve().parent / "problems"
ALL_STAGES = ("critical", "loja", "cond1", "cond2", "cond4")
VALUE_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    source: str  # a BUILTIN name, or a file under problems/
    stages: tuple
    critical: tuple  # expected (value, kind) pairs, sorted by value
    verdicts: dict  # expected verdict per condition report, plus "corollary"

    def document(self, builtin: dict, seed: int) -> dict:
        if self.source.endswith(".json"):
            doc = json.loads((PROBLEMS / self.source).read_text())
        else:
            doc = copy.deepcopy(builtin[self.source])
        doc["seed"] = int(seed)
        return doc


_FULL_PASS = {"cond1": "pass", "cond2": "pass", "cond4": "pass", "corollary": "pass"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quartic-full",
            "Z = R^1, so the space layer does no work: integrator step overhead and "
            "the f/grad evaluations of 400 band flows",
            "quartic", ALL_STAGES, ((0.0, "minimum"),), _FULL_PASS,
        ),
        Workload(
            "cone-full",
            "one constraint: rank-1 retraction and projection, the singular vertex "
            "pass, and a non-vacuous condition 4",
            "cone", ALL_STAGES, ((0.0, "saddle"),), _FULL_PASS,
        ),
        Workload(
            "planes-lift-full",
            "planes lifted into R^3 by z = 0: the SVD and lstsq branches for two "
            "constraints in every layer",
            "planes-lift.json", ALL_STAGES, ((0.0, "saddle"),), _FULL_PASS,
        ),
        Workload(
            "cone-lift-critical",
            "cone lifted into R^4 by w = 0, stages critical,loja,cond1: the critical "
            "search on the SVD path dominates",
            "cone-lift.json", ("critical", "loja", "cond1"), ((0.0, "saddle"),),
            {"cond1": "pass", "corollary": "inconclusive"},
        ),
    )
}


def check_report(w: Workload, payload: dict) -> list:
    """Named failures of one report against the workload's expectations."""
    failures = [f"stage error {k}: {v}" for k, v in sorted(payload["stage_errors"].items())]
    got = [(cp["value"], cp["kind"]) for cp in payload["critical_points"]]
    kinds = [k for _, k in got]
    if len(got) != len(w.critical):
        failures.append(f"critical points {got}, expected {list(w.critical)}")
    else:
        for (v, k), (ev, ek) in zip(got, w.critical):
            if abs(v - ev) > VALUE_TOL or k != ek:
                failures.append(f"critical point ({v!r}, {k}), expected ({ev!r}, {ek})")
    reports = payload["condition_reports"]
    verdicts = {k: reports[k]["verdict"] for k in reports}
    verdicts["corollary"] = payload["corollary_verdict"]
    for key, expected in sorted(w.verdicts.items()):
        if verdicts.get(key) != expected:
            failures.append(f"{key} verdict {verdicts.get(key)}, expected {expected}")
    if "cond4" in reports:
        failures += _check_cond4(w, reports["cond4"], kinds)
    return failures


def _check_cond4(w: Workload, cond4: dict, kinds: list) -> list:
    """Condition 4 must be scored at every expected non-minimal point."""
    expected = [i for i, (_, k) in enumerate(w.critical) if k in ("saddle", "maximum")]
    if not expected:
        return []
    scored = [p["point_index"] for p in cond4["witnesses"].get("per_point", ())]
    if scored == expected:
        return []
    if not scored and cond4["verdict"] == "pass":
        return [
            f"false pass: condition 4 passed vacuously with kinds {kinds} where "
            f"{[w.critical[i][1] for i in expected]} were expected (unresolved "
            "non-minimal point skipped)"
        ]
    return [f"condition 4 scored points {scored}, expected {expected}"]
