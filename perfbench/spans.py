"""Outside-in span tracer for morseflow's layers.

The tracer wraps the public functions of each module by replacing the module
and class attributes that name them, so the program itself is unchanged.  A
span is (name, start, end, parent); spans live in flat arrays while the traced
pipeline runs and are written out once at the end.  Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

import morseflow
from morseflow import cli, critical, flow, levelmap, lojasiewicz, polynomial, sampling, space

MODULES = (morseflow, cli, critical, flow, levelmap, lojasiewicz, polynomial, sampling, space)

# span name -> (owner, attribute); every module attribute bound to the same
# function object is replaced, so calls through re-exports are traced too
FUNCTIONS = {
    "cli.run_experiment": (cli, "run_experiment"),
    "cli.problem_objects": (cli, "problem_objects"),
    "cli.emit_report": (cli, "emit_report"),
    "critical.find_critical_points": (critical, "find_critical_points"),
    "critical.classify": (critical, "classify"),
    "critical.check_condition1": (critical, "check_condition1"),
    "lojasiewicz.estimate_fit": (lojasiewicz, "estimate_fit"),
    "lojasiewicz.default_delta": (lojasiewicz, "default_delta"),
    "lojasiewicz.choose_epsilon": (lojasiewicz, "choose_epsilon"),
    "levelmap.check_condition2": (levelmap, "check_condition2"),
    "levelmap.unstable_slice": (levelmap, "unstable_slice"),
    "levelmap.check_condition4": (levelmap, "check_condition4"),
    "flow.integrate": (flow, "integrate"),
    "space.project_to_level_set": (space, "project_to_level_set"),
    "space.retract": (space.SingularSpace, "retract"),
    "space.tangent_project": (space.SingularSpace, "tangent_project"),
    "space.effective_rank": (space.SingularSpace, "effective_rank"),
    "linalg.svd": (np.linalg, "svd"),
    "linalg.lstsq": (np.linalg, "lstsq"),
}
FUNCTIONS.update(
    (f"sampling.{name}", (sampling, name))
    for name in ("substream", "unit_directions", "ring_probes", "ball_probes",
                 "gaussian_cloud", "band_samples")
)
KINDS = ("f", "grad", "g", "Dg", "other")

# the run_experiment-level calls that make up each stage
STAGE_CALLS = {
    "critical": ("critical.find_critical_points", "critical.classify"),
    "loja": ("lojasiewicz.default_delta", "lojasiewicz.estimate_fit"),
    "cond1": ("critical.check_condition1",),
    "cond2": ("levelmap.check_condition2",),
    "cond4": ("lojasiewicz.choose_epsilon", "levelmap.unstable_slice",
              "levelmap.check_condition4"),
}
TERMINATIONS = ("reach_level", "converged", "left_box", "arc_budget", "time_budget",
                "step_underflow", "retraction_failed", "step_limit")
LAYERS = ("cli", "critical", "lojasiewicz", "levelmap", "flow", "space", "polynomial",
          "linalg", "sampling")


class Tracer:
    """Records spans around morseflow's layer boundaries while installed."""

    _integrate_sig = inspect.signature(flow.integrate)

    def __init__(self, f, Z):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._jac_marks: list[int] = []
        self._patches: list[tuple] = []
        self._kind_cache: dict[int, tuple] = {}
        self._reference = {"f": f, "grad": polynomial.gradient(f), "g": Z.constraints}
        self.flows: list[tuple] = []  # (bound integrate arguments, trajectory)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _kind(self, obj) -> int:
        """Span id for an evaluation, by matching the receiver against f, grad f and g."""
        hit = self._kind_cache.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        kind = next((k for k, ref in self._reference.items()
                     if type(ref) is type(obj) and ref == obj), "other")
        nid = self._id(f"polynomial.eval.{kind}")
        self._kind_cache[id(obj)] = (obj, nid)  # the strong reference pins the id
        return nid

    def _wrap(self, fn, span_of, on_return=None, jacobian=False):
        name, parent, start, end, raised = self.name, self.parent, self.start, self.end, self.raised
        stack, jac_marks, perf = self._stack, self._jac_marks, time.perf_counter

        def traced(*args, **kwargs):
            nid = span_of(args)
            if nid is None:
                return fn(*args, **kwargs)
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            raised.append(0)
            stack.append(i)
            if jacobian:
                jac_marks.append(len(stack))
            start.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = perf()
                stack.pop()
                if jacobian:
                    jac_marks.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        targets = [owner] if isinstance(owner, type) or owner is np.linalg else [
            m for m in MODULES if getattr(m, attr, None) is original]
        for target in targets:
            self._patches.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)

    def install(self):
        for span, (owner, attr) in FUNCTIONS.items():
            nid = self._id(span)
            hook = self._keep_flow if span == "flow.integrate" else None
            self._patch(owner, attr, self._wrap(getattr(owner, attr), lambda a, n=nid: n, hook))
        for k in KINDS:
            self._id(f"polynomial.eval.{k}")
        g, dg, other = (self._id(f"polynomial.eval.{k}") for k in ("g", "Dg", "other"))

        def jac_span(args):
            return dg if self._kind(args[0]) == g else other

        def eval_span(args):
            # the system evaluation inside jacobian_at belongs to that Dg call
            if self._jac_marks and self._jac_marks[-1] == len(self._stack):
                return None
            return self._kind(args[0])

        P, S = polynomial.Polynomial, polynomial.PolynomialSystem
        self._patch(P, "evaluate", self._wrap(P.evaluate, lambda a: self._kind(a[0])))
        self._patch(S, "evaluate", self._wrap(S.evaluate, eval_span))
        self._patch(S, "jacobian_at", self._wrap(S.jacobian_at, jac_span, jacobian=True))
        return self

    def remove(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _keep_flow(self, args, kwargs, traj):
        self.flows.append((self._integrate_sig.bind(*args, **kwargs), traj))

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def invariant_violations(flows) -> list:
    """Breaches of what ``integrate`` promises about the trajectory it returns.

    Every sample lies on Z, f is monotone in the flow's direction, and a
    ``reach_level`` landing lies within ``level_tol`` of its ReachLevel target.
    Monotonicity is checked against ``level_tol``, the resolution to which
    the integrator lands levels.
    """
    out = []
    for k, (bound, traj) in enumerate(flows):
        bound.apply_defaults()
        Z, direction = bound.arguments["Z"], bound.arguments["direction"]
        off = [i for i, y in enumerate(traj.y) if not Z.is_member(y)]
        if off:
            out.append(f"flow {k}: {len(off)} sample(s) off Z, first at index {off[0]}")
        steps = np.diff(traj.f) * (1.0 if direction == "descend" else -1.0)
        if steps.size and steps.max() > Z.level_tol:
            out.append(f"flow {k}: f moves against the {direction} direction by {steps.max():.3e}")
        if traj.termination == "reach_level":
            target = next(s.c for s in bound.arguments["stops"] if isinstance(s, flow.ReachLevel))
            miss = abs(traj.final_f - target)
            if miss > Z.level_tol:
                out.append(f"flow {k}: reach_level landing misses level {target} by {miss:.3e}")
    return out


def layer_metrics(tracer: Tracer, violations: list) -> dict:
    """Per-layer counts and times from the recorded spans and trajectories."""
    a = tracer.arrays()
    names, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    ids = {n: i for i, n in enumerate(tracer.names)}
    span_layer = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names], dtype=np.int32)

    def sel(span):
        return names == ids[span]

    def under(span):
        """Spans with an ancestor named ``span``."""
        hit = np.zeros(len(names), dtype=bool)
        cur = parent.copy()
        target = ids[span]
        live = cur >= 0
        while live.any():
            hit[live] |= names[cur[live]] == target
            cur[live] = parent[cur[live]]
            live = cur >= 0
        return hit

    m = {}
    root = names == ids["cli.run_experiment"]
    for k in KINDS:
        s = sel(f"polynomial.eval.{k}")
        m[f"polynomial.eval.{k}.calls"] = int(s.sum())
        m[f"polynomial.eval.{k}.self_s"] = float(self_t[s].sum())
    poly = span_layer[names] == LAYERS.index("polynomial")
    m["polynomial.eval.us_per_call"] = 1e6 * float(self_t[poly].sum()) / max(1, int(poly.sum()))

    retract = sel("space.retract")
    m["space.retract.calls"] = int(retract.sum())
    m["space.retract.self_s"] = float(self_t[retract].sum())
    jac_in_retract = sel("polynomial.eval.Dg") & has_parent
    jac_in_retract[jac_in_retract] = names[parent[jac_in_retract]] == ids["space.retract"]
    m["space.retract.gn_iters"] = int(jac_in_retract.sum())
    m["space.retract.failures"] = int(a["raised"][retract].sum())
    for op in ("tangent_project", "effective_rank", "project_to_level_set"):
        s = sel(f"space.{op}")
        m[f"space.{op}.calls"] = int(s.sum())
        m[f"space.{op}.self_s"] = float(self_t[s].sum())
    plts = sel("space.project_to_level_set")
    m["space.project_to_level_set.failures"] = int(a["raised"][plts].sum())
    for op in ("svd", "lstsq"):
        s = sel(f"linalg.{op}")
        m[f"linalg.{op}.calls"] = int(s.sum())
        m[f"linalg.{op}.self_s"] = float(self_t[s].sum())

    integ = sel("flow.integrate")
    flows = [traj for _, traj in tracer.flows]
    durations_ms = 1e3 * dur[integ]
    m["flow.integrate.calls"] = int(integ.sum())
    m["flow.integrate.self_s"] = float(self_t[integ].sum())
    m["flow.integrate.p50_ms"] = float(np.percentile(durations_ms, 50)) if flows else 0.0
    m["flow.integrate.p90_ms"] = float(np.percentile(durations_ms, 90)) if flows else 0.0
    accepted = sum(t.n_samples - 1 for t in flows)
    rhs = int((sel("polynomial.eval.grad") & under("flow.integrate")).sum())
    m["flow.accepted_steps"] = accepted
    m["flow.rhs_evals"] = rhs
    m["flow.rhs_per_step"] = rhs / accepted if accepted else 0.0
    terms = [t.termination for t in flows]
    for term in TERMINATIONS:
        m[f"flow.term.{term}"] = terms.count(term)
    inconclusive = sum(terms.count(t) for t in flow.INCONCLUSIVE_TERMINATIONS)
    m["flow.inconclusive_ratio"] = inconclusive / len(flows) if flows else 0.0
    m["flow.invariant_violations"] = len(violations)

    fcp = sel("critical.find_critical_points")
    m["critical.find_critical_points.incl_s"] = float(dur[fcp].sum())
    m["critical.find_critical_points.self_s"] = float(self_t[fcp].sum())
    m["critical.classify.incl_s"] = float(dur[sel("critical.classify")].sum())
    m["levelmap.unstable_slice.incl_s"] = float(dur[sel("levelmap.unstable_slice")].sum())
    m["levelmap.check_condition4.incl_s"] = float(dur[sel("levelmap.check_condition4")].sum())
    m["lojasiewicz.estimate_fit.incl_s"] = float(dur[sel("lojasiewicz.estimate_fit")].sum())
    samp = span_layer[names] == LAYERS.index("sampling")
    m["sampling.calls"] = int(samp.sum())
    m["sampling.self_s"] = float(self_t[samp].sum())

    top = np.zeros(len(names), dtype=bool)
    top[has_parent] = root[parent[has_parent]]
    for stage, calls in STAGE_CALLS.items():
        s = np.isin(names, [ids[c] for c in calls]) & top
        m[f"cli.stage.{stage}_s"] = float(dur[s].sum())
    m["cli.emit_report_s"] = float(dur[sel("cli.emit_report")].sum())
    m["cli.problem_objects_s"] = float(dur[sel("cli.problem_objects")].sum())
    for i, layer in enumerate(LAYERS):
        m[f"layer.{layer}.self_s"] = float(self_t[span_layer[names] == i].sum())
    m["trace.spans"] = int(len(names))
    return m


# counts that must repeat exactly between two traced runs of one seed
EXACT = tuple(
    [f"polynomial.eval.{k}.calls" for k in KINDS]
    + ["space.retract.calls", "space.retract.gn_iters", "space.retract.failures",
       "space.tangent_project.calls", "space.effective_rank.calls",
       "space.project_to_level_set.calls", "space.project_to_level_set.failures",
       "linalg.svd.calls", "linalg.lstsq.calls", "flow.integrate.calls",
       "flow.accepted_steps", "flow.rhs_evals", "sampling.calls", "trace.spans"]
    + [f"flow.term.{t}" for t in TERMINATIONS]
    + ["critical.points", "flow.invariant_violations"]
)
