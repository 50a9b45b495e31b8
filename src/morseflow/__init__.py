"""Gradient flows, critical points and landing checks on polynomial zero sets.

The package exports the names used through it; every other name imports from
its module, e.g. ``from morseflow.levelmap import check_condition2``.
"""

# critical before cli: with cli imported first, cone-lift-critical measured 2 % slower
from .critical import classify, find_critical_points
from .cli import BUILTIN, builtin_problem, emit_report, problem_objects, run_experiment, spec_from_mapping
from .flow import Converged, ReachLevel, integrate
from .levelmap import check_condition4, unstable_slice
from .lojasiewicz import choose_epsilon, estimate_fit

__version__ = "0.1.0"

__all__ = [
    "BUILTIN",
    "Converged",
    "ReachLevel",
    "builtin_problem",
    "check_condition4",
    "choose_epsilon",
    "classify",
    "emit_report",
    "estimate_fit",
    "find_critical_points",
    "integrate",
    "problem_objects",
    "run_experiment",
    "spec_from_mapping",
    "unstable_slice",
    "__version__",
]
