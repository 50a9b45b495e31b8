"""README's Library example runs as written, on the names the package exports."""

import re
from pathlib import Path

import morseflow

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs():
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert scope["kind"] == "saddle"
    assert len(scope["slc"]) == 2
    assert scope["report"].verdict == "pass"
    assert scope["report"].witnesses["slice_points"] == [list(p) for p in scope["slc"]]
    assert scope["traj"].termination == "reach_level"


def test_the_package_exports_the_names_used_through_it():
    # the example's names, and the pipeline entry points that perfbench/ calls
    assert sorted(morseflow.__all__) == sorted([
        "builtin_problem", "problem_objects", "find_critical_points", "classify",
        "estimate_fit", "choose_epsilon", "unstable_slice", "check_condition4",
        "integrate", "ReachLevel", "Converged",
        "BUILTIN", "spec_from_mapping", "run_experiment", "emit_report", "__version__",
    ])
    assert all(hasattr(morseflow, name) for name in morseflow.__all__)
