from pathlib import Path

import pytest

from morseflow.cli import STAGES, builtin_problem, load_problem, problem_objects, run_experiment


@pytest.fixture(scope="session")
def saddle():
    return problem_objects(builtin_problem("saddle"))


@pytest.fixture(scope="session")
def quartic():
    return problem_objects(builtin_problem("quartic"))


@pytest.fixture(scope="session")
def planes():
    return problem_objects(builtin_problem("planes"))


@pytest.fixture(scope="session")
def cone():
    return problem_objects(builtin_problem("cone"))


@pytest.fixture(scope="session")
def planes_lift():
    return problem_objects(load_problem(Path(__file__).resolve().parent / "problems" / "planes-lift.json"))


@pytest.fixture(scope="session")
def cone_lift():
    return problem_objects(load_problem(Path(__file__).resolve().parent / "problems" / "cone-lift.json"))


@pytest.fixture(scope="session")
def cached_report():
    """run_experiment(spec, stages), run once per (spec, stages) for the whole session.

    The reports are shared, so no test that patches a module or spies on a
    call may read them, and none may change one.
    """
    reports = {}

    def report(spec, stages=STAGES):
        key = (repr(spec), tuple(stages))
        if key not in reports:
            reports[key] = run_experiment(spec, stages=stages)
        return reports[key]

    return report
