from pathlib import Path

import pytest

from morseflow.cli import builtin_problem, load_problem, problem_objects


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
