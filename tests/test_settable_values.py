import settable_values

# every settable value of the package, by module; a change that adds one adds
# it here in the same diff, and says why.  Each has two values in use in src/,
# or a reason: main.argv is None from the console entry; item 12 of the
# ROADMAP derives retract_tol and level_tol per problem
SETTABLE = {
    "cli.py": ["main.argv"],
    "critical.py": ["ConditionReport.modulus_table"],
    "flow.py": ["integrate_ensemble.record"],
    "lojasiewicz.py": ["__init__.measured_slope"],
    "space.py": ["SingularSpace.retract_tol", "SingularSpace.level_tol", "orthogonal_rows.R"],
}


def test_the_settable_values_are_exactly_the_listed_ones():
    modules = settable_values.count_by_module()
    assert {name: values for name, values in modules.items() if values} == SETTABLE


def test_every_kind_of_default_is_counted():
    source = '''
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Spec:
    name: str
    seed: int = 0
    tags: list = field(default_factory=list)

class Plain:
    width: int = 3

def run(a, b=1, *args, c, d=2, **kw):
    return lambda x, y=0: x
'''
    assert settable_values.settable_values(source) == ["Spec.seed", "Spec.tags", "run.b", "run.d", "<lambda>.y"]
