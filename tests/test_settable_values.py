import settable_values

# a change that adds an option raises this bound in the same diff, and says why
BOUND = 32


def test_settable_values_stay_within_the_bound():
    modules = settable_values.count_by_module()
    total = sum(len(v) for v in modules.values())
    assert total <= BOUND, {name: values for name, values in modules.items() if values}


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
