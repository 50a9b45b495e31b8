"""Count the settable values of the package: every parameter default and every dataclass field default.

A settable value is a knob a caller may turn without editing the source.
The count is taken from the syntax tree of each module under
``src/morseflow/``: each default of a function or lambda parameter
(positional or keyword-only), and each field of a ``@dataclass`` class that
is given a value (``x: int = 0`` or ``x: list = field(...)``).

Run ``python3 tests/settable_values.py`` to print the values per module and
the total.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "morseflow"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


def settable_values(source: str) -> list[str]:
    """The settable values of one module, as ``owner.name`` in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
            a = node.args
            positional = a.posonlyargs + a.args
            found += [f"{owner}.{arg.arg}" for arg in positional[len(positional) - len(a.defaults):]]
            found += [f"{owner}.{arg.arg}" for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [f"{node.name}.{st.target.id}" for st in node.body
                      if isinstance(st, ast.AnnAssign) and st.value is not None]
    return found


def count_by_module(src: Path = SRC) -> dict[str, list[str]]:
    return {p.name: settable_values(p.read_text()) for p in sorted(src.glob("*.py"))}


if __name__ == "__main__":
    modules = count_by_module()
    for name, values in modules.items():
        print(f"{len(values):4d} {name}: {', '.join(values)}")
    print(f"{sum(len(v) for v in modules.values()):4d} settable values in total")
