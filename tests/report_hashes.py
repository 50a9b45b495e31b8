"""Print the sha256 of the sixteen all-stage reports, one ``name-seed sha256`` line each.

The reports are those of the built-in saddle, quartic, planes and cone
(``morseflow bench <name>``) and of the lifted problems
``tests/problems/cone-lift.json``, ``planes-lift.json``, ``cone-graph.json``
and ``saddle-graph.json`` (``morseflow run --problem``), at seeds 0 and 1.
Each runs in a fresh interpreter, and the hash is taken over exactly the
bytes the command prints, so a refactor that must keep every report can
compare this output before and after, and two runs under different
``PYTHONHASHSEED`` values must print the same lines.

Run ``python3 tests/report_hashes.py``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAIN = "import sys; from morseflow.cli import main; sys.exit(main(sys.argv[1:]))"
BUILTINS = ("saddle", "quartic", "planes", "cone")
PROBLEM_FILES = ("cone-lift", "planes-lift", "cone-graph", "saddle-graph")


def commands(seed: int):
    for name in BUILTINS:
        yield name, ["bench", name, "--seed", str(seed)]
    for name in PROBLEM_FILES:
        yield name, ["run", "--problem", str(ROOT / "tests" / "problems" / f"{name}.json"), "--seed", str(seed)]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for seed in (0, 1):
        for name, args in commands(seed):
            out = subprocess.run([sys.executable, "-c", MAIN, *args], env=env, capture_output=True, check=True).stdout
            print(f"{name}-{seed} {hashlib.sha256(out).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
