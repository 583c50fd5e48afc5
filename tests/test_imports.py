"""The package imports only the standard library and numpy.

A scipy import alone adds 20-33 MB of resident memory to a run, so a new
dependency must be a deliberate choice, not a stray import.
"""

import ast
import sys
from pathlib import Path

import ksync

ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_absolute_imports_are_stdlib_or_numpy():
    outside = []
    for path in sorted(Path(ksync.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside
