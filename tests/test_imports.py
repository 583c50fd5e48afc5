"""The package imports only the standard library and numpy, exports what
README documents, and README's library example runs as written.

A scipy import alone adds 20-33 MB of resident memory to a run, so a new
dependency must be a deliberate choice, not a stray import.
"""

import ast
import pkgutil
import re
import sys
import types
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


README = Path(ksync.__file__).parents[2] / "README.md"


def test_exports_are_the_readme_api():
    readme = README.read_text()
    submodules = {info.name for info in pkgutil.iter_modules(ksync.__path__)}
    documented = set(re.findall(r"\bksync\.(\w+)", readme)) - submodules
    exported = {name for name, value in vars(ksync).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == documented


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == code.count("print(")
