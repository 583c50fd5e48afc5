"""The package imports only the standard library and numpy, builds random
generators only in its two seed helpers and each eigensolver operator only in
its makers (linalg's, and sync's one for the dense matrix), calls the
unchecked Lanczos solve only from top_k_eig and SDP-BM's shift, types every
CLI flag from harness's kind table, exports what README documents, README's
library example runs as written, and README's CLI examples pass the CLI's
config check.

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
from ksync import cli
from ksync.harness import validate_config

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


# numpy's generator constructors, and the genmodel functions that alone may
# name them, so every stream is a ``substream`` or ``child_seed`` of a seed
RNG_NAMES = {"Generator", "PCG64", "SeedSequence", "default_rng"}
RNG_OWNERS = {("genmodel.py", "substream"), ("genmodel.py", "child_seed")}


def test_generators_built_only_by_the_seed_helpers():
    found = []
    for path in sorted(Path(ksync.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else node.name if isinstance(node, ast.alias) else None)
                if name in RNG_NAMES and (path.name, owner) not in RNG_OWNERS:
                    found.append(f"{path.name}:{node.lineno} in {owner}: {name}")
    assert not found


# the only makers of each operator: they build it valid from a
# MeasurementGraph or a checked H, so no solve re-checks an operator, and
# the solvers of one instance share the one dense H sync._operator builds
OPERATOR_MAKERS = {
    "_EdgeOperator": {("linalg.py", "_EdgeOperator.of_graph"), ("linalg.py", "_EdgeOperator.restrict")},
    "_ScaledOperator": {("linalg.py", "degree_normalized_eig")},
    "build_measurement_matrix": {("sync.py", "_operator")},
}


def _calls_by_function(path):
    """(called name, qualified name of the enclosing def) for each call."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None)
                yield name, scope
            yield from visit(child, inner)
    return visit(ast.parse(path.read_text(), filename=str(path)), "")


def _callers(names):
    """Each of ``names`` with the set of (file, function) pairs that call it."""
    found = {name: set() for name in names}
    for path in sorted(Path(ksync.__file__).parent.glob("*.py")):
        for name, scope in _calls_by_function(path):
            if name in found:
                found[name].add((path.name, scope))
    return found


def test_edge_operators_built_only_in_linalg():
    # elsewhere a graph's operator comes from _EdgeOperator.of_graph and a
    # group's from its restrict, so only linalg knows how entries are stored;
    # a solver that built its own dense H would bypass the shared one
    assert _callers(OPERATOR_MAKERS) == OPERATOR_MAKERS


# the only callers of the unchecked Lanczos solve: every top-k solve goes
# through the public top_k_eig, which the benchmark counts, except SDP-BM's
# shift solve on -H; a solver that bypassed it would move those counts
TOP_K_CALLERS = {"_top_k": {("linalg.py", "top_k_eig"), ("sync.py", "sdp_bm_ksync")}}


def test_lanczos_solves_go_through_top_k_eig():
    assert _callers(TOP_K_CALLERS) == TOP_K_CALLERS


# the kinds a flag must not name itself: each flag takes its config field's
# kind from harness._KINDS, so a setting's kind is declared once; --solver's
# one-name wrapper is a lambda, not one of these
FLAG_KINDS = {"int", "float", "str", "_float_list", "_name_list"}


def test_cli_flags_take_their_kind_from_the_kind_table():
    path = Path(cli.__file__)
    found = [f"cli.py:{node.lineno}: type={kw.value.id}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
             for kw in node.keywords
             if kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id in FLAG_KINDS]
    assert not found


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


def test_readme_cli_examples_pass_the_config_check():
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line.split()[1:] for line in lines if line.startswith("ksync ")]
    seen = set()
    for argv in commands:
        args = cli._build_parser().parse_args(argv)
        assert validate_config(cli._config_from_args(args), args.command) == [], argv
        seen.add(args.command)
    assert seen == set(cli._COMMANDS)
