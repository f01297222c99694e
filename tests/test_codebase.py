"""Repository-wide checks on the source tree itself."""
import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neumann"
SEARCHED = ("src", "tests", "demos", "perfbench")


def _references(node) -> Counter:
    """Names a syntax tree refers to: identifiers, attributes, imports and strings.

    Strings count because the benchmark tracer names the functions it wraps
    in string tables.
    """
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def test_every_top_level_definition_has_a_caller():
    total = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            total += _references(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a reference inside the definition's own body (recursion) does not count
                if total[node.name] - _references(node)[node.name] <= 0:
                    uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert not uncalled, f"definitions with no reference anywhere: {uncalled}"


def test_benchmark_lookups_by_name_resolve():
    # perfbench finds these by name at run time, so a rename would fail only there
    tables = {}
    for node in ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in (
                "SPANS", "COUNTS"):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANS", "COUNTS"}
    lookups = [(module, name) for table in tables.values()
               for module, names in table.items() for name in names]
    lookups += [("cli", "ProcessPoolExecutor"), ("cli", "COMMANDS")]
    missing = [f"neumann.{module}.{name}" for module, name in lookups
               if not hasattr(importlib.import_module(f"neumann.{module}"), name)]
    assert not missing, f"names perfbench looks up are gone: {missing}"
    assert callable(importlib.import_module("neumann.separation")._qtilde_exact.cache_info)
