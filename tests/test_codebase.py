"""Repository-wide checks on the source tree itself."""
import ast
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
