"""Every function, class and method the library defines is reached by name
from the library itself or from the benchmark under ``perfbench/``.  A name
only tests reach belongs in ``tests/`` (see ``tests/oracles.py``), not in the
library.

References are names, attribute names and identifier-like string constants
(the benchmark's tracer patches methods by their name as a string).  The
package ``__init__`` is not a referrer: re-exporting a name does not use it.
Dunder methods are called implicitly and are not checked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "predlift"
BENCHMARK = ROOT / "perfbench"


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def defined_names(tree: ast.AST) -> set[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {node.name for node in ast.walk(tree) if isinstance(node, kinds)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def referenced_names(tree: ast.AST) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def test_no_library_name_is_reached_only_by_tests():
    defined: dict[str, str] = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for name in defined_names(parse(path)):
            defined.setdefault(name, path.name)
    referrers = [p for p in LIBRARY.glob("*.py") if p.name != "__init__.py"]
    referrers += sorted(BENCHMARK.glob("*.py"))
    used: set[str] = set()
    for path in referrers:
        used |= referenced_names(parse(path))
    unused = sorted(f"{defined[name]}:{name}" for name in defined.keys() - used)
    assert not unused, f"library names no library or benchmark code reaches: {unused}"
