"""Every function, class and method the library defines is reached by name
from the library itself or from the benchmark under ``perfbench/``.  A name
only tests reach belongs in ``tests/`` (see ``tests/oracles.py``), not in the
library.  And every name a library module imports is used in that module, so
a deletion leaves no import behind.

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


def imported_names(tree: ast.AST) -> set[str]:
    """Names the module's imports bind, ``__future__`` features aside."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out |= {alias.asname or alias.name for alias in node.names}
    return out


def test_every_library_import_is_used():
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "__init__.py":
            continue  # re-exporting is what its imports are for
        tree = parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}" for name in sorted(imported_names(tree) - used)]
    assert not unused, f"library imports their module never uses: {unused}"
