"""Every function, class and method the library defines is reached by name
from the library itself or from the benchmark under ``perfbench/``.  A name
only tests reach belongs in ``tests/`` (see ``tests/oracles.py``), not in the
library.  Every name a library module imports is used in that module, so
a deletion leaves no import behind.  And every parameter with a default is
passed by some library or benchmark call, so no option only ever takes its
default.

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


# ``cli.main``'s ``argv`` is how the tests drive the command line: the
# console entry point calls ``main()`` bare, so no library call passes it.
UNPASSED_BY_DESIGN = {"cli.py:main(argv)"}


def defaulted_parameters(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """(name callers call, parameter, position) for every parameter with a
    default of every function in ``tree``.  A method's callers call its
    class's name for ``__init__``, its own name otherwise; the position is
    the parameter's index among the arguments a call passes by position
    (``self`` or ``cls`` not counted), None for a keyword-only parameter."""
    out = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                bound = cls is not None and not static
                name = cls if bound and child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out.append((name, arg.arg, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(kw.arg in (parameter, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_every_defaulted_library_parameter_is_passed():
    """A parameter with a default that no library or benchmark call passes,
    by position or by keyword, is an option nothing uses: its default is
    the only value it ever takes.  Calls are matched by the called name."""
    calls: dict[str, list[ast.Call]] = {}
    for path in [*sorted(LIBRARY.glob("*.py")), *sorted(BENCHMARK.glob("*.py"))]:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                calls.setdefault(called_name(node), []).append(node)
    unpassed = []
    for path in sorted(LIBRARY.glob("*.py")):
        for name, parameter, position in defaulted_parameters(parse(path)):
            if not any(passes(call, parameter, position) for call in calls.get(name, ())):
                unpassed.append(f"{path.name}:{name}({parameter})")
    unpassed = sorted(set(unpassed) - UNPASSED_BY_DESIGN)
    assert not unpassed, f"defaulted library parameters no call passes: {unpassed}"
