"""The package's structure: every module imports the package modules it
uses at module top, and the import graph has no cycle, so that no module's
dependencies are hidden inside a function body; and every module-level
function and class, and every method of such a class but the dunder ones,
is named by the program or the benchmark, so that no test-only code lives
in the package."""

import ast
from collections import Counter
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import dbtagger

PACKAGE = Path(dbtagger.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# Definitions no other code names, each with the reason it stays.
UNNAMED_BY_DESIGN = {
    "cli.main": "the console-script entry point, named in pyproject.toml",
    "corpus.serialize": "the corpus writer that criterion 10's round trip reads back",
}


def _imported_modules(node: ast.AST) -> list[str]:
    """The dbtagger modules an import statement names; none for the
    standard library or third-party packages."""
    if isinstance(node, ast.Import):
        paths = [alias.name.split(".") for alias in node.names]
        return [path[1] for path in paths if path[0] == "dbtagger" and len(path) > 1]
    if not isinstance(node, ast.ImportFrom):
        return []
    full = f"dbtagger.{node.module or ''}".rstrip(".") if node.level else node.module
    path = full.split(".")
    if path[0] != "dbtagger":
        return []
    if len(path) > 1:
        return [path[1]]
    return [alias.name for alias in node.names if alias.name in MODULES]


def _imports(module: str) -> tuple[set[str], list[tuple[str, int]]]:
    """(every dbtagger module ``module`` imports, the function-level
    imports of one as (module, line) pairs)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    edges, nested = set(), []
    for node in ast.walk(tree):
        edges.update(_imported_modules(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                nested.extend((name, inner.lineno) for name in _imported_modules(inner))
    return edges, nested


def test_no_function_imports_a_package_module():
    nested = {m: found for m in MODULES if (found := _imports(m)[1])}
    assert nested == {}


def test_the_package_import_graph_has_no_cycle():
    graph = {m: _imports(m)[0] for m in MODULES}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def _names(node: ast.AST):
    """Every identifier ``node`` names: variables, attributes and imports."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, ast.alias):
            yield inner.name.rpartition(".")[2]


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of every module-level function and class and
    of every non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    yield f"{module}.{node.name}.{method.name}", method


def test_every_package_definition_is_named_by_the_program_or_the_benchmark():
    benchmark = sorted(PERFBENCH.glob("*.py"))
    assert benchmark, f"no benchmark sources under {PERFBENCH}"
    named = Counter()
    definitions = []
    for path in sorted(PACKAGE.glob("*.py")) + benchmark:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named.update(_names(tree))
        if path.parent == PACKAGE:
            definitions += _definitions(path.stem, tree)
    qualified = {name for name, _ in definitions}
    assert set(UNNAMED_BY_DESIGN) <= qualified, "an allowlisted definition no longer exists"
    # a definition that names only itself (recursion) is named nowhere else
    unnamed = {
        name
        for name, node in definitions
        if named[node.name] == list(_names(node)).count(node.name)
    }
    assert unnamed - set(UNNAMED_BY_DESIGN) == set()
