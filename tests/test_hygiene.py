"""Source hygiene of the package, read with the stdlib ``ast`` module.

Every name a module imports is used in that module (``__init__`` re-exports
are exempt), and every module-private top-level function is referenced
somewhere in the package, so deleted code cannot leave dead helpers or
stale imports behind.  A `Site` is built only by `correlation.rule_site`, so
every exact observable is a rule's site table reduced over its rows.  No
module imports SciPy.  ``concurrent`` (the thread pool behind
``monte_carlo_corr(threads=...)``) and ``multiprocessing`` (the process
pool behind ``run_report``) are imported only inside functions, so
importing the package runs without loading either.
No module reads the environment, so every run is set by its arguments
alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nbtree"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _referenced(tree: ast.AST) -> set[str]:
    """Names read anywhere in `tree`: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree: ast.AST) -> list[tuple[str, int]]:
    """(bound name, line) of every import statement, __future__ excluded."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _import_time_nodes(tree: ast.Module):
    """Nodes that run when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_package_is_found():
    assert "tree_core.py" in _modules()


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = _referenced(tree)
        unused += [f"{name}:{line} {bound}" for bound, line in _imported(tree)
                   if bound not in used]
    assert unused == []


def test_no_unreferenced_private_functions():
    modules = _modules()
    used = set().union(*map(_referenced, modules.values()))
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used |= {a.name for a in node.names}
    dead = [f"{name}:{node.lineno} {node.name}"
            for name, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]
    assert dead == []


def _imported_modules(node) -> list[str]:
    """Absolute module names an import statement loads (none for others)."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_scipy_is_not_imported_at_module_scope():
    # scipy nowhere, function bodies included; concurrent, which only
    # monte_carlo_corr(threads > 1) needs, and multiprocessing, which only
    # run_report needs, only inside functions
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            found += [f"{name}:{node.lineno} {m}" for m in _imported_modules(node)
                      if m.split(".")[0] == "scipy"]
        for node in _import_time_nodes(tree):
            found += [f"{name}:{node.lineno} {m}" for m in _imported_modules(node)
                      if m.split(".")[0] in ("concurrent", "multiprocessing")]
    assert found == []


def test_no_module_reads_the_environment():
    # os.environ, os.environb, os.getenv and os.getenvb, however reached
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                found.append(f"{name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{name}:{node.lineno} {a.name}" for a in node.names
                          if a.name in readers or a.name == "*"]
    assert found == []


def test_sites_are_built_only_by_rule_site():
    # a nested site, which re-runs rules once per labeling of its support,
    # cannot come back beside the per-rule tables
    builders = []
    for name, tree in _modules().items():
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            builders += [f"{name}:{owner}" for node in ast.walk(top)
                         if isinstance(node, ast.Call)
                         and "Site" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))]
    assert builders == ["correlation.py:rule_site"]
