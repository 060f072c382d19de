"""Nothing lives under ``src/repro`` without a caller.

A module stays only if a *product root* -- the CLI (``repro/__main__.py``,
whose ``report`` renders the paper-fidelity table), the ladder gate
(``benchmarks/ladder/*.py``) or a remaining bench (``benchmarks/*.py``) --
reaches it through real import statements.  ``from repro.pkg import
Name`` is resolved through the package's ``__init__`` -- its import
statements or its literal ``_EXPORTS`` table of lazy re-exports -- to the
module that defines ``Name``, so a re-export keeps nothing alive; tests and
``examples/`` are not roots.

Within those modules, every function, method and class must be named
somewhere other than at its definition: as a name, an attribute or an
import in a reached module, a root script or ``examples/``, or as a
string outside a docstring there.  A re-export publishes a name without
calling it, so a package ``__init__``'s import statements and the
strings of an ``__all__`` or ``_EXPORTS`` table do not count.
Name-based, so a definition that shares its name with a used one passes;
the exemptions are listed in :data:`EXEMPT`.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOT_MODULE = "repro.__main__"
ROOT_SCRIPTS = [
    *sorted((REPO / "benchmarks").glob("*.py")),
    *sorted((REPO / "benchmarks" / "ladder").glob("*.py")),
]

TREES, PACKAGES = {}, set()
for _path in sorted((SRC / "repro").rglob("*.py")):
    _parts = _path.relative_to(SRC).with_suffix("").parts
    if _parts[-1] == "__init__":
        _parts = _parts[:-1]
        PACKAGES.add(".".join(_parts))
    TREES[".".join(_parts)] = ast.parse(_path.read_text())


def _imports(node, module=""):
    """(source module, imported name or None, bound name) under ``node``."""
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield alias.name, None, alias.asname
        elif isinstance(stmt, ast.ImportFrom):
            source = stmt.module or ""
            if stmt.level:
                base = module.split(".")
                if module not in PACKAGES:
                    base.pop()
                base = base[: len(base) - (stmt.level - 1)]
                source = ".".join(base + ([source] if source else []))
            for alias in stmt.names:
                yield source, alias.name, alias.asname or alias.name


def _resolve(source, name, seen):
    """Modules that ``from source import name`` really depends on."""
    if name is not None and f"{source}.{name}" in TREES:
        source, name = f"{source}.{name}", None
    if source not in TREES or (source, name) in seen:
        return
    seen.add((source, name))
    if source not in PACKAGES:
        yield source
        return
    for stmt in TREES[source].body:  # look ``name`` up in the __init__
        if isinstance(stmt, ast.Assign):
            if any(getattr(t, "id", None) == "_EXPORTS" for t in stmt.targets):
                table = ast.literal_eval(stmt.value)  # name -> submodule
                if name in table:
                    yield from _resolve(f"{source}.{table[name]}", name, seen)
            # Runs on import, e.g. ``lazy_exports(__name__, _EXPORTS)``.
            for used in {n.id for n in ast.walk(stmt.value)
                         if isinstance(n, ast.Name)}:
                yield from _resolve(source, used, seen)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for src, imported, bound in _imports(stmt, source):
                if bound == name:
                    yield from _resolve(src, imported, seen)
        elif getattr(stmt, "name", None) == name:  # def / class in __init__
            for src, imported, _ in _imports(stmt, source):
                yield from _resolve(src, imported, seen)
            for used in {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}:
                yield from _resolve(source, used, seen)


def _reachable():
    todo = [("", ast.parse(path.read_text())) for path in ROOT_SCRIPTS]
    todo.append((ROOT_MODULE, TREES[ROOT_MODULE]))
    reached = {ROOT_MODULE}
    while todo:
        module, tree = todo.pop()
        for source, name, _ in _imports(tree, module):
            for target in _resolve(source, name, set()):
                if target not in reached:
                    reached.add(target)
                    todo.append((target, TREES[target]))
    return reached


def test_every_module_has_a_product_caller():
    orphans = sorted(set(TREES) - PACKAGES - _reachable())
    assert not orphans, (
        f"no CLI command, ladder rung or bench imports {orphans}: "
        "wire them into a product root or delete them"
    )


#: The definitions nothing names, and why each kind is still reached.
EXEMPT = {
    "dunder": "the interpreter calls ``__x__`` methods itself",
    "command": "``@_command`` registers a CLI command in the parser's table",
    "stdlib": "the standard library calls these by protocol",
}
#: Protocol methods the standard library calls by name: none today, as
#: nothing under ``src/repro`` subclasses an asyncio protocol, a
#: ``Thread`` or a logging handler.
STDLIB_PROTOCOL: frozenset = frozenset()
#: What calls the library as a user would, so its calls count as uses.
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            yield node.body[0].value


def _reexports(tree, package):
    """The nodes that only re-export a name: the strings of an ``__all__``
    or ``_EXPORTS`` table and, in a package's ``__init__``, its import
    statements.  A name listed there is published, not called."""
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) in ("__all__", "_EXPORTS")
                for t in stmt.targets):
            yield from ast.walk(stmt.value)
        elif package and isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield from stmt.names


def _names(tree, package=False):
    """Every name ``tree`` uses: identifiers, attributes, imported names
    and strings (``getattr``) that are neither docstrings nor
    re-exports."""
    skip = set(map(id, (*_docstrings(tree), *_reexports(tree, package))))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _exemption(node):
    if node.name.startswith("__") and node.name.endswith("__"):
        return "dunder"
    if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_command"
           for d in getattr(node, "decorator_list", ())):
        return "command"
    if node.name in STDLIB_PROTOCOL:
        return "stdlib"
    return None


def test_every_definition_has_a_product_caller():
    reached = _reachable()
    # A package's __init__ runs whenever one of its modules is imported.
    reached |= {p for p in PACKAGES if any(m.startswith(p + ".") for m in reached)}
    trees = [(TREES[m], m in PACKAGES) for m in reached]
    trees += [(ast.parse(path.read_text()), False)
              for path in (*ROOT_SCRIPTS, *EXAMPLES)]
    used = {name for tree, package in trees for name in _names(tree, package)}
    uncalled = sorted(
        f"{module}.{node.name}"
        for module in reached for node in ast.walk(TREES[module])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used and _exemption(node) not in EXEMPT)
    assert not uncalled, (
        f"only tests call {uncalled}: call them from the product or delete "
        "them (a helper a test needs moves into tests/)"
    )


def test_every_repro_import_names_a_module():
    """``_resolve`` skips a source that is not under ``src/repro``, so
    without this check a function-level import of a deleted module
    would go unnoticed until the function ran."""
    files = [(module, tree) for module, tree in TREES.items()]
    files += [(str(path.relative_to(REPO)), ast.parse(path.read_text()))
              for path in (*ROOT_SCRIPTS, *EXAMPLES)]
    missing = sorted(
        f"{where}: {source}"
        for where, tree in files
        for source, _, _ in _imports(tree, where if where in TREES else "")
        if (source == "repro" or source.startswith("repro."))
        and source not in TREES)
    assert not missing, f"imports of modules that do not exist: {missing}"
