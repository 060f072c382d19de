"""Nothing lives under ``src/repro`` without a caller.

A module stays only if a *product root* -- the CLI (``repro/__main__.py``),
the ladder gate (``benchmarks/ladder/*.py``) or a figure/table bench
(``benchmarks/*.py``; ``_bench_utils.py`` is what every ``bench_*`` imports)
-- reaches it through real import statements.  ``from repro.pkg import
Name`` is resolved through the package's ``__init__`` to the module that
defines ``Name``, so a re-export keeps nothing alive; tests and
``examples/`` are not roots.
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
# Unreachable on purpose -- one line of reason each.
ALLOWED_UNREACHABLE = {
    "repro.eval.golden": "fidelity bands tier-1 reads by design; the "
                         "ROADMAP ledger item grows it into a product table",
}

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
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
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
    unreachable = set(TREES) - PACKAGES - _reachable()
    orphans = sorted(unreachable - set(ALLOWED_UNREACHABLE))
    assert not orphans, (
        f"no CLI command, ladder rung or bench imports {orphans}: "
        "wire them into a product root or delete them"
    )
    stale = sorted(set(ALLOWED_UNREACHABLE) - unreachable)
    assert not stale, f"{stale} are reachable now: drop them from the allowlist"
