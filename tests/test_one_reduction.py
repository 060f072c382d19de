"""Every reduction over invocation records is :func:`repro.core.summarize`.

A mean or share of a record's ``fix_fraction``, ``measured_error``,
``unchecked_error``, ``costs.energy_savings`` or
``pipeline.cpu_kept_up`` computed anywhere
else is a second implementation, free to differ from the first in its
window or its summation order.  The scan flags, under ``src/`` and
``examples/``, every comprehension that collects one of those attributes
and every ``+=`` that accumulates one, outside ``summarize`` itself.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
QUANTITIES = {"fix_fraction", "measured_error", "unchecked_error",
              "energy_savings", "cpu_kept_up"}
#: The one place allowed to reduce them: (file, function).
HOME = ("src/repro/core/runtime.py", "summarize")


def _collected(node):
    """The expression ``node`` gathers over many records, if any."""
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return node.elt
    if isinstance(node, ast.DictComp):
        return node.value
    if isinstance(node, ast.AugAssign):
        return node.value
    return None


def _reductions(tree, skip):
    """(line, attribute) of each collection or accumulation of a record
    quantity in ``tree``, not descending into the function ``skip``."""
    found, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            continue
        collected = _collected(node)
        if collected is not None:
            found += [(node.lineno, part.attr) for part in ast.walk(collected)
                      if isinstance(part, ast.Attribute)
                      and part.attr in QUANTITIES]
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_records_are_reduced_only_by_summarize():
    paths = [*sorted((REPO / "src").rglob("*.py")),
             *sorted((REPO / "examples").glob("*.py"))]
    found = []
    for path in paths:
        name = path.relative_to(REPO).as_posix()
        skip = HOME[1] if name == HOME[0] else None
        tree = ast.parse(path.read_text())
        found += [f"{name}:{line} ({attr})"
                  for line, attr in _reductions(tree, skip)]
    assert not found, (
        f"records reduced outside summarize at {found}: call "
        "repro.core.summarize and read its field"
    )


def test_the_scan_sees_a_second_mean():
    tree = ast.parse(
        "late = records[-6:]\n"
        "mean = np.mean([r.fix_fraction for r in late])\n"
        "kept = all(r.pipeline.cpu_kept_up for r in late)\n"
        "for r in late:\n"
        "    total += r.costs.energy_savings\n"
    )
    assert _reductions(tree, None) == [
        (2, "fix_fraction"), (3, "cpu_kept_up"), (5, "energy_savings")]
    assert _reductions(ast.parse(
        "def summarize(records):\n"
        "    return [r.measured_error for r in records]\n"), "summarize") == []
