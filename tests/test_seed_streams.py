"""``streams.py::streams`` is the one place a seed becomes a generator
seed.

Nowhere else in the modules that draw the ledger's data (:data:`SCANNED`)
does an expression name a generator seed by arithmetic on a seed:
``seed ± k`` or ``k * seed`` (an operand whose name says seed, and an
integer literal), ``default_rng(k)``, or ``default_rng(x)`` of a name
that says seed (a bare ``args.seed`` is a seed, not a stream).  A
consumer that draws many items from one named stream may derive their
seeds from it; each such place is listed in :data:`DERIVED` with its
reason, and ``tests/eval/test_fidelity.py`` checks the range it draws
against every other seed's streams.  A function whose ``seed`` parameter
already is a generator seed, read from ``streams`` by its callers, is
listed in :data:`HANDED`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
SCANNED = ("eval", "core", "approx", "predictors/training.py", "__main__.py")

#: (file, function) -> why it derives generator seeds from its stream.
DERIVED = {
    ("approx/memoization.py", "fit"):
        "the manager's checker trains on ``seed + 1``, after its table is "
        "calibrated on ``seed``",
    ("apps/mosaic.py", "perforation_error_survey"):
        "Fig. 3's survey draws one flower image per row, "
        "``seed * 100003 + i``",
    ("eval/fidelity.py", "_sampling"):
        "the sampling experiment draws one flower image per row, "
        "``stream + i``",
}

#: (file, function) -> the stream its callers hand it as ``seed``.
HANDED = {
    ("approx/memoization.py", "__init__"):
        "``calibration_seed``: the memoization experiment's and the "
        "ensemble's calibration streams",
    ("approx/npu_backend.py", "train_npu_backend"):
        "``streams(seed).accelerator`` and the ensemble's member streams",
    ("eval/experiments.py", "gaussian_case_study"):
        "``streams(seed).fig5``",
    ("predictors/training.py", "collect_training_data"):
        "``streams(seed).checker_training``",
}


def _names_a_seed(node) -> bool:
    name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
    return "seed" in name


def _int(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _seed_arithmetic(tree):
    """(function, line) of each seed-to-generator-seed expression."""
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)):
                pair = (node.left, node.right)
                if any(map(_names_a_seed, pair)) and any(map(_int, pair)):
                    yield function.name, node.lineno
            elif (isinstance(node, ast.Call) and node.args
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  == "default_rng"
                  and (_int(node.args[0]) or _names_a_seed(node.args[0]))):
                yield function.name, node.lineno


def test_only_streams_turns_a_seed_into_a_generator_seed():
    found = {}
    for path in sorted(p for entry in SCANNED for p in (
            [PACKAGE / entry] if entry.endswith(".py")
            else (PACKAGE / entry).rglob("*.py"))):
        module = path.relative_to(PACKAGE).as_posix()
        for function, line in _seed_arithmetic(ast.parse(path.read_text())):
            found.setdefault((module, function), []).append(line)
    unexplained = {key: lines for key, lines in found.items()
                   if key not in DERIVED and key not in HANDED}
    assert not unexplained, (
        f"seed arithmetic outside streams(): {unexplained}; name the "
        "stream in streams.py::Streams and read it from streams(seed)")
