"""PEP 562 re-exports: a package names its public objects without
importing the subsystems that define them.

A package ``__init__`` declares a literal ``name -> submodule`` table and
binds the pair this returns as its module ``__getattr__``/``__dir__``;
the first access of a name imports its submodule and caches the object
in the package namespace, so a process pays only for what it touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Dict


def lazy_exports(package: str, table: Dict[str, str]):
    """``(__getattr__, __dir__)`` for ``package`` resolving ``table``'s
    names from ``f"{package}.{table[name]}"`` on first use."""

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{table[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *table})

    return __getattr__, __dir__
