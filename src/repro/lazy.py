"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` names the submodule that defines each name it
re-exports, and that submodule is imported only when one of its names
is first read.  So a process imports only what it runs: a daemon shard
worker reaches ``repro.core.fleet`` without paying for the log
simulator, the LALR parser generator, the regex compiler or
``http.server`` that sibling submodules pull in (DESIGN.md §5.14).
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose
    ``exports`` map each submodule (name relative to the package) to
    the names the package re-exports from it.

    A resolved name is stored in the package namespace, so
    ``__getattr__`` runs once per name; an unknown name raises
    :class:`AttributeError`, and a submodule that fails to import
    raises its :class:`ImportError` where the name is read.

    A name the package exports from a submodule of the same name
    (``repro.regexlib.minimize``) stays the export: the import system
    binds a submodule on its package once it has loaded, which would
    otherwise replace the name with the module wherever that submodule
    is imported directly."""
    module = sys.modules[package]
    namespace = vars(module)
    where = {name: sub for sub, names in exports.items() for name in names}
    shadowed = {sub for sub, names in exports.items() if sub in names}
    if shadowed:
        class Package(ModuleType):
            def __setattr__(self, name, value):
                if name in shadowed and isinstance(value, ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        module.__class__ = Package

    def __getattr__(name: str):
        sub = where.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{sub}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(
            namespace.keys() | where.keys() | set(namespace.get("__all__", ())))

    return list(where), __getattr__, __dir__
