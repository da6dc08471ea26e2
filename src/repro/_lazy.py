"""Lazy package exports (PEP 562): a package ``__init__`` names what it
exports and from which submodule, and loads nothing until a name is read.

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "cache": "SimCache HeapIndex",
        "experiments": "experiments",   # the submodule itself
    })

A process then loads only the submodules whose names it reads, so a live
tier that imports ``repro.proxy.server`` does not pay for the simulator's
topologies or the figure code.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, str],
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps each submodule to the whitespace-separated names it
    exports; a name equal to its submodule's exports the submodule
    itself.  A name is imported on first read and then bound in the
    package, so the second read is a plain attribute lookup.  Any other
    name raises :class:`AttributeError`, so ``hasattr`` works.
    """
    where = {
        name: module for module, names in table.items()
        for name in names.split()
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = import_module(f"{package}.{module}")
        if name != module:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__
