"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

Each package names what it re-exports and the submodule each name lives
in.  A name's submodule is imported the first time the name is read, so
importing one module of a package no longer imports the whole package:
a warm ``repro-vp reproduce`` loads no interpreter, trace codec or
worker (``docs/architecture.md``, "Import layering").  Submodules that
nothing imported yet still resolve as attributes (``repro.trace.io``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps each submodule, relative to ``package``, to the names
    the package re-exports from it.  A resolved name is stored in the
    package namespace, so each resolves once.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name in origin:
            value = getattr(importlib.import_module(f"{package}.{origin[name]}"), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__
