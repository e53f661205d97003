"""Lazy package exports (PEP 562).

A package ``__init__`` lists the names it exports under the module
each one lives in; a name's module is imported on its first access.
Importing a package therefore loads only what its caller touches: a
``repro tune`` process answered from the store never loads the timing
models or NumPy.

::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.soc.board": ("BoardConfig", "get_board"),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``: each name in
    ``exports`` (module → names) resolves from its module on first
    access and is then bound on the package, so later lookups are plain
    attribute reads."""
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
