"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules declares
them here instead of importing them::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "sequence": ("Sequence", "SequenceDatabase"),
        "tracing": ("span", ("install_tracing", "install")),  # renamed export
    })

Importing the package then loads none of its submodules.  The first
``pkg.SequenceDatabase`` (or ``from pkg import SequenceDatabase``) imports
``pkg.sequence`` and binds the object in the package's namespace, so later
lookups are plain attribute reads.  ``dir(pkg)`` and ``from pkg import *``
see every declared name, loaded or not.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, Union

#: An exported name, or ``(exported name, attribute of the submodule)``.
Export = Union[str, Tuple[str, str]]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[Export]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (dots allowed),
    to the names it provides.
    """
    where: Dict[str, Tuple[str, str]] = {}
    for submodule, names in exports.items():
        for entry in names:
            name, attribute = (entry, entry) if isinstance(entry, str) else entry
            where[name] = (f"{package}.{submodule}", attribute)

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
