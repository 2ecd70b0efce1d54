"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports its submodules' names with plain
``from ... import`` statements imports every one of those submodules as
soon as anything inside the package is imported.  A serving process
then compiles and keeps modules it never runs (the fleet, the drivers,
the wire clients, every baseline scheme).  :func:`lazy_exports` keeps
the same public names but imports the defining submodule only when a
name is first read, and caches the value in the package namespace.
"""

from __future__ import annotations

import sys
from typing import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for a package's re-exports.

    ``exports`` maps a submodule name, relative to ``package``, to the
    names that submodule provides::

        __getattr__, __dir__ = lazy_exports(__name__, {"group": ("PairingGroup",)})
    """
    origin = {
        name: "%s.%s" % (package, module)
        for module, names in exports.items()
        for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r" % (package, name)) from None
        # __import__ takes the import statement's path, which
        # ``python -X importtime`` reports; importlib.import_module does not.
        __import__(module)
        value = getattr(sys.modules[module], name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
