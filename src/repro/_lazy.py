"""PEP 562 lazy exports: a package imports each public name on first use.

A package ``__init__`` passes its ``__name__`` and a ``{public name:
defining module}`` table to :func:`lazy_exports` and binds the two functions
it returns as the module-level ``__getattr__`` and ``__dir__``. Importing
the package then imports none of its submodules; ``package.Name`` and
``from package import Name`` import the defining module on first use and
cache the object in the package's namespace, so later lookups are plain
globals.

Module paths may be relative to the package (``".torus"``). An entry
``"module:attr"`` exports ``attr`` under another name. A name mapped to the
module ``<its module>.<name>`` is that submodule itself (``"bounds":
".bounds"``): it is imported by its dotted path, never looked up on the
package, which would re-enter ``__getattr__`` forever.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` serving ``exports`` for ``package``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module_name, _, attribute = exports[name].partition(":")
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = import_module(module_name, package)
        if not attribute and module.__name__.endswith(f".{name}"):
            value = module
        else:
            value = getattr(module, attribute or name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
