"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package lists its public names once, as a ``name -> module`` map, and
takes its ``__all__`` and module ``__getattr__`` from :func:`lazy_exports`.
Importing the package then loads none of its submodules: each name is
imported from its module on first access (``from repro import System``,
``repro.hmc.HMCDevice``, ``import *``) and cached in the package.  That is
what lets the control plane (campaign, serve, telemetry) import
``repro.hmc.config`` or ``repro.workloads.mixes`` without loading the
simulator or numpy.
"""

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, str]
) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for the package whose globals are
    ``namespace``.

    ``exports`` maps each public name to the module defining it, relative
    to the package: ``"config"`` is ``<package>.config``, and a leading
    ``"."`` climbs one level (``".system"`` from ``repro.fabric`` is
    ``repro.system``).  ``"module:attr"`` re-exports ``attr`` under the
    key's name.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        target = exports.get(name)
        if target is None:
            # AttributeError (not ImportError) lets ``from <package> import
            # <submodule>`` fall through to the regular submodule import
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, _, attr = target.partition(":")
        value = getattr(import_module(f".{module}", package), attr or name)
        namespace[name] = value  # cache: later lookups skip __getattr__
        return value

    return list(exports), __getattr__
