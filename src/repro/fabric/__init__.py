"""Routed multi-cube HMC fabric.

Generalizes :mod:`repro.hmc` + :mod:`repro.interconnect` from one device to
a fabric of 1-8 cubes in daisy-chain, ring, or star (host fan-out)
topologies: cube-select address bits, static shortest-path routing, per-hop
latency/energy/contention over inter-cube serial links (with the standard
fault/retry machinery per hop), and CAMPS running per-vault in every cube.

Entry points: :class:`FabricConfig` (``FabricConfig.from_spec("chain:4")``)
describes the fabric, :class:`~repro.system.System` simulates it
(``SystemConfig(fabric=...)``; ``FabricSystem`` / ``FabricSystemConfig``
are the same class and config under their fabric names), and
:func:`~repro.workloads.multistream.build_stream_traces` supplies the
multi-stream workloads.  See ``docs/API.md`` (Fabric) and
``examples/fabric_study.py``.
"""

from repro.fabric.address import FabricAddressMapping, FabricDecodedAddress
from repro.fabric.host import FabricHost
from repro.fabric.router import FABRIC_LINK_ID_BASE, FabricLink, Router
from repro.fabric.topology import (
    MAX_CUBES,
    TOPOLOGIES,
    FabricConfig,
    Topology,
    parse_topology,
)

__all__ = [
    "FABRIC_LINK_ID_BASE",
    "MAX_CUBES",
    "TOPOLOGIES",
    "FabricAddressMapping",
    "FabricConfig",
    "FabricDecodedAddress",
    "FabricHost",
    "FabricLink",
    "FabricSystem",
    "FabricSystemConfig",
    "Router",
    "Topology",
    "parse_topology",
]

#: fabric names for repro.system's one system class and config
_SYSTEM_ALIASES = {"FabricSystem": "System", "FabricSystemConfig": "SystemConfig"}


def __getattr__(name: str):
    # Resolved lazily: repro.system imports this package's host, so an
    # eager import here would be circular.
    if name in _SYSTEM_ALIASES:
        from repro import system

        return getattr(system, _SYSTEM_ALIASES[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
