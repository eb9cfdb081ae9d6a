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

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "FABRIC_LINK_ID_BASE": "router",
        "MAX_CUBES": "topology",
        "TOPOLOGIES": "topology",
        "FabricAddressMapping": "address",
        "FabricConfig": "topology",
        "FabricDecodedAddress": "address",
        "FabricHost": "host",
        "FabricLink": "router",
        # fabric names for repro.system's one system class and config
        "FabricSystem": ".system:System",
        "FabricSystemConfig": ".system:SystemConfig",
        "Router": "router",
        "Topology": "topology",
        "parse_topology": "topology",
    },
)
