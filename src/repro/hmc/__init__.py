"""Hybrid Memory Cube package model.

Assembles the substrates into the device of the paper's Figure 2: 32 vaults
(each with 16 banks and a vault controller hosting the memory-side
prefetcher), an internal crossbar and four full-duplex serial links.  The
host-side controller that packetizes cache-line requests is
:class:`repro.fabric.host.FabricHost`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    globals(),
    {
        "HMCConfig": "config",
        "AddressMapping": "address",
        "DecodedAddress": "address",
        "HMCDevice": "device",
    },
)
