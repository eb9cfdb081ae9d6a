"""Central configuration: the paper's Table I, as one frozen dataclass.

Every experiment builds an :class:`HMCConfig` (usually the default, which *is*
Table I) and threads it through the device, vault controllers, prefetchers and
host.  Ablation benches override single fields via ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.dram.energy import EnergyParams
from repro.dram.timing import DRAMTimings
from repro.faults import LinkFaultConfig


#: Field order strings accepted by :class:`~repro.hmc.address.AddressMapping`,
#: written MSB first the way the paper writes "RoRaBaVaCo".  The 64 B line
#: offset always occupies the lowest bits.
MAPPING_ORDERS = {
    "RoBaVaCo": ("row", "bank", "vault", "column"),  # Table I (rank_bits=0)
    "RoVaBaCo": ("row", "vault", "bank", "column"),
    "RoCoBaVa": ("row", "column", "bank", "vault"),
    "RoCoVaBa": ("row", "column", "vault", "bank"),
    "RoBaCoVa": ("row", "bank", "column", "vault"),
    "RoVaCoBa": ("row", "vault", "column", "bank"),
}


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class HMCConfig:
    """HMC organization and latency parameters (defaults = Table I).

    Structure
    ---------
    * 32 vaults, 16 banks per vault (2 banks/vault-layer x 8 DRAM layers).
    * 1 KB row buffers, 64 B cache lines (16 lines per row).
    * Address mapping RoRaBaVaCo (row : rank : bank : vault : column).

    Vault controller
    ----------------
    * Separate read/write queues of 32 entries, FR-FCFS scheduling,
      open-page policy.

    Prefetch buffer
    ---------------
    * 16 KB per vault = 16 fully-associative 1 KB row entries,
      22-cycle hit latency.

    Links
    -----
    * 4 full-duplex serial links, 16 lanes each at 12.5 Gbps.
    """

    vaults: int = 32
    banks_per_vault: int = 16
    row_bytes: int = 1024
    line_bytes: int = 64
    rank_bits: int = 0

    timings: DRAMTimings = field(default_factory=DRAMTimings)
    energy: EnergyParams = field(default_factory=EnergyParams)

    read_queue_depth: int = 32
    write_queue_depth: int = 32

    links: int = 4
    link_lanes: int = 16
    link_gbps_per_lane: float = 12.5
    serdes_latency: int = 12  # fixed SerDes + flight latency per direction
    crossbar_latency: int = 4
    request_header_bytes: int = 16
    flit_bytes: int = 16

    pf_buffer_entries: int = 16
    pf_hit_latency: int = 22

    # Link fault injection (repro.faults); the default models healthy links
    # and leaves the link model byte-identical to the fault-free path.
    faults: LinkFaultConfig = field(default_factory=LinkFaultConfig)

    # Extensions beyond the paper's fixed setup (defaults match the paper):
    page_policy: str = "open"  # "open" (Table I) or "closed"
    refresh_enabled: bool = False  # per-bank REFRESH every tREFI
    address_mapping: str = "RoBaVaCo"  # Table I's RoRaBaVaCo (rank_bits=0)

    def __post_init__(self) -> None:
        for name in ("vaults", "banks_per_vault", "row_bytes", "line_bytes"):
            if not _is_pow2(getattr(self, name)):
                raise ValueError(f"{name} must be a power of two, got {getattr(self, name)}")
        if self.line_bytes > self.row_bytes:
            raise ValueError("line_bytes cannot exceed row_bytes")
        if self.rank_bits < 0:
            raise ValueError("rank_bits must be non-negative")
        for name in (
            "read_queue_depth",
            "write_queue_depth",
            "links",
            "link_lanes",
            "pf_buffer_entries",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("serdes_latency", "crossbar_latency", "pf_hit_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not _is_pow2(self.flit_bytes):
            raise ValueError("flit_bytes must be a power of two")
        if self.link_gbps_per_lane <= 0:
            raise ValueError("link_gbps_per_lane must be positive")
        if self.page_policy not in ("open", "closed"):
            raise ValueError(f"unknown page_policy {self.page_policy!r}")
        if self.address_mapping not in MAPPING_ORDERS:
            raise ValueError(
                f"unknown address_mapping {self.address_mapping!r}; "
                f"available: {', '.join(MAPPING_ORDERS)}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.line_bytes

    @property
    def total_banks(self) -> int:
        return self.vaults * self.banks_per_vault

    @property
    def pf_buffer_bytes(self) -> int:
        """Per-vault prefetch buffer capacity (16 x 1 KB = 16 KB, Table I)."""
        return self.pf_buffer_entries * self.row_bytes

    @property
    def link_bytes_per_cycle(self) -> float:
        """Per-direction link bandwidth in bytes per CPU cycle."""
        gbps = self.link_lanes * self.link_gbps_per_lane
        bytes_per_ns = gbps / 8.0
        return bytes_per_ns / self.timings.cpu_freq_ghz

    def with_overrides(self, **kwargs: Any) -> "HMCConfig":
        """Convenience wrapper around :func:`dataclasses.replace`."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialization (experiment configs as files)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Nested plain-dict form (JSON-serializable)."""
        import dataclasses as _dc

        return _dc.asdict(self)

    def to_json(self, path: Any = None, indent: int = 2) -> str:
        """Serialize to JSON; optionally also write to ``path``."""
        import json
        from pathlib import Path

        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_dict(cls, data: dict) -> "HMCConfig":
        """Rebuild from :meth:`to_dict` output (validates all fields)."""
        from repro.dram.energy import EnergyParams
        from repro.dram.timing import DRAMTimings
        import dataclasses as _dc

        data = dict(data)
        if isinstance(data.get("timings"), dict):
            t = {
                k: v
                for k, v in data["timings"].items()
                if k in {f.name for f in _dc.fields(DRAMTimings) if f.init}
            }
            data["timings"] = DRAMTimings(**t)
        if isinstance(data.get("energy"), dict):
            data["energy"] = EnergyParams(**data["energy"])
        if isinstance(data.get("faults"), dict):
            data["faults"] = LinkFaultConfig(**data["faults"])
        return cls(**data)

    @classmethod
    def from_json(cls, source: Any) -> "HMCConfig":
        """Rebuild from a JSON string or file path."""
        import json
        from pathlib import Path

        text = str(source)
        if "{" not in text:  # a path, not inline JSON
            text = Path(text).read_text()
        return cls.from_dict(json.loads(text))
