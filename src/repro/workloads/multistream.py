"""Multi-stream workload specs for multi-cube fabrics.

A fabric serves N *independent* request streams - each one a full Table II
eight-core mix with its own RNG stream - the ROADMAP's "one simulated memory
system serving many independent users" scaling axis.  A
:class:`MultiStreamSpec` names the streams and how their address spaces map
onto cubes:

``home``
    Locality-aware placement (the Yoon et al. row-buffer-locality argument):
    each stream's single-cube address space is spliced into its home cube's
    slice via :meth:`~repro.fabric.address.FabricAddressMapping.
    relocate_home`, so a stream's rows - and its row-buffer locality - stay
    inside one cube and inter-cube traffic comes only from non-home streams.
``interleave``
    Addresses are used as generated: the cube-select bits fall where the
    generator's row bits land, spreading every stream's rows across all
    cubes (maximum fabric load, no locality).

Generation is fully deterministic: stream ``i`` of
:meth:`MultiStreamSpec.per_cube` seeds its mix with ``seed + i``, so the
same spec always produces byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple, Union

from repro.workloads.mixes import mix
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.address import FabricAddressMapping
    from repro.fabric.topology import FabricConfig

PLACEMENTS = ("home", "interleave")


@dataclass(frozen=True)
class StreamSpec:
    """One independent request stream: a Table II mix with its own seed and
    home cube."""

    mix: str
    seed: int = 0
    home_cube: int = 0


@dataclass(frozen=True)
class MultiStreamSpec:
    """N independent streams plus their cube-placement policy."""

    streams: Tuple[StreamSpec, ...] = field(default_factory=tuple)
    refs_per_core: int = 4000
    placement: str = "home"

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError("need at least one stream")
        if self.refs_per_core < 1:
            raise ValueError("refs_per_core must be >= 1")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"available: {', '.join(PLACEMENTS)}"
            )

    @classmethod
    def per_cube(
        cls,
        mix_name: str,
        cubes: int,
        refs_per_core: int,
        seed: int = 0,
        placement: str = "home",
    ) -> "MultiStreamSpec":
        """One stream per cube, stream ``i`` homed at cube ``i``.

        With ``cubes == 1`` this is exactly one plain mix - the degenerate
        spec the single-cube parity tests run.
        """
        if cubes < 1:
            raise ValueError(f"cubes must be >= 1, got {cubes}")
        return cls(
            streams=tuple(
                StreamSpec(mix=mix_name, seed=seed + i, home_cube=i)
                for i in range(cubes)
            ),
            refs_per_core=refs_per_core,
            placement=placement,
        )

    @property
    def cores(self) -> int:
        """Total simulated cores (eight per stream)."""
        return 8 * len(self.streams)

    def describe(self) -> str:
        names = ",".join(f"{s.mix}@q{s.home_cube}" for s in self.streams)
        return f"[{names}] x{self.refs_per_core} ({self.placement})"


def build_stream_traces(
    spec: MultiStreamSpec,
    fabric: Union["FabricConfig", "FabricAddressMapping"],
) -> List[Trace]:
    """Generate every stream's per-core traces, placed onto the fabric.

    Returns a flat list (stream-major: stream 0's eight cores first) ready
    for a :class:`~repro.system.System` with a fabric.  Streams are generated
    against the single-cube config - the generators are calibrated there -
    and relocated afterwards, so a stream's intra-cube footprint is
    identical regardless of which cube it lands on.
    """
    # Imported here, not at module top: repro.workloads stays free of an
    # import-time dependency on the fabric package.
    from repro.fabric.address import FabricAddressMapping

    if isinstance(fabric, FabricAddressMapping):
        mapping = fabric
    else:
        mapping = FabricAddressMapping(fabric.hmc, fabric.cubes)
    out: List[Trace] = []
    for stream in spec.streams:
        if stream.home_cube >= mapping.cubes:
            raise ValueError(
                f"stream {stream.mix} homed at cube {stream.home_cube}, but "
                f"the fabric has {mapping.cubes}"
            )
        for trace in mix(stream.mix, spec.refs_per_core, seed=stream.seed):
            if spec.placement == "home":
                addrs = mapping.relocate_home(trace.addrs, stream.home_cube)
                name = f"{trace.name}@q{stream.home_cube}"
            else:
                addrs = trace.addrs
                name = trace.name
            out.append(
                Trace(trace.gaps, addrs, trace.writes, name, dict(trace.meta))
            )
    return out
