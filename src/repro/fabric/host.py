"""Host-side HMC controller: decode, packetize, route onto 1-8 cubes.

:class:`FabricHost` sits on the processor die (paper Figure 2) and is the
one host every :class:`~repro.system.System` runs through.  Every LLC miss
or writeback becomes a request packet: the host decodes its coordinates
once (cube + vault + bank + row + column, mirroring
:class:`~repro.fabric.address.FabricAddressMapping`), serializes it onto a
host serial link, and either injects it straight into its home cube's
crossbar (the link's far end under star fan-out, or cube 0 when the home
cube IS cube 0 under chain/ring) or hands it to the entry cube's
:class:`~repro.fabric.router.Router` for hop-by-hop forwarding.
Completions retrace the path; the host timestamps them, feeds the AMAT
histograms (Figure 8's input) and wakes the issuing core via the request
callback.

**The one host.**  A one-cube fabric is the plain single-cube machine: no
cube bits, vault-interleaved link selection, direct crossbar injection and
one engine event per request leg.  The per-request arithmetic (fault-free
link serialization, crossbar traversal, response scheduling) is inlined;
``LinkDirection.send``, ``HMCDevice.inject`` and ``Engine.call_at`` hold
the reference semantics the inlined copies are bit-identical to.  Latency
samples go through the bound ``Histogram.add``, a list append.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, List

from repro.fabric.address import FabricAddressMapping
from repro.fabric.router import FABRIC_LINK_ID_BASE, FabricLink, Router
from repro.fabric.topology import FabricConfig, Topology
from repro.hmc.device import HMCDevice
from repro.interconnect.link import SerialLink
from repro.interconnect.packet import PacketKind, packet_bytes
from repro.obs.hooks import noop
from repro.request import MemoryRequest
from repro.sim.engine import Engine
from repro.sim.stats import StatGroup


class FabricHost:
    """The processor-side endpoint of the host serial links."""

    def __init__(
        self,
        fabric: FabricConfig,
        engine: Engine,
        devices: List[HMCDevice],
        record_requests: bool = False,
    ) -> None:
        if len(devices) != fabric.cubes:
            raise ValueError(
                f"fabric declares {fabric.cubes} cubes but got {len(devices)} devices"
            )
        cfg = fabric.hmc
        topology = Topology(fabric)
        self.fabric = fabric
        self.config = cfg
        self.engine = engine
        self.devices = devices
        self.topology = topology
        self.record_requests = record_requests
        self.completed_requests = []  # populated only when recording
        self.mapping = FabricAddressMapping(cfg, fabric.cubes)
        bpc = cfg.link_bytes_per_cycle
        self.links: List[SerialLink] = [
            SerialLink(i, bpc, cfg.serdes_latency, cfg.flit_bytes, cfg.faults)
            for i in range(cfg.links)
        ]
        #: instrumentation site (repro.obs.hooks), rebound at wiring time
        self._tracer = None
        self._emit_link_tx = noop
        #: recycle delivered requests through the MemoryRequest pool; the
        #: System enables this only when it can prove single ownership
        #: (no request recording, no cache hierarchy holding MSHR refs)
        self.recycle_requests = False
        # packet sizes depend only on (kind, line_bytes, header_bytes):
        # resolve the four combinations once instead of per packet
        line = cfg.line_bytes
        hdr = cfg.request_header_bytes
        self._req_bytes = (
            packet_bytes(PacketKind.READ_REQUEST, line, hdr),
            packet_bytes(PacketKind.WRITE_REQUEST, line, hdr),
        )
        self._resp_bytes = (
            packet_bytes(PacketKind.READ_RESPONSE, line, hdr),
            packet_bytes(PacketKind.WRITE_RESPONSE, line, hdr),
        )
        #: star fan-out selects links by cube; every other shape (and any
        #: one-cube fabric) keeps the static vault-interleaved assignment,
        #: which balances load because consecutive rows interleave across
        #: vaults
        self._link_by_cube = fabric.topology == "star" and fabric.cubes > 1
        self._entry = [topology.entry_cube(c) for c in range(fabric.cubes)]
        self._host_hops = topology.host_hops
        #: requests sent per home cube; the hop count is a function of the
        #: home cube alone, so this is the whole hop histogram
        self._cube_requests = [0] * fabric.cubes

        # ---- inter-cube plumbing -------------------------------------
        self.fabric_links: List[FabricLink] = [
            FabricLink(
                FABRIC_LINK_ID_BASE + k,
                a,
                b,
                bpc,
                cfg.serdes_latency,
                cfg.flit_bytes,
                cfg.faults,
            )
            for k, (a, b) in enumerate(topology.edges)
        ]
        self.routers: List[Router] = [
            Router(
                c,
                engine,
                devices[c],
                topology.next_hop[c],
                fabric.hop_latency,
                self._req_bytes,
                self._resp_bytes,
                exit_cube=0,
            )
            for c in range(fabric.cubes)
        ]
        for link in self.fabric_links:
            a, b = link.cube_a, link.cube_b
            self.routers[a].ports[b] = link.direction_to(b)
            self.routers[a].peers[b] = self.routers[b]
            self.routers[b].ports[a] = link.direction_to(a)
            self.routers[b].peers[a] = self.routers[a]
        for router in self.routers:
            router.host_tx = self._tx_response
        for c, dev in enumerate(devices):
            dev.set_deliver_fn(self._make_responder(c))

        self.stats = StatGroup("host")
        self._c_reads = self.stats.counter("reads_sent")
        self._c_writes = self.stats.counter("writes_sent")
        self._c_done = self.stats.counter("completions")
        # 64 bins x 32 cycles covers latencies up to ~2k cycles before overflow
        self.latency_hist = self.stats.histogram("mem_latency", nbins=64, bin_width=32)
        self.read_latency_hist = self.stats.histogram(
            "read_latency", nbins=64, bin_width=32
        )
        # Context packs: every object here is bound once and mutated only in
        # place, so the tuples stay current; one attribute read + a C-level
        # unpack replaces the dozen attribute chains that would otherwise
        # open every packetization.  The decode constants mirror the fabric
        # mapping (mapping.decode stays the public/validating API).
        m = self.mapping
        energy = [dev.energy for dev in devices]
        self._send_ctx = (
            engine,
            m.cube_shift,
            m.cube_mask,
            m.cubes,
            m.vault_shift,
            m.vault_mask,
            m.bank_shift,
            m.bank_mask,
            m.row_shift,
            m.column_shift,
            m.column_mask,
            self._req_bytes,
            self.links,
            len(self.links),
            self._link_by_cube,
            self._entry,
            energy,
            [dev.crossbar for dev in devices],
            [[vc.receive for vc in dev.vaults] for dev in devices],
            [r.receive_request for r in self.routers],
            self._cube_requests,
            self._c_reads,
            self._c_writes,
        )
        self._tx_ctx = (
            engine,
            self._resp_bytes,
            self.links,
            len(self.links),
            self._link_by_cube,
            self._entry,
            energy,
            self._deliver,
        )
        self._deliver_ctx = (
            engine,
            self.latency_hist.add,
            self.read_latency_hist.add,
            self._c_done,
        )

    # ------------------------------------------------------------------
    # Instrumentation (see repro.obs.hooks)
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._emit_link_tx = tracer.link_tx if tracer is not None else noop

    # ------------------------------------------------------------------
    # Request path (core -> cube)
    # ------------------------------------------------------------------
    def send(self, req: MemoryRequest) -> None:
        """Decode, packetize and transmit one request at ``engine.now``."""
        (
            engine,
            q_shift,
            q_mask,
            q_cubes,
            v_shift,
            v_mask,
            b_shift,
            b_mask,
            r_shift,
            c_shift,
            c_mask,
            req_bytes,
            links,
            nlinks,
            link_by_cube,
            entry,
            energy,
            xbars,
            vault_receive,
            route_request,
            cube_requests,
            c_reads,
            c_writes,
        ) = self._send_ctx
        now = engine.now
        req.host_cycle = now
        addr = req.addr
        req.cube = cube = ((addr >> q_shift) & q_mask) % q_cubes
        req.vault = vault = (addr >> v_shift) & v_mask
        req.bank = (addr >> b_shift) & b_mask
        req.row = addr >> r_shift
        req.column = (addr >> c_shift) & c_mask
        is_write = req.is_write
        nbytes = req_bytes[is_write]
        link = links[(cube if link_by_cube else vault) % nlinks]
        d = link.request
        # Fault-free serialization inlined (LinkDirection.send holds the
        # reference semantics and remains the retry/cache-miss slow path).
        cached = d._ser_cache.get(nbytes) if d.retry is None else None
        if cached is not None:
            busy = d.busy_until
            start = now if now > busy else busy
            ser, flits = cached
            d.busy_until = end = start + ser
            d.busy_cycles += ser
            d.packets += 1
            d.bytes_sent += nbytes
            d.flits_sent += flits
            arrival = end + d.serdes_latency
        else:
            arrival, flits = d.send(now, nbytes)
        emit = self._emit_link_tx
        if emit is not noop:
            emit(link.link_id, "req", nbytes, now, arrival)
        home = entry[cube]
        energy[home].link_flits += flits
        cube_requests[cube] += 1
        if is_write:
            c_writes.value += 1
        else:
            c_reads.value += 1
        if cube != home:
            engine.call_at(arrival, route_request[home], req)
            return
        # The far end of the host link is the home cube: the crossbar
        # traversal is inlined the same way (HMCDevice.inject holds the
        # reference semantics).
        xbar = xbars[cube]
        port_busy = xbar._port_busy
        start = port_busy[vault]
        if start > arrival:
            xbar.port_conflicts += 1
        else:
            start = arrival
        port_busy[vault] = start + xbar.port_cycle
        xbar.traversals += 1
        # Engine.call_at inlined (the method stays the reference): the
        # arrival cycle is structurally >= now, so the past-check is free to
        # skip; seq draws from the engine counter, keeping order identical.
        engine._seq = seq = engine._seq + 1
        heappush(
            engine._heap,
            (start + xbar.latency, 0, seq, vault_receive[cube][vault], (req,)),
        )
        engine._strong += 1

    # ------------------------------------------------------------------
    # Response path (cube -> core)
    # ------------------------------------------------------------------
    def _make_responder(self, cube: int) -> Callable[[MemoryRequest, int], None]:
        """Build cube ``cube``'s deliver fn: charge the response crossbar,
        then either transmit on the host link (the cube is its own fabric
        exit) or hand the packet to the cube's router for the trip back.

        ``ready`` is the bank-side cycle (see HMCDevice.set_deliver_fn).
        Serialization must be reserved when the data is actually ready -
        reserving at call time would let far-future completions (e.g.
        in-flight prefetch hits) block earlier responses on the link.
        """
        engine = self.engine
        resp_xbar = self.config.crossbar_latency
        if self._entry[cube] == cube:
            target = self._tx_response
        else:
            target = self.routers[cube].receive_response

        def respond(req: MemoryRequest, ready: int) -> None:
            now = engine.now
            t = ready + resp_xbar
            # Engine.call_at inlined (clamped-to-now time can never be past).
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (t if t > now else now, 0, seq, target, (req,)))
            engine._strong += 1

        return respond

    def _tx_response(self, req: MemoryRequest) -> None:
        (
            engine,
            resp_bytes,
            links,
            nlinks,
            link_by_cube,
            entry,
            energy,
            deliver,
        ) = self._tx_ctx
        now = engine.now
        nbytes = resp_bytes[req.is_write]
        link = links[(req.cube if link_by_cube else req.vault) % nlinks]
        d = link.response
        # Fault-free serialization inlined; same shape as send().
        cached = d._ser_cache.get(nbytes) if d.retry is None else None
        if cached is not None:
            busy = d.busy_until
            start = now if now > busy else busy
            ser, flits = cached
            d.busy_until = end = start + ser
            d.busy_cycles += ser
            d.packets += 1
            d.bytes_sent += nbytes
            d.flits_sent += flits
            arrival = end + d.serdes_latency
        else:
            arrival, flits = d.send(now, nbytes)
        emit = self._emit_link_tx
        if emit is not noop:
            emit(link.link_id, "resp", nbytes, now, arrival)
        energy[entry[req.cube]].link_flits += flits
        # Engine.call_at inlined (arrival is structurally >= now).
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (arrival, 0, seq, deliver, (req,)))
        engine._strong += 1

    def _deliver(self, req: MemoryRequest) -> None:
        engine, lat_add, read_add, c_done = self._deliver_ctx
        now = engine.now
        req.complete_cycle = now
        c_done.value += 1
        lat = now - req.issue_cycle
        lat_add(lat)
        if not req.is_write:
            read_add(lat)
        if self.record_requests:
            self.completed_requests.append(req)
        cb = req.callback
        if cb is not None:
            cb(req)
        if self.recycle_requests:
            # Back to the pool DirectPort.load/store take from.
            req.callback = None
            req.meta = None
            MemoryRequest._pool.append(req)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Warmup boundary: zero latency histograms, hop counts, link
        activity (traffic + retry counters, see SerialLink.reset_statistics)
        and router forwarding counters.  The sent/completed counters are
        preserved (outstanding tracking)."""
        self.latency_hist.reset()
        self.read_latency_hist.reset()
        self._cube_requests[:] = [0] * len(self._cube_requests)
        for link in (*self.links, *self.fabric_links):
            link.reset_statistics()
        for router in self.routers:
            router.reset_statistics()

    @property
    def outstanding(self) -> int:
        sent = self._c_reads.value + self._c_writes.value
        return sent - self._c_done.value

    def mean_memory_latency(self) -> float:
        """Mean round-trip latency of all completed requests (cycles)."""
        return self.latency_hist.mean

    def mean_read_latency(self) -> float:
        """Mean round-trip latency of completed reads (AMAT numerator)."""
        return self.read_latency_hist.mean

    def hop_histogram(self) -> Dict[int, int]:
        """``{hops: requests}`` over the hop counts that carried traffic, in
        ascending hop order."""
        hist: Dict[int, int] = {}
        for hops, n in zip(self._host_hops, self._cube_requests):
            if n:
                hist[hops] = hist.get(hops, 0) + n
        return dict(sorted(hist.items()))

    def mean_hops(self) -> float:
        """Mean link traversals per request (1.0 in a one-cube fabric)."""
        n = sum(self._cube_requests)
        if not n:
            return 0.0
        return sum(h * c for h, c in zip(self._host_hops, self._cube_requests)) / n

    @property
    def faults_enabled(self) -> bool:
        """True when any host or fabric link direction carries a retry buffer."""
        return any(
            d.retry is not None
            for link in (*self.links, *self.fabric_links)
            for d in (link.request, link.response)
        )

    def link_fault_summary(self) -> dict:
        """Aggregated retry-buffer counters across host AND fabric links
        (fabric links appear as ``link100`` upward).

        Empty dict when fault injection is not attached (the common case),
        so callers can splice it into reports without an enabled check.
        """
        per_link = {}
        totals: dict = {}
        for link in (*self.links, *self.fabric_links):
            counters = link.fault_counters()
            if counters is None:
                continue
            per_link[f"link{link.link_id}"] = counters
            for key, value in counters.items():
                if key == "max_episode_replays":
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        if not per_link:
            return {}
        totals["per_link"] = per_link
        return totals

    def link_utilization(self) -> float:
        """Average request+response serialization utilization across the
        HOST links (fabric links report separately)."""
        cycles = self.engine.now
        if not cycles:
            return 0.0
        dirs = [d for l in self.links for d in (l.request, l.response)]
        return sum(d.utilization(cycles) for d in dirs) / len(dirs)

    def fabric_link_utilization(self) -> float:
        """Average serialization utilization across inter-cube links
        (0.0 when the topology has none)."""
        cycles = self.engine.now
        dirs = [d for l in self.fabric_links for d in (l.request, l.response)]
        if not cycles or not dirs:
            return 0.0
        return sum(d.utilization(cycles) for d in dirs) / len(dirs)

    def hop_flits(self) -> int:
        """Total flits carried by inter-cube links (pass-through included)."""
        return sum(r.hop_flits for r in self.routers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FabricHost {self.fabric.spec} links={len(self.links)}"
            f"+{len(self.fabric_links)} outstanding={self.outstanding}>"
        )
