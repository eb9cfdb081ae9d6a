"""Hierarchical counter registry: device → vault → bank.

Components' existing counters (or zero-cost gauge callables) are
*registered* into a :class:`CounterRegistry`; nothing is read until a
snapshot is requested, so registration adds no hot-path work.
:func:`system_counters` is the one place that walks a built system and
registers its statistics.  The registry is how RunReports, the exporters and
the per-vault text summary see one coherent tree of statistics without every
reporting site re-walking the object graph.

Sources may be:

* an object with a ``.value`` attribute (``repro.sim.stats.Counter``),
* a zero-argument callable returning a number (a *gauge*),
* a plain number (frozen at registration; rarely useful outside tests).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Tuple, Union

Source = Union[Callable[[], float], Any]
Path = Tuple[str, ...]


def _read(source: Source) -> float:
    if callable(source):
        # A gauge that raises at snapshot time (e.g. a component already
        # torn down) degrades to NaN instead of killing the whole snapshot:
        # end-of-run reporting must never be the thing that crashes a run.
        try:
            return source()
        except Exception:
            return float("nan")
    value = getattr(source, "value", source)
    return value


class CounterScope:
    """A named node in the registry tree; hands out child scopes."""

    def __init__(self, registry: "CounterRegistry", path: Path) -> None:
        self._registry = registry
        self.path = path

    def scope(self, name: str) -> "CounterScope":
        return CounterScope(self._registry, self.path + (name,))

    def register(self, name: str, source: Source) -> None:
        """Attach a counter/gauge at this scope (read lazily at snapshot)."""
        self._registry.register(self.path, name, source)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterScope {'.'.join(self.path) or '(root)'}>"


class CounterRegistry:
    """Tree of named statistic sources, read lazily on snapshot."""

    def __init__(self) -> None:
        self._sources: Dict[Path, Dict[str, Source]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def scope(self, *path: str) -> CounterScope:
        """Get a scope handle, e.g. ``registry.scope("vault3", "bank7")``."""
        return CounterScope(self, tuple(path))

    def register(self, path: Path, name: str, source: Source) -> None:
        if not name:
            raise ValueError("counter name must be non-empty")
        bucket = self._sources.setdefault(tuple(path), {})
        if name in bucket:
            raise ValueError(
                f"duplicate counter {name!r} at scope {'.'.join(path) or '(root)'}"
            )
        bucket[name] = source

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(b) for b in self._sources.values())

    def items(self) -> Iterator[Tuple[Path, str, float]]:
        """Yield ``(path, name, value)`` in sorted path order."""
        for path in sorted(self._sources):
            bucket = self._sources[path]
            for name in bucket:
                yield path, name, _read(bucket[name])

    def flatten(self, sep: str = ".") -> Dict[str, float]:
        """Flat ``"vault3.bank7.acts" -> value`` view of the whole tree."""
        out: Dict[str, float] = {}
        for path, name, value in self.items():
            out[sep.join(path + (name,))] = value
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Nested-dict view: scopes become dicts, counters become values.

        A name used as both a counter and a scope at the same level (e.g. a
        ``links`` counter next to a ``links`` scope) is legal: the counter
        value moves under the scope dict's ``""`` key so neither silently
        shadows the other.
        """
        root: Dict[str, Any] = {}
        for path, name, value in self.items():
            node = root
            for part in path:
                child = node.get(part)
                if not isinstance(child, dict):
                    # a counter already claimed this name: keep its value
                    # under the reserved "" key of the new scope dict
                    child = {} if child is None else {"": child}
                    node[part] = child
                node = child
            prior = node.get(name)
            if isinstance(prior, dict):
                prior[""] = value
            else:
                node[name] = value
        return root

    def scopes(self, prefix: str = "") -> List[str]:
        """Dotted names of registered scopes, optionally prefix-filtered."""
        names = sorted(".".join(p) for p in self._sources)
        if prefix:
            names = [n for n in names if n.startswith(prefix)]
        return names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterRegistry scopes={len(self._sources)} counters={len(self)}>"


def system_counters(system: Any) -> CounterRegistry:
    """The counter registry of a built :class:`~repro.system.System`.

    Every source is a lazy gauge (or a live ``Counter``) over statistics the
    simulator keeps anyway, so the registry can be built before or after the
    run and reads the same values either way; no tracer is needed.  Shapes:
    without a fabric, device → vault → bank (per-bank command counters);
    with a fabric, per-cube aggregates plus router forwarding counters - no
    per-bank fan-out (32 vaults x 16 banks x 8 cubes would dwarf every other
    scope combined).  Both carry the device, host and per-link scopes.
    """
    registry = CounterRegistry()
    engine = system.engine
    host = system.host
    dev_scope = registry.scope("device")
    dev_scope.register("events_fired", lambda: engine.events_fired)
    dev_scope.register("cycles", lambda: engine.now)
    host_scope = registry.scope("host")
    for name, counter in host.stats.counters.items():
        host_scope.register(name, counter)
    for link in (*host.links, *host.fabric_links):
        ls = host_scope.scope(f"link{link.link_id}")
        for d in (link.request, link.response):
            direction = d.name.rsplit(".", 1)[-1]
            ls.register(f"{direction}_packets", (lambda d=d: d.packets))
            ls.register(f"{direction}_bytes", (lambda d=d: d.bytes_sent))
            if d.retry is not None:
                ls.register(f"{direction}_replays", (lambda d=d: d.retry.replays))
                ls.register(f"{direction}_retrains", (lambda d=d: d.retry.retrains))
    if system.fabric is None:
        _register_device(registry, system.device)
    else:
        _register_cubes(registry, system.devices, host.routers)
    return registry


def _register_device(registry: CounterRegistry, device: Any) -> None:
    """The one cube's crossbar, per-vault statistics and per-bank command
    counters."""
    registry.register(
        ("device",), "crossbar_traversals", lambda: device.crossbar.traversals
    )
    for vc in device.vaults:
        vs = registry.scope(f"vault{vc.vault_id}")
        for name, counter in vc.stats.counters.items():
            vs.register(name, counter)
        vs.register("sched_row_hit_issues", lambda vc=vc: vc.scheduler.row_hit_issues)
        vs.register("sched_fcfs_issues", lambda vc=vc: vc.scheduler.fcfs_issues)
        vs.register("sched_drain_entries", lambda vc=vc: vc.scheduler.drain_entries)
        vs.register("tsv_busy_cycles", lambda vc=vc: vc.tsv_bus.busy_cycles)
        vs.register("prefetches_issued", lambda vc=vc: vc.prefetcher.prefetches_issued)
        for stat_name, fn in vc.prefetcher.observed_stats().items():
            vs.register(stat_name, fn)
        for bank in vc.banks:
            bs = vs.scope(f"bank{bank.bank_id}")
            for attr in ("acts", "pres", "reads", "writes", "conflicts", "hits", "empties"):
                bs.register(attr, (lambda b=bank, a=attr: getattr(b, a)))


def _register_cubes(registry: CounterRegistry, devices: Any, routers: Any) -> None:
    """Per-cube aggregates and router forwarding counters of a fabric."""
    for c, (device, router) in enumerate(zip(devices, routers)):
        cs = registry.scope(f"cube{c}")
        cs.register("demand_accesses", (lambda dev=device: dev.demand_accesses))
        cs.register("row_conflicts", (lambda dev=device: dev.row_conflicts))
        cs.register("buffer_hits", (lambda dev=device: dev.buffer_hits))
        cs.register("prefetches_issued", (lambda dev=device: dev.prefetches_issued()))
        cs.register("crossbar_traversals", (lambda dev=device: dev.crossbar.traversals))
        cs.register("router_local_requests", (lambda r=router: r.local_requests))
        cs.register("router_forwarded_requests", (lambda r=router: r.forwarded_requests))
        cs.register(
            "router_forwarded_responses", (lambda r=router: r.forwarded_responses)
        )
        cs.register("router_hop_flits", (lambda r=router: r.hop_flits))
