"""An OpenFlow-style switch / access point.

Every IoT device's first-hop edge router "is configured to tunnel packets
to/from the device to the cluster" (paper section 2.2).  The switch holds a
prioritized flow table; unmatched packets are punted to the controller over
the control channel (packet-in), exactly the reactive SDN model the paper
assumes.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.sdn.flowrule import Action, FlowRule
from repro.sdn.tunnel import TUNNEL_PROTOCOL, detunnel, tunnel_packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator

#: Cache-miss sentinel (``None`` is a valid cached lookup result).
_MISS = object()

#: Megaflow cache bound: IoT homes have few distinct 5-tuples, so the
#: cache normally holds tens of entries; the cap only guards pathological
#: traffic (e.g. a port-scanning attacker) from growing it without bound.
_LOOKUP_CACHE_MAX = 1024

_Entry = tuple[tuple[int, int, int], FlowRule]  # (rule.sort_key(), rule)


class Switch(Node):
    """A flow-table switch with controller punting and version filtering."""

    def __init__(self, name: str, sim: "Simulator") -> None:
        super().__init__(name, sim)
        self.active_version: Optional[int] = None
        self.packet_in_handler: Optional[Callable[["Switch", Packet, int], None]] = None
        self.punted = 0
        self.dropped = 0
        self.miss_drops = 0
        # The flow table is a bucket index: every rule lands in exactly one
        # bucket -- keyed by its concrete dst, else by its concrete src, else
        # the wildcard list -- so lookup scans only the buckets a packet's
        # dst/src can match.  Buckets are unordered (installs append); the
        # winner is the minimum precomputed sort key over matches, unique
        # because sort keys are totally ordered via rule_id.
        self._by_dst: dict[str, list[_Entry]] = {}
        self._by_src: dict[str, list[_Entry]] = {}
        self._wild: list[_Entry] = []
        # Megaflow cache (the OVS trick): the winning rule per concrete
        # 5-tuple + in_port.  Any table or epoch change clears it -- the
        # scan is the slow path, the cache hit is one dict probe.
        self._lookup_cache: dict[tuple, Optional[FlowRule]] = {}
        # Observability: callback gauges over the counters above -- they
        # cost nothing until a snapshot samples them.
        metrics = sim.metrics
        self.metric_labels = {"switch": metrics.unique(name)}
        metrics.gauge("switch_punted", fn=lambda: self.punted, **self.metric_labels)
        metrics.gauge("switch_dropped", fn=lambda: self.dropped, **self.metric_labels)
        metrics.gauge("switch_miss_drops", fn=lambda: self.miss_drops, **self.metric_labels)
        metrics.gauge("switch_table_size", fn=self.table_size, **self.metric_labels)

    # ------------------------------------------------------------------
    # Flow-table management (the controller calls these, via the channel)
    # ------------------------------------------------------------------
    def install(self, rule: FlowRule) -> None:
        """Install one rule (a batch of one)."""
        self.install_many([rule])

    def install_many(self, rules: list[FlowRule]) -> None:
        """Install a batch (an epoch, a posture round): O(1) per rule, no sort."""
        if not rules:
            return
        for rule in rules:
            entry = (rule.sort_key(), rule)
            if rule.match.dst is not None:
                self._by_dst.setdefault(rule.match.dst, []).append(entry)
            elif rule.match.src is not None:
                self._by_src.setdefault(rule.match.src, []).append(entry)
            else:
                self._wild.append(entry)
        self._lookup_cache.clear()

    def remove_where(self, predicate: Callable[[FlowRule], bool]) -> int:
        """Remove rules satisfying ``predicate`` (and emptied buckets); returns how many."""
        return self._retain(
            lambda bucket: [entry for entry in bucket if not predicate(entry[1])]
        )

    def remove_versions_before(self, active: int) -> int:
        """Garbage-collect every epoch older than ``active`` (the flip's GC).

        ``remove_where(lambda r: r.version is not None and r.version <
        active)`` with the test inlined: a flip visits every installed rule.
        """
        return self._retain(
            lambda bucket: [
                entry for entry in bucket
                if (version := entry[1].version) is None or version >= active
            ]
        )

    def _retain(self, keep: Callable[[list[_Entry]], list[_Entry]]) -> int:
        """Replace every bucket by ``keep(bucket)`` and drop emptied bucket
        keys; returns how many entries went."""
        kept = keep(self._wild)
        removed = len(self._wild) - len(kept)
        self._wild = kept
        for index in (self._by_dst, self._by_src):
            emptied = []
            for key, bucket in index.items():
                kept = keep(bucket)
                removed += len(bucket) - len(kept)
                if kept:
                    index[key] = kept
                else:
                    emptied.append(key)
            for key in emptied:
                del index[key]
        if removed:
            self._lookup_cache.clear()
        return removed

    def remove_version(self, version: int) -> int:
        """Remove all rules of a configuration epoch."""
        return self.remove_where(lambda r: r.version == version)

    def set_active_version(self, version: Optional[int]) -> None:
        """Flip the active configuration epoch (two-phase update commit)."""
        self.active_version = version
        self._lookup_cache.clear()

    def lookup(self, packet: Packet, in_port: int) -> Optional[FlowRule]:
        """Highest-priority live rule matching the packet, or None.

        A rule is live when it is version-independent or tagged with the
        active version.
        """
        active = self.active_version
        src = packet.src
        dst = packet.dst
        protocol = packet.protocol
        sport = packet.sport
        dport = packet.dport
        cache_key = (src, dst, protocol, sport, dport, in_port)
        cached = self._lookup_cache.get(cache_key, _MISS)
        if cached is not _MISS:
            return cached
        best: Optional[FlowRule] = None
        best_key: Optional[tuple[int, int, int]] = None
        for bucket in (
            self._by_dst.get(dst),
            self._by_src.get(src),
            self._wild,
        ):
            if not bucket:
                continue
            for key, rule in bucket:
                if best_key is not None and key >= best_key:
                    continue
                if rule.version is not None and rule.version != active:
                    continue
                # FlowMatch.matches, inlined over locals: this is the
                # innermost loop of the data path.
                m = rule.match
                if (
                    (m.src is None or m.src == src)
                    and (m.dst is None or m.dst == dst)
                    and (m.protocol is None or m.protocol == protocol)
                    and (m.sport is None or m.sport == sport)
                    and (m.dport is None or m.dport == dport)
                    and (m.in_port is None or m.in_port == in_port)
                ):
                    best, best_key = rule, key
        cache = self._lookup_cache
        if len(cache) >= _LOOKUP_CACHE_MAX:
            cache.clear()
        cache[cache_key] = best
        return best

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, in_port: int) -> None:
        if (
            packet.protocol == TUNNEL_PROTOCOL
            and packet.dst == self.name
            and packet.payload.get("inspected")
        ):
            # A µmbox returned an inspected packet: decapsulate and run it
            # through the table again.  The in_port is the cluster-facing
            # port, which the orchestrator's bypass rules key on -- that is
            # what prevents re-tunnelling loops.
            inner, __ = detunnel(packet)
            inner.meta["inspected"] = True
            self.on_packet(inner, in_port)
            return
        rule = self.lookup(packet, in_port)
        if rule is None:
            self._table_miss(packet, in_port)
            return
        rule.record_hit(packet)
        self._apply(rule.actions, packet, in_port)

    def _table_miss(self, packet: Packet, in_port: int) -> None:
        if self.packet_in_handler is not None:
            self.punted += 1
            self.packet_in_handler(self, packet, in_port)
        else:
            self.miss_drops += 1

    def _apply(self, actions: tuple[Action, ...], packet: Packet, in_port: int) -> None:
        # Ordered by data-path frequency: edge traffic is dominated by
        # tunnel/forward actions; drop/controller are the cold verdicts.
        for action in actions:
            kind = action.kind
            if kind == "tunnel":
                outer = tunnel_packet(packet, self.name, action.target)
                if action.via is not None:
                    # Address the outer packet to the cluster host so that
                    # intermediate switches can route it there.
                    outer.dst = action.via
                self.send(outer, action.port)
            elif kind == "forward":
                self.send(packet, action.port)
            elif kind == "drop":
                self.dropped += 1
            elif kind == "controller":
                self._table_miss(packet, in_port)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def flow_table(self) -> list[FlowRule]:
        """Every installed rule in lookup order (a fresh sorted view)."""
        buckets = chain(self._by_dst.values(), self._by_src.values())
        entries = sorted(chain(self._wild, *buckets), key=itemgetter(0))
        return [rule for __, rule in entries]

    def table_size(self) -> int:
        buckets = chain(self._by_dst.values(), self._by_src.values())
        return len(self._wild) + sum(map(len, buckets))

    def rules_for(self, device: str) -> list[FlowRule]:
        """Rules whose match names ``device`` as src or dst."""
        return [
            r for r in self.flow_table if device in (r.match.src, r.match.dst)
        ]
