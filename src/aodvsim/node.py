"""Per-node protocol state machine.

Handlers take an event plus the current tick and return a list of emissions
(sends, timer requests, local deliveries, drops) without doing any I/O
themselves; the engine owns transmission, timers and bookkeeping. All
iteration that produces emissions runs in ascending node id so a scenario
replays identically every time. A handler step emits one `Send` per packet,
naming all of its recipients in send order: a flood, a HELLO round or a RERR
is one `Send`, a unicast a `Send` to one node, and no `Send` is empty.
Packets are frozen and shared: every recipient of a flood gets the same
object. Emissions are single-use slotted records: the engine consumes each
one once, and nothing keeps or hashes one. The engine counts a repeat copy
of a request with `heard_before`; `on_rreq` sees first and TTL-0 copies only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .metrics import DiscoveryRecord, MetricsReport
from .protocol import (
    Data,
    Hello,
    NodeId,
    Packet,
    Rerr,
    RoutingEntry,
    Rrep,
    Rreq,
    RreqId,
    relay_transform,
)
from .suppression import ConnectivityState, SelectionView, Strategy


class InvalidDestination(Exception):
    """A node asked to discover a route to itself."""


def select_targets(strategy: Strategy, view: SelectionView, candidates: list[NodeId],
                   rng: random.Random) -> list[NodeId]:
    """The forwarding decision, one module-level name so it can be wrapped."""
    return strategy.select(view, candidates, rng)


# --- emissions ------------------------------------------------------------

@dataclass(slots=True)
class Send:
    to: Sequence[NodeId]    # the recipients, in send order; never empty
    packet: Packet


@dataclass(slots=True)
class SetTimer:
    kind: "TimerKind"
    at: int


@dataclass(slots=True)
class DeliverUp:
    payload_id: int
    src: NodeId


@dataclass(slots=True)
class Drop:
    packet: Packet
    reason: str


Emission = Send | SetTimer | DeliverUp | Drop


# --- timer kinds: each one fires its node's handler -----------------------

@dataclass(frozen=True)
class DiscoveryDeadline:
    dest: NodeId

    def fire(self, node: Node, now: int) -> list[Emission]:
        return node.on_discovery_timeout(self.dest, now)


@dataclass(frozen=True)
class AttemptSweep:
    rreq_id: RreqId

    def fire(self, node: Node, now: int) -> list[Emission]:
        return node.on_attempt_sweep(self.rreq_id, now)


@dataclass(frozen=True)
class RouteSweep:
    def fire(self, node: Node, now: int) -> list[Emission]:
        return node.on_route_sweep(now)


@dataclass(frozen=True)
class ForwardDecision:
    rreq_id: RreqId

    def fire(self, node: Node, now: int) -> list[Emission]:
        return node.on_forward_decision(self.rreq_id, now)


TimerKind = DiscoveryDeadline | AttemptSweep | RouteSweep | ForwardDecision


@dataclass
class ProtocolConfig:
    hello_interval: int = 10
    hello_timeout: int = 25
    route_lifetime: int = 50
    max_retries: int = 2               # total attempts allowed per discovery
    discovery_deadline: int | None = None   # default: 2 * node_count * hop delay
    intermediate_reply: bool = True

    def deadline_for(self, node_count: int) -> int:
        """How long a discovery attempt waits for its reply."""
        if self.discovery_deadline is not None:
            return self.discovery_deadline
        return 2 * node_count

    def min_round_spacing(self, node_count: int) -> int:
        """The least spacing between two rounds of one flow: four discovery deadlines."""
        return 4 * self.deadline_for(node_count)


@dataclass
class _Request:
    """What a node knows of one route request, kept per (originator, RREQ ID)
    as in RFC 3561. `senders` are the neighbors its copies came from, in
    arrival order without repeats; a reply goes back to each of them once."""
    senders: list[NodeId]
    copies: int = 1                 # copies heard; the originator counts its own
    replied: bool = False           # a reply was relayed back
    held: Rreq | None = None        # a forward from senders[0] awaiting its decision


@dataclass
class _Discovery:
    metrics_rec: DiscoveryRecord        # holds the destination and the attempt count
    rreq_id: RreqId | None = None
    deadline_at: int = 0
    queued: list[int] = field(default_factory=list)     # payload ids awaiting the route


class Node:
    def __init__(
        self,
        me: NodeId,
        config: ProtocolConfig,
        strategy: Strategy,
        node_count: int,
        metrics: MetricsReport,
        rng: random.Random,
        connectivity: ConnectivityState | None = None,
        position_of: Callable[[NodeId], tuple[float, float] | None] | None = None,
    ):
        self.me = me
        self.config = config
        self.strategy = strategy
        self.node_count = node_count
        self.metrics = metrics
        self.rng = rng
        self.conn = connectivity
        self.position_of = position_of

        self.seq = 0
        self.next_rreq_num = 0
        self.neighbors: dict[NodeId, int] = {}          # neighbor -> last tick heard
        self.routes: dict[NodeId, RoutingEntry] = {}
        self.requests: dict[RreqId, _Request] = {}
        self.pending_discoveries: dict[NodeId, _Discovery] = {}
        self.dest_seq_memory: dict[NodeId, int] = {}

    # -- derived constants

    @property
    def attempt_timeout(self) -> int:
        if self.conn is not None and self.conn.config.attempt_timeout is not None:
            return self.conn.config.attempt_timeout
        return self.config.deadline_for(self.node_count)

    # -- small helpers

    def valid_route(self, dest: NodeId, now: int) -> RoutingEntry | None:
        entry = self.routes.get(dest)
        if entry is not None and entry.expires_at > now:
            return entry
        return None

    def _distance_to(self, other: NodeId) -> float | None:
        if self.position_of is None:
            return None
        mine = self.position_of(self.me)
        theirs = self.position_of(other)
        if mine is None or theirs is None:
            return None
        return math.hypot(mine[0] - theirs[0], mine[1] - theirs[1])

    # -- originating traffic

    def send_data(self, dest: NodeId, payload_id: int, now: int, round_index: int | None = None) -> list[Emission]:
        if dest == self.me:
            return [DeliverUp(payload_id, self.me)]
        route = self.valid_route(dest, now)
        if route is not None:
            route.active = True
            return [Send((route.next_hop,), Data(self.me, dest, payload_id))]
        emissions: list[Emission] = []
        if dest not in self.pending_discoveries:
            emissions = self.initiate_discovery(dest, now, round_index)
        self.pending_discoveries[dest].queued.append(payload_id)
        return emissions

    def initiate_discovery(self, dest: NodeId, now: int, round_index: int | None = None) -> list[Emission]:
        if dest == self.me:
            raise InvalidDestination(f"node {self.me} cannot discover itself")
        assert dest not in self.pending_discoveries, "discovery already live"
        self.seq += 1
        rec = self.metrics.begin_discovery(self.me, dest, round_index, now)
        disc = _Discovery(rec)
        self.pending_discoveries[dest] = disc
        return self._launch_attempt(disc, now)

    def _launch_attempt(self, disc: _Discovery, now: int) -> list[Emission]:
        rid = RreqId(self.me, self.next_rreq_num)
        self.next_rreq_num += 1
        disc.rreq_id = rid
        disc.deadline_at = now + self.config.deadline_for(self.node_count)
        self.requests[rid] = _Request([])

        rec = disc.metrics_rec
        rreq = Rreq(
            rreq_id=rid,
            dest=rec.dest,
            dest_seq_known=self.dest_seq_memory.get(rec.dest),
            hop_count=0,
            ttl=self.strategy.attempt_ttl(rec.attempts - 1, self.node_count),
        )
        emissions = self._targeted_sends(rreq, previous_hop=None, now=now)
        emissions.append(SetTimer(DiscoveryDeadline(rec.dest), disc.deadline_at))
        return emissions

    def _targeted_sends(self, rreq: Rreq, previous_hop: NodeId | None, now: int) -> list[Emission]:
        """Run the suppression decision and open one attempt per chosen link."""
        candidates = sorted(n for n in self.neighbors if n != previous_hop)
        view = SelectionView(
            dest=rreq.dest,
            previous_hop=previous_hop,
            connectivity=self.conn,
            copies_heard=self.requests[rreq.rreq_id].copies,
            distance_to_previous=self._distance_to(previous_hop) if previous_hop is not None else None,
        )
        targets = select_targets(self.strategy, view, candidates, self.rng)
        if len(targets) < len(candidates):
            self.metrics.record("suppressed_forwards", len(candidates) - len(targets))
        if not targets:
            return []
        emissions: list[Emission] = [Send(targets, rreq)]
        if self.conn is not None:
            for t in targets:
                self.conn.open_attempt(rreq.dest, t, rreq.rreq_id)
            emissions.append(SetTimer(AttemptSweep(rreq.rreq_id), now + self.attempt_timeout))
        return emissions

    # -- request handling

    def heard_before(self, rreq: Rreq, frm: NodeId) -> bool:
        """Whether `rreq` is a repeat copy of a request already heard. A
        repeat is counted, and `frm` kept as one more reverse sender; RFC
        3561 then discards it. A TTL-0 copy is never a repeat: it dies in
        the air, and on_rreq drops it."""
        request = self.requests.get(rreq.rreq_id)
        if request is None or rreq.ttl == 0:
            return False
        request.copies += 1
        if frm not in request.senders:
            request.senders.append(frm)
        metrics = self.metrics
        metrics.redundant_rreq_rx += 1
        metrics.per_node_redundant_rx[self.me] = metrics.per_node_redundant_rx.get(self.me, 0) + 1
        return True

    def on_rreq(self, rreq: Rreq, frm: NodeId, now: int) -> list[Emission]:
        """A copy of a request that heard_before found new, or a TTL-0 copy."""
        if rreq.ttl == 0:
            # died in the air: no duplicate marking, no reply even at the target
            return [Drop(rreq, "ttl-expired")]
        assert rreq.rreq_id not in self.requests, "a repeat copy goes to heard_before"
        request = self.requests[rreq.rreq_id] = _Request([frm])

        if rreq.dest == self.me:
            self.seq += 1
            return [Send((frm,), Rrep(self.me, self.seq, 0, rreq.rreq_id))]

        if self.config.intermediate_reply:
            entry = self.valid_route(rreq.dest, now)
            fresh = entry is not None and (
                rreq.dest_seq_known is None or entry.dest_seq >= rreq.dest_seq_known
            )
            if fresh:
                return [Send((frm,), Rrep(rreq.dest, entry.dest_seq, entry.hop_count, rreq.rreq_id))]

        forwarded = relay_transform(rreq)
        if self.strategy.holds_forward:
            request.held = forwarded
            return [SetTimer(ForwardDecision(rreq.rreq_id), now + 1)]
        return self._targeted_sends(forwarded, previous_hop=frm, now=now)

    def on_forward_decision(self, rreq_id: RreqId, now: int) -> list[Emission]:
        request = self.requests.get(rreq_id)
        if request is None or request.held is None:
            return []
        forwarded, request.held = request.held, None
        return self._targeted_sends(forwarded, previous_hop=request.senders[0], now=now)

    # -- reply handling

    def on_rrep(self, rrep: Rrep, frm: NodeId, now: int, link_is_new: bool = False) -> list[Emission]:
        emissions: list[Emission] = []
        candidate_hops = rrep.hop_count + 1
        current = self.valid_route(rrep.dest, now)
        fresher = (
            current is None
            or rrep.dest_seq > current.dest_seq
            or (rrep.dest_seq == current.dest_seq and candidate_hops < current.hop_count)
        )
        if fresher:
            entry = self.routes[rrep.dest] = RoutingEntry(
                next_hop=frm, hop_count=candidate_hops, dest_seq=rrep.dest_seq,
                expires_at=now + self.config.route_lifetime,
                active=current is not None and current.active)
            emissions.append(SetTimer(RouteSweep(), entry.expires_at))
        self._note_dest_seq(rrep.dest, rrep.dest_seq)

        if self.conn is not None:
            credited = self.conn.resolve_attempt(rrep.dest, frm, rrep.rreq_id, success=True)
            if credited and link_is_new:
                self.conn.boost_new_link(rrep.dest, frm)

        if rrep.rreq_id.origin == self.me:
            disc = self.pending_discoveries.pop(rrep.dest, None)
            if disc is not None:
                # fresher or not, the reply leaves a valid route to dest
                route = self.routes[rrep.dest]
                self.metrics.resolve_discovery(disc.metrics_rec, now, route.hop_count)
                if disc.queued:
                    route.active = True
                    emissions.extend(Send((route.next_hop,), Data(self.me, rrep.dest, pid))
                                     for pid in disc.queued)
            return emissions

        request = self.requests.get(rrep.rreq_id)
        if request is None:
            emissions.append(Drop(rrep, "no-reverse-path"))
            return emissions
        if request.replied:
            return emissions
        request.replied = True
        targets = [p for p in request.senders if p != frm and p in self.neighbors]
        if targets:
            emissions.append(Send(targets, relay_transform(rrep)))
        return emissions

    # -- timers

    def on_discovery_timeout(self, dest: NodeId, now: int) -> list[Emission]:
        disc = self.pending_discoveries.get(dest)
        if disc is None or now < disc.deadline_at:
            return []   # resolved earlier, or a newer attempt reset the deadline
        if self.conn is not None and disc.rreq_id is not None:
            self.conn.fail_pending(disc.rreq_id)
        if disc.metrics_rec.attempts < self.config.max_retries:
            disc.metrics_rec.attempts += 1
            return self._launch_attempt(disc, now)
        del self.pending_discoveries[dest]
        self.metrics.fail_discovery(disc.metrics_rec)
        return [Drop(Data(self.me, dest, pid), "discovery-failed") for pid in disc.queued]

    def on_attempt_sweep(self, rreq_id: RreqId, now: int) -> list[Emission]:
        if self.conn is not None:
            self.conn.fail_pending(rreq_id)
        return []

    def on_route_sweep(self, now: int) -> list[Emission]:
        for dest in [d for d, e in self.routes.items() if e.expires_at <= now]:
            del self.routes[dest]
        return []

    # -- liveness and failure

    def on_hello_tick(self, now: int, link_peers: list[NodeId]) -> list[Emission]:
        emissions: list[Emission] = [Send(sorted(link_peers), Hello(self.me))] if link_peers else []
        cutoff = now - self.config.hello_timeout
        stale = sorted(n for n, last in self.neighbors.items() if last < cutoff)
        for neighbor in stale:
            emissions.extend(self.on_link_break(neighbor, now))
        return emissions

    def on_hello(self, hello: Hello, frm: NodeId, now: int) -> list[Emission]:
        """Unused: a HELLO only proves the link, and the engine stamps
        `neighbors` itself on every reception. Kept because the benchmark's
        per-layer spans wrap this name; it goes when they stop."""
        return []

    def on_link_break(self, lost: NodeId, now: int) -> list[Emission]:
        self.neighbors.pop(lost, None)
        return self._lose_routes(sorted(self.routes), now, lost)

    def on_rerr(self, rerr: Rerr, frm: NodeId, now: int) -> list[Emission]:
        for dest, seq in rerr.unreachable:
            self._note_dest_seq(dest, seq)
        return self._lose_routes([dest for dest, _ in rerr.unreachable], now, frm)

    def _lose_routes(self, dests: list[NodeId], now: int, frm: NodeId) -> list[Emission]:
        """Drop each valid route among `dests` whose next hop is `frm` (the
        lost neighbor or the RERR's sender), report them in one RERR to every
        other neighbor, and rediscover those that carried data. Only routes
        lost here propagate further."""
        dead: list[tuple[NodeId, RoutingEntry]] = []
        for dest in dests:
            entry = self.routes.get(dest)
            if entry is not None and entry.next_hop == frm and entry.expires_at > now:
                del self.routes[dest]
                dead.append((dest, entry))
        if not dead:
            return []
        rerr = Rerr(tuple((dest, entry.dest_seq) for dest, entry in dead))
        others = [n for n in sorted(self.neighbors) if n != frm]
        emissions: list[Emission] = [Send(others, rerr)] if others else []
        for dest, entry in dead:
            if entry.active and dest not in self.pending_discoveries and dest != self.me:
                emissions.extend(self.initiate_discovery(dest, now))
        return emissions

    def _note_dest_seq(self, dest: NodeId, seq: int) -> None:
        """Keep the highest sequence number heard for `dest`."""
        self.dest_seq_memory[dest] = max(seq, self.dest_seq_memory.get(dest, seq))

    # -- payload forwarding

    def on_data(self, data: Data, frm: NodeId, now: int) -> list[Emission]:
        if data.dst == self.me:
            return [DeliverUp(data.payload_id, data.src)]
        route = self.valid_route(data.dst, now)
        if route is None:
            return [Drop(data, "no-route")]
        return [Send((route.next_hop,), data)]
