"""Per-node protocol state machine.

Handlers take an event plus the current tick, change the node's state and
act through `net`, the engine of the run, with four calls made in the order
the steps happen; a handler returns nothing and does no I/O itself:

- `net.transmit(me, to, packet)` sends one packet to each of `to`, in order;
- `net.set_timer(me, at, kind)` fires `kind` at this node at tick `at` > now;
- `net.deliver_up(me, payload_id, src)` hands a payload to the application;
- `net.drop(me, packet, reason)` gives up on a packet.

A step makes one `transmit` per packet, naming all of its recipients in send
order: a flood, a HELLO round or a RERR is one call, a unicast a call to one
node, and no call names nobody. All iteration that picks recipients runs in
ascending node id so a scenario replays identically every time. Packets are
written once (a test checks it) and shared: every recipient of a flood gets
the same object, and a relay builds its own. The engine counts a repeat copy
of a request with `heard_before`; `on_rreq` sees first and TTL-0 copies only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import takewhile
from typing import Callable

from .metrics import DiscoveryRecord, MetricsReport
from .protocol import (
    Data,
    Hello,
    NodeId,
    Rerr,
    RoutingEntry,
    Rrep,
    Rreq,
    RreqId,
)
from .suppression import Strategy


def select_targets(strategy: Strategy, node: Node, candidates: list[NodeId],
                   rreq: Rreq) -> list[NodeId]:
    """The forwarding decision, one module-level name so it can be wrapped."""
    return strategy.select(node, rreq, candidates)


# --- timer kinds: each one fires its node's handler -----------------------

@dataclass(slots=True)
class DiscoveryDeadline:
    """When the attempt `_launch_attempt` made for `disc` gives up."""
    disc: DiscoveryRecord

    def fire(self, node: Node, now: int) -> None:
        node.on_discovery_timeout(self.disc, now)


@dataclass(slots=True)
class AttemptSweep:
    rreq_id: RreqId

    def fire(self, node: Node, now: int) -> None:
        node.on_attempt_sweep(self.rreq_id, now)


@dataclass(frozen=True)
class RouteSweep:
    def fire(self, node: Node, now: int) -> None:
        node.on_route_sweep(now)


_ROUTE_SWEEP = RouteSweep()     # it has no fields, so every route expiry shares one


@dataclass(slots=True)
class ForwardDecision:
    forwarded: Rreq

    def fire(self, node: Node, now: int) -> None:
        node.on_forward_decision(self.forwarded, now)


TimerKind = DiscoveryDeadline | AttemptSweep | RouteSweep | ForwardDecision


@dataclass(frozen=True)
class ProtocolConfig:
    hello_interval: int = 10
    hello_timeout: int = 25
    route_lifetime: int = 50
    max_retries: int = 2               # total attempts allowed per discovery
    discovery_deadline: int | None = None   # default: 2 * node_count
    intermediate_reply: bool = True

    def deadline_for(self, node_count: int) -> int:
        """How long a discovery attempt waits for its reply."""
        if self.discovery_deadline is not None:
            return self.discovery_deadline
        return 2 * node_count

    def min_round_spacing(self, node_count: int) -> int:
        """The least spacing between two rounds of one flow: four discovery deadlines."""
        return 4 * self.deadline_for(node_count)


@dataclass(slots=True)
class _Request:
    """What a node knows of one route request, kept per (originator, RREQ ID)
    as in RFC 3561. `senders` are the neighbors its copies came from, in
    arrival order, the first of them the previous hop of a relay's forward
    (an originator's list starts empty); a node relays each RREQ ID once, so
    no sender repeats, and a reply goes back to each of them once.

    Making a record drops those made over H = 2 * node_count * (largest link
    delay + 1) ticks before, RFC 3561's PATH_DISCOVERY_TIME: no step reads
    them, as a copy and its reply each walk at most node_count - 1 hops (each
    node forwards and relays once) of at most the largest delay plus one tick."""
    made_at: int                    # the tick the node made it
    senders: list[NodeId]
    replied: bool = False           # a reply was relayed back


class Node:
    def __init__(
        self,
        me: NodeId,
        net,
        config: ProtocolConfig,
        strategy: Strategy,
        node_count: int,
        metrics: MetricsReport,
        rng: random.Random,
        horizon: float,
        position_of: Callable[[NodeId], tuple[float, float] | None] | None = None,
    ):
        self.me = me
        self.net = net      # the engine, or a stand-in that records the calls
        self.config = config
        self.strategy = strategy
        self.node_count = node_count
        self.metrics = metrics
        self.rng = rng
        self.horizon = horizon      # H of _Request, worked out by the engine
        self.conn = strategy.node_state()      # link statistics, if the strategy keeps any
        self.position_of = position_of

        self.seq = 0
        self.next_rreq_num = 0
        self.neighbors: dict[NodeId, int] = {}          # neighbor -> last tick heard
        self.routes: dict[NodeId, RoutingEntry] = {}
        self.requests: dict[RreqId, _Request] = {}
        # dest -> the report's own record of the open discovery
        self.pending_discoveries: dict[NodeId, DiscoveryRecord] = {}
        self.dest_seq_memory: dict[NodeId, int] = {}

    # -- small helpers

    def valid_route(self, dest: NodeId, now: int) -> RoutingEntry | None:
        entry = self.routes.get(dest)
        if entry is not None and entry.expires_at > now:
            return entry
        return None

    # -- originating traffic

    def send_data(self, dest: NodeId, payload_id: int, now: int, round_index: int | None = None) -> None:
        """`dest` is never this node: a validated scenario has no flow to itself."""
        route = self.valid_route(dest, now)
        if route is not None:
            route.active = True
            self.net.transmit(self.me, (route.next_hop,), Data(self.me, dest, payload_id))
            return
        if dest not in self.pending_discoveries:
            self.initiate_discovery(dest, now, round_index)
        self.pending_discoveries[dest].queued.append(payload_id)

    def initiate_discovery(self, dest: NodeId, now: int, round_index: int | None = None) -> None:
        assert dest not in self.pending_discoveries, "discovery already live"
        self.seq += 1
        disc = self.metrics.begin_discovery(self.me, dest, round_index, now)
        self.pending_discoveries[dest] = disc
        self._launch_attempt(disc, now)

    def _launch_attempt(self, disc: DiscoveryRecord, now: int) -> None:
        rid = RreqId(self.me, self.next_rreq_num)
        self.next_rreq_num += 1
        self._make_request(rid, [], now)

        rreq = Rreq(
            rreq_id=rid,
            dest=disc.dest,
            dest_seq_known=self.dest_seq_memory.get(disc.dest),
            hop_count=0,
            ttl=self.strategy.attempt_ttl(disc.attempts - 1, self.node_count),
        )
        self._targeted_sends(rreq, now)
        self.net.set_timer(self.me, now + self.config.deadline_for(self.node_count),
                           DiscoveryDeadline(disc))

    def _make_request(self, rid: RreqId, senders: list[NodeId], now: int) -> None:
        """Record `rid`; first drop, oldest first, those made over `horizon` ticks ago."""
        requests, cutoff = self.requests, now - self.horizon
        if requests and next(iter(requests.values())).made_at < cutoff:
            for old, _ in list(takewhile(lambda e: e[1].made_at < cutoff, requests.items())):
                del requests[old]
        requests[rid] = _Request(now, senders)

    def _targeted_sends(self, rreq: Rreq, now: int) -> None:
        """Run the suppression decision and open one attempt per chosen link."""
        senders = self.requests[rreq.rreq_id].senders
        previous_hop = senders[0] if senders else None
        candidates = [n for n in self.neighbors if n != previous_hop]
        candidates.sort()
        targets = select_targets(self.strategy, self, candidates, rreq)
        if len(targets) < len(candidates):
            self.metrics.record("suppressed_forwards", len(candidates) - len(targets))
        if not targets:
            return
        self.net.transmit(self.me, targets, rreq)
        if self.conn is not None:
            for t in targets:
                self.conn.open_attempt(rreq.dest, t, rreq.rreq_id)
            # open for one discovery deadline: at an originator this sweep is queued
            # before its DiscoveryDeadline, so it closes the attempts on that tick first
            self.net.set_timer(self.me, now + self.config.deadline_for(self.node_count),
                               AttemptSweep(rreq.rreq_id))

    # -- request handling

    def heard_before(self, rreq: Rreq, frm: NodeId) -> bool:
        """Whether `rreq` is a repeat copy of a request already heard. A
        repeat is counted, and `frm` kept as one more reverse sender; RFC
        3561 then discards it. A TTL-0 copy is never a repeat: it dies in
        the air, and on_rreq drops it."""
        request = self.requests.get(rreq.rreq_id)
        if request is None or rreq.ttl == 0:
            return False
        request.senders.append(frm)
        metrics = self.metrics
        metrics.redundant_rreq_rx += 1
        counts = metrics.per_node_redundant_rx
        counts[self.me] = counts.get(self.me, 0) + 1
        return True

    def on_rreq(self, rreq: Rreq, frm: NodeId, now: int) -> None:
        """A copy of a request that heard_before found new, or a TTL-0 copy."""
        if rreq.ttl == 0:
            # died in the air: no duplicate marking, no reply even at the target
            self.net.drop(self.me, rreq, "ttl-expired")
            return
        assert rreq.rreq_id not in self.requests, "a repeat copy goes to heard_before"
        self._make_request(rreq.rreq_id, [frm], now)

        if rreq.dest == self.me:
            self.seq += 1
            self.net.transmit(self.me, (frm,), Rrep(self.me, self.seq, 0, rreq.rreq_id))
            return

        if self.config.intermediate_reply:
            entry = self.valid_route(rreq.dest, now)
            fresh = entry is not None and (
                rreq.dest_seq_known is None or entry.dest_seq >= rreq.dest_seq_known
            )
            if fresh:
                self.net.transmit(self.me, (frm,),
                                  Rrep(rreq.dest, entry.dest_seq, entry.hop_count, rreq.rreq_id))
                return

        forwarded = Rreq(rreq.rreq_id, rreq.dest, rreq.dest_seq_known, rreq.hop_count + 1,
                         rreq.ttl - 1)
        if self.strategy.holds_forward:
            self.net.set_timer(self.me, now + 1, ForwardDecision(forwarded))
            return
        self._targeted_sends(forwarded, now)

    def on_forward_decision(self, forwarded: Rreq, now: int) -> None:
        if forwarded.rreq_id not in self.requests:
            return
        self._targeted_sends(forwarded, now)

    # -- reply handling

    def on_rrep(self, rrep: Rrep, frm: NodeId, now: int, link_is_new: bool = False) -> None:
        # only here is a route installed, its number noted with it: a valid
        # route's dest_seq never exceeds dest_seq_memory, so a staler reply notes nothing
        net = self.net
        candidate_hops = rrep.hop_count + 1
        route = self.routes.get(rrep.dest)
        if route is not None and route.expires_at <= now:
            route = None
        if (route is None or rrep.dest_seq > route.dest_seq
                or (rrep.dest_seq == route.dest_seq and candidate_hops < route.hop_count)):
            route = self.routes[rrep.dest] = RoutingEntry(
                next_hop=frm, hop_count=candidate_hops, dest_seq=rrep.dest_seq,
                expires_at=now + self.config.route_lifetime,
                active=route is not None and route.active)
            net.set_timer(self.me, route.expires_at, _ROUTE_SWEEP)
            self._note_dest_seq(rrep.dest, rrep.dest_seq)

        if self.conn is not None:
            credited = self.conn.resolve_attempt(rrep.dest, frm, rrep.rreq_id, success=True)
            if credited and link_is_new:
                self.conn.boost_new_link(rrep.dest, frm)

        if rrep.rreq_id.origin == self.me:
            disc = self.pending_discoveries.pop(rrep.dest, None)
            if disc is not None:
                # fresher or not, the reply leaves `route` valid to dest
                self.metrics.resolve_discovery(disc, now, route.hop_count)
                if disc.queued:
                    route.active = True
                    for pid in disc.queued:
                        net.transmit(self.me, (route.next_hop,), Data(self.me, rrep.dest, pid))
            return

        request = self.requests.get(rrep.rreq_id)
        if request is None:
            net.drop(self.me, rrep, "no-reverse-path")
            return
        if request.replied:
            return
        request.replied = True
        targets = [p for p in request.senders if p != frm and p in self.neighbors]
        if targets:
            net.transmit(self.me, targets,
                         Rrep(rrep.dest, rrep.dest_seq, candidate_hops, rrep.rreq_id))

    # -- timers

    def on_discovery_timeout(self, disc: DiscoveryRecord, now: int) -> None:
        """Retry or fail `disc` if it is still its dest's open record. Only
        `_launch_attempt` sets this timer, and a retry starts only from the one
        firing, so an open record's deadline is always its latest attempt's."""
        if self.pending_discoveries.get(disc.dest) is not disc:
            return
        if disc.attempts < self.config.max_retries:
            disc.attempts += 1
            self._launch_attempt(disc, now)
            return
        del self.pending_discoveries[disc.dest]
        self.metrics.fail_discovery(disc)
        for pid in disc.queued:
            self.net.drop(self.me, Data(self.me, disc.dest, pid), "discovery-failed")

    def on_attempt_sweep(self, rreq_id: RreqId, now: int) -> None:
        """An AttemptSweep is set only when `conn` exists."""
        self.conn.fail_pending(rreq_id)

    def on_route_sweep(self, now: int) -> None:
        for dest in [d for d, e in self.routes.items() if e.expires_at <= now]:
            del self.routes[dest]

    # -- liveness and failure

    def on_hello_tick(self, now: int, link_peers: list[NodeId]) -> None:
        """`link_peers` are this node's live peers in ascending id."""
        if link_peers:
            self.net.transmit(self.me, link_peers, Hello(self.me))
        cutoff = now - self.config.hello_timeout
        stale = [n for n, last in self.neighbors.items() if last < cutoff]
        stale.sort()
        for neighbor in stale:
            self.on_link_break(neighbor, now)

    def on_hello(self, hello: Hello, frm: NodeId, now: int) -> None:
        """Unused: a HELLO only proves the link, and the engine stamps
        `neighbors` itself on every reception. Kept because the benchmark's
        per-layer spans wrap this name; it goes when they stop."""

    def on_link_break(self, lost: NodeId, now: int) -> None:
        self.neighbors.pop(lost, None)
        through = [dest for dest, e in self.routes.items() if e.next_hop == lost]
        through.sort()
        self._lose_routes(through, now, lost)

    def on_rerr(self, rerr: Rerr, frm: NodeId, now: int) -> None:
        for dest, seq in rerr.unreachable:
            self._note_dest_seq(dest, seq)
        self._lose_routes([dest for dest, _ in rerr.unreachable], now, frm)

    def _lose_routes(self, dests: list[NodeId], now: int, frm: NodeId) -> None:
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
            return
        rerr = Rerr(tuple((dest, entry.dest_seq) for dest, entry in dead))
        others = [n for n in sorted(self.neighbors) if n != frm]
        if others:
            self.net.transmit(self.me, others, rerr)
        for dest, entry in dead:
            if entry.active and dest not in self.pending_discoveries:
                self.initiate_discovery(dest, now)

    def _note_dest_seq(self, dest: NodeId, seq: int) -> None:
        """Keep the highest sequence number heard for `dest`; written only on a rise."""
        known = self.dest_seq_memory.get(dest)
        if known is None or seq > known:
            self.dest_seq_memory[dest] = seq

    # -- payload forwarding

    def on_data(self, data: Data, frm: NodeId, now: int) -> None:
        if data.dst == self.me:
            self.net.deliver_up(self.me, data.payload_id, data.src)
            return
        route = self.valid_route(data.dst, now)
        if route is None:
            self.net.drop(self.me, data, "no-route")
            return
        self.net.transmit(self.me, (route.next_hop,), data)
