"""Deterministic discrete-event engine.

Integer ticks; a queue entry is (tick, insertion sequence, handler, args) and
runs as `handler(engine, *args)`, so a scenario plus a seed fixes the entire
run. Transmission, link state, scripted losses, mobility, metrics and tracing
live here; protocol behavior lives in the per-node state machines.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

from .metrics import MetricsReport
from .node import DeliverUp, Drop, Node, RouteSweep, Send, SetTimer, TimerKind
from .protocol import Hello, NodeId, Packet, Rerr, Rrep, Rreq, summarize
from .scenario import DropEvent, LinkEvent, RandomWaypoint, Scenario, pairs_in_range


@dataclass
class _Motion:
    """A node's walk; its position is the engine's `positions` entry."""
    waypoint: tuple[float, float]
    speed: float
    pause_left: int


class Engine:
    def __init__(self, scenario: Scenario, trace: TextIO | None = None):
        scenario.validate()
        self.scenario = scenario
        self.trace = trace
        # trace-only: node labels by id, and the last packet summarized with its text
        self._labels = [n.name for n in scenario.nodes] if trace is not None else None
        self._last_packet, self._last_text = None, ""
        self.now = 0
        self.metrics = MetricsReport()
        self.rng = random.Random(scenario.seed)
        # handlers are stored as plain functions: a bound method would make
        # each entry refer back to the engine, so a finished engine with
        # entries left would wait for the cycle collector
        self._queue: list[tuple[int, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._ids = ids = scenario.node_ids()

        # link state: each node's live peers with their delay, the live pairs,
        # and the configured delay for every known pair; pairs are keyed
        # (low, high). Only apply_link_event changes a live link.
        self._adj: list[dict[NodeId, int]] = [{} for _ in range(scenario.node_count)]
        self.base_delay: dict[tuple[NodeId, NodeId], int] = {}
        for a, b, delay in scenario.links_by_id():
            self.base_delay[(min(a, b), max(a, b))] = delay
            self._adj[a][b] = self._adj[b][a] = delay
        self._live_pairs: set[tuple[NodeId, NodeId]] = set(self.base_delay)
        self.new_links: set[tuple[NodeId, NodeId]] = set()
        self.loss_filter: set[tuple[int, NodeId, NodeId]] = set()

        self.positions: dict[NodeId, tuple[float, float]] = {
            i: n.pos for i, n in enumerate(scenario.nodes) if n.pos is not None}
        self._motion: dict[NodeId, _Motion] | None = None
        if scenario.mobility is not None:
            self._init_mobility(scenario.mobility)

        self.nodes: list[Node] = []
        for i in range(scenario.node_count):
            self.nodes.append(Node(
                me=i,
                config=scenario.params,
                strategy=scenario.strategy,
                node_count=scenario.node_count,
                metrics=self.metrics,
                rng=self.rng,
                connectivity=scenario.strategy.node_state(scenario.per_neighbor_aggregate),
                position_of=self.positions.get if self.positions else None,
            ))
        for a, peers in enumerate(self._adj):
            for b in peers:
                self.nodes[a].neighbors[b] = 0

        # scripted events first so same-tick ordering favors topology changes,
        # then traffic, then the recurring ticks
        for ev in scenario.events:
            if isinstance(ev, DropEvent):
                self.loss_filter.add((ev.at, ids[ev.frm], ids[ev.to]))
            else:
                self._push(ev.at, Engine._link_change, ev.kind, ids[ev.a], ids[ev.b])
        payload = 0
        for flow in scenario.traffic:
            for r in range(flow.rounds):
                at = flow.start + r * flow.spacing
                self._push(at, Engine._inject, ids[flow.origin], ids[flow.dest], payload + r, r)
                if at > scenario.t_max:
                    break       # later rounds never run; this one marks the run as cut short
            payload += flow.rounds
        # HELLO elision. On static links with no drop on a hello tick, a node
        # has heard every neighbor at most one interval before each of its
        # hello ticks, or still holds the tick-0 stamp that delay + interval
        # <= timeout keeps fresh. No neighbor goes stale, so only a trace
        # could observe a HELLO, and run() counts them instead of queueing them.
        p = scenario.params
        self._hellos_elided = (
            trace is None and self._motion is None
            and not any(isinstance(ev, LinkEvent) for ev in scenario.events)
            and all(at % p.hello_interval for at, _, _ in self.loss_filter)
            and max(self.base_delay.values(), default=0) + p.hello_interval <= p.hello_timeout)
        if not self._hellos_elided:
            for i in range(scenario.node_count):
                self._push(0, Engine._hello_tick, i)
        if self._motion is not None:
            self._push(1, Engine._mobility_tick)

    # -- infrastructure

    def _push(self, at: int, handler: Callable, *args) -> None:
        heapq.heappush(self._queue, (at, next(self._seq), handler, args))

    def _trace(self, node: NodeId, kind: str, detail: str = "") -> None:
        """Write one trace line. Every caller tests `self.trace is not None`
        first, so a run without a trace file formats nothing."""
        self.trace.write(f"{self.now}\t{self._labels[node]}\t{kind}\t{detail}\n")

    def _summarize(self, packet: Packet) -> str:
        """summarize(packet), reused while one packet object repeats: a
        flood's copies share one object across deliver and drop lines."""
        if packet is not self._last_packet:
            self._last_packet = packet
            self._last_text = summarize(packet)
        return self._last_text

    def _init_mobility(self, spec: RandomWaypoint) -> None:
        self._mobility_spec = spec
        self._mobility_rng = random.Random(self.scenario.seed ^ 0x5F5E1)
        rng = self._mobility_rng
        w, h = spec.area
        self._motion = {}
        for i in range(self.scenario.node_count):
            if i not in self.positions:
                self.positions[i] = (rng.uniform(0, w), rng.uniform(0, h))
            self._motion[i] = _Motion(
                waypoint=(rng.uniform(0, w), rng.uniform(0, h)),
                speed=rng.uniform(*spec.speed),
                pause_left=0,
            )
        # under mobility the link set is purely position-derived
        self._adj = [{} for _ in range(self.scenario.node_count)]
        self._live_pairs = set()
        self._recompute_links()

    # -- link handling

    @property
    def live_links(self) -> dict[frozenset, int]:
        """The current links as {frozenset((a, b)): delay}; a copy."""
        return {frozenset((a, b)): self._adj[a][b] for a, b in self._live_pairs}

    def apply_link_event(self, kind: str, a: NodeId, b: NodeId) -> None:
        """Engine-level topology change; nodes only notice via HELLO silence."""
        key = (min(a, b), max(a, b))
        if kind == "link_down":
            self._adj[a].pop(b, None)
            self._adj[b].pop(a, None)
            self.new_links.discard(key)
            self._live_pairs.discard(key)
        elif b not in self._adj[a]:
            self._adj[a][b] = self._adj[b][a] = self.base_delay.get(key, 1)
            self.new_links.add(key)
            self._live_pairs.add(key)

    def link_peers(self, node: NodeId) -> list[NodeId]:
        return sorted(self._adj[node])

    def transmit(self, frm: NodeId, to: Sequence[NodeId], packet: Packet,
                 pending: dict[int, list[tuple[Packet, list[NodeId]]]]) -> None:
        """Send `packet` to each of `to` in order: count a loss for each
        recipient without a live link or with a scripted drop, and queue every
        other one in `pending` under its link delay, in one (packet,
        recipients) group per delay."""
        peers = self._adj[frm]
        metrics = self.metrics
        kind = type(packet)
        groups: dict[int, list[NodeId]] = {}
        sent = 0
        for t in to:
            delay = peers.get(t)
            if delay is None or self.loss_filter and (self.now, frm, t) in self.loss_filter:
                metrics.losses += 1
                if self.trace is not None:
                    self._trace(frm, "loss", f"link-absent to={self._labels[t]}" if delay is None
                                else f"scripted to={self._labels[t]} {self._summarize(packet)}")
                continue
            sent += 1
            if kind is Rreq:
                metrics.per_link_rreq_tx[frm, t] = metrics.per_link_rreq_tx.get((frm, t), 0) + 1
            group = groups.get(delay)
            if group is None:
                group = groups[delay] = []
                pending.setdefault(delay, []).append((packet, group))
            group.append(t)
        if not sent:
            return
        if kind is Hello:
            metrics.hello_tx += sent
        elif kind is Rreq:
            metrics.rreq_tx += sent
            metrics.per_node_rreq_tx[frm] = metrics.per_node_rreq_tx.get(frm, 0) + sent
        elif kind is Rrep:
            metrics.rrep_tx += sent
        elif kind is Rerr:
            metrics.rerr_tx += sent
        else:
            metrics.data_tx += sent

    # -- mobility

    def _recompute_links(self) -> None:
        pos = [self.positions[i] for i in range(self.scenario.node_count)]
        wanted = set(pairs_in_range(pos, self._mobility_spec.radio_range))
        for a, b in sorted(self._live_pairs - wanted):
            self.apply_link_event("link_down", a, b)
            if self.trace is not None:
                self._trace(a, "link-down", f"range {self._labels[b]}")
        for a, b in sorted(wanted - self._live_pairs):
            self.apply_link_event("link_up", a, b)
            if self.trace is not None:
                self._trace(a, "link-up", f"range {self._labels[b]}")

    def _advance_motion(self) -> None:
        rng = self._mobility_rng
        spec = self._mobility_spec
        w, h = spec.area
        for i in sorted(self._motion):
            m = self._motion[i]
            if m.pause_left > 0:
                m.pause_left -= 1
                if m.pause_left == 0:
                    m.waypoint = (rng.uniform(0, w), rng.uniform(0, h))
                    m.speed = rng.uniform(*spec.speed)
                continue
            x, y = self.positions[i]
            dx = m.waypoint[0] - x
            dy = m.waypoint[1] - y
            dist = math.hypot(dx, dy)
            if dist <= m.speed:
                self.positions[i] = m.waypoint
                m.pause_left = max(1, spec.pause)
            else:
                self.positions[i] = (x + dx / dist * m.speed, y + dy / dist * m.speed)

    # -- queue entry handlers

    def _deliver(self, frm: NodeId, groups: list[tuple[Packet, list[NodeId]]]) -> None:
        """Every packet one handler call sent that lands on this tick, as
        (packet, recipients) groups in send order. Nothing can run between
        them (one entry each would have been adjacent), so they share one
        entry. A packet's handler and trace text are worked out once for all
        of its recipients; a repeat RREQ copy is counted and goes no further."""
        write = self.trace.write if self.trace is not None else None
        labels = self._labels
        now = self.now
        peers = self._adj[frm]
        for pkt, recipients in groups:
            kind = type(pkt)
            handle = (None if kind is Hello else Node.on_rreq if kind is Rreq else Node.on_rrep
                      if kind is Rrep else Node.on_rerr if kind is Rerr else Node.on_data)
            if write is not None:
                text = self._summarize(pkt)
                tail = f"\tfrom={labels[frm]} {text}\n"
            for to in recipients:
                live = to in peers
                if write is not None:
                    write(f"{now}\t{labels[to]}\t{'deliver' if live else 'deliver-cancelled'}{tail}")
                if not live:
                    continue
                node = self.nodes[to]
                node.neighbors[frm] = now       # any reception proves the link
                if handle is None:
                    continue                    # a HELLO does nothing more
                if kind is Rreq and node.heard_before(pkt, frm):
                    if write is not None:
                        write(f"{now}\t{labels[to]}\tdrop\tduplicate-rreq {text}\n")
                    continue
                if kind is Rrep:
                    key = (min(frm, to), max(frm, to))
                    fresh = key in self.new_links
                    self.new_links.discard(key)
                    emissions = handle(node, pkt, frm, now, link_is_new=fresh)
                else:
                    emissions = handle(node, pkt, frm, now)
                if emissions:
                    self._handle_emissions(to, emissions)

    def _timer(self, node: NodeId, kind: TimerKind) -> None:
        if self.trace is not None:
            self._trace(node, "timer", type(kind).__name__)
        self._handle_emissions(node, kind.fire(self.nodes[node], self.now))

    def _hello_tick(self, node: NodeId) -> None:
        if self.trace is not None:
            self._trace(node, "hello-tick")
        emissions = self.nodes[node].on_hello_tick(self.now, self.link_peers(node))
        self._handle_emissions(node, emissions)
        nxt = self.now + self.scenario.params.hello_interval
        if nxt <= self.scenario.t_max:
            self._push(nxt, Engine._hello_tick, node)

    def _inject(self, node: NodeId, dest: NodeId, payload_id: int, round_index: int) -> None:
        if self.trace is not None:
            self._trace(node, "inject", f"dest={self._labels[dest]} round={round_index}")
        emissions = self.nodes[node].send_data(dest, payload_id, self.now, round_index)
        self._handle_emissions(node, emissions)

    def _link_change(self, kind: str, a: NodeId, b: NodeId) -> None:
        if self.trace is not None:
            self._trace(a, kind.replace("_", "-"), self._labels[b])
        self.apply_link_event(kind, a, b)

    def _mobility_tick(self) -> None:
        self._advance_motion()
        self._recompute_links()
        if self.now + 1 <= self.scenario.t_max:
            self._push(self.now + 1, Engine._mobility_tick)

    def _handle_emissions(self, node: NodeId, emissions) -> None:
        # consecutive sends are grouped by delay into one delivery entry per
        # tick; the groups are pushed before any other emission, so a timer
        # set between two sends keeps its place in the queue between them
        pending: dict[int, list[tuple[Packet, list[NodeId]]]] = {}
        for e in emissions:
            if type(e) is Send:
                self.transmit(node, e.to, e.packet, pending)
                continue
            if pending:
                self._push_sends(node, pending)
                pending = {}
            if isinstance(e, SetTimer):
                self._push(max(e.at, self.now), Engine._timer, node, e.kind)
            elif isinstance(e, DeliverUp):
                if self.trace is not None:
                    self._trace(node, "deliver-up",
                                f"payload={e.payload_id} src={self._labels[e.src]}")
            elif isinstance(e, Drop) and self.trace is not None:
                self._trace(node, "drop", f"{e.reason} {self._summarize(e.packet)}")
        if pending:
            self._push_sends(node, pending)

    def _push_sends(self, frm: NodeId, by_delay: dict[int, list[tuple[Packet, list[NodeId]]]]) -> None:
        for delay, groups in by_delay.items():
            self._push(self.now + delay, Engine._deliver, frm, groups)

    # -- main loop

    def run(self) -> MetricsReport:
        t_max = self.scenario.t_max
        queue = self._queue
        while queue and queue[0][0] <= t_max:
            self.now, _, handler, args = heapq.heappop(queue)
            handler(self, *args)
        truncated = any(map(_cuts_short, queue))
        for node in self.nodes:
            for dest in sorted(node.pending_discoveries):
                disc = node.pending_discoveries.pop(dest)
                self.metrics.fail_discovery(disc.metrics_rec)
                truncated = True
        self.metrics.timed_out = truncated
        if self._hellos_elided:
            # every node sends one HELLO per peer at ticks 0, I, 2I, ... <= t_max
            ticks = t_max // self.scenario.params.hello_interval + 1
            self.metrics.hello_tx += sum(map(len, self._adj)) * ticks
        return self.metrics

    # -- introspection used by tests and the CLI summary

    def connectivity_index(self, node: str, dest: str, neighbor: str) -> float | None:
        state = self.nodes[self._ids[node]].conn
        if state is None:
            return None
        rec = state.peek(self._ids[dest], self._ids[neighbor])
        return None if rec is None else rec.index

    def route_of(self, node: str, dest: str):
        return self.nodes[self._ids[node]].routes.get(self._ids[dest])


def _cuts_short(entry: tuple) -> bool:
    """Whether a queued entry is protocol activity, so that leaving it at
    t_max means the run was cut short: a delivery other than HELLO, an
    inject, or a timer other than the route sweep."""
    _, _, handler, args = entry
    if handler is Engine._deliver:
        return any(type(pkt) is not Hello for pkt, _ in args[1])
    if handler is Engine._timer:
        return type(args[1]) is not RouteSweep
    return handler is Engine._inject


def run(scenario: Scenario, trace: TextIO | None = None) -> MetricsReport:
    """Build an engine, run the scenario to completion, return the report."""
    return Engine(scenario, trace=trace).run()
