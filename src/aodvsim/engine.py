"""Deterministic discrete-event engine.

Integer ticks; a queue entry is (tick, insertion sequence, handler, args) and
runs as `handler(engine, *args)`, so a scenario plus a seed fixes the entire
run. Transmission, link state, scripted losses, mobility, metrics and tracing
live here; protocol behavior lives in the per-node state machines.

The engine is each node's `net`: a handler calls `transmit`, `set_timer`,
`deliver_up` and `drop` as its steps happen. `transmit` and `set_timer` only
push queue entries, and no handler runs inside another, so the entries and
the trace lines of one step come in the order the step made its calls.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

from .metrics import MetricsReport
from .node import DiscoveryDeadline, Node, RouteSweep, TimerKind
from .protocol import Hello, NodeId, Packet, Rerr, Rrep, Rreq, summarize
from .scenario import DropEvent, LinkEvent, RandomWaypoint, Scenario, TrafficSpec, link_changes


@dataclass
class _Motion:
    """A node's walk; its position is the engine's `positions` entry."""
    waypoint: tuple[float, float]
    speed: float
    pause_left: int


class Engine:
    def __init__(self, scenario: Scenario, trace: TextIO | None = None):
        self.scenario = scenario
        self.trace = trace
        # trace-only: node labels by id, and each with the tab that follows it in a line
        self._labels = [n.name for n in scenario.nodes] if trace is not None else None
        self._heads = [f"{name}\t" for name in self._labels] if trace is not None else None
        self.now = 0
        self.metrics = MetricsReport()
        self.rng = random.Random(scenario.seed)
        # handlers are stored as plain functions: a bound method would make
        # each entry refer back to the engine, so a finished engine with
        # entries left would wait for the cycle collector
        self._queue: list[tuple[int, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._ids = ids = scenario.node_ids()

        # link state: each node's live peers with their delay, the only store of
        # the live links, and each listed delay other than 1 by (low, high) pair,
        # none under mobility. Only apply_link_event changes a live link.
        self._adj: list[dict[NodeId, int]] = [{} for _ in range(scenario.node_count)]
        self.base_delay: dict[tuple[NodeId, NodeId], int] = {}
        for a, b, delay in scenario.links_by_id() if scenario.mobility is None else ():
            self._adj[a][b] = self._adj[b][a] = delay
            if delay != 1:
                self.base_delay[(a, b) if a < b else (b, a)] = delay
        self.new_links: set[tuple[NodeId, NodeId]] = set()
        self.loss_filter: set[tuple[int, NodeId, NodeId]] = set()

        self.positions: dict[NodeId, tuple[float, float]] = {
            i: n.pos for i, n in enumerate(scenario.nodes) if n.pos is not None}
        self._motion: list[_Motion] | None = None     # by node id
        if scenario.mobility is not None:
            self._init_mobility(scenario.mobility)

        # a proxy, so that the nodes refer back to the engine without a cycle
        net = weakref.proxy(self)
        self.nodes: list[Node] = []
        for i in range(scenario.node_count):
            self.nodes.append(Node(
                me=i,
                net=net,
                config=scenario.params,
                strategy=scenario.strategy,
                node_count=scenario.node_count,
                metrics=self.metrics,
                rng=self.rng,
                position_of=self.positions.get,
            ))
        for node, peers in zip(self.nodes, self._adj):
            node.neighbors = dict.fromkeys(peers, 0)

        # scripted events first so same-tick ordering favors topology changes,
        # then traffic, then the recurring ticks
        for ev in scenario.events:
            if isinstance(ev, DropEvent):
                self.loss_filter.add((ev.at, ids[ev.frm], ids[ev.to]))
            else:
                self._push(ev.at, Engine._link_change, ev.kind, ids[ev.a], ids[ev.b])
        # a flow has one round queued at a time, under the sequence number that
        # is reserved here for its payload id: same-tick rounds run in flow order
        self._round_base = base = next(self._seq)
        payload = 0
        for flow in scenario.traffic:
            heapq.heappush(self._queue, (flow.start, base + payload, Engine._inject,
                                         (flow, payload, 0)))
            payload += flow.rounds
        self._seq = itertools.count(base + payload)
        # HELLO elision. On static links with no drop on a hello tick, a node
        # has heard every neighbor at most one interval before each of its hello
        # ticks, or still holds the tick-0 stamp that the largest link delay (0 with
        # no link) + interval <= timeout keeps fresh. No neighbor goes stale, so
        # only a trace could observe a HELLO, and run() counts them instead.
        p = scenario.params
        self._hellos_elided = (
            trace is None and self._motion is None
            and not any(isinstance(ev, LinkEvent) for ev in scenario.events)
            and all(at % p.hello_interval for at, _, _ in self.loss_filter)
            and max(self.base_delay.values(), default=1 if scenario.links else 0)
            + p.hello_interval <= p.hello_timeout)
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

    def _init_mobility(self, spec: RandomWaypoint) -> None:
        self._mobility_rng = random.Random(self.scenario.seed ^ 0x5F5E1)
        rng = self._mobility_rng
        w, h = spec.area
        self._motion = []
        for i in range(self.scenario.node_count):
            if i not in self.positions:
                self.positions[i] = (rng.uniform(0, w), rng.uniform(0, h))
            self._motion.append(_Motion(
                waypoint=(rng.uniform(0, w), rng.uniform(0, h)),
                speed=rng.uniform(*spec.speed),
                pause_left=0,
            ))
        self._recompute_links()

    # -- link handling

    @property
    def live_links(self) -> dict[frozenset, int]:
        """The current links as {frozenset((a, b)): delay}; a copy."""
        return {frozenset((a, b)): delay for a, peers in enumerate(self._adj)
                for b, delay in peers.items() if a < b}

    def apply_link_event(self, kind: str, a: NodeId, b: NodeId) -> None:
        """Engine-level topology change; nodes only notice via HELLO silence."""
        key = (a, b) if a < b else (b, a)
        if kind == "link_down":
            self._adj[a].pop(b, None)
            self._adj[b].pop(a, None)
            self.new_links.discard(key)
        elif b not in self._adj[a]:
            self._adj[a][b] = self._adj[b][a] = self.base_delay.get(key, 1)
            self.new_links.add(key)

    def link_peers(self, node: NodeId) -> list[NodeId]:
        return sorted(self._adj[node])

    def transmit(self, frm: NodeId, to: Sequence[NodeId], packet: Packet) -> None:
        """Send `packet` to each of `to` in order: count a loss for each
        recipient without a live link or with a scripted drop, and queue one
        delivery entry per link delay for the others, in first-seen delay
        order. Pushed as a step sends its packets, the entries for one tick
        run in send order, with only the step's own timers between them."""
        peers = self._adj[frm]
        now = self.now
        drops = self.loss_filter
        live = [t for t in to if t in peers]
        if drops:
            live = [t for t in live if (now, frm, t) not in drops]
        metrics = self.metrics
        if len(live) < len(to):
            metrics.losses += len(to) - len(live)
            if self.trace is not None:
                for t in to:
                    if t not in peers:
                        self._trace(frm, "loss", f"link-absent to={self._labels[t]}")
                    elif (now, frm, t) in drops:
                        self._trace(frm, "loss",
                                    f"scripted to={self._labels[t]} {summarize(packet)}")
            if not live:
                return
        if not self.base_delay:     # every link has delay 1, a scripted link_up's too
            self._push(now + 1, Engine._deliver, frm, packet, live)
        else:
            groups: dict[int, list[NodeId]] = {}
            for t in live:
                groups.setdefault(peers[t], []).append(t)
            for delay, recipients in groups.items():
                self._push(now + delay, Engine._deliver, frm, packet, recipients)
        sent = len(live)
        kind = type(packet)
        if kind is Hello:
            metrics.hello_tx += sent
        elif kind is Rreq:
            metrics.rreq_tx += sent
            metrics.per_node_rreq_tx[frm] = metrics.per_node_rreq_tx.get(frm, 0) + sent
            per_link = metrics.per_link_rreq_tx
            for t in live:
                per_link[frm, t] = per_link.get((frm, t), 0) + 1
        elif kind is Rrep:
            metrics.rrep_tx += sent
        elif kind is Rerr:
            metrics.rerr_tx += sent
        else:
            metrics.data_tx += sent

    def set_timer(self, node: NodeId, at: int, kind: TimerKind) -> None:
        # every timer interval of a valid scenario is >= 1: `at` is after now
        self._push(at, Engine._timer, node, kind)

    def deliver_up(self, node: NodeId, payload_id: int, src: NodeId) -> None:
        if self.trace is not None:
            self._trace(node, "deliver-up", f"payload={payload_id} src={self._labels[src]}")

    def drop(self, node: NodeId, packet: Packet, reason: str) -> None:
        if self.trace is not None:
            self._trace(node, "drop", f"{reason} {summarize(packet)}")

    # -- mobility

    def _recompute_links(self) -> None:
        """Bring the links in line with the positions under the radio-range
        rule of `link_changes`: the downs first, then the ups."""
        down, up = link_changes(self.positions, self.scenario.mobility.radio_range, self._adj)
        for kind, pairs in (("link_down", down), ("link_up", up)):
            for a, b in pairs:
                self._link_change(kind, a, b, "range ")

    def _advance_motion(self) -> None:
        rng, positions, hypot = self._mobility_rng, self.positions, math.hypot
        spec = self.scenario.mobility
        w, h = spec.area
        for i, m in enumerate(self._motion):
            if m.pause_left > 0:
                m.pause_left -= 1
                if m.pause_left == 0:
                    m.waypoint = (rng.uniform(0, w), rng.uniform(0, h))
                    m.speed = rng.uniform(*spec.speed)
                continue
            x, y = positions[i]
            (wx, wy), speed = m.waypoint, m.speed
            dx, dy = wx - x, wy - y
            dist = hypot(dx, dy)
            if dist <= speed:
                positions[i] = m.waypoint
                m.pause_left = spec.pause
            else:
                positions[i] = (x + dx / dist * speed, y + dy / dist * speed)

    # -- queue entry handlers

    def _deliver(self, frm: NodeId, pkt: Packet, recipients: list[NodeId]) -> None:
        """One packet landing on this tick at each of `recipients`, in send
        order. Its handler and trace text are worked out once for all of
        them; a repeat RREQ copy is counted and goes no further."""
        write = self.trace.write if self.trace is not None else None
        now = self.now
        peers = self._adj[frm]
        nodes, new_links = self.nodes, self.new_links
        kind = type(pkt)
        handle = (None if kind is Hello else Node.on_rreq if kind is Rreq else Node.on_rrep
                  if kind is Rrep else Node.on_rerr if kind is Rerr else Node.on_data)
        if write is not None:
            text = summarize(pkt)
            stamp, heads = f"{now}\t", self._heads
            tail = f"\tfrom={self._labels[frm]} {text}\n"
            delivered, cancelled = f"deliver{tail}", f"deliver-cancelled{tail}"
            duplicate = f"drop\tduplicate-rreq {text}\n"
        for to in recipients:
            live = to in peers
            if live:
                node = nodes[to]
                node.neighbors[frm] = now       # any reception proves the link
            repeat = live and kind is Rreq and node.heard_before(pkt, frm)
            if write is not None:
                head = heads[to]
                # a repeat copy's two lines in one write
                write(f"{stamp}{head}{delivered}{stamp}{head}{duplicate}" if repeat
                      else f"{stamp}{head}{delivered if live else cancelled}")
            if not live or repeat or handle is None:
                continue                    # a HELLO does nothing more either
            if kind is Rrep:
                key = (frm, to) if frm < to else (to, frm)
                fresh = key in new_links
                new_links.discard(key)
                handle(node, pkt, frm, now, fresh)
            else:
                handle(node, pkt, frm, now)

    def _timer(self, node: NodeId, kind: TimerKind) -> None:
        if self.trace is not None:
            self._trace(node, "timer", type(kind).__name__)
        kind.fire(self.nodes[node], self.now)

    def _hello_tick(self, node: NodeId) -> None:
        if self.trace is not None:
            self._trace(node, "hello-tick")
        self.nodes[node].on_hello_tick(self.now, self.link_peers(node))
        self._push(self.now + self.scenario.params.hello_interval, Engine._hello_tick, node)

    def _inject(self, flow: TrafficSpec, payload_id: int, round_index: int) -> None:
        node, dest = self._ids[flow.origin], self._ids[flow.dest]
        if self.trace is not None:
            self._trace(node, "inject", f"dest={self._labels[dest]} round={round_index}")
        if round_index + 1 < flow.rounds:   # one past t_max never runs: it marks a cut-short run
            heapq.heappush(self._queue, (self.now + flow.spacing, self._round_base + payload_id + 1,
                                         Engine._inject, (flow, payload_id + 1, round_index + 1)))
        self.nodes[node].send_data(dest, payload_id, self.now, round_index)

    def _link_change(self, kind: str, a: NodeId, b: NodeId, cause: str = "") -> None:
        """Apply and trace one link change; `cause` is "range " for one that motion made."""
        if self.trace is not None:
            self._trace(a, kind.replace("_", "-"), f"{cause}{self._labels[b]}")
        self.apply_link_event(kind, a, b)

    def _mobility_tick(self) -> None:
        self._advance_motion()
        self._recompute_links()
        self._push(self.now + 1, Engine._mobility_tick)

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
                self.metrics.fail_discovery(node.pending_discoveries.pop(dest))
                truncated = True
        self.metrics.timed_out = truncated
        if self._hellos_elided:
            # every node sends one HELLO per peer at ticks 0, I, 2I, ... <= t_max
            ticks = t_max // self.scenario.params.hello_interval + 1
            self.metrics.hello_tx += sum(map(len, self._adj)) * ticks
        return self.metrics

    # -- introspection, by name; used by tests

    def connectivity_index(self, node: str, dest: str, neighbor: str) -> float | None:
        state = self.nodes[self._ids[node]].conn
        if state is None:
            return None
        rec = state.peek(self._ids[dest], self._ids[neighbor])
        return None if rec is None else rec.index

    def route_of(self, node: str, dest: str):
        return self.nodes[self._ids[node]].routes.get(self._ids[dest])


def _cuts_short(entry: tuple) -> bool:
    """Whether a queued entry left at t_max means the run was cut short: a
    delivery other than HELLO, an inject, or a timer other than the route
    sweep and the discovery deadline (run() marks an open discovery itself)."""
    _, _, handler, args = entry
    if handler is Engine._deliver:
        return type(args[1]) is not Hello
    if handler is Engine._timer:
        return type(args[1]) not in (RouteSweep, DiscoveryDeadline)
    return handler is Engine._inject


def run(scenario: Scenario, trace: TextIO | None = None) -> MetricsReport:
    """Build an engine, run the scenario to completion, return the report."""
    return Engine(scenario, trace=trace).run()
