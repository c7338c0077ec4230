"""Per-layer spans, recorded from outside the simulator.

`Spans.install()` replaces the entry points one aodvsim module calls in
another with timing wrappers, and `uninstall()` puts the originals back. A
span's self time is its duration minus the spans nested inside it. The
wrappers' own cost lands in the caller's self time, so traced figures are
compared only with traced figures; the untraced run gives the end-to-end
metrics.
"""

from __future__ import annotations

import time
import types
from collections import Counter

from aodvsim import cli, engine, metrics, node, scenario, suppression

_NODE_GROUPS = {
    "on_rreq": "node.rreq",
    "on_rrep": "node.rrep",
    "on_hello": "node.hello",
    "on_hello_tick": "node.hello",
    "on_rerr": "node.rerr",
    "on_link_break": "node.rerr",
    "on_data": "node.data",
    "send_data": "node.data",
    "on_discovery_timeout": "node.timer",
    "on_attempt_sweep": "node.timer",
    "on_forward_decision": "node.timer",
    "on_route_sweep": "node.timer",
}

# (owner, attribute, span name); a function imported by name into another
# module is patched where it is looked up
_SPANS = [
    (scenario, "parse_scenario", "scenario.parse"),
    (cli, "parse_scenario", "scenario.parse"),
    (scenario.Scenario, "validate", "scenario.parse"),
    (engine.Engine, "run", "engine.run"),
    (engine.Engine, "link_peers", "links.peers"),
    (engine.Engine, "transmit", "transmit"),
    (engine.Engine, "_advance_motion", "mobility.advance"),
    (engine.Engine, "_recompute_links", "mobility.recompute"),
    (engine, "summarize", "trace.summarize"),
    (metrics.MetricsReport, "record", "metrics.record"),
    (suppression.ConnectivityState, "open_attempt", "conn.open"),
    (suppression.ConnectivityState, "resolve_attempt", "conn.resolve"),
    (suppression.ConnectivityState, "eligible", "conn.eligible"),
    (suppression.ConnectivityState, "fail_pending", "conn.fail_pending"),
    (cli, "main", "cli"),
] + [(node.Node, meth, group) for meth, group in _NODE_GROUPS.items()]


class _TimedWriter:
    """Stands in for the engine's trace file: times and sizes each write."""

    def __init__(self, spans: "Spans", fh):
        self._spans = spans
        self._fh = fh

    def write(self, text: str) -> int:
        self._spans.bytes_written += len(text)
        return self._spans.call("trace.write", self._fh.write, text)


class Spans:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.candidates = 0
        self.targets = 0
        self.peak_depth = 0
        self.link_changes = 0
        self.bytes_written = 0
        self.engines: list = []
        self._stack: list[list] = []      # [span name, ns spent in nested spans]
        self._saved: list[tuple] = []

    # -- recording

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        clock = time.perf_counter_ns
        start = clock()
        frame = [name, 0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            self.self_ns[name] += elapsed - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += elapsed

    def _wrap(self, name: str, fn):
        call = self.call

        def span(*args, **kwargs):
            return call(name, fn, *args, **kwargs)
        return span

    # -- installing

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in _SPANS:
            self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))

        spans = self
        real_init = engine.Engine.__init__

        def init(eng, sc, trace=None):
            if trace is not None:
                trace = _TimedWriter(spans, trace)
            spans.call("engine.init", real_init, eng, sc, trace)
            spans.engines.append(eng)
        self._patch(engine.Engine, "__init__", init)

        real_select = node.select_targets

        def select(strategy, view, candidates, rng):
            chosen = spans.call("suppression.select", real_select, strategy, view, candidates, rng)
            spans.candidates += len(candidates)
            spans.targets += len(chosen)
            return chosen
        self._patch(node, "select_targets", select)

        real_apply = engine.Engine.__dict__["apply_link_event"]

        def apply(eng, kind, a, b):
            if spans._stack and spans._stack[-1][0] == "mobility.recompute":
                spans.link_changes += 1
            return spans.call("links.apply", real_apply, eng, kind, a, b)
        self._patch(engine.Engine, "apply_link_event", apply)

        real_heapq = engine.heapq

        def push(heap, item):
            spans.call("queue.push", real_heapq.heappush, heap, item)
            if len(heap) > spans.peak_depth:
                spans.peak_depth = len(heap)

        def pop(heap):
            return spans.call("queue.pop", real_heapq.heappop, heap)
        self._patch(engine, "heapq", types.SimpleNamespace(heappush=push, heappop=pop))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting

    def seconds(self, *names: str) -> float:
        return sum(self.self_ns[n] for n in names) / 1e9

    def layer_metrics(self) -> dict[str, float]:
        c, s = self.calls, self.seconds
        events = c["queue.pop"]
        records = sum(len(n.conn.records) for e in self.engines for n in e.nodes
                      if n.conn is not None)
        return {
            "scenario.parse_s": s("scenario.parse"),
            "engine.init_s": s("engine.init"),
            "queue.push": c["queue.push"],
            "queue.pop": c["queue.pop"],
            "queue.s": s("queue.push", "queue.pop"),
            "queue.peak_depth": self.peak_depth,
            "engine.events": events,
            "engine.self_s": s("engine.run"),
            "engine.ns_per_event": self.self_ns["engine.run"] / events if events else 0.0,
            "links.peers_calls": c["links.peers"],
            "links.peers_s": s("links.peers"),
            "links.apply_calls": c["links.apply"],
            "links.apply_s": s("links.apply"),
            "transmit.calls": c["transmit"],
            "transmit.self_s": s("transmit"),
            "mobility.ticks": c["mobility.advance"],
            "mobility.advance_s": s("mobility.advance"),
            "mobility.recompute_s": s("mobility.recompute"),
            "mobility.link_changes": self.link_changes,
            "node.rreq_calls": c["node.rreq"],
            "node.rreq_s": s("node.rreq"),
            "node.rrep_calls": c["node.rrep"],
            "node.rrep_s": s("node.rrep"),
            "node.hello_s": s("node.hello"),
            "node.rerr_s": s("node.rerr"),
            "node.data_s": s("node.data"),
            "node.timer_calls": c["node.timer"],
            "node.timer_s": s("node.timer"),
            "suppression.select_calls": c["suppression.select"],
            "suppression.select_s": s("suppression.select"),
            "suppression.candidates": self.candidates,
            "suppression.targets": self.targets,
            "suppression.kept_ratio": self.targets / self.candidates if self.candidates else 0.0,
            "conn.open_s": s("conn.open"),
            "conn.resolve_s": s("conn.resolve"),
            "conn.eligible_s": s("conn.eligible"),
            "conn.fail_pending_calls": c["conn.fail_pending"],
            "conn.fail_pending_s": s("conn.fail_pending"),
            "conn.records": records,
            "metrics.record_calls": c["metrics.record"],
            "metrics.record_s": s("metrics.record"),
            "trace.summarize_calls": c["trace.summarize"],
            "trace.summarize_s": s("trace.summarize"),
            "trace.bytes": self.bytes_written,
            "trace.write_s": s("trace.write"),
            "cli.calls": c["cli"],
            "cli.self_s": s("cli"),
        }
