"""Metamorphic relations: how two runs of this simulator must relate, an
oracle that needs no second model of the protocol. See Chen, Cheung and Yiu,
"Metamorphic testing: a new approach for generating next test cases",
HKUST-CS98-01, 1998.
"""

import io
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aodvsim.cli import build_parser, load_scenario
from aodvsim.engine import Engine
from aodvsim.metrics import MetricsReport
from aodvsim.node import Node
from aodvsim.scenario import Scenario, parse_scenario
from aodvsim.suppression import (
    Connectivity,
    CounterBased,
    DistanceBased,
    ExpandingRing,
    Flood,
    Probabilistic,
    Strategy,
)
from aodvsim.wire import ValidationError

from test_fuzz import valid_scenarios
from test_golden import corpus, entry_id

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def _trace_lines(sc: Scenario) -> list[str]:
    out = io.StringIO()
    Engine(sc, trace=out).run()
    return out.getvalue().splitlines(keepends=True)


def _parsed(doc: dict) -> Scenario | None:
    try:
        return parse_scenario(json.dumps(doc))
    except ValidationError:
        return None     # a drawn doc may break a rule across fields, such as round spacing


def _corpus_scenario(scenario: str, options: str) -> Scenario:
    """A golden corpus entry's scenario, built as `aodvsim run` builds it."""
    source = str(GOLDEN / scenario) if scenario.endswith(".json") else scenario
    args = build_parser().parse_args(["run", "--scenario", source,
                                      *(["--strategy", *options.split()] if options else [])])
    return load_scenario(args, args.strategy)


def golden_examples(**extra):
    """Every golden scenario file as an example, with `extra` for the other arguments."""
    def add(test):
        for name in sorted(p.name for p in GOLDEN.glob("*.json") if p.name != "digests.json"):
            test = example(doc=_golden(name), **extra)(test)
        return test
    return add


@settings(derandomize=True, deadline=None, max_examples=300)
@golden_examples()
@given(doc=valid_scenarios())
def test_a_run_to_t_max_is_the_start_of_a_longer_run(doc):
    # nothing that happens at or before t_max may depend on t_max: the trace
    # of a run to T is the lines at ticks <= T of the same run to T + 37
    sc = _parsed(doc)
    if sc is None:
        return
    longer = _trace_lines(replace(sc, t_max=sc.t_max + 37))
    assert _trace_lines(sc) == [line for line in longer
                                if int(line.split("\t", 1)[0]) <= sc.t_max]


# --- vacuous strategies: settings under which a strategy is flood ----------

def _traced_run(sc: Scenario, strategy: Strategy) -> tuple[MetricsReport, str]:
    out = io.StringIO()
    report = Engine(replace(sc, strategy=strategy), trace=out).run()
    return report, out.getvalue()


def _run(sc: Scenario, strategy: Strategy) -> MetricsReport:
    return Engine(replace(sc, strategy=strategy)).run()


def _counters(report: MetricsReport) -> tuple:
    return report.counter_tuple(), report.losses, report.mean_latency()


# b relays from where a stands: distance 0 must still forward
COINCIDENT = {"schema": 1, "name": "coincident", "t_max": 40,
              "nodes": [{"name": "a", "pos": [5, 5]}, {"name": "b", "pos": [5, 5]},
                        {"name": "c", "pos": [9, 5]}],
              "links": [{"a": "a", "b": "b"}, {"a": "b", "b": "c"}],
              "traffic": [{"origin": "a", "dest": "c"}]}


@settings(derandomize=True, deadline=None, max_examples=300)
@example(doc=COINCIDENT)
@golden_examples()
@given(doc=valid_scenarios())
def test_a_relay_filter_that_always_forwards_is_flood(doc):
    # probabilistic:1 forwards whatever it draws, and distance:0 from any
    # distance, coincident nodes included: each run is flood's, byte for byte
    sc = _parsed(doc)
    if sc is None:
        return
    flood = _traced_run(sc, Flood())[1]
    assert _traced_run(sc, Probabilistic(1.0))[1] == flood
    if all(n.pos is not None for n in sc.nodes):
        assert _traced_run(sc, DistanceBased(0.0))[1] == flood


@settings(derandomize=True, deadline=None, max_examples=300)
@golden_examples()
@given(doc=valid_scenarios())
def test_a_ring_that_starts_at_the_node_count_is_flood(doc):
    # no path is longer than node_count - 1 hops, so a first ring of node_count
    # hops reaches every node a flood does, and so does every retry
    sc = _parsed(doc)
    if sc is None:
        return
    n = sc.node_count
    ring = _run(sc, ExpandingRing(ttl_start=n, ttl_increment=1, ttl_threshold=n))
    assert _counters(ring) == _counters(_run(sc, Flood()))


def _without_attempt_sweeps(trace: str) -> list[str]:
    return [line for line in trace.splitlines() if not line.endswith("\ttimer\tAttemptSweep")]


@settings(derandomize=True, deadline=None, max_examples=300)
@golden_examples(mode="raw")
@given(doc=valid_scenarios(), mode=st.sampled_from(["raw", "ema", "blend"]))
def test_connectivity_that_never_suppresses_is_flood(doc, mode):
    # with threshold -1 every index clears it, from the first attempt on: the
    # run is flood's plus its AttemptSweep timers. `timed_out` is left out:
    # an AttemptSweep still queued at t_max counts as pending activity
    sc = _parsed(doc)
    if sc is None:
        return
    report, trace = _traced_run(sc, Connectivity(mode=mode, threshold=-1.0, warmup_attempts=0))
    flood, flood_trace = _traced_run(sc, Flood())
    assert _counters(report) == _counters(flood)
    assert _without_attempt_sweeps(trace) == _without_attempt_sweeps(flood_trace)


# --- counter hold: a held forward is flood one tick later per hop ----------

def _static_unit_delay(doc: dict) -> dict:
    """`doc` with no mobility, no scripted event, every link at delay 1, a
    discovery deadline of 4 x the node count and its rounds at least four
    such deadlines apart."""
    doc = {k: v for k, v in doc.items() if k != "mobility"}
    n = len(doc["nodes"])
    doc["links"] = [{**link, "delay": 1} for link in doc["links"]]
    doc["events"] = []
    doc["params"] = {**doc.get("params", {}), "discovery_deadline": 4 * n}
    doc["traffic"] = [{**t, "spacing": max(t.get("spacing", 0), 16 * n)} for t in doc["traffic"]]
    return doc


def _request_side(report: MetricsReport) -> tuple:
    return report.rreq_tx, report.redundant_rreq_rx, report.per_node_rreq_tx


# x gets the request at t_max = 1: flood relays it on that tick, and counter
# holds it to tick 2, which never runs. Both runs are cut short
HELD_PAST_T_MAX = {"schema": 1, "name": "held", "t_max": 1,
                   "nodes": [{"name": "s"}, {"name": "x"}, {"name": "y"}, {"name": "t"}],
                   "links": [{"a": "s", "b": "x"}, {"a": "x", "b": "y"}, {"a": "y", "b": "t"}],
                   "traffic": [{"origin": "s", "dest": "t"}]}


# under flood n5's late copy reaches n1 before n0's reply, so n1 relays the
# reply to n3 and n5; under counter the reply lands first on the same tick,
# and n1 relays it to n3 alone: 6 RREPs against 4
REPLY_RACE = {"schema": 1, "name": "race", "t_max": 7,
              "nodes": [{"name": f"n{i}"} for i in range(7)],
              "links": [{"a": a, "b": b} for a, b in (
                  ("n1", "n3"), ("n0", "n1"), ("n0", "n2"), ("n0", "n3"),
                  ("n0", "n4"), ("n0", "n5"), ("n1", "n5"))],
              "traffic": [{"origin": "n3", "dest": "n4"}]}

# under counter the two held forwards land the reply on the default deadline
# tick 2n = 26, where the earlier-queued DiscoveryDeadline fires first and
# the origin retries: 3 RREQs against 4
REPLY_AT_DEADLINE = {"schema": 1, "name": "line", "t_max": 73, "seed": 79,
                     "nodes": [{"name": f"n{i}"} for i in range(4)],
                     "links": [{"a": f"n{i}", "b": f"n{i + 1}"} for i in range(3)],
                     "traffic": [{"origin": "n0", "dest": "n3", "start": 18}]}


@settings(derandomize=True, deadline=None, max_examples=300)
@example(doc=HELD_PAST_T_MAX)
@example(doc=REPLY_RACE)
@example(doc=REPLY_AT_DEADLINE)
@golden_examples()
@given(doc=valid_scenarios())
def test_counter_that_never_suppresses_is_flood_on_static_unit_delay_links(doc):
    # holding every forward one tick delays each hop of the flood by one tick
    # and reorders no request, as long as no link changes, no held forward
    # is left at t_max and every reply lands well before its deadline: a
    # path has fewer than n hops, so a held round trip takes under 3n ticks.
    # The request side is flood's. The reply side is not: a held request
    # moves a reply against a late copy (REPLY_RACE). With link delays that
    # differ, two copies' order can flip: mixed.json sends 52 RREQs under
    # counter against flood's 63
    sc = _parsed(_static_unit_delay(doc))
    if sc is None:
        return
    flood, counter = _run(sc, Flood()), _run(sc, CounterBased(max_copies=10 ** 9))
    if flood.timed_out or counter.timed_out:
        return
    assert _request_side(counter) == _request_side(flood)


@pytest.mark.parametrize("doc, count, flood_count, counter_count",
                         [(REPLY_RACE, "rrep_tx", 6, 4), (REPLY_AT_DEADLINE, "rreq_tx", 3, 4)])
def test_counter_that_never_suppresses_differs_from_flood_at_a_reply_race(
        doc, count, flood_count, counter_count):
    # static unit-delay links and neither run cut short: the relation above
    # needs its deadline slack, and holds on the request side alone
    sc = _parsed(doc)
    flood, counter = _run(sc, Flood()), _run(sc, CounterBased(max_copies=10 ** 9))
    assert not flood.timed_out and not counter.timed_out
    assert (getattr(flood, count), getattr(counter, count)) == (flood_count, counter_count)


def test_a_forward_held_past_t_max_is_never_sent():
    sc = _parsed(HELD_PAST_T_MAX)
    flood, counter = _run(sc, Flood()), _run(sc, CounterBased(max_copies=10 ** 9))
    assert (flood.rreq_tx, counter.rreq_tx) == (2, 1)
    assert flood.timed_out and counter.timed_out


# --- request records: none is read once its node may have dropped it ------

class _AgesRead(dict):
    """A node's request records, kept for the whole run, noting the age of
    each one read by `get`, `[]` or `in` in `ages`."""

    def __init__(self, engine: Engine, ages: list[int]):
        super().__init__()
        self.engine, self.ages = engine, ages

    def _note(self, rid) -> None:
        request = super().get(rid)
        if request is not None:
            self.ages.append(self.engine.now - request.made_at)

    def get(self, rid, default=None):
        self._note(rid)
        return super().get(rid, default)

    def __getitem__(self, rid):
        self._note(rid)
        return super().__getitem__(rid)

    def __contains__(self, rid):
        self._note(rid)
        return super().__contains__(rid)


def _oldest_read(sc: Scenario) -> tuple[int, int]:
    """The age of the oldest request record read in a run of `sc` with
    expiry switched off, and the horizon the engine gives its nodes."""
    eng = Engine(sc)
    horizon, ages = eng.nodes[0].horizon, [0]
    for node in eng.nodes:
        node.horizon = math.inf
        node.requests = _AgesRead(eng, ages)
    eng.run()
    return max(ages), horizon


@settings(derandomize=True, deadline=None, max_examples=300)
@golden_examples()
@given(doc=valid_scenarios())
def test_no_request_record_is_read_past_its_horizon(doc):
    # the records a node drops are those made more than H ticks before it
    # makes a new one: if no record is read past H, expiry changes no read
    sc = _parsed(doc)
    if sc is None:
        return
    oldest, horizon = _oldest_read(sc)
    assert oldest <= horizon


@pytest.mark.parametrize("scenario,options", corpus(), ids=[entry_id(*e) for e in corpus()])
def test_no_request_record_is_read_past_its_horizon_on_the_golden_corpus(scenario, options):
    oldest, horizon = _oldest_read(_corpus_scenario(scenario, options))
    assert oldest <= horizon


# --- sequence numbers: no route is fresher than its node's memory ---------

def _routes_above_memory(sc: Scenario) -> list[tuple[int, int, int]]:
    """(node, dest, tick) for every route whose `dest_seq` exceeds its
    node's `dest_seq_memory` after some `on_rrep`. None means a reply that
    installs no route has no number to note: its `dest_seq` is at most its
    dest's valid route's, which is at most the memory."""
    found = []
    real = Node.on_rrep

    def on_rrep(node, rrep, frm, now, link_is_new=False):
        real(node, rrep, frm, now, link_is_new)
        memory = node.dest_seq_memory
        found.extend((node.me, dest, now) for dest, entry in node.routes.items()
                     if entry.dest_seq > memory.get(dest, -1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Node, "on_rrep", on_rrep)
        Engine(sc).run()
    return found


@settings(derandomize=True, deadline=None, max_examples=300)
@golden_examples()
@given(doc=valid_scenarios())
def test_no_route_is_fresher_than_its_nodes_sequence_memory(doc):
    sc = _parsed(doc)
    if sc is None:
        return
    assert _routes_above_memory(sc) == []


@pytest.mark.parametrize("scenario,options", corpus(), ids=[entry_id(*e) for e in corpus()])
def test_no_route_is_fresher_than_its_nodes_sequence_memory_on_the_golden_corpus(
        scenario, options):
    assert _routes_above_memory(_corpus_scenario(scenario, options)) == []
