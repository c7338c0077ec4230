import gc
import io
import json
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from aodvsim.engine import Engine, run
from aodvsim.node import ProtocolConfig
from aodvsim.protocol import Hello
from aodvsim.scenario import (
    DropEvent,
    LinkEvent,
    LinkSpec,
    NodeSpec,
    RandomWaypoint,
    Scenario,
    TrafficSpec,
    builtin,
    pairs_in_range,
    parse_scenario,
)
from aodvsim.suppression import Connectivity, ExpandingRing

from oracles import bfs_distances
from test_fuzz import valid_scenarios


def chain(n_labels, traffic=None, delay=1, **kw):
    """Line topology a-b-...-z with one flow along it."""
    nodes = [NodeSpec(l) for l in n_labels]
    links = [LinkSpec(a, b, delay) for a, b in zip(n_labels, n_labels[1:])]
    if traffic is None:
        traffic = [TrafficSpec(n_labels[0], n_labels[-1])]
    elif isinstance(traffic, tuple):
        traffic = [TrafficSpec(traffic[0], traffic[1])]
    defaults = dict(name="chain", nodes=nodes, links=links,
                    traffic=traffic, t_max=200)
    defaults.update(kw)
    return Scenario(**defaults)


def test_link_delay_stretches_discovery_latency():
    # deadline must cover the slow round trip or the retry path kicks in
    cfg = ProtocolConfig(discovery_deadline=30)
    fast = run(chain("abc", params=cfg))
    slow = run(chain("abc", delay=3, params=cfg))
    assert fast.discoveries_ok == slow.discoveries_ok == 1
    # 4 hops of request+reply at delay 1 vs delay 3
    assert fast.discoveries[0].latency == 4
    assert slow.discoveries[0].latency == 12


def test_packet_in_flight_dies_with_its_link():
    sc = chain("ab", delay=5,
               events=[LinkEvent(at=2, kind="link_down", a="a", b="b")])
    rep = run(sc)
    assert rep.discoveries_failed == 1
    assert rep.rreq_tx == 1          # only the first copy ever left a
    assert rep.losses >= 1           # the retry hit a missing link


def test_scripted_drop_removes_exactly_one_packet():
    # drop the reply sent by b at tick 2; the retry then goes through
    sc = chain("abc", events=[DropEvent(at=3, frm="b", to="a")])
    rep = run(sc)
    assert rep.losses == 1
    assert rep.discoveries_ok == 1
    assert rep.discoveries[0].attempts == 2


def test_one_flood_counts_and_orders_each_kind_of_recipient():
    # s floods one RREQ at tick 2 to a (delay 1), b (delay 2), c (link taken
    # down at tick 1, still a neighbor in s's table) and d (scripted drop)
    sc = Scenario(
        name="star",
        nodes=[NodeSpec(l) for l in "sabcd"],
        links=[LinkSpec("s", "a", 1), LinkSpec("s", "b", 2),
               LinkSpec("s", "c", 1), LinkSpec("s", "d", 1)],
        traffic=[TrafficSpec("s", "d", start=2)],
        events=[LinkEvent(at=1, kind="link_down", a="s", b="c"),
                DropEvent(at=2, frm="s", to="d")],
        t_max=6,
    )
    buf = io.StringIO()
    rep = run(sc, trace=buf)
    assert rep.losses == 2
    assert rep.rreq_tx == 2
    assert rep.per_node_rreq_tx == {0: 2}
    assert rep.per_link_rreq_tx == {(0, 1): 1, (0, 2): 1}
    lines = [l.split("\t") for l in buf.getvalue().splitlines()]
    losses = [(t, n, detail) for t, n, kind, detail in lines if kind == "loss"]
    assert [(t, n) for t, n, _ in losses] == [("2", "s"), ("2", "s")]
    assert losses[0][2] == "link-absent to=c"
    assert losses[1][2].startswith("scripted to=d RREQ")
    delivered = [(t, n) for t, n, kind, detail in lines
                 if kind == "deliver" and detail.startswith("from=s RREQ")]
    assert delivered == [("3", "a"), ("4", "b")]


def _protocol_lines(trace: io.StringIO) -> list[str]:
    """The trace without its HELLO ticks and HELLO deliveries."""
    return [l for l in trace.getvalue().splitlines()
            if "\thello-tick\t" not in l and " HELLO from=" not in l]


def _requests(eng: Engine) -> dict[str, dict[int, tuple[int, list[str]]]]:
    """Per node label, each request heard by its number: (copies, senders)."""
    labels = [n.name for n in eng.scenario.nodes]
    return {labels[n.me]: {rid.num: (r.copies, [labels[s] for s in r.senders])
                           for rid, r in n.requests.items()} for n in eng.nodes}


def test_repeat_and_ttl_zero_copies_in_a_ring_triangle():
    # a looks for b with a TTL-1 ring. The first reply is dropped, so c's
    # relayed TTL-0 copy reaches b, which already holds the record: it dies
    # as ttl-expired and is not counted. The retry goes out at TTL 3, and c's
    # relayed copy is then a repeat at b.
    sc = Scenario(
        name="triangle",
        nodes=[NodeSpec(l) for l in "abc"],
        links=[LinkSpec("a", "b"), LinkSpec("a", "c"), LinkSpec("b", "c")],
        traffic=[TrafficSpec("a", "b")],
        strategy=ExpandingRing(ttl_start=1),
        events=[DropEvent(at=1, frm="b", to="a")],
        t_max=12,
    )
    buf = io.StringIO()
    eng = Engine(sc, trace=buf)
    rep = eng.run()
    assert _protocol_lines(buf) == [
        "0\ta\tinject\tdest=b round=0",
        "1\tb\tdeliver\tfrom=a RREQ[0:0] dest=1 hop=0 ttl=1",
        "1\tb\tloss\tscripted to=a RREP[0:0] dest=1 hop=0 seq=1",
        "1\tc\tdeliver\tfrom=a RREQ[0:0] dest=1 hop=0 ttl=1",
        "2\tb\tdeliver\tfrom=c RREQ[0:0] dest=1 hop=1 ttl=0",
        "2\tb\tdrop\tttl-expired RREQ[0:0] dest=1 hop=1 ttl=0",
        "6\ta\ttimer\tDiscoveryDeadline",
        "7\tb\tdeliver\tfrom=a RREQ[0:1] dest=1 hop=0 ttl=3",
        "7\tc\tdeliver\tfrom=a RREQ[0:1] dest=1 hop=0 ttl=3",
        "8\ta\tdeliver\tfrom=b RREP[0:1] dest=1 hop=0 seq=2",
        "8\tb\tdeliver\tfrom=c RREQ[0:1] dest=1 hop=1 ttl=2",
        "8\tb\tdrop\tduplicate-rreq RREQ[0:1] dest=1 hop=1 ttl=2",
        "9\tb\tdeliver\tfrom=a DATA 0->1 id=0",
        "9\tb\tdeliver-up\tpayload=0 src=a",
        "12\ta\ttimer\tDiscoveryDeadline",
    ]
    assert rep.redundant_rreq_rx == 1
    assert rep.per_node_redundant_rx == {1: 1}
    assert _requests(eng) == {
        "a": {0: (1, []), 1: (1, [])},
        "b": {0: (1, ["a"]), 1: (2, ["a", "c"])},
        "c": {0: (1, ["a"]), 1: (1, ["a"])},
    }


def test_repeat_copy_from_a_second_relay_in_a_diamond():
    # s floods for t; t hears the request from x, then from y on the same tick
    sc = Scenario(
        name="diamond",
        nodes=[NodeSpec(l) for l in "sxyt"],
        links=[LinkSpec("s", "x"), LinkSpec("s", "y"), LinkSpec("x", "t"), LinkSpec("y", "t")],
        traffic=[TrafficSpec("s", "t")],
        t_max=8,
    )
    buf = io.StringIO()
    eng = Engine(sc, trace=buf)
    rep = eng.run()
    assert _protocol_lines(buf) == [
        "0\ts\tinject\tdest=t round=0",
        "1\tx\tdeliver\tfrom=s RREQ[0:0] dest=3 hop=0 ttl=4",
        "1\ty\tdeliver\tfrom=s RREQ[0:0] dest=3 hop=0 ttl=4",
        "2\tt\tdeliver\tfrom=x RREQ[0:0] dest=3 hop=1 ttl=3",
        "2\tt\tdeliver\tfrom=y RREQ[0:0] dest=3 hop=1 ttl=3",
        "2\tt\tdrop\tduplicate-rreq RREQ[0:0] dest=3 hop=1 ttl=3",
        "3\tx\tdeliver\tfrom=t RREP[0:0] dest=3 hop=0 seq=1",
        "4\ts\tdeliver\tfrom=x RREP[0:0] dest=3 hop=1 seq=1",
        "5\tx\tdeliver\tfrom=s DATA 0->3 id=0",
        "6\tt\tdeliver\tfrom=x DATA 0->3 id=0",
        "6\tt\tdeliver-up\tpayload=0 src=s",
        "8\ts\ttimer\tDiscoveryDeadline",
    ]
    assert rep.redundant_rreq_rx == 1
    assert rep.per_node_redundant_rx == {3: 1}
    assert _requests(eng) == {
        "s": {0: (1, [])}, "x": {0: (1, ["s"])}, "y": {0: (1, ["s"])},
        "t": {0: (2, ["x", "y"])},
    }


def test_same_scenario_same_results_bytewise():
    traces = []
    reports = []
    for _ in range(2):
        buf = io.StringIO()
        reports.append(run(builtin("random-10", seed=3), trace=buf))
        traces.append(buf.getvalue())
    assert traces[0] == traces[1] and traces[0]
    assert reports[0].counter_tuple() == reports[1].counter_tuple()
    assert reports[0].per_link_rreq_tx == reports[1].per_link_rreq_tx


@pytest.mark.parametrize("scenario", ["fig1", "mixed.json", "waypoint.json", "connectivity"])
def test_per_node_and_per_link_breakdowns_sum_to_the_total(scenario):
    if scenario.endswith(".json"):
        sc = parse_scenario((Path(__file__).parent / "golden" / scenario).read_text())
    elif scenario == "connectivity":
        sc = replace(builtin("random-20", seed=4, rounds=12), strategy=Connectivity())
    else:
        sc = builtin(scenario)
    rep = run(sc)
    assert rep.rreq_tx > 0
    assert sum(rep.per_node_rreq_tx.values()) == rep.rreq_tx
    assert sum(rep.per_link_rreq_tx.values()) == rep.rreq_tx
    assert sum(rep.per_node_redundant_rx.values()) == rep.redundant_rreq_rx
    # the CSV digests do not pin the breakdowns, so compare them across trace sinks
    traced = run(sc, trace=io.StringIO())
    assert traced.per_node_rreq_tx == rep.per_node_rreq_tx
    assert traced.per_link_rreq_tx == rep.per_link_rreq_tx
    assert traced.per_node_redundant_rx == rep.per_node_redundant_rx


def test_installed_hop_counts_match_shortest_paths():
    for seed in range(25):
        sc = builtin("random-10", seed=seed)
        rep = run(sc)
        edges = [(a, b) for a, b, _ in sc.links_by_id()]
        dist = bfs_distances(sc.node_count, edges, 0).get(sc.node_count - 1)
        for disc in rep.discoveries:
            if disc.ok:
                assert disc.hop_count == dist


def test_reply_path_routes_are_loop_free():
    for seed in range(10):
        sc = replace(builtin("random-10", seed=seed), t_max=40)
        eng = Engine(sc)
        rep = eng.run()
        if not rep.discoveries_ok:
            continue
        dest = sc.node_count - 1
        at, hops = 0, 0
        while at != dest:
            entry = eng.nodes[at].routes.get(dest)
            assert entry is not None, "reply path node lost its route"
            nxt = entry.next_hop
            assert eng.nodes[nxt].routes.get(dest) is None or \
                eng.nodes[nxt].routes[dest].hop_count < entry.hop_count
            at = nxt
            hops += 1
            assert hops <= sc.node_count, "routing loop"


def test_any_reception_refreshes_liveness():
    # with hellos effectively off, data receptions alone keep links believed
    sc = chain("abc", t_max=100,
               params=ProtocolConfig(hello_interval=1000),
               traffic=[TrafficSpec("a", "c", start=0, rounds=2, spacing=50)])
    rep = run(sc)
    assert rep.hello_tx == 4         # only the tick-0 greetings
    assert rep.rerr_tx == 0
    assert rep.discoveries_ok == 1   # round two rides the cached route
    assert rep.data_tx == 4


def test_static_topology_never_breaks_links():
    rep = run(builtin("fig1"))
    assert rep.rerr_tx == 0


def test_link_down_eventually_raises_route_errors():
    # c->d link dies while a-b-c-d route to d is active and long-lived
    sc = chain("abcd", traffic=("a", "d"), t_max=400,
               events=[LinkEvent(at=30, kind="link_down", a="c", b="d")])
    sc = replace(sc, traffic=[TrafficSpec("a", "d", start=0, rounds=4, spacing=64)])
    rep = run(sc)
    assert rep.rerr_tx >= 1
    assert rep.discoveries_failed >= 1


def test_link_up_is_discovered_through_hellos():
    # the direct a-c link appears only later; a's believed neighbors follow
    sc = chain("abc", t_max=100,
               events=[LinkEvent(at=40, kind="link_up", a="a", b="c")])
    eng = Engine(sc)
    eng.run()
    assert 2 in eng.nodes[0].neighbors


def test_truncation_flag_for_cut_short_discoveries():
    sc = chain("abc", t_max=2)      # reply cannot make it back in time
    rep = run(sc)
    assert rep.timed_out
    assert rep.discoveries_failed == 1


def test_clean_completion_is_not_flagged():
    rep = run(builtin("fig1"))
    assert not rep.timed_out


def test_trace_records_every_tick_ordered():
    buf = io.StringIO()
    run(builtin("fig1"), trace=buf)
    lines = buf.getvalue().splitlines()
    assert lines
    ticks = [int(l.split("\t", 1)[0]) for l in lines]
    assert ticks == sorted(ticks)
    assert all(len(l.split("\t")) == 4 for l in lines)


@pytest.mark.parametrize("scenario,left_open", [
    ("fig1-tables", 0),
    ("random-50", 0),
    ("mixed.json", 0),
    ("waypoint.json", 0),
    ("overrun.json", 5),        # cut short at t_max with requests in flight
])
def test_connectivity_run_leaves_no_attempt_open(scenario, left_open):
    if scenario.endswith(".json"):
        sc = parse_scenario((Path(__file__).parent / "golden" / scenario).read_text())
    else:
        sc = builtin(scenario, rounds=5 if scenario == "random-50" else None)
    eng = Engine(replace(sc, strategy=Connectivity()))
    assert eng.run().timed_out == bool(left_open)
    ledgers = [node.conn._open for node in eng.nodes]
    assert sum(len(opened) for ledger in ledgers for opened in ledger.values()) == left_open
    # a request whose attempts are all closed leaves the ledger
    assert all(opened for ledger in ledgers for opened in ledger.values())


def test_engine_introspection_helpers():
    sc = replace(builtin("fig1"), t_max=40)
    eng = Engine(sc)
    eng.run()
    entry = eng.route_of("S", "D")
    assert entry is not None and entry.hop_count == 4
    assert eng.connectivity_index("S", "D", "N1") is None   # flood has no table


# --- engine contract ------------------------------------------------------

def test_untraced_run_formats_nothing(monkeypatch):
    def refuse(*_args):
        raise AssertionError("trace formatting ran with tracing off")
    monkeypatch.setattr("aodvsim.engine.summarize", refuse)
    scenarios = [builtin("fig1-tables"), builtin("random-20", seed=4),
                 chain("abcd", delay=2, t_max=300,
                       traffic=[TrafficSpec("a", "d", rounds=3, spacing=64)],
                       events=[LinkEvent(at=41, kind="link_down", a="c", b="d"),
                               LinkEvent(at=90, kind="link_up", a="c", b="d"),
                               DropEvent(at=0, frm="a", to="b")]),
                 chain("abcdef", links=[], t_max=80,
                       mobility=RandomWaypoint(area=(60.0, 60.0), radio_range=25.0))]
    for sc in scenarios:
        eng = Engine(sc)
        assert eng._labels is None      # no label table without a trace file
        eng.run()       # any trace formatting raises


def test_live_links_is_the_frozenset_keyed_delay_map():
    sc = chain("abcd", delay=3)
    sc.links[1] = LinkSpec("b", "c", 2)
    eng = Engine(sc)
    full = {frozenset((0, 1)): 3, frozenset((1, 2)): 2, frozenset((2, 3)): 3}
    assert eng.live_links == full
    eng.apply_link_event("link_down", 2, 1)
    assert eng.live_links == {k: v for k, v in full.items() if k != frozenset((1, 2))}
    assert eng.link_peers(1) == [0] and eng.link_peers(2) == [3]
    eng.apply_link_event("link_up", 1, 2)
    assert eng.live_links == full
    assert eng.link_peers(1) == [0, 2]
    eng.apply_link_event("link_up", 0, 3)          # never configured: delay 1
    assert eng.live_links == {**full, frozenset((0, 3)): 1}
    eng.apply_link_event("link_up", 3, 0)          # already live: no change
    eng.apply_link_event("link_down", 0, 2)        # absent: no change
    assert eng.live_links == {**full, frozenset((0, 3)): 1}
    assert eng.link_peers(0) == [1, 3] and eng.link_peers(2) == [1, 3]


def test_radio_range_links_a_pair_exactly_range_apart():
    # a-b and a-d are exactly 25 apart (d on the x axis); b-c is just beyond 25
    nodes = [NodeSpec("a", pos=(0.0, 0.0)), NodeSpec("b", pos=(15.0, 20.0)),
             NodeSpec("c", pos=(30.0, 40.000001)), NodeSpec("d", pos=(-25.0, 0.0))]
    sc = chain("abcd", links=[], nodes=nodes, t_max=10,
               mobility=RandomWaypoint(area=(60.0, 60.0), radio_range=25.0))
    assert Engine(sc).live_links == {frozenset((0, 1)): 1, frozenset((0, 3)): 1}


# --- links under mobility -------------------------------------------------

def _links_track_positions(sc: Scenario) -> int:
    """Run `sc`, asserting after every mobility tick that the live links are
    exactly the pairs in radio range; return the number of ticks checked."""
    ticks = []
    tick = Engine._mobility_tick

    def checked(eng):
        tick(eng)
        pos = [eng.positions[i] for i in range(sc.node_count)]
        live = [(a, b) for a, peers in enumerate(eng._adj) for b in sorted(peers) if a < b]
        assert sorted(live) == sorted((b, a) for a, peers in enumerate(eng._adj)
                                      for b in peers if b < a)
        assert live == pairs_in_range(pos, sc.mobility.radio_range), eng.now
        ticks.append(eng.now)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "_mobility_tick", checked)
        Engine(sc).run()
    return len(ticks)


# still nodes, with one pair exactly the radio range apart
_STILL = Scenario(name="still", nodes=[NodeSpec("a", (0.0, 0.0)), NodeSpec("b", (15.0, 20.0)),
                                       NodeSpec("c", (30.0, 40.000001))],
                  links=[], traffic=[TrafficSpec("a", "c")], t_max=30,
                  mobility=RandomWaypoint(area=(60.0, 60.0), speed=(0.0, 0.0), pause=0,
                                          radio_range=25.0),
                  events=[LinkEvent(5, "link_down", "a", "b"), LinkEvent(5, "link_up", "b", "c")])


# a link_down of an in-range pair and a link_up of an out-of-range pair
# change the links between two mobility ticks; each tick must undo them
_WAYPOINT_EVENTS = parse_scenario(
    (Path(__file__).parent / "golden" / "waypoint-events.json").read_text())


@settings(derandomize=True, deadline=None, max_examples=60)
@example(sc=_STILL)
@example(sc=_WAYPOINT_EVENTS)
@given(sc=valid_scenarios()     # the distance strategy needs positions a drawn doc may lack
       .filter(lambda doc: "mobility" in doc and doc["strategy"]["kind"] != "distance")
       .map(lambda doc: parse_scenario(json.dumps(doc))))
def test_links_track_positions_on_every_tick(sc):
    assert _links_track_positions(sc) == sc.t_max


def test_hello_only_queue_tail_is_not_a_truncation():
    # hellos sent at tick 40 are still in flight at t_max; nothing else is.
    # The trace sink keeps the run on the per-packet HELLO path.
    sc = chain("ab", delay=3, t_max=41, params=ProtocolConfig(discovery_deadline=30))
    eng = Engine(sc, trace=io.StringIO())
    rep = eng.run()
    assert rep.discoveries_ok == 1
    tail = [args[1] for _, _, handler, args in eng._queue if handler is Engine._deliver]
    assert tail and all(isinstance(p, Hello) for groups in tail for p, _ in groups)
    assert not rep.timed_out


def test_untraced_run_with_hellos_in_flight_at_t_max_reports_the_same():
    sc = chain("ab", delay=3, t_max=41, params=ProtocolConfig(discovery_deadline=30))
    rep = run(sc)
    assert rep == run(sc, trace=io.StringIO())
    assert rep.hello_tx == 2 * 5 and not rep.timed_out


# --- HELLO elision --------------------------------------------------------

def _queues_hello_ticks(eng: Engine) -> bool:
    return any(handler is Engine._hello_tick for _, _, handler, _ in eng._queue)


def test_static_untraced_run_counts_hellos_without_queueing_them():
    sc = builtin("random-20", seed=3)
    eng = Engine(sc)
    assert not _queues_hello_ticks(eng)
    rep = eng.run()
    assert rep == run(sc, trace=io.StringIO())
    links = len(sc.links)
    assert rep.hello_tx == 2 * links * (sc.t_max // sc.params.hello_interval + 1)


_DECLINED = {
    "trace": (chain("abc"), io.StringIO),
    "link_down": (chain("abcd", t_max=300,
                        events=[LinkEvent(at=30, kind="link_down", a="c", b="d")]), None),
    "mobility": (chain("abcdef", links=[], t_max=80,
                       mobility=RandomWaypoint(area=(60.0, 60.0), radio_range=25.0)), None),
    "drop_at_hello_tick": (chain("abc", events=[DropEvent(at=20, frm="b", to="a")]), None),
    # the first HELLO lands after the timeout, so a link breaks before it
    "delay_plus_interval_over_timeout": (chain("abc", delay=40, t_max=400,
                                               params=ProtocolConfig(discovery_deadline=100)),
                                         None),
}


@pytest.mark.parametrize("case", sorted(_DECLINED))
def test_each_failing_condition_keeps_hellos_per_packet(case):
    sc, sink = _DECLINED[case]
    eng = Engine(sc, trace=sink() if sink else None)
    assert _queues_hello_ticks(eng)
    rep = eng.run()
    traced = run(sc, trace=io.StringIO())
    assert (rep.hello_tx, rep.losses) == (traced.hello_tx, traced.losses)
    assert rep == traced


def test_finished_engine_with_queued_entries_needs_no_cycle_collector():
    # a queue entry names its handler as a plain function, so nothing queued
    # refers back to the engine and dropping the last reference frees it
    eng = Engine(chain("ab", delay=3, t_max=41, params=ProtocolConfig(discovery_deadline=30)))
    eng.run()
    assert eng._queue
    ref = weakref.ref(eng)
    gc.disable()
    try:
        del eng
        assert ref() is None
    finally:
        gc.enable()
