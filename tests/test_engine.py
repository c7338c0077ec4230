import contextlib
import gc
import io
import json
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from aodvsim.cli import main
from aodvsim.engine import Engine, run
from aodvsim.node import AttemptSweep, DiscoveryDeadline, ForwardDecision, Node, ProtocolConfig
from aodvsim.protocol import Data, Hello, Rerr, Rrep, Rreq, RreqId
from aodvsim.scenario import (
    DropEvent,
    LinkEvent,
    LinkSpec,
    NodeSpec,
    RandomWaypoint,
    Scenario,
    TrafficSpec,
    builtin,
    parse_scenario,
)
from aodvsim.suppression import (
    STRATEGIES,
    Connectivity,
    ConnectivityState,
    DistanceBased,
    ExpandingRing,
    Flood,
)
from aodvsim.wire import ValidationError

from oracles import bfs_distances, pairs_in_range
from test_fuzz import valid_scenarios
from test_golden import GOLDEN, corpus


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


def test_a_scripted_link_up_gives_delay_one_among_slower_listed_links():
    # every listed link has delay 2; the scripted link_up of the unlisted
    # pair s-c gives it delay 1. s's HELLO at tick 10 and its flood at 15
    # therefore land in two ticks, the slower group first in send order, and
    # the flood also loses b (taken down at 12) and d (scripted drop)
    sc = Scenario(
        name="late-link",
        nodes=[NodeSpec(l) for l in "sabcd"],
        links=[LinkSpec("s", "a", 2), LinkSpec("s", "b", 2), LinkSpec("s", "d", 2),
               LinkSpec("a", "c", 2)],
        traffic=[TrafficSpec("s", "c", start=15)],
        events=[LinkEvent(at=1, kind="link_up", a="c", b="s"),
                LinkEvent(at=12, kind="link_down", a="s", b="b"),
                DropEvent(at=15, frm="s", to="d")],
        t_max=20,
    )
    buf = io.StringIO()
    rep = run(sc, trace=buf)
    assert [l for l in buf.getvalue().splitlines() if 11 <= int(l.split("\t")[0]) <= 19] == [
        "11\tc\tdeliver\tfrom=s HELLO from=0",
        "11\ts\tdeliver\tfrom=c HELLO from=3",
        "12\ts\tlink-down\tb",
        "12\ta\tdeliver\tfrom=s HELLO from=0",
        "12\tb\tdeliver-cancelled\tfrom=s HELLO from=0",
        "12\td\tdeliver\tfrom=s HELLO from=0",
        "12\ts\tdeliver\tfrom=a HELLO from=1",
        "12\tc\tdeliver\tfrom=a HELLO from=1",
        "12\ts\tdeliver-cancelled\tfrom=b HELLO from=2",
        "12\ta\tdeliver\tfrom=c HELLO from=3",
        "12\ts\tdeliver\tfrom=d HELLO from=4",
        "15\ts\tinject\tdest=c round=0",
        "15\ts\tloss\tlink-absent to=b",
        "15\ts\tloss\tscripted to=d RREQ[0:0] dest=3 hop=0 ttl=5",
        "16\tc\tdeliver\tfrom=s RREQ[0:0] dest=3 hop=0 ttl=5",
        "17\ta\tdeliver\tfrom=s RREQ[0:0] dest=3 hop=0 ttl=5",
        "17\ts\tdeliver\tfrom=c RREP[0:0] dest=3 hop=0 seq=1",
        "18\tc\tdeliver\tfrom=s DATA 0->3 id=0",
        "18\tc\tdeliver-up\tpayload=0 src=s",
        "19\tc\tdeliver\tfrom=a RREQ[0:0] dest=3 hop=1 ttl=4",
        "19\tc\tdrop\tduplicate-rreq RREQ[0:0] dest=3 hop=1 ttl=4",
    ]
    assert (rep.losses, rep.rreq_tx, rep.rrep_tx, rep.hello_tx, rep.data_tx) == (2, 3, 1, 26, 1)
    assert rep.per_node_rreq_tx == {0: 2, 1: 1}
    assert rep.per_link_rreq_tx == {(0, 1): 1, (0, 3): 1, (1, 3): 1}
    assert rep.per_node_redundant_rx == {3: 1}


def _protocol_lines(trace: io.StringIO) -> list[str]:
    """The trace without its HELLO ticks and HELLO deliveries."""
    return [l for l in trace.getvalue().splitlines()
            if "\thello-tick\t" not in l and " HELLO from=" not in l]


def _requests(eng: Engine) -> dict[str, dict[int, list[str]]]:
    """Per node label, each request heard by its number: its senders."""
    labels = [n.name for n in eng.scenario.nodes]
    return {labels[n.me]: {rid.num: [labels[s] for s in r.senders]
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
        "a": {0: [], 1: []},
        "b": {0: ["a"], 1: ["a", "c"]},
        "c": {0: ["a"], 1: ["a"]},
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
        "s": {0: []}, "x": {0: ["s"]}, "y": {0: ["s"]}, "t": {0: ["x", "y"]},
    }


@contextlib.contextmanager
def _repeated_senders():
    """Yield a list that gets (node, RREQ ID, sender) for every copy whose
    sender the node had already recorded for that RREQ ID."""
    found = []
    real = Node.heard_before

    def heard_before(node, rreq, frm):
        repeat = real(node, rreq, frm)
        if repeat and node.requests[rreq.rreq_id].senders.count(frm) > 1:
            found.append((node.me, rreq.rreq_id, frm))
        return repeat
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Node, "heard_before", heard_before)
        yield found


def _run_golden_corpus() -> None:
    """Run every golden corpus entry through the CLI, untraced."""
    for scenario, options in corpus():
        source = str(GOLDEN / scenario) if scenario.endswith(".json") else scenario
        strategy = ["--strategy", *options.split()] if options else []
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--scenario", source, *strategy]) == 0


def _run_drawn(doc: dict) -> None:
    try:
        sc = parse_scenario(json.dumps(doc))
    except ValidationError:
        return
    Engine(sc).run()


def test_no_golden_run_hears_one_request_twice_from_one_sender():
    # a node relays each RREQ ID at most once, so no request record holds a sender twice
    with _repeated_senders() as found:
        _run_golden_corpus()
    assert found == []


@settings(derandomize=True, deadline=None, max_examples=300)
@given(doc=valid_scenarios())
def test_no_drawn_run_hears_one_request_twice_from_one_sender(doc):
    with _repeated_senders() as found:
        _run_drawn(doc)
    assert found == []


@contextlib.contextmanager
def _replies_for_self():
    """Yield a list that gets (node, RREP) for every RREP a node receives
    whose destination is that node."""
    found = []
    real = Node.on_rrep

    def on_rrep(node, rrep, frm, now, link_is_new=False):
        if rrep.dest == node.me:
            found.append((node.me, rrep))
        real(node, rrep, frm, now, link_is_new)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Node, "on_rrep", on_rrep)
        yield found


# A route is installed only for an RREP's destination, and a destination
# replies rather than relays, so it is never a reverse sender of a request
# for itself: no node holds a route to itself, and _lose_routes never
# rediscovers the node it runs at
def test_no_golden_run_sends_a_node_a_reply_for_itself():
    with _replies_for_self() as found:
        _run_golden_corpus()
    assert found == []


@settings(derandomize=True, deadline=None, max_examples=300)
@given(doc=valid_scenarios())
def test_no_drawn_run_sends_a_node_a_reply_for_itself(doc):
    with _replies_for_self() as found:
        _run_drawn(doc)
    assert found == []


@contextlib.contextmanager
def _stray_deadlines():
    """Yield a list that gets (node, dest, tick) for every discovery deadline
    that fires for its node's open record on a tick other than the one that
    record's latest attempt set, or that changes anything while the record
    it carries is not its node's open one."""
    found = []
    due = {}        # id(record) -> (record, the tick its latest attempt gives up)
    real_launch, real_timeout = Node._launch_attempt, Node.on_discovery_timeout

    def _launch_attempt(node, disc, now):
        due[id(disc)] = disc, now + node.config.deadline_for(node.node_count)
        real_launch(node, disc, now)

    def on_discovery_timeout(node, disc, now):
        def state():
            return (disc.attempts, disc.failed, node.next_rreq_num,
                    [(d, id(r)) for d, r in node.pending_discoveries.items()])
        is_open = node.pending_discoveries.get(disc.dest) is disc
        if is_open and now != due[id(disc)][1]:
            found.append((node.me, disc.dest, now))
        before = state()
        real_timeout(node, disc, now)
        if not is_open and state() != before:
            found.append((node.me, disc.dest, now))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Node, "_launch_attempt", _launch_attempt)
        mp.setattr(Node, "on_discovery_timeout", on_discovery_timeout)
        yield found


# only _launch_attempt sets a deadline, and a retry starts only from the
# deadline that is firing: an open record's deadline is its latest attempt's,
# and a deadline whose record has closed leaves every discovery alone
def test_no_golden_run_fires_a_stray_discovery_deadline():
    with _stray_deadlines() as found:
        _run_golden_corpus()
    assert found == []


@settings(derandomize=True, deadline=None, max_examples=300)
@given(doc=valid_scenarios())
def test_no_drawn_run_fires_a_stray_discovery_deadline(doc):
    with _stray_deadlines() as found:
        _run_drawn(doc)
    assert found == []


def _write_once(obj, name: str, value) -> None:
    """A `__setattr__` that sets a slot only while it is unset, as the
    frozen dataclasses' `__init__` did; a second write raises."""
    try:
        getattr(obj, name)
    except AttributeError:              # a slot not yet set
        object.__setattr__(obj, name, value)
        return
    raise AttributeError(f"{type(obj).__name__}.{name} is written once")


def test_no_golden_run_writes_a_packet_field_twice(monkeypatch):
    # packets and timer kinds are shared between queue entries and request
    # records, so a step builds a new one rather than change one it holds.
    # A second write raises in the run, and `main` exits 2 naming it.
    for cls in (Rreq, Rrep, Rerr, Hello, Data, DiscoveryDeadline, AttemptSweep, ForwardDecision):
        monkeypatch.setattr(cls, "__setattr__", _write_once)
    rrep = Rrep(dest=1, dest_seq=1, hop_count=0, rreq_id=RreqId(0, 0))
    with pytest.raises(AttributeError, match="Rrep.hop_count is written once"):
        rrep.hop_count += 1             # the setter is in place
    _run_golden_corpus()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_a_hello_stamps_only_the_recipients_whose_link_is_still_up(traced):
    # s's HELLO from tick 10 lands on a and b at 12 in one delivery, but s-b
    # went down at 11: a stamps s at 12, b keeps the stamp of tick 0's HELLO.
    # The trace lines of such a delivery are pinned by
    # test_a_scripted_link_up_gives_delay_one_among_slower_listed_links
    sc = Scenario(
        name="hello-cut",
        nodes=[NodeSpec(l) for l in "sab"],
        links=[LinkSpec("s", "a", 2), LinkSpec("s", "b", 2)],
        traffic=[TrafficSpec("a", "b", start=12)],
        events=[LinkEvent(at=11, kind="link_down", a="s", b="b")],
        t_max=12,
    )
    buf = io.StringIO() if traced else None
    eng = Engine(sc, trace=buf)
    eng.run()
    assert (eng.nodes[1].neighbors[0], eng.nodes[2].neighbors[0]) == (12, 2)


def test_no_reply_finds_its_link_new_on_a_static_run(monkeypatch):
    # with no scripted link_up, no link is new: every reply passes False
    flags, real = [], Node.on_rrep

    def on_rrep(node, rrep, frm, now, link_is_new=False):
        flags.append(link_is_new)
        real(node, rrep, frm, now, link_is_new)
    monkeypatch.setattr(Node, "on_rrep", on_rrep)
    run(builtin("random-20"))
    assert flags and not any(flags)


def test_sends_and_timers_of_one_step_keep_their_order_on_a_shared_tick():
    # b looks for c twice under connectivity with a one-tick discovery
    # deadline: each flood's AttemptSweep and DiscoveryDeadline land on the
    # tick of its delay-1 deliveries, after them and in that order, so the
    # sweep has closed the flood's attempts before the deadline retries. The
    # first reply releases both queued payloads on one tick. When b-c goes
    # down, b's hello tick at 40 sends a HELLO, a RERR and a new flood to a
    # (delay 1) and d (delay 2), in that order on each tick.
    sc = Scenario(
        name="burst",
        nodes=[NodeSpec(l) for l in "abcd"],
        links=[LinkSpec("a", "b", 1), LinkSpec("b", "c", 1), LinkSpec("b", "d", 2)],
        traffic=[TrafficSpec("b", "c"), TrafficSpec("b", "c", start=1)],
        strategy=Connectivity(),
        params=ProtocolConfig(discovery_deadline=1),
        events=[LinkEvent(at=12, kind="link_down", a="b", b="c")],
        t_max=42,
    )
    buf = io.StringIO()
    rep = run(sc, trace=buf)
    ticks = {"1", "2", "3", "41", "42"}
    assert [l for l in buf.getvalue().splitlines() if l.split("\t")[0] in ticks] == [
        "1\tb\tinject\tdest=c round=0",
        "1\ta\tdeliver\tfrom=b RREQ[1:0] dest=2 hop=0 ttl=4",
        "1\tc\tdeliver\tfrom=b RREQ[1:0] dest=2 hop=0 ttl=4",
        "1\tb\ttimer\tAttemptSweep",
        "1\tb\ttimer\tDiscoveryDeadline",
        "1\tb\tdeliver\tfrom=a HELLO from=0",
        "1\ta\tdeliver\tfrom=b HELLO from=1",
        "1\tc\tdeliver\tfrom=b HELLO from=1",
        "1\tb\tdeliver\tfrom=c HELLO from=2",
        "2\td\tdeliver\tfrom=b RREQ[1:0] dest=2 hop=0 ttl=4",
        "2\td\tdeliver\tfrom=b HELLO from=1",
        "2\tb\tdeliver\tfrom=d HELLO from=3",
        "2\tb\tdeliver\tfrom=c RREP[1:0] dest=2 hop=0 seq=1",
        "2\ta\tdeliver\tfrom=b RREQ[1:1] dest=2 hop=0 ttl=4",
        "2\tc\tdeliver\tfrom=b RREQ[1:1] dest=2 hop=0 ttl=4",
        "2\tb\ttimer\tAttemptSweep",
        "2\tb\ttimer\tDiscoveryDeadline",
        "3\td\tdeliver\tfrom=b RREQ[1:1] dest=2 hop=0 ttl=4",
        "3\tc\tdeliver\tfrom=b DATA 1->2 id=0",
        "3\tc\tdeliver-up\tpayload=0 src=b",
        "3\tc\tdeliver\tfrom=b DATA 1->2 id=1",
        "3\tc\tdeliver-up\tpayload=1 src=b",
        "3\tb\tdeliver\tfrom=c RREP[1:1] dest=2 hop=0 seq=2",
        "41\tb\tdeliver\tfrom=a HELLO from=0",
        "41\ta\tdeliver\tfrom=b HELLO from=1",
        "41\ta\tdeliver\tfrom=b RERR[2]",
        "41\ta\tdeliver\tfrom=b RREQ[1:2] dest=2 hop=0 ttl=4",
        "41\tb\ttimer\tAttemptSweep",
        "41\tb\ttimer\tDiscoveryDeadline",
        "42\td\tdeliver\tfrom=b HELLO from=1",
        "42\td\tdeliver\tfrom=b RERR[2]",
        "42\td\tdeliver\tfrom=b RREQ[1:2] dest=2 hop=0 ttl=4",
        "42\tb\tdeliver\tfrom=d HELLO from=3",
        "42\ta\tdeliver\tfrom=b RREQ[1:3] dest=2 hop=0 ttl=4",
        "42\tb\ttimer\tAttemptSweep",
        "42\tb\ttimer\tDiscoveryDeadline",
    ]
    assert rep.rerr_tx == 2 and rep.data_tx == 2


def test_rounds_of_two_flows_on_one_tick_run_in_flow_order():
    # a->d has rounds at 50 and 250, d->a at 0 and 250: on tick 250 the
    # first flow's round runs first, though the second flow's first round
    # ran earlier
    sc = chain("abcd", traffic=[TrafficSpec("a", "d", start=50, spacing=200, rounds=2),
                                TrafficSpec("d", "a", start=0, spacing=250, rounds=2)],
               t_max=400)
    buf = io.StringIO()
    rep = run(sc, trace=buf)
    assert [l for l in buf.getvalue().splitlines() if "\tinject\t" in l or "deliver-up" in l] == [
        "0\td\tinject\tdest=a round=0",
        "9\ta\tdeliver-up\tpayload=2 src=d",
        "50\ta\tinject\tdest=d round=0",
        "59\td\tdeliver-up\tpayload=0 src=a",
        "250\ta\tinject\tdest=d round=1",
        "250\td\tinject\tdest=a round=1",
        "259\td\tdeliver-up\tpayload=1 src=a",
        "259\ta\tdeliver-up\tpayload=3 src=d",
    ]
    assert rep.discoveries_ok == 4 and not rep.timed_out


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


@pytest.mark.parametrize("scenario", ["fig1", "mixed.json", "waypoint.json", "waypoint-events.json",
                                      "connectivity"])
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


@pytest.mark.parametrize("scenario", ["fig1-tables", "mixed.json", "waypoint-events.json"])
def test_per_link_counts_are_the_request_copies_each_link_carried(scenario):
    # each copy sent over a live link lands as one deliver or deliver-cancelled
    # line at its receiver, and none is left at t_max
    sc = (parse_scenario((GOLDEN / scenario).read_text()) if scenario.endswith(".json")
          else builtin(scenario))
    buf = io.StringIO()
    rep = run(sc, trace=buf)
    assert not rep.timed_out
    ids, carried = sc.node_ids(), Counter()
    for line in buf.getvalue().splitlines():
        _, to, kind, detail = line.split("\t")
        if kind in ("deliver", "deliver-cancelled") and " RREQ[" in detail:
            carried[ids[detail.split()[0].removeprefix("from=")], ids[to]] += 1
    assert rep.per_link_rreq_tx == dict(carried)
    assert rep.per_sender_rreq_tx[0] == {to: n for (frm, to), n in carried.items() if frm == 0}


def test_a_run_ten_times_longer_keeps_as_many_request_records():
    # records expire at their horizon, so random-20's request records and
    # traced heap after the run are the same at 2,000 rounds as at 200, but
    # for the report's one DiscoveryRecord per round
    kept = []
    for rounds in (200, 2000):
        tracemalloc.start()
        try:
            eng = Engine(builtin("random-20", rounds=rounds))
            rep = eng.run()
            assert len(rep.discoveries) == rounds
            rep.discoveries.clear()
            heap = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        kept.append((sum(len(n.requests) for n in eng.nodes), heap))
    (records, heap), (long_records, long_heap) = kept
    assert long_records == records <= 20
    assert long_heap < heap + 16_000


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


def test_only_the_first_reply_over_a_returned_link_finds_it_new():
    # A-D comes back at 5, and the first reply D sends A over it is dropped.
    # A later reply finds the link new once; a second bonus would lift A's
    # index toward D from 2/3 to 0.767.
    sc = chain("SAD", traffic=[TrafficSpec("S", "D", start=10, rounds=3, spacing=30)],
               t_max=120, strategy=Connectivity(warmup_attempts=100),
               events=[LinkEvent(at=0, kind="link_down", a="A", b="D"),
                       LinkEvent(at=5, kind="link_up", a="A", b="D"),
                       DropEvent(at=12, frm="D", to="A")])
    eng = Engine(sc)
    eng.run()
    assert eng.connectivity_index("A", "D", "D") == 2 / 3


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


@pytest.mark.parametrize("name", ["fig1", "fig1-tables", "ring-demo", "random-20"])
def test_each_node_holds_the_state_its_strategy_needs(name):
    base = builtin(name)
    for cls in STRATEGIES:
        if cls is DistanceBased and base.nodes[0].pos is None:
            continue            # rejected when built: the builtin has no positions
        sc = replace(base, strategy=cls())
        states = [node.conn for node in Engine(sc).nodes]
        if cls is Connectivity:
            assert all(type(s) is ConnectivityState and s.strategy is sc.strategy for s in states)
            assert len(set(map(id, states))) == len(states)     # one table per node
        else:
            assert states == [None] * len(states)


def test_only_the_distance_strategy_reads_positions():
    def unreadable(node):
        raise LookupError(f"read the position of node {node}")
    for strategy in (Flood(), DistanceBased(min_distance=20.0)):
        eng = Engine(replace(builtin("random-20"), strategy=strategy))
        for node in eng.nodes:
            node.position_of = unreadable
        if strategy.kind == "distance":
            with pytest.raises(LookupError):
                eng.run()
        else:
            assert eng.run().rreq_tx == 144     # every relay decided, no position read


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
    sc = chain("abcd", links=[LinkSpec("a", "b", 3), LinkSpec("b", "c", 2), LinkSpec("c", "d", 3)])
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
                  mobility=RandomWaypoint(area=(60.0, 60.0), speed=(0.0, 0.0), pause=1,
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


@pytest.mark.parametrize("positions, live", [
    pytest.param([(0.0, 0.0), (40.0, 0.0)], [], id="dx-is-range-dy-zero"),
    pytest.param([(0.0, 0.0), (40.0, 1.0)], [], id="dx-is-range-dy-nonzero"),
    pytest.param([(10.0, 50.0), (34.0, 18.0), (58.0, 50.0)], [], id="diagonal-24-32-40"),
    pytest.param([(5.0, 0.0), (5.0, 40.0), (5.0, 40.5), (5.0, 40.5)], [],
                 id="equal-x-and-coincident"),
    pytest.param([(0.0, 0.0), (90.0, 0.0), (20.0, 0.0)], [(0, 1)],
                 id="live-link-dx-past-range"),
    pytest.param([(0.0, 0.0), (10.0, 70.0)], [(0, 1)], id="scripted-up-out-of-range"),
    pytest.param([(100.0, 0.0), (0.0, 0.0), (70.0, 10.0)], [], id="last-in-x-order"),
])
def test_recompute_finds_exactly_the_pairs_in_range(positions, live):
    # radio range 40; each case puts a pair where the live retest or the
    # x-sweep could go wrong, with the live links set by hand
    nodes = [NodeSpec(f"n{i}", pos) for i, pos in enumerate(positions)]
    eng = Engine(Scenario(name="sweep", nodes=nodes, links=[], t_max=10,
                          traffic=[TrafficSpec("n0", "n1")],
                          mobility=RandomWaypoint(area=(100.0, 100.0), speed=(0.0, 0.0),
                                                  pause=1, radio_range=40.0)))
    for key in eng.live_links:
        eng.apply_link_event("link_down", *key)
    for a, b in live:
        eng.apply_link_event("link_up", a, b)
    eng._recompute_links()
    wanted = pairs_in_range(positions, 40.0)
    assert sorted(tuple(sorted(key)) for key in eng.live_links) == wanted
    assert [(a, b) for a, peers in enumerate(eng._adj) for b in sorted(peers) if a < b] == wanted


def test_hello_only_queue_tail_is_not_a_truncation():
    # hellos sent at tick 40 are still in flight at t_max; nothing else is.
    # The trace sink keeps the run on the per-packet HELLO path.
    sc = chain("ab", delay=3, t_max=41, params=ProtocolConfig(discovery_deadline=30))
    eng = Engine(sc, trace=io.StringIO())
    rep = eng.run()
    assert rep.discoveries_ok == 1
    # a delivery entry's args are (frm, packet, recipients)
    tail = [args[1] for _, _, handler, args in eng._queue if handler is Engine._deliver]
    assert tail and all(isinstance(p, Hello) for p in tail)
    assert not rep.timed_out


def test_stale_discovery_deadline_is_not_a_truncation():
    # the discovery succeeds at tick 2; its deadline at tick 4 and a route
    # sweep are all that is left at t_max
    assert not Engine(chain("ab", t_max=3)).run().timed_out
    # a DATA delivery still in flight at tick 9 does cut the run short
    assert Engine(chain("ab", delay=3, t_max=7)).run().timed_out


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
    # a unit delay counts too: 1 + interval is past a timeout equal to the interval
    "unit_delay_timeout_is_interval": (chain("abc", params=ProtocolConfig(hello_timeout=10)),
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


_ELIDED = {
    "unit_delay_timeout_past_interval": chain("abc", params=ProtocolConfig(hello_timeout=11)),
    # with no link there is no delay to wait for, so a timeout equal to the interval is enough
    "no_links_timeout_is_interval": chain("abc", links=[],
                                          params=ProtocolConfig(hello_timeout=10)),
}


@pytest.mark.parametrize("case", sorted(_ELIDED))
def test_largest_link_delay_bounds_hello_elision(case):
    sc = _ELIDED[case]
    eng = Engine(sc)
    assert not _queues_hello_ticks(eng)
    assert eng.run() == run(sc, trace=io.StringIO())


def test_set_up_queues_one_round_per_flow():
    # so set-up memory does not grow with the round count
    few, many = Engine(builtin("fig1", rounds=10)), Engine(builtin("fig1", rounds=100_000))
    assert len(few._queue) == len(many._queue)


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
