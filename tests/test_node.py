import random

import pytest

import aodvsim.node as node_module
from aodvsim.metrics import MetricsReport
from aodvsim.node import (
    AttemptSweep,
    DeliverUp,
    DiscoveryDeadline,
    Drop,
    ForwardDecision,
    InvalidDestination,
    Node,
    ProtocolConfig,
    RouteSweep,
    Send,
    SetTimer,
)
from aodvsim.protocol import (
    Data,
    Hello,
    Rerr,
    RoutingEntry,
    Rrep,
    RreqId,
    Rreq,
)
from aodvsim.suppression import (
    Connectivity,
    ConnectivityConfig,
    ConnectivityState,
    CounterBased,
    Flood,
)


def make_node(me=0, neighbors=(), strategy=None, node_count=6, config=None,
              connectivity=None, **kw):
    node = Node(
        me=me,
        config=config or ProtocolConfig(),
        strategy=strategy or Flood(),
        node_count=node_count,
        metrics=MetricsReport(),
        rng=random.Random(0),
        connectivity=connectivity,
        **kw,
    )
    for n in neighbors:
        node.neighbors[n] = 0
    return node


def sends(emissions):
    return [e for e in emissions if isinstance(e, Send)]


def recipients(emissions):
    """Each Send's recipients, in send order: one list per packet."""
    return [list(e.to) for e in sends(emissions)]


def timers(emissions, kind=None):
    out = [e for e in emissions if isinstance(e, SetTimer)]
    if kind is not None:
        out = [e for e in out if isinstance(e.kind, kind)]
    return out


def make_rreq(origin=3, num=0, dest=5, ttl=6, hop=1, dest_seq=None):
    return Rreq(rreq_id=RreqId(origin, num), dest=dest, dest_seq_known=dest_seq,
                hop_count=hop, ttl=ttl)


def hear(node, rreq, frm, now):
    """A request copy as the engine hands it over: a repeat is counted by
    heard_before and goes no further (None), any other copy reaches on_rreq."""
    if node.heard_before(rreq, frm):
        return None
    return node.on_rreq(rreq, frm, now)


# --- originating ----------------------------------------------------------

def test_send_data_to_self_delivers_locally():
    node = make_node()
    assert make_node().send_data(0, 7, now=0) == [DeliverUp(7, 0)]
    assert not node.pending_discoveries


def test_send_data_over_valid_route_marks_it_active():
    node = make_node(neighbors=[1])
    node.routes[5] = RoutingEntry(next_hop=1, hop_count=2, dest_seq=1,
                                  expires_at=100)
    out = node.send_data(5, 7, now=0)
    assert out == [Send((1,), Data(0, 5, 7))]
    assert node.routes[5].active


def test_send_data_without_route_floods_request_and_arms_deadline():
    node = make_node(neighbors=[2, 1, 3])
    out = node.send_data(5, 7, now=4)
    # ascending neighbor id, undecremented ttl = node count
    assert recipients(out) == [[1, 2, 3]]
    req = sends(out)[0].packet
    assert (req.ttl, req.hop_count, req.rreq_id) == (6, 0, RreqId(0, 0))
    deadline = timers(out, DiscoveryDeadline)
    assert deadline and deadline[0].at == 4 + 2 * 6
    assert node.pending_discoveries[5].queued == [7]


def test_second_payload_joins_live_discovery_without_new_flood():
    node = make_node(neighbors=[1])
    node.send_data(5, 7, now=0)
    assert node.send_data(5, 8, now=1) == []
    assert node.pending_discoveries[5].queued == [7, 8]


def test_discovery_to_self_is_refused():
    with pytest.raises(InvalidDestination):
        make_node().initiate_discovery(0, now=0)


def test_discovery_with_no_neighbors_still_times_out_cleanly():
    node = make_node(neighbors=[], config=ProtocolConfig(max_retries=1))
    out = node.send_data(5, 7, now=0)
    assert not sends(out)
    fail = node.on_discovery_timeout(5, now=12)
    assert [e.packet.payload_id for e in fail if isinstance(e, Drop)] == [7]
    assert node.metrics.discoveries_failed == 1
    assert 5 not in node.pending_discoveries


# --- request handling -----------------------------------------------------

def test_destination_replies_once_with_fresh_sequence():
    node = make_node(me=5, neighbors=[4])
    out = node.on_rreq(make_rreq(dest=5), frm=4, now=3)
    assert len(sends(out)) == 1
    rep = sends(out)[0].packet
    assert isinstance(rep, Rrep)
    assert (sends(out)[0].to, rep.hop_count, rep.dest_seq) == ((4,), 0, 1)
    # second copy is a duplicate, no second reply
    assert hear(node, make_rreq(dest=5), frm=4, now=4) is None
    assert node.seq == 1


def test_duplicate_copy_records_extra_reverse_sender():
    node = make_node(me=2, neighbors=[1, 3, 4])
    node.on_rreq(make_rreq(), frm=1, now=0)
    assert node.heard_before(make_rreq(), frm=3)
    assert node.requests[RreqId(3, 0)].senders == [1, 3]
    assert node.requests[RreqId(3, 0)].copies == 2


def test_request_record_keeps_senders_in_arrival_order_without_repeats():
    node = make_node(me=2, neighbors=[1, 3, 4, 5])
    for frm in (4, 5, 4, 3):
        hear(node, make_rreq(), frm=frm, now=0)
    assert node.requests[RreqId(3, 0)].senders == [4, 5, 3]
    assert node.requests[RreqId(3, 0)].copies == 4


def test_duplicate_detection_is_per_request_id():
    node = make_node(me=2, neighbors=[1, 3])

    def dropped(out):
        return [d.reason for d in out if isinstance(d, Drop)]
    assert dropped(hear(node, make_rreq(num=4), frm=1, now=0)) == []
    assert hear(node, make_rreq(num=4), frm=3, now=1) is None
    assert dropped(hear(node, make_rreq(num=5), frm=1, now=2)) == []
    assert dropped(hear(node, make_rreq(origin=4, num=4), frm=1, now=3)) == []
    assert node.metrics.redundant_rreq_rx == 1
    assert node.metrics.per_node_redundant_rx == {2: 1}


def test_expired_ttl_is_dropped_before_any_bookkeeping():
    node = make_node(me=5, neighbors=[4])
    out = node.on_rreq(make_rreq(dest=5, ttl=0), frm=4, now=0)
    assert [d.reason for d in out if isinstance(d, Drop)] == ["ttl-expired"]
    # not marked seen: a live copy arriving later still gets the reply
    out = node.on_rreq(make_rreq(dest=5, ttl=1), frm=4, now=1)
    assert sends(out)


def test_relay_decrements_ttl_and_skips_the_sender():
    node = make_node(me=2, neighbors=[1, 3, 4])
    out = node.on_rreq(make_rreq(ttl=4, hop=1), frm=1, now=0)
    assert recipients(out) == [[3, 4]]
    fwd = sends(out)[0].packet
    assert (fwd.ttl, fwd.hop_count) == (3, 2)


def test_intermediate_with_fresh_route_quenches_the_flood():
    node = make_node(me=2, neighbors=[1, 3])
    node.routes[5] = RoutingEntry(next_hop=3, hop_count=2, dest_seq=4,
                                  expires_at=100)
    out = node.on_rreq(make_rreq(dest=5, dest_seq=3), frm=1, now=0)
    assert len(sends(out)) == 1
    rep = sends(out)[0].packet
    assert isinstance(rep, Rrep)
    assert (sends(out)[0].to, rep.dest_seq, rep.hop_count) == ((1,), 4, 2)


def test_intermediate_with_stale_route_relays_instead():
    node = make_node(me=2, neighbors=[1, 3])
    node.routes[5] = RoutingEntry(next_hop=3, hop_count=2, dest_seq=2,
                                  expires_at=100)
    out = node.on_rreq(make_rreq(dest=5, dest_seq=3), frm=1, now=0)
    assert all(isinstance(e.packet, Rreq) for e in sends(out))


def test_query_quenching_can_be_disabled():
    node = make_node(me=2, neighbors=[1, 3],
                     config=ProtocolConfig(intermediate_reply=False))
    node.routes[5] = RoutingEntry(next_hop=3, hop_count=2, dest_seq=9,
                                  expires_at=100)
    out = node.on_rreq(make_rreq(dest=5), frm=1, now=0)
    assert all(isinstance(e.packet, Rreq) for e in sends(out))


# --- reply handling -------------------------------------------------------

def make_rrep(origin=0, dest=5, seq=2, hop=1, num=0):
    return Rrep(dest=dest, dest_seq=seq, hop_count=hop,
                rreq_id=RreqId(origin, num))


def test_origin_installs_route_resolves_discovery_flushes_outbox():
    node = make_node(neighbors=[1])
    node.send_data(5, 7, now=0)
    out = node.on_rrep(make_rrep(hop=3), frm=1, now=8)
    entry = node.routes[5]
    assert (entry.next_hop, entry.hop_count, entry.expires_at) == (1, 4, 58)
    assert node.metrics.discoveries_ok == 1
    assert node.metrics.discoveries[0].latency == 8
    data = [e for e in sends(out) if isinstance(e.packet, Data)]
    assert [d.packet.payload_id for d in data] == [7]
    assert 5 not in node.pending_discoveries


def test_route_freshness_newer_sequence_wins():
    node = make_node(neighbors=[1, 2])
    node.on_rrep(make_rrep(seq=2, hop=3), frm=1, now=0)
    node.on_rrep(make_rrep(seq=1, hop=0), frm=2, now=1)     # stale seq
    assert node.routes[5].next_hop == 1
    node.on_rrep(make_rrep(seq=3, hop=5), frm=2, now=2)     # fresher seq
    assert node.routes[5].next_hop == 2


def test_route_freshness_equal_sequence_prefers_fewer_hops():
    node = make_node(neighbors=[1, 2])
    node.on_rrep(make_rrep(seq=2, hop=3), frm=1, now=0)
    node.on_rrep(make_rrep(seq=2, hop=3), frm=2, now=1)     # same hops: keep first
    assert node.routes[5].next_hop == 1
    node.on_rrep(make_rrep(seq=2, hop=1), frm=2, now=2)     # shorter path
    assert node.routes[5].next_hop == 2


def test_relay_fans_reply_to_every_reverse_sender_once():
    node = make_node(me=2, neighbors=[1, 3, 4])
    node.on_rreq(make_rreq(origin=3, dest=5), frm=1, now=0)
    assert node.heard_before(make_rreq(origin=3, dest=5), frm=4)
    out = node.on_rrep(Rrep(dest=5, dest_seq=2, hop_count=0,
                            rreq_id=RreqId(3, 0)), frm=3, now=1)
    fanned = sends(out)
    assert recipients(fanned) == [[1, 4]]
    assert all(e.packet.hop_count == 1 for e in fanned)
    # a second copy of the same reply is not relayed again
    again = node.on_rrep(Rrep(dest=5, dest_seq=2, hop_count=0,
                              rreq_id=RreqId(3, 0)), frm=3, now=2)
    assert not sends(again)


def test_reply_relay_skips_reverse_senders_no_longer_neighbors():
    node = make_node(me=2, neighbors=[1, 3, 4])
    node.on_rreq(make_rreq(origin=3, dest=5), frm=1, now=0)
    assert node.heard_before(make_rreq(origin=3, dest=5), frm=4)
    del node.neighbors[4]
    out = node.on_rrep(Rrep(dest=5, dest_seq=2, hop_count=0,
                            rreq_id=RreqId(3, 0)), frm=3, now=1)
    assert recipients(out) == [[1]]


def test_reply_without_reverse_path_is_dropped():
    node = make_node(me=2, neighbors=[1])
    out = node.on_rrep(Rrep(dest=5, dest_seq=2, hop_count=0,
                            rreq_id=RreqId(3, 9)), frm=1, now=0)
    assert [d.reason for d in out if isinstance(d, Drop)] == ["no-reverse-path"]


# --- retries and timers ---------------------------------------------------

def test_early_deadline_timer_from_superseded_attempt_is_ignored():
    node = make_node(neighbors=[1])
    node.send_data(5, 7, now=0)
    assert node.on_discovery_timeout(5, now=5) == []
    assert 5 in node.pending_discoveries


def test_deadline_retries_with_a_fresh_request_id():
    node = make_node(neighbors=[1])
    node.send_data(5, 7, now=0)
    first_rid = node.pending_discoveries[5].rreq_id
    out = node.on_discovery_timeout(5, now=12)
    assert sends(out)
    second_rid = node.pending_discoveries[5].rreq_id
    assert second_rid != first_rid
    assert node.pending_discoveries[5].metrics_rec.attempts == 2
    assert node.metrics.discoveries[0].attempts == 2


def test_retries_exhaust_into_failure_and_payload_drops():
    node = make_node(neighbors=[1], config=ProtocolConfig(max_retries=2))
    node.send_data(5, 7, now=0)
    node.on_discovery_timeout(5, now=12)
    out = node.on_discovery_timeout(5, now=24)
    drops = [d for d in out if isinstance(d, Drop)]
    assert [d.reason for d in drops] == ["discovery-failed"]
    assert node.metrics.discoveries_failed == 1
    assert 5 not in node.pending_discoveries


def test_route_sweep_expires_on_the_boundary_tick():
    node = make_node(neighbors=[1])
    node.routes[5] = RoutingEntry(next_hop=1, hop_count=1, dest_seq=1,
                                  expires_at=50)
    node.on_route_sweep(now=49)
    assert 5 in node.routes
    node.on_route_sweep(now=50)
    assert 5 not in node.routes


# --- liveness -------------------------------------------------------------

def test_hello_tick_greets_physical_peers_not_beliefs():
    node = make_node(neighbors=[1, 2])
    out = node.on_hello_tick(now=10, link_peers=[3, 1])
    hellos = sends(out)
    assert recipients(hellos) == [[1, 3]]
    assert all(isinstance(e.packet, Hello) for e in hellos)


def test_silent_neighbor_is_pruned_strictly_after_timeout():
    node = make_node(neighbors=[1])
    node.neighbors[1] = 5
    out = node.on_hello_tick(now=30, link_peers=[])   # 5 >= 30 - 25: keep
    assert 1 in node.neighbors and not sends(out)
    node.on_hello_tick(now=31, link_peers=[])          # 5 < 31 - 25: prune
    assert 1 not in node.neighbors


def test_link_break_reports_unexpired_routes_to_remaining_neighbors():
    node = make_node(neighbors=[1, 2, 3])
    node.routes[5] = RoutingEntry(next_hop=1, hop_count=2, dest_seq=4,
                                  expires_at=100)
    node.routes[6] = RoutingEntry(next_hop=2, hop_count=1, dest_seq=1,
                                  expires_at=100)
    out = node.on_link_break(1, now=10)
    assert 5 not in node.routes and 6 in node.routes
    errs = [e for e in sends(out) if isinstance(e.packet, Rerr)]
    assert recipients(errs) == [[2, 3]]
    assert errs[0].packet.unreachable == ((5, 4),)


def test_link_break_on_active_route_restarts_discovery():
    node = make_node(neighbors=[1, 2])
    node.routes[5] = RoutingEntry(next_hop=1, hop_count=2, dest_seq=4,
                                  expires_at=100, active=True)
    out = node.on_link_break(1, now=10)
    reqs = [e for e in sends(out) if isinstance(e.packet, Rreq)]
    assert reqs and 5 in node.pending_discoveries


def test_rerr_only_kills_routes_through_its_sender():
    node = make_node(me=0, neighbors=[1, 2, 3])
    node.routes[5] = RoutingEntry(next_hop=1, hop_count=2, dest_seq=4,
                                  expires_at=100)
    node.routes[6] = RoutingEntry(next_hop=2, hop_count=2, dest_seq=1,
                                  expires_at=100)
    out = node.on_rerr(Rerr(((5, 5), (6, 2))), frm=1, now=10)
    assert 5 not in node.routes and 6 in node.routes
    onward = [e for e in sends(out) if isinstance(e.packet, Rerr)]
    assert recipients(onward) == [[2, 3]]
    assert onward[0].packet.unreachable == ((5, 4),)
    assert node.dest_seq_memory[5] == 5


def test_rerr_for_unknown_routes_goes_nowhere():
    node = make_node(me=0, neighbors=[1, 2])
    out = node.on_rerr(Rerr(((5, 5),)), frm=1, now=10)
    assert not sends(out)


def test_rerr_on_active_route_restarts_discovery():
    node = make_node(me=0, neighbors=[1, 2])
    node.routes[5] = RoutingEntry(next_hop=1, hop_count=2, dest_seq=4,
                                  expires_at=100, active=True)
    out = node.on_rerr(Rerr(((5, 5),)), frm=1, now=10)
    # the RERR goes on first, to every neighbor but its sender, then the RREQ floods
    assert [(type(e.packet), list(e.to)) for e in sends(out)] == [(Rerr, [2]), (Rreq, [1, 2])]
    assert sends(out)[1].packet.dest_seq_known == 5     # the RERR's sequence, remembered
    assert 5 in node.pending_discoveries and 5 not in node.routes


@pytest.mark.parametrize("lose", [
    lambda node: node.on_link_break(1, now=60),
    lambda node: node.on_rerr(Rerr(((5, 5),)), frm=1, now=60),
], ids=["link-break", "rerr"])
def test_expired_route_through_lost_neighbor_is_neither_reported_nor_rediscovered(lose):
    node = make_node(me=0, neighbors=[1, 2])
    node.routes[5] = RoutingEntry(next_hop=1, hop_count=2, dest_seq=4,
                                  expires_at=50, active=True)
    assert sends(lose(node)) == []
    assert not node.pending_discoveries


def test_rerr_with_older_sequence_keeps_the_higher_one():
    node = make_node(me=0, neighbors=[1, 2])
    node.dest_seq_memory[5] = 7
    node.routes[5] = RoutingEntry(next_hop=1, hop_count=2, dest_seq=7,
                                  expires_at=100)
    out = node.on_rerr(Rerr(((5, 3),)), frm=1, now=10)
    assert node.dest_seq_memory[5] == 7
    assert [e.packet.unreachable for e in sends(out)] == [((5, 7),)]


# --- payload forwarding ---------------------------------------------------

def test_data_forwarding_and_dead_end():
    node = make_node(me=2, neighbors=[1, 3])
    node.routes[5] = RoutingEntry(next_hop=3, hop_count=1, dest_seq=1,
                                  expires_at=100)
    ok = node.on_data(Data(0, 5, 7), frm=1, now=0)
    assert ok == [Send((3,), Data(0, 5, 7))]
    dead = node.on_data(Data(0, 6, 8), frm=1, now=0)
    assert [d.reason for d in dead if isinstance(d, Drop)] == ["no-route"]


def test_data_at_destination_goes_up():
    node = make_node(me=5)
    assert node.on_data(Data(0, 5, 7), frm=4, now=0) == [DeliverUp(7, 0)]


# --- strategy hooks -------------------------------------------------------

def test_counter_strategy_defers_forwarding_one_tick():
    node = make_node(me=2, neighbors=[1, 3, 4], strategy=CounterBased(max_copies=2))
    out = node.on_rreq(make_rreq(), frm=1, now=5)
    assert not sends(out)
    held = timers(out, ForwardDecision)
    assert held and held[0].at == 6
    later = node.on_forward_decision(RreqId(3, 0), now=6)
    assert recipients(later) == [[3, 4]]


def test_counter_strategy_suppresses_past_copy_budget():
    node = make_node(me=2, neighbors=[1, 3, 4], strategy=CounterBased(max_copies=1))
    node.on_rreq(make_rreq(), frm=1, now=5)
    assert node.heard_before(make_rreq(), frm=3)   # second copy within the window
    out = node.on_forward_decision(RreqId(3, 0), now=6)
    assert not sends(out)
    assert node.metrics.suppressed_forwards == 2


def test_stale_forward_decision_is_a_no_op():
    node = make_node(me=2, strategy=CounterBased())
    assert node.on_forward_decision(RreqId(3, 9), now=6) == []


def test_connectivity_origin_opens_attempts_and_arms_sweep():
    state = ConnectivityState(ConnectivityConfig())
    node = make_node(neighbors=[1, 2], strategy=Connectivity(state.config),
                     connectivity=state)
    out = node.send_data(5, 7, now=0)
    assert recipients(out) == [[1, 2]]
    rid = node.pending_discoveries[5].rreq_id
    assert state._open == {rid: {(5, 1): state.peek(5, 1), (5, 2): state.peek(5, 2)}}
    sweep = timers(out, AttemptSweep)
    assert sweep and sweep[0].at == 12      # discovery deadline by default


def test_connectivity_credits_reply_and_boosts_new_link_over_threshold():
    cfg = ConnectivityConfig(warmup_attempts=0, new_link_bonus=0.1)
    state = ConnectivityState(cfg)
    node = make_node(neighbors=[1], strategy=Connectivity(cfg), connectivity=state)
    # history: 9 attempts, 5 successes -> 5/9, barely over the bar
    for i in range(9):
        rid = RreqId(0, 100 + i)
        state.open_attempt(5, 1, rid)
        state.resolve_attempt(5, 1, rid, success=i < 5)
    assert state.eligible(5, 1)
    node.send_data(5, 7, now=20)
    rid = node.pending_discoveries[5].rreq_id
    node.on_rrep(Rrep(dest=5, dest_seq=3, hop_count=2, rreq_id=rid),
                 frm=1, now=24, link_is_new=True)
    assert state._open == {}                            # credited at once, not at the sweep
    rec = state.peek(5, 1)
    assert rec.attempts == 10 and rec.successes == 6
    assert rec.index == pytest.approx(0.7)              # 0.6 ratio + 0.1 bonus
    assert state.eligible(5, 1)


def test_connectivity_filter_suppresses_weak_links_at_relay():
    cfg = ConnectivityConfig(warmup_attempts=0)
    state = ConnectivityState(cfg)
    rid = RreqId(9, 9)
    state.open_attempt(5, 3, rid)
    state.fail_pending(rid)                             # index 0.0 on link 3
    node = make_node(me=2, neighbors=[1, 3, 4], strategy=Connectivity(cfg),
                     connectivity=state)
    out = node.on_rreq(make_rreq(dest=5), frm=1, now=1)
    assert recipients(out) == [[4]]
    assert node.metrics.suppressed_forwards == 1


@pytest.mark.parametrize("name", ["flood", "connectivity"])
def test_relay_flood_is_one_send_to_the_strategy_targets_in_order(name, monkeypatch):
    state, strategy = None, Flood()
    if name == "connectivity":
        cfg = ConnectivityConfig(warmup_attempts=0)
        state, strategy = ConnectivityState(cfg), Connectivity(cfg)
        state.open_attempt(5, 4, RreqId(9, 9))
        state.fail_pending(RreqId(9, 9))                # index 0.0 on link 4
    real_select, chosen = node_module.select_targets, []

    def select(*args):
        chosen.append(real_select(*args))
        return chosen[-1]
    monkeypatch.setattr(node_module, "select_targets", select)
    node = make_node(me=2, neighbors=[6, 1, 4, 3], strategy=strategy, connectivity=state)
    out = node.on_rreq(make_rreq(ttl=4, hop=1), frm=1, now=0)
    assert chosen == [[3, 6] if name == "connectivity" else [3, 4, 6]]
    assert sends(out) == [Send(chosen[0], make_rreq(ttl=3, hop=2))]
    if state is not None:
        assert list(state._open[RreqId(3, 0)]) == [(5, t) for t in chosen[0]]
