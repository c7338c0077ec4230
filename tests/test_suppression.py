import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aodvsim.protocol import Rreq, RreqId
from aodvsim.suppression import (
    Connectivity,
    ConnectivityState,
    CounterBased,
    DistanceBased,
    ExpandingRing,
    Flood,
    InvariantViolation,
    Probabilistic,
    ema_step,
    raw_ratio,
    strategy_from_token,
)
from aodvsim.node import select_targets
from aodvsim.wire import ValidationError


def state(mode="raw", **kw) -> ConnectivityState:
    return ConnectivityState(Connectivity(mode=mode, **kw))


# --- config ---------------------------------------------------------------

def test_config_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        Connectivity(mode="mean").validate([])


def test_config_rejects_degenerate_alpha_for_smoothing_modes():
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(ValidationError):
            Connectivity(mode="ema", alpha=alpha).validate([])
    # raw mode never uses alpha
    Connectivity(mode="raw", alpha=0.0).validate([])


def test_strategy_labels():
    assert Flood().label == "flood"
    assert Connectivity().label == "connectivity"
    assert Probabilistic(p=0.25).label == "probabilistic-0.25"
    assert CounterBased(max_copies=4).label == "counter-4"
    assert DistanceBased(min_distance=12.5).label == "distance-12.5"
    assert ExpandingRing(1, 2, 7).label == "ring-1-2-7"


# --- attempt ledger -------------------------------------------------------

def test_raw_ratio_rejects_an_empty_ledger():
    # an index moves only when an attempt closes, so one was always opened
    with pytest.raises(InvariantViolation):
        raw_ratio(0, 0)
    assert raw_ratio(3, 4) == 0.75


def test_raw_ratio_rejects_impossible_ledgers():
    with pytest.raises(InvariantViolation):
        raw_ratio(5, 4)
    with pytest.raises(InvariantViolation):
        raw_ratio(-1, 4)


def test_attempts_count_at_open_not_at_resolution():
    s = state()
    s.open_attempt(9, 1, RreqId(0, 1))
    rec = s.peek(9, 1)
    assert (rec.attempts, rec.successes) == (1, 0)
    # unresolved attempt leaves the index at its initial value
    assert rec.index == 1.0


def test_double_open_same_request_is_a_bug():
    s = state()
    s.open_attempt(9, 1, RreqId(0, 1))
    with pytest.raises(InvariantViolation):
        s.open_attempt(9, 1, RreqId(0, 1))


def test_resolve_without_pending_attempt_is_ignored():
    s = state()
    assert s.resolve_attempt(9, 1, RreqId(0, 99), success=True) is False
    assert s.peek(9, 1) is None


def test_a_resolved_attempt_leaves_the_open_index_at_once():
    s = state()
    rid = RreqId(0, 1)
    s.open_attempt(9, 1, rid)
    s.open_attempt(9, 2, rid)
    assert s.resolve_attempt(9, 1, rid, success=True)
    assert s._open == {rid: {(9, 2): s.peek(9, 2)}}
    assert s.resolve_attempt(9, 2, rid, success=False)
    assert s._open == {}


def test_fail_pending_closes_every_record_for_that_request():
    s = state()
    rid = RreqId(0, 1)
    s.open_attempt(9, 1, rid)
    s.open_attempt(9, 2, rid)
    s.fail_pending(rid)
    assert s.peek(9, 1).index == 0.0
    assert s.peek(9, 2).index == 0.0
    assert s._open == {}


def test_fail_pending_leaves_other_requests_and_resolved_attempts_alone():
    s = ConnectivityState(Connectivity())
    r, other = RreqId(0, 1), RreqId(3, 1)
    s.open_attempt(9, 1, r)
    s.open_attempt(9, 2, r)
    s.open_attempt(8, 3, r)
    s.open_attempt(7, 1, other)
    s.open_attempt(7, 4, other)
    s.resolve_attempt(9, 2, r, success=True)
    before = s.snapshot()
    s.fail_pending(r)
    assert s._open == {other: {(7, 1): s.peek(7, 1), (7, 4): s.peek(7, 4)}}
    assert s.peek(9, 2).index == before[9, 2][2]            # already resolved: untouched
    assert s.peek(8, 3).index == 0.0
    after = s.snapshot()
    s.fail_pending(r)                                       # nothing left to close
    assert s.snapshot() == after


def test_boost_caps_at_one():
    s = state()
    rid = RreqId(0, 1)
    s.open_attempt(9, 1, rid)
    s.resolve_attempt(9, 1, rid, success=True)
    s.boost_new_link(9, 1)
    assert s.peek(9, 1).index == 1.0


def test_boost_can_lift_a_link_back_over_the_threshold():
    s = state(warmup_attempts=0)
    outcomes = [True, False, False, True, True, True, False, True, False, False]
    for i, ok in enumerate(outcomes):
        rid = RreqId(0, i)
        s.open_attempt(9, 1, rid)
        s.resolve_attempt(9, 1, rid, success=ok)
    assert s.peek(9, 1).index == pytest.approx(0.5)
    assert not s.eligible(9, 1)          # 0.5 is not strictly above 0.5
    s.boost_new_link(9, 1)
    assert s.peek(9, 1).index == pytest.approx(0.6)
    assert s.eligible(9, 1)


# --- index properties -----------------------------------------------------

@st.composite
def attempt_scripts(draw):
    """A per-link script: open attempts, resolve some, leave the rest."""
    n = draw(st.integers(min_value=0, max_value=30))
    outcomes = draw(st.lists(
        st.sampled_from(["success", "failure", "open"]),
        min_size=n, max_size=n))
    return outcomes


@given(attempt_scripts())
def test_raw_index_refolds_to_success_over_opened_attempts(script):
    # the index moves only at resolutions; refold the log the same way
    s = state(mode="raw")
    folded, opened, successes = 1.0, 0, 0
    for i, action in enumerate(script):
        rid = RreqId(0, i)
        s.open_attempt(9, 1, rid)
        opened += 1
        if action != "open":
            if action == "success":
                successes += 1
            s.resolve_attempt(9, 1, rid, success=action == "success")
            folded = successes / opened
    rec = s.peek(9, 1)
    if rec is None:
        assert not script
        return
    assert rec.attempts == len(script)
    # exact, not approximate: both sides are the same float division
    assert rec.index == folded


@given(attempt_scripts(),
       st.sampled_from(["raw", "ema", "blend"]),
       st.floats(min_value=0.01, max_value=0.99))
def test_index_stays_inside_unit_interval(script, mode, alpha):
    s = state(mode=mode, alpha=alpha)
    for i, action in enumerate(script):
        rid = RreqId(0, i)
        s.open_attempt(9, 1, rid)
        if action != "open":
            s.resolve_attempt(9, 1, rid, success=action == "success")
        rec = s.peek(9, 1)
        assert 0.0 <= rec.index <= 1.0 + 1e-12


@given(st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=60))
@settings(max_examples=200)
def test_ema_failures_decay_geometrically(alpha, k):
    s = state(mode="ema", alpha=alpha)
    for i in range(k):
        rid = RreqId(0, i)
        s.open_attempt(9, 1, rid)
        s.resolve_attempt(9, 1, rid, success=False)
    index = s.peek(9, 1).index if k else 1.0
    assert abs(index - (1.0 - alpha) ** k) <= 1e-12


@given(st.floats(min_value=0.01, max_value=0.99),
       st.lists(st.booleans(), max_size=40))
def test_ema_matches_direct_fold(alpha, outcomes):
    s = state(mode="ema", alpha=alpha)
    expected = 1.0
    for i, ok in enumerate(outcomes):
        rid = RreqId(0, i)
        s.open_attempt(9, 1, rid)
        s.resolve_attempt(9, 1, rid, success=ok)
        expected = ema_step(expected, 1.0 if ok else 0.0, alpha)
    if outcomes:
        assert s.peek(9, 1).index == pytest.approx(expected, abs=1e-15)


@given(st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=19))
def test_warmup_keeps_every_link_eligible(warmup, failures):
    s = state(warmup_attempts=warmup)
    for i in range(min(failures, warmup - 1) if warmup else 0):
        rid = RreqId(0, i)
        s.open_attempt(9, 1, rid)
        s.resolve_attempt(9, 1, rid, success=False)
    rec = s.peek(9, 1)
    if rec is None or rec.attempts < warmup:
        assert s.eligible(9, 1)


def test_eligibility_needs_strict_threshold_crossing():
    s = state(warmup_attempts=0, threshold=0.5)
    rid_ok, rid_bad = RreqId(0, 1), RreqId(0, 2)
    s.open_attempt(9, 1, rid_ok)
    s.resolve_attempt(9, 1, rid_ok, success=True)
    s.open_attempt(9, 1, rid_bad)
    s.resolve_attempt(9, 1, rid_bad, success=False)
    assert s.peek(9, 1).index == 0.5
    assert not s.eligible(9, 1)


def test_unknown_link_is_always_eligible():
    assert state().eligible(9, 4)


# --- forwarding decisions -------------------------------------------------

CANDIDATES = [3, 1, 4, 1 + 4]
RREQ = Rreq(RreqId(2, 0), dest=9, dest_seq_known=None, hop_count=1, ttl=5)


def node(senders=(0,), **facts) -> SimpleNamespace:
    """A stand-in for the deciding node: it heard RREQ from `senders`, the
    previous hop first (none at the originator), and holds `facts`."""
    return SimpleNamespace(requests={RREQ.rreq_id: SimpleNamespace(senders=list(senders))},
                           **facts)


class Unreadable:
    """A node or request whose every attribute read fails the test."""

    def __getattribute__(self, name):
        raise AssertionError(f"the decision read {name!r}")


@pytest.mark.parametrize("token", ["flood", "ring:1:2:7"])
def test_a_strategy_without_a_filter_reads_nothing(token):
    got = select_targets(strategy_from_token(token), Unreadable(), CANDIDATES, Unreadable())
    assert got == [3, 1, 4, 5]


def test_flood_forwards_to_everyone_in_order():
    got = select_targets(Flood(), node(), CANDIDATES, RREQ)
    assert got == CANDIDATES


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_probability_one_never_suppresses(seed):
    got = select_targets(Probabilistic(p=1.0), node(rng=random.Random(seed)), CANDIDATES,
                         RREQ)
    assert got == CANDIDATES


def test_probability_zero_always_suppresses_at_relays():
    got = select_targets(Probabilistic(p=0.0), node(rng=random.Random(1)), CANDIDATES,
                         RREQ)
    assert got == []


def test_probabilistic_originator_is_exempt():
    got = select_targets(Probabilistic(p=0.0), node(senders=(), rng=random.Random(1)),
                         CANDIDATES, RREQ)
    assert got == CANDIDATES


def test_probabilistic_same_seed_same_choice():
    s = Probabilistic(p=0.5)
    runs = [select_targets(s, node(rng=random.Random(42)), CANDIDATES, RREQ)
            for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
def test_counter_forwards_iff_copies_within_budget(copies, budget):
    got = select_targets(CounterBased(max_copies=budget),
                         node(senders=range(copies)), CANDIDATES, RREQ)
    assert got == (CANDIDATES if copies <= budget else [])


def test_distance_gate_uses_inclusive_minimum():
    s = DistanceBased(min_distance=10.0)
    # the relay (node 7) works out its distance to the previous hop (node 0)
    at = {7: (3.0, 4.0), 0: (9.0, 12.0)}.get
    keep = select_targets(s, node(me=7, position_of=at), CANDIDATES, RREQ)
    at = {7: (3.0, 4.0), 0: (9.0, 11.99)}.get
    drop = select_targets(s, node(me=7, position_of=at), CANDIDATES, RREQ)
    assert keep == CANDIDATES and drop == []


def test_connectivity_filters_per_link_even_at_origin():
    s = state(warmup_attempts=0)
    rid = RreqId(0, 1)
    s.open_attempt(9, 1, rid)
    s.fail_pending(rid)                      # link 1 now at 0.0
    got = select_targets(s.strategy, node(senders=(), conn=s), [1, 2, 3], RREQ)
    assert got == [2, 3]


@given(st.floats(min_value=-1.0, max_value=-0.001))
def test_negative_threshold_degenerates_to_flood(threshold):
    s = ConnectivityState(Connectivity(threshold=threshold, warmup_attempts=0))
    rid = RreqId(0, 1)
    s.open_attempt(9, 1, rid)
    s.fail_pending(rid)
    got = select_targets(s.strategy, node(conn=s), [1, 2], RREQ)
    assert got == [1, 2]


# --- expanding ring schedule ----------------------------------------------

def test_ring_schedule_grows_then_jumps_to_network_diameter_bound():
    ring = ExpandingRing(ttl_start=1, ttl_increment=2, ttl_threshold=7)
    got = [ring.attempt_ttl(i, node_count=11) for i in range(6)]
    assert got == [1, 3, 5, 7, 11, 11]


def test_ring_first_attempt_at_or_past_threshold_uses_threshold():
    ring = ExpandingRing(ttl_start=7, ttl_increment=2, ttl_threshold=7)
    assert ring.attempt_ttl(0, node_count=20) == 7
    assert ring.attempt_ttl(1, node_count=20) == 20


@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=2, max_value=16))
def test_ring_schedule_is_monotone_until_capped(start, inc, threshold, n):
    ring = ExpandingRing(start, inc, threshold)
    seq = [ring.attempt_ttl(i, n) for i in range(8)]
    for a, b in zip(seq, seq[1:]):
        if b != n:
            assert a <= b
