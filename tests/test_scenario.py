import json
import math
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aodvsim.scenario import (
    BUILTIN_NAMES,
    DropEvent,
    LinkEvent,
    LinkSpec,
    NodeSpec,
    Scenario,
    TrafficSpec,
    UnknownScenario,
    builtin,
    link_changes,
    parse_scenario,
    with_rounds,
)
from aodvsim.engine import run
from aodvsim.suppression import Connectivity, DistanceBased, ExpandingRing, Flood
from aodvsim.wire import ValidationError

from oracles import pairs_in_range


def minimal_json(**overrides):
    doc = {
        "schema": 1,
        "name": "tiny",
        "nodes": [{"name": "a"}, {"name": "b"}],
        "links": [{"a": "a", "b": "b"}],
        "traffic": [{"origin": "a", "dest": "b"}],
        "t_max": 100,
    }
    doc.update(overrides)
    return json.dumps(doc)


# --- builtins -------------------------------------------------------------

def test_builtin_catalog_is_stable():
    assert BUILTIN_NAMES == ["fig1", "fig1-tables", "ring-demo", "random-N"]


def test_fig1_shape():
    sc = builtin("fig1")
    assert sc.node_count == 11
    assert len(sc.links) == 13
    assert isinstance(sc.strategy, Flood)
    assert sc.traffic[0].rounds == 1
    assert sc.nodes[sc.node_ids()["N13"]].name == "N13"


def test_fig1_tables_script():
    sc = builtin("fig1-tables")
    assert sc.traffic[0].rounds == 10
    assert isinstance(sc.strategy, Connectivity)
    assert sc.strategy.warmup_attempts == 10
    assert not sc.params.intermediate_reply
    links = [e for e in sc.events if isinstance(e, LinkEvent)]
    downs = [e for e in links if e.kind == "link_down"]
    ups = [e for e in links if e.kind == "link_up"]
    assert {e.at for e in downs} == {650} and {e.at for e in ups} == {950}
    drops = [e for e in sc.events if isinstance(e, DropEvent)]
    assert [(d.at, d.frm, d.to) for d in drops] == [(607, "N4", "S")]


def test_fig1_tables_extra_round_extends_the_horizon():
    ten, eleven = builtin("fig1-tables"), builtin("fig1-tables", rounds=11)
    assert eleven.traffic[0].rounds == 11
    assert eleven.t_max > ten.t_max


def test_ring_demo_shape():
    sc = builtin("ring-demo")
    assert sc.node_count == 7
    assert sc.strategy == ExpandingRing(ttl_start=1, ttl_increment=2, ttl_threshold=7)
    assert sc.params.max_retries == 6


def test_random_n_is_seed_deterministic():
    a, b = builtin("random-8", seed=5), builtin("random-8", seed=5)
    assert [n.pos for n in a.nodes] == [n.pos for n in b.nodes]
    assert [(x, y) for x, y, _ in a.links] == [(x, y) for x, y, _ in b.links]
    c = builtin("random-8", seed=6)
    assert [n.pos for n in a.nodes] != [n.pos for n in c.nodes]


@pytest.mark.parametrize("n", [2, 20, 50, 300])
def test_random_n_links_are_the_pairs_in_range(n):
    sc = builtin(f"random-{n}")
    # random-N places its nodes in a 100 x 100 square with radio range 45
    wanted = pairs_in_range([node.pos for node in sc.nodes], 45.0)
    assert [(a, b) for a, b, _ in sc.links] == wanted


# --- the radio-range rule -------------------------------------------------

_GRID = st.integers(0, 12).map(lambda k: 8.0 * k)


def _links_and_order(draw, positions, radio):
    """A subset of the pairs as the current links, and the order of the ids
    in the positions dict, for a layout at `radio`."""
    n = len(positions)
    linked = draw(st.sets(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)])))
    return positions, linked, draw(st.permutations(range(n))), radio


@st.composite
def _layouts(draw):
    """Positions on a grid of side 8 at range 40, so that equal x,
    coincident nodes and pairs exactly 40 apart (24 by 32, or 40 by 0)
    occur."""
    positions = draw(st.lists(st.tuples(_GRID, _GRID), min_size=2, max_size=10))
    return _links_and_order(draw, positions, 40.0)


def _ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def _float_layouts(draw):
    """Float positions around a drawn offset, up to 1e12 away from the
    origin, at a drawn range. A node may sit one range along an axis from
    an earlier one, give or take two ulps and with a sideways step of none
    or 2**-30 of the range: there a difference that rounds to the
    range, and not the sum `xi + radio`, decides the pair."""
    radio = draw(st.floats(0.001, 1000.0))
    # rounding decides a pair only where coordinates are near the range in size
    offset = draw(st.just(0.0) | st.floats(-1e12, 1e12))
    near = st.floats(-2.0, 2.0).map(lambda f: offset + f * radio)
    positions = [(draw(near), draw(near))]
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.integers(0, 3)) == 0:
            positions.append((draw(near), draw(near)))
            continue
        x, y = draw(st.sampled_from(positions))
        along = radio * draw(st.sampled_from([1, -1]))
        side = draw(st.sampled_from([0.0, radio * 2.0 ** -30]))
        steps = draw(st.integers(-2, 2))
        positions.append(draw(st.sampled_from([(_ulps(x + along, steps), y + side),
                                               (x + side, _ulps(y + along, steps))])))
    return _links_and_order(draw, positions, radio)


def _layout(positions, linked, radio=40.0):
    return positions, set(linked), list(reversed(range(len(positions)))), radio


@settings(derandomize=True, deadline=None, max_examples=300)
@example(case=_layout([(0.0, 0.0), (40.0, 0.0)], []))
@example(case=_layout([(0.0, 0.0), (40.0, 1.0)], []))
@example(case=_layout([(10.0, 50.0), (34.0, 18.0), (58.0, 50.0)], []))
@example(case=_layout([(5.0, 0.0), (5.0, 40.0), (5.0, 40.5), (5.0, 40.5)], []))
@example(case=_layout([(0.0, 0.0), (90.0, 0.0), (20.0, 0.0)], [(0, 1)]))
@example(case=_layout([(0.0, 0.0), (10.0, 70.0)], [(0, 1)]))
@example(case=_layout([(100.0, 0.0), (0.0, 0.0), (70.0, 10.0)], []))
# each difference rounds to exactly 40, but the far end lies just past the
# sum `xi + 40` or `yi - 40`; in the first y pair the sweep starts at the
# lower node, so only the second one, moved 1e-7 in x, reaches `yi - 40`
@example(case=_layout([(8.43155721868769, 5.0), (48.43155721868769, 5.0)], []))
@example(case=_layout([(3.0, 37.9654579277219), (3.0, -2.0345420722781005)], []))
@example(case=_layout([(3.0, 37.9654579277219), (3.0000001, -2.0345420722781005)], []))
# near 1e12 an ulp is 2**-13: pairs exactly 0.5 apart, and one ulp further
@example(case=_layout([(1e12, 7.0), (1e12 + 0.5, 7.0), (1e12 - 0.5 - 2.0 ** -13, 7.0),
                       (1e12, 7.5), (1e12, 6.5 - 2.0 ** -13)], [(0, 2)], radio=0.5))
@given(case=_layouts() | _float_layouts())
def test_link_changes_are_the_difference_from_the_pairs_in_range(case):
    positions, linked, order, radio = case
    peers = [set() for _ in positions]
    for a, b in linked:
        peers[a].add(b)
        peers[b].add(a)
    down, up = link_changes({i: positions[i] for i in order}, radio, peers)
    in_range = set(pairs_in_range(positions, radio))
    assert down == sorted(linked - in_range)
    assert up == sorted(in_range - linked)


def test_unknown_builtin_names_the_catalog():
    with pytest.raises(UnknownScenario, match="fig1"):
        builtin("fig2")


def test_rounds_override_keeps_rounds_apart():
    sc = builtin("fig1", rounds=3)
    assert sc.traffic[0].rounds == 3
    assert sc.traffic[0].spacing >= 4 * sc.params.deadline_for(sc.node_count)


def test_with_rounds_widens_parsed_scenarios_like_builtins():
    sc = parse_scenario(minimal_json(traffic=[{"origin": "a", "dest": "b", "spacing": 10}]))
    widened = with_rounds(sc, 3)
    assert widened.traffic[0].spacing == 4 * sc.params.deadline_for(sc.node_count)
    assert builtin("fig1", rounds=3) == with_rounds(builtin("fig1"), 3)


def test_with_rounds_grows_t_max_to_fit():
    sc = with_rounds(builtin("fig1"), 5)
    last_round_at = sc.traffic[0].start + 4 * sc.traffic[0].spacing
    assert sc.t_max > last_round_at


# --- wire format ----------------------------------------------------------

def test_parse_minimal_scenario_fills_defaults():
    sc = parse_scenario(minimal_json())
    assert sc.seed == 0
    assert isinstance(sc.strategy, Flood)
    assert sc.params.intermediate_reply
    assert sc.params.hello_interval == 10


def test_parse_reads_params():
    sc = parse_scenario(minimal_json(
        params={"route_lifetime": 80, "max_retries": 3, "intermediate_reply": False}))
    assert sc.params.route_lifetime == 80
    assert sc.params.max_retries == 3
    assert not sc.params.intermediate_reply


# chain a-b-c-d: b finds d first, so a's later request meets b's fresh route
CHAIN = dict(nodes=[{"name": n} for n in "abcd"],
             links=[{"a": x, "b": y} for x, y in ("ab", "bc", "cd")],
             traffic=[{"origin": "b", "dest": "d", "start": 0},
                      {"origin": "a", "dest": "d", "start": 10}])


@pytest.mark.parametrize("spelling,rrep_tx", [
    ({}, 3),
    ({"params": {"intermediate_reply": False}}, 5),
])
def test_both_intermediate_reply_spellings_take_effect(spelling, rrep_tx):
    sc = parse_scenario(minimal_json(**CHAIN, **spelling))
    assert run(sc).rrep_tx == rrep_tx


def test_parse_rejects_malformed_json():
    with pytest.raises(ValidationError):
        parse_scenario("{nope")


def test_parse_rejects_wrong_schema():
    with pytest.raises(ValidationError) as exc:
        parse_scenario(minimal_json(schema=2))
    assert str(exc.value) == "schema: must be 1, got 2"


def test_parse_rejects_unknown_fields_with_a_path():
    with pytest.raises(ValidationError, match="top level"):
        parse_scenario(minimal_json(extra=1))
    with pytest.raises(ValidationError, match=r"nodes\[1\]"):
        parse_scenario(minimal_json(nodes=[{"name": "a"}, {"name": "b", "x": 0}]))
    with pytest.raises(ValidationError, match=r"^top level: unknown field\(s\) flags$"):
        parse_scenario(minimal_json(flags={"intermediate_reply": False}))


def test_parse_rejects_unknown_strategy_kind():
    with pytest.raises(ValidationError) as exc:
        parse_scenario(minimal_json(strategy={"kind": "telepathy"}))
    assert str(exc.value) == ("strategy.kind: must be flood, connectivity, probabilistic, "
                              "counter, distance or expanding_ring, got 'telepathy'")


def test_parse_reads_drop_events_with_from_to_keys():
    sc = parse_scenario(minimal_json(
        events=[{"kind": "drop", "at": 7, "from": "a", "to": "b"},
                {"kind": "link_down", "at": 9, "a": "a", "b": "b"}]))
    assert sc.events[0].frm == "a"
    assert sc.events[1].kind == "link_down"


def test_parse_rejects_unknown_event_kind():
    with pytest.raises(ValidationError) as exc:
        parse_scenario(minimal_json(events=[{"kind": "teleport", "at": 1}]))
    assert str(exc.value) == "events[0].kind: must be link_up, link_down or drop, got 'teleport'"


# --- validation -----------------------------------------------------------

def two_node_scenario(**kw):
    defaults = dict(
        name="tiny",
        nodes=[NodeSpec("a"), NodeSpec("b")],
        links=[LinkSpec("a", "b")],
        traffic=[TrafficSpec("a", "b")],
        t_max=100,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_duplicate_node_names_are_rejected():
    with pytest.raises(ValidationError, match=r"nodes\[1\]"):
        two_node_scenario(nodes=[NodeSpec("a"), NodeSpec("a")])


def test_links_must_reference_known_nodes():
    with pytest.raises(ValidationError, match="zz"):
        two_node_scenario(links=[LinkSpec("a", "zz")])


def test_self_and_duplicate_links_are_rejected():
    with pytest.raises(ValidationError, match="self-link"):
        two_node_scenario(links=[LinkSpec("a", "a")])
    with pytest.raises(ValidationError, match="duplicate"):
        two_node_scenario(links=[LinkSpec("a", "b"), LinkSpec("b", "a")])


def test_link_delay_must_be_at_least_one_tick():
    with pytest.raises(ValidationError, match="delay"):
        two_node_scenario(links=[LinkSpec("a", "b", delay=0)])


@pytest.mark.parametrize("links, message", [
    ([(0, 2, 1)], "links[0]: unknown node, got 2"),
    ([(-1, 1, 1)], "links[0]: unknown node, got -1"),
    ([(1, 1, 1)], "links[0]: self-link, got 1"),
    ([(0, 1, 1), (1, 0, 1)], "links[1]: duplicate link, got '1-0'"),
    ([(0, 1, 0)], "links[0].delay: must be >= 1, got 0"),
    # an id triple and a named link for one pair are that link listed twice
    ([(0, 1, 1), LinkSpec("b", "a")], "links[1]: duplicate link, got 'b-a'"),
])
def test_id_triple_links_meet_the_rules_of_named_ones(links, message):
    with pytest.raises(ValidationError) as exc:
        two_node_scenario(links=links)
    assert str(exc.value) == message


def test_traffic_is_required_and_must_go_somewhere_else():
    with pytest.raises(ValidationError, match="traffic"):
        two_node_scenario(traffic=[])
    with pytest.raises(ValidationError, match="origin equals dest"):
        two_node_scenario(traffic=[TrafficSpec("a", "a")])


def test_multi_round_traffic_needs_non_overlapping_spacing():
    with pytest.raises(ValidationError, match="spacing"):
        two_node_scenario(traffic=[TrafficSpec("a", "b", rounds=3, spacing=10)])
    two_node_scenario(traffic=[TrafficSpec("a", "b", rounds=3, spacing=16)])


def test_t_max_must_be_positive():
    with pytest.raises(ValidationError, match="t_max"):
        two_node_scenario(t_max=0)


def test_distance_strategy_requires_positions_everywhere():
    with pytest.raises(ValidationError, match="positions"):
        two_node_scenario(strategy=DistanceBased(min_distance=5.0))
    two_node_scenario(
        nodes=[NodeSpec("a", (0.0, 0.0)), NodeSpec("b", (3.0, 4.0))],
        strategy=DistanceBased(min_distance=5.0))


def test_ring_strategy_bounds():
    with pytest.raises(ValidationError, match="ttl_threshold"):
        two_node_scenario(
            strategy=ExpandingRing(ttl_start=5, ttl_increment=2, ttl_threshold=3))


def test_link_event_kind_is_checked_for_scenarios_built_in_python():
    # the JSON reader knows only link_up, link_down and drop, so no file reaches this rule
    with pytest.raises(ValidationError) as exc:
        two_node_scenario(events=[LinkEvent(at=1, kind="teleport", a="a", b="b")])
    assert str(exc.value) == "events[0].kind: must be link_up or link_down, got 'teleport'"


def test_scenario_is_frozen_and_replace_validates_the_copy():
    sc = two_node_scenario()
    with pytest.raises(FrozenInstanceError):
        sc.seed = 3
    with pytest.raises(FrozenInstanceError):
        sc.params.hello_interval = 0
    with pytest.raises(TypeError):
        sc.links[0] = LinkSpec("b", "a")
    assert replace(sc, seed=3).seed == 3 and sc.seed == 0
    with pytest.raises(ValidationError) as exc:
        replace(sc, t_max=0)
    assert str(exc.value) == "t_max: must be >= 1, got 0"


@pytest.mark.parametrize("changes, message", [
    pytest.param(dict(links=(LinkSpec("S", "N1"), LinkSpec("N1", "D"), LinkSpec("D", "zz"))),
                 "links[2]: unknown node, got 'zz'", id="links"),
    # fig1's sixth link is N3-D: the kept links are checked against the new nodes
    pytest.param(dict(nodes=tuple(n for n in builtin("fig1").nodes if n.name != "D")),
                 "links[5]: unknown node, got 'D'", id="nodes"),
    pytest.param(dict(events=(DropEvent(at=3, frm="S", to="zz"),)),
                 "events[0]: unknown node, got 'zz'", id="events"),
    # a copy that keeps the nodes, links and events still checks the rest
    pytest.param(dict(strategy=Connectivity(mode="bogus")),
                 "strategy.mode: must be raw, ema or blend, got 'bogus'", id="strategy"),
])
def test_a_copy_checks_what_it_changes(changes, message):
    with pytest.raises(ValidationError) as exc:
        replace(builtin("fig1"), **changes)
    assert str(exc.value) == message
