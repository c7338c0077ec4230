"""Fuzzing the scenario reader: any scenario JSON either runs or is rejected.

Small valid scenarios (at most 8 nodes, t_max at most 200) get up to three
mutations each: a value replaced by one of another type or out of range, a
key dropped, or an unknown key added. `aodvsim run` must exit 0 or 1, and it
must never report an internal error.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aodvsim.cli import main

T_MAX = 200

ODD_VALUES = [None, True, False, 0, -1, 1, 2, 10 ** 9, -10 ** 9, 0.5, -0.5, 1e200,
              math.nan, math.inf, -math.inf, "", "x", "n0", [], [1], [0, 0],
              [math.nan, math.inf], {}, {"kind": "flood"}]

STRATEGIES = [
    {"kind": "flood"},
    {"kind": "connectivity"},
    {"kind": "connectivity", "mode": "ema", "alpha": 0.3, "threshold": 0.4,
     "warmup_attempts": 1},
    {"kind": "probabilistic", "p": 0.5},
    {"kind": "counter", "max_copies": 2},
    {"kind": "distance", "min_distance": 10.0},
    {"kind": "expanding_ring", "ttl_start": 1, "ttl_increment": 2, "ttl_threshold": 5},
]


def tiny(**overrides) -> dict:
    doc = {"schema": 1, "name": "tiny", "t_max": 100,
           "nodes": [{"name": "a"}, {"name": "b"}],
           "links": [{"a": "a", "b": "b"}],
           "traffic": [{"origin": "a", "dest": "b"}]}
    doc.update(overrides)
    return doc


@st.composite
def valid_scenarios(draw) -> dict:
    n = draw(st.integers(2, 8))
    names = [f"n{i}" for i in range(n)]
    coord = st.floats(0, 100)
    positioned = draw(st.booleans())
    nodes = [{"name": name, **({"pos": [draw(coord), draw(coord)]} if positioned else {})}
             for name in names]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    links = [{"a": a, "b": b, "delay": draw(st.integers(1, 3))}
             for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))]
    traffic = []
    for _ in range(draw(st.integers(1, 2))):
        origin, dest = draw(st.sampled_from(pairs))
        traffic.append({"origin": origin, "dest": dest, "start": draw(st.integers(0, 100)),
                        "rounds": draw(st.integers(1, 3)),
                        "spacing": draw(st.integers(8 * n, 120))})
    events = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pairs))
        kind = draw(st.sampled_from(["link_up", "link_down", "drop"]))
        ends = {"from": a, "to": b} if kind == "drop" else {"a": a, "b": b}
        events.append({"kind": kind, "at": draw(st.integers(0, T_MAX)), **ends})
    doc = {"schema": 1, "name": "fuzz", "nodes": nodes, "links": links,
           "traffic": traffic, "events": events,
           "strategy": copy.deepcopy(draw(st.sampled_from(STRATEGIES))),
           "seed": draw(st.integers(0, 99)), "t_max": draw(st.integers(1, T_MAX))}
    if draw(st.booleans()):
        doc["mobility"] = {"model": "random_waypoint", "area": [60, 60],
                           "speed": draw(st.sampled_from([[1, 4], [0, 0]])),
                           "pause": draw(st.sampled_from([3, 1])), "range": 30}
    if draw(st.booleans()):
        doc["params"] = {"hello_interval": draw(st.integers(1, 20)),
                         "max_retries": draw(st.integers(1, 3)),
                         "intermediate_reply": draw(st.booleans())}
    return doc


def _locations(value, out: list) -> list:
    """Every (container, key) in a JSON document, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _locations(child, out)
    return out


def odd_values():
    # a fresh copy each time: later mutations may change a list or object
    return st.sampled_from(ODD_VALUES).map(copy.deepcopy)


@st.composite
def mutated_scenarios(draw) -> dict:
    doc = draw(valid_scenarios())
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_locations(doc, [])))
        op = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
        if op == "replace":
            container[key] = draw(odd_values())
        elif op == "drop":
            del container[key]
        elif isinstance(container, dict):
            container["unexpected"] = 1
        else:
            container.append(draw(odd_values()))
    # a large t_max would only make a valid run slow
    if isinstance(doc.get("t_max"), int) and doc["t_max"] > T_MAX:
        doc["t_max"] = T_MAX
    return doc


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


# explicit cases every fuzz test runs besides the generated ones
EXAMPLES = [
    tiny(params={"hello_interval": 0}),
    tiny(params={"max_retries": "two"}),
    tiny(links=[{"a": "a", "b": "b", "delay": "x"}]),
    tiny(strategy={"kind": "connectivity", "threshold": 7}),
    tiny(strategy={"kind": "connectivity", "threshold": math.nan}),
    tiny(strategy={"kind": "connectivity", "initial_index": 1.0, "new_link_bonus": 0.1,
                   "attempt_timeout": 5}),
    tiny(nodes=[{"name": "a", "pos": [0, 0]}, {"name": "b", "pos": [3, 4]}],
         strategy={"kind": "distance", "min_distance": math.nan}),
    tiny(nodes=[{"name": "a", "pos": [math.nan, math.inf]}, {"name": "b"}]),
    tiny(nodes=[{"name": "a", "pos": [-1e200, -1e200]},
                {"name": "b", "pos": [1e200, 1e200]}],
         strategy={"kind": "distance", "min_distance": 1.0}),
    tiny(traffic=[{"origin": "a", "dest": "b", "rounds": 10 ** 9, "spacing": 100}]),
    tiny(traffic=[{"origin": "a", "dest": "b", "start": 10 ** 9}]),
]


def fuzz_cases(test):
    """Run `test(..., doc)` on the generated mutated scenarios and on EXAMPLES."""
    for doc in reversed(EXAMPLES):
        test = example(doc=doc)(test)
    return settings(derandomize=True, deadline=None, max_examples=150)(
        given(doc=mutated_scenarios())(test))


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@fuzz_cases
def test_any_scenario_runs_or_is_rejected(scenario_path, doc):
    scenario_path.write_text(json.dumps(doc))
    code, _, err = _run(["run", "--scenario", str(scenario_path)])
    assert code in (0, 1), err
    assert "internal error" not in err


def _same_counts_with_and_without_trace(scenario_path, doc) -> None:
    scenario_path.write_text(json.dumps(doc))
    csv_path, trace_path = scenario_path.with_suffix(".csv"), scenario_path.with_suffix(".trace")
    argv = ["run", "--scenario", str(scenario_path), "--out", str(csv_path)]
    plain = _run(argv)
    plain_csv = csv_path.read_bytes() if plain[0] == 0 else None
    traced = _run(argv + ["--trace", str(trace_path)])
    assert traced == plain
    if plain[0] == 0:
        assert csv_path.read_bytes() == plain_csv


@fuzz_cases
def test_trace_sink_changes_no_count(scenario_path, doc):
    # a run writes the same summary and CSV whether or not it writes a trace
    _same_counts_with_and_without_trace(scenario_path, doc)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(doc=valid_scenarios())
def test_trace_sink_changes_no_count_on_valid_scenarios(scenario_path, doc):
    _same_counts_with_and_without_trace(scenario_path, doc)
