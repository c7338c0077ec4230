import json
import re
import shlex
import time
from pathlib import Path
from xml.dom import minidom

import pytest

from aodvsim.cli import main
from aodvsim.metrics import CSV_COLUMNS, parse_run_csv
from aodvsim.scenario import builtin, parse_scenario
from aodvsim.suppression import STRATEGIES, strategy_from_token

CSV_OK_COL = CSV_COLUMNS.index("discoveries_ok")


def run_cli(*argv):
    return main(list(argv))


# --- list -----------------------------------------------------------------

def test_list_prints_builtin_names(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["fig1", "fig1-tables", "ring-demo", "random-N"]


# --- run ------------------------------------------------------------------

def test_run_writes_pinned_csv_row(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = run_cli("run", "--scenario", "fig1", "--strategy", "flood",
                   "--seed", "7", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,strategy,seed,rreq_tx")
    assert lines[1].startswith("fig1,flood,7,15,")
    stdout = capsys.readouterr().out
    assert "rreq_tx=15" in stdout
    assert "ok=1 failed=0" in stdout


def test_run_emits_trace_file(tmp_path):
    trace = tmp_path / "trace.tsv"
    assert run_cli("run", "--scenario", "fig1", "--trace", str(trace)) == 0
    lines = trace.read_text().splitlines()
    assert lines and all(len(l.split("\t")) == 4 for l in lines)


def test_run_accepts_scenario_files(tmp_path):
    chain = ["S", "R1", "R2", "R3", "R4", "R5", "D"]
    doc = {"schema": 1, "name": "ring-demo",
           "comment": "6-hop chain for expanding-ring TTL growth",
           "nodes": [{"name": n} for n in chain],
           "links": [{"a": a, "b": b} for a, b in zip(chain, chain[1:])],
           "traffic": [{"origin": "S", "dest": "D"}],
           "strategy": {"kind": "expanding_ring"},
           "t_max": 300,
           "params": {"max_retries": 6}}
    assert parse_scenario(json.dumps(doc)) == builtin("ring-demo")
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--scenario", str(path)) == 0


def test_missing_scenario_file_names_the_path(capsys):
    assert run_cli("run", "--scenario", "missing.json") == 1
    assert "missing.json" in capsys.readouterr().err


def test_invalid_scenario_file_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1}')
    assert run_cli("run", "--scenario", str(path)) == 1
    assert "nodes" in capsys.readouterr().err


def test_bad_strategy_tokens_exit_one(capsys):
    for token in ("telepathy", "counter:x", "ring:1:2"):
        assert run_cli("run", "--scenario", "fig1", "--strategy", token) == 1
        assert f"'{token}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["run", "--scenario", "fig1", "--strategy", "flood:zz"], "flood:zz"),
    (["run", "--scenario", "fig1", "--strategy", "connectivity:zz"], "connectivity:zz"),
    (["compare", "--scenario", "fig1", "--strategies", "flood,ring:1:2:7:9"], "ring:1:2:7:9"),
    (["run", "--scenario", "fig1-tables", "--rounds", "11", "--threshold", "0.99"],
     "--threshold"),
    (["run", "--scenario", "fig1", "--strategy", "flood", "--mode", "ema"], "--mode"),
    (["trace", "--scenario", "fig1", "--alpha", "0.4"], "--alpha"),
    (["compare", "--scenario", "fig1", "--strategies", "flood,counter:3", "--warmup", "2"],
     "--warmup"),
    (["compare", "--inputs", "a.csv", "--threshold", "0.2"], "--threshold"),
    (["run", "--scenario", "fig1", "--strategy", "connectivity", "--threshold", "nan"],
     "threshold"),
    (["run", "--scenario", "fig1", "--strategy", "connectivity", "--threshold", "1.5"],
     "threshold"),
    (["run", "--scenario", "random-6", "--strategy", "distance:nan"], "min_distance"),
    (["run", "--scenario", "random-6", "--strategy", "distance:inf"], "min_distance"),
    (["run", "--scenario", "fig1", "--strategy", "probabilistic:nan"], "strategy.p"),
    (["run", "--scenario", "fig1", "--strategy", "connectivity", "--alpha", "nan"],
     "--alpha applies only to --mode ema or blend"),
    (["compare", "--inputs", "a.csv", "--seed", "3"], "--seed"),
    (["compare", "--inputs", "a.csv", "--rounds", "9"], "--rounds"),
])
def test_bad_arguments_exit_one_naming_the_token_or_flag(capsys, argv, named):
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err


def test_connectivity_options_apply_when_any_compared_token_is_connectivity(capsys):
    assert run_cli("compare", "--scenario", "fig1", "--strategies", "flood,connectivity",
                   "--threshold", "0.2") == 0


def test_rounds_past_t_max_are_never_queued(tmp_path, capsys):
    # rounds at 0, 24 and 48 run; 4 rounds is the fewest that overrun t_max
    def summary(rounds):
        doc = _scenario_doc(nodes=[{"name": "a"}, {"name": "b"}, {"name": "c"}],
                            links=[{"a": "a", "b": "b"}, {"a": "b", "b": "c"}],
                            traffic=[{"origin": "a", "dest": "c", "rounds": rounds,
                                      "spacing": 24}], t_max=60)
        (tmp_path / "s.json").write_text(json.dumps(doc))
        assert run_cli("run", "--scenario", str(tmp_path / "s.json")) == 0
        return capsys.readouterr().out
    assert "warning" not in summary(3)
    overrun = summary(4)
    assert "warning: run hit t_max" in overrun and "data_tx=6" in overrun
    start = time.perf_counter()
    assert summary(10 ** 9) == overrun
    assert time.perf_counter() - start < 1.0


def test_usage_errors_exit_one_not_two(capsys):
    assert run_cli("explode") == 1
    assert run_cli() == 1


def test_connectivity_knobs_are_accepted(tmp_path):
    out = tmp_path / "o.csv"
    code = run_cli("run", "--scenario", "fig1-tables", "--strategy",
                   "connectivity", "--mode", "ema", "--alpha", "0.4",
                   "--threshold", "0.3", "--warmup", "2", "--out", str(out))
    assert code == 0
    assert ",connectivity," in out.read_text()


def test_rounds_override_multiplies_traffic(tmp_path):
    out = tmp_path / "o.csv"
    assert run_cli("run", "--scenario", "fig1", "--rounds", "3",
                   "--out", str(out)) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[CSV_OK_COL] == "3"


def test_rounds_override_widens_scenario_file_spacing(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(_scenario_doc(
        traffic=[{"origin": "a", "dest": "b", "spacing": 10}])))
    out = tmp_path / "o.csv"
    assert run_cli("run", "--scenario", str(scenario), "--rounds", "3",
                   "--out", str(out)) == 0
    # one discovery; the later rounds reuse its route
    assert out.read_text().splitlines()[1].split(",")[CSV_COLUMNS.index("data_tx")] == "3"


# --- strategy registry ----------------------------------------------------

# a token for every registered strategy, the label it must produce and
# the scenario JSON object that spells the same strategy
TOKENS = {
    "flood": ("flood", "flood", {"kind": "flood"}),
    "connectivity": ("connectivity", "connectivity", {
        "kind": "connectivity", "mode": "raw", "alpha": 0.3, "threshold": 0.5,
        "initial_index": 1.0, "warmup_attempts": 10, "new_link_bonus": 0.1,
        "attempt_timeout": None}),
    "probabilistic": ("probabilistic:0.25", "probabilistic-0.25",
                      {"kind": "probabilistic", "p": 0.25}),
    "counter": ("counter:4", "counter-4", {"kind": "counter", "max_copies": 4}),
    "distance": ("distance:12.5", "distance-12.5", {"kind": "distance", "min_distance": 12.5}),
    "ring": ("ring:1:2:7", "ring-1-2-7", {
        "kind": "expanding_ring", "ttl_start": 1, "ttl_increment": 2, "ttl_threshold": 7}),
}


def test_every_registered_strategy_has_a_token_case():
    assert sorted(s.token for s in STRATEGIES) == sorted(TOKENS)


@pytest.mark.parametrize("cls", STRATEGIES, ids=[s.token for s in STRATEGIES])
def test_registry_token_label_and_json_round_trip(cls):
    token, label, obj = TOKENS[cls.token]
    strategy = strategy_from_token(token)
    assert type(strategy) is cls and strategy.label == label
    nodes = [{"name": "a", "pos": [0, 0]}, {"name": "b", "pos": [3, 4]}]    # for distance
    doc = _scenario_doc(nodes=nodes, strategy=obj)
    assert parse_scenario(json.dumps(doc)).strategy == strategy


def test_unknown_strategy_token_and_kind_exit_one(tmp_path, capsys):
    assert run_cli("run", "--scenario", "fig1", "--strategy", "telepathy") == 1
    assert capsys.readouterr().err == "aodvsim: unknown strategy 'telepathy'\n"
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(_scenario_doc(strategy={"kind": "telepathy"})))
    assert run_cli("run", "--scenario", str(scenario)) == 1
    assert capsys.readouterr().err == "aodvsim: strategy.kind: unknown strategy 'telepathy'\n"


# --- compare --------------------------------------------------------------

def test_compare_runs_multiple_strategies(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    svg = tmp_path / "cmp.svg"
    code = run_cli("compare", "--scenario", "fig1",
                   "--strategies", "flood,probabilistic:1.0,counter:1000000000",
                   "--out", str(out), "--svg", str(svg))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "flood"
    # all three degenerate to the same request count
    assert {l.split(",")[1] for l in lines[1:]} == {"15"}
    chart = svg.read_text()
    assert chart.startswith("<svg") and chart.count("<rect") >= 4
    assert "flood" in capsys.readouterr().out


def test_compare_requires_strategies_or_inputs(capsys):
    assert run_cli("compare", "--scenario", "fig1") == 1


def test_compare_rejects_mixed_input_modes(tmp_path, capsys):
    csv_path = tmp_path / "a.csv"
    run_cli("run", "--scenario", "fig1", "--out", str(csv_path))
    capsys.readouterr()
    assert run_cli("compare", "--scenario", "fig1",
                   "--inputs", str(csv_path)) == 1


def test_compare_consumes_its_own_run_output(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("run", "--scenario", "fig1", "--strategy", "flood", "--out", str(a))
    run_cli("run", "--scenario", "fig1", "--strategy", "probabilistic:0.7",
            "--seed", "5", "--out", str(b))
    capsys.readouterr()
    assert run_cli("compare", "--inputs", str(a), str(b)) == 0
    table = capsys.readouterr().out
    assert "flood" in table and "probabilistic-0.7" in table


def test_compare_consumes_its_own_comparison_output(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    run_cli("compare", "--scenario", "fig1", "--strategies",
            "flood,counter:2", "--out", str(out))
    capsys.readouterr()
    assert run_cli("compare", "--inputs", str(out)) == 0


def test_compare_inputs_keep_the_mean_latency_read(tmp_path, capsys):
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("strategy,rreq_tx,discoveries_ok,mean_latency_ticks\nflood,15,2,8.500\n")
    assert run_cli("compare", "--inputs", str(src), "--out", str(out)) == 0
    assert capsys.readouterr().out.split()[-2] == "8.5"
    assert out.read_text().splitlines()[1].endswith(",8.500,0")


def test_compare_inputs_do_not_grow_with_the_counts_read():
    start = time.perf_counter()
    [(_, totals)] = parse_run_csv(f"strategy,rreq_tx,discoveries_ok\nflood,1,{10 ** 9}\n")
    assert totals.discoveries_ok == 10 ** 9
    assert time.perf_counter() - start < 0.5


def test_compare_missing_input_exits_one(capsys):
    assert run_cli("compare", "--inputs", "nope.csv") == 1
    assert "nope.csv" in capsys.readouterr().err


def test_svg_labels_from_inputs_are_escaped(tmp_path, capsys):
    src, svg = tmp_path / "in.csv", tmp_path / "cmp.svg"
    src.write_text("strategy,rreq_tx,discoveries_ok\na<b&c,15,1\n")
    assert run_cli("compare", "--inputs", str(src), "--svg", str(svg)) == 0
    texts = minidom.parse(str(svg)).getElementsByTagName("text")
    assert "a<b&c" in [t.firstChild.data for t in texts]


def test_svg_output_is_deterministic(tmp_path):
    charts = []
    for name in ("x.svg", "y.svg"):
        svg = tmp_path / name
        run_cli("compare", "--scenario", "fig1",
                "--strategies", "flood,counter:3", "--svg", str(svg))
        charts.append(svg.read_bytes())
    assert charts[0] == charts[1]


# --- trace ----------------------------------------------------------------

def test_trace_to_stdout(capsys, tmp_path):
    # the stdout sink gets every byte a trace file gets, drops included
    args = ("--scenario", "fig1", "--strategy", "ring:1:2:7")
    assert run_cli("trace", *args) == 0
    out = capsys.readouterr().out
    via_run = tmp_path / "run.tsv"
    assert run_cli("run", *args, "--trace", str(via_run)) == 0
    assert out.startswith("0\t")
    for reason in ("duplicate-rreq", "ttl-expired", "discovery-failed"):
        assert f"\tdrop\t{reason} " in out
    assert out == via_run.read_bytes().decode("utf-8")


def test_trace_to_file_matches_run_trace(tmp_path):
    via_trace = tmp_path / "a.tsv"
    via_run = tmp_path / "b.tsv"
    assert run_cli("trace", "--scenario", "fig1", "--out", str(via_trace)) == 0
    assert run_cli("run", "--scenario", "fig1", "--trace", str(via_run)) == 0
    assert via_trace.read_text() == via_run.read_text()


# --- bad input exits 1 and names where -------------------------------------

def _scenario_doc(**overrides):
    doc = {"schema": 1, "name": "tiny", "t_max": 100,
           "nodes": [{"name": "a"}, {"name": "b"}],
           "links": [{"a": "a", "b": "b"}],
           "traffic": [{"origin": "a", "dest": "b"}]}
    doc.update(overrides)
    return doc


MOBILE = {"model": "random_waypoint", "area": [50, 50]}


@pytest.mark.parametrize("overrides,path", [
    ({"links": [{"a": "a", "b": "b", "delay": "x"}]}, "links[0].delay"),
    ({"events": [{"kind": "link_down", "at": "soon", "a": "a", "b": "b"}]}, "events[0].at"),
    ({"events": [{"kind": "drop", "at": 1.5, "from": "a", "to": "b"}]}, "events[0].at"),
    ({"events": [{"kind": "link_up", "at": 3, "a": "a", "b": "a"}]}, "events[0]"),
    ({"traffic": [{"origin": "a", "dest": "b", "start": "x"}]}, "traffic[0].start"),
    ({"traffic": [{"origin": "a", "dest": "b", "rounds": "two"}]}, "traffic[0].rounds"),
    ({"traffic": [{"origin": "a", "dest": "b", "spacing": None}]}, "traffic[0].spacing"),
    ({"mobility": {**MOBILE, "pause": "x"}}, "mobility.pause"),
    ({"mobility": {**MOBILE, "range": "far"}}, "mobility.range"),
    ({"strategy": {"kind": "connectivity", "attempt_timeout": "x"}},
     "strategy.attempt_timeout"),
    ({"strategy": {"kind": "probabilistic", "p": [1]}}, "strategy.p"),
    ({"flags": {"intermediate_reply": "no"}}, "flags.intermediate_reply"),
    ({"seed": "x"}, "seed"),
    ({"events": 7}, "events"),
    ({"params": {"hello_interval": 0}}, "params.hello_interval"),
    ({"params": {"max_retries": "two"}}, "params.max_retries"),
    ({"params": {"route_lifetime": True}}, "params.route_lifetime"),
    ({"params": {"discovery_deadline": -5}}, "params.discovery_deadline"),
    ({"params": {"intermediate_reply": 1}}, "params.intermediate_reply"),
    ({"params": {"discovery_deadline": "x"},
      "traffic": [{"origin": "a", "dest": "b", "rounds": 2}]}, "params.discovery_deadline"),
    ({"flags": {"intermediate_reply": True}, "params": {"intermediate_reply": False}},
     "flags.intermediate_reply and params.intermediate_reply"),
    ({"events": [{"kind": "link_down", "at": 3, "a": "a", "b": "b"},
                 {"kind": "drop", "at": -1, "from": "a", "to": "b"}]}, "events[1].at"),
    ({"strategy": {"kind": "connectivity", "threshold": 7}}, "threshold"),
    ({"strategy": {"kind": "connectivity", "new_link_bonus": -5}}, "new_link_bonus"),
    ({"strategy": {"kind": "connectivity", "attempt_timeout": 0}}, "attempt_timeout"),
    ({"strategy": {"kind": "connectivity", "attempt_timeout": -5}}, "attempt_timeout"),
    ({"nodes": [{"name": "a", "pos": [float("nan"), 0]}, {"name": "b"}]}, "nodes[0].pos[0]"),
    ({"nodes": [{"name": "a"}, {"name": "b", "pos": [0, float("inf")]}]}, "nodes[1].pos[1]"),
    ({"mobility": {**MOBILE, "speed": [1, float("nan")]}}, "mobility.speed[1]"),
    ({"strategy": {"kind": "connectivity", "threshold": 7}},
     "strategy.threshold: must be finite and at most 1, got 7"),
    ({"params": {"default_ttl": 3}}, "params: unknown field(s) default_ttl"),
    ({"params": {"attempt_timeout": 5}}, "params: unknown field(s) attempt_timeout"),
    ({"mobility": {**MOBILE, "speed": [-5, -1]}}, "mobility.speed: need 0 <= min <= max"),
    ({"mobility": {**MOBILE, "speed": [3, 1]}}, "mobility.speed: need 0 <= min <= max"),
    ({"mobility": {**MOBILE, "range": -1}}, "mobility.range: must be > 0"),
    ({"mobility": {**MOBILE, "area": [0, 0]}}, "mobility.area: both sides must be > 0"),
    ({"mobility": {**MOBILE, "area": [-10, 50]}}, "mobility.area: both sides must be > 0"),
    ({"mobility": {**MOBILE, "pause": -3}}, "mobility.pause: must be >= 0"),
    ({"nodes": [{"name": "a\tb"}, {"name": "b"}]}, "nodes[0].name: not printable"),
    ({"nodes": [{"name": "a"}, {"name": "b\nc"}]}, "nodes[1].name: not printable"),
    ({"name": "two\nlines"}, "name: not printable, got 'two\\nlines'"),
    ({"name": None}, "name: expected a string, got None"),
    ({"comment": ["x"]}, "comment: expected a string, got ['x']"),
    ({"nodes": [{"name": {"id": 1}}, {"name": "b"}]},
     "nodes[0].name: expected a string, got {'id': 1}"),
    ({"links": [{"a": 1, "b": "b"}]}, "links[0].a: expected a string, got 1"),
    ({"traffic": [{"origin": "a", "dest": None}]}, "traffic[0].dest: expected a string, got None"),
    ({"events": [{"kind": "drop", "at": 1, "from": "a", "to": 2}]},
     "events[0].to: expected a string, got 2"),
    ({"events": [{"kind": "link_up", "at": 1, "a": "a", "b": False}]},
     "events[0].b: expected a string, got False"),
    ({"strategy": {"kind": "connectivity", "mode": 5}}, "strategy.mode: expected a string, got 5"),
])
def test_bad_scenario_values_exit_one_naming_the_path(tmp_path, capsys, overrides, path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_scenario_doc(**overrides)))
    assert run_cli("run", "--scenario", str(scenario)) == 1
    err = capsys.readouterr().err
    assert path in err and "internal error" not in err


@pytest.mark.parametrize("params,code,stderr", [
    ({"max_retries": "two"}, 1, "aodvsim: params.max_retries: expected an integer, got 'two'\n"),
    ({"hello_interval": 0}, 1, "aodvsim: params.hello_interval: must be >= 1, got 0\n"),
    ({"intermediate_reply": "yes"}, 1,
     "aodvsim: params.intermediate_reply: expected true or false, got 'yes'\n"),
    ({"attempt_timeout": 5}, 1, "aodvsim: params: unknown field(s) attempt_timeout\n"),
    ({"discovery_deadline": None}, 0, ""),      # null: the derived default
])
def test_params_messages_are_pinned(tmp_path, capsys, params, code, stderr):
    scenario = tmp_path / "params.json"
    scenario.write_text(json.dumps(_scenario_doc(params=params)))
    assert run_cli("run", "--scenario", str(scenario)) == code
    assert capsys.readouterr().err == stderr


@pytest.mark.parametrize("argv,strategy,stderr", [
    (["--strategy", "connectivity", "--threshold", "2"], {"kind": "connectivity", "threshold": 2},
     "strategy.threshold: must be finite and at most 1, got 2.0"),
    (["--strategy", "connectivity", "--warmup", "-1"],
     {"kind": "connectivity", "warmup_attempts": -1},
     "strategy.warmup_attempts: must be non-negative, got -1"),
    (["--strategy", "connectivity", "--mode", "ema", "--alpha", "1"],
     {"kind": "connectivity", "mode": "ema", "alpha": 1},
     "strategy.alpha: must lie strictly between 0 and 1, got 1.0"),
    (["--strategy", "probabilistic:2"], {"kind": "probabilistic", "p": 2},
     "strategy.p: must lie in [0, 1], got 2.0"),
    (["--strategy", "counter:-1"], {"kind": "counter", "max_copies": -1},
     "strategy.max_copies: must be >= 0, got -1"),
    (["--strategy", "distance:-1"], {"kind": "distance", "min_distance": -1},
     "strategy.min_distance: must be finite and >= 0, got -1.0"),
    (["--strategy", "ring:0:2:7"], {"kind": "expanding_ring", "ttl_start": 0},
     "strategy.ttl_start: must be >= 1, got 0"),
    (["--strategy", "ring:1:0:7"], {"kind": "expanding_ring", "ttl_increment": 0},
     "strategy.ttl_increment: must be >= 1, got 0"),
    (["--strategy", "ring:5:2:3"],
     {"kind": "expanding_ring", "ttl_start": 5, "ttl_threshold": 3},
     "strategy.ttl_threshold: must be >= ttl_start, got 3"),
    (["--strategy", "distance:1"], {"kind": "distance", "min_distance": 1},
     "nodes[0].pos: the distance strategy needs positions on every node, got None"),
])
def test_one_fault_one_message_from_option_or_file(tmp_path, capsys, argv, strategy, stderr):
    assert run_cli("run", "--scenario", "fig1", *argv) == 1
    from_options = capsys.readouterr().err
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_scenario_doc(strategy=strategy)))
    assert run_cli("run", "--scenario", str(scenario)) == 1
    assert from_options == capsys.readouterr().err == f"aodvsim: {stderr}\n"


@pytest.mark.parametrize("name", ["random-0", "random-1"])
def test_random_builtin_below_two_nodes_exits_one_with_its_own_message(capsys, name):
    assert run_cli("run", "--scenario", name) == 1
    assert capsys.readouterr().err == f"aodvsim: {name}: need at least 2 nodes\n"


def test_huge_positions_do_not_overflow_distances(tmp_path, capsys):
    scenario = tmp_path / "far.json"
    scenario.write_text(json.dumps(_scenario_doc(
        nodes=[{"name": "a", "pos": [-1e200, -1e200]}, {"name": "b", "pos": [1e200, 1e200]}],
        strategy={"kind": "distance", "min_distance": 1.0})))
    assert run_cli("run", "--scenario", str(scenario)) == 0
    assert "ok=1" in capsys.readouterr().out


@pytest.mark.parametrize("text,where", [
    ("strategy,rreq_tx,discoveries_ok\nflood,abc,1\n", "line 2, column rreq_tx"),
    ("strategy,rreq_tx,discoveries_ok,rrep_tx\nflood,3,1,-2\n", "line 2, column rrep_tx"),
    ("strategy,rreq_tx,discoveries_ok,mean_latency_ticks\nflood,3,1,soon\n",
     "line 2, column mean_latency_ticks"),
    ("strategy,discoveries_ok\nflood,1\n", "rreq_tx"),
    ('strategy,rreq_tx,discoveries_ok\n"x\ny",15,1\n',
     "line 2, column strategy: not printable, got 'x\\ny'"),
    ('strategy,rreq_tx,discoveries_ok\nflood,3,1\n\r\n\n"x\ny",15,1\n',
     "line 5, column strategy: not printable, got 'x\\ny'"),
])
def test_unreadable_compare_input_exits_one_naming_the_file(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run_cli("compare", "--inputs", str(bad)) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and where in err


# --- README ---------------------------------------------------------------

def readme_quick_start() -> list[str]:
    """The commands of the README's quick-start block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [l for l in lines if l.strip() and not l.lstrip().startswith("#")]


def test_readme_quick_start_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_quick_start()
    assert commands
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "aodvsim"
        assert run_cli(*argv[1:]) == 0, f"{command}: {capsys.readouterr().err}"
