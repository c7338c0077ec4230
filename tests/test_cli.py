import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from xml.dom import minidom

import pytest

import aodvsim
from aodvsim.cli import build_parser, main
from aodvsim.metrics import CSV_COLUMNS, parse_run_csv
from aodvsim.scenario import Scenario, builtin, parse_scenario, with_rounds
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


@pytest.mark.parametrize("argv,what", [
    (["run", "--scenario"], "scenario file"),
    (["compare", "--inputs"], "metrics file"),
])
def test_directory_input_exits_one_as_a_missing_file(argv, what, tmp_path, capsys):
    assert run_cli(*argv, str(tmp_path)) == 1
    assert capsys.readouterr().err == f"aodvsim: {what} not found: {tmp_path}\n"


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
    (["run", "--scenario", "fig1", "--rounds", "0"], "--rounds: must be >= 1, got 0"),
    (["compare", "--scenario", "fig1", "--strategies", "flood", "--rounds", "-3"],
     "--rounds: must be >= 1, got -3"),
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


def test_finished_discovery_past_its_deadline_horizon_is_no_truncation(capsys):
    # the default deadline 2 * 151 = 302 lies past t_max 300; the discovery
    # succeeds, so the deadline left in the queue is stale
    assert run_cli("run", "--scenario", "random-151", "--seed", "3") == 0
    out = capsys.readouterr().out
    assert "discoveries ok=1 failed=0" in out and "warning" not in out


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


def test_seed_option_equals_the_seed_written_into_the_file(tmp_path, capsys):
    golden = Path(__file__).parent / "golden" / "mixed.json"
    copy = tmp_path / "mixed-seed-3.json"
    copy.write_text(json.dumps({**json.loads(golden.read_text()), "seed": 3}))

    def outputs(*argv):
        out = tmp_path / "o.csv"
        assert run_cli("run", *argv, "--strategy", "probabilistic:0.6", "--out", str(out)) == 0
        return capsys.readouterr().out, out.read_text()
    from_option = outputs("--scenario", str(golden), "--seed", "3")
    assert from_option == outputs("--scenario", str(copy))
    assert "seed=3" in from_option[0]
    # the file's own seed 5 draws other forwarding decisions
    assert outputs("--scenario", str(golden))[0] != from_option[0]


@pytest.mark.parametrize("argv,validated", [
    (["run", "--scenario", "fig1"], ["flood"]),
    (["run", "--scenario", "fig1", "--strategy", "flood"], ["flood", "flood"]),
    (["compare", "--scenario", "fig1", "--strategies", "flood,connectivity,ring:1:2:7"],
     ["flood", "flood", "connectivity", "ring-1-2-7"]),
])
def test_every_scenario_built_is_validated_once(monkeypatch, capsys, argv, validated):
    # the scenario loaded, then each copy that a strategy token makes
    real = Scenario.validate
    labels = []

    def counted(sc):
        labels.append(sc.strategy.label)
        real(sc)
    monkeypatch.setattr(Scenario, "validate", counted)
    assert run_cli(*argv) == 0
    assert labels == validated


def test_run_without_a_scenario_exits_one(capsys):
    assert run_cli("run") == 1
    assert capsys.readouterr().err == "aodvsim: --scenario is required\n"


def test_compare_with_only_separators_exits_one(capsys):
    assert run_cli("compare", "--scenario", "fig1", "--strategies", ",") == 1
    assert capsys.readouterr().err == "aodvsim: --strategies is empty\n"


def test_output_into_a_missing_directory_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "o.csv"
    with pytest.raises(OSError) as exc:
        open(out, "w")
    assert run_cli("run", "--scenario", "fig1", "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"aodvsim: {exc.value}\n")


def test_trace_file_in_a_missing_directory_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "t.tsv"
    assert run_cli("run", "--scenario", "fig1", "--trace", str(path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("aodvsim: [Errno 2] ")


@pytest.mark.parametrize("argv, lines", [
    (["trace", "--scenario", "random-50"], 1),      # the trace outgrows the pipe mid-run
    (["run", "--scenario", "fig1"], 0),             # the summary waits in stdout's buffer
], ids=["trace-head-1", "run-head-0"])
def test_a_reader_that_closes_stdout_early_is_not_a_failure(argv, lines):
    """`aodvsim trace ... | head -1`: the reader leaves, and the writer exits 0
    without a word on stderr. Stdout is block-buffered, as it is in a shell."""
    env = {**os.environ, "PYTHONPATH": str(Path(aodvsim.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "aodvsim.cli", *argv]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            for _ in range(lines):
                assert proc.stdout.readline().startswith(b"0\t")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)   # reads stderr to its end, then waits
        finally:
            proc.kill()     # nothing once it has exited; a stuck writer must not hang the suite
    assert (proc.returncode, err) == (0, b"")


# --- strategy registry ----------------------------------------------------

# a token for every registered strategy, the label it must produce and
# the scenario JSON object that spells the same strategy
TOKENS = {
    "flood": ("flood", "flood", {"kind": "flood"}),
    "connectivity": ("connectivity", "connectivity", {
        "kind": "connectivity", "mode": "raw", "alpha": 0.3, "threshold": 0.5,
        "warmup_attempts": 10}),
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
    assert capsys.readouterr().err == (
        "aodvsim: strategy.kind: must be flood, connectivity, probabilistic, counter, "
        "distance or expanding_ring, got 'telepathy'\n")


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


# every row keeps the id it was first collected under, so re-pinning or deleting
# a row renames no other test; a new row takes the next unused number
@pytest.mark.parametrize("overrides,path", [
    pytest.param({"links": [{"a": "a", "b": "b", "delay": "x"}]}, "links[0].delay",
                 id="overrides0-links[0].delay"),
    pytest.param({"events": [{"kind": "link_down", "at": "soon", "a": "a", "b": "b"}]},
                 "events[0].at", id="overrides1-events[0].at"),
    pytest.param({"events": [{"kind": "drop", "at": 1.5, "from": "a", "to": "b"}]}, "events[0].at",
                 id="overrides2-events[0].at"),
    pytest.param({"events": [{"kind": "link_up", "at": 3, "a": "a", "b": "a"}]}, "events[0]",
                 id="overrides3-events[0]"),
    pytest.param({"traffic": [{"origin": "a", "dest": "b", "start": "x"}]}, "traffic[0].start",
                 id="overrides4-traffic[0].start"),
    pytest.param({"traffic": [{"origin": "a", "dest": "b", "rounds": "two"}]}, "traffic[0].rounds",
                 id="overrides5-traffic[0].rounds"),
    pytest.param({"traffic": [{"origin": "a", "dest": "b", "spacing": None}]},
                 "traffic[0].spacing", id="overrides6-traffic[0].spacing"),
    pytest.param({"mobility": {**MOBILE, "pause": "x"}}, "mobility.pause",
                 id="overrides7-mobility.pause"),
    pytest.param({"mobility": {**MOBILE, "range": "far"}}, "mobility.range",
                 id="overrides8-mobility.range"),
    pytest.param({"strategy": {"kind": "connectivity", "attempt_timeout": "x"}},
                 "strategy: unknown field(s) attempt_timeout",
                 id="overrides9-strategy: unknown field(s) attempt_timeout"),
    pytest.param({"strategy": {"kind": "probabilistic", "p": [1]}}, "strategy.p",
                 id="overrides10-strategy.p"),
    pytest.param({"flags": {"intermediate_reply": "no"}}, "top level: unknown field(s) flags",
                 id="overrides11-top level: unknown field(s) flags"),
    pytest.param({"seed": "x"}, "seed", id="overrides12-seed"),
    pytest.param({"events": 7}, "events", id="overrides13-events"),
    pytest.param({"params": {"hello_interval": 0}}, "params.hello_interval",
                 id="overrides14-params.hello_interval"),
    pytest.param({"params": {"max_retries": "two"}}, "params.max_retries",
                 id="overrides15-params.max_retries"),
    pytest.param({"params": {"route_lifetime": True}}, "params.route_lifetime",
                 id="overrides16-params.route_lifetime"),
    pytest.param({"params": {"discovery_deadline": -5}}, "params.discovery_deadline",
                 id="overrides17-params.discovery_deadline"),
    pytest.param({"params": {"intermediate_reply": 1}}, "params.intermediate_reply",
                 id="overrides18-params.intermediate_reply"),
    pytest.param({"params": {"discovery_deadline": "x"},
                  "traffic": [{"origin": "a", "dest": "b", "rounds": 2}]},
                 "params.discovery_deadline", id="overrides19-params.discovery_deadline"),
    pytest.param({"flags": {"intermediate_reply": True}, "params": {"intermediate_reply": False}},
                 "top level: unknown field(s) flags",
                 id="overrides20-top level: unknown field(s) flags"),
    pytest.param({"events": [{"kind": "link_down", "at": 3, "a": "a", "b": "b"},
                             {"kind": "drop", "at": -1, "from": "a", "to": "b"}]}, "events[1].at",
                 id="overrides21-events[1].at"),
    pytest.param({"strategy": {"kind": "connectivity", "threshold": 7}}, "threshold",
                 id="overrides22-threshold"),
    pytest.param({"strategy": {"kind": "connectivity", "new_link_bonus": 0.1}}, "new_link_bonus",
                 id="overrides23-new_link_bonus"),
    pytest.param({"strategy": {"kind": "connectivity", "attempt_timeout": 5}}, "attempt_timeout",
                 id="overrides24-attempt_timeout"),
    pytest.param(
        {"strategy": {"kind": "connectivity", "initial_index": 1.0, "attempt_timeout": None}},
        "attempt_timeout",
        id="overrides25-attempt_timeout"),
    pytest.param({"nodes": [{"name": "a", "pos": [float("nan"), 0]}, {"name": "b"}]},
                 "nodes[0].pos[0]", id="overrides26-nodes[0].pos[0]"),
    pytest.param({"nodes": [{"name": "a"}, {"name": "b", "pos": [0, float("inf")]}]},
                 "nodes[1].pos[1]", id="overrides27-nodes[1].pos[1]"),
    pytest.param({"mobility": {**MOBILE, "speed": [1, float("nan")]}}, "mobility.speed[1]",
                 id="overrides28-mobility.speed[1]"),
    pytest.param({"strategy": {"kind": "connectivity", "threshold": 7}},
                 "strategy.threshold: must be finite and at most 1, got 7",
                 id="overrides29-strategy.threshold: must be finite and at most 1, got 7"),
    pytest.param({"params": {"default_ttl": 3}}, "params: unknown field(s) default_ttl",
                 id="overrides30-params: unknown field(s) default_ttl"),
    pytest.param({"params": {"attempt_timeout": 5}}, "params: unknown field(s) attempt_timeout",
                 id="overrides31-params: unknown field(s) attempt_timeout"),
    pytest.param({"mobility": {**MOBILE, "speed": [-5, -1]}},
                 "mobility.speed: need 0 <= min <= max",
                 id="overrides32-mobility.speed: need 0 <= min <= max"),
    pytest.param({"mobility": {**MOBILE, "speed": [3, 1]}}, "mobility.speed: need 0 <= min <= max",
                 id="overrides33-mobility.speed: need 0 <= min <= max"),
    pytest.param({"mobility": {**MOBILE, "range": -1}}, "mobility.range: must be > 0",
                 id="overrides34-mobility.range: must be > 0"),
    pytest.param({"mobility": {**MOBILE, "area": [0, 0]}}, "mobility.area: both sides must be > 0",
                 id="overrides35-mobility.area: both sides must be > 0"),
    pytest.param({"mobility": {**MOBILE, "area": [-10, 50]}},
                 "mobility.area: both sides must be > 0",
                 id="overrides36-mobility.area: both sides must be > 0"),
    pytest.param({"mobility": {**MOBILE, "pause": -3}}, "mobility.pause: must be >= 1",
                 id="overrides37-mobility.pause: must be >= 1"),
    pytest.param({"nodes": [{"name": "a\tb"}, {"name": "b"}]}, "nodes[0].name: not printable",
                 id="overrides38-nodes[0].name: not printable"),
    pytest.param({"nodes": [{"name": "a"}, {"name": "b\nc"}]}, "nodes[1].name: not printable",
                 id="overrides39-nodes[1].name: not printable"),
    pytest.param({"name": "two\nlines"}, "name: not printable, got 'two\\nlines'",
                 id="overrides40-name: not printable, got 'two\\nlines'"),
    pytest.param({"name": None}, "name: expected a string, got None",
                 id="overrides41-name: expected a string, got None"),
    pytest.param({"comment": ["x"]}, "comment: expected a string, got ['x']",
                 id="overrides42-comment: expected a string, got ['x']"),
    pytest.param({"nodes": [{"name": {"id": 1}}, {"name": "b"}]},
                 "nodes[0].name: expected a string, got {'id': 1}",
                 id="overrides43-nodes[0].name: expected a string, got {'id': 1}"),
    pytest.param({"links": [{"a": 1, "b": "b"}]}, "links[0].a: expected a string, got 1",
                 id="overrides44-links[0].a: expected a string, got 1"),
    pytest.param({"traffic": [{"origin": "a", "dest": None}]},
                 "traffic[0].dest: expected a string, got None",
                 id="overrides45-traffic[0].dest: expected a string, got None"),
    pytest.param({"events": [{"kind": "drop", "at": 1, "from": "a", "to": 2}]},
                 "events[0].to: expected a string, got 2",
                 id="overrides46-events[0].to: expected a string, got 2"),
    pytest.param({"events": [{"kind": "link_up", "at": 1, "a": "a", "b": False}]},
                 "events[0].b: expected a string, got False",
                 id="overrides47-events[0].b: expected a string, got False"),
    pytest.param({"strategy": {"kind": "connectivity", "mode": 5}},
                 "strategy.mode: expected a string, got 5",
                 id="overrides48-strategy.mode: expected a string, got 5"),
])
def test_bad_scenario_values_exit_one_naming_the_path(tmp_path, capsys, overrides, path):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_scenario_doc(**overrides)))
    assert run_cli("run", "--scenario", str(scenario)) == 1
    err = capsys.readouterr().err
    assert path in err and "internal error" not in err


# every row keeps the id it was first collected under, so re-pinning or deleting
# a row renames no other test; a new row takes the next unused number
@pytest.mark.parametrize("overrides,stderr", [
    pytest.param({"nodes": [{"name": ""}, {"name": "b"}]},
                 "nodes[0].name: must not be empty, got ''",
                 id="overrides0-nodes[0].name: must not be empty, got ''"),
    pytest.param({"nodes": [{"name": "a"}, {"name": "a"}]}, "nodes[1].name: duplicate, got 'a'",
                 id="overrides1-nodes[1].name: duplicate, got 'a'"),
    pytest.param({"links": [{"a": "a", "b": "zz"}]}, "links[0]: unknown node, got 'zz'",
                 id="overrides2-links[0]: unknown node, got 'zz'"),
    pytest.param({"links": [{"a": "a", "b": "a"}]}, "links[0]: self-link, got 'a'",
                 id="overrides3-links[0]: self-link, got 'a'"),
    pytest.param({"links": [{"a": "a", "b": "b"}, {"a": "b", "b": "a"}]},
                 "links[1]: duplicate link, got 'b-a'",
                 id="overrides4-links[1]: duplicate link, got 'b-a'"),
    pytest.param({"links": [{"a": "a", "b": "b", "delay": 0}]},
                 "links[0].delay: must be >= 1, got 0",
                 id="overrides5-links[0].delay: must be >= 1, got 0"),
    pytest.param({"events": [{"kind": "drop", "at": 1, "from": "zz", "to": "b"}]},
                 "events[0]: unknown node, got 'zz'",
                 id="overrides6-events[0]: unknown node, got 'zz'"),
    pytest.param({"events": [{"kind": "link_up", "at": 3, "a": "a", "b": "a"}]},
                 "events[0]: self-link, got 'a'", id="overrides7-events[0]: self-link, got 'a'"),
    pytest.param({"events": [{"kind": "link_down", "at": -1, "a": "a", "b": "b"}]},
                 "events[0].at: must be >= 0, got -1",
                 id="overrides8-events[0].at: must be >= 0, got -1"),
    pytest.param({"traffic": []}, "traffic: at least one flow is required, got []",
                 id="overrides9-traffic: at least one flow is required, got []"),
    pytest.param({"traffic": [{"origin": "a", "dest": "zz"}]},
                 "traffic[0]: unknown node, got 'zz'",
                 id="overrides10-traffic[0]: unknown node, got 'zz'"),
    pytest.param({"traffic": [{"origin": "a", "dest": "a"}]},
                 "traffic[0]: origin equals dest, got 'a'",
                 id="overrides11-traffic[0]: origin equals dest, got 'a'"),
    pytest.param({"traffic": [{"origin": "a", "dest": "b", "rounds": 0}]},
                 "traffic[0].rounds: must be >= 1, got 0",
                 id="overrides12-traffic[0].rounds: must be >= 1, got 0"),
    pytest.param({"traffic": [{"origin": "a", "dest": "b", "start": -5}]},
                 "traffic[0].start: must be >= 0, got -5",
                 id="overrides13-traffic[0].start: must be >= 0, got -5"),
    pytest.param(
        {"traffic": [{"origin": "a", "dest": "b", "rounds": 3, "spacing": 10}]},
        "traffic[0].spacing: must be >= 16 so that discovery rounds do not overlap, got 10",
        id="overrides14-traffic[0].spacing: must be >= 16 so that discovery rounds do not "
           "overlap, got 10"),
    pytest.param({"t_max": 0}, "t_max: must be >= 1, got 0",
                 id="overrides15-t_max: must be >= 1, got 0"),
    pytest.param({"mobility": {"model": "teleport"}},
                 "mobility.model: must be random_waypoint, got 'teleport'",
                 id="overrides16-mobility.model: must be random_waypoint, got 'teleport'"),
    pytest.param({"mobility": {"model": "static", "area": [50, 50]}},
                 "mobility.model: must be random_waypoint, got 'static'",
                 id="overrides17-mobility.model: must be random_waypoint, got 'static'"),
    pytest.param(
        {"events": [{"kind": "teleport", "at": 1}]},
        "events[0].kind: must be link_up, link_down or drop, got 'teleport'",
        id="overrides18-events[0].kind: must be link_up, link_down or drop, got 'teleport'"),
    pytest.param({"schema": 2}, "schema: must be 1, got 2",
                 id="overrides19-schema: must be 1, got 2"),
    pytest.param({"schema": True}, "schema: expected an integer, got True",
                 id="overrides20-schema: expected an integer, got True"),
    pytest.param({"flags": {"intermediate_reply": True}, "params": {"intermediate_reply": False}},
                 "top level: unknown field(s) flags",
                 id="overrides21-top level: unknown field(s) flags"),
    pytest.param(
        {"strategy": {"kind": "connectivity", "initial_index": 1.0, "new_link_bonus": 0.1,
                      "attempt_timeout": 5}},
        "strategy: unknown field(s) attempt_timeout, initial_index, new_link_bonus",
        id="overrides22-strategy: unknown field(s) attempt_timeout, initial_index, "
           "new_link_bonus"),
    pytest.param({"links": [{"a": "a", "b": "b", "delay": True}]},
                 "links[0].delay: expected an integer, got True",
                 id="overrides23-links[0].delay: expected an integer, got True"),
    pytest.param({"links": [{"a": "a", "b": "b", "delay": 1.0}]},
                 "links[0].delay: expected an integer, got 1.0",
                 id="overrides24-links[0].delay: expected an integer, got 1.0"),
    pytest.param({"links": [{"a": None, "b": "b"}]}, "links[0].a: expected a string, got None",
                 id="overrides25-links[0].a: expected a string, got None"),
    pytest.param({"links": [7]}, "links[0]: expected an object",
                 id="overrides26-links[0]: expected an object"),
    pytest.param({"links": [{"a": "a", "b": "b", "cost": 2}]}, "links[0]: unknown field(s) cost",
                 id="overrides27-links[0]: unknown field(s) cost"),
    pytest.param({"links": [{"a": "a"}]}, "links[0].b: missing",
                 id="overrides28-links[0].b: missing"),
    pytest.param({"traffic": [{"origin": "a", "dest": "b", "rounds": False}]},
                 "traffic[0].rounds: expected an integer, got False",
                 id="overrides29-traffic[0].rounds: expected an integer, got False"),
])
def test_scenario_rejections_are_pinned(tmp_path, capsys, overrides, stderr):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(_scenario_doc(**overrides)))
    assert run_cli("run", "--scenario", str(scenario)) == 1
    assert capsys.readouterr().err == f"aodvsim: {stderr}\n"


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
    (["--strategy", "connectivity", "--mode", "mean"], {"kind": "connectivity", "mode": "mean"},
     "strategy.mode: must be raw, ema or blend, got 'mean'"),
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
    n = name.removeprefix("random-")
    assert capsys.readouterr().err == f"aodvsim: {name}: need at least 2 nodes, got {n}\n"


@pytest.mark.parametrize("digits", ["2001", "9" * 5000], ids=["2001", "5000-digits"])
def test_random_builtin_above_2000_nodes_exits_one(capsys, digits):
    # the 5,000-digit name is past Python's limit for int(), and meets the same rule
    assert run_cli("run", "--scenario", f"random-{digits}") == 1
    assert capsys.readouterr().err == f"aodvsim: random-{digits}: need at most 2000 nodes\n"


@pytest.mark.parametrize("name,code,out,err", [
    ("random-05", 0, "scenario=random-5 ", ""),
    # an Arabic-Indic three is a digit to `\d`, but a node count is ASCII digits only
    ("random-\u0663", 1, "", "aodvsim: scenario file not found: random-\u0663\n"),
], ids=["leading-zero", "non-ascii-digit"])
def test_random_builtin_takes_ascii_digits_only(capsys, name, code, out, err):
    assert run_cli("run", "--scenario", name) == code
    stdout, stderr = capsys.readouterr()
    assert stdout.startswith(out) and stderr == err


@pytest.mark.parametrize("n", [2, 50])
def test_random_builtin_id_triples_survive_a_json_round_trip(tmp_path, capsys, n):
    """random-N hands over its links as (a, b, delay) ids; spelled out by
    name in a scenario file, they resolve to the same ids and the same run."""
    sc = builtin(f"random-{n}")
    names = [node.name for node in sc.nodes]
    doc = {"schema": 1, "name": sc.name, "comment": sc.comment, "seed": sc.seed,
           "t_max": sc.t_max,
           "nodes": [{"name": node.name, "pos": list(node.pos)} for node in sc.nodes],
           "links": [{"a": names[a], "b": names[b], "delay": d} for a, b, d in sc.links],
           "traffic": [{"origin": t.origin, "dest": t.dest} for t in sc.traffic]}
    path = tmp_path / f"random-{n}.json"
    path.write_text(json.dumps(doc))
    from_file = parse_scenario(path.read_text())
    assert from_file.links_by_id() == sc.links_by_id()
    summaries = []
    for scenario in (sc.name, str(path)):
        assert run_cli("run", "--scenario", scenario) == 0
        summaries.append(capsys.readouterr().out)
    assert summaries[0] == summaries[1]
    # a --seed or --rounds copy carries the triples validate() made, not a new set
    for copy, source in ((replace(sc, seed=3), sc), (with_rounds(sc, 2), sc),
                         (replace(from_file, seed=3), from_file)):
        assert copy.links_by_id() is source.links_by_id()


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    assert run_cli("run", "--scenario", "fig1", "--seed", "7", "--strategy", "connectivity",
                   "--mode", "ema", "--alpha", "0.5") == 0
    assert run_cli("run", "--rounds", "x") == 1
    capsys.readouterr()
    assert run_cli("run", "--scenario", "fig1") == 0
    env = {**os.environ, "PYTHONPATH": str(Path(aodvsim.__file__).parents[1])}
    fresh = subprocess.run([sys.executable, "-m", "aodvsim.cli", "run", "--scenario", "fig1"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert capsys.readouterr().out == fresh.stdout


def test_links_listed_under_mobility_are_ignored(tmp_path, capsys):
    # positions alone make the links of a mobile scenario, at delay 1
    doc = json.loads((Path(__file__).parent / "golden" / "waypoint.json").read_text())
    every_pair = [{"a": a["name"], "b": b["name"], "delay": 5}
                  for a, b in itertools.combinations(doc["nodes"], 2)]
    outputs = []
    for links in ([], every_pair):
        scenario, csv = tmp_path / "waypoint.json", tmp_path / "waypoint.csv"
        scenario.write_text(json.dumps({**doc, "links": links}))
        assert run_cli("run", "--scenario", str(scenario), "--out", str(csv)) == 0
        outputs.append((csv.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


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
    pytest.param(b"\xff\xfe", "not UTF-8 text: invalid start byte at byte 0", id="not-utf8"),
    pytest.param("", "empty CSV input", id="empty"),
    pytest.param("strategy,rreq_tx,discoveries_ok\nflood,1,1,extra\n",
                 "line 2: more cells than the header's 3, got 4", id="extra-cell"),
    pytest.param("strategy,rreq_tx,discoveries_ok\nflood,1," + "9" * 200_000,
                 "line 2: field larger than field limit (131072)", id="huge-cell"),
])
def test_unreadable_compare_input_exits_one_naming_the_file(tmp_path, capsys, text, where):
    # a readable file first: the message names the file at fault, not the first
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("strategy,rreq_tx,discoveries_ok\nflood,1,1\n")
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert run_cli("compare", "--inputs", str(good), str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"aodvsim: {bad}: ") and where in err


# Python words the last two messages itself, differently across versions:
# only their prefix is pinned
@pytest.mark.parametrize("data,stderr", [
    (b"\xff\xfe", "aodvsim: {path}: not UTF-8 text: invalid start byte at byte 0\n"),
    (b"[" * 200_000, "aodvsim: invalid JSON: "),
    (json.dumps(_scenario_doc()).replace('"t_max": 100', '"t_max": ' + "9" * 5000).encode(),
     "aodvsim: invalid JSON: "),
], ids=["not-utf8", "nested-200000-deep", "5000-digit-t_max"])
def test_unreadable_scenario_file_exits_one(tmp_path, capsys, data, stderr):
    scenario = tmp_path / "bad.json"
    scenario.write_bytes(data)
    assert run_cli("run", "--scenario", str(scenario)) == 1
    err = capsys.readouterr().err
    if stderr.endswith("\n"):
        assert err == stderr.format(path=scenario)
    else:
        assert err.startswith(stderr) and "internal error" not in err


def test_blank_required_compare_cell_exits_one_with_its_message(tmp_path, capsys):
    bad = tmp_path / "blank.csv"
    bad.write_text("strategy,rreq_tx,discoveries_ok\nflood,,1\n")
    assert run_cli("compare", "--inputs", str(bad)) == 1
    assert capsys.readouterr().err == (
        f"aodvsim: {bad}: line 2, column rreq_tx: expected a value, got ''\n")


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
