"""Golden digests: `aodvsim run` and `compare` output must stay byte-identical.

Each run entry runs one scenario through the CLI, under a strategy token
and any further options or under a scenario file's own strategy, and hashes
the metrics CSV, the trace file and the printed summary. Each untraced
entry runs the same without `--trace` and hashes the CSV and the summary, so
a run that writes no trace is pinned on its own. Each compare
entry runs one scenario under every corpus strategy and hashes the comparison
CSV, the SVG chart and the printed table. A change that is meant to move any
of them re-records the digests and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from aodvsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"

STRATEGIES = ["flood", "connectivity", "probabilistic:0.6", "counter:3", "ring:1:2:7"]
BUILTINS = ["fig1", "fig1-tables", "ring-demo", "random-20", "random-50"]
COMPARED = ["fig1", "mixed.json"]
# the connectivity filter's smoothing modes, at settings under which it prunes
TUNED = "connectivity --alpha 0.3 --threshold 0.3 --warmup 2 --rounds 11"
OWN = ""        # no options: a scenario file runs under its own strategy block


def corpus() -> list[tuple[str, str]]:
    """(scenario, options); a scenario is a builtin name or a file in golden/,
    and the options are a strategy token, optionally followed by more `run`
    options, or OWN."""
    entries = [(sc, st) for sc in BUILTINS for st in STRATEGIES]
    entries += [(sc, st) for sc in ("waypoint.json", "waypoint-events.json")
                for st in ("flood", "connectivity")]
    entries += [("mixed.json", st) for st in STRATEGIES]
    entries += [("overrun.json", st) for st in STRATEGIES]
    entries += [("fig1-tables", f"{TUNED} --mode {mode}") for mode in ("ema", "blend")]
    entries += [("own-connectivity.json", OWN)]
    # the distance strategy on a builtin with positions, and a file under a given seed
    entries += [("random-20", "distance:20"), ("mixed.json", "flood --seed 3")]
    # the distance strategy while the nodes move, under its own strategy block
    entries += [("waypoint-distance.json", OWN)]
    # a file that sets params and turns intermediate replies off
    entries += [("params.json", OWN), ("params.json", "connectivity")]
    # a ring whose third attempt is past its threshold and goes network-wide,
    # and a file whose round count is given on the command line
    entries += [("ring-demo", "ring:1:2:3"), ("mixed.json", "flood --rounds 3")]
    return entries


def entry_id(scenario: str, options: str) -> str:
    return f"{scenario}/{options or 'own'}"


def untraced_id(scenario: str, options: str) -> str:
    return f"untraced/{entry_id(scenario, options)}"


def compare_id(scenario: str) -> str:
    return f"compare/{scenario}"


def _source(scenario: str) -> str:
    return str(GOLDEN / scenario) if scenario.endswith(".json") else scenario


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(argv: list[str], what: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{what} exited {code}"
    return out.getvalue()


def run_outputs(scenario: str, options: str, workdir: Path, traced: bool) -> dict[str, bytes]:
    """The CSV, the summary and, if traced, the trace of one `aodvsim run`."""
    csv_path, trace_path = workdir / "out.csv", workdir / "out.trace"
    argv = ["run", "--scenario", _source(scenario), "--out", str(csv_path)]
    if options:
        argv += ["--strategy", *options.split()]
    if traced:
        argv += ["--trace", str(trace_path)]
    summary = _main(argv, entry_id(scenario, options))
    outputs = {"csv": csv_path.read_bytes(), "summary": summary.encode()}
    if traced:
        outputs["trace"] = trace_path.read_bytes()
    return outputs


def digests_of(scenario: str, options: str, workdir: Path, traced: bool = True) -> dict[str, str]:
    return {k: _sha(v) for k, v in run_outputs(scenario, options, workdir, traced).items()}


def compare_digests_of(scenario: str, workdir: Path) -> dict[str, str]:
    csv_path, svg_path = workdir / "cmp.csv", workdir / "cmp.svg"
    table = _main(["compare", "--scenario", _source(scenario),
                   "--strategies", ",".join(STRATEGIES),
                   "--out", str(csv_path), "--svg", str(svg_path)],
                  compare_id(scenario))
    return {
        "csv": _sha(csv_path.read_bytes()),
        "svg": _sha(svg_path.read_bytes()),
        "stdout": _sha(table.encode()),
    }


@pytest.mark.parametrize("scenario,options", corpus(),
                         ids=[entry_id(*e) for e in corpus()])
def test_output_matches_golden_digest(scenario, options, tmp_path):
    recorded = json.loads(DIGESTS.read_text())[entry_id(scenario, options)]
    assert digests_of(scenario, options, tmp_path) == recorded


@pytest.mark.parametrize("scenario,options", corpus(),
                         ids=[untraced_id(*e) for e in corpus()])
def test_untraced_output_matches_golden_digest(scenario, options, tmp_path):
    recorded = json.loads(DIGESTS.read_text())[untraced_id(scenario, options)]
    assert digests_of(scenario, options, tmp_path, traced=False) == recorded


@pytest.mark.parametrize("scenario,options", corpus(),
                         ids=[entry_id(*e) for e in corpus()])
def test_trace_sink_changes_no_count(scenario, options, tmp_path):
    # checked run against run, so it holds whatever the recorded digests say
    traced = run_outputs(scenario, options, tmp_path, traced=True)
    plain = run_outputs(scenario, options, tmp_path, traced=False)
    assert plain == {"csv": traced["csv"], "summary": traced["summary"]}


@pytest.mark.parametrize("scenario", COMPARED, ids=[compare_id(s) for s in COMPARED])
def test_compare_output_matches_golden_digest(scenario, tmp_path):
    recorded = json.loads(DIGESTS.read_text())[compare_id(scenario)]
    assert compare_digests_of(scenario, tmp_path) == recorded


def test_corpus_and_recorded_digests_agree():
    recorded = json.loads(DIGESTS.read_text())
    expected = ([entry_id(*e) for e in corpus()] + [untraced_id(*e) for e in corpus()]
                + [compare_id(s) for s in COMPARED])
    assert sorted(recorded) == sorted(expected)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {entry_id(*e): digests_of(*e, Path(tmp)) for e in corpus()}
        table.update({untraced_id(*e): digests_of(*e, Path(tmp), traced=False)
                      for e in corpus()})
        table.update({compare_id(s): compare_digests_of(s, Path(tmp)) for s in COMPARED})
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests in {DIGESTS}")
