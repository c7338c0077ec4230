"""Golden digests: `aodvsim run` output must stay byte-identical.

Each corpus entry runs one scenario under one strategy through the CLI and
hashes the metrics CSV, the trace file and the printed summary. A change that
is meant to move any of them re-records the digests and says why:

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


def corpus() -> list[tuple[str, str]]:
    """(scenario, strategy token); a scenario is a builtin name or a file in golden/."""
    entries = [(sc, st) for sc in BUILTINS for st in STRATEGIES]
    entries += [("waypoint.json", st) for st in ("flood", "connectivity")]
    entries += [("mixed.json", st) for st in STRATEGIES]
    return entries


def entry_id(scenario: str, strategy: str) -> str:
    return f"{scenario}/{strategy}"


def digests_of(scenario: str, strategy: str, workdir: Path) -> dict[str, str]:
    source = str(GOLDEN / scenario) if scenario.endswith(".json") else scenario
    csv_path, trace_path = workdir / "out.csv", workdir / "out.trace"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", "--scenario", source, "--strategy", strategy,
                     "--out", str(csv_path), "--trace", str(trace_path)])
    assert code == 0, f"{entry_id(scenario, strategy)} exited {code}"
    return {
        "csv": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        "trace": hashlib.sha256(trace_path.read_bytes()).hexdigest(),
        "summary": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


@pytest.mark.parametrize("scenario,strategy", corpus(),
                         ids=[entry_id(*e) for e in corpus()])
def test_output_matches_golden_digest(scenario, strategy, tmp_path):
    recorded = json.loads(DIGESTS.read_text())[entry_id(scenario, strategy)]
    assert digests_of(scenario, strategy, tmp_path) == recorded


def test_corpus_and_recorded_digests_agree():
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(entry_id(*e) for e in corpus())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {entry_id(*e): digests_of(*e, Path(tmp)) for e in corpus()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests in {DIGESTS}")
