#!/usr/bin/env python3
"""aodvsim benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload discovery --seed 1 --seconds 20 --trace 0

Run from the repository root; the simulator is imported from ./src. The
workload's scenarios are generated from --seed and the simulator only sees
the generated JSON. Every simulation (an "operation") is checked against
results the benchmark computes itself (see checks.py); one that raises or
exits non-zero, or whose output fails a check, counts as failed.

--trace 0 repeats whole passes of the workload for --seconds and reports the
end-to-end metrics. --trace 1 alternates untraced and traced passes and
reports per-layer metrics (see spans.py) plus the tracing overhead.

Times are in reference seconds (see hostspeed.py): host seconds scaled by a
fixed kernel's speed measured around each simulation. A pass's time is the
sum, over its simulations, of each one's median repetition in the run.
Set-up time is the median of repeated set-ups.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

if not (SRC / "aodvsim" / "__init__.py").is_file():
    sys.exit(f"bench: simulator source not found under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

from aodvsim import cli, engine, scenario  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from workloads import BUILDERS, Op, Workload  # noqa: E402

MIN_PASSES = 3
SETUP_REPEATS = 25
TX_COLUMNS = ("rreq_tx", "rrep_tx", "rerr_tx", "hello_tx", "data_tx")
INT_COLUMNS = TX_COLUMNS + ("redundant_rreq_rx", "suppressed_forwards",
                            "discoveries_ok", "discoveries_failed")
SIM_COUNTERS = TX_COLUMNS + ("redundant_rreq_rx", "suppressed_forwards", "losses",
                             "discoveries_ok")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "tx_per_s": "transmissions/s",
                    "peak_rss_mb": "MB", "rreq_per_discovery": "RREQ/discovery"}


class Result:
    """What one operation produced, with its host times."""

    def __init__(self, op: Op, wall_s: float, eng):
        self.op = op
        self.wall_s = wall_s
        self.engine = eng
        self.report = eng.metrics

    def counters(self) -> tuple:
        r = self.report
        return r.counter_tuple() + (r.losses, len(r.discoveries), r.mean_latency())

    def sample(self) -> Sample:
        sim = {k: getattr(self.report, k) for k in SIM_COUNTERS}
        return Sample(self.op.name, self.wall_s, self.engine.run_s, sim,
                      len(self.report.discoveries))


@dataclass(frozen=True)
class Sample:
    """The figures kept from one checked operation; the engine is let go."""

    op: str
    wall_s: float
    run_s: float
    sim: dict[str, int]
    discoveries: int
    scale: float = 1.0               # reference seconds per host second

    @property
    def tx(self) -> int:
        return sum(self.sim[c] for c in TX_COLUMNS)


class Runner:
    def __init__(self, wl: Workload, workdir: Path):
        self.wl = wl
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_counters: dict[str, tuple] = {}
        self.engines: list = []
        self.expected = {op.graph: checks.expected_static_flood(op.graph)
                         for op in wl.ops if op.graph is not None}
        self.inputs: dict[str, str] = {}
        for op in wl.ops:
            text = json.dumps(op.doc, indent=1)
            if wl.via_cli:
                path = workdir / f"{op.doc['name']}.json"
                path.write_text(text, encoding="utf-8")
                text = str(path)
            self.inputs[op.name] = text

        runner = self

        class TimedEngine(engine.Engine):
            """The simulator's engine, remembered and with Engine.run timed."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runner.engines.append(self)

            def run(self):
                start = time.perf_counter()
                try:
                    return super().run()
                finally:
                    self.run_s = time.perf_counter() - start

        self.engine_class = TimedEngine
        cli.Engine = TimedEngine

    # -- one operation

    def _paths(self, op: Op) -> tuple[Path, Path]:
        return self.workdir / f"{op.name}.csv", self.workdir / f"{op.name}.trace"

    def _argv(self, op: Op) -> list[str]:
        csv_path, trace_path = self._paths(op)
        return ["run", "--scenario", self.inputs[op.name], "--strategy", op.strategy,
                "--out", str(csv_path), "--trace", str(trace_path)]

    def execute(self, op: Op) -> Result:
        self.engines.clear()
        if self.wl.via_cli:
            argv = self._argv(op)
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            wall = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"aodvsim {' '.join(argv)} exited {code}")
        else:
            start = time.perf_counter()
            self.engine_class(scenario.parse_scenario(self.inputs[op.name])).run()
            wall = time.perf_counter() - start
        if len(self.engines) != 1:
            raise RuntimeError(f"{op.name}: {len(self.engines)} engines ran, expected 1")
        return Result(op, wall, self.engines[0])

    def check(self, res: Result) -> None:
        rep, op = res.report, res.op
        counts = {c: getattr(rep, c) for c in INT_COLUMNS}
        if self.wl.via_cli:
            csv_path, trace_path = self._paths(op)
            row = checks.read_csv_row(str(csv_path))
            written = {c: int(row[c]) for c in INT_COLUMNS}
            checks.expect(written == counts, f"{op.name}: CSV {written} differs from report {counts}")
            checks.check_trace(str(trace_path), written)
        if op.graph is not None:
            exp = self.expected[op.graph]
            checks.check_hello(counts["hello_tx"], exp)
            if op.strategy == "flood":
                checks.check_static_flood(counts, rep.mean_latency(), exp)
                if self.wl.via_cli:
                    want = f"{float(exp.mean_latency):.3f}"
                    checks.expect(row["mean_latency_ticks"] == want,
                                  f"CSV mean latency {row['mean_latency_ticks']}, BFS gives {want}")
            else:
                flood = {"rreq_tx": exp.rreq_tx, "discoveries_ok": exp.discoveries_ok}
                checks.check_connectivity(counts, flood, sum(rep.per_link_rreq_tx.values()),
                                          sum(rep.per_node_rreq_tx.values()))
        else:
            checks.check_final_links(res.engine.live_links, res.engine.positions,
                                     op.doc["mobility"]["range"])
        checks.check_closed(rep.discoveries)
        first = self.first_counters.setdefault(op.name, res.counters())
        checks.check_repeat(first, res.counters())

    def attempt(self, op: Op) -> Sample | None:
        self.attempted += 1
        try:
            res = self.execute(op)
        except Exception:
            self.failed += 1
            print(f"bench: {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        try:
            self.check(res)
        except (CheckFailed, ValueError, KeyError) as exc:   # unreadable output fails too
            self.failed += 1
            self.correct = False
            print(f"bench: {op.name} check failed: {exc}", file=sys.stderr)
            return None
        return res.sample()

    def run_pass(self, clock: HostClock) -> list[Sample]:
        """Every operation once; each sample scaled by the host speed around it."""
        samples = []
        for op in self.wl.ops:
            smp = self.attempt(op)
            scale = clock.scale()
            if smp is not None:
                samples.append(replace(smp, wall_s=smp.wall_s * scale,
                                       run_s=smp.run_s * scale, scale=scale))
        return samples

    # -- set-up only

    def setup_once(self) -> float:
        start = time.perf_counter()
        for op in self.wl.ops:
            if self.wl.via_cli:
                args = cli.build_parser().parse_args(self._argv(op))
                sc = cli.load_scenario(args, args.strategy)
            else:
                sc = scenario.parse_scenario(self.inputs[op.name])
            engine.Engine(sc)
        return time.perf_counter() - start


def typical(samples: list[Sample], attr: str) -> float:
    """Sum over the workload's operations of each one's median repetition."""
    by_op: dict[str, list[float]] = {}
    for smp in samples:
        by_op.setdefault(smp.op, []).append(getattr(smp, attr))
    return sum(statistics.median(values) for values in by_op.values())


def one_pass(samples: list[Sample]) -> list[Sample]:
    """One sample per operation; simulated counts repeat exactly across passes."""
    return list({smp.op: smp for smp in samples}.values())


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    clock = HostClock()
    setups = [runner.setup_once() for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(setups) * clock.scale()
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        samples += runner.run_pass(clock)
        passes += 1
    metrics = {"setup_s": setup_s, "peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024}
    if samples:
        counted = one_pass(samples)
        metrics["wall_s"] = typical(samples, "wall_s")
        metrics["tx_per_s"] = sum(smp.tx for smp in counted) / typical(samples, "run_s")
        metrics["rreq_per_discovery"] = (sum(smp.sim["rreq_tx"] for smp in counted)
                                         / sum(smp.discoveries for smp in counted))
    return metrics


def per_layer(runner: Runner, seconds: float) -> dict[str, float]:
    from spans import Spans

    clock = HostClock()
    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not layers or time.perf_counter() < deadline:
        plain += runner.run_pass(clock)
        spans = Spans()
        spans.install()
        try:
            samples = runner.run_pass(clock)
        finally:
            spans.uninstall()
        traced += samples
        values = spans.layer_metrics()
        if samples:
            scale = statistics.fmean(smp.scale for smp in samples)
            for name in values:
                if unit_of(name) in ("s", "ns"):
                    values[name] *= scale
        for kind in SIM_COUNTERS:
            values[f"sim.{kind}"] = sum(smp.sim[kind] for smp in one_pass(samples))
        layers.append(values)
    metrics = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    metrics["trace_overhead_s"] = typical(traced, "wall_s") - typical(plain, "wall_s")
    metrics["host.slowdown"] = statistics.median(clock.slowdowns)
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "engine.ns_per_event":
        return "ns"
    if name in ("suppression.kept_ratio", "host.slowdown"):
        return "ratio"
    if name == "trace.bytes":
        return "bytes"
    return "s" if name.endswith(("_s", ".s")) else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = BENCH / "_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(BUILDERS[args.workload](args.seed), workdir)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
