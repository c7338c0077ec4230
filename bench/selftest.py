#!/usr/bin/env python3
"""Show that every output check can fail.

    python3 bench/selftest.py

Runs each workload's simulations once (seed 1), confirms that the real
outputs pass, then feeds each check a deliberately wrong variant (a count
off by one, a dropped or reordered trace line, a missing link, an open
discovery record) and requires a rejection. Also confirms that BENCHMARK.json
names every metric the benchmark prints, with the same unit. Exits 1 if any
wrong result is accepted.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run  # sets up the import path for the simulator and the checks
import checks
from checks import CheckFailed
from spans import Spans
from workloads import BUILDERS

SEED = 1
failures: list[str] = []


def rejects(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except CheckFailed:
        print(f"ok    rejects {what}")
        return
    failures.append(what)
    print(f"FAIL  accepts {what}")


def plus_one(counts: dict, key: str, delta: int = 1) -> dict:
    return {**counts, key: counts[key] + delta}


def rewrite(src: Path, dst: Path, edit) -> str:
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    dst.write_text("".join(edit(lines)), encoding="utf-8")
    return str(dst)


def first_index(lines, kind: str) -> int:
    return next(i for i, line in enumerate(lines) if line.split("\t")[2] == kind)


def swap_ticks(lines):
    i = next(i for i in range(len(lines) - 1)
             if lines[i].split("\t")[0] != lines[i + 1].split("\t")[0])
    return lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]


def discovery(runner: run.Runner, workdir: Path) -> None:
    flood_op, conn_op = runner.wl.ops[:2]
    exp = runner.expected[flood_op.graph]
    flood = runner.execute(flood_op)
    runner.check(flood)
    counts = {c: getattr(flood.report, c) for c in run.INT_COLUMNS}
    mean = flood.report.mean_latency()
    for key in ("rreq_tx", "redundant_rreq_rx", "discoveries_ok", "hello_tx"):
        rejects(f"flood {key} + 1", checks.check_static_flood, plus_one(counts, key), mean, exp)
    rejects("flood with a failed discovery", checks.check_static_flood,
            plus_one(counts, "discoveries_failed"), mean, exp)
    rejects("flood mean latency + 0.5", checks.check_static_flood, counts, mean + 0.5, exp)
    rejects("hello_tx - 1", checks.check_hello, counts["hello_tx"] - 1, exp)

    trace = runner._paths(flood_op)[1]
    rejects("rreq_tx + 1 against the trace", checks.check_trace, str(trace),
            plus_one(counts, "rreq_tx"))
    bad = workdir / "bad.trace"
    edits = {
        "a dropped deliver line":
            lambda ls: ls[:first_index(ls, "deliver")] + ls[first_index(ls, "deliver") + 1:],
        "a decreasing tick": swap_ticks,
        "a line with three fields":
            lambda ls: ls[:5] + [ls[5].replace("\t", " ", 1)] + ls[6:],
        "an unterminated last line": lambda ls: ls[:-1] + [ls[-1].rstrip("\n")],
    }
    for what, edit in edits.items():
        rejects(f"trace with {what}", checks.check_trace, rewrite(trace, bad, edit), counts)

    conn = runner.execute(conn_op)
    runner.check(conn)
    rep = conn.report
    ccounts = {c: getattr(rep, c) for c in run.INT_COLUMNS}
    flood_side = {"rreq_tx": exp.rreq_tx, "discoveries_ok": exp.discoveries_ok}
    link_total = sum(rep.per_link_rreq_tx.values())
    node_total = sum(rep.per_node_rreq_tx.values())
    rejects("connectivity rreq_tx equal to flood's", checks.check_connectivity,
            {**ccounts, "rreq_tx": exp.rreq_tx}, flood_side, exp.rreq_tx, exp.rreq_tx)
    rejects("connectivity with no suppressed forward", checks.check_connectivity,
            {**ccounts, "suppressed_forwards": 0}, flood_side, link_total, node_total)
    rejects("connectivity discoveries_ok - 1", checks.check_connectivity,
            plus_one(ccounts, "discoveries_ok", -1), flood_side, link_total, node_total)
    rejects("per-link RREQ total + 1", checks.check_connectivity,
            ccounts, flood_side, link_total + 1, node_total)
    rejects("per-node RREQ total - 1", checks.check_connectivity,
            ccounts, flood_side, link_total, node_total - 1)

    # the wiring: a report that disagrees with the CSV it wrote
    rep.rreq_tx += 1
    rejects("a report that differs from its CSV", runner.check, conn)


def beacon(runner: run.Runner, workdir: Path) -> None:
    res = runner.execute(runner.wl.ops[0])
    runner.check(res)
    res.report.rreq_tx += 1
    rejects("beacon rreq_tx + 1", runner.check, res)


def waypoint(runner: run.Runner, workdir: Path) -> None:
    res = runner.execute(runner.wl.ops[0])
    runner.check(res)
    eng, rep = res.engine, res.report
    extra = next(frozenset((i, j)) for i in range(eng.scenario.node_count)
                 for j in range(i + 1, eng.scenario.node_count)
                 if frozenset((i, j)) not in eng.live_links)
    radio_range = res.op.doc["mobility"]["range"]
    rejects("a final link set with one link missing", checks.check_final_links,
            dict(list(eng.live_links.items())[1:]), eng.positions, radio_range)
    rejects("a final link set with one link too many", checks.check_final_links,
            {**eng.live_links, extra: 1}, eng.positions, radio_range)
    records = copy.deepcopy(rep.discoveries)
    records[0] = replace(records[0], resolved_at=None, failed=False)
    rejects("an open discovery record", checks.check_closed, records)
    before = res.counters()
    rep.rerr_tx += 1
    rejects("a repeat with different counters", checks.check_repeat, before, res.counters())
    rejects("waypoint run that differs from the first", runner.check, res)


def benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    printed = list(run.END_TO_END_UNITS)
    layer_names = (list(Spans().layer_metrics()) + [f"sim.{k}" for k in run.SIM_COUNTERS]
                   + ["trace_overhead_s", "host.slowdown"])
    for group, names in (("end_to_end", printed), ("per_layer", layer_names)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        want = {n: run.unit_of(n) for n in names}
        if declared != want:
            failures.append(f"BENCHMARK.json {group}")
            print(f"FAIL  BENCHMARK.json {group} differs: "
                  f"{sorted(set(declared.items()) ^ set(want.items()))}")
        else:
            print(f"ok    BENCHMARK.json {group} matches the {len(names)} printed metrics")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(BUILDERS):
        failures.append("BENCHMARK.json workloads")
        print("FAIL  BENCHMARK.json workloads differ from the benchmark's")


def main() -> int:
    workdir = run.BENCH / "_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, test in (("discovery", discovery), ("beacon", beacon),
                           ("waypoint", waypoint)):
            print(f"-- {name}")
            test(run.Runner(BUILDERS[name](SEED), workdir), workdir)
        print("-- BENCHMARK.json")
        benchmark_json()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"{len(failures)} wrong result(s) accepted" if failures else "every check rejects its wrong result")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
