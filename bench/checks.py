"""Output checks that use no recorded output of the simulator.

Expected values come from the generated graph alone: a wave-by-wave replay
of one blind flood, BFS hop counts, the HELLO schedule, and the radio-range
rule applied to the engine's final positions. Nothing here imports aodvsim.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

PACKET_KINDS = {"RREQ": "rreq_tx", "RREP": "rrep_tx", "RERR": "rerr_tx",
                "HELLO": "hello_tx", "DATA": "data_tx"}


class CheckFailed(Exception):
    """The simulator's output disagrees with the benchmark's own result."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_hops(adj: list[set[int]], src: int) -> dict[int, int]:
    hops = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    nxt.append(v)
        frontier = nxt
    return hops


def flood_replay(adj: list[set[int]], src: int, dst: int, ttl: int) -> tuple[int, int, bool]:
    """One blind flood over unit-delay links, replayed one wave (tick) at a time.

    The origin sends with the full TTL, each relay decrements it, a copy that
    arrives with TTL 0 is discarded unseen, a node forwards only its first
    copy to every neighbour but the sender, and the destination never relays.
    Returns (transmissions, redundant receptions, destination reached).
    """
    seen = {src}
    arrivals = [(nbr, src, ttl) for nbr in sorted(adj[src])]
    tx, redundant, reached = len(arrivals), 0, False
    while arrivals:
        nxt = []
        for me, frm, t in arrivals:
            if t == 0:
                continue
            if me in seen:
                redundant += 1
                continue
            seen.add(me)
            if me == dst:
                reached = True
                continue
            for nbr in sorted(adj[me] - {frm}):
                nxt.append((nbr, me, t - 1))
        tx += len(nxt)
        arrivals = nxt
    return tx, redundant, reached


@dataclass(frozen=True)
class FloodExpectation:
    rreq_tx: int
    redundant_rreq_rx: int
    discoveries_ok: int
    mean_latency: Fraction
    hello_tx: int


def expected_static_flood(graph) -> FloodExpectation:
    """Totals of a static, lossless run where every discovery is one flood.

    `graph` is a workloads.StaticGraph. Each round of a flow repeats the same
    flood; the reply retraces the first-arrival (shortest) path, so latency
    is twice the hop distance. The default TTL is the node count.
    """
    n, edges, flows = graph.node_count, graph.edges, graph.flows
    adj = adjacency(n, edges)
    rreq = redundant = ok = latency = 0
    for f in flows:
        tx, red, reached = flood_replay(adj, f.origin, f.dest, ttl=n)
        expect(reached, f"generator bug: {f.dest} unreachable from {f.origin}")
        rreq += f.rounds * tx
        redundant += f.rounds * red
        ok += f.rounds
        latency += f.rounds * 2 * bfs_hops(adj, f.origin)[f.dest]
    hello = 2 * len(edges) * (graph.t_max // graph.hello_interval + 1)
    return FloodExpectation(rreq, redundant, ok, Fraction(latency, ok), hello)


# --- checks on one run ----------------------------------------------------

def check_static_flood(counts: dict[str, int], mean_latency: float | None,
                       exp: FloodExpectation) -> None:
    for key in ("rreq_tx", "redundant_rreq_rx", "discoveries_ok", "hello_tx"):
        expect(counts[key] == getattr(exp, key),
               f"{key} = {counts[key]}, flood replay gives {getattr(exp, key)}")
    expect(counts["discoveries_failed"] == 0,
           f"discoveries_failed = {counts['discoveries_failed']} on a connected static graph")
    expect(mean_latency == float(exp.mean_latency),
           f"mean latency {mean_latency}, BFS gives {float(exp.mean_latency)}")


def check_hello(hello_tx: int, exp: FloodExpectation) -> None:
    expect(hello_tx == exp.hello_tx, f"hello_tx = {hello_tx}, schedule gives {exp.hello_tx}")


def check_connectivity(conn: dict[str, int], flood: dict[str, int],
                       per_link_total: int, per_node_total: int) -> None:
    expect(conn["rreq_tx"] < flood["rreq_tx"],
           f"connectivity rreq_tx {conn['rreq_tx']} not below flood's {flood['rreq_tx']}")
    expect(conn["suppressed_forwards"] > 0, "connectivity suppressed no forward")
    expect(conn["discoveries_ok"] == flood["discoveries_ok"],
           f"connectivity discoveries_ok {conn['discoveries_ok']}, flood {flood['discoveries_ok']}")
    expect(per_link_total == conn["rreq_tx"],
           f"per-link RREQ totals sum to {per_link_total}, rreq_tx is {conn['rreq_tx']}")
    expect(per_node_total == conn["rreq_tx"],
           f"per-node RREQ totals sum to {per_node_total}, rreq_tx is {conn['rreq_tx']}")


def read_csv_row(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expect(len(rows) == 1, f"{path}: {len(rows)} data rows, expected 1")
    return rows[0]


def check_trace(path: str, tx_counts: dict[str, int]) -> None:
    """Field count, tick order, and one `deliver` line per transmission.

    Only valid when every transmission lands by t_max and no link breaks.
    """
    delivered: Counter = Counter()
    previous = 0
    with open(path, encoding="utf-8", newline="") as fh:
        for number, line in enumerate(fh, 1):
            expect(line.endswith("\n"), f"{path}:{number}: unterminated line")
            fields = line[:-1].split("\t")
            expect(len(fields) == 4, f"{path}:{number}: {len(fields)} fields, expected 4")
            expect(fields[0].isdigit(), f"{path}:{number}: tick {fields[0]!r}")
            tick = int(fields[0])
            expect(tick >= previous, f"{path}:{number}: tick {tick} after {previous}")
            previous = tick
            if fields[2] == "deliver":
                detail = fields[3].split(" ", 2)
                expect(len(detail) >= 2, f"{path}:{number}: no packet in {fields[3]!r}")
                delivered[detail[1].split("[", 1)[0]] += 1
    for kind, column in PACKET_KINDS.items():
        expect(delivered[kind] == tx_counts[column],
               f"{path}: {delivered[kind]} {kind} deliveries, {column} = {tx_counts[column]}")


def links_in_range(positions: dict[int, tuple[float, float]], radio_range: float) -> set:
    ids = sorted(positions)
    return {
        frozenset((i, j))
        for k, i in enumerate(ids) for j in ids[k + 1:]
        if math.hypot(positions[i][0] - positions[j][0],
                      positions[i][1] - positions[j][1]) <= radio_range
    }


def check_final_links(live_links, positions, radio_range: float) -> None:
    wanted = links_in_range(positions, radio_range)
    live = set(live_links)
    expect(live == wanted,
           f"final link set differs from range rule: {len(live - wanted)} extra, "
           f"{len(wanted - live)} missing")


def check_closed(discoveries) -> None:
    open_records = [d for d in discoveries if d.ok == d.failed]
    expect(not open_records, f"{len(open_records)} discovery records neither resolved nor failed")


def check_repeat(first: tuple, again: tuple) -> None:
    expect(first == again, f"same inputs, different counters: {first} vs {again}")
