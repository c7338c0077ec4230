"""Seeded scenario generators for the benchmark's three workloads.

Each builder turns a seed into scenario JSON documents plus the facts the
checks need (the graph, the flows, the timing). The simulator only ever sees
the generated JSON; the facts stay on the benchmark's side.

Static graphs keep a fixed edge count for every seed: positions are drawn at
random and the `edges` closest pairs become links, redrawn until the graph is
connected. HELLO traffic is 2 * edges per HELLO tick and a flood costs about
2 * edges transmissions, so a fixed edge count keeps the work per pass nearly
the same from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Flow:
    origin: int
    dest: int
    start: int
    rounds: int
    spacing: int


@dataclass(frozen=True, eq=False)
class StaticGraph:
    """What the checks replay for a static scenario."""

    node_count: int
    edges: list[tuple[int, int]]
    flows: list[Flow]
    t_max: int
    hello_interval: int


@dataclass(frozen=True)
class Op:
    """One simulation of one generated scenario."""

    name: str
    doc: dict
    strategy: str = "flood"          # passed as --strategy on the CLI path
    graph: StaticGraph | None = None  # static scenarios only


@dataclass(frozen=True)
class Workload:
    name: str
    via_cli: bool                     # run through `aodvsim run --out --trace`
    ops: list[Op]


def label(i: int) -> str:
    return f"n{i}"


def connected_geometric_graph(rng: random.Random, n: int, edges: int,
                              side: float) -> list[tuple[int, int]]:
    """The `edges` closest pairs of n uniform points, redrawn until connected."""
    while True:
        pos = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
        pairs = sorted(
            (math.hypot(pos[i][0] - pos[j][0], pos[i][1] - pos[j][1]), i, j)
            for i in range(n) for j in range(i + 1, n)
        )
        links = sorted((i, j) for _, i, j in pairs[:edges])
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for a, b in links:
            adj[a].add(b)
            adj[b].add(a)
        reached, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        if len(reached) == n:
            return links


def distinct_endpoints(rng: random.Random, n: int, flows: int) -> list[tuple[int, int]]:
    """Origin/destination pairs with no node used twice.

    Distinct destinations keep concurrent discoveries independent: a route is
    only ever installed toward a flow's own destination, so no relay can
    answer another flow's request from its table.
    """
    order = list(range(n))
    rng.shuffle(order)
    return [(order[2 * k], order[2 * k + 1]) for k in range(flows)]


def _doc(name: str, seed: int, n: int, links, flows: list[Flow], t_max: int,
         **extra) -> dict:
    doc = {
        "schema": 1,
        "name": name,
        "seed": seed,
        "t_max": t_max,
        "nodes": [{"name": label(i)} for i in range(n)],
        "links": [{"a": label(a), "b": label(b)} for a, b in links],
        "traffic": [{"origin": label(f.origin), "dest": label(f.dest), "start": f.start,
                     "rounds": f.rounds, "spacing": f.spacing} for f in flows],
    }
    doc.update(extra)
    return doc


# discovery: the paper's flood-versus-connectivity comparison
DISCOVERY = dict(graphs=2, nodes=40, edges=160, side=100.0, flows=6, rounds=14,
                 hello_interval=100, hello_timeout=250)

# beacon: HELLO-dominated static network
BEACON = dict(nodes=100, edges=400, side=100.0, flow_starts=(5, 105), t_max=705)

# waypoint: mobility and link churn
WAYPOINT = dict(nodes=60, side=150.0, radio_range=40.0, speed=(1, 3), pause=5,
                flows=15, t_max=200, runs=5)


def discovery(seed: int) -> Workload:
    p = DISCOVERY
    rng = random.Random(seed)
    n = p["nodes"]
    spacing = 8 * n        # the least the scenario validator allows: 4 * (2n deadline)
    # t_max off the HELLO grid, so the last HELLO round is delivered in time
    t_max = spacing * p["rounds"] + p["hello_interval"] // 2
    ops = []
    for g in range(p["graphs"]):
        links = connected_geometric_graph(rng, n, p["edges"], p["side"])
        flows = [Flow(o, d, 0, p["rounds"], spacing)
                 for o, d in distinct_endpoints(rng, n, p["flows"])]
        graph = StaticGraph(n, links, flows, t_max, p["hello_interval"])
        doc = _doc(f"discovery-{seed}-{g}", seed, n, links, flows, t_max,
                   params={"hello_interval": p["hello_interval"],
                           "hello_timeout": p["hello_timeout"]})
        ops += [Op(f"flood-{g}", doc, "flood", graph),
                Op(f"connectivity-{g}", doc, "connectivity", graph)]
    return Workload("discovery", via_cli=True, ops=ops)


def beacon(seed: int) -> Workload:
    p = BEACON
    rng = random.Random(seed)
    n = p["nodes"]
    links = connected_geometric_graph(rng, n, p["edges"], p["side"])
    flows = [Flow(o, d, start, 1, 100)
             for (o, d), start in zip(distinct_endpoints(rng, n, len(p["flow_starts"])),
                                      p["flow_starts"])]
    doc = _doc(f"beacon-{seed}", seed, n, links, flows, p["t_max"])
    graph = StaticGraph(n, links, flows, p["t_max"], hello_interval=10)
    return Workload("beacon", via_cli=False, ops=[Op("flood", doc, graph=graph)])


def waypoint(seed: int) -> Workload:
    p = WAYPOINT
    rng = random.Random(seed)
    n = p["nodes"]
    ops = []
    for run in range(p["runs"]):
        # each run has its own flows and its own mobility seed
        run_seed = rng.randrange(2**31)
        flows = [Flow(o, d, 10 * k, 1, 100)
                 for k, (o, d) in enumerate(distinct_endpoints(rng, n, p["flows"]))]
        doc = _doc(f"waypoint-{seed}-{run}", run_seed, n, [], flows, p["t_max"],
                   mobility={"model": "random_waypoint", "area": [p["side"], p["side"]],
                             "speed": list(p["speed"]), "pause": p["pause"],
                             "range": p["radio_range"]})
        ops.append(Op(f"mobile-{run}", doc))
    return Workload("waypoint", via_cli=False, ops=ops)


BUILDERS = {"discovery": discovery, "beacon": beacon, "waypoint": waypoint}
