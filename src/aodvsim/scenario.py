"""Scenario model: what to simulate, loaded from JSON or built in.

Schema version 1. Validation is strict: unknown fields anywhere are an error,
every node reference must resolve, and multi-round traffic must leave enough
space between rounds for a discovery to finish (deadline plus retries).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields, replace

from .node import ProtocolConfig
from .suppression import (
    Connectivity,
    ExpandingRing,
    Flood,
    Strategy,
    strategy_from_json,
)
from .wire import (
    ValidationError,
    check,
    check_keys,
    check_one_of,
    read_fields,
    read_int,
    read_list,
    read_object,
    read_str,
    require,
)

SCHEMA_VERSION = 1

BUILTIN_NAMES = ["fig1", "fig1-tables", "ring-demo", "random-N"]


class UnknownScenario(ValidationError):
    """No builtin by that name."""


@dataclass(frozen=True)
class NodeSpec:
    name: str
    pos: tuple[float, float] | None = None


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    delay: int = 1


@dataclass(frozen=True)
class RandomWaypoint:
    area: tuple[float, float] = (100.0, 100.0)
    speed: tuple[float, float] = (1.0, 3.0)
    pause: int = 5
    radio_range: float = field(default=40.0, metadata={"json": "range"})


@dataclass(frozen=True)
class LinkEvent:
    at: int
    kind: str          # "link_up" | "link_down"
    a: str
    b: str


@dataclass(frozen=True)
class DropEvent:
    at: int
    frm: str = field(metadata={"json": "from"})
    to: str


@dataclass(frozen=True)
class TrafficSpec:
    origin: str
    dest: str
    start: int = 0
    rounds: int = 1
    spacing: int = 100


@dataclass(frozen=True)
class Scenario:
    name: str
    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec | tuple[int, int, int], ...]   # by names, or (a, b, delay) by ids
    traffic: tuple[TrafficSpec, ...]
    strategy: Strategy = field(default_factory=Flood)
    mobility: RandomWaypoint | None = None                     # None: links stay put
    events: tuple[LinkEvent | DropEvent, ...] = ()             # in JSON order
    seed: int = 0
    t_max: int = 1000
    params: ProtocolConfig = field(default_factory=ProtocolConfig)
    comment: str = ""
    # node, link and event tuples validate() checked, then link id triples; replace() carries them
    _checked: tuple = field(default=(), compare=False, repr=False)

    # -- label/id plumbing: a node's id is its index in the node list, which
    #    also fixes every deterministic tie-break in the engine.

    def node_ids(self) -> dict[str, int]:
        return {n.name: i for i, n in enumerate(self.nodes)}

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def links_by_id(self) -> tuple[tuple[int, int, int], ...]:
        return self._checked[3]

    def __post_init__(self) -> None:
        # lists are accepted; tuples keep them from changing after the check
        for name in ("nodes", "links", "traffic", "events"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        self.validate()

    def validate(self) -> None:
        """Raise `<path>: <rule>, got <value>` for the first rule broken, and
        resolve link names to ids once the nodes have passed. `__post_init__`
        calls it, so every Scenario, a copy too, has passed it once; a copy
        keeping the node, link and event tuples checks only the rest."""
        # a line break would split run's summary
        check(self.name.isprintable(), "name", "not printable", self.name)
        ids: dict[str, int] = {}

        def known(path: str, *ends, among=ids) -> None:
            for end in ends:
                check(end in among, path, "unknown node", end)

        parts = (self.nodes, self.links, self.events)
        if self._checked[:3] == parts:
            ids.update(self.node_ids())
        else:
            for i, n in enumerate(self.nodes):
                path = f"nodes[{i}].name"
                check(n.name != "", path, "must not be empty", n.name)
                # a tab or line break would split a trace line
                check(n.name.isprintable(), path, "not printable", n.name)
                check(n.name not in ids, path, "duplicate", n.name)
                ids[n.name] = i
            n, seen_links, get = len(ids), set(), ids.get
            rows = tuple([(get(l.a, -1), get(l.b, -1), l.delay) if isinstance(l, LinkSpec) else l
                          for l in self.links])
            for i, (a, b, delay) in enumerate(rows):
                # every rule in one test; a broken one is named by the checks below
                if not (0 <= a < n and 0 <= b < n and a != b
                        and (key := a * n + b if a < b else b * n + a) not in seen_links
                        and delay >= 1):
                    path, l = f"links[{i}]", self.links[i]
                    x, y, among = (l.a, l.b, ids) if isinstance(l, LinkSpec) else (a, b, range(n))
                    known(path, x, y, among=among)
                    check(a != b, path, "self-link", x)
                    check(key not in seen_links, path, "duplicate link", f"{x}-{y}")
                    check(delay >= 1, f"{path}.delay", "must be >= 1", delay)
                seen_links.add(key)
            for i, ev in enumerate(self.events):
                path = f"events[{i}]"
                if isinstance(ev, LinkEvent):
                    check_one_of(ev.kind, ("link_up", "link_down"), f"{path}.kind")
                    known(path, ev.a, ev.b)
                    check(ev.a != ev.b, path, "self-link", ev.a)
                else:
                    known(path, ev.frm, ev.to)
                check(ev.at >= 0, f"{path}.at", "must be >= 0", ev.at)
            object.__setattr__(self, "_checked", (*parts, rows))
        m = self.mobility
        if m is not None:
            for ok, key, rule, value in (
                    (0 <= m.speed[0] <= m.speed[1], "speed", "need 0 <= min <= max", list(m.speed)),
                    (m.radio_range > 0, "range", "must be > 0", m.radio_range),
                    (m.area[0] > 0 and m.area[1] > 0, "area", "both sides must be > 0", list(m.area)),
                    (m.pause >= 1, "pause", "must be >= 1", m.pause)):
                check(ok, f"mobility.{key}", rule, value)
        # params first: the traffic checks below use the discovery deadline
        for f in fields(ProtocolConfig):
            value = getattr(self.params, f.name)
            if f.name != "intermediate_reply" and value is not None:   # None: the derived default
                # a zero interval would requeue its event at the same tick forever
                check(value >= 1, f"params.{f.name}", "must be >= 1", value)
        check(bool(self.traffic), "traffic", "at least one flow is required", list(self.traffic))
        min_spacing = self.params.min_round_spacing(self.node_count)
        for i, t in enumerate(self.traffic):
            path = f"traffic[{i}]"
            known(path, t.origin, t.dest)
            check(t.origin != t.dest, path, "origin equals dest", t.origin)
            check(t.rounds >= 1, f"{path}.rounds", "must be >= 1", t.rounds)
            check(t.start >= 0, f"{path}.start", "must be >= 0", t.start)
            check(t.rounds == 1 or t.spacing >= min_spacing, f"{path}.spacing",
                  f"must be >= {min_spacing} so that discovery rounds do not overlap", t.spacing)
        check(self.t_max >= 1, "t_max", "must be >= 1", self.t_max)
        self.strategy.validate(self.nodes)


def _parse_event(ev, path: str) -> LinkEvent | DropEvent:
    ev = read_object(ev, path)
    kind = require(ev, "kind", path)
    check_one_of(kind, ("link_up", "link_down", "drop"), f"{path}.kind")
    if kind == "drop":
        return DropEvent(**read_fields(DropEvent, ev, path, ("kind",)))
    return LinkEvent(**read_fields(LinkEvent, ev, path))


def parse_scenario(text: str) -> Scenario:
    # a syntax error, an integer past Python's digit limit or nesting past its recursion limit
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    raw = read_object(raw, "top level")
    allowed = {"schema", "name", "comment", "nodes", "links", "mobility",
               "events", "traffic", "strategy", "seed", "t_max", "params"}
    check_keys(raw, allowed, "top level")
    schema = read_int(require(raw, "schema", "top level"), "schema")
    check(schema == SCHEMA_VERSION, "schema", f"must be {SCHEMA_VERSION}", schema)

    nodes = [NodeSpec(**read_fields(NodeSpec, n, f"nodes[{i}]"))
             for i, n in enumerate(read_list(require(raw, "nodes", "top level"), "nodes"))]

    links = [LinkSpec(**read_fields(LinkSpec, l, f"links[{i}]"))
             for i, l in enumerate(read_list(require(raw, "links", "top level"), "links"))]

    mobility = None
    if "mobility" in raw:
        m = read_object(raw["mobility"], "mobility")
        model = require(m, "model", "mobility")
        check(model == "random_waypoint", "mobility.model", "must be random_waypoint", model)
        mobility = RandomWaypoint(**read_fields(RandomWaypoint, m, "mobility", ("model",)))

    events = [_parse_event(ev, f"events[{i}]")
              for i, ev in enumerate(read_list(raw.get("events", []), "events"))]

    traffic = [TrafficSpec(**read_fields(TrafficSpec, t, f"traffic[{i}]"))
               for i, t in enumerate(read_list(require(raw, "traffic", "top level"), "traffic"))]

    strategy: Strategy = Flood()
    if "strategy" in raw:
        strategy = strategy_from_json(raw["strategy"], "strategy")

    params = read_fields(ProtocolConfig, raw.get("params", {}), "params")
    return Scenario(
        name=read_str(require(raw, "name", "top level"), "name"),
        comment=read_str(raw.get("comment", ""), "comment"),
        nodes=nodes,
        links=links,
        mobility=mobility,
        events=events,
        traffic=traffic,
        strategy=strategy,
        seed=read_int(raw.get("seed", 0), "seed"),
        t_max=read_int(require(raw, "t_max", "top level"), "t_max"),
        params=ProtocolConfig(**params),
    )


def link_changes(positions: dict[int, tuple[float, float]], radio_range: float,
                 peers: list) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The radio-range rule: two nodes are linked when at most `radio_range`
    apart. Given positions and linked peers by node id, return (down, up):
    the linked pairs now out of range and the unlinked pairs now in range,
    each ascending as (low, high). Linked pairs are retested; the rest are
    found by a sweep in x order that tests only the pairs inside a box of
    half-side `reach` around each node. A pair whose difference rounds to the
    range can lie just past `xi + radio_range`, so `reach` pads the range by
    2**-40 of the coordinates' size, far above any rounding error."""
    hypot = math.hypot
    down = []
    for a, linked in enumerate(peers):
        xa, ya = positions[a]
        for b in linked:
            if a < b:
                xb, yb = positions[b]
                if hypot(xa - xb, ya - yb) > radio_range:
                    down.append((a, b))
    down.sort()
    # each up goes under its lower id, so only short lists are sorted
    found: list[list[int]] = [[] for _ in peers]
    by_x = sorted([(x, y, i) for i, (x, y) in positions.items()])
    for k, (xi, yi, i) in enumerate(by_x):
        linked = peers[i]
        reach = radio_range + (abs(xi) + abs(yi) + radio_range) * 2.0 ** -40
        x_end, y_low, y_high = xi + reach, yi - reach, yi + reach
        for xj, yj, j in by_x[k + 1:]:
            if xj > x_end:
                break
            if y_low <= yj <= y_high and j not in linked and hypot(xj - xi, yi - yj) <= radio_range:
                if i < j:
                    found[i].append(j)
                else:
                    found[j].append(i)
    up = [(i, j) for i, js in enumerate(found) if js for j in sorted(js)]
    return down, up


# --- builtins -------------------------------------------------------------

_FIG1_NODES = ["S", "N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "N13", "D"]
_FIG1_LINKS = [
    ("S", "N1"), ("S", "N4"), ("S", "N7"),
    ("N1", "N2"), ("N2", "N3"), ("N3", "D"),
    ("N4", "N5"), ("N5", "N6"), ("N6", "D"),
    ("N5", "N3"), ("N4", "N13"), ("N7", "N13"), ("N7", "N8"),
]

_ROUND_SPACING = 100


def _fig1(seed: int) -> Scenario:
    return Scenario(
        name="fig1",
        comment="11-node reference network, one discovery, full flood",
        nodes=[NodeSpec(n) for n in _FIG1_NODES],
        links=[LinkSpec(a, b) for a, b in _FIG1_LINKS],
        traffic=[TrafficSpec(origin="S", dest="D", start=0, rounds=1)],
        seed=seed,
        t_max=200,
    )


def _fig1_tables(seed: int, rounds: int) -> Scenario:
    # Ten clean-ish discovery rounds shape the per-link statistics: one scripted
    # reply loss on N4->S in round 7, and N5's far-side links are down for
    # rounds 8-10 then restored, so an 11th round runs on the full topology.
    return Scenario(
        name="fig1-tables",
        comment="link statistics warm-up: scripted reply loss and outages",
        nodes=[NodeSpec(n) for n in _FIG1_NODES],
        links=[LinkSpec(a, b) for a, b in _FIG1_LINKS],
        traffic=[TrafficSpec(origin="S", dest="D", start=0, rounds=rounds,
                             spacing=_ROUND_SPACING)],
        events=[
            LinkEvent(at=650, kind="link_down", a="N5", b="N3"),
            LinkEvent(at=650, kind="link_down", a="N5", b="N6"),
            LinkEvent(at=950, kind="link_up", a="N5", b="N3"),
            LinkEvent(at=950, kind="link_up", a="N5", b="N6"),
            DropEvent(at=607, frm="N4", to="S"),
        ],
        strategy=Connectivity(mode="raw", warmup_attempts=10),
        params=ProtocolConfig(intermediate_reply=False),
        seed=seed,
        t_max=_ROUND_SPACING * (rounds + 1),
    )


def _ring_demo(seed: int) -> Scenario:
    # Straight 6-hop path; the ring schedule needs four attempts to reach D.
    names = ["S", "R1", "R2", "R3", "R4", "R5", "D"]
    links = [LinkSpec(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return Scenario(
        name="ring-demo",
        comment="6-hop chain for expanding-ring TTL growth",
        nodes=[NodeSpec(n) for n in names],
        links=links,
        traffic=[TrafficSpec(origin="S", dest="D", start=0, rounds=1)],
        strategy=ExpandingRing(ttl_start=1, ttl_increment=2, ttl_threshold=7),
        params=ProtocolConfig(max_retries=6),
        seed=seed,
        t_max=300,
    )


def _random_geometric(n: int, seed: int) -> Scenario:
    import random as _random

    check(n >= 2, f"random-{n}", "need at least 2 nodes", n)
    rng = _random.Random(seed)
    side = 100.0
    radio = 45.0
    nodes = [NodeSpec(f"n{i}", pos=(round(rng.uniform(0, side), 3),
                                    round(rng.uniform(0, side), 3)))
             for i in range(n)]
    _, pairs = link_changes({i: node.pos for i, node in enumerate(nodes)}, radio, [()] * n)
    return Scenario(
        name=f"random-{n}",
        comment="seeded random geometric graph",
        nodes=nodes,
        links=[(i, j, 1) for i, j in pairs],
        traffic=[TrafficSpec(origin="n0", dest=f"n{n - 1}", start=0, rounds=1)],
        seed=seed,
        t_max=300,
    )


def builtin(name: str, seed: int | None = None, rounds: int | None = None) -> Scenario:
    """Construct a builtin scenario; seed and round count are overridable."""
    seed_value = 0 if seed is None else seed
    if name == "fig1-tables":
        # its t_max and scripted events follow its own round count
        sc = _fig1_tables(seed_value, 10 if rounds is None else rounds)
        rounds = None
    elif name == "fig1":
        sc = _fig1(seed_value)
    elif name == "ring-demo":
        sc = _ring_demo(seed_value)
    else:
        m = re.fullmatch(r"random-0*([0-9]+)", name)
        if not m:
            raise UnknownScenario(f"unknown scenario {name!r} (builtins: {', '.join(BUILTIN_NAMES)})")
        # the length first: int() refuses more than 4,300 digits
        if len(m.group(1)) > 4 or int(m.group(1)) > 2000:
            raise ValidationError(f"{name}: need at most 2000 nodes")
        sc = _random_geometric(int(m.group(1)), seed_value)
    return sc if rounds is None else with_rounds(sc, rounds)


def with_rounds(sc: Scenario, rounds: int) -> Scenario:
    """Copy of a scenario with the first flow's round count replaced. Its
    rounds are spaced at least four discovery deadlines apart, and t_max
    grows to fit them."""
    t = sc.traffic[0]
    spacing = max(t.spacing, sc.params.min_round_spacing(sc.node_count))
    first = replace(t, rounds=rounds, spacing=spacing)
    return replace(sc, traffic=(first, *sc.traffic[1:]),
                   t_max=max(sc.t_max, t.start + first.spacing * (rounds + 1)))
