"""Scenario model: what to simulate, loaded from JSON or built in.

Schema version 1. Validation is strict: unknown fields anywhere are an error,
every node reference must resolve, and multi-round traffic must leave enough
space between rounds for a discovery to finish (deadline plus retries).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace

from .node import ProtocolConfig
from .suppression import (
    Connectivity,
    ConnectivityConfig,
    CounterBased,
    DistanceBased,
    ExpandingRing,
    Flood,
    Probabilistic,
    Strategy,
)

SCHEMA_VERSION = 1

BUILTIN_NAMES = ["fig1", "fig1-tables", "ring-demo", "random-N"]


class ParseError(Exception):
    """The text is not valid JSON."""


class ValidationError(Exception):
    """The JSON is well-formed but not a valid scenario; message names the path."""


class UnknownScenario(Exception):
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
class Static:
    pass


@dataclass(frozen=True)
class RandomWaypoint:
    area: tuple[float, float] = (100.0, 100.0)
    speed: tuple[float, float] = (1.0, 3.0)
    pause: int = 5
    radio_range: float = 40.0


Mobility = Static | RandomWaypoint


@dataclass(frozen=True)
class LinkEvent:
    at: int
    kind: str          # "link_up" | "link_down"
    a: str
    b: str


@dataclass(frozen=True)
class DropEvent:
    at: int
    frm: str
    to: str


@dataclass(frozen=True)
class TrafficSpec:
    origin: str
    dest: str
    start: int = 0
    rounds: int = 1
    spacing: int = 100


@dataclass
class Scenario:
    name: str
    nodes: list[NodeSpec]
    links: list[LinkSpec]
    traffic: list[TrafficSpec]
    strategy: Strategy = field(default_factory=Flood)
    mobility: Mobility = field(default_factory=Static)
    link_events: list[LinkEvent] = field(default_factory=list)
    drop_events: list[DropEvent] = field(default_factory=list)
    seed: int = 0
    t_max: int = 1000
    intermediate_reply: bool = True
    per_neighbor_aggregate: bool = False
    params: ProtocolConfig = field(default_factory=ProtocolConfig)
    comment: str = ""

    # -- label/id plumbing: a node's id is its index in the node list, which
    #    also fixes every deterministic tie-break in the engine.

    def id_of(self, label: str) -> int:
        try:
            return self._ids[label]
        except AttributeError:
            self._ids = {n.name: i for i, n in enumerate(self.nodes)}
            return self._ids[label]

    def label_of(self, node_id: int) -> str:
        return self.nodes[node_id].name

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def links_by_id(self) -> list[tuple[int, int, int]]:
        return [(self.id_of(l.a), self.id_of(l.b), l.delay) for l in self.links]

    def positions(self) -> dict[int, tuple[float, float]]:
        return {i: n.pos for i, n in enumerate(self.nodes) if n.pos is not None}

    def discovery_deadline(self) -> int:
        if self.params.discovery_deadline is not None:
            return self.params.discovery_deadline
        return 2 * self.node_count

    def validate(self) -> None:
        seen_names = set()
        for i, n in enumerate(self.nodes):
            if not n.name:
                raise ValidationError(f"nodes[{i}].name: empty")
            if n.name in seen_names:
                raise ValidationError(f"nodes[{i}].name: duplicate {n.name!r}")
            seen_names.add(n.name)
        seen_links = set()
        for i, l in enumerate(self.links):
            for end in (l.a, l.b):
                if end not in seen_names:
                    raise ValidationError(f"links[{i}]: unknown node {end!r}")
            if l.a == l.b:
                raise ValidationError(f"links[{i}]: self-link on {l.a!r}")
            key = frozenset((l.a, l.b))
            if key in seen_links:
                raise ValidationError(f"links[{i}]: duplicate link {l.a}-{l.b}")
            seen_links.add(key)
            if l.delay < 1:
                raise ValidationError(f"links[{i}].delay: must be >= 1")
        for i, ev in enumerate(self.link_events):
            if ev.kind not in ("link_up", "link_down"):
                raise ValidationError(f"events[{i}].kind: unknown {ev.kind!r}")
            for end in (ev.a, ev.b):
                if end not in seen_names:
                    raise ValidationError(f"events[{i}]: unknown node {end!r}")
            if ev.a == ev.b:
                raise ValidationError(f"events[{i}]: self-link on {ev.a!r}")
            if ev.at < 0:
                raise ValidationError(f"events[{i}].at: negative")
        for i, ev in enumerate(self.drop_events):
            for end in (ev.frm, ev.to):
                if end not in seen_names:
                    raise ValidationError(f"events[{i}]: unknown node {end!r}")
            if ev.at < 0:
                raise ValidationError(f"events[{i}].at: negative")
        if not self.traffic:
            raise ValidationError("traffic: at least one flow is required")
        deadline = self.discovery_deadline()
        min_spacing = 4 * deadline
        for i, t in enumerate(self.traffic):
            for end in (t.origin, t.dest):
                if end not in seen_names:
                    raise ValidationError(f"traffic[{i}]: unknown node {end!r}")
            if t.origin == t.dest:
                raise ValidationError(f"traffic[{i}]: origin equals dest")
            if t.rounds < 1:
                raise ValidationError(f"traffic[{i}].rounds: must be >= 1")
            if t.start < 0:
                raise ValidationError(f"traffic[{i}].start: negative")
            if t.rounds > 1 and t.spacing < min_spacing:
                raise ValidationError(
                    f"traffic[{i}].spacing: {t.spacing} overlaps discovery rounds "
                    f"(need >= {min_spacing})"
                )
        if self.t_max <= 0:
            raise ValidationError("t_max: must be positive")
        self._validate_params()
        self._validate_strategy(seen_names)

    def _validate_params(self) -> None:
        for key in _PARAM_FIELDS:
            value = getattr(self.params, key)
            if key == "intermediate_reply":
                _bool(value, f"params.{key}")
            elif value is not None or key not in _OPTIONAL_PARAMS:
                # a zero interval would requeue its event at the same tick forever
                if _int(value, f"params.{key}") < 1:
                    raise ValidationError(f"params.{key}: must be >= 1, got {value!r}")

    def _validate_strategy(self, names: set[str]) -> None:
        s = self.strategy
        if isinstance(s, Connectivity):
            s.config.validate()
        elif isinstance(s, Probabilistic):
            if not (0.0 <= s.p <= 1.0):
                raise ValidationError("strategy.p: must lie in [0, 1]")
        elif isinstance(s, CounterBased):
            if s.max_copies < 0:
                raise ValidationError("strategy.max_copies: negative")
        elif isinstance(s, DistanceBased):
            if s.min_distance < 0:
                raise ValidationError("strategy.min_distance: negative")
            missing = [n.name for n in self.nodes if n.pos is None]
            if missing:
                raise ValidationError(
                    f"strategy distance: nodes without positions: {', '.join(missing)}"
                )
        elif isinstance(s, ExpandingRing):
            if s.ttl_start < 1 or s.ttl_increment < 1:
                raise ValidationError("strategy ring: ttl_start and ttl_increment must be >= 1")
            if s.ttl_threshold < s.ttl_start:
                raise ValidationError("strategy ring: ttl_threshold below ttl_start")


# --- JSON wire format -----------------------------------------------------

def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValidationError(f"{path}: unknown field(s) {', '.join(unknown)}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"{path}.{key}: missing")
    return obj[key]


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{path}: expected true or false, got {value!r}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _num_pair(value, path: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        raise ValidationError(f"{path}: expected [x, y]")
    return (float(value[0]), float(value[1]))


def _strategy_from_json(obj, path: str) -> Strategy:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object")
    kind = _require(obj, "kind", path)
    if kind == "flood":
        _check_keys(obj, {"kind"}, path)
        return Flood()
    if kind == "connectivity":
        allowed = {"kind", "mode", "alpha", "threshold", "initial_index",
                   "warmup_attempts", "new_link_bonus", "attempt_timeout"}
        _check_keys(obj, allowed, path)
        timeout = obj.get("attempt_timeout")
        cfg = ConnectivityConfig(
            mode=obj.get("mode", "raw"),
            alpha=_number(obj.get("alpha", 0.3), f"{path}.alpha"),
            threshold=_number(obj.get("threshold", 0.5), f"{path}.threshold"),
            initial_index=_number(obj.get("initial_index", 1.0), f"{path}.initial_index"),
            warmup_attempts=_int(obj.get("warmup_attempts", 10), f"{path}.warmup_attempts"),
            new_link_bonus=_number(obj.get("new_link_bonus", 0.1), f"{path}.new_link_bonus"),
            attempt_timeout=None if timeout is None else _int(timeout, f"{path}.attempt_timeout"),
        )
        return Connectivity(cfg)
    if kind == "probabilistic":
        _check_keys(obj, {"kind", "p"}, path)
        return Probabilistic(p=_number(obj.get("p", 0.5), f"{path}.p"))
    if kind == "counter":
        _check_keys(obj, {"kind", "max_copies"}, path)
        return CounterBased(max_copies=_int(obj.get("max_copies", 3), f"{path}.max_copies"))
    if kind == "distance":
        _check_keys(obj, {"kind", "min_distance"}, path)
        return DistanceBased(min_distance=_number(obj.get("min_distance", 0.0),
                                                  f"{path}.min_distance"))
    if kind == "expanding_ring":
        _check_keys(obj, {"kind", "ttl_start", "ttl_increment", "ttl_threshold"}, path)
        return ExpandingRing(
            ttl_start=_int(obj.get("ttl_start", 1), f"{path}.ttl_start"),
            ttl_increment=_int(obj.get("ttl_increment", 2), f"{path}.ttl_increment"),
            ttl_threshold=_int(obj.get("ttl_threshold", 7), f"{path}.ttl_threshold"),
        )
    raise ValidationError(f"{path}.kind: unknown strategy {kind!r}")


def _strategy_to_json(s: Strategy) -> dict:
    if isinstance(s, Flood):
        return {"kind": "flood"}
    if isinstance(s, Connectivity):
        c = s.config
        return {
            "kind": "connectivity", "mode": c.mode, "alpha": c.alpha,
            "threshold": c.threshold, "initial_index": c.initial_index,
            "warmup_attempts": c.warmup_attempts, "new_link_bonus": c.new_link_bonus,
            "attempt_timeout": c.attempt_timeout,
        }
    if isinstance(s, Probabilistic):
        return {"kind": "probabilistic", "p": s.p}
    if isinstance(s, CounterBased):
        return {"kind": "counter", "max_copies": s.max_copies}
    if isinstance(s, DistanceBased):
        return {"kind": "distance", "min_distance": s.min_distance}
    return {"kind": "expanding_ring", "ttl_start": s.ttl_start,
            "ttl_increment": s.ttl_increment, "ttl_threshold": s.ttl_threshold}


_PARAM_FIELDS = {"hello_interval", "hello_timeout", "route_lifetime", "max_retries",
                 "discovery_deadline", "attempt_timeout", "intermediate_reply",
                 "default_ttl"}
_OPTIONAL_PARAMS = {"discovery_deadline", "attempt_timeout", "default_ttl"}


def parse_scenario(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("top level: expected an object")
    allowed = {"schema", "name", "comment", "nodes", "links", "mobility",
               "events", "traffic", "strategy", "seed", "t_max", "flags", "params"}
    _check_keys(raw, allowed, "top level")
    schema = _require(raw, "schema", "top level")
    if schema != SCHEMA_VERSION:
        raise ValidationError(f"schema: unsupported version {schema!r} (expected {SCHEMA_VERSION})")

    nodes = []
    for i, n in enumerate(_list(_require(raw, "nodes", "top level"), "nodes")):
        path = f"nodes[{i}]"
        if not isinstance(n, dict):
            raise ValidationError(f"{path}: expected an object")
        _check_keys(n, {"name", "pos"}, path)
        pos = _num_pair(n["pos"], f"{path}.pos") if "pos" in n else None
        nodes.append(NodeSpec(name=str(_require(n, "name", path)), pos=pos))

    links = []
    for i, l in enumerate(_list(_require(raw, "links", "top level"), "links")):
        path = f"links[{i}]"
        if not isinstance(l, dict):
            raise ValidationError(f"{path}: expected an object")
        _check_keys(l, {"a", "b", "delay"}, path)
        links.append(LinkSpec(a=str(_require(l, "a", path)), b=str(_require(l, "b", path)),
                              delay=_int(l.get("delay", 1), f"{path}.delay")))

    mobility: Mobility = Static()
    if "mobility" in raw:
        m = raw["mobility"]
        if not isinstance(m, dict):
            raise ValidationError("mobility: expected an object")
        model = _require(m, "model", "mobility")
        if model == "static":
            _check_keys(m, {"model"}, "mobility")
        elif model == "random_waypoint":
            _check_keys(m, {"model", "area", "speed", "pause", "range"}, "mobility")
            mobility = RandomWaypoint(
                area=_num_pair(m.get("area", [100, 100]), "mobility.area"),
                speed=_num_pair(m.get("speed", [1, 3]), "mobility.speed"),
                pause=_int(m.get("pause", 5), "mobility.pause"),
                radio_range=_number(m.get("range", 40.0), "mobility.range"),
            )
        else:
            raise ValidationError(f"mobility.model: unknown {model!r}")

    link_events, drop_events = [], []
    for i, ev in enumerate(_list(raw.get("events", []), "events")):
        path = f"events[{i}]"
        if not isinstance(ev, dict):
            raise ValidationError(f"{path}: expected an object")
        kind = _require(ev, "kind", path)
        if kind in ("link_up", "link_down"):
            _check_keys(ev, {"kind", "at", "a", "b"}, path)
            link_events.append(LinkEvent(at=_int(_require(ev, "at", path), f"{path}.at"),
                                         kind=kind,
                                         a=str(_require(ev, "a", path)),
                                         b=str(_require(ev, "b", path))))
        elif kind == "drop":
            _check_keys(ev, {"kind", "at", "from", "to"}, path)
            drop_events.append(DropEvent(at=_int(_require(ev, "at", path), f"{path}.at"),
                                         frm=str(_require(ev, "from", path)),
                                         to=str(_require(ev, "to", path))))
        else:
            raise ValidationError(f"{path}.kind: unknown {kind!r}")

    traffic = []
    for i, t in enumerate(_list(_require(raw, "traffic", "top level"), "traffic")):
        path = f"traffic[{i}]"
        if not isinstance(t, dict):
            raise ValidationError(f"{path}: expected an object")
        _check_keys(t, {"origin", "dest", "start", "rounds", "spacing"}, path)
        traffic.append(TrafficSpec(
            origin=str(_require(t, "origin", path)),
            dest=str(_require(t, "dest", path)),
            start=_int(t.get("start", 0), f"{path}.start"),
            rounds=_int(t.get("rounds", 1), f"{path}.rounds"),
            spacing=_int(t.get("spacing", 100), f"{path}.spacing"),
        ))

    strategy: Strategy = Flood()
    if "strategy" in raw:
        strategy = _strategy_from_json(raw["strategy"], "strategy")

    flags = raw.get("flags", {})
    if not isinstance(flags, dict):
        raise ValidationError("flags: expected an object")
    _check_keys(flags, {"intermediate_reply", "per_neighbor_aggregate"}, "flags")

    params = ProtocolConfig()
    if "params" in raw:
        p = raw["params"]
        if not isinstance(p, dict):
            raise ValidationError("params: expected an object")
        _check_keys(p, _PARAM_FIELDS, "params")
        for key, value in p.items():
            setattr(params, key, value)

    scenario = Scenario(
        name=str(_require(raw, "name", "top level")),
        comment=str(raw.get("comment", "")),
        nodes=nodes,
        links=links,
        mobility=mobility,
        link_events=link_events,
        drop_events=drop_events,
        traffic=traffic,
        strategy=strategy,
        seed=_int(raw.get("seed", 0), "seed"),
        t_max=_int(_require(raw, "t_max", "top level"), "t_max"),
        intermediate_reply=_bool(flags.get("intermediate_reply", True), "flags.intermediate_reply"),
        per_neighbor_aggregate=_bool(flags.get("per_neighbor_aggregate", False),
                                     "flags.per_neighbor_aggregate"),
        params=params,
    )
    scenario.validate()
    return scenario


def emit_scenario(s: Scenario) -> str:
    raw: dict = {"schema": SCHEMA_VERSION, "name": s.name}
    if s.comment:
        raw["comment"] = s.comment
    raw["nodes"] = [
        {"name": n.name, **({"pos": list(n.pos)} if n.pos is not None else {})}
        for n in s.nodes
    ]
    raw["links"] = [
        {"a": l.a, "b": l.b, **({"delay": l.delay} if l.delay != 1 else {})}
        for l in s.links
    ]
    if isinstance(s.mobility, RandomWaypoint):
        m = s.mobility
        raw["mobility"] = {"model": "random_waypoint", "area": list(m.area),
                           "speed": list(m.speed), "pause": m.pause, "range": m.radio_range}
    events: list[dict] = []
    for ev in s.link_events:
        events.append({"kind": ev.kind, "at": ev.at, "a": ev.a, "b": ev.b})
    for ev in s.drop_events:
        events.append({"kind": "drop", "at": ev.at, "from": ev.frm, "to": ev.to})
    if events:
        raw["events"] = events
    raw["traffic"] = [
        {"origin": t.origin, "dest": t.dest, "start": t.start,
         "rounds": t.rounds, "spacing": t.spacing}
        for t in s.traffic
    ]
    raw["strategy"] = _strategy_to_json(s.strategy)
    raw["seed"] = s.seed
    raw["t_max"] = s.t_max
    raw["flags"] = {"intermediate_reply": s.intermediate_reply,
                    "per_neighbor_aggregate": s.per_neighbor_aggregate}
    defaults = ProtocolConfig()
    overrides = {f: getattr(s.params, f) for f in _PARAM_FIELDS
                 if getattr(s.params, f) != getattr(defaults, f)}
    if overrides:
        raw["params"] = overrides
    return json.dumps(raw, indent=2) + "\n"


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
        strategy=Flood(),
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
        link_events=[
            LinkEvent(at=650, kind="link_down", a="N5", b="N3"),
            LinkEvent(at=650, kind="link_down", a="N5", b="N6"),
            LinkEvent(at=950, kind="link_up", a="N5", b="N3"),
            LinkEvent(at=950, kind="link_up", a="N5", b="N6"),
        ],
        drop_events=[DropEvent(at=607, frm="N4", to="S")],
        strategy=Connectivity(ConnectivityConfig(mode="raw", warmup_attempts=10)),
        seed=seed,
        t_max=_ROUND_SPACING * (rounds + 1),
        intermediate_reply=False,
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

    if n < 2:
        raise UnknownScenario(f"random-{n}: need at least 2 nodes")
    rng = _random.Random(seed)
    side = 100.0
    radio = 45.0
    nodes = [NodeSpec(f"n{i}", pos=(round(rng.uniform(0, side), 3),
                                    round(rng.uniform(0, side), 3)))
             for i in range(n)]
    links = []
    for i in range(n):
        for j in range(i + 1, n):
            dx = nodes[i].pos[0] - nodes[j].pos[0]
            dy = nodes[i].pos[1] - nodes[j].pos[1]
            if math.hypot(dx, dy) <= radio:
                links.append(LinkSpec(nodes[i].name, nodes[j].name))
    return Scenario(
        name=f"random-{n}",
        comment="seeded random geometric graph",
        nodes=nodes,
        links=links,
        traffic=[TrafficSpec(origin="n0", dest=f"n{n - 1}", start=0, rounds=1)],
        strategy=Flood(),
        seed=seed,
        t_max=300,
    )


def builtin(name: str, seed: int | None = None, rounds: int | None = None) -> Scenario:
    """Construct a builtin scenario; seed and round count are overridable."""
    seed_value = 0 if seed is None else seed
    if name == "fig1":
        sc = _fig1(seed_value)
    elif name == "fig1-tables":
        sc = _fig1_tables(seed_value, rounds if rounds is not None else 10)
        sc.validate()
        return sc
    elif name == "ring-demo":
        sc = _ring_demo(seed_value)
    else:
        m = re.fullmatch(r"random-(\d+)", name)
        if not m:
            raise UnknownScenario(f"unknown scenario {name!r} (builtins: {', '.join(BUILTIN_NAMES)})")
        sc = _random_geometric(int(m.group(1)), seed_value)
    if rounds is not None:
        t = sc.traffic[0]
        sc.traffic[0] = replace(t, rounds=rounds, spacing=max(t.spacing, 4 * sc.discovery_deadline()))
        sc.t_max = max(sc.t_max, t.start + sc.traffic[0].spacing * (rounds + 1))
    sc.validate()
    return sc


def with_rounds(sc: Scenario, rounds: int) -> Scenario:
    """Copy of a parsed scenario with the first flow's round count replaced."""
    t = sc.traffic[0]
    new_traffic = [replace(t, rounds=rounds)] + sc.traffic[1:]
    new_tmax = max(sc.t_max, t.start + t.spacing * (rounds + 1))
    out = replace(sc, traffic=new_traffic, t_max=new_tmax)
    out.validate()
    return out
