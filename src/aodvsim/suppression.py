"""Request-flood suppression: who gets a copy of a route request.

The interesting strategy keeps a per-link statistic of how often a request
sent to a given neighbor led to a reply for that destination (the link's
connectivity index) and stops using links whose index sits at or below a
threshold once enough attempts have been observed. The other strategies are
classic flood-limiting baselines used for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Sequence

from .protocol import NodeId, Rreq, RreqId
from .wire import ValidationError, check, check_one_of, read_fields, read_object, require

class InvariantViolation(Exception):
    """Internal accounting went out of bounds."""


# --- strategies -----------------------------------------------------------
class Strategy:
    """Base of the suppression strategies, each a frozen dataclass below.

    A strategy's `token` names it on the command line and in labels, its
    `kind` in scenario JSON; its fields are its parameters, in token order
    (`counter:3`), and sit flat beside `kind` in JSON. The defaults here
    forward to every candidate with a network-wide TTL and keep no per-node
    state.

    `select` decides at the `Node` that would send `rreq`, from what it has
    heard itself: `node.requests[rreq.rreq_id].senders` (empty at the
    originator, the previous hop first at a relay), `node.conn`, `node.rng`,
    `node.me` and `node.position_of`.
    """

    token: ClassVar[str]
    kind: ClassVar[str]
    holds_forward: ClassVar[bool] = False   # a relay waits one tick before deciding

    @classmethod
    def from_token(cls, args: str, knobs: dict) -> Strategy:
        """Build from the token text after `name:`; `knobs` are option values."""
        params = fields(cls)
        if not params:
            if args:
                raise ValueError("takes no values")
            return cls()
        parts = args.split(":", len(params) - 1)
        if len(parts) != len(params):
            raise ValueError(f"expected {len(params)} values separated by ':'")
        return cls(*(type(f.default)(text) for f, text in zip(params, parts)))

    @property
    def label(self) -> str:
        """Stable token used in CSV rows and comparison tables."""
        values = (getattr(self, f.name) for f in fields(self))
        return "-".join([self.token, *(f"{v:g}" if isinstance(v, float) else str(v)
                                       for v in values)])

    def validate(self, nodes: Sequence) -> None:
        """Reject parameters that do not fit the scenario's nodes."""

    def select(self, node, rreq: Rreq, candidates: list[NodeId]) -> list[NodeId]:
        """Subset of candidates the request actually goes to, in candidate order."""
        return list(candidates)

    def attempt_ttl(self, attempt_index: int, node_count: int) -> int:
        """TTL for the given (0-based) attempt; network-wide by default."""
        return node_count

    def node_state(self) -> ConnectivityState | None:
        """Per-node statistics the strategy keeps, if any."""
        return None


@dataclass(frozen=True)
class Flood(Strategy):
    token = kind = "flood"


@dataclass(frozen=True)
class Connectivity(Strategy):
    """Its settings come from options on the command line, not from the
    token, so it overrides only the token parse and the label."""

    token = kind = "connectivity"
    mode: str = "raw"               # raw | ema | blend
    alpha: float = 0.3
    threshold: float = 0.5
    warmup_attempts: int = 10

    @classmethod
    def from_token(cls, args: str, knobs: dict) -> Connectivity:
        if args:
            raise ValueError("takes no values; its settings are options")
        return cls(**{k: v for k, v in knobs.items() if v is not None})

    @property
    def label(self) -> str:
        return self.token

    def validate(self, nodes: Sequence) -> None:
        for ok, name, rule in (
                (self.mode in ("raw", "ema", "blend"), "mode", "must be raw, ema or blend"),
                (self.mode == "raw" or 0.0 < self.alpha < 1.0, "alpha",
                 "must lie strictly between 0 and 1"),
                (self.warmup_attempts >= 0, "warmup_attempts", "must be non-negative"),
                # a negative threshold is the acceptance gate's never-suppress setting
                (-math.inf < self.threshold <= 1.0, "threshold", "must be finite and at most 1")):
            check(ok, f"strategy.{name}", rule, getattr(self, name))

    def select(self, node, rreq, candidates):
        return [n for n in candidates if node.conn.eligible(rreq.dest, n)]

    def node_state(self):
        return ConnectivityState(self)


class _RelayFilter(Strategy):
    """Forwards to all candidates or none at a relay, as `forwards(node,
    senders)` decides. An originator has heard no copy of its own request,
    so it has nothing "received" to judge and passes everything."""

    def select(self, node, rreq, candidates):
        senders = node.requests[rreq.rreq_id].senders
        if not senders or self.forwards(node, senders):
            return list(candidates)
        return []


@dataclass(frozen=True)
class Probabilistic(_RelayFilter):
    token = kind = "probabilistic"
    p: float = 0.5

    def validate(self, nodes):
        check(0.0 <= self.p <= 1.0, "strategy.p", "must lie in [0, 1]", self.p)

    def forwards(self, node, senders):
        return node.rng.random() < self.p


@dataclass(frozen=True)
class CounterBased(_RelayFilter):
    token = kind = "counter"
    holds_forward = True            # so that same-wave copies are counted first
    max_copies: int = 3

    def validate(self, nodes):
        check(self.max_copies >= 0, "strategy.max_copies", "must be >= 0", self.max_copies)

    def forwards(self, node, senders):
        return len(senders) <= self.max_copies


@dataclass(frozen=True)
class DistanceBased(_RelayFilter):
    token = kind = "distance"
    min_distance: float = 0.0

    def validate(self, nodes):
        check(0.0 <= self.min_distance < math.inf, "strategy.min_distance",
              "must be finite and >= 0", self.min_distance)
        for i, n in enumerate(nodes):
            check(n.pos is not None, f"nodes[{i}].pos",
                  "the distance strategy needs positions on every node", n.pos)

    def forwards(self, node, senders):
        (x, y), (px, py) = node.position_of(node.me), node.position_of(senders[0])
        return math.hypot(x - px, y - py) >= self.min_distance


@dataclass(frozen=True)
class ExpandingRing(Strategy):
    token = "ring"
    kind = "expanding_ring"
    ttl_start: int = 1
    ttl_increment: int = 2
    ttl_threshold: int = 7

    def validate(self, nodes):
        check(self.ttl_start >= 1, "strategy.ttl_start", "must be >= 1", self.ttl_start)
        check(self.ttl_increment >= 1, "strategy.ttl_increment", "must be >= 1",
              self.ttl_increment)
        check(self.ttl_threshold >= self.ttl_start, "strategy.ttl_threshold",
              "must be >= ttl_start", self.ttl_threshold)

    def attempt_ttl(self, attempt_index, node_count):
        """Grows linearly to the threshold; the first attempt at or past the
        threshold uses the threshold itself, anything after that goes
        network-wide."""
        raw = self.ttl_start + attempt_index * self.ttl_increment
        if raw < self.ttl_threshold:
            return raw
        previous = raw - self.ttl_increment
        if previous < self.ttl_threshold:
            return self.ttl_threshold
        return node_count


STRATEGIES = (Flood, Connectivity, Probabilistic, CounterBased, DistanceBased, ExpandingRing)


def strategy_from_token(token: str, knobs: dict | None = None) -> Strategy:
    """Parse a command-line token such as `counter:3`."""
    name, _, args = token.partition(":")
    cls = next((s for s in STRATEGIES if s.token == name), None)
    if cls is None:
        raise ValidationError(f"unknown strategy {token!r}")
    try:
        return cls.from_token(args, knobs or {})
    except ValueError as exc:
        raise ValidationError(f"bad strategy token {token!r}: {exc}") from exc


def strategy_from_json(obj, path: str) -> Strategy:
    obj = read_object(obj, path)
    kind = require(obj, "kind", path)
    check_one_of(kind, [s.kind for s in STRATEGIES], f"{path}.kind")
    cls = next(s for s in STRATEGIES if s.kind == kind)
    return cls(**read_fields(cls, obj, path, ("kind",)))


# --- connectivity index ---------------------------------------------------

NEW_LINK_BONUS = 0.1    # added to a new link's index when it carries a reply


def raw_ratio(successes: int, attempts: int) -> float:
    """Successes over attempts. An index moves only when an attempt closes,
    so an empty ledger is as impossible as more successes than attempts."""
    if attempts < 1 or successes < 0 or successes > attempts:
        raise InvariantViolation(f"bad attempt ledger: {successes}/{attempts}")
    return successes / attempts


def ema_step(previous: float, target: float, alpha: float) -> float:
    """Exponentially weighted update of `previous` toward `target`."""
    return alpha * target + (1.0 - alpha) * previous


@dataclass
class ConnectivityRecord:
    attempts: int = 0
    successes: int = 0
    index: float = 1.0      # before any attempt closes, every link is trusted


class ConnectivityState:
    """Per-node table of link statistics, keyed by (destination, neighbor)."""

    def __init__(self, strategy: Connectivity):
        self.strategy = strategy        # its settings
        self.records: dict[tuple[NodeId, NodeId], ConnectivityRecord] = {}
        # the open attempts: per request, the records it is still waiting on,
        # in the order it opened them
        self._open: dict[RreqId, dict[tuple[NodeId, NodeId], ConnectivityRecord]] = {}

    def peek(self, dest: NodeId, neighbor: NodeId) -> ConnectivityRecord | None:
        return self.records.get((dest, neighbor))

    def open_attempt(self, dest: NodeId, neighbor: NodeId, rreq_id: RreqId) -> None:
        """Attempts count when the request leaves; the index moves at resolution."""
        opened = self._open.setdefault(rreq_id, {})
        if (dest, neighbor) in opened:
            raise InvariantViolation(f"attempt {rreq_id} already open toward {neighbor}")
        rec = self.records.get((dest, neighbor))
        if rec is None:
            rec = self.records[dest, neighbor] = ConnectivityRecord()
        opened[dest, neighbor] = rec
        rec.attempts += 1

    def resolve_attempt(self, dest: NodeId, neighbor: NodeId, rreq_id: RreqId, success: bool) -> bool:
        """Close one attempt; returns False (no-op) when nothing was pending."""
        opened = self._open.get(rreq_id, {})
        rec = opened.pop((dest, neighbor), None)
        if rec is None:
            return False   # late or unknown reply; ignore
        if not opened:
            del self._open[rreq_id]
        if success:
            rec.successes += 1
        self._recompute(rec, success)
        return True

    def _recompute(self, rec: ConnectivityRecord, success: bool) -> None:
        cfg = self.strategy
        ratio = raw_ratio(rec.successes, rec.attempts)
        if cfg.mode == "raw":
            rec.index = ratio
        else:   # ema moves toward the latest outcome, blend toward the cumulative ratio
            rec.index = ema_step(rec.index, ratio if cfg.mode == "blend" else float(success),
                                 cfg.alpha)
        if not (0.0 <= rec.index <= 1.0 + 1e-12):
            raise InvariantViolation(f"index out of range: {rec.index}")

    def fail_pending(self, rreq_id: RreqId) -> None:
        """Resolve every still-open attempt for this request as a failure.

        Each record's update depends on that record alone, so visiting them
        in the order they were opened gives the same tables as any other."""
        for rec in self._open.pop(rreq_id, {}).values():
            self._recompute(rec, success=False)

    def boost_new_link(self, dest: NodeId, neighbor: NodeId) -> None:
        """Nudge a link that just (re)appeared and carried a successful discovery;
        `resolve_attempt` credited the link first, so its record exists."""
        rec = self.records[dest, neighbor]
        rec.index = min(1.0, rec.index + NEW_LINK_BONUS)

    def eligible(self, dest: NodeId, neighbor: NodeId) -> bool:
        """Below the warm-up attempt count every link qualifies; after it the
        index must sit strictly above the threshold."""
        rec = self.peek(dest, neighbor)
        if rec is None or rec.attempts < self.strategy.warmup_attempts:
            return True
        return rec.index > self.strategy.threshold

    def snapshot(self) -> dict[tuple, tuple[int, int, float]]:
        """(attempts, successes, index) per (dest, neighbor), in key order."""
        return {key: (rec.attempts, rec.successes, rec.index)
                for key, rec in sorted(self.records.items())}

