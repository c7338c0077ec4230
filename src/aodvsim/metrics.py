"""Counters, per-run reports, CSV emission and strategy comparison."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field


class EmptyComparison(Exception):
    """compare() needs at least one report."""


class MalformedCsv(ValueError):
    """A metrics CSV that cannot be read back; the message names the line and column."""


CSV_COLUMNS = [
    "scenario",
    "strategy",
    "seed",
    "rreq_tx",
    "rrep_tx",
    "rerr_tx",
    "hello_tx",
    "data_tx",
    "redundant_rreq_rx",
    "suppressed_forwards",
    "discoveries_ok",
    "discoveries_failed",
    "mean_latency_ticks",
]

COUNTER_KINDS = ("rreq_tx", "rrep_tx", "rerr_tx", "hello_tx", "data_tx",
                 "redundant_rreq_rx", "suppressed_forwards", "losses")


@dataclass
class DiscoveryRecord:
    origin: int
    dest: int
    round_index: int | None
    started_at: int
    resolved_at: int | None = None
    failed: bool = False
    hop_count: int | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.resolved_at is not None

    @property
    def latency(self) -> int | None:
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.started_at


@dataclass
class MetricsReport:
    rreq_tx: int = 0
    rrep_tx: int = 0
    rerr_tx: int = 0
    hello_tx: int = 0
    data_tx: int = 0
    redundant_rreq_rx: int = 0
    suppressed_forwards: int = 0
    losses: int = 0                      # scripted drops and absent-link sends
    per_node_rreq_tx: dict[int, int] = field(default_factory=dict)
    per_node_redundant_rx: dict[int, int] = field(default_factory=dict)
    per_link_rreq_tx: dict[tuple[int, int], int] = field(default_factory=dict)
    discoveries: list[DiscoveryRecord] = field(default_factory=list)
    timed_out: bool = False

    # -- recording

    def record(self, kind: str, n: int = 1, node: int | None = None,
               link: tuple[int, int] | None = None) -> None:
        """Bump one counter. Node/link breakdowns ride along where they apply."""
        if kind not in COUNTER_KINDS:
            raise ValueError(f"unknown counter {kind!r}")
        setattr(self, kind, getattr(self, kind) + n)
        if kind == "rreq_tx":
            if node is not None:
                self.per_node_rreq_tx[node] = self.per_node_rreq_tx.get(node, 0) + n
            if link is not None:
                self.per_link_rreq_tx[link] = self.per_link_rreq_tx.get(link, 0) + n
        elif kind == "redundant_rreq_rx" and node is not None:
            self.per_node_redundant_rx[node] = self.per_node_redundant_rx.get(node, 0) + n

    def begin_discovery(self, origin: int, dest: int, round_index: int | None,
                        started_at: int) -> DiscoveryRecord:
        rec = DiscoveryRecord(origin, dest, round_index, started_at)
        self.discoveries.append(rec)
        return rec

    def resolve_discovery(self, rec: DiscoveryRecord, now: int, hop_count: int) -> None:
        assert rec.resolved_at is None and not rec.failed, "discovery already closed"
        rec.resolved_at = now
        rec.hop_count = hop_count

    def fail_discovery(self, rec: DiscoveryRecord, now: int) -> None:
        assert rec.resolved_at is None and not rec.failed, "discovery already closed"
        rec.failed = True

    # -- summaries

    @property
    def discoveries_ok(self) -> int:
        return sum(1 for d in self.discoveries if d.ok)

    @property
    def discoveries_failed(self) -> int:
        return sum(1 for d in self.discoveries if d.failed)

    def mean_latency(self) -> float | None:
        latencies = [d.latency for d in self.discoveries if d.latency is not None]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    def counter_tuple(self) -> tuple:
        """Everything countable, used by identity checks between strategies."""
        return (
            self.rreq_tx, self.rrep_tx, self.rerr_tx, self.hello_tx, self.data_tx,
            self.redundant_rreq_rx, self.suppressed_forwards,
            tuple(sorted(self.per_node_rreq_tx.items())),
            self.discoveries_ok, self.discoveries_failed,
        )

    def csv_row(self, scenario: str, strategy: str, seed: int) -> dict[str, str]:
        mean = self.mean_latency()
        return {
            "scenario": scenario,
            "strategy": strategy,
            "seed": str(seed),
            "rreq_tx": str(self.rreq_tx),
            "rrep_tx": str(self.rrep_tx),
            "rerr_tx": str(self.rerr_tx),
            "hello_tx": str(self.hello_tx),
            "data_tx": str(self.data_tx),
            "redundant_rreq_rx": str(self.redundant_rreq_rx),
            "suppressed_forwards": str(self.suppressed_forwards),
            "discoveries_ok": str(self.discoveries_ok),
            "discoveries_failed": str(self.discoveries_failed),
            "mean_latency_ticks": "" if mean is None else f"{mean:.3f}",
        }


def rows_to_csv(rows: list[dict[str, str]], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# --- comparison -----------------------------------------------------------

COMPARISON_COLUMNS = [
    "strategy",
    "rreq_tx",
    "rrep_tx",
    "rerr_tx",
    "hello_tx",
    "data_tx",
    "redundant_rreq_rx",
    "suppressed_forwards",
    "discoveries_ok",
    "discoveries_failed",
    "success_rate",
    "mean_latency_ticks",
    "rreq_tx_delta",
]


@dataclass
class ComparisonRow:
    strategy: str
    rreq_tx: int
    rrep_tx: int
    rerr_tx: int
    hello_tx: int
    data_tx: int
    redundant_rreq_rx: int
    suppressed_forwards: int
    discoveries_ok: int
    discoveries_failed: int
    mean_latency: float | None
    rreq_tx_delta: int = 0

    @property
    def success_rate(self) -> float:
        total = self.discoveries_ok + self.discoveries_failed
        return self.discoveries_ok / total if total else 0.0


@dataclass
class ComparisonTable:
    rows: list[ComparisonRow]
    baseline: str

    def to_csv(self) -> str:
        out = []
        for r in self.rows:
            out.append({
                "strategy": r.strategy,
                "rreq_tx": str(r.rreq_tx),
                "rrep_tx": str(r.rrep_tx),
                "rerr_tx": str(r.rerr_tx),
                "hello_tx": str(r.hello_tx),
                "data_tx": str(r.data_tx),
                "redundant_rreq_rx": str(r.redundant_rreq_rx),
                "suppressed_forwards": str(r.suppressed_forwards),
                "discoveries_ok": str(r.discoveries_ok),
                "discoveries_failed": str(r.discoveries_failed),
                "success_rate": f"{r.success_rate:.3f}",
                "mean_latency_ticks": "" if r.mean_latency is None else f"{r.mean_latency:.3f}",
                "rreq_tx_delta": str(r.rreq_tx_delta),
            })
        return rows_to_csv(out, COMPARISON_COLUMNS)

    def formatted(self) -> str:
        """Fixed-width text table for terminal output."""
        headers = ["strategy", "rreq", "rrep", "rerr", "hello", "data",
                   "redundant", "suppressed", "ok", "fail", "latency", "d-rreq"]
        name_w = max(len(headers[0]), *(len(r.strategy) for r in self.rows))
        lines = [f"{headers[0]:<{name_w}}  "
                 + "  ".join(f"{h:>10}" for h in headers[1:])]
        for r in self.rows:
            lat = "-" if r.mean_latency is None else f"{r.mean_latency:.1f}"
            cells = [r.rreq_tx, r.rrep_tx, r.rerr_tx, r.hello_tx,
                     r.data_tx, r.redundant_rreq_rx, r.suppressed_forwards,
                     r.discoveries_ok, r.discoveries_failed, lat, f"{r.rreq_tx_delta:+d}"]
            lines.append(f"{r.strategy:<{name_w}}  "
                         + "  ".join(f"{str(c):>10}" for c in cells))
        return "\n".join(lines)


def compare(labeled: list[tuple[str, MetricsReport]]) -> ComparisonTable:
    """Side-by-side totals with request-overhead deltas against the flood row.

    The baseline is the first row labeled "flood", falling back to the first
    row. Negative delta means fewer request transmissions than the baseline.
    """
    if not labeled:
        raise EmptyComparison("nothing to compare")
    rows = []
    for label, rep in labeled:
        rows.append(ComparisonRow(
            strategy=label,
            rreq_tx=rep.rreq_tx,
            rrep_tx=rep.rrep_tx,
            rerr_tx=rep.rerr_tx,
            hello_tx=rep.hello_tx,
            data_tx=rep.data_tx,
            redundant_rreq_rx=rep.redundant_rreq_rx,
            suppressed_forwards=rep.suppressed_forwards,
            discoveries_ok=rep.discoveries_ok,
            discoveries_failed=rep.discoveries_failed,
            mean_latency=rep.mean_latency(),
        ))
    baseline = next((r for r in rows if r.strategy == "flood"), rows[0])
    for r in rows:
        r.rreq_tx_delta = r.rreq_tx - baseline.rreq_tx
    return ComparisonTable(rows=rows, baseline=baseline.strategy)


_REQUIRED_CSV_COLUMNS = ("strategy", "rreq_tx", "discoveries_ok")
_CSV_TOTALS = ("rreq_tx", "rrep_tx", "rerr_tx", "hello_tx", "data_tx",
               "redundant_rreq_rx", "suppressed_forwards")


def parse_run_csv(text: str) -> list[tuple[str, MetricsReport]]:
    """Rebuild (label, report) pairs from a produced CSV.

    Accepts both the per-run layout and the comparison layout, so anything
    this package writes can be fed back into the compare subcommand. Latency
    means cannot be decomposed, so they are represented by one synthetic
    discovery per row.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise EmptyComparison("empty CSV input")
    missing = [c for c in _REQUIRED_CSV_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise MalformedCsv(f"CSV lacks required columns: {', '.join(missing)}")
    out: list[tuple[str, MetricsReport]] = []
    for row in reader:
        line = reader.line_num
        rep = MetricsReport(**{c: _csv_count(row, c, line) for c in _CSV_TOTALS})
        ok = _csv_count(row, "discoveries_ok", line)
        failed = _csv_count(row, "discoveries_failed", line)
        mean = row.get("mean_latency_ticks") or ""
        try:
            latency = round(float(mean)) if mean else 0
        except (OverflowError, ValueError):
            raise MalformedCsv(f"line {line}, column mean_latency_ticks: "
                               f"expected a number, got {mean!r}") from None
        for _ in range(ok):
            rec = rep.begin_discovery(0, 0, None, 0)
            rep.resolve_discovery(rec, latency, 0)
        for _ in range(failed):
            rec = rep.begin_discovery(0, 0, None, 0)
            rep.fail_discovery(rec, 0)
        out.append((row["strategy"], rep))
    return out


def _csv_count(row: dict, column: str, line: int) -> int:
    """A non-negative integer cell; an optional column may be absent or blank."""
    text = row.get(column)
    if not text and column not in _REQUIRED_CSV_COLUMNS:
        return 0
    try:
        value = int(text)
    except (TypeError, ValueError):
        value = -1
    if value < 0:
        raise MalformedCsv(f"line {line}, column {column}: "
                           f"expected a count, got {text!r}")
    return value
