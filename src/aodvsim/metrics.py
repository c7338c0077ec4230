"""Counters, per-run reports, CSV emission and strategy comparison."""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from .wire import ValidationError


# CSV cell readers; a blank cell is an absent figure

def _count(text: str) -> int:
    if not text:
        return 0
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError("expected a count")
    return value


def _mean(text: str) -> float | None:
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("expected a number")
    return value


def _fixed(value: float | None) -> str:
    return "" if value is None else f"{value:.3f}"


@dataclass(frozen=True)
class Column:
    """One metrics column. The spec below lists them in the order every CSV
    and the text table show them.

    A run total (`read` set) comes off a MetricsReport as `value(report, name)`
    and back out of a CSV through `read`. The other columns are labels the
    caller gives or figures `compare` works out.
    """

    name: str
    short: str = ""                 # text-table header; "" keeps it out of the table
    run: bool = True                # in the per-run CSV
    compared: bool = True           # in the comparison CSV and the text table
    required: bool = False          # a CSV read back must have it
    read: Callable[[str], Any] | None = _count
    value: Callable[[Any, str], Any] = getattr
    cell: Callable[[Any], str] = str    # CSV text
    shown: Callable[[Any], str] = str   # text-table cell


STRATEGY = Column("strategy", required=True, read=None)     # labels each row of the table

COLUMNS = (
    Column("scenario", compared=False, read=None),
    STRATEGY,
    Column("seed", compared=False, read=None),
    Column("rreq_tx", "rreq", required=True),
    Column("rrep_tx", "rrep"),
    Column("rerr_tx", "rerr"),
    Column("hello_tx", "hello"),
    Column("data_tx", "data"),
    Column("redundant_rreq_rx", "redundant"),
    Column("suppressed_forwards", "suppressed"),
    Column("discoveries_ok", "ok", required=True),
    Column("discoveries_failed", "fail"),
    Column("success_rate", run=False, read=None, cell=_fixed),
    Column("mean_latency_ticks", "latency", read=_mean,
           value=lambda report, _name: report.mean_latency(), cell=_fixed,
           shown=lambda mean: "-" if mean is None else f"{mean:.1f}"),
    Column("rreq_tx_delta", "d-rreq", run=False, read=None, shown=lambda d: f"{d:+d}"),
)

_COMPARED = [c for c in COLUMNS if c.compared]
CSV_COLUMNS = [c.name for c in COLUMNS if c.run]
COMPARISON_COLUMNS = [c.name for c in _COMPARED]
_TOTALS = [c for c in COLUMNS if c.read is not None]

# one run's totals, as a metrics CSV row carries them
Totals = namedtuple("Totals", [c.name for c in _TOTALS])
# one row of a comparison, in the comparison CSV's column order
ComparisonRow = namedtuple("ComparisonRow", COMPARISON_COLUMNS)


@dataclass(slots=True)
class DiscoveryRecord:
    """One route discovery; while open, also its originator's pending record."""
    origin: int
    dest: int
    round_index: int | None
    started_at: int
    resolved_at: int | None = None
    failed: bool = False
    hop_count: int | None = None
    attempts: int = 1
    queued: list[int] = field(default_factory=list)     # payload ids awaiting the route

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
    per_sender_rreq_tx: dict[int, dict[int, int]] = field(default_factory=dict)
    discoveries: list[DiscoveryRecord] = field(default_factory=list)
    timed_out: bool = False

    @property
    def per_link_rreq_tx(self) -> dict[tuple[int, int], int]:
        """RREQ copies by (sender, receiver), built on read from `per_sender_rreq_tx`."""
        return {(s, r): n for s, sent in self.per_sender_rreq_tx.items() for r, n in sent.items()}

    # -- recording

    def record(self, kind: str, n: int = 1) -> None:
        """Bump one counter. The engine and nodes bump the per-node and
        per-link breakdowns in place."""
        if kind not in _COUNTERS:
            raise ValueError(f"unknown counter {kind!r}")
        setattr(self, kind, getattr(self, kind) + n)

    def begin_discovery(self, origin: int, dest: int, round_index: int | None,
                        started_at: int) -> DiscoveryRecord:
        rec = DiscoveryRecord(origin, dest, round_index, started_at)
        self.discoveries.append(rec)
        return rec

    def resolve_discovery(self, rec: DiscoveryRecord, now: int, hop_count: int) -> None:
        assert rec.resolved_at is None and not rec.failed, "discovery already closed"
        rec.resolved_at = now
        rec.hop_count = hop_count

    def fail_discovery(self, rec: DiscoveryRecord) -> None:
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

    def totals(self) -> Totals:
        return Totals._make(c.value(self, c.name) for c in _TOTALS)

    def csv_row(self, scenario: str, strategy: str, seed: int) -> dict[str, str]:
        values = dict(self.totals()._asdict(), scenario=scenario, strategy=strategy, seed=seed)
        return {c.name: c.cell(values[c.name]) for c in COLUMNS if c.run}


# the counters `record` may bump: the report's integer fields
_COUNTERS = frozenset(f.name for f in fields(MetricsReport) if f.type == "int")


def rows_to_csv(rows: list[dict[str, str]], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# --- comparison -----------------------------------------------------------

@dataclass
class ComparisonTable:
    rows: list[ComparisonRow]
    baseline: str

    def to_csv(self) -> str:
        cells = [{c.name: c.cell(v) for c, v in zip(_COMPARED, r)} for r in self.rows]
        return rows_to_csv(cells, COMPARISON_COLUMNS)

    def formatted(self) -> str:
        """Fixed-width text table for terminal output: the strategy column
        fits the longest name, every other column is ten wide."""
        shown = [(i, c) for i, c in enumerate(_COMPARED) if c.short]
        name_w = max(len(STRATEGY.name), *(len(r.strategy) for r in self.rows))
        lines = [f"{STRATEGY.name:<{name_w}}  "
                 + "  ".join(f"{c.short:>10}" for _, c in shown)]
        for r in self.rows:
            lines.append(f"{r.strategy:<{name_w}}  "
                         + "  ".join(f"{c.shown(r[i]):>10}" for i, c in shown))
        return "\n".join(lines)


def compare(labeled: list[tuple[str, Totals]]) -> ComparisonTable:
    """Side-by-side totals with request-overhead deltas against the flood row.

    The baseline is the first row labeled "flood", falling back to the first
    row. Negative delta means fewer request transmissions than the baseline.
    """
    if not labeled:
        raise ValidationError("nothing to compare")
    baseline, base = next((pair for pair in labeled if pair[0] == "flood"), labeled[0])
    rows = []
    for label, t in labeled:
        runs = t.discoveries_ok + t.discoveries_failed
        rows.append(ComparisonRow(strategy=label, rreq_tx_delta=t.rreq_tx - base.rreq_tx,
                                  success_rate=t.discoveries_ok / runs if runs else 0.0,
                                  **t._asdict()))
    return ComparisonTable(rows=rows, baseline=baseline)


def parse_run_csv(text: str) -> list[tuple[str, Totals]]:
    """(label, totals) pairs read back from a produced CSV.

    Accepts both the per-run layout and the comparison layout, so anything
    this package writes can be fed back into the compare subcommand. An
    optional column that is absent or blank reads as a count of 0 or as no
    mean latency; a required one may not be blank.
    """
    reader = csv.DictReader(io.StringIO(text))
    try:    # a cell past csv's size limit; before Python 3.11, a NUL byte
        header, end = reader.fieldnames, reader.reader.line_num
        rows = [(row, reader.reader.line_num) for row in reader]
    except csv.Error as exc:
        raise ValidationError(f"line {reader.reader.line_num}: {exc}") from None
    if header is None:
        raise ValidationError("empty CSV input")
    missing = [c.name for c in COLUMNS if c.required and c.name not in header]
    if missing:
        raise ValidationError(f"CSV lacks required columns: {', '.join(missing)}")
    out: list[tuple[str, Totals]] = []
    lines = text.split("\n")
    for row, row_end in rows:
        # first non-blank line after the previous record, by the inner csv.reader's count
        prev, end = end, row_end
        line = next(n for n in range(prev + 1, end + 1) if lines[n - 1].strip("\r"))
        if None in row:     # DictReader files the cells past the header's under None
            raise ValidationError(f"line {line}: more cells than the header's {len(header)}, "
                                  f"got {len(header) + len(row[None])}")
        values = []
        for c in _TOTALS:
            cell = row.get(c.name) or ""
            try:
                if c.required and not cell:
                    raise ValueError("expected a value")
                values.append(c.read(cell))
            except ValueError as exc:
                raise ValidationError(f"line {line}, column {c.name}: "
                                      f"{exc}, got {cell!r}") from None
        label = row[STRATEGY.name] or ""
        if not label.isprintable():     # a line break would split the text table
            raise ValidationError(f"line {line}, column {STRATEGY.name}: "
                                  f"not printable, got {label!r}")
        out.append((label, Totals._make(values)))
    return out
