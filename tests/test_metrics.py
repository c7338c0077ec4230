import pytest

from aodvsim.engine import run
from aodvsim.metrics import (
    COMPARISON_COLUMNS,
    CSV_COLUMNS,
    MetricsReport,
    compare,
    parse_run_csv,
    rows_to_csv,
)
from aodvsim.scenario import builtin
from aodvsim.wire import ValidationError

from oracles import flood_replay


# --- counters -------------------------------------------------------------

def test_record_bumps_named_counter():
    rep = MetricsReport()
    rep.record("rreq_tx")
    rep.record("rreq_tx", n=2)
    assert rep.rreq_tx == 3


def test_record_tracks_redundant_receptions_per_node():
    rep = MetricsReport()
    rep.record("redundant_rreq_rx")
    rep.record("redundant_rreq_rx", n=3)
    assert rep.redundant_rreq_rx == 4
    # the per-node breakdown is bumped in place by the receiving node
    assert rep.per_node_redundant_rx == {}


def test_record_rejects_unknown_counters():
    with pytest.raises(ValueError):
        MetricsReport().record("rreq_rx")


# --- discoveries ----------------------------------------------------------

def test_discovery_lifecycle_totals_and_latency():
    rep = MetricsReport()
    a = rep.begin_discovery(0, 9, 0, started_at=100)
    b = rep.begin_discovery(0, 9, 1, started_at=200)
    c = rep.begin_discovery(0, 9, 2, started_at=300)
    rep.resolve_discovery(a, 108, hop_count=4)
    rep.resolve_discovery(b, 216, hop_count=4)
    rep.fail_discovery(c)
    assert (rep.discoveries_ok, rep.discoveries_failed) == (2, 1)
    assert rep.mean_latency() == pytest.approx(12.0)


def test_closing_a_discovery_twice_is_a_bug():
    rep = MetricsReport()
    rec = rep.begin_discovery(0, 9, None, 0)
    rep.resolve_discovery(rec, 8, 2)
    with pytest.raises(AssertionError):
        rep.fail_discovery(rec)


def test_mean_latency_empty_is_none_and_csv_blank():
    rep = MetricsReport()
    assert rep.mean_latency() is None
    assert rep.csv_row("s", "flood", 0)["mean_latency_ticks"] == ""


def test_counter_tuple_separates_distinct_runs():
    a, b = MetricsReport(), MetricsReport()
    assert a.counter_tuple() == b.counter_tuple()
    b.record("rreq_tx")
    assert a.counter_tuple() != b.counter_tuple()


# --- CSV ------------------------------------------------------------------

def test_run_csv_layout_is_pinned():
    rep = MetricsReport(rreq_tx=15)
    rec = rep.begin_discovery(0, 9, None, 0)
    rep.resolve_discovery(rec, 8, 4)
    text = rows_to_csv([rep.csv_row("fig1", "flood", 7)], CSV_COLUMNS)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "fig1,flood,7,15,0,0,0,0,0,0,1,0,8.000"
    assert text.endswith("\n")


def test_flood_totals_match_wave_replay_oracle():
    for seed in range(20):
        sc = builtin("random-9", seed=seed)
        rep = run(sc)
        edges = [(a, b) for a, b, _ in sc.links_by_id()]
        tx, redundant, reached = flood_replay(
            sc.node_count, edges, 0, sc.node_count - 1, ttl=sc.node_count)
        # an unreachable destination is retried; each attempt floods identically
        waves = 1 if reached else sc.params.max_retries
        assert rep.rreq_tx == tx * waves
        assert rep.per_node_redundant_rx == {n: c * waves for n, c in redundant.items()}
        assert rep.redundant_rreq_rx == sum(redundant.values()) * waves
        assert (rep.discoveries_ok == 1) == reached


# --- comparison -----------------------------------------------------------

def sample_reports():
    flood = MetricsReport(rreq_tx=20, rrep_tx=5)
    rec = flood.begin_discovery(0, 9, None, 0)
    flood.resolve_discovery(rec, 8, 4)
    conn = MetricsReport(rreq_tx=14, rrep_tx=5, suppressed_forwards=6)
    rec = conn.begin_discovery(0, 9, None, 0)
    conn.resolve_discovery(rec, 8, 4)
    return [("flood", flood.totals()), ("connectivity", conn.totals())]


def test_compare_uses_flood_row_as_baseline():
    table = compare(list(reversed(sample_reports())))
    assert table.baseline == "flood"
    by_name = {r.strategy: r for r in table.rows}
    assert by_name["flood"].rreq_tx_delta == 0
    assert by_name["connectivity"].rreq_tx_delta == -6


def test_compare_falls_back_to_first_row_without_flood():
    labeled = [(n, r) for n, r in sample_reports() if n != "flood"]
    labeled.append(("probabilistic-0.5", MetricsReport(rreq_tx=30).totals()))
    table = compare(labeled)
    assert table.baseline == "connectivity"
    assert table.rows[1].rreq_tx_delta == 16


def test_compare_refuses_empty_input():
    with pytest.raises(ValidationError):
        compare([])


def test_comparison_csv_layout():
    table = compare(sample_reports())
    lines = table.to_csv().splitlines()
    assert lines[0] == ",".join(COMPARISON_COLUMNS)
    assert lines[1].startswith("flood,20,5,")
    assert lines[1].endswith(",1.000,8.000,0")


def test_formatted_table_holds_one_line_per_strategy():
    text = compare(sample_reports()).formatted()
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split()[0] == "strategy"
    assert lines[1].split()[0] == "flood"


def test_success_rate_counts_both_outcomes():
    rep = MetricsReport()
    ok = rep.begin_discovery(0, 9, None, 0)
    rep.resolve_discovery(ok, 5, 1)
    rep.fail_discovery(rep.begin_discovery(0, 9, None, 10))
    table = compare([("flood", rep.totals())])
    assert table.rows[0].success_rate == pytest.approx(0.5)


# --- feeding CSVs back in -------------------------------------------------

def test_run_csv_round_trips_through_the_parser():
    rep = MetricsReport(rreq_tx=15, rrep_tx=7, data_tx=4, redundant_rreq_rx=5)
    rec = rep.begin_discovery(0, 10, None, 0)
    rep.resolve_discovery(rec, 8, 4)
    text = rows_to_csv([rep.csv_row("fig1", "flood", 7)], CSV_COLUMNS)
    [(label, parsed)] = parse_run_csv(text)
    assert label == "flood"
    assert parsed.rreq_tx == 15 and parsed.rrep_tx == 7
    assert parsed.discoveries_ok == 1 and parsed.discoveries_failed == 0
    assert parsed.mean_latency_ticks == pytest.approx(8.0)


def test_comparison_csv_is_also_parseable():
    text = compare(sample_reports()).to_csv()
    parsed = parse_run_csv(text)
    assert [label for label, _ in parsed] == ["flood", "connectivity"]
    assert parsed[1][1].suppressed_forwards == 6


def test_parser_skips_blank_lines_between_records():
    text = "strategy,rreq_tx,discoveries_ok\nflood,3,1\n\nconnectivity,2,1\n"
    assert [label for label, _ in parse_run_csv(text)] == ["flood", "connectivity"]
    # the line count stays right past the blank line
    with pytest.raises(ValidationError, match="line 5, column rreq_tx"):
        parse_run_csv(text + "counter,abc,1\n")


def test_parser_names_missing_columns():
    with pytest.raises(ValidationError, match="rreq_tx"):
        parse_run_csv("strategy,discoveries_ok\nflood,1\n")


def test_parser_rejects_empty_text():
    with pytest.raises(ValidationError):
        parse_run_csv("")
