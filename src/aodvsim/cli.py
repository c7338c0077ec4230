"""Command-line front end.

Subcommands: run, compare, trace, list. Exit codes: 0 success, 1 for bad
input, 2 for failures at runtime. Bad input raises `ValidationError` with a
message that names the JSON path, flag, file or CSV line at fault.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

from .engine import Engine
from .metrics import (
    CSV_COLUMNS,
    MetricsReport,
    compare,
    parse_run_csv,
    rows_to_csv,
)
from .scenario import (
    BUILTIN_NAMES,
    Scenario,
    UnknownScenario,
    builtin,
    parse_scenario,
    with_rounds,
)
from .suppression import Connectivity, strategy_from_token
from .wire import ValidationError

# connectivity options: command-line name -> Connectivity field
_KNOBS = {"mode": "mode", "alpha": "alpha", "threshold": "threshold", "warmup": "warmup_attempts"}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract reserves 2 for
    # runtime failures, so route usage problems through exit code 1 instead
    def error(self, message):
        raise ValidationError(message)


@functools.cache     # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="aodvsim",
                     description="AODV route discovery simulator with "
                                 "pluggable RREQ suppression strategies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, strategies: bool) -> None:
        p.add_argument("--scenario", help="builtin name or scenario JSON path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rounds", type=int, default=None,
                       help="override discovery round count of the first flow")
        if strategies:
            p.add_argument("--strategies",
                           help="comma-separated strategy tokens")
        else:
            p.add_argument("--strategy", default=None,
                           help="strategy token, e.g. flood, connectivity, "
                                "probabilistic:0.6, counter:3, distance:20, "
                                "ring:1:2:7")
        p.add_argument("--alpha", type=float, default=None,
                       help="smoothing weight for ema/blend connectivity modes")
        p.add_argument("--threshold", type=float, default=None,
                       help="connectivity index needed to keep using a link")
        p.add_argument("--warmup", type=int, default=None,
                       help="attempts before the connectivity filter engages")
        p.add_argument("--mode", default=None,
                       help="connectivity index estimator: raw, ema or blend")

    p_run = sub.add_parser("run", help="run one scenario, write metrics CSV")
    common(p_run, strategies=False)
    p_run.add_argument("--out", help="metrics CSV path")
    p_run.add_argument("--trace", help="event trace TSV path")

    p_cmp = sub.add_parser("compare",
                           help="run several strategies on one scenario")
    common(p_cmp, strategies=True)
    p_cmp.add_argument("--inputs", nargs="+",
                       help="previously written metrics CSV files to compare "
                            "instead of running anything")
    p_cmp.add_argument("--out", help="comparison CSV path")
    p_cmp.add_argument("--svg", help="bar chart of RREQ transmissions")

    p_tr = sub.add_parser("trace", help="run one scenario, emit event trace")
    common(p_tr, strategies=False)
    p_tr.add_argument("--out", help="trace TSV path (default stdout)")

    sub.add_parser("list", help="print builtin scenario names")
    return parser


def _read(path: str, what: str) -> str:
    """The text of a UTF-8 file; `what` names it in the missing-file message."""
    if not os.path.exists(path) or os.path.isdir(path):
        raise ValidationError(f"{what} not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_scenario(args: argparse.Namespace, strategy_token: str | None) -> Scenario:
    if not args.scenario:
        raise ValidationError("--scenario is required")
    try:
        sc = builtin(args.scenario, seed=args.seed, rounds=args.rounds)
    except UnknownScenario:
        sc = parse_scenario(_read(args.scenario, "scenario file"))
        if args.seed is not None:
            sc = replace(sc, seed=args.seed)
        if args.rounds is not None:
            sc = with_rounds(sc, args.rounds)
    return sc if strategy_token is None else with_strategy(args, sc, strategy_token)


def with_strategy(args: argparse.Namespace, sc: Scenario, strategy_token: str) -> Scenario:
    """`sc` under the strategy the token names, with the connectivity options."""
    knobs = {name: getattr(args, opt) for opt, name in _KNOBS.items()}
    return replace(sc, strategy=strategy_from_token(strategy_token, knobs))


def reject_unused_knobs(args: argparse.Namespace, tokens: list[str | None]) -> None:
    """The connectivity options only reach a strategy named by a token, and
    --alpha only a mode that smooths."""
    if not any(t and t.partition(":")[0] == Connectivity.token for t in tokens):
        for opt in _KNOBS:
            if getattr(args, opt) is not None:
                raise ValidationError(f"--{opt} applies only to --strategy connectivity")
    elif args.alpha is not None and args.mode not in ("ema", "blend"):
        raise ValidationError("--alpha applies only to --mode ema or blend")


# --- output helpers -------------------------------------------------------

def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def summary_lines(sc: Scenario, report: MetricsReport) -> list[str]:
    ok, failed = report.discoveries_ok, report.discoveries_failed
    mean = report.mean_latency()
    lines = [
        f"scenario={sc.name} strategy={sc.strategy.label} seed={sc.seed}",
        f"rreq_tx={report.rreq_tx} rrep_tx={report.rrep_tx} "
        f"rerr_tx={report.rerr_tx} hello_tx={report.hello_tx} "
        f"data_tx={report.data_tx}",
        f"discoveries ok={ok} failed={failed}"
        + (f" mean_latency={mean:.3f}" if mean is not None else ""),
        f"suppressed_forwards={report.suppressed_forwards} "
        f"redundant_rreq_rx={report.redundant_rreq_rx} "
        f"losses={report.losses}",
    ]
    if report.timed_out:
        lines.append("warning: run hit t_max with protocol activity pending")
    return lines


def render_svg(bars: list[tuple[str, int]]) -> str:
    """Self-contained 800x400 bar chart of RREQ transmissions per strategy."""
    from xml.sax.saxutils import escape     # on use only: it loads ssl, +7 MB peak RSS

    width, height = 800, 400
    left, right, top, bottom = 60, 20, 40, 60
    plot_w, plot_h = width - left - right, height - top - bottom
    peak = max((v for _, v in bars), default=0) or 1
    slot = plot_w / max(len(bars), 1)
    bar_w = slot * 0.6
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:g}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">'
        f'RREQ transmissions per strategy</text>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for i, (label, value) in enumerate(bars):
        h = plot_h * value / peak
        x = left + i * slot + (slot - bar_w) / 2
        y = top + plot_h - h
        cx = x + bar_w / 2
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                     f'height="{h:.1f}" fill="#4878a8"/>')
        parts.append(f'<text x="{cx:.1f}" y="{y - 6:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{value}</text>')
        parts.append(f'<text x="{cx:.1f}" y="{top + plot_h + 18:.1f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- subcommands ----------------------------------------------------------

def simulate(args: argparse.Namespace, trace_path: str | None,
             sink=None) -> tuple[Scenario, MetricsReport]:
    """Run the one scenario `run` and `trace` name, tracing to the file at
    `trace_path` if one is given, else to `sink` (None: no trace)."""
    reject_unused_knobs(args, [args.strategy])
    sc = load_scenario(args, args.strategy)
    with (open(trace_path, "w", encoding="utf-8", newline="") if trace_path
          else nullcontext(sink)) as fh:
        return sc, Engine(sc, trace=fh).run()


def cmd_run(args: argparse.Namespace) -> int:
    sc, report = simulate(args, args.trace)
    if args.out:
        row = report.csv_row(sc.name, sc.strategy.label, sc.seed)
        _write(args.out, rows_to_csv([row], CSV_COLUMNS))
    print("\n".join(summary_lines(sc, report)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if args.inputs:
        for flag in ("scenario", "strategies", "seed", "rounds"):
            if getattr(args, flag) is not None:
                raise ValidationError(f"--inputs cannot be combined with --{flag}")
        reject_unused_knobs(args, [])
        labeled = []
        for path in args.inputs:
            text = _read(path, "metrics file")
            try:
                labeled.extend(parse_run_csv(text))
            except ValidationError as exc:
                raise ValidationError(f"{path}: {exc}") from None
    else:
        if not args.strategies:
            raise ValidationError("--strategies is required unless --inputs is given")
        tokens = [t.strip() for t in args.strategies.split(",") if t.strip()]
        if not tokens:
            raise ValidationError("--strategies is empty")
        reject_unused_knobs(args, tokens)
        base = load_scenario(args, None)
        labeled = []
        for token in tokens:
            sc = with_strategy(args, base, token)
            report = Engine(sc).run()
            labeled.append((sc.strategy.label, report.totals()))
    table = compare(labeled)
    if args.out:
        _write(args.out, table.to_csv())
    if args.svg:
        bars = [(row.strategy, row.rreq_tx) for row in table.rows]
        _write(args.svg, render_svg(bars))
    print(table.formatted())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    simulate(args, args.out, sys.stdout)
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    for name in BUILTIN_NAMES:
        print(name)
    return 0


_COMMANDS = {
    "run": cmd_run,
    "compare": cmd_compare,
    "trace": cmd_trace,
    "list": cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()      # a closed pipe shows here, not in the flush at exit
        return code
    except ValidationError as exc:
        print(f"aodvsim: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:     # stdout's reader closed early (`| head`): not a failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)    # so the exit flush cannot raise
        return 0
    except OSError as exc:
        print(f"aodvsim: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"aodvsim: internal error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
