"""Command-line interface.

Single-point subcommands (coeffs, momentum, times, depth) report one barrier
problem as a one-row CSV, after a config echo of its four inputs that reads
back to the same floats. coeffs prints the stationary solution; momentum,
times and depth evaluate the sweep's whole record at the point, by the same
kernel as the sweep, and print their columns of it. Each raises the first
failure that concerns a column it prints; a non-finite |S|^2 or |R|^2
concerns every column. Grid subcommands (sweep, table1, figures) run the
configured sweep and emit the corresponding CSV files; figures refuses --out
with --which all (six files, into --out-dir) and --out-dir with one figure.
Exit codes: 0 success, 1 validation or parse error or a file that cannot be
read or written (a config that is missing or not UTF-8, an output path that
cannot be made; the message names the file), 2 missing grid point, 3 internal
numeric failure.

The argument parser is built once per process, by the first main() call, and
every later call reuses it; parse_args keeps nothing from one call to the next.
An argv whose first word names a subcommand is parsed once, by that
subcommand's own parser (the one the top-level parser would hand it to); any
other argv (empty, --version, -h, an unknown command) goes to the top-level
parser. A plain subcommand argv is parsed from the subcommand parser's own
actions without argparse (see _parse_plain); every other argv goes to argparse.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .barrier import DEFAULT_CUTOFF, BarrierProblem, stationary_solution
from .errors import (
    DomainError,
    MissingGridPoint,
    NoConvergence,
    ParseError,
    ValidationError,
)
from .sweep import (
    FIGURE_IDS,
    RECORD_COLUMNS,
    TOOL_NAME,
    SweepConfig,
    _csv,
    _echo,
    _evaluate,
    _fmt,
    emit_figure_data,
    emit_table1,
    parse_config,
    records_to_csv,
    run_sweep,
)
from .times import shared_denominator

#: The point commands backed by the sweep record, and the record columns
#: each prints.
_RECORD_COMMANDS = {
    "momentum": ("K_rms_per_m", "v_rms_m_per_s", "t_eff_s", "eps_eff_eV"),
    "times": (
        "t_eff_s",
        "t_ph_numeric_s",
        "t_ph_analytic_s",
        "t_dw_numeric_s",
        "t_dw_analytic_s",
        "t_bl_s",
    ),
    "depth": ("s_nm", "tau_eff_s", "xi", "eps_eff_eV"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through the
    # validation-error path instead so exit codes stay as documented.
    def error(self, message):
        raise ValidationError(message)


def _point_problem(args) -> BarrierProblem:
    return BarrierProblem.from_ev_nm(args.e_ev, args.v0_ev, args.d_nm, args.cutoff)


def _point_csv(args, columns: dict[str, float | None]) -> str:
    config = (("E_eV", args.e_ev), ("V0_eV", args.v0_ev), ("d_nm", args.d_nm),
              ("Kprime", args.cutoff))
    meta = [f"# config: {key}={_echo(value)}" for key, value in config]
    return _csv(meta, columns, [",".join(map(_fmt, columns.values()))])


def _cmd_coeffs(args) -> str:
    sol = stationary_solution(_point_problem(args))
    return _point_csv(
        args,
        {
            "k_per_m": sol.wavenumbers.k,
            "kappa_per_m": sol.wavenumbers.kappa,
            "S_re": sol.S.real,
            "S_im": sol.S.imag,
            "A_re": sol.A.real,
            "A_im": sol.A.imag,
            "B_re": sol.B.real,
            "B_im": sol.B.imag,
            "R_re": sol.R.real,
            "R_im": sol.R.imag,
            "S_abs2": sol.transmission,
            "R_abs2": sol.reflection,
        },
    )


def _cmd_record(args) -> str:
    problem = _point_problem(args)
    columns = {column: RECORD_COLUMNS[column] for column in _RECORD_COMMANDS[args.command]}
    cells, _, failures = _evaluate(problem)
    for exc, concerns in failures:
        if not set(columns.values()).isdisjoint(concerns):
            raise exc
    values = {column: cells[attr] for column, attr in columns.items()}
    if args.command == "times":
        values["D_denominator_per_m4"] = shared_denominator(problem)
    return _point_csv(args, values)


def _load_config(args) -> SweepConfig:
    if args.config is None:
        return SweepConfig()
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:  # named after the file, as an OSError is
        raise ParseError(f"{exc}: {args.config!r}") from None
    return parse_config(text)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("utf-8"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=TOOL_NAME,
        description="Rectangular-barrier tunneling times as deterministic CSV.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each subcommand's own parser, by name

    def point(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--E-eV", dest="e_ev", type=float, required=True,
                        help="incident energy in eV")
        sp.add_argument("--V0-eV", dest="v0_ev", type=float, default=10.0,
                        help="barrier height in eV (default 10)")
        sp.add_argument("--d-nm", dest="d_nm", type=float, required=True,
                        help="barrier thickness in nm")
        sp.add_argument("--Kprime", dest="cutoff", type=float, default=DEFAULT_CUTOFF,
                        help="momentum window cutoff in 1/m (default 7.5e10)")
        sp.add_argument("--out", help="output file ('-' or omitted: stdout)")
        return sp

    point("coeffs", "wavenumbers and scattering coefficients for one problem")
    point("momentum", "rms-momentum kinematics for one problem")
    point("times", "all transit-time quantities for one problem")
    point("depth", "penetration depth and uncertainty coefficient for one problem")

    def grid(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--out", help="output file ('-' or omitted: stdout)")
        return sp

    grid("sweep", "full record CSV over the configured grid")
    grid("table1", "penetration-depth table on the canonical 5x9 grid")
    figures = grid("figures", "figure-data CSVs over the configured grid")
    figures.add_argument(
        "--which",
        choices=FIGURE_IDS + ("all",),
        default="all",
        help="which figure to emit (default: all of them)",
    )
    figures.add_argument(
        "--out-dir",
        help="directory for the per-figure files when --which=all (default: .)",
    )
    return parser


def _dispatch(args) -> int:
    if args.command == "coeffs":
        _write(_cmd_coeffs(args), args.out)
    elif args.command in _RECORD_COMMANDS:
        _write(_cmd_record(args), args.out)
    elif args.command == "sweep":
        cfg = _load_config(args)
        _write(records_to_csv(run_sweep(cfg), cfg), args.out)
    elif args.command == "table1":
        cfg = _load_config(args)
        _write(emit_table1(run_sweep(cfg), cfg), args.out)
    elif args.command == "figures":
        if args.which == "all" and args.out is not None:
            raise ValidationError("--out names one file; --which all writes six, into --out-dir")
        if args.which != "all" and args.out_dir is not None:
            raise ValidationError(f"--out-dir is for --which all; --which {args.which} "
                                  "writes one file, to --out or stdout")
        cfg = _load_config(args)
        records = run_sweep(cfg)
        if args.which == "all":
            # every figure is emitted before any file is written, so a figure
            # that cannot be emitted leaves no part of the set behind
            texts = {fig: emit_figure_data(records, fig, cfg) for fig in FIGURE_IDS}
            out_dir = Path(args.out_dir or ".")
            out_dir.mkdir(parents=True, exist_ok=True)
            for fig, text in texts.items():
                (out_dir / f"{fig}.csv").write_bytes(text.encode("utf-8"))
        else:
            _write(emit_figure_data(records, args.which, cfg), args.out)
    return 0


#: The parser main() reuses; built by its first call, not at import.
_parser: argparse.ArgumentParser | None = None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:
        return _parser.parse_args(argv)
    args = _parse_plain(command, argv)
    if args is None:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return args


def _parse_plain(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace parser.parse_args(argv[1:]) builds, if argv is plain; else None.

    After the command word, a plain argv alternates flags and values. Each flag
    is the full option string of a store action taking one value, and names a
    dest no earlier flag named. Each value is non-empty, does not start with a
    prefix char, converts by the action's type and is one of its choices.
    Every required action is given, and no default left in place is a string
    that argparse would convert by the action's type.

    The route reads argparse internals that are not public API
    (_option_string_actions, _actions, _StoreAction); the route-table and
    property tests in tests/test_cli.py hold it to argparse's result, so a
    Python minor version is supported once CI's matrix runs them on it.
    """
    if len(argv) % 2 == 0:
        return None
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        action = parser._option_string_actions.get(flag)
        if (type(action) is not argparse._StoreAction or action.nargs is not None
                or action.dest in given or not value or value[0] in parser.prefix_chars):
            return None
        try:
            value = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    args = argparse.Namespace(command=argv[0])
    for action in parser._actions:
        if action.dest in given:
            setattr(args, action.dest, given[action.dest])
        elif action.required or (isinstance(action.default, str) and action.type is not None):
            return None
        elif action.default is not argparse.SUPPRESS:
            setattr(args, action.dest, action.default)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        return _dispatch(_parse(argv))
    except SystemExit:  # --help or --version has printed; error() never exits
        return 0
    except (ParseError, ValidationError, DomainError, OSError) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 1
    except MissingGridPoint as exc:
        print(f"{TOOL_NAME}: missing grid point: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, ArithmeticError) as exc:
        print(f"{TOOL_NAME}: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
