"""Command-line interface.

Single-point subcommands (coeffs, momentum, times, depth) report one barrier
problem as a one-row CSV, after a config echo of its four inputs that reads
back to the same floats. coeffs prints the stationary solution; momentum,
times and depth evaluate the sweep's whole record at the point, by the
record kernel the sweep runs too (the evaluation module), and print their
columns of it. Each raises the first failure that concerns a column it
prints; a non-finite |S|^2 or |R|^2 concerns every column. Grid subcommands
(sweep, table1, figures) run the configured sweep and emit the corresponding
CSV files; they alone import the sweep module. figures refuses --out with
--which all (six files, into --out-dir) and --out-dir with one figure.
Exit codes: 0 success, 1 validation or parse error or a file that cannot be
read or written (a config that is missing or not UTF-8, an output path that
cannot be made, an empty path; the message names the file as it was given,
or the flag of an empty path), 2 missing grid point, 3 internal numeric
failure.

Each subcommand's help text and flags are declared once, in _COMMANDS. A
plain subcommand argv is parsed from that table without argparse (see
_parse_plain), which only build_parser() imports. Any other argv (an
abbreviated or repeated flag, -h, --version, an unknown command, an empty
argv) goes to a parser that build_parser() makes for it.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__
from .barrier import DEFAULT_CUTOFF, BarrierProblem, stationary_solution
from .errors import (
    DomainError,
    MissingGridPoint,
    NoConvergence,
    ParseError,
    ValidationError,
)
from .evaluation import FIGURE_IDS, TOOL_NAME, _csv, _echo, _evaluate, _fmt
from .records import RECORD_COLUMNS

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

_OUT = {"dest": "out", "help": "output file ('-' or omitted: stdout)"}
_POINT_FLAGS = {
    "--E-eV": {"dest": "e_ev", "type": float, "required": True, "help": "incident energy in eV"},
    "--V0-eV": {"dest": "v0_ev", "type": float, "default": 10.0,
                "help": "barrier height in eV (default 10)"},
    "--d-nm": {"dest": "d_nm", "type": float, "required": True, "help": "barrier thickness in nm"},
    "--Kprime": {"dest": "cutoff", "type": float, "default": DEFAULT_CUTOFF,
                 "help": "momentum window cutoff in 1/m (default 7.5e10)"},
    "--out": _OUT,
}
_GRID_FLAGS = {"--config": {"dest": "config", "help": "key=value config file"}, "--out": _OUT}

#: Each subcommand's help text and flags, as option string -> add_argument
#: keywords; build_parser() and _parse_plain() both read it.
_COMMANDS = {
    "coeffs": ("wavenumbers and scattering coefficients for one problem", _POINT_FLAGS),
    "momentum": ("rms-momentum kinematics for one problem", _POINT_FLAGS),
    "times": ("all transit-time quantities for one problem", _POINT_FLAGS),
    "depth": ("penetration depth and uncertainty coefficient for one problem", _POINT_FLAGS),
    "sweep": ("full record CSV over the configured grid", _GRID_FLAGS),
    "table1": ("penetration-depth table on the canonical 5x9 grid", _GRID_FLAGS),
    "figures": ("figure-data CSVs over the configured grid", {
        **_GRID_FLAGS,
        "--which": {"dest": "which", "choices": FIGURE_IDS + ("all",), "default": "all",
                    "help": "which figure to emit (default: all of them)"},
        "--out-dir": {"dest": "out_dir", "help": "directory for the per-figure files when "
                      "--which=all (default: .)"},
    }),
}


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
            "k_per_m": sol.k,
            "kappa_per_m": sol.kappa,
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
    columns = {column: RECORD_COLUMNS[column] for column in _RECORD_COMMANDS[args.command]}
    cells, _, failures = _evaluate(_point_problem(args))
    for exc, concerns in failures:
        if not set(columns.values()).isdisjoint(concerns):
            raise exc
    return _point_csv(args, {column: cells[attr] for column, attr in columns.items()})


def _path(flag: str, value: str) -> str:
    if not value:  # names no file; refused by its flag, before the work
        raise ValidationError(f"{flag} {value!r} is an empty path")
    return value


def _load_config(args) -> SweepConfig:
    from .sweep import SweepConfig, parse_config

    if args.config is None:
        return SweepConfig()
    try:
        with open(_path("--config", args.config), encoding="utf-8-sig") as file:
            text = file.read()
    except UnicodeDecodeError as exc:  # named after the file, as an OSError is
        raise ParseError(f"{exc}: {args.config!r}") from None
    return parse_config(text)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "wb") as file:
            file.write(text.encode("utf-8"))


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with code 2 on bad flags; route through the
        # validation-error path instead so exit codes stay as documented.
        def error(self, message):
            raise ValidationError(message)

    parser = _Parser(
        prog=TOOL_NAME,
        description="Rectangular-barrier tunneling times as deterministic CSV.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in flags.items():
            command.add_argument(flag, **keywords)
    return parser


def _dispatch(args) -> int:
    # the output flags are checked before the work, and an empty path is
    # refused there; a path that cannot be written is met only on writing,
    # for no file is made before there is a result to put in it
    if args.command == "figures":
        if args.which == "all" and args.out is not None:
            raise ValidationError("--out names one file; --which all writes six, into --out-dir")
        if args.which != "all" and args.out_dir is not None:
            raise ValidationError(f"--out-dir is for --which all; --which {args.which} "
                                  "writes one file, to --out or stdout")
        out_dir = "." if args.out_dir is None else _path("--out-dir", args.out_dir)
    out = None if args.out in (None, "-") else _path("--out", args.out)
    if args.command == "coeffs":
        _write(_cmd_coeffs(args), out)
    elif args.command in _RECORD_COMMANDS:
        _write(_cmd_record(args), out)
    else:
        from .sweep import emit_figure_data, emit_table1, records_to_csv, run_sweep

        cfg = _load_config(args)
        records = run_sweep(cfg)
        if args.command == "sweep":
            _write(records_to_csv(records, cfg), out)
        elif args.command == "table1":
            _write(emit_table1(records, cfg), out)
        elif args.which == "all":
            # every figure is emitted before any file is written, so a figure
            # that cannot be emitted leaves no part of the set behind
            texts = {fig: emit_figure_data(records, fig, cfg) for fig in FIGURE_IDS}
            os.makedirs(out_dir, exist_ok=True)
            for fig, text in texts.items():
                _write(text, os.path.join(out_dir, f"{fig}.csv"))
        else:
            _write(emit_figure_data(records, args.which, cfg), out)
    return 0


def _parse(argv: list[str] | None) -> SimpleNamespace | argparse.Namespace:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would build from argv, if argv is plain; else None.

    A plain argv is a command of _COMMANDS, then its flags, each followed by
    its value. Each flag is an option string of the command's table, given in
    full and once. Each value does not start with '-', converts by the flag's
    type and is one of its choices. Every required flag is given; each other
    flag takes its default, which is never a string that a type would convert.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    flags = _COMMANDS[argv[0]][1]
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        keywords = flags.get(flag)
        if keywords is None or flag in given or value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, keywords in flags.items():
        if flag not in given and keywords.get("required"):
            return None
        setattr(args, keywords["dest"], given.get(flag, keywords.get("default")))
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
