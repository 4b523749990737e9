"""Point-command output pinned by digest and exit code.

``coeffs``, ``momentum``, ``times`` and ``depth`` run at 40 seeded thin-barrier
points and at inputs that reach each documented failure path. The SHA-256 of
each command's stdout and its exit code must match ``point_pins.json``, so any
change to what a point command prints, or to when it refuses, fails here. At
the failure-path inputs the exact stderr of ``momentum``, ``times`` and
``depth`` is pinned too (STDERR below): which failure a command reports, and
in what words.

Regenerate the pins only with a change that announces new point-command
output: ``PYTHONPATH=src python tests/test_point_pins.py``.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from tunneltimes.cli import main

PINS_FILE = Path(__file__).with_name("point_pins.json")
COMMANDS = ("coeffs", "momentum", "times", "depth")

#: Inputs on the failure paths: E eV, d nm, extra flags (V0 is 10 eV unless
#: given), and the exit codes of coeffs, momentum, times and depth there.
SPECIAL = (
    ("5e-5", "0.5", (), (0, 0, 1, 0)),  # phase stencil clipped
    ("5e-5", "30", (), (0, 0, 1, 0)),  # clipped, and the closed forms overflow
    ("5", "0.05", ("--Kprime", "6e14"), (0, 1, 1, 1)),  # superluminal window
    ("5", "1", ("--Kprime", "1e15"), (0, 1, 1, 1)),  # superluminal, very wide window
    ("0.02", "3", ("--V0-eV", "1"), (0, 0, 3, 0)),  # phase cross-check fails
    ("5", "40", (), (0, 0, 3, 0)),  # thick barrier: the closed forms overflow
    ("1", "0.1", (), (0, 0, 0, 0)),  # no depth crossing: empty s_nm cell
)


#: Exit code and exact stderr of momentum, times and depth at each SPECIAL input.
STDERR = {
    "momentum --E-eV 5e-5 --d-nm 0.5": (0, ""),
    "times --E-eV 5e-5 --d-nm 0.5": (1, (
        "tunneltimes: error: stencil [-8.011000000000001e-24, 2.4033000000000006e-23]"
        " leaves the valid domain (0.0, 1.6022e-18)\n"
    )),
    "depth --E-eV 5e-5 --d-nm 0.5": (0, ""),
    "momentum --E-eV 5e-5 --d-nm 30": (0, ""),
    "times --E-eV 5e-5 --d-nm 30": (1, (
        "tunneltimes: error: stencil [-8.011000000000001e-24, 2.4033000000000006e-23]"
        " leaves the valid domain (0.0, 1.6022e-18)\n"
    )),
    "depth --E-eV 5e-5 --d-nm 30": (0, ""),
    **{
        f"{command} --E-eV 5 --d-nm {d} --Kprime {cutoff}": (1, (
            f"tunneltimes: error: rms tunneling velocity {v} m/s is superluminal;"
            " the momentum window is unphysically wide\n"
        ))
        for d, cutoff, v in (("0.05", "6e14", "3.3679e+08"), ("1", "1e15", "3.1270e+08"))
        for command in ("momentum", "times", "depth")
    },
    "momentum --E-eV 0.02 --d-nm 3 --V0-eV 1": (0, ""),
    "times --E-eV 0.02 --d-nm 3 --V0-eV 1": (3, (
        "tunneltimes: numeric failure: phase cross-check: numeric 4.7032570481848125e-15"
        " vs analytic 4.7033543163872216e-15\n"
    )),
    "depth --E-eV 0.02 --d-nm 3 --V0-eV 1": (0, ""),
    "momentum --E-eV 5 --d-nm 40": (0, ""),
    "times --E-eV 5 --d-nm 40": (3, "tunneltimes: numeric failure: math range error\n"),
    "depth --E-eV 5 --d-nm 40": (0, ""),
    "momentum --E-eV 1 --d-nm 0.1": (0, ""),
    "times --E-eV 1 --d-nm 0.1": (0, ""),
    "depth --E-eV 1 --d-nm 0.1": (0, ""),
}


def point_argvs() -> list[list[str]]:
    rng = random.Random(706_3510)
    points = []
    for _ in range(40):
        v0 = rng.uniform(1.0, 20.0)
        e_ev = v0 * rng.uniform(max(0.01, 0.1 / v0), 0.99)
        d_nm = rng.uniform(0.05, 3.0)
        points.append(["--E-eV", repr(e_ev), "--V0-eV", repr(v0), "--d-nm", repr(d_nm)])
    points += [["--E-eV", e, "--d-nm", d, *extra] for e, d, extra, _ in SPECIAL]
    return [[command, *point] for point in points for command in COMMANDS]


def run(argv: list[str]) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def outcome(argv: list[str]) -> list:
    code, out, _ = run(argv)
    return [code, hashlib.sha256(out.encode()).hexdigest()]


PINS = json.loads(PINS_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", point_argvs(), ids=" ".join)
def test_point_command_output_is_pinned(argv):
    assert outcome(argv) == PINS[" ".join(argv)]


def test_pins_hold_the_documented_exit_codes():
    for e_ev, d_nm, extra, codes in SPECIAL:
        for command, code in zip(COMMANDS, codes):
            argv = [command, "--E-eV", e_ev, "--d-nm", d_nm, *extra]
            assert PINS[" ".join(argv)][0] == code, argv


@pytest.mark.parametrize("argv", sorted(STDERR), ids=str)
def test_failure_path_stderr_is_pinned(argv):
    code, _, err = run(argv.split())
    assert (code, err) == STDERR[argv]


def test_the_stderr_pins_cover_each_special_input():
    argvs = [
        " ".join([command, "--E-eV", e_ev, "--d-nm", d_nm, *extra])
        for e_ev, d_nm, extra, _ in SPECIAL
        for command in COMMANDS[1:]
    ]
    assert sorted(argvs) == sorted(STDERR)


if __name__ == "__main__":
    pins = {" ".join(argv): outcome(argv) for argv in point_argvs()}
    PINS_FILE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
