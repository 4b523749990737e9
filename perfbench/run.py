"""Benchmark of the tunneltimes CLI, driven in-process from one thread.

Run from the repository root:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout the script sits in; no
install step is needed. Every pass calls ``tunneltimes.cli.main(argv)`` with
stdout and stderr captured and figure files written under
``perfbench/_work/``. Only the commands are timed; the output checks run
between passes.

Workloads (a closed loop with one client; only point-queries uses the seed):

* ``paper-figures``: ``table1``, ``sweep`` and ``figures --which all`` on the
  default 5x10 grid, the tool's shipping output. Each command re-runs the
  sweep, and fig1/fig4 re-evaluate every point, so emitter work shows here.
* ``dense-sweep``: ``sweep --config`` on the 99x10 acceptance grid. Point
  evaluation does nearly all the work and emitters are under 1%, so this is
  where evaluation changes show and emitter-only changes must not.
* ``point-queries``: one query runs ``coeffs``, ``momentum``, ``times`` and
  ``depth`` at one seeded random point (V0 in [1, 20] eV, E/V0 in
  [0.01, 0.99] with E at least 0.1 eV, d in [0.05, 3] nm). Points never
  repeat.

Every operation of the three workloads succeeds at this commit. Two known
defects fail on inputs next to that domain, so their failures would make the
failed count of a run depend on how many queries it fits in. They are
therefore read out apart, on a fixed set of points run once before timing
(``KNOWN_DEFECTS``): thick barriers (d of 20 to 60 nm), where sinh overflows
and commands exit 3 or print non-finite cells, and low energies (E of 0.02
to 0.04 eV, d of 2 to 3 nm), where ``times`` exits 3 because its 1e-4 eV
phase stencil and the closed form disagree. The report line and the
per-layer ``known_defect.*`` metrics carry their outcomes by command.

For point-queries a pass is one query. With ``--trace 0`` the last stdout
line carries the end-to-end metrics: ``setup_s`` (median time of several
fresh interpreters importing ``tunneltimes.cli``, spread over the run),
``pass_s`` (median pass time), ``points_per_s`` (grid points of one pass
over the median pass time; a query is one point) and ``peak_rss_mb``. With
``--trace 1`` half the time runs untraced and half traced (see tracing.py),
and the last line carries the per-layer metrics: counts and seconds per pass,
fixed-point probes in microseconds per call, and the tracing overhead. Spans
go to ``perfbench/_work/spans-*.csv``.

The process stays single-threaded: BLAS thread pools are capped at one
thread before numpy loads. Times are scaled to a reference CPU speed. Shared
cloud CPUs change speed by up to 1.8x within seconds, which moves raw pass
times by 25% or more between runs of the same code. A fixed calibration
kernel, shaped like the program's quadrature, therefore runs every 100 ms
from a SIGALRM handler, and each time is multiplied by the mean of
REFERENCE_KERNEL_S over the kernel times sampled while it ran. The report
keeps the raw times. ``setup_s`` stays unscaled wall time: the kernel in this
process does not see the child interpreter's speed, and scaling by it did not
make set-up steadier; sampling pauses while a child runs.

An operation is one CLI command. It fails on a non-zero exit, a non-empty
``error`` cell, or a failed output check: a SHA-256 of the CSV data rows
(the lines not starting with '#') that differs from ``golden.json``, a
table1 depth more than 0.002 nm from the published table, or, on
point-queries, a non-finite cell or S_abs2 + R_abs2 off 1 by more than 1e-5.
A run is correct when no operation fails. The line before the result
(``report {...}``) holds the run metadata, the workload composition, the
known-defect readout, the failures by command, and any mismatching digests
(copy them into golden.json only with a change that announces new data
rows); the same report goes to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

for _pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"

import numpy as np  # noqa: E402  (after the thread caps, which it reads on import)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))

WORKLOADS = ("paper-figures", "dense-sweep", "point-queries")
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6a")
POINT_COMMANDS = ("coeffs", "momentum", "times", "depth")
DENSE_GRID = (
    "E_over_V0_grid=" + ",".join(f"{i / 100:g}" for i in range(1, 100)) + "\n"
    "d_nm_grid=" + ",".join(f"{i / 10:g}" for i in range(1, 11)) + "\n"
)
SETUP_LAUNCHES = 10
#: Below this energy, thin barriers reach the low-energy defect in KNOWN_DEFECTS.
QUERY_MIN_E_EV = 0.1
#: Fixed (E eV, V0 eV, d nm) points of two known defects, read out once per
#: run. thick: sinh(kappa d) overflows. low_e: the phase stencil and the
#: closed form of ``times`` disagree beyond the cross-check.
KNOWN_DEFECTS = {
    "thick": [(r * v0, v0, d) for v0 in (1.0, 5.0, 10.0, 20.0) for r in (0.1, 0.5, 0.9)
              for d in (20.0, 40.0, 60.0)],
    "low_e": [(e, v0, d) for v0 in (1.0, 1.5, 2.0) for e in (0.02, 0.03, 0.04)
              for d in (2.0, 2.5, 3.0)],
}
DEPTH_TOL_NM = 0.002
FLUX_TOL = 1e-5
PROBE_V0_EV = 10.0
PROBE_POINTS = {"E5_d1": (5.0, 1.0), "E0p1_d1": (0.1, 1.0)}
PROBE_SECONDS = 0.15


class SpeedSampler:
    """Samples CPU speed by timing a fixed kernel every PERIOD_S seconds.

    The kernel is an interpreted loop plus a closed-form amplitude squared
    and summed on 16001 points, the shape and size of the program's own
    quadrature; smaller kernels that stay in the first-level cache tracked
    the program's speed worse.
    """

    PERIOD_S = 0.1
    #: Kernel time that defines reference speed (about a 2-core cloud VM's median).
    REFERENCE_KERNEL_S = 1.8e-3
    #: Fewest samples a scale is taken over; short intervals borrow earlier ones.
    MIN_SAMPLES = 5

    def __init__(self):
        self.samples: list[float] = []
        self._ks = np.linspace(-7.5, 7.5, 16001)

    def kernel(self, *_signal_args) -> None:
        start = time.perf_counter()
        acc = 0.0
        for i in range(600):
            acc += i * 0.5
        grow = 1.0 - 1j * self._ks
        decay = 1.0 + 1j * self._ks
        amp = (0.3 + 0.1j) * (np.exp(0.5 * grow) - 1.0) / grow + (0.2 - 0.4j) * (
            1.0 - np.exp(-0.5 * decay)
        ) / decay
        float(np.dot(np.abs(amp) ** 2, self._ks))
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedSampler:
        for _ in range(self.MIN_SAMPLES):
            self.kernel()
        signal.signal(signal.SIGALRM, self.kernel)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling, so a child process neither competes with nor skews it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def scale(self, since: int) -> float:
        """Mean measured speed, relative to reference, since sample ``since``.

        Samples are evenly spaced in time, so the mean of the per-sample
        speeds (reference over kernel time) weights each moment equally.
        """
        window = self.samples[min(since, len(self.samples) - self.MIN_SAMPLES):]
        return statistics.fmean(self.REFERENCE_KERNEL_S / k for k in window)


@dataclass
class Command:
    """One CLI invocation and what it produced."""

    name: str
    rc: int
    stdout: str
    seconds: float


@dataclass
class Pass:
    """One timed pass (one query on point-queries) and its check verdicts."""

    commands: list[Command]
    points: int
    failures: list[tuple[str, str]] = field(default_factory=list)
    bytes_written: int = 0
    scale: float = 1.0

    @property
    def wall_s(self) -> float:
        return sum(c.seconds for c in self.commands)

    @property
    def seconds(self) -> float:
        """Pass time at reference CPU speed."""
        return self.wall_s * self.scale


class Tally:
    """What a run keeps of its passes: times and verdicts, not outputs, so
    the benchmark's own memory does not grow with the number of passes."""

    def __init__(self):
        self.seconds = array("d")  # at reference speed
        self.wall = array("d")
        self.scales = array("d")
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.failures: Counter = Counter()

    def add(self, p: Pass) -> None:
        self.seconds.append(p.seconds)
        self.wall.append(p.wall_s)
        self.scales.append(p.scale)
        self.points = p.points
        self.attempted += len(p.commands)
        self.failed += len({name for name, _ in p.failures})
        self.bytes_written += p.bytes_written
        self.failures.update(f"{name}: {reason}" for name, reason in p.failures)


def data_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def digest(text: str) -> str:
    return hashlib.sha256("".join(r + "\n" for r in data_rows(text)).encode()).hexdigest()


def parse_csv(text: str) -> list[dict[str, str]]:
    header, *rows = data_rows(text)
    names = header.split(",")
    return [dict(zip(names, row.split(","), strict=True)) for row in rows]


class Workload:
    """Generates passes, runs them through the CLI and checks their output."""

    def __init__(self, name: str, seed: int):
        from tunneltimes import cli

        self.name = name
        self.cli = cli
        self.rng = random.Random(seed)
        self.mismatches: dict[str, str] = {}
        self.mix: Counter = Counter()
        self.fig_dir = WORK / "figs"
        self.config = WORK / "dense.cfg"
        self.fig_dir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(DENSE_GRID, encoding="utf-8")

    def call(self, argv: list[str]) -> Command:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception:  # an escaped exception is a failed operation
                traceback.print_exc()
                rc = -1
        seconds = time.perf_counter() - start
        return Command(argv[0], rc, out.getvalue(), seconds)

    def run_pass(self) -> Pass:
        if self.name == "paper-figures":
            for stale in self.fig_dir.glob("*.csv"):
                stale.unlink()
            argvs = [["table1"], ["sweep"], ["figures", "--which", "all", "--out-dir", str(self.fig_dir)]]
            p = Pass([self.call(a) for a in argvs], points=150)
        elif self.name == "dense-sweep":
            p = Pass([self.call(["sweep", "--config", str(self.config)])], points=990)
        else:
            p = self.run_query()
        self.check(p)
        return p

    def check(self, p: Pass) -> None:
        for cmd in p.commands:
            p.bytes_written += len(cmd.stdout.encode())
            if cmd.rc != 0:
                p.failures.append((cmd.name, f"exit {cmd.rc}"))
                continue
            try:
                if self.name == "point-queries":
                    self.check_point(p, cmd)
                else:
                    self.check_grid(p, cmd)
            except (ValueError, KeyError) as exc:
                p.failures.append((cmd.name, f"unparseable output ({exc})"))

    # --- grid workloads ------------------------------------------------------

    def check_digest(self, p: Pass, key: str, command: str, text: str) -> None:
        got = digest(text)
        if got != GOLDEN["digests"][self.name].get(key):
            self.mismatches[key] = got
            p.failures.append((command, f"{key} data-row digest mismatch"))

    def check_grid(self, p: Pass, cmd: Command) -> None:
        if cmd.name == "figures":
            for fig in FIGURES:
                path = self.fig_dir / f"{fig}.csv"
                if not path.exists():
                    p.failures.append((cmd.name, f"{fig}.csv not written"))
                    continue
                text = path.read_text(encoding="utf-8")
                p.bytes_written += len(text.encode())
                self.check_digest(p, fig, cmd.name, text)
            return
        self.check_digest(p, cmd.name, cmd.name, cmd.stdout)
        rows = parse_csv(cmd.stdout)
        if cmd.name == "table1":
            self.check_table1(p, rows)
            return
        if any(row["error"] for row in rows):
            p.failures.append((cmd.name, "non-empty error cell"))
        self.mix["points"] += len(rows)
        self.mix["no_crossing"] += sum("no_crossing" in r["note"] for r in rows)
        self.mix["phase_stencil_clipped"] += sum("phase_stencil_clipped" in r["note"] for r in rows)

    def check_table1(self, p: Pass, rows: list[dict[str, str]]) -> None:
        got = {(r["E_over_V0"], r["d_nm"]): float(r["s_nm"]) for r in rows}
        worst = 0.0
        for e_ratio, depths in GOLDEN["table1_depths_nm"].items():
            for d_nm, want in zip(GOLDEN["table1_d_nm"], depths):
                worst = max(worst, abs(got.get((e_ratio, d_nm), math.inf) - want))
        if not (len(got) == 45 and worst <= DEPTH_TOL_NM):
            p.failures.append(("table1", f"depth off the published table by {worst:.4g} nm"))

    # --- point queries -------------------------------------------------------

    def run_query(self) -> Pass:
        v0 = self.rng.uniform(1.0, 20.0)
        ratio = self.rng.uniform(max(0.01, QUERY_MIN_E_EV / v0), 0.99)
        d_nm = self.rng.uniform(0.05, 3.0)
        self.mix["queries"] += 1
        return self.query(ratio * v0, v0, d_nm)

    def query(self, e_ev: float, v0_ev: float, d_nm: float) -> Pass:
        point = ["--E-eV", repr(e_ev), "--V0-eV", repr(v0_ev), "--d-nm", repr(d_nm)]
        return Pass([self.call([c, *point]) for c in POINT_COMMANDS], points=1)

    def known_defects(self) -> dict:
        """Outcomes of the KNOWN_DEFECTS points, untimed; no workload operation."""
        out = {}
        for name, points in KNOWN_DEFECTS.items():
            failures: Counter = Counter()
            failed = 0
            for point in points:
                p = self.query(*point)
                self.check(p)
                failed += bool(p.failures)
                failures.update(f"{cmd}: {reason}" for cmd, reason in p.failures)
            out[name] = {"queries": len(points), "failed_queries": failed, "failures": dict(failures)}
        self.mix.clear()  # the checks counted these points' no_crossing rows
        return out

    def check_point(self, p: Pass, cmd: Command) -> None:
        (row,) = parse_csv(cmd.stdout)
        if not all(math.isfinite(float(v)) for v in row.values() if v != ""):
            p.failures.append((cmd.name, "non-finite cell"))
        if cmd.name == "coeffs" and abs(float(row["S_abs2"]) + float(row["R_abs2"]) - 1.0) > FLUX_TOL:
            p.failures.append((cmd.name, "S_abs2 + R_abs2 != 1"))
        if cmd.name == "depth" and row["s_nm"] == "":
            self.mix["no_crossing"] += 1


def measure(
    workload: Workload, seconds: float, sampler: SpeedSampler, tracer=None, setup=None
) -> Tally:
    """Run passes back to back until ``seconds`` have elapsed (at least one).

    With a ``setup`` list, set-up launches are spread evenly over the run,
    between passes, and their times appended to it.
    """
    tally = Tally()
    start = time.perf_counter()
    while not tally.seconds or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.run_id = len(tally.seconds)
        since = len(sampler.samples)
        p = workload.run_pass()
        p.scale = sampler.scale(since)
        tally.add(p)
        if setup is not None and len(setup) < SETUP_LAUNCHES * (time.perf_counter() - start) / seconds:
            with sampler.paused():
                setup.append(setup_launch())
    with sampler.paused():
        while setup is not None and len(setup) < SETUP_LAUNCHES:
            setup.append(setup_launch())
    return tally


def warm_up(workload: Workload) -> None:
    """Run every command once, untimed and unchecked, so lazy set-up is done."""
    workload.call(["table1"])
    workload.call(["sweep"])
    workload.call(["figures", "--which", "all", "--out-dir", str(workload.fig_dir)])
    for command in POINT_COMMANDS:
        workload.call([command, "--E-eV", "5", "--d-nm", "1"])


def setup_launch() -> float:
    """Wall time from a fresh interpreter to tunneltimes.cli imported."""
    script = "import tunneltimes.cli, time, tunneltimes\nprint(time.perf_counter(), tunneltimes.__file__)\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    stamp, where = done.stdout.split(maxsplit=1)
    if not Path(where.strip()).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: set-up imported tunneltimes from {where.strip()}")
    return float(stamp) - start


def probe_metrics(sampler: SpeedSampler) -> dict[str, float]:
    """Per-call microseconds of the named layer functions at fixed points."""
    from tunneltimes.barrier import BarrierProblem, stationary_solution
    from tunneltimes.depth import penetration_depth
    from tunneltimes.momentum import momentum_spectrum
    from tunneltimes.times import dwell_time_numeric, phase_time_numeric

    layers = {
        "stationary_solution": stationary_solution,
        "spectrum_kinematics": lambda p: momentum_spectrum(p).kinematics(),
        "phase_time_numeric": phase_time_numeric,
        "dwell_time_numeric": dwell_time_numeric,
        "penetration_depth": penetration_depth,
    }
    out = {}
    for label, (e_ev, d_nm) in PROBE_POINTS.items():
        problem = BarrierProblem.from_ev_nm(e_ev, PROBE_V0_EV, d_nm)
        for layer, fn in layers.items():
            since = len(sampler.samples)
            us = per_call_us(lambda: fn(problem))
            out[f"probe.{label}.{layer}_us"] = us * sampler.scale(since)
    return out


def per_call_us(fn) -> float:
    """Median per-call time over batches of at least a millisecond each."""
    start = time.perf_counter()
    fn()
    batch = max(1, int(1e-3 / max(time.perf_counter() - start, 1e-7)))
    samples = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(samples) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples) * 1e6


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")),
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def percentile(values: list[float], q: int) -> float | None:
    """The q-th percentile, or None with fewer than 10 samples beyond it."""
    if len(values) * (100 - q) < 1000:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(tally: Tally, workload: Workload, setup: list[float]) -> tuple[dict, dict]:
    """The gated end-to-end metrics, plus extra readouts for the report."""
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "pass_s": (statistics.median(tally.seconds), "s", len(tally.seconds)),
        "points_per_s": (tally.points / statistics.median(tally.seconds), "1/s", len(tally.seconds)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    extra = {
        "pass_wall_s": statistics.median(tally.wall),
        "speed_scale_min_median_max": [
            min(tally.scales), statistics.median(tally.scales), max(tally.scales)
        ],
    }
    if workload.name == "point-queries":
        ms = [s * 1e3 for s in tally.seconds]
        extra |= {
            "query_p50_ms": statistics.median(ms),
            "query_p95_ms": percentile(ms, 95),
            "queries_per_s": len(tally.seconds) / sum(tally.seconds),
        }
    return metrics, extra


#: Self-time metrics and the spans each one sums.
LAYER_SELF = {
    "momentum.momentum_spectrum.self_s": ["momentum.momentum_spectrum"],
    "momentum.kinematics.self_s": ["momentum.kinematics"],
    "momentum.momentum_amplitude.self_s": ["momentum.momentum_amplitude"],
    "numerics.integrate.self_s": ["numerics.integrate"],
    "depth.penetration_depth.self_s": ["depth.penetration_depth"],
    "numerics.find_first_crossing.self_s": ["numerics.find_first_crossing"],
    "depth.relative_density.self_s": ["depth.relative_density"],
    "barrier.psi_barrier.self_s": ["barrier.psi_barrier"],
    "times.dwell_time_numeric.self_s": ["times.dwell_time_numeric"],
    "times.phase_time_numeric.self_s": ["times.phase_time_numeric"],
    "times.analytic.self_s": ["times.phase_time_analytic", "times.dwell_time_analytic", "times.bl_time"],
    "times.time_report.self_s": ["times.time_report"],
    "barrier.stationary_solution.self_s": ["barrier.stationary_solution"],
    "sweep.evaluate_point.self_s": ["sweep.evaluate_point"],
    "cli.main.self_s": ["cli.main"],
    "cli.build_parser.self_s": ["cli.build_parser"],
}
LAYER_CALLS = (
    "momentum.momentum_spectrum",
    "numerics.integrate",
    "numerics.find_first_crossing",
    "depth.relative_density",
    "numerics.differentiate_phase",
    "barrier.stationary_solution",
)
LAYER_INCLUSIVE = (
    "sweep.run_sweep",
    "sweep.records_to_csv",
    "sweep.emit_table1",
    *(f"sweep.emit_figure_data.{fig}" for fig in FIGURES),
    "sweep.parse_config",
)


def per_layer(tracer, traced: Tally, untraced: Tally) -> dict:
    """Per-layer metrics, each per pass (per query on point-queries)."""
    summary = tracer.summary(traced.scales)
    n = len(traced.seconds)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    metrics = {key: (sum(get(s, "self_s") for s in spans) / n, "s") for key, spans in LAYER_SELF.items()}
    listed = {s for spans in LAYER_SELF.values() for s in spans}
    metrics["trace.other.self_s"] = (
        sum(v["self_s"] for k, v in summary.items() if k not in listed) / n, "s")
    metrics["trace.self_sum_share"] = (
        sum(v["self_s"] for v in summary.values()) / sum(traced.seconds), "ratio")
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced.seconds) / statistics.median(untraced.seconds), "ratio")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (get(name, "calls") / n, "count")
    for name in LAYER_INCLUSIVE:
        metrics[f"{name}.s"] = (get(name, "s") / n, "s")
    evals = get("sweep.evaluate_point", "calls")
    metrics["sweep.evaluate_point.us_per_point"] = (
        get("sweep.evaluate_point", "s") / evals * 1e6 if evals else 0.0, "us")
    depths = get("depth.penetration_depth", "calls")
    metrics["depth.no_crossing_share"] = (
        tracer.counts["depth.penetration_depth.none"] / depths if depths else 0.0, "ratio")
    for counter in ("momentum.amplitude.samples", "numerics.integrate.samples"):
        metrics[counter] = (tracer.counts[counter] / n, "count")
    metrics["cli.bytes_written"] = (traced.bytes_written / n, "bytes")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tunneltimes" / "cli.py").is_file():
        print(f"perfbench: no tunneltimes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tunneltimes

    if not Path(tunneltimes.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported tunneltimes from {tunneltimes.__file__}", file=sys.stderr)
        return 2

    workload = Workload(args.workload, args.seed)
    warm_up(workload)
    defects = workload.known_defects()
    setup_launch()  # untimed, so bytecode caches exist
    with SpeedSampler() as sampler:
        if args.trace:
            from tracing import Tracer

            probes = probe_metrics(sampler)
            untraced = measure(workload, args.seconds / 2, sampler)
            tracer = Tracer()
            replaced = tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, sampler, tracer)
            finally:
                tracer.restore(replaced)
            tallies = [untraced, traced]
            metrics = per_layer(tracer, traced, untraced)
            metrics |= {k: (v, "us") for k, v in probes.items()}
            for name, readout in defects.items():
                share = readout["failed_queries"] / readout["queries"]
                metrics[f"known_defect.{name}.failed_query_share"] = (share, "ratio")
        else:
            setup: list[float] = []
            tallies = [measure(workload, args.seconds, sampler, setup=setup)]
    if args.trace:
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans_file)
        extra = {
            "spans_file": str(spans_file.relative_to(ROOT)),
            "spans": len(tracer.spans),
            "traced_passes": len(traced.seconds),
            "untraced_passes": len(untraced.seconds),
        }
    else:
        e2e, extra = end_to_end(tallies[0], workload, setup)
        metrics = {k: (v, unit) for k, (v, unit, _) in e2e.items()}
        extra["samples"] = {k: n for k, (_, _, n) in e2e.items()}

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = sum((t.failures for t in tallies), Counter())
    correct = failed == 0
    mix = dict(workload.mix)
    if mix.get("points"):
        mix["no_crossing_share"] = mix["no_crossing"] / mix["points"]
        mix["phase_stencil_clipped_share"] = mix["phase_stencil_clipped"] / mix["points"]
    if mix.get("queries"):
        mix["no_crossing_share"] = mix.get("no_crossing", 0) / mix["queries"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tunneltimes": tunneltimes.__version__,
        "commit": git_commit(),
        "passes": sum(len(t.seconds) for t in tallies),
        "queries": mix.get("queries", 0),
        "failed_ratio": {"failed": failed, "attempted": attempted, "value": failed / attempted},
        "failures_by_command": dict(failures),
        "digest_mismatches": workload.mismatches,
        "composition": mix,
        "known_defects": defects,
        **extra,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps({"report": report, **result}, indent=1), encoding="utf-8")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
