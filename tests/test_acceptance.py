"""End-to-end acceptance checks.

One test per shipping criterion, each printing a single pass/fail line (run
pytest with -s to see them). Tolerances are pinned here and nowhere else;
computations go through the public API exactly as a user would drive it.
"""

import math
import time

import numpy as np

from oracles import (
    REFERENCE_DEPTHS_NM,
    TABLE_D_NM,
    continuity_residual,
    integrate,
    transmission_reference,
)
from tunneltimes.barrier import BarrierProblem, stationary_solution
from tunneltimes.constants import energy_si_to_ev, length_si_to_nm
from tunneltimes.depth import penetration_depth
from tunneltimes.momentum import momentum_amplitude, momentum_spectrum
from tunneltimes.sweep import (
    FIGURE_IDS,
    SweepConfig,
    emit_figure_data,
    emit_table1,
    evaluate,
    records_to_csv,
    run_sweep,
)
from tunneltimes.times import dwell_time_numeric, phase_time_numeric

V0_EV = 10.0
DENSE_E_RATIOS = [i / 100.0 for i in range(1, 100)]  # 0.01 .. 0.99
D_GRID_NM = [i / 10.0 for i in range(1, 11)]  # 0.1 .. 1.0


def report(ok: bool, line: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


def dense_solutions():
    for e_ratio in DENSE_E_RATIOS:
        for d_nm in D_GRID_NM:
            yield stationary_solution(
                BarrierProblem.from_ev_nm(V0_EV * e_ratio, V0_EV, d_nm)
            )


def test_01_depth_table_reproduction():
    started = time.perf_counter()
    worst = 0.0
    for e_ratio, row in REFERENCE_DEPTHS_NM.items():
        for d_nm, want_nm in zip(TABLE_D_NM, row):
            depth = penetration_depth(
                BarrierProblem.from_ev_nm(V0_EV * e_ratio, V0_EV, d_nm)
            )
            worst = max(worst, abs(length_si_to_nm(depth) - want_nm))
    elapsed = time.perf_counter() - started
    report(
        worst <= 0.002 and elapsed < 10.0,
        f"all 45 depth-table entries within 0.002 nm (worst {worst:.4f} nm, "
        f"{elapsed:.2f} s)",
    )


def test_02_flux_conservation():
    worst = max(
        abs(sol.transmission + sol.reflection - 1.0) for sol in dense_solutions()
    )
    report(
        worst <= 1e-12,
        f"|S|^2 + |R|^2 = 1 to 1e-12 on the 99x10 grid (worst {worst:.2e})",
    )


def test_03_transmission_oracle():
    worst = 0.0
    for sol in dense_solutions():
        p = sol.problem
        ref = transmission_reference(
            energy_si_to_ev(p.energy), V0_EV, length_si_to_nm(p.thickness)
        )
        worst = max(worst, abs(sol.transmission - ref) / ref)
    report(
        worst <= 1e-12,
        f"transmission matches the independent closed form to 1e-12 relative "
        f"(worst {worst:.2e})",
    )


def test_04_continuity_certification():
    worst = max(max(continuity_residual(sol)) for sol in dense_solutions())
    report(
        worst < 1e-10,
        f"all four boundary residuals below 1e-10 on the 99x10 grid "
        f"(worst {worst:.2e})",
    )


def test_05_numeric_vs_analytic_times():
    worst_phase = worst_dwell = 0.0
    for e_pct in range(5, 96, 5):  # E/V0 in [0.05, 0.95]
        for d_nm in D_GRID_NM:
            p = BarrierProblem.from_ev_nm(V0_EV * e_pct / 100.0, V0_EV, d_nm)
            rec, _ = evaluate(p, SweepConfig(v0_ev=V0_EV))
            phase_gap = abs(phase_time_numeric(p) - rec.t_ph_analytic_s)
            dwell_gap = abs(dwell_time_numeric(p) - rec.t_dw_analytic_s)
            worst_phase = max(worst_phase, phase_gap / rec.t_ph_analytic_s)
            worst_dwell = max(worst_dwell, dwell_gap / rec.t_dw_analytic_s)
    report(
        worst_phase <= 1e-6 and worst_dwell <= 1e-6,
        f"phase and dwell routes agree to 1e-6 relative "
        f"(worst phase {worst_phase:.2e}, worst dwell {worst_dwell:.2e})",
    )


def test_06_saturation_of_phase_and_dwell_times():
    changes = []
    for fn in (phase_time_numeric, dwell_time_numeric):
        at_09 = fn(BarrierProblem.from_ev_nm(5.0, V0_EV, 0.9))
        at_10 = fn(BarrierProblem.from_ev_nm(5.0, V0_EV, 1.0))
        changes.append(abs(at_10 - at_09) / at_09)
    report(
        max(changes) < 1e-3,
        f"phase/dwell times move < 0.1% from d = 0.9 to 1.0 nm at 5 eV "
        f"(worst {max(changes):.2e})",
    )


def test_07_no_superluminal_rms_velocity():
    fastest = 0.0
    for e_ratio in DENSE_E_RATIOS:
        for d_nm in D_GRID_NM:
            p = BarrierProblem.from_ev_nm(V0_EV * e_ratio, V0_EV, d_nm)
            fastest = max(fastest, momentum_spectrum(p).kinematics().v_rms)
    report(
        fastest < 2.9979e8,
        f"rms velocity stays subluminal on the 99x10 grid "
        f"(fastest {fastest:.4e} m/s)",
    )


def test_08_uncertainty_coefficient_range():
    low = math.inf
    high = -math.inf
    for e_ratio in REFERENCE_DEPTHS_NM:
        for d_nm in TABLE_D_NM:
            rec, _ = evaluate(
                BarrierProblem.from_ev_nm(V0_EV * e_ratio, V0_EV, d_nm),
                SweepConfig(v0_ev=V0_EV),
            )
            xi = rec.xi
            low = min(low, xi)
            high = max(high, xi)
    report(
        1.5 < low and high <= 5.0,
        f"uncertainty coefficient within (1.5, 5] on the depth-table grid "
        f"(range [{low:.3f}, {high:.3f}])",
    )


def test_09_deep_tunneling_energy_limit():
    problem = BarrierProblem.from_ev_nm(0.1, V0_EV, 1.0)
    kin = momentum_spectrum(problem).kinematics()
    total_ev = energy_si_to_ev(kin.eps_eff) + V0_EV
    ok = abs(total_ev - 34.102) <= 0.02 * 34.102
    if not ok:
        # the limit is window-sensitive; a failure must come with the
        # sensitivity table, never with a silently tuned cutoff
        print("cutoff sensitivity of eps_eff + V0 at E/V0 = 0.01, d = 1 nm:")
        for factor in (0.5, 0.75, 1.0, 1.25, 1.5):
            scaled = BarrierProblem.from_ev_nm(
                0.1, V0_EV, 1.0, cutoff=factor * problem.cutoff
            )
            value = energy_si_to_ev(momentum_spectrum(scaled).kinematics().eps_eff)
            print(f"  {factor:4.2f} * default window -> {value + V0_EV:.3f} eV")
    report(
        ok,
        f"eps_eff + V0 = {total_ev:.3f} eV at the deep-tunneling point "
        f"(reference 34.102 eV, tolerance 2%)",
    )


def test_10_momentum_amplitude_closed_form_vs_quadrature():
    sqrt_two_pi = math.sqrt(2.0 * math.pi)
    worst = 0.0
    for e_ratio in REFERENCE_DEPTHS_NM:
        for d_nm in D_GRID_NM:
            p = BarrierProblem.from_ev_nm(V0_EV * e_ratio, V0_EV, d_nm)
            sol = stationary_solution(p)
            for wavenumber in (-p.cutoff, -p.cutoff / 2, 0.0, p.cutoff / 2, p.cutoff):
                closed = momentum_amplitude(sol, wavenumber)
                real = integrate(
                    lambda x: np.real(np.exp(-1j * wavenumber * x) * sol.psi_barrier(x)),
                    0.0,
                    p.thickness,
                ) / sqrt_two_pi
                imag = integrate(
                    lambda x: np.imag(np.exp(-1j * wavenumber * x) * sol.psi_barrier(x)),
                    0.0,
                    p.thickness,
                ) / sqrt_two_pi
                worst = max(
                    worst,
                    abs(closed.real - real) / abs(closed.real),
                    abs(closed.imag - imag) / abs(closed.imag),
                )
    report(
        worst <= 1e-8,
        f"closed-form momentum amplitude matches quadrature to 1e-8 relative "
        f"per part (worst {worst:.2e})",
    )


def test_11_byte_identical_sweep_output():
    cfg = SweepConfig()

    def produce() -> str:
        records = run_sweep(cfg)
        chunks = [records_to_csv(records, cfg), emit_table1(records, cfg)]
        chunks += [emit_figure_data(records, fig, cfg) for fig in FIGURE_IDS]
        return "\n".join(chunks)

    first = produce()
    second = produce()
    report(
        first == second,
        f"two full sweep runs emit byte-identical CSV ({len(first)} bytes)",
    )
