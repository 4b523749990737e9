"""Rectangular-barrier tunneling numerics.

Closed-form stationary scattering, in-barrier momentum spectra and the
effective tunneling time they define, the classic phase/dwell/traversal
times with analytic cross-checks, penetration depths with the energy-time
uncertainty coefficient, and a deterministic CSV sweep engine plus CLI.
"""

__version__ = "0.1.0"

from .barrier import (
    DEFAULT_CUTOFF,
    BarrierProblem,
    StationarySolution,
    Wavenumbers,
    continuity_residual,
    incident_flux,
    stationary_solution,
    wavenumbers,
)
from .constants import (
    CONSTANTS,
    SPEED_OF_LIGHT,
    PhysicalConstants,
    energy_ev_to_si,
    energy_si_to_ev,
    length_nm_to_si,
    length_si_to_nm,
)
from .depth import DEPTH_LEVEL, penetration_depth, relative_density
from .errors import (
    DomainError,
    MissingGridPoint,
    NoConvergence,
    ParseError,
    ValidationError,
)
from .momentum import (
    EffectiveKinematics,
    MomentumSpectrum,
    momentum_amplitude,
    momentum_spectrum,
)
from .records import SweepRecord, SweepTable
from .sweep import (
    SweepConfig,
    emit_figure_data,
    emit_table1,
    evaluate,
    parse_config,
    parse_records,
    records_to_csv,
    run_sweep,
)
from .times import (
    bl_time,
    dwell_time_analytic,
    dwell_time_numeric,
    phase_time_analytic,
    phase_time_numeric,
    shared_denominator,
)
