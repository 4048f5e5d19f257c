"""spinlift: multi-level (spin-j) quantum control methods generated from
two-level primitives via the SU(2) correspondence, with simulation of the
resulting dynamics and the measurement-statistics inference pipeline."""

from .spin import (
    SpinliftError,
    DimensionError,
    NormalizationError,
    UnknownStateError,
    StateVector,
    SpinOperators,
    Unitary,
    angular_momentum_ops,
    rotation_unitary,
    lift_unitary,
    lift_matrices,
    named_state,
    basis_state,
    state_fidelity,
    phase_aligned_deviation,
)
from .waveforms import (
    ScheduleError,
    blackman_detuning,
    blackman_rabi,
    lab_frame_chirp,
    ConstantSegment,
    BlackmanTransferSegment,
    ControlSchedule,
    AdiabaticParams,
    CompositeSequence,
    bb1_sequence,
    adiabatic_method,
    composite_method,
    square_pulse,
    MultiLevelDrive,
    lift_schedule,
)
from .dynamics import (
    IntegratorError,
    IntegratorConfig,
    Trajectory,
    propagate,
    propagator,
    propagators,
    eigen_scan,
)
from .inference import (
    FitSingularError,
    MeasurementModel,
    FringeData,
    FitResult,
    detection_map,
    sample_counts,
    ml_estimate_single,
    ml_fit_fringe,
    fringe_prediction,
    infidelity_per_op,
)
from .experiments import (
    NOMINAL_ADIABATIC,
    RAMSEY_ADIABATIC,
    NoiseParams,
    ScenarioReport,
    DressedDrive,
    run_adiabatic_transfer,
    run_tbb1,
    sweep_pulse_area,
    measure_fidelity_vs_n,
    static_error_infidelity,
    run_ramsey_dressed_qubit,
    verify_reversal,
    rotation_cycle_check,
)

__version__ = "0.1.0"
