"""Scenario runners reproducing the adiabatic / composite transfer experiments
in silico: trajectories, robustness sweeps, the fringe-based fidelity pipeline,
the dressed-qubit Ramsey test and the qudit amplitude-reversal checks.
Runners take rad/s and seconds and return a ScenarioReport; the scenario
table spinlift.cli.SCENARIOS declares each scenario's keys and calls them.

Noise model: each field error is a term added to the lifted Hamiltonian
Lambda(t) . J of the spin-1 block (DressedDrive builds the MultiLevelDrive):

    H = g Omega_half (cos chi Jx + sin chi Jy) + (delta_half + z) Jz
        - eps g Omega_half (cos chi {Jz, Jx} + sin chi {Jz, Jy}) + e Jz^2

A common amplitude error delta_omega is the gain g = 1 + delta_omega /
omega0 and a quasi-static Zeeman shift +/-z on the |+-1> levels adds to
delta_half; both keep the SU(2) symmetry.  The fractional Rabi mismatch eps
(field amplitudes (1 +/- eps)) and the common static per-field detuning
offset e break it.  The Zeeman shift is Gaussian, constant over one transfer
operation and drawn independently per operation and per shot; averages over
it are taken with Gauss-Hermite quadrature.  Averaged so, one transfer
operation is a mixed-unitary channel, kept as its Kraus stack sqrt(w_n) U_n
over the quadrature nodes (_transfer_channel), and the averaged density
matrix goes through each operation as one batched conjugation
(_apply_channel).  The adiabatic reverse transfer is the time mirror of the
forward one with chi = 0, so its Hamiltonian is real and each of its
unitaries is the forward one's transpose: its Kraus stack is the forward
stack transposed, not propagated again (_transfer_channels).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict, replace
from typing import Sequence

import numpy as np

from .spin import (
    SpinliftError,
    lift_unitary,
    named_state,
    rotation_unitary,
    state_fidelity,
    phase_aligned_deviation,
)
from .waveforms import (
    AdiabaticParams,
    CompositeSequence,
    ControlSchedule,
    adiabatic_method,
    bb1_sequence,
    composite_method,
    MultiLevelDrive,
    lift_schedule,
    square_pulse,
    TWO_PI,
)
from .dynamics import (
    _MAX_BUILD_STEPS,
    IntegratorConfig,
    IntegratorError,
    _population_columns,
    _write_atomic,
    _write_csv,
    propagate,
    propagator,
    propagators,
)
from .inference import (
    FitResult,
    FitSingularError,
    FringeData,
    MeasurementModel,
    detection_map,
    fringe_prediction,
    infidelity_per_op,
    ml_estimate_single,
    ml_fit_fringe,
    sample_counts,
)

__all__ = [
    "NOMINAL_ADIABATIC",
    "RAMSEY_ADIABATIC",
    "NoiseParams",
    "ScenarioReport",
    "DressedDrive",
    "zeeman_quadrature",
    "transfer_schedules",
    "run_adiabatic_transfer",
    "run_tbb1",
    "sweep_pulse_area",
    "measure_fidelity_vs_n",
    "static_error_infidelity",
    "run_ramsey_dressed_qubit",
    "verify_reversal",
    "rotation_cycle_check",
    "run_fringe_experiment",
]

# Optimal Blackman-profile parameters of the modeled ion experiment.
NOMINAL_ADIABATIC = AdiabaticParams(
    omega0=TWO_PI * 40e3,
    delta0=TWO_PI * 60e3,
    t_omega=200e-6,
    t_delta=300e-6,
    t_hold=400e-6,
    direction="round-trip",
)

# Measured per-operation infidelities of the modeled experiment (hardware-noise
# dominated).  Recorded as calibration targets for noise-injection studies;
# the simulations here do not attempt to reproduce them from first principles.
REFERENCE_INFIDELITY_PER_OP = {"adiabatic": 1.4e-4, "tbb1": 1.1e-4}

# The Ramsey scenario uses a slower ramp so the zero-noise coherence floor
# sits well below the 1e-6 contrast target (the non-adiabatic leakage of the
# nominal parameters is ~2e-5 per transfer).
RAMSEY_TIME_SCALE = 5.0
RAMSEY_ADIABATIC = AdiabaticParams(
    omega0=NOMINAL_ADIABATIC.omega0,
    delta0=NOMINAL_ADIABATIC.delta0,
    t_omega=NOMINAL_ADIABATIC.t_omega * RAMSEY_TIME_SCALE,
    t_delta=NOMINAL_ADIABATIC.t_delta * RAMSEY_TIME_SCALE,
    t_hold=0.0,
    direction="round-trip",
)

_D3_DARK = named_state(3, "D")
_D3_ZERO = named_state(3, "0")


class ScenarioError(SpinliftError, ValueError):
    """Raised for invalid scenario parameters."""


@dataclass(frozen=True)
class NoiseParams:
    """Field-error model.

    rabi_mismatch: fractional |Omega_1 - Omega_2| / (Omega_1 + Omega_2), in [0, 1]
    common_rabi_error: signed offset applied to the peak Rabi frequency
        (rad/s); DressedDrive needs it smaller in magnitude than that peak
    static_detuning: common per-field detuning offset (rad/s), SU(2)-breaking
    quasi_static_zeeman_sigma: std of the Gaussian +/-z shift on |+-1> (rad/s),
        constant over one transfer operation and drawn afresh for each
        transfer and each shot
    """

    rabi_mismatch: float = 0.0
    common_rabi_error: float = 0.0
    static_detuning: float = 0.0
    quasi_static_zeeman_sigma: float = 0.0

    def __post_init__(self):
        for name in ("rabi_mismatch", "static_detuning", "quasi_static_zeeman_sigma"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be >= 0")
        if self.rabi_mismatch > 1:
            raise ScenarioError("rabi_mismatch must be <= 1 (a field amplitude "
                                "would change sign)")


@dataclass(frozen=True)
class ScenarioReport:
    """Reproducible record of one scenario run."""

    name: str
    seed: int
    inputs: dict
    outputs: dict
    artifacts: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "seed": self.seed, "inputs": self.inputs,
             "outputs": self.outputs, "artifacts": self.artifacts},
            indent=2, sort_keys=True)


def _report(name: str, seed: int, inputs: dict, outputs: dict, out_dir: str | None,
            **csvs) -> ScenarioReport:
    """The scenario's report.  With out_dir, each CSV artifact
    (key=(file name, header, columns)) is written there, then the report
    JSON, which names the artifacts by key."""
    artifacts = {}
    if out_dir is not None:
        for key, (file_name, header, columns) in csvs.items():
            _write_csv(os.path.join(out_dir, file_name), header, columns)
            artifacts[key] = file_name
    report = ScenarioReport(name=name, seed=seed, inputs=inputs, outputs=outputs,
                            artifacts=artifacts)
    if out_dir is not None:
        _write_atomic(os.path.join(out_dir, f"{name}_{seed}.json"), report.to_json())
    return report


# ---------------------------------------------------------------------------
# Noisy dressed drive (three-level V system)
# ---------------------------------------------------------------------------

def DressedDrive(schedule: ControlSchedule, noise: NoiseParams,
                 zeeman: float | np.ndarray, omega0_ref: float) -> MultiLevelDrive:
    """The two-field dressing drive of a two-level schedule under the field
    errors of noise and a Zeeman shift, as a spin-1 MultiLevelDrive; an
    array of shifts makes it a batch with one drive per shift.

    A common Rabi error delta_omega becomes the gain 1 + delta_omega /
    omega0_ref, which must stay in (0, 2): a field that is switched off or
    reversed is not an amplitude error.
    """
    gain = 1.0 + noise.common_rabi_error / omega0_ref
    if abs(noise.common_rabi_error) >= omega0_ref:
        raise ScenarioError(f"need |delta_omega| < omega0: a common Rabi error of "
                            f"{noise.common_rabi_error / TWO_PI:.6g} Hz sets the "
                            f"gain to {gain:.6g}, outside (0, 2)")
    return MultiLevelDrive(dim=3, schedule=schedule, gain=gain, shift=zeeman,
                           rabi_mismatch=noise.rabi_mismatch,
                           static_detuning=noise.static_detuning)


def zeeman_quadrature(sigma: float):
    """(shift, weight) pairs for 21-node Gauss-Hermite averaging over the
    Gaussian Zeeman shift; a single zero node when sigma = 0."""
    if sigma == 0:
        return np.array([0.0]), np.array([1.0])
    x, w = np.polynomial.hermite_e.hermegauss(21)
    return sigma * x, w / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Transfer operations
# ---------------------------------------------------------------------------

def transfer_schedules(method: str, params: AdiabaticParams) -> tuple[ControlSchedule, ControlSchedule]:
    """(forward, reverse) op schedules for 'adiabatic' or 'tbb1', both at
    the peak Rabi frequency params.omega0."""
    if method == "adiabatic":
        fwd, rev = (adiabatic_method(replace(params, t_hold=0.0, direction=direction))
                    for direction in ("forward", "reverse"))
        return fwd, rev
    if method == "tbb1":
        seq = bb1_sequence()
        return composite_method(seq, params.omega0), composite_method(seq.inverse(), params.omega0)
    raise ScenarioError(f"unknown transfer method {method!r}")


def _transfer_channel(schedule: ControlSchedule, noise: NoiseParams, cfg: IntegratorConfig,
                      omega0_ref: float, dim: int) -> np.ndarray:
    """One transfer operation averaged over the Zeeman shift, as its Kraus
    stack sqrt(w_n) U_n, shape (nodes, dim, dim): U_n is the spin-1
    operation unitary at Gauss-Hermite node n of weight w_n, all nodes
    propagated as one batch of drives.  dim = 4 appends the undriven clock
    level |0'> (index 3), so each U_n becomes U_n (+) 1."""
    shifts, weights = zeeman_quadrature(noise.quasi_static_zeeman_sigma)
    units = propagators(DressedDrive(schedule, noise, shifts, omega0_ref), cfg)
    kraus = np.zeros((shifts.size, dim, dim), dtype=complex)
    kraus[:, 3:, 3:] = np.eye(dim - 3)
    kraus[:, :3, :3] = [u.mat for u in units]
    return np.sqrt(weights)[:, None, None] * kraus


def _transfer_channels(method: str, params: AdiabaticParams, noise: NoiseParams,
                       cfg: IntegratorConfig, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The (forward, reverse) Kraus stacks of _transfer_channel for method's
    transfer_schedules.  A reverse that is the forward's time mirror with
    chi = 0 throughout (the adiabatic legs) has a real Hamiltonian under
    every field error, so each of its unitaries is the forward's transpose
    and its stack is the forward's, transposed; any other reverse (TBB1's
    is the inverse sequence) is propagated."""
    fwd_schedule, rev_schedule = transfer_schedules(method, params)
    fwd = _transfer_channel(fwd_schedule, noise, cfg, params.omega0, dim)
    mirrored = rev_schedule == fwd_schedule.mirrored()
    if mirrored and all(s.chi == 0 for s in fwd_schedule.segments):
        return fwd, fwd.swapaxes(-1, -2)
    return fwd, _transfer_channel(rev_schedule, noise, cfg, params.omega0, dim)


def _apply_channel(rho: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """sum_n K_n rho K_n^dagger over the stack axis, the third from last:
    a Kraus stack of shape (*batch, nodes, d, d) gives one state per batch
    index."""
    return np.sum(kraus @ rho @ kraus.conj().swapaxes(-1, -2), axis=-3)


# Most transfer operations one scenario run may apply: one channel over the
# 21 Zeeman nodes takes about 0.02 ms at d = 3 or 4 (2-core Xeon VM, numpy
# 2.4), so 2**14 of them take about 0.3 s.
_MAX_TRANSFERS = 2**14


def _check_transfer_count(n: int) -> None:
    """Refuse a run of more than _MAX_TRANSFERS transfers before any
    propagation."""
    if n > _MAX_TRANSFERS:
        raise ScenarioError(f"{n} transfer operations exceed the limit of {_MAX_TRANSFERS}")


def _transfers(rho: np.ndarray, ops: range, fwd: np.ndarray, rev: np.ndarray) -> np.ndarray:
    """rho after the transfer operations numbered ops, each the channel of
    a Kraus stack: fwd for an even number, rev for an odd one."""
    for k in ops:
        rho = _apply_channel(rho, fwd if k % 2 == 0 else rev)
    return rho


def _dark_fidelity(rho: np.ndarray) -> float:
    """<D|rho|D>, clamped to 1 as spin.state_fidelity is: the trace of a
    state carried through many transfers drifts by rounding."""
    return min(1.0, float(np.real(_D3_DARK.amps.conj() @ rho @ _D3_DARK.amps)))


def _sample_times(total: float, step: float, *nodes: float) -> np.ndarray:
    """Every step from 0 up to total, plus the given nodes and total; a step
    within 4 ulps (of itself) of a given node is that node, rounded, and is
    dropped, so no time is sampled twice.  Each sample time is a forced
    node of every build, so more than _MAX_BUILD_STEPS of them are refused
    before they are allocated."""
    if total / step > _MAX_BUILD_STEPS:
        raise IntegratorError(
            f"sampling {total:.3e} s every {step:.3e} s needs {total / step:.3e} steps per "
            f"build, more than the limit of {_MAX_BUILD_STEPS}", float("nan"))
    grid, given = np.arange(0.0, total, step), np.array([*nodes, total])
    near = np.abs(grid[:, None] - given) <= 4 * np.spacing(grid)[:, None]
    return np.unique(np.concatenate([grid[~near.any(axis=1)], given]))


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def run_adiabatic_transfer(params: AdiabaticParams = NOMINAL_ADIABATIC,
                           noise: NoiseParams = NoiseParams(),
                           cfg: IntegratorConfig = IntegratorConfig(),
                           seed: int = 0,
                           out_dir: str | None = None,
                           sample_step: float = 2.5e-6) -> ScenarioReport:
    """Round-trip adiabatic transfer |0> -> |D> -> (hold) -> |0>: emits the
    P(F=1) trajectory, the mid-point fidelity to |D> and the final fidelity
    to |0> (report fig2e)."""
    schedule = adiabatic_method(replace(params, direction="round-trip"))
    total = schedule.total_duration
    t_mid = params.t_delta
    times = _sample_times(total, sample_step, t_mid)
    shifts, weights = zeeman_quadrature(noise.quasi_static_zeeman_sigma)
    traj = propagate(DressedDrive(schedule, noise, shifts, params.omega0),
                     _D3_ZERO, cfg, times)  # states: (time, Zeeman node, level)
    pops = np.einsum("n,tnk->tk", weights, traj.populations)
    rho_mid, rho_end = (np.einsum("n,ni,nj->ij", weights, psi, psi.conj())
                        for psi in (traj.states[np.searchsorted(times, t_mid)],
                                    traj.states[-1]))
    fid_mid = float(np.real(_D3_DARK.amps.conj() @ rho_mid @ _D3_DARK.amps))
    fid_end = float(np.real(_D3_ZERO.amps.conj() @ rho_end @ _D3_ZERO.amps))
    outputs = {
        "mid_fidelity_to_dark": fid_mid,
        "final_fidelity_to_zero": fid_end,
        "round_trip_infidelity": 1.0 - fid_end,
        "per_op_infidelity": (1.0 - fid_end) / 2.0,
        "total_duration_s": total,
    }
    return _report("fig2e", seed, {"params": _adiabatic_dict(params), "noise": asdict(noise)},
                   outputs, out_dir,
                   trajectory_csv=(f"fig2e_{seed}.csv", *_population_columns(times, pops)))


def _adiabatic_dict(p: AdiabaticParams) -> dict:
    return {"omega0_hz": p.omega0 / TWO_PI, "delta0_hz": p.delta0 / TWO_PI,
            "t_omega_us": p.t_omega * 1e6, "t_delta_us": p.t_delta * 1e6,
            "t_hold_us": p.t_hold * 1e6, "direction": p.direction}


def run_tbb1(delta_omega: float = 0.0,
             cfg: IntegratorConfig = IntegratorConfig(),
             omega0: float = NOMINAL_ADIABATIC.omega0,
             seed: int = 0,
             out_dir: str | None = None) -> ScenarioReport:
    """TBB1 composite transfer with all four pulse amplitudes offset by
    delta_omega, then the DEFAULT_PROTECT_DURATION hold; emits P(F=1)(t)
    and the final fidelity to |D> (report fig3c)."""
    schedule = composite_method(bb1_sequence(), omega0, protect=True)
    noise = NoiseParams(common_rabi_error=delta_omega)
    drive = DressedDrive(schedule, noise, 0.0, omega0)
    total = schedule.total_duration
    times = _sample_times(total, 0.25e-6)
    traj = propagate(drive, _D3_ZERO, cfg, times)
    psi_end = traj.state(len(times) - 1)
    fid = state_fidelity(psi_end, _D3_DARK)
    outputs = {
        "final_fidelity_to_dark": fid,
        "final_infidelity": 1.0 - fid,
        "final_p_f1": float(traj.p_f1[-1]),
        "sequence_duration_us": float(sum(seg.duration for seg in schedule.segments[:-1])) * 1e6,
    }
    return _report("fig3c", seed,
                   {"delta_omega_hz": delta_omega / TWO_PI, "omega0_hz": omega0 / TWO_PI},
                   outputs, out_dir,
                   trajectory_csv=(f"fig3c_{seed}.csv",
                                   *_population_columns(traj.times, traj.populations)))


def sweep_pulse_area(method: str, areas: Sequence[float],
                     cfg: IntegratorConfig = IntegratorConfig(),
                     omega0: float = NOMINAL_ADIABATIC.omega0) -> dict:
    """Final P(F=1) and fidelity to |D> versus normalized pulse area (area 1 is
    the nominal pi/2 operation).  Every segment is constant and resonant, so
    the area acts as a gain on the nominal sequence, which is the same as
    scaling every pulse duration by it; all areas are propagated as one
    batch."""
    areas = np.asarray(areas, dtype=float)
    if np.any(areas <= 0):
        raise ScenarioError("areas must be > 0")
    sequences = {"single": CompositeSequence([(np.pi / 2, np.pi / 2)]),
                 "tbb1": bb1_sequence()}
    if method not in sequences:
        raise ScenarioError(f"unknown sweep method {method!r}")
    drive = MultiLevelDrive(3, composite_method(sequences[method], omega0), gain=areas)
    psis = [u @ _D3_ZERO for u in propagators(drive, cfg)]
    return {"areas": areas, "p_f1": np.array([1.0 - abs(psi.amps[1]) ** 2 for psi in psis]),
            "fidelity_to_dark": np.array([state_fidelity(psi, _D3_DARK) for psi in psis])}


def static_error_infidelity(rabi_mismatch: float, delta_err: float,
                            cfg: IntegratorConfig = IntegratorConfig(),
                            params: AdiabaticParams = NOMINAL_ADIABATIC) -> float:
    """Infidelity 1 - |<D|psi>|^2 of a single forward adiabatic transfer with
    asymmetric field amplitudes Omega(1 +/- eps) and a common per-field
    detuning offset."""
    schedule, _ = transfer_schedules("adiabatic", params)
    noise = NoiseParams(rabi_mismatch=rabi_mismatch, static_detuning=delta_err)
    drive = DressedDrive(schedule, noise, 0.0, params.omega0)
    psi = propagator(drive, cfg) @ _D3_ZERO
    return 1.0 - state_fidelity(psi, _D3_DARK)


def run_static_error(rabi_mismatch: float, delta_err: float,
                     cfg: IntegratorConfig = IntegratorConfig(),
                     params: AdiabaticParams = NOMINAL_ADIABATIC,
                     seed: int = 0, out_dir: str | None = None) -> ScenarioReport:
    """static_error_infidelity and whether it stays below 1e-4 (report
    static-error)."""
    infid = static_error_infidelity(rabi_mismatch, delta_err, cfg, params)
    return _report("static-error", seed,
                   {"rabi_mismatch": rabi_mismatch, "static_detuning_hz": delta_err / TWO_PI},
                   {"infidelity": infid, "pass_1e-4": bool(infid < 1e-4)}, out_dir)


DEFAULT_FRINGE_CHI = np.linspace(0.0, np.pi, 20, endpoint=False)


def run_fringe_experiment(rho: np.ndarray, m: MeasurementModel,
                          rng: np.random.Generator | None = None,
                          exact: bool = False) -> tuple[FringeData, FitResult]:
    """Fringe protocol on a prepared qutrit state: sweep the analysis-pulse
    phase over DEFAULT_FRINGE_CHI, map the |0> population through the
    detection model, draw binomial counts (or use exact expected counts) and
    run the ML fit."""
    return _measured_fringe(fringe_prediction(rho, DEFAULT_FRINGE_CHI), DEFAULT_FRINGE_CHI,
                            m, rng, exact)


def _measured_fringe(p: np.ndarray, chi: np.ndarray, m: MeasurementModel,
                     rng: np.random.Generator | None = None,
                     exact: bool = False) -> tuple[FringeData, FitResult]:
    """The fringe of probabilities p at phases chi as measured under m: the
    detection map, binomial counts (the expected counts when exact; m's own
    generator when rng is None) and the ML fit."""
    q = np.clip(detection_map(np.clip(p, 0.0, 1.0), m), 0.0, 1.0)
    counts = m.shots * q if exact else sample_counts(q, m, rng).astype(float)
    data = FringeData(chi=chi, counts=counts, shots=m.shots)
    return data, ml_fit_fringe(data, m)


def measure_fidelity_vs_n(method: str, ns: Sequence[int], m: MeasurementModel,
                          noise: NoiseParams = NoiseParams(),
                          cfg: IntegratorConfig = IntegratorConfig(),
                          params: AdiabaticParams = NOMINAL_ADIABATIC,
                          seed: int | None = None,
                          out_dir: str | None = None) -> ScenarioReport:
    """Dark-state fidelity versus operation count and the per-operation
    infidelity (report fig4c).

    For each even N, N alternating transfers (forward, reverse, ...) are
    applied followed by one final forward transfer so the fringe protocol
    reads the |D> fidelity; the scaling fit uses the actual map count
    x = N + 1.  Zeeman noise is averaged per operation with Gauss-Hermite
    quadrature (density-matrix channels), which reproduces the exact binomial
    count statistics for independently drawn per-shot, per-operation shifts.
    Each fringe is read at DEFAULT_FRINGE_CHI.
    """
    ns = [int(n) for n in ns]
    if any(n < 0 for n in ns):
        raise ScenarioError("operation counts must be >= 0")
    if any(n % 2 for n in ns):
        raise ScenarioError("operation counts must be even (forward/reverse pairs)")
    if len(set(ns)) < 2:
        raise FitSingularError("need at least 2 distinct operation counts")
    _check_transfer_count(max(ns) + 1)
    if seed is None:
        seed = m.seed
    fwd, rev = _transfer_channels(method, params, noise, cfg, 3)

    rho0 = _D3_ZERO.density_matrix()
    xs, fids_raw, fid_errs, fids_exact = [], [], [], []
    rho, x = rho0, 0
    for i, n_ops in enumerate(sorted(ns)):
        # n_ops is even, so the last operation is a forward one: read out |D>;
        # the x transfers of the previous count are already applied
        rho = _transfers(rho, range(x, n_ops + 1), fwd, rev)
        x = n_ops + 1
        rng = np.random.default_rng([seed, i])
        _, fit = run_fringe_experiment(rho, m, rng=rng)
        xs.append(x)
        fids_raw.append(fit.fidelity_raw)
        fid_errs.append(fit.fidelity_err)
        fids_exact.append(_dark_fidelity(rho))
    eps_m, sigma_eps = infidelity_per_op(list(zip(xs, fids_raw, fid_errs)))
    eps_exact, _ = infidelity_per_op([(x, f, 1.0) for x, f in zip(xs, fids_exact)])
    single = 1.0 - _dark_fidelity(_apply_channel(rho0, fwd))
    outputs = {
        "eps_m": eps_m,
        "sigma_eps": sigma_eps,
        "eps_m_exact": eps_exact,
        "single_op_infidelity": single,
        "map_counts": [float(x) for x in xs],
        "fidelity_raw": fids_raw,
        "fidelity_err": fid_errs,
        "fidelity_exact": fids_exact,
    }
    return _report("fig4c", seed,
                   {"method": method, "ns": ns, "noise": asdict(noise),
                    "shots": m.shots, "params": _adiabatic_dict(params)},
                   outputs, out_dir,
                   fidelity_csv=(f"fig4c_{seed}.csv",
                                 "n_ops,maps,fidelity,fidelity_err,fidelity_exact",
                                 [sorted(ns), xs, fids_raw, fid_errs, fids_exact]))


# ---------------------------------------------------------------------------
# Dressed-qubit Ramsey (4-level)
# ---------------------------------------------------------------------------

def _clock_unitary(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Ideal instantaneous clock rotations by theta at phases phi on the
    {|0>, |0'>} subspace of the 4-level basis (|-1>, |0>, |+1>, |0'>), shape
    (*broadcast(theta, phi).shape, 4, 4)."""
    theta, phi = np.broadcast_arrays(theta, phi)
    u = np.zeros(theta.shape + (4, 4), dtype=complex)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    u[..., 0, 0] = u[..., 2, 2] = 1.0
    u[..., 1, 1] = u[..., 3, 3] = c
    u[..., 1, 3] = -1j * np.exp(1j * phi) * s
    u[..., 3, 1] = -1j * np.exp(-1j * phi) * s
    return u


def run_ramsey_dressed_qubit(n_transfers: int,
                             m: MeasurementModel | None = None,
                             noise: NoiseParams = NoiseParams(),
                             cfg: IntegratorConfig = IntegratorConfig(),
                             params: AdiabaticParams = RAMSEY_ADIABATIC,
                             seed: int = 0,
                             out_dir: str | None = None) -> ScenarioReport:
    """Ramsey test of clock-qubit coherence through adiabatic transfers
    (report ramsey).

    pi/2 clock pulse, N/2 alternating transfers, spin-echo pi, N/2 transfers,
    analysis pi/2 at 32 phases evenly spaced over [0, 2 pi); the P(F=1)
    fringe contrast (2A for the fit A0 + A cos(phi + phi0)) gives the qubit
    map fidelity (1 + C)/2.
    N must be a multiple of 4 so each echo arm is a whole number of
    round trips (otherwise one interferometer branch is scrambled by a
    transfer applied to the state it is not designed for).
    """
    n_transfers = int(n_transfers)
    if n_transfers % 4 != 0:
        raise ScenarioError("n_transfers must be a multiple of 4 (whole round "
                            "trips per echo arm)")
    _check_transfer_count(n_transfers)
    phases = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)

    fwd = rev = None
    if n_transfers > 0:
        fwd, rev = _transfer_channels("adiabatic", params, noise, cfg, 4)

    # the pi/2 pulse, the echo and the analysis pulses, each a Kraus stack of one
    pulses = _clock_unitary(np.r_[np.pi / 2, np.pi, np.full(phases.size, np.pi / 2)],
                            np.r_[0.0, 0.0, phases])[:, None]
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |0><0|
    half = n_transfers // 2
    rho = _transfers(_apply_channel(rho, pulses[0]), range(half), fwd, rev)
    rho = _transfers(_apply_channel(rho, pulses[1]), range(half, n_transfers), fwd, rev)
    p_f1 = 1.0 - np.real(_apply_channel(rho, pulses[2:])[:, 1, 1])

    if m is None:
        # exact harmonic projection of the noiseless fringe
        a0 = float(np.mean(p_f1))
        z = 2.0 * np.mean(p_f1 * np.exp(-1j * phases))
        amp = abs(z)
        contrast = 2.0 * amp
        contrast_err = 0.0
    else:
        _, fit = _measured_fringe(p_f1, phases / 2.0, m,
                                  np.random.default_rng([seed, n_transfers]))
        a0, amp = fit.a0, fit.a
        contrast = 2.0 * fit.a
        contrast_err = 2.0 * fit.a_err
    map_fidelity = (1.0 + min(contrast, 1.0)) / 2.0
    outputs = {
        "contrast": contrast,
        "contrast_err": contrast_err,
        "fringe_offset": a0,
        "qubit_map_fidelity": map_fidelity,
        "qubit_map_infidelity": 1.0 - map_fidelity,
    }
    return _report("ramsey", seed,
                   {"n_transfers": n_transfers, "noise": asdict(noise),
                    "params": _adiabatic_dict(params),
                    "shots": None if m is None else m.shots},
                   outputs, out_dir,
                   fringe_csv=(f"ramsey_{seed}.csv", "phase_rad,p_f1", [phases, p_f1]))


# ---------------------------------------------------------------------------
# Reversal and rotation-cycle checks
# ---------------------------------------------------------------------------

def verify_reversal(d: int, cfg: IntegratorConfig = IntegratorConfig(),
                    omega0: float = NOMINAL_ADIABATIC.omega0,
                    seed: int = 0, out_dir: str | None = None) -> ScenarioReport:
    """Builds the amplitude-reversing pi rotation three ways (direct lift of
    (a=0, b=i), rotation about x by pi, and the propagator of a lifted
    resonant pi pulse) and checks all of them against the anti-diagonal
    i^(d+1) delta_{d+1, r+s} up to global phase (report verify-reversal)."""
    if not 2 <= d <= 8:
        raise ScenarioError(f"d must be in 2..8, got {d}")
    target = (1j ** (d + 1)) * np.fliplr(np.eye(d)).astype(complex)
    lifted = lift_unitary(0.0, 1j, d).mat
    rotated = rotation_unitary(d, (1.0, 0.0, 0.0), np.pi).mat
    drive = lift_schedule(square_pulse(np.pi, 0.0, omega0), d)
    propagated = propagator(drive, cfg).mat
    mats = {"lift": lifted, "rotation": rotated, "propagator": propagated}
    devs = {key: phase_aligned_deviation(mat, target) for key, mat in mats.items()}
    max_dev = max(devs.values())
    outputs = {"max_dev": max_dev, "pass": bool(max_dev < 1e-10),
               **{f"dev_{k}": v for k, v in devs.items()}}
    return _report("verify-reversal", seed, {"d": d}, outputs, out_dir)


def rotation_cycle_check(seed: int = 0, out_dir: str | None = None) -> ScenarioReport:
    """Four consecutive pi/2 rotations about y from |0> and from |+1| must
    walk the cycles (|D>, |0>, |D>, |0>) and (|u>, |-1>, |d>, |+1>) up to
    global phases (report rotation-cycle)."""
    r = rotation_unitary(3, (0.0, 1.0, 0.0), np.pi / 2)
    cycles = {
        "0": ("0", ["D", "0", "D", "0"]),
        "+1": ("+1", ["u", "-1", "d", "+1"]),
    }
    max_dev = 0.0
    details = {}
    for label, (start, expected) in cycles.items():
        psi = named_state(3, start)
        for step, target_name in enumerate(expected):
            psi = r @ psi
            target = named_state(3, target_name)
            dev = 1.0 - abs(psi.overlap(target))
            max_dev = max(max_dev, dev)
            details[f"dev_{label}_step{step + 1}_{target_name}"] = dev
    outputs = {"max_dev": max_dev, "pass": bool(max_dev < 1e-10), **details}
    return _report("rotation-cycle", seed, {}, outputs, out_dir)


# ---------------------------------------------------------------------------
# Fig. 4b (single-op fringe) and Fig. 3d (area sweep) scenario wrappers
# ---------------------------------------------------------------------------

def run_fig4b(m: MeasurementModel,
              params: AdiabaticParams = NOMINAL_ADIABATIC,
              noise: NoiseParams = NoiseParams(),
              cfg: IntegratorConfig = IntegratorConfig(),
              seed: int = 0, out_dir: str | None = None) -> ScenarioReport:
    """Fringe at DEFAULT_FRINGE_CHI after a single forward adiabatic
    transfer, with the measurement model, fitted for the dark-state
    fidelity (report fig4b)."""
    schedule, _ = transfer_schedules("adiabatic", params)
    rho = _apply_channel(_D3_ZERO.density_matrix(),
                         _transfer_channel(schedule, noise, cfg, params.omega0, 3))
    rng = np.random.default_rng([seed, 0])
    data, fit = run_fringe_experiment(rho, m, rng=rng)
    outputs = {"fit": fit.to_json_dict(),
               "dark_state_fidelity": fit.fidelity,
               "exact_fidelity": float(np.real(
                   _D3_DARK.amps.conj() @ rho @ _D3_DARK.amps))}
    return _report("fig4b", seed,
                   {"shots": m.shots, "noise": asdict(noise),
                    "params": _adiabatic_dict(params)},
                   outputs, out_dir,
                   fringe_csv=(f"fig4b_{seed}.csv", "chi_rad,k,n,p0_corrected",
                               [data.chi, data.counts.astype(int),
                                np.full(data.chi.size, m.shots),
                                [ml_estimate_single(k, m) for k in data.counts]]))


def run_fig3d(cfg: IntegratorConfig = IntegratorConfig(),
              omega0: float = NOMINAL_ADIABATIC.omega0,
              seed: int = 0, out_dir: str | None = None) -> ScenarioReport:
    """Population in F=1 versus normalized pulse area 0.7 .. 1.3 (61 points)
    for the single pulse and the TBB1 sequence (report fig3d, one sweep CSV
    per method)."""
    areas = np.linspace(0.7, 1.3, 61)
    results = {method: sweep_pulse_area(method, areas, cfg, omega0)
               for method in ("single", "tbb1")}
    band = (areas >= 0.92 - 1e-12) & (areas <= 1.08 + 1e-12)
    out = {}
    for method, res in results.items():
        infid = 1.0 - res["fidelity_to_dark"]
        out[f"max_infidelity_{method}_092_108"] = float(np.max(infid[band]))
    out["flatness_ratio"] = (out["max_infidelity_tbb1_092_108"]
                             / out["max_infidelity_single_092_108"])
    return _report("fig3d", seed,
                   {"areas": [float(a) for a in areas], "omega0_hz": omega0 / TWO_PI},
                   out, out_dir,
                   **{f"sweep_csv_{method}": (f"fig3d_{seed}_{method}.csv", "area,p_f1",
                                              [res["areas"], res["p_f1"]])
                      for method, res in results.items()})
