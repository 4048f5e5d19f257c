"""Programmatic acceptance suite: one check per criterion, each returning a
pass/fail result with the measured numbers.  The pytest acceptance module
and the CLI 'acceptance' subcommand both run these."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .spin import (
    lift_unitary,
    named_state,
    phase_aligned_deviation,
)
from .waveforms import (
    ConstantSegment,
    ControlSchedule,
    blackman_detuning,
    lab_frame_chirp,
    lift_schedule,
    TWO_PI,
)
from .dynamics import IntegratorConfig, _dense_propagator, eigen_scan, propagator
from .inference import FringeData, MeasurementModel, detection_map, ml_fit_fringe
from .experiments import (
    DEFAULT_FRINGE_CHI,
    NoiseParams,
    NOMINAL_ADIABATIC,
    measure_fidelity_vs_n,
    rotation_cycle_check,
    run_adiabatic_transfer,
    run_fringe_experiment,
    run_ramsey_dressed_qubit,
    run_tbb1,
    sweep_pulse_area,
    transfer_schedules,
    verify_reversal,
    _transfer_channel,
)

__all__ = ["CheckResult", "CHECKS", "run_all", "run_check", "format_table"]

# Round-trip per-operation infidelity of the noiseless adiabatic method at
# the nominal parameters, frozen as a regression constant (first computed
# with the integrator at tolerance 1e-9).
FROZEN_ADIABATIC_PER_OP_INFIDELITY = 8.3884e-06
FROZEN_TOLERANCE = 1e-8


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    runtime_s: float = 0.0
    details: dict = field(default_factory=dict)


def _random_schedule(rng: np.random.Generator) -> ControlSchedule:
    n_seg = int(rng.integers(1, 9))
    segs = []
    for _ in range(n_seg):
        segs.append(ConstantSegment(
            duration=float(rng.uniform(0.5e-6, 6e-6)),
            omega_half=float(rng.uniform(0.0, TWO_PI * 100e3)),
            chi=float(rng.uniform(0.0, TWO_PI)),
            delta_half=float(rng.uniform(-TWO_PI * 100e3, TWO_PI * 100e3)),
        ))
    return ControlSchedule(segs)


def check_majorana_equivalence() -> CheckResult:
    """1: d-level propagator equals the lift of the two-level propagator for
    100 random schedules and d in {2, 3, 4, 5}, phase-insensitive < 1e-8.
    The d-level side is propagated on the dense path, so it shares no code
    with the lift."""
    rng = np.random.default_rng(20260810)
    cfg = IntegratorConfig()
    worst = 0.0
    t0 = time.time()
    for _ in range(100):
        sched = _random_schedule(rng)
        u2 = propagator(lift_schedule(sched, 2), cfg).mat
        a, b = u2[0, 0], u2[1, 0]
        for d in (2, 3, 4, 5):
            ud = _dense_propagator(lift_schedule(sched, d), cfg)
            dev = phase_aligned_deviation(ud, lift_unitary(a, b, d))
            worst = max(worst, dev)
    runtime = time.time() - t0
    return CheckResult(1, "Majorana equivalence (100 random schedules, d=2..5)",
                       worst < 1e-8 and runtime < 60.0,
                       runtime, {"max_deviation": worst, "runtime_limit_s": 60.0})


def check_lift_homomorphism() -> CheckResult:
    """2: lift of a product equals the product of lifts (100 random SU(2)
    pairs, d <= 6, < 1e-10); the d=3 lift of (1/sqrt2, 1/sqrt2) matches the
    known qutrit matrix entrywise < 1e-12."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        w = rng.normal(size=4)
        w /= np.linalg.norm(w)
        u1 = np.array([[v[0] + 1j * v[1], -(v[2] - 1j * v[3])],
                       [v[2] + 1j * v[3], v[0] - 1j * v[1]]])
        u2 = np.array([[w[0] + 1j * w[1], -(w[2] - 1j * w[3])],
                       [w[2] + 1j * w[3], w[0] - 1j * w[1]]])
        u12 = u1 @ u2
        for d in (2, 3, 4, 5, 6):
            lhs = lift_unitary(u12[0, 0], u12[1, 0], d).mat
            rhs = lift_unitary(u1[0, 0], u1[1, 0], d).mat @ lift_unitary(
                u2[0, 0], u2[1, 0], d).mat
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    a = b = 1.0 / np.sqrt(2.0)
    s2 = np.sqrt(2.0)
    qutrit = np.array([[a * a, -a * b * s2, b * b],
                       [a * b * s2, a * a - b * b, -a * b * s2],
                       [b * b, a * b * s2, a * a]])
    eq13_dev = float(np.max(np.abs(lift_unitary(a, b, 3).mat - qutrit)))
    return CheckResult(2, "Lift homomorphism and d=3 matrix recovery",
                       worst < 1e-10 and eq13_dev < 1e-12, 0.0,
                       {"max_homomorphism_dev": worst, "qutrit_matrix_dev": eq13_dev})


def check_reversal() -> CheckResult:
    """3: amplitude reversal passes for d = 2..6 against the anti-diagonal
    i^(d+1) pattern (and the qutrit NOT at d = 3), up to phase < 1e-10."""
    worst = 0.0
    per_d = {}
    for d in range(2, 7):
        rep = verify_reversal(d)
        per_d[f"d{d}"] = rep.outputs["max_dev"]
        worst = max(worst, rep.outputs["max_dev"])
    xa = np.fliplr(np.eye(3)).astype(complex)
    xa_dev = phase_aligned_deviation(lift_unitary(0.0, 1j, 3).mat, xa)
    worst = max(worst, xa_dev)
    return CheckResult(3, "Amplitude reversal (d=2..6) and qutrit NOT",
                       worst < 1e-10, 0.0, {"max_dev": worst, **per_d,
                                            "xa_dev": xa_dev})


def check_adiabatic_nominal() -> CheckResult:
    """4: nominal adiabatic round trip, zero noise: mid-point fidelity to the
    dark state >= 0.999; per-op infidelity < 1e-3 and equal to the frozen
    regression value; runtime < 10 s."""
    t0 = time.time()
    rep = run_adiabatic_transfer(sample_step=100e-6)
    runtime = time.time() - t0
    mid = rep.outputs["mid_fidelity_to_dark"]
    per_op = rep.outputs["per_op_infidelity"]
    passed = (mid >= 0.999 and per_op < 1e-3
              and abs(per_op - FROZEN_ADIABATIC_PER_OP_INFIDELITY) < FROZEN_TOLERANCE
              and runtime < 10.0)
    return CheckResult(4, "Adiabatic method at nominal parameters", passed, runtime,
                       {"mid_fidelity": mid, "per_op_infidelity": per_op,
                        "frozen_value": FROZEN_ADIABATIC_PER_OP_INFIDELITY,
                        "runtime_limit_s": 10.0})


def check_tbb1_robustness() -> CheckResult:
    """5: TBB1 zero-error fidelity >= 1 - 1e-8; fidelity >= 0.99 at the
    deliberate -2 pi x 10 kHz (25%) amplitude error."""
    zero = run_tbb1(0.0).outputs["final_fidelity_to_dark"]
    misset = run_tbb1(-TWO_PI * 10e3).outputs["final_fidelity_to_dark"]
    return CheckResult(5, "TBB1 zero-error and 25% amplitude-error fidelity",
                       zero >= 1 - 1e-8 and misset >= 0.99, 0.0,
                       {"fidelity_zero_error": zero, "fidelity_25pct_error": misset})


def check_flatness() -> CheckResult:
    """6: over areas 0.92..1.08, max TBB1 infidelity <= 1e-2 x max
    single-pulse infidelity."""
    areas = [0.92, 0.96, 1.0, 1.04, 1.08]
    single = sweep_pulse_area("single", areas)
    tbb1 = sweep_pulse_area("tbb1", areas)
    max_single = float(np.max(1 - single["fidelity_to_dark"]))
    max_tbb1 = float(np.max(1 - tbb1["fidelity_to_dark"]))
    ratio = max_tbb1 / max_single
    return CheckResult(6, "TBB1 flatness vs single pulse (areas 0.92..1.08)",
                       ratio <= 1e-2, 0.0,
                       {"max_single_infidelity": max_single,
                        "max_tbb1_infidelity": max_tbb1, "ratio": ratio})


def check_static_errors() -> CheckResult:
    """7: fractional Rabi mismatch 0.0015 plus 3 Hz per-field detuning gives
    dark-state preparation infidelity < 1e-4."""
    from .experiments import static_error_infidelity
    infid = static_error_infidelity(0.0015, TWO_PI * 3.0)
    return CheckResult(7, "Static field-setting errors below 1e-4 infidelity",
                       infid < 1e-4, 0.0, {"infidelity": infid})


def check_chirp_identity() -> CheckResult:
    """8: the lab-frame chirp satisfies d(Delta(t) t)/dt = delta(t) at 100
    random times, relative error < 1e-6 (central finite difference)."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        delta0 = float(rng.uniform(TWO_PI * 10e3, TWO_PI * 200e3))
        t_delta = float(rng.uniform(50e-6, 800e-6))
        t = float(rng.uniform(0.05, 0.95)) * t_delta
        h = 1e-5 * t_delta
        fp = lab_frame_chirp(t + h, delta0, t_delta) * (t + h)
        fm = lab_frame_chirp(t - h, delta0, t_delta) * (t - h)
        deriv = (fp - fm) / (2 * h)
        target = blackman_detuning(t, delta0, t_delta)
        worst = max(worst, abs(deriv - target) / abs(target))
    return CheckResult(8, "Lab-frame chirp derivative identity",
                       worst < 1e-6, 0.0, {"max_relative_error": worst})


def check_inference_pipeline() -> CheckResult:
    """9: noiseless dark-state fringe fit returns (0.5, 0.5, pi) and fidelity 1
    within 1e-6; Monte-Carlo parameter recovery within 3 standard errors in
    >= 99% of 500 seeded runs at 200 shots."""
    m = MeasurementModel(shots=200, seed=1)
    rho = named_state(3, "D").density_matrix()
    _, fit = run_fringe_experiment(rho, m, exact=True)
    noiseless_ok = (abs(fit.a0 - 0.5) < 1e-6 and abs(fit.a - 0.5) < 1e-6
                    and abs(fit.phi0 - np.pi) < 1e-6
                    and abs(fit.fidelity_raw - 1.0) < 1e-6)

    true = (0.5, 0.49, 3.1)
    chi = DEFAULT_FRINGE_CHI
    q = detection_map(true[0] + true[1] * np.cos(2 * chi + true[2]), m)
    covered = 0
    runs = 500
    for r in range(runs):
        rng = np.random.default_rng([2026, r])
        counts = rng.binomial(m.shots, q).astype(float)
        f = ml_fit_fringe(FringeData(chi=chi, counts=counts, shots=m.shots), m)
        dphi = (f.phi0 - true[2] + np.pi) % TWO_PI - np.pi
        covered += (abs(f.a0 - true[0]) <= 3 * f.a0_err
                    and abs(f.a - true[1]) <= 3 * f.a_err
                    and abs(dphi) <= 3 * f.phi0_err)
    coverage = covered / runs
    return CheckResult(9, "Inference pipeline: noiseless fit and MC coverage",
                       noiseless_ok and coverage >= 0.99, 0.0,
                       {"fit_a0": fit.a0, "fit_a": fit.a, "fit_phi0": fit.phi0,
                        "fit_fidelity": fit.fidelity_raw,
                        "mc_covered": covered, "mc_runs": runs,
                        "coverage": coverage})


def check_closed_loop_eps() -> CheckResult:
    """10: quasi-static Zeeman noise calibrated to a single-op infidelity of
    1.4e-4; the full fringe pipeline over N in {8..64} recovers the exact
    decay slope within 3 sigma_eps."""
    cfg = IntegratorConfig(tolerance=1e-8)
    fwd, _ = transfer_schedules("adiabatic", NOMINAL_ADIABATIC)
    dark = named_state(3, "D").amps
    zero = named_state(3, "0").amps

    def single_op_infidelity(sigma: float) -> float:
        kraus = _transfer_channel(fwd, NoiseParams(quasi_static_zeeman_sigma=sigma), cfg,
                                  NOMINAL_ADIABATIC.omega0, 3)
        return 1.0 - float(np.sum(np.abs(kraus @ zero @ dark.conj()) ** 2))

    from .experiments import REFERENCE_INFIDELITY_PER_OP
    target = REFERENCE_INFIDELITY_PER_OP["adiabatic"]
    floor = single_op_infidelity(0.0)
    z_probe = TWO_PI * 300.0
    probe = single_op_infidelity(z_probe)
    sigma = z_probe * np.sqrt((target - floor) / (probe - floor))

    m = MeasurementModel(shots=20000, seed=11)
    rep = measure_fidelity_vs_n(
        "adiabatic", [8, 16, 32, 64], m,
        noise=NoiseParams(quasi_static_zeeman_sigma=float(sigma)), cfg=cfg)
    o = rep.outputs
    within = abs(o["eps_m"] - o["eps_m_exact"]) < 3 * o["sigma_eps"]
    calibrated = abs(o["single_op_infidelity"] - target) < 0.2 * target
    return CheckResult(10, "Closed-loop per-op infidelity recovery", within and calibrated,
                       0.0, {"eps_m": o["eps_m"], "sigma_eps": o["sigma_eps"],
                             "eps_m_exact": o["eps_m_exact"],
                             "single_op_infidelity": o["single_op_infidelity"],
                             "zeeman_sigma_hz": sigma / TWO_PI})


def check_cycles_and_gap() -> CheckResult:
    """11: the pi/2 y-rotation cycles pass; the chi = 0 avoided-crossing gap
    at delta = 0 equals Omega/sqrt(2) within 1e-10."""
    rep = rotation_cycle_check()
    cycle_dev = rep.outputs["max_dev"]
    (vals, _), = eigen_scan(1.0, [0.0], 2)
    gap_dev_unit = abs((vals[1] - vals[0]) - 1 / np.sqrt(2.0))
    omega = NOMINAL_ADIABATIC.omega0
    (vals, _), = eigen_scan(omega, [0.0], 2)
    gap_dev_rel = abs((vals[1] - vals[0]) / (omega / np.sqrt(2.0)) - 1.0)
    passed = cycle_dev < 1e-10 and gap_dev_unit < 1e-10 and gap_dev_rel < 1e-10
    return CheckResult(11, "Rotation cycles and avoided-crossing gap", passed, 0.0,
                       {"cycle_max_dev": cycle_dev, "gap_dev_unit_omega": gap_dev_unit,
                        "gap_dev_relative": gap_dev_rel})


def check_ramsey() -> CheckResult:
    """12: zero-noise dressed-qubit Ramsey contrast equals 1 within 1e-6 for
    transfer counts up to 32 (multiples of 4; whole round trips per echo arm)."""
    worst = 0.0
    per_n = {}
    for n in (0, 4, 8, 16, 32):
        rep = run_ramsey_dressed_qubit(n)
        deficit = 1.0 - rep.outputs["contrast"]
        per_n[f"n{n}"] = deficit
        worst = max(worst, deficit)
    return CheckResult(12, "Ramsey coherence through transfers", worst < 1e-6, 0.0,
                       {"max_contrast_deficit": worst, **per_n})


def check_determinism() -> CheckResult:
    """13: re-running scenarios with the same seed reproduces bit-identical
    report JSON."""
    import tempfile, os

    def fig4c_small(seed):
        return measure_fidelity_vs_n(
            "tbb1", [2, 4], MeasurementModel(shots=500, seed=seed),
            noise=NoiseParams(quasi_static_zeeman_sigma=TWO_PI * 200.0),
            cfg=IntegratorConfig(tolerance=1e-8))

    def ramsey_small(seed):
        return run_ramsey_dressed_qubit(
            4, m=MeasurementModel(shots=500, seed=seed),
            params=NOMINAL_ADIABATIC, cfg=IntegratorConfig(tolerance=1e-8))

    checks = {}
    from .experiments import run_fig4b
    with tempfile.TemporaryDirectory() as tmp:
        a = run_fig4b(MeasurementModel(shots=200, seed=5), seed=5,
                      out_dir=os.path.join(tmp, "a"))
        b = run_fig4b(MeasurementModel(shots=200, seed=5), seed=5,
                      out_dir=os.path.join(tmp, "b"))
        checks["fig4b_json"] = a.to_json() == b.to_json()
        fa = open(os.path.join(tmp, "a", "fig4b_5.csv"), "rb").read()
        fb = open(os.path.join(tmp, "b", "fig4b_5.csv"), "rb").read()
        checks["fig4b_artifact"] = fa == fb
    checks["fig4c_json"] = fig4c_small(3).to_json() == fig4c_small(3).to_json()
    checks["ramsey_json"] = ramsey_small(9).to_json() == ramsey_small(9).to_json()
    checks["reversal_json"] = verify_reversal(3).to_json() == verify_reversal(3).to_json()
    return CheckResult(13, "Determinism under fixed seeds", all(checks.values()),
                       0.0, checks)


CHECKS = [
    check_majorana_equivalence,
    check_lift_homomorphism,
    check_reversal,
    check_adiabatic_nominal,
    check_tbb1_robustness,
    check_flatness,
    check_static_errors,
    check_chirp_identity,
    check_inference_pipeline,
    check_closed_loop_eps,
    check_cycles_and_gap,
    check_ramsey,
    check_determinism,
]


def run_check(index: int) -> CheckResult:
    """Run a single criterion (1-based index)."""
    fn = CHECKS[index - 1]
    t0 = time.time()
    result = fn()
    if result.runtime_s == 0.0:
        result.runtime_s = time.time() - t0
    return result


def run_all(verbose: bool = False) -> list[CheckResult]:
    results = []
    for i in range(1, len(CHECKS) + 1):
        r = run_check(i)
        results.append(r)
        if verbose:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.index:2d}. {r.name} "
                  f"({r.runtime_s:.1f} s)")
    return results


def format_table(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in list(r.details.items())[:3])
        lines.append(f"{status}  {r.index:2d}  {r.name}  [{detail}]")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
