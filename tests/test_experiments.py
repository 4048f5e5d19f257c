"""Scenario runners: transfers, robustness sweeps, Ramsey, reversal checks."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from spinlift import (
    AdiabaticParams,
    CompositeSequence,
    FitSingularError,
    IntegratorConfig,
    MeasurementModel,
    NoiseParams,
    NOMINAL_ADIABATIC,
    adiabatic_method,
    bb1_sequence,
    composite_method,
    named_state,
    run_adiabatic_transfer,
    run_ramsey_dressed_qubit,
    run_tbb1,
    rotation_cycle_check,
    state_fidelity,
    static_error_infidelity,
    sweep_pulse_area,
    verify_reversal,
)
from spinlift.experiments import (
    DressedDrive,
    ScenarioError,
    measure_fidelity_vs_n,
    transfer_schedules,
    zeeman_quadrature,
)
from spinlift import acceptance, cli, dynamics, experiments
from spinlift.dynamics import IntegratorError
from spinlift.inference import ml_estimate_single
from spinlift.dynamics import propagate, propagator
from spinlift.waveforms import MultiLevelDrive, lift_schedule, TWO_PI

FAST = IntegratorConfig(tolerance=1e-8)


class TestDressedDrive:
    def test_zero_noise_matches_lifted_hamiltonian(self):
        sched, _ = transfer_schedules("adiabatic", NOMINAL_ADIABATIC)
        dressed = DressedDrive(sched, NoiseParams(), 0.0, NOMINAL_ADIABATIC.omega0)
        lifted = lift_schedule(sched, 3)
        ts = np.linspace(0, sched.total_duration, 50)
        assert np.max(np.abs(dressed.hamiltonian(ts) - lifted.hamiltonian(ts))) < 1e-9

    def test_zeeman_shifts_outer_levels(self):
        sched, _ = transfer_schedules("tbb1", NOMINAL_ADIABATIC)
        z = TWO_PI * 100.0
        h = DressedDrive(sched, NoiseParams(), z, NOMINAL_ADIABATIC.omega0).hamiltonian(1e-6)
        h0 = DressedDrive(sched, NoiseParams(), 0.0, NOMINAL_ADIABATIC.omega0).hamiltonian(1e-6)
        diff = h - h0
        assert diff[0, 0] == pytest.approx(-z)
        assert diff[2, 2] == pytest.approx(z)
        assert abs(diff[1, 1]) < 1e-12

    def test_mismatch_breaks_field_symmetry(self):
        sched, _ = transfer_schedules("tbb1", NOMINAL_ADIABATIC)
        noise = NoiseParams(rabi_mismatch=0.01)
        h = DressedDrive(sched, noise, 0.0, NOMINAL_ADIABATIC.omega0).hamiltonian(1e-6)
        assert abs(h[0, 1]) / abs(h[1, 2]) == pytest.approx(1.01 / 0.99, rel=1e-9)

    @pytest.mark.parametrize("noise", [  # the SU(2) path, then the dense path
        NoiseParams(common_rabi_error=-TWO_PI * 3e3, quasi_static_zeeman_sigma=TWO_PI * 200.0),
        NoiseParams(rabi_mismatch=0.001, quasi_static_zeeman_sigma=TWO_PI * 200.0)])
    @pytest.mark.parametrize("method", ["adiabatic", "tbb1"])
    def test_four_level_operation_leaves_clock_state_alone(self, method, noise):
        # Ramsey's four-level transfers are the spin-1 ones as U (+) 1, exactly
        # (in Kraus form: the node weight's square root times U (+) 1)
        sched, _ = transfer_schedules(method, NOMINAL_ADIABATIC)
        shifts, weights = zeeman_quadrature(noise.quasi_static_zeeman_sigma)
        args = (sched, noise, FAST, NOMINAL_ADIABATIC.omega0)
        k3 = experiments._transfer_channel(*args, 3)
        k4 = experiments._transfer_channel(*args, 4)
        assert len(k4) == len(k3) == shifts.size
        for a, b, w in zip(k3, k4, weights):
            expect = np.zeros((4, 4), dtype=complex)
            expect[:3, :3] = a
            expect[3, 3] = np.sqrt(w)
            assert np.array_equal(b, expect)


class TestTransferChannel:
    """One Zeeman-averaged transfer operation as its Kraus stack
    sqrt(w_n) (U_n (+) 1), applied by one batched conjugation."""

    OMEGA0 = NOMINAL_ADIABATIC.omega0

    @pytest.mark.parametrize("noise", [  # the SU(2) path, then the dense path
        NoiseParams(), NoiseParams(quasi_static_zeeman_sigma=TWO_PI * 200.0),
        NoiseParams(rabi_mismatch=0.001),
        NoiseParams(rabi_mismatch=0.001, quasi_static_zeeman_sigma=TWO_PI * 200.0)])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_forward_and_reverse_stacks_preserve_the_trace(self, dim, noise):
        shifts, _ = zeeman_quadrature(noise.quasi_static_zeeman_sigma)
        for sched in transfer_schedules("adiabatic", NOMINAL_ADIABATIC):
            kraus = experiments._transfer_channel(sched, noise, FAST, self.OMEGA0, dim)
            assert kraus.shape == (shifts.size, dim, dim)
            total = np.sum(kraus.conj().swapaxes(-1, -2) @ kraus, axis=0)
            assert np.max(np.abs(total - np.eye(dim))) <= 1e-12

    @pytest.mark.parametrize("noise", [  # the SU(2) path, then the dense path
        NoiseParams(common_rabi_error=TWO_PI * 1e3, quasi_static_zeeman_sigma=TWO_PI * 200.0),
        NoiseParams(rabi_mismatch=0.002, static_detuning=TWO_PI * 5.0,
                    quasi_static_zeeman_sigma=TWO_PI * 200.0)])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_adiabatic_reverse_stack_is_the_forward_transposed(self, dim, noise, monkeypatch):
        fwd_schedule, rev_schedule = transfer_schedules("adiabatic", NOMINAL_ADIABATIC)
        assert rev_schedule == fwd_schedule.mirrored()
        builds = TestBatchedScenarios.count_builds(monkeypatch, (rev_schedule,))
        fwd, rev = experiments._transfer_channels("adiabatic", NOMINAL_ADIABATIC, noise, FAST, dim)
        assert builds == []  # the reverse transfer is not propagated
        assert np.array_equal(rev, fwd.swapaxes(-1, -2))
        propagated = experiments._transfer_channel(rev_schedule, noise, FAST, self.OMEGA0, dim)
        assert builds
        assert np.max(np.abs(rev - propagated)) <= 1e-13

    def test_tbb1_reverse_is_propagated(self):
        # TBB1's reverse is the inverse sequence, not the time mirror: its
        # Kraus stack under a Zeeman average is not the forward one transposed
        noise = NoiseParams(common_rabi_error=TWO_PI * 1e3,
                            quasi_static_zeeman_sigma=TWO_PI * 200.0)
        fwd_schedule, rev_schedule = transfer_schedules("tbb1", NOMINAL_ADIABATIC)
        assert rev_schedule != fwd_schedule.mirrored()
        fwd, rev = experiments._transfer_channels("tbb1", NOMINAL_ADIABATIC, noise, FAST, 4)
        assert np.array_equal(rev, experiments._transfer_channel(rev_schedule, noise, FAST,
                                                                 self.OMEGA0, 4))
        assert np.max(np.abs(rev - fwd.swapaxes(-1, -2))) > 1e-6

    def test_apply_channel_is_the_per_node_sum(self):
        noise = NoiseParams(common_rabi_error=TWO_PI * 1e3,
                            quasi_static_zeeman_sigma=TWO_PI * 200.0)
        sched, _ = transfer_schedules("tbb1", NOMINAL_ADIABATIC)
        kraus = experiments._transfer_channel(sched, noise, FAST, self.OMEGA0, 4)
        rng = np.random.default_rng(4)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = z @ z.conj().T / np.trace(z @ z.conj().T).real
        shifts, weights = zeeman_quadrature(noise.quasi_static_zeeman_sigma)
        units = dynamics.propagators(DressedDrive(sched, noise, shifts, self.OMEGA0), FAST)
        expect = np.zeros((4, 4), dtype=complex)
        for w, unit in zip(weights, units):
            u = np.eye(4, dtype=complex)
            u[:3, :3] = unit.mat
            expect += w * (u @ rho @ u.conj().T)
        assert np.max(np.abs(experiments._apply_channel(rho, kraus) - expect)) <= 1e-15
        # a batch of stacks gives one state per stack
        both = experiments._apply_channel(rho, np.stack([kraus, kraus[::-1]]))
        assert both.shape == (2, 4, 4)
        assert max(np.max(np.abs(b - expect)) for b in both) <= 1e-15


class TestAdiabaticTransfer:
    def test_nominal_fidelities(self):
        rep = run_adiabatic_transfer(cfg=FAST, sample_step=1e-3)
        assert rep.outputs["mid_fidelity_to_dark"] >= 0.999
        assert rep.outputs["per_op_infidelity"] < 1e-3

    def test_stronger_drive_is_more_adiabatic(self):
        # scaling the whole control vector (omega0 and delta0) raises every
        # gap at fixed sweep rate; scaling omega0 alone makes the early ramp
        # more diabatic instead
        base = AdiabaticParams(NOMINAL_ADIABATIC.omega0, NOMINAL_ADIABATIC.delta0,
                               NOMINAL_ADIABATIC.t_omega, NOMINAL_ADIABATIC.t_delta,
                               0.0, "round-trip")
        strong = AdiabaticParams(10 * base.omega0, 10 * base.delta0, base.t_omega,
                                 base.t_delta, 0.0, "round-trip")
        infid_base = 1 - run_adiabatic_transfer(base, cfg=FAST, sample_step=1e-3,
                                                out_dir=None).outputs["mid_fidelity_to_dark"]
        infid_strong = 1 - run_adiabatic_transfer(strong, cfg=FAST, sample_step=1e-3,
                                                  out_dir=None).outputs["mid_fidelity_to_dark"]
        assert infid_strong < infid_base

    def test_fast_chirp_is_diabatic(self):
        fast_chirp = AdiabaticParams(NOMINAL_ADIABATIC.omega0, NOMINAL_ADIABATIC.delta0,
                                     NOMINAL_ADIABATIC.t_omega / 20,
                                     NOMINAL_ADIABATIC.t_delta / 20, 0.0, "round-trip")
        rep = run_adiabatic_transfer(fast_chirp, cfg=FAST, sample_step=1e-4)
        assert rep.outputs["mid_fidelity_to_dark"] < 0.99

    def test_artifacts_written(self, tmp_path):
        rep = run_adiabatic_transfer(cfg=FAST, sample_step=50e-6, seed=3,
                                     out_dir=str(tmp_path))
        assert (tmp_path / "fig2e_3.json").exists()
        assert (tmp_path / "fig2e_3.csv").exists()
        doc = json.loads((tmp_path / "fig2e_3.json").read_text())
        assert doc["outputs"]["mid_fidelity_to_dark"] >= 0.999
        header = (tmp_path / "fig2e_3.csv").read_text().splitlines()[0]
        assert header == "time_us,p_0,p_1,p_2,p_f1"


class TestTbb1:
    def test_zero_error_complete_transfer(self):
        rep = run_tbb1(0.0, cfg=FAST)
        assert rep.outputs["final_fidelity_to_dark"] >= 1 - 1e-8
        assert rep.outputs["final_p_f1"] >= 1 - 1e-8

    def test_misset_robust(self):
        rep = run_tbb1(-TWO_PI * 10e3, cfg=FAST)
        assert rep.outputs["final_fidelity_to_dark"] >= 0.99

    def test_larger_error_monotone(self):
        f25 = run_tbb1(-TWO_PI * 10e3, cfg=FAST).outputs["final_fidelity_to_dark"]
        f50 = run_tbb1(-NOMINAL_ADIABATIC.omega0 / 2, cfg=FAST).outputs["final_fidelity_to_dark"]
        assert f50 < f25

    def test_sequence_duration(self):
        rep = run_tbb1(0.0, cfg=FAST)
        assert rep.outputs["sequence_duration_us"] == pytest.approx(79.5, abs=0.2)

    @pytest.mark.parametrize("omega0_hz", [40e3, 1e20, 1e300])
    def test_sequence_duration_over_the_float_range(self, omega0_hz):
        # BB1's areas pi/2, pi, 2 pi, pi at sqrt(2) theta / omega0 each; the
        # total minus the 20 us hold cancels the sequence at the two high rates
        omega0 = TWO_PI * omega0_hz
        rep = run_tbb1(0.0, cfg=FAST, omega0=omega0)
        expect = 4.5 * np.pi * np.sqrt(2.0) / omega0 * 1e6
        assert rep.outputs["sequence_duration_us"] == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_excessive_error_rejected(self):
        with pytest.raises(ScenarioError):
            run_tbb1(-NOMINAL_ADIABATIC.omega0)


class TestPulseAreaSweep:
    def test_nominal_area_complete(self):
        for method in ("single", "tbb1"):
            out = sweep_pulse_area(method, [1.0], cfg=FAST)
            assert out["p_f1"][0] >= 1 - 1e-8
            assert out["fidelity_to_dark"][0] >= 1 - 1e-8

    def test_underrotation_closed_form(self):
        # an under-rotated pi/2 pulse: two-level propagator is exactly
        # R(a*pi/2, pi/2); lifting gives infidelity 1 - |<D|U|0>|^2 with
        # closed form from the qutrit matrix elements
        area = 0.9
        out = sweep_pulse_area("single", [area], cfg=FAST)
        theta = area * np.pi / 2
        a, b = np.cos(theta / 2), -1j * np.exp(1j * np.pi / 2) * np.sin(theta / 2)
        mid_to_dark = abs(-a * np.conj(b) * np.sqrt(2) * (-1 / np.sqrt(2))
                          + np.conj(a) * b * np.sqrt(2) / np.sqrt(2)) ** 2
        assert 1 - out["fidelity_to_dark"][0] == pytest.approx(1 - mid_to_dark, abs=1e-10)

    def test_tbb1_flatness(self):
        areas = [0.92, 0.96, 1.0, 1.04, 1.08]
        single = sweep_pulse_area("single", areas, cfg=FAST)
        tbb1 = sweep_pulse_area("tbb1", areas, cfg=FAST)
        assert (np.max(1 - tbb1["fidelity_to_dark"])
                <= 1e-2 * np.max(1 - single["fidelity_to_dark"]))

    def test_invalid_area(self):
        with pytest.raises(ScenarioError):
            sweep_pulse_area("single", [0.0])


class TestStaticErrors:
    def test_zero_errors_at_floor(self):
        floor = static_error_infidelity(0.0, 0.0, cfg=FAST)
        assert floor < 1e-4

    def test_nominal_precision_below_target(self):
        infid = static_error_infidelity(0.0015, TWO_PI * 3.0, cfg=FAST)
        assert infid < 1e-4

    def test_monotone_in_both_errors(self):
        mismatches = [0.0, 0.005, 0.015]
        vals = [static_error_infidelity(e, 0.0, cfg=FAST) for e in mismatches]
        assert vals[0] <= vals[1] <= vals[2]
        detunings = [0.0, TWO_PI * 200.0, TWO_PI * 800.0]
        vals = [static_error_infidelity(0.0, d, cfg=FAST) for d in detunings]
        assert vals[0] <= vals[1] <= vals[2]


class TestFidelityVsN:
    def test_requires_even_counts(self):
        m = MeasurementModel(shots=100, seed=0)
        with pytest.raises(ScenarioError):
            measure_fidelity_vs_n("tbb1", [3, 5], m, cfg=FAST)

    def test_noiseless_tbb1_slope_near_zero(self):
        m = MeasurementModel(p_b_given_1=1.0, p_b_given_0=0.0, shots=10**6, seed=2)
        rep = measure_fidelity_vs_n("tbb1", [2, 4, 8], m, cfg=FAST)
        assert abs(rep.outputs["eps_m_exact"]) < 1e-9
        assert abs(rep.outputs["eps_m"]) < 1e-4

    def test_zeeman_noise_recovery(self):
        m = MeasurementModel(shots=20000, seed=6)
        noise = NoiseParams(quasi_static_zeeman_sigma=TWO_PI * 400.0)
        rep = measure_fidelity_vs_n("tbb1", [4, 8, 16], m, noise=noise, cfg=FAST)
        o = rep.outputs
        assert o["single_op_infidelity"] > 1e-5
        assert abs(o["eps_m"] - o["eps_m_exact"]) < 3 * o["sigma_eps"]

    def test_noise_ordering(self):
        m = MeasurementModel(shots=1000, seed=1)
        singles = []
        for sigma in (0.0, TWO_PI * 200.0, TWO_PI * 400.0):
            rep = measure_fidelity_vs_n(
                "tbb1", [2, 4], m, noise=NoiseParams(quasi_static_zeeman_sigma=sigma),
                cfg=FAST)
            singles.append(rep.outputs["single_op_infidelity"])
        assert singles[0] <= singles[1] <= singles[2]


class TestRamsey:
    def test_zero_transfers_ideal_fringe(self):
        rep = run_ramsey_dressed_qubit(0)
        assert rep.outputs["contrast"] == pytest.approx(1.0, abs=1e-12)
        assert rep.outputs["fringe_offset"] == pytest.approx(0.5, abs=1e-12)

    def test_small_n_contrast(self):
        rep = run_ramsey_dressed_qubit(4, cfg=FAST)
        assert rep.outputs["contrast"] == pytest.approx(1.0, abs=1e-5)

    def test_rejects_non_multiple_of_four(self):
        with pytest.raises(ScenarioError):
            run_ramsey_dressed_qubit(6)

    def test_zeeman_noise_reduces_contrast(self):
        quiet = run_ramsey_dressed_qubit(4, cfg=FAST,
                                         params=NOMINAL_ADIABATIC).outputs["contrast"]
        noisy = run_ramsey_dressed_qubit(
            4, cfg=FAST, params=NOMINAL_ADIABATIC,
            noise=NoiseParams(quasi_static_zeeman_sigma=TWO_PI * 2000.0)
        ).outputs["contrast"]
        assert noisy < quiet

    def test_with_measurement_model(self):
        m = MeasurementModel(shots=2000, seed=5)
        rep = run_ramsey_dressed_qubit(4, m=m, cfg=FAST, params=NOMINAL_ADIABATIC)
        assert rep.outputs["contrast"] == pytest.approx(1.0, abs=0.05)
        assert rep.outputs["qubit_map_infidelity"] < 0.05

    def test_zero_transfers_build_no_transfer_unitaries(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("transfer unitaries built for n_transfers = 0")

        monkeypatch.setattr(experiments, "_transfer_channel", refuse)
        assert run_ramsey_dressed_qubit(0).outputs["contrast"] == pytest.approx(1.0, abs=1e-12)


class TestReversalChecks:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_verify_reversal(self, d):
        rep = verify_reversal(d, cfg=FAST)
        assert rep.outputs["pass"]
        assert rep.outputs["max_dev"] < 1e-10

    def test_qutrit_not_gate(self):
        # the d=3 reversal is the qutrit NOT (anti-diagonal X), up to phase
        from spinlift import lift_unitary, phase_aligned_deviation
        xa = np.fliplr(np.eye(3)).astype(complex)
        assert phase_aligned_deviation(lift_unitary(0, 1j, 3).mat, xa) < 1e-12

    def test_d_out_of_range(self):
        with pytest.raises(ScenarioError):
            verify_reversal(9)

    def test_rotation_cycle(self):
        rep = rotation_cycle_check()
        assert rep.outputs["pass"]
        assert rep.outputs["max_dev"] < 1e-10


class TestScenarioRegistry:
    def test_unknown_scenario(self):
        with pytest.raises(cli.ConfigError, match="fig9z"):
            cli.run_scenario("fig9z", {})

    @pytest.mark.parametrize("name", sorted(cli.SCENARIOS))
    def test_table_defaults_are_valid(self, name):
        # each entry's defaults pass its own key checks, and no two user
        # keys feed one internal name
        keys = cli.SCENARIOS[name].keys
        config = cli.parse_config(name, {})
        assert config.user_config == {k: spec.default for k, spec in keys.items()}
        assert sorted(config.params) == sorted(spec.internal for spec in keys.values())

    def test_reversal_scenario_via_registry(self, tmp_path):
        from spinlift.cli import parse_config, run_scenario
        config = parse_config("verify-reversal", {"d": 4}, seed=1,
                              out_dir=str(tmp_path))
        rep = run_scenario("verify-reversal", config.params, seed=1,
                           out_dir=str(tmp_path))
        assert rep.outputs["pass"]
        assert (tmp_path / "verify-reversal_1.json").exists()


class TestPipelineConsistency:
    def test_large_n_ideal_detection_matches_state_fidelity(self):
        # full measurement pipeline (sampled counts, ideal detection) against
        # the directly computed state fidelity
        from spinlift.experiments import run_fringe_experiment, _D3_DARK
        from spinlift import state_fidelity, named_state, propagator
        from spinlift.waveforms import lift_schedule, adiabatic_method
        params = AdiabaticParams(NOMINAL_ADIABATIC.omega0, NOMINAL_ADIABATIC.delta0,
                                 NOMINAL_ADIABATIC.t_omega, NOMINAL_ADIABATIC.t_delta,
                                 0.0, "forward")
        drive = lift_schedule(adiabatic_method(params), 3)
        psi = propagator(drive, FAST) @ named_state(3, "0")
        expect = state_fidelity(psi, named_state(3, "D"))
        m = MeasurementModel(p_b_given_1=1.0, p_b_given_0=0.0, shots=10**6, seed=21)
        rho = psi.density_matrix()
        _, fit = run_fringe_experiment(rho, m, rng=np.random.default_rng(21))
        assert abs(fit.fidelity_raw - expect) < 1e-4


def _two_field_hamiltonian(schedule, noise, zeeman, omega0_ref, t):
    """Reference: the hand-written two-field matrix that the dressed drive
    used before it became a MultiLevelDrive."""
    omega_half, chi, delta_half = schedule.controls(np.asarray(t, dtype=float))
    omega_half = np.atleast_1d(np.asarray(omega_half, dtype=float))
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    delta_half = np.atleast_1d(np.asarray(delta_half, dtype=float))
    eps = noise.rabi_mismatch
    gain = 1.0 + noise.common_rabi_error / omega0_ref
    omega = np.sqrt(2.0) * omega_half * gain
    omega1 = omega * (1.0 + eps)   # |0> <-> |-1| field
    omega2 = omega * (1.0 - eps)   # |0> <-> |+1| field
    e = noise.static_detuning
    z = zeeman
    n = omega_half.shape[0]
    h = np.zeros((n, 3, 3), dtype=complex)
    phase = np.exp(1j * chi)
    h[:, 0, 1] = omega1 / 2.0 * phase
    h[:, 1, 0] = np.conj(h[:, 0, 1])
    h[:, 1, 2] = omega2 / 2.0 * phase
    h[:, 2, 1] = np.conj(h[:, 1, 2])
    h[:, 0, 0] = -delta_half - z + e
    h[:, 2, 2] = delta_half + z + e
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return h[0]
    return h


class TestOneDriveModel:
    """The dressed drive is a MultiLevelDrive whose field errors are
    operator terms added to the lifted control vector."""

    OMEGA0 = NOMINAL_ADIABATIC.omega0
    NOISES = [
        NoiseParams(),
        NoiseParams(rabi_mismatch=0.02),
        NoiseParams(common_rabi_error=-TWO_PI * 3e3),
        NoiseParams(static_detuning=TWO_PI * 40.0),
        NoiseParams(rabi_mismatch=0.003, common_rabi_error=TWO_PI * 5e3,
                    static_detuning=TWO_PI * 10.0),
    ]

    @pytest.mark.parametrize("method", ["adiabatic", "tbb1"])
    @pytest.mark.parametrize("noise", NOISES)
    def test_hamiltonian_equals_two_field_matrix(self, method, noise):
        sched, _ = transfer_schedules(method, NOMINAL_ADIABATIC)
        ts = np.linspace(0.0, sched.total_duration, 101)
        for z in (0.0, TWO_PI * 700.0):
            drive = DressedDrive(sched, noise, z, self.OMEGA0)
            ref = _two_field_hamiltonian(sched, noise, z, self.OMEGA0, ts)
            assert np.max(np.abs(drive.hamiltonian(ts) - ref)) <= 1e-12 * np.max(np.abs(ref))
            one = drive.hamiltonian(ts[37])
            assert one.shape == (3, 3)
            assert np.max(np.abs(one - ref[37])) <= 1e-12 * np.max(np.abs(ref))

    def test_dressed_drive_is_a_multilevel_drive(self):
        sched, _ = transfer_schedules("tbb1", NOMINAL_ADIABATIC)
        noise = NoiseParams(rabi_mismatch=0.01, common_rabi_error=TWO_PI * 2e3,
                            static_detuning=TWO_PI * 3.0)
        drive = DressedDrive(sched, noise, TWO_PI * 50.0, self.OMEGA0)
        assert not isinstance(DressedDrive, type)
        assert isinstance(drive, MultiLevelDrive)
        assert drive.dim == 3
        assert drive.gain == 1.0 + noise.common_rabi_error / self.OMEGA0
        assert (drive.shift, drive.rabi_mismatch, drive.static_detuning) == (
            TWO_PI * 50.0, noise.rabi_mismatch, noise.static_detuning)

    @pytest.mark.parametrize("noise, covariant", [
        (NoiseParams(), True),
        (NoiseParams(common_rabi_error=TWO_PI * 1e3), True),
        (NoiseParams(rabi_mismatch=1e-4), False),
        (NoiseParams(static_detuning=TWO_PI * 1.0), False),
    ])
    def test_su2_covariant_exactly_without_symmetry_breaking_terms(self, noise, covariant):
        sched, _ = transfer_schedules("tbb1", NOMINAL_ADIABATIC)
        drive = DressedDrive(sched, noise, TWO_PI * 20.0, self.OMEGA0)
        assert drive.su2_covariant is covariant
        assert drive.gain == 1.0 + noise.common_rabi_error / self.OMEGA0
        assert drive.shift == TWO_PI * 20.0 and drive.dim == 3

    @pytest.mark.parametrize("method", ["adiabatic", "tbb1"])
    def test_batch_peaks_equal_the_widest_node(self, method):
        # the peaks of a batch take the largest |gain| and |shift|, which is
        # the largest of its drives' own peaks (the detuning sets them on
        # the adiabatic schedule, the Rabi frequency on TBB1)
        sched, _ = transfer_schedules(method, NOMINAL_ADIABATIC)
        shifts, _ = zeeman_quadrature(TWO_PI * 200.0)
        errors = TWO_PI * np.linspace(-6e3, 2e3, shifts.size)
        drives = [DressedDrive(sched, NoiseParams(common_rabi_error=err), float(z),
                               self.OMEGA0) for err, z in zip(errors, shifts)]
        batch = dataclasses.replace(drives[0], gain=np.array([d.gain for d in drives]),
                                    shift=np.array(shifts))
        assert batch.control_peaks() == max(d.control_peaks() for d in drives)


class TestNoiseValidation:
    @pytest.mark.parametrize("delta_hz", [-40e3, -80e3, 40e3])
    def test_common_rabi_error_must_keep_the_field_on(self, delta_hz):
        sched, _ = transfer_schedules("adiabatic", NOMINAL_ADIABATIC)
        with pytest.raises(ScenarioError, match="omega0"):
            DressedDrive(sched, NoiseParams(common_rabi_error=TWO_PI * delta_hz), 0.0,
                         NOMINAL_ADIABATIC.omega0)

    def test_rabi_mismatch_above_one_rejected(self):
        with pytest.raises(ScenarioError, match="rabi_mismatch"):
            NoiseParams(rabi_mismatch=1.5)
        assert NoiseParams(rabi_mismatch=1.0).rabi_mismatch == 1.0

    def test_negative_operation_count_rejected(self):
        m = MeasurementModel(shots=200, seed=1)
        with pytest.raises(ScenarioError, match=">= 0"):
            measure_fidelity_vs_n("tbb1", [-2, 2], m, cfg=FAST)


class TestBatchedScenarios:
    """fig2e, the pulse-area sweep and criterion 10 propagate their Zeeman
    nodes or areas as one batch, and agree with the per-node loops they
    replaced (copied here as references)."""

    @staticmethod
    def count_builds(monkeypatch, schedules=None):
        """(steps, batch shape) of each build, of the given schedules only."""
        builds = []
        real = dynamics._step_unitaries

        def counted(drive, grid):
            if schedules is None or drive.schedule in schedules:
                builds.append((grid.size - 1, dynamics._batch_shape(drive)))
            return real(drive, grid)

        monkeypatch.setattr(dynamics, "_step_unitaries", counted)
        return builds

    @staticmethod
    def calls(builds):
        """Split builds into propagation calls: each call starts from its
        coarsest grid, so the step count drops where a new call begins."""
        runs = []
        for steps, batch in builds:
            if not runs or steps <= runs[-1][-1][0]:
                runs.append([])
            runs[-1].append((steps, batch))
        return runs

    def test_fig2e_zeeman_nodes_match_per_node_loop(self, monkeypatch, tmp_path):
        noise = NoiseParams(quasi_static_zeeman_sigma=TWO_PI * 200.0)
        params = NOMINAL_ADIABATIC
        builds = self.count_builds(monkeypatch)
        rep = run_adiabatic_transfer(params, noise, cfg=FAST, sample_step=25e-6,
                                     out_dir=str(tmp_path))
        pops = np.genfromtxt(tmp_path / "fig2e_0.csv", delimiter=",", skip_header=1)[:, 1:4]
        shifts, weights = zeeman_quadrature(noise.quasi_static_zeeman_sigma)
        [call] = self.calls(builds)
        assert {b for _, b in call} == {shifts.shape}
        # the per-node loop of the previous implementation
        schedule = adiabatic_method(params)  # the nominal parameters are a round trip
        times = experiments._sample_times(schedule.total_duration, 25e-6, params.t_delta)
        loop_pops = np.zeros((times.size, 3))
        rho_mid = np.zeros((3, 3), dtype=complex)
        rho_end = np.zeros((3, 3), dtype=complex)
        mid_idx = int(np.searchsorted(times, params.t_delta))
        zero, dark = named_state(3, "0"), named_state(3, "D").amps
        for z, w in zip(shifts, weights):
            traj = propagate(DressedDrive(schedule, noise, float(z), params.omega0),
                             zero, FAST, times)
            loop_pops += w * traj.populations
            rho_mid += w * np.outer(traj.states[mid_idx], traj.states[mid_idx].conj())
            rho_end += w * np.outer(traj.states[-1], traj.states[-1].conj())
        fid_mid = float(np.real(dark.conj() @ rho_mid @ dark))
        fid_end = float(np.real(zero.amps.conj() @ rho_end @ zero.amps))
        assert abs(rep.outputs["mid_fidelity_to_dark"] - fid_mid) < 4 * FAST.tolerance
        assert abs(rep.outputs["final_fidelity_to_zero"] - fid_end) < 4 * FAST.tolerance
        # the CSV holds 12 significant digits
        assert np.max(np.abs(pops - loop_pops)) < 4 * FAST.tolerance

    @pytest.mark.parametrize("method", ["single", "tbb1"])
    def test_pulse_area_sweep_matches_duration_scaled_loop(self, method, monkeypatch):
        areas = np.linspace(0.7, 1.3, 13)
        builds = self.count_builds(monkeypatch)
        out = sweep_pulse_area(method, areas, cfg=FAST)
        assert builds == [(builds[0][0], areas.shape)]
        omega0 = NOMINAL_ADIABATIC.omega0
        for i, a in enumerate(areas):
            if method == "single":
                seq = CompositeSequence([(a * np.pi / 2, np.pi / 2)])
            else:
                seq = CompositeSequence([(a * th, ph) for th, ph in bb1_sequence().rotations])
            psi = propagator(lift_schedule(composite_method(seq, omega0), 3), FAST) \
                @ named_state(3, "0")
            assert abs(out["p_f1"][i] - (1.0 - abs(psi.amps[1]) ** 2)) < 1e-12
            assert abs(out["fidelity_to_dark"][i]
                       - state_fidelity(psi, named_state(3, "D"))) < 1e-12

    def test_criterion_10_builds_each_batch_once_per_halving(self, monkeypatch):
        # the fringe fits' analysis pulses are propagated too; count only
        # the transfer operations
        fwd, rev = transfer_schedules("adiabatic", NOMINAL_ADIABATIC)
        builds = self.count_builds(monkeypatch, (fwd, rev))
        assert acceptance.check_closed_loop_eps().passed
        # the floor (one node), the 300 Hz probe and the forward operation of
        # the fringe pipeline (21 nodes each); the reverse operation is the
        # forward leg's time mirror with chi = 0, so its Kraus stack is the
        # forward one transposed and is not propagated
        calls = self.calls(builds)
        assert [{b for _, b in call} for call in calls] == [{(1,)}, {(21,)}, {(21,)}]

    @pytest.mark.parametrize("ns", [[8, 2], [8, 2, 4, 4], [8, 2, 0, 16]])
    def test_each_count_continues_from_the_previous_one(self, ns, monkeypatch):
        # max(ns) + 1 channels in all, plus the single-operation infidelity's,
        # and the states of rebuilding each count from the initial state
        apply_channel = experiments._apply_channel
        applied = []
        monkeypatch.setattr(experiments, "_apply_channel",
                            lambda *args: applied.append(1) or apply_channel(*args))
        rep = measure_fidelity_vs_n("tbb1", ns, MeasurementModel(shots=200, seed=1), cfg=FAST)
        assert len(applied) == max(ns) + 2
        fwd, rev = (experiments._transfer_channel(s, NoiseParams(), FAST,
                                                  NOMINAL_ADIABATIC.omega0, 3)
                    for s in transfer_schedules("tbb1", NOMINAL_ADIABATIC))
        dark = experiments._D3_DARK.amps
        for n, f in zip(sorted(ns), rep.outputs["fidelity_exact"]):
            rho = experiments._D3_ZERO.density_matrix()
            for k in range(n + 1):
                rho = apply_channel(rho, fwd if k % 2 == 0 else rev)
            assert min(1.0, float(np.real(dark.conj() @ rho @ dark))) == f

    def test_fidelity_exact_clamped_to_1(self):
        # nominal d = 3: the trace of rho drifts by rounding over the 65
        # transfers, and <D|rho|D> used to read up to 1.0000000000000047
        rep = measure_fidelity_vs_n("tbb1", [8, 16, 32, 64],
                                    MeasurementModel(shots=10000, seed=3))
        assert rep.outputs["map_counts"][-1] == 65
        assert all(f <= 1.0 for f in rep.outputs["fidelity_exact"])

    def test_transfer_count_refused_before_propagating(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        limit = experiments._MAX_TRANSFERS
        with pytest.raises(ScenarioError, match="transfer operations"):
            measure_fidelity_vs_n("tbb1", [0, limit], MeasurementModel(shots=200, seed=1),
                                  cfg=FAST)
        with pytest.raises(ScenarioError, match="transfer operations"):
            run_ramsey_dressed_qubit(limit + 4, cfg=FAST)
        assert builds == []

    @pytest.mark.parametrize("ns", [[4, 4], [], [0], [8]])
    def test_too_few_distinct_counts_fail_before_propagating(self, ns, monkeypatch):
        builds = self.count_builds(monkeypatch)
        with pytest.raises(FitSingularError, match="2 distinct operation counts"):
            measure_fidelity_vs_n("tbb1", ns, MeasurementModel(shots=200, seed=1), cfg=FAST)
        assert builds == []


class TestSampleGrid:
    """Every sample time is a forced node of every build, so a sample grid
    over the build limit is refused before it is allocated."""

    def test_limit(self):
        limit = dynamics._MAX_BUILD_STEPS
        assert experiments._sample_times(float(limit), 1.0).size == limit + 1
        with pytest.raises(IntegratorError, match="steps per build") as exc:
            experiments._sample_times(limit + 1.0, 1.0)
        assert math.isnan(exc.value.residual)

    def test_long_hold_refused_before_propagating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("propagated an oversized sample grid")

        monkeypatch.setattr(experiments, "propagate", refuse)
        with pytest.raises(IntegratorError, match="steps per build"):
            run_adiabatic_transfer(dataclasses.replace(NOMINAL_ADIABATIC, t_hold=1.0))


class TestScenarioCsvs:
    """The scenario CSVs, written by one column writer, equal byte for byte
    what the per-runner line builders it replaced wrote (copied here as
    references)."""

    @staticmethod
    def lines(*rows) -> bytes:
        return ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("shots", [200, 10**15])  # %.12g would round the second
    def test_fig4b(self, tmp_path, monkeypatch, shots):
        fringes = []
        real = experiments.run_fringe_experiment

        def recorded(*args, **kwargs):
            fringes.append(real(*args, **kwargs))
            return fringes[-1]

        monkeypatch.setattr(experiments, "run_fringe_experiment", recorded)
        m = MeasurementModel(shots=shots, seed=7)
        experiments.run_fig4b(m, cfg=FAST, seed=7, out_dir=str(tmp_path))
        [(data, _)] = fringes
        assert (tmp_path / "fig4b_7.csv").read_bytes() == self.lines(
            "chi_rad,k,n,p0_corrected",
            *(f"{chi:.12g},{int(k)},{m.shots},{ml_estimate_single(k, m):.12g}"
              for chi, k in zip(data.chi, data.counts)))

    def test_fig4c(self, tmp_path):
        rep = measure_fidelity_vs_n(
            "tbb1", [4, 2], MeasurementModel(shots=500, seed=3),
            noise=NoiseParams(quasi_static_zeeman_sigma=TWO_PI * 200.0), cfg=FAST,
            out_dir=str(tmp_path))
        o = rep.outputs
        xs = [int(x) for x in o["map_counts"]]
        assert (tmp_path / "fig4c_3.csv").read_bytes() == self.lines(
            "n_ops,maps,fidelity,fidelity_err,fidelity_exact",
            *(f"{n_ops},{x},{f:.12g},{e:.12g},{fe:.12g}"
              for n_ops, x, f, e, fe in zip([2, 4], xs, o["fidelity_raw"],
                                            o["fidelity_err"], o["fidelity_exact"])))

    def test_ramsey_measured(self, tmp_path, monkeypatch):
        fringes = []
        real = experiments._measured_fringe

        def recorded(p, *args):
            fringes.append(p)
            return real(p, *args)

        monkeypatch.setattr(experiments, "_measured_fringe", recorded)
        run_ramsey_dressed_qubit(4, m=MeasurementModel(shots=500, seed=9), cfg=FAST,
                                 params=NOMINAL_ADIABATIC, seed=9, out_dir=str(tmp_path))
        [p_f1] = fringes
        phases = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
        assert (tmp_path / "ramsey_9.csv").read_bytes() == self.lines(
            "phase_rad,p_f1", *(f"{ph:.12g},{p:.12g}" for ph, p in zip(phases, p_f1)))

    def test_fig3d(self, tmp_path):
        rep = experiments.run_fig3d(cfg=FAST, seed=1, out_dir=str(tmp_path))
        areas = np.linspace(0.7, 1.3, 61)
        assert rep.inputs["areas"] == areas.tolist()
        for method in ("single", "tbb1"):
            res = sweep_pulse_area(method, areas, FAST)
            assert (tmp_path / f"fig3d_1_{method}.csv").read_bytes() == self.lines(
                "area,p_f1", *(f"{a:.12g},{p:.12g}" for a, p in zip(res["areas"], res["p_f1"])))
