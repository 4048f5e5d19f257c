"""Control schedules: Blackman profiles, composite sequences, the lift."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinlift import (
    AdiabaticParams,
    BlackmanTransferSegment,
    CompositeSequence,
    ConstantSegment,
    ControlSchedule,
    ScheduleError,
    adiabatic_method,
    angular_momentum_ops,
    bb1_sequence,
    blackman_detuning,
    blackman_rabi,
    composite_method,
    lab_frame_chirp,
    lift_schedule,
    square_pulse,
)
from spinlift import acceptance
from spinlift.experiments import NOMINAL_ADIABATIC, DressedDrive, NoiseParams, transfer_schedules
from spinlift.waveforms import DEFAULT_PROTECT_DURATION, MultiLevelDrive

TWO_PI = 2 * np.pi
OMEGA0 = TWO_PI * 40e3
DELTA0 = TWO_PI * 60e3


class TestBlackmanProfiles:
    def test_detuning_endpoints_exact(self):
        assert blackman_detuning(0.0, DELTA0, 300e-6) == pytest.approx(DELTA0, rel=1e-15)
        assert abs(blackman_detuning(300e-6, DELTA0, 300e-6)) < 1e-9

    def test_detuning_midpoint(self):
        # (21 + 0 - 4)/50 = 0.34
        assert blackman_detuning(150e-6, DELTA0, 300e-6) == pytest.approx(
            0.34 * DELTA0, rel=1e-12)

    def test_rabi_endpoints_exact(self):
        assert abs(blackman_rabi(0.0, OMEGA0, 200e-6)) < 1e-9
        assert blackman_rabi(200e-6, OMEGA0, 200e-6) == pytest.approx(OMEGA0, rel=1e-15)

    def test_rabi_midpoint(self):
        # (29 + 0 + 4)/50 = 0.66
        assert blackman_rabi(100e-6, OMEGA0, 200e-6) == pytest.approx(
            0.66 * OMEGA0, rel=1e-12)

    def test_rabi_clamps_after_ramp(self):
        assert blackman_rabi(250e-6, OMEGA0, 200e-6) == pytest.approx(OMEGA0, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ScheduleError):
            blackman_detuning(-1e-9, DELTA0, 300e-6)
        with pytest.raises(ScheduleError):
            blackman_detuning(301e-6, DELTA0, 300e-6)
        with pytest.raises(ScheduleError):
            blackman_rabi(-1e-9, OMEGA0, 200e-6)


class TestLabFrameChirp:
    def test_initial_limit(self):
        assert lab_frame_chirp(1e-12, DELTA0, 300e-6) == pytest.approx(DELTA0, rel=1e-6)

    def test_final_value(self):
        # sine terms vanish at t = t_delta, leaving 21/50 of delta0
        assert lab_frame_chirp(300e-6, DELTA0, 300e-6) == pytest.approx(
            21 * DELTA0 / 50, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ScheduleError):
            lab_frame_chirp(0.0, DELTA0, 300e-6)

    def test_derivative_identity_at_third(self):
        t_delta = 300e-6
        t = t_delta / 3
        h = 1e-5 * t_delta
        fp = lab_frame_chirp(t + h, DELTA0, t_delta) * (t + h)
        fm = lab_frame_chirp(t - h, DELTA0, t_delta) * (t - h)
        deriv = (fp - fm) / (2 * h)
        assert deriv == pytest.approx(blackman_detuning(t, DELTA0, t_delta), rel=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_derivative_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        delta0 = rng.uniform(TWO_PI * 5e3, TWO_PI * 300e3)
        t_delta = rng.uniform(20e-6, 1e-3)
        t = rng.uniform(0.05, 0.95) * t_delta
        h = 1e-5 * t_delta
        fp = lab_frame_chirp(t + h, delta0, t_delta) * (t + h)
        fm = lab_frame_chirp(t - h, delta0, t_delta) * (t - h)
        deriv = (fp - fm) / (2 * h)
        assert abs(deriv / blackman_detuning(t, delta0, t_delta) - 1) < 1e-6


class TestAdiabaticMethod:
    def test_nominal_round_trip_duration(self):
        sched = adiabatic_method(AdiabaticParams(
            OMEGA0, DELTA0, 200e-6, 300e-6, 400e-6, "round-trip"))
        assert sched.total_duration == pytest.approx(1000e-6, rel=1e-15, abs=0.0)

    def test_forward_duration(self):
        sched = adiabatic_method(AdiabaticParams(
            OMEGA0, DELTA0, 200e-6, 300e-6, 0.0, "forward"))
        assert sched.total_duration == pytest.approx(300e-6, rel=1e-15, abs=0.0)

    def test_start_controls(self):
        sched = adiabatic_method(AdiabaticParams(
            OMEGA0, DELTA0, 200e-6, 300e-6, 0.0, "forward"))
        omega, chi, delta = sched.controls(0.0)
        assert abs(omega) < 1e-9                    # ramp starts at zero
        assert delta == pytest.approx(DELTA0 / 2, rel=1e-12)
        assert chi == 0.0

    def test_hold_controls(self):
        sched = adiabatic_method(AdiabaticParams(
            OMEGA0, DELTA0, 200e-6, 300e-6, 400e-6, "round-trip"))
        omega, chi, delta = sched.controls(500e-6)
        assert omega == pytest.approx(OMEGA0 / np.sqrt(2), rel=1e-12)
        assert abs(delta) < 1e-12 and chi == 0.0

    def test_round_trip_time_symmetry(self):
        sched = adiabatic_method(AdiabaticParams(
            OMEGA0, DELTA0, 200e-6, 300e-6, 0.0, "round-trip"))
        total = sched.total_duration
        ts = np.linspace(1e-9, total / 2 - 1e-9, 101)
        o1, c1, d1 = sched.controls(ts)
        o2, c2, d2 = sched.controls(total - ts)
        assert np.max(np.abs(o1 - o2)) < 1e-12 * OMEGA0
        assert np.max(np.abs(d1 - d2)) < 1e-12 * DELTA0
        assert np.max(np.abs(c1 - c2)) < 1e-12

    def test_mirrored_schedules(self):
        legs = {direction: adiabatic_method(AdiabaticParams(
            OMEGA0, DELTA0, 200e-6, 300e-6, 40e-6, direction))
            for direction in ("forward", "reverse", "round-trip")}
        fwd, rev, trip = legs["forward"], legs["reverse"], legs["round-trip"]
        # forward + hold mirrors to hold + reverse; the legs mirror to each other
        assert fwd.mirrored() == ControlSchedule([fwd.segments[1], rev.segments[0]])
        assert ControlSchedule(fwd.segments[:1]).mirrored() == rev
        assert rev.mirrored().mirrored() == rev
        assert trip.mirrored() == trip and trip.palindromic
        assert not fwd.palindromic and not rev.palindromic
        ts = np.linspace(0.0, fwd.total_duration, 41)
        for a, b in zip(fwd.controls(ts), fwd.mirrored().controls(fwd.total_duration - ts)):
            assert np.max(np.abs(a - b)) <= 1e-12 * DELTA0
        # a constant segment is its own mirror, but only chi = 0 keeps H real
        leg, hold = trip.segments[0], trip.segments[1]
        assert hold.mirrored() is hold and leg.chi == 0.0
        turned = ControlSchedule([leg, ConstantSegment(40e-6, OMEGA0, chi=np.pi / 2),
                                  leg.mirrored()])
        assert turned.mirrored() == turned and not turned.palindromic
        assert ControlSchedule([]).palindromic

    def test_invariant_violations(self):
        with pytest.raises(ScheduleError):
            AdiabaticParams(OMEGA0, DELTA0, 400e-6, 300e-6)  # t_omega > t_delta
        with pytest.raises(ScheduleError):
            AdiabaticParams(-OMEGA0, DELTA0, 200e-6, 300e-6)
        with pytest.raises(ScheduleError):
            AdiabaticParams(OMEGA0, DELTA0, 200e-6, 300e-6, -1e-6)

    # an infinite t_omega needs an infinite t_delta to pass t_omega <= t_delta
    @pytest.mark.parametrize("cls", [BlackmanTransferSegment, AdiabaticParams])
    @pytest.mark.parametrize("field, value", [
        ("omega0", np.inf), ("omega0", np.nan), ("delta0", np.inf), ("delta0", np.nan),
        ("t_omega", np.inf), ("t_omega", np.nan), ("t_delta", np.inf), ("t_delta", np.nan)])
    def test_non_finite_leg_parameters_rejected(self, cls, field, value):
        fields = {"omega0": OMEGA0, "delta0": DELTA0, "t_omega": 200e-6, "t_delta": 300e-6}
        if field == "t_omega" and value == np.inf:
            fields["t_delta"] = np.inf
        with pytest.raises(ScheduleError, match="finite"):
            cls(**{**fields, field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hold_rejected(self, value):
        with pytest.raises(ScheduleError, match="finite"):
            AdiabaticParams(OMEGA0, DELTA0, 200e-6, 300e-6, value)

    def test_breakpoints_at_the_ramp_corner(self):
        sched = adiabatic_method(AdiabaticParams(
            OMEGA0, DELTA0, 200e-6, 300e-6, 400e-6, "round-trip"))
        fwd, hold, rev = sched.segments
        assert fwd.breakpoints == (200e-6,) and rev.breakpoints == (300e-6 - 200e-6,)
        assert hold.breakpoints == ()
        assert np.array_equal(sched.breakpoints, [200e-6, sched.boundaries[2] + rev.breakpoints[0]])
        with pytest.raises(ValueError):
            sched.breakpoints[0] = 0.0
        # a ramp that fills the leg has no corner inside it
        full = BlackmanTransferSegment(OMEGA0, DELTA0, 300e-6, 300e-6, reverse=True)
        assert full.breakpoints == ()
        assert ControlSchedule([full]).breakpoints.shape == (0,)
        assert composite_method(bb1_sequence(), OMEGA0).breakpoints.shape == (0,)
        # Omega'' jumps at the corner: one-sided second differences disagree
        h = 1e-7
        omega = sched.controls(np.array([200e-6 - 2 * h, 200e-6 - h, 200e-6,
                                         200e-6 + h, 200e-6 + 2 * h]))[0]
        left = omega[0] - 2 * omega[1] + omega[2]
        right = omega[2] - 2 * omega[3] + omega[4]
        jump = 9 * np.pi**2 * OMEGA0 / (50 * 200e-6**2) / np.sqrt(2)
        assert abs((right - left) / h**2 - jump) < 1e-3 * jump


class TestCompositeMethod:
    def test_tbb1_pulse_lengths(self):
        seq = CompositeSequence([(np.pi, 3.267), (2 * np.pi, 0.376),
                                 (np.pi, 3.267), (np.pi / 2, np.pi / 2)])
        sched = composite_method(seq, OMEGA0)
        durations = np.array([s.duration for s in sched.segments]) * 1e6
        assert np.allclose(durations, [17.7, 35.4, 17.7, 8.8], atol=0.05)
        exact = np.sqrt(2) * np.array([np.pi, 2 * np.pi, np.pi, np.pi / 2]) / OMEGA0
        assert np.allclose(durations, exact * 1e6, rtol=1e-12)

    def test_empty_sequence_zero_duration(self):
        sched = composite_method(CompositeSequence([]), OMEGA0)
        assert sched.total_duration == 0.0

    def test_single_rotation_duration(self):
        sched = composite_method(CompositeSequence([(np.pi / 2, np.pi / 2)]), OMEGA0)
        assert sched.total_duration * 1e6 == pytest.approx(8.84, abs=0.01)

    def test_durations_scale_inversely_with_omega0(self):
        seq = bb1_sequence()
        d1 = composite_method(seq, OMEGA0).total_duration
        d2 = composite_method(seq, 2 * OMEGA0).total_duration
        assert d1 == 2 * d2  # exact in floating point: durations are sqrt2*theta/omega0

    def test_protection_hold(self):
        sched = composite_method(bb1_sequence(), OMEGA0, protect=True)
        last = sched.segments[-1]
        assert last == ConstantSegment(DEFAULT_PROTECT_DURATION, OMEGA0 / np.sqrt(2.0))
        assert last.chi == 0.0 and last.delta_half == 0.0

    def test_bb1_phases_match_reported_values(self):
        rots = bb1_sequence().rotations
        thetas = [r[0] for r in rots]
        phis = [r[1] for r in rots]
        assert thetas == [np.pi, 2 * np.pi, np.pi, np.pi / 2]
        assert phis[0] == pytest.approx(3.267, abs=5e-4)
        assert phis[1] % TWO_PI == pytest.approx(0.376, abs=5e-4)
        assert phis[2] == phis[0]
        assert phis[3] == np.pi / 2

    def test_inverse_sequence(self):
        seq = bb1_sequence()
        inv = seq.inverse()
        assert inv.rotations[0][0] == seq.rotations[-1][0]
        assert inv.rotations[0][1] == pytest.approx(seq.rotations[-1][1] + np.pi)

    def test_square_pulse(self):
        sched = square_pulse(np.pi, 0.0, OMEGA0)
        assert sched.total_duration * 1e6 == pytest.approx(17.68, abs=0.01)
        zero = square_pulse(0.0, 1.0, OMEGA0)
        assert zero.total_duration == 0.0

    def test_negative_angle_rejected(self):
        with pytest.raises(ScheduleError):
            CompositeSequence([(-0.1, 0.0)])

    @pytest.mark.parametrize("rotation", [(np.nan, 0.0), (np.pi / 2, np.inf), (np.inf, 0.0),
                                          (np.pi, np.nan)])
    def test_non_finite_rotation_rejected(self, rotation):
        with pytest.raises(ScheduleError, match="finite"):
            CompositeSequence([(np.pi, 0.0), rotation])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["duration", "omega_half", "chi", "delta_half"])
    def test_non_finite_constant_segment_rejected(self, field, value):
        fields = {"duration": 1e-6, "omega_half": OMEGA0, "chi": 0.3, "delta_half": 0.0}
        with pytest.raises(ScheduleError, match="finite"):
            ConstantSegment(**{**fields, field: value})


class TestLiftSchedule:
    def test_d3_hamiltonian_matches_two_field_form(self):
        seg = ConstantSegment(10e-6, omega_half=OMEGA0 / np.sqrt(2), chi=0.7,
                              delta_half=TWO_PI * 5e3)
        drive = lift_schedule(ControlSchedule([seg]), 3)
        h = drive.hamiltonian(5e-6)
        omega = np.sqrt(2) * seg.omega_half
        delta = 2 * seg.delta_half
        expect = 0.5 * np.array([
            [-delta, omega * np.exp(1j * seg.chi), 0],
            [omega * np.exp(-1j * seg.chi), 0, omega * np.exp(1j * seg.chi)],
            [0, omega * np.exp(-1j * seg.chi), delta],
        ])
        assert np.max(np.abs(h - expect)) < 1e-12 * omega

    def test_d2_hamiltonian_matches_single_field_form(self):
        seg = ConstantSegment(10e-6, omega_half=TWO_PI * 20e3, chi=1.1,
                              delta_half=TWO_PI * 7e3)
        drive = lift_schedule(ControlSchedule([seg]), 2)
        h = drive.hamiltonian(1e-6)
        expect = 0.5 * np.array([
            [-seg.delta_half, seg.omega_half * np.exp(1j * seg.chi)],
            [seg.omega_half * np.exp(-1j * seg.chi), seg.delta_half],
        ])
        assert np.max(np.abs(h - expect)) < 1e-12 * seg.omega_half

    def test_control_vector_form(self):
        seg = ConstantSegment(10e-6, omega_half=TWO_PI * 30e3, chi=2.2,
                              delta_half=-TWO_PI * 11e3)
        for d in (2, 3, 4, 5):
            drive = lift_schedule(ControlSchedule([seg]), d)
            ops = angular_momentum_ops(d)
            expect = (seg.omega_half * np.cos(seg.chi) * ops.jx
                      + seg.omega_half * np.sin(seg.chi) * ops.jy
                      + seg.delta_half * ops.jz)
            assert np.max(np.abs(drive.hamiltonian(5e-6) - expect)) < 1e-12 * seg.omega_half

    def test_chi_zero_pure_jx(self):
        seg = ConstantSegment(10e-6, omega_half=TWO_PI * 30e3, chi=0.0, delta_half=0.0)
        drive = lift_schedule(ControlSchedule([seg]), 3)
        ops = angular_momentum_ops(3)
        h = drive.hamiltonian(1e-6)
        assert np.max(np.abs(h - seg.omega_half * ops.jx)) < 1e-12 * seg.omega_half


class TestControlPeaks:
    """control_peaks reads each segment's controls at its two ends.  The
    rule it replaced, 512 evenly spaced probes and the boundaries, is kept
    here as the reference and gives the same float."""

    @staticmethod
    def probed(drive):
        sched = drive.schedule
        total = sched.total_duration
        if total == 0:
            return 0.0
        bounds = sched.boundaries
        probes = np.unique(np.concatenate([np.linspace(0.0, total, 512), bounds,
                                           np.clip(bounds - 1e-15, 0, total)]))
        omega_half, _, delta_half = sched.controls(probes)
        gain = float(np.abs(drive.gain).max())
        level_shift = float(np.abs(drive.shift).max()) + abs(drive.static_detuning)
        peak_omega = (np.sqrt(2.0) * np.max(np.abs(omega_half))
                      * ((1.0 + drive.rabi_mismatch) * gain))
        peak_delta = 2.0 * np.max(np.abs(delta_half)) + 2.0 * level_shift
        return float(max(peak_omega, peak_delta, 0.0))

    @staticmethod
    def scenario_schedules():
        p = NOMINAL_ADIABATIC
        full_ramp = AdiabaticParams(p.omega0, p.delta0, p.t_delta, p.t_delta, p.t_hold)
        schedules = []
        for params in (p, full_ramp):
            for t_hold in (params.t_hold, 0.0):
                for direction in ("round-trip", "forward", "reverse"):
                    schedules.append(adiabatic_method(AdiabaticParams(
                        params.omega0, params.delta0, params.t_omega, params.t_delta, t_hold,
                        direction)))
        schedules += transfer_schedules("adiabatic", p) + transfer_schedules("tbb1", p)
        schedules += [composite_method(bb1_sequence(), p.omega0, protect=True),
                      composite_method(CompositeSequence([(np.pi / 2, np.pi / 2)]), p.omega0),
                      square_pulse(np.pi, 0.0, p.omega0)]
        return schedules

    def test_scenario_schedules(self):
        noise = NoiseParams(common_rabi_error=TWO_PI * 1e3, rabi_mismatch=0.002,
                            static_detuning=TWO_PI * 5.0)
        for sched in self.scenario_schedules():
            for drive in (lift_schedule(sched, 3),
                          DressedDrive(sched, noise, TWO_PI * np.array([-300.0, 0.0, 200.0]),
                                       NOMINAL_ADIABATIC.omega0),
                          MultiLevelDrive(3, sched, gain=np.array([0.5, 1.2]))):
                assert drive.control_peaks() == self.probed(drive), sched

    def test_random_schedules(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            drive = lift_schedule(acceptance._random_schedule(rng), 3)
            assert drive.control_peaks() == self.probed(drive)

    def test_zero_duration_segments(self):
        # a segment of zero length owns no time unless it is the last one
        big = ConstantSegment(0.0, TWO_PI * 1e6)
        seg = ConstantSegment(10e-6, OMEGA0)
        for segs in ([seg, big, seg], [seg, big], [big, seg], [big]):
            drive = lift_schedule(ControlSchedule(segs), 3)
            assert drive.control_peaks() == self.probed(drive)


class TestRealHamiltonian:
    """hamiltonian_of is real exactly when the Jy coefficient is zero on every row."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_real_exactly_without_jy(self, d):
        drive = MultiLevelDrive(d, adiabatic_method(NOMINAL_ADIABATIC),
                                gain=np.array([1.0, 1.01]), shift=TWO_PI * 50.0,
                                rabi_mismatch=0.002, static_detuning=TWO_PI * 5.0)
        coeffs = drive.coefficients(np.linspace(0.0, drive.total_duration, 9))
        h = drive.hamiltonian_of(coeffs)
        assert h.dtype == float and h.shape == (9, 2, d, d)
        mixed = coeffs.copy()
        mixed[4, 1, 1] = 1e-300
        h_mixed = drive.hamiltonian_of(mixed)
        assert h_mixed.dtype == complex
        # the same entries as the complex product, where they share rows
        mixed[4, 1, 1] = 0.0
        assert np.array_equal(drive.hamiltonian_of(mixed), h)
        assert np.array_equal(h_mixed.real, h)
        assert np.max(np.abs(h_mixed.imag)) > 0.0

    def test_chi_nonzero_is_complex(self):
        drive = lift_schedule(composite_method(bb1_sequence(), OMEGA0), 3)
        assert drive.hamiltonian(np.linspace(0.0, drive.total_duration, 5)).dtype == complex
        assert lift_schedule(square_pulse(np.pi, 0.0, OMEGA0), 3).hamiltonian(1e-6).dtype == float


class TestScheduleSampling:
    def test_boundary_belongs_to_later_segment(self):
        s1 = ConstantSegment(1e-6, TWO_PI * 1e3, chi=0.0)
        s2 = ConstantSegment(1e-6, TWO_PI * 2e3, chi=1.0)
        sched = ControlSchedule([s1, s2])
        omega, chi, _ = sched.controls(1e-6)
        assert omega == pytest.approx(TWO_PI * 2e3)
        assert chi == 1.0

    def test_out_of_domain(self):
        sched = ControlSchedule([ConstantSegment(1e-6, TWO_PI * 1e3)])
        with pytest.raises(ScheduleError):
            sched.controls(2e-6)

    def test_boundaries_computed_once_and_read_only(self):
        sched = composite_method(bb1_sequence(np.pi / 2, 0.3), OMEGA0)
        durations = [s.duration for s in sched.segments]
        assert np.array_equal(sched.boundaries, np.concatenate([[0.0], np.cumsum(durations)]))
        assert sched.total_duration == sched.boundaries[-1] == sum(durations)
        assert sched.boundaries is sched.boundaries
        with pytest.raises(ValueError):
            sched.boundaries[1] = 0.0
        with pytest.raises(AttributeError):
            sched.total_duration = 1.0
        assert np.array_equal(sched.boundaries, np.concatenate([[0.0], np.cumsum(durations)]))
