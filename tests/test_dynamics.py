"""Propagation, propagator assembly and eigenstructure scans."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spinlift import (
    AdiabaticParams,
    BlackmanTransferSegment,
    DimensionError,
    CompositeSequence,
    ConstantSegment,
    ControlSchedule,
    IntegratorConfig,
    IntegratorError,
    MultiLevelDrive,
    ScheduleError,
    adiabatic_method,
    angular_momentum_ops,
    basis_state,
    bb1_sequence,
    composite_method,
    eigen_scan,
    lift_schedule,
    lift_unitary,
    named_state,
    phase_aligned_deviation,
    propagate,
    propagator,
    square_pulse,
    state_fidelity,
)
from spinlift import acceptance, dynamics, spin
from spinlift.experiments import DressedDrive, NoiseParams, _transfer_channel, zeeman_quadrature
from spinlift.dynamics import (
    Trajectory,
    _auto_max_step,
    _products_at,
    _step_grid,
    _step_unitaries,
)

TWO_PI = 2 * np.pi
OMEGA0 = TWO_PI * 40e3
CFG = IntegratorConfig()


def random_schedule(rng, max_segments=8):
    n = int(rng.integers(1, max_segments + 1))
    return ControlSchedule([
        ConstantSegment(
            duration=float(rng.uniform(0.5e-6, 6e-6)),
            omega_half=float(rng.uniform(0, TWO_PI * 100e3)),
            chi=float(rng.uniform(0, TWO_PI)),
            delta_half=float(rng.uniform(-TWO_PI * 100e3, TWO_PI * 100e3)))
        for _ in range(n)])


def evolve_states(drive, psi0, sample_times, max_step):
    """psi0 evolved to the sample times on one grid of the given step."""
    grid = _step_grid(drive, sample_times, max_step)
    return _products_at(_step_unitaries(drive, grid), np.searchsorted(grid, sample_times)) @ psi0


def su2_matrices(ab):
    """The 2 x 2 matrices [[a, -b*], [b, a*]] of (a, b) pairs on the last axis."""
    a, b = ab[..., 0], ab[..., 1]
    return np.stack([np.stack([a, -b.conj()], axis=-1), np.stack([b, a.conj()], axis=-1)],
                    axis=-2)


def two_level_rotation(theta, phi):
    """Closed-form R(theta, phi) in the (|down>, |up>) basis."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s * np.exp(1j * phi)],
                     [-1j * s * np.exp(-1j * phi), c]])


def two_level_oracle(schedule):
    """Brute-force two-level propagator: closed-form constant-field steps
    (Rodrigues rotation formula), independent of the integrator."""
    u = np.eye(2, dtype=complex)
    for seg in schedule.segments:
        omega, chi, delta = (float(x[0]) for x in seg.controls(np.array([seg.duration / 2])))
        lam = np.array([omega * np.cos(chi), omega * np.sin(chi), delta])
        norm = np.linalg.norm(lam)
        phi = norm * seg.duration
        if norm == 0:
            continue
        n = lam / norm
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, 1j], [-1j, 0]], dtype=complex)
        sz = np.array([[-1, 0], [0, 1]], dtype=complex)
        gen = n[0] * sx + n[1] * sy + n[2] * sz
        u = (np.cos(phi / 2) * np.eye(2) - 1j * np.sin(phi / 2) * gen) @ u
    return u


class TestHamiltonian:
    def test_zero_controls(self):
        drive = lift_schedule(ControlSchedule([ConstantSegment(1e-6, 0.0)]), 3)
        assert np.max(np.abs(drive.hamiltonian(0.5e-6))) == 0.0

    def test_d2_matrix(self):
        seg = ConstantSegment(1e-6, TWO_PI * 10e3, chi=0.0, delta_half=TWO_PI * 2e3)
        drive = lift_schedule(ControlSchedule([seg]), 2)
        h = drive.hamiltonian(0.5e-6)
        assert h[0, 1] == pytest.approx(seg.omega_half / 2)
        assert h[0, 0] == pytest.approx(-seg.delta_half / 2)

    def test_chi_half_pi_imaginary_offdiag(self):
        seg = ConstantSegment(1e-6, TWO_PI * 10e3, chi=np.pi / 2)
        drive = lift_schedule(ControlSchedule([seg]), 3)
        h = drive.hamiltonian(0.5e-6)
        omega = np.sqrt(2) * seg.omega_half
        assert abs(h[0, 1].real) < 1e-9
        assert h[0, 1].imag == pytest.approx(omega / 2, rel=1e-12)

    def test_domain_error(self):
        drive = lift_schedule(ControlSchedule([ConstantSegment(1e-6, 1.0)]), 3)
        with pytest.raises(ScheduleError):
            drive.hamiltonian(2e-6)


class TestPropagate:
    def test_zero_drive_constant_trajectory(self):
        drive = lift_schedule(ControlSchedule([ConstantSegment(5e-6, 0.0)]), 3)
        psi0 = named_state(3, "u")
        traj = propagate(drive, psi0, CFG, np.linspace(0, 5e-6, 7))
        assert np.max(np.abs(traj.states - psi0.amps)) < 1e-12

    def test_square_half_pi_reaches_dark(self):
        drive = lift_schedule(square_pulse(np.pi / 2, np.pi / 2, OMEGA0), 3)
        traj = propagate(drive, named_state(3, "0"), CFG, [drive.total_duration])
        assert state_fidelity(traj.state(0), named_state(3, "D")) > 1 - 1e-8

    def test_majorana_equivalence_random(self):
        # the two-level side comes from the independent closed-form oracle,
        # so the d-level propagator and the lift are checked by disjoint code
        rng = np.random.default_rng(42)
        for _ in range(10):
            sched = random_schedule(rng)
            u2 = two_level_oracle(sched)
            a, b = u2[0, 0], u2[1, 0]
            norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / norm, b / norm
            assert phase_aligned_deviation(
                propagator(lift_schedule(sched, 2), CFG).mat, u2) < 1e-8
            for d in (3, 4, 5):
                ud = propagator(lift_schedule(sched, d), CFG)
                assert phase_aligned_deviation(ud, lift_unitary(a, b, d)) < 1e-8

    def test_norm_conservation(self):
        rng = np.random.default_rng(9)
        sched = random_schedule(rng)
        drive = lift_schedule(sched, 4)
        psi0 = propagate(drive, _random_state(rng, 4), CFG,
                         np.linspace(0, sched.total_duration, 11))
        norms = np.linalg.norm(psi0.states, axis=1)
        assert np.max(np.abs(norms - 1)) < 1e-9

    def test_populations_consistent(self):
        drive = lift_schedule(square_pulse(np.pi / 2, 0.0, OMEGA0), 3)
        traj = propagate(drive, named_state(3, "0"), CFG,
                         np.linspace(0, drive.total_duration, 5))
        assert np.max(np.abs(traj.populations - np.abs(traj.states) ** 2)) < 1e-15
        assert np.max(np.abs(traj.p_f1 - (1 - traj.populations[:, 1]))) < 1e-15

    def test_step_halving_convergence_validated(self):
        # the accepted result must be stable under one further halving
        sched = adiabatic_method(AdiabaticParams(OMEGA0, TWO_PI * 60e3,
                                                 100e-6, 150e-6, 0.0, "forward"))
        drive = lift_schedule(sched, 3)
        times = np.array([sched.total_duration])
        accepted = propagate(drive, named_state(3, "0"), CFG, times)
        h_acc = _auto_max_step(drive)
        res_prev = None
        # find the accepted step by replaying the ladder
        coarse = evolve_states(drive, named_state(3, "0").amps, times, h_acc)
        for _ in range(dynamics._MAX_HALVINGS):
            fine = evolve_states(drive, named_state(3, "0").amps, times, h_acc / 2)
            if np.max(np.abs(fine - coarse)) < CFG.tolerance:
                break
            coarse = fine
            h_acc /= 2
        extra = evolve_states(drive, named_state(3, "0").amps, times, h_acc / 4)
        assert np.max(np.abs(extra - accepted.states)) < 2 * CFG.tolerance

    def test_nonconvergence_raises(self, monkeypatch):
        sched = adiabatic_method(AdiabaticParams(OMEGA0, TWO_PI * 60e3,
                                                 100e-6, 150e-6, 0.0, "forward"))
        drive = lift_schedule(sched, 3)
        monkeypatch.setattr(dynamics, "DEFAULT_PHASE_PER_STEP", 20e-6 * drive.control_peaks())
        monkeypatch.setattr(dynamics, "_MAX_HALVINGS", 2)
        with pytest.raises(IntegratorError, match="after 2 halvings") as err:
            propagate(drive, named_state(3, "0"), IntegratorConfig(tolerance=1e-14),
                      [sched.total_duration])
        assert err.value.residual > 0

    def test_sample_times_validation(self):
        drive = lift_schedule(square_pulse(np.pi, 0.0, OMEGA0), 3)
        with pytest.raises(ScheduleError):
            propagate(drive, named_state(3, "0"), CFG, [2 * drive.total_duration])

    @pytest.mark.parametrize("times", [[np.nan], [0.0, np.nan], [0.0, np.nan, 1e-6]])
    def test_non_finite_sample_time_rejected(self, times):
        drive = lift_schedule(square_pulse(np.pi, 0.0, OMEGA0), 3)
        with pytest.raises(ScheduleError, match="finite"):
            propagate(drive, named_state(3, "0"), CFG, times)


class TestPropagator:
    def test_zero_duration_identity(self):
        drive = lift_schedule(ControlSchedule([]), 3)
        assert np.max(np.abs(propagator(drive, CFG).mat - np.eye(3))) < 1e-14

    def test_tbb1_zero_error(self):
        drive = lift_schedule(composite_method(bb1_sequence(), OMEGA0), 3)
        psi = propagator(drive, CFG) @ named_state(3, "0")
        assert state_fidelity(psi, named_state(3, "D")) >= 1 - 1e-8

    def test_bb1_matches_closed_form_two_level(self):
        seq = [(np.pi, 3.267), (2 * np.pi, 0.376), (np.pi, 3.267),
               (np.pi / 2, np.pi / 2)]
        drive = lift_schedule(composite_method(CompositeSequence(seq), OMEGA0), 2)
        got = propagator(drive, CFG).mat
        expect = np.eye(2)
        for theta, phi in seq:
            expect = two_level_rotation(theta, phi) @ expect
        assert np.max(np.abs(got - expect)) < 1e-8

    def test_unitarity(self):
        rng = np.random.default_rng(1)
        sched = random_schedule(rng)
        u = propagator(lift_schedule(sched, 5), CFG).mat
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10

    def test_time_reversal_transpose_identity(self):
        # for chi = 0 schedules the mirrored leg's propagator is the transpose
        p = AdiabaticParams(OMEGA0, TWO_PI * 60e3, 100e-6, 150e-6, 0.0)
        fwd = adiabatic_method(AdiabaticParams(p.omega0, p.delta0, p.t_omega,
                                               p.t_delta, 0.0, "forward"))
        rev = adiabatic_method(AdiabaticParams(p.omega0, p.delta0, p.t_omega,
                                               p.t_delta, 0.0, "reverse"))
        uf = propagator(lift_schedule(fwd, 3), CFG).mat
        ur = propagator(lift_schedule(rev, 3), CFG).mat
        assert np.max(np.abs(ur - uf.T)) < 1e-8

    def test_round_trip_restores_start_state(self):
        sched = adiabatic_method(AdiabaticParams(OMEGA0, TWO_PI * 60e3,
                                                 200e-6, 300e-6, 0.0, "round-trip"))
        psi = propagator(lift_schedule(sched, 3), CFG) @ named_state(3, "0")
        # bounded by the non-adiabaticity floor, not exact
        assert state_fidelity(psi, named_state(3, "0")) > 1 - 1e-3


class TestIntegrator:
    FORWARD = adiabatic_method(AdiabaticParams(OMEGA0, TWO_PI * 60e3,
                                               200e-6, 300e-6, 0.0, "forward"))

    @staticmethod
    def count_builds(monkeypatch):
        builds = []

        def counted(drive, grid):
            builds.append(grid.size - 1)
            return _step_unitaries(drive, grid)

        monkeypatch.setattr(dynamics, "_step_unitaries", counted)
        return builds

    def test_cf4_fourth_order_on_blackman_leg(self):
        drive = lift_schedule(self.FORWARD, 3)
        ref = propagator(drive, IntegratorConfig(tolerance=1e-13)).mat

        def error(h):
            grid = _step_grid(drive, np.array([]), h)
            total = _products_at(_step_unitaries(drive, grid), np.array([grid.size - 1]))[0]
            return np.max(np.abs(total - ref))

        # fourth order predicts a 16x cut; a second-order rule gives 4x
        assert error(5e-6) > 10 * error(2.5e-6)

    def test_cf4_fourth_order_on_dense_blackman_leg(self):
        noise = NoiseParams(rabi_mismatch=0.002, static_detuning=TWO_PI * 5.0)
        drive = DressedDrive(self.FORWARD, noise, 0.0, OMEGA0)
        assert not drive.su2_covariant
        # the dense path's rounding floor stops halving short of 1e-13
        ref = propagator(drive, IntegratorConfig(tolerance=1e-12)).mat

        def error(h):
            grid = _step_grid(drive, np.array([]), h)
            total = _products_at(_step_unitaries(drive, grid), np.array([grid.size - 1]))[0]
            return np.max(np.abs(total - ref))

        assert error(5e-6) > 10 * error(2.5e-6)

    def test_cf4_fourth_order_across_the_ramp_corner(self):
        noise = NoiseParams(rabi_mismatch=0.002, static_detuning=TWO_PI * 5.0)
        drive = DressedDrive(self.FORWARD, noise, 0.0, OMEGA0)
        assert np.array_equal(drive.schedule.breakpoints, [200e-6])
        ref = propagator(drive, IntegratorConfig(tolerance=1e-12)).mat

        def error(n):
            grid = _step_grid(drive, np.array([]), drive.total_duration / n)
            total = _products_at(_step_unitaries(drive, grid), np.array([grid.size - 1]))[0]
            return np.max(np.abs(total - ref))

        # 1132 and 2264 equal steps put no node on the ramp's corner at
        # t_omega, where Omega'' jumps, unless the grid forces one: a step
        # across it made one halving cut the error only 9.3x
        assert error(1132) > 12 * error(2264)

    def test_halving_stops_at_the_rounding_floor(self, monkeypatch):
        noise = NoiseParams(rabi_mismatch=0.002, static_detuning=TWO_PI * 5.0)
        drive = DressedDrive(self.FORWARD, noise, 0.0, OMEGA0)
        builds = self.count_builds(monkeypatch)
        with pytest.raises(IntegratorError, match="rounding floor") as err:
            propagator(drive, IntegratorConfig(tolerance=1e-13))
        # halving on to the step grid's limit took 10 builds, up to 144,792 steps
        assert len(builds) < 10
        assert 1e-13 <= err.value.residual < builds[-1] * np.finfo(float).eps

    def test_step_grid_limit(self, monkeypatch):
        drive = lift_schedule(self.FORWARD, 3)
        at_cap = _step_grid(drive, np.array([]), 1e-6).size - 1
        monkeypatch.setattr(dynamics, "_MAX_BUILD_STEPS", at_cap)
        assert _step_grid(drive, np.array([]), 1e-6).size - 1 == at_cap
        with pytest.raises(IntegratorError, match="steps per build") as err:
            _step_grid(drive, np.array([]), 0.5e-6)
        assert np.isnan(err.value.residual)
        # a first step of 0.5 us needs twice the steps of the cap
        monkeypatch.setattr(dynamics, "DEFAULT_PHASE_PER_STEP", 0.5e-6 * drive.control_peaks())
        with pytest.raises(IntegratorError, match="steps per build"):
            propagator(drive, CFG)

    def test_constant_segments_exact_in_one_build(self, monkeypatch):
        rng = np.random.default_rng(5)
        sched = random_schedule(rng)
        u2 = two_level_oracle(sched)
        a, b = u2[0, 0], u2[1, 0]
        builds = self.count_builds(monkeypatch)
        for d in (2, 3, 4, 5):
            builds.clear()
            ud = propagator(lift_schedule(sched, d), CFG)
            assert builds == [len(sched.segments)]
            assert phase_aligned_deviation(ud, lift_unitary(a, b, d)) < 1e-12

    def test_constant_segments_not_subdivided_in_propagate(self, monkeypatch):
        drive = lift_schedule(composite_method(bb1_sequence(), OMEGA0), 3)
        builds = self.count_builds(monkeypatch)
        times = np.linspace(0.0, drive.total_duration, 7)
        propagate(drive, named_state(3, "0"), CFG, times)
        # one step per gap between the forced nodes (boundaries and samples)
        nodes = np.unique(np.concatenate([drive.boundaries, times]))
        assert builds == [nodes.size - 1]

    def test_propagate_agrees_with_propagator(self):
        sched = adiabatic_method(AdiabaticParams(OMEGA0, TWO_PI * 60e3,
                                                 100e-6, 150e-6, 50e-6, "round-trip"))
        drive = lift_schedule(sched, 3)
        psi0 = named_state(3, "0")
        traj = propagate(drive, psi0, CFG, [sched.total_duration])
        psi = propagator(drive, CFG) @ psi0
        assert np.max(np.abs(traj.states[-1] - psi.amps)) < 2 * CFG.tolerance

    def test_trajectory_states_projected_to_unit_norm(self):
        psi = named_state(3, "D").amps
        traj = Trajectory(times=[0.0], states=[psi * (1 + 1e-11)])
        assert abs(np.linalg.norm(traj.states[0]) - 1) < 1e-15
        traj.state(0)  # StateVector checks norm^2 to 1e-12
        with pytest.raises(IntegratorError):
            Trajectory(times=[0.0], states=[psi * (1 + 1e-8)])

    def test_trajectory_rejects_nan_states(self):
        # a nan state used to pass the norm check, which was written dev > tol
        with pytest.raises(IntegratorError):
            Trajectory(times=[0.0], states=[[np.nan, 0.0]])
        with pytest.raises(IntegratorError):
            Trajectory(times=[0.0], states=[[[1.0, 0.0], [np.nan, 0.0]]])

    def test_debug_log_reports_builds(self, caplog):
        caplog.set_level("DEBUG", logger="spinlift.dynamics")
        propagator(lift_schedule(square_pulse(np.pi, 0.0, OMEGA0), 3), CFG)
        propagator(lift_schedule(self.FORWARD, 3), IntegratorConfig(tolerance=1e-8))
        shortcut, halved = [r.getMessage() for r in caplog.records]
        assert "all segments constant, 1 build" in shortcut
        assert "builds, steps per build [" in halved and "residual" in halved


class TestStepGrid:
    """_step_grid's vectorized pass against a per-interval loop, kept here as
    the reference, node for node."""

    @staticmethod
    def forced_nodes(drive, sample_times):
        """Boundaries, sample times and each breakpoint that is not within 4
        ulps of one of them, sorted and unique."""
        total = drive.total_duration
        forced = np.unique(np.concatenate([drive.boundaries, sample_times, [0.0, total]]))
        forced = forced[(forced >= 0.0) & (forced <= total)]
        corners = [c for c in drive.schedule.breakpoints
                   if all(abs(c - f) > 4 * np.spacing(c) for f in forced)]
        return np.unique(np.concatenate([forced, corners]))

    @classmethod
    def loop(cls, drive, sample_times, max_step):
        forced = cls.forced_nodes(drive, sample_times)
        const = dynamics._constant_mask(drive, forced[:-1], forced[1:])
        counts = np.where(const, 1.0, np.maximum(1.0, np.ceil(np.diff(forced) / max_step - 1e-12)))
        pieces = [forced[:1]]
        for a, b, n in zip(forced[:-1], forced[1:], counts.astype(int).tolist()):
            if n > 1:
                interior = a + (b - a) * np.arange(1, n) / n
                pieces.append(np.unique(interior[(interior > a) & (interior < b)]))
            pieces.append(np.array([b]))
        return np.concatenate(pieces)

    def check(self, drive, sample_times, max_step):
        sample_times = np.asarray(sample_times, dtype=float)
        grid = _step_grid(drive, sample_times, max_step)
        assert np.array_equal(grid, self.loop(drive, sample_times, max_step))
        forced = self.forced_nodes(drive, sample_times)
        # every forced node appears, exactly once: no interior node rounds onto it
        nodes, times = np.unique(grid, return_counts=True)
        at = np.searchsorted(nodes, forced)
        assert np.array_equal(nodes[at], forced) and np.all(times[at] == 1)
        return grid

    @staticmethod
    def mixed_schedule(rng):
        segs = []
        for _ in range(int(rng.integers(1, 7))):
            if rng.random() < 0.5:
                segs.append(ConstantSegment(float(rng.uniform(0.1e-6, 30e-6)),
                                            float(rng.uniform(0, TWO_PI * 100e3))))
            else:
                t_delta = float(rng.uniform(1e-6, 80e-6))
                segs.append(BlackmanTransferSegment(OMEGA0, TWO_PI * 60e3,
                                                    t_delta * float(rng.uniform(0.3, 1.0)),
                                                    t_delta, bool(rng.random() < 0.5)))
        return ControlSchedule(segs)

    def test_random_schedules_and_sample_times(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            drive = lift_schedule(self.mixed_schedule(rng), 3)
            total = drive.total_duration
            samples = np.sort(np.concatenate([
                rng.uniform(0.0, total, int(rng.integers(0, 40))),
                rng.choice(drive.boundaries, int(rng.integers(0, 4))),  # on segment boundaries
                [0.0, total]]))
            samples = np.repeat(samples, rng.integers(1, 3, samples.size))  # repeated times
            max_step = float(10.0 ** rng.uniform(-8.5, -5))
            self.check(drive, samples, max_step)
            self.check(drive, np.array([]), max_step)

    def test_one_ulp_intervals(self):
        drive = lift_schedule(TestIntegrator.FORWARD, 3)
        t = 1e-4
        ulps = t + np.spacing(t) * np.arange(4)
        grid = self.check(drive, ulps, 1e-6)
        assert np.array_equal(grid[np.searchsorted(grid, ulps[0]) :][:4], ulps)
        # a sample time within 4 ulps of the ramp's corner stands for it, and
        # one 5 ulps away leaves a sliver step to the corner
        corner = drive.schedule.breakpoints[0]
        for ulps, kept in ((-4, False), (1, False), (4, False), (5, True)):
            t = corner + ulps * np.spacing(corner)
            grid = self.check(drive, [t], 1e-6)
            assert (corner in grid) == kept and t in grid
            assert (np.min(np.diff(grid)) < 1e-18) == kept
        # a smooth segment a few ulps long behind a constant one: steps of a
        # third of an ulp, whose interior nodes round onto the forced ones
        a = 10e-6
        ulp = np.spacing(a)
        tiny = ControlSchedule([ConstantSegment(a, OMEGA0),
                                BlackmanTransferSegment(OMEGA0, TWO_PI * 60e3, 5 * ulp, 5 * ulp)])
        drive = lift_schedule(tiny, 3)
        inside = drive.boundaries[1] + ulp * np.arange(1, 4)
        grid = self.check(drive, inside, ulp / 3)
        assert np.all(np.diff(grid) > 0.0)

    def test_zero_total_duration(self):
        for sched in (ControlSchedule([]), ControlSchedule([ConstantSegment(0.0, OMEGA0)])):
            drive = lift_schedule(sched, 3)
            for samples in ([], [0.0], [0.0, 0.0]):
                assert np.array_equal(self.check(drive, samples, 1e-6), [0.0])


class TestSu2Exp:
    """The closed-form 2x2 step holds across the float range: its norm
    used to overflow to nan above about 1e154 rad/s and underflow to the
    identity below about 1e-154."""

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e155, 1e-155])
    def test_matches_the_unit_scale_step(self, scale):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(50, 3))
        v[0] = 0.0
        v[1] = [0.0, 0.0, -2.0]
        dts = rng.uniform(0.1, 3.0, size=50)
        unit = dynamics._su2_exp(v, dts)
        assert np.max(np.abs(np.sum(np.abs(unit) ** 2, axis=-1) - 1.0)) < 1e-15
        assert np.max(np.abs(dynamics._su2_exp(v * scale, dts / scale) - unit)) < 1e-15


class TestSu2Path:
    """SU(2)-covariant drives propagate as 2x2 problems lifted once; the dense
    d-level path is the reference they must agree with."""

    FORWARD = TestIntegrator.FORWARD
    COMPOSITE = composite_method(bb1_sequence(), OMEGA0, protect=True)
    TOL = IntegratorConfig(tolerance=1e-8)

    @staticmethod
    def count_paths(monkeypatch):
        paths = []
        real = _step_unitaries

        def counted(drive, grid):
            steps = real(drive, grid)
            paths.append("su2" if steps.compose is dynamics._su2_compose else "dense")
            return steps

        monkeypatch.setattr(dynamics, "_step_unitaries", counted)
        return paths

    @pytest.mark.parametrize("d", range(2, 9))
    def test_lifted_drives_agree_with_dense(self, d):
        for sched in (self.FORWARD, self.COMPOSITE):
            drive = lift_schedule(sched, d)
            su2 = propagator(drive, self.TOL).mat
            dense = dynamics._dense_propagator(drive, self.TOL).mat
            assert np.max(np.abs(su2 - dense)) < self.TOL.tolerance

    def test_same_grid_matches_dense_steps(self):
        # on one grid the closed-form 2x2 steps, lifted, equal the dense steps
        # to rounding, both for the total product and along a trajectory
        drive = DressedDrive(self.FORWARD, NoiseParams(common_rabi_error=TWO_PI * 2e3),
                             TWO_PI * 500.0, OMEGA0)
        times = np.linspace(0.0, self.FORWARD.total_duration, 9)
        grid = _step_grid(drive, times, 2e-6)
        su2 = _step_unitaries(drive, grid)
        dense = dynamics._dense_steps(drive, grid)
        assert su2.compose is dynamics._su2_compose
        n = np.array([grid.size - 1])
        assert np.max(np.abs(_products_at(su2, n) - _products_at(dense, n))) < 1e-13
        psi0 = np.array([0, 1, 0], dtype=complex)
        idx = np.searchsorted(grid, times)
        states = _products_at(su2, idx) @ psi0
        expect = [_products_at(dense, np.array([k]))[0] @ psi0 for k in idx]
        assert np.max(np.abs(states - np.array(expect))) < 1e-13

    @pytest.mark.parametrize("dim", [3, 4])
    def test_dressed_drive_with_zeeman_and_gain_agrees_with_dense(self, dim, monkeypatch):
        # dim 4 puts the dressed drive's gain and shift on a full spin-3/2
        noise = NoiseParams(common_rabi_error=-TWO_PI * 3e3)
        paths = self.count_paths(monkeypatch)
        for sched in (self.FORWARD, self.COMPOSITE):
            drive = DressedDrive(sched, noise, TWO_PI * 800.0, OMEGA0)
            if dim == 4:
                drive = MultiLevelDrive(4, sched, gain=drive.gain, shift=drive.shift)
            su2 = propagator(drive, self.TOL).mat
            assert set(paths) == {"su2"}
            dense = dynamics._dense_propagator(drive, self.TOL).mat
            assert np.max(np.abs(su2 - dense)) < self.TOL.tolerance
            psi0 = basis_state(dim, 1)
            times = np.linspace(0.0, sched.total_duration, 5)
            traj = propagate(drive, psi0, self.TOL, times)
            assert np.max(np.abs(traj.states[-1] - dense @ psi0.amps)) < 2 * self.TOL.tolerance

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_batched_gauss_hermite_nodes_match_per_node_dense(self, tol, monkeypatch):
        cfg = IntegratorConfig(tolerance=tol)
        noise = NoiseParams(quasi_static_zeeman_sigma=TWO_PI * 200.0)
        shifts, weights = zeeman_quadrature(noise.quasi_static_zeeman_sigma)
        builds = TestIntegrator.count_builds(monkeypatch)
        kraus = _transfer_channel(self.FORWARD, noise, cfg, OMEGA0, 3)
        batched = kraus / np.sqrt(weights)[:, None, None]
        n_batched_builds = len(builds)
        per_node = [dynamics._dense_propagator(DressedDrive(self.FORWARD, noise, float(z),
                                                            OMEGA0), cfg).mat
                    for z in shifts]
        assert len(batched) == shifts.size
        # one batched build per halving, not one per node
        assert n_batched_builds < shifts.size
        # each side is within tol of the exact operator, so they differ by < 2 tol
        assert max(np.max(np.abs(u - v)) for u, v in zip(batched, per_node)) < 2 * tol

    def test_batch_of_constant_schedules_builds_once(self, monkeypatch):
        noise = NoiseParams(quasi_static_zeeman_sigma=TWO_PI * 200.0)
        shifts, weights = zeeman_quadrature(noise.quasi_static_zeeman_sigma)
        builds = TestIntegrator.count_builds(monkeypatch)
        kraus = _transfer_channel(self.COMPOSITE, noise, CFG, OMEGA0, 3)
        batched = kraus / np.sqrt(weights)[:, None, None]
        assert len(builds) == 1
        for z, u in zip(shifts, batched):
            single = propagator(DressedDrive(self.COMPOSITE, noise, float(z), OMEGA0), CFG)
            assert np.max(np.abs(u - single.mat)) < 1e-12

    @pytest.mark.parametrize("noise", [NoiseParams(rabi_mismatch=0.002),
                                       NoiseParams(static_detuning=TWO_PI * 5.0),
                                       NoiseParams(rabi_mismatch=0.001,
                                                   quasi_static_zeeman_sigma=TWO_PI * 200.0)])
    def test_symmetry_breaking_noise_takes_dense_path(self, noise, monkeypatch):
        paths = self.count_paths(monkeypatch)
        drive = DressedDrive(self.COMPOSITE, noise, TWO_PI * 100.0, OMEGA0)
        assert not drive.su2_covariant
        propagator(drive, CFG)
        propagate(drive, named_state(3, "0"), CFG, [drive.total_duration])
        _transfer_channel(self.COMPOSITE, noise, CFG, OMEGA0, 3)
        assert paths and set(paths) == {"dense"}

    def test_criterion_1_propagates_dense_drive_against_lift(self, monkeypatch):
        paths = self.count_paths(monkeypatch)
        dense_builds = []
        real_dense = dynamics._dense_steps

        def counted_dense(drive, grid):
            dense_builds.append(drive.dim)
            return real_dense(drive, grid)

        monkeypatch.setattr(dynamics, "_dense_steps", counted_dense)
        result = acceptance.check_majorana_equivalence()
        assert result.passed
        # 100 schedules: one 2x2 reference each, lifted and compared with a
        # dense propagation at every d = 2..5
        assert paths == ["su2"] * 100
        assert sorted(set(dense_builds)) == [2, 3, 4, 5] and len(dense_builds) == 400

    def test_debug_log_names_path(self, caplog):
        caplog.set_level("DEBUG", logger="spinlift.dynamics")
        propagator(lift_schedule(self.COMPOSITE, 3), CFG)
        drive = DressedDrive(self.COMPOSITE, NoiseParams(rabi_mismatch=0.001), 0.0, OMEGA0)
        propagator(drive, CFG)
        su2, dense = [r.getMessage() for r in caplog.records]
        assert "path su2" in su2 and "path dense" in dense


class TestDriveBatch:
    """A drive whose gain or shift is an array is one batch, built once per
    grid on either path and equal to its drives propagated one by one."""

    FORWARD = TestIntegrator.FORWARD
    COMPOSITE = TestSu2Path.COMPOSITE

    @staticmethod
    def count_batch_builds(monkeypatch):
        builds = []

        def counted(drive, grid):
            builds.append((grid.size - 1, dynamics._batch_shape(drive)))
            return _step_unitaries(drive, grid)

        monkeypatch.setattr(dynamics, "_step_unitaries", counted)
        return builds

    @pytest.mark.parametrize("field, values", [("gain", [1.0, 1.01, 0.97]),
                                               ("shift", [0.0, TWO_PI * 900.0, -TWO_PI * 300.0])])
    def test_array_field_with_scalar_other_matches_single_drives(self, field, values):
        batch = MultiLevelDrive(3, self.COMPOSITE, **{field: np.array(values)})
        mats = dynamics.propagators(batch, CFG)
        assert len(mats) == len(values)
        for v, u in zip(values, mats):
            single = propagator(MultiLevelDrive(3, self.COMPOSITE, **{field: v}), CFG)
            assert np.max(np.abs(u.mat - single.mat)) < 1e-12
        with pytest.raises(ScheduleError, match="propagators"):
            propagator(batch, CFG)

    def test_hamiltonian_batch_axes_follow_time_axes(self):
        gains, shifts = np.array([1.0, 1.02]), np.array([0.0, TWO_PI * 400.0])
        batch = MultiLevelDrive(4, self.FORWARD, gain=gains, shift=shifts,
                                rabi_mismatch=0.001)
        ts = np.linspace(0.0, self.FORWARD.total_duration, 5)
        h = batch.hamiltonian(ts)
        assert h.shape == (5, 2, 4, 4)
        for k, (g, z) in enumerate(zip(gains, shifts)):
            single = replace(batch, gain=g, shift=z)
            assert np.array_equal(h[:, k], single.hamiltonian(ts))
            assert np.array_equal(batch.hamiltonian(ts[2])[k], single.hamiltonian(ts[2]))

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_dense_batch_matches_per_node_dense(self, tol, monkeypatch):
        cfg = IntegratorConfig(tolerance=tol)
        noise = NoiseParams(rabi_mismatch=0.001, quasi_static_zeeman_sigma=TWO_PI * 200.0)
        shifts, weights = zeeman_quadrature(noise.quasi_static_zeeman_sigma)
        builds = self.count_batch_builds(monkeypatch)
        kraus = _transfer_channel(self.FORWARD, noise, cfg, OMEGA0, 3)
        batched = kraus / np.sqrt(weights)[:, None, None]
        # one build per halving, each of the whole batch, on the dense path
        steps = [n for n, _ in builds]
        assert {b for _, b in builds} == {shifts.shape}
        assert steps == sorted(set(steps)) and len(steps) <= dynamics._MAX_HALVINGS + 1
        per_node = [dynamics._dense_propagator(DressedDrive(self.FORWARD, noise, float(z),
                                                            OMEGA0), cfg).mat
                    for z in shifts]
        assert max(np.max(np.abs(u - v)) for u, v in zip(batched, per_node)) < 2 * tol

    @pytest.mark.parametrize("noise", [NoiseParams(common_rabi_error=TWO_PI * 2e3),
                                       NoiseParams(rabi_mismatch=0.001)])
    def test_batched_propagate_matches_per_node_propagate(self, noise, monkeypatch):
        shifts = TWO_PI * np.array([-500.0, 0.0, 250.0, 800.0])
        times = np.linspace(0.0, self.FORWARD.total_duration, 6)
        psi0 = named_state(3, "0")
        builds = self.count_batch_builds(monkeypatch)
        traj = propagate(DressedDrive(self.FORWARD, noise, shifts, OMEGA0), psi0, CFG, times)
        assert traj.states.shape == (times.size, shifts.size, 3)
        assert {b for _, b in builds} == {shifts.shape}
        for k, z in enumerate(shifts):
            single = propagate(DressedDrive(self.FORWARD, noise, float(z), OMEGA0),
                               psi0, CFG, times)
            assert np.max(np.abs(traj.states[:, k] - single.states)) < 2 * CFG.tolerance
            assert np.max(np.abs(traj.p_f1[:, k] - single.p_f1)) < 4 * CFG.tolerance

    @pytest.mark.parametrize("n_shifts", [3, 4, 5])
    def test_single_drive_accessors_refuse_a_batch(self, n_shifts, tmp_path):
        # odd and even batches, so neither p_f1's middle level nor the CSV
        # writer is reached first
        shifts = TWO_PI * np.linspace(-500.0, 500.0, n_shifts)
        drive = DressedDrive(self.COMPOSITE, NoiseParams(), shifts, OMEGA0)
        traj = propagate(drive, named_state(3, "0"), CFG, [0.0, drive.total_duration])
        for call in (lambda: traj.state(1), lambda: traj.to_csv(tmp_path / "traj.csv")):
            with pytest.raises(DimensionError, match=rf"batch of shape \({n_shifts},\)"):
                call()
        assert not any(tmp_path.iterdir())

    def test_trajectory_norm_check_covers_every_node(self):
        psi = named_state(3, "D").amps
        traj = Trajectory(times=[0.0], states=[[psi, psi * (1 + 1e-11)]])
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=-1) - 1)) < 1e-15
        assert traj.dim == 3 and traj.p_f1.shape == (1, 2)
        with pytest.raises(IntegratorError):
            Trajectory(times=[0.0], states=[[psi, psi * (1 + 1e-8)]])


class TestProductsAt:
    """_products_at, the one ordered-product routine of every propagation
    result, against a naive left-to-right compose loop on both build kinds."""

    FORWARD = TestIntegrator.FORWARD

    @staticmethod
    def naive(build, idx):
        prefix = [np.broadcast_to(build.identity, build.steps.shape[1:])]
        for step in build.steps:
            prefix.append(build.compose(step, prefix[-1]))
        return build.lift(np.array([prefix[k] for k in idx]))

    @pytest.mark.parametrize("dense", [False, True])
    def test_matches_naive_product_on_a_batch(self, dense):
        drive = MultiLevelDrive(3, self.FORWARD, gain=np.array([1.0, 1.02]),
                                shift=TWO_PI * np.array([[0.0], [400.0], [-900.0]]))
        grid = _step_grid(drive, np.array([]), 10e-6)
        build = dynamics._dense_steps(drive, grid) if dense else _step_unitaries(drive, grid)
        assert (build.compose is dynamics._su2_compose) != dense
        n = grid.size - 1
        for idx in ([0], [n], [7], [0, n], [0, 0, 3, 3, n], [5, 5], [0, 1, 2, 3, n],
                    [1, n // 2, n // 2, n - 1, n]):
            idx = np.array(idx)
            got = _products_at(build, idx)
            assert got.shape == (idx.size, 3, 2, 3, 3)
            assert np.max(np.abs(got - self.naive(build, idx))) < 1e-13

    @pytest.mark.parametrize("dense", [False, True])
    def test_1_to_33_sample_indices(self, dense):
        drive = MultiLevelDrive(3, self.FORWARD, gain=np.array([1.0, 1.02]),
                                shift=TWO_PI * np.array([[0.0], [400.0], [-900.0]]))
        grid = _step_grid(drive, np.array([]), 2e-6)
        build = dynamics._dense_steps(drive, grid) if dense else _step_unitaries(drive, grid)
        assert grid.size - 1 >= 3 * 33
        for p in range(1, 34):  # one index, then scans of odd, even and power-of-two lengths
            idx = 3 * np.arange(1, p + 1)
            got = _products_at(build, idx)
            assert np.max(np.abs(got - self.naive(build, idx))) < 1e-13

    @staticmethod
    def peak_bytes(build, idx):
        tracemalloc.start()
        try:
            _products_at(build, idx)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_of_one_interval_and_of_uneven_intervals(self):
        drive = lift_schedule(square_pulse(np.pi, 0.0, OMEGA0), 3)
        grid = np.linspace(0.0, drive.total_duration, 2**12 + 1)
        build = dynamics._dense_steps(drive, grid)
        n = grid.size - 1
        # the pairwise reduction allocates n/2 + n/4 + ... factors; a padded
        # copy of the steps would add all n of them
        assert self.peak_bytes(build, np.array([n])) < build.steps.nbytes
        # 40 short intervals and one long one: padding every interval to the
        # longest would take 41 n factors
        uneven = np.append(np.arange(40), n)
        assert self.peak_bytes(build, uneven) < 4 * build.steps.nbytes

    def test_memory_of_an_odd_step_count(self):
        # the last factor of a level of odd length is multiplied into the
        # last merged pair, not copied in behind the pairs, so one more step
        # costs no more memory
        drive = lift_schedule(square_pulse(np.pi, 0.0, OMEGA0), 3)
        peaks = []
        for n in (2**12, 2**12 + 1):
            build = dynamics._dense_steps(drive, np.linspace(0.0, drive.total_duration, n + 1))
            peaks.append(self.peak_bytes(build, np.array([n])))
        assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0]

    @pytest.mark.parametrize("noise", [NoiseParams(), NoiseParams(rabi_mismatch=0.001)])
    def test_repeated_sample_time_gives_equal_states(self, noise):
        drive = DressedDrive(self.FORWARD, noise, 0.0, OMEGA0)
        total = drive.total_duration
        traj = propagate(drive, named_state(3, "0"), CFG, [0.0, total / 3, total / 3, total])
        assert np.array_equal(traj.states[1], traj.states[2])
        assert np.array_equal(traj.states[0], named_state(3, "0").amps)


def random_unitaries(rng, shape, d=3):
    """Haar-like random d x d unitaries of the given stack shape, by QR."""
    z = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


class TestCompose3:
    """The unrolled 3 x 3 product of dense d = 3 builds against np.matmul,
    on every layout the product rule hands it."""

    @staticmethod
    def check(u, w):
        got = dynamics._compose3(u, w)
        expect = np.matmul(u, w)
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 47, 48, 255, 256, 257, 1362, 3000])
    def test_contiguous_stacks(self, n):
        # below _COMPOSE3_MIN, at it, and across one and several blocks
        rng = np.random.default_rng(n)
        self.check(random_unitaries(rng, (n,)), random_unitaries(rng, (n,)))

    def test_strided_halves(self):
        a = random_unitaries(np.random.default_rng(1), (2 * 1201 + 1,))
        self.check(a[1::2], a[0 : a.shape[0] - 1 : 2])
        self.check(a[0::2][1:], a[1::2])

    def test_read_only_broadcast_identity(self):
        a = random_unitaries(np.random.default_rng(2), (700, 2))
        eye = np.broadcast_to(np.eye(3, dtype=complex), a.shape)
        assert not eye.flags.writeable
        self.check(a, eye)
        self.check(eye, a)
        self.check(np.eye(3, dtype=complex), a)
        assert np.array_equal(dynamics._compose3(a, eye), a)

    @pytest.mark.parametrize("n", [7, 98, 513])
    def test_strided_halves_of_a_batched_scan(self, n):
        # (n, 3, 2, 3, 3): the steps of a (3, 2) drive batch, halved as
        # _running_product halves them: the pairs, then each even index
        # >= 2 with the running product of the odd prefix before it
        rng = np.random.default_rng(n)
        arr = random_unitaries(rng, (n, 3, 2))
        self.check(arr[1::2], arr[0 : n - 1 : 2])
        odd = random_unitaries(rng, (n // 2, 3, 2))
        self.check(arr[2::2], odd[: (n - 1) // 2])

    def test_single_matrix(self):
        u, w = random_unitaries(np.random.default_rng(3), (2,))
        self.check(u, w)

    def test_dense_builds_compose_with_it_at_d3_only(self):
        for d in range(2, 6):
            drive = MultiLevelDrive(d, TestIntegrator.FORWARD, rabi_mismatch=0.001)
            build = dynamics._dense_steps(drive, np.linspace(0.0, drive.total_duration, 9))
            assert build.compose is (dynamics._compose3 if d == 3 else np.matmul)


class TestDenseCoefficients:
    """CF4 factors are combined from the drive's real control coefficients
    (all four on the dense path, Lambda on the SU(2) one); weighting the
    sampled Hamiltonians themselves is the same step to rounding."""

    @staticmethod
    def matrix_combination(drive, grid):
        # the CF4 step by hand: the Hamiltonian at the Gauss nodes
        # 1/2 -+ sqrt(3)/6 of each step, weighted by (3 -+ 2 sqrt(3))/12, and
        # the two exponentials multiplied, the one that acts first on the right.
        # On a constant step the two factors multiply to its one exponential.
        starts, dts = grid[:-1], np.diff(grid)
        h1 = drive.hamiltonian(starts + (0.5 - np.sqrt(3.0) / 6.0) * dts)
        h2 = drive.hamiltonian(starts + (0.5 + np.sqrt(3.0) / 6.0) * dts)
        a1, a2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
        first = spin._expm_hermitian(a2 * h1 + a1 * h2, dts)
        return spin._expm_hermitian(a1 * h1 + a2 * h2, dts) @ first

    ROUND_TRIP = adiabatic_method(AdiabaticParams(OMEGA0, TWO_PI * 60e3, 200e-6, 300e-6,
                                                  40e-6, "round-trip"))
    # seven sample times make a mirror-symmetric grid, on which the second
    # half of the steps is the first half transposed; one more at 100 us
    # breaks the symmetry, and every step is built
    SAMPLES = {"symmetric": np.linspace(0.0, ROUND_TRIP.total_duration, 7),
               "asymmetric": np.sort(np.append(np.linspace(0.0, ROUND_TRIP.total_duration, 7),
                                               100e-6))}

    @classmethod
    def grid(cls, drive, samples):
        assert drive.schedule.palindromic
        assert {s.is_constant for s in drive.schedule.segments} == {True, False}
        grid = _step_grid(drive, cls.SAMPLES[samples], 4e-6)
        assert dynamics._mirror_symmetric(grid) == (samples == "symmetric")
        return grid

    def check_steps(self, drive, grid, build, as_matrices=np.asarray):
        """Every built step, lifted, is the hand-built one within 1e-14; on
        a mirror-symmetric grid the rest are the built ones' transposes, bit
        for bit, as the matrices as_matrices makes of the steps."""
        n = grid.size - 1
        built = -(-n // 2) if dynamics._mirror_symmetric(grid) else n
        lifted = build.lift(build.steps)
        assert lifted.shape == (n, 3, 3, 3)
        expect = self.matrix_combination(drive, grid)
        assert np.max(np.abs(lifted[:built] - expect[:built])) <= 1e-14
        mats = as_matrices(build.steps)
        assert np.array_equal(mats[built:], mats[: n - built][::-1].swapaxes(-1, -2))
        if built < n:
            # the hand-built steps are their mirror steps' transposes to
            # within the rounding of the step lengths: a mirrored dt differs
            # by up to 1 ulp of the node time, which moves a step by up to
            # 1 ulp x |H| (2.1e-14 here; 1.45e-14 measured)
            h_norm = np.max(np.abs(np.linalg.eigvalsh(drive.hamiltonian(grid))))
            bound = np.spacing(grid[-1]) * h_norm
            assert np.max(np.abs(expect[::-1] - expect.swapaxes(-1, -2))) <= bound

    @pytest.mark.parametrize("samples", ["symmetric", "asymmetric"])
    def test_batched_dressed_drive_with_mismatch_and_detuning(self, samples):
        noise = NoiseParams(rabi_mismatch=0.002, common_rabi_error=TWO_PI * 1e3,
                            static_detuning=TWO_PI * 5.0)
        drive = DressedDrive(self.ROUND_TRIP, noise, TWO_PI * np.array([-400.0, 0.0, 250.0]),
                             OMEGA0)
        assert not drive.su2_covariant
        grid = self.grid(drive, samples)
        self.check_steps(drive, grid, dynamics._dense_steps(drive, grid))

    @pytest.mark.parametrize("samples", ["symmetric", "asymmetric"])
    def test_su2_steps_lifted(self, samples):
        noise = NoiseParams(common_rabi_error=TWO_PI * 1e3)
        drive = DressedDrive(self.ROUND_TRIP, noise, TWO_PI * np.array([-400.0, 0.0, 250.0]),
                             OMEGA0)
        assert drive.su2_covariant
        grid = self.grid(drive, samples)
        build = _step_unitaries(drive, grid)
        assert build.compose is dynamics._su2_compose
        self.check_steps(drive, grid, build, su2_matrices)

    def test_hamiltonian_is_the_basis_product_of_its_coefficients(self):
        drive = MultiLevelDrive(4, TestIntegrator.FORWARD, gain=np.array([1.0, 0.98]),
                                rabi_mismatch=0.003, static_detuning=TWO_PI * 7.0)
        ts = np.linspace(0.0, drive.total_duration, 5)
        coeffs = drive.coefficients(ts)
        assert coeffs.shape == (5, 2, 4)
        assert np.array_equal(drive.hamiltonian(ts), drive.hamiltonian_of(coeffs))
        ops = angular_momentum_ops(4)
        jx, jy, jz, eps = ops.jx, ops.jy, ops.jz, drive.rabi_mismatch
        basis = [jx - eps * (jz @ jx + jx @ jz), jy - eps * (jz @ jy + jy @ jz), jz, jz @ jz]
        expect = np.einsum("...k,kij->...ij", coeffs, np.array(basis))
        assert np.max(np.abs(drive.hamiltonian(ts) - expect)) <= 1e-15 * np.max(np.abs(expect))


class TestStepChunks:
    """A build cut into chunks of _STEP_CHUNK steps x drives equals the build
    in one chunk: bit for bit on the SU(2) path, whose steps are elementwise,
    and to rounding on the dense path, whose short chunks compose by
    np.matmul rather than _compose3."""

    @pytest.mark.parametrize("dense", [False, True])
    def test_chunked_build_equals_one_chunk(self, dense, monkeypatch):
        sched = adiabatic_method(AdiabaticParams(OMEGA0, TWO_PI * 60e3, 200e-6, 300e-6,
                                                 40e-6, "round-trip"))
        assert {s.is_constant for s in sched.segments} == {True, False}
        drive = MultiLevelDrive(3, sched, gain=np.array([1.0, 1.02]),
                                shift=TWO_PI * np.array([[0.0], [400.0], [-900.0]]))
        grid = _step_grid(drive, np.linspace(0.0, sched.total_duration, 7), 4e-6)
        build = dynamics._dense_steps if dense else _step_unitaries
        assert 6 * (grid.size - 1) <= dynamics._STEP_CHUNK
        # a palindromic schedule on a mirror-symmetric grid: the first half
        # of the steps is built, the rest are its transposes
        assert sched.palindromic and dynamics._mirror_symmetric(grid)
        built = -(-(grid.size - 1) // 2)
        whole = build(drive, grid).steps
        samples = []
        coefficients = MultiLevelDrive.coefficients
        monkeypatch.setattr(MultiLevelDrive, "coefficients",
                            lambda self, t: samples.append(t.size) or coefficients(self, t))
        # fewer steps x drives than the batch (one step a chunk), then 7 and 50
        # steps a chunk, which leave a short last chunk
        for chunk in (5, 6 * 7, 6 * 50):
            monkeypatch.setattr(dynamics, "_STEP_CHUNK", chunk)
            samples.clear()
            got = build(drive, grid).steps
            assert len(samples) == -(-built // max(1, chunk // 6))
            assert sum(samples) == 2 * built
            if dense:
                assert np.max(np.abs(got - whole)) <= 1e-14
            else:
                assert np.array_equal(got, whole)


class TestMirroredBuild:
    """A palindromic schedule (chi = 0, its own time mirror) on a
    mirror-symmetric grid builds the first half of its steps and transposes
    them into the second; any other drive or grid builds every step."""

    TRIP = AdiabaticParams(OMEGA0, TWO_PI * 60e3, 100e-6, 150e-6, 20e-6, "round-trip")
    NOISE = {"su2": {}, "dense": {"rabi_mismatch": 0.002, "static_detuning": TWO_PI * 5.0}}

    @staticmethod
    def count_built(monkeypatch):
        """[steps in the grid, steps built] of each build: a built step
        samples the drive's coefficients at its two Gauss nodes."""
        builds = []
        coefficients, cf4_steps = MultiLevelDrive.coefficients, dynamics._cf4_steps

        def counted_coefficients(self, t):
            builds[-1][1] += np.size(t) // 2
            return coefficients(self, t)

        def counted_steps(drive, grid, dense):
            builds.append([grid.size - 1, 0])
            return cf4_steps(drive, grid, dense)

        monkeypatch.setattr(MultiLevelDrive, "coefficients", counted_coefficients)
        monkeypatch.setattr(dynamics, "_cf4_steps", counted_steps)
        return builds

    @staticmethod
    def batch(d, schedule, noise):
        return MultiLevelDrive(d, schedule, gain=np.array([1.0, 1.02]),
                               shift=TWO_PI * np.array([[0.0], [300.0]]), **noise)

    @pytest.mark.parametrize("path", ["su2", "dense"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_round_trip_matches_its_separately_propagated_legs(self, d, path, monkeypatch):
        trip = adiabatic_method(self.TRIP)
        builds = self.count_built(monkeypatch)
        drive = self.batch(d, trip, self.NOISE[path])
        assert drive.su2_covariant == (path == "su2")
        got = np.array([u.mat for u in dynamics.propagators(drive, CFG)])
        assert builds and all(built == -(-n // 2) for n, built in builds)
        legs = [np.array([u.mat for u in dynamics.propagators(
                    self.batch(d, ControlSchedule([s]), self.NOISE[path]), CFG)])
                for s in trip.segments]
        assert np.max(np.abs(got - legs[2] @ legs[1] @ legs[0])) <= CFG.tolerance

    @pytest.mark.parametrize("path", ["su2", "dense"])
    def test_fallbacks_build_every_step(self, path, monkeypatch):
        trip = adiabatic_method(self.TRIP)
        leg, hold = trip.segments[:2]
        turned = ControlSchedule([leg, replace(hold, chi=np.pi / 2), leg.mirrored()])
        forward_hold = adiabatic_method(replace(self.TRIP, direction="forward"))
        assert trip.palindromic
        assert not turned.palindromic and not forward_hold.palindromic
        builds = self.count_built(monkeypatch)
        # sample times that are not their own mirror image
        psi0 = named_state(3, "0")
        propagate(self.batch(3, trip, self.NOISE[path]), psi0, CFG,
                  [0.0, 60e-6, trip.total_duration])
        # a chi = pi/2 hold at the centre, and a leg with a hold after it
        for schedule in (turned, forward_hold):
            dynamics.propagators(self.batch(3, schedule, self.NOISE[path]), CFG)
        assert builds and all(built == n for n, built in builds)


class TestConstantSteps:
    """A step inside a constant segment is its one exact exponential, in the
    same exponential call as the smooth steps' CF4 factors.  The build that
    took both CF4 factors for it, kept here by switching the constancy off,
    agrees within 1e-14."""

    PARAMS = AdiabaticParams(OMEGA0, TWO_PI * 60e3, 100e-6, 150e-6, 40e-6, "round-trip")
    SCHEDULES = {
        "round trip": adiabatic_method(PARAMS),
        "forward and hold": adiabatic_method(replace(PARAMS, direction="forward")),
        "tbb1 and protect": composite_method(bb1_sequence(), OMEGA0, protect=True),
        "pulse": square_pulse(np.pi, 0.0, OMEGA0),
    }
    NOISE = {"su2": {}, "dense": {"rabi_mismatch": 0.002, "static_detuning": TWO_PI * 5.0}}

    @staticmethod
    def all_cf4(build, drive, grid, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_constant_mask",
                      lambda drive, left, right: np.zeros(np.shape(left), dtype=bool))
            return build(drive, grid)

    @staticmethod
    def count_rows(monkeypatch):
        """The rows of each exponential call, on either path."""
        rows = []
        for name in ("_su2_exp", "_expm_hermitian"):
            def counted(c, dts, real=getattr(dynamics, name)):
                rows.append(np.size(dts))
                return real(c, dts)

            monkeypatch.setattr(dynamics, name, counted)
        return rows

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("path", ["su2", "dense"])
    @pytest.mark.parametrize("name", list(SCHEDULES))
    def test_matches_the_all_cf4_build(self, name, path, batched, monkeypatch):
        sched = self.SCHEDULES[name]
        batch = ({"gain": np.array([1.0, 1.02]), "shift": TWO_PI * np.array([[0.0], [300.0]])}
                 if batched else {})
        drive = MultiLevelDrive(3, sched, **batch, **self.NOISE[path])
        build = dynamics._dense_steps if path == "dense" else _step_unitaries
        samples = np.linspace(0.0, sched.total_duration, 5)
        for max_step in (4e-6, 1.5e-6):
            grid = _step_grid(drive, samples, max_step)
            n = grid.size - 1
            constant = dynamics._constant_mask(drive, grid[:-1], grid[1:])
            assert constant.any()
            rows = self.count_rows(monkeypatch)
            got = build(drive, grid)
            monkeypatch.undo()
            built = got.built
            assert built == (-(-n // 2) if sched.palindromic else n)
            flat = int(np.sum(constant[:built]))
            assert sum(rows) == 2 * (built - flat) + flat
            expect = self.all_cf4(build, drive, grid, monkeypatch)
            assert np.max(np.abs(got.steps - expect.steps)) <= 1e-14

    def test_a_step_across_a_boundary_is_not_constant(self):
        sched = composite_method(bb1_sequence(), OMEGA0)
        drive = lift_schedule(sched, 3)
        b = drive.boundaries
        left = np.array([b[0], b[1], (b[1] + b[2]) / 2, b[2] - 1e-9])
        right = np.array([b[1], b[2], b[2], b[2] + 1e-9])
        assert dynamics._constant_mask(drive, left, right).tolist() == [True, True, True, False]
        forward = lift_schedule(TestIntegrator.FORWARD, 3)
        assert not dynamics._constant_mask(forward, left[:1], right[:1]).any()


class TestMirroredProducts:
    """A palindromic build's products take only its built steps: P_n is
    P_h^T P_built, and P_k = conj(P_{n-k}) P_n past the built steps.  The
    scan over every step, kept here as the reference by marking the build
    as built in full, agrees within 1e-14."""

    ROUND_TRIP = TestDenseCoefficients.ROUND_TRIP
    NOISE = TestConstantSteps.NOISE

    @pytest.mark.parametrize("path", ["su2", "dense"])
    def test_matches_the_full_scan(self, path):
        drive = MultiLevelDrive(3, self.ROUND_TRIP, gain=np.array([1.0, 1.02]),
                                shift=TWO_PI * np.array([[0.0], [300.0]]), **self.NOISE[path])
        build_steps = dynamics._dense_steps if path == "dense" else _step_unitaries
        parities = set()
        # 7 sample times put a node at the centre (an even n), 6 leave the
        # hold's centre inside one step (an odd n).  The two product orders
        # round differently, by more as n grows: 7.3e-15 at n = 72 and
        # 9.2e-15 at n = 92 on the dense path
        for n_samples, max_step in ((7, 9e-6), (6, 9e-6), (7, 7e-6), (6, 7e-6)):
            samples = np.linspace(0.0, self.ROUND_TRIP.total_duration, n_samples)
            grid = _step_grid(drive, samples, max_step)
            n = grid.size - 1
            build = build_steps(drive, grid)
            assert build.built == -(-n // 2) < n
            parities.add(n % 2)
            full = replace(build, built=n)
            h = n // 2
            sampled = np.searchsorted(grid, samples)
            for idx in ([n], [h], [h + 1], [0, n], [n - 1], [1, h, h + 1, n - 1, n],
                        sampled, sampled[sampled > h], np.arange(n + 1)):
                idx = np.array(idx)
                got = _products_at(build, idx)
                assert got.shape == (idx.size, 2, 2, 3, 3)
                assert np.max(np.abs(got - _products_at(full, idx))) <= 1e-14
        assert parities == {0, 1}


class TestEigenScan:
    def test_two_level_closed_form(self):
        omega = OMEGA0
        ratios = [-2.0, -0.5, 0.0, 0.5, 2.0]
        out = eigen_scan(omega, ratios, 2)
        for x, (vals, _) in zip(ratios, out):
            omega_half = omega / np.sqrt(2)
            delta_half = x * omega / 2
            expect = 0.5 * np.hypot(omega_half, delta_half)
            assert vals[-1] == pytest.approx(expect, rel=1e-12)
            assert vals[0] == pytest.approx(-expect, rel=1e-12)

    def test_gap_at_zero_detuning(self):
        (vals, _), = eigen_scan(1.0, [0.0], 2)
        assert vals[1] - vals[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_large_detuning_approaches_basis_states(self):
        (_, vecs), = eigen_scan(1.0, [1e4], 3)
        for k in range(3):
            assert np.max(np.abs(vecs[:, k])) > 1 - 1e-4

    def test_eigenvector_continuity(self):
        ratios = np.arange(-4.0, 4.0 + 1e-9, 0.01)
        out = eigen_scan(OMEGA0, ratios, 3)
        prev = None
        for _, vecs in out:
            if prev is not None:
                overlaps = np.abs(np.sum(prev * vecs, axis=0))
                assert np.min(overlaps) > 0.99
            prev = vecs

    def test_invalid_omega(self):
        with pytest.raises(ValueError):
            eigen_scan(-1.0, [0.0], 2)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_eigen_equation(self, d):
        ops = angular_momentum_ops(d)
        ratios = np.linspace(-50.0, 50.0, 101)
        for x, (vals, vecs) in zip(ratios, eigen_scan(OMEGA0, ratios, d)):
            omega_half, delta_half = OMEGA0 / np.sqrt(2), x * OMEGA0 / 2
            h = omega_half * ops.jx.real + delta_half * ops.jz.real
            norm = np.hypot(omega_half, delta_half)
            assert vecs.dtype == float
            assert np.max(np.abs(h @ vecs - vecs * vals)) <= 1e-13 * norm
            assert np.max(np.abs(vecs.T @ vecs - np.eye(d))) <= 1e-13
            assert np.diff(vals) == pytest.approx(np.full(d - 1, norm), rel=1e-14)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        drive = lift_schedule(square_pulse(np.pi / 2, np.pi / 2, OMEGA0), 3)
        times = np.linspace(0, drive.total_duration, 9)
        traj = propagate(drive, named_state(3, "0"), CFG, times)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert list(rows.dtype.names) == ["time_us", "p_0", "p_1", "p_2", "p_f1"]
        assert np.allclose(rows["time_us"], times * 1e6, rtol=1e-10)
        assert np.allclose(rows["p_1"], traj.populations[:, 1], rtol=1e-10)
        assert np.allclose(rows["p_f1"], traj.p_f1, rtol=1e-10)


    def test_exact_bytes(self, tmp_path):
        traj = Trajectory(times=[0.0, 1.5e-6], states=[[0, 1, 0], np.ones(3) / np.sqrt(3)])
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        assert path.read_bytes() == (
            b"time_us,p_0,p_1,p_2,p_f1\n"
            b"0,0,1,0,0\n"
            b"1.5,0.333333333333,0.333333333333,0.333333333333,0.666666666667\n")

    def test_rows_match_the_per_cell_rule(self, tmp_path):
        columns = [[3, 40, 500, -6, 2**62],
                   np.array([0.1, -2.5, 1.0, 123456789.123456, 7.0]),
                   np.array([1e-300, -5e-324, 0.0, -0.0, 1e-17]),
                   np.array([1.7976931348623157e308, 1e300, -1e200, 1e16, 2.0**70]),
                   np.array([np.nan, np.inf, -np.inf, np.nan, 0.5]),
                   np.array([2**64 - 1, 2**63 + 5, 0, 1, 7], dtype=np.uint64)]
        path = tmp_path / "cells.csv"
        dynamics._write_csv(path, "a,b,c,d,e,f", columns)

        def cell(v):
            return str(v) if isinstance(v, int) else "%.12g" % v

        rows = zip(*(np.asarray(c).tolist() for c in columns))
        expect = "a,b,c,d,e,f\n" + "".join(",".join(map(cell, r)) + "\n" for r in rows)
        assert path.read_bytes() == expect.encode()
        first = path.read_text().splitlines()[1]
        assert first == "3,0.1,1e-300,1.79769313486e+308,nan,18446744073709551615"

    def test_even_dimension_rejected(self, tmp_path):
        traj = Trajectory(times=[0.0], states=[[1, 0]])
        with pytest.raises(DimensionError):
            traj.to_csv(tmp_path / "traj.csv")


def _random_state(rng, d):
    from spinlift import StateVector
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return StateVector(v / np.linalg.norm(v))
