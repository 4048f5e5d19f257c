"""Angular-momentum algebra, canonical states and the SU(2) lift."""

import numpy as np
import pytest
from math import comb

from hypothesis import given, settings, strategies as st

from spinlift import (
    DimensionError,
    NormalizationError,
    UnknownStateError,
    angular_momentum_ops,
    basis_state,
    lift_unitary,
    named_state,
    phase_aligned_deviation,
    rotation_unitary,
    state_fidelity,
)
from spinlift.spin import StateVector, Unitary, _expm_hermitian, lift_matrices


def states_equal_up_to_phase(psi, phi, tol):
    """True when 1 - |<phi|psi>| <= tol."""
    return 1.0 - abs(psi.overlap(phi)) <= tol


def series_expm(h, order=60):
    """Independent matrix-exponential oracle: truncated Taylor series of
    exp(-i h)."""
    d = h.shape[0]
    out = np.eye(d, dtype=complex)
    term = np.eye(d, dtype=complex)
    for k in range(1, order):
        term = term @ (-1j * h) / k
        out = out + term
    return out


def random_cayley_klein(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return v[0] + 1j * v[1], v[2] + 1j * v[3]


def spectral_expm(h, t):
    """Reference exp(-i t h) by numpy's eigh; t is a scalar or has one entry
    per leading index of h."""
    w, v = np.linalg.eigh(h)
    t = np.asarray(t, dtype=float)
    phases = np.exp(-1j * w * t.reshape(t.shape + (1,) * (w.ndim - t.ndim)))
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


def random_hermitian(rng, shape):
    m = rng.normal(size=shape + (3, 3)) + 1j * rng.normal(size=shape + (3, 3))
    return (m + m.conj().swapaxes(-1, -2)) / 2


def random_unitary(rng):
    return np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]


class TestExpm3:
    """The closed-form 3 x 3 exponential against the eigh reference: within
    1e-13 max(1, tau ||H||), and unitary within 1e-14 max(1, tau ||H||)."""

    @staticmethod
    def check(h, t):
        got = _expm_hermitian(h, t)
        t = np.asarray(t, dtype=float)
        tau_norm = np.linalg.norm(h, 2, axis=(-2, -1)) * np.abs(
            t.reshape(t.shape + (1,) * (h.ndim - 2 - t.ndim)))
        scale = np.maximum(1.0, tau_norm)
        dev = np.max(np.abs(got - spectral_expm(h, t)), axis=(-2, -1))
        unitarity = np.max(np.abs(got @ got.conj().swapaxes(-1, -2) - np.eye(3)), axis=(-2, -1))
        assert got.shape == h.shape
        assert np.all(dev <= 1e-13 * scale), np.max(dev / scale)
        assert np.all(unitarity <= 1e-14 * scale), np.max(unitarity / scale)

    def test_random_batch_over_the_float_range(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, (400,))
        # half over the whole range, half where the series stops (s >= 1e-3)
        tau_norm = 10.0 ** np.concatenate([rng.uniform(-300, 3, 200), rng.uniform(-3, 3, 200)])
        self.check(h, tau_norm / np.linalg.norm(h, 2, axis=(-2, -1)))

    @pytest.mark.parametrize("exponent", [-300, -100, -20, -6, -3, -1, 0, 1, 2, 3])
    def test_random_batch_with_one_t(self, exponent):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, (40,))
        self.check(h, 10.0 ** exponent / np.median(np.linalg.norm(h, 2, axis=(-2, -1))))

    def test_per_step_t_over_a_drive_batch(self):
        # as _cf4_steps passes it: (steps, batch, 3, 3) with one t per step
        rng = np.random.default_rng(13)
        self.check(random_hermitian(rng, (50, 4)), 10.0 ** rng.uniform(-8, 1, 50))

    @pytest.mark.parametrize("t", [1e-300, 1e-3, 0.7, 40.0])
    def test_zero_and_multiples_of_identity(self, t):
        for c in (0.0, 2.5, -1e3):
            h = c * np.eye(3, dtype=complex)
            self.check(h, t)
            assert np.allclose(_expm_hermitian(h, t), np.exp(-1j * c * t) * np.eye(3),
                               rtol=0.0, atol=1e-15 * max(1.0, abs(c * t)))

    @pytest.mark.parametrize("t", [1e-6, 0.3, 20.0])
    def test_double_eigenvalue_both_signs_of_c0(self, t):
        rng = np.random.default_rng(13)
        v = random_unitary(rng)
        # diag(a, a, b) with b above or below a: det of -t (h - tr/3) is + or -
        for diag in ([1.0, 1.0, -2.0], [-1.0, -1.0, 2.0], [0.5, 0.5, 3.0], [3.0, 3.0, 0.5]):
            h = np.diag(diag).astype(complex)
            self.check(h, t)
            self.check(v @ h @ v.conj().T, t)

    @pytest.mark.parametrize("split", [1e-9, 1e-12])
    def test_near_degenerate_spectra(self, split):
        rng = np.random.default_rng(14)
        for t in (1e-4, 1.0, 50.0):
            v = random_unitary(rng)
            for diag in ([1.0, 1.0 + split, 3.0], [1.0, 3.0, 3.0 + split]):
                h = v @ np.diag(diag) @ v.conj().T
                self.check(h, t)

    def test_unbatched_input(self):
        ops = angular_momentum_ops(3)
        gen = 0.6 * ops.jx + 0.8 * ops.jz
        self.check(gen, 1.3)
        assert _expm_hermitian(gen, 1.3).shape == (3, 3)

    def test_tiny_generator_to_first_order(self):
        # the small-c1 series rounds exp(-i t h) - I relative to t ||h||,
        # where eigh rounds it to about 1e-16; (t h)^2 is below t ||h|| 1e-20
        rng = np.random.default_rng(15)
        h = random_hermitian(rng, (20,))
        norm = np.linalg.norm(h, 2, axis=(-2, -1))
        for t in (1e-300, 1e-100, 1e-20):
            step = _expm_hermitian(h, t) - np.eye(3)
            assert np.all(np.max(np.abs(step + 1j * t * h), axis=(-2, -1)) <= 1e-15 * t * norm)

    def test_reads_the_lower_triangle(self):
        rng = np.random.default_rng(16)
        h = random_hermitian(rng, (5,))
        junk = h.copy()
        junk[:, [0, 0, 1], [1, 2, 2]] = 7.0 + 3.0j
        junk[:, [0, 1, 2], [0, 1, 2]] += 5j
        assert np.array_equal(_expm_hermitian(junk, 0.8), _expm_hermitian(h, 0.8))


def random_symmetric(rng, shape, d=3):
    m = rng.normal(size=shape + (d, d))
    return (m + m.swapaxes(-1, -2)) / 2


def random_rotation(rng):
    return np.linalg.qr(rng.normal(size=(3, 3)))[0]


class TestExpm3Real:
    """A real symmetric 3 x 3 h, which _expm3 takes in real arithmetic up to
    f0, f1 and f2, passes TestExpm3's checks against the eigh reference,
    and matches the complex path on the same matrices."""

    check = staticmethod(TestExpm3.check)

    def test_random_batch_over_the_float_range(self):
        rng = np.random.default_rng(21)
        h = random_symmetric(rng, (400,))
        tau_norm = 10.0 ** np.concatenate([rng.uniform(-300, 3, 200), rng.uniform(-3, 3, 200)])
        self.check(h, tau_norm / np.linalg.norm(h, 2, axis=(-2, -1)))

    @pytest.mark.parametrize("exponent", [-300, -100, -20, -6, -3, -1, 0, 1, 2, 3])
    def test_random_batch_with_one_t(self, exponent):
        rng = np.random.default_rng(22)
        h = random_symmetric(rng, (40,))
        self.check(h, 10.0 ** exponent / np.median(np.linalg.norm(h, 2, axis=(-2, -1))))

    def test_per_step_t_over_a_drive_batch(self):
        rng = np.random.default_rng(23)
        self.check(random_symmetric(rng, (50, 4)), 10.0 ** rng.uniform(-8, 1, 50))

    @pytest.mark.parametrize("t", [1e-300, 1e-3, 0.7, 40.0])
    def test_zero_and_multiples_of_identity(self, t):
        for c in (0.0, 2.5, -1e3):
            h = c * np.eye(3)
            self.check(h, t)
            assert np.allclose(_expm_hermitian(h, t), np.exp(-1j * c * t) * np.eye(3),
                               rtol=0.0, atol=1e-15 * max(1.0, abs(c * t)))

    @pytest.mark.parametrize("t", [1e-6, 0.3, 20.0])
    def test_double_eigenvalue_both_signs_of_c0(self, t):
        v = random_rotation(np.random.default_rng(24))
        for diag in ([1.0, 1.0, -2.0], [-1.0, -1.0, 2.0], [0.5, 0.5, 3.0], [3.0, 3.0, 0.5]):
            h = np.diag(diag)
            self.check(h, t)
            self.check(v @ h @ v.T, t)

    @pytest.mark.parametrize("split", [1e-9, 1e-12])
    def test_near_degenerate_spectra(self, split):
        rng = np.random.default_rng(25)
        for t in (1e-4, 1.0, 50.0):
            v = random_rotation(rng)
            for diag in ([1.0, 1.0 + split, 3.0], [1.0, 3.0, 3.0 + split]):
                self.check(v @ np.diag(diag) @ v.T, t)

    def test_tiny_generator_to_first_order(self):
        rng = np.random.default_rng(26)
        h = random_symmetric(rng, (20,))
        norm = np.linalg.norm(h, 2, axis=(-2, -1))
        for t in (1e-300, 1e-100, 1e-20):
            step = _expm_hermitian(h, t) - np.eye(3)
            assert np.all(np.max(np.abs(step + 1j * t * h), axis=(-2, -1)) <= 1e-15 * t * norm)

    def test_reads_the_lower_triangle(self):
        rng = np.random.default_rng(27)
        h = random_symmetric(rng, (5,))
        junk = h.copy()
        junk[:, [0, 0, 1], [1, 2, 2]] = 7.0
        assert np.array_equal(_expm_hermitian(junk, 0.8), _expm_hermitian(h, 0.8))

    def test_symmetric_complex_result(self):
        h = random_symmetric(np.random.default_rng(28), (30,))
        got = _expm_hermitian(h, 0.6)
        assert got.dtype == complex
        assert np.array_equal(got, got.swapaxes(-1, -2))

    def test_matches_the_complex_path(self):
        rng = np.random.default_rng(29)
        h = random_symmetric(rng, (600,))
        # from the series' range to a few radians, the steps' range
        tau_norm = 10.0 ** rng.uniform(-5, 0.5, 600)
        t = tau_norm / np.linalg.norm(h, 2, axis=(-2, -1))
        dev = np.max(np.abs(_expm_hermitian(h, t) - _expm_hermitian(h.astype(complex), t)))
        assert dev <= 1e-15, dev

    @pytest.mark.parametrize("d", [2, 4, 5])
    def test_eigh_path_matches_the_complex_path(self, d):
        rng = np.random.default_rng(30 + d)
        h = random_symmetric(rng, (50,), d)
        t = 10.0 ** rng.uniform(-5, 0.5, 50) / np.linalg.norm(h, 2, axis=(-2, -1))
        got = _expm_hermitian(h, t)
        assert got.dtype == complex
        assert np.max(np.abs(got - _expm_hermitian(h.astype(complex), t))) <= 1e-14


class TestAngularMomentumOps:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_commutators_and_casimir(self, d):
        ops = angular_momentum_ops(d)
        j = (d - 1) / 2
        assert np.max(np.abs(ops.jx @ ops.jy - ops.jy @ ops.jx - 1j * ops.jz)) < 1e-12
        assert np.max(np.abs(ops.jy @ ops.jz - ops.jz @ ops.jy - 1j * ops.jx)) < 1e-12
        assert np.max(np.abs(ops.jz @ ops.jx - ops.jx @ ops.jz - 1j * ops.jy)) < 1e-12
        casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
        assert np.max(np.abs(casimir - j * (j + 1) * np.eye(d))) < 1e-12
        for m in (ops.jx, ops.jy, ops.jz):
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_jz_diagonal_ascending_m(self):
        ops = angular_momentum_ops(2)
        assert np.allclose(np.diag(ops.jz).real, [-0.5, 0.5])
        ops = angular_momentum_ops(3)
        assert np.allclose(np.diag(ops.jz).real, [-1, 0, 1])

    def test_spin1_jx_elements(self):
        jx = angular_momentum_ops(3).jx
        expect = np.zeros((3, 3))
        expect[0, 1] = expect[1, 0] = expect[1, 2] = expect[2, 1] = 1 / np.sqrt(2)
        assert np.max(np.abs(jx - expect)) < 1e-12

    @pytest.mark.parametrize("d", [0, 1, -3])
    def test_invalid_dimension(self, d):
        with pytest.raises(DimensionError):
            angular_momentum_ops(d)


class TestRotationUnitary:
    def test_zero_angle_identity(self):
        for d in (2, 3, 5):
            u = rotation_unitary(d, (0.0, 0.0, 1.0), 0.0)
            assert np.max(np.abs(u.mat - np.eye(d))) < 1e-14

    def test_half_pi_y_maps_zero_to_dark(self):
        psi = rotation_unitary(3, (0, 1, 0), np.pi / 2) @ named_state(3, "0")
        assert states_equal_up_to_phase(psi, named_state(3, "D"), 1e-12)

    def test_half_pi_y_maps_plus_one_to_u(self):
        psi = rotation_unitary(3, (0, 1, 0), np.pi / 2) @ named_state(3, "+1")
        assert states_equal_up_to_phase(psi, named_state(3, "u"), 1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0, 2 * np.pi)
            ops = angular_momentum_ops(d)
            gen = axis[0] * ops.jx + axis[1] * ops.jy + axis[2] * ops.jz
            expected = series_expm(gen * angle)
            got = rotation_unitary(d, axis, angle).mat
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_non_unit_axis_rejected(self):
        with pytest.raises(NormalizationError):
            rotation_unitary(3, (0, 2, 0), 1.0)


class TestLiftUnitary:
    def test_qutrit_matrix_entrywise(self):
        a = b = 1 / np.sqrt(2)
        s2 = np.sqrt(2)
        expect = np.array([
            [a * a, -a * b * s2, b * b],
            [a * b * s2, a * a - b * b, -a * b * s2],
            [b * b, a * b * s2, a * a],
        ])
        assert np.max(np.abs(lift_unitary(a, b, 3).mat - expect)) < 1e-12
        # middle column maps |0> to |D> in (|-1>,|0>,|+1>) order
        assert np.allclose(lift_unitary(a, b, 3).mat[:, 1],
                           [-1 / s2, 0.0, 1 / s2])

    def test_identity(self):
        for d in (2, 3, 5, 7):
            assert np.max(np.abs(lift_unitary(1.0, 0.0, d).mat - np.eye(d))) < 1e-14

    def test_d2_reproduces_the_two_level_matrix_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = random_cayley_klein(rng)
            expect = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
            assert np.max(np.abs(lift_unitary(a, b, 2).mat - expect)) < 1e-15

    def test_antidiagonal_reversal_d5(self):
        # a=0, b=i gives the amplitude-reversing anti-diagonal (up to phase)
        u = lift_unitary(0.0, 1j, 5).mat
        anti = np.fliplr(np.eye(5)).astype(complex)
        assert phase_aligned_deviation(u, anti) < 1e-12
        off = u[np.abs(np.fliplr(np.eye(5))) == 0]
        assert np.max(np.abs(off)) < 1e-15

    def test_non_normalized_rejected(self):
        with pytest.raises(NormalizationError):
            lift_unitary(1.0, 0.5, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_homomorphism(self, seed):
        rng = np.random.default_rng(seed)
        a1, b1 = random_cayley_klein(rng)
        a2, b2 = random_cayley_klein(rng)
        u1 = np.array([[a1, -np.conj(b1)], [b1, np.conj(a1)]])
        u2 = np.array([[a2, -np.conj(b2)], [b2, np.conj(a2)]])
        u12 = u1 @ u2
        for d in (2, 3, 4, 5, 6):
            lhs = lift_unitary(u12[0, 0], u12[1, 0], d).mat
            rhs = lift_unitary(a1, b1, d).mat @ lift_unitary(a2, b2, d).mat
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_consistency_with_rotation(self, d):
        # lift(cos t/2, sin t/2) is the rotation by -t about y in the package
        # axis convention (the +t rotation is lift(cos t/2, -sin t/2)).
        rng = np.random.default_rng(5)
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi)
            lifted = lift_unitary(np.cos(theta / 2), np.sin(theta / 2), d)
            rotated = rotation_unitary(d, (0, 1, 0), -theta)
            assert phase_aligned_deviation(lifted, rotated) < 1e-10
            lifted = lift_unitary(np.cos(theta / 2), -np.sin(theta / 2), d)
            rotated = rotation_unitary(d, (0, 1, 0), theta)
            assert phase_aligned_deviation(lifted, rotated) < 1e-10

    def test_tables_match_the_binomial_sum_loop(self):
        # the per-d tables evaluate the same terms as the textbook triple loop,
        # with products grouped differently: equal to a few ulps
        rng = np.random.default_rng(23)
        for d in range(2, 9):
            for _ in range(5):
                a, b = random_cayley_klein(rng)
                assert np.max(np.abs(lift_unitary(a, b, d).mat
                                     - loop_lift(a, b, d))) < 1e-14

    def test_batch_matches_single_lifts(self):
        rng = np.random.default_rng(29)
        pairs = np.array([random_cayley_klein(rng) for _ in range(6)]).reshape(2, 3, 2)
        for d in (2, 3, 6):
            batch = lift_matrices(pairs[..., 0], pairs[..., 1], d)
            assert batch.shape == (2, 3, d, d)
            for i in range(2):
                for j in range(3):
                    single = lift_unitary(pairs[i, j, 0], pairs[i, j, 1], d).mat
                    assert np.array_equal(batch[i, j], single)

    def test_unitarity(self):
        rng = np.random.default_rng(17)
        for d in (2, 4, 6, 8):
            a, b = random_cayley_klein(rng)
            u = lift_unitary(a, b, d).mat
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


class TestNamedStates:
    def test_dark_state(self):
        d = named_state(3, "D")
        assert np.allclose(d.amps, np.array([-1, 0, 1]) / np.sqrt(2))

    def test_u_and_d(self):
        u = named_state(3, "u")
        assert np.allclose(u.amps, [0.5, 1 / np.sqrt(2), 0.5])
        dn = named_state(3, "d")
        assert np.allclose(dn.amps, [0.5, -1 / np.sqrt(2), 0.5])

    def test_jx_eigenstates(self):
        ops = angular_momentum_ops(3)
        for name, eig in (("u", 1.0), ("D", 0.0), ("d", -1.0)):
            v = named_state(3, name).amps
            assert np.max(np.abs(ops.jx @ v - eig * v)) < 1e-12

    def test_zero_state(self):
        assert np.allclose(named_state(3, "0").amps, [0, 1, 0])
        assert np.allclose(named_state(5, "0").amps, basis_state(5, 2).amps)

    def test_unknown_label(self):
        with pytest.raises(UnknownStateError):
            named_state(3, "w")
        with pytest.raises(UnknownStateError):
            named_state(4, "D")


class TestStateFidelity:
    def test_self_fidelity(self):
        psi = named_state(3, "u")
        assert state_fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert state_fidelity(named_state(3, "0"), named_state(3, "D")) < 1e-15

    def test_quarter_rotation_against_series_oracle(self):
        # oracle: truncated-series exponential, evaluated independently
        ops = angular_momentum_ops(3)
        u_oracle = series_expm(ops.jy * (np.pi / 4))
        psi0 = named_state(3, "0").amps
        expected = abs(np.vdot(psi0, u_oracle @ psi0)) ** 2
        assert expected == pytest.approx(0.5, abs=1e-12)  # cos^2(pi/4), frozen
        psi = rotation_unitary(3, (0, 1, 0), np.pi / 4) @ named_state(3, "0")
        assert state_fidelity(psi, named_state(3, "0")) == pytest.approx(
            expected, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            state_fidelity(named_state(3, "0"), basis_state(4, 0))


class TestNanRejected:
    """A nan entry fails the norm and unitarity checks; they used to accept
    it, since every comparison with nan is False."""

    @pytest.mark.parametrize("amps", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
    def test_state_vector(self, amps):
        with pytest.raises(NormalizationError):
            StateVector(np.array(amps))

    @pytest.mark.parametrize("mat", [np.full((2, 2), np.nan),
                                     np.array([[1.0, 0.0], [0.0, np.nan]])])
    def test_unitary(self, mat):
        with pytest.raises(NormalizationError):
            Unitary(mat)

    def test_lift_and_rotation_inputs(self):
        with pytest.raises(NormalizationError):
            lift_unitary(np.nan, 0.0, 3)
        with pytest.raises(NormalizationError):
            rotation_unitary(3, (np.nan, 0.0, 0.0), 1.0)


class TestRotationCycles:
    def test_cycle_from_zero(self):
        r = rotation_unitary(3, (0, 1, 0), np.pi / 2)
        psi = named_state(3, "0")
        for target in ("D", "0", "D", "0"):
            psi = r @ psi
            assert states_equal_up_to_phase(psi, named_state(3, target), 1e-10)

    def test_cycle_from_plus_one(self):
        r = rotation_unitary(3, (0, 1, 0), np.pi / 2)
        psi = named_state(3, "+1")
        for target in ("u", "-1", "d", "+1"):
            psi = r @ psi
            assert states_equal_up_to_phase(psi, named_state(3, target), 1e-10)


def loop_lift(a, b, d):
    """Reference spin-j lift: the binomial sum of lift_unitary, entry by entry."""
    n = d - 1
    mat = np.zeros((d, d), dtype=complex)
    for r in range(1, d + 1):
        for s in range(1, d + 1):
            for q in range(max(0, r + s - n - 2), min(r - 1, s - 1) + 1):
                coeff = np.sqrt(comb(r - 1, q) * comb(s - 1, q)
                                * comb(n + 1 - r, s - 1 - q) * comb(n + 1 - s, r - 1 - q))
                mat[r - 1, s - 1] += (coeff * a ** (n + 2 - r - s + q) * np.conj(a) ** q
                                      * b ** (r - 1 - q) * (-np.conj(b)) ** (s - 1 - q))
    return mat
