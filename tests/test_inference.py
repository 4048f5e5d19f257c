"""Detection model, binomial sampling, ML estimation and the fringe fit."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import spinlift
from spinlift import inference
from spinlift import (
    FitSingularError,
    FringeData,
    MeasurementModel,
    detection_map,
    fringe_prediction,
    infidelity_per_op,
    ml_estimate_single,
    ml_fit_fringe,
    named_state,
    rotation_unitary,
    sample_counts,
    state_fidelity,
)
from spinlift.experiments import DEFAULT_FRINGE_CHI, run_fringe_experiment

M_DEFAULT = MeasurementModel(shots=200, seed=0)


class TestDetectionMap:
    def test_extremes(self):
        assert detection_map(1.0, M_DEFAULT) == pytest.approx(0.985)
        assert detection_map(0.0, M_DEFAULT) == pytest.approx(0.015)

    def test_symmetric_midpoint(self):
        assert detection_map(0.5, M_DEFAULT) == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            detection_map(1.2, M_DEFAULT)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            MeasurementModel(p_b_given_1=0.2, p_b_given_0=0.5)
        with pytest.raises(ValueError):
            MeasurementModel(shots=0)


class TestSampleCounts:
    def test_deterministic_extremes(self):
        m = MeasurementModel(shots=50, seed=4)
        assert sample_counts(0.0, m) == 0
        assert sample_counts(1.0, m) == 50

    def test_seeded_reproducibility(self):
        m = MeasurementModel(shots=100, seed=12)
        assert sample_counts(0.37, m) == sample_counts(0.37, m)

    def test_binomial_concentration(self):
        m = MeasurementModel(shots=100000, seed=3)
        k = sample_counts(0.3, m)
        assert 0.29 <= k / m.shots <= 0.31


class TestMlEstimateSingle:
    def test_extremes_map_to_unit_interval(self):
        m = MeasurementModel(shots=1000, seed=0)
        assert ml_estimate_single(round(0.985 * 1000), m) == pytest.approx(1.0, abs=1e-12)
        assert ml_estimate_single(round(0.015 * 1000), m) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_midpoint(self):
        m = MeasurementModel(p_b_given_1=0.97, p_b_given_0=0.03, shots=1000)
        assert ml_estimate_single(500, m) == pytest.approx(0.5)

    def test_clamping(self):
        m = MeasurementModel(shots=100)
        assert ml_estimate_single(0, m) == 0.0
        assert ml_estimate_single(100, m) == 1.0

    def test_ideal_detection_reduces_to_frequency(self):
        m = MeasurementModel(p_b_given_1=1.0, p_b_given_0=0.0, shots=64)
        for k in (0, 13, 40, 64):
            assert ml_estimate_single(k, m) == k / 64

    def test_is_the_likelihood_maximizer(self):
        from scipy.special import xlogy
        m = MeasurementModel(shots=80, seed=0)
        k = 33
        p_hat = ml_estimate_single(k, m)
        grid = np.linspace(0, 1, 4001)
        q = detection_map(grid, m)
        ll = xlogy(k, q) + xlogy(m.shots - k, 1 - q)
        assert abs(grid[np.argmax(ll)] - p_hat) < 5e-4


class TestMlFitFringe:
    def test_noiseless_dark_state(self):
        rho = named_state(3, "D").density_matrix()
        _, fit = run_fringe_experiment(rho, M_DEFAULT, exact=True)
        assert fit.a0 == pytest.approx(0.5, abs=1e-7)
        assert fit.a == pytest.approx(0.5, abs=1e-7)
        assert fit.phi0 == pytest.approx(np.pi, abs=1e-7)
        assert fit.fidelity_raw == pytest.approx(1.0, abs=1e-9)

    def test_flat_data(self):
        chi = DEFAULT_FRINGE_CHI
        counts = np.full(chi.shape, detection_map(0.5, M_DEFAULT) * 200)
        fit = ml_fit_fringe(FringeData(chi=chi, counts=counts, shots=200), M_DEFAULT)
        assert fit.a0 == pytest.approx(0.5, abs=1e-6)
        assert fit.a == pytest.approx(0.0, abs=1e-6)

    def test_too_few_points(self):
        with pytest.raises(FitSingularError):
            ml_fit_fringe(FringeData(chi=np.array([0.0, 1.0, 2.0]),
                                     counts=np.array([5.0, 6.0, 7.0]), shots=10),
                          M_DEFAULT)

    def test_insufficient_span(self):
        chi = np.linspace(0, 0.3, 8)
        counts = np.full(8, 5.0)
        with pytest.raises(FitSingularError):
            ml_fit_fringe(FringeData(chi=chi, counts=counts, shots=10), M_DEFAULT)

    def test_recovery_under_noise(self):
        true = (0.45, 0.40, 1.3)
        chi = DEFAULT_FRINGE_CHI
        q = detection_map(true[0] + true[1] * np.cos(2 * chi + true[2]), M_DEFAULT)
        rng = np.random.default_rng(77)
        counts = rng.binomial(2000, q).astype(float)
        fit = ml_fit_fringe(FringeData(chi=chi, counts=counts, shots=2000), M_DEFAULT)
        assert fit.a0 == pytest.approx(true[0], abs=5 * fit.a0_err)
        assert fit.a == pytest.approx(true[1], abs=5 * fit.a_err)
        assert fit.phi0 == pytest.approx(true[2], abs=5 * fit.phi0_err)

    def test_estimator_consistency_with_shots(self):
        true = (0.5, 0.45, 2.4)
        chi = DEFAULT_FRINGE_CHI
        q = detection_map(true[0] + true[1] * np.cos(2 * chi + true[2]), M_DEFAULT)
        rms = []
        for n in (1000, 10000, 100000):
            errs = []
            for r in range(20):
                rng = np.random.default_rng([n, r])
                counts = rng.binomial(n, q).astype(float)
                fit = ml_fit_fringe(FringeData(chi=chi, counts=counts, shots=n),
                                    M_DEFAULT)
                errs.append((fit.a0 - true[0]) ** 2 + (fit.a - true[1]) ** 2)
            rms.append(np.sqrt(np.mean(errs)))
        assert rms[0] > rms[1] > rms[2]


def random_fringe_nll(seed):
    """The fit's negative log-likelihood on a random default-grid fringe,
    and a start point with a zero coordinate now and then."""
    rng = np.random.default_rng(seed)
    chi = DEFAULT_FRINGE_CHI
    a0, a, phi0 = rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.5), rng.uniform(0, 2 * np.pi)
    p = np.clip(a0 + a * np.cos(2 * chi + phi0), 0.0, 1.0)
    counts = rng.binomial(M_DEFAULT.shots, detection_map(p, M_DEFAULT)).astype(float)
    ll = inference._make_log_likelihood(chi, counts, M_DEFAULT.shots, M_DEFAULT)
    x0 = np.array([rng.uniform(0, 1), rng.uniform(0, 0.5), rng.uniform(0, 2 * np.pi)])
    if seed % 3 == 0:
        x0[seed % 2 + 1] = 0.0
    return (lambda q: -ll(q)), x0


class TestNelderMead:
    """inference.minimize takes scipy's Nelder-Mead steps exactly."""

    @staticmethod
    def assert_same_as_scipy(nll, x0):
        ours = inference.minimize(nll, x0)
        ref = scipy_minimize(nll, x0, method="Nelder-Mead", options=inference._NM_OPTIONS)
        assert np.array_equal(ours.x, ref.x)
        assert ours.fun == ref.fun
        assert (ours.nfev, ours.nit) == (ref.nfev, ref.nit)
        return ours

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy(self, seed):
        self.assert_same_as_scipy(*random_fringe_nll(seed))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("maxfev", [2, 4, 41])
    def test_maxfev_stop_matches_scipy(self, monkeypatch, seed, maxfev):
        monkeypatch.setattr(inference, "_NM_OPTIONS",
                            {**inference._NM_OPTIONS, "maxfev": maxfev})
        assert self.assert_same_as_scipy(*random_fringe_nll(seed)).nfev == maxfev

    @pytest.mark.parametrize("seed", range(4))
    def test_maxiter_stop_matches_scipy(self, monkeypatch, seed):
        monkeypatch.setattr(inference, "_NM_OPTIONS",
                            {**inference._NM_OPTIONS, "maxiter": 17})
        assert self.assert_same_as_scipy(*random_fringe_nll(seed)).nit == 17

    def test_fit_matches_scipy_fit(self, monkeypatch):
        rng = np.random.default_rng(3)
        chi = DEFAULT_FRINGE_CHI
        datasets = [FringeData(chi, rng.binomial(200, detection_map(
            np.clip(0.5 + a * np.cos(2 * chi + 0.7), 0, 1), M_DEFAULT)).astype(float), 200)
            for a in (0.0, 0.2, 0.5)]
        ours = [ml_fit_fringe(d, M_DEFAULT) for d in datasets]
        monkeypatch.setattr(inference, "minimize", lambda fun, x0: scipy_minimize(
            fun, x0, method="Nelder-Mead", options=inference._NM_OPTIONS))
        assert ours == [ml_fit_fringe(d, M_DEFAULT) for d in datasets]


def test_runtime_imports_no_scipy():
    code = ("import sys, numpy as np, spinlift, spinlift.cli, spinlift.acceptance\n"
            "chi = np.linspace(0.0, np.pi, 9)\n"
            "counts = np.round(100 + 80 * np.cos(2 * chi + 1.0))\n"
            "m = spinlift.MeasurementModel()\n"
            "spinlift.ml_fit_fringe(spinlift.FringeData(chi, counts, m.shots), m)\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(spinlift.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


class TestDarkStateFidelity:
    """FitResult.fidelity is the one F_D = A0 - A cos(phi0), clipped to [0, 1]."""

    def test_values(self):
        rho = named_state(3, "D").density_matrix()
        _, fit = run_fringe_experiment(rho, M_DEFAULT, exact=True)
        assert fit.fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("a, phi0, expect", [(0.5, 0.0, 0.0), (0.0, 0.0, 0.5),
                                                  (0.3, 2.0, 0.5 - 0.3 * np.cos(2.0))])
    def test_formula(self, a, phi0, expect):
        chi = DEFAULT_FRINGE_CHI
        counts = 10000 * detection_map(0.5 + a * np.cos(2 * chi + phi0), M_DEFAULT)
        fit = ml_fit_fringe(FringeData(chi, counts, 10000), M_DEFAULT)
        assert fit.fidelity == pytest.approx(expect, abs=1e-6)
        assert fit.fidelity == np.clip(fit.a0 - fit.a * np.cos(fit.phi0), 0.0, 1.0)


def richardson_information(ll, theta, steps):
    """-Hessian of ll at theta: central second differences at steps and at
    steps / 2, Richardson-extrapolated (truncation error O(step^4))."""
    theta = np.asarray(theta, dtype=float)

    def hessian(h):
        e = np.diag(h)
        return np.array([[(ll(theta + e[i] + e[j]) - ll(theta + e[i] - e[j])
                           - ll(theta - e[i] + e[j]) + ll(theta - e[i] - e[j]))
                          / (4 * h[i] * h[j]) for j in range(3)] for i in range(3)])

    steps = np.asarray(steps, dtype=float)
    return -(4 * hessian(steps / 2) - hessian(steps)) / 3


def seeded_fringe(seed, shots=200, a_range=(0.0, 0.5)):
    rng = np.random.default_rng(seed)
    chi = DEFAULT_FRINGE_CHI
    a0, a, phi0 = rng.uniform(0.1, 0.9), rng.uniform(*a_range), rng.uniform(0, 2 * np.pi)
    p = np.clip(a0 + a * np.cos(2 * chi + phi0), 0.0, 1.0)
    counts = rng.binomial(shots, detection_map(p, M_DEFAULT)).astype(float)
    return FringeData(chi, counts, shots)


class TestClosedFormErrors:
    @pytest.mark.parametrize("seed", range(20))
    def test_match_an_accurate_numerical_hessian(self, seed):
        data = seeded_fringe([5, seed], shots=10000, a_range=(0.2, 0.5))
        fit = ml_fit_fringe(data, M_DEFAULT)
        ll = inference._make_log_likelihood(data.chi, data.counts, data.shots, M_DEFAULT)
        cov = np.linalg.inv(richardson_information(ll, (fit.a0, fit.a, fit.phi0),
                                                   (3e-5, 3e-5, 3e-5 / fit.a)))
        grad_f = np.array([1.0, -np.cos(fit.phi0), fit.a * np.sin(fit.phi0)])
        expect = [*np.sqrt(np.diag(cov)), np.sqrt(grad_f @ cov @ grad_f)]
        got = [fit.a0_err, fit.a_err, fit.phi0_err, fit.fidelity_err]
        assert got == pytest.approx(expect, rel=1e-4)

    @pytest.mark.parametrize("shots", [200, 10**6])
    def test_noiseless_dark_state_under_ideal_detection(self, shots):
        m = MeasurementModel(p_b_given_1=1.0, p_b_given_0=0.0, shots=shots)
        _, fit = run_fringe_experiment(named_state(3, "D").density_matrix(), m, exact=True)
        assert (fit.a0, fit.a, fit.phi0) == pytest.approx((0.5, 0.5, np.pi), abs=1e-6)
        errs = np.array([fit.a0_err, fit.a_err, fit.phi0_err, fit.fidelity_err])
        assert np.all(np.isfinite(errs)) and np.all(errs > 0)
        # exact counts k = n p give the information n / (p (1 - p)) per point;
        # the points read at p = 0 or 1 sit where the likelihood's p_b is
        # clipped and carry none
        chi = DEFAULT_FRINGE_CHI
        p = 0.5 - 0.5 * np.cos(2 * chi)
        inside = (p > 1e-9) & (p < 1 - 1e-9)
        chi, p = chi[inside], p[inside]
        x = np.stack([np.ones_like(chi), np.cos(2 * chi), np.sin(2 * chi)], axis=1)
        info = x.T @ ((shots / (p * (1 - p)))[:, None] * x)
        e = np.array([1.0, -1.0, 0.0])
        assert fit.fidelity_err == pytest.approx(np.sqrt(e @ np.linalg.solve(info, e)), rel=1e-6)

    def test_zero_amplitude_leaves_the_phase_unconstrained(self, monkeypatch):
        data = seeded_fringe(4)
        ll = inference._make_log_likelihood(data.chi, data.counts, data.shots, M_DEFAULT)
        at = np.array([0.5, 0.0, 1.0])
        monkeypatch.setattr(inference, "minimize", lambda fun, x0: inference._Minimum(
            x=at, fun=-ll(at), nfev=1, nit=1))
        fit = ml_fit_fringe(data, M_DEFAULT)
        assert fit.a == 0.0 and fit.phi0_err == np.inf
        assert np.isfinite(fit.a0_err) and np.isfinite(fit.a_err) and fit.a0_err > 0

    def test_unconstrained_harmonic_is_singular(self):
        # a fringe read only at chi = 0 and pi/2 (with repeats) cannot tell
        # the sin 2chi harmonic from nothing
        chi = np.array([0.0, 0.0, np.pi / 2, np.pi / 2])
        counts = np.array([50.0, 52.0, 140.0, 138.0])
        with pytest.raises(FitSingularError):
            ml_fit_fringe(FringeData(chi, counts, 200), M_DEFAULT)

    @pytest.mark.parametrize("seed, estimates", [
        (11, (0.20626197575709138, 0.2153809972966444, 3.8184866952716345,
              0.37415619505398895, -1720.6792973526144)),
        (12, (0.3415789356139045, 0.35663161795215925, 1.2007397472901955,
              0.21259662670344615, -1748.1642686759367)),
        (13, (0.7202709752252687, 0.3007434306772703, 5.089004052371596,
              0.6096650938345372, -1716.723867796242)),
    ])
    def test_estimates_are_those_of_the_finite_difference_fit(self, seed, estimates):
        # recorded from the fit whose errors came from a finite-difference
        # Hessian: the estimates do not depend on how the errors are taken
        fit = ml_fit_fringe(seeded_fringe(seed), M_DEFAULT)
        assert (fit.a0, fit.a, fit.phi0, fit.fidelity_raw, fit.log_likelihood) == estimates


class TestFringePrediction:
    def test_dark_state_fringe_shape(self):
        rho = named_state(3, "D").density_matrix()
        chi = np.linspace(0, np.pi, 32, endpoint=False)
        p0 = np.array([fringe_prediction(rho, c) for c in chi])
        assert np.mean(p0) == pytest.approx(0.5, abs=1e-9)
        z = 2 * np.mean(p0 * np.exp(-2j * chi))
        assert abs(z) == pytest.approx(0.5, abs=1e-9)
        assert np.angle(z) == pytest.approx(np.pi, abs=1e-9) or \
            np.angle(z) == pytest.approx(-np.pi, abs=1e-9)

    def test_zero_state_no_harmonic(self):
        rho = named_state(3, "0").density_matrix()
        chi = np.linspace(0, np.pi, 16, endpoint=False)
        p0 = np.array([fringe_prediction(rho, c) for c in chi])
        z = 2 * np.mean(p0 * np.exp(-2j * chi))
        assert abs(z) < 1e-12

    def test_random_pure_state_matches_structure(self):
        # offset = (P+1 + P-1)/2, harmonic amplitude = |rho_{+1,-1}|,
        # phase = arg rho_{+1,-1}; extracted by Fourier analysis of the
        # propagation-based curve
        rng = np.random.default_rng(15)
        for _ in range(5):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            chi = np.linspace(0, np.pi, 64, endpoint=False)
            p0 = np.array([fringe_prediction(rho, c) for c in chi])
            offset = np.mean(p0)
            z = 2 * np.mean(p0 * np.exp(-2j * chi))
            expect_offset = 0.5 * (rho[0, 0].real + rho[2, 2].real)
            rho_pm = rho[2, 0]  # <+1| rho |-1>
            assert offset == pytest.approx(expect_offset, abs=1e-9)
            assert abs(z) == pytest.approx(abs(rho_pm), abs=1e-9)
            if abs(rho_pm) > 1e-6:
                dphi = (np.angle(z) - np.angle(rho_pm) + np.pi) % (2 * np.pi) - np.pi
                assert abs(dphi) < 1e-8

    def test_pipeline_matches_state_fidelity(self):
        rng = np.random.default_rng(8)
        dark = named_state(3, "D")
        for _ in range(3):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            _, fit = run_fringe_experiment(rho, M_DEFAULT, exact=True)
            from spinlift import StateVector
            expect = state_fidelity(StateVector(v), dark)
            assert fit.fidelity_raw == pytest.approx(expect, abs=1e-6)

    def test_array_of_chi_equals_the_scalar_calls(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        chi = rng.uniform(-2 * np.pi, 2 * np.pi, 40)
        p0 = fringe_prediction(rho, chi)
        assert p0.shape == chi.shape
        assert np.array_equal(p0, [fringe_prediction(rho, c) for c in chi])
        assert isinstance(fringe_prediction(rho, chi[0]), float)

    @pytest.mark.parametrize("omega0", [2 * np.pi * 40e3, 2 * np.pi * 7e3,
                                        2 * np.pi * 1.0, 2 * np.pi * 10e6])
    def test_analysis_pulse_is_the_z_turned_zero_phase_pulse(self, omega0):
        # the pulse is the same pi/2 rotation at any Rabi frequency
        rng = np.random.default_rng(6)
        for chi in rng.uniform(-2 * np.pi, 2 * np.pi, 50):
            drive = spinlift.lift_schedule(spinlift.square_pulse(np.pi / 2, chi, omega0), 3)
            propagated = spinlift.propagator(drive, spinlift.IntegratorConfig()).mat
            assert np.max(np.abs(inference.analysis_pulse_unitary(chi)
                                 - propagated)) < 1e-12

    def test_inference_imports_no_propagation(self):
        import ast
        tree = ast.parse(open(inference.__file__).read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert not {"dynamics", "waveforms"} & set(name.split(".")), name

    def test_invalid_density_matrix(self):
        with pytest.raises(ValueError):
            fringe_prediction(np.eye(3), 0.0)  # trace 3
        bad = np.diag([0.7, 0.2, 0.1]).astype(complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            fringe_prediction(bad, 0.0)


class TestInfidelityPerOp:
    def test_exact_line(self):
        pts = [(n, 1 - n * 1e-4, 1.0) for n in (8, 16, 32, 64)]
        eps, _ = infidelity_per_op(pts)
        assert eps == pytest.approx(1e-4, rel=1e-12, abs=0.0)

    def test_fixed_intercept_with_n0_point(self):
        pts = [(0, 1.0, 1.0)] + [(n, 1 - n * 2e-4, 1.0) for n in (8, 16)]
        eps, _ = infidelity_per_op(pts)
        assert eps == pytest.approx(2e-4, rel=1e-12, abs=0.0)

    def test_monte_carlo_recovery(self):
        rng_master = np.random.default_rng(2024)
        eps_true, sigma = 2e-4, 5e-4
        ns = np.array([8, 16, 24, 32, 40, 48, 56, 64])
        hits = 0
        runs = 500
        for _ in range(runs):
            f = 1 - ns * eps_true + rng_master.normal(0, sigma, size=ns.size)
            eps, se = infidelity_per_op(list(zip(ns, f, np.full(ns.size, sigma))))
            hits += abs(eps - eps_true) <= 3 * se
        assert hits >= 0.99 * runs

    def test_singular_design(self):
        with pytest.raises(FitSingularError):
            infidelity_per_op([(8, 0.999, 1.0)])


class TestJsonInterfaces:
    def test_fit_result_serializes(self):
        import json
        rho = named_state(3, "D").density_matrix()
        _, fit = run_fringe_experiment(rho, M_DEFAULT, exact=True)
        doc = json.loads(json.dumps(fit.to_json_dict()))
        assert doc["a0"] == pytest.approx(0.5, abs=1e-7)
        assert doc["phi0_rad"] == pytest.approx(np.pi, abs=1e-7)
        assert set(doc) >= {"a0", "a", "phi0_rad", "a0_err", "a_err",
                            "phi0_err", "fidelity", "fidelity_raw", "fidelity_err"}
