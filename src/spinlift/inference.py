"""Detection-error model, binomial shot sampling and maximum-likelihood
normalization / fringe fitting for the dark-state fidelity measurement.

The fringe protocol: after preparing a (possibly mixed) qutrit state, a
resonant pi/2 analysis pulse at two-level phase chi is applied and the
population left in |0> is recorded.  Sweeping chi maps the |0> population
to A0 + A cos(2 chi + phi0), whose offset, amplitude and phase give the
dark-state fidelity F_D = A0 - A cos(phi0).

The MeasurementModel's event classes are generic: p_b_given_1 is the
probability of registering the counted event when the system is truly in
the class the fitted probability refers to (for the |0>-population fringe
the counted event is the dark outcome, so the default 0.985 / 0.015 pair is
the ~97% fluorescence-detection fidelity of the modeled apparatus).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spin import (DimensionError, SpinliftError, _as_readonly, angular_momentum_ops,
                   lift_matrices)

__all__ = [
    "FitSingularError",
    "MeasurementModel",
    "FringeData",
    "FitResult",
    "detection_map",
    "sample_counts",
    "ml_estimate_single",
    "ml_fit_fringe",
    "fringe_prediction",
    "analysis_pulse_unitary",
    "infidelity_per_op",
]

TWO_PI = 2.0 * np.pi


class FitSingularError(SpinliftError, RuntimeError):
    """Raised when the fringe data cannot constrain the fit."""


@dataclass(frozen=True)
class MeasurementModel:
    """Detection-error probabilities, shot count and RNG seed."""

    p_b_given_1: float = 0.985
    p_b_given_0: float = 0.015
    shots: int = 200
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_b_given_0 < self.p_b_given_1 <= 1.0):
            raise ValueError(
                f"need 0 <= P(b|0) < P(b|1) <= 1, got {self.p_b_given_0}, {self.p_b_given_1}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass(frozen=True)
class FringeData:
    """Measured fringe: (chi_i, k_i) counted events out of n shots per point."""

    chi: np.ndarray
    counts: np.ndarray
    shots: int

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if chi.shape != counts.shape:
            raise ValueError("chi and counts must have matching shapes")
        if np.any(counts < 0) or np.any(counts > self.shots):
            raise ValueError("counts must lie in [0, shots]")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class FitResult:
    """Fringe-fit parameters with standard errors and the derived fidelity.

    fidelity is A0 - A cos(phi0) clipped to [0, 1]; fidelity_raw keeps the
    unclipped value so downstream scaling fits are not biased.
    """

    a0: float
    a: float
    phi0: float
    a0_err: float
    a_err: float
    phi0_err: float
    fidelity: float
    fidelity_raw: float
    fidelity_err: float
    log_likelihood: float

    def to_json_dict(self) -> dict:
        return {
            "a0": self.a0, "a": self.a, "phi0_rad": self.phi0,
            "a0_err": self.a0_err, "a_err": self.a_err, "phi0_err": self.phi0_err,
            "fidelity": self.fidelity, "fidelity_raw": self.fidelity_raw,
            "fidelity_err": self.fidelity_err, "log_likelihood": self.log_likelihood,
        }


def detection_map(p, m: MeasurementModel):
    """Probability of the counted event: P(b|1) p + P(b|0) (1 - p)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < -1e-12) or np.any(p_arr > 1 + 1e-12):
        raise ValueError("probability outside [0, 1]")
    out = m.p_b_given_1 * p_arr + m.p_b_given_0 * (1.0 - p_arr)
    return out if out.ndim else float(out)


def sample_counts(p_b, m: MeasurementModel, rng: np.random.Generator | None = None):
    """Binomial(shots, p_b) draw; deterministic for a fixed model seed."""
    if rng is None:
        rng = m.rng()
    return rng.binomial(m.shots, np.asarray(p_b, dtype=float))


def ml_estimate_single(k: float, m: MeasurementModel) -> float:
    """MLE of the underlying probability from k counted events in n shots.

    The binomial likelihood is maximized by inverting the linear detection
    map at k/n and clamping to [0, 1].
    """
    if k < 0 or k > m.shots:
        raise ValueError(f"k must be in [0, {m.shots}], got {k}")
    raw = (k / m.shots - m.p_b_given_0) / (m.p_b_given_1 - m.p_b_given_0)
    return float(np.clip(raw, 0.0, 1.0))


def _make_log_likelihood(chi, counts, shots, m: MeasurementModel):
    """Binomial log-likelihood of (A0, A, phi0) for the fringe model.

    The detection map extends the likelihood smoothly through the model
    boundaries 0 and 1 (the detected-event probability stays inside (0, 1)
    a little beyond them), so an optimum with A0 +/- A at the boundary has a
    regular observed information; far excursions hit a quadratic wall.
    """
    cos2 = np.cos(2.0 * chi)
    sin2 = np.sin(2.0 * chi)
    n_minus_k = shots - counts
    dp = m.p_b_given_1 - m.p_b_given_0
    p0 = m.p_b_given_0

    def ll(params) -> float:
        a0, a, phi0 = params
        model = a0 + a * (np.cos(phi0) * cos2 - np.sin(phi0) * sin2)
        excess = np.maximum(model - 2.0, 0.0) + np.maximum(-1.0 - model, 0.0)
        penalty = 1e6 * shots * float(np.sum(excess**2))
        p_b = np.clip(p0 + dp * model, 1e-12, 1.0 - 1e-12)
        return float(np.sum(counts * np.log(p_b) + n_minus_k * np.log(1.0 - p_b))) - penalty

    return ll


_NM_OPTIONS = {"xatol": 1e-12, "fatol": 1e-13, "maxiter": 6000, "maxfev": 8000}


class _BudgetSpent(Exception):
    """The evaluation budget ran out inside a Nelder-Mead iteration."""


@dataclass(frozen=True)
class _Minimum:
    x: np.ndarray
    fun: float
    nfev: int
    nit: int


def minimize(fun, x0) -> _Minimum:
    """Nelder-Mead minimum of fun from x0 under the limits in _NM_OPTIONS.

    Step for step this is scipy's Nelder-Mead: reflection 1, expansion 2,
    contraction and shrink 1/2; the initial simplex scales each coordinate
    by 1.05 (a zero one becomes 0.00025); it stops when the simplex lies
    within xatol of its best vertex and its values within fatol of the
    best value, or after maxiter iterations or maxfev evaluations.
    """
    opts = _NM_OPTIONS
    maxfev, maxiter = opts["maxfev"], opts["maxiter"]
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    nfev, nit = 0, 1

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(x)

    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    sim = np.tile(x0, (n + 1, 1))
    np.fill_diagonal(sim[1:], np.where(x0 != 0, 1.05 * x0, 0.00025))
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
        sim, fsim = by_value(sim, fsim)
        while nfev < maxfev and nit < maxiter:
            if (np.max(np.abs(sim[1:] - sim[0])) <= opts["xatol"]
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= opts["fatol"]):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2.0 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3.0 * xbar - 2.0 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            nit += 1
            sim, fsim = by_value(sim, fsim)
    except _BudgetSpent:
        sim, fsim = by_value(sim, fsim)
    return _Minimum(x=sim[0], fun=float(np.min(fsim)), nfev=nfev, nit=nit)


def ml_fit_fringe(data: FringeData, m: MeasurementModel) -> FitResult:
    """Maximum-likelihood fit of A0 + A cos(2 chi + phi0) to fringe counts.

    Multi-starts over phi0 in {0, pi/2, pi, 3pi/2} plus a harmonic-projection
    start, refined by Nelder-Mead.  The standard errors are closed-form: in
    c = (A0, A cos phi0, -A sin phi0) the model is linear, so the observed
    information is exact, F_D = c0 - c1 has the exact error of a linear
    form, and A0, A and phi0 get theirs by the delta method (phi0_err is inf
    at A = 0).  FitSingularError when that information is not positive
    definite.
    """
    chi, counts, shots = data.chi, data.counts, data.shots
    if chi.size < 4:
        raise FitSingularError(f"need >= 4 fringe points, got {chi.size}")
    if np.ptp(chi) < np.pi / 2 - 1e-12:
        raise FitSingularError(
            f"chi must span at least half a fringe period (pi/2), got {np.ptp(chi):.4f}")

    ll = _make_log_likelihood(chi, counts, shots, m)
    nll = lambda p: -ll(p)

    p_hat = np.clip((counts / shots - m.p_b_given_0)
                    / (m.p_b_given_1 - m.p_b_given_0), 0.0, 1.0)
    a0_start = float(np.mean(p_hat))
    z = 2.0 * np.mean(p_hat * np.exp(-2j * chi))
    a_grid = max(abs(z), 0.1)
    grid_starts = [(a0_start, a_grid, phi)
                   for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)]
    grid_starts.sort(key=nll)
    # refine from the projection start and the best phase-grid start; fall
    # back to the remaining grid starts only if those two disagree
    starts = [(a0_start, min(abs(z), 0.5), float(np.angle(z))), grid_starts[0]]
    results = [minimize(nll, p0) for p0 in starts]
    if abs(results[0].fun - results[1].fun) > 1e-6:
        results += [minimize(nll, p0) for p0 in grid_starts[1:]]
    best = min(results, key=lambda r: r.fun)
    a0, a, phi0 = best.x
    if a < 0:  # fold the sign into the phase
        a = -a
        phi0 += np.pi
    phi0 = float(np.mod(phi0, TWO_PI))

    # the model is X c with rows (1, cos 2chi, sin 2chi) and
    # c = (A0, A cos phi0, -A sin phi0), so the observed information in c is
    # X^T diag(w) X: the binomial curvature where _make_log_likelihood does
    # not clip p_b (the clipped likelihood is flat), plus its quadratic
    # wall's where that is active
    design = np.stack([np.ones_like(chi), np.cos(2.0 * chi), np.sin(2.0 * chi)], axis=1)
    cos_phi, sin_phi = np.cos(phi0), np.sin(phi0)
    model = a0 + a * (cos_phi * design[:, 1] - sin_phi * design[:, 2])
    dp = m.p_b_given_1 - m.p_b_given_0
    p_b = m.p_b_given_0 + dp * model
    p_c = np.clip(p_b, 1e-12, 1.0 - 1e-12)
    w = np.where(p_b == p_c, dp**2 * (counts / p_c**2 + (shots - counts) / (1.0 - p_c)**2), 0.0)
    w += np.where((model > 2.0) | (model < -1.0), 2e6 * shots, 0.0)
    info = design.T @ (w[:, None] * design)
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise FitSingularError("observed information is not positive definite") from None
    cov = np.linalg.inv(info)
    # F_D = c0 - c1 is linear in c; A and phi0 follow by the delta method,
    # and phi0 is unidentifiable at A = 0
    grads = np.array([[1.0, 0.0, 0.0], [0.0, cos_phi, -sin_phi], [1.0, -1.0, 0.0]])
    a0_err, a_err, fid_err = np.sqrt(np.einsum("ij,jk,ik->i", grads, cov, grads))
    phi0_err = np.inf
    if a > 0:
        grad_phi = np.array([0.0, -sin_phi, -cos_phi]) / a
        phi0_err = np.sqrt(grad_phi @ cov @ grad_phi)
    raw = a0 - a * cos_phi
    return FitResult(
        a0=float(a0), a=float(a), phi0=phi0,
        a0_err=float(a0_err), a_err=float(a_err), phi0_err=float(phi0_err),
        fidelity=float(np.clip(raw, 0.0, 1.0)), fidelity_raw=float(raw),
        fidelity_err=float(fid_err),
        log_likelihood=float(-best.fun),
    )


# The resonant pi/2 analysis pulse at phase 0 is the rotation
# exp(-i (pi/2) Jx) at any Rabi frequency: the spin-1 lift of
# [[a, -b*], [b, a*]] with a = cos(pi/4), b = -i sin(pi/4).
_ANALYSIS_PULSE = _as_readonly(lift_matrices(np.sqrt(0.5), -1j * np.sqrt(0.5), 3))
_JZ_DIAGONAL = _as_readonly(np.diag(angular_momentum_ops(3).jz).real)


def analysis_pulse_unitary(chi) -> np.ndarray:
    """Qutrit propagator of the resonant pi/2 analysis pulse at phase chi; an
    array of chi gives shape chi.shape + (3, 3).  The phase is a turn about
    z, so the pulse at chi is exp(-i chi Jz) U0 exp(i chi Jz), with U0 the
    spin-1 lift of the pi/2 rotation about x."""
    turn = np.exp(-1j * np.multiply.outer(np.asarray(chi, dtype=float), _JZ_DIAGONAL))
    return turn[..., :, None] * _ANALYSIS_PULSE * turn.conj()[..., None, :]


def fringe_prediction(rho: np.ndarray, chi):
    """Population in |0> after the analysis pulse at phase chi, for a qutrit
    density matrix rho; an array of chi gives an array of populations."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise DimensionError(f"expected a 3x3 density matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < -1e-9:
        raise ValueError("density matrix is not positive")
    row = analysis_pulse_unitary(chi)[..., 1, :]  # <0| U
    # elementwise, so each chi gets the same arithmetic whatever the shape
    p = np.clip(np.sum(row[..., :, None] * rho * row.conj()[..., None, :],
                       axis=(-2, -1)).real, 0.0, 1.0)
    return p if p.ndim else float(p)


def infidelity_per_op(points: Sequence[tuple]) -> tuple[float, float]:
    """Weighted least squares of F = 1 - x * eps through (x, F, sigma) points;
    returns (eps, standard error of eps).  The intercept is fixed at 1."""
    pts = list(points)
    xs = np.array([p[0] for p in pts], dtype=float)
    fs = np.array([p[1] for p in pts], dtype=float)
    sigmas = np.array([p[2] for p in pts], dtype=float)
    if np.unique(xs[xs > 0]).size < 2 and np.unique(xs).size < 2:
        raise FitSingularError("need at least 2 distinct operation counts")
    if np.all(xs == 0):
        raise FitSingularError("all points at x = 0")
    w = np.where(sigmas > 0, 1.0 / np.maximum(sigmas, 1e-300) ** 2, 1.0)
    denom = float(np.sum(w * xs * xs))
    if denom == 0:
        raise FitSingularError("singular design: no nonzero operation counts")
    eps = float(np.sum(w * xs * (1.0 - fs)) / denom)
    sigma_eps = float(1.0 / np.sqrt(denom)) if np.all(sigmas > 0) else float("nan")
    return eps, sigma_eps
