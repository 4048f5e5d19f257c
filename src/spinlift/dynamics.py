"""Time evolution under lifted drives: fourth-order commutator-free Magnus
steps, with constant segments taken exactly.

Step boundaries are forced at segment boundaries and sample times, so no
step straddles a discontinuity of the controls (composite phases are
handled exactly).  An interval inside a constant-control segment is one
exact spectral exponential and is never subdivided.  An interval inside a
smooth segment (a Blackman sweep) is cut into steps, each taken with the
two-exponential fourth-order commutator-free Magnus rule (CF4; Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009); Alvermann & Fehske,
J. Comput. Phys. 230, 5930 (2011)), which samples H at the two Gauss nodes
of the step.  A result is accepted only once halving the step changes every
requested amplitude by less than the configured tolerance; a drive whose
segments are all constant is exact after one build and is not halved.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spin import DimensionError, SpinliftError, StateVector, Unitary, angular_momentum_ops
from .waveforms import MultiLevelDrive, ScheduleError

__all__ = [
    "IntegratorError",
    "IntegratorConfig",
    "Trajectory",
    "hamiltonian",
    "propagate",
    "propagator",
    "eigen_scan",
]

# default step criterion: max(Omega, |delta|) * max_step <= 0.4 rad
DEFAULT_PHASE_PER_STEP = 0.4
_EIGH_CHUNK = 131072
# CF4 Gauss nodes c = 1/2 -+ sqrt(3)/6 and weights a = (3 -+ 2 sqrt(3))/12
_GAUSS_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = ((3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0)

logger = logging.getLogger(__name__)


class IntegratorError(SpinliftError, RuntimeError):
    """Step-halving failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class IntegratorConfig:
    """max_step=None picks the step from the schedule's peak control values."""

    max_step: float | None = None
    tolerance: float = 1e-9
    max_halvings: int = 14

    def __post_init__(self):
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError(f"max_step must be > 0, got {self.max_step}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along an evolution; populations are |amplitude|^2 and
    p_f1 = 1 - P(m=0 level) (the bright-manifold probability for d = 3).

    The given states must have unit norm within 1e-9; they are stored
    projected to unit norm, so accumulated rounding never reaches
    StateVector's tighter check."""

    times: np.ndarray
    states: np.ndarray  # shape (n_times, d)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        norms = np.linalg.norm(states, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise IntegratorError("trajectory state norm deviates by "
                                  f"{np.max(np.abs(norms - 1.0)):.3e}", 0.0)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states / norms[:, None])

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    @property
    def p_f1(self) -> np.ndarray:
        if self.dim % 2 == 0:
            raise DimensionError("p_f1 needs an odd dimension with a middle m=0 level")
        return 1.0 - self.populations[:, (self.dim - 1) // 2]

    def state(self, k: int) -> StateVector:
        return StateVector(self.states[k])

    def to_csv(self, path) -> None:
        """Columns: time_us, p_0 .. p_{d-1} (basis index order), p_f1."""
        pops = self.populations
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["time_us"] + [f"p_{k}" for k in range(self.dim)] + ["p_f1"])
            pf1 = self.p_f1
            for i, t in enumerate(self.times):
                w.writerow([f"{t * 1e6:.12g}"]
                           + [f"{pops[i, k]:.12g}" for k in range(self.dim)]
                           + [f"{pf1[i]:.12g}"])


def hamiltonian(drive: MultiLevelDrive, t) -> np.ndarray:
    """Rotating-frame Hamiltonian of the lifted drive at time t (rad/s)."""
    total = drive.total_duration
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > total * (1 + 1e-12) + 1e-15):
        raise ScheduleError(f"time outside schedule domain [0, {total}]")
    return drive.hamiltonian(t)


def _auto_max_step(drive: MultiLevelDrive) -> float:
    peak = drive.control_peaks()
    if peak <= 0:
        return max(drive.total_duration, 1e-9)
    return DEFAULT_PHASE_PER_STEP / peak


def _constant_mask(drive: MultiLevelDrive, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Whether each interval [left, right], which lies inside one segment,
    lies inside a constant-control segment."""
    segments = drive.schedule.segments
    is_constant = np.array([s.is_constant for s in segments], dtype=bool)
    idx = np.searchsorted(drive.boundaries, (left + right) / 2.0, side="right") - 1
    return is_constant[np.clip(idx, 0, max(len(segments) - 1, 0))]


def _all_constant(drive: MultiLevelDrive) -> bool:
    return all(s.is_constant for s in drive.schedule.segments)


def _step_grid(drive: MultiLevelDrive, sample_times: np.ndarray, max_step: float) -> np.ndarray:
    """Time grid with segment boundaries and sample times as forced nodes.

    Intervals inside smooth segments are subdivided uniformly so every step
    is <= max_step; intervals inside constant segments are kept whole, since
    one exponential is exact there.  Forced nodes are emitted exactly (no
    a + (b-a)*k/n endpoint rounding), so sample times can be located in the
    grid by exact match and steps never straddle a segment boundary.
    """
    total = drive.total_duration
    forced = np.unique(np.concatenate([drive.boundaries, sample_times, [0.0, total]]))
    forced = forced[(forced >= 0.0) & (forced <= total)]
    const = _constant_mask(drive, forced[:-1], forced[1:])
    pieces = [forced[:1]]
    for a, b, whole in zip(forced[:-1], forced[1:], const):
        n = 1 if whole else max(1, int(np.ceil((b - a) / max_step - 1e-12)))
        if n > 1:
            interior = a + (b - a) * np.arange(1, n) / n
            pieces.append(interior[(interior > a) & (interior < b)])
        pieces.append(np.array([b]))
    return np.concatenate(pieces)


def _expm_hermitian(h: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """exp(-i dt h) for a batch of Hermitian h, by spectral decomposition."""
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w * dts[:, None])
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _step_unitaries(drive: MultiLevelDrive, grid: np.ndarray) -> np.ndarray:
    """Step propagators over each grid interval.

    An interval inside a constant segment is one exact exponential.  Any
    other interval takes the fourth-order commutator-free Magnus step: with
    H1, H2 sampled at the Gauss nodes,
    U = exp(-i dt (A1 H1 + A2 H2)) exp(-i dt (A2 H1 + A1 H2)),
    where the right-hand factor acts first.
    """
    starts = grid[:-1]
    dts = np.diff(grid)
    const = _constant_mask(drive, starts, grid[1:])
    d = drive.dim
    out = np.empty((dts.size, d, d), dtype=complex)
    for lo in range(0, dts.size, _EIGH_CHUNK):
        chunk = np.arange(lo, min(lo + _EIGH_CHUNK, dts.size))
        c, s = chunk[const[chunk]], chunk[~const[chunk]]
        if c.size:
            out[c] = _expm_hermitian(drive.hamiltonian(starts[c] + dts[c] / 2.0), dts[c])
        if s.size:
            h1 = drive.hamiltonian(starts[s] + _GAUSS_NODES[0] * dts[s])
            h2 = drive.hamiltonian(starts[s] + _GAUSS_NODES[1] * dts[s])
            first = _expm_hermitian(_CF4_WEIGHTS[1] * h1 + _CF4_WEIGHTS[0] * h2, dts[s])
            second = _expm_hermitian(_CF4_WEIGHTS[0] * h1 + _CF4_WEIGHTS[1] * h2, dts[s])
            out[s] = second @ first
    return out


def _evolve_on_grid(drive, psi0: np.ndarray, sample_times: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    steps = _step_unitaries(drive, grid)
    sample_idx = np.searchsorted(grid, sample_times)
    out = np.empty((sample_times.size, psi0.size), dtype=complex)
    psi = psi0.astype(complex)
    prev = 0
    for k, idx in enumerate(sample_idx):
        if idx > prev:
            psi = _ordered_product(steps[prev:idx]) @ psi
            prev = idx
        out[k] = psi
    return out


def _evolve_states(drive, psi0: np.ndarray, sample_times: np.ndarray,
                   max_step: float) -> np.ndarray:
    return _evolve_on_grid(drive, psi0, sample_times,
                           _step_grid(drive, sample_times, max_step))


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """Product steps[n-1] @ ... @ steps[0] by pairwise reduction."""
    arr = steps
    while arr.shape[0] > 1:
        n = arr.shape[0]
        even = arr[0 : n - n % 2 : 2]
        odd = arr[1 : n : 2]
        merged = np.matmul(odd, even)
        if n % 2:
            merged = np.concatenate([merged, arr[-1:]], axis=0)
        arr = merged
    return arr[0]


def _converge(drive, cfg: IntegratorConfig, sample_times: np.ndarray, on_grid,
              caller: str) -> np.ndarray:
    """on_grid(grid) evaluated on successively halved step grids until two
    successive results differ by less than cfg.tolerance everywhere.

    An all-constant drive is exact on its forced nodes, so it is evaluated
    once and not halved.
    """
    total = drive.total_duration
    if _all_constant(drive):
        grid = _step_grid(drive, sample_times, total)
        logger.debug("%s: all segments constant, 1 build of %d steps, no halving",
                     caller, grid.size - 1)
        return on_grid(grid)
    h = cfg.max_step if cfg.max_step is not None else _auto_max_step(drive)
    h = min(h, total)
    grid = _step_grid(drive, sample_times, h)
    steps = [grid.size - 1]
    coarse = on_grid(grid)
    residual = np.inf
    for _ in range(cfg.max_halvings):
        h /= 2
        grid = _step_grid(drive, sample_times, h)
        steps.append(grid.size - 1)
        fine = on_grid(grid)
        residual = float(np.max(np.abs(fine - coarse))) if fine.size else 0.0
        if residual < cfg.tolerance:
            logger.debug("%s: %d builds, steps per build %s, residual %.3e",
                         caller, len(steps), steps, residual)
            return fine
        coarse = fine
    logger.debug("%s: no convergence, %d builds, steps per build %s, residual %.3e",
                 caller, len(steps), steps, residual)
    raise IntegratorError(
        f"no convergence after {cfg.max_halvings} halvings (residual {residual:.3e})",
        residual)


def propagate(drive: MultiLevelDrive, psi0: StateVector, cfg: IntegratorConfig,
              sample_times: Sequence[float]) -> Trajectory:
    """Evolve psi0 under the drive, sampling the state at the given times.

    Accepts the result only when halving the step changes every sampled
    amplitude by less than cfg.tolerance; raises IntegratorError otherwise.
    """
    if psi0.dim != drive.dim:
        raise DimensionError(f"state dim {psi0.dim} != drive dim {drive.dim}")
    total = drive.total_duration
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        times = np.array([total])
    if np.any(np.diff(times) < 0):
        raise ScheduleError("sample_times must be non-decreasing")
    if times.min() < 0 or times.max() > total * (1 + 1e-12) + 1e-15:
        raise ScheduleError(f"sample_times outside [0, {total}]")
    times = np.clip(times, 0.0, total)
    states = _converge(drive, cfg, times,
                       lambda grid: _evolve_on_grid(drive, psi0.amps, times, grid),
                       "propagate")
    return Trajectory(times=times, states=states)


def propagator(drive: MultiLevelDrive, cfg: IntegratorConfig) -> Unitary:
    """Total evolution operator of the drive, the ordered product of its step
    unitaries; accepted like propagate's states, then re-unitarized."""
    if drive.total_duration == 0:
        return Unitary(np.eye(drive.dim))
    no_samples = np.array([], dtype=float)
    u = _converge(drive, cfg, no_samples,
                  lambda grid: _ordered_product(_step_unitaries(drive, grid)),
                  "propagator")
    return Unitary(_reunitarize(u))


def _reunitarize(u: np.ndarray) -> np.ndarray:
    """Polar projection removing accumulated rounding (no-op at working precision)."""
    w, s, vh = np.linalg.svd(u)
    return w @ vh


def eigen_scan(omega: float, delta_over_omega: Sequence[float], d: int):
    """Eigenvalues and real-gauge eigenvectors of the static chi = 0 Hamiltonian
    H = (omega/sqrt(2)) Jx + (x * omega / 2) Jz for each ratio x = delta/omega.

    omega is the per-field three-level Rabi frequency (Omega_half = omega/sqrt(2),
    delta_half = x * omega / 2).  Eigenvalues are sorted ascending at the first
    point; along the scan, track identity is restored by overlap matching so the
    eigenvectors vary continuously through crossings.
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    ops = angular_momentum_ops(d)
    jx = np.real(ops.jx)
    jz = np.real(ops.jz)
    results = []
    prev_vecs = None
    for x in np.asarray(delta_over_omega, dtype=float):
        hmat = (omega / np.sqrt(2.0)) * jx + (x * omega / 2.0) * jz
        w, v = np.linalg.eigh(hmat)
        if prev_vecs is not None:
            overlap = np.abs(prev_vecs.T @ v)
            order = np.full(d, -1, dtype=int)
            taken = np.zeros(d, dtype=bool)
            for _ in range(d):
                i, jcol = np.unravel_index(np.argmax(overlap), overlap.shape)
                order[i] = jcol
                overlap[i, :] = -1
                overlap[:, jcol] = -1
                taken[jcol] = True
            w, v = w[order], v[:, order]
        # real gauge with continuous sign
        for k in range(d):
            ref = prev_vecs[:, k] if prev_vecs is not None else None
            sgn = np.sign(ref @ v[:, k]) if ref is not None else np.sign(
                v[np.argmax(np.abs(v[:, k])), k])
            if sgn != 0:
                v[:, k] = sgn * v[:, k]
        prev_vecs = v
        results.append((w.copy(), v.copy()))
    return results
