"""Time evolution under lifted drives: SU(2)-first, with a fourth-order
commutator-free Magnus step for every step and constant segments kept whole.

Every drive is a waveforms.MultiLevelDrive, and its gain and shift may be
arrays: a batch of drives on one schedule (the Gauss-Hermite nodes of a
Zeeman average, the areas of a pulse-area sweep) is one drive, built once
per grid on either path, with the batch axes ahead of the d-level ones.
One builder, _cf4_steps, makes the steps of both paths from the drive's
real coefficients (MultiLevelDrive.coefficients), whose first three are
the control vector Lambda of H = Lambda(t) . J.  When drive.su2_covariant
(no Rabi mismatch and no static detuning) the drive is propagated as the
spin-1/2 problem Lambda(t) . S: each step is a closed-form 2x2
exponential, kept as the (a, b) pair of [[a, -b*], [b, a*]].  Only a drive
that breaks the symmetry takes the dense path, a batched d x d exponential
of the Hamiltonian of the coefficients: closed form by the Cayley-Hamilton
theorem for d = 3, spectral for any other d; that path also serves as the
independent reference for the lift.  A chi = 0 schedule has a real
Hamiltonian under every field error, and it stays real up to the
exponential (MultiLevelDrive.hamiltonian_of, spin._expm_hermitian).  The
paths differ only in that exponential and in how steps are composed
(_su2_compose; at d = 3 _compose3, an unrolled 3 x 3 product, and
np.matmul at any other d) and lifted.  Either path's steps go to one
product rule, _products_at: a pairwise reduction for one sample time, or
else one work-efficient running product over the steps up to the last one
(about two composes per step), gives the operators at the sample times,
lifted to d levels once; a palindromic build (below) is multiplied over
its built half only.
propagate, propagator, propagators and _dense_propagator are shells over
one core, _propagation: propagate applies psi0 to the operators, the
others project the last one to a unitary.

Step boundaries are forced at segment boundaries, sample times and the
schedule's breakpoints (a Blackman ramp's corner), so no step straddles a
discontinuity of the controls or of a derivative (composite phases are
handled exactly); a node within 4 ulps (of itself) of the node kept before
it is that node, so no step is a sliver, and a sample is read at the node
at or before it.  These nodes and the constancy of each interval between
them are found once per propagation, and each grid subdivides them in one
vectorized pass, so a densely sampled drive costs no Python work per
sample.  An interval inside a smooth segment (a Blackman sweep) is cut into
steps, each taken with the two-exponential fourth-order commutator-free
Magnus rule (CF4; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009);
Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)) from the controls
at its two Gauss nodes; one inside a constant-control segment is one step
that takes one exponential, its exact propagator.  A palindromic schedule
(ControlSchedule.palindromic: chi = 0 throughout and its own time mirror)
has a real Hamiltonian with H(T - t) = H(t) under every field error, so on
a grid that is its own mirror image within 4 ulps of T the builder takes
only the first ceil(n/2) steps and fills the rest with their transposes in
reverse order; any other schedule or grid builds every step.  The first
step is set by the batch's largest |gain| and |shift|
(DEFAULT_PHASE_PER_STEP), and a result is accepted only once halving the
step changes every requested d-level amplitude of every drive in the batch
by less than the configured tolerance, whichever path built it, within
_MAX_HALVINGS halvings and above the rounding floor; a drive whose
segments are all constant is exact after one build and is not halved.
"""

from __future__ import annotations

import logging
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .spin import (
    DimensionError,
    SpinliftError,
    StateVector,
    Unitary,
    _expm_hermitian,
    angular_momentum_ops,
    lift_matrices,
)
from .waveforms import MultiLevelDrive, ScheduleError

__all__ = [
    "IntegratorError",
    "IntegratorConfig",
    "Trajectory",
    "propagate",
    "propagator",
    "propagators",
    "eigen_scan",
]

# first step: max(Omega, |delta|) * step <= 0.4 rad
DEFAULT_PHASE_PER_STEP = 0.4
_MAX_HALVINGS = 14
# Steps x drives per chunk of a build; its one exponential call takes the
# two CF4 factors of each step.  4096 keeps that call's temporaries near the L2
# cache: of the powers of two from 1024 to 65536 it built SU(2) and dense
# d = 3 steps fastest, within noise, on a Xeon with 2 MB of L2 per core.
_STEP_CHUNK = 4096
# Most steps one build may take: 14x the largest build that the scenarios,
# demos and tests make (18,096).  A dense d = 4 build of 260,577 steps and
# its product take a process to a peak of 0.15 GB resident, as does one of
# 260,576, and to 0.23 GB with 101 sample times, whose scan copies the steps
# once (ru_maxrss, numpy 2.4).
_MAX_BUILD_STEPS = 2**18
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
    """The step-halving tolerance on every requested amplitude."""

    tolerance: float = 1e-9

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along an evolution; populations are |amplitude|^2 and
    p_f1 = 1 - P(m=0 level) (the bright-manifold probability for d = 3).

    states has shape (n_times, d), or (n_times, *batch, d) for a drive
    batch.  Every given state must have unit norm within 1e-9; they are
    stored projected to unit norm, so accumulated rounding never reaches
    StateVector's tighter check."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        norms = np.linalg.norm(states, axis=-1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):  # a nan norm fails too
            raise IntegratorError("trajectory state norm deviates by "
                                  f"{np.max(np.abs(norms - 1.0)):.3e}", 0.0)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states / norms[..., None])

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    @property
    def p_f1(self) -> np.ndarray:
        return 1.0 - self.populations[..., _middle_level(self.dim)]

    def state(self, k: int) -> StateVector:
        self._single_drive("state")
        return StateVector(self.states[k])

    def to_csv(self, path) -> None:
        """Write the populations atomically.  Columns: time_us, p_0 ..
        p_{d-1} (basis index order), p_f1; values as %.12g."""
        self._single_drive("to_csv")
        _write_csv(path, *_population_columns(self.times, self.populations))

    def _single_drive(self, name: str) -> None:
        if self.states.ndim > 2:
            raise DimensionError(f"{name} takes the trajectory of one drive, not of a drive "
                                 f"batch of shape {self.states.shape[1:-1]}")


def _middle_level(d: int) -> int:
    if d % 2 == 0:
        raise DimensionError("p_f1 needs an odd dimension with a middle m=0 level")
    return (d - 1) // 2


def _write_atomic(path, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header: str, columns) -> None:
    """Write equal-length columns atomically under one header line; integer
    columns whole, the others as %.12g, by one format of the whole table:
    the row template repeated once per row, over the cells in row order."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%s" if c.dtype.kind in "biu" else "%.12g" for c in columns)
    n = len(columns[0])
    cells = [None] * (n * len(columns))
    for i, c in enumerate(columns):
        cells[i :: len(columns)] = c.tolist()
    _write_atomic(path, header + "".join(["\n" + fmt] * n) % tuple(cells) + "\n")


def _population_columns(times: np.ndarray, populations: np.ndarray) -> tuple[str, list]:
    """Header and columns of a populations CSV: time_us, p_0 .. p_{d-1}
    (basis index order), p_f1 = 1 - P(m=0 level)."""
    pops = np.asarray(populations)
    d = pops.shape[1]
    header = "time_us," + ",".join(f"p_{k}" for k in range(d)) + ",p_f1"
    return header, [np.asarray(times) * 1e6, *pops.T, 1.0 - pops[:, _middle_level(d)]]


def _auto_max_step(drive: MultiLevelDrive) -> float:
    peak = drive.control_peaks()
    if peak <= 0:
        return max(drive.total_duration, 1e-9)
    return DEFAULT_PHASE_PER_STEP / peak


def _constant_mask(drive: MultiLevelDrive, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Whether each interval [left, right] lies inside one constant-control
    segment: the segment that owns left (ControlSchedule.segment_index) is
    constant and ends at or after right."""
    is_constant = np.array([s.is_constant for s in drive.schedule.segments], dtype=bool)
    if not is_constant.any():
        return np.zeros(np.shape(left), dtype=bool)
    owner = drive.schedule.segment_index(left)
    return is_constant[owner] & (right <= drive.boundaries[owner + 1])


def _forced_nodes(drive: MultiLevelDrive, sample_times: np.ndarray):
    """The nodes that every step grid of a propagation keeps, with whether
    each interval between them lies inside a constant-control segment.

    They are the segment boundaries, the sample times and the schedule's
    breakpoints (a Blackman ramp's corner), so no step straddles a
    discontinuity of the controls or a jump in a derivative, which would
    cost CF4 its fourth order.  One rule merges them: a node within 4 ulps
    (of itself) of the node kept before it is that node, so no step is a
    sliver or straddles a node by more than 4 ulps.  None of this depends on
    the step: _converge makes it once, and each build subdivides it."""
    total = drive.total_duration
    nodes = np.unique(np.concatenate([drive.boundaries, drive.schedule.breakpoints,
                                      sample_times, [0.0, total]]))
    nodes = nodes[(nodes >= 0.0) & (nodes <= total)]
    keep = np.diff(nodes, prepend=-np.inf) > 4 * np.spacing(nodes)
    for i in np.flatnonzero(~keep):  # ascending, so each is held to the last node kept
        keep[i] = nodes[i] - nodes[:i][keep[:i]][-1] > 4 * np.spacing(nodes[i])
    forced = nodes[keep]
    return forced, _constant_mask(drive, forced[:-1], forced[1:])


def _subdivide(forced: np.ndarray, constant: np.ndarray, max_step: float) -> np.ndarray:
    """The step grid on the forced nodes of _forced_nodes.

    Intervals inside smooth segments are subdivided uniformly so every step
    is <= max_step; intervals inside constant segments are kept whole, since
    one exponential is exact there.  Forced nodes are emitted exactly (no
    a + (b-a)*k/n endpoint rounding), so each sample time is read at the
    node at or before it.  All nodes come from one vectorized pass: node k
    of an interval [a, b] cut into n steps is a + (b - a) * k / n, k = 0
    being a itself, and an interior node that does not exceed the node
    before it, or that rounds onto b, is dropped, so no step has zero
    length.  Raises IntegratorError, before allocating, for a grid of more
    than _MAX_BUILD_STEPS steps.
    """
    counts = np.where(constant, 1.0,
                      np.maximum(1.0, np.ceil(np.diff(forced) / max_step - 1e-12)))
    n_steps = float(np.sum(counts))
    if n_steps > _MAX_BUILD_STEPS:
        raise IntegratorError(
            f"a step of {max_step:.3e} s needs {n_steps:.3e} steps per build, more than "
            f"the limit of {_MAX_BUILD_STEPS}", float("nan"))
    counts = counts.astype(np.int64)
    interval = np.repeat(np.arange(counts.size), counts)
    k = np.arange(interval.size) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = forced[interval], forced[interval + 1]
    nodes = a + (b - a) * k / counts[interval]
    keep = (k == 0) | ((np.diff(nodes, prepend=-np.inf) > 0.0) & (nodes < b))
    return np.append(nodes[keep], forced[-1])


def _step_grid(drive: MultiLevelDrive, sample_times: np.ndarray, max_step: float) -> np.ndarray:
    """Time grid with boundaries, sample times and breakpoints as forced
    nodes (_forced_nodes), cut into steps of at most max_step inside smooth
    segments (_subdivide)."""
    return _subdivide(*_forced_nodes(drive, sample_times), max_step)


def _batch_shape(drive) -> tuple:
    """The batch shape of a drive: its gain and shift broadcast together."""
    return np.broadcast(drive.gain, drive.shift).shape


@dataclass(frozen=True)
class _Build:
    """The step propagators of one grid, shape (n_steps, *batch) +
    identity.shape, with their product rule: compose(u, w) is u @ w, lift
    takes products to d-level matrices and transpose transposes them; every
    step from index built on is an earlier one transposed (see _cf4_steps).
    _cf4_steps makes both kinds."""

    steps: np.ndarray
    compose: Callable
    lift: Callable
    identity: np.ndarray
    transpose: Callable
    built: int


def _step_unitaries(drive: MultiLevelDrive, grid: np.ndarray) -> _Build:
    """The steps of _cf4_steps on the drive's path."""
    return _cf4_steps(drive, grid, dense=not drive.su2_covariant)


def _dense_steps(drive: MultiLevelDrive, grid: np.ndarray) -> _Build:
    """The steps of _cf4_steps on the dense path, whatever the drive's symmetry."""
    return _cf4_steps(drive, grid, dense=True)


def _cf4_steps(drive: MultiLevelDrive, grid: np.ndarray, dense: bool) -> _Build:
    """Step propagators over each grid interval: (a, b) pairs of the
    spin-1/2 problem, or d x d matrices with dense=True.  A step inside a
    smooth segment is the CF4 step
    U = exp(-i dt (A1 H1 + A2 H2)) exp(-i dt (A2 H1 + A1 H2)) of H at the
    Gauss nodes, the right-hand factor first; a step inside a constant
    segment (_constant_mask) has H1 = H2 and A1 + A2 = 1/2, and is its one
    exact exponential exp(-i dt H1).  H is linear in the drive's
    coefficients, so each factor is combined from coefficient rows, and a
    chunk of up to _STEP_CHUNK steps x drives takes one exponential call of
    its smooth steps' factors and its constant steps: _su2_exp of Lambda,
    or spin._expm_hermitian of the Hamiltonians, which stay real for a
    chi = 0 schedule (MultiLevelDrive.hamiltonian_of).

    On a palindromic schedule (H(T - t) = H(t), real) over a mirror-symmetric
    grid only the first ceil(n/2) steps are built: the CF4 nodes of the
    mirror of a step are the step's own nodes swapped, with the weights
    swapped too, so its propagator is the step's transpose, and the last
    floor(n/2) steps are the first ones transposed, in reverse order."""
    d = drive.dim
    if dense:
        def exponential(c, dts):
            return _expm_hermitian(drive.hamiltonian_of(c), dts)

        def transpose(u):
            return u.swapaxes(-1, -2)

        compose = _compose3 if d == 3 else np.matmul
        lift, identity = (lambda u: u), np.eye(d, dtype=complex)
    else:
        def exponential(c, dts):
            return _su2_exp(c[..., :3], dts)

        def transpose(ab):  # [[a, -b*], [b, a*]] transposed
            return np.stack([ab[..., 0], -ab[..., 1].conj()], axis=-1)

        def lift(ab):
            return lift_matrices(ab[..., 0], ab[..., 1], d)

        compose, identity = _su2_compose, np.array([1.0, 0.0], dtype=complex)
    n = grid.size - 1
    built = -(-n // 2) if drive.schedule.palindromic and _mirror_symmetric(grid) else n
    starts, ends = grid[:built], grid[1 : built + 1]
    dts, constant = ends - starts, _constant_mask(drive, starts, ends)
    # slices (no copies) where the steps are all smooth or all constant, masks where they mix
    kinds = ((slice(0), slice(None)) if constant.all() else
             None if constant.any() else (slice(None), slice(0)))
    batch = _batch_shape(drive)
    out = np.empty((n,) + batch + identity.shape, dtype=complex)
    chunk_steps = max(1, _STEP_CHUNK // max(1, math.prod(batch)))
    a1, a2 = _CF4_WEIGHTS
    for lo in range(0, built, chunk_steps):
        t, dt = starts[lo : lo + chunk_steps], dts[lo : lo + chunk_steps]
        # both Gauss nodes in one call: its fixed cost dominates short grids
        nodes = np.concatenate([t + c * dt for c in _GAUSS_NODES])
        g1, g2 = np.split(drive.coefficients(nodes), 2)
        const = constant[lo : lo + chunk_steps]
        smooth, flat = kinds or (~const, const)
        s1, s2, m = g1[smooth], g2[smooth], dt[smooth].size
        # the smooth steps' factors, the one that acts first ahead, then the
        # constant steps, whose coefficients are the same at both nodes
        rows = np.concatenate([a2 * s1 + a1 * s2, a1 * s1 + a2 * s2, g1[flat]])
        units = exponential(rows, np.concatenate([dt[smooth], dt[smooth], dt[flat]]))
        block = out[lo : lo + dt.size]
        if m:
            block[smooth] = compose(units[m : 2 * m], units[:m])
        block[flat] = units[2 * m :]
    if built < n:
        out[built:] = transpose(out[n - built - 1 :: -1])
    return _Build(out, compose, lift, identity, transpose, built)


def _mirror_symmetric(grid: np.ndarray) -> bool:
    """Whether the grid on [0, T] is its own mirror image T - grid, node
    for node within 4 ulps of T."""
    total = grid[-1]
    return bool(np.all(np.abs(grid + grid[::-1] - total) <= 4 * np.spacing(total)))


# Fewest matrices for which _compose3 beats np.matmul: below it, the fixed
# cost of its five ufunc calls dominates.
_COMPOSE3_MIN = 48
# Matrices per block of _compose3.  It bounds the temporary (37 kB) and the
# buffers numpy's iterator takes for the broadcast products (about 75 kB).
_COMPOSE3_BLOCK = 256


def _compose3(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The product u @ w of stacks of 3 x 3 complex matrices, as the sum
    over k of column k of u times row k of w: three broadcast
    multiply-adds into one preallocated output, about 2x faster than
    np.matmul's stacked complex products from about _COMPOSE3_MIN matrices
    on, and np.matmul itself below that.  Any strides and broadcasts are
    read as they are; the first leading axis is taken in blocks of about
    _COMPOSE3_BLOCK matrices, so the temporaries stay a block's size."""
    if u.shape != w.shape:
        shape = np.broadcast_shapes(u.shape, w.shape)
        u, w = np.broadcast_to(u, shape), np.broadcast_to(w, shape)
    if u.size < 9 * _COMPOSE3_MIN:
        return np.matmul(u, w)
    rows = max(1, _COMPOSE3_BLOCK // math.prod(u.shape[1:-2]))
    out = np.empty(u.shape, dtype=complex)
    tmp = np.empty((min(rows, u.shape[0]),) + u.shape[1:], dtype=complex)
    for lo in range(0, u.shape[0], rows):
        o, a, b = out[lo : lo + rows], u[lo : lo + rows], w[lo : lo + rows]
        t = tmp[: o.shape[0]]
        np.multiply(a[..., 0:1], b[..., 0:1, :], out=o)
        np.multiply(a[..., 1:2], b[..., 1:2, :], out=t)
        o += t
        np.multiply(a[..., 2:3], b[..., 2:3, :], out=t)
        o += t
    return out


def _su2_exp(v: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """exp(-i dt v . sigma / 2) for control vectors v of shape (n, ..., 3),
    with one dt per leading index, as (a, b) pairs on the last axis, in
    closed form: cos(theta) I - i (sin(theta) / |v|) v . sigma, theta =
    |v| dt / 2.  m ascends, so sigma_z = diag(-1, +1) and sigma_y[1, 0] = -i;
    hence a = cos(theta) + i s v_z and b = -s (v_y + i v_x) with
    s = sin(theta)/|v| (any finite s serves where v = 0).  Where the plain
    norm may have overflowed or underflowed, |v| is taken on v scaled by its
    largest |v_i|, as np.hypot does, so the step holds across the float range."""
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    with np.errstate(over="ignore"):
        norm = np.sqrt(vx * vx + vy * vy + vz * vz)
    outside = ~((norm > 1e-140) & (norm < 1e140))
    if np.any(outside):
        w = v[outside]
        big = np.max(np.abs(w), axis=-1)
        scaled = w / np.where(big > 0.0, big, 1.0)[:, None]
        norm[outside] = big * np.sqrt(np.sum(scaled * scaled, axis=-1))
    theta = norm * dts.reshape(dts.shape + (1,) * (norm.ndim - 1)) / 2.0
    s = np.sin(theta) / np.where(norm > 0.0, norm, 1.0)
    out = np.empty(theta.shape + (2,), dtype=complex)
    out[..., 0] = np.cos(theta) + 1j * s * vz
    out[..., 1] = -s * (vy + 1j * vx)
    return out


def _su2_compose(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The product u @ w of (a, b) pairs on the last axis."""
    a1, b1, a2, b2 = u[..., 0], u[..., 1], w[..., 0], w[..., 1]
    out = np.empty(np.broadcast(a1, a2).shape + (2,), dtype=complex)
    out[..., 0] = a1 * a2 - b1.conj() * b2
    out[..., 1] = b1 * a2 + a1.conj() * b2
    return out


def _pairwise_product(arr: np.ndarray, compose) -> np.ndarray:
    """compose-product arr[n-1] ... arr[0] over the first axis by pairwise
    reduction.  The last factor of a level of odd length is multiplied into
    the last merged pair in place, so no level is copied."""
    while arr.shape[0] > 1:
        n = arr.shape[0]
        merged = compose(arr[1::2], arr[0 : n - 1 : 2])
        if n % 2:
            merged[-1] = compose(arr[-1], merged[-1])
        arr = merged
    return arr[0]


def _running_product(arr: np.ndarray, compose) -> np.ndarray:
    """The inclusive running product arr[i] ... arr[0] at every i, in place
    and work-efficient (Blelloch, CMU-CS-90-190, 1990): compose adjacent
    pairs, take the running product of the pair products, which is the
    result at every odd i, then fill in each even i >= 2 from the odd one
    before it; about 2 n composes in all."""
    n = arr.shape[0]
    if n > 1:
        odd = _running_product(compose(arr[1::2], arr[0 : n - 1 : 2]), compose)
        arr[2::2] = compose(arr[2::2], odd[: (n - 1) // 2])
        arr[1::2] = odd
    return arr


def _products_at(build: _Build, idx: np.ndarray) -> np.ndarray:
    """The d-level ordered products P_i = steps[i-1] @ ... @ steps[0] at
    each i of the non-decreasing step indices idx, shape
    (idx.size, *batch, d, d); an index of 0 gives the identity.

    A single index i > 0 takes the pairwise reduction of steps[:i], read
    from the step array itself.  Any other idx copies the steps up to its
    last index behind a leading identity and takes their work-efficient
    running product in place (_running_product, about 2 composes per step);
    the prefixes at idx are lifted to d levels once.

    When the build filled its steps from index built on as the first
    h = n - built transposed (a palindromic build), only the built steps
    are multiplied: P_n = P_h^T P_built, and for i > built
    P_i = conj(P_{n-i}) P_n, since the steps after i multiply to
    P_{n-i}^T and the conjugate of a unitary is its transpose's inverse
    (on the SU(2) path the conjugate of (a, b) is (a*, b*))."""
    steps, compose, built = build.steps, build.compose, build.built
    n, last = steps.shape[0], idx[-1]
    if idx.size == 1 and 0 < last <= built:
        return build.lift(_pairwise_product(steps[:last], compose)[None])
    if idx.size == 1 and built < last == n:
        half = _pairwise_product(steps[: n - built], compose)
        middle = compose(steps[n - built], half) if built > n - built else half
        return build.lift(compose(build.transpose(half), middle)[None])
    scan = min(last, built)
    prefix = np.empty((scan + 1,) + steps.shape[1:], dtype=complex)
    prefix[0] = build.identity
    prefix[1:] = steps[:scan]
    prefix = _running_product(prefix, compose)
    if last <= built:
        return build.lift(prefix[idx])
    total = compose(build.transpose(prefix[n - built]), prefix[built])
    split = np.searchsorted(idx, built, side="right")
    ops = np.empty((idx.size,) + steps.shape[1:], dtype=complex)
    ops[:split] = prefix[idx[:split]]
    ops[split:] = compose(prefix[n - idx[split:]].conj(), total)
    return build.lift(ops)


def _converge(drive, cfg: IntegratorConfig, sample_times: np.ndarray, on_grid,
              caller: str, path: str) -> np.ndarray:
    """on_grid(grid) evaluated on successively halved step grids, from the
    drive's _auto_max_step, until two successive results differ by less than
    cfg.tolerance everywhere; IntegratorError after _MAX_HALVINGS halvings,
    or at the rounding floor: a residual below one ulp per step that a
    halving failed to cut by 2 (CF4 cuts it by 16) is rounding.  The forced
    nodes and their intervals' constancy are made once (_forced_nodes), and
    each grid subdivides them (_subdivide).

    An all-constant drive is exact on its forced nodes, so it is evaluated
    once and not halved.
    """
    total = drive.total_duration
    forced = _forced_nodes(drive, sample_times)
    if all(s.is_constant for s in drive.schedule.segments):
        grid = _subdivide(*forced, total)
        logger.debug("%s: path %s, all segments constant, 1 build of %d steps, no halving",
                     caller, path, grid.size - 1)
        return on_grid(grid)
    h = min(_auto_max_step(drive), total)
    grid = _subdivide(*forced, h)
    steps = [grid.size - 1]
    coarse = on_grid(grid)
    residual, reason = np.inf, f"after {_MAX_HALVINGS} halvings"
    for _ in range(_MAX_HALVINGS):
        h /= 2
        grid = _subdivide(*forced, h)
        steps.append(grid.size - 1)
        fine = on_grid(grid)
        last, residual = residual, (float(np.max(np.abs(fine - coarse))) if fine.size else 0.0)
        if residual < cfg.tolerance:
            logger.debug("%s: path %s, %d builds, steps per build %s, residual %.3e",
                         caller, path, len(steps), steps, residual)
            return fine
        if residual < steps[-1] * np.finfo(float).eps and 2.0 * residual > last:
            reason = "at the rounding floor"
            break
        coarse = fine
    logger.debug("%s: path %s, no convergence %s, %d builds, steps per build %s, residual %.3e",
                 caller, path, reason, len(steps), steps, residual)
    raise IntegratorError(f"no convergence {reason} (residual {residual:.3e})", residual)


def _propagation(drive, cfg: IntegratorConfig, caller: str, psi0=None, times=None,
                 dense: bool = False) -> np.ndarray:
    """The propagation core: on each grid, the operators at the sample times,
    each at the node at or before it, by _products_at.  Given psi0 and the
    sample times, the drive's states, shape (n_times, *batch, d); otherwise
    its re-unitarized propagators, shape (*batch, d, d), which dense=True
    builds on the dense path whatever the drive's symmetry."""
    if psi0 is None:
        times = np.array([drive.total_duration])

    def on_grid(grid):
        build = _dense_steps(drive, grid) if dense else _step_unitaries(drive, grid)
        ops = _products_at(build, np.searchsorted(grid, times, side="right") - 1)
        return ops[-1] if psi0 is None else ops @ psi0

    result = _converge(drive, cfg, times, on_grid, caller,
                       "su2" if drive.su2_covariant and not dense else "dense")
    if psi0 is not None:
        return result
    w, _, vh = np.linalg.svd(result)  # polar projection: removes accumulated rounding
    return w @ vh


def propagate(drive: MultiLevelDrive, psi0: StateVector, cfg: IntegratorConfig,
              sample_times: Sequence[float]) -> Trajectory:
    """Evolve psi0 under the drive, sampling the state at the given times;
    a drive batch gives one state per drive at each time.

    Accepts the result only when halving the step changes every sampled
    amplitude by less than cfg.tolerance; raises IntegratorError otherwise.
    """
    if psi0.dim != drive.dim:
        raise DimensionError(f"state dim {psi0.dim} != drive dim {drive.dim}")
    total = drive.total_duration
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        times = np.array([total])
    if not np.all(np.isfinite(times)):
        raise ScheduleError("sample_times must be finite")
    if np.any(np.diff(times) < 0):
        raise ScheduleError("sample_times must be non-decreasing")
    if times.min() < 0 or times.max() > total * (1 + 1e-12) + 1e-15:
        raise ScheduleError(f"sample_times outside [0, {total}]")
    times = np.clip(times, 0.0, total)
    return Trajectory(times=times,
                      states=_propagation(drive, cfg, "propagate", psi0.amps, times))


def propagator(drive: MultiLevelDrive, cfg: IntegratorConfig) -> Unitary:
    """Total evolution operator of one drive, the ordered product of its step
    unitaries; accepted like propagate's states, then re-unitarized."""
    if _batch_shape(drive):
        raise ScheduleError("propagator takes one drive; pass a drive batch to propagators")
    return Unitary(_propagation(drive, cfg, "propagator"))


def _dense_propagator(drive: MultiLevelDrive, cfg: IntegratorConfig) -> Unitary:
    """propagator on the dense d-level path whatever the drive's symmetry:
    the side of the SU(2) lift that does not use the lift."""
    return Unitary(_propagation(drive, cfg, "propagator", dense=True))


def propagators(drive: MultiLevelDrive, cfg: IntegratorConfig) -> list[Unitary]:
    """Propagators of a drive batch (a drive whose gain or shift is an
    array), in C order.  The batch is built once per grid, and a halving is
    accepted only when every drive's propagator moved by less than
    cfg.tolerance."""
    mats = _propagation(drive, cfg, "propagators")
    return [Unitary(u) for u in mats.reshape((-1,) + mats.shape[-2:])]


def eigen_scan(omega: float, delta_over_omega: Sequence[float], d: int):
    """Eigenvalues and real-gauge eigenvectors of the static chi = 0 Hamiltonian
    H = (omega/sqrt(2)) Jx + (x * omega / 2) Jz for each ratio x = delta/omega.

    omega is the per-field three-level Rabi frequency (Omega_half = omega/sqrt(2),
    delta_half = x * omega / 2).  By the lift this is closed-form:
    H = |Lambda| (sin theta Jx + cos theta Jz) with |Lambda| the norm of
    (Omega_half, delta_half) and theta = atan2(Omega_half, delta_half), so the
    eigenvalues are m |Lambda| for m = -j .. j, ascending, and the
    eigenvectors are the columns of the spin-j lift of the two-level rotation
    about y by theta.  theta moves continuously in (0, pi) along the scan,
    and so do the eigenvectors.
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    m = np.diag(angular_momentum_ops(d).jz).real
    omega_half = omega / np.sqrt(2.0)
    delta_half = np.asarray(delta_over_omega, dtype=float) * omega / 2.0
    theta = np.arctan2(omega_half, delta_half)
    vecs = lift_matrices(np.cos(theta / 2.0), -np.sin(theta / 2.0), d).real
    return list(zip(np.multiply.outer(np.hypot(omega_half, delta_half), m), vecs))
