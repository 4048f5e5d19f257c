"""Angular-momentum algebra, canonical states and the SU(2) -> spin-j lift.

Basis convention (used everywhere in this package): a d-level system is a
spin j = (d-1)/2, and basis index i corresponds to the magnetic quantum
number m = -j + i, i.e. m runs from -j to +j as the index increases.  For
d = 3 the ordering is (|-1>, |0>, |+1>), for d = 2 it is (|down>, |up>).
With this ordering Jz = diag(-j, ..., +j) and the rotating-frame Hamiltonian

    H = Omega_half * cos(chi) * Jx + Omega_half * sin(chi) * Jy
        + delta_half * Jz

has e^{+i chi} on the upper off-diagonals, matching the two-field dressing
Hamiltonian of the three-level system this package models.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = [
    "SpinliftError",
    "DimensionError",
    "NormalizationError",
    "UnknownStateError",
    "StateVector",
    "SpinOperators",
    "Unitary",
    "angular_momentum_ops",
    "rotation_unitary",
    "lift_unitary",
    "lift_matrices",
    "named_state",
    "basis_state",
    "state_fidelity",
    "phase_aligned_deviation",
]

NORM_TOL = 1e-9
UNITARY_TOL = 1e-12


class SpinliftError(Exception):
    """Base of every error spinlift raises on invalid input or failed numerics."""


class DimensionError(SpinliftError, ValueError):
    """Raised for invalid or mismatched Hilbert-space dimensions."""


class NormalizationError(SpinliftError, ValueError):
    """Raised when an amplitude pair / state / axis is not normalized."""


class UnknownStateError(SpinliftError, KeyError):
    """Raised by named_state for labels that do not exist at a given d."""


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitudes over d levels, basis ordered by ascending m."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size < 2:
            raise DimensionError(f"state needs dim >= 2, got {amps.size}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= 1e-12:  # a nan norm fails too
            raise NormalizationError(f"state norm^2 deviates from 1 by {norm_sq - 1.0:.3e}")
        object.__setattr__(self, "amps", _as_readonly(amps))

    @property
    def dim(self) -> int:
        return self.amps.size

    def overlap(self, other: "StateVector") -> complex:
        if self.dim != other.dim:
            raise DimensionError(f"dim mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(other.amps, self.amps))

    def populations(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amps, self.amps.conj())


@dataclass(frozen=True)
class SpinOperators:
    """Jx, Jy, Jz for a spin j = (dim-1)/2, dimensionless (hbar = 1)."""

    dim: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


@dataclass(frozen=True)
class Unitary:
    """A d x d unitary matrix; unitarity is enforced at construction."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"unitary must be square, got shape {mat.shape}")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
        if not dev <= UNITARY_TOL:
            raise NormalizationError(f"matrix is not unitary, max |U^dag U - I| = {dev:.3e}")
        object.__setattr__(self, "mat", _as_readonly(mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __matmul__(self, other):
        if isinstance(other, Unitary):
            return Unitary(self.mat @ other.mat)
        if isinstance(other, StateVector):
            return StateVector(self.mat @ other.amps)
        return NotImplemented


@lru_cache(maxsize=None)
def _jops_cached(d: int):
    j = (d - 1) / 2
    m = -j + np.arange(d)
    # <m+1| J+ |m> = sqrt(j(j+1) - m(m+1))
    cplus = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jplus = np.zeros((d, d), dtype=complex)
    jplus[np.arange(1, d), np.arange(d - 1)] = cplus
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    jz = np.diag(m).astype(complex)
    return tuple(_as_readonly(a) for a in (jx, jy, jz))


def angular_momentum_ops(d: int) -> SpinOperators:
    """Spin-j operators for a d-level system (j = (d-1)/2), ladder construction."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise DimensionError(f"dimension must be an integer >= 2, got {d!r}")
    jx, jy, jz = _jops_cached(int(d))
    return SpinOperators(dim=int(d), jx=jx, jy=jy, jz=jz)


def _expm_hermitian(h: np.ndarray, t) -> np.ndarray:
    """exp(-i t h) for Hermitian h of shape (..., d, d), read from its lower
    triangle; t is a scalar or has one entry per leading index of h.  A 3 x 3
    h takes the closed form of _expm3, any other d a spectral decomposition
    (exactly unitary).  A real symmetric h stays real up to the exponential:
    _expm3 takes it in real arithmetic, and eigh gets real input."""
    t = np.asarray(t, dtype=float)
    if h.shape[-1] == 3:
        return _expm3(h, t)
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w * t.reshape(t.shape + (1,) * (w.ndim - t.ndim)))
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


# Where Q0's largest entry is below this, exp(i Q0) is its Taylor series to
# this order: the first term left out is below 1e-20.
_SERIES_BELOW = 1e-3
_SERIES_ORDER = 6


def _expm3(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i t h) for Hermitian h of shape (..., 3, 3) in closed form, by
    the Cayley-Hamilton theorem (Morningstar & Peardon, Phys. Rev. D 69,
    054501 (2004)).

    The trace comes out as the phase exp(-i t tr(h) / 3), which leaves the
    traceless Q0 = -t (h - tr(h) / 3).  With s the largest |entry| of Q0 and
    Q = Q0 / s, exp(i Q0) = f0 I + f1 Q + f2 Q^2.  The invariants c0 = det Q
    and c1 = tr(Q^2) / 2 are of order one, so nothing overflows or
    underflows.  Q's eigenvalues are 2u, -u + w and -u - w, with
    u = sqrt(c1 / 3) cos(theta / 3), w = sqrt(c1) sin(theta / 3) and
    cos(theta) = |c0| / (2 (c1 / 3)^(3/2)); c0 < 0 is the conjugate problem,
    which flips the sign of u.  The f_j are the paper's at s u and s w,
    rescaled to Q, with sin(s w) / (s w) by its series where s w < 0.05.
    Where s < _SERIES_BELOW (a small c1 of Q0) they come from the Taylor
    series of exp(i s Q) instead, reduced by Q^3 = c1 Q + c0 I.  Apart from
    the result, every array has one entry per matrix.

    A real h (real symmetric, of a float dtype) is taken in real arithmetic
    up to f0, f1 and f2: Q and Q^2 are real, and the result is symmetric,
    so only its diagonal and lower triangle are computed."""
    lead = h.shape[:-2]
    h = h.reshape((-1, 3, 3))
    real = h.dtype.kind == "f"
    t = np.broadcast_to(t.reshape(t.shape + (1,) * (len(lead) - t.ndim)), lead).reshape(-1)
    mean = (h[:, 0, 0].real + h[:, 1, 1].real + h[:, 2, 2].real) / 3.0
    # Q0: diagonal a, b, c and lower triangle x = Q0[1, 0], y = Q0[2, 0], z = Q0[2, 1]
    a, b, c = (-t * (h[:, k, k].real - mean) for k in range(3))
    x, y, z = -t * h[:, 1, 0], -t * h[:, 2, 0], -t * h[:, 2, 1]
    s = np.maximum.reduce([np.abs(a), np.abs(b), np.abs(c), np.abs(x), np.abs(y), np.abs(z)])
    scale = np.where(s > 0.0, s, 1.0)
    a, b, c, x, y, z = a / scale, b / scale, c / scale, x / scale, y / scale, z / scale
    # |x|^2, |y|^2, |z|^2, by real products for a real h
    xx, yy, zz = ((v * v) if real else (v.real**2 + v.imag**2) for v in (x, y, z))
    c1 = 0.5 * (a * a + b * b + c * c) + xx + yy + zz
    c0 = a * b * c + 2.0 * (x * z * y.conj()).real - a * zz - b * yy - c * xx
    # c1 >= 1/2 wherever s > 0; the rows of s = 0 are taken from the series
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.arccos(np.minimum(np.abs(c0) / (2.0 * (c1 / 3.0) ** 1.5), 1.0))
        uh = np.copysign(np.sqrt(c1 / 3.0) * np.cos(theta / 3.0), c0)
        wh = np.sqrt(c1) * np.sin(theta / 3.0)
        w = s * wh
        near = np.minimum(np.abs(w), 0.05) ** 2
        xi = 1.0 - near / 6.0 * (1.0 - near / 20.0 * (1.0 - near / 42.0))
        # s sin(w) / w: the paper's xi0(w), times s
        xi = s * np.divide(np.sin(w), w, out=xi, where=np.abs(w) >= 0.05)
        e1 = np.exp(1j * (s * uh))
        e2, em, cw = e1 * e1, e1.conj(), np.cos(w)
        uu, ww = uh * uh, wh * wh
        den = 9.0 * uu - ww
        f0 = ((uu - ww) * e2 + em * (8.0 * uu * cw + 2j * uh * (3.0 * uu + ww) * xi)) / den
        f1 = (2.0 * uh * e2 - em * (2.0 * uh * cw - 1j * (3.0 * uu - ww) * xi)) / den
        f2 = (e2 - em * (cw + 3j * uh * xi)) / den
    small = s < _SERIES_BELOW
    if np.any(small):
        step, k0, k1 = 1j * s[small], c0[small], c1[small]
        p0, p1, p2 = np.ones_like(step), np.zeros_like(step), np.zeros_like(step)
        for k in range(_SERIES_ORDER, 0, -1):
            # p <- I + (i s / k) Q p, with p = p0 I + p1 Q + p2 Q^2
            p0, p1, p2 = 1.0 + step / k * k0 * p2, step / k * (p0 + k1 * p2), step / k * p1
        f0[small], f1[small], f2[small] = p0, p1, p2
    phase = np.exp(-1j * t * mean)
    f0, f1, f2 = phase * f0, phase * f1, phase * f2
    # Q^2 is Hermitian: its diagonal and its lower triangle, with a + b + c = 0
    q10, q20, q21 = y * z.conj() - c * x, z * x - b * y, y * x.conj() - a * z
    out = np.empty(h.shape, dtype=complex)
    out[:, 0, 0] = f0 + f1 * a + f2 * (a * a + xx + yy)
    out[:, 1, 1] = f0 + f1 * b + f2 * (xx + b * b + zz)
    out[:, 2, 2] = f0 + f1 * c + f2 * (yy + zz + c * c)
    out[:, 1, 0] = f1 * x + f2 * q10
    out[:, 2, 0] = f1 * y + f2 * q20
    out[:, 2, 1] = f1 * z + f2 * q21
    if real:
        out[:, [0, 0, 1], [1, 2, 2]] = out[:, [1, 2, 2], [0, 0, 1]]
    else:
        out[:, 0, 1] = f1 * x.conj() + f2 * q10.conj()
        out[:, 0, 2] = f1 * y.conj() + f2 * q20.conj()
        out[:, 1, 2] = f1 * z.conj() + f2 * q21.conj()
    return out.reshape(lead + (3, 3))


def rotation_unitary(d: int, axis: Iterable[float], angle: float) -> Unitary:
    """exp(-i * angle * (axis . J)) for a unit 3-vector axis."""
    ops = angular_momentum_ops(d)
    axis = np.asarray(axis, dtype=float).reshape(3)
    norm = float(np.linalg.norm(axis))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise NormalizationError(f"rotation axis must be a unit vector, |axis| = {norm:.12f}")
    gen = axis[0] * ops.jx + axis[1] * ops.jy + axis[2] * ops.jz
    return Unitary(_expm_hermitian(gen, angle))


@lru_cache(maxsize=None)
def _lift_basis(d: int):
    """Real eigenvectors of Jx by ascending m, with x_{-m} = (-1)^r x_m exactly so
    that parity zeros are exact, and entry (r, s)'s indices into _signed_powers."""
    _, vecs = np.linalg.eigh(angular_momentum_ops(d).jx.real)
    vecs[:, : d // 2] = (-1.0) ** np.arange(d)[:, None] * vecs[:, : d - 1 - d // 2 : -1]
    r, s = np.indices((d, d))
    return _as_readonly(vecs), _as_readonly(2 * (d - 1) - r - s), _as_readonly(d - 1 + r - s)


def _signed_powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^k for k = -n .. n on the last axis, x^-k = conj(x^k) for |x| = 1."""
    pos = x ** np.arange(n + 1)
    return np.concatenate([pos[..., :0:-1].conj(), pos], axis=-1)


def lift_matrices(a, b, d: int) -> np.ndarray:
    """Spin-j representations of a batch of two-level unitaries
    [[a, -b*], [b, a*]], shape a.shape + (d, d), at any d; nothing is checked.

    D = e^{-i alpha Jz} E e^{-i beta Jx} E* e^{-i gamma Jz} from the ZYZ Euler
    angles (Jy = E Jx E*, E = diag((-i)^r)), with e^{-i beta Jx} = I + sum_k
    (z^(2 m_k) - 1) P_k by the exact diagonalization of Jx (Feng, Wang, Yang &
    Jin, Phys. Rev. E 92, 043307 (2015)) and z = e^{-i beta/2} = (|a| - i|b|)
    / hypot(|a|, |b|).  Entry (r, s) has the side phase u^(d-1-r-s) w^(r-s),
    u = e^{i(alpha+gamma)/2} = a/|a| and w = -i e^{-i(alpha-gamma)/2} = i b/|b|,
    taken as 1 and -i at a zero modulus: the poles need no branch.  The
    identity lifts to I exactly, and the projectors are added in a fixed
    order, so a batch gives each pair the bits it gives alone."""
    vecs, iu, iw = _lift_basis(d)
    a, b = (np.asarray(x, dtype=complex)[..., None] for x in (a, b))
    abs_a, abs_b = np.abs(a), np.abs(b)
    u = np.divide(a, abs_a, out=np.ones_like(a), where=abs_a > 0)
    w = np.divide(1j * b, abs_b, out=np.full_like(b, -1j), where=abs_b > 0)
    z = (abs_a - 1j * abs_b) / np.hypot(abs_a, abs_b)
    shifts = _signed_powers(z, d - 1)[..., ::2] - 1.0
    rot = np.eye(d) + sum(shifts[..., k, None, None] * (vecs[:, k, None] * vecs[:, k])
                          for k in range(d))
    return _signed_powers(u, d - 1)[..., iu] * _signed_powers(w, d - 1)[..., iw] * rot


def lift_unitary(a: complex, b: complex, d: int) -> Unitary:
    """Spin-j representation of [[a, -b*], [b, a*]] at any d, checked, by
    lift_matrices' Euler-angle form.  It is the symmetric-tensor-power
    representation, whose entries are the binomial sums (the tests' reference)

        U_rs = sum_q sqrt(C(r-1,q) C(s-1,q) C(d-r,s-1-q) C(d-s,r-1-q))
               * a^(d+1-r-s+q) (a*)^q b^(r-1-q) (-b*)^(s-1-q)

    with r, s in 1..d and q in max(0, r+s-d-1) .. min(r-1, s-1): at d = 2
    [[a, -b*], [b, a*]] to rounding, at d = 3 the qutrit form with |a|^2 -
    |b|^2 in the centre.  The lift of a product is the product of the lifts."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise DimensionError(f"dimension must be an integer >= 2, got {d!r}")
    a, b = complex(a), complex(b)
    norm_sq = abs(a) ** 2 + abs(b) ** 2
    if not abs(norm_sq - 1.0) <= NORM_TOL:
        raise NormalizationError(f"|a|^2 + |b|^2 deviates from 1 by {norm_sq - 1.0:.3e}")
    return Unitary(lift_matrices(a, b, int(d)))


def basis_state(d: int, index: int) -> StateVector:
    """Basis state at the given index (m = -j + index)."""
    if index < 0 or index >= d:
        raise DimensionError(f"basis index {index} out of range for d={d}")
    amps = np.zeros(d, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


_SQ2 = np.sqrt(2.0)

# Analytic states for d = 3, in (|-1>, |0>, |+1>) order.  |u>, |D>, |d> are
# the Jx eigenstates with eigenvalues +1, 0, -1.
_NAMED_D3 = {
    "-1": np.array([1, 0, 0], dtype=complex),
    "0": np.array([0, 1, 0], dtype=complex),
    "+1": np.array([0, 0, 1], dtype=complex),
    "D": np.array([-1, 0, 1], dtype=complex) / _SQ2,
    "u": np.array([0.5, 1 / _SQ2, 0.5], dtype=complex),
    "d": np.array([0.5, -1 / _SQ2, 0.5], dtype=complex),
}


def named_state(d: int, name: str) -> StateVector:
    """Canonical states by label: '-1', '0', '+1', 'D', 'u', 'd' (d = 3); '0' for any odd d."""
    if d == 3:
        try:
            return StateVector(_NAMED_D3[name])
        except KeyError:
            raise UnknownStateError(f"unknown state label {name!r} for d=3") from None
    if name == "0" and d % 2 == 1:
        return basis_state(d, (d - 1) // 2)
    raise UnknownStateError(f"unknown state label {name!r} for d={d}")


def state_fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<phi|psi>|^2; symmetric, in [0, 1]."""
    return min(1.0, abs(psi.overlap(phi)) ** 2)


def phase_aligned_deviation(a: Unitary | np.ndarray, b: Unitary | np.ndarray) -> float:
    """max-entry deviation between A and B after removing the global phase
    (min over phi of max |e^{i phi} A - B|, with phi from the trace overlap)."""
    am = a.mat if isinstance(a, Unitary) else np.asarray(a)
    bm = b.mat if isinstance(b, Unitary) else np.asarray(b)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch: {am.shape} vs {bm.shape}")
    tr = np.trace(am.conj().T @ bm)
    phase = tr / abs(tr) if abs(tr) > 0 else 1.0
    return float(np.max(np.abs(phase * am - bm)))
