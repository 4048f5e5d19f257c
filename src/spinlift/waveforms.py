"""Two-level control schedules and their lift to d-level drives.

A schedule is a continuous-time description of the effective two-level
control vector (Omega_half(t), chi(t), delta_half(t)); no sample grid is
baked in, the integrator picks its own.  It is a sequence of two segment
kinds: ConstantSegment (a resonant rotation, a protection or dark-state
hold, or any fixed control vector) and BlackmanTransferSegment (one leg of
the adiabatic transfer).  MultiLevelDrive lifts a schedule to d levels and
adds the field errors; its su2_covariant says whether the result is still
a lifted control vector.  Physical three-level field values follow the
dressing convention: per-field Rabi frequency
Omega(t) = sqrt(2) * Omega_half(t), field phases +/- chi(t), and the
field-detuning bookkeeping value delta(t) = 2 * delta_half(t).

All frequencies are angular (rad/s) in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .spin import DimensionError, SpinliftError, angular_momentum_ops

__all__ = [
    "ScheduleError",
    "blackman_detuning",
    "blackman_rabi",
    "lab_frame_chirp",
    "ConstantSegment",
    "BlackmanTransferSegment",
    "ControlSchedule",
    "AdiabaticParams",
    "CompositeSequence",
    "bb1_sequence",
    "adiabatic_method",
    "composite_method",
    "square_pulse",
    "MultiLevelDrive",
    "lift_schedule",
]

TWO_PI = 2.0 * np.pi


class ScheduleError(SpinliftError, ValueError):
    """Raised for invalid schedule parameters or out-of-domain sampling."""


# ---------------------------------------------------------------------------
# Blackman amplitude / chirp profiles
# ---------------------------------------------------------------------------

def blackman_detuning(t, delta0: float, t_delta: float):
    """Blackman detuning chirp from delta0 down to 0 over the chirp time t_delta.

    delta(t) = (delta0/50) * (21 + 25 cos(pi t / t_delta) + 4 cos(2 pi t / t_delta))
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > t_delta):
        raise ScheduleError(f"detuning chirp sampled outside [0, {t_delta}]")
    x = np.pi * t / t_delta
    out = delta0 / 50.0 * (21.0 + 25.0 * np.cos(x) + 4.0 * np.cos(2 * x))
    return out if out.ndim else float(out)


def blackman_rabi(t, omega0: float, t_omega: float):
    """Blackman amplitude ramp from 0 up to omega0, then constant at omega0.

    Omega(t) = (omega0/50) * (29 - 25 cos(pi t / t_omega) - 4 cos(2 pi t / t_omega))
    for t <= t_omega; Omega = omega0 afterwards.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ScheduleError("amplitude ramp sampled at negative time")
    tc = np.minimum(t, t_omega)
    x = np.pi * tc / t_omega
    out = omega0 / 50.0 * (29.0 - 25.0 * np.cos(x) - 4.0 * np.cos(2 * x))
    return out if out.ndim else float(out)


def lab_frame_chirp(t, delta0: float, t_delta: float):
    """Lab-frame frequency offset profile whose instantaneous detuning is the
    Blackman chirp: Delta(t) = (1/t) * integral_0^t delta(tau) dtau.

    Defined for 0 < t <= t_delta, with t -> 0+ limit delta0.  Satisfies
    d(Delta(t) * t)/dt = delta(t).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0) or np.any(t > t_delta):
        raise ScheduleError(f"lab-frame chirp defined on (0, {t_delta}]")
    x = np.pi * t / t_delta
    out = delta0 / (50.0 * t) * (
        21.0 * t + (t_delta / np.pi) * (25.0 * np.sin(x) + 2.0 * np.sin(2 * x))
    )
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Schedule segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantSegment:
    """Constant-control segment (Omega_half, chi, delta_half fixed): a
    resonant rotation, a hold, or any other fixed control vector."""

    duration: float
    omega_half: float
    chi: float = 0.0
    delta_half: float = 0.0

    is_constant = True
    breakpoints = ()

    def __post_init__(self):
        if not np.all(np.isfinite([self.duration, self.omega_half, self.chi, self.delta_half])):
            raise ScheduleError(f"segment fields must be finite, got {self}")
        if self.duration < 0:
            raise ScheduleError(f"duration must be >= 0, got {self.duration}")
        if self.omega_half < 0:
            raise ScheduleError(f"omega_half must be >= 0, got {self.omega_half}")

    def mirrored(self) -> "ConstantSegment":
        """The segment's time mirror: itself."""
        return self

    def controls(self, t):
        t = np.asarray(t, dtype=float)
        return (np.full(t.shape, self.omega_half),
                np.full(t.shape, self.chi),
                np.full(t.shape, self.delta_half))


@dataclass(frozen=True)
class BlackmanTransferSegment:
    """One leg of the adiabatic transfer: Blackman amplitude ramp inside a
    Blackman detuning chirp (chi = 0).  reverse=True time-mirrors the leg,
    and mirrored() is the leg with reverse flipped."""

    omega0: float
    delta0: float
    t_omega: float
    t_delta: float
    reverse: bool = False

    is_constant = False
    chi = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.omega0, self.delta0, self.t_omega, self.t_delta])):
            raise ScheduleError(f"leg parameters must be finite, got {self}")
        if not (0 < self.t_omega <= self.t_delta):
            raise ScheduleError(
                f"need 0 < t_omega <= t_delta, got t_omega={self.t_omega}, t_delta={self.t_delta}")
        if self.omega0 <= 0 or self.delta0 <= 0:
            raise ScheduleError("omega0 and delta0 must be > 0")

    @property
    def duration(self) -> float:
        return self.t_delta

    @property
    def breakpoints(self) -> tuple:
        """The ramp's corner, where the second derivative of Omega jumps:
        t_omega into a forward leg, t_delta - t_omega into a reverse one;
        none when the ramp fills the leg."""
        if self.t_omega == self.t_delta:
            return ()
        return (self.t_delta - self.t_omega if self.reverse else self.t_omega,)

    def mirrored(self) -> "BlackmanTransferSegment":
        """The time-mirrored leg: controls(t_delta - t) at time t."""
        return replace(self, reverse=not self.reverse)

    def controls(self, t):
        t = np.asarray(t, dtype=float)
        tt = self.t_delta - t if self.reverse else t
        tt = np.clip(tt, 0.0, self.t_delta)  # guard rounding at the edges
        omega_half = blackman_rabi(tt, self.omega0, self.t_omega) / np.sqrt(2.0)
        chi = np.zeros(t.shape)
        delta_half = blackman_detuning(tt, self.delta0, self.t_delta) / 2.0
        return omega_half, chi, delta_half


# ---------------------------------------------------------------------------
# ControlSchedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ControlSchedule:
    """Ordered list of segments; the first segment is applied first in time.

    controls(t) samples (Omega_half, chi, delta_half) for any t in
    [0, total_duration]; a time exactly on a boundary belongs to the later
    segment (the final boundary belongs to the last segment).  The schedule
    is frozen, so total_duration, boundaries (the cumulative segment
    boundaries including 0 and total_duration) and breakpoints (each
    segment's interior breakpoints, where a derivative of its controls
    jumps, at schedule time) are computed once, as read-only arrays, and so
    is palindromic: every segment has chi == 0 and the schedule is its own
    time mirror (mirrored() == self).  The controls of such a schedule are
    real and even about its midpoint, so under any of MultiLevelDrive's
    field errors H(T - t) = H(t) is real and the second half's propagator
    is the transpose of the first's.
    """

    segments: tuple

    def __init__(self, segments: Sequence):
        segments = tuple(segments)
        durs = [s.duration for s in segments]
        boundaries = np.concatenate([[0.0], np.cumsum(np.array(durs, dtype=float))])
        breakpoints = np.array([b + t for b, s in zip(boundaries, segments)
                                for t in s.breakpoints], dtype=float)
        boundaries.setflags(write=False)
        breakpoints.setflags(write=False)
        palindromic = (all(s.chi == 0 for s in segments)
                       and tuple(s.mirrored() for s in reversed(segments)) == segments)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "palindromic", palindromic)
        object.__setattr__(self, "total_duration", float(sum(durs)))
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "breakpoints", breakpoints)

    def controls(self, t):
        """Sample (Omega_half(t), chi(t), delta_half(t)) at scalar or array t."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        total = self.total_duration
        if t_arr.size and (t_arr.min() < -1e-15 or t_arr.max() > total * (1 + 1e-12) + 1e-15):
            raise ScheduleError(
                f"sample time outside [0, {total}]: range [{t_arr.min()}, {t_arr.max()}]")
        if not self.segments:
            zeros = np.zeros(t_arr.shape)
            out = (zeros, zeros.copy(), zeros.copy())
        else:
            bounds = self.boundaries
            idx = np.searchsorted(bounds, t_arr, side="right") - 1
            idx = np.clip(idx, 0, len(self.segments) - 1)
            omega = np.empty(t_arr.shape)
            chi = np.empty(t_arr.shape)
            delta = np.empty(t_arr.shape)
            for k in range(len(self.segments)):
                sel = idx == k
                if not np.any(sel):
                    continue
                local = np.clip(t_arr[sel] - bounds[k], 0.0, self.segments[k].duration)
                o, c, dl = self.segments[k].controls(local)
                omega[sel], chi[sel], delta[sel] = o, c, dl
            out = (omega, chi, delta)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return tuple(float(x[0]) for x in out)
        return out

    def mirrored(self) -> "ControlSchedule":
        """The time mirror: the segments in reverse order, each mirrored."""
        return ControlSchedule(s.mirrored() for s in reversed(self.segments))

    def __eq__(self, other):
        return isinstance(other, ControlSchedule) and self.segments == other.segments


# ---------------------------------------------------------------------------
# Adiabatic method
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdiabaticParams:
    """Parameters for the Blackman chirped transfer.

    omega0: peak per-field three-level Rabi frequency (rad/s)
    delta0: initial three-level detuning (rad/s)
    t_omega / t_delta: amplitude ramp and detuning chirp times (s)
    t_hold: time spent holding the dark state between legs (s)
    direction: "forward" | "reverse" | "round-trip"
    """

    omega0: float
    delta0: float
    t_omega: float
    t_delta: float
    t_hold: float = 0.0
    direction: str = "round-trip"

    def __post_init__(self):
        if not np.all(np.isfinite([self.omega0, self.delta0, self.t_omega, self.t_delta,
                                   self.t_hold])):
            raise ScheduleError(f"transfer parameters must be finite, got {self}")
        if not (0 < self.t_omega <= self.t_delta):
            raise ScheduleError(
                f"need 0 < t_omega <= t_delta, got {self.t_omega}, {self.t_delta}")
        if self.omega0 <= 0 or self.delta0 <= 0:
            raise ScheduleError("omega0 and delta0 must be > 0")
        if self.t_hold < 0:
            raise ScheduleError(f"t_hold must be >= 0, got {self.t_hold}")
        if self.direction not in ("forward", "reverse", "round-trip"):
            raise ScheduleError(f"unknown direction {self.direction!r}")


def adiabatic_method(p: AdiabaticParams) -> ControlSchedule:
    """Chirped-Blackman transfer schedule: forward leg ramps the field on
    while chirping the detuning to zero (|0> -> |D>); the reverse leg is the
    time mirror; round-trip is forward + hold + reverse.  The hold is the
    resonant field at the peak Rabi frequency, chi = 0."""
    fwd = BlackmanTransferSegment(p.omega0, p.delta0, p.t_omega, p.t_delta)
    rev = BlackmanTransferSegment(p.omega0, p.delta0, p.t_omega, p.t_delta, reverse=True)
    hold = ConstantSegment(p.t_hold, p.omega0 / np.sqrt(2.0))
    if p.direction == "forward":
        segs = [fwd] if p.t_hold == 0 else [fwd, hold]
    elif p.direction == "reverse":
        segs = [rev]
    else:
        segs = [fwd, hold, rev] if p.t_hold > 0 else [fwd, rev]
    return ControlSchedule(segs)


# ---------------------------------------------------------------------------
# Composite method
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositeSequence:
    """Ordered resonant rotations (theta_R, phi_R); first entry is applied
    first in time (note: written as an operator product they compose
    right-to-left)."""

    rotations: tuple

    def __init__(self, rotations: Sequence):
        rots = tuple((float(th), float(ph)) for th, ph in rotations)
        for th, ph in rots:
            if not (np.isfinite(th) and np.isfinite(ph)):
                raise ScheduleError(f"rotation (theta, phi) must be finite, got ({th}, {ph})")
            if th < 0:
                raise ScheduleError(f"rotation angle must be >= 0, got {th}")
        object.__setattr__(self, "rotations", rots)

    def inverse(self) -> "CompositeSequence":
        """The exact inverse sequence: reversed order, phases shifted by pi."""
        return CompositeSequence([(th, ph + np.pi) for th, ph in reversed(self.rotations)])


def bb1_sequence(theta: float = np.pi / 2, phi: float = np.pi / 2) -> CompositeSequence:
    """Wimperis broadband (BB1) sequence for a target rotation R(theta, phi):
    correction triplet first, nominal pulse last (time order)."""
    phi_w = np.arccos(-theta / (4 * np.pi))
    return CompositeSequence([
        (np.pi, phi + phi_w),
        (2 * np.pi, phi + 3 * phi_w),
        (np.pi, phi + phi_w),
        (theta, phi),
    ])


DEFAULT_PROTECT_DURATION = 20e-6


def composite_method(seq: CompositeSequence, omega0: float,
                     protect: bool = False) -> ControlSchedule:
    """One resonant constant segment per rotation: Omega_half = omega0 /
    sqrt(2) for sqrt(2) * theta / omega0, chi = phi_R, delta = 0.  omega0 is
    the per-field three-level Rabi frequency.  With protect=True a chi = 0
    hold at the same amplitude (the R(*, 0) protection field) is appended
    for DEFAULT_PROTECT_DURATION."""
    if omega0 <= 0:
        raise ScheduleError(f"omega0 must be > 0, got {omega0}")
    segs = [_rotation(th, ph, omega0) for th, ph in seq.rotations]
    if protect:
        segs.append(ConstantSegment(DEFAULT_PROTECT_DURATION, omega0 / np.sqrt(2.0)))
    return ControlSchedule(segs)


def _rotation(theta: float, phi: float, omega0: float) -> ConstantSegment:
    """The resonant segment driving R(theta, phi) at per-field Rabi frequency
    omega0 > 0."""
    return ConstantSegment(np.sqrt(2.0) * theta / omega0, omega0 / np.sqrt(2.0), phi)


def square_pulse(theta: float, phi: float, omega0: float) -> ControlSchedule:
    """Single resonant pulse driving R(theta, phi)."""
    return composite_method(CompositeSequence([(theta, phi)]), omega0)


# ---------------------------------------------------------------------------
# Lift to d levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiLevelDrive:
    """A schedule lifted to d levels, with the field errors as added terms.

    hamiltonian(t) returns the rotating-frame Hamiltonian

        g Omega_half (cos chi Jx + sin chi Jy) + (delta_half + shift) Jz
        - eps g Omega_half (cos chi {Jz, Jx} + sin chi {Jz, Jy}) + e Jz^2

    with g = gain, eps = rabi_mismatch and e = static_detuning, of shape
    t.shape + batch + (dim, dim).  The first line is the lifted control
    vector Lambda . J, so a gain and a (Zeeman) shift keep the SU(2)
    symmetry; the mismatch and the static detuning break it.  For spin 1
    they make the two field amplitudes sqrt(2) g Omega_half (1 +/- eps) and
    shift both outer levels by e.  The operators come from
    angular_momentum_ops, never from the lift, so the dense propagation of
    this Hamiltonian is an independent check of the lift.  H is linear in
    the four real coefficients of coefficients(t), one per operator
    Jx - eps {Jz, Jx}, Jy - eps {Jz, Jy}, Jz and Jz^2, and hamiltonian(t)
    is hamiltonian_of(coefficients(t)).

    gain and shift may be arrays, which broadcast together to the batch
    shape: one drive per entry, all on the schedule and sharing the field
    errors.  dynamics propagates such a batch as one drive on either path.
    """

    dim: int
    schedule: ControlSchedule
    gain: float | np.ndarray = 1.0
    shift: float | np.ndarray = 0.0
    rabi_mismatch: float = 0.0
    static_detuning: float = 0.0

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise DimensionError(f"dimension must be an integer >= 2, got {self.dim!r}")

    @property
    def total_duration(self) -> float:
        return self.schedule.total_duration

    @property
    def boundaries(self) -> np.ndarray:
        return self.schedule.boundaries

    @property
    def su2_covariant(self) -> bool:
        """Whether H is the spin-j lift of the two-level Lambda . S with
        Lambda = (gain Omega_half cos chi, gain Omega_half sin chi,
        delta_half + shift): true unless the Rabi mismatch or the static
        detuning breaks the SU(2) symmetry."""
        return bool(self.rabi_mismatch == 0 and self.static_detuning == 0)

    def coefficients(self, t) -> np.ndarray:
        """The real coefficients (g Omega_half cos chi, g Omega_half sin chi,
        delta_half + shift, e) of hamiltonian(t) on its four operators, of
        shape t.shape + batch + (4,)."""
        omega, chi, delta = self.schedule.controls(np.asarray(t, dtype=float))
        batch = np.broadcast(self.gain, self.shift).shape
        column = np.shape(omega) + (1,) * len(batch)
        out = np.empty(np.shape(omega) + batch + (4,))
        # (Omega cos chi) g, in this order: it sets the rounding of every step
        out[..., 0] = np.reshape(omega * np.cos(chi), column) * self.gain
        out[..., 1] = np.reshape(omega * np.sin(chi), column) * self.gain
        out[..., 2] = np.reshape(delta, column) + self.shift
        out[..., 3] = self.static_detuning
        return out

    def hamiltonian(self, t) -> np.ndarray:
        return self.hamiltonian_of(self.coefficients(t))

    def hamiltonian_of(self, coeffs: np.ndarray) -> np.ndarray:
        """The d x d Hamiltonians of coefficient rows (see coefficients), or
        of any real combination of them: H is linear in its coefficients.
        Every operator but Jy - eps {Jz, Jy} is real, so H is returned as a
        real array exactly when the Jy coefficient is zero on every row (a
        chi = 0 schedule, under any field error), and as a complex one
        otherwise."""
        # one 2-D product: a stack of (1, 4) rows would be one small product per row
        rows = np.reshape(coeffs, (-1, 4))
        real = not np.any(rows[:, 1])
        h = rows @ _operator_basis(self.dim, self.rabi_mismatch, real)
        h = h if real else h.view(complex)
        return h.reshape(np.shape(coeffs)[:-1] + (self.dim, self.dim))

    def control_peaks(self) -> float:
        """max of max(Omega, |delta|) in three-level field units, used for
        the default integrator step: each segment's controls at its two
        ends, which hold its extremes (a constant segment is its own value,
        and a Blackman ramp and chirp are monotone), over the segments that
        own a time (a boundary belongs to the later segment, the final
        boundary to the last segment).  The per-field Rabi frequency
        sqrt(2) Omega_half is scaled by |gain| (1 + rabi_mismatch), and the
        detuning 2 |delta_half| is widened by 2 (|shift| + |static_detuning|);
        array gains and shifts count with their largest magnitude."""
        sched = self.schedule
        if sched.total_duration == 0:
            return 0.0
        bounds = sched.boundaries
        owners = [s for k, s in enumerate(sched.segments)
                  if bounds[k + 1] > bounds[k] or k == len(sched.segments) - 1]
        ends = [s.controls(np.array([0.0, s.duration])) for s in owners]
        omega_half = max(float(np.max(np.abs(o))) for o, _, _ in ends)
        delta_half = max(float(np.max(np.abs(dl))) for _, _, dl in ends)
        gain = float(np.abs(self.gain).max())
        level_shift = float(np.abs(self.shift).max()) + abs(self.static_detuning)
        peak_omega = np.sqrt(2.0) * omega_half * ((1.0 + self.rabi_mismatch) * gain)
        peak_delta = 2.0 * delta_half + 2.0 * level_shift
        return float(max(peak_omega, peak_delta, 0.0))

@lru_cache(maxsize=32)
def _operator_basis(n: int, eps: float, real: bool) -> np.ndarray:
    """The operators Jx - eps {Jz, Jx}, Jy - eps {Jz, Jy}, Jz and Jz^2 of
    MultiLevelDrive.hamiltonian_of at dimension n, one row each, flattened
    with real and imaginary parts interleaved, or with real=True their real
    parts alone (the Jy row, imaginary, is then zero).  The Hamiltonian's
    coefficients times this real matrix are its entries as complex numbers,
    or as real ones; numpy's complex matmul of this shape is about 10x
    slower."""
    ops = angular_momentum_ops(n)
    jx, jy, jz = ops.jx, ops.jy, ops.jz
    basis = np.stack([jx - eps * (jz @ jx + jx @ jz), jy - eps * (jz @ jy + jy @ jz),
                      jz, jz @ jz]).reshape(4, n * n)
    out = np.ascontiguousarray(basis.real) if real else basis.view(float)
    out.flags.writeable = False
    return out


def lift_schedule(s: ControlSchedule, d: int) -> MultiLevelDrive:
    """Lift a two-level control schedule to a d-level drive (same control vector)."""
    return MultiLevelDrive(dim=int(d), schedule=s)
