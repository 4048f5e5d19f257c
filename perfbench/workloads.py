"""Workload definitions: seeded op lists and their correctness checks.

A workload is an endless sequence of passes; pass k holds the same kinds of
op every time, with inputs (noise draws, fringe truths, scenario seeds)
drawn from ``default_rng([workload seed, k])``.  Scenario ops go through
``spinlift.cli.parse_config`` and ``spinlift.cli.run`` exactly as the
``spinlift run`` command does; the fringe-fit ops call
``spinlift.inference.ml_fit_fringe`` directly.

Checks compare against references within the integrator tolerance, never by
bit identity.  Statistical checks (a fit's truth inside 3 sigma, eps_m
inside 3 sigma of eps_m_exact) are coverage events: a single miss is
expected now and then, so they are judged over the whole run by
``coverage_consistent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import spinlift
from spinlift import cli, inference
from spinlift.experiments import DEFAULT_FRINGE_CHI

TWO_PI = 2.0 * np.pi

# Regression value of criterion 4 and its band (spinlift.acceptance).
NOMINAL_PER_OP_INFIDELITY = 8.3884e-06
NOMINAL_BAND = 1e-8
# Required coverage of 3-sigma intervals, and the probability below which a
# run's miss count is taken as evidence that coverage is lower than that.
COVERAGE = 0.99
COVERAGE_ALPHA = 1e-3


@dataclass
class Outcome:
    """Result of one op's checks: hard failures and 3-sigma coverage events."""

    failures: list[str] = field(default_factory=list)
    covered: int = 0
    missed: int = 0

    def require(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def tally(self, ok) -> None:
        self.covered += bool(ok)
        self.missed += not ok

    def cover(self, estimate: float, truth: float, sigma: float) -> None:
        self.tally(abs(estimate - truth) <= 3.0 * sigma)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, Outcome], None]


def warm_up() -> None:
    """Fill spinlift's lazy caches: the spin operators and the analysis-pulse
    propagators of the default fringe grid."""
    for d in range(2, 9):
        spinlift.angular_momentum_ops(d)
    rho = spinlift.named_state(3, "D").density_matrix()
    for chi in DEFAULT_FRINGE_CHI:
        spinlift.fringe_prediction(rho, chi)


def coverage_consistent(covered: int, missed: int) -> bool:
    """False when `missed` misses out of `covered + missed` 3-sigma events
    would have probability below COVERAGE_ALPHA at coverage COVERAGE."""
    n = covered + missed
    p = 1.0 - COVERAGE
    tail = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(missed, n + 1))
    return tail >= COVERAGE_ALPHA


def _finite_outputs(outputs: dict, out: Outcome) -> None:
    for key, value in outputs.items():
        if isinstance(value, float):
            out.require(math.isfinite(value), f"{key} is not finite")


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------

def scenario_op(kind: str, scenario: str, overrides: dict, seed: int, out_dir: str,
                check: Callable[[dict, Outcome], None]) -> Op:
    def run():
        config = cli.parse_config(scenario, overrides, seed=seed, out_dir=out_dir)
        return cli.run(config).outputs

    def full_check(outputs, out):
        _finite_outputs(outputs, out)
        check(outputs, out)

    return Op(kind, run, full_check)


def _nominal(o, out):
    out.require(abs(o["per_op_infidelity"] - NOMINAL_PER_OP_INFIDELITY) <= NOMINAL_BAND,
                f"per-op infidelity {o['per_op_infidelity']:.6e} off the nominal "
                f"{NOMINAL_PER_OP_INFIDELITY:.4e} +- {NOMINAL_BAND:.0e}")


def _transfer_holds(o, out):
    out.require(o["mid_fidelity_to_dark"] >= 0.999,
                f"mid-point fidelity {o['mid_fidelity_to_dark']:.6f} < 0.999")
    out.require(0.0 <= o["final_fidelity_to_zero"] <= 1.0 + 1e-9,
                "final fidelity outside [0, 1]")


def _ramsey(o, out):
    out.require(1.0 - o["contrast"] < 1e-6,
                f"zero-noise Ramsey deficit {1.0 - o['contrast']:.3e} >= 1e-6")


def _fig4c(o, out):
    out.require(o["sigma_eps"] > 0, "sigma_eps is not positive")
    out.cover(o["eps_m"], o["eps_m_exact"], o["sigma_eps"])
    for f, err, exact in zip(o["fidelity_raw"], o["fidelity_err"], o["fidelity_exact"]):
        out.cover(f, exact, err)


def _static_error(o, out):
    out.require(o["infidelity"] < 1e-4, f"static-error infidelity {o['infidelity']:.3e} >= 1e-4")


def _fig4b(o, out):
    fit = o["fit"]
    out.require(0.0 <= o["dark_state_fidelity"] <= 1.0, "fidelity outside [0, 1]")
    out.cover(fit["fidelity_raw"], o["exact_fidelity"], fit["fidelity_err"])


def _flatness(o, out):
    out.require(o["flatness_ratio"] <= 1e-2, f"flatness ratio {o['flatness_ratio']:.3e} > 1e-2")


def _tbb1_exact(o, out):
    out.require(o["final_fidelity_to_dark"] >= 1 - 1e-8,
                f"TBB1 fidelity {o['final_fidelity_to_dark']:.12f} < 1 - 1e-8")


def _tbb1_robust(o, out):
    out.require(o["final_fidelity_to_dark"] >= 0.99,
                f"TBB1 fidelity {o['final_fidelity_to_dark']:.6f} < 0.99 at -10 kHz error")


def _reversal(o, out):
    out.require(o["max_dev"] < 1e-10, f"reversal max_dev {o['max_dev']:.3e} >= 1e-10")


def fringe_fit_op(rng: np.random.Generator, shots: int, near_dark: bool) -> Op:
    """Criterion 9's recipe with a random truth: binomial counts on the default
    fringe grid, ML fit, truth inside 3 sigma on all three parameters.

    A near-dark truth (A0 ~ 0.5, A at 90-100% of the [0, 1] boundary, phi0 ~ pi)
    is the fringe of a well-prepared dark state, as fig4b and fig4c fit it;
    the optimizer is slow there, which makes the fit latency bimodal.  Other
    truths are drawn across the model's range."""
    if near_dark:
        a0 = float(rng.uniform(0.45, 0.55))
        a = min(a0, 1.0 - a0) * float(rng.uniform(0.9, 1.0))
        phi0 = np.pi + float(rng.uniform(-0.3, 0.3))
    else:
        a0 = float(rng.uniform(0.3, 0.7))
        a = float(rng.uniform(0.05, min(a0, 1.0 - a0)))
        phi0 = float(rng.uniform(0.0, TWO_PI))
    model = inference.MeasurementModel(shots=shots)
    q = inference.detection_map(a0 + a * np.cos(2 * DEFAULT_FRINGE_CHI + phi0), model)
    data = inference.FringeData(chi=DEFAULT_FRINGE_CHI,
                                counts=rng.binomial(shots, q).astype(float), shots=shots)

    def run():
        return inference.ml_fit_fringe(data, model)

    def check(fit, out):
        dphi = (fit.phi0 - phi0 + np.pi) % TWO_PI - np.pi
        out.tally(abs(fit.a0 - a0) <= 3 * fit.a0_err and abs(fit.a - a) <= 3 * fit.a_err
                  and abs(dphi) <= 3 * fit.phi0_err)

    return Op(f"fit-{'dark' if near_dark else 'random'}-{shots}", run, check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def adiabatic(rng, out_dir):
    """Blackman adiabatic transfers.  The first three ops keep the drive
    SU(2)-covariant (no noise, or a Zeeman shift); the last four add
    symmetry-breaking field errors, which only the dense d-level path can
    propagate."""
    def errors():
        return {"rabi_mismatch": float(rng.uniform(0.0, 0.003)),
                "static_detuning_hz": float(rng.uniform(0.0, 10.0))}
    return [
        scenario_op("fig2e-nominal", "fig2e", {"tolerance": 1e-8}, _seed(rng), out_dir,
                    _nominal),
        scenario_op("ramsey", "ramsey",
                    {"tolerance": 1e-8, "n_transfers": int(rng.choice([4, 8, 16, 32]))},
                    _seed(rng), out_dir, _ramsey),
        scenario_op("fig4c-adiabatic", "fig4c",
                    {"zeeman_sigma_hz": 200.0, "tolerance": 1e-6, "ns": [8, 16]},
                    _seed(rng), out_dir, _fig4c),
        scenario_op("static-error", "static-error", errors(), _seed(rng), out_dir,
                    _static_error),
        # Two fig2e ops with errors: with the nominal one they are three ops
        # of about the same cost in the middle of the pass, so the median op
        # falls inside them.  fig4c's cost varies by about 1.5x with the fits
        # inside it, and a median there would vary with it.
        *(scenario_op("fig2e-errors", "fig2e", {"tolerance": 1e-8, **errors()},
                      _seed(rng), out_dir, _transfer_holds) for _ in range(2)),
        scenario_op("fig4b-errors", "fig4b", errors(), _seed(rng), out_dir, _fig4b),
    ]


FITS_PER_PASS = 16


def composite_fringe(rng, out_dir):
    """Constant-segment composite controls plus the measurement inference."""
    ops = [
        scenario_op("fig3d", "fig3d", {}, _seed(rng), out_dir, _flatness),
        scenario_op("fig3c-exact", "fig3c", {"delta_omega_hz": 0.0}, _seed(rng), out_dir,
                    _tbb1_exact),
        # fig3c keeps its default -10 kHz error: at some other errors (-3.5 kHz,
        # for one) spinlift raises NormalizationError, because the final state's
        # norm^2 is off by about 1e-12, just past StateVector's 1e-12 check.
        # That defect is reported for a fix rather than benchmarked.
        scenario_op("fig3c-error", "fig3c", {}, _seed(rng), out_dir, _tbb1_robust),
    ]
    ops += [scenario_op("verify-reversal", "verify-reversal", {"d": d}, _seed(rng),
                        out_dir, _reversal) for d in range(2, 9)]
    ops.append(scenario_op("fig4c-tbb1", "fig4c", {"method": "tbb1", "zeeman_sigma_hz": 200.0},
                           _seed(rng), out_dir, _fig4c))
    ops += [fringe_fit_op(rng, 200 if i % 2 == 0 else 10_000, near_dark=i % 4 < 2)
            for i in range(FITS_PER_PASS)]
    return ops


WORKLOADS = {
    "adiabatic": adiabatic,
    "composite-fringe": composite_fringe,
}


def pass_ops(workload: str, seed: int, index: int, out_dir: str) -> list[Op]:
    """The ops of pass `index` of a workload; the same arguments give the same
    inputs."""
    return WORKLOADS[workload](np.random.default_rng([seed, index]), out_dir)
