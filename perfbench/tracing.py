"""Span tracing of spinlift's layers from outside the package.

Each traced name is replaced, for the duration of a traced phase, by a
wrapper that records a span (name, start, end, parent span, op id, size).
Names are wrapped where the consuming module binds them, so a call from
``spinlift.experiments`` into ``propagator`` is seen even though nothing
under ``src/`` changes.  A name that a later version of the package no
longer has is skipped, and the metrics that depend on it read 0.

Spans are kept in memory and written out when the run ends.  A layer is the
part of a span name before the first dot; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# Propagation entry points: every Hamiltonian sample below one of these is
# an integrator step.
PROPAGATION = ("dynamics.propagator", "dynamics.propagate")
LAYERS = ("bench", "cli", "experiments", "dynamics", "waveforms", "spin",
          "inference", "acceptance")


def _hamiltonian_points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _grid_steps(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return max(len(grid) - 1, 0)


def _nfev(args, kwargs, result):
    return int(getattr(result, "nfev", 0))


# (module or class path, attribute, span name, size of the call's work)
TRACED = [
    ("spinlift.cli", "parse_config", "cli.parse_config", None),
    ("spinlift.cli", "run", "cli.run", None),
    ("spinlift.cli", "run_scenario", "experiments.run_scenario", None),
    ("spinlift.experiments", "propagator", "dynamics.propagator", None),
    ("spinlift.experiments", "propagate", "dynamics.propagate", None),
    ("spinlift.inference", "propagator", "dynamics.propagator", None),
    ("spinlift.acceptance", "propagator", "dynamics.propagator", None),
    ("spinlift.dynamics", "_step_unitaries", "dynamics.build", _grid_steps),
    ("spinlift.waveforms:MultiLevelDrive", "hamiltonian", "waveforms.hamiltonian",
     _hamiltonian_points),
    ("spinlift.experiments:DressedDrive", "hamiltonian", "waveforms.hamiltonian",
     _hamiltonian_points),
    ("spinlift.waveforms:ControlSchedule", "controls", "waveforms.controls", None),
    ("spinlift.waveforms:MultiLevelDrive", "control_peaks", "waveforms.control_peaks", None),
    ("spinlift.experiments:DressedDrive", "control_peaks", "waveforms.control_peaks", None),
    ("spinlift.experiments", "lift_unitary", "spin.lift_unitary", None),
    ("spinlift.experiments", "rotation_unitary", "spin.rotation_unitary", None),
    ("spinlift.acceptance", "lift_unitary", "spin.lift_unitary", None),
    ("spinlift.experiments", "ml_fit_fringe", "inference.ml_fit_fringe", None),
    ("spinlift.inference", "ml_fit_fringe", "inference.ml_fit_fringe", None),
    ("spinlift.acceptance", "ml_fit_fringe", "inference.ml_fit_fringe", None),
    ("spinlift.inference", "minimize", "inference.minimize", _nfev),
    ("spinlift.experiments", "fringe_prediction", "inference.fringe_prediction", None),
    ("spinlift.inference", "analysis_pulse_unitary", "inference.analysis_pulse", None),
    ("spinlift.experiments", "infidelity_per_op", "inference.infidelity_per_op", None),
    ("spinlift.acceptance", "run_check", "acceptance.run_check", None),
]


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """In-memory span recorder; install() patches the traced names and
    uninstall() restores them."""

    def __init__(self):
        # span: [name, start, end, parent index, op id, size]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, size=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                   self.op_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    rec[5] = size(args, kwargs, result)
                return result
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for path, attr, name, size in TRACED:
            try:
                owner = _resolve(path)
            except ImportError:
                self.missing.append(f"{path}.{attr}")
                continue
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, size))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p,
                 "op": op, "size": size}
                for n, s, e, p, op, size in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": "times relative to the first span", "spans": rows}, f)


def tail(values) -> tuple[float, int]:
    """(90th percentile, number of samples above it).  The percentile is
    fixed, so that it reads the same op kind whatever the run's length."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0, 0
    p90 = float(np.percentile(v, 90))
    return p90, int(np.count_nonzero(v > p90))


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `passes` traced passes; times and
    counts are per pass."""
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    under_prop = np.zeros(n, dtype=bool)
    last_build: dict[int, int] = {}
    has_dynamics_child = np.zeros(n, dtype=bool)
    for i, (name, _, _, parent, _, size) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            under_prop[i] = under_prop[parent] or spans[parent][0] in PROPAGATION
            if name.startswith("dynamics."):
                has_dynamics_child[parent] = True
            if name == "dynamics.build":
                last_build[parent] = size
    self_time = dur - child

    def where(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def named(name):
        return where(lambda s: s[0] == name)

    def total(idx):
        return float(dur[idx].sum()) if idx else 0.0

    per = max(passes, 1)
    m: dict[str, float] = {}
    for layer in LAYERS:
        idx = where(lambda s: s[0].split(".")[0] == layer)
        m[f"{layer}.self_s"] = float(self_time[idx].sum()) / per if idx else 0.0

    prop_calls = len(where(lambda s: s[0] in PROPAGATION))
    builds = named("dynamics.build")
    built_steps = sum(spans[i][5] for i in builds)
    steps = sum(spans[i][5] for i in named("waveforms.hamiltonian") if under_prop[i])
    m["dynamics.propagator.calls"] = len(named("dynamics.propagator")) / per
    m["dynamics.propagate.calls"] = len(named("dynamics.propagate")) / per
    m["dynamics.steps"] = steps / per
    m["dynamics.builds"] = len(builds) / per
    m["dynamics.halvings_per_call"] = ((len(builds) - prop_calls) / prop_calls
                                       if builds and prop_calls else 0.0)
    m["dynamics.useful_step_ratio"] = (sum(last_build.values()) / built_steps
                                       if built_steps else 0.0)
    m["dynamics.ns_per_step"] = (1e9 * m["dynamics.self_s"] / m["dynamics.steps"]
                                 if steps else 0.0)

    for name in ("waveforms.hamiltonian", "waveforms.controls",
                 "spin.lift_unitary", "spin.rotation_unitary",
                 "inference.ml_fit_fringe"):
        idx = named(name)
        m[f"{name}.calls"] = len(idx) / per
        m[f"{name}.s"] = total(idx) / per
    m["waveforms.control_peaks.s"] = total(named("waveforms.control_peaks")) / per

    fits = named("inference.ml_fit_fringe")
    fit_times = dur[fits] if fits else []
    m["inference.ml_fit_fringe.p50_s"] = float(np.median(fit_times)) if fits else 0.0
    m["inference.ml_fit_fringe.tail_s"] = tail(fit_times)[0]
    starts = where(lambda s: s[0] == "inference.minimize" and s[3] >= 0
                   and spans[s[3]][0] == "inference.ml_fit_fringe")
    m["inference.fit_starts_per_fit"] = len(starts) / len(fits) if fits else 0.0
    m["inference.nll_evals"] = sum(spans[i][5] for i in named("inference.minimize")) / per
    m["inference.fringe_prediction.s"] = total(named("inference.fringe_prediction")) / per
    analysis = named("inference.analysis_pulse")
    m["inference.analysis_cache_hit_ratio"] = (
        sum(not has_dynamics_child[i] for i in analysis) / len(analysis)
        if analysis else 0.0)
    return m
