"""spinlift benchmark: closed-loop runs of seeded scenario workloads.

    python3 perfbench/run.py --workload adiabatic --seed 1 --seconds 50 --trace 0

One client runs the workload's ops in a closed loop (the next op starts when
the previous one returns) in passes of a fixed list of op kinds, for about
--seconds.  Every op's output is checked, and a speed probe after every op
scales the untraced times to a reference speed (speed.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A traced run runs each pass untraced and then again traced, so
the tracing overhead is measured in the same process.

Other modes:
    --workload all     every workload, each in its own process
    --smoke            one pass of every workload, traced and untraced, and an
                       assertion that every metric is emitted
    --acceptance       each acceptance check of spinlift timed once, traced

The package is imported from src/ next to this directory; run from a
checkout of the repository.  See perfbench/README.md for why each workload
exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5

# (name, unit) in the order printed; failed_ops_frac is printed but not a
# result metric, because it is 0 whenever the program is correct (the result
# line carries it as `failed` / `attempted`).
END_TO_END = [("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("failed_ops_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
RESULT_END_TO_END = [m for m in END_TO_END if m[0] != "failed_ops_frac"]


def _layer_units() -> dict[str, str]:
    units = {}
    for layer in ("bench", "cli", "experiments", "dynamics", "waveforms", "spin",
                  "inference"):
        units[f"{layer}.self_s"] = "s"
    for name in ("dynamics.propagator", "dynamics.propagate", "waveforms.hamiltonian",
                 "waveforms.controls", "spin.lift_unitary", "spin.rotation_unitary",
                 "inference.ml_fit_fringe"):
        units[f"{name}.calls"] = "count"
    for name in ("waveforms.hamiltonian", "waveforms.controls", "spin.lift_unitary",
                 "spin.rotation_unitary", "inference.ml_fit_fringe"):
        units[f"{name}.s"] = "s"
    units.update({
        "dynamics.steps": "count", "dynamics.builds": "count",
        "dynamics.halvings_per_call": "count", "dynamics.useful_step_ratio": "ratio",
        "dynamics.ns_per_step": "ns", "waveforms.control_peaks.s": "s",
        "inference.ml_fit_fringe.p50_s": "s", "inference.ml_fit_fringe.tail_s": "s",
        "inference.fit_starts_per_fit": "count", "inference.nll_evals": "count",
        "inference.fringe_prediction.s": "s",
        "inference.analysis_cache_hit_ratio": "ratio", "inference.coverage": "ratio",
        "bench.tracing_overhead_frac": "ratio", "bench.unattributed_s": "s",
        "bench.untraced_wall_s": "s", "bench.traced_wall_s": "s",
    })
    return units


PER_LAYER = _layer_units()


def pin_threads() -> dict[str, str]:
    """Run BLAS/OpenMP single-threaded (small matrices gain nothing from
    threads, and one thread keeps timings steady on a shared machine)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(threads: dict[str, str]) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "threads": threads,
            "machine": platform.machine()}


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median time for a fresh interpreter to import spinlift and fill its
    lazy caches, at the reference speed and as measured.  Each interpreter
    times its own import, then probes the speed (the probe is imported only
    afterwards, so that its numpy and scipy imports are not done early)."""
    code = ("import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "t0 = time.perf_counter(); import workloads; workloads.warm_up(); "
            "t = time.perf_counter() - t0; import speed; speed.probe(0); "
            "print(t * speed.probe(2 * t), t)")
    scaled, raw = [], []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)], cwd=ROOT,
                             check=True, timeout=120, capture_output=True, text=True).stdout
        s, r = map(float, out.split())
        scaled.append(s)
        raw.append(r)
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Closed loop over a workload's passes, with per-op checks."""

    def __init__(self, workload: str, seed: int, out_dir: str):
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.scaled_passes: list[float] = []
        self.speed = 1.0
        self.by_kind: dict[str, list[float]] = {}
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.covered = 0
        self.missed = 0
        self.missed_ops = 0
        self.failures: list[str] = []

    def run_pass(self, index: int, call=None, scale: bool = False) -> float:
        """Run pass `index` once; returns its wall time.  With `scale`, a
        speed probe follows every op, and the op's latency at the reference
        speed goes to `scaled` and the pass's sum to `scaled_passes`."""
        import speed
        import workloads
        ops = workloads.pass_ops(self.workload, self.seed, index, self.out_dir)
        scaled_pass = 0.0
        t_pass = time.perf_counter()
        for op in ops:
            outcome = workloads.Outcome()
            fn = op.run if call is None else call(op)
            error = None
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            latency = time.perf_counter() - t0
            self.latencies.append(latency)
            if scale:
                before, self.speed = self.speed, speed.probe(latency)
                latency *= (before + self.speed) / 2
                self.scaled.append(latency)
                scaled_pass += latency
            if error is None:
                op.check(result, outcome)
            else:
                outcome.failures.append(f"raised {type(error).__name__}: {error}")
            self.by_kind.setdefault(op.kind, []).append(latency)
            self.kinds.append(op.kind)
            self.attempted += 1
            self.covered += outcome.covered
            self.missed += outcome.missed
            self.missed_ops += outcome.missed > 0 and not outcome.failures
            if outcome.failures:
                self.failed += 1
                self.failures.append(f"pass {index} {op.kind}: {'; '.join(outcome.failures)}")
        if scale:
            self.scaled_passes.append(scaled_pass)
        return time.perf_counter() - t_pass

    def loop(self, seconds: float, max_passes=None) -> list[float]:
        """Run passes 0, 1, ... with speed probes for about `seconds`: at
        least one pass, and no pass that would end more than half a pass
        after `seconds`.  Returns each pass's wall time."""
        import speed
        self.speed = speed.probe(1.0)
        times = []
        start = time.perf_counter()
        while True:
            times.append(self.run_pass(len(times), scale=True))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.fmean(times) / 2 >= seconds or len(times) == max_passes:
                return times

    def coverage_ok(self) -> bool:
        import workloads
        return workloads.coverage_consistent(self.covered, self.missed)

    def coverage(self) -> float:
        n = self.covered + self.missed
        return self.covered / n if n else 1.0

    def failed_count(self) -> int:
        """Failed ops; when the run's coverage is too low, every op with a
        missed 3-sigma event counts as failed too."""
        return self.failed + (0 if self.coverage_ok() else self.missed_ops)


def run_untraced(args, runner: Runner) -> tuple[dict, list[str]]:
    """Times are at the reference speed (see speed.py); the notes give the
    same figures as measured."""
    import tracing
    setup, setup_raw = measure_setup(1 if args.smoke else SETUP_REPEATS)
    passes = runner.loop(args.seconds, max_passes=1 if args.smoke else None)
    OUT.mkdir(exist_ok=True)
    ops_path = OUT / f"ops-{args.workload}-{args.seed}.json"
    ops_path.write_text(json.dumps({"kinds": runner.kinds,
                                    "latencies": runner.latencies, "scaled": runner.scaled,
                                    "passes": passes, "scaled_passes": runner.scaled_passes}))
    tail, beyond = tracing.tail(runner.scaled)
    raw_tail, _ = tracing.tail(runner.latencies)
    values = {
        "wall_s": statistics.fmean(runner.scaled_passes),
        "op_p50_s": statistics.median(runner.scaled),
        "op_tail_s": tail,
        "failed_ops_frac": runner.failed_count() / runner.attempted,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"mean of {len(passes)} passes; as measured "
             f"{sum(runner.latencies) / len(passes):.4f}, with probes and checks "
             f"{statistics.fmean(passes):.4f}",
             f"median op latency; as measured {statistics.median(runner.latencies):.4f}",
             f"p90 of {len(runner.scaled)} ops, {beyond} above it; as measured "
             f"{raw_tail:.4f}",
             f"{runner.failed_count()}/{runner.attempted} ops",
             f"median of {1 if args.smoke else SETUP_REPEATS} fresh interpreters; "
             f"as measured {setup_raw:.4f}",
             "ru_maxrss of this process"]
    lines = [f"  {name:<16} {values[name]:>12.6g} {unit:<6} ({note})"
             for (name, unit), note in zip(END_TO_END, notes)]
    lines.append("  times at the reference speed: each op's latency scaled by the "
                 "speed probes on either side of it")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in RESULT_END_TO_END}, lines


def run_traced(args, runner: Runner) -> tuple[dict, list[str]]:
    """Pass k runs untraced, then again traced, for k = 0, 1, ... until
    --seconds have passed; the pairs give the tracing overhead."""
    import tracing
    tracer = tracing.Tracer()

    def call(op):
        tracer.op_id += 1
        return tracer.span("bench.op", op.run)

    plain, traced = [], []
    start = time.perf_counter()
    while not plain or not args.smoke and time.perf_counter() - start < args.seconds:
        plain.append(runner.run_pass(len(traced)))
        tracer.install()
        try:
            traced.append(runner.run_pass(len(traced), call))
        finally:
            tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    tracer.dump(str(trace_path))

    m = tracing.layer_metrics(tracer.spans, len(traced))
    m["inference.coverage"] = runner.coverage()
    untraced_wall = statistics.median(plain)
    traced_wall = statistics.median(traced)
    m["bench.untraced_wall_s"] = untraced_wall
    m["bench.traced_wall_s"] = traced_wall
    m["bench.tracing_overhead_frac"] = statistics.median(
        (t - p) / p for t, p in zip(traced, plain))
    # Time outside every op span (loop and checks), measured apart from the
    # spans' self times; the two must add up to the traced wall time.
    wall_per_pass = sum(traced) / len(traced)
    op_time = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0) / len(traced)
    m["bench.unattributed_s"] = wall_per_pass - op_time
    self_total = sum(v for key, v in m.items() if key.endswith(".self_s"))
    accounting_ok = (m["bench.unattributed_s"] >= 0
                     and abs(self_total + m["bench.unattributed_s"] - wall_per_pass) < 1e-6)
    lines = [f"  {name:<38} {m[name]:>14.6g} {PER_LAYER[name]}" for name in PER_LAYER]
    lines.append(f"  tracing overhead {m['bench.tracing_overhead_frac']:+.1%}: traced "
                 f"{traced_wall:.4f} s vs untraced {untraced_wall:.4f} s per pass "
                 f"(medians over {len(plain)} passes, each run untraced then traced)")
    lines.append(f"  accounting: sum of layer self times {self_total:.4f} s + "
                 f"unattributed {m['bench.unattributed_s']:.4f} s = traced wall "
                 f"{wall_per_pass:.4f} s per pass ({'ok' if accounting_ok else 'MISMATCH'})")
    lines.append("  no wait metrics: one thread, no queue or lock to wait on")
    if tracer.missing:
        lines.append(f"  not traced (absent in this version): {', '.join(tracer.missing)}")
    lines.append(f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    if not accounting_ok:
        runner.failures.append("layer self times do not add up to the traced wall time")
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER.items()}, lines


def run_workload(args) -> dict:
    import workloads
    workloads.warm_up()
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        runner = Runner(args.workload, args.seed, out_dir)
        metrics, lines = (run_traced if args.trace else run_untraced)(args, runner)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = runner.failed_count()
    correct = failed == 0 and not runner.failures and runner.coverage_ok()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} ops, closed loop, 1 client")
    for line in lines:
        print(line)
    print("  median op latency by kind: " + ", ".join(
        f"{kind} {statistics.median(v):.4f} s x{len(v)}" for kind, v in runner.by_kind.items()))
    print(f"  3-sigma coverage {runner.coverage():.4f} over "
          f"{runner.covered + runner.missed} events "
          f"({'consistent with' if runner.coverage_ok() else 'BELOW'} >= 0.99)")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    return {"correct": correct, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics}


def combine(results: dict[str, dict]) -> dict:
    """One result line from several, each metric prefixed by its result's key."""
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{key}.{name}": value for key, r in results.items()
                        for name, value in r["metrics"].items()}}


def run_all(args) -> dict:
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return combine(results)


def run_smoke(args) -> dict:
    """One pass of every workload, untraced and traced; asserts that every
    metric is emitted and that BENCHMARK.json names the same metrics."""
    import workloads
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else None
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            result = run_workload(sub)
            expected = ([n for n, _ in RESULT_END_TO_END] if trace == 0
                        else list(PER_LAYER))
            missing = sorted(set(expected) - set(result["metrics"]))
            if missing:
                raise AssertionError(f"{name} trace {trace}: missing metrics {missing}")
            if spec is not None:
                declared = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
                if sorted(declared) != sorted(result["metrics"]):
                    raise AssertionError(f"BENCHMARK.json metrics differ from the "
                                         f"emitted ones for trace {trace}")
            results[f"{name}.trace{trace}"] = result
    print(f"smoke: every metric emitted for {len(workloads.WORKLOADS)} workloads")
    return combine(results)


def run_acceptance(args) -> dict:
    """Each acceptance check of spinlift once, traced: the times CI pays."""
    import tracing
    from spinlift import acceptance
    tracer = tracing.Tracer()
    tracer.install()
    results = []
    try:
        for i in range(1, len(acceptance.CHECKS) + 1):
            tracer.op_id = i
            t0 = time.perf_counter()
            passed = acceptance.run_check(i).passed
            results.append((i, time.perf_counter() - t0, passed))
            print(f"  acceptance.check_{i:02d}.s {results[-1][1]:10.3f} s  "
                  f"{'PASS' if passed else 'FAIL'}", flush=True)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, 1)
    for key in ("dynamics.self_s", "dynamics.steps", "dynamics.halvings_per_call",
                "inference.ml_fit_fringe.calls", "inference.ml_fit_fringe.s"):
        print(f"  {key:<38} {m[key]:>14.6g}")
    metrics = {f"acceptance.check_{i:02d}.s": {"value": dt, "unit": "s"}
               for i, dt, _ in results}
    failed = sum(not passed for _, _, passed in results)
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--acceptance", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "spinlift" / "__init__.py").is_file():
        print(f"error: no spinlift package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    if not (args.smoke or args.acceptance or args.workload == "all"
            or args.workload in workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; known: all, "
                     + ", ".join(workloads.WORKLOADS))
    print(f"env: {json.dumps(environment(threads), sort_keys=True)}")
    if args.acceptance:
        result = run_acceptance(args)
    elif args.smoke:
        result = run_smoke(args)
    elif args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
