"""rapd benchmark: time to accuracy, iteration cost and set-up time.

Run from the repository root:

    python3 perfbench/run.py --workload kernel-desk --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``bilinear-large``, ``kernel-desk`` and
``quadratic-ensemble``.  Each run is one process and a closed loop: one
caller, one solve at a time, with the BLAS thread count pinned before
numpy is imported.

With ``--trace 0`` the run sets up the workload, warms up once untimed,
then runs the solve pass once and repeats it while another pass fits in
``--seconds``, and reports the end-to-end metrics.  It sets up again
after every solver phase of a pass (not after the baseline slices), and
the next phase runs on the new instance, so the set-ups spread over the
whole run.  Each such slot repeats the set-up until it has taken the
workload's ``setup_slot_s``.  ``setup_s`` is the fastest set-up of the run and
``setup_s_p50`` their median; bench-side reference work inside a set-up
is left out of its time.

With ``--trace 1`` it sets up once under the tracer, runs one untraced
and one traced pass, reports the per-layer metrics and writes the spans
and the layer table under ``perfbench/out/``; ``trace.overhead_frac`` is
``iter_us_p50`` of the traced pass over that of the untraced one, minus 1
(a fastest chunk is too rare an event to compare two single passes).

Every metric is printed by name with its unit, followed by the correctness
checks.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
ones ``BENCHMARK.json`` lists for the mode.  ``attempted`` counts solver
calls plus correctness checks, and ``failed`` those that raised or failed.

The gated times are fastest samples: ``setup_s`` the fastest set-up,
``baseline_iter_us_min`` the baseline's fastest evenly spaced chunk, and
``iter_us_min`` the slowest of the per-regime fastest chunks of rapd1 and
rapd2, so a regression in either step regime moves it.  On a shared
2-core host, other tenants slow the same code by up to 2x for seconds to
minutes at a time, which moves medians and whole-solve wall times between
runs; the fastest sample moves far less.  The medians, p90 and wall times
(``setup_s_p50``, ``solve_s``, ``rapd*_time_to_1e-3_s``) are printed for
every run all the same.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 2

# units of every metric the benchmark measures; BENCHMARK.json gates a subset
UNITS = {
    "setup_s": "s", "setup_s_p50": "s", "solve_s": "s", "iter_us_min": "us",
    "iter_us_p50": "us", "iter_us_p90": "us", "rapd1_iter_us_min": "us", "rapd2_iter_us_min": "us",
    "baseline_iter_us_min": "us", "baseline_iter_us_p50": "us",
    "rapd1_time_to_1e-3_s": "s", "rapd2_time_to_1e-3_s": "s",
    "rapd1_iters_to_1e-3": "count", "rapd2_iters_to_1e-3": "count",
    "ops_failed_frac": "ratio", "peak_rss_mb": "MB",
    "problem.grad_y.calls_per_iter": "count/iter", "problem.grad_y.us_per_call": "us",
    "problem.grad_y.bytes_per_iter": "B/iter",
    "problem.grad_y_incremental.calls_per_iter": "count/iter",
    "problem.grad_y_incremental.us_per_call": "us",
    "problem.grad_x_block.calls_per_iter": "count/iter",
    "problem.grad_x_block.us_per_call": "us", "problem.grad_x_block.bytes_per_call": "B",
    "problem.phi_value.calls": "count", "problem.build_s": "s",
    "bregman.dual_prox.us_per_call": "us", "bregman.primal_prox.us_per_call": "us",
    "rng.sample_index.us_per_call": "us", "stepsize.advance.us_per_call": "us",
    "solver.self_us_per_iter": "us", "harness.metrics.lagrangian_gap.calls": "count",
    "harness.metrics.lagrangian_gap.ms_per_call": "ms",
    "oracle.solve_high_accuracy.s": "s", "oracle.solve_high_accuracy.iterations": "count",
    "oracle.solve_high_accuracy.grad_evals": "count", "kernel_learning.build_s": "s",
    "baselines.pdhg_run.self_us_per_iter": "us",
    "baselines.mirror_prox_run.self_us_per_iter": "us",
    "solver.block_to_full_ratio": "ratio", "trace.overhead_frac": "ratio",
    "trace.span_count": "count",
}


def pin_blas_threads() -> int:
    """Pin the BLAS pools; must run before numpy is imported."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import rapd from this checkout's ``src``; fail if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rapd", "__init__.py")):
        raise SystemExit(f"rapd sources not found under {src}")
    sys.path.insert(0, src)
    import rapd
    if not os.path.abspath(rapd.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported rapd from {rapd.__file__}, not from {src}")


def solver_passes(workload, inst, tr, seconds: float, set_up=None) -> tuple:
    """Run the solve pass once, then again while another pass as long as
    the slowest so far still fits in ``seconds``.  A phase gives one
    :class:`Phase` or a list of them.  With ``set_up``, the workload is set
    up again after every phase but the baseline slices, and the next phase
    runs on the new instance.  Returns the passes and the last instance."""
    passes, longest = [], 0.0
    tic = time.perf_counter()
    while not passes or time.perf_counter() - tic + longest <= seconds:
        start = time.perf_counter()
        phases = []
        for phase in workload.phases(tr):
            out = phase(inst)
            out = out if isinstance(out, list) else [out]
            phases += out
            if set_up is not None and any(ph.kind != "baseline" for ph in out):
                inst = None     # release the instance before building the next
                inst = set_up()
        passes.append(phases)
        longest = max(longest, time.perf_counter() - start)
    return passes, inst


def end_to_end(passes, setup_times) -> tuple:
    """End-to-end metrics of the passes, and the sample counts behind them.

    Per-iteration figures come from the evenly spaced records of the
    target, slice and baseline runs; ``*_min`` is the fastest such chunk,
    and ``iter_us_min`` the slowest of the per-regime fastest chunks.
    """
    from workloads import chunk_us
    by_regime = {}
    for phases in passes:
        for ph in phases:
            if ph.kind in ("target", "slice"):
                by_regime.setdefault(ph.label, []).extend(
                    c for tr in ph.traces for c in chunk_us(tr))
    chunks = [c for regime in by_regime.values() for c in regime]
    base = [c for phases in passes for ph in phases if ph.kind == "baseline"
            for tr in ph.traces for c in chunk_us(tr)]
    out = {
        "setup_s": min(setup_times),
        "setup_s_p50": statistics.median(setup_times),
        "solve_s": statistics.median(sum(ph.seconds for ph in phases) for phases in passes),
        "iter_us_min": max(min(regime) for regime in by_regime.values()),
        **{f"{label}_iter_us_min": min(c) for label, c in by_regime.items()},
        "iter_us_p50": statistics.median(chunks),
        "iter_us_p90": statistics.quantiles(chunks, n=10)[-1],
        "baseline_iter_us_min": min(base),
        "baseline_iter_us_p50": statistics.median(base),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {**{f"{label}_iter_us": len(c) for label, c in by_regime.items()},
               "baseline_iter_us": len(base),
               "passes": len(passes), "setups": len(setup_times)}
    for regime in ("rapd1", "rapd2"):
        # the regime's target runs of each pass; mean over a pass, median over passes
        runs = [[tr for ph in phases if ph.kind == "target" and ph.label == regime
                 for tr in ph.traces] for phases in passes]
        if runs[0]:
            out[f"{regime}_time_to_1e-3_s"] = statistics.median(
                statistics.fmean(tr.records[-1].wall_s for tr in r) for r in runs)
            out[f"{regime}_iters_to_1e-3"] = statistics.median(
                statistics.fmean(tr.iterations for tr in r) for r in runs)
            samples[f"{regime}_runs"] = sum(len(r) for r in runs)
    return out, samples


def measure(workload, seconds: float) -> tuple:
    from tracer import NoTrace
    tr = NoTrace()
    setup_times = []

    def set_up():
        """One set-up slot: set up until the slot has taken setup_slot_s."""
        slot, inst = 0.0, None
        while slot < workload.setup_slot_s:
            inst = None  # release the previous instance before building the next
            tic = time.perf_counter()
            inst = workload.setup(tr)
            elapsed = time.perf_counter() - tic
            setup_times.append(elapsed - inst.reference_s)
            slot += elapsed
        return inst

    # no instance outlives the next set-up, so at most one is alive at a time
    workload.warmup(set_up())
    passes, inst = solver_passes(workload, set_up(), tr, seconds, set_up)
    metrics, samples = end_to_end(passes, setup_times)
    return inst, passes, metrics, samples


def measure_traced(workload, label: str) -> tuple:
    from tracer import NoTrace, Tracer, layer_metrics
    tracer = Tracer()
    with tracer:
        inst = workload.setup(tracer)
    workload.warmup(inst)
    plain, inst = solver_passes(workload, inst, NoTrace(), 0.0)
    with tracer:
        for problem in workload.problems(inst):
            tracer.instrument(problem)
        traced, inst = solver_passes(workload, inst, tracer, 0.0)
    passes = plain + traced
    phases = traced[0]
    rapd_iters = sum(tr.iterations for ph in phases if ph.label.startswith("rapd")
                     for tr in ph.traces)
    baseline_iters = {}
    for ph in phases:
        if ph.kind == "baseline":
            baseline_iters[ph.label] = baseline_iters.get(ph.label, 0) + ph.traces[0].iterations
    metrics = layer_metrics(tracer, rapd_iters, baseline_iters, workload.grad_bytes(inst))
    plain_e2e, _ = end_to_end(plain, [0.0])
    traced_e2e, _ = end_to_end(traced, [0.0])
    metrics["solver.block_to_full_ratio"] = (plain_e2e["iter_us_min"]
                                             / plain_e2e["baseline_iter_us_min"])
    metrics["oracle.solve_high_accuracy.iterations"] = float(sum(
        c.iterations for c in workload.certificates(inst)
        if c.method == "extragradient"))
    metrics["trace.overhead_frac"] = traced_e2e["iter_us_p50"] / plain_e2e["iter_us_p50"] - 1.0
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"{label}.spans.npz"))
    return inst, passes, metrics


def environment(args, threads: int) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def gated_names(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    entries = spec["per_layer" if trace else "end_to_end"]
    for e in entries:
        if UNITS[e["name"]] != e["unit"]:
            raise SystemExit(f"unit mismatch for {e['name']}: {e['unit']} vs {UNITS[e['name']]}")
    return [e["name"] for e in entries]


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    import_program()
    from workloads import WORKLOADS, Checks
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    names = gated_names(args.trace)
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(args, threads)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    label = f"{args.workload}-seed{args.seed}"
    from rapd.exceptions import (DimensionError, DivergenceError, DomainError,
                                 ParameterError, RegimeError)
    try:
        if args.trace:
            inst, passes, metrics = measure_traced(workload, label)
            samples = {}
        else:
            inst, passes, metrics, samples = measure(workload, args.seconds)
    except (DimensionError, DivergenceError, DomainError, ParameterError,
            RegimeError) as exc:
        print(f"check FAIL solve raised {type(exc).__name__}: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    checks = Checks()
    workload.check(inst, passes, checks)
    solver_calls = sum(len(ph.traces) for phases in passes for ph in phases)
    attempted = solver_calls + len(checks.items)
    failed = checks.failed
    if not args.trace:
        metrics["ops_failed_frac"] = failed / attempted

    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {UNITS[name]}")
    for name, count in samples.items():
        print(f"samples {name} = {count}")
    # passes repeat deterministic checks; print each distinct outcome once
    for (name, ok, detail), count in Counter(checks.items).items():
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}"
              + (f" (x{count})" if count > 1 else ""))
    if args.trace:
        with open(os.path.join(HERE, "out", f"{label}.layers.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"env": env, "metrics": metrics}, fh, indent=1)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
