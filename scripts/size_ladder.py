"""Size ladder: rapd's cost per iteration against a full pass.

Two ladders, each a problem at several sizes:

- ``bilinear``: the coupling of the benchmark's bilinear-large workload
  (n = 16384, d = 512, A Gaussian / sqrt(n), f_i = SquaredL2(0.5), h the
  unit simplex) at m = 64, 128 and 256 blocks, so the block size
  n_i = n/m halves at each rung while n and d stay fixed;
- ``kernel``: the benchmark's kernel-desk problem (multiple-kernel SVM,
  d = 10, three kernels, lam = 1, entropy dual, constants deflated by
  the kernel suite's factor, dataset seed 7) at n = 200, 400, 800 and
  1600 points and m = 10 blocks.

For each rung it reports

- the block phases alone, each averaged over 2000 random blocks: the
  block gradient read off the cached primal product, the product's
  update from one block, and the block prox;
- the dual prox on the whole dual vector, averaged over as many calls:
  the step the loops bind once per run (``dual_geometry.stepper(h)``);
- the fastest and the median per-iteration chunk of ``run`` in both step
  regimes (records every 50 iterations) and of ``pdhg_run``, the
  deterministic full pass, with the benchmark's steps for it;
- one full primal product, the largest part of a full pass;
- ``epoch_over_pass``: ``m * rapd1_iter_us_min / pdhg_iter_us_min``, the
  cost of m rapd iterations (one epoch, a pass worth of blocks) over one
  pdhg iteration; the paper's cost claim is that it is about 1;
- ``blas_threads``: the BLAS threads every phase ran on.  One, so the
  full pass and the block update run on equal cores;
- on kernel rungs, ``oracle_iterations``, ``oracle_s`` and
  ``oracle_certified``: the cost of the 1e-10 certificate
  (``solve_high_accuracy`` from ``x0 = 0`` and ``dual_start``) that a
  time-to-target check at that n measures against.

Run from the repository root:

    python3 scripts/size_ladder.py --out BENCH_size_ladder.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rapd import (IndicatorSimplex, RunOptions, SquaredL2, build_bilinear_erm,  # noqa: E402
                  build_kernel_problem, default_alpha, part1_schedule, part2_init,
                  pdhg_run, run, synth_dataset)
from rapd.blockcore import BlockPartition  # noqa: E402
from rapd.harness.suites import _KERNEL_LIPSCHITZ_SCALE  # noqa: E402
from rapd.kernel_learning import dual_start  # noqa: E402
from rapd.oracle import solve_high_accuracy  # noqa: E402
from rapd.problem import spectral_norm  # noqa: E402

N, D = 16384, 512
BILINEAR_RUNGS = (64, 128, 256)
KERNEL_RUNGS = (200, 400, 800, 1600)
KERNEL_BLOCKS = 10
PHASE_CALLS = 2000
CADENCE = 50
#: pdhg iterations per timed run and its record cadence, per ladder
PDHG_RUN = {"bilinear": (200, 10), "kernel": (1000, 20)}


def per_call_us(fn, blocks, repeats=3) -> float:
    """Fastest of ``repeats`` mean times of ``fn(i)`` over ``blocks``."""
    best = np.inf
    for _ in range(repeats):
        tic = time.perf_counter()
        for i in blocks:
            fn(i)
        best = min(best, (time.perf_counter() - tic) / len(blocks))
    return best * 1e6


def chunk_us(trace) -> list:
    k = np.concatenate([[0.0], trace.column("k")])
    wall = np.concatenate([[0.0], trace.column("wall_s")])
    return list(np.diff(wall) / np.diff(k) * 1e6)


def rung(problem, x0, y0, pdhg_steps, pdhg_run_len, K: int, seed: int) -> dict:
    """Block phases, ``run`` in both regimes and ``pdhg_run`` on one problem."""
    part = problem.partition
    m, n = part.m, part.n
    rng = np.random.default_rng(seed)
    x = np.abs(rng.standard_normal(n)) / np.sqrt(n)
    w = problem.primal_product(x)
    blocks = rng.integers(m, size=PHASE_CALLS)
    slices = part.slices()
    dx = rng.standard_normal(part.sizes[0]) * 1e-12
    dy = rng.standard_normal(y0.size)
    dual_step = problem.dual_geometry.stepper(problem.h)
    out = {
        "n": n, "m": m, "n_i": part.sizes[0], "blas_threads": BLAS_THREADS,
        "block_gradient_us": per_call_us(
            lambda i: problem.grad_x_block_cached(i, w, x, y0), blocks),
        "product_update_us": per_call_us(
            lambda i: problem.grad_y_incremental(w, i, dx[:part.sizes[i]]), blocks),
        "block_prox_us": per_call_us(
            lambda i: problem.block_prox(i, 0.1, dx[:part.sizes[i]], x[slices[i]]),
            blocks),
        "dual_prox_us": per_call_us(lambda i: dual_step(0.1, dy, y0), blocks),
        "full_product_us": per_call_us(lambda i: problem.primal_product(x), blocks[:20]),
    }
    c = problem.constants
    for name, sched in (("rapd1", part1_schedule(c, m, default_alpha(c))),
                        ("rapd2", part2_init(c, m, default_alpha(c)))):
        run(problem, sched, 500, seed, x0=x0, y0=y0)  # warm-up
        tr = run(problem, sched, K, seed, x0=x0, y0=y0,
                 options=RunOptions(record_at=range(CADENCE, K + 1, CADENCE)))
        chunks = chunk_us(tr)
        out[f"{name}_iter_us_min"] = min(chunks)
        out[f"{name}_iter_us_p50"] = statistics.median(chunks)
    K_pdhg, every = pdhg_run_len
    pdhg_run(problem, *pdhg_steps, 5, x0=x0, y0=y0)  # warm-up
    chunks = chunk_us(pdhg_run(problem, *pdhg_steps, K_pdhg, x0=x0, y0=y0,
                               record_at=range(every, K_pdhg + 1, every)))
    out["pdhg_iter_us_min"] = min(chunks)
    out["pdhg_iter_us_p50"] = statistics.median(chunks)
    out["epoch_over_pass"] = m * out["rapd1_iter_us_min"] / out["pdhg_iter_us_min"]
    return out


def bilinear_ladder(K: int, seed: int):
    A = np.random.default_rng(seed).standard_normal((D, N)) / np.sqrt(N)
    step = 0.95 / spectral_norm(A)   # the benchmark's pdhg steps
    for m in BILINEAR_RUNGS:
        part = BlockPartition.even(N, m)
        problem = build_bilinear_erm([A[:, sl] for sl in part.slices()],
                                     [SquaredL2(0.5) for _ in range(m)],
                                     IndicatorSimplex(1.0), partition=part)
        y0 = problem.h.project_domain(np.zeros(D))
        yield rung(problem, np.zeros(N), y0, (step, step), PDHG_RUN["bilinear"], K, seed)


def oracle_columns(problem, x0, y0) -> dict:
    """Iterations and seconds of the 1e-10 certificate from ``(x0, y0)``."""
    tic = time.perf_counter()
    cert = solve_high_accuracy(problem, tol=1e-10, x0=x0, y0=y0)
    return {"oracle_iterations": cert.iterations, "oracle_s": time.perf_counter() - tic,
            "oracle_certified": cert.certified}


def kernel_ladder(K: int, seed: int):
    for n in KERNEL_RUNGS:
        problem = build_kernel_problem(synth_dataset(n_tr=n, d=10, seed=7), lam=1.0,
                                       m_blocks=KERNEL_BLOCKS, dual_geometry="entropy",
                                       lipschitz_scale=_KERNEL_LIPSCHITZ_SCALE)
        c, m = problem.constants, problem.partition.m
        s1 = part1_schedule(c, m, default_alpha(c))
        # the benchmark's pdhg steps: rapd1's smallest primal step, m times its dual step
        steps = (float(s1.tau.min()), s1.sigma * m)
        x0, y0 = np.zeros(n), dual_start(problem)
        yield {**rung(problem, x0, y0, steps, PDHG_RUN["kernel"], K, seed),
               **oracle_columns(problem, x0, y0)}


LADDERS = {
    "bilinear": (bilinear_ladder, {"n": N, "d": D, "coupling": "bilinear, A Gaussian / sqrt(n)",
                                   "f_i": "SquaredL2(0.5)", "h": "unit simplex",
                                   "pdhg_steps": "tau = sigma = 0.95 / ||A||"}),
    "kernel": (kernel_ladder, {"coupling": "multiple-kernel SVM (poly2, gauss, linear)",
                               "d": 10, "m": KERNEL_BLOCKS, "lam": 1.0, "dual": "entropy",
                               "lipschitz_scale": _KERNEL_LIPSCHITZ_SCALE,
                               "dataset_seed": 7,
                               "pdhg_steps": "tau = min tau_i, sigma = m sigma (rapd1)"}),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--iterations", type=int, default=10_000,
                    help="rapd iterations per timed run (default 10000)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="write the results as JSON here")
    args = ap.parse_args(argv)
    ladders = {}
    for name, (ladder, problem) in LADDERS.items():
        rungs = []
        for res in ladder(args.iterations, args.seed):
            rungs.append(res)
            print(name, " ".join(f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}"
                                 for k, v in res.items()), flush=True)
        ladders[name] = {"problem": problem, "rungs": rungs}
    result = {
        "script": "scripts/size_ladder.py",
        "iterations": args.iterations, "seed": args.seed,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "blas_threads": BLAS_THREADS,
                        "nproc": len(os.sched_getaffinity(0)),
                        "machine": platform.machine()},
        "ladders": ladders,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
