"""Size ladder: rapd's cost per iteration against the block size.

Runs the bilinear coupling of the benchmark's bilinear-large workload
(n = 16384, d = 512, A Gaussian / sqrt(n), f_i = SquaredL2(0.5), h the unit
simplex) at m = 64, 128 and 256 blocks, so the block size n_i = n/m halves
at each rung while n and d stay fixed.  For each rung it reports

- the block phases alone, each averaged over 2000 random blocks: the
  block gradient read off the cached primal product, the product's
  update from one block, and the block prox;
- the fastest and the median per-iteration chunk of ``run`` in both step
  regimes (records every 50 iterations);
- one full primal product ``A x``, the work of a full pass.

The block phases should halve with n_i; the whole iteration also holds
the dual step on the d-vector, which does not depend on m.

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

BLAS_THREADS = 2
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from rapd import (IndicatorSimplex, RunOptions, SquaredL2, build_bilinear_erm,  # noqa: E402
                  default_alpha, part1_schedule, part2_init, run)
from rapd.blockcore import BlockPartition  # noqa: E402
from rapd.bregman import bregman_prox  # noqa: E402

N, D = 16384, 512
RUNGS = (64, 128, 256)
PHASE_CALLS = 2000


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


def rung(A, m: int, K: int, seed: int) -> dict:
    part = BlockPartition.even(N, m)
    f = [SquaredL2(0.5) for _ in range(m)]
    problem = build_bilinear_erm([A[:, sl] for sl in part.slices()], f,
                                 IndicatorSimplex(1.0), partition=part)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(N) / np.sqrt(N)
    y = problem.h.project_domain(rng.standard_normal(D))
    w = problem.primal_product(x)
    blocks = rng.integers(m, size=PHASE_CALLS)
    slices = part.slices()
    dx = rng.standard_normal(part.sizes[0]) * 1e-12
    geom = problem.primal_geometry[0]
    out = {
        "m": m, "n_i": part.sizes[0],
        "block_gradient_us": per_call_us(
            lambda i: problem.grad_x_block_cached(i, w, x, y), blocks),
        "product_update_us": per_call_us(
            lambda i: problem.grad_y_incremental(w, i, dx), blocks),
        "block_prox_us": per_call_us(
            lambda i: bregman_prox(geom, f[i], 0.1, dx, x[slices[i]]), blocks),
        "full_product_us": per_call_us(lambda i: problem.primal_product(x), blocks[:20]),
    }
    y0 = problem.h.project_domain(np.zeros(D))
    c = problem.constants
    for name, sched in (("rapd1", part1_schedule(c, m, default_alpha(c))),
                        ("rapd2", part2_init(c, m, default_alpha(c)))):
        run(problem, sched, 500, seed, x0=np.zeros(N), y0=y0)  # warm-up
        tr = run(problem, sched, K, seed, x0=np.zeros(N), y0=y0,
                 options=RunOptions(record_at=range(50, K + 1, 50)))
        chunks = chunk_us(tr)
        out[f"{name}_iter_us_min"] = min(chunks)
        out[f"{name}_iter_us_p50"] = statistics.median(chunks)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--iterations", type=int, default=10_000,
                    help="iterations per timed run (default 10000)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="write the results as JSON here")
    args = ap.parse_args(argv)
    A = np.random.default_rng(args.seed).standard_normal((D, N)) / np.sqrt(N)
    rungs = []
    for m in RUNGS:
        res = rung(A, m, args.iterations, args.seed)
        rungs.append(res)
        print(" ".join(f"{k}={v:.1f}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in res.items()), flush=True)
    result = {
        "script": "scripts/size_ladder.py",
        "problem": {"n": N, "d": D, "coupling": "bilinear, A Gaussian / sqrt(n)",
                    "f_i": "SquaredL2(0.5)", "h": "unit simplex"},
        "iterations": args.iterations, "seed": args.seed,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "blas_threads": BLAS_THREADS,
                        "nproc": len(os.sched_getaffinity(0)),
                        "machine": platform.machine()},
        "rungs": rungs,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
