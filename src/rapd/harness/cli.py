"""Command-line entry point.

Subcommands:

- ``run``    one configured experiment; writes a trace CSV (deterministic
             body; timing in header comments) and a key=value summary.
- ``bench``  a named suite (bilinear | quadratic | strongly-convex |
             kernel); prints the rate report, nonzero exit on failure.
- ``check``  validates the configured setup: step-size condition over a
             schedule prefix, gradient consistency, sampled smoothness
             bounds.
- ``oracle`` computes and persists a saddle certificate (.npz).

Exit codes: 0 ok, 1 config error or invalid parameters, dimensions or
domains, 2 regime violation, 3 divergence, 4 acceptance/verification
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..exceptions import (ConfigError, DimensionError, DivergenceError,
                          DomainError, ParameterError, RegimeError)
from ..oracle import save_certificate, solve_high_accuracy
from ..problem import grad_check, lipschitz_spot_check
from ..stepsize import check_assumption2, schedule_prefix
from .config import load_config
from .suites import (build_problem_from_config, make_schedule_from_config,
                     run_from_config, suite_by_name, write_summary,
                     write_trace_csv)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_REGIME = 2
EXIT_DIVERGENCE = 3
EXIT_FAILURE = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rapd",
                                 description="randomized primal-dual solver harness")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=Path, default=None)

    p_bench = sub.add_parser("bench", help="execute a named suite")
    p_bench.add_argument("--suite", required=True)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--out", type=Path, default=None)

    p_check = sub.add_parser("check", help="validate a configuration")
    p_check.add_argument("--config", required=True, type=Path)

    p_oracle = sub.add_parser("oracle", help="compute a saddle certificate")
    p_oracle.add_argument("--config", required=True, type=Path)
    p_oracle.add_argument("--tol", type=float, default=1e-10)
    p_oracle.add_argument("--out", type=Path, default=None)
    return ap


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out if args.out is not None else Path(cfg["output.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [args.seed] if args.seed is not None else cfg.seeds()
    for seed in seeds:
        trace = run_from_config(cfg, seed)
        base = out_dir / f"{cfg['method.name']}_seed{seed}"
        if cfg["output.csv"]:
            write_trace_csv(base.with_suffix(".csv"), trace)
        if cfg["output.summary"]:
            entries = {
                "method": cfg["method.name"],
                "seed": seed,
                "iterations": trace.iterations,
                "wall_total_s": f"{trace.wall_total_s:.6f}",
                "final_x_norm": float(np.linalg.norm(trace.final_x)),
                "final_y_norm": float(np.linalg.norm(trace.final_y)),
            }
            if trace.records and not np.isnan(trace.records[-1].gap):
                entries["final_gap"] = trace.records[-1].gap
                entries["final_dist_sq"] = trace.records[-1].dist_sq
            write_summary(base.with_suffix(".summary"), entries)
        print(f"wrote {base}.csv ({trace.iterations} iterations, "
              f"{trace.wall_total_s:.2f}s)")
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = suite_by_name(args.suite, jobs=args.jobs)
    for line in report.lines():
        print(line)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        with open(args.out / f"bench_{args.suite}.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(report.lines()) + "\n")
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    problem, _, _ = build_problem_from_config(cfg)
    failures = []

    if cfg["method.name"] in ("rapd1", "rapd2"):
        sched = make_schedule_from_config(cfg, problem)
        prefix = schedule_prefix(sched, min(cfg["run.K"], 1000))
        report = check_assumption2(prefix, problem.constants, problem.partition.m)
        print(report)
        if not report.satisfied:
            failures.append("step-size condition")

    gerr = grad_check(problem, num_points=5, epsilon=1e-5)
    print(f"gradient check: max relative error {gerr:.3e}")
    if gerr > 1e-6:
        failures.append("gradient check")

    project_x = getattr(problem, "project_primal_domain", None)
    spot = lipschitz_spot_check(problem, draws=200, project_x=project_x)
    worst = min(spot.values())
    print("smoothness spot-check worst slacks: "
          + ", ".join(f"{k}={v:.3e}" for k, v in spot.items()))
    if worst < -1e-8:
        failures.append("smoothness bounds")

    if failures:
        print(f"FAIL: {', '.join(failures)}")
        return EXIT_FAILURE
    print("all checks passed")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    problem, x0, y0 = build_problem_from_config(cfg)
    cert = solve_high_accuracy(problem, tol=args.tol, x0=x0, y0=y0)
    out = args.out if args.out is not None else Path(cfg["output.dir"]) / "certificate.npz"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_certificate(out, cert)
    print(f"certificate: residual {cert.kkt_residual:.3e} after {cert.iterations} "
          f"iterations (certified={cert.certified}) -> {out}")
    return EXIT_OK if cert.certified else EXIT_FAILURE


def cli_main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_oracle(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParameterError, DimensionError, DomainError) as exc:
        print(f"invalid setup: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
