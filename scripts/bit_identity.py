"""Bit-identity artefacts: everything a refactor must leave unchanged.

Writes into one directory what this tree computes on a fixed matrix:

- configured runs (``run_from_config``) of rapd1, rapd2, pdhg and
  mirror_prox, K = 3000, seeds 0 and 1, with metrics against a 1e-8
  certificate, on seven configs: the quadratic game (plain and strongly
  convex), bilinear ERM (uniform and non-uniform ``method.p``; the
  non-uniform one only for rapd1 and rapd2, which read it; and pdhg
  alone at the given steps ``method.tau = method.sigma = 0.5``), the
  constrained program and the kernel problem at n = 40.  rapd1 and rapd2
  run on ``BLOCKS`` blocks; pdhg and mirror_prox read no block count and
  run on one.  Per run:
  ``<config>/<method>_seed<s>.csv``, the trace CSV body without its ``#``
  header lines; ``<config>/<method>_seed<s>_<name>.npy`` for ``final_x``,
  ``final_y``, ``ergodic_x`` and ``ergodic_y``; or, for a run that raises,
  ``<config>/<method>_seed<s>.err`` with one line;
- ``<config>/constants_<name>.npy``: ``L_xx``, ``L_yx``, ``L_yy`` and ``mu``
  of the instance the certificate is computed on, and
  ``kernel_desk/constants_<name>.npy``, those of ``kernel_desk()``;
- ``<config>/rapd2_prefix_<name>.npy`` for each config rapd2 runs on, and
  ``kernel_desk/rapd2_prefix_<name>.npy``: the fields ``theta``,
  ``sigma``, ``tau_tilde``, ``t``, ``alpha`` and ``tau`` of the states
  ``k = 0 .. PREFIX`` of ``schedule_prefix`` from the accelerated
  schedule, the recursion ``rapd check`` replays (``tau`` one row per
  state); or ``rapd2_prefix.err`` with one line where the schedule raises;
- ``suite_<name>.txt``: the fields of the four named suite reports,
  without wall times;
- ``instances/*.npy``: the rate suites' two quadratic-game instances and
  the exact certificate of the second;
- ``prox/<class>_<name>``: for each function of ``PROX_FUNCTIONS``, one of
  every concrete prox-friendly class of ``rapd.bregman``, on the fixed
  points ``PROX_POINTS`` (inside and outside its domain): ``value``,
  ``prox_euclidean`` at each step of ``PROX_STEPS`` (``prox_t1e-03`` ...),
  ``project_domain``, ``feasibility_gap`` and ``prox_entropy`` on
  ``ENTROPY_POINTS`` at those steps, each as ``.npy`` or, where it raises,
  ``.err`` with one line; and ``attrs.txt``, the class attributes the
  solvers read.

The script imports ``rapd`` from ``PYTHONPATH`` when it is set there, so
the same file compares any two trees:

    PYTHONPATH=src python3 scripts/bit_identity.py --out /tmp/new
    PYTHONPATH=/path/to/other/src python3 scripts/bit_identity.py --out /tmp/old
    diff -r /tmp/old /tmp/new

``--compare OLD NEW`` says how far two such directories differ: the
largest absolute deviation of each differing ``.npy`` file, the largest
relative deviation ``|a - b| / max(|a|, |b|)`` of each differing CSV
column, and the name of any other file that differs or exists on one
side only.  It exits 1 when anything differs:

    python3 scripts/bit_identity.py --compare /tmp/old /tmp/new

The suites take about 4.5 s of the run's 7 s (one BLAS thread, 2-core Xeon).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

# PYTHONPATH comes first on sys.path, so this tree's src is only a fallback
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "src"))

import numpy as np  # noqa: E402

import rapd  # noqa: E402
from rapd.bregman import (ConeDualBall, IndicatorBall, IndicatorBox,  # noqa: E402
                          IndicatorNonneg, IndicatorSimplex, L1, NonnegQuadratic,
                          Separable, SquaredL2, Zero)
from rapd.harness.config import parse_config  # noqa: E402
from rapd.harness.suites import (build_problem_from_config,  # noqa: E402
                                 make_schedule_from_config, part1_suite_problem,
                                 part2_suite_certificate, part2_suite_problem,
                                 run_from_config, suite_by_name, write_trace_csv)
from rapd.kernel_learning import kernel_desk  # noqa: E402
from rapd.oracle import save_certificate, solve_high_accuracy  # noqa: E402
from rapd.stepsize import default_alpha, part2_init, schedule_prefix  # noqa: E402

METHODS = ("rapd1", "rapd2", "pdhg", "mirror_prox")
SEEDS = (0, 1)
K = 3000
#: advances of the accelerated schedule in each ``rapd2_prefix`` artefact
PREFIX = 1000
PREFIX_FIELDS = ("theta", "sigma", "tau_tilde", "t", "alpha", "tau")

_QUADRATIC = ("problem.type = quadratic_game\nproblem.seed = 3\nproblem.n = 32\n"
              "problem.d = 8\n")
_BILINEAR = ("problem.type = bilinear_erm\nproblem.seed = 4\nproblem.n = 32\n"
             "problem.d = 8\nproblem.f = sql2\nproblem.f_param = 0.5\nproblem.h = simplex\n")
#: label -> (problem keys, methods to run, method keys besides method.name)
CONFIGS = {
    "quadratic": (_QUADRATIC + "problem.f = l1\nproblem.h = ball\n", METHODS, ""),
    "quadratic_sc": (_QUADRATIC + "problem.strongly_convex = true\nproblem.f = sql2\n"
                     "problem.f_param = 0.5\nproblem.h = sql2\nproblem.h_param = 0.5\n",
                     METHODS, ""),
    "bilinear": (_BILINEAR, METHODS, ""),
    "bilinear_p": (_BILINEAR, ("rapd1", "rapd2"), "method.p = 0.4,0.3,0.2,0.1\n"),
    "bilinear_steps": (_BILINEAR, ("pdhg",), "method.tau = 0.5\nmethod.sigma = 0.5\n"),
    "constrained": ("problem.type = constrained\nproblem.seed = 5\nproblem.n = 32\n"
                    "problem.d = 6\nproblem.f = sql2\nproblem.f_param = 0.5\n", METHODS, ""),
    "kernel": ("problem.type = kernel\nproblem.seed = 6\nproblem.n = 40\nproblem.d = 5\n",
               METHODS, ""),
}
#: label -> ``problem.blocks`` of the rapd1 and rapd2 runs and the certificate
BLOCKS = {"quadratic": 8, "quadratic_sc": 8, "bilinear": 4, "bilinear_p": 4,
          "bilinear_steps": 4, "constrained": 4, "kernel": 4}

#: one function of each concrete prox-friendly class, on 5 coordinates
PROX_FUNCTIONS = (Zero(), L1(0.3), SquaredL2(0.5), NonnegQuadratic(0.5), IndicatorNonneg(),
                  IndicatorBox(-0.5, 0.5), IndicatorBall(1.0), IndicatorSimplex(2.0),
                  ConeDualBall("nonneg", 1.0),
                  Separable([(IndicatorSimplex(2.0), 3), (Zero(), 1), (L1(0.3), 1)]))
#: rows: inside every domain (the unit simplex, if rounded), the origin,
#: outside every domain, and far outside with tiny entries
PROX_POINTS = np.array([[0.1, 0.2, 0.3, 0.15, 0.25],
                        [0.0, 0.0, 0.0, 0.0, 0.0],
                        [3.0, -4.0, 0.5, -0.25, 2.0],
                        [-1e-3, 1e-8, 2.5e2, -7.0, -1e-300]])
#: positive points, the entropy prox's domain
ENTROPY_POINTS = np.array([[0.5, 1.5, 2.0, 1e-3, 3.0], [1e-300, 1.0, 1e-8, 4.0, 0.25]])
PROX_STEPS = (1e-3, 1.0, 1e3)

#: report fields that hold measured wall time
WALL_FIELDS = ("oracle_seconds", "seconds")


def _fmt(v) -> str:
    """Exact text of a report value (floats by ``repr``, which round-trips)."""
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k!r}: {_fmt(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    if isinstance(v, np.ndarray):
        return _fmt(v.tolist())
    if isinstance(v, (bool, np.bool_)):
        return repr(bool(v))
    if isinstance(v, (int, np.integer)):
        return repr(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if dataclasses.is_dataclass(v):
        return _fmt({f.name: getattr(v, f.name) for f in dataclasses.fields(v)})
    return repr(v)


def write_constants(directory: Path, problem) -> None:
    """``constants_<name>.npy`` for each field of ``problem.constants``."""
    directory.mkdir(parents=True, exist_ok=True)
    for f in dataclasses.fields(problem.constants):
        np.save(directory / f"constants_{f.name}.npy", getattr(problem.constants, f.name))


def write_prefix(directory: Path, make_schedule) -> None:
    """``rapd2_prefix_<name>.npy`` for each of ``PREFIX_FIELDS`` over the
    states ``k = 0 .. PREFIX`` from ``make_schedule()``, or
    ``rapd2_prefix.err`` when that raises."""
    directory.mkdir(parents=True, exist_ok=True)
    stem = directory / "rapd2_prefix"
    try:
        prefix = schedule_prefix(make_schedule(), PREFIX)
    except Exception as exc:  # noqa: BLE001 - the error is the artefact
        stem.with_suffix(".err").write_text(f"{type(exc).__name__}: {exc}\n")
        return
    for name in PREFIX_FIELDS:
        np.save(f"{stem}_{name}.npy", np.array([getattr(s, name) for s in prefix]))


def _config_schedule(text: str):
    """The schedule ``run_from_config`` would run for the config ``text``."""
    cfg = parse_config(text)
    return make_schedule_from_config(cfg, build_problem_from_config(cfg)[0])[0]


def write_runs(out: Path, tmp: Path) -> None:
    for label, (text, methods, method_keys) in CONFIGS.items():
        blocks = f"problem.blocks = {BLOCKS[label]}\n"
        base = parse_config(text + blocks + "method.name = rapd1\n")
        problem, x0, y0 = build_problem_from_config(base)
        write_constants(out / label, problem)
        cert = solve_high_accuracy(problem, tol=1e-8, x0=x0, y0=y0)
        cert_path = tmp / f"{label}.npz"
        save_certificate(cert_path, cert)
        if "rapd2" in methods:
            write_prefix(out / label, lambda: _config_schedule(
                text + method_keys + blocks + "method.name = rapd2\n"))
        for method in methods:
            keys = method_keys + (blocks if method in ("rapd1", "rapd2") else "")
            cfg = parse_config(text + keys + f"method.name = {method}\n"
                               f"run.K = {K}\nrun.certificate = {cert_path}\n")
            for seed in SEEDS:
                stem = out / label / f"{method}_seed{seed}"
                try:
                    trace = run_from_config(cfg, seed)
                except Exception as exc:  # noqa: BLE001 - the error is the artefact
                    stem.with_suffix(".err").write_text(f"{type(exc).__name__}: {exc}\n")
                    continue
                csv = tmp / "trace.csv"
                write_trace_csv(csv, trace)
                body = [line for line in csv.read_text().splitlines(keepends=True)
                        if not line.startswith("#")]
                stem.with_suffix(".csv").write_text("".join(body))
                for name in ("final_x", "final_y", "ergodic_x", "ergodic_y"):
                    np.save(f"{stem}_{name}.npy", getattr(trace, name))


def write_instances(out: Path) -> None:
    inst = out / "instances"
    inst.mkdir(parents=True, exist_ok=True)
    for label, build in (("part1", part1_suite_problem), ("part2", part2_suite_problem)):
        problem, x0, y0 = build()
        arrays = {"P": problem.P, "Q": problem.Q, "C": problem.C, "p": problem.p,
                  "q": problem.q, "x0": x0, "y0": y0}
        for name, arr in arrays.items():
            np.save(inst / f"{label}_{name}.npy", arr)
        (inst / f"{label}_constants.txt").write_text(_fmt(problem.constants) + "\n")
        if label == "part2":
            cert = part2_suite_certificate(problem)
            np.save(inst / "part2_cert_x_star.npy", cert.x_star)
            np.save(inst / "part2_cert_y_star.npy", cert.y_star)
            (inst / "part2_cert.txt").write_text(
                _fmt({"kkt_residual": cert.kkt_residual, "tol": cert.tol}) + "\n")


def _save(stem: Path, compute) -> None:
    """``<stem>.npy`` holding ``compute()``, or ``<stem>.err`` when it raises."""
    try:
        value = compute()
    except Exception as exc:  # noqa: BLE001 - the error is the artefact
        stem.with_suffix(".err").write_text(f"{type(exc).__name__}: {exc}\n")
        return
    np.save(stem.with_suffix(".npy"), value)


def write_prox(out: Path) -> None:
    """The ``prox/`` artefacts of ``PROX_FUNCTIONS``."""
    out = out / "prox"
    out.mkdir(parents=True, exist_ok=True)
    for f in PROX_FUNCTIONS:
        name = type(f).__name__
        (out / f"{name}_attrs.txt").write_text(_fmt({
            a: getattr(f, a) for a in ("kind", "modulus", "coordinatewise",
                                       "entropy_scale_invariant")}) + "\n")
        _save(out / f"{name}_value", lambda: [f.value(u) for u in PROX_POINTS])
        _save(out / f"{name}_project", lambda: [f.project_domain(u) for u in PROX_POINTS])
        _save(out / f"{name}_gap", lambda: [f.feasibility_gap(u) for u in PROX_POINTS])
        for t in PROX_STEPS:
            _save(out / f"{name}_prox_t{t:.0e}",
                  lambda: [f.prox_euclidean(t, u) for u in PROX_POINTS])
            _save(out / f"{name}_entropy_t{t:.0e}",
                  lambda: [f.prox_entropy(t, w.copy()) for w in ENTROPY_POINTS])


def write_suites(out: Path) -> None:
    for name in ("bilinear", "quadratic", "strongly-convex", "kernel"):
        report = suite_by_name(name)
        lines = [f"{f.name}={_fmt(getattr(report, f.name))}"
                 for f in dataclasses.fields(report) if f.name not in WALL_FIELDS]
        (out / f"suite_{name}.txt").write_text("\n".join(lines) + "\n")


def _csv_columns(path: Path) -> dict:
    """Column name -> list of cell texts."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _rel_dev(a: str, b: str) -> float:
    """Relative deviation of two numeric cells; inf when only one parses,
    or one is NaN and they are unequal text; 0 for equal text, NaNs
    included, and for equal values such as ``0.0`` and ``-0.0``."""
    if a == b:
        return 0.0
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return np.inf
    if np.isnan(fa) or np.isnan(fb):
        return np.inf
    if fa == fb:   # equal values written differently, 0.0 and -0.0 among them
        return 0.0
    return abs(fa - fb) / max(abs(fa), abs(fb))


def compare(old: Path, new: Path) -> list:
    """One line per difference between two artefact directories."""
    names = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    names_new = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    lines = [f"{name}: only in {side}" for side, only in ((old, names - names_new),
                                                          (new, names_new - names))
             for name in sorted(only)]
    for name in sorted(names & names_new):
        a, b = old / name, new / name
        if a.read_bytes() == b.read_bytes():
            continue
        if name.suffix == ".npy":
            xa, xb = np.load(a), np.load(b)
            if xa.shape != xb.shape:
                lines.append(f"{name}: shape {xa.shape} -> {xb.shape}")
            else:
                lines.append(f"{name}: max abs deviation {np.abs(xa - xb).max():.3e}")
        elif name.suffix == ".csv":
            ca, cb = _csv_columns(a), _csv_columns(b)
            if list(ca) != list(cb) or any(len(ca[c]) != len(cb[c]) for c in ca):
                lines.append(f"{name}: columns or rows differ")
                continue
            devs = {c: max(map(_rel_dev, ca[c], cb[c]), default=0.0) for c in ca}
            lines.append(f"{name}: max rel deviation " + ", ".join(
                f"{c} {d:.3e}" for c, d in devs.items() if d > 0))
        else:
            lines.append(f"{name}: differs")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write the artefacts that two trees "
                                 "must agree on bit for bit, or compare two such "
                                 "directories")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="output directory")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                      help="report how far two output directories differ")
    args = ap.parse_args(argv)
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines) if lines else "identical")
        return 1 if lines else 0
    args.out.mkdir(parents=True, exist_ok=True)
    print(f"rapd from {os.path.dirname(rapd.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        write_runs(args.out, Path(tmp))
    desk = kernel_desk()[0]
    write_constants(args.out / "kernel_desk", desk)
    write_prefix(args.out / "kernel_desk", lambda: part2_init(
        desk.constants, desk.partition.m, default_alpha(desk.constants)))
    write_instances(args.out)
    write_prox(args.out)
    write_suites(args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
