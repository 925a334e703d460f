"""Flat ``section.key = value`` experiment configuration.

One assignment per line; ``#`` starts a comment; keys are dotted paths
with exactly one dot.  Unknown keys are rejected with their line number,
as are missing required keys, so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigError

# key -> (type, default); REQUIRED means no default
_REQUIRED = object()

_SCHEMA = {
    "problem.type": (str, _REQUIRED),          # quadratic_game|bilinear_erm|constrained|kernel
    "problem.seed": (int, 0),                  # instance seed (data, matrices)
    "problem.n": (int, 32),
    "problem.d": (int, 8),
    "problem.blocks": (int, 8),
    "problem.f": (str, "zero"),                # zero|l1|sql2|nonneg
    "problem.f_param": (float, 0.1),
    "problem.h": (str, "zero"),                # zero|ball|sql2|simplex|nonneg
    "problem.h_param": (float, 1.0),
    "problem.strongly_convex": (bool, False),  # quadratic_game: Q=0, sql2 blocks
    "problem.lam": (float, 1.0),               # kernel ridge weight
    "problem.B": (float, 0.0),                 # kernel/constrained dual bound; 0 = default
    "problem.separation": (float, 2.0),        # synthetic dataset cluster offset
    "problem.bandwidth": (float, 0.1),
    "problem.dual_geometry": (str, "entropy"),  # kernel: entropy|euclidean

    "method.name": (str, _REQUIRED),           # rapd1|rapd2|pdhg|mirror_prox
    "method.alpha": (float, 0.0),              # 0 = default max_i L_yx_i
    "method.c_tau": (float, 0.99),
    "method.c_sigma": (float, 0.99),
    "method.p": (str, "uniform"),              # uniform or comma-separated weights
    "method.tau": (float, 0.0),                # pdhg primal step; 0 = rapd1's at m = 1
    "method.sigma": (float, 0.0),              # pdhg dual step; 0 = rapd1's at m = 1
    "method.L": (float, 0.0),                  # mirror-prox constant; 0 = estimate, for
                                               # bilinear_erm|quadratic_game|constrained

    "run.K": (int, 1000),
    "run.seeds": (str, "0"),                   # "a:b" range or comma list
    "run.metric_cadence": (int, 0),            # 0 = log-spaced records
    "run.certificate": (str, ""),              # optional .npz path for metrics

    "output.dir": (str, "out"),
    "output.csv": (bool, True),
    "output.summary": (bool, True),
}

#: keys whose 0 selects a default; a negative value is a typo, not a default
_ZERO_MEANS_DEFAULT = ("problem.B", "method.alpha", "method.tau", "method.sigma",
                       "method.L", "run.metric_cadence")

#: the method keys and ``problem.blocks`` each method reads; the others keep their defaults
_METHOD_READS = {
    "rapd1": ("problem.blocks", "method.alpha", "method.c_tau", "method.c_sigma", "method.p"),
    "rapd2": ("problem.blocks", "method.alpha", "method.c_sigma", "method.p"),
    "pdhg": ("method.tau", "method.sigma"),
    "mirror_prox": ("method.L",),
}

#: the problem keys each problem type reads besides ``problem.seed``,
#: ``problem.n``, ``problem.d`` and ``problem.blocks``; the others must keep
#: their defaults
_PROBLEM_READS = {
    "quadratic_game": ("problem.f", "problem.f_param", "problem.h", "problem.h_param",
                       "problem.strongly_convex"),
    "bilinear_erm": ("problem.f", "problem.f_param", "problem.h", "problem.h_param"),
    "constrained": ("problem.f", "problem.f_param", "problem.B"),
    "kernel": ("problem.lam", "problem.B", "problem.separation", "problem.bandwidth",
               "problem.dual_geometry"),
}


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def seeds(self) -> list:
        spec = self.values["run.seeds"]
        if ":" in spec:
            a, b = spec.split(":", 1)
            return list(range(int(a), int(b)))
        return [int(s) for s in spec.split(",") if s.strip() != ""]

    def probabilities(self, m: int):
        spec = self.values["method.p"]
        if spec == "uniform":
            return None
        p = np.array([float(s) for s in spec.split(",")])
        if p.size != m:
            raise ConfigError(f"method.p has {p.size} entries, problem has {m} blocks")
        return p


def _coerce(key: str, raw: str, lineno: int):
    typ, _ = _SCHEMA[key]
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {raw!r} as "
                          f"{typ.__name__}") from exc


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw, lineno)
    for key, (_, default) in _SCHEMA.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default
    cfg = ExperimentConfig(values=values)
    _validate(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _validate(cfg: ExperimentConfig):
    v = cfg.values
    kind = v["problem.type"]
    if kind not in _PROBLEM_READS:
        raise ConfigError(f"unknown problem.type {kind!r}")
    name = v["method.name"]
    if name not in _METHOD_READS:
        raise ConfigError(f"unknown method.name {name!r}")
    if v["run.K"] < 1:
        raise ConfigError("run.K must be >= 1")
    for key in _ZERO_MEANS_DEFAULT:
        if not v[key] >= 0:
            raise ConfigError(f"{key} must be >= 0 (0 = default), got {v[key]}")
    for table, reads, where in ((_PROBLEM_READS, _PROBLEM_READS[kind], f"problem.type = {kind}"),
                                (_METHOD_READS, _METHOD_READS[name], f"method.name = {name}")):
        for key in sorted(set().union(*table.values()) - set(reads)):
            if v[key] != _SCHEMA[key][1]:
                raise ConfigError(f"{key} = {v[key]} does nothing for {where}; "
                                  f"leave it at its default {_SCHEMA[key][1]!r}")
    try:
        seeds = cfg.seeds()
    except ValueError as exc:
        raise ConfigError(f"cannot parse run.seeds = {v['run.seeds']!r}") from exc
    if not seeds:
        raise ConfigError("run.seeds is empty")
    try:
        cfg.probabilities(v["problem.blocks"])
    except ValueError as exc:
        raise ConfigError(f"cannot parse method.p = {v['method.p']!r}") from exc
