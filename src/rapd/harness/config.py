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
    "method.lipschitz_scale": (float, 1.0),    # multiplies every smoothness constant
    "method.tau": (float, 0.0),                # pdhg primal step; 0 = derive
    "method.sigma": (float, 0.0),              # pdhg dual step; 0 = derive
    "method.L": (float, 0.0),                  # mirror-prox constant; 0 = estimate

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
    if v["problem.type"] not in ("quadratic_game", "bilinear_erm", "constrained", "kernel"):
        raise ConfigError(f"unknown problem.type {v['problem.type']!r}")
    if v["method.name"] not in ("rapd1", "rapd2", "pdhg", "mirror_prox"):
        raise ConfigError(f"unknown method.name {v['method.name']!r}")
    if v["run.K"] < 1:
        raise ConfigError("run.K must be >= 1")
    for key in _ZERO_MEANS_DEFAULT:
        if not v[key] >= 0:
            raise ConfigError(f"{key} must be >= 0 (0 = default), got {v[key]}")
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
