"""Run configuration: flat INI-style key-value sections.

A config fully determines a run (given the seed), so identical configs
reproduce identical outputs byte for byte.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .forms import MetricField
from .torus import AffineTorus


@dataclass
class RunConfig:
    dim: int = 1
    resolution: int = 64
    backend: str = "spectral"

    metric_type: str = "constant"      # constant | conformal_sin | file
    metric_matrix: list = field(default_factory=lambda: [1.0])
    metric_amplitude: float = 0.5
    metric_axis: int = 1               # 1-based axis for builtin families
    metric_path: str = ""

    rank: int = 1
    bundle_field: str = "complex"
    monodromy: list = field(default_factory=list)   # list of row-major lists

    epsilon_factor: float = 0.5
    epsilon_min: float = 1e-4
    newton_tol: float = 1e-8
    max_steps: int = 200
    m_max: float = 25.0

    perturb_amplitude: float = 0.0
    perturb_modes: int = 1

    out_dir: str = "out"
    seed: int = 0
    quiet: bool = False

    def validate(self):
        if self.dim not in (1, 2, 3):
            raise ValidationError(f"torus dim {self.dim} not in 1..3")
        if self.resolution < 8:
            raise ValidationError("resolution must be >= 8")
        if self.metric_type not in ("constant", "conformal_sin", "file"):
            raise ValidationError(f"unknown metric type {self.metric_type!r}")
        if self.metric_type == "file" and not Path(self.metric_path).exists():
            raise ValidationError(f"metric file {self.metric_path!r} does not exist")
        if self.rank < 1:
            raise ValidationError(f"[bundle] rank = {self.rank} must be >= 1")
        if len(self.monodromy) != self.dim:
            raise ValidationError(
                f"need {self.dim} monodromy matrices, got {len(self.monodromy)}"
            )
        for m in self.monodromy:
            if len(m) != self.rank**2:
                raise ValidationError("monodromy entries must be rank^2 numbers")
        if not 0 < self.epsilon_factor < 1:
            raise ValidationError("epsilon_factor must be in (0,1)")
        for key in ("epsilon_min", "newton_tol", "m_max"):
            value = getattr(self, key)
            if not 0 < value < np.inf:
                raise ValidationError(f"[solver] {key} = {value} must be finite and > 0")
        if self.max_steps < 1:
            raise ValidationError(f"[solver] max_steps = {self.max_steps} must be >= 1")
        if not 0 <= self.perturb_amplitude < np.inf:  # also rejects nan
            raise ValidationError(f"[perturbation] amplitude = {self.perturb_amplitude} "
                                  "must be finite and >= 0")
        if self.perturb_modes < 1:
            raise ValidationError(f"[perturbation] modes = {self.perturb_modes} must be >= 1")
        if not 1 <= self.metric_axis <= self.dim:
            raise ValidationError("metric axis out of range")
        return self

    def torus(self) -> AffineTorus:
        return AffineTorus(self.dim, self.resolution, self.backend)

    def metric(self, torus: AffineTorus) -> MetricField:
        n = torus.dim
        if self.metric_type == "constant":
            vals = list(self.metric_matrix)
            if len(vals) == 1:
                g0 = vals[0] * np.eye(n)
            elif len(vals) == n * n:
                g0 = np.array(vals).reshape(n, n)
            else:
                raise ValidationError(
                    f"constant metric needs 1 or {n*n} entries, got {len(vals)}"
                )
            return MetricField(torus, g0)
        if self.metric_type == "conformal_sin":
            x = torus.coordinate(self.metric_axis - 1)
            factor = 1.0 + self.metric_amplitude * np.sin(2 * np.pi * x)
            if not factor.min() > 0:  # a nan amplitude fails here too
                raise ValidationError(f"[metric] amplitude = {self.metric_amplitude} makes "
                                      "the conformal_sin metric degenerate or non-finite")
            return MetricField(
                torus, np.eye(n)[(None,) * n] * factor[..., None, None]
            )
        from .fields_io import load_field

        fdim, fN, tag, rank, data = load_field(self.metric_path)
        if (fdim, fN) != (torus.dim, torus.resolution) or tag != "metric":
            raise ValidationError("metric file does not match the torus grid")
        return MetricField(torus, data.real)

    def bundle(self):
        from .bundle import build_bundle

        mats = [np.array(m, dtype=complex).reshape(self.rank, self.rank)
                for m in self.monodromy]
        if self.bundle_field == "real":
            mats = [m.real for m in mats]
        return build_bundle(mats, self.bundle_field)


def _floats(s: str) -> list:
    return [float(tok) for tok in s.replace(",", " ").split()]


# [section] key -> (RunConfig field, parser of the value).  [bundle] also
# takes monodromy1 .. monodromyK, one per torus axis; they all use the
# "monodromy" entry.  Any other section or key is an error.
CONFIG_KEYS = {
    "torus": {"dim": ("dim", int), "resolution": ("resolution", int),
              "backend": ("backend", str)},
    "metric": {"type": ("metric_type", str), "matrix": ("metric_matrix", _floats),
               "amplitude": ("metric_amplitude", float), "axis": ("metric_axis", int),
               "path": ("metric_path", str)},
    "bundle": {"rank": ("rank", int), "field": ("bundle_field", str),
               "monodromy": ("monodromy", _floats)},
    "solver": {"epsilon_factor": ("epsilon_factor", float),
               "epsilon_min": ("epsilon_min", float),
               "newton_tol": ("newton_tol", float), "max_steps": ("max_steps", int),
               "m_max": ("m_max", float)},
    "perturbation": {"amplitude": ("perturb_amplitude", float),
                     "modes": ("perturb_modes", int)},
    "output": {"dir": ("out_dir", str), "seed": ("seed", int)},
}


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser(default_section="")  # so [DEFAULT] is unknown
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"config file {path!r} is malformed: {exc}") from None
    if not read:
        raise ValidationError(f"config file {path!r} not found or unreadable")
    cfg = RunConfig()
    monodromy = {}
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ValidationError(f"unknown config section [{section}]")
        for key, raw in cp[section].items():
            numbered = section == "bundle" and key.startswith("monodromy")
            slot = "monodromy" if numbered else key
            if slot not in CONFIG_KEYS[section]:
                raise ValidationError(f"unknown config key {key!r} in [{section}]")
            name, parse = CONFIG_KEYS[section][slot]
            try:
                value = parse(raw)
            except ValueError:
                raise ValidationError(
                    f"[{section}] {key} = {raw!r} does not parse") from None
            if numbered:
                monodromy[key] = value
            else:
                setattr(cfg, name, value)
    try:  # K distinct keys covering monodromy1..monodromyK are exactly those
        cfg.monodromy = [monodromy[f"monodromy{k + 1}"] for k in range(len(monodromy))]
    except KeyError as exc:
        raise ValidationError(f"monodromy keys must run monodromy1..monodromyK; "
                              f"{exc.args[0]} is missing") from None
    if not cfg.monodromy and cfg.rank >= 1:  # validate() rejects rank < 1
        cfg.monodromy = [list(np.eye(cfg.rank).ravel()) for _ in range(cfg.dim)]
    return cfg
