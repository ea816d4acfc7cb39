"""Run configuration: flat INI-style key = value files with sections.

Grammar (configparser dialect):
  - sections in square brackets: [model], [grid], [solver], [dynamics],
    [spectral], [sweep], [output];
  - one `key = value` per line; `#` or `;` start comments; keys are
    lower_snake_case; floats use '.' decimals; lists are comma-separated;
  - retired keys, `[solver] max_iter` (the flow stops when its defect
    stalls), `[spectral] l_max` (the sectors end where the spectrum says),
    `[sweep] tail_decades` (every sweep grid ends 7 decades down its
    predicted tail) and `[output] seed` / `dir`, load and are dropped, so
    that older configs still load.

Every field has a default except the model parameters (d, a, p), which any
single-point subcommand requires; `sweep` reads its own section instead.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from .exceptions import InvalidParameterError
from .model import ModelParams


@dataclass
class RunConfig:
    # model
    d: int = 1
    a: float = 0.0
    p: float = 3.0
    omega: float = 1.0
    # grid (r_max / gamma 0 = omitted: presets.point_grid's rule fills them in)
    n: int = 16384
    r_max: float = 0.0
    grid_gamma: float = 0.0
    # solver
    tol: float = 1e-8
    pohozaev_threshold: float = 1e-6
    shoot: bool = False
    # dynamics
    t_final: float = 10.0
    dt: float = 1e-3
    lambda_scale: float = 1.0
    record_every: int = 1
    # spectral
    eigenfunctions: bool = False
    # sweep
    sweep_d: int = 1
    sweep_a_values: tuple[float, ...] = (0.0, 0.25, 0.5)
    sweep_p_values: tuple[float, ...] = (2.0, 3.0, 5.0, 7.0)
    sweep_n: int = 65536

    def params(self) -> ModelParams:
        return ModelParams(self.d, self.a, self.p, self.omega)


# Each [section] key and the RunConfig field it sets; a value is parsed as the
# type of its field's default.  A retired key maps to None: it loads, so that
# older configs do, and is dropped.
_LAYOUT = {
    "model": {"d": "d", "a": "a", "p": "p", "omega": "omega"},
    "grid": {"n": "n", "r_max": "r_max", "gamma": "grid_gamma"},
    "solver": {"tol": "tol", "max_iter": None, "pohozaev_threshold": "pohozaev_threshold",
               "shoot": "shoot"},
    "dynamics": {"t_final": "t_final", "dt": "dt", "lambda_scale": "lambda_scale",
                 "record_every": "record_every"},
    "spectral": {"l_max": None, "eigenfunctions": "eigenfunctions"},
    "sweep": {"d": "sweep_d", "a_values": "sweep_a_values", "p_values": "sweep_p_values",
              "n": "sweep_n", "tail_decades": None},
    "output": {"seed": None, "dir": None},
}


def _parse_value(raw: str, kind):
    raw = raw.strip()
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise InvalidParameterError(f"expected a boolean, got {raw!r}")
    if kind is tuple:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    return kind(raw)


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        parser.read_file(fh)
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _LAYOUT:
            raise InvalidParameterError(f"unknown section [{section}]")
        fields = _LAYOUT[section]
        for key in parser.options(section):
            if key not in fields:
                raise InvalidParameterError(f"unknown key '{key}' in section [{section}]")
            if fields[key] is None:
                continue
            kind = type(getattr(RunConfig, fields[key]))     # the class holds the defaults
            setattr(cfg, fields[key], _parse_value(parser.get(section, key), kind))
    return cfg

