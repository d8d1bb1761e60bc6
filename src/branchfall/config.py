"""Run configuration: line-oriented parsing, per-kind schemas, builders.

The file format is one `key = value` pair per line; blank lines and lines
starting with # are skipped.  Every experiment kind declares its full key
set below; unknown keys are rejected by name so typos cannot silently fall
back to defaults.
"""

from __future__ import annotations

import math

from .dynamics import (
    Potential,
    double_well_potential,
    free_potential,
    harmonic_potential,
)
from .mechanisms import _step_count
from .pointer import PhasePartition, POVMSet, build_povm
from .qstate import GridSpec

__all__ = [
    "ConfigError",
    "REQUIRED",
    "SCHEMAS",
    "parse_config",
    "validate_config",
    "load_config",
    "make_grid",
    "make_potential",
    "make_povm",
]


class ConfigError(ValueError):
    """Raised for malformed files, unknown keys, bad types, missing keys."""


REQUIRED = object()


def _pairs(s: str) -> tuple:
    """Semicolon-separated comma pairs: 'a,b; c,d' -> ((a, b), (c, d))."""
    out = []
    for chunk in s.split(";"):
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise ValueError(f"expected 'a,b' pair, got {chunk.strip()!r}")
        out.append((float(parts[0]), float(parts[1])))
    return tuple(out)


def _floats(s: str) -> tuple:
    return tuple(float(p.strip()) for p in s.split(",") if p.strip())


def _positive(s: str) -> float:
    """A step size, time span, width or mass: a finite float above zero."""
    value = float(s)
    if not 0.0 < value < math.inf:
        raise ValueError(f"expected a positive finite number, got {s.strip()!r}")
    return value


def _finite(s: str) -> float:
    """A coordinate or potential parameter: a finite float."""
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {s.strip()!r}")
    return value


def _rate(s: str) -> float:
    """A decoherence rate: a finite float of at least zero."""
    value = float(s)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"expected a finite number >= 0, got {s.strip()!r}")
    return value


def _grid_points(s: str) -> int:
    """A grid size: an integer in [8, 512], the range GridSpec accepts."""
    value = int(s)
    if not 8 <= value <= 512:
        raise ValueError(f"expected a grid size in [8, 512], got {value}")
    return value


def _count(s: str) -> int:
    """A number of steps or trajectories: an integer of at least one."""
    value = int(s)
    if value < 1:
        raise ValueError(f"expected a count of at least 1, got {value}")
    return value


def _has_nan(value) -> bool:
    """True for a NaN float, or a (nested) tuple of values holding one."""
    if isinstance(value, float):
        return math.isnan(value)
    return isinstance(value, tuple) and any(_has_nan(v) for v in value)


_BASE = {
    "kind": (str, REQUIRED),
    "seed": (int, 0),
    "out": (str, "runs"),
}

_GRID = {
    "grid_n": (_grid_points, 128),
    "x_min": (_finite, -10.0),
    "x_max": (_finite, 10.0),
    "mass": (_positive, 1.0),
}

_POTENTIAL = {
    "potential": (str, "harmonic"),
    "omega": (_finite, 1.0),
    "barrier": (_finite, 1.0),
    "half_separation": (_finite, 2.0),
}

_PACKET = {
    "q0": (float, 0.0),
    "p0": (float, 0.0),
    "sigma_x": (_positive, 1.0),
}

_WINDOW = {
    "window_x_lo": (_finite, REQUIRED),
    "window_x_hi": (_finite, REQUIRED),
    "window_p_lo": (_finite, REQUIRED),
    "window_p_hi": (_finite, REQUIRED),
    "cells_x": (int, REQUIRED),
    "cells_p": (int, REQUIRED),
    "povm_sigma_x": (_positive, None),
}

# Lengths that may not exceed the grid's width x_max - x_min: a packet,
# POVM or GRW width beyond it is meaningless, and at 1e300 the runs overflow.
_WIDTHS = ("sigma_x", "povm_sigma_x", "r_c")

SCHEMAS = {
    "evolve": {
        **_BASE, **_GRID, **_POTENTIAL, **_PACKET,
        "lambda": (_rate, 0.0),
        "dt": (_positive, 0.01),
        "n_steps": (_count, 100),
        "record_every": (_count, 1),
    },
    "sieve": {
        **_BASE, **_GRID, **_POTENTIAL,
        "lambda": (_rate, REQUIRED),
        "sigma_list": (_floats, REQUIRED),
        "q0": (float, 0.0),
        "p0": (float, 0.0),
        "horizon": (_positive, 1.0),
        "dt": (_positive, 0.01),
    },
    "branch": {
        **_BASE, **_GRID, **_POTENTIAL, **_PACKET, **_WINDOW,
        "lambda": (_rate, REQUIRED),
        "dt": (_positive, REQUIRED),
        "n_steps": (_count, REQUIRED),
        "dt_int": (_positive, None),
        "prune_epsilon": (float, 1e-4),
        "escape_tol": (float, 0.05),
        "leaf_cap": (int, 256),
    },
    "sample": {
        **_BASE, **_GRID, **_POTENTIAL, **_PACKET, **_WINDOW,
        "lambda": (_rate, REQUIRED),
        "dt": (_positive, REQUIRED),
        "n_steps": (_count, REQUIRED),
        "dt_int": (_positive, None),
        "n_traj": (_count, 100),
    },
    "explicit": {
        **_BASE, **_GRID, **_POTENTIAL, **_PACKET,
        "couplings": (_floats, REQUIRED),
        "env_energies": (_floats, None),
        "dt": (_positive, REQUIRED),
        "n_steps": (_count, REQUIRED),
        "bins": (_pairs, None),
    },
    "grw": {
        **_BASE, **_GRID, **_POTENTIAL, **_PACKET,
        "hit_rate": (float, REQUIRED),
        "r_c": (_positive, REQUIRED),
        "total_time": (_positive, REQUIRED),
        "dt_int": (_positive, 0.01),
    },
    "bohm": {
        **_BASE, **_GRID, **_POTENTIAL, **_PACKET,
        "total_time": (_positive, REQUIRED),
        "dt": (_positive, 0.05),
        "ode_dt": (_positive, 0.0125),
        "n_traj": (_count, 1000),
        "checkpoints": (_floats, None),
    },
    "ehrenfest": {
        **_BASE, **_GRID, **_POTENTIAL, **_PACKET,
        "lambda": (_rate, 0.0),
        "dt": (_positive, 0.01),
        "n_steps": (_count, 100),
        "record_every": (_count, 1),
        "delta_x": (float, REQUIRED),
        "delta_p": (float, REQUIRED),
        "l_v": (float, math.inf),
    },
    "reduce": {
        **_BASE, **_GRID, **_POTENTIAL, **_WINDOW,
        "sigma_x": (_positive, 1.0),
        "lambda": (_rate, REQUIRED),
        "delta_x": (float, REQUIRED),
        "delta_p": (float, REQUIRED),
        "tau_c": (_positive, REQUIRED),
        "epsilon": (float, 0.05),
        "n_traj": (_count, 100),
        "dt": (_positive, REQUIRED),
        "dt_int": (_positive, REQUIRED),
        "d_c": (_pairs, REQUIRED),
        "l_v": (float, math.inf),
    },
}


def parse_config(text: str) -> dict:
    """Raw key -> string-value mapping; no typing or schema checks yet."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        raw[key] = value
    return raw


def validate_config(raw: dict) -> dict:
    """Type every value against the kind's schema; reject unknowns by name."""
    kind = raw.get("kind")
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    if kind not in SCHEMAS:
        raise ConfigError(
            f"unknown kind '{kind}' (choose from {', '.join(sorted(SCHEMAS))})"
        )
    schema = SCHEMAS[kind]
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' for kind '{kind}'")
    cfg = {}
    for key, (caster, default) in schema.items():
        if key in raw:
            try:
                cfg[key] = caster(raw[key])
            except (TypeError, ValueError) as err:
                raise ConfigError(f"bad value for key '{key}': {err}") from err
            if _has_nan(cfg[key]):
                raise ConfigError(f"bad value for key '{key}': NaN is not a number")
        elif default is REQUIRED:
            raise ConfigError(f"missing required key '{key}' for kind '{kind}'")
        else:
            cfg[key] = default
    if kind == "bohm":
        # bohm.csv and the KS distances must share the snapshot times
        for span, step in (("total_time", "dt"), ("dt", "ode_dt")):
            if _step_count(cfg[span], cfg[step]) is None:
                raise ConfigError(
                    f"bad value for key '{step}': {span} = {cfg[span]:g} is not a "
                    f"whole number of {step} = {cfg[step]:g} steps"
                )
    if "povm_sigma_x" in cfg and cfg["povm_sigma_x"] is None:
        cfg["povm_sigma_x"] = cfg.get("sigma_x", 1.0)
    width = cfg["x_max"] - cfg["x_min"]
    if not 0.0 < width < math.inf:
        raise ConfigError(
            f"bad value for key 'x_max': the grid width x_max - x_min = {width:g} "
            "is not a positive finite number"
        )
    for key in _WIDTHS:
        if key in cfg and cfg[key] > width:
            raise ConfigError(
                f"bad value for key '{key}': {cfg[key]:g} exceeds the grid width "
                f"x_max - x_min = {width:g}"
            )
    return cfg


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(parse_config(fh.read()))


def make_grid(cfg: dict) -> GridSpec:
    return GridSpec(cfg["grid_n"], cfg["x_min"], cfg["x_max"], cfg["mass"])


def make_potential(cfg: dict) -> Potential:
    name = cfg["potential"]
    if name == "free":
        return free_potential()
    if name == "harmonic":
        return harmonic_potential(mass=cfg["mass"], omega=cfg["omega"])
    if name == "double_well":
        return double_well_potential(cfg["barrier"], cfg["half_separation"])
    raise ConfigError(
        f"unknown potential '{name}' (choose from free, harmonic, double_well)"
    )


def make_povm(cfg: dict, grid: GridSpec) -> POVMSet:
    partition = PhasePartition(
        (cfg["window_x_lo"], cfg["window_x_hi"]),
        (cfg["window_p_lo"], cfg["window_p_hi"]),
        cfg["cells_x"],
        cfg["cells_p"],
    )
    return build_povm(grid, partition, cfg["povm_sigma_x"])
