"""Run configuration: line-oriented parsing, per-kind schemas, builders.

The file format is one `key = value` pair per line; blank lines and lines
starting with # are skipped.  Every experiment kind declares its full key
set below; unknown keys are rejected by name so typos cannot silently fall
back to defaults.  A value's rules live once: casters type it, the rules the
builders keep run through _BUILDER_RULES, and only the rules no builder
holds (work caps, the seed, a finite potential) are written here.
"""

from __future__ import annotations

import math

import numpy as np

from .branching import _check_qubits
from .dynamics import (
    Potential,
    double_well_potential,
    free_potential,
    harmonic_potential,
)
from .ehrenfest import _check_margins, _snapshot_spacing
from .errors import RuleError
from .mechanisms import _step_count
from .pointer import PhasePartition, POVMSet, _check_on_grid, _sieve_widths, build_povm
from .qstate import GridSpec, _check_width
from .reduction import _check_spec

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
    """A decoherence or hit rate: a finite float of at least zero."""
    value = float(s)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"expected a finite number >= 0, got {s.strip()!r}")
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
    "grid_n": (int, 128),
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
    "cells_x": (_count, REQUIRED),
    "cells_p": (_count, REQUIRED),
    "povm_sigma_x": (_positive, None),
}

# Most substeps total_time / dt_int a grw run may declare.  A hit-free
# segment may span all of them: at dt_int = 1e-300 a stepped run ran past
# 15 s, and a leapt segment of 1e300 substeps would square the step's
# unitary about 1,000 times, into inf.
_GRW_MAX_SUBSTEPS = 1e6


def _ehrenfest_records(cfg: dict, grid: GridSpec) -> None:
    """ehrenfest_residual's snapshot rule on the times evolve records (step
    0, every record_every-th step and the last): on the first three and on
    the last three, the only spacing that can differ."""
    n_steps, every = cfg["n_steps"], cfg["record_every"]
    steps = range(0, n_steps + 1, every)
    last = [] if steps[-1] == n_steps else [n_steps]
    try:
        for ends in ((list(steps[:3]) + last)[:3], (list(steps[-3:]) + last)[-3:]):
            _snapshot_spacing(np.array(ends) * cfg["dt"])
    except ValueError as err:
        message = f"{err} (n_steps = {n_steps} recorded every {every} steps)"
        raise RuleError("n_steps", message) from err


def _widths(cfg: dict, grid: GridSpec) -> None:
    for key in ("sigma_x", "povm_sigma_x", "r_c"):
        if key in cfg:
            _check_width(grid, cfg[key], key)


def _partition(cfg: dict) -> PhasePartition:
    return PhasePartition(
        (cfg["window_x_lo"], cfg["window_x_hi"]), (cfg["window_p_lo"], cfg["window_p_hi"]),
        cfg["cells_x"], cfg["cells_p"],
    )


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
        "hit_rate": (_rate, REQUIRED),
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

# The rules a kind's builders keep, run on the typed config and its grid
# before any run directory exists: (kinds, rule).  A RuleError names the
# builder argument, and _FIELD_KEYS the key that sets it, where they differ.
_BUILDER_RULES = (
    (tuple(SCHEMAS), _widths),
    (("branch", "sample", "reduce"), lambda cfg, grid: _check_on_grid(grid, _partition(cfg))),
    (("sieve",), lambda cfg, grid: _sieve_widths(grid, cfg["sigma_list"])),
    (("explicit",), lambda cfg, grid: _check_qubits(cfg["couplings"], cfg["env_energies"])),
    (("ehrenfest",), _ehrenfest_records),
    (("ehrenfest",), lambda cfg, grid: _check_margins(cfg["delta_x"], cfg["delta_p"], cfg["l_v"])),
    (("reduce",), lambda cfg, grid: _check_spec(
        *(cfg[key] for key in ("delta_x", "delta_p", "l_v", "tau_c", "dt", "epsilon", "n_traj"))
    )),
    # bohm.csv and the KS distances share the snapshot times
    (("bohm",), lambda cfg, grid: _step_count(cfg["total_time"], cfg["dt"], "total_time", "dt")),
    (("bohm",), lambda cfg, grid: _step_count(cfg["dt"], cfg["ode_dt"], "dt", "ode_dt")),
)
_FIELD_KEYS = {
    "n_points": "grid_n", "n_x": "cells_x", "n_p": "cells_p",
    "x_window[0]": "window_x_lo", "x_window[1]": "window_x_hi",
    "p_window[0]": "window_p_lo", "p_window[1]": "window_p_hi",
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
    """Type every value against the kind's schema and reject unknown keys by
    name, then run the kind's builder rules and the config-only caps; each
    rejection is a ConfigError naming one key."""
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
    if kind == "grw":
        if cfg["hit_rate"] * cfg["total_time"] > 1e4:
            # each hit keeps two N-point copies of the state
            raise ConfigError("bad value for key 'hit_rate': over 1e4 hits expected in total_time")
        if cfg["total_time"] / cfg["dt_int"] > _GRW_MAX_SUBSTEPS:
            raise ConfigError(
                f"bad value for key 'dt_int': total_time / dt_int = "
                f"{cfg['total_time'] / cfg['dt_int']:g} substeps exceeds {_GRW_MAX_SUBSTEPS:g}"
            )
    if cfg["seed"] < 0:
        raise ConfigError(f"bad value for key 'seed': {cfg['seed']} is not at least 0")
    if "povm_sigma_x" in cfg and cfg["povm_sigma_x"] is None:
        cfg["povm_sigma_x"] = cfg.get("sigma_x", 1.0)
    try:
        grid = make_grid(cfg)
        for kinds, rule in _BUILDER_RULES:
            if kind in kinds:
                rule(cfg, grid)
    except RuleError as err:
        key = _FIELD_KEYS.get(err.field, err.field)
        raise ConfigError(f"bad value for key '{key}': {err}") from err
    # the potential and its slope on the grid, which every kind steps by or
    # integrates: at omega = 1e155 the harmonic V(x) overflows to inf
    potential = make_potential(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(
            np.isfinite(values(grid)).all()
            for values in (potential.values, potential.derivative_values)
        )
    if not finite:
        raise ConfigError(
            f"bad value for key 'potential': the {potential.name} potential or its slope "
            "is not finite on the grid"
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
    return build_povm(grid, _partition(cfg), cfg["povm_sigma_x"])
