"""Workload definitions: which CLI kinds a batch runs, at what size.

Every workload runs all nine CLI kinds, because every end-to-end metric is
reported on every workload.  Each workload has a focus: the kinds that
carry its character run at the sizes that stress its layers and take most
of its time.  The other kinds run as a shared probe set of small configs.
The probes also put dense density-matrix steps at N = 96, 128, 256 and 512
into every workload, so that each per-layer metric is measured everywhere.

Inputs come from a pool: each config template has N_VARIANTS variants that
differ in seed or packet position but not in size, so that cost barely
depends on the variant.  The benchmark seed picks one variant per slot.  The
pool is finite, so every config the benchmark can run has reference values
recorded in reference.json.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

KINDS = (
    "evolve", "sieve", "branch", "sample", "explicit",
    "grw", "bohm", "ehrenfest", "reduce",
)
N_VARIANTS = 8

# Stochastic kinds vary their seed; deterministic kinds shift the packet.
_STOCHASTIC = {"sample", "reduce", "grw", "bohm"}

_WINDOW_3X3 = {
    "window_x_lo": -6, "window_x_hi": 6, "window_p_lo": -6, "window_p_hi": 6,
    "cells_x": 3, "cells_p": 3,
}

# Acceptance-style reduce: N = 96, one collapse interval, 1 x 3 cells,
# two initial points.
_REDUCE = {
    "grid_n": 96, "x_min": -10, "x_max": 10, "mass": 4,
    "potential": "harmonic", "omega": 0.25, "sigma_x": 0.8,
    "window_x_lo": -6, "window_x_hi": 6, "window_p_lo": -12, "window_p_hi": 12,
    "cells_x": 1, "cells_p": 3,
    "lambda": 0.25, "delta_x": 1.5, "delta_p": 0.7, "tau_c": 2.0,
    "dt": 1.5, "dt_int": 0.05, "epsilon": 0.01, "n_traj": 100,
    "d_c": "1.0, 0.0; 0.707, -0.707",
}

# (kind, template, runs per batch).  Batches are short (3-5 s) so that a
# run holds many of them: the speed of a shared host shifts every few
# seconds, and a run's statistic needs samples spread over all of it.
_FOCUS = {
    # Born sampling at small N: many short steps, trajectories re-evolving
    # shared histories, branch weights and the Lueders projection.
    "born_sampling": [
        ("sample", {
            "grid_n": 128, "q0": 2.0, "sigma_x": 0.7071, **_WINDOW_3X3,
            "lambda": 0.5, "dt": 0.3, "n_steps": 4, "dt_int": 0.03, "n_traj": 8,
        }, 2),
        ("reduce", {**_REDUCE, "dt_int": 0.1, "d_c": "1.0, 0.0"}, 2),
        ("branch", {
            "grid_n": 128, "q0": 2.0, "sigma_x": 0.7071, **_WINDOW_3X3,
            "lambda": 0.5, "dt": 0.3, "n_steps": 2, "dt_int": 0.03,
        }, 2),
    ],
    # Wide grids: dense O(N^3) steps at N = 512, build_povm and operator
    # memory; no history is ever evolved twice.
    "wide_grid": [
        ("evolve", {
            "grid_n": 512, "x_min": -16, "x_max": 16, "q0": 1.0, "sigma_x": 0.7071,
            "lambda": 0.2, "dt": 0.01, "n_steps": 4, "record_every": 2,
        }, 3),
        ("ehrenfest", {
            "grid_n": 512, "x_min": -16, "x_max": 16, "q0": 1.0, "sigma_x": 0.7071,
            "lambda": 0.2, "dt": 0.01, "n_steps": 4, "record_every": 1,
            "delta_x": 0.36, "delta_p": 0.36,
        }, 3),
        ("sieve", {
            "grid_n": 256, "x_min": -12, "x_max": 12, "q0": 1.0, "lambda": 0.2,
            "sigma_list": "0.5, 0.7071, 1.0", "horizon": 0.05, "dt": 0.01,
        }, 3),
        ("branch", {
            "grid_n": 512, "x_min": -16, "x_max": 16, "q0": 2.0, "sigma_x": 0.7071,
            **_WINDOW_3X3, "cells_x": 1, "cells_p": 2,
            "lambda": 0.5, "dt": 0.3, "n_steps": 1, "dt_int": 0.1,
        }, 2),
    ],
    # Pure-state FFT steppers with large payloads: CSV formatting and the
    # finite-value scan in cli dominate bohm.
    "wave_output": [
        ("bohm", {
            "grid_n": 192, "x_min": -12, "x_max": 12, "q0": 1.0, "sigma_x": 0.7071,
            "total_time": 2.0, "dt": 0.05, "ode_dt": 0.0125, "n_traj": 500,
        }, 2),
        ("grw", {
            "grid_n": 192, "x_min": -12, "x_max": 12, "q0": 1.0, "sigma_x": 0.7071,
            "hit_rate": 2.0, "r_c": 0.5, "total_time": 20.0, "dt_int": 0.01,
        }, 2),
        ("explicit", {
            "grid_n": 256, "x_min": -12, "x_max": 12, "q0": 1.0, "sigma_x": 0.7071,
            "couplings": "0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8",
            "dt": 0.01, "n_steps": 100,
        }, 2),
    ],
}

# Small configs for the kinds outside a workload's focus; together they
# step density matrices at N = 96 (reduce), 128, 256 (sieve) and 512 (evolve).
_PROBES = {
    "evolve": {
        "grid_n": 512, "x_min": -16, "x_max": 16, "q0": 1.0, "sigma_x": 0.7071,
        "lambda": 0.2, "dt": 0.01, "n_steps": 2, "record_every": 1,
    },
    "sieve": {
        "grid_n": 256, "x_min": -12, "x_max": 12, "q0": 1.0, "lambda": 0.2,
        "sigma_list": "0.7071, 1.0", "horizon": 0.04, "dt": 0.01,
    },
    "branch": {
        "grid_n": 128, "q0": 2.0, "sigma_x": 0.7071, **_WINDOW_3X3,
        "lambda": 0.5, "dt": 0.3, "n_steps": 1, "dt_int": 0.1,
    },
    "sample": {
        "grid_n": 128, "q0": 2.0, "sigma_x": 0.7071, **_WINDOW_3X3,
        "lambda": 0.5, "dt": 0.3, "n_steps": 2, "dt_int": 0.1, "n_traj": 4,
    },
    "explicit": {
        "grid_n": 128, "q0": 1.0, "sigma_x": 0.7071,
        "couplings": "0.2, 0.4, 0.6, 0.8", "dt": 0.01, "n_steps": 200,
    },
    "grw": {
        "grid_n": 128, "q0": 1.0, "sigma_x": 0.7071,
        "hit_rate": 2.0, "r_c": 0.5, "total_time": 10.0, "dt_int": 0.01,
    },
    "bohm": {
        "grid_n": 128, "q0": 1.0, "sigma_x": 0.7071,
        "total_time": 0.5, "dt": 0.05, "ode_dt": 0.0125, "n_traj": 200,
    },
    "ehrenfest": {
        "grid_n": 96, "q0": 1.0, "sigma_x": 0.7071,
        "lambda": 0.2, "dt": 0.01, "n_steps": 60, "record_every": 1,
        "delta_x": 0.36, "delta_p": 0.36,
    },
    "reduce": {**_REDUCE, "dt_int": 0.75, "d_c": "1.0, 0.0"},
}

# Probe passes per batch, spread between the focus runs.
PROBE_PASSES = {"born_sampling": 3, "wide_grid": 2, "wave_output": 2}

WORKLOADS = tuple(_FOCUS)


@dataclass(frozen=True)
class Job:
    """One `branchfall run` of a generated config."""

    kind: str
    text: str  # config text without the `out` key

    @property
    def key(self) -> str:
        """Reference key: first 24 hex digits of the config text's SHA-256."""
        return hashlib.sha256(self.text.encode()).hexdigest()[:24]


def _variant(kind: str, template: dict, v: int) -> dict:
    cfg = {"kind": kind, "seed": 11 + 17 * v, **template}
    if kind not in _STOCHASTIC:
        # Parity mirror on odd variants keeps leaf counts and cost level.
        sign = -1.0 if v % 2 else 1.0
        cfg["q0"] = round(sign * (cfg.get("q0", 0.0) + 0.02 * (v // 2)), 6)
    return cfg


def _text(cfg: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def templates(workload: str, toy: bool = False) -> list[tuple[str, dict]]:
    """(kind, template) slots of one batch.

    Focus runs go round-robin over their kinds and are cut into as many
    chunks as the workload has probe passes; a pass over the probes
    precedes each chunk.  At toy
    size a batch is one probe pass over all nine kinds.
    """
    if workload not in _FOCUS:
        raise KeyError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    if toy:
        return [(kind, _PROBES[kind]) for kind in KINDS]
    focus = _FOCUS[workload]
    order = [
        (kind, template)
        for r in range(max(n for _, _, n in focus))
        for kind, template, n in focus if r < n
    ]
    covered = {kind for kind, _, _ in focus}
    probes = [(kind, _PROBES[kind]) for kind in KINDS if kind not in covered]
    passes = PROBE_PASSES[workload]
    slots = []
    for i in range(passes):
        slots += probes
        slots += order[i * len(order) // passes:(i + 1) * len(order) // passes]
    return slots


def batch(workload: str, seed: int, toy: bool = False) -> list[Job]:
    """The jobs of one batch; the same seed always gives the same jobs."""
    rng = random.Random(seed)
    return [
        Job(kind, _text(_variant(kind, template, rng.randrange(N_VARIANTS))))
        for kind, template in templates(workload, toy)
    ]


def all_jobs() -> list[Job]:
    """Every config any workload can run, for recording references."""
    seen = {}
    for workload in WORKLOADS:
        for toy in (False, True):
            for kind, template in templates(workload, toy):
                for v in range(N_VARIANTS):
                    job = Job(kind, _text(_variant(kind, template, v)))
                    seen[job.key] = job
    return list(seen.values())
