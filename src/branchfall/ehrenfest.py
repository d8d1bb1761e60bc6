"""Force-law residuals, ensemble widths, and the classicality horizon.

Everything here is pure post-processing on recorded runs or individual
states; no time stepping happens in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dynamics import EvolutionRecord, Potential
from .errors import RuleError
from .qstate import DensityMatrix

__all__ = [
    "WidthSeries",
    "ResidualSeries",
    "HorizonResult",
    "marginal_widths",
    "ehrenfest_residual",
    "classicality_horizon",
    "dephasing_force_trace",
]


@dataclass(frozen=True)
class WidthSeries:
    """Ensemble widths over time.

    delta_x and delta_p are the standard deviations of the position and
    momentum distributions at each snapshot.
    """

    times: np.ndarray
    delta_x: np.ndarray
    delta_p: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        dx = np.asarray(self.delta_x, dtype=float)
        dp = np.asarray(self.delta_p, dtype=float)
        if t.ndim != 1 or t.shape != dx.shape or t.shape != dp.shape:
            raise ValueError("times, delta_x, delta_p must be 1-d and equally long")
        if t.size == 0:
            raise ValueError("width series is empty")
        if np.any(dx < 0.0) or np.any(dp < 0.0):
            raise ValueError("widths must be nonnegative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "delta_x", dx)
        object.__setattr__(self, "delta_p", dp)

    @classmethod
    def from_record(cls, record: EvolutionRecord) -> "WidthSeries":
        return cls(
            times=np.asarray(record.times, dtype=float),
            delta_x=np.sqrt(np.maximum(record.var_x, 0.0)),
            delta_p=np.sqrt(np.maximum(record.var_p, 0.0)),
        )

    def as_columns(self) -> dict:
        return {"t": self.times, "delta_x": self.delta_x, "delta_p": self.delta_p}


@dataclass(frozen=True)
class ResidualSeries:
    """Force-law residual |d<P>/dt + <V'(X)>| on interior snapshots.

    raw is the residual itself; relative divides by max|<V'>| over the run
    and falls back to raw when the force vanishes identically; newton_gap
    is the separate |<V'> - V'(<X>)| series on the same times.
    """

    times: np.ndarray
    raw: np.ndarray
    relative: np.ndarray
    newton_gap: np.ndarray

    def as_columns(self) -> dict:
        return {
            "t": self.times,
            "raw": self.raw,
            "relative": self.relative,
            "newton_gap": self.newton_gap,
        }


@dataclass(frozen=True)
class HorizonResult:
    """First time a width bound fails; math.inf when the run never violates."""

    time: float
    violated_component: Optional[str]

    def as_json(self) -> dict:
        t = self.time if math.isfinite(self.time) else "inf"
        return {"T": t, "violated_component": self.violated_component}


def marginal_widths(rho: DensityMatrix) -> Tuple[float, float]:
    """(delta_x, delta_p) from the marginal distributions themselves.

    Histogram moments of <x|rho|x> and of the FFT momentum-node masses.
    """
    grid = rho.grid
    wx = rho.position_density() * grid.dx
    mx = float(np.sum(grid.x * wx))
    vx = float(np.sum((grid.x - mx) ** 2 * wx))
    wp = rho.momentum_masses()
    mp = float(np.sum(grid.p * wp))
    vp = float(np.sum((grid.p - mp) ** 2 * wp))
    return math.sqrt(max(vx, 0.0)), math.sqrt(max(vp, 0.0))


def _snapshot_spacing(t: np.ndarray) -> float:
    """The uniform spacing of at least three snapshot times, which centered
    differences need; ValueError otherwise."""
    if t.size < 3:
        raise ValueError("need at least 3 snapshots for centered differences")
    steps = np.diff(t)
    h = float(steps[0])
    if h <= 0.0 or np.any(np.abs(steps - h) > 1e-9 * max(abs(h), 1.0)):
        raise ValueError("snapshots must sit on a uniform time grid")
    return h


def ehrenfest_residual(record: EvolutionRecord, potential: Potential) -> ResidualSeries:
    """Centered-difference check of d<P>/dt = -<V'(X)> on a recorded run.

    Endpoints are dropped (no centered difference there), so at least three
    snapshots at uniform cadence are required.  The differencing is done on
    the recorded series only, independent of how the run was stepped.
    """
    t = np.asarray(record.times, dtype=float)
    h = _snapshot_spacing(t)
    force = np.asarray(record.mean_dvdx, dtype=float)
    dpdt = (record.mean_p[2:] - record.mean_p[:-2]) / (2.0 * h)
    raw = np.abs(dpdt + force[1:-1])
    scale = float(np.max(np.abs(force)))
    relative = raw / scale if scale > 0.0 else raw.copy()
    gap = np.abs(force[1:-1] - np.asarray(potential.slope(record.mean_x[1:-1]), dtype=float))
    return ResidualSeries(times=t[1:-1], raw=raw, relative=relative, newton_gap=gap)


def _check_margins(delta_x: float, delta_p: float, l_v: float) -> None:
    """Positive margins and l_v (inf leaves a bound open): at or below zero
    every width breaks its bound at once, a horizon T = 0 read as a result."""
    for name, value in (("delta_x", delta_x), ("delta_p", delta_p), ("l_v", l_v)):
        if not value > 0.0:
            raise RuleError(name, f"{name} must be positive, got {value:g}")


def classicality_horizon(
    widths: WidthSeries,
    delta_z: Tuple[float, float],
    l_v: float = math.inf,
) -> HorizonResult:
    """First time delta_x exceeds min(2*delta_x_margin, l_v) or delta_p
    exceeds 2*delta_p_margin.

    Returns math.inf with violated_component None when the run stays inside
    both bounds; otherwise the first offending snapshot time and which
    component tripped ("x", "p", or "both").
    """
    _check_margins(*delta_z, l_v)
    t = widths.times
    if t.size > 1 and np.any(np.diff(t) <= 0.0):
        raise ValueError("width series times must be strictly increasing")
    bound_x = min(2.0 * float(delta_z[0]), float(l_v))
    bound_p = 2.0 * float(delta_z[1])
    bad_x = widths.delta_x > bound_x
    bad_p = widths.delta_p > bound_p
    bad = bad_x | bad_p
    if not np.any(bad):
        return HorizonResult(math.inf, None)
    i = int(np.argmax(bad))
    if bad_x[i] and bad_p[i]:
        which = "both"
    elif bad_x[i]:
        which = "x"
    else:
        which = "p"
    return HorizonResult(float(t[i]), which)


def dephasing_force_trace(rho: DensityMatrix) -> float:
    """Tr(P [X, [X, rho]]), the P-moment of the double commutator's kernel.

    The double commutator is (x - x')^2 rho(x, x'), whose spectral
    x-derivative has an identically vanishing diagonal, so the dephasing
    term can never move first moments.  Returned unsigned-free for
    assertion against ~1e-10.
    """
    grid = rho.grid
    sep = grid.x[:, None] - grid.x[None, :]
    kern = DensityMatrix(grid, sep**2 * rho.elements, validate=False)
    return float(np.sum(grid.p * kern.momentum_masses()))
