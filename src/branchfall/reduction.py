"""Classical comparison dynamics and the trajectory-level tracking verifier.

verify_reduction asks one empirical question: do Born-sampled collapse
trajectories started from a coherent state at Z0 stay within 2*delta of the
Newtonian orbit of Z0 for the whole horizon tau_c, with probability at
least 1 - epsilon?  Failure counting is per trajectory (whole path), the
stricter of the two possible readings.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .branching import BornSampler
from .dynamics import Potential, Propagator, _evolve_on
from .ehrenfest import WidthSeries, _check_margins, classicality_horizon
from .errors import BoundaryViolation, EscapeSampled, RuleError, WindowTooSmall
from .pointer import POVMSet
from .qstate import (
    GridSpec,
    PhasePoint,
    coherent_state,
    mean_phase_point,
)

__all__ = [
    "ClassicalTrajectory",
    "ReductionSpec",
    "PointResult",
    "ReductionReport",
    "classical_evolve",
    "within_margin",
    "verify_reduction",
]

# classical nodes per collapse interval inside verify_reduction; keeps
# omega*dt_cl < 0.1 for any force scale the quantum substep can resolve
_CL_NODES_PER_COLLAPSE = 50

# Most collapse intervals tau_c / dt a reduce run may declare.  Each one
# costs 50 classical nodes (three float arrays) and 5 density steps of the
# horizon chain before any trajectory is drawn: at 1e4 intervals the orbit
# alone took 1.3 s; at 1e6 a run was still going past 10 s, and at 1e300
# the orbit's arrays failed to allocate after the run directory existed.
_MAX_COLLAPSE_INTERVALS = 10_000


@dataclass(frozen=True)
class ClassicalTrajectory:
    """Point-particle orbit sampled on a uniform time grid."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray


def classical_evolve(
    z0: PhasePoint,
    potential: Potential,
    mass: float,
    total_time: float,
    dt_cl: float,
) -> ClassicalTrajectory:
    """Leapfrog (kick-drift-kick) integration of dX/dt = P/M, dP/dt = -V'.

    dt_cl is an upper bound on the step actually taken: the interval is cut
    into equal pieces no longer than dt_cl, so the endpoint lands exactly on
    total_time.  Time reversible and second order; for a harmonic force the
    energy error stays bounded and oscillatory.  Choose dt_cl so that
    omega_max * dt_cl < 0.1.
    """
    if dt_cl <= 0.0:
        raise ValueError("dt_cl must be positive")
    if total_time < 0.0:
        raise ValueError("total_time must be nonnegative")
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    n = max(1, int(math.ceil(total_time / dt_cl - 1e-12)))
    h = total_time / n
    q = np.empty(n + 1)
    p = np.empty(n + 1)
    x, mom = float(z0.q), float(z0.p)
    q[0], p[0] = x, mom
    for k in range(n):
        mom -= 0.5 * h * float(potential.slope(x))
        x += h * mom / mass
        mom -= 0.5 * h * float(potential.slope(x))
        q[k + 1] = x
        p[k + 1] = mom
    return ClassicalTrajectory(np.linspace(0.0, total_time, n + 1), q, p)


def within_margin(z: PhasePoint, z_ref: PhasePoint, delta_z) -> bool:
    """Componentwise |q - q_ref| < 2 delta_X and |p - p_ref| < 2 delta_P.

    Two points each allowed to sit delta from a common target can be 2*delta
    apart, hence the factor of two.  An infinite component never fails.
    """
    dx, dp = float(delta_z[0]), float(delta_z[1])
    if math.isfinite(dx) and not abs(z.q - z_ref.q) < 2.0 * dx:
        return False
    if math.isfinite(dp) and not abs(z.p - z_ref.p) < 2.0 * dp:
        return False
    return True


def _check_spec(delta_x, delta_p, l_v, tau_c, dt, epsilon, n_traj) -> None:
    """ReductionSpec's rules on what a config sets, checked without a POVM:
    _check_margins, _collapse_steps, epsilon in (0, 1) and at least 100
    trajectories."""
    _check_margins(delta_x, delta_p, l_v)
    _collapse_steps(tau_c, dt)
    if not 0.0 < epsilon < 1.0:
        raise RuleError("epsilon", f"epsilon must lie strictly between 0 and 1, got {epsilon:g}")
    if n_traj < 100:
        raise RuleError("n_traj", f"n_traj must be at least 100, got {n_traj}")


@dataclass(frozen=True)
class ReductionSpec:
    """Everything the verifier needs: margins, horizon, initial points,
    tolerated failure probability, sampling effort, and the physics.

    The particle mass lives on povm.grid; sigma_x sets the width of the
    coherent packet prepared at each Z0 (mean_phase_point maps it back to Z0).
    l_v caps the position bound of the measured width horizon for
    anharmonic forces.
    """

    delta_z: Tuple[float, float]
    tau_c: float
    d_c: Tuple[PhasePoint, ...]
    epsilon: float
    n_traj: int
    dt: float
    dt_int: float
    potential: Potential
    lambda_rate: float
    povm: POVMSet
    sigma_x: float
    l_v: float = math.inf

    def __post_init__(self):
        if self.dt <= 0.0 or self.dt_int <= 0.0:
            raise ValueError("dt and dt_int must be positive")
        _check_spec(*self.delta_z, self.l_v, self.tau_c, self.dt, self.epsilon, self.n_traj)
        if len(self.d_c) == 0:
            raise ValueError("d_c must contain at least one initial point")
        object.__setattr__(self, "d_c", tuple(self.d_c))

    def digest(self) -> str:
        grid = self.povm.grid
        part = self.povm.partition
        parts = [
            f"delta={self.delta_z[0]!r},{self.delta_z[1]!r}",
            f"tau_c={self.tau_c!r}",
            "d_c=" + ";".join(f"{z.q!r},{z.p!r}" for z in self.d_c),
            f"epsilon={self.epsilon!r}",
            f"n_traj={self.n_traj}",
            f"dt={self.dt!r}",
            f"dt_int={self.dt_int!r}",
            f"potential={self.potential.name}",
            f"lambda={self.lambda_rate!r}",
            f"sigma_x={self.sigma_x!r}",
            f"l_v={self.l_v!r}",
            f"grid={grid.n_points},{grid.x_min!r},{grid.x_max!r},{grid.mass!r}",
            f"window={part.x_window!r},{part.p_window!r},{part.n_x},{part.n_p}",
            f"povm={self.povm.rule},{self.povm.quadrature},{self.povm.sigma_x!r}",
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


@dataclass(frozen=True)
class PointResult:
    """Per-Z0 outcome: surviving fraction, worst scaled deviation, and the
    first-violation time of every failing trajectory (escapes included)."""

    z0: PhasePoint
    pass_fraction: float
    worst_dev: float
    violations: Tuple[float, ...]
    n_escaped: int

    def as_json(self) -> dict:
        return {
            "z0": [self.z0.q, self.z0.p],
            "pass_fraction": self.pass_fraction,
            "worst_dev": self.worst_dev,
            "violations": list(self.violations),
            "n_escaped": self.n_escaped,
        }


@dataclass(frozen=True)
class ReductionReport:
    spec_digest: str
    per_z0: Tuple[PointResult, ...]
    verdict: str
    horizon_t: float
    seed: int

    def as_json(self) -> dict:
        return {
            "spec_digest": self.spec_digest,
            "per_z0": [r.as_json() for r in self.per_z0],
            "verdict": self.verdict,
            "horizon_T": self.horizon_t if math.isfinite(self.horizon_t) else "inf",
            "seed": self.seed,
        }


def _orbit_window_check(spec: ReductionSpec, traj: ClassicalTrajectory) -> None:
    # tube = orbit padded by 3 delta per finite component; the sampler can
    # only ever report cells inside the window, so a tube that leaves it
    # makes the comparison meaningless rather than merely failing
    part = spec.povm.partition
    pad_x = 3.0 * spec.delta_z[0] if math.isfinite(spec.delta_z[0]) else 0.0
    pad_p = 3.0 * spec.delta_z[1] if math.isfinite(spec.delta_z[1]) else 0.0
    lo_q, hi_q = float(np.min(traj.q)) - pad_x, float(np.max(traj.q)) + pad_x
    lo_p, hi_p = float(np.min(traj.p)) - pad_p, float(np.max(traj.p)) + pad_p
    if lo_q < part.x_window[0] or hi_q > part.x_window[1] \
            or lo_p < part.p_window[0] or hi_p > part.p_window[1]:
        raise WindowTooSmall(
            f"classical tube [{lo_q:.3g},{hi_q:.3g}]x[{lo_p:.3g},{hi_p:.3g}] "
            f"exits the partition window"
        )


def _measured_horizon(spec: ReductionSpec, z0: PhasePoint, total_time: float) -> float:
    """Width horizon of the collapse-free evolution from z0's packet.

    One propagator steps the whole horizon as one guarded chain at a fifth
    of the collapse interval (widths move on dynamical timescales, so
    dt_int-fine stepping would buy nothing), and the horizon is the first
    bound crossing of its widths.  The chain runs on the run's own grid.
    The unmonitored state can spread far beyond what the collapse
    trajectories ever occupy: only if its mass reaches the edge
    (BoundaryViolation) does the chain run again on an x-widened copy of
    the grid: 3x up to N = 170 and 2x up to N = 256, at the same spacing,
    so the momentum range is preserved.  A BoundaryViolation there, or on
    a grid of more than 256 points, which has no wider copy, propagates.
    """
    grid = spec.povm.grid
    grids = [grid]
    factor = min(3, 512 // grid.n_points)
    if factor > 1:
        half = 0.5 * (grid.x_max - grid.x_min) * factor
        mid = 0.5 * (grid.x_max + grid.x_min)
        grids.append(GridSpec(grid.n_points * factor, mid - half, mid + half, grid.mass))
    n_sub = 5
    n_intervals = max(1, int(round(total_time / spec.dt)))
    for on in grids:
        prop = Propagator(on, spec.potential, spec.lambda_rate, spec.dt / n_sub)
        try:
            state = coherent_state(on, z0.q, z0.p, spec.sigma_x)
            rec = _evolve_on(prop, state, n_sub * n_intervals)
            break
        except BoundaryViolation:
            if on is grids[-1]:
                raise
    return classicality_horizon(WidthSeries.from_record(rec), spec.delta_z, spec.l_v).time


class _PathJudge:
    """Compares each collapse readout to the classical node at the same time
    and remembers the first violation; doubles as the early-stop hook."""

    def __init__(self, traj: ClassicalTrajectory, n_div: int, dt: float, delta_z):
        self.traj = traj
        self.n_div = n_div
        self.dt = dt
        self.delta_z = delta_z
        self.first_violation: Optional[float] = None
        self.worst = 0.0

    def reset(self):
        self.first_violation = None

    def __call__(self, t: float, alpha: int, z: PhasePoint) -> bool:
        k = int(round(t / self.dt))
        ref = PhasePoint(self.traj.q[k * self.n_div], self.traj.p[k * self.n_div])
        dx, dp = self.delta_z
        dev = 0.0
        if math.isfinite(dx):
            dev = abs(z.q - ref.q) / dx
        if math.isfinite(dp):
            dev = max(dev, abs(z.p - ref.p) / dp)
        self.worst = max(self.worst, dev)
        if not within_margin(z, ref, self.delta_z):
            self.first_violation = t
            return True
        return False


def _collapse_steps(tau_c: float, dt: float) -> int:
    """The collapse intervals of length dt within the horizon tau_c: at
    least one and at most _MAX_COLLAPSE_INTERVALS; RuleError otherwise."""
    intervals = tau_c / dt + 1e-9
    if not math.isfinite(intervals):
        raise RuleError("tau_c", f"tau_c / dt = {intervals:g} collapse intervals is not a count")
    n_steps = int(math.floor(intervals))
    if n_steps < 1:
        raise RuleError("tau_c", "tau_c must cover at least one collapse interval")
    if n_steps > _MAX_COLLAPSE_INTERVALS:
        raise RuleError(
            "tau_c",
            f"tau_c / dt = {intervals:g} collapse intervals exceeds the cap of "
            f"{_MAX_COLLAPSE_INTERVALS}",
        )
    return n_steps


def verify_reduction(spec: ReductionSpec, rng_seed: int) -> ReductionReport:
    """Monte Carlo check that collapse trajectories shadow the Newtonian
    orbit within 2*delta for a whole horizon tau_c.

    For each Z0: prepare the coherent packet there, integrate the classical
    orbit, then draw n_traj collapse histories from one BornSampler (so
    histories that share a prefix evolve it once) and compare every readout
    at collapse times up to tau_c.  A trajectory fails at its first readout
    outside the margin; drawing the escape element fails it at that time.
    Verdict is PASS iff every Z0 keeps at least a 1 - epsilon surviving
    fraction.  Deterministic for a fixed seed.
    """
    infinite_margin = not (math.isfinite(spec.delta_z[0]) or math.isfinite(spec.delta_z[1]))
    n_steps = _collapse_steps(spec.tau_c, spec.dt)
    total_time = n_steps * spec.dt

    results = []
    horizon = math.inf
    for i, z0 in enumerate(spec.d_c):
        if infinite_margin:
            # vacuous bound: nothing to simulate
            results.append(PointResult(z0, 1.0, 0.0, (), 0))
            continue
        traj = classical_evolve(
            z0, spec.potential, spec.povm.grid.mass,
            total_time, spec.dt / _CL_NODES_PER_COLLAPSE,
        )
        _orbit_window_check(spec, traj)
        horizon = min(horizon, _measured_horizon(spec, z0, total_time))

        rho0 = coherent_state(spec.povm.grid, z0.q, z0.p, spec.sigma_x).to_density()
        sampler = BornSampler(
            rho0, spec.potential, spec.lambda_rate, spec.povm, spec.dt, spec.dt_int,
        )
        judge = _PathJudge(traj, _CL_NODES_PER_COLLAPSE, spec.dt, spec.delta_z)
        violations = []
        n_escaped = 0
        n_pass = 0
        for j in range(spec.n_traj):
            judge.reset()
            seed = np.random.SeedSequence(entropy=int(rng_seed), spawn_key=(i, j))
            try:
                sampler.trajectory(n_steps, seed, stop=judge)
            except EscapeSampled as err:
                n_escaped += 1
                violations.append(float(err.time))
                continue
            if judge.first_violation is None:
                n_pass += 1
            else:
                violations.append(judge.first_violation)
        results.append(PointResult(
            z0, n_pass / spec.n_traj, judge.worst, tuple(violations), n_escaped,
        ))

    verdict = "PASS" if all(r.pass_fraction >= 1.0 - spec.epsilon for r in results) \
        else "FAIL"
    return ReductionReport(
        spec_digest=spec.digest(),
        per_z0=tuple(results),
        verdict=verdict,
        horizon_t=horizon,
        seed=int(rng_seed),
    )
