"""Candidate collapse mechanisms run against the same decohering dynamics.

Two concrete single-world mechanisms live here: spontaneous localization
hits (GRW) applied to the simulated coordinate, and pilot-wave trajectories
guided by the phase gradient of a pure state.  Both produce objects that can
be compared with the branch decomposition: hit states against leaf states
via a fidelity score, guidance ensembles against Born weights via
equivariance and branch-occupancy statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .branching import BranchTree, ExplicitModel
from .dynamics import Potential, _leap_path, _SplitStep
from .errors import EmptyTree, NodeRegion, RuleError
from .qstate import GridSpec, WaveFunction, _check_width

__all__ = [
    "GRWParams",
    "GRWHit",
    "GRWRun",
    "grw_evolve",
    "compatibility_score",
    "BohmEnsemble",
    "BohmRun",
    "bohm_velocity",
    "bohm_snapshots",
    "bohm_evolve",
    "sample_positions",
]


@dataclass(frozen=True)
class GRWParams:
    """Spontaneous-hit knobs: rate per unit time and localization width."""

    hit_rate: float
    r_c: float

    def __post_init__(self) -> None:
        if self.hit_rate < 0:
            raise ValueError("hit_rate must be nonnegative")
        if self.r_c <= 0:
            raise ValueError("r_c must be positive")


@dataclass
class GRWHit:
    time: float
    center: float
    pre_state: WaveFunction
    post_state: WaveFunction


@dataclass
class GRWRun:
    hits: list[GRWHit]
    final: WaveFunction
    total_time: float


def _evolve_segment(amps, flight, grid, v_vals, duration, dt_int):
    """int(duration / dt_int) steps of dt_int by flight (a core's run or
    leap), then one step over the remainder."""
    if duration <= 0:
        return amps
    n_full = int(duration / dt_int)
    amps = flight(amps, n_full)
    rem = duration - n_full * dt_int
    if rem > 1e-15 * max(1.0, duration):
        amps = _SplitStep(grid, v_vals, rem).run(amps)
    return amps


def grw_evolve(
    psi: WaveFunction,
    potential: Potential,
    params: GRWParams,
    total_time: float,
    rng_seed,
    dt_int: float = 0.01,
) -> GRWRun:
    """Unitary evolution punctuated by Poisson-timed localization hits.

    Between hits the state flies free under the Strang step U of dt_int:
    int(wait / dt_int) steps, then one step over the remainder.  The steps
    are fused split-step runs (2n + 2 FFTs for n steps), or, once the
    declared substeps total_time / dt_int pass the crossover of
    dynamics._leap_path for the grid, one leap U^n psi by the binary powers
    of U, built for this run only; the two agree to roundoff.  Hit centers
    follow the density (|psi|^2 convolved with a Gaussian of variance
    r_c^2/2); the state is multiplied by the corresponding Gaussian and
    renormalized.  Everything is deterministic for a fixed seed.  r_c must
    meet qstate._check_width on the grid.
    """
    grid = psi.grid
    _check_width(grid, params.r_c, "r_c")
    x = grid.x
    v_vals = potential.values(grid)
    core = _SplitStep(grid, v_vals, dt_int)
    flight = core.leap if _leap_path(grid.n_points, total_time / dt_int) else core.run
    rng = np.random.default_rng(rng_seed)
    amps = psi.amplitudes.copy()
    hits: list[GRWHit] = []
    t = 0.0
    while True:
        wait = rng.exponential(1.0 / params.hit_rate) if params.hit_rate > 0 else math.inf
        if t + wait >= total_time:
            amps = _evolve_segment(amps, flight, grid, v_vals, total_time - t, dt_int)
            break
        amps = _evolve_segment(amps, flight, grid, v_vals, wait, dt_int)
        t += wait
        pre = WaveFunction(grid, amps.copy(), validate=False)
        prob = np.abs(amps) ** 2 * grid.dx
        prob = prob / prob.sum()
        idx = int(rng.choice(len(prob), p=prob))
        center = x[idx] + rng.normal(0.0, params.r_c / math.sqrt(2.0))
        amps = amps * np.exp(-((x - center) ** 2) / (2.0 * params.r_c**2))
        amps = amps / math.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx)
        hits.append(GRWHit(t, center, pre, WaveFunction(grid, amps.copy(), validate=False)))
    return GRWRun(hits, WaveFunction(grid, amps, validate=False), total_time)


def compatibility_score(post_hit: WaveFunction, tree: BranchTree) -> tuple[tuple[int, ...], float]:
    """Best fidelity between the post-hit state and any live branch state.

    Fidelity of a pure state against a mixed leaf is <psi|rho|psi>.  The
    score is reported, never thresholded: whether hits land on branch states
    is left as an empirical question.
    """
    if not tree.leaves:
        raise EmptyTree("compatibility_score needs live leaves")
    amps = post_hit.amplitudes
    dx = post_hit.grid.dx
    best_history, best = (), -1.0
    for leaf in tree.leaves:
        fid = float(np.real(amps.conj() @ (leaf.state._kernel() @ amps)) * dx * dx)
        if fid > best:
            best_history, best = leaf.history, fid
    return best_history, min(max(best, 0.0), 1.0)


# --- pilot-wave guidance ----------------------------------------------------


State = Union[WaveFunction, ExplicitModel]

# Guidance density below which the velocity (current / density) is not
# trusted: bohm_velocity raises NodeRegion, bohm_evolve freezes the trajectory.
DENSITY_FLOOR = 1e-12


def _step_count(span: float, step: float, span_name: str = "span", step_name: str = "step") -> int:
    """How many steps of size step make up span: a whole number of at least
    one, to a relative 1e-9; RuleError naming the step otherwise."""
    n = span / step
    whole = round(n) if math.isfinite(n) else 0
    if whole < 1 or abs(n - whole) > 1e-9 * n:
        raise RuleError(step_name, f"{span_name} = {span:g} is not a whole number of "
                        f"{step_name} = {step:g} steps")
    return whole


# Most snapshots, total_time / dt, and most ODE steps, total_time / ode_dt,
# a bohm run may declare.  Each snapshot keeps N amplitudes and two N-point
# node rows for the whole run, and each ODE step writes one bohm.csv row per
# trajectory.  On 512 points with 10 trajectories, 4096 snapshots took 0.7 s
# and peaked at 232 MB (10^4 took 2.2 s and 346 MB); on 128 points, 10^4 ODE
# steps of the default 1000 trajectories took 0.9 s and 124 MB before their
# 10^7 rows were written.  At total_time = 1e300 the snapshot loop never
# ended, and at ode_dt = 1e-300 the step grid failed to allocate.
_MAX_SNAPSHOTS = 4096
_MAX_ODE_STEPS = 10_000


def _snapshot_count(total_time: float, dt: float) -> int:
    """The snapshot steps dt in total_time: a whole number (_step_count) of
    at most _MAX_SNAPSHOTS; RuleError otherwise."""
    n_snap = _step_count(total_time, dt, "total_time", "dt")
    if n_snap > _MAX_SNAPSHOTS:
        raise RuleError(
            "total_time",
            f"total_time / dt = {total_time / dt:g} snapshots exceeds the cap of {_MAX_SNAPSHOTS}",
        )
    return n_snap


def _ode_steps(span: float, spacing: float, ode_dt: float, spacing_name: str) -> int:
    """The ODE steps ode_dt in span, with snapshots spacing apart: a whole
    number per spacing (_step_count) and at most _MAX_ODE_STEPS over span;
    RuleError naming ode_dt otherwise."""
    _step_count(spacing, ode_dt, spacing_name, "ode_dt")
    n_steps = span / ode_dt
    if not n_steps < _MAX_ODE_STEPS + 0.5:
        raise RuleError(
            "ode_dt", f"{n_steps:g} ODE steps of ode_dt exceeds the cap of {_MAX_ODE_STEPS}"
        )
    return int(round(n_steps))


def bohm_snapshots(psi: WaveFunction, potential: Potential, total_time: float, dt: float):
    """The states psi(k dt), k = 0 ... total_time / dt, that bohm_evolve reads,
    stepped by one split-step core of dt, and their times; total_time must be
    a whole number of at most _MAX_SNAPSHOTS steps dt (RuleError otherwise)."""
    n_snap, grid = _snapshot_count(total_time, dt), psi.grid
    core = _SplitStep(grid, potential.values(grid), dt)
    snapshots = [psi]
    for _ in range(n_snap):
        snapshots.append(WaveFunction(grid, core.run(snapshots[-1].amplitudes), validate=False))
    return snapshots, np.arange(n_snap + 1) * dt


def _joint_columns(state: State) -> tuple[GridSpec, np.ndarray]:
    if isinstance(state, WaveFunction):
        return state.grid, state.amplitudes[:, None]
    if isinstance(state, ExplicitModel):
        return state.grid, state.state
    raise TypeError("state must be a WaveFunction or ExplicitModel")


# Most state columns one batched velocity-node transform takes: all the
# snapshots of a wave function at once, one at a time for a large qubit model
_NODE_COLUMNS = 4096


def _velocity_nodes(states: Sequence[State]) -> tuple[np.ndarray, np.ndarray]:
    """Guidance velocity and probability density sampled at the grid nodes,
    one row per state.

    For an explicit model the current and density are summed over the
    environment components: only branches overlapping at x contribute.  The
    states' columns go through the derivative's fft/ifft together, up to
    _NODE_COLUMNS at a time; each row equals the one its state gives alone.
    """
    grid, first = _joint_columns(states[0])
    width = first.shape[1]
    velocity = np.empty((len(states), grid.n_points))
    density = np.empty((len(states), grid.n_points))
    per = max(1, _NODE_COLUMNS // width)
    for start in range(0, len(states), per):
        pairs = [_joint_columns(state) for state in states[start:start + per]]
        if any(g != grid or block.shape != first.shape for g, block in pairs):
            raise ValueError("states must share one grid and one column count")
        cols = np.concatenate([block for _, block in pairs], axis=1)
        dcols = np.fft.ifft(1j * grid.p[:, None] * np.fft.fft(cols, axis=0), axis=0)
        shape = (grid.n_points, len(pairs), width)
        current = np.sum(np.imag(cols.conj() * dcols).reshape(shape), axis=2).T
        dens = np.sum((np.abs(cols) ** 2).reshape(shape), axis=2).T
        with np.errstate(divide="ignore", invalid="ignore"):
            vel = np.where(dens > 0, current / np.maximum(dens, 1e-300), 0.0)
        velocity[start:start + per] = vel / grid.mass
        density[start:start + per] = dens
    return velocity, density


def bohm_velocity(state: State, x: float) -> float:
    """Guidance velocity at one point, linearly interpolated between nodes."""
    grid, _ = _joint_columns(state)
    (velocity,), (density,) = _velocity_nodes([state])
    dens = float(np.interp(x, grid.x, density))
    if dens < DENSITY_FLOOR:
        raise NodeRegion(f"density {dens:.3e} below floor at x = {x:.6g}")
    return float(np.interp(x, grid.x, velocity))


def _node_cdf(grid: GridSpec, density: np.ndarray) -> np.ndarray:
    """The trapezoid CDF of a density at the grid nodes, ending at 1."""
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * grid.dx)])
    return cdf / cdf[-1]


def sample_positions(state: State, n: int, rng) -> np.ndarray:
    """Draw n positions from |psi|^2 via the piecewise-linear node CDF."""
    grid, cols = _joint_columns(state)
    cdf = _node_cdf(grid, np.sum(np.abs(cols) ** 2, axis=1))
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    u = rng.random(n)
    return np.interp(u, cdf, grid.x)


@dataclass
class BohmEnsemble:
    """Configuration sample in quantum equilibrium plus its seed."""

    positions: np.ndarray
    rng_seed: int

    @classmethod
    def from_state(cls, state: State, n: int, rng_seed: int):
        positions = sample_positions(state, n, np.random.default_rng(rng_seed))
        return cls(positions, rng_seed)


@dataclass
class BohmRun:
    """Guidance trajectories on the ODE time grid.  Its CSV rows run
    trajectory by trajectory: row_index gives each row's trajectory and time
    index, which the CLI hands its writer so that each id and time is
    formatted once; as_columns expands the same rows into plain columns."""

    times: np.ndarray
    positions: np.ndarray  # (n_traj, n_times)
    node_flags: np.ndarray  # bool per trajectory
    ks_distances: dict  # checkpoint time -> KS distance
    occupancy: Optional[dict] = None  # checkpoint time -> (left, right) fractions
    crossings: Optional[int] = None

    def row_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Trajectory and time index of each CSV row, trajectory by
        trajectory: row i is positions.ravel()[i]."""
        n_traj, n_times = self.positions.shape
        return np.repeat(np.arange(n_traj), n_times), np.tile(np.arange(n_times), n_traj)

    def as_columns(self) -> dict:
        """traj_id, t, x columns in CSV order, one row per (trajectory, time)."""
        traj, step = self.row_index()
        return {"traj_id": traj, "t": self.times[step], "x": self.positions.ravel()}


def _ks_distance(samples: np.ndarray, grid: GridSpec, density: np.ndarray) -> float:
    xs = np.sort(samples)
    f = np.interp(xs, grid.x, _node_cdf(grid, density))
    n = len(xs)
    steps = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(f - steps), np.abs(f - (steps - 1.0 / n)))))


# ODE steps whose field node rows bohm_evolve builds in one batch: memory
# stays at 2 * _FIELD_STEPS rows of each node table, whatever the step count
_FIELD_STEPS = 64


def bohm_evolve(
    ensemble: BohmEnsemble,
    snapshots: Sequence[State],
    snapshot_times: Sequence[float],
    ode_dt: float,
    checkpoints: Optional[Sequence[float]] = None,
    branch_split: Optional[float] = None,
) -> BohmRun:
    """Integrate the ensemble through a precomputed state evolution.

    The velocity field is sampled on the grid at every snapshot (one
    batched fft/ifft over all of them) and interpolated linearly in time
    and position; each configuration advances by the explicit midpoint
    rule.  The time-interpolated node rows of _FIELD_STEPS steps, at their
    start and midpoint times, are built in one vectorised expression, and
    np.interp reads them in position: the bits are those of one snapshot
    and one field evaluation at a time.  Trajectories that enter a density
    below DENSITY_FLOOR are flagged and frozen, and the run continues; a
    checkpoint that finds every trajectory flagged raises NodeRegion, as it
    has no sample to compare with the density.  With branch_split given,
    occupancy fractions left/right of the split are reported at each
    checkpoint along with the number of trajectories that changed sides
    during the run.  The snapshot spacing must be a whole number of ode_dt
    steps, at most _MAX_ODE_STEPS over the run (RuleError otherwise).
    """
    times = np.asarray(snapshot_times, dtype=float)
    if len(snapshots) != len(times) or len(times) < 2:
        raise ValueError("need matching snapshots and at least two times")
    dt_snap = times[1] - times[0]
    if not np.allclose(np.diff(times), dt_snap, rtol=0, atol=1e-9 * max(dt_snap, 1.0)):
        raise ValueError("snapshot times must be uniformly spaced")
    # positions and densities would be compared at different times
    n_steps = _ode_steps(times[-1] - times[0], float(dt_snap), ode_dt, "snapshot spacing")
    grid, _ = _joint_columns(snapshots[0])
    x_nodes = grid.x  # GridSpec.x builds a fresh array per access
    v_table, d_table = _velocity_nodes(snapshots)

    def field_rows(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The node rows at times t, linear in time between snapshots."""
        s = np.minimum(np.maximum((t - times[0]) / dt_snap, 0.0), len(times) - 1.0)
        k = np.minimum(s.astype(int), len(times) - 2)
        w = (s - k)[:, None]
        v_rows = (1.0 - w) * v_table[k] + w * v_table[k + 1]
        d_rows = (1.0 - w) * d_table[k] + w * d_table[k + 1]
        return v_rows, d_rows

    t_grid = times[0] + ode_dt * np.arange(n_steps + 1)
    q = ensemble.positions.astype(float).copy()
    n_traj = len(q)
    flags = np.zeros(n_traj, dtype=bool)
    out = np.empty((n_traj, n_steps + 1))
    out[:, 0] = q

    crossings = 0
    prev_side = np.sign(q - branch_split) if branch_split is not None else None

    # _FIELD_STEPS ODE steps at a time: the node rows at their start and
    # midpoint times are built together
    for first in range(0, n_steps, _FIELD_STEPS):
        t = t_grid[first:min(first + _FIELD_STEPS, n_steps)]
        v_rows, d_rows = field_rows(np.stack([t, t + 0.5 * ode_dt], axis=1).ravel())
        rows = zip(v_rows[0::2], d_rows[0::2], v_rows[1::2], d_rows[1::2])
        for k, (v_start, d_start, v_mid, d_mid) in enumerate(rows, start=first):
            live = ~flags
            v1, d1 = np.interp(q, x_nodes, v_start), np.interp(q, x_nodes, d_start)
            newly = live & (d1 < DENSITY_FLOOR)
            flags |= newly
            live = ~flags
            half = q + 0.5 * ode_dt * np.where(live, v1, 0.0)
            v2, d2 = np.interp(half, x_nodes, v_mid), np.interp(half, x_nodes, d_mid)
            newly = live & (d2 < DENSITY_FLOOR)
            flags |= newly
            live = ~flags
            q = q + ode_dt * np.where(live, v2, 0.0)
            out[:, k + 1] = q
            if branch_split is not None:
                side = np.sign(q - branch_split)
                crossings += int(np.sum((side != prev_side) & live))
                prev_side = side

    if checkpoints is None:
        idx = np.linspace(0, len(times) - 1, min(4, len(times))).astype(int)
        checkpoints = [times[i] for i in idx]
    ks = {}
    occupancy = {} if branch_split is not None else None
    for t_ck in checkpoints:
        k_ode = int(round((t_ck - times[0]) / ode_dt))
        k_ode = min(max(k_ode, 0), n_steps)
        k_snap = int(round((t_ck - times[0]) / dt_snap))
        k_snap = min(max(k_snap, 0), len(times) - 1)
        samples = out[~flags, k_ode]
        if samples.size == 0:
            raise NodeRegion(f"no unflagged trajectory at checkpoint t = {t_ck:.6g}")
        ks[float(t_ck)] = _ks_distance(samples, grid, d_table[k_snap])
        if occupancy is not None:
            right = float(np.mean(samples > branch_split))
            occupancy[float(t_ck)] = (1.0 - right, right)

    return BohmRun(
        times=t_grid,
        positions=out,
        node_flags=flags,
        ks_distances=ks,
        occupancy=occupancy,
        crossings=crossings if branch_split is not None else None,
    )
