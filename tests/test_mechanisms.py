"""Spontaneous-hit dynamics, guidance trajectories, and branch compatibility."""

import math

import numpy as np
import pytest
from oracles import reference_bohm_evolve, reference_velocity_nodes
from scipy import stats

from branchfall import (
    BohmEnsemble,
    BranchTree,
    DensityMatrix,
    EmptyTree,
    ExplicitModel,
    GridSpec,
    GRWParams,
    NodeRegion,
    PhasePartition,
    WaveFunction,
    bohm_evolve,
    bohm_velocity,
    branch_step,
    build_povm,
    coherent_state,
    compatibility_score,
    evolve_explicit,
    free_potential,
    grw_evolve,
    harmonic_potential,
)
from branchfall import dynamics, mechanisms
from branchfall.dynamics import Propagator
from branchfall.mechanisms import sample_positions

GRID = GridSpec(128, -10.0, 10.0, 1.0)
HEAVY = GridSpec(128, -10.0, 10.0, 1.0e9)


def normalized(amps, grid):
    return WaveFunction(grid, amps / math.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx))


def two_lobe(grid, weight_left=0.7):
    amps = math.sqrt(weight_left) * coherent_state(grid, -3.0, 0.0, 0.5).amplitudes
    amps = amps + math.sqrt(1.0 - weight_left) * coherent_state(grid, 3.0, 0.0, 0.5).amplitudes
    return normalized(amps, grid)


def test_grw_params_validation():
    with pytest.raises(ValueError):
        GRWParams(-1.0, 0.5)
    with pytest.raises(ValueError):
        GRWParams(1.0, 0.0)
    assert GRWParams(0.0, 1.0).hit_rate == 0.0


def test_zero_rate_matches_unitary_evolution():
    psi = coherent_state(GRID, 1.0, 0.5, 0.8)
    pot = harmonic_potential(1.0, 1.0)
    run = grw_evolve(psi, pot, GRWParams(0.0, 1.0), 0.5, rng_seed=3, dt_int=0.01)
    prop = Propagator(GRID, pot, 0.0, 0.01)
    wave = psi.amplitudes
    for _ in range(50):
        wave = prop.core.run(wave)
    assert run.hits == []
    assert np.max(np.abs(run.final.amplitudes - wave)) < 1e-12


def test_grw_deterministic_given_seed():
    psi = two_lobe(HEAVY)
    params = GRWParams(2.0, 0.3)
    a = grw_evolve(psi, free_potential(), params, 2.0, rng_seed=9, dt_int=0.05)
    b = grw_evolve(psi, free_potential(), params, 2.0, rng_seed=9, dt_int=0.05)
    assert [(h.time, h.center) for h in a.hits] == [(h.time, h.center) for h in b.hits]
    assert np.array_equal(a.final.amplitudes, b.final.amplitudes)


def _recorded_cores(monkeypatch):
    """Every split-step core grw_evolve builds, in order."""
    cores = []
    init = mechanisms._SplitStep.__init__

    def recording_init(self, *args):
        init(self, *args)
        cores.append(self)

    monkeypatch.setattr(mechanisms._SplitStep, "__init__", recording_init)
    return cores


def test_leapt_free_flight_matches_stepping(monkeypatch):
    # S = 300 substeps at N = 128 is past the crossover (N^3 / 1e4 = 210)
    psi = coherent_state(GRID, 1.0, 0.0, 0.7071)
    pot = harmonic_potential(1.0, 1.0)
    params = GRWParams(2.0, 0.5)
    assert dynamics._leap_path(GRID.n_points, 3.0 / 0.01)
    cores = _recorded_cores(monkeypatch)
    leapt = [grw_evolve(psi, pot, params, 3.0, rng_seed=seed) for seed in range(20)]
    # one core per run holds the dense step and its squares
    assert sum("dense" in core.__dict__ for core in cores) == 20
    assert sum("_powers" in core.__dict__ for core in cores) == 20
    monkeypatch.setattr(mechanisms, "_leap_path", lambda *_: False)
    for seed, got in enumerate(leapt):
        want = grw_evolve(psi, pot, params, 3.0, rng_seed=seed)
        assert [(h.time, h.center) for h in got.hits] == [(h.time, h.center) for h in want.hits]
        diff = np.linalg.norm(got.final.amplitudes - want.final.amplitudes)
        assert diff <= 1e-12 * np.linalg.norm(want.final.amplitudes), seed


def test_short_run_steps_without_dense_step(monkeypatch):
    # S = 60 substeps at N = 128 is under the crossover: the run steps as
    # before and builds neither the dense step nor its squares
    psi = two_lobe(HEAVY)
    assert not dynamics._leap_path(HEAVY.n_points, 3.0 / 0.05)
    cores = _recorded_cores(monkeypatch)
    run = grw_evolve(psi, free_potential(), GRWParams(2.0, 0.3), 3.0, rng_seed=4, dt_int=0.05)
    assert run.hits and cores
    assert not any("dense" in core.__dict__ or "_powers" in core.__dict__ for core in cores)
    # the per-segment remainder cores run one step and build no full kick
    assert not any("kick" in core.__dict__ for core in cores[1:])


def test_first_hit_follows_born_weights():
    psi = two_lobe(HEAVY, weight_left=0.7)
    params = GRWParams(2.0, 0.3)
    sides = []
    for seed in range(2000):
        run = grw_evolve(psi, free_potential(), params, 3.0, rng_seed=10_000 + seed, dt_int=0.05)
        if run.hits:
            sides.append(run.hits[0].center < 0.0)
    frac_left = np.mean(sides)
    assert frac_left == pytest.approx(0.7, abs=0.025)
    n_left = int(np.sum(sides))
    chi = stats.chisquare([n_left, len(sides) - n_left],
                          [0.7 * len(sides), 0.3 * len(sides)])
    assert chi.pvalue > 0.01


def test_wide_hit_barely_disturbs_narrow_packet():
    grid = GridSpec(256, -10.0, 10.0, 1.0)
    psi = coherent_state(grid, 0.0, 0.0, 0.3)
    run = grw_evolve(psi, free_potential(), GRWParams(5.0, 3.0), 1.0, rng_seed=5, dt_int=0.01)
    assert run.hits
    for hit in run.hits:
        assert hit.post_state.norm_squared() == pytest.approx(1.0, abs=1e-10)
    first = run.hits[0]
    fid = abs(np.vdot(first.pre_state.amplitudes, first.post_state.amplitudes) * grid.dx) ** 2
    assert fid > 0.99
    assert run.final.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_hit_counts_are_poisson():
    lam, total = 1.5, 2.0
    psi = coherent_state(HEAVY, 0.0, 0.0, 0.5)
    counts = np.array([
        len(grw_evolve(psi, free_potential(), GRWParams(lam, 0.5), total,
                       rng_seed=seed, dt_int=0.25).hits)
        for seed in range(600)
    ])
    mean = lam * total
    # merge the tail so every expected bin count stays above ~5
    edges = list(range(7))
    observed = [np.sum(counts == k) for k in edges] + [np.sum(counts > edges[-1])]
    pmf = [stats.poisson.pmf(k, mean) for k in edges]
    expected = [p * len(counts) for p in pmf] + [(1.0 - sum(pmf)) * len(counts)]
    chi = stats.chisquare(observed, expected)
    assert chi.pvalue > 0.01


@pytest.fixture(scope="module")
def lobe_tree():
    psi = two_lobe(HEAVY)
    part = PhasePartition((-9.0, 9.0), (-6.0, 6.0), 2, 1)
    povm = build_povm(HEAVY, part, sigma_x=0.5)
    rho = DensityMatrix(HEAVY, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    tree = BranchTree.from_state(rho, povm, dt=0.1, prune_epsilon=1e-4)
    return branch_step(tree, free_potential(), 0.05, dt_int=0.01)


def test_compatibility_score_on_leaf_packet(lobe_tree):
    weights = sorted(round(leaf.weight_sq, 4) for leaf in lobe_tree.leaves)
    assert weights == pytest.approx([0.3, 0.7], abs=1e-3)
    packet = coherent_state(HEAVY, -3.0, 0.0, 0.5)
    history, score = compatibility_score(packet, lobe_tree)
    assert history == (0,)
    assert score > 0.97
    assert score == pytest.approx(0.99751, abs=1e-3)


def test_compatibility_score_reports_subcell_hits(lobe_tree):
    psi = two_lobe(HEAVY)
    run = grw_evolve(psi, free_potential(), GRWParams(3.0, 0.2), 1.0, rng_seed=8, dt_int=0.05)
    history, score = compatibility_score(run.hits[0].post_state, lobe_tree)
    # sub-cell localization: reported, not asserted against a target
    assert history in {(0,), (1,)}
    assert 0.05 < score < 0.95


def test_compatibility_score_empty_tree(lobe_tree):
    empty = BranchTree(lobe_tree.povm, 0.1, 0.0, [])
    with pytest.raises(EmptyTree):
        compatibility_score(coherent_state(HEAVY, 0.0, 0.0, 0.5), empty)


# --- guidance ----------------------------------------------------------------


def test_velocity_matches_packet_momentum():
    psi = coherent_state(GRID, 0.0, 1.3, 0.8)
    assert bohm_velocity(psi, 0.0) == pytest.approx(1.3, abs=1e-6)
    heavy = coherent_state(GridSpec(128, -10.0, 10.0, 4.0), 0.0, 1.3, 0.8)
    assert bohm_velocity(heavy, 0.0) == pytest.approx(1.3 / 4.0, abs=1e-6)


def test_velocity_zero_for_real_state():
    psi = coherent_state(GRID, 0.0, 0.0, 0.8)
    assert abs(bohm_velocity(psi, 0.7)) < 1e-12


def test_velocity_zero_at_symmetry_point():
    amps = (
        coherent_state(GRID, -2.0, 0.0, 0.6).amplitudes
        + coherent_state(GRID, 2.0, 0.0, 0.6).amplitudes
    )
    psi = normalized(amps, GRID)
    assert abs(bohm_velocity(psi, 0.0)) < 1e-12


def test_velocity_node_region():
    psi = coherent_state(GRID, 0.0, 0.0, 0.8)
    with pytest.raises(NodeRegion):
        bohm_velocity(psi, 9.9)


def free_run(grid, psi0, dt_snap, n_snap):
    snaps, ts = [psi0], [0.0]
    wave = psi0
    prop = Propagator(grid, free_potential(), 0.0, dt_snap)
    for k in range(n_snap):
        wave = WaveFunction(grid, prop.core.run(wave.amplitudes), validate=False)
        snaps.append(wave)
        ts.append((k + 1) * dt_snap)
    return snaps, ts


def test_equivariance_free_gaussian():
    grid = GridSpec(192, -12.0, 12.0, 1.0)
    psi0 = coherent_state(grid, -2.0, 1.0, 0.7)
    snaps, ts = free_run(grid, psi0, 0.05, 30)
    ens = BohmEnsemble.from_state(psi0, 4000, rng_seed=42)
    run = bohm_evolve(ens, snaps, ts, ode_dt=0.0125, checkpoints=[0.0, 0.75, 1.5])
    assert not run.node_flags.any()
    assert all(d < 0.03 for d in run.ks_distances.values())
    # 1D trajectories guided by one field never cross
    order = np.argsort(ens.positions)
    assert np.all(np.diff(run.positions[order, :], axis=0) >= -1e-12)


def test_equivariance_improves_with_finer_ode_steps():
    grid = GridSpec(192, -12.0, 12.0, 1.0)
    psi0 = coherent_state(grid, -2.0, 1.0, 0.7)
    snaps, ts = free_run(grid, psi0, 0.05, 20)
    ens = BohmEnsemble.from_state(psi0, 2000, rng_seed=11)
    coarse = bohm_evolve(ens, snaps, ts, ode_dt=0.05, checkpoints=[1.0])
    fine = bohm_evolve(ens, snaps, ts, ode_dt=0.025, checkpoints=[1.0])
    assert fine.ks_distances[1.0] <= coarse.ks_distances[1.0] + 0.003


def test_two_branch_occupancy_and_no_crossing():
    grid = GridSpec(192, -12.0, 12.0, 2.0)
    amps = (
        math.sqrt(0.7) * coherent_state(grid, -3.5, -1.0, 0.6).amplitudes
        + math.sqrt(0.3) * coherent_state(grid, 3.5, 1.0, 0.6).amplitudes
    )
    psi0 = normalized(amps, grid)
    # superorthogonality precondition: branch densities barely overlap
    pa = np.abs(coherent_state(grid, -3.5, -1.0, 0.6).amplitudes) ** 2 * grid.dx
    pb = np.abs(coherent_state(grid, 3.5, 1.0, 0.6).amplitudes) ** 2 * grid.dx
    assert np.sum(np.sqrt(pa * pb)) < 1e-4
    snaps, ts = free_run(grid, psi0, 0.04, 25)
    ens = BohmEnsemble.from_state(psi0, 4000, rng_seed=77)
    run = bohm_evolve(ens, snaps, ts, ode_dt=0.01, checkpoints=[0.0, 0.5, 1.0], branch_split=0.0)
    assert run.crossings == 0
    for left, right in run.occupancy.values():
        assert left == pytest.approx(0.7, abs=0.02)
        assert right == pytest.approx(0.3, abs=0.02)


def test_symmetry_point_trajectory_stays_fixed():
    grid = GridSpec(192, -12.0, 12.0, 2.0)
    amps = (
        coherent_state(grid, -2.0, 0.0, 0.6).amplitudes
        + coherent_state(grid, 2.0, 0.0, 0.6).amplitudes
    )
    psi0 = normalized(amps, grid)
    snaps, ts = free_run(grid, psi0, 0.05, 10)
    run = bohm_evolve(BohmEnsemble(np.array([0.0]), 0), snaps, ts, ode_dt=0.01)
    assert np.max(np.abs(run.positions)) < 1e-12


def test_sampler_tracks_density():
    psi = coherent_state(GRID, 1.0, 0.0, 0.8)
    rng = np.random.default_rng(4)
    draws = sample_positions(psi, 20_000, rng)
    assert np.mean(draws) == pytest.approx(1.0, abs=0.02)
    assert np.std(draws) == pytest.approx(0.8, abs=0.02)


def test_bohm_evolve_validation():
    psi = coherent_state(GRID, 0.0, 0.0, 0.8)
    ens = BohmEnsemble(np.array([0.0]), 0)
    with pytest.raises(ValueError):
        bohm_evolve(ens, [psi], [0.0], 0.01)
    with pytest.raises(ValueError):
        bohm_evolve(ens, [psi, psi, psi], [0.0, 0.1, 0.3], 0.01)


def test_bohm_evolve_rejects_snapshots_between_ode_steps():
    # 12 ODE steps of 0.04 end at t = 0.48, not at the last snapshot's 0.5
    psi0 = coherent_state(GRID, 1.0, 0.0, 0.7071)
    snaps, ts = free_run(GRID, psi0, 0.05, 10)
    ens = BohmEnsemble(np.array([1.0]), 0)
    with pytest.raises(ValueError, match="not a whole number of ode_dt"):
        bohm_evolve(ens, snaps, ts, ode_dt=0.04)
    with pytest.raises(ValueError, match="not a whole number of ode_dt"):
        bohm_evolve(ens, snaps, ts, ode_dt=5e-324)  # the step count overflows
    assert bohm_evolve(ens, snaps, ts, ode_dt=0.025).positions.shape == (1, 21)


def test_checkpoint_without_unflagged_trajectory_raises_node_region():
    # both positions sit where the packet's density is below DENSITY_FLOOR,
    # so every checkpoint finds no sample to compare with the density
    psi0 = coherent_state(GRID, 1.0, 0.0, 0.7071)
    snaps, ts = free_run(GRID, psi0, 0.05, 4)
    ens = BohmEnsemble(np.array([-9.0, -9.0]), 0)
    with pytest.raises(NodeRegion, match="no unflagged trajectory"):
        bohm_evolve(ens, snaps, ts, ode_dt=0.0125)


def _wave_snapshots(grid, psi, dt, n):
    core = dynamics._SplitStep(grid, harmonic_potential(grid.mass, 1.0).values(grid), dt)
    snaps = [psi]
    for _ in range(n):
        snaps.append(WaveFunction(grid, core.run(snaps[-1].amplitudes), validate=False))
    return snaps, np.arange(n + 1) * dt


def _explicit_snapshots(grid, psi, couplings, dt, n):
    model = ExplicitModel.from_wavefunction(psi, couplings)
    snaps = [model]
    for _ in range(n):
        model, _ = evolve_explicit(model, harmonic_potential(grid.mass, 1.0), dt, 1, None)
        snaps.append(model)
    return snaps, np.arange(n + 1) * dt


@pytest.mark.parametrize(
    "case",
    ["wave_output", "two_branch", "nodes", "explicit_k1", "explicit_k3"],
)
def test_bohm_evolve_matches_the_per_snapshot_reference_bitwise(case):
    # the batched velocity nodes and node rows against the per-snapshot,
    # per-call loop: same positions, flags, KS distances and occupancies
    split = None
    if case == "wave_output":
        # the wave_output bohm shape: 41 snapshots, 160 ODE steps
        grid = GridSpec(192, -12.0, 12.0, 1.0)
        snaps, ts = _wave_snapshots(grid, coherent_state(grid, 1.0, 0.0, 0.7071), 0.05, 40)
        positions = BohmEnsemble.from_state(snaps[0], 500, 11).positions
        ode_dt, checkpoints = 0.0125, [0.0, 0.5, 1.3, 2.0]
    elif case in ("two_branch", "nodes"):
        grid = GridSpec(128, -10.0, 10.0, 2.0)
        psi = two_lobe(grid)
        snaps, ts = _wave_snapshots(grid, psi, 0.04, 25)
        positions = BohmEnsemble.from_state(psi, 300, 5).positions
        if case == "nodes":
            # a third of the trajectories start where the density is nil
            positions = np.concatenate([positions[:200], np.linspace(-9.5, 9.5, 100)])
        ode_dt, checkpoints, split = 0.01, [0.0, 0.52, 1.0], 0.0
    else:
        grid = GridSpec(64, -8.0, 8.0, 1.0)
        couplings = [0.4] if case == "explicit_k1" else [0.2, 0.5, 0.9]
        snaps, ts = _explicit_snapshots(grid, coherent_state(grid, 1.0, 0.5, 0.7071), couplings, 0.05, 12)
        positions = BohmEnsemble.from_state(snaps[0], 200, 3).positions
        ode_dt, checkpoints = 0.0125, [0.0, 0.3, 0.6]
    run = bohm_evolve(BohmEnsemble(positions, 0), snaps, ts, ode_dt, checkpoints, split)
    out, flags, ks, occupancy, crossings = reference_bohm_evolve(
        positions, snaps, ts, ode_dt, checkpoints, split
    )
    assert np.array_equal(run.positions, out) and np.array_equal(run.node_flags, flags)
    assert run.ks_distances == ks
    if split is not None:
        assert run.occupancy == occupancy and run.crossings == crossings
    if case == "nodes":
        assert 0 < flags.sum() < len(flags)


def test_velocity_nodes_in_batches_match_one_state_at_a_time(monkeypatch):
    grid = GridSpec(64, -8.0, 8.0, 1.0)
    snaps, _ = _explicit_snapshots(grid, coherent_state(grid, 1.0, 0.5, 0.7071), [0.2, 0.5, 0.9], 0.05, 6)
    # 8 columns per state: batches of 2, 2, 2 and 1 states
    monkeypatch.setattr(mechanisms, "_NODE_COLUMNS", 16)
    velocity, density = mechanisms._velocity_nodes(snaps)
    for k, state in enumerate(snaps):
        v, d = reference_velocity_nodes(state)
        assert np.array_equal(velocity[k], v) and np.array_equal(density[k], d)


def test_velocity_nodes_reject_states_of_another_shape():
    grid = GridSpec(64, -8.0, 8.0, 1.0)
    psi = coherent_state(grid, 0.0, 0.0, 0.7071)
    with pytest.raises(ValueError, match="one column count"):
        mechanisms._velocity_nodes([psi, ExplicitModel.from_wavefunction(psi, [0.3])])
    with pytest.raises(ValueError, match="one grid"):
        mechanisms._velocity_nodes([psi, coherent_state(GridSpec(64, -8.0, 8.0, 2.0), 0.0, 0.0, 0.7071)])
