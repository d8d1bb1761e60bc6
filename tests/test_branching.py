"""Branch-tree bookkeeping, trajectory sampling, and the explicit-bath checks."""

import gc
import itertools
import json
import math
import operator
import tracemalloc
import weakref

import numpy as np
import pytest

from branchfall import (
    BoundaryViolation,
    BornSampler,
    BranchTree,
    DensityMatrix,
    EmptyTree,
    EscapeMass,
    EscapeSampled,
    ExplicitModel,
    ExplosionGuard,
    GridSpec,
    PhasePartition,
    PositivityError,
    WaveFunction,
    branch_step,
    build_povm,
    coherent_state,
    decoherence_functional,
    evolve,
    evolve_explicit,
    expectation,
    free_potential,
    harmonic_potential,
    mixture_consistency,
    purity_and_entropy,
    suggested_branch_interval,
    superorthogonality_overlap,
)
from branchfall import branching, dynamics
from branchfall.dynamics import Propagator, _evolve_kernel, _state_of
from oracles import reference_collapse, reference_strang, reference_trajectory


GRID = GridSpec(128, -10.0, 10.0, 1.0)
# GRID's spacing on a wider window: Lueders children of the +-9 windows and
# Lambda = 5 cats keep under 1e-8 of their mass in the edge cells
WIDE = GridSpec(192, -15.0, 15.0, 1.0)


def cat_state(grid, q, sigma, p=0.0):
    amps = (
        coherent_state(grid, -q, p, sigma).amplitudes
        + coherent_state(grid, q, -p, sigma).amplitudes
    )
    amps = amps / math.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx)
    return DensityMatrix(grid, np.outer(amps, amps.conj()))


@pytest.fixture(scope="module")
def povm_3x3():
    part = PhasePartition((-9.0, 9.0), (-6.0, 6.0), 3, 3)
    return build_povm(GRID, part, sigma_x=1.0)


@pytest.fixture(scope="module")
def povm_2x1():
    part = PhasePartition((-9.0, 9.0), (-6.0, 6.0), 2, 1)
    return build_povm(GRID, part, sigma_x=0.9)


@pytest.fixture(scope="module")
def wide_povm_3x3():
    part = PhasePartition((-9.0, 9.0), (-6.0, 6.0), 3, 3)
    return build_povm(WIDE, part, sigma_x=1.0)


@pytest.fixture(scope="module")
def wide_povm_2x1():
    part = PhasePartition((-9.0, 9.0), (-6.0, 6.0), 2, 1)
    return build_povm(WIDE, part, sigma_x=0.9)


def test_single_packet_one_step_dominant_child(povm_3x3):
    rho = DensityMatrix.from_pure(coherent_state(GRID, 0.0, 0.0, 1.0))
    tree = BranchTree.from_state(rho, povm_3x3, dt=0.05, prune_epsilon=1e-6)
    out = branch_step(tree, free_potential(), 0.0, dt_int=0.05)
    best = max(out.leaves, key=lambda leaf: leaf.weight_sq)
    assert best.weight_sq >= 0.95
    assert best.weight_sq == pytest.approx(0.993680, abs=1e-3)
    assert best.history == (4,)  # central cell of the 3x3 partition
    assert abs(best.z.q) < 0.05 and abs(best.z.p) < 0.05
    assert out.weight_closure() == pytest.approx(1.0, abs=1e-10)


def test_symmetric_cat_splits_evenly(wide_povm_2x1):
    rho = cat_state(WIDE, 4.0, 0.9)
    tree = BranchTree.from_state(rho, wide_povm_2x1, dt=0.4, prune_epsilon=1e-4)
    out = branch_step(tree, free_potential(), 5.0, dt_int=0.004)
    assert len(out.leaves) == 2
    by_hist = {leaf.history: leaf for leaf in out.leaves}
    for alpha, sign in [(0, -1.0), (1, 1.0)]:
        leaf = by_hist[(alpha,)]
        assert leaf.weight_sq == pytest.approx(0.5, abs=0.02)
        assert leaf.z.q == pytest.approx(sign * 4.0, abs=0.3)
        # z stays inside the cell the history names
        assert wide_povm_2x1.partition.locate(leaf.z.q, leaf.z.p) == alpha
    assert out.escape_weight < 0.01
    assert out.weight_closure() == pytest.approx(1.0, abs=1e-10)


def test_closure_chain_rule_and_pruning(povm_3x3):
    rho = DensityMatrix.from_pure(coherent_state(GRID, 0.0, 0.0, 1.0))
    tree = BranchTree.from_state(rho, povm_3x3, dt=0.3, prune_epsilon=1e-4)
    for _ in range(2):
        tree = branch_step(
            tree, harmonic_potential(1.0, 1.0), 0.3, dt_int=0.01, leaf_cap=512
        )
    assert len(tree.leaves) > 1
    assert tree.weight_closure() == pytest.approx(1.0, abs=1e-10)
    assert tree.dropped_weight > 0.0
    for leaf in tree.leaves:
        assert len(leaf.cond_probs) == 2
        assert all(0.0 <= c <= 1.0 + 1e-12 for c in leaf.cond_probs)
        prefix = list(itertools.accumulate(leaf.cond_probs, operator.mul, initial=1.0))
        assert abs(prefix[-1] - leaf.weight_sq) < 1e-10
        # weights never grow down a branch line
        assert all(b <= a + 1e-12 for a, b in zip(prefix, prefix[1:]))


def test_leaves_do_not_keep_ancestor_kernels(povm_2x1):
    rho = cat_state(GRID, 4.0, 0.9)
    root_state = weakref.ref(rho)
    tree = BranchTree.from_state(rho, povm_2x1, dt=0.1, prune_epsilon=1e-4)
    del rho
    for _ in range(2):
        tree = branch_step(tree, free_potential(), 0.5, dt_int=0.05)
    gc.collect()
    assert root_state() is None
    assert all(len(leaf.cond_probs) == 2 for leaf in tree.leaves)


def test_escape_mass_raises(povm_3x3):
    # packet riding the top of the momentum window leaks into the remainder
    rho = DensityMatrix.from_pure(coherent_state(GRID, 0.0, 5.8, 1.0))
    tree = BranchTree.from_state(rho, povm_3x3, dt=0.05, prune_epsilon=0.0)
    with pytest.raises(EscapeMass):
        branch_step(tree, free_potential(), 0.0, dt_int=0.05)


def test_branch_step_stops_packet_at_grid_edge():
    # a packet running into the edge of the periodic grid: the first interval
    # leaves under 1e-8 of its mass in the edge cells, the second about 1e-4,
    # which unchecked would wrap around and be booked to the opposite cell;
    # N = 256 guards the packed kernel of the FFT path
    for n_points in (88, 256):
        grid = GridSpec(n_points, -11.0, 11.0, 1.0)
        povm = build_povm(grid, PhasePartition((-7.0, 7.0), (-8.0, 8.0), 2, 1), sigma_x=0.8)
        rho = coherent_state(grid, 3.0, 4.0, 0.7).to_density()
        tree = BranchTree.from_state(rho, povm, dt=0.5)
        tree = branch_step(tree, free_potential(), 0.1, dt_int=0.05, escape_tol=1.0)
        with pytest.raises(BoundaryViolation):
            branch_step(tree, free_potential(), 0.1, dt_int=0.05, escape_tol=1.0)


def _gaussian_density(grid, q, sigma):
    # built by hand: coherent_state refuses packets with this much edge tail
    amps = np.exp(-((grid.x - q) ** 2) / (4.0 * sigma**2)).astype(complex)
    amps /= math.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx)
    return DensityMatrix.from_pure(WaveFunction(grid, amps))


@pytest.mark.parametrize(
    "path",
    [
        lambda rho, povm: evolve(rho, free_potential(), 0.0, 0.01, 5),
        lambda rho, povm: branch_step(
            BranchTree.from_state(rho, povm, dt=0.05), free_potential(), 0.0,
            dt_int=0.01, escape_tol=1.0,
        ),
        lambda rho, povm: BornSampler(
            rho, free_potential(), 0.0, povm, 0.05, dt_int=0.01
        ).trajectory(1, 0),
    ],
    ids=["evolve", "branch_step", "born_sampler"],
)
def test_every_density_path_guards_the_edge_at_1e_8(path):
    # every path steps through one chain, which checks its entry form first
    grid = GridSpec(64, -8.0, 8.0, 1.0)
    povm = build_povm(grid, PhasePartition((-6.0, 6.0), (-4.0, 4.0), 2, 1), sigma_x=0.7)
    near = _gaussian_density(grid, 4.1, 0.7)
    dens = near.position_density()
    edge = (dens[0] + dens[1] + dens[-2] + dens[-1]) * grid.dx
    assert 1e-7 < edge < 1e-5  # past 1e-8, far inside the old branch bound 1e-2
    with pytest.raises(BoundaryViolation, match="at t = 0$"):
        path(near, povm)
    path(_gaussian_density(grid, 0.0, 0.7), povm)


def test_non_psd_kernel_raises_positivity_error(povm_2x1):
    # unit trace, but weight -1 on the right cell: a corrupted kernel that
    # clipping alone would renormalize into a confident left branch
    left = coherent_state(GRID, -4.0, 0.0, 0.9).amplitudes
    right = coherent_state(GRID, 4.0, 0.0, 0.9).amplitudes
    bad = DensityMatrix(
        GRID, 2.0 * np.outer(left, left.conj()) - np.outer(right, right.conj()), validate=False
    )
    tree = BranchTree.from_state(bad, povm_2x1, dt=0.05)
    with pytest.raises(PositivityError, match="below -1e-10"):
        branch_step(tree, free_potential(), 0.0, dt_int=0.05)
    sampler = BornSampler(bad, free_potential(), 0.0, povm_2x1, 0.05, dt_int=0.05)
    with pytest.raises(PositivityError, match="below -1e-10"):
        sampler.trajectory(1, 0)


def test_explosion_guard(povm_3x3):
    rho = DensityMatrix.from_pure(coherent_state(GRID, 0.0, 0.0, 1.0))
    tree = BranchTree.from_state(rho, povm_3x3, dt=0.05, prune_epsilon=0.0)
    with pytest.raises(ExplosionGuard):
        branch_step(tree, free_potential(), 0.0, dt_int=0.05, leaf_cap=5)


def test_empty_tree_raises(povm_3x3):
    tree = BranchTree(povm_3x3, 0.1, 0.0, [])
    with pytest.raises(EmptyTree):
        branch_step(tree, free_potential(), 0.0, dt_int=0.1)
    with pytest.raises(EmptyTree):
        mixture_consistency(tree, DensityMatrix.from_pure(coherent_state(GRID, 0, 0, 1)))


def test_snapshot_is_json_ready(wide_povm_2x1):
    rho = cat_state(WIDE, 4.0, 0.9)
    tree = BranchTree.from_state(rho, wide_povm_2x1, dt=0.4, prune_epsilon=1e-4)
    out = branch_step(tree, free_potential(), 5.0, dt_int=0.01)
    rows = json.loads(json.dumps(out.snapshot()))
    assert len(rows) == 2
    assert set(rows[0]) == {"history", "weight", "z"}
    assert rows[0]["history"] == [0] and len(rows[0]["z"]) == 2


def test_mixture_consistency_single_cell_is_identity():
    # one cell covering the whole window with deep margins acts as identity
    grid = GridSpec(128, -14.0, 14.0, 1.0)
    rho = DensityMatrix.from_pure(coherent_state(grid, 0.0, 0.0, 1.0))
    part = PhasePartition((-13.0, 13.0), (-8.0, 8.0), 1, 1)
    povm = build_povm(grid, part, sigma_x=1.0, quadrature=(64, 72))
    tree = BranchTree.from_state(rho, povm, dt=0.2, prune_epsilon=0.0)
    out = branch_step(tree, free_potential(), 0.8, dt_int=0.002)
    ref = rho.elements.copy()
    prop = Propagator(grid, free_potential(), 0.8, 0.002)
    for _ in range(100):
        ref = prop.step_elements(ref)
    dev = mixture_consistency(out, DensityMatrix(grid, ref, validate=False))
    assert len(out.leaves) == 1
    assert dev < 1e-10


def test_mixture_consistency_decohered_state(wide_povm_2x1):
    rho = cat_state(WIDE, 4.0, 0.9)
    lam = 5.0
    tree = BranchTree.from_state(rho, wide_povm_2x1, dt=0.4, prune_epsilon=1e-6)
    for _ in range(2):
        tree = branch_step(tree, free_potential(), lam, dt_int=0.008, leaf_cap=512)
    ref = rho.elements.copy()
    prop = Propagator(WIDE, free_potential(), lam, 0.008)
    for _ in range(100):
        ref = prop.step_elements(ref)
    dev = mixture_consistency(tree, DensityMatrix(WIDE, ref, validate=False))
    assert dev < 0.05


def test_mixture_consistency_interference_control():
    # +-p superposition inside one x cell: the momentum split erases the
    # position fringes that the collapse-free evolution keeps
    rho = cat_state(GRID, 0.0, 0.7, p=2.0)
    part = PhasePartition((-9.0, 9.0), (-6.0, 6.0), 1, 2)
    povm = build_povm(GRID, part, sigma_x=0.7)
    tree = BranchTree.from_state(rho, povm, dt=0.1, prune_epsilon=0.0)
    out = branch_step(tree, free_potential(), 0.0, dt_int=0.002)
    ref = rho.elements.copy()
    prop = Propagator(GRID, free_potential(), 0.0, 0.002)
    for _ in range(50):
        ref = prop.step_elements(ref)
    dev = mixture_consistency(out, DensityMatrix(GRID, ref, validate=False))
    weights = sorted(leaf.weight_sq for leaf in out.leaves)
    assert weights == pytest.approx([0.5, 0.5], abs=0.01)
    assert dev > 0.05


def test_sample_trajectory_deterministic(wide_povm_2x1):
    rho = cat_state(WIDE, 4.0, 0.9)
    args = (rho, free_potential(), 5.0, wide_povm_2x1, 0.4)
    recs_a, final_a = BornSampler(*args, dt_int=0.004).trajectory(3, rng_seed=7)
    recs_b, final_b = BornSampler(*args, dt_int=0.004).trajectory(3, rng_seed=7)
    assert recs_a == recs_b
    assert np.array_equal(final_a.elements, final_b.elements)
    assert recs_a[0][0] == 0.0 and recs_a[0][1] is None
    assert [t for t, _, _ in recs_a] == pytest.approx([0.0, 0.4, 0.8, 1.2])
    zero_steps, _ = BornSampler(*args, dt_int=0.004).trajectory(0, rng_seed=7)
    assert len(zero_steps) == 1


def test_sample_trajectory_born_fractions(wide_povm_2x1):
    rho = cat_state(WIDE, 4.0, 0.9)
    counts = {0: 0, 1: 0, "escape": 0}
    n = 200
    sampler = BornSampler(rho, free_potential(), 5.0, wide_povm_2x1, 0.4, dt_int=0.02)
    for seed in range(n):
        try:
            recs, _ = sampler.trajectory(1, rng_seed=1000 + seed)
            counts[recs[1][1]] += 1
        except EscapeSampled:
            counts["escape"] += 1
    assert counts["escape"] < 15
    # 4 sigma band for a fair binomial with n = 200
    assert abs(counts[0] - counts[1]) < 4.0 * math.sqrt(n * 0.5)


def test_escape_sampled_carries_context(povm_3x3):
    rho = DensityMatrix.from_pure(coherent_state(GRID, 0.0, 5.8, 1.0))
    sampler = BornSampler(rho, free_potential(), 0.0, povm_3x3, 0.05, dt_int=0.05)
    hits = 0
    for seed in range(12):
        try:
            sampler.trajectory(1, rng_seed=seed)
        except EscapeSampled as err:
            hits += 1
            assert err.time == pytest.approx(0.05)
            assert len(err.records) == 1
    assert hits > 0  # escape weight is ~0.35, a dozen draws must hit it


def _outcome(run):
    """("ok", records, final kernel, born) or ("escape", time, records, born);
    born holds the reference's products of drawn cell weights, None for the
    sampler."""
    try:
        recs, final, *born = run()
    except EscapeSampled as err:
        return "escape", err.time, err.records, getattr(err, "born", None)
    return "ok", recs, getattr(final, "elements", final), born[0] if born else None


# Largest deviation of the factored collapse from the dense reference, in
# units of the roundoff floor eps / W of a state reached through drawn cell
# weights of product W: on each phase-point coordinate, and on the final
# kernel relative to its largest entry.  Measured: at most 6.6 and 2.1.
_FLOOR_UNITS = 64.0


def _sample_against_reference(args, dt_int, runs, stop=None):
    """Draw every (n_steps, seed) run from one shared BornSampler and from
    the dense reference loop.  Histories, collapse times and escapes agree
    exactly; every phase point and the final kernel agree to within
    _FLOOR_UNITS * eps / W.  Returns the sampler's outcomes."""
    eps = np.finfo(float).eps
    sampler = BornSampler(*args, dt_int=dt_int)
    outcomes = []
    for n_steps, seed in runs:
        got = _outcome(lambda: sampler.trajectory(n_steps, seed, stop=stop))
        want = _outcome(lambda: reference_trajectory(*args, n_steps, seed, dt_int, stop=stop))
        assert got[0] == want[0]
        if got[0] == "ok":
            recs, ref_recs = got[1], want[1]
        else:
            assert got[1] == want[1]
            recs, ref_recs = got[2], want[2]
        assert [r[:2] for r in recs] == [r[:2] for r in ref_recs]
        born = want[3]
        for (_, _, z), (_, _, z_ref), w in zip(recs, ref_recs, born):
            assert max(abs(z.q - z_ref.q), abs(z.p - z_ref.p)) <= _FLOOR_UNITS * eps / w
        if got[0] == "ok":
            dev = np.abs(got[2] - want[2]).max() / np.abs(want[2]).max()
            assert dev <= _FLOOR_UNITS * eps / born[len(recs) - 1]
            # the final factor expands to the bits of the dense Lueders
            # child of its cached parent, evolved by this run or a longer one
            history = tuple(r[1] for r in recs[1:])
            parent = sampler._nodes[history[:-1]]
            proj = sampler.povm.project(parent.vecs, history[-1])
            ref = reference_collapse(proj, parent.lam, parent.weights[history[-1]])
            assert np.array_equal(got[2], ref)
        outcomes.append(got)
    return outcomes


def test_born_sampler_matches_reference_multi_step(wide_povm_3x3):
    # packet near a cell corner: the collapses spread over several cells
    rho = DensityMatrix.from_pure(coherent_state(WIDE, 3.0, 2.0, 1.0))
    args = (rho, harmonic_potential(1.0, 1.0), 0.3, wide_povm_3x3, 0.3)
    seeds = [np.random.SeedSequence(entropy=5, spawn_key=(i,)) for i in range(30)]
    # the shorter reruns end on nodes that the longer runs already evolved
    runs = [(3, seed) for seed in seeds] + [(2, seed) for seed in seeds[:10]]
    outcomes = _sample_against_reference(args, 0.03, runs)
    histories = {tuple(r[1] for r in recs[1:]) for kind, recs, *_ in outcomes[:30] if kind == "ok"}
    assert len(histories) >= 3 and all(len(h) == 3 for h in histories)


def test_born_sampler_matches_reference_on_escape(povm_3x3):
    rho = DensityMatrix.from_pure(coherent_state(GRID, 0.0, 5.8, 1.0))
    args = (rho, free_potential(), 0.0, povm_3x3, 0.05)
    outcomes = _sample_against_reference(args, 0.005, [(2, seed) for seed in range(12)])
    kinds = {kind for kind, *_ in outcomes}
    assert kinds == {"ok", "escape"}


def test_born_sampler_matches_reference_with_stop_hook(wide_povm_3x3):
    rho = DensityMatrix.from_pure(coherent_state(WIDE, 3.0, 2.0, 1.0))
    args = (rho, harmonic_potential(1.0, 1.0), 0.3, wide_povm_3x3, 0.3)
    seeds = [np.random.SeedSequence(entropy=9, spawn_key=(i,)) for i in range(20)]
    outcomes = _sample_against_reference(
        args, 0.03, [(3, seed) for seed in seeds], stop=lambda t, alpha, z: alpha == 4
    )
    lengths = {len(recs) for kind, recs, *_ in outcomes if kind == "ok"}
    assert 2 in lengths and len(lengths) > 1  # some stopped early, some ran on


def test_born_sampler_evolves_shared_interval_once(wide_povm_2x1, monkeypatch):
    builds, steps = [], []
    init, step = Propagator.__init__, Propagator.step_elements

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    def counting_step(self, elements):
        steps.append(1)
        return step(self, elements)

    monkeypatch.setattr(Propagator, "__init__", counting_init)
    monkeypatch.setattr(Propagator, "step_elements", counting_step)
    rho = cat_state(WIDE, 4.0, 0.9)
    sampler = BornSampler(rho, free_potential(), 5.0, wide_povm_2x1, 0.4, dt_int=0.02)
    alphas = set()
    for i in range(100):
        seed = np.random.SeedSequence(entropy=3, spawn_key=(i,))
        try:
            alphas.add(sampler.trajectory(1, seed)[0][1][1])
        except EscapeSampled:
            pass
    assert alphas == {0, 1}
    assert len(builds) == 1
    assert len(steps) == 20  # n_sub = 0.4 / 0.02, once for all 100 trajectories


def test_born_sampler_cache_cap_keeps_results(wide_povm_3x3, monkeypatch):
    rho = DensityMatrix.from_pure(coherent_state(WIDE, 3.0, 2.0, 1.0))
    args = (rho, harmonic_potential(1.0, 1.0), 0.3, wide_povm_3x3, 0.3)
    seeds = [np.random.SeedSequence(entropy=5, spawn_key=(i,)) for i in range(12)]

    def run(sampler, sizes):
        out = []
        for seed in seeds:
            recs, final = sampler.trajectory(3, seed)
            out.append((recs, final.elements))
            sizes.append(len(sampler._nodes))
        return out

    uncapped_sizes, capped_sizes = [], []
    uncapped = run(BornSampler(*args, dt_int=0.03), uncapped_sizes)
    monkeypatch.setattr(branching, "NODE_CAP", 2)
    capped = run(BornSampler(*args, dt_int=0.03), capped_sizes)
    assert max(uncapped_sizes) > 2
    assert max(capped_sizes) <= 2
    for (recs_a, final_a), (recs_b, final_b) in zip(uncapped, capped):
        assert recs_a == recs_b
        assert np.array_equal(final_a, final_b)


# The POVM shapes of the benchmark's sample runs (N = 128, 3 x 3 cells, 4
# intervals), its wide-grid branch runs (N = 512, 1 x 2, one interval) and
# its reduce runs (N = 96, 1 x 3, mass 4, sigma_x = 0.8, one interval), each
# with its dynamics and packet.
_BENCH_SHAPES = {
    "128-3x3": dict(
        grid=GridSpec(128, -10.0, 10.0, 1.0), cells=((-6.0, 6.0), (-6.0, 6.0), 3, 3),
        sigma_x=0.7071, potential=harmonic_potential(1.0, 1.0), lam=0.5, dt=0.3,
        dt_int=0.03, q0=2.0, intervals=4,
    ),
    "512-1x2": dict(
        grid=GridSpec(512, -16.0, 16.0, 1.0), cells=((-6.0, 6.0), (-6.0, 6.0), 1, 2),
        sigma_x=0.7071, potential=harmonic_potential(1.0, 1.0), lam=0.5, dt=0.3,
        dt_int=0.1, q0=2.0, intervals=1,
    ),
    "96-1x3": dict(
        grid=GridSpec(96, -10.0, 10.0, 4.0), cells=((-6.0, 6.0), (-12.0, 12.0), 1, 3),
        sigma_x=0.8, potential=harmonic_potential(4.0, 0.25), lam=0.25, dt=1.5,
        dt_int=0.1, q0=1.0, intervals=1,
    ),
}


@pytest.fixture(scope="module", params=list(_BENCH_SHAPES))
def bench_shape(request):
    """(shape, POVM, initial packet) of one benchmark shape."""
    shape = _BENCH_SHAPES[request.param]
    povm = build_povm(shape["grid"], PhasePartition(*shape["cells"]), shape["sigma_x"])
    rho = coherent_state(shape["grid"], shape["q0"], 0.0, shape["sigma_x"]).to_density()
    return shape, povm, rho


def _check_against_dense_collapse(povm, el):
    """Weigh and collapse the kernel el from its factor and check every
    weight against the dense Tr(Pi^2 rho), and every child of weight
    w > 1e-12 against the dense Lueders child, to _FLOOR_UNITS * eps / w of
    its largest entry.  Returns the factor's lam."""
    eps = np.finfo(float).eps
    dx = povm.grid.dx
    lam, _, projs, weights, esc = branching._weigh(povm, el)
    dense_w = np.einsum("aij,ji->a", povm.operators @ povm.operators, el).real * dx
    dense_esc = float(np.sum((povm.rest @ povm.rest) * el.T).real * dx)
    # 1e-14 relative from w = 0.1 up, below that the 1e-15 floor of the
    # dense trace sum (measured: 2.7e-15 relative for w >= 1e-2, and at
    # most 2.5e-16 absolute below)
    for got, want in zip([*weights, esc], [*dense_w, dense_esc]):
        assert abs(got - want) <= 1e-14 * max(want, 0.1)
    for alpha in np.flatnonzero(weights > 1e-12):
        pi = povm.operators[alpha]
        dense = (pi @ el) @ pi
        dense /= np.trace(dense).real * dx
        child = branching._collapse(povm.grid, projs[alpha], lam, weights[alpha]).elements
        assert np.array_equal(child, child.conj().T)
        dev = np.abs(child - dense).max() / np.abs(dense).max()
        assert dev <= _FLOOR_UNITS * eps / weights[alpha]
    return lam


def test_factored_collapse_matches_dense_lueders(bench_shape):
    shape, povm, rho = bench_shape
    prop, n_sub = branching._interval_propagator(
        shape["grid"], shape["potential"], shape["lam"], shape["dt"], shape["dt_int"]
    )
    el = prop.pack(rho.elements)
    for _ in range(n_sub):
        el = prop.step_elements(el)
    lam = _check_against_dense_collapse(povm, _state_of(prop.grid, el).elements)
    assert len(lam) < shape["grid"].n_points / 2


def test_wide_root_hands_off_after_one_factored_substep(monkeypatch):
    # the wide-grid branch root: M0^2 r = 52^2 sits on the bound at r = 1,
    # so the packet takes one factored substep, then its rank outgrows the
    # bound and the chain hands off once, within 1e-13 max|rho| of the chain
    # that steps its kernel from the start
    shape = _BENCH_SHAPES["512-1x2"]
    prop, n_sub = branching._interval_propagator(
        shape["grid"], shape["potential"], shape["lam"], shape["dt"], shape["dt_int"]
    )
    assert prop.dephase_terms**2 == dynamics._FACTOR_MAX_BLOCK and n_sub == 3
    ranks, packs = [], []
    step_factor, pack = Propagator.step_factor, dynamics._pack_kernel
    monkeypatch.setattr(
        Propagator, "step_factor", lambda self, f: ranks.append(f.rank) or step_factor(self, f)
    )
    monkeypatch.setattr(dynamics, "_pack_kernel", lambda el: packs.append(1) or pack(el))
    rho = coherent_state(shape["grid"], shape["q0"], 0.0, shape["sigma_x"]).to_density()
    got = _evolve_kernel(prop, rho, n_sub)
    assert ranks[0] == 1 and len(ranks) == 2 and not prop.factored(ranks[1])
    assert packs == [1]
    ref = _evolve_kernel(prop, DensityMatrix(shape["grid"], rho.elements), n_sub)
    assert len(packs) == 2 and len(ranks) == 2
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(got, got.conj().T)


@pytest.fixture(scope="module")
def bench_leaves(bench_shape):
    """(shape, POVM, root, one-interval tree, the root's evolved kernel)."""
    shape, povm, rho = bench_shape
    tree = branch_step(
        BranchTree.from_state(rho, povm, shape["dt"], 0.0),
        shape["potential"], shape["lam"], shape["dt_int"],
    )
    prop, n_sub = branching._interval_propagator(
        shape["grid"], shape["potential"], shape["lam"], shape["dt"], shape["dt_int"]
    )
    return shape, povm, rho, tree, _evolve_kernel(prop, rho, n_sub)


def test_branch_leaves_expand_to_the_collapse_bits(bench_leaves):
    # a leaf holds (lam / w, Pi V) and builds its kernel on the first read,
    # with the bits of the dense product the children were stored as
    _, povm, rho, tree, evolved = bench_leaves
    lam, _, projs, weights, _ = branching._weigh(povm, evolved)
    assert rho.factor.rank == 1
    assert len(tree.leaves) == np.count_nonzero(weights) > 1
    for leaf in tree.leaves:
        (alpha,) = leaf.history
        assert leaf.state._elements is None and leaf.state.factor.rank == len(lam)
        ref = reference_collapse(projs[alpha], lam, weights[alpha])
        assert np.array_equal(leaf.state.elements, ref)


def test_factor_readouts_match_the_expanded_kernel(bench_leaves):
    # the root packet (rank 1) and every leaf read from (lam, V) against the
    # same state's expanded kernel, to the bounds of
    # test_moment_row_reads_the_packed_kernel (measured: density and masses
    # within 2.3 eps of their largest entry, <P> and <P^2> within 0.05 of
    # their floor, purity 2.3e-15 relative)
    shape, _, rho, tree, _ = bench_leaves
    grid = shape["grid"]
    eps = np.finfo(float).eps
    for state in [rho] + [leaf.state for leaf in tree.leaves]:
        dense = DensityMatrix(grid, state.factor.expand(), validate=False)
        dens, mass = dense.position_density(), dense.momentum_masses()
        floor = 4 * eps * mass.max()
        assert np.max(np.abs(state.position_density() - dens)) <= 4 * eps * dens.max()
        assert np.max(np.abs(state.momentum_masses() - mass)) <= floor
        for key in ("x", "x2"):
            want = expectation(dense, key)
            assert abs(expectation(state, key) - want) <= 1e-13 * abs(want)
        assert abs(expectation(state, "p") - expectation(dense, "p")) <= floor * np.sum(
            np.abs(grid.p)
        )
        assert abs(expectation(state, "p2") - expectation(dense, "p2")) <= floor * np.sum(
            grid.p**2
        )
        got, want = purity_and_entropy(state), purity_and_entropy(dense)
        assert abs(got[0] - want[0]) <= 1e-13 * want[0]
        assert abs(got[2] - want[2]) <= 1e-13


@pytest.mark.parametrize("prune", [1e-4, 0.0], ids=["27-leaves", "81-leaves"])
def test_branch_step_holds_one_live_kernel(prune):
    # two N = 128 intervals of the benchmark's branch config: the peak stays
    # within the POVM, the leaves' own N x r factors (r = 24 to 28 here) and
    # a fixed count of N x N arrays, whatever the leaf count.  Measured:
    # 12.4 to 13.5 N^2 past the POVM and factors at 9, 27 and 81 leaves (the
    # propagator's tables and work arrays, one evolving kernel and its
    # factorization); leaves held as kernels peaked at 42.7 and 98 N^2
    grid = GridSpec(128, -10.0, 10.0, 1.0)

    def grow():
        povm = build_povm(grid, PhasePartition((-6.0, 6.0), (-6.0, 6.0), 3, 3), 0.7071)
        rho = coherent_state(grid, 2.0, 0.0, 0.7071).to_density()
        tree = BranchTree.from_state(rho, povm, 0.3, prune)
        for _ in range(2):
            tree = branch_step(tree, harmonic_potential(1.0, 1.0), 0.5, 0.03)
        return povm, tree

    grow()  # imports and caches filled on first use stay out of the peak
    tracemalloc.start()
    try:
        povm, tree = grow()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    factors = sum(leaf.state.factor.rows.nbytes for leaf in tree.leaves)
    assert len(tree.leaves) >= 20
    assert peak <= povm.operators.nbytes + factors + 16 * grid.n_points**2 * 16


def test_full_rank_mixed_kernel_takes_the_full_eigh(monkeypatch):
    # a random mixture under a Gaussian envelope: more than 32 eigenvalues
    # above N eps |lam|_max, so the sketch doubles to k = N = 64
    grid = GridSpec(64, -8.0, 8.0, 1.0)
    povm = build_povm(grid, PhasePartition((-6.0, 6.0), (-4.0, 4.0), 2, 1), sigma_x=0.7)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    env = np.exp(-grid.x**2 / (2 * 1.5**2))
    el = env[:, None] * (m @ m.conj().T) * env[None, :]
    el = 0.5 * (el + el.conj().T) / (np.trace(el).real * grid.dx)
    sizes = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        sizes.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    lam = _check_against_dense_collapse(povm, el)
    assert sizes == [32, 64]
    assert len(lam) > 32


def test_born_sampler_nodes_hold_factors_not_kernels(bench_shape):
    shape, povm, rho = bench_shape
    n = shape["grid"].n_points
    sampler = BornSampler(
        rho, shape["potential"], shape["lam"], povm, shape["dt"], shape["dt_int"]
    )
    for i in range(6):
        try:
            sampler.trajectory(shape["intervals"], np.random.SeedSequence(entropy=1, spawn_key=(i,)))
        except EscapeSampled:
            pass
    evolved = {h: node for h, node in sampler._nodes.items() if node.vecs is not None}
    assert () in evolved and len(evolved) >= min(shape["intervals"], 2)
    for history, node in evolved.items():
        square = [a for a in vars(node).values() if isinstance(a, np.ndarray) and a.ndim == 2
                  and a.shape[1] == n]
        # an evolved node, the root included, keeps no N x N array: its
        # state is a factor whose kernel was never built
        assert square == []
        assert node.state.factor is not None and node.state._elements is None
        assert node.vecs.shape[0] == n and node.vecs.shape[1] < n / 2


def test_wide_branch_step_builds_no_operator_squares():
    # one N = 512 branch interval on a fresh 1 x 2 POVM: Pi^2 and Pi_rest^2
    # alone would hold 12 MiB.  Measured: a peak of 21.4 MiB and 8.9 MiB
    # live (the two 4 MiB children); squares kept the parent at 36.1 and
    # 20.0 MiB
    shape = _BENCH_SHAPES["512-1x2"]
    grid = shape["grid"]
    povm = build_povm(grid, PhasePartition(*shape["cells"]), shape["sigma_x"])
    rho = coherent_state(grid, shape["q0"], 0.0, shape["sigma_x"]).to_density()
    tree = BranchTree.from_state(rho, povm, shape["dt"], 1e-4)
    tracemalloc.start()
    try:
        out = branch_step(tree, shape["potential"], shape["lam"], shape["dt_int"])
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out.leaves) == 2
    assert live <= 9.5 * 2**20
    assert peak <= 24 * 2**20


def test_suggested_branch_interval():
    assert suggested_branch_interval(2.0, 3.0) == pytest.approx(3.0 / 18.0)
    with pytest.raises(ValueError):
        suggested_branch_interval(0.0, 1.0)
    with pytest.raises(ValueError):
        suggested_branch_interval(1.0, -1.0)


# --- explicit system x qubit-bath model ------------------------------------


def test_explicit_k0_matches_unitary_step():
    psi = coherent_state(GRID, 1.0, 0.5, 0.8)
    model = ExplicitModel.from_wavefunction(psi, [])
    pot = harmonic_potential(1.0, 1.0)
    out, report = evolve_explicit(model, pot, 0.02, 25)
    prop = Propagator(GRID, pot, 0.0, 0.02)
    wave = psi.amplitudes
    for _ in range(25):
        wave = prop.core.run(wave)
    assert np.max(np.abs(out.state[:, 0] - wave)) < 1e-12
    assert report.env_overlaps == pytest.approx(np.ones((2, 2)))


@pytest.mark.parametrize("dt", [0.02, -0.02])
@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_explicit_block_matches_unfused_reference(n, dt):
    # 2^k == n_points, so a phase laid on the wrong axis still broadcasts
    grid = GridSpec(64, -10.0, 10.0, 1.0)
    g, h = np.linspace(-0.6, 0.9, 6), np.linspace(0.3, -0.2, 6)
    model = ExplicitModel.from_wavefunction(coherent_state(grid, 1.0, 0.5, 0.8), g, h)
    pot = harmonic_potential(1.0, 1.0)
    out, _ = evolve_explicit(model, pot, dt, n)
    signs = 1.0 - 2.0 * ((np.arange(64)[:, None] >> np.arange(6)) & 1)
    diag = pot.values(grid)[:, None] + grid.x[:, None] * (signs @ g) + signs @ h
    ref = reference_strang(grid, diag, dt, model.state, n)
    assert np.max(np.abs(out.state - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_evolve_explicit_fuses_half_kicks(monkeypatch):
    model = ExplicitModel.from_wavefunction(coherent_state(GRID, 1.0, 0.5, 0.8), [0.4, -0.3])
    calls = []
    fft = np.fft.fft

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    evolve_explicit(model, free_potential(), 0.02, 9)
    assert len(calls) == 10


def mixed_rows_model(grid):
    """A 4-qubit model whose 16 rows mix three kinds of repeats.

    Qubits 0 and 1 share g and h, so rows that swap their bits repeat one
    phase row; row 2 then starts from another packet than its twin row 1.
    Qubits 2 and 3 share g but not h, so env_energies split rows of equal
    interaction shift."""
    g, h = [0.3, 0.3, 0.5, 0.5], [0.2, 0.2, 0.1, -0.1]
    model = ExplicitModel.from_wavefunction(coherent_state(grid, 1.0, 0.5, 0.8), g, h)
    state = model.state.copy()
    state[:, 2] = coherent_state(grid, -1.0, 0.0, 0.9).amplitudes / 4.0
    return ExplicitModel(grid, model.couplings, state, model.env_energies)


def alone_cores(model, pot, dt):
    """One split-step core per row, each built from its own (s_b, h_b)."""
    signs = model.sigma_signs()
    shift, env = signs @ model.couplings, signs @ model.env_energies
    grid = model.grid
    return [
        branching._SplitStep(grid, pot.values(grid) + s * grid.x + h, dt)
        for s, h in zip(shift, env)
    ]


@pytest.fixture
def run_blocks(monkeypatch):
    """Shapes of the blocks handed to _SplitStep.run, in call order."""
    blocks = []
    run = branching._SplitStep.run

    def recording_run(self, states, n=1):
        blocks.append(states.shape)
        return run(self, states, n)

    monkeypatch.setattr(branching._SplitStep, "run", recording_run)
    return blocks


def test_explicit_distinct_rows_equal_rows_stepped_alone(run_blocks):
    model = mixed_rows_model(GRID)
    pot = harmonic_potential(1.0, 1.0)
    out, _ = evolve_explicit(model, pot, 0.02, 7)
    # 9 distinct shifts s_b, which h_b splits into 12 (s_b, h_b), and row 2
    # starts apart from its twin row 1: 13 of the 16 rows
    assert run_blocks == [(13, GRID.n_points)]
    rows = model.state.T
    for b, core in enumerate(alone_cores(model, pot, 0.02)):
        assert np.array_equal(out.state[:, b], core.run(rows[b : b + 1], 7)[0])


def test_decoherence_functional_distinct_rows_equal_rows_stepped_alone(povm_2x1):
    model = mixed_rows_model(GRID)
    projs = [povm_2x1.operators[0], povm_2x1.operators[1]]
    histories = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 0)]
    d, report = decoherence_functional(model, projs, histories, free_potential(), 0.3)
    cores = alone_cores(model, free_potential(), 0.3)
    vecs = []
    for hist in histories:
        vec = model.state.T @ projs[hist[0]].T
        for a in hist[1:]:
            vec = np.array([core.run(row[None])[0] for core, row in zip(cores, vec)])
            vec = vec @ projs[a].T
        vecs.append(vec)
    ref = np.array([[np.sum(vb.conj() * va) * GRID.dx for vb in vecs] for va in vecs])
    assert np.array_equal(d, ref)
    assert np.all(np.diag(report.consistency_ratios) == 1.0)


def test_evolve_explicit_steps_105_of_256_rows(run_blocks):
    # couplings 0.1 ... 0.8 give 105 distinct shifts s_b over 256 rows
    model = ExplicitModel.from_wavefunction(
        coherent_state(GRID, 1.0, 0.0, 0.7071), np.arange(1, 9) / 10
    )
    out, _ = evolve_explicit(model, free_potential(), 0.01, 3)
    assert run_blocks == [(105, GRID.n_points)]
    assert out.state.shape == (GRID.n_points, 256) and out.state.flags.c_contiguous


def test_reduced_lobe_follows_cosine_envelope():
    # heavy mass, V = 0: interaction phases commute across steps, so the
    # off-diagonal lobe decays by exactly prod_j cos(g_j (x - x') t)
    grid = GridSpec(128, -10.0, 10.0, 1.0e9)
    rho0 = cat_state(grid, 2.0, 0.8)
    amps = coherent_state(grid, -2.0, 0.0, 0.8).amplitudes + coherent_state(
        grid, 2.0, 0.0, 0.8
    ).amplitudes
    amps = amps / math.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx)
    g = np.random.default_rng(11).uniform(0.5, 1.0, 4)
    model = ExplicitModel.from_wavefunction(WaveFunction(grid, amps), g)
    t, n_steps = 0.3, 60
    out, report = evolve_explicit(model, free_potential(), t / n_steps, n_steps)
    ia = int(np.argmin(np.abs(grid.x + 2.0)))
    ib = int(np.argmin(np.abs(grid.x - 2.0)))
    ratio = report.reduced_rho.elements[ia, ib] / rho0.elements[ia, ib]
    expected = np.prod(np.cos(g * (grid.x[ia] - grid.x[ib]) * t))
    assert ratio.real == pytest.approx(expected, abs=1e-6)
    assert abs(ratio.imag) < 1e-6


def test_conditioned_env_overlap_decays_and_matches_oracle():
    grid = GridSpec(128, -10.0, 10.0, 1.0e9)
    amps = coherent_state(grid, -2.0, 0.0, 0.8).amplitudes + coherent_state(
        grid, 2.0, 0.0, 0.8
    ).amplitudes
    amps = amps / math.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx)
    g = np.random.default_rng(11).uniform(0.5, 1.0, 8)
    model = ExplicitModel.from_wavefunction(WaveFunction(grid, amps), g)
    t, n_steps = 0.35, 70
    out, report = evolve_explicit(model, free_potential(), t / n_steps, n_steps)
    assert report.env_overlaps.shape == (2, 2)
    overlap = report.env_overlaps[0, 1]
    assert overlap < 0.1
    xa, xb = report.bin_centroids
    oracle = np.prod(np.abs(np.cos(g * (xa - xb) * t)))
    assert overlap == pytest.approx(oracle, abs=1e-6)


def test_decoherence_functional_identity_history():
    psi = coherent_state(GRID, 0.5, 0.0, 0.8)
    model = ExplicitModel.from_wavefunction(psi, [])
    eye = np.eye(GRID.n_points)
    d, report = decoherence_functional(
        model, [eye], [(0, 0, 0)], harmonic_potential(1.0, 1.0), 0.3
    )
    assert abs(d[0, 0] - 1.0) < 1e-12
    assert report.consistency_ratios[0, 0] == pytest.approx(1.0)


HISTORIES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_decoherence_functional_no_environment_control():
    # bare superposition: the leaked half-packets interfere coherently
    wave = coherent_state(GRID, -2.0, 0.0, 0.8).amplitudes + coherent_state(
        GRID, 2.0, 0.0, 0.8
    ).amplitudes
    wave = wave / math.sqrt(np.sum(np.abs(wave) ** 2) * GRID.dx)
    part = PhasePartition((-9.0, 9.0), (-6.0, 6.0), 2, 1)
    povm = build_povm(GRID, part, sigma_x=0.8)
    projs = [povm.operators[0], povm.operators[1]]
    model = ExplicitModel.from_wavefunction(WaveFunction(GRID, wave), [])
    _, report = decoherence_functional(model, projs, HISTORIES, free_potential(), 0.9)
    ratios = report.consistency_ratios.copy()
    np.fill_diagonal(ratios, 0.0)
    assert ratios.max() > 0.3
    assert ratios.max() == pytest.approx(0.820, abs=0.01)


def test_decoherence_functional_k8_decoheres():
    # packets deep inside their cells; the bath tags each branch
    grid = GridSpec(128, -10.0, 10.0, 6.0)
    wave = coherent_state(grid, -3.0, 0.0, 0.5).amplitudes + coherent_state(
        grid, 3.0, 0.0, 0.5
    ).amplitudes
    wave = wave / math.sqrt(np.sum(np.abs(wave) ** 2) * grid.dx)
    part = PhasePartition((-9.0, 9.0), (-6.0, 6.0), 2, 1)
    povm = build_povm(grid, part, sigma_x=0.5)
    projs = [povm.operators[0], povm.operators[1]]
    g = np.random.default_rng(5).uniform(1.5, 3.0, 8)
    model = ExplicitModel.from_wavefunction(WaveFunction(grid, wave), g)
    d, report = decoherence_functional(model, projs, HISTORIES, free_potential(), 1.2)
    ratios = report.consistency_ratios.copy()
    np.fill_diagonal(ratios, 0.0)
    assert ratios.max() < 0.1
    assert ratios.max() == pytest.approx(0.0471, abs=0.005)
    # realized branch histories keep unit self-consistency
    diag = np.real(np.diag(d))
    assert diag[0] > 0.1 and diag[3] > 0.1
    assert report.consistency_ratios[0, 0] == 1.0
    assert report.consistency_ratios[3, 3] == 1.0


def test_decoherence_functional_hands_core_c_ordered_blocks(monkeypatch, povm_2x1):
    contiguous = []
    run = branching._SplitStep.run

    def recording_run(self, states, n=1):
        contiguous.append(states.flags.c_contiguous)
        return run(self, states, n)

    monkeypatch.setattr(branching._SplitStep, "run", recording_run)
    model = ExplicitModel.from_wavefunction(coherent_state(GRID, 0.0, 0.0, 0.8), [0.5, 1.0])
    projs = [povm_2x1.operators[0], povm_2x1.operators[1]]
    decoherence_functional(model, projs, [(0, 0, 1), (1, 0, 1)], free_potential(), 0.3)
    assert len(contiguous) == 4
    assert all(contiguous)


def test_decoherence_functional_validation():
    psi = coherent_state(GRID, 0.0, 0.0, 0.8)
    model = ExplicitModel.from_wavefunction(psi, [])
    eye = np.eye(GRID.n_points)
    with pytest.raises(ValueError):
        decoherence_functional(model, [eye], [], free_potential(), 0.1)
    with pytest.raises(ValueError):
        decoherence_functional(
            model, [eye], [(0,)] * 65, free_potential(), 0.1
        )
    with pytest.raises(ValueError):
        decoherence_functional(
            model, [eye], [(0, 0, 0, 0, 0, 0)], free_potential(), 0.1
        )
    with pytest.raises(ValueError):
        decoherence_functional(
            model, [eye], [(0, 0), (0,)], free_potential(), 0.1
        )


def test_superorthogonality_overlap():
    a = ExplicitModel.from_wavefunction(coherent_state(GRID, 0.0, 3.0, 0.8), [])
    b = ExplicitModel.from_wavefunction(coherent_state(GRID, 0.0, -3.0, 0.8), [])
    # same spatial density, nearly orthogonal amplitudes
    assert abs(np.vdot(a.state[:, 0], b.state[:, 0]) * GRID.dx) < 1e-5
    assert superorthogonality_overlap(a, b) == pytest.approx(1.0, abs=1e-12)
    assert superorthogonality_overlap(a, a) == pytest.approx(1.0, abs=1e-12)
    c = ExplicitModel.from_wavefunction(coherent_state(GRID, -4.5, 0.0, 0.45), [])
    d = ExplicitModel.from_wavefunction(coherent_state(GRID, 4.5, 0.0, 0.45), [])
    assert superorthogonality_overlap(c, d) < 1e-8
    g = np.random.default_rng(11).uniform(0.5, 1.0, 3)
    ag = ExplicitModel.from_wavefunction(coherent_state(GRID, 0.0, 3.0, 0.8), g)
    bg = ExplicitModel.from_wavefunction(coherent_state(GRID, 0.0, -3.0, 0.8), g)
    assert superorthogonality_overlap(ag, bg) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        superorthogonality_overlap(a, ag)


def test_explicit_model_validation():
    psi = coherent_state(GRID, 0.0, 0.0, 0.8)
    with pytest.raises(ValueError):
        ExplicitModel.from_wavefunction(psi, np.ones(13))
    with pytest.raises(ValueError):
        ExplicitModel(GRID, np.ones(2), psi.amplitudes[:, None])  # wrong env dim
    with pytest.raises(ValueError):
        ExplicitModel(GRID, np.ones(1), np.ones((GRID.n_points, 2)) * 0.001)
    with pytest.raises(ValueError):
        ExplicitModel.from_wavefunction(psi, np.ones(2), env_energies=np.ones(3))
    model = ExplicitModel.from_wavefunction(psi, np.ones(2))
    assert model.reduced_density().trace() == pytest.approx(1.0, abs=1e-10)


def test_explicit_model_rejects_non_finite_inputs():
    # a nan norm passed abs(nrm - 1) > 1e-8, which is False for nan
    with pytest.raises(ValueError, match="not normalized: nan"):
        ExplicitModel(GridSpec(64, -8, 8, 1.0), [0.1], np.full((64, 2), np.nan, complex))
    psi = coherent_state(GRID, 0.0, 0.0, 0.8)
    with pytest.raises(ValueError, match="couplings must be finite"):
        ExplicitModel.from_wavefunction(psi, [0.1, np.nan])
    with pytest.raises(ValueError, match="env_energies must be finite"):
        ExplicitModel.from_wavefunction(psi, [0.1, 0.2], env_energies=[0.0, np.inf])
    joint = np.repeat(psi.amplitudes[:, None], 2, axis=1) / math.sqrt(2)
    joint[3, 1] = np.inf
    with pytest.raises(ValueError, match="not normalized: inf"):
        ExplicitModel(GRID, [0.1], joint)
