"""Window POVMs: analytic cell integrals, approximate-PVM quality, sieve."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from branchfall import (
    BranchTree,
    DensityMatrix,
    GridSpec,
    PhasePoint,
    WindowTooSmall,
    branch_step,
    check_positivity,
    coherent_state,
)
from branchfall import pointer, qstate
from branchfall.dynamics import evolve, free_potential, harmonic_potential
from branchfall.pointer import (
    PhasePartition,
    build_povm,
    predictability_sieve,
    pvm_quality,
)
from oracles import closed_form_cell, reference_povm


@pytest.fixture(scope="module")
def grid():
    return GridSpec(160, -12.0, 12.0, mass=1.0)


@pytest.fixture(scope="module")
def three_sigma(grid):
    # sigma_x = 1, sigma_p = 1/2: cells of (3 sigma_x, 3 sigma_p)
    part = PhasePartition((-4.5, 4.5), (-2.25, 2.25), 3, 3)
    return build_povm(grid, part, 1.0)


def test_partition_geometry():
    part = PhasePartition((-4.5, 4.5), (-2.25, 2.25), 3, 3)
    assert part.d_x == pytest.approx(3.0)
    assert part.d_p == pytest.approx(1.5)
    assert part.n_cells == 9
    assert part.ij(part.index(2, 1)) == (2, 1)
    assert part.locate(0.0, 0.0) == part.index(1, 1)
    assert part.locate(-4.4, 2.2) == part.index(0, 2)
    assert part.locate(5.0, 0.0) is None
    assert part.adjacent(part.index(0, 0), part.index(1, 1))
    assert not part.adjacent(part.index(0, 0), part.index(2, 0))
    center = part.cell_center(part.index(1, 1))
    assert (center.q, center.p) == (0.0, 0.0)


def test_partition_validation():
    with pytest.raises(ValueError, match="ordered"):
        PhasePartition((1.0, -1.0), (-1.0, 1.0), 1, 1)
    # cell volume floor of 1: 0.5 x 1.0 cells are rejected
    with pytest.raises(ValueError, match="volume"):
        PhasePartition((-1.0, 1.0), (-1.0, 1.0), 4, 2)


def test_build_matches_analytic_cell_integrals(grid, three_sigma):
    for alpha in range(9):
        exact = closed_form_cell(
            grid.x, grid.dx, 1.0, *three_sigma.partition.cell_bounds(alpha)
        )
        assert np.linalg.norm(three_sigma.operators[alpha] - exact, 2) < 1e-8


def test_cell_traces_are_cell_volumes(three_sigma):
    want = 3.0 * 1.5 / (2 * math.pi)
    for op in three_sigma.operators:
        assert np.trace(op).real == pytest.approx(want, abs=1e-12)


def test_completeness_and_remainder_positivity(grid, three_sigma):
    total = three_sigma.operators.sum(axis=0) + three_sigma.rest
    assert np.max(np.abs(total - np.eye(grid.n_points))) == 0.0
    rest_h = 0.5 * (three_sigma.rest + three_sigma.rest.conj().T)
    assert np.linalg.eigvalsh(rest_h)[0] > -1e-10


def test_quality_report_on_three_sigma_cells(three_sigma):
    q = pvm_quality(three_sigma)
    assert q["completeness_residual"] < 1e-10
    assert q["worst_nonadjacent_offdiag"] < 0.05
    assert q["worst_nonadjacent_offdiag"] == pytest.approx(0.009578, abs=1e-3)
    assert q["worst_adjacent_offdiag"] == pytest.approx(0.198441, abs=2e-3)
    # soft cell edges pin a band of eigenvalues near 1/2, so Pi^2 != Pi there
    assert q["worst_diagonal_defect"] == pytest.approx(0.494196, abs=2e-3)
    assert q["orthogonality_matrix"].shape == (9, 9)


def test_power_iteration_matches_svd(grid):
    part = PhasePartition((-4.0, 4.0), (-2.0, 2.0), 2, 2)
    povm = build_povm(grid, part, 1.0)
    fast = pvm_quality(povm)["orthogonality_matrix"]
    slow = pvm_quality(povm, exact=True)["orthogonality_matrix"]
    assert np.max(np.abs(fast - slow)) < 1e-8


def test_subcoherent_cells_fail_pvm_property(grid):
    # d_X = sigma_x: neighbors overlap heavily no matter the quadrature
    part = PhasePartition((-4.5, 4.5), (-2.0, 2.0), 9, 1)
    q = pvm_quality(build_povm(grid, part, 1.0))
    assert q["worst_offdiag"] > 0.2
    assert q["worst_offdiag"] == pytest.approx(0.2595, abs=5e-3)


def test_four_sigma_diagonal_defect_value(grid):
    # measured floor for 4-sigma cells; the defect cannot be pushed below
    # ~0.25 at any desk-scale cell size because edge modes sweep through 1/2
    part = PhasePartition((-4.0, 4.0), (-2.0, 2.0), 2, 2)
    q = pvm_quality(build_povm(grid, part, 1.0))
    assert q["worst_diagonal_defect"] == pytest.approx(0.3245, abs=3e-3)


def test_refinement_consistency(grid):
    # Gauss rule at 2-sigma cells: 2x2 -> 4x4 moves elements by under 1%
    part = PhasePartition((-3.0, 3.0), (-1.5, 1.5), 3, 3)
    coarse = build_povm(grid, part, 1.0, quadrature=(2, 2), rule="gauss")
    fine = build_povm(grid, part, 1.0, quadrature=(4, 4), rule="gauss")
    worst = max(
        np.linalg.norm(fine.operators[a] - coarse.operators[a], 2)
        / np.linalg.norm(fine.operators[a], 2)
        for a in range(part.n_cells)
    )
    assert worst < 0.0105
    # midpoint at 3-sigma cells is visibly coarser (documented, not hidden)
    part3 = PhasePartition((-4.5, 4.5), (-2.25, 2.25), 3, 3)
    c3 = build_povm(grid, part3, 1.0, quadrature=(2, 2), rule="midpoint")
    f3 = build_povm(grid, part3, 1.0, quadrature=(4, 4), rule="midpoint")
    worst3 = max(
        np.linalg.norm(f3.operators[a] - c3.operators[a], 2)
        / np.linalg.norm(f3.operators[a], 2)
        for a in range(9)
    )
    assert worst3 == pytest.approx(0.0524, abs=5e-3)


def test_single_cell_covers_centered_packet(grid):
    part = PhasePartition((-8.0, 8.0), (-6.0, 6.0), 1, 1)
    povm = build_povm(grid, part, 1.0)
    rho = coherent_state(grid, 0.0, 0.0, 1.0).to_density()
    probs, escape = povm.probabilities(rho)
    assert probs[0] == pytest.approx(1.0, abs=1e-6)
    assert escape == pytest.approx(0.0, abs=1e-6)


def test_translation_covariance(grid):
    base = PhasePartition((-4.5, 4.5), (-2.25, 2.25), 3, 3)
    povm_a = build_povm(grid, base, 1.0)
    rho_a = coherent_state(grid, 0.3, 0.2, 1.0).to_density()
    # shift window and state together by (1.5, 2.0); 1.5 is 10 grid cells
    povm_b = build_povm(grid, base.shifted(1.5, 2.0), 1.0)
    rho_b = coherent_state(grid, 1.8, 2.2, 1.0).to_density()
    pa, ea = povm_a.probabilities(rho_a)
    pb, eb = povm_b.probabilities(rho_b)
    assert np.max(np.abs(np.sort(pa) - np.sort(pb))) < 1e-6
    assert abs(ea - eb) < 1e-6


def test_sum_rule_and_weight_positivity(grid, three_sigma):
    mix = DensityMatrix.from_mixture(
        [0.4, 0.35, 0.25],
        [
            coherent_state(grid, -2.5, 0.5, 1.0),
            coherent_state(grid, 0.0, -1.0, 1.0),
            coherent_state(grid, 3.0, 1.5, 1.0),
        ],
    )
    probs, escape = three_sigma.probabilities(mix)
    assert np.all(probs >= 0.0)
    assert probs.sum() + escape == pytest.approx(1.0, abs=1e-10)


def test_povm_readers_keep_no_leaf_kernel():
    # check_positivity, probabilities and trace_product read a factor-backed
    # leaf through a kernel they do not keep, and probabilities forms the
    # escape weight as Tr rho - sum_alpha Tr(Pi_alpha rho), building no rest
    grid = GridSpec(128, -10.0, 10.0, 1.0)
    povm = build_povm(grid, PhasePartition((-6.0, 6.0), (-6.0, 6.0), 3, 3), 0.7071)
    rho = coherent_state(grid, 2.0, 0.0, 0.7071).to_density()
    tree = BranchTree.from_state(rho, povm, 0.3)
    tree = branch_step(tree, harmonic_potential(1.0, 1.0), 0.5, 0.03)
    leaf = max(tree.leaves, key=lambda node: node.weight_sq)
    lam_min = check_positivity(leaf.state)
    probs, escape = povm.probabilities(leaf.state)
    cell = povm.trace_product(povm.operators[0], leaf.state)
    assert leaf.state._elements is None and povm._rest is None
    kernel = DensityMatrix(grid, leaf.state.factor.expand(), validate=False)
    want = np.einsum("aij,ji->a", povm.operators, kernel.elements).real * grid.dx
    assert np.max(np.abs(probs - np.clip(want, 0.0, None))) <= 1e-12
    assert abs(escape - max(povm.trace_product(povm.rest, kernel), 0.0)) <= 1e-12
    assert abs(cell - want[0]) <= 1e-12
    assert abs(lam_min - np.linalg.eigvalsh(kernel.elements * grid.dx)[0]) <= 1e-12


def test_project_gives_dense_weight_and_lueders_update(grid, three_sigma):
    # a two-packet mixture as V diag(lam) V^H: Pi V must carry the dense
    # weight Tr(Pi^2 rho) and the dense update Pi rho Pi
    rho = DensityMatrix.from_mixture(
        [0.7, 0.3],
        [coherent_state(grid, 0.5, 0.3, 1.0), coherent_state(grid, -2.0, -0.4, 1.0)],
    )
    lam, vecs = np.linalg.eigh(rho.elements)
    lam, vecs = lam[-2:], vecs[:, -2:]
    alpha = three_sigma.partition.locate(0.5, 0.3)
    pi = three_sigma.operators[alpha]
    proj = three_sigma.project(vecs, alpha)
    via_factor = float(np.sum(np.abs(proj) ** 2, axis=0) @ lam) * grid.dx
    assert via_factor == pytest.approx(three_sigma.trace_product(pi @ pi, rho), abs=1e-12)
    dense = (pi @ rho.elements) @ pi
    assert np.abs((proj * lam) @ proj.conj().T - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize(
    "n, lo, hi, mass, p_window, n_x, n_p, sigma_x, rule",
    [
        pytest.param(128, -10.0, 10.0, 1.0, (-6.0, 6.0), 3, 3, 0.7071, "gauss",
                     id="128--10.0-10.0-3-3"),
        pytest.param(256, -12.0, 12.0, 1.0, (-6.0, 6.0), 1, 2, 0.7071, "gauss",
                     id="256--12.0-12.0-1-2"),
        # the builds of the benchmark's wide_grid branch (32 x 18 nodes) and
        # reduce (29 x 25) configs; the 128-point 3 x 3 case above is the
        # sample and branch one (13 x 13)
        pytest.param(512, -16.0, 16.0, 1.0, (-6.0, 6.0), 1, 2, 0.7071, "gauss",
                     id="512--16.0-16.0-1-2"),
        pytest.param(96, -10.0, 10.0, 4.0, (-12.0, 12.0), 1, 3, 0.8, "gauss",
                     id="96--10.0-10.0-1-3"),
        pytest.param(128, -10.0, 10.0, 1.0, (-6.0, 6.0), 3, 3, 0.7071, "midpoint",
                     id="128--10.0-10.0-3-3-midpoint"),
    ],
)
def test_blocked_build_matches_per_node_loop(n, lo, hi, mass, p_window, n_x, n_p, sigma_x, rule):
    g = GridSpec(n, lo, hi, mass=mass)
    part = PhasePartition((-6.0, 6.0), p_window, n_x, n_p)
    povm = build_povm(g, part, sigma_x, rule=rule)
    ops, rest, leak = reference_povm(
        g, part, sigma_x, povm.quadrature, rule
    )
    # the separable build sums in another order than the per-node loop:
    # roundoff only (measured <= 5.3 ulps of the largest entry); a wrong
    # node, weight, phase sign or norm moves entries by more than 1e-6
    eps = np.finfo(float).eps
    assert np.abs(povm.operators - ops).max() <= 16 * eps * np.abs(ops).max()
    assert np.abs(povm.rest - rest).max() <= 16 * eps
    for op in povm.operators:
        assert np.array_equal(op, op.conj().T)
    assert pointer._probe_leak(povm) == pytest.approx(leak, rel=1e-12, abs=1e-15)


def test_gauss_nodes_computed_once_per_count(grid, monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    part = PhasePartition((-4.5, 4.5), (-2.25, 2.25), 3, 3)
    build_povm(grid, part, 1.0, quadrature=(6, 5))
    assert sorted(calls) == [5, 6]


def test_build_peak_memory_is_live_plus_two_temporaries():
    # N = 512, 1 x 2 cells: 8 MiB of operators and 4 MiB of remainder live;
    # the build may add at most two N x N complex temporaries on top
    g = GridSpec(512, -16.0, 16.0, mass=1.0)
    part = PhasePartition((-6.0, 6.0), (-6.0, 6.0), 1, 2)
    tracemalloc.start()
    try:
        povm = build_povm(g, part, 0.7071)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert povm.operators.nbytes + povm.rest.nbytes == 12 * 2**20
    assert peak <= 20 * 2**20


def test_packet_without_support_raises(grid):
    # the envelope underflows to zero everywhere for a node far off the grid
    with pytest.raises(ValueError, match="no support"):
        pointer._packets(grid, np.array([0.0, 1e3]), np.array([0.0]), 1.0)


def test_collapse_builds_no_operator_squares(grid, three_sigma):
    # weighing and collapsing read Pi_alpha V only: the POVM keeps exactly
    # its construction fields, and no Pi_alpha^2 or Pi_rest^2 is cached
    rho = coherent_state(grid, 0.5, 0.3, 1.0).to_density()
    tree = BranchTree.from_state(rho, three_sigma, dt=0.05)
    branch_step(tree, free_potential(), 0.5, dt_int=0.05, escape_tol=1.0)
    assert set(vars(three_sigma)) == {f.name for f in dataclasses.fields(three_sigma)}
    assert not hasattr(three_sigma, "squares")


def test_window_too_small(grid):
    tiny = PhasePartition((-0.5, 0.5), (-0.6, 0.6), 1, 1)
    with pytest.raises(WindowTooSmall):
        build_povm(grid, tiny, 1.0)


def test_build_validation(grid):
    part = PhasePartition((-4.5, 4.5), (-2.25, 2.25), 3, 3)
    with pytest.raises(ValueError, match="quadrature"):
        build_povm(grid, part, 1.0, quadrature=(1, 4))
    with pytest.raises(ValueError, match="rule"):
        build_povm(grid, part, 1.0, rule="simpson")
    with pytest.raises(ValueError, match="x_window"):
        build_povm(grid, PhasePartition((-13.0, 4.0), (-2.0, 2.0), 3, 3), 1.0)
    with pytest.raises(ValueError, match="p_window"):
        build_povm(grid, PhasePartition((-4.0, 4.0), (-30.0, 30.0), 3, 3), 1.0)
    with pytest.raises(ValueError, match="under-resolved"):
        build_povm(grid, part, 0.1)


@pytest.fixture(scope="module")
def sieve_run():
    grid = GridSpec(128, -10.0, 10.0, mass=1.0)
    widths = [0.45, 0.55, 0.65, 1 / math.sqrt(2), 0.75, 0.85, 1.0]
    return predictability_sieve(
        grid,
        harmonic_potential(1.0, 1.0),
        0.05,
        widths,
        PhasePoint(1.0, 0.0),
        horizon=4 * math.pi,
        dt=0.04,
    )


def test_sieve_steps_every_width_with_one_propagator(monkeypatch):
    grid = GridSpec(64, -8.0, 8.0, mass=1.0)
    args = (grid, harmonic_potential(1.0, 1.0), 0.2)
    widths = [0.5, 0.7071, 1.0]
    builds = []
    init = pointer.Propagator.__init__

    def counting_init(self, *a, **k):
        builds.append(a)
        init(self, *a, **k)

    monkeypatch.setattr(pointer.Propagator, "__init__", counting_init)
    res = predictability_sieve(*args, widths, PhasePoint(1.0, 0.0), 0.05, dt=0.01)
    assert len(builds) == 1
    # the same bits as evolving each width on its own propagator
    for sigma, curve in zip(widths, res.curves):
        rho = coherent_state(grid, 1.0, 0.0, sigma).to_density()
        alone = evolve(rho, *args[1:], 0.01, 5, record_every=1)
        assert np.array_equal(curve, alone.s_lin)
        assert np.array_equal(res.times, alone.times)
    assert len(builds) == 1 + len(widths)


def test_sieve_unpacks_no_final_kernel(monkeypatch):
    # the sieve reads only S_lin; a chain's record unpacks its final kernel
    # on the first read of final.elements, once, and evolve's record does
    # the same
    grid = GridSpec(256, -12.0, 12.0, mass=1.0)
    args = (grid, harmonic_potential(1.0, 1.0), 0.2)
    unpacks = []
    unpack = qstate._unpack_kernel

    def counting_unpack(kernel):
        unpacks.append(kernel.shape)
        return unpack(kernel)

    monkeypatch.setattr(qstate, "_unpack_kernel", counting_unpack)
    predictability_sieve(*args, [0.7071, 1.0], PhasePoint(1.0, 0.0), 0.02, dt=0.01)
    assert unpacks == []
    # a kernel, so the chain steps the packed kernel, not the packet's factor
    rho = DensityMatrix(grid, coherent_state(grid, 1.0, 0.0, 0.7071).to_density().elements)
    rec = pointer._evolve_on(pointer.Propagator(*args, 0.01), rho, 2)
    rec.final
    assert unpacks == []
    final = rec.final.elements
    assert rec.final.elements is final and unpacks == [(256, 256)]
    alone = evolve(rho, *args[1:], 0.01, 2)
    assert unpacks == [(256, 256)]
    assert np.array_equal(alone.final.elements, final)
    assert unpacks == [(256, 256)] * 2


def test_sieve_flat_without_dephasing():
    grid = GridSpec(128, -10.0, 10.0, mass=1.0)
    res = predictability_sieve(
        grid, harmonic_potential(1.0, 1.0), 0.0, [0.5, 0.7], PhasePoint(1.0, 0.0), 2.0, dt=0.02
    )
    assert np.max(np.abs(res.curves)) < 1e-12


def test_sieve_initial_rates_scale_with_width(sieve_run):
    h = sieve_run.times[1] - sieve_run.times[0]
    for sigma, curve in zip(sieve_run.sigma_list, sieve_run.curves):
        rate = (curve[1] - curve[0]) / h
        assert rate == pytest.approx(4 * 0.05 * sigma**2, rel=2.5e-2)


def test_sieve_argmin_is_balanced_width(sieve_run):
    # harmonic M = omega = 1: entropy production bottoms out at Var X = Var P
    assert sieve_run.argmin_width == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert np.all(sieve_run.curves >= -1e-12)


def test_sieve_serialization(sieve_run):
    cols = sieve_run.as_columns()
    assert list(cols) == ["sigma", "t", "s_lin"]
    assert all(len(col) == sieve_run.curves.size for col in cols.values())
    assert cols["sigma"][0] == pytest.approx(0.45)
    assert sieve_run.argmin_width == pytest.approx(1 / math.sqrt(2))
