"""End-to-end checks of every headline guarantee, one test per guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured value next
to its bound, so `pytest -rA tests/test_acceptance.py` reads as a
checklist.  All scenarios are seeded and frozen; nothing here is allowed
to drift run to run.  The two window-operator sharpness checks that no
desk-scale geometry can meet are kept as strict expected failures with
the measured floors, not weakened until they pass.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from branchfall import (
    BohmEnsemble,
    BornSampler,
    BranchTree,
    DensityMatrix,
    EscapeSampled,
    ExplicitModel,
    GridSpec,
    GRWParams,
    PhasePartition,
    PhasePoint,
    ReductionSpec,
    WaveFunction,
    bohm_evolve,
    branch_step,
    build_povm,
    coherent_state,
    compatibility_score,
    decoherence_functional,
    ehrenfest_residual,
    evolve,
    evolve_explicit,
    free_potential,
    grw_evolve,
    harmonic_potential,
    mixture_consistency,
    pvm_quality,
    verify_reduction,
)
from branchfall.cli import main as cli_main
from branchfall.dynamics import Propagator, _pack_kernel


def report(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def normalized(amps, grid):
    return WaveFunction(grid, amps / math.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx))


def cat_state(grid, q, sigma, p=0.0):
    amps = (
        coherent_state(grid, -q, p, sigma).amplitudes
        + coherent_state(grid, q, -p, sigma).amplitudes
    )
    return normalized(amps, grid).to_density()


def free_run(grid, psi0, dt_snap, n_snap):
    snaps, ts = [psi0], [0.0]
    wave = psi0
    prop = Propagator(grid, free_potential(), 0.0, dt_snap)
    for k in range(n_snap):
        wave = WaveFunction(grid, prop.core.run(wave.amplitudes), validate=False)
        snaps.append(wave)
        ts.append((k + 1) * dt_snap)
    return snaps, ts


# ------------------------------------------------------------- dynamics


def test_harmonic_force_law_residual_under_dephasing():
    grid = GridSpec(128, -10.0, 10.0, 1.0)
    pot = harmonic_potential(mass=1.0, omega=1.0)
    rho = coherent_state(grid, 2.0, 0.5, 1.0).to_density()
    t0 = time.monotonic()
    worst = {}
    for lam in (0.0, 0.1, 1.0):
        rec = evolve(rho, pot, lam, dt=5e-4, n_steps=600, record_every=1)
        res = ehrenfest_residual(rec, pot)
        worst[lam] = float(np.max(res.relative))
    elapsed = time.monotonic() - t0
    ok = all(v < 1e-6 for v in worst.values()) and elapsed < 30.0
    detail = (
        "max relative residual "
        + ", ".join(f"{v:.2e} (lambda={k})" for k, v in worst.items())
        + f" vs 1e-6; {elapsed:.1f}s vs 30s"
    )
    report("force-law residual, harmonic", ok, detail)


def test_first_moments_independent_of_dephasing():
    lambdas = (0.1, 1.0)
    gaps = {}

    grid = GridSpec(64, -10.0, 10.0, 1.5)
    rho = coherent_state(grid, -1.0, 1.0, 0.8).to_density()
    base = evolve(rho, free_potential(), 0.0, dt=1e-3, n_steps=500, record_every=100)
    for lam in lambdas:
        rec = evolve(rho, free_potential(), lam, dt=1e-3, n_steps=500, record_every=100)
        gaps[("free", lam)] = max(
            float(np.max(np.abs(rec.mean_x - base.mean_x))),
            float(np.max(np.abs(rec.mean_p - base.mean_p))),
        )

    # n = 128 doubles the momentum band: dephasing at lambda = 1 broadens
    # the P marginal enough that a 64-point band edge aliases ~3e-8 into <P>
    grid = GridSpec(128, -10.0, 10.0, 2.0)
    pot = harmonic_potential(2.0, 1.3)
    rho = coherent_state(grid, 1.2, -0.5, 0.7).to_density()
    base = evolve(rho, pot, 0.0, dt=1e-3, n_steps=400, record_every=100)
    for lam in lambdas:
        rec = evolve(rho, pot, lam, dt=1e-3, n_steps=400, record_every=100)
        gaps[("harmonic", lam)] = max(
            float(np.max(np.abs(rec.mean_x - base.mean_x))),
            float(np.max(np.abs(rec.mean_p - base.mean_p))),
        )

    worst = max(gaps.values())
    report(
        "first moments blind to dephasing",
        worst < 1e-8,
        f"worst |<X>|,|<P>| gap across lambda {worst:.2e} vs 1e-8 "
        f"(free and harmonic, lambda in {lambdas})",
    )


def test_momentum_variance_linear_growth():
    grid = GridSpec(64, -10.0, 10.0, 1.5)
    rho = coherent_state(grid, 0.0, 0.0, 0.8).to_density()
    worst = 0.0
    for lam in (0.1, 0.5, 1.0):
        rec = evolve(rho, free_potential(), lam, dt=0.01, n_steps=100, record_every=10)
        law = rec.var_p[0] + 2.0 * lam * rec.times
        worst = max(worst, float(np.max(np.abs(rec.var_p - law) / law)))
    report(
        "momentum variance linear in time",
        worst < 1e-3,
        f"max relative gap to VarP(0) + 2*lambda*t is {worst:.2e} vs 1e-3",
    )


def test_initial_entropy_production_rate():
    grid = GridSpec(64, -10.0, 10.0, 1.5)
    rho = coherent_state(grid, 0.5, 1.0, 0.8).to_density()
    h = 1e-4
    worst = 0.0
    for lam in (0.1, 0.5, 1.0):
        rec = evolve(rho, free_potential(), lam, dt=h, n_steps=2, record_every=1)
        rate = (rec.s_lin[2] - rec.s_lin[0]) / (2.0 * h)
        want = 4.0 * lam * rec.var_x[0]
        worst = max(worst, abs(rate - want) / want)
    report(
        "initial linear-entropy rate",
        worst < 1e-3,
        f"centered difference vs 4*lambda*VarX: worst relative gap {worst:.2e} vs 1e-3",
    )


# ------------------------------------------------------ window operators


def test_wide_cells_pass_where_subcoherent_cells_fail():
    grid = GridSpec(160, -12.0, 12.0, 1.0)
    # 3-sigma cells for the sigma_x = 1 window packets
    wide = pvm_quality(build_povm(grid, PhasePartition((-4.5, 4.5), (-2.25, 2.25), 3, 3), 1.0))
    # d_X = sigma_x: neighbors overlap heavily no matter the quadrature
    narrow = pvm_quality(build_povm(grid, PhasePartition((-4.5, 4.5), (-2.0, 2.0), 9, 1), 1.0))
    ok = (
        wide["completeness_residual"] < 1e-10
        and wide["worst_nonadjacent_offdiag"] < 0.05
        and narrow["worst_offdiag"] > 0.05
        and narrow["worst_diagonal_defect"] > 0.1
    )
    report(
        "wide cells orthogonal, sub-coherent control not",
        ok,
        f"nonadjacent off-diagonal {wide['worst_nonadjacent_offdiag']:.4f} vs 0.05; "
        f"sub-coherent off-diagonal {narrow['worst_offdiag']:.4f} vs > 0.05, "
        f"defect {narrow['worst_diagonal_defect']:.4f} vs > 0.1",
    )


@pytest.mark.xfail(
    strict=True,
    reason="adjacent windows share soft seams: the off-diagonal ratio floors "
    "near 0.19 at every desk-scale cell size (0.198 at 3-sigma, 0.192 at "
    "4-sigma cells), so the 0.05 bound is unreachable for smooth windows",
)
def test_all_window_pairs_orthogonal():
    grid = GridSpec(160, -12.0, 12.0, 1.0)
    q3 = pvm_quality(build_povm(grid, PhasePartition((-4.5, 4.5), (-2.25, 2.25), 3, 3), 1.0))
    q4 = pvm_quality(build_povm(grid, PhasePartition((-4.0, 4.0), (-2.0, 2.0), 2, 2), 1.0))
    worst = max(q3["worst_offdiag"], q4["worst_offdiag"])
    report(
        "all window pairs orthogonal",
        worst < 0.05,
        f"worst off-diagonal ratio {worst:.4f} vs 0.05 (adjacent seams dominate)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="soft cell edges pin a band of window eigenvalues near 1/2, so "
    "||Pi^2 - Pi||/||Pi|| floors near 0.25 (measured 0.494 at 3-sigma and "
    "0.325 at 4-sigma cells); the 0.1 bound is unreachable for smooth windows",
)
def test_window_operators_idempotent():
    grid = GridSpec(160, -12.0, 12.0, 1.0)
    q3 = pvm_quality(build_povm(grid, PhasePartition((-4.5, 4.5), (-2.25, 2.25), 3, 3), 1.0))
    q4 = pvm_quality(build_povm(grid, PhasePartition((-4.0, 4.0), (-2.0, 2.0), 2, 2), 1.0))
    best = min(q3["worst_diagonal_defect"], q4["worst_diagonal_defect"])
    report(
        "window operators idempotent",
        best < 0.1,
        f"best diagonal defect {best:.4f} vs 0.1",
    )


# ------------------------------------------------------------ branching


def test_branch_weights_telescope_and_follow_born_rule():
    grid = GridSpec(128, -10.0, 10.0, 1.0)
    povm = build_povm(grid, PhasePartition((-9.0, 9.0), (-6.0, 6.0), 3, 3), sigma_x=1.0)
    rho = coherent_state(grid, 0.0, 0.0, 1.0).to_density()
    tree = BranchTree.from_state(rho, povm, dt=0.3, prune_epsilon=1e-4)
    for _ in range(2):
        tree = branch_step(tree, harmonic_potential(1.0, 1.0), 0.3, dt_int=0.01, leaf_cap=512)
    tele = 0.0
    for leaf in tree.leaves:
        tele = max(tele, abs(math.prod(leaf.cond_probs) - leaf.weight_sq))
    closure_gap = abs(tree.weight_closure() - 1.0)

    # symmetric two-branch state, one collapse, counts against a fair split
    born_grid = GridSpec(96, -8.0, 8.0, 1.0)
    cat = cat_state(born_grid, 2.0, 0.6)
    born_povm = build_povm(born_grid, PhasePartition((-5.0, 5.0), (-4.0, 4.0), 2, 1), 0.6)
    n = 10_000
    counts = [0, 0]
    escapes = 0
    sampler = BornSampler(cat, free_potential(), 1.0, born_povm, 0.05, dt_int=0.05)
    for i in range(n):
        seed = np.random.SeedSequence(entropy=42, spawn_key=(i,))
        try:
            recs, _ = sampler.trajectory(1, seed)
            counts[recs[1][1]] += 1
        except EscapeSampled:
            escapes += 1
    n_eff = sum(counts)
    chi = stats.chisquare(counts, [n_eff / 2.0, n_eff / 2.0])

    ok = tele < 1e-10 and closure_gap <= 0.01 and chi.pvalue > 0.01
    report(
        "branch weights telescope and follow the Born rule",
        ok,
        f"telescoping gap {tele:.1e} vs 1e-10; closure gap {closure_gap:.1e} vs 0.01; "
        f"counts {counts} (escapes {escapes}), chi-square p = {chi.pvalue:.3f} vs 0.01",
    )


def test_branch_mixture_tracks_unconditioned_density():
    grid = GridSpec(192, -15.0, 15.0, 1.0)
    povm = build_povm(grid, PhasePartition((-9.0, 9.0), (-6.0, 6.0), 2, 1), sigma_x=0.9)
    rho = cat_state(grid, 4.0, 0.9)
    lam = 5.0
    tree = BranchTree.from_state(rho, povm, dt=0.4, prune_epsilon=1e-6)
    for _ in range(2):
        tree = branch_step(tree, free_potential(), lam, dt_int=0.008, leaf_cap=512)
    ref = _pack_kernel(rho.elements)
    prop = Propagator(grid, free_potential(), lam, 0.008)
    for _ in range(100):
        ref = prop.step_elements(ref)
    dev_mixed = mixture_consistency(tree, DensityMatrix._of(grid, ref))

    # control: +-p superposition inside one x cell, no dephasing; splitting
    # it erases the position fringes the collapse-free evolution keeps
    rho_c = cat_state(grid, 0.0, 0.7, p=2.0)
    povm_c = build_povm(grid, PhasePartition((-9.0, 9.0), (-6.0, 6.0), 1, 2), sigma_x=0.7)
    tree_c = BranchTree.from_state(rho_c, povm_c, dt=0.1, prune_epsilon=0.0)
    tree_c = branch_step(tree_c, free_potential(), 0.0, dt_int=0.002)
    ref_c = _pack_kernel(rho_c.elements)
    prop_c = Propagator(grid, free_potential(), 0.0, 0.002)
    for _ in range(50):
        ref_c = prop_c.step_elements(ref_c)
    dev_coherent = mixture_consistency(tree_c, DensityMatrix._of(grid, ref_c))

    ok = dev_mixed < 0.05 and dev_coherent > 0.05
    report(
        "branch mixture matches the unconditioned density",
        ok,
        f"decohered deviation {dev_mixed:.4f} vs 0.05; "
        f"coherent control {dev_coherent:.4f} vs > 0.05",
    )


HISTORIES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_environment_tagging_decoheres_histories():
    # no bath: leaked half-packets keep the cross-history terms alive
    grid0 = GridSpec(128, -10.0, 10.0, 1.0)
    wave0 = normalized(
        coherent_state(grid0, -2.0, 0.0, 0.8).amplitudes
        + coherent_state(grid0, 2.0, 0.0, 0.8).amplitudes,
        grid0,
    )
    povm0 = build_povm(grid0, PhasePartition((-9.0, 9.0), (-6.0, 6.0), 2, 1), 0.8)
    model0 = ExplicitModel.from_wavefunction(wave0, [])
    _, rep0 = decoherence_functional(
        model0, [povm0.operators[0], povm0.operators[1]], HISTORIES, free_potential(), 0.9
    )
    r0 = rep0.consistency_ratios.copy()
    np.fill_diagonal(r0, 0.0)

    # eight coupled qubits tag each branch
    grid8 = GridSpec(128, -10.0, 10.0, 6.0)
    wave8 = normalized(
        coherent_state(grid8, -3.0, 0.0, 0.5).amplitudes
        + coherent_state(grid8, 3.0, 0.0, 0.5).amplitudes,
        grid8,
    )
    povm8 = build_povm(grid8, PhasePartition((-9.0, 9.0), (-6.0, 6.0), 2, 1), 0.5)
    g8 = np.random.default_rng(5).uniform(1.5, 3.0, 8)
    model8 = ExplicitModel.from_wavefunction(wave8, g8)
    _, rep8 = decoherence_functional(
        model8, [povm8.operators[0], povm8.operators[1]], HISTORIES, free_potential(), 1.2
    )
    r8 = rep8.consistency_ratios.copy()
    np.fill_diagonal(r8, 0.0)

    # V = 0, heavy mass: conditioned-bath overlap is a product of cosines
    heavy = GridSpec(128, -10.0, 10.0, 1.0e9)
    waveh = normalized(
        coherent_state(heavy, -2.0, 0.0, 0.8).amplitudes
        + coherent_state(heavy, 2.0, 0.0, 0.8).amplitudes,
        heavy,
    )
    g = np.random.default_rng(11).uniform(0.5, 1.0, 8)
    t, n_steps = 0.35, 70
    _, reph = evolve_explicit(
        ExplicitModel.from_wavefunction(waveh, g), free_potential(), t / n_steps, n_steps
    )
    overlap = reph.env_overlaps[0, 1]
    xa, xb = reph.bin_centroids
    oracle = np.prod(np.abs(np.cos(g * (xa - xb) * t)))

    ok = r0.max() > 0.3 and r8.max() < 0.1 and abs(overlap - oracle) < 1e-6
    report(
        "environment tagging decoheres histories",
        ok,
        f"bare max ratio {r0.max():.3f} vs > 0.3; tagged max ratio {r8.max():.4f} vs 0.1; "
        f"bath overlap {overlap:.6f} vs cosine product {oracle:.6f} (gap "
        f"{abs(overlap - oracle):.1e} vs 1e-6)",
    )


# ------------------------------------------------------------- reduction


def test_collapse_trajectories_shadow_classical_orbit():
    grid = GridSpec(96, -10.0, 10.0, 4.0)
    pot = harmonic_potential(mass=4.0, omega=0.25)
    povm = build_povm(grid, PhasePartition((-6.0, 6.0), (-12.0, 12.0), 1, 3), 0.8)
    d_c = (PhasePoint(1.0, 0.0), PhasePoint(0.707, -0.707))

    def spec(tau):
        return ReductionSpec(
            delta_z=(1.5, 0.7), tau_c=tau, d_c=d_c, epsilon=0.01,
            n_traj=300, dt=1.5, dt_int=0.05, potential=pot,
            lambda_rate=0.25, povm=povm, sigma_x=0.8,
        )

    bench = verify_reduction(spec(2.0), 2026)
    bench_ok = bench.verdict == "PASS" and all(r.pass_fraction >= 0.95 for r in bench.per_z0)

    # same dynamics asked to track for 2.3x longer than the width horizon
    stretched = verify_reduction(spec(4.6), 2026)
    T = stretched.horizon_t
    v = np.sort(np.concatenate([np.asarray(r.violations) for r in stretched.per_z0]))
    inside = float(np.mean((v >= 0.75 * T) & (v <= 1.25 * T))) if v.size else 0.0
    med = float(np.median(v)) if v.size else math.nan
    stretched_ok = (
        stretched.verdict == "FAIL"
        and math.isfinite(T)
        and v.size >= 3
        and 0.75 * T <= med <= 1.25 * T
        and inside >= 0.5
    )

    report(
        "collapse trajectories shadow the classical orbit",
        bench_ok and stretched_ok,
        f"benchmark {bench.verdict} with fractions "
        f"{[round(r.pass_fraction, 3) for r in bench.per_z0]} vs >= 0.95; "
        f"stretched {stretched.verdict} with T = {T:.3f}, {v.size} violations, "
        f"median/T = {med / T:.3f} and {inside:.0%} inside [0.75T, 1.25T]",
    )


# ------------------------------------------------------------ mechanisms


def test_guidance_trajectories_equivariant_and_branch_locked():
    grid = GridSpec(192, -12.0, 12.0, 1.0)
    psi0 = coherent_state(grid, -2.0, 1.0, 0.7)
    snaps, ts = free_run(grid, psi0, 0.05, 30)
    ens = BohmEnsemble.from_state(psi0, 10_000, rng_seed=42)
    run = bohm_evolve(ens, snaps, ts, ode_dt=0.0125, checkpoints=[0.0, 0.75, 1.5])
    ks_worst = max(run.ks_distances.values())
    order = np.argsort(ens.positions)
    ordered = bool(np.all(np.diff(run.positions[order, :], axis=0) >= -1e-12))

    grid2 = GridSpec(192, -12.0, 12.0, 2.0)
    psi2 = normalized(
        math.sqrt(0.7) * coherent_state(grid2, -3.5, -1.0, 0.6).amplitudes
        + math.sqrt(0.3) * coherent_state(grid2, 3.5, 1.0, 0.6).amplitudes,
        grid2,
    )
    snaps2, ts2 = free_run(grid2, psi2, 0.04, 25)
    ens2 = BohmEnsemble.from_state(psi2, 10_000, rng_seed=77)
    run2 = bohm_evolve(
        ens2, snaps2, ts2, ode_dt=0.01, checkpoints=[0.0, 0.5, 1.0], branch_split=0.0
    )
    occ_gap = max(abs(left - 0.7) for left, _ in run2.occupancy.values())

    ok = (
        not run.node_flags.any()
        and ks_worst < 0.02
        and ordered
        and run2.crossings == 0
        and occ_gap <= 0.02
    )
    report(
        "guidance flow equivariant and branch-locked",
        ok,
        f"worst KS distance {ks_worst:.4f} vs 0.02; ordering preserved: {ordered}; "
        f"crossings {run2.crossings} vs 0; worst occupancy gap {occ_gap:.4f} vs 0.02",
    )


def test_localization_hits_poisson_timed_and_born_weighted():
    # 2 dx = 0.156 resolves the first-hit runs' r_c = 0.3
    heavy = GridSpec(256, -10.0, 10.0, 1.0e9)
    lam, total = 1.5, 2.0
    psi = coherent_state(heavy, 0.0, 0.0, 0.5)
    hit_counts = np.array([
        len(grw_evolve(psi, free_potential(), GRWParams(lam, 0.5), total,
                       rng_seed=seed, dt_int=0.25).hits)
        for seed in range(600)
    ])
    edges = list(range(7))
    observed = [np.sum(hit_counts == k) for k in edges] + [np.sum(hit_counts > edges[-1])]
    pmf = [stats.poisson.pmf(k, lam * total) for k in edges]
    expected = [p * len(hit_counts) for p in pmf] + [(1.0 - sum(pmf)) * len(hit_counts)]
    chi = stats.chisquare(observed, expected)

    lobes = normalized(
        math.sqrt(0.7) * coherent_state(heavy, -3.0, 0.0, 0.5).amplitudes
        + math.sqrt(0.3) * coherent_state(heavy, 3.0, 0.0, 0.5).amplitudes,
        heavy,
    )
    sides = []
    for seed in range(4000):
        run = grw_evolve(
            lobes, free_potential(), GRWParams(2.0, 0.3), 3.0,
            rng_seed=10_000 + seed, dt_int=0.05,
        )
        if run.hits:
            sides.append(run.hits[0].center < 0.0)
    frac_left = float(np.mean(sides))

    # hit states against the branch decomposition: reported, not thresholded
    rho = DensityMatrix(heavy, np.outer(lobes.amplitudes, lobes.amplitudes.conj()))
    povm = build_povm(heavy, PhasePartition((-9.0, 9.0), (-6.0, 6.0), 2, 1), 0.5)
    tree = branch_step(
        BranchTree.from_state(rho, povm, dt=0.1, prune_epsilon=1e-4),
        free_potential(), 0.05, dt_int=0.01,
    )
    history, score = compatibility_score(coherent_state(heavy, -3.0, 0.0, 0.5), tree)
    print(f"       compatibility of a lobe packet with branch {history}: {score:.5f}")

    ok = chi.pvalue > 0.01 and abs(frac_left - 0.7) <= 0.02
    report(
        "localization hits Poisson-timed and Born-weighted",
        ok,
        f"hit-count chi-square p = {chi.pvalue:.3f} vs 0.01; "
        f"first-hit left fraction {frac_left:.4f} vs 0.7 +- 0.02 "
        f"({len(sides)} of 4000 runs hit)",
    )


# ------------------------------------------------------------------ CLI


SAMPLE_CFG = """\
kind = sample
seed = 11
grid_n = 64
x_min = -8
x_max = 8
potential = harmonic
q0 = 0.0
p0 = 0.0
sigma_x = 0.7071
window_x_lo = -4
window_x_hi = 4
window_p_lo = -6
window_p_hi = 6
cells_x = 2
cells_p = 2
lambda = 0.5
dt = 0.3
n_steps = 2
n_traj = 5
out = {out}
"""


def test_rerun_produces_identical_payload_bytes(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(SAMPLE_CFG.format(out=out), encoding="utf-8")
        assert cli_main(["run", str(cfg)]) == 0
        run_dir = os.path.join(out, os.listdir(out)[0])
        blobs.append({
            name: Path(os.path.join(run_dir, name)).read_bytes()
            for name in sorted(os.listdir(run_dir))
            if name != "manifest.json"  # manifest embeds the config path
        })
        time.sleep(0.01)
    names = sorted(blobs[0])
    identical = names == sorted(blobs[1]) and all(blobs[0][n] == blobs[1][n] for n in names)
    report(
        "reruns byte-identical",
        identical,
        f"payloads {names} identical across two runs: {identical}",
    )
