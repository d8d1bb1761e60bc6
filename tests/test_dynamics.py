"""Open-system stepping: frozen master-equation reference values, step identities.

Reference values were produced by integrating the full generator
d rho/dt = -i[H, rho] - Lambda (x - x')^2 rho with a dense spectral
Hamiltonian and an adaptive high-order ODE solver (rtol 1e-11), then
cross-checked against the closed-form Gaussian moment flow.
"""

import math
import tracemalloc

import numpy as np
import pytest

from branchfall import (
    BoundaryViolation,
    BranchTree,
    DensityMatrix,
    ExplosionGuard,
    GridSpec,
    PhasePartition,
    WaveFunction,
    branch_step,
    build_povm,
    coherent_state,
    expectation,
)
from branchfall.dynamics import (
    Potential,
    Propagator,
    double_well_potential,
    evolve,
    free_potential,
    harmonic_potential,
)
from branchfall import dynamics, qstate
from branchfall.dynamics import _pack_kernel, _SplitStep
from branchfall.qstate import _unpack_kernel
from oracles import (
    reference_dense_step,
    reference_moment_row,
    reference_strang,
    reference_unitary,
)


def _moments(rec):
    return rec.mean_x[-1], rec.mean_p[-1], rec.var_x[-1], rec.var_p[-1], rec.purity[-1]


def test_free_dephasing_matches_integrated_master_equation():
    # M=1.5, Lambda=0.4, packet (-1, 1, 0.8), T=0.5
    grid = GridSpec(64, -10.0, 10.0, mass=1.5)
    rho = coherent_state(grid, -1.0, 1.0, 0.8).to_density()
    rec = evolve(rho, free_potential(), 0.4, dt=1e-3, n_steps=500, record_every=500)
    mx, mp, vx, vp, pur = _moments(rec)
    assert mx == pytest.approx(-0.666666666667, abs=1e-9)
    assert mp == pytest.approx(1.0, abs=1e-9)
    assert vx == pytest.approx(0.698217592593, abs=1e-6)
    assert vp == pytest.approx(0.790625000000, abs=1e-8)
    assert pur == pytest.approx(0.697907218989, abs=1e-6)


def test_harmonic_dephasing_matches_integrated_master_equation():
    # M=2, omega=1.3, Lambda=0.25, packet (1.2, -0.5, 0.7), T=0.4
    grid = GridSpec(64, -10.0, 10.0, mass=2.0)
    rho = coherent_state(grid, 1.2, -0.5, 0.7).to_density()
    pot = harmonic_potential(2.0, 1.3)
    rec = evolve(rho, pot, 0.25, dt=1e-3, n_steps=400, record_every=400)
    mx, mp, vx, vp, pur = _moments(rec)
    assert mx == pytest.approx(0.945829142951, abs=5e-6)
    assert mp == pytest.approx(-1.984175619887, abs=5e-6)
    assert vx == pytest.approx(0.390183835317, abs=5e-6)
    assert vp == pytest.approx(1.384961354978, abs=5e-6)
    assert pur == pytest.approx(0.856171968088, abs=5e-6)
    # first moments also follow the classical rotation
    w, m, t = 1.3, 2.0, 0.4
    assert mx == pytest.approx(1.2 * math.cos(w * t) - 0.5 / (m * w) * math.sin(w * t), abs=5e-6)
    assert mp == pytest.approx(-0.5 * math.cos(w * t) - m * w * 1.2 * math.sin(w * t), abs=5e-6)


def test_step_preserves_trace_hermiticity_positivity():
    # N = 256 steps on the FFT path, N = 64 with the dense unitary
    for n_points in (64, 256):
        grid = GridSpec(n_points, -10.0, 10.0, mass=2.0)
        rho = coherent_state(grid, 1.2, -0.5, 0.7).to_density()
        prop = Propagator(grid, harmonic_potential(2.0, 1.3), 0.25, dt=0.01)
        el = _pack_kernel(rho.elements)
        for _ in range(100):
            el = prop.step_elements(el)
        el = DensityMatrix._of(prop.grid, el).elements
        assert np.max(np.abs(el - el.conj().T)) == 0.0
        assert np.real(np.trace(el)) * grid.dx == pytest.approx(1.0, abs=1e-12)
        # dephasing is a Schur product with a Gaussian kernel: positivity survives
        assert np.linalg.eigvalsh(el * grid.dx)[0] > -1e-12


def test_momentum_diffusion_rate_is_exact():
    # freeze the packet with a huge mass so only dephasing moves Var(P)
    grid = GridSpec(64, -10.0, 10.0, mass=1e8)
    rho = coherent_state(grid, 0.0, 0.0, 0.8).to_density()
    rec = evolve(rho, free_potential(), 0.7, dt=0.01, n_steps=50, record_every=50)
    assert rec.var_p[-1] - rec.var_p[0] == pytest.approx(2 * 0.7 * 0.5, abs=1e-9)
    assert rec.mean_p[-1] == pytest.approx(rec.mean_p[0], abs=1e-10)


def test_leapfrog_moment_identities_per_step():
    # K(dt/2) V(dt) K(dt/2) moves first moments exactly like velocity Verlet,
    # on the dense path (N = 64) and the FFT path (N = 256)
    for n_points in (64, 256):
        grid = GridSpec(n_points, -10.0, 10.0, mass=2.0)
        rho = coherent_state(grid, 1.2, -0.5, 0.7).to_density()
        m, w, dt = 2.0, 1.3, 0.02
        prop = Propagator(grid, harmonic_potential(m, w), 0.5, dt)
        out = DensityMatrix._of(grid, prop.step_elements(_pack_kernel(rho.elements)))
        x0, p0 = expectation(rho, "x"), expectation(rho, "p")
        x1, p1 = expectation(out, "x"), expectation(out, "p")
        x_mid = x0 + 0.5 * dt * p0 / m
        assert p1 - p0 == pytest.approx(-dt * m * w * w * x_mid, abs=1e-12)
        assert x1 - x0 == pytest.approx(0.5 * dt * (p0 + p1) / m, abs=1e-12)


def test_first_moments_independent_of_lambda():
    grid = GridSpec(64, -10.0, 10.0, mass=2.0)
    rho = coherent_state(grid, 1.2, -0.5, 0.7).to_density()
    pot = harmonic_potential(2.0, 1.3)
    rec0 = evolve(rho, pot, 0.0, dt=1e-3, n_steps=400, record_every=100)
    rec1 = evolve(rho, pot, 0.3, dt=1e-3, n_steps=400, record_every=100)
    assert np.max(np.abs(rec0.mean_x - rec1.mean_x)) < 1e-9
    assert np.max(np.abs(rec0.mean_p - rec1.mean_p)) < 1e-9


def test_purity_monotone_under_dephasing():
    grid = GridSpec(64, -10.0, 10.0, mass=2.0)
    rho = coherent_state(grid, 1.2, -0.5, 0.7).to_density()
    rec = evolve(rho, harmonic_potential(2.0, 1.3), 1.0, dt=1e-3, n_steps=300, record_every=10)
    assert np.all(np.diff(rec.purity) <= 1e-12)
    assert np.all(np.diff(rec.s_lin) >= -1e-12)


def test_initial_entropy_rate_tracks_position_variance():
    # d S_lin / dt at t=0 equals 4 Lambda Var(X) for a pure state
    grid = GridSpec(64, -10.0, 10.0, mass=1.5)
    rho = coherent_state(grid, 0.5, 1.0, 0.8).to_density()
    lam, h = 0.3, 1e-4
    rec = evolve(rho, free_potential(), lam, dt=h, n_steps=2, record_every=1)
    rate = (rec.s_lin[2] - rec.s_lin[0]) / (2 * h)
    assert rate == pytest.approx(4 * lam * rec.var_x[0], rel=1e-3)


def test_propagator_rejects_non_finite_inputs():
    grid = GridSpec(64, -10.0, 10.0)
    nan, inf = float("nan"), float("inf")
    for lam, dt in ((nan, 0.01), (0.0, nan), (inf, 0.01), (0.1, -inf)):
        with pytest.raises(ValueError, match="finite"):
            Propagator(grid, free_potential(), lam, dt)


def test_unitary_step_round_trip():
    grid = GridSpec(64, -10.0, 10.0, mass=1.0)
    psi = coherent_state(grid, 0.5, 2.0, 0.7)
    pot = harmonic_potential(1.0, 1.0)
    prop = Propagator(grid, pot, 0.0, 0.05)
    fwd = WaveFunction(grid, prop.core.run(psi.amplitudes), validate=False)
    back = Propagator(grid, pot, 0.0, -0.05).core.run(fwd.amplitudes)
    assert np.max(np.abs(back - psi.amplitudes)) < 1e-12
    assert fwd.norm_squared() == pytest.approx(1.0, abs=1e-12)
    rho_fwd = _unpack_kernel(prop.step_elements(_pack_kernel(psi.to_density().elements)))
    direct = np.outer(fwd.amplitudes, fwd.amplitudes.conj())
    assert np.max(np.abs(rho_fwd - direct)) < 1e-12


def _step_of(excinfo):
    """The "t = ..." at the end of a guard's message."""
    return str(excinfo.value).rsplit(" at ", 1)[1]


def test_explosion_guard_trips_on_bad_trace():
    # N = 256 guards the packed kernel of the FFT path, and a wave function
    # there the factor, at the same step
    for n_points in (64, 256):
        grid = GridSpec(n_points, -10.0, 10.0)
        psi = coherent_state(grid, 0.0, 0.0, 0.7)
        rho = DensityMatrix(grid, 2.0 * np.outer(psi.amplitudes, psi.amplitudes.conj()), validate=False)
        with pytest.raises(ExplosionGuard) as kernel:
            evolve(rho, free_potential(), 0.0, dt=1e-3, n_steps=1)
    wave = WaveFunction(grid, math.sqrt(2.0) * psi.amplitudes, validate=False)
    with pytest.raises(ExplosionGuard) as factored:
        evolve(wave, free_potential(), 0.0, dt=1e-3, n_steps=1)
    assert _step_of(factored) == _step_of(kernel) == "t = 0"


def test_boundary_violation_when_packet_reaches_edge():
    grid = GridSpec(64, -8.0, 8.0, mass=1.0)
    rho = coherent_state(grid, 0.0, 3.0, 0.7).to_density()
    with pytest.raises(BoundaryViolation):
        evolve(rho, free_potential(), 0.0, dt=0.01, n_steps=300, record_every=10)


def test_boundary_violation_between_records():
    # one lap of the periodic grid ends where it began: only a check on
    # every step sees the packet cross the edge, on the dense path (N = 128)
    # and on the packed kernel of the FFT path (N = 256)
    for n_points in (128, 256):
        grid = GridSpec(n_points, -8.0, 8.0, mass=4.0)
        rho = DensityMatrix(grid, coherent_state(grid, 0.0, 12.0, 0.7).to_density().elements)
        with pytest.raises(BoundaryViolation) as kernel:
            evolve(rho, free_potential(), 0.0, dt=0.01, n_steps=533, record_every=1000)
    # the wave function's factor crosses the edge at the same step
    psi = coherent_state(grid, 0.0, 12.0, 0.7)
    with pytest.raises(BoundaryViolation) as factored:
        evolve(psi, free_potential(), 0.0, dt=0.01, n_steps=533, record_every=1000)
    assert _step_of(factored) == _step_of(kernel) == "t = 1.25"


def test_record_cadence_and_columns():
    grid = GridSpec(64, -10.0, 10.0)
    rho = coherent_state(grid, 0.0, 0.0, 0.7).to_density()
    rec = evolve(rho, free_potential(), 0.1, dt=0.01, n_steps=25, record_every=10)
    assert np.allclose(rec.times, [0.0, 0.1, 0.2, 0.25])
    cols = rec.as_columns()
    assert list(cols.keys()) == ["t", "mean_x", "mean_p", "var_x", "var_p", "s_lin", "purity"]
    assert all(len(v) == 4 for v in cols.values())
    with pytest.raises(ValueError):
        evolve(rho, free_potential(), 0.1, dt=0.01, n_steps=0)
    with pytest.raises(ValueError):
        evolve(rho, free_potential(), -0.1, dt=0.01, n_steps=5)


def test_stencil_derivative_exact_for_quartic():
    grid = GridSpec(64, -3.0, 3.0)
    pot = Potential(v=lambda x: x**4 - 2 * x**2 + 0.5 * x)
    want = 4 * grid.x**3 - 4 * grid.x + 0.5
    assert np.max(np.abs(pot.derivative_values(grid) - want)) < 1e-9
    dw = double_well_potential(0.5, 1.5)
    assert np.max(np.abs(dw.derivative_values(grid) - (2 * grid.x * (grid.x**2 - 2.25)))) < 1e-9


@pytest.mark.parametrize("dt", [0.01, -0.03])
@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_split_step_matches_unfused_reference(n, dt):
    grid = GridSpec(128, -10.0, 10.0, mass=1.5)
    pot = double_well_potential(0.05, 3.0)
    psi = coherent_state(grid, -1.0, 1.5, 0.8).amplitudes
    fused = _SplitStep(grid, pot.values(grid), dt).run(psi, n)
    ref = reference_strang(grid, pot.values(grid), dt, psi, n)
    assert np.max(np.abs(fused - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_points", [64, 96, 128])
@pytest.mark.parametrize("dt", [0.002, 0.05, -0.05])
def test_propagator_unitary_matches_column_build(n_points, dt):
    grid = GridSpec(n_points, -10.0, 12.0, mass=1.7)
    for pot in (free_potential(), harmonic_potential(1.7, 0.7), double_well_potential(0.5, 2.0)):
        u = Propagator(grid, pot, 0.0, dt).u
        assert u.flags.c_contiguous
        assert np.array_equal(u, reference_unitary(grid, pot, dt))


@pytest.mark.blas_order
def test_propagator_unitary_is_the_cores_dense_step():
    # the construction the Propagator held before the core did: run() on
    # the identity, transposed into a C-ordered copy
    grid = GridSpec(192, -12.0, 12.0, mass=1.3)
    pot = harmonic_potential(1.3, 0.8)
    prop = Propagator(grid, pot, 0.2, 0.01)
    rows = _SplitStep(grid, pot.values(grid), 0.01).run(np.eye(grid.n_points))
    assert prop.u is prop.core.dense and prop.u.flags.c_contiguous
    assert np.array_equal(prop.u, np.ascontiguousarray(rows.T))
    assert np.array_equal(prop.u_dag, prop.u.conj().T)


@pytest.mark.parametrize("n_points", [96, 128, 192])
def test_leap_matches_fused_steps(n_points):
    # U^n psi by binary powers of the dense step against n fused steps;
    # the squares add roundoff about as n eps (worst 1.4e-13 measured)
    grid = GridSpec(n_points, -12.0, 12.0, mass=1.0)
    pot = harmonic_potential(1.0, 1.0)
    psi = coherent_state(grid, 1.0, 0.3, 0.7071).amplitudes
    core = _SplitStep(grid, pot.values(grid), 0.01)
    for n in (0, 1, 2, 3, 63, 64, 65, 1000):
        want = core.run(psi, n)
        got = core.leap(psi, n)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), n
    # the table holds U^(2^k) up to the longest leap's top bit, 2^9 <= 1000
    assert len(core._powers) == 10
    assert np.array_equal(core.leap(psi, 0), psi)


def test_one_step_core_builds_no_full_kick():
    grid = GridSpec(96, -10.0, 10.0, mass=1.0)
    pot = harmonic_potential(1.0, 1.0)
    psi = coherent_state(grid, 0.5, 0.0, 0.8).amplitudes
    core = _SplitStep(grid, pot.values(grid), 0.03)
    core.run(psi)
    assert "kick" not in core.__dict__ and "dense" not in core.__dict__
    core.run(psi, 2)
    want = np.exp(-1j * grid.p**2 / (2.0 * grid.mass) * 0.03)
    assert np.array_equal(core.kick, want)


def test_dense_unitary_below_fft_crossover_only():
    pot = harmonic_potential(1.0, 0.7)
    below = Propagator(GridSpec(255, -10.0, 10.0), pot, 0.1, 0.01)
    assert below.u.flags.c_contiguous
    above = Propagator(GridSpec(256, -10.0, 10.0), pot, 0.1, 0.01)
    assert above.u is None and above.u_dag is None


def test_fft_path_needs_small_prime_factors():
    pot = harmonic_potential(1.0, 0.7)
    # 301 = 7 43 and the prime 257 step slower on the FFT path than dense
    for n in (257, 301):
        assert Propagator(GridSpec(n, -10.0, 10.0), pot, 0.1, 0.01).u.flags.c_contiguous
    for n in (264, 266, 315):
        assert Propagator(GridSpec(n, -10.0, 10.0), pot, 0.1, 0.01).u is None
    # every benchmark grid keeps its path: dense below 256, FFT from 256 up
    assert [dynamics._fft_path(n) for n in (96, 128, 192, 256, 288, 512)] == [
        False, False, False, True, True, True,
    ]


def _cat(grid):
    cat = coherent_state(grid, -2.5, 1.0, 0.8).amplitudes
    cat = cat + coherent_state(grid, 2.0, -0.5, 0.7).amplitudes
    return WaveFunction(grid, cat / math.sqrt(np.vdot(cat, cat).real * grid.dx))


def _noisy_cat(grid):
    """The cat's kernel plus anti-Hermitian noise 1e-11 in size, inside
    DensityMatrix's 1e-10 asymmetry tolerance."""
    el = _cat(grid).to_density().elements
    rng = np.random.default_rng(5)
    noise = rng.normal(size=el.shape) + 1j * rng.normal(size=el.shape)
    noise -= noise.conj().T
    noise *= 1e-11 / np.max(np.abs(noise))
    return DensityMatrix(grid, el + noise).elements


def _dense_step(grid, pot, lam, dt):
    """The dense Strang oracle: one step of a kernel, re-symmetrized."""
    u = reference_unitary(grid, pot, dt)
    diff = grid.x[:, None] - grid.x[None, :]
    dephase = np.exp(-lam * diff * diff * (dt / 2.0))

    def step(el):
        el = dephase * (u @ (dephase * el) @ u.conj().T)
        return 0.5 * (el + el.conj().T)

    return u, step


# 315 = 3^2 5 7 is the odd grid on the FFT path; 301 = 7 43 steps on the
# dense path (see _fft_path), which must meet the same bounds
@pytest.mark.parametrize("n_points", [256, 301, 315, 512])
@pytest.mark.parametrize("lam,dt", [(0.0, 0.01), (0.2, 0.01), (0.0, -0.01)])
@pytest.mark.parametrize(
    "pot",
    [free_potential(), harmonic_potential(1.5, 0.7), double_well_potential(0.05, 3.0)],
    ids=lambda p: p.name,
)
def test_fft_step_matches_dense_reference(n_points, lam, dt, pot):
    grid = GridSpec(n_points, -12.0, 12.0, mass=1.5)
    psi = _cat(grid)
    prop = Propagator(grid, pot, lam, dt)
    assert (prop.u is None) == (n_points != 301)
    u, dense_step = _dense_step(grid, pot, lam, dt)
    ref = psi.to_density().elements
    el = _pack_kernel(ref)
    wave = ref_wave = psi.amplitudes
    for _ in range(10):
        el, wave = prop.step_elements(el), prop.core.run(wave)
        ref = dense_step(ref)
        ref_wave = u @ ref_wave
    el = DensityMatrix._of(prop.grid, el).elements
    assert np.max(np.abs(el - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(wave - ref_wave)) <= 1e-13 * np.max(np.abs(ref_wave))
    # either step leaves the kernel exactly Hermitian
    assert np.array_equal(el, el.conj().T)


def _evolve_recording_rows(monkeypatch, psi, pot, lam):
    """evolve(psi) for 10 steps of 0.01, with the type of the state's form
    and the moment row (mean_x, mean_p, mean_x2, mean_p2, purity,
    mean_dvdx) of every record."""
    forms, rows = [], []
    moment_row = dynamics._moment_row

    def spy(rho, *args):
        forms.append(type(rho.factor if rho.factor is not None else rho._packed))
        rows.append(moment_row(rho, *args))
        return rows[-1]

    monkeypatch.setattr(dynamics, "_moment_row", spy)
    rec = evolve(psi, pot, lam, dt=0.01, n_steps=10, record_every=1)
    monkeypatch.setattr(dynamics, "_moment_row", moment_row)
    assert np.array_equal(rec.purity, [row[4] for row in rows])
    return rec, forms, rows


def _assert_matches_dense_oracle(rec, rows, psi, pot, lam):
    """The rows and the final kernel of a 10-step chain against the dense
    oracle: 1e-13 max|rho| on the kernel, and on the rows the bounds of
    test_moment_row_reads_the_packed_kernel."""
    grid = psi.grid
    _, dense_step = _dense_step(grid, pot, lam, 0.01)
    dv = pot.derivative_values(grid)
    ref = psi.to_density().elements
    for k, (mx, mp, mx2, mp2, pur, mdv) in enumerate(rows):
        if k:
            ref = dense_step(ref)
        mass = DensityMatrix(grid, ref, validate=False).momentum_masses()
        floor = 4 * np.finfo(float).eps * mass.max()
        wx, wp, wx2, wp2, wpur, wdv = reference_moment_row(ref, grid, dv)
        for got, want in ((mx, wx), (mx2, wx2), (pur, wpur), (mdv, wdv)):
            assert abs(got - want) <= 1e-13 * abs(want)
        assert abs(mp - wp) <= floor * np.sum(np.abs(grid.p))
        assert abs(mp2 - wp2) <= floor * np.sum(grid.p**2)
    final = rec.final.elements
    assert np.max(np.abs(final - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(final, final.conj().T)


# a pure packet on the FFT path steps as the factor V diag(lam) V^H; its
# record rows and expanded final meet the bounds of the packed kernel
@pytest.mark.parametrize("n_points", [256, 315, 512])
@pytest.mark.parametrize("lam", [0.0, 0.2])
@pytest.mark.parametrize(
    "pot",
    [free_potential(), harmonic_potential(1.5, 0.7), double_well_potential(0.05, 3.0)],
    ids=lambda p: p.name,
)
@pytest.mark.blas_order
def test_factored_chain_matches_dense_oracle(n_points, lam, pot, monkeypatch):
    grid = GridSpec(n_points, -12.0, 12.0, mass=1.5)
    psi = _cat(grid)
    # the cat's rank outgrows the measured bound within 10 steps; lifting
    # it keeps every step factored
    monkeypatch.setattr(dynamics, "_FACTOR_MAX_BLOCK", 10**6)
    rec, forms, rows = _evolve_recording_rows(monkeypatch, psi, pot, lam)
    # the first form is the packet's _Pure, a _Factor subclass
    assert len(forms) == 11 and all(issubclass(form, dynamics._Factor) for form in forms)
    _assert_matches_dense_oracle(rec, rows, psi, pot, lam)


@pytest.mark.blas_order
def test_factored_chain_hands_off_once(monkeypatch):
    # reduce's horizon chain on its widened grid (N = 288 on |x| <= 30,
    # Lambda = 0.25, step 0.3), which it runs only when the run's own grid
    # trips the edge guard, has M0 = 144: a wave function there takes no
    # factored step and gives the bits of its density matrix's chain
    factored, packs = [], []
    step_factor = Propagator.step_factor

    def counting_step_factor(self, factor):
        factored.append(factor.rank)
        return step_factor(self, factor)

    monkeypatch.setattr(Propagator, "step_factor", counting_step_factor)
    wide = GridSpec(288, -30.0, 30.0, mass=4.0)
    prop = Propagator(wide, harmonic_potential(4.0, 0.25), 0.25, 0.3)
    assert prop.dephase_terms == 144 and not prop.factored(1)
    psi = coherent_state(wide, 1.0, 0.0, 0.8)
    rec = dynamics._evolve_on(prop, psi, 10)
    ref = dynamics._evolve_on(prop, psi.to_density(), 10)
    assert factored == [] and "dephase_factor" not in vars(prop)
    for name, col in ref.as_columns().items():
        assert np.array_equal(rec.as_columns()[name], col)
    assert np.array_equal(rec.final.elements, ref.final.elements)
    # a chain whose rank outgrows the bound expands once, mid-chain, and
    # still meets the dense oracle's bounds
    monkeypatch.setattr(dynamics, "_FACTOR_MAX_BLOCK", 13 * 13 * 12)
    pack = dynamics._pack_kernel
    monkeypatch.setattr(dynamics, "_pack_kernel", lambda el: packs.append(1) or pack(el))
    psi, pot = _cat(GridSpec(256, -12.0, 12.0, mass=1.5)), double_well_potential(0.05, 3.0)
    rec, forms, rows = _evolve_recording_rows(monkeypatch, psi, pot, 0.2)
    assert packs == [1] and issubclass(forms[0], dynamics._Factor) and forms[-1] is np.ndarray
    # every step up to the first kernel, the hand-off included, is factored
    assert len(factored) == forms.index(np.ndarray)
    _assert_matches_dense_oracle(rec, rows, psi, pot, 0.2)


@pytest.mark.parametrize("fill", [np.nan, 0.0], ids=["nan", "zero"])
def test_step_factor_guards_an_empty_or_non_finite_block(fill):
    # a factor with no finite column to keep left the dephasing an empty
    # block, and lam[-1] of its eigh raised IndexError (an evolve or sieve
    # at omega = 1e155, whose V overflowed to inf and whose step then gave
    # nan rows)
    prop = Propagator(GridSpec(256, -12.0, 12.0), free_potential(), 0.2, 0.01)
    assert prop.factored(1)
    factor = dynamics._Factor(np.ones(1), np.full((1, 256), fill, dtype=complex))
    with pytest.raises(ExplosionGuard, match="largest column norm"):
        prop.step_factor(factor)


@pytest.mark.parametrize("n_points", [256, 301, 315])
def test_fft_step_evolves_the_hermitian_part_of_a_noisy_kernel(n_points):
    # a kernel inside DensityMatrix's 1e-10 asymmetry tolerance steps as its
    # Hermitian part; the noise, 1e-11 in size, alone breaks the 1e-13 bound
    grid = GridSpec(n_points, -12.0, 12.0, mass=1.5)
    pot = double_well_potential(0.05, 3.0)
    el = _cat(grid).to_density().elements
    noisy = _noisy_cat(grid)
    _, dense_step = _dense_step(grid, pot, 0.2, 0.01)
    prop = Propagator(grid, pot, 0.2, 0.01)
    out = DensityMatrix._of(prop.grid, prop.step_elements(_pack_kernel(noisy))).elements
    ref = dense_step(el)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(out, out.conj().T)


@pytest.mark.parametrize("n_points", [256, 315, 512])
@pytest.mark.blas_order
def test_moment_row_reads_the_packed_kernel(n_points):
    # the row read from the state of R = Re rho + Im rho is the complex
    # kernel's row: a stepped kernel against its unpacked form, and the
    # noisy kernel against its Hermitian part
    grid = GridSpec(n_points, -12.0, 12.0, mass=1.5)
    pot = double_well_potential(0.05, 3.0)
    prop = Propagator(grid, pot, 0.2, 0.01)
    dv = pot.derivative_values(grid)
    packed = _pack_kernel(_cat(grid).to_density().elements)
    for _ in range(5):
        packed = prop.step_elements(packed)
    noisy = _noisy_cat(grid)
    pairs = [
        (packed, _unpack_kernel(packed)),
        (_pack_kernel(noisy), 0.5 * (noisy + noisy.conj().T)),
    ]
    for kernel, ref in pairs:
        assert kernel.dtype == np.float64 and ref.dtype == np.complex128
        rho = DensityMatrix._of(grid, kernel)
        mass = DensityMatrix(grid, ref, validate=False).momentum_masses()
        floor = 4 * np.finfo(float).eps * mass.max()
        assert np.max(np.abs(rho.momentum_masses() - mass)) <= floor
        mx, mp, mx2, mp2, pur, mdv = dynamics._moment_row(rho, dv)
        wx, wp, wx2, wp2, wpur, wdv = reference_moment_row(ref, grid, dv)
        for got, want in ((mx, wx), (mx2, wx2), (pur, wpur), (mdv, wdv)):
            assert abs(got - want) <= 1e-13 * abs(want)
        # <P> and <P^2> weigh each mass's roundoff with |p| and p^2, up to
        # (pi/dx)^2 = 4.5e3 at N = 512 (measured 1.4e-12 relative there)
        assert abs(mp - wp) <= floor * np.sum(np.abs(grid.p))
        assert abs(mp2 - wp2) <= floor * np.sum(grid.p**2)


@pytest.mark.parametrize("n_points", [128, 256, 512])
@pytest.mark.blas_order
def test_wave_and_density_share_one_chain(n_points):
    # a WaveFunction enters the chain as its to_density(), so both give the
    # same bits: as the dense-path kernel at N = 128, as the factor from 256
    # up (the cat's rank outgrows the bound and hands off mid-chain at 256)
    grid = GridSpec(n_points, -12.0, 12.0, mass=1.5)
    psi = _cat(grid)
    args = (double_well_potential(0.05, 3.0), 0.2, 0.01, 10, 3)
    rec, ref = evolve(psi, *args), evolve(psi.to_density(), *args)
    for name, col in ref.as_columns().items():
        assert np.array_equal(rec.as_columns()[name], col)
    assert np.array_equal(rec.mean_dvdx, ref.mean_dvdx)
    assert np.array_equal(rec.final.elements, ref.final.elements)


@pytest.mark.parametrize("n_points", [128, 256])
def test_density_chains_pack_once_and_unpack_once(n_points, monkeypatch):
    # a DensityMatrix given as a kernel: its evolve and one branch_step leaf
    # each pack the kernel once (the chain's entry, in dynamics) and unpack
    # it once (in qstate) on either stepper, evolve's on the read of
    # final.elements.  A WaveFunction on the FFT path (N = 256) steps as a
    # factor: no packed kernel and no step_elements; on the dense path
    # (N = 128) its rank-1 density enters as its kernel
    calls = {"pack": 0, "unpack": 0, "step": 0}

    def counting(module, name):
        real = getattr(module, f"_{name}_kernel")

        def count(kernel):
            calls[name] += 1
            return real(kernel)

        return count

    for module, name in ((dynamics, "pack"), (qstate, "unpack")):
        monkeypatch.setattr(module, f"_{name}_kernel", counting(module, name))
    step = Propagator.step_elements

    def counting_step(self, kernel):
        calls["step"] += 1
        return step(self, kernel)

    monkeypatch.setattr(Propagator, "step_elements", counting_step)
    grid = GridSpec(n_points, -10.0, 10.0, mass=1.0)
    psi = coherent_state(grid, 0.5, 1.0, 0.8)
    rho = DensityMatrix(grid, psi.to_density().elements)
    rec = evolve(rho, harmonic_potential(1.0, 1.0), 0.2, dt=0.01, n_steps=7, record_every=2)
    assert calls == {"pack": 1, "unpack": 0, "step": 7}
    rec.final
    assert calls == {"pack": 1, "unpack": 0, "step": 7}
    rec.final.elements
    assert calls == {"pack": 1, "unpack": 1, "step": 7}
    povm = build_povm(grid, PhasePartition((-7.0, 7.0), (-6.0, 6.0), 2, 1), sigma_x=0.8)
    tree = BranchTree.from_state(rho, povm, dt=0.03)
    assert len(branch_step(tree, free_potential(), 0.2, dt_int=0.01).leaves) == 2
    assert calls == {"pack": 2, "unpack": 2, "step": 10}
    rec = evolve(psi, harmonic_potential(1.0, 1.0), 0.2, dt=0.01, n_steps=7, record_every=2)
    rec.final.elements
    kernel = int(not dynamics._fft_path(n_points))
    assert calls == {"pack": 2 + kernel, "unpack": 2 + kernel, "step": 10 + 7 * kernel}
    with pytest.raises(TypeError, match="packed real kernel"):
        Propagator(grid, free_potential(), 0.2, 0.01).step_elements(rho.elements)


def test_fft_propagator_holds_one_table_and_the_dephasing_kernel():
    # the dense build held u, u_dag and the dephasing kernel: 10 MiB at N=512;
    # the packed step keeps one kick table, its real and imaginary halves on
    # the rfft half-plane (2 x 512 x 257 reals), beside the 2 MiB dephasing kernel
    grid = GridSpec(512, -12.0, 12.0, mass=1.5)
    el = coherent_state(grid, 0.5, 1.0, 0.8).to_density().elements
    tracemalloc.start()
    try:
        prop = Propagator(grid, harmonic_potential(1.5, 0.7), 0.2, 0.01)
        prop.step_elements(_pack_kernel(el))
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prop.u is None
    assert live <= 4.5 * 2**20


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.blas_order
def test_dense_step_allocates_only_its_result(lam):
    # N = 128 is on the dense path: past its first step the propagator's two
    # work arrays hold every complex temporary, so a 20-step chain of packed
    # kernels peaks at its last input plus its result (measured 1.26 N^2 x
    # 16 B above the input; a step with complex kernels and the same work
    # arrays peaked at 2.5), within 1e-13 max|rho| of the complex
    # fresh-temporary step (measured 3.0e-15)
    grid = GridSpec(128, -10.0, 10.0, mass=1.0)
    prop = Propagator(grid, harmonic_potential(1.0, 1.0), lam, 0.01)
    assert prop.u is not None
    start = prop.step_elements(_pack_kernel(coherent_state(grid, 1.0, 0.5, 0.8).to_density().elements))
    kernel = start
    tracemalloc.start()
    try:
        for _ in range(20):
            kernel = prop.step_elements(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref = _unpack_kernel(start)
    for _ in range(20):
        ref = reference_dense_step(prop, ref)
    assert np.max(np.abs(_unpack_kernel(kernel) - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert peak < 1.5 * grid.n_points**2 * 16
