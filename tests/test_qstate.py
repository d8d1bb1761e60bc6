"""Grid states: coherent packets, moments, entropies, validation gates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from branchfall import (
    BoundaryViolation,
    DensityMatrix,
    GridSpec,
    NonHermitianState,
    PositivityError,
    PositivityWarning,
    WaveFunction,
    check_positivity,
    coherent_state,
    expectation,
    mean_phase_point,
    purity_and_entropy,
    variance,
)
from branchfall import qstate
from branchfall.dynamics import Propagator, evolve, harmonic_potential
from branchfall.qstate import _pack_kernel, _unpack_kernel
from oracles import reference_momentum_masses


@pytest.fixture
def grid():
    return GridSpec(n_points=128, x_min=-8.0, x_max=8.0, mass=1.0)


def test_grid_conjugate_relation(grid):
    # dx * dp * n = 2 pi ties the two grids together exactly
    assert grid.dx * grid.dp * grid.n_points == pytest.approx(2 * math.pi, abs=1e-14)
    assert grid.p_max == pytest.approx(math.pi / grid.dx)
    assert len(grid.x) == len(grid.p) == 128


def test_gridspec_rejects_bad_input():
    with pytest.raises(ValueError):
        GridSpec(4, -1.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1024, -1.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(64, 1.0, -1.0)
    with pytest.raises(ValueError):
        GridSpec(64, -1.0, 1.0, mass=0.0)


@pytest.mark.parametrize("x_min, x_max", [(-math.inf, 0.0), (0.0, math.inf), (-1e308, 1e308)])
def test_gridspec_rejects_a_window_of_infinite_width(x_min, x_max):
    # each was accepted with dx = inf, and every array on the grid was nan
    with pytest.raises(ValueError, match="finite width") as err:
        GridSpec(64, x_min, x_max)
    assert err.value.field == "x_max"
    assert GridSpec(64, -1e307, 1e307).dx == pytest.approx(2e307 / 64)


def test_packet_wider_than_the_grid_rejected(grid):
    # one rule with the under-resolved floor: a packet, POVM or hit width
    # is at most the grid width x_max - x_min (16 here)
    with pytest.raises(ValueError, match="exceeds the grid width") as err:
        coherent_state(grid, 0.0, 0.0, 16.5)
    assert err.value.field == "sigma_x"


def test_coherent_moments_against_quadrature(grid):
    # independent check: integrate the analytic Gaussian density
    q0, p0, s = 2.0, 3.0, 0.7
    psi = coherent_state(grid, q0, p0, s)

    def dens(x):
        return math.exp(-((x - q0) ** 2) / (2 * s * s)) / (s * math.sqrt(2 * math.pi))

    mean_x = quad(lambda x: x * dens(x), -np.inf, np.inf)[0]
    mean_x2 = quad(lambda x: x * x * dens(x), -np.inf, np.inf)[0]
    assert mean_x == pytest.approx(2.0, abs=1e-10)
    assert expectation(psi, "x") == pytest.approx(mean_x, abs=1e-8)
    assert variance(psi, "x") == pytest.approx(mean_x2 - mean_x**2, abs=1e-8)
    assert variance(psi, "x") == pytest.approx(0.49, abs=1e-8)
    assert expectation(psi, "p") == pytest.approx(3.0, abs=1e-8)
    assert variance(psi, "p") == pytest.approx(1.0 / (4 * s * s), abs=1e-8)


def test_minimum_uncertainty_product(grid):
    psi = coherent_state(grid, -1.0, 4.0, 0.5)
    prod = variance(psi, "x") * variance(psi, "p")
    assert prod == pytest.approx(0.25, abs=1e-9)


def test_mean_phase_point_unpacks(grid):
    q, p = mean_phase_point(coherent_state(grid, 1.5, -2.0, 0.6))
    assert q == pytest.approx(1.5, abs=1e-9)
    assert p == pytest.approx(-2.0, abs=1e-9)


def test_wave_and_density_expectations_agree(grid):
    # superposition: nontrivial off-diagonal structure in rho
    a = coherent_state(grid, -2.0, 1.0, 0.6)
    b = coherent_state(grid, 2.0, -1.0, 0.6)
    amp = (a.amplitudes + b.amplitudes) / math.sqrt(
        2 + 2 * (a.overlap(b)).real
    )
    psi = WaveFunction(grid, amp)
    rho = psi.to_density()
    for ob in ("x", "p", "x2", "p2"):
        assert expectation(psi, ob) == pytest.approx(expectation(rho, ob), abs=1e-10)


def test_observable_as_array_and_callable(grid):
    psi = coherent_state(grid, 1.0, 0.0, 0.7)
    direct = expectation(psi, grid.x**2)
    via_call = expectation(psi, lambda x: x**2)
    assert direct == pytest.approx(expectation(psi, "x2"), abs=1e-12)
    assert via_call == pytest.approx(direct, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    q1=st.floats(-2.5, 2.5),
    p1=st.floats(-6.0, 6.0),
    q2=st.floats(-2.5, 2.5),
    p2=st.floats(-6.0, 6.0),
    sigma=st.floats(0.4, 0.9),
)
def test_overlap_matches_gaussian_law(q1, p1, q2, p2, sigma):
    # |<Z|Z'>|^2 = exp(-(dq^2/(4 s^2) + s^2 dp^2)) for equal widths
    grid = GridSpec(128, -10.0, 10.0)
    za = coherent_state(grid, q1, p1, sigma)
    zb = coherent_state(grid, q2, p2, sigma)
    got = abs(za.overlap(zb)) ** 2
    want = math.exp(-((q1 - q2) ** 2 / (4 * sigma**2) + sigma**2 * (p1 - p2) ** 2))
    assert got == pytest.approx(want, abs=1e-9)


def test_boundary_violation_position(grid):
    with pytest.raises(BoundaryViolation):
        coherent_state(grid, 7.5, 0.0, 0.7)


def test_boundary_violation_momentum():
    grid = GridSpec(64, -8.0, 8.0)  # p_max ~ 12.6
    with pytest.raises(BoundaryViolation):
        coherent_state(grid, 0.0, 12.0, 0.7)


def test_under_resolved_sigma_rejected(grid):
    with pytest.raises(ValueError, match="under-resolved"):
        coherent_state(grid, 0.0, 0.0, 0.1)


def test_normalization_gate(grid):
    with pytest.raises(ValueError, match="not normalized"):
        WaveFunction(grid, np.ones(grid.n_points, dtype=complex))


def test_pure_state_entropies(grid):
    rho = coherent_state(grid, 0.0, 2.0, 0.5).to_density()
    purity, s_lin, s_vn = purity_and_entropy(rho)
    assert purity == pytest.approx(1.0, abs=1e-10)
    assert s_lin == pytest.approx(0.0, abs=1e-10)
    assert abs(s_vn) < 1e-8


def test_orthogonal_mixture_entropies(grid):
    # packets 12 sigma apart: overlap ~ e^-36, orthogonal at machine precision
    p1 = coherent_state(grid, -3.0, 0.0, 0.5)
    p2 = coherent_state(grid, 3.0, 0.0, 0.5)
    mix = DensityMatrix.from_mixture([0.5, 0.5], [p1, p2])
    purity, s_lin, s_vn = purity_and_entropy(mix)
    assert purity == pytest.approx(0.5, abs=1e-10)
    assert s_lin == pytest.approx(0.5, abs=1e-10)
    assert s_vn == pytest.approx(math.log(2), abs=1e-10)


def test_vn_entropy_bounds_linear_entropy(grid):
    # S_vN >= S_lin for any state; try an uneven three-packet mixture
    packets = [
        coherent_state(grid, -4.0, 0.0, 0.5),
        coherent_state(grid, 0.0, 1.0, 0.5),
        coherent_state(grid, 4.0, -1.0, 0.5),
    ]
    mix = DensityMatrix.from_mixture([0.5, 0.3, 0.2], [packets[0], packets[1], packets[2]])
    _, s_lin, s_vn = purity_and_entropy(mix)
    assert s_vn >= s_lin - 1e-12


def test_positivity_monitor(grid):
    rho = coherent_state(grid, 0.0, 0.0, 0.5).to_density()
    assert check_positivity(rho) > -1e-12

    # push one eigenvalue slightly negative, then strongly negative
    lam, vec = np.linalg.eigh(rho.elements * grid.dx)
    perturbed = rho.elements - (1e-5 / grid.dx) * np.outer(vec[:, 0], vec[:, 0].conj())
    bad = DensityMatrix(grid, perturbed, validate=False)
    with pytest.warns(PositivityWarning):
        check_positivity(bad)

    worse = rho.elements - (5e-3 / grid.dx) * np.outer(vec[:, 0], vec[:, 0].conj())
    with pytest.raises(PositivityError):
        check_positivity(DensityMatrix(grid, worse, validate=False))


def test_hermiticity_gate(grid):
    a = coherent_state(grid, -2.0, 1.0, 0.5)
    b = coherent_state(grid, 2.0, -1.0, 0.5)
    lopsided = np.outer(a.amplitudes, b.amplitudes.conj())
    with pytest.raises(NonHermitianState):
        DensityMatrix(grid, lopsided)
    # escape hatch used by hot loops skips the gate but expectation still guards
    sneaky = DensityMatrix(grid, lopsided / (np.trace(lopsided) * grid.dx), validate=False)
    with pytest.raises(NonHermitianState):
        expectation(sneaky, "x")
    # and so does mean_phase_point, which reads the moments in one call
    with pytest.raises(NonHermitianState):
        mean_phase_point(sneaky)


def test_mixture_weight_validation(grid):
    p1 = coherent_state(grid, -3.0, 0.0, 0.5)
    p2 = coherent_state(grid, 3.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        DensityMatrix.from_mixture([0.7, 0.7], [p1, p2])
    with pytest.raises(ValueError):
        DensityMatrix.from_mixture([-0.5, 1.5], [p1, p2])


def test_momentum_masses_sum_to_trace(grid):
    psi = coherent_state(grid, 0.5, -3.0, 0.6)
    assert psi.momentum_masses().sum() == pytest.approx(1.0, abs=1e-12)
    rho = psi.to_density()
    assert rho.momentum_masses().sum() == pytest.approx(rho.trace(), abs=1e-12)


def _oracle_kernels(grid):
    mixture = DensityMatrix.from_mixture(
        [0.4, 0.6],
        [coherent_state(grid, -3.0, 1.0, 1.0), coherent_state(grid, 2.5, -0.5, 0.8)],
    )
    boosted = coherent_state(grid, 1.0, 2.0, 0.9).to_density()
    cat = coherent_state(grid, -2.0, 1.0, 0.8).amplitudes + coherent_state(
        grid, 2.0, 1.0, 0.8
    ).amplitudes
    cat = WaveFunction(grid, cat / math.sqrt(np.sum(np.abs(cat) ** 2) * grid.dx))
    dephased = evolve(
        cat.to_density(), harmonic_potential(1.0, 1.0), 0.5, dt=0.05, n_steps=4,
        record_every=4,
    ).final
    return {"mixture": mixture, "boosted": boosted, "dephased": dephased}


@pytest.mark.parametrize("n", [96, 97, 128, 256, 512])
def test_momentum_masses_match_full_transform(n):
    # odd n checks the wrap of the autocorrelation
    grid = GridSpec(n, -10.0, 10.0, 1.0)
    for name, rho in _oracle_kernels(grid).items():
        got = rho.momentum_masses()
        ref = reference_momentum_masses(rho)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref), name
        for pw in (grid.p, grid.p**2):
            assert np.sum(pw * got) == pytest.approx(np.sum(pw * ref), rel=1e-12), name


def _packed_mixture(grid, n_steps=3):
    """A packed kernel R of the density chain: the mixture of
    _oracle_kernels after n_steps dense or FFT steps."""
    rho = _oracle_kernels(grid)["mixture"]
    prop = Propagator(grid, harmonic_potential(1.0, 1.0), 0.5, 0.05)
    packed = _pack_kernel(rho.elements)
    for _ in range(n_steps):
        packed = prop.step_elements(packed)
    return packed


@pytest.mark.parametrize("n", [96, 97, 256])
def test_packed_state_reads_its_unpacked_kernel(n):
    # a state of R reads R itself: trace and density bitwise those of the
    # unpacked kernel, momentum masses and purity within the bounds of
    # test_moment_row_reads_the_packed_kernel, and no kernel is kept
    grid = GridSpec(n, -10.0, 10.0, 1.0)
    packed = _packed_mixture(grid)
    rho = DensityMatrix._of(grid, packed)
    ref = DensityMatrix(grid, _unpack_kernel(packed), validate=False)
    assert rho.trace() == ref.trace()
    assert np.array_equal(rho.position_density(), ref.position_density())
    mass = ref.momentum_masses()
    assert np.max(np.abs(rho.momentum_masses() - mass)) <= 4 * np.finfo(float).eps * mass.max()
    got, want = purity_and_entropy(rho), purity_and_entropy(ref)
    assert abs(got[0] - want[0]) <= 1e-13 * want[0]
    assert got[2] == want[2]
    assert rho._elements is None and rho._packed is packed
    assert np.array_equal(rho.elements, ref.elements)
    assert rho.elements is rho.elements and rho._packed is packed


@pytest.mark.parametrize("n", [128, 256])
def test_record_final_builds_one_kernel_on_reading_elements(n, monkeypatch):
    # evolve's final is the chain's last state: R on the dense path
    # (N = 128), the factor on the FFT path (N = 256); reading it builds no
    # kernel, reading its elements builds exactly one
    builds = []
    unpack, expand = qstate._unpack_kernel, qstate._Factor.expand
    monkeypatch.setattr(qstate, "_unpack_kernel", lambda r: builds.append(1) or unpack(r))
    monkeypatch.setattr(qstate._Factor, "expand", lambda f: builds.append(1) or expand(f))
    grid = GridSpec(n, -10.0, 10.0, 1.0)
    psi = coherent_state(grid, 1.0, 0.5, 0.8)
    rec = evolve(psi, harmonic_potential(1.0, 1.0), 0.2, dt=0.01, n_steps=4)
    final = rec.final
    assert (final.factor is None) == (n == 128) and (final._packed is None) == (n == 256)
    final.trace(), final.position_density(), final.momentum_masses(), final.copy()
    assert builds == [] and final._elements is None
    kernel = final.elements
    assert final.elements is kernel and rec.final.elements is kernel and builds == [1]


def test_copy_keeps_the_form():
    # a factor whose elements were read and a state of R copy as their form
    # and build no kernel; a given kernel copies its elements
    grid = GridSpec(128, -10.0, 10.0, 1.0)
    rho = coherent_state(grid, 1.0, 0.5, 0.8).to_density()
    rho.elements
    twin = rho.copy()
    assert twin.factor is rho.factor and twin._elements is None
    packed = _packed_mixture(grid)
    state = DensityMatrix._of(grid, packed)
    state.elements
    twin = state.copy()
    assert twin._packed is packed and twin.factor is None and twin._elements is None
    given = DensityMatrix(grid, state.elements)
    twin = given.copy()
    assert twin.factor is None and twin._packed is None
    assert np.array_equal(twin.elements, given.elements) and twin.elements is not given.elements
