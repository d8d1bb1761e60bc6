"""Classical comparison dynamics and the trajectory tracking verifier."""

import dataclasses
import math

import numpy as np
import pytest

from branchfall import dynamics, reduction
from branchfall.dynamics import Potential, evolve, free_potential, harmonic_potential
from branchfall.ehrenfest import WidthSeries, classicality_horizon
from branchfall.errors import BoundaryViolation, WindowTooSmall
from branchfall.pointer import PhasePartition, build_povm
from branchfall.qstate import (
    DensityMatrix,
    GridSpec,
    PhasePoint,
    coherent_state,
    mean_phase_point,
)
from branchfall.reduction import (
    ReductionSpec,
    classical_evolve,
    verify_reduction,
    within_margin,
)

GRID = GridSpec(96, -7.0, 7.0, 4.0)
HARM4 = harmonic_potential(mass=4.0, omega=1.0)
SIGMA = 0.3536  # width-matched for mass 4, omega 1


@pytest.fixture(scope="module")
def povm():
    part = PhasePartition((-5.6, 5.6), (-17.0, 17.0), 4, 4)
    return build_povm(GRID, part, SIGMA)


def _spec(povm, delta, tau=1.5, n_traj=100):
    return ReductionSpec(
        delta_z=delta, tau_c=tau, d_c=(PhasePoint(1.5, 0.0),),
        epsilon=0.05, n_traj=n_traj, dt=0.5, dt_int=0.02,
        potential=HARM4, lambda_rate=0.5, povm=povm, sigma_x=SIGMA,
    )


@pytest.fixture(scope="module")
def report_pass(povm):
    return verify_reduction(_spec(povm, (1.2, 3.5)), 2026)


@pytest.fixture(scope="module")
def report_fail(povm):
    return verify_reduction(_spec(povm, (0.25, 0.8)), 2026)


def test_classical_free_exact():
    traj = classical_evolve(PhasePoint(1.0, 2.0), free_potential(), 4.0, 3.0, 0.01)
    assert abs(traj.q[-1] - 2.5) < 1e-12
    assert np.max(np.abs(traj.p - 2.0)) < 1e-12


def test_classical_harmonic_orbit():
    pot = harmonic_potential(mass=1.0, omega=1.0)
    total = 10 * 2.0 * math.pi
    traj = classical_evolve(PhasePoint(0.2, 0.0), pot, 1.0, total, 1e-3)
    analytic = 0.2 * np.cos(traj.times)
    assert np.max(np.abs(traj.q - analytic)) < 1e-6


def test_classical_quartic_second_order():
    c = 0.05
    quart = Potential(v=lambda x: c * x**4, dv=lambda x: 4 * c * x**3)
    ref = classical_evolve(PhasePoint(1.2, 0.3), quart, 1.0, 4.0, 1e-5)
    errs = [
        abs(classical_evolve(PhasePoint(1.2, 0.3), quart, 1.0, 4.0, h).q[-1] - ref.q[-1])
        for h in (0.02, 0.01, 0.005)
    ]
    for a, b in zip(errs, errs[1:]):
        assert 3.5 < a / b < 4.5


def test_classical_evolve_validation():
    z = PhasePoint(0.0, 0.0)
    with pytest.raises(ValueError):
        classical_evolve(z, free_potential(), 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        classical_evolve(z, free_potential(), 1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        classical_evolve(z, free_potential(), 0.0, 1.0, 0.1)


def test_bridge_centers():
    rho = coherent_state(GRID, 1.5, 0.0, SIGMA).to_density()
    z = mean_phase_point(rho)
    assert abs(z.q - 1.5) < 1e-8 and abs(z.p) < 1e-8
    mix = DensityMatrix.from_mixture(
        [0.5, 0.5],
        [coherent_state(GRID, 2.0, 3.0, 0.5), coherent_state(GRID, -2.0, -3.0, 0.5)],
    )
    z = mean_phase_point(mix)
    assert abs(z.q) < 1e-12 and abs(z.p) < 1e-12


def test_bridge_affine():
    a = coherent_state(GRID, 1.0, 2.0, 0.5)
    b = coherent_state(GRID, -2.0, 1.0, 0.7)
    mix = DensityMatrix.from_mixture([0.3, 0.7], [a, b])
    za, zb = mean_phase_point(a.to_density()), mean_phase_point(b.to_density())
    zm = mean_phase_point(mix)
    assert abs(zm.q - (0.3 * za.q + 0.7 * zb.q)) < 1e-10
    assert abs(zm.p - (0.3 * za.p + 0.7 * zb.p)) < 1e-10


def test_margin_comparator_uses_twice_delta():
    origin = PhasePoint(0.0, 0.0)
    assert within_margin(PhasePoint(1.9, 0.0), origin, (1.0, 1.0))
    assert not within_margin(PhasePoint(2.1, 0.0), origin, (1.0, 1.0))
    assert not within_margin(PhasePoint(0.0, 2.1), origin, (1.0, 1.0))
    # an infinite component never fails
    assert within_margin(PhasePoint(99.0, 1.9), origin, (math.inf, 1.0))
    assert not within_margin(PhasePoint(99.0, 2.1), origin, (math.inf, 1.0))


def test_spec_validation(povm):
    good = dict(
        delta_z=(1.0, 1.0), tau_c=1.5, d_c=(PhasePoint(1.5, 0.0),),
        epsilon=0.05, n_traj=100, dt=0.5, dt_int=0.02,
        potential=HARM4, lambda_rate=0.5, povm=povm, sigma_x=SIGMA,
    )
    ReductionSpec(**good)
    for bad in (
        {"delta_z": (0.0, 1.0)},
        {"epsilon": 0.0},
        {"epsilon": 1.0},
        {"n_traj": 99},
        {"tau_c": 0.0},
        {"dt": 0.0},
        {"dt_int": -0.1},
        {"d_c": ()},
    ):
        with pytest.raises(ValueError):
            ReductionSpec(**{**good, **bad})


@pytest.mark.parametrize(
    "bad, field",
    [
        ({"delta_z": (0.0, 1.0)}, "delta_x"),
        ({"delta_z": (1.0, -2.0)}, "delta_p"),
        ({"delta_z": (math.nan, 1.0)}, "delta_x"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": 1.0}, "epsilon"),
        ({"n_traj": 99}, "n_traj"),
        ({"l_v": -1.0}, "l_v"),
    ],
)
def test_spec_keeps_its_config_rules(povm, bad, field):
    # the rules validate runs through _check_spec hold for a library caller
    # who builds the spec without a config, and name the field they reject
    good = dict(
        delta_z=(1.0, 1.0), tau_c=1.5, d_c=(PhasePoint(1.5, 0.0),),
        epsilon=0.05, n_traj=100, dt=0.5, dt_int=0.02,
        potential=HARM4, lambda_rate=0.5, povm=povm, sigma_x=SIGMA,
    )
    with pytest.raises(ValueError, match=f"{field} must") as err:
        ReductionSpec(**{**good, **bad})
    assert err.value.field == field


@pytest.mark.parametrize("l_v", [-1.0, 0.0, math.nan])
def test_spec_rejects_l_v_that_is_not_positive(povm, l_v):
    # l_v caps the horizon's position bound; at or below zero every width
    # violates it at once, a horizon of T = 0 that reads as a result
    good = dict(
        delta_z=(1.0, 1.0), tau_c=1.5, d_c=(PhasePoint(1.5, 0.0),),
        epsilon=0.05, n_traj=100, dt=0.5, dt_int=0.02,
        potential=HARM4, lambda_rate=0.5, povm=povm, sigma_x=SIGMA,
    )
    with pytest.raises(ValueError, match="l_v"):
        ReductionSpec(**good, l_v=l_v)
    assert ReductionSpec(**good, l_v=math.inf).l_v == math.inf


def test_spec_digest_tracks_fields(povm):
    a = _spec(povm, (1.2, 3.5))
    b = _spec(povm, (1.2, 3.5))
    c = _spec(povm, (1.2, 3.4))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_verify_pass_scenario(report_pass):
    assert report_pass.verdict == "PASS"
    r = report_pass.per_z0[0]
    assert r.pass_fraction == 1.0
    assert r.violations == ()
    assert r.n_escaped == 0
    assert r.worst_dev < 2.0
    assert report_pass.horizon_t == math.inf


def test_verify_fail_scenario(report_fail):
    # margins tighter than the collapse-readout scatter: most trajectories
    # survive but not the required 95 of 100
    assert report_fail.verdict == "FAIL"
    r = report_fail.per_z0[0]
    assert 0.5 < r.pass_fraction < 0.95
    assert len(r.violations) == round((1.0 - r.pass_fraction) * 100)
    assert r.worst_dev > 2.0
    assert all(0.0 < t <= 1.5 + 1e-12 for t in r.violations)
    # width bound this tight trips the collapse-free scan immediately
    assert math.isfinite(report_fail.horizon_t)
    assert report_fail.horizon_t <= 1.0


def test_enlarging_margins_is_monotone(report_pass, report_fail):
    # same seed, same trajectories; only the comparator changes
    assert report_fail.per_z0[0].pass_fraction <= report_pass.per_z0[0].pass_fraction


def test_infinite_margins_pass_trivially(povm):
    rep = verify_reduction(_spec(povm, (math.inf, math.inf)), 1)
    assert rep.verdict == "PASS"
    r = rep.per_z0[0]
    assert r.pass_fraction == 1.0 and r.violations == () and r.worst_dev == 0.0
    assert rep.horizon_t == math.inf
    assert rep.as_json()["horizon_T"] == "inf"


def test_orbit_tube_must_fit_window(povm):
    spec = ReductionSpec(
        delta_z=(1.2, 3.5), tau_c=1.5, d_c=(PhasePoint(4.5, 0.0),),
        epsilon=0.05, n_traj=100, dt=0.5, dt_int=0.02,
        potential=HARM4, lambda_rate=0.5, povm=povm, sigma_x=SIGMA,
    )
    with pytest.raises(WindowTooSmall):
        verify_reduction(spec, 1)


def test_report_bytes_reproducible(povm):
    spec = _spec(povm, (0.5, 1.6), tau=1.0)
    a = verify_reduction(spec, 7)
    b = verify_reduction(spec, 7)
    assert a.as_json() == b.as_json()
    assert a.spec_digest == spec.digest()


def test_escape_draw_counts_as_violation():
    # window keeps the orbit tube but clips the diffused momentum tail, so
    # some trajectories draw the escape element
    part = PhasePartition((-3.0, 3.0), (-9.0, 9.0), 4, 2)
    povm = build_povm(GRID, part, SIGMA)
    spec = ReductionSpec(
        delta_z=(0.25, 0.5), tau_c=1.5, d_c=(PhasePoint(1.5, 0.0),),
        epsilon=0.05, n_traj=100, dt=0.5, dt_int=0.02,
        potential=HARM4, lambda_rate=0.5, povm=povm, sigma_x=SIGMA,
    )
    rep = verify_reduction(spec, 314)
    r = rep.per_z0[0]
    assert r.n_escaped >= 1
    assert len(r.violations) >= r.n_escaped
    assert r.pass_fraction == 1.0 - len(r.violations) / 100.0
    assert all(t in (0.5, 1.0, 1.5) for t in r.violations)


def _record_horizon_chains(monkeypatch):
    """Lists that fill with the grid size of every Propagator built and with
    every record _measured_horizon's chains return."""
    builds, chains = [], []
    init, evolve_on = dynamics.Propagator.__init__, reduction._evolve_on

    def counting_init(self, *a, **k):
        builds.append(a[0].n_points)
        init(self, *a, **k)

    def recording_evolve_on(*a, **k):
        rec = evolve_on(*a, **k)
        chains.append(rec)
        return rec

    monkeypatch.setattr(dynamics.Propagator, "__init__", counting_init)
    monkeypatch.setattr(reduction, "_evolve_on", recording_evolve_on)
    return builds, chains


def _horizon_chain(grid, spec, z0, n_intervals):
    """The horizon's chain on grid, built here: 5 substeps per interval."""
    state = coherent_state(grid, z0.q, z0.p, spec.sigma_x)
    return evolve(state, spec.potential, spec.lambda_rate, spec.dt / 5, 5 * n_intervals)


def _horizon_of(rec, spec):
    return classicality_horizon(WidthSeries.from_record(rec), spec.delta_z, spec.l_v).time


def test_measured_horizon_steps_one_propagator_per_z0(povm, monkeypatch):
    spec = _spec(povm, (1.2, 3.5))
    z0 = spec.d_c[0]
    builds, chains = _record_horizon_chains(monkeypatch)
    assert math.isinf(reduction._measured_horizon(spec, z0, 1.5))
    # one build and one chain of 5 substeps per collapse interval over the
    # three intervals of the horizon, on the run's own grid: its mass never
    # reaches the edge, so no widened grid is built
    assert builds == [96] and len(chains) == 1
    (rec,) = chains
    # the same bits as one evolve() over the whole horizon on the run's grid
    assert rec.final.grid == spec.povm.grid
    alone = _horizon_chain(spec.povm.grid, spec, z0, 3)
    for name in ("times", "var_x", "var_p"):
        assert np.array_equal(getattr(rec, name), getattr(alone, name))
    assert np.array_equal(rec.final.elements, alone.final.elements)


def _light_spec(mass, tau_c):
    # a slow, light packet on a 96-point +-10 grid: its collapse-free state
    # outgrows the grid within the horizon
    grid = GridSpec(96, -10.0, 10.0, mass)
    return ReductionSpec(
        delta_z=(1.5, 0.7), tau_c=tau_c, d_c=(PhasePoint(1.0, 0.0),),
        epsilon=0.01, n_traj=100, dt=1.5, dt_int=0.05,
        potential=harmonic_potential(mass, 0.05), lambda_rate=0.25,
        povm=build_povm(grid, PhasePartition((-6.0, 6.0), (-12.0, 12.0), 1, 3), 0.8),
        sigma_x=0.8,
    )


def test_measured_horizon_falls_back_to_the_widened_grid(monkeypatch):
    # at mass 2 the run-grid chain leaves 7.5e-8 of the mass at the edge at
    # t = 3 and raises; the chain reruns on the 288-point +-30 copy of the
    # grid, where it stays inside, as the horizon always ran before
    spec = _light_spec(2.0, 3.0)
    z0 = spec.d_c[0]
    with pytest.raises(BoundaryViolation):
        _horizon_chain(spec.povm.grid, spec, z0, 2)
    builds, chains = _record_horizon_chains(monkeypatch)
    horizon = reduction._measured_horizon(spec, z0, 3.0)
    assert builds == [96, 288] and len(chains) == 1
    (rec,) = chains
    wide = GridSpec(288, -30.0, 30.0, 2.0)
    alone = _horizon_chain(wide, spec, z0, 2)
    assert rec.final.grid == wide
    for name in ("times", "var_x", "var_p"):
        assert np.array_equal(getattr(rec, name), getattr(alone, name))
    assert math.isinf(horizon) and math.isinf(_horizon_of(alone, spec))


def test_measured_horizon_raises_when_both_grids_trip(monkeypatch):
    # at mass 1 over four intervals the packet reaches the edge of the
    # widened grid too (t = 4.8), and the violation propagates
    spec = _light_spec(1.0, 6.0)
    builds, _ = _record_horizon_chains(monkeypatch)
    with pytest.raises(BoundaryViolation, match="t = 4.8"):
        reduction._measured_horizon(spec, spec.d_c[0], 6.0)
    assert builds == [96, 288]


_ACCEPTANCE_GRID = GridSpec(96, -10.0, 10.0, 4.0)


@pytest.mark.parametrize(
    "grid, potential, lam, dt, sigma, z0, tau, deltas",
    [
        (GRID, HARM4, 0.5, 0.5, SIGMA, (1.5, 0.0), 1.5,
         [(1.2, 3.5), (0.25, 0.8), (0.5, 1.6), (1.0, 1.0), (0.25, 0.5)]),
        (GRID, HARM4, 0.5, 0.5, SIGMA, (1.5, 0.0), 0.5, [(1.2, 3.5), (1.5, 1.5)]),
        (_ACCEPTANCE_GRID, harmonic_potential(4.0, 0.25), 0.25, 1.5, 0.8, (1.0, 0.0), 4.6,
         [(1.5, 0.7)]),
        (_ACCEPTANCE_GRID, harmonic_potential(4.0, 0.25), 0.25, 1.5, 0.8, (0.707, -0.707), 4.6,
         [(1.5, 0.7)]),
    ],
    ids=["test-reduction", "cli", "acceptance-z0-1", "acceptance-z0-2"],
)
def test_measured_horizon_on_the_run_grid_matches_the_widened_grid(
    grid, potential, lam, dt, sigma, z0, tau, deltas
):
    # the tier-1 reduce specs: their collapse-free states stay far from the
    # run grid's edge, so the run-grid chain's widths are those of the
    # widened grid's chain up to roundoff, and every horizon is the same
    # the partition plays no part in the horizon; this one fits both grids
    povm = build_povm(grid, PhasePartition((-5.6, 5.6), (-12.0, 12.0), 1, 1), sigma)
    z0 = PhasePoint(*z0)
    n_intervals = reduction._collapse_steps(tau, dt)
    wide = GridSpec(288, 3 * grid.x_min, 3 * grid.x_max, grid.mass)
    spec = ReductionSpec(
        delta_z=deltas[0], tau_c=tau, d_c=(z0,), epsilon=0.05, n_traj=100, dt=dt,
        dt_int=0.05, potential=potential, lambda_rate=lam, povm=povm, sigma_x=sigma,
    )
    on_run, on_wide = (_horizon_chain(g, spec, z0, n_intervals) for g in (grid, wide))
    for name in ("var_x", "var_p"):
        gap = np.abs(np.sqrt(getattr(on_run, name)) - np.sqrt(getattr(on_wide, name)))
        assert np.max(gap) < 1e-10
    for delta in deltas:
        spec = dataclasses.replace(spec, delta_z=delta)
        horizon = reduction._measured_horizon(spec, z0, n_intervals * dt)
        assert horizon == _horizon_of(on_run, spec) == _horizon_of(on_wide, spec)
