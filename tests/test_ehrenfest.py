"""Force-law residuals, width bookkeeping, and the classicality horizon."""

import dataclasses
import math

import numpy as np
import pytest

from branchfall.dynamics import (
    EvolutionRecord,
    Potential,
    evolve,
    free_potential,
    harmonic_potential,
)
from branchfall.ehrenfest import (
    HorizonResult,
    WidthSeries,
    classicality_horizon,
    dephasing_force_trace,
    ehrenfest_residual,
    marginal_widths,
)
from branchfall.qstate import (
    DensityMatrix,
    GridSpec,
    WaveFunction,
    _Factor,
    _pack_kernel,
    coherent_state,
    variance,
)
from oracles import operator_widths

GRID = GridSpec(128, -10.0, 10.0, 1.0)
HARMONIC = harmonic_potential(mass=1.0, omega=1.0)


def _fake_record(times):
    times = np.asarray(times, dtype=float)
    n = times.size
    z = np.zeros(n)
    final = coherent_state(GRID, 0.0, 0.0, 1.0).to_density()
    return EvolutionRecord(
        times=times,
        mean_x=z.copy(),
        mean_p=z.copy(),
        var_x=np.ones(n),
        var_p=np.ones(n),
        s_lin=z.copy(),
        purity=np.ones(n),
        mean_dvdx=z.copy(),
        final=final,
        dt=float(times[1] - times[0]) if n > 1 else 0.0,
        lambda_rate=0.0,
    )


def test_record_needs_a_final_state():
    rec = _fake_record([0.0, 0.1])
    assert rec.final.grid is GRID
    fields = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
    # final is the last field, so the positional order is unchanged
    assert list(fields)[-1] == "final"
    assert EvolutionRecord(*fields.values()).final is rec.final
    fields.pop("final")
    with pytest.raises(TypeError, match="'final'"):
        EvolutionRecord(**fields)
    for bad in (None, rec.final.elements):
        with pytest.raises(TypeError, match="needs final"):
            EvolutionRecord(**fields, final=bad)


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
def test_harmonic_residual_tiny_any_dephasing(lam):
    # The force-law identity holds for the generator at every dephasing
    # strength; only centered-difference error should remain.
    rho = coherent_state(GRID, 2.0, 0.5, 1.0).to_density()
    rec = evolve(rho, HARMONIC, lam, dt=5e-4, n_steps=600, record_every=1)
    res = ehrenfest_residual(rec, HARMONIC)
    assert res.times.size == rec.times.size - 2
    assert np.max(res.relative) < 1e-6


def test_free_momentum_conserved():
    rho = coherent_state(GRID, -1.0, 1.2, 1.0).to_density()
    rec = evolve(rho, free_potential(), 0.8, dt=0.01, n_steps=100, record_every=1)
    res = ehrenfest_residual(rec, free_potential())
    assert np.max(res.raw) < 1e-8
    # zero force: the relative column falls back to the raw one
    assert np.array_equal(res.raw, res.relative)


def test_quartic_newton_gap_matches_taylor_oracle():
    # Gaussian packet in V = c x^4: <V'> - V'(<X>) = (1/2) V'''(<X>) Var X
    # exactly (all higher derivatives of V''' vanish, odd moments vanish).
    c = 0.05
    quart = Potential(v=lambda x: c * x**4, dv=lambda x: 4 * c * x**3, name="quartic")
    grid = GridSpec(256, -8.0, 8.0, 1.0)
    rho = coherent_state(grid, 1.5, 0.0, 0.3).to_density()
    rec = evolve(rho, quart, 0.0, dt=1e-4, n_steps=2, record_every=1)
    res = ehrenfest_residual(rec, quart)
    oracle = 0.5 * 24.0 * c * rec.mean_x[1] * rec.var_x[1]
    assert res.newton_gap[0] > 0.05
    assert abs(res.newton_gap[0] - oracle) / oracle < 1e-6


def test_slope_stencil_matches_analytic():
    # stencil fallback is exact through quartics
    c = 0.05
    with_dv = Potential(v=lambda x: c * x**4, dv=lambda x: 4 * c * x**3)
    without = Potential(v=lambda x: c * x**4)
    xs = np.linspace(-3.0, 3.0, 17)
    assert np.max(np.abs(with_dv.slope(xs) - without.slope(xs))) < 1e-9


def test_harmonic_coherent_widths_hold_forever():
    # width-matched packet in a harmonic well keeps both widths flat, so no
    # bound is ever crossed
    rho = coherent_state(GRID, 2.0, 0.0, 1.0 / math.sqrt(2.0)).to_density()
    rec = evolve(rho, HARMONIC, 0.0, dt=0.01, n_steps=1200, record_every=5)
    w = WidthSeries.from_record(rec)
    assert np.max(np.abs(w.delta_x - 1.0 / math.sqrt(2.0))) < 1e-4
    assert np.max(np.abs(w.delta_p - 1.0 / math.sqrt(2.0))) < 1e-4
    hz = classicality_horizon(w, (1.0, 1.0))
    assert hz.time == math.inf
    assert hz.violated_component is None
    assert hz.as_json() == {"T": "inf", "violated_component": None}


def test_free_diffusion_horizon_matches_analytic():
    # Var P(t) = Var P(0) + 2*lam*t, so the momentum bound trips at a time
    # known in closed form.
    grid = GridSpec(160, -12.0, 12.0, 2.0)
    lam, dp_margin = 0.5, 0.75
    rho = coherent_state(grid, 0.0, 0.0, 1.0).to_density()
    t_oracle = ((2.0 * dp_margin) ** 2 - variance(rho, "p")) / (2.0 * lam)
    rec = evolve(rho, free_potential(), lam, dt=0.01, n_steps=250, record_every=1)
    hz = classicality_horizon(WidthSeries.from_record(rec), (50.0, dp_margin))
    assert hz.violated_component == "p"
    assert abs(hz.time - t_oracle) / t_oracle < 0.05


def test_mass_doubling_lengthens_horizon():
    # free spreading scales as t/M, so doubling the mass doubles the time to
    # reach a fixed position-width bound
    sigma, dx_margin = 0.7, 0.8
    sigma_p = 1.0 / (2.0 * sigma)
    horizons = {}
    for mass, n_steps in ((1.0, 150), (2.0, 230)):
        grid = GridSpec(224, -16.0, 16.0, mass)
        rho = coherent_state(grid, 0.0, 0.0, sigma).to_density()
        rec = evolve(rho, free_potential(), 0.0, dt=0.02, n_steps=n_steps, record_every=1)
        hz = classicality_horizon(WidthSeries.from_record(rec), (dx_margin, 50.0))
        assert hz.violated_component == "x"
        t_oracle = mass * math.sqrt((2.0 * dx_margin) ** 2 - sigma**2) / sigma_p
        assert abs(hz.time - t_oracle) / t_oracle < 0.05
        horizons[mass] = hz.time
    assert horizons[2.0] > 1.8 * horizons[1.0]


def test_dephasing_never_moves_first_moments():
    states = []
    states.append(coherent_state(GRID, 2.0, 0.5, 1.0).to_density())
    amp = (
        coherent_state(GRID, -3.0, 0.0, 0.7).amplitudes
        + coherent_state(GRID, 3.0, 0.0, 0.7).amplitudes
    )
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2) * GRID.dx))
    cat = WaveFunction(GRID, amp).to_density()
    states.append(cat)
    rec = evolve(cat, HARMONIC, 0.7, dt=0.01, n_steps=50, record_every=50)
    states.append(rec.final)
    for rho in states:
        assert abs(dephasing_force_trace(rho)) < 1e-10


def _as_form(rho, form):
    """rho as a given kernel, its packed kernel R or a low-rank factor."""
    kernel = rho.elements
    if form == "given":
        return DensityMatrix(GRID, kernel)
    if form == "packed":
        return DensityMatrix._of(GRID, _pack_kernel(kernel))
    lam, vecs = np.linalg.eigh(kernel)
    return DensityMatrix._of(GRID, _Factor(lam, vecs.T.copy()))


@pytest.mark.parametrize("form", ["factor", "packed", "given"])
def test_width_paths_agree(form):
    amp = (
        coherent_state(GRID, -3.0, 0.0, 0.7).amplitudes
        + coherent_state(GRID, 3.0, 0.0, 0.7).amplitudes
    )
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2) * GRID.dx))
    rec = evolve(
        WaveFunction(GRID, amp).to_density(), HARMONIC, 0.7, dt=0.01, n_steps=50,
        record_every=50,
    )
    rho = _as_form(rec.final, form)
    assert (rho.factor is not None, rho._packed is not None) == (form == "factor", form == "packed")
    mw = marginal_widths(rho)
    ow = operator_widths(rho)
    vw = (math.sqrt(variance(rho, "x")), math.sqrt(variance(rho, "p")))
    for a, b in ((mw, ow), (mw, vw)):
        assert abs(a[0] - b[0]) < 1e-10
        assert abs(a[1] - b[1]) < 1e-10
    w = WidthSeries.from_record(rec)
    assert abs(w.delta_x[-1] - mw[0]) < 1e-10
    assert abs(w.delta_p[-1] - mw[1]) < 1e-10


def test_residual_requires_uniform_cadence():
    with pytest.raises(ValueError):
        ehrenfest_residual(_fake_record([0.0, 0.1, 0.25]), free_potential())
    with pytest.raises(ValueError):
        ehrenfest_residual(_fake_record([0.0, 0.1]), free_potential())


def test_horizon_reports_component():
    times = np.arange(5, dtype=float)
    flat = np.full(5, 0.1)
    ramp = np.array([0.1, 0.1, 0.3, 0.5, 0.7])
    hz = classicality_horizon(WidthSeries(times, flat, ramp), (1.0, 0.2))
    assert hz.time == 3.0 and hz.violated_component == "p"
    hz = classicality_horizon(WidthSeries(times, ramp, ramp), (0.2, 0.2))
    assert hz.time == 3.0 and hz.violated_component == "both"
    # a finite force length scale can trip the position bound on its own
    hz = classicality_horizon(WidthSeries(times, ramp, flat), (50.0, 50.0), l_v=0.4)
    assert hz.time == 3.0 and hz.violated_component == "x"
    hz = classicality_horizon(WidthSeries(times, flat, flat), (math.inf, math.inf))
    assert hz.time == math.inf
    with pytest.raises(ValueError):
        classicality_horizon(WidthSeries(times[::-1].copy(), flat, flat), (1.0, 1.0))


@pytest.mark.parametrize(
    "delta_z, l_v, field",
    [((0.0, 1.0), math.inf, "delta_x"), ((1.0, -1.0), math.inf, "delta_p"),
     ((1.0, 1.0), 0.0, "l_v"), ((1.0, 1.0), math.nan, "l_v")],
)
def test_horizon_rejects_margins_that_are_not_positive(delta_z, l_v, field):
    # a margin or l_v at or below zero read as a horizon of T = 0
    times = np.arange(5, dtype=float)
    flat = np.full(5, 0.1)
    with pytest.raises(ValueError, match=f"{field} must be positive") as err:
        classicality_horizon(WidthSeries(times, flat, flat), delta_z, l_v)
    assert err.value.field == field


def test_width_series_validation():
    with pytest.raises(ValueError):
        WidthSeries(np.arange(3.0), np.array([0.1, -0.2, 0.1]), np.full(3, 0.1))
    with pytest.raises(ValueError):
        WidthSeries(np.arange(3.0), np.full(2, 0.1), np.full(3, 0.1))
    with pytest.raises(ValueError):
        WidthSeries(np.array([]), np.array([]), np.array([]))


def test_series_export_columns():
    rho = coherent_state(GRID, 1.0, 0.0, 1.0).to_density()
    rec = evolve(rho, HARMONIC, 0.2, dt=0.01, n_steps=10, record_every=1)
    res = ehrenfest_residual(rec, HARMONIC)
    cols = res.as_columns()
    assert list(cols) == ["t", "raw", "relative", "newton_gap"]
    assert all(v.shape == res.times.shape for v in cols.values())
    wcols = WidthSeries.from_record(rec).as_columns()
    assert list(wcols) == ["t", "delta_x", "delta_p"]
