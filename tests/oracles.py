"""Independent reference computations shared by the test modules.

These deliberately avoid the package's own code paths: the cell operator
below comes from doing the coherent-state window integrals in closed form
(erf factor in position, boxcar Fourier factor in momentum), the reference
window POVM is the plain per-node packet loop that the blocked build must
reproduce to roundoff, and the reference sampler is the plain dense
per-trajectory loop whose histories the shared-history sampler, which
collapses from a low-rank factor, must reproduce exactly and whose states
it must match to the roundoff floor eps / w of a child of weight w.  The
reference CSV writer is the per-cell loop that the columnar writer must
match byte for byte.  The reference Strang loop is the unfused four-FFT
step on axis 0 that the fused split-step core must match to roundoff, and
whose one-step image of the identity is the dense unitary bit for bit.
The reference momentum masses are the diagonal of the full 2-D transform
F rho F^dagger, and the operator widths trace P and P^2 applied spectrally
to the kernel's first index, so neither builds the wrapped autocorrelation
the package reads its momentum masses from.  The reference dense step and
moment row work on the complex kernel, which the package steps and reads
only in its packed real form; the moment row takes its momentum masses from
the package's given-kernel state, which packs the kernel for the call and
is held to the full transform above.
The reference guidance integrator samples the velocity nodes one snapshot
at a time and interpolates the node tables in time at every half step; the
batched integrator must reproduce its trajectories bit for bit.
"""

import math

import numpy as np
from scipy.special import erf

from branchfall import DensityMatrix, EscapeSampled, ExplosionGuard, mean_phase_point
from branchfall.dynamics import Propagator
from branchfall.mechanisms import DENSITY_FLOOR, _joint_columns, _ks_distance


def closed_form_cell(x, dx, sigma, q1, q2, p1, p2):
    """Exact matrix of (1/2pi) int_cell |Z><Z| dQ dP sampled on the grid.

    Kernel(x, x') = (1/4pi) [erf((q2-xbar)/(s sqrt2)) - erf((q1-xbar)/(s sqrt2))]
                    * exp(-u^2 / (8 s^2)) * (e^{i p2 u} - e^{i p1 u}) / (i u)
    with u = x - x', xbar = (x + x')/2, then * dx for matrix convention.
    """
    xb = 0.5 * (x[:, None] + x[None, :])
    u = x[:, None] - x[None, :]
    qfac = erf((q2 - xb) / (sigma * np.sqrt(2))) - erf((q1 - xb) / (sigma * np.sqrt(2)))
    gfac = np.exp(-u * u / (8 * sigma * sigma))
    with np.errstate(divide="ignore", invalid="ignore"):
        efac = (np.exp(1j * p2 * u) - np.exp(1j * p1 * u)) / (1j * u)
    np.fill_diagonal(efac, p2 - p1)
    return (qfac * gfac * efac) * dx / (4 * np.pi)


def reference_povm(grid, partition, sigma_x, quadrature, rule="gauss"):
    """Cell operators built one quadrature node at a time, with the
    Gauss-Legendre or the midpoint rule on each axis.

    Returns (operators, rest, leak), with leak the full-SVD operator norm
    of Pi_rest acting on the normalized probe packet parked at the window
    center.
    """
    nq, npp = quadrature

    def packet(q, p):
        psi = np.exp(-((grid.x - q) ** 2) / (4.0 * sigma_x**2)) * np.exp(1j * p * grid.x)
        return psi / math.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)

    def nodes(lo, hi, n):
        if rule == "midpoint":
            w = (hi - lo) / n
            return lo + (np.arange(n) + 0.5) * w, np.full(n, w)
        t, w = np.polynomial.legendre.leggauss(n)
        return 0.5 * (hi + lo) + 0.5 * (hi - lo) * t, 0.5 * (hi - lo) * w

    n = grid.n_points
    ops = np.empty((partition.n_cells, n, n), dtype=np.complex128)
    for alpha in range(partition.n_cells):
        q1, q2, p1, p2 = partition.cell_bounds(alpha)
        qn, qw = nodes(q1, q2, nq)
        pn, pw = nodes(p1, p2, npp)
        cols = np.empty((n, nq * npp), dtype=np.complex128)
        wts = np.empty(nq * npp)
        k = 0
        for a, wa in zip(qn, qw):
            for b, wb in zip(pn, pw):
                cols[:, k] = packet(a, b)
                wts[k] = wa * wb
                k += 1
        op = (cols * wts) @ cols.conj().T
        op *= grid.dx / (2.0 * math.pi)
        ops[alpha] = 0.5 * (op + op.conj().T)
    rest = np.eye(n) - ops.sum(axis=0)
    probe = packet(0.5 * sum(partition.x_window), 0.5 * sum(partition.p_window))
    leak = float(np.linalg.norm(rest @ np.outer(probe, probe.conj()) * grid.dx, 2))
    return ops, rest, leak


def reference_collapse(proj, lam, weight):
    """The Lueders child Pi rho Pi / w of rho = V diag(lam) V^H as one dense
    kernel, from proj = Pi V: the expression whose bits a child factor's
    expansion keeps."""
    child = (proj * (lam / weight)) @ proj.conj().T
    child += child.conj().T
    child *= 0.5
    return child


def reference_dense_step(prop, elements):
    """One dense-path step of prop on a complex kernel with fresh
    temporaries, re-symmetrized: the step whose packed form
    Propagator.step_elements takes off the FFT path."""
    if prop.dephase_half is not None:
        elements = prop.dephase_half * elements
    elements = (prop.u @ elements) @ prop.u_dag
    if prop.dephase_half is not None:
        np.multiply(prop.dephase_half, elements, out=elements)
    elements += elements.conj().T
    elements *= 0.5
    return elements


def reference_trajectory(rho0, potential, lambda_rate, povm, dt, n_steps, rng_seed, dt_int, stop=None):
    """One Born-sampled history evolved on its own from rho0, all dense.

    Fresh propagator, then per interval: evolve, weigh with the dense
    Tr(Pi_alpha^2 rho), draw, Lueders-project Pi rho Pi with two N x N
    products and renormalize.  Returns (records, final kernel, born), born[k]
    the product of the first k drawn cell weights (born[0] = 1); drawing the
    remainder raises EscapeSampled with .time, .records and .born, and
    stop(t, alpha, z) ends the run early.
    """
    grid = rho0.grid
    dx = grid.dx
    n_sub = max(1, int(round(dt / dt_int)))
    prop = Propagator(grid, potential, lambda_rate, dt / n_sub)
    rng = np.random.default_rng(rng_seed)
    squares = povm.operators @ povm.operators
    rest_sq = povm.rest @ povm.rest
    el = rho0.elements.copy()
    records = [(0.0, None, mean_phase_point(rho0))]
    born = [1.0]
    for step in range(1, n_steps + 1):
        for _ in range(n_sub):
            el = reference_dense_step(prop, el)
        weights = np.clip(np.einsum("aij,ji->a", squares, el).real * dx, 0.0, None)
        esc = max(float(np.sum(rest_sq * el.T).real * dx), 0.0)
        t = step * dt
        draw = rng.random() * (weights.sum() + esc)
        alpha = int(np.searchsorted(np.cumsum(weights), draw, side="right"))
        if alpha >= len(weights):
            err = EscapeSampled(f"escape element drawn at t = {t:.6g}")
            err.time = t
            err.records = records
            err.born = born
            raise err
        born.append(born[-1] * weights[alpha])
        pi = povm.operators[alpha]
        proj = (pi @ el) @ pi
        el = proj / float(np.sum(np.diag(proj)).real * dx)
        el = 0.5 * (el + el.conj().T)
        z = mean_phase_point(DensityMatrix(grid, el, validate=False))
        records.append((t, alpha, z))
        if stop is not None and stop(t, alpha, z):
            break
    return records, el, born


def reference_moment_row(kernel, grid, dv_vals):
    """(mean_x, mean_p, mean_x2, mean_p2, purity, mean_dvdx) of a complex
    kernel: the row a chain's packed or factored form must match.  The
    momentum masses are those of the kernel given as a DensityMatrix,
    which test_momentum_masses_match_full_transform holds to the full
    transform; the purity is sum |rho|^2 dx^2."""
    dx = grid.dx
    dens = np.diagonal(kernel).real
    mom = DensityMatrix(grid, kernel, validate=False).momentum_masses()
    return (
        float(np.sum(grid.x * dens) * dx),
        float(np.sum(grid.p * mom)),
        float(np.sum(grid.x**2 * dens) * dx),
        float(np.sum(grid.p**2 * mom)),
        float(np.sum(np.abs(kernel) ** 2) * dx * dx),
        float(np.sum(dv_vals * dens) * dx),
    )


def _reference_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    if not math.isfinite(f):
        raise ExplosionGuard("non-finite value bound for CSV output")
    return "%.17g" % f


def reference_write_csv(path, header, rows):
    """Row-wise CSV writer: each cell formatted on its own by type."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_strang(grid, diag, dt, states, n):
    """n Strang steps K(dt/2) D(dt) K(dt/2) on axis 0 of states, each in
    full (four FFTs, no fused half kicks).  diag broadcasts against states."""
    kin_half = np.exp(-1j * grid.p**2 / (2.0 * grid.mass) * (dt / 2.0))
    kin_half = kin_half.reshape((-1,) + (1,) * (np.ndim(states) - 1))
    phase = np.exp(-1j * diag * dt)

    def apply_kin(mat):
        return np.fft.ifft(kin_half * np.fft.fft(mat, axis=0), axis=0)

    out = np.asarray(states, dtype=np.complex128)
    for _ in range(n):
        out = apply_kin(phase * apply_kin(out))
    return out


def reference_unitary(grid, potential, dt):
    """Dense Strang unitary: one reference step on the columns of the identity."""
    return reference_strang(grid, potential.values(grid)[:, None], dt, np.eye(grid.n_points), 1)


def reference_momentum_masses(rho):
    """Momentum-node masses as the diagonal of F rho F^dagger (fft along
    rows, inverse fft along columns), times dx."""
    mom = np.fft.ifft(np.fft.fft(rho.elements, axis=0), axis=1)
    return np.real(np.diag(mom)) * rho.grid.dx


def operator_widths(rho):
    """(delta_x, delta_p) via operator moments Tr(rho X^k), Tr(P^k rho).

    P acts spectrally on the kernel's first index and the diagonal is traced
    directly, so no momentum marginal is built along the way.
    """
    grid = rho.grid
    diag = np.real(np.diag(rho.elements))
    mx = float(np.sum(grid.x * diag) * grid.dx)
    sx = float(np.sum(grid.x**2 * diag) * grid.dx)
    ft = np.fft.fft(rho.elements, axis=0)
    p1 = np.fft.ifft(grid.p[:, None] * ft, axis=0)
    p2 = np.fft.ifft(grid.p[:, None] ** 2 * ft, axis=0)
    mp = float(np.real(np.trace(p1)) * grid.dx)
    sp = float(np.real(np.trace(p2)) * grid.dx)
    return (
        math.sqrt(max(sx - mx * mx, 0.0)),
        math.sqrt(max(sp - mp * mp, 0.0)),
    )


def reference_velocity_nodes(state):
    """Guidance velocity and density at the nodes of one state on its own."""
    grid, cols = _joint_columns(state)
    dcols = np.fft.ifft(1j * grid.p[:, None] * np.fft.fft(cols, axis=0), axis=0)
    current = np.sum(np.imag(cols.conj() * dcols), axis=1)
    density = np.sum(np.abs(cols) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        velocity = np.where(density > 0, current / np.maximum(density, 1e-300), 0.0)
    return velocity / grid.mass, density


def reference_bohm_evolve(positions, snapshots, times, ode_dt, checkpoints, branch_split=None):
    """Midpoint guidance steps with per-snapshot velocity nodes and a time
    interpolation of the node tables at every field call.  Returns
    (positions over time, node flags, KS distances, occupancy, crossings)."""
    times = np.asarray(times, dtype=float)
    dt_snap = times[1] - times[0]
    grid, _ = _joint_columns(snapshots[0])
    x_nodes = grid.x
    v_table = np.empty((len(times), grid.n_points))
    d_table = np.empty((len(times), grid.n_points))
    for k, state in enumerate(snapshots):
        v_table[k], d_table[k] = reference_velocity_nodes(state)

    def field(t, q):
        s = min(max((t - times[0]) / dt_snap, 0.0), len(times) - 1.0)
        k = min(int(s), len(times) - 2)
        w = s - k
        v_nodes = (1.0 - w) * v_table[k] + w * v_table[k + 1]
        d_nodes = (1.0 - w) * d_table[k] + w * d_table[k + 1]
        return np.interp(q, x_nodes, v_nodes), np.interp(q, x_nodes, d_nodes)

    n_steps = int(round((times[-1] - times[0]) / ode_dt))
    t_grid = times[0] + ode_dt * np.arange(n_steps + 1)
    q = np.asarray(positions, dtype=float).copy()
    flags = np.zeros(len(q), dtype=bool)
    out = np.empty((len(q), n_steps + 1))
    out[:, 0] = q
    crossings = 0
    prev_side = np.sign(q - branch_split) if branch_split is not None else None
    for k in range(n_steps):
        t = t_grid[k]
        live = ~flags
        v1, d1 = field(t, q)
        flags |= live & (d1 < DENSITY_FLOOR)
        live = ~flags
        half = q + 0.5 * ode_dt * np.where(live, v1, 0.0)
        v2, d2 = field(t + 0.5 * ode_dt, half)
        flags |= live & (d2 < DENSITY_FLOOR)
        live = ~flags
        q = q + ode_dt * np.where(live, v2, 0.0)
        out[:, k + 1] = q
        if branch_split is not None:
            side = np.sign(q - branch_split)
            crossings += int(np.sum((side != prev_side) & live))
            prev_side = side
    ks, occupancy = {}, {}
    for t_ck in checkpoints:
        k_ode = min(max(int(round((t_ck - times[0]) / ode_dt)), 0), n_steps)
        k_snap = min(max(int(round((t_ck - times[0]) / dt_snap)), 0), len(times) - 1)
        samples = out[~flags, k_ode]
        ks[float(t_ck)] = _ks_distance(samples, grid, d_table[k_snap])
        if branch_split is not None:
            right = float(np.mean(samples > branch_split))
            occupancy[float(t_ck)] = (1.0 - right, right)
    return out, flags, ks, occupancy, crossings
