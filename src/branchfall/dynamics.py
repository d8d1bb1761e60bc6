"""Caldeira-Leggett evolution: Strang-split unitary steps plus exact dephasing.

The generator is d rho/dt = -i [H, rho] - Lambda [X, [X, rho]] with
H = P^2/2M + V(X) and hbar = 1 (momentum diffusion only, no friction).
Each step composes a half dephasing, a full Strang unitary, and another half
dephasing.  The dephasing factor exp(-Lambda (x - x')^2 dt) is applied
elementwise, which is both exact for its generator and a Schur product with
a positive kernel, so positivity is preserved exactly; the unitary piece is
a congruence, so the whole step is completely positive up to roundoff.

One split-step core, _SplitStep, holds the spectral kinetic factor and runs
every Strang loop, so every step of a wave function is one of its run()
calls: the dense Propagator build, GRW, the Bohm snapshots, the explicit
qubit model and the decoherence functional.  It steps blocks of states
along the last axis and fuses the kinetic half-steps of chained steps
(K(dt/2) K(dt/2) = K(dt)): n steps cost 2n + 2 FFTs, not 4n.  It also
steps a density kernel in place of a block of states, with the congruence
K rho K^dagger applied as one real 2-D transform pair.  On grids
of _FFT_MIN_N points or more whose prime factors are at most _FFT_MAX_PRIME
(_fft_path), the Propagator keeps no dense matrix and steps kernels with the
core's 2-D transforms, O(N^2 log N) in place of O(N^3); on every other grid
it materializes the Strang unitary as a dense matrix and steps kernels with
two matrix products.  On the FFT path a Hermitian kernel A + iB moves as
the one real array R = A + B, which rfft2/irfft2 transform at about half
the cost of a complex fft2/ifft2; A and B are the symmetric and
antisymmetric parts of R, so the unpacked kernel is exactly Hermitian.
This module is the only one that steps a state.  Every density state
steps through one guarded loop, _chain, with one entry rule: a state whose
factor passes Propagator.factored(rank) enters as that factor, any other as
its kernel, packed once (DensityMatrix._kernel: a factor is expanded afresh
and not kept); a WaveFunction enters as its rank-1 to_density().  A factor
rho = V diag(lam) V^H stays one through every step, guard and moment row
with no N x N array (the low-rank integrator of Le Bris & Rouchon, Phys.
Rev. A 87, 022125, 2013): the unitary is one run() on the r rows of V^T,
and each half dephasing D = sum_m d_m d_m^T, factored once per propagator,
maps V to the block [d_m o v_k sqrt(lam_k)], recompressed through the
eigenpairs of its Gram matrix.  Before each step the chain checks M0^2 r,
M0 the closed-form term count of D's expansion: past _FACTOR_MAX_BLOCK, the
crossover measured at N = 256 (r = 16 at M0 = 13), it expands once to the
packed kernel.  The dense step writes its temporaries into two work arrays
the propagator owns, so each step allocates only its result.  evolve, the
sieve and the measured horizon record rows from the chain (_evolve_on);
each collapse interval of branch_step and BornSampler runs it to its last
form (_evolve_kernel); _state_of makes the state of a last form for both.
Every form, the entry form too, passes one guard on the diagonal density,
labelled t = k dt: finite unit trace and at most EDGE_TOL of the mass in
the outer two cells on either side, where it would wrap around the grid.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import BoundaryViolation, ExplosionGuard
from .qstate import DensityMatrix, GridSpec, WaveFunction, _Factor, _momentum_masses

__all__ = [
    "Potential",
    "free_potential",
    "harmonic_potential",
    "double_well_potential",
    "Propagator",
    "EvolutionRecord",
    "evolve",
]

# Grid size from which Propagator steps kernels with real-packed 2-D FFTs.
# Median per step on a 2-vCPU host with one BLAS thread, dense against FFT:
# 2.8 / 2.9 ms at N = 192, 5.3 / 4.0 ms at 256 and 49 / 22 ms at 512; from
# 256 up the build also skips the dense unitary (about 4.3 against 1.3 ms at
# N = 256).  Lowering the bound would change the bytes of N = 192 payloads.
_FFT_MIN_N = 256

# Largest prime factor of N for which the packed FFT step still beats the
# dense one: pocketfft's cost per point grows with the prime factors of N.
# FFT against dense step time, one BLAS thread, two runs each: 0.79-0.82 at
# N = 264 (factor 11), 0.67-0.76 at 273 (13), 0.76-0.86 at 272 (17) and
# 0.61-0.86 at 266 (19), but 0.90-1.08 at 276 (23), 1.12-1.31 at 287 (41),
# 0.90-1.07 at 301 (43) and 1.5-2.5 at the prime 257.
_FFT_MAX_PRIME = 19

# Bound on M0^2 r, the widest dephasing block one factored step can build
# (Propagator.factored), past which a chain hands off to the packed kernel.
# Crossover measured at N = 256, the FFT path's smallest grid and so its
# cheapest packed step, on factors a Lambda = 0.2, dt = 0.01 chain grew
# (M0 = 13): a factored step with its guard and moment row took 0.54, 0.73,
# 0.97, 1.18 and 1.37 times the packed one at r = 9, 12, 16, 19 and 21
# (medians of 7 interleaved rounds, one BLAS thread).  At N = 315 and 512 the
# ratio at r = 16 was 0.57 and 0.26, so the bound hands off early there.
# The benchmark's recorded chains reach M0^2 r = 1690 (N = 256) and 2025
# (N = 512), and its N = 512 branch root sits on the bound (M0 = 52, r = 1);
# reduce's horizon chain (N = 288, M0 = 144) never enters the factored form.
_FACTOR_MAX_BLOCK = 13 * 13 * 16

# Most mass a density step may leave in the outer two grid cells on either
# side: mass there wraps around the periodic grid and is booked to the
# opposite side, corrupting positions and branch weights.
EDGE_TOL = 1e-8


@dataclass(frozen=True)
class Potential:
    """External potential V(x) with an optional analytic derivative.

    When dv is omitted, derivative values come from a 5-point centered
    stencil evaluated off-grid (exact for polynomials through degree 4).
    """

    v: Callable[[np.ndarray], np.ndarray]
    dv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"

    def values(self, grid: GridSpec) -> np.ndarray:
        return np.asarray(self.v(grid.x), dtype=float)

    def derivative_values(self, grid: GridSpec) -> np.ndarray:
        return np.asarray(self.slope(grid.x, grid.dx), dtype=float)

    def slope(self, x, h: float = 1e-4):
        """V'(x) at arbitrary points (same stencil when dv is missing)."""
        x = np.asarray(x, dtype=float)
        if self.dv is not None:
            return self.dv(x)
        return (
            -self.v(x + 2 * h) + 8 * self.v(x + h) - 8 * self.v(x - h) + self.v(x - 2 * h)
        ) / (12 * h)


def free_potential() -> Potential:
    return Potential(v=lambda x: np.zeros_like(x), dv=lambda x: np.zeros_like(x), name="free")


def harmonic_potential(mass: float, omega: float) -> Potential:
    """V(x) = M omega^2 x^2 / 2."""
    k = mass * omega * omega
    return Potential(v=lambda x: 0.5 * k * x * x, dv=lambda x: k * x, name="harmonic")


def double_well_potential(barrier: float, half_separation: float) -> Potential:
    """V(x) = a (x^2 - b^2)^2 with minima at +/-b and V(0) = a b^4."""
    a, b = barrier, half_separation
    return Potential(
        v=lambda x: a * (x * x - b * b) ** 2,
        dv=lambda x: 4 * a * x * (x * x - b * b),
        name="double_well",
    )


def _fft_path(n: int) -> bool:
    """True when a Propagator on n grid points steps kernels with the
    packed FFT: n >= _FFT_MIN_N and no prime factor above _FFT_MAX_PRIME."""
    if n < _FFT_MIN_N:
        return False
    for p in range(2, _FFT_MAX_PRIME + 1):
        while n % p == 0:
            n //= p
    return n == 1


class _SplitStep:
    """Strang steps K(dt/2) D(dt) K(dt/2) on states along the last axis.

    K is the spectral kinetic factor exp(-i p^2/2M t); D = exp(-i diag dt)
    is a diagonal phase of shape (n_points,) or (n_states, n_points), so a
    block of states can carry one potential per row.  Factors are built once
    per dt; run() chains steps with the inner half kicks fused, and
    run_kernel() steps a packed real density kernel from both sides (1-D
    diag only).
    """

    def __init__(self, grid: GridSpec, diag: np.ndarray, dt: float):
        self.kick_half, self.kick = (
            np.exp(-1j * grid.p**2 / (2.0 * grid.mass) * t) for t in (dt / 2.0, dt)
        )
        self.phase = np.exp(-1j * diag * dt)

    def run(self, states: np.ndarray, n: int = 1) -> np.ndarray:
        """n chained steps with 2n + 2 FFTs (n <= 0 returns a copy).

        Factors multiply from the left, in place on each transform's fresh
        output: complex products are not bitwise commutative, and this
        order reproduces the unfused loop's bits on the Propagator build.
        """
        if n < 1:
            return np.array(states, dtype=np.complex128)
        out = np.fft.fft(states)
        np.multiply(self.kick_half, out, out=out)
        for i in range(1, n + 1):
            out = np.fft.ifft(out)
            np.multiply(self.phase, out, out=out)
            out = np.fft.fft(out)
            np.multiply(self.kick if i < n else self.kick_half, out, out=out)
        return np.fft.ifft(out)

    @cached_property
    def kick_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of the half kick's outer product
        k conj(k)^T on the rfft half-plane, columns 0 ... N//2; built on
        first use."""
        half = self.kick_half.size // 2 + 1
        pair = np.multiply.outer(self.kick_half, self.kick_half[:half].conj())
        return np.ascontiguousarray(pair.real), np.ascontiguousarray(pair.imag)

    def _kinetic(self, packed: np.ndarray) -> np.ndarray:
        """K rho K^dagger on a packed kernel R, with one rfft2 and one irfft2.

        With S = fft2(R) and kappa = k conj(k)^T, the packed result is
        ifft2(Re kappa * S + Im kappa * S^T), real because p^2 is even under
        p -> -p.  On the half-plane, S^T is S[:h, :h]^T in rows below h and
        conj(S[-l, N - k]) in rows k >= h (h = N//2 + 1, any N).
        """
        n = packed.shape[0]
        half = n // 2 + 1
        spec = np.fft.rfft2(packed)
        swap = np.empty_like(spec)
        swap[:half] = spec[:half, :half].T
        np.conjugate(spec[-np.arange(half) % n, n - half:0:-1].T, out=swap[half:])
        kick_re, kick_im = self.kick_tables
        spec *= kick_re
        swap *= kick_im
        spec += swap
        # freed before the inverse transform allocates: fresh pages cost
        # more than the arithmetic (about 22 against 26 ms a step at N = 512)
        del swap
        return np.fft.irfft2(spec, s=packed.shape)

    def _potential(self, packed: np.ndarray) -> np.ndarray:
        """phase R phase^dagger on a packed kernel: Re Z - (Im Z)^T for
        Z = phase[:, None] R conj(phase); Z is freed on return."""
        z = packed * self.phase[:, None]
        z *= self.phase.conj()
        return z.real - z.imag.T

    def run_kernel(self, packed: np.ndarray) -> np.ndarray:
        """One step rho -> U rho U^dagger, U = K(dt/2) D(dt) K(dt/2), on the
        packed real N x N kernel R = Re rho + Im rho (see _pack_kernel).

        Each kinetic congruence is one rfft2 and one irfft2; the phase
        multiplies rows and columns.  Each stage drops the previous array,
        so a temporary argument is freed after the first transform.
        """
        packed = self._kinetic(packed)
        packed = self._potential(packed)
        return self._kinetic(packed)


def _pack_kernel(elements: np.ndarray) -> np.ndarray:
    """The real array R = A + B of the Hermitian part A + iB of a kernel.

    R = (P + Q^T) / 2 with P = Re + Im and Q = Re - Im, so a kernel with
    roundoff asymmetry packs its Hermitian part, and an exactly Hermitian
    one packs to the same bits as Re + Im.
    """
    packed = elements.real + elements.imag
    packed += (elements.real - elements.imag).T
    packed *= 0.5
    return packed


def _unpack_kernel(packed: np.ndarray) -> np.ndarray:
    """The exactly Hermitian kernel (R + R^T)/2 + i (R - R^T)/2."""
    out = np.empty(packed.shape, dtype=np.complex128)
    np.add(packed, packed.T, out=out.real)
    np.subtract(packed, packed.T, out=out.imag)
    out *= 0.5
    return out


class Propagator:
    """Precomputed one-step map on density kernels for a fixed (grid,
    potential, lambda_rate, dt); it steps kernels only, and a wave function
    is stepped by its split-step core.

    A step is D(dt/2) U D(dt/2) on a density kernel, with the Strang unitary
    U = K(dt/2) V(dt) K(dt/2) acting as rho -> U rho U^dagger and D the
    elementwise dephasing factor.  On the FFT path (see _fft_path) no dense
    matrix is built (u is None) and the split-step core steps the kernel
    packed as one real array R, with real 2-D FFTs: pack() makes R once
    and step_elements() takes and returns R.  On every other grid U is
    built once as a dense matrix (the split-step core applied to the
    identity), u, a step is two matrix products, and pack() returns the
    kernel as it is.  On the FFT path step_factor() steps a _Factor
    instead.  The N x N dephasing kernel, D's factor and the dense step's
    two work arrays are built on first use.
    """

    def __init__(
        self,
        grid: GridSpec,
        potential: Potential,
        lambda_rate: float,
        dt: float,
    ):
        if not (math.isfinite(dt) and math.isfinite(lambda_rate)):
            raise ValueError("dt and lambda_rate must be finite")
        if dt == 0 or (dt < 0 and lambda_rate > 0):
            raise ValueError("dt must be positive (reversal only without dephasing)")
        if lambda_rate < 0:
            raise ValueError("lambda_rate must be nonnegative")
        self.grid = grid
        self.potential = potential
        self.lambda_rate = lambda_rate
        self.dt = dt

        self.core = _SplitStep(grid, potential.values(grid), dt)
        self.u = self.u_dag = None
        if not _fft_path(grid.n_points):
            # row j of the core's output is U e_j; the C-ordered copy keeps
            # the BLAS products of step_elements on the same code path, and
            # the rows are freed before the dephasing kernel is built
            rows = self.core.run(np.eye(grid.n_points))
            self.u = np.ascontiguousarray(rows.T)
            del rows
            self.u_dag = self.u.conj().T

    @cached_property
    def dephase_half(self) -> Optional[np.ndarray]:
        """The N x N half-step dephasing kernel exp(-a (x - x')^2),
        a = lambda_rate dt / 2, built on first use; None without dephasing."""
        if self.lambda_rate == 0:
            return None
        diff = self.grid.x[:, None] - self.grid.x[None, :]
        return np.exp(-self.lambda_rate * diff * diff * (self.dt / 2.0))

    @cached_property
    def dephase_terms(self) -> int:
        """Terms M0 of the expansion of dephase_half that dephase_factor
        compresses, from its closed form alone (no array is built).

        About the centre x_c of the points, with y = x - x_c and |y| <= Y,
        exp(-a (y - y')^2) = g(y) g(y') sum_m (2a y y')^m / m! for
        g = exp(-a y^2).  Term m is at most e^-u u^m / m! with
        u = 2a |y y'| <= 2c, c = a Y^2, and from m >= 2c on that bound is
        largest at u = 2c and falls with m: M0 is the first such m at which
        it is below eps.  M0 >= M, the count dephase_factor keeps.
        """
        y_max = 0.5 * self.grid.dx * (self.grid.n_points - 1)
        u = self.lambda_rate * self.dt * y_max * y_max
        if u == 0:
            return 1
        m = max(1, math.ceil(u))
        log_eps = math.log(np.finfo(float).eps)
        while m * math.log(u) - u - math.lgamma(m + 1) > log_eps:
            m += 1
        return m

    @cached_property
    def dephase_factor(self) -> np.ndarray:
        """Real rows d_m, shape (M, N), with dephase_half = sum_m d_m d_m^T
        to roundoff: the dephase_terms columns g(y) y^m (2a)^(m/2) / sqrt(m!)
        compressed by one thin SVD, keeping singular values s with
        s^2 > eps s_max^2 (M = 11 at N = 512 and 9 at N = 256 on the
        benchmark's grids, from M0 = 15 and 13).  Built on first use."""
        a = 0.5 * self.lambda_rate * self.dt
        grid = self.grid
        y = grid.x - (grid.x_min + 0.5 * grid.dx * (grid.n_points - 1))
        terms = np.empty((self.dephase_terms, grid.n_points))
        terms[0] = np.exp(-a * y * y)
        for m in range(1, len(terms)):
            terms[m] = terms[m - 1] * y * math.sqrt(2.0 * a / m)
        _, s, vt = np.linalg.svd(terms, full_matrices=False)
        keep = s * s > np.finfo(float).eps * s[0] * s[0]
        rows = s[keep, None] * vt[keep]
        # the SVD leaves the diagonal sum_m d_m^2 off 1 by ~30 eps, a trace
        # drift each dephasing would add up; dividing by its root fixes it
        rows /= np.sqrt(np.sum(rows * rows, axis=0))
        return rows

    def pack(self, elements: np.ndarray) -> np.ndarray:
        """The form step_elements steps: the packed real R of the Hermitian
        part on the FFT path, else the complex kernel itself."""
        return _pack_kernel(elements) if self.u is None else elements

    def step_elements(self, elements: np.ndarray) -> np.ndarray:
        """One full step on the form pack returned, into a fresh array of
        that form.  A dense step takes a raw kernel, steps its Hermitian
        part and returns it exactly Hermitian."""
        if self.u is None:
            if elements.dtype != np.float64:
                raise TypeError("the FFT path steps the packed real kernel of pack()")
            if self.dephase_half is None:
                return self.core.run_kernel(elements)
            # D is real and symmetric, so D * (A + B) packs D * rho; the
            # first product is a temporary the core frees after one transform
            packed = self.core.run_kernel(self.dephase_half * elements)
            packed *= self.dephase_half
            return packed
        # the dephased input and the first product go to the propagator's
        # work arrays, the conjugate transpose to the first again: the
        # returned kernel is the step's one fresh N x N array
        first, second = self._work
        if self.dephase_half is not None:
            elements = np.multiply(self.dephase_half, elements, out=first)
        out = np.matmul(self.u, elements, out=second) @ self.u_dag
        if self.dephase_half is not None:
            np.multiply(self.dephase_half, out, out=out)
        # the same bits as 0.5 * (e + e^H)
        out += np.conjugate(out.T, out=first)
        out *= 0.5
        return out

    @cached_property
    def _work(self) -> tuple[np.ndarray, np.ndarray]:
        """The two N x N complex work arrays of the dense step, built on
        its first call."""
        n = self.grid.n_points
        return np.empty((n, n), np.complex128), np.empty((n, n), np.complex128)

    def factored(self, rank: int) -> bool:
        """True when a factor of this rank takes its next step as a factor:
        on the FFT path, while M0^2 rank stays within _FACTOR_MAX_BLOCK.
        M0 = dephase_terms >= M, and the two dephasing blocks of a step are
        M r and M r' <= M^2 r columns wide, so M0^2 rank bounds both.
        Reads no array."""
        return (
            _fft_path(self.grid.n_points)
            and self.dephase_terms**2 * rank <= _FACTOR_MAX_BLOCK
        )

    def step_factor(self, factor: "_Factor"):
        """One step D U D on a factor, with U one core.run on its rows.

        Returns the next factor, or, when factored(rank) fails, the packed
        kernel step_elements makes of the expanded factor: the chain hands
        off once and goes on with step_elements.
        """
        if not self.factored(factor.rank):
            return self.step_elements(_pack_kernel(factor.expand()))
        if self.lambda_rate == 0:
            return _Factor(factor.lam, self.core.run(factor.rows))
        factor = self._dephase(factor)
        return self._dephase(_Factor(factor.lam, self.core.run(factor.rows)))

    def _dephase(self, factor: "_Factor") -> "_Factor":
        """D o (V Lam V^H) for D = dephase_half, recompressed.

        With D = sum_m d_m d_m^T the product is W W^H for the M r columns
        W = [d_m o v_k sqrt(lam_k)]; the eigenpairs (s, q) of the Gram
        matrix W^H W give it as V' diag(s) V'^H with V' = W q / sqrt(s),
        and pairs with s <= eps s_max, roundoff only, are dropped.
        """
        d = self.dephase_factor
        scaled = factor.rows * np.sqrt(factor.lam)[:, None]
        norms = (d * d) @ (scaled.real**2 + scaled.imag**2).T
        m, k = np.nonzero(norms > np.finfo(float).eps * norms.max())
        block = d[m] * scaled[k]
        lam, vecs = np.linalg.eigh(block.conj() @ block.T)
        keep = lam > np.finfo(float).eps * lam[-1]
        rows = vecs[:, keep].T @ block
        rows /= np.sqrt(lam[keep])[:, None]
        return _Factor(lam[keep], rows)


def _density(form) -> np.ndarray:
    """diag rho of any form a chain steps: a _Factor, the packed R of the
    FFT path (diag R = diag Re rho) or a dense-path complex kernel."""
    if isinstance(form, _Factor):
        return form.density()
    return np.diagonal(form).real


def _check_density(dens: np.ndarray, dx: float, where: str) -> None:
    """The invariants of every density step, on the diagonal density of
    any form (see _density).

    Raises ExplosionGuard on a non-finite trace or trace drift beyond 1e-6,
    and BoundaryViolation once more than EDGE_TOL of the mass sits in the
    outermost two grid cells on either side.
    """
    trace = float(np.sum(dens) * dx)
    if not math.isfinite(trace):
        raise ExplosionGuard(f"non-finite trace at {where}")
    if abs(trace - 1.0) > 1e-6:
        raise ExplosionGuard(f"trace drifted to {trace!r} at {where}")
    edge = float((dens[0] + dens[1] + dens[-2] + dens[-1]) * dx)
    if edge > EDGE_TOL:
        raise BoundaryViolation(f"mass {edge:.3e} within two cells of the window edge at {where}")


def _chain(prop: Propagator, state: DensityMatrix, n_steps: int):
    """Yield (k, form), the form of state after k = 0 ... n_steps guarded
    steps: its factor while step_factor keeps one (it hands off at most
    once to the packed kernel), else its packed kernel.  Every step
    returns a fresh form, so the state is never written."""
    form = state.factor
    if form is None or not prop.factored(form.rank):
        form = prop.pack(state._kernel())
    for k in range(n_steps + 1):
        if k:
            step = prop.step_factor if isinstance(form, _Factor) else prop.step_elements
            form = step(form)
        _check_density(_density(form), prop.grid.dx, f"t = {k * prop.dt:.6g}")
        yield k, form


def _state_of(grid: GridSpec, form) -> DensityMatrix:
    """The state of a chain's form: a _Factor held as the state's factor
    (its kernel built on the first read of elements), the packed R of the
    FFT path unpacked, or a dense-path kernel as it is."""
    if isinstance(form, _Factor):
        return DensityMatrix._from_factor(grid, form)
    kernel = _unpack_kernel(form) if form.dtype == np.float64 else form
    return DensityMatrix(grid, kernel, validate=False)


def _evolve_kernel(prop: Propagator, state: DensityMatrix, n_steps: int) -> np.ndarray:
    """The exactly Hermitian kernel of state after n_steps of _chain, held
    by no state; only the current form is alive."""
    for _, form in _chain(prop, state, n_steps):
        pass
    return _state_of(prop.grid, form)._kernel()


@dataclass
class EvolutionRecord:
    """Time series of low-order diagnostics plus the final state.

    All arrays share the length of times.  mean_dvdx is <V'(X)>, recorded so
    force-law residuals can be formed without storing state snapshots.
    final is the state at the last time, either given or built on its first
    read by _state_of from packed_final, the grid and the chain's last
    form.  Callers that read only the moment series build no final kernel.
    """

    times: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    s_lin: np.ndarray
    purity: np.ndarray
    mean_dvdx: np.ndarray
    dt: float
    lambda_rate: float
    # final left out arrives as its default, the cached property below
    final: InitVar[DensityMatrix]
    packed_final: Optional[tuple[GridSpec, object]] = field(default=None, repr=False)

    def __post_init__(self, final) -> None:
        if isinstance(final, DensityMatrix):
            self.__dict__["final"] = final
        elif not isinstance(final, cached_property) or self.packed_final is None:
            raise TypeError("EvolutionRecord needs final, a DensityMatrix, or packed_final")

    @cached_property
    def final(self) -> DensityMatrix:
        grid, form = self.packed_final
        self.packed_final = None
        return _state_of(grid, form)

    def as_columns(self) -> dict:
        """Column dict in CSV order (diagnostic extras excluded)."""
        return {
            "t": self.times,
            "mean_x": self.mean_x,
            "mean_p": self.mean_p,
            "var_x": self.var_x,
            "var_p": self.var_p,
            "s_lin": self.s_lin,
            "purity": self.purity,
        }


def _moment_row(form, grid: GridSpec, dv_vals: np.ndarray):
    """Moments of any form a chain steps.  On the packed R the purity is
    sum R^2 dx^2: the cross term between R's symmetric and antisymmetric
    parts sums to zero."""
    dx = grid.dx
    dens = _density(form)
    if isinstance(form, _Factor):
        mom, squares = form.momentum_masses(dx), form.squares()
    else:
        mom = _momentum_masses(form, dx)
        if np.iscomplexobj(form):
            squares = np.sum(np.abs(form) ** 2)
        else:
            squares = np.vdot(form, form)
    mean_x = float(np.sum(grid.x * dens) * dx)
    mean_x2 = float(np.sum(grid.x**2 * dens) * dx)
    mean_p = float(np.sum(grid.p * mom))
    mean_p2 = float(np.sum(grid.p**2 * mom))
    purity = float(squares * dx * dx)
    mean_dv = float(np.sum(dv_vals * dens) * dx)
    return mean_x, mean_p, mean_x2, mean_p2, purity, mean_dv


def evolve(
    state: Union[WaveFunction, DensityMatrix],
    potential: Potential,
    lambda_rate: float,
    dt: float,
    n_steps: int,
    record_every: int = 1,
) -> EvolutionRecord:
    """Evolve a state for n_steps and record diagnostics every record_every steps.

    The t = 0 row and the final row are always recorded.  Every step is
    checked: ExplosionGuard on non-finite values or trace drift beyond 1e-6,
    BoundaryViolation once more than EDGE_TOL of the mass sits in the
    outermost two grid cells on either side.  A state steps as a low-rank
    factor where _chain's entry rule allows it, else as its kernel; the
    final kernel is built on the first read of the record's final.
    """
    return _evolve_on(
        Propagator(state.grid, potential, lambda_rate, dt), state, n_steps, record_every
    )


def _evolve_on(
    prop: Propagator,
    state: Union[WaveFunction, DensityMatrix],
    n_steps: int,
    record_every: int = 1,
) -> EvolutionRecord:
    """evolve() with a prebuilt propagator, so callers that step several
    states with one (grid, potential, lambda_rate, dt) build it once.

    The state steps through _chain, a WaveFunction as its to_density(),
    and each recorded row reads the current form.
    """
    if n_steps < 1 or record_every < 1:
        raise ValueError("n_steps and record_every must be >= 1")
    if isinstance(state, WaveFunction):
        state = state.to_density()
    grid, dt = state.grid, prop.dt
    dv_vals = prop.potential.derivative_values(grid)

    rows, times = [], []
    for k, form in _chain(prop, state, n_steps):
        if k % record_every == 0 or k == n_steps:
            mx, mp, mx2, mp2, pur, mdv = _moment_row(form, grid, dv_vals)
            if not (math.isfinite(mx2) and math.isfinite(mp2)):
                raise ExplosionGuard(f"non-finite moments at t = {k * dt:.6g}")
            times.append(k * dt)
            rows.append((mx, mp, mx2, mp2, pur, mdv))

    t = np.asarray(times)
    mx, mp, mx2, mp2, pur, mdv = (np.asarray(col) for col in zip(*rows))
    return EvolutionRecord(
        times=t,
        mean_x=mx,
        mean_p=mp,
        var_x=np.maximum(mx2 - mx * mx, 0.0),
        var_p=np.maximum(mp2 - mp * mp, 0.0),
        s_lin=1.0 - pur,
        purity=pur,
        mean_dvdx=mdv,
        dt=dt,
        lambda_rate=prop.lambda_rate,
        packed_final=(grid, form),
    )
