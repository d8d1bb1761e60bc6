"""Caldeira-Leggett evolution: Strang-split unitary steps plus exact dephasing.

The generator is d rho/dt = -i [H, rho] - Lambda [X, [X, rho]] with
H = P^2/2M + V(X) and hbar = 1 (momentum diffusion only, no friction).
Each step composes a half dephasing, a full Strang unitary, and another half
dephasing.  The dephasing factor exp(-Lambda (x - x')^2 dt) is applied
elementwise, which is both exact for its generator and a Schur product with
a positive kernel, so positivity is preserved exactly; the unitary piece is
a congruence, so the whole step is completely positive up to roundoff.

One split-step core, _SplitStep, holds the spectral kinetic factor and runs
every Strang loop: the dense Propagator build, GRW, the Bohm snapshots, the
explicit qubit model and the decoherence functional step wave functions by
its run() calls.  It steps blocks of states along the last axis and fuses
the kinetic half-steps of chained steps (K(dt/2) K(dt/2) = K(dt)): n steps
cost 2n + 2 FFTs, not 4n.  The core also holds its step as the dense
unitary U (run() on the identity), and leap() applies U^n to one state by
the binary powers of U, one matrix-vector product per set bit of n; past
the crossover of _leap_path, GRW's free flight is leapt, so there a
wave-function step is not a run() call but part of a product.  It also
steps a density kernel in place of a block of states, with the congruence
K rho K^dagger applied as one real 2-D transform pair.  The Propagator
steps a Hermitian kernel A + iB packed as the one real array R = A + B
(qstate._pack_kernel).  On grids of _FFT_MIN_N points or more whose prime
factors are at most _FFT_MAX_PRIME (_fft_path) it keeps no dense matrix and
steps R with the core's rfft2/irfft2, half the cost of complex transforms,
O(N^2 log N) in place of O(N^3); on every other grid it builds the Strang
unitary U as a dense matrix and packs X = U R U^dagger as Re X - (Im X)^T.
This module is the only one that steps a density state (wave functions
are stepped by the core's run() and leap() elsewhere too).  Every density
state steps through one guarded loop, _chain, as a _Factor or as R, with
one entry rule: a state whose factor passes Propagator.factored(rank)
enters as that factor, any other as its kernel, packed once; a
WaveFunction enters as its rank-1 to_density().  A factor
rho = V diag(lam) V^H stays one through every step, guard and moment row
with no N x N array (the low-rank integrator of Le Bris & Rouchon, Phys.
Rev. A 87, 022125, 2013): the unitary is one run() on the r rows of V^T,
and each half dephasing D = sum_m d_m d_m^T, factored once per propagator,
maps V to the block [d_m o v_k sqrt(lam_k)], recompressed through the
eigenpairs of its Gram matrix.  Before each step the chain checks M0^2 r,
M0 the closed-form term count of D's expansion: past _FACTOR_MAX_BLOCK, the
crossover measured at N = 256 (r = 16 at M0 = 13), it expands once to the
packed kernel.  The dense step writes its temporaries into two work arrays
the propagator owns, so each step allocates only its result.  The chain
hands out each form as a DensityMatrix, whose readers in qstate read the
form.  evolve, the sieve and the measured horizon record rows from the
chain (_evolve_on); each collapse interval of branch_step and BornSampler
takes the kernel of its last state for one use (_evolve_kernel).  Every
state, the entry state too, passes one guard on the diagonal density,
labelled t = k dt: finite unit trace and at most EDGE_TOL of the mass in
the outer two cells on either side, where it would wrap around the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import BoundaryViolation, ExplosionGuard
from .qstate import DensityMatrix, GridSpec, WaveFunction, _Factor, _pack_kernel

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
# (N = 512), and its N = 512 branch root sits on the bound (M0 = 52, r = 1).
_FACTOR_MAX_BLOCK = 13 * 13 * 16

# GRW free flight by powers of the step (_SplitStep.leap) in place of
# stepping, once a run's declared substeps S = total_time / dt_int reach
# N^3 / _LEAP_N3_PER_STEP on grids of at most _LEAP_MAX_N points: the dense
# unitary and its squares cost O(N^3 log S) once per run, each hit-free
# segment of n substeps then a few O(N^2) products in place of 2n + 2 FFTs.
# Leap over stepping CPU time from tools/crossovers.py (hit_rate 2, dt_int
# 0.01, one BLAS thread, 2-vCPU x86_64 host), at the first power-of-two S
# past the bound against the one below it: 0.80 / 1.14 at S = 128 / 64 for
# N = 96, 0.79 / 1.29 at 256 / 128 for N = 128, 0.67 / 1.28 at 512 / 256
# for N = 160, 0.78 / 1.26 at 1024 / 512 for N = 192, 0.70 / 1.16 at
# 2048 / 1024 for N = 240 and 0.83 / 1.28 for N = 256; 0.59 at 16384 for
# N = 384 (0.96 at 8192).  At N = 512 leaping took 2.01, 1.54 and 1.03
# times as long at S = 4096, 8192 and 16384, so N = 512 keeps stepping.
_LEAP_N3_PER_STEP = 10_000
_LEAP_MAX_N = 384

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


def _leap_path(n: int, steps: float) -> bool:
    """True when a GRW run on n grid points with steps declared substeps
    flies free by _SplitStep.leap: n <= _LEAP_MAX_N and
    steps >= n^3 / _LEAP_N3_PER_STEP."""
    return n <= _LEAP_MAX_N and steps * _LEAP_N3_PER_STEP >= n**3


class _SplitStep:
    """Strang steps K(dt/2) D(dt) K(dt/2) on states along the last axis.

    K is the spectral kinetic factor exp(-i p^2/2M t); D = exp(-i diag dt)
    is a diagonal phase of shape (n_points,) or (n_states, n_points), so a
    block of states can carry one potential per row.  The half kick and D
    are built with the core, everything else on first use: the full kick
    on the first run() of two or more steps, the kick tables on the first
    kernel step, the dense unitary and its powers on the first leap().
    run() chains steps with the inner half kicks fused, run_kernel() steps
    a packed real density kernel from both sides, and dense and leap()
    hold and apply the step as a matrix (all three 1-D diag only).
    """

    def __init__(self, grid: GridSpec, diag: np.ndarray, dt: float):
        # -i p^2/2M, from one read of grid.p (each read is a fresh fftfreq)
        self._energy = -1j * grid.p**2 / (2.0 * grid.mass)
        self.dt = dt
        self.kick_half = np.exp(self._energy * (dt / 2.0))
        self.phase = np.exp(-1j * diag * dt)

    @cached_property
    def kick(self) -> np.ndarray:
        """The full-step kinetic factor K(dt), built on the first run() of
        two or more steps: a core that runs one step never builds it."""
        return np.exp(self._energy * self.dt)

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
    def dense(self) -> np.ndarray:
        """The Strang unitary U as a C-ordered N x N matrix (1-D diag
        only), built on first use: column j is the step of e_j, row j of
        run(identity); the C-ordered copy keeps BLAS products of U on one
        code path, and the rows are freed on return."""
        return np.ascontiguousarray(self.run(np.eye(self.phase.size)).T)

    @cached_property
    def _powers(self) -> list:
        """U^(2^k) for k = 0, 1, ...; leap() appends the squares it needs."""
        return [self.dense]

    def leap(self, state: np.ndarray, n: int) -> np.ndarray:
        """U^n state for one 1-D state: one matrix-vector product per set
        bit of n, lowest first, with U^(2^k) from _powers, squared on first
        need (n <= 0 returns a copy).  Equal to run(state, n) to roundoff,
        which grows about as n eps for the squared powers."""
        out = np.array(state, dtype=np.complex128)
        for k in range(max(n, 0).bit_length()):
            powers = self._powers
            if k == len(powers):
                powers.append(powers[-1] @ powers[-1])
            if n >> k & 1:
                out = powers[k] @ out
        return out

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


class Propagator:
    """Precomputed one-step map on density kernels for a fixed (grid,
    potential, lambda_rate, dt); it steps kernels only, and a wave function
    is stepped by its split-step core.

    A step is D(dt/2) U D(dt/2) on a density kernel, with the Strang unitary
    U = K(dt/2) V(dt) K(dt/2) acting as rho -> U rho U^dagger and D the
    elementwise dephasing factor.  step_elements() takes and returns the
    packed real kernel R of _pack_kernel on every grid: on the FFT path
    (see _fft_path) the split-step core steps it with real 2-D FFTs and no
    dense matrix is built (u is None); on every other grid U is built once
    as a dense matrix u (the core applied to the identity) and a step is
    two complex matrix products.  On the FFT path step_factor() steps a
    _Factor instead.  The N x N dephasing kernel, D's factor and the dense
    step's two work arrays are built on first use.
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
            self.u = self.core.dense
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

    def step_elements(self, packed: np.ndarray) -> np.ndarray:
        """One full step on the packed real kernel R of _pack_kernel, into
        a fresh packed array."""
        if packed.dtype != np.float64:
            raise TypeError("step_elements steps the packed real kernel of _pack_kernel")
        d = self.dephase_half
        if self.u is None:
            # D is real and symmetric, so D * (A + B) packs D * rho; the
            # product is a temporary the core frees after one transform
            packed = self.core.run_kernel(packed if d is None else d * packed)
        else:
            # X = U (D * R) U^dagger in the two work arrays packs to
            # Re X - (Im X)^T, the step's one fresh N x N array
            first, second = self._work
            if d is None:
                np.copyto(first, packed)
            else:
                np.multiply(d, packed, out=first)
            np.matmul(self.u, first, out=second)
            np.matmul(second, self.u_dag, out=first)
            packed = first.real - first.imag.T
        if d is not None:
            packed *= d
        return packed

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
        and pairs with s <= eps s_max, roundoff only, are dropped.  Raises
        ExplosionGuard when no column is left to keep: the factor is zero or
        not finite (nan compares false, so the block would be empty).
        """
        d = self.dephase_factor
        scaled = factor.rows * np.sqrt(factor.lam)[:, None]
        norms = (d * d) @ (scaled.real**2 + scaled.imag**2).T
        top = norms.max()
        if not 0.0 < top < math.inf:
            raise ExplosionGuard(f"dephasing a factor whose largest column norm is {top!r}")
        m, k = np.nonzero(norms > np.finfo(float).eps * top)
        block = d[m] * scaled[k]
        lam, vecs = np.linalg.eigh(block.conj() @ block.T)
        keep = lam > np.finfo(float).eps * lam[-1]
        rows = vecs[:, keep].T @ block
        rows /= np.sqrt(lam[keep])[:, None]
        return _Factor(lam[keep], rows)


def _check_density(dens: np.ndarray, dx: float, where: str) -> None:
    """The invariants of every density step, on the diagonal density of
    the step's state.

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
    """Yield (k, rho), the state after k = 0 ... n_steps guarded steps, held
    as its factor while step_factor keeps one (it hands off at most once to
    the packed kernel), else as its packed kernel R.  Every step returns a
    fresh form, so no yielded state is ever written."""
    form = state.factor
    if form is None or not prop.factored(form.rank):
        form = _pack_kernel(state._kernel())
    for k in range(n_steps + 1):
        if k:
            step = prop.step_factor if isinstance(form, _Factor) else prop.step_elements
            form = step(form)
        rho = DensityMatrix._of(prop.grid, form)
        _check_density(rho.position_density(), prop.grid.dx, f"t = {k * prop.dt:.6g}")
        yield k, rho


def _evolve_kernel(prop: Propagator, state: DensityMatrix, n_steps: int) -> np.ndarray:
    """The exactly Hermitian kernel of state after n_steps of _chain, held
    by no state; only the current form is alive."""
    for _, rho in _chain(prop, state, n_steps):
        pass
    return rho._kernel()


@dataclass
class EvolutionRecord:
    """Time series of low-order diagnostics plus the final state.

    All arrays share the length of times.  mean_dvdx is <V'(X)>, recorded so
    force-law residuals can be formed without storing state snapshots.
    final is the DensityMatrix at the last time; evolve's is the chain's
    last state, in the form it stepped in, so callers that read only the
    moment series build no final kernel.
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
    final: DensityMatrix

    def __post_init__(self) -> None:
        if not isinstance(self.final, DensityMatrix):
            raise TypeError("EvolutionRecord needs final, a DensityMatrix")

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


def _moment_row(rho: DensityMatrix, dv_vals: np.ndarray):
    """Moments of a chain's state, read from its form: <X>, <P>, <X^2>,
    <P^2>, purity and <V'>."""
    mean_x, mean_p, mean_x2, mean_p2, mean_dv = rho._moments(dv_vals)
    purity = rho._squares() * rho.grid.dx * rho.grid.dx
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
    final kernel is built on the first read of the record's final.elements.
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
    and each recorded row reads the current state.
    """
    if n_steps < 1 or record_every < 1:
        raise ValueError("n_steps and record_every must be >= 1")
    if isinstance(state, WaveFunction):
        state = state.to_density()
    grid, dt = state.grid, prop.dt
    dv_vals = prop.potential.derivative_values(grid)

    rows, times = [], []
    for k, rho in _chain(prop, state, n_steps):
        if k % record_every == 0 or k == n_steps:
            mx, mp, mx2, mp2, pur, mdv = _moment_row(rho, dv_vals)
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
        final=rho,
    )
