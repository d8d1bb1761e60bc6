"""States of a single particle on a uniform 1D grid, with hbar = 1.

Positions live on x_j = x_min + j*dx with periodic FFT conventions, so the
conjugate momentum grid satisfies dx * dp * n = 2*pi exactly.  Wave functions
are normalized so that sum(|psi|^2) * dx = 1; density matrices are position
kernels rho(x, x') with sum(diag) * dx = 1.  All observable values returned
by this module are plain floats.

A DensityMatrix is either an N x N kernel or a low-rank factor
rho = V diag(lam) V^H (_Factor).  Pure states (from_pure, to_density) are
factors of rank 1, and the Lueders children of the branch module are
factors of the rank of their parent's evolved kernel.  A factor's position
density, momentum masses, expectations and purity read (lam, V) in O(N r),
with one FFT of the r rows; its N x N kernel, elements, is built on the
first read of elements and kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    BoundaryViolation,
    NonHermitianState,
    PositivityError,
    PositivityWarning,
    RuleError,
)

__all__ = [
    "GridSpec",
    "WaveFunction",
    "DensityMatrix",
    "PhasePoint",
    "coherent_state",
    "expectation",
    "variance",
    "mean_phase_point",
    "purity_and_entropy",
    "check_positivity",
]

# Tail mass (analytic, outside the window) above which a packet is rejected.
TAIL_TOL = 1e-10

Observable = Union[str, np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic position grid plus the particle mass.

    Parameters
    ----------
    n_points : int
        Number of grid points, at least 8 and at most 512.  Powers of two
        give the fastest transforms.
    x_min, x_max : float
        Position window; the grid covers [x_min, x_max) with spacing
        dx = (x_max - x_min) / n_points, and its width must be finite.
    mass : float
        Particle mass M > 0.
    """

    n_points: int
    x_min: float
    x_max: float
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not 8 <= self.n_points <= 512:
            raise RuleError("n_points", f"n_points must be in [8, 512], got {self.n_points}")
        if not 0.0 < self.length < math.inf:
            raise RuleError("x_max", "x_max must exceed x_min by a finite width")
        if not self.mass > 0:
            raise RuleError("mass", "mass must be positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def x(self) -> np.ndarray:
        """Grid positions, shape (n_points,)."""
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def p(self) -> np.ndarray:
        """FFT-ordered momentum grid conjugate to x."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @property
    def dp(self) -> float:
        return 2.0 * math.pi / self.length

    @property
    def p_max(self) -> float:
        """Largest momentum magnitude representable without aliasing."""
        return math.pi / self.dx


@dataclass(frozen=True)
class PhasePoint:
    """A classical phase-space point (q, p)."""

    q: float
    p: float

    def __iter__(self):
        yield self.q
        yield self.p


@dataclass
class WaveFunction:
    """A pure state: complex amplitudes on the grid, sum(|psi|^2) * dx = 1."""

    grid: GridSpec
    amplitudes: np.ndarray
    validate: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.grid.n_points,):
            raise ValueError("amplitudes must have shape (n_points,)")
        if self.validate:
            norm = self.norm_squared()
            if not math.isfinite(norm) or abs(norm - 1.0) > 1e-8:
                raise ValueError(f"wave function not normalized: |psi|^2 = {norm!r}")

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx)

    def overlap(self, other: "WaveFunction") -> complex:
        """Inner product <self|other> including the dx measure."""
        return complex(np.vdot(self.amplitudes, other.amplitudes) * self.grid.dx)

    def position_density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def momentum_masses(self) -> np.ndarray:
        """Probability mass on each FFT momentum node (sums to 1)."""
        ft = np.fft.fft(self.amplitudes)
        return np.abs(ft) ** 2 * (self.grid.dx / self.grid.n_points)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix.from_pure(self)


class _Factor:
    """A density kernel held as V diag(lam) V^H, rho = sum_k lam_k v_k v_k^H.

    rows is V^T, shape (r, N), so a split step runs the r columns of V at
    once; lam is real.  Every readout reads the factor in O(N r), plus one
    FFT of the rows for the momentum masses.  rows may carry leading axes,
    a stack of factors sharing lam, for mass().
    """

    def __init__(self, lam: np.ndarray, rows: np.ndarray):
        self.lam = lam
        self.rows = rows

    @property
    def rank(self) -> int:
        return len(self.lam)

    def density(self) -> np.ndarray:
        """diag rho = sum_k lam_k |v_k|^2."""
        return self.lam @ (self.rows.real**2 + self.rows.imag**2)

    def mass(self):
        """The trace sum_k lam_k ||v_k||^2 without the dx measure, per
        leading index of rows."""
        return np.sum(self.rows.real**2 + self.rows.imag**2, axis=-1) @ self.lam

    def momentum_masses(self, dx: float) -> np.ndarray:
        """sum_k lam_k |FFT v_k|^2 dx / N, the masses of the kernel."""
        ft = np.fft.fft(self.rows)
        return (self.lam @ (ft.real**2 + ft.imag**2)) * (dx / self.rows.shape[1])

    def squares(self) -> float:
        """sum |rho|^2 = sum_kl lam_k lam_l |v_k^H v_l|^2."""
        gram = self.rows.conj() @ self.rows.T
        return float(self.lam @ (gram.real**2 + gram.imag**2) @ self.lam)

    def expand(self) -> np.ndarray:
        """The exactly Hermitian N x N kernel V diag(lam) V^H, re-symmetrized
        in place on the fresh product (the same bits as 0.5 * (c + c^H)
        without two N^2 temporaries)."""
        out = (self.rows.T * self.lam) @ self.rows.conj()
        out += out.conj().T
        out *= 0.5
        return out


class _Pure(_Factor):
    """A pure state psi as the rank-1 factor lam = [1], V = psi."""

    def __init__(self, amplitudes: np.ndarray):
        super().__init__(np.ones(1), amplitudes[None, :])

    def expand(self) -> np.ndarray:
        """The outer product psi psi^H, exactly Hermitian as it stands; a
        matrix product with one inner term rounds otherwise."""
        psi = self.rows[0]
        return np.outer(psi, psi.conj())


class DensityMatrix:
    """A mixed state as a position kernel rho(x, x'), trace = sum(diag) * dx = 1.

    A state given as elements is that N x N kernel.  A pure state
    (from_pure, WaveFunction.to_density) and a Lueders child of the branch
    module are held as a low-rank factor instead: factor is then a _Factor,
    every readout below reads it, and elements is built from it on first
    read and kept.  factor is None for a state given as elements.
    """

    def __init__(self, grid: GridSpec, elements: np.ndarray, validate: bool = True):
        self.grid = grid
        self.factor: Optional[_Factor] = None
        self._elements = np.asarray(elements, dtype=np.complex128)
        n = grid.n_points
        if self._elements.shape != (n, n):
            raise ValueError("elements must have shape (n_points, n_points)")
        if validate:
            herm = float(np.max(np.abs(self._elements - self._elements.conj().T)))
            if herm > 1e-10:
                raise NonHermitianState(f"kernel asymmetry {herm:.3e} exceeds 1e-10")
            tr = self.trace()
            if not math.isfinite(tr) or abs(tr - 1.0) > 1e-8:
                raise ValueError(f"trace is {tr!r}, expected 1")

    @classmethod
    def _from_factor(cls, grid: GridSpec, factor: _Factor) -> "DensityMatrix":
        """The state of a factor; its kernel is built on the first read of
        elements."""
        rho = cls.__new__(cls)
        rho.grid, rho.factor, rho._elements = grid, factor, None
        return rho

    @property
    def elements(self) -> np.ndarray:
        if self._elements is None:
            self._elements = self.factor.expand()
        return self._elements

    def _kernel(self) -> np.ndarray:
        """The N x N kernel for one use: elements if given or already built,
        else a fresh expansion of the factor that the state does not keep."""
        return self.factor.expand() if self._elements is None else self._elements

    @classmethod
    def from_pure(cls, psi: WaveFunction) -> "DensityMatrix":
        return cls._from_factor(psi.grid, _Pure(psi.amplitudes))

    @classmethod
    def from_mixture(cls, weights, states) -> "DensityMatrix":
        """Convex mixture of pure states; weights must sum to 1."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or len(w) != len(states) or np.any(w < 0):
            raise ValueError("weights must be a nonnegative 1D sequence matching states")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("mixture weights must sum to 1")
        grid = states[0].grid
        rho = np.zeros((grid.n_points, grid.n_points), dtype=np.complex128)
        for wi, psi in zip(w, states):
            rho += wi * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return cls(grid, rho, validate=False)

    def trace(self) -> float:
        if self.factor is not None:
            return float(self.factor.mass() * self.grid.dx)
        return float(np.real(np.trace(self._elements)) * self.grid.dx)

    def position_density(self) -> np.ndarray:
        if self.factor is not None:
            return self.factor.density()
        return np.real(np.diag(self._elements)).copy()

    def momentum_masses(self) -> np.ndarray:
        """Probability mass on each FFT momentum node (sums to the trace)."""
        if self.factor is not None:
            return self.factor.momentum_masses(self.grid.dx)
        return _momentum_masses(self._elements, self.grid.dx)

    def copy(self) -> "DensityMatrix":
        if self.factor is not None:
            return DensityMatrix._from_factor(self.grid, self.factor)
        return DensityMatrix(self.grid, self._elements.copy(), validate=False)


def _momentum_masses(kernel: np.ndarray, dx: float) -> np.ndarray:
    """Momentum masses of a complex density kernel rho, or of its packed
    real form R = Re rho + Im rho.

    The diagonal of F rho F^dagger is the transform of the wrapped
    autocorrelation c(d) = sum_x rho((x + d) mod n, x), so the masses
    take one O(n^2) gather and one length-n FFT:
    mass_k = (dx / n) Re FFT[c]_k.  On R the gather gives s = Re c + Im c,
    with Re c even and Im c odd in d, so Re FFT[c] = Re FFT[s] - Im FFT[s].
    """
    n = kernel.shape[0]
    # read from column r on, row r of this block is row r of the kernel
    # rolled left by r + 1, so its column sums are c(n - 1), ..., c(0)
    block = np.concatenate((kernel[:, 1:], kernel), axis=1)
    step = block.itemsize
    rolled = as_strided(block, (n, n), (2 * n * step, step), writeable=False)
    ft = np.fft.fft(rolled.sum(axis=0)[::-1])
    masses = ft.real if np.iscomplexobj(kernel) else ft.real - ft.imag
    return masses * (dx / n)


State = Union[WaveFunction, DensityMatrix]


def _check_width(grid: GridSpec, width: float, name: str = "sigma_x") -> None:
    """The rule for a packet, POVM or hit width on a grid: at least 2 dx,
    so that the grid resolves it, and at most the grid width."""
    if not width >= 2.0 * grid.dx:
        raise RuleError(name, f"{name} = {width:.4g} under-resolved: grid dx = {grid.dx:.4g}")
    if width > grid.length:
        raise RuleError(name, f"{name} = {width:.4g} exceeds the grid width {grid.length:.4g}")


def coherent_state(grid: GridSpec, q: float, p: float, sigma_x: float) -> WaveFunction:
    """Gaussian packet centered at (q, p) with position spread sigma_x.

    The packet is a minimum-uncertainty state: Var(X) = sigma_x^2 and
    Var(P) = 1 / (4 sigma_x^2).  Raises BoundaryViolation if more than
    TAIL_TOL of the analytic mass lies outside the position window or
    beyond the momentum grid's reach.  sigma_x must meet _check_width.
    """
    _check_width(grid, sigma_x)
    tail_x = 0.5 * (
        math.erfc((grid.x_max - q) / (sigma_x * math.sqrt(2.0)))
        + math.erfc((q - grid.x_min) / (sigma_x * math.sqrt(2.0)))
    )
    if tail_x > TAIL_TOL:
        raise BoundaryViolation(
            f"position tail mass {tail_x:.3e} outside [{grid.x_min}, {grid.x_max}] "
            f"for packet at q = {q}"
        )
    sigma_p = 0.5 / sigma_x
    tail_p = 0.5 * (
        math.erfc((grid.p_max - p) / (sigma_p * math.sqrt(2.0)))
        + math.erfc((p + grid.p_max) / (sigma_p * math.sqrt(2.0)))
    )
    if tail_p > TAIL_TOL:
        raise BoundaryViolation(
            f"momentum tail mass {tail_p:.3e} beyond +/-{grid.p_max:.4g} "
            f"for packet at p = {p}"
        )
    x = grid.x
    psi = np.exp(-((x - q) ** 2) / (4.0 * sigma_x**2)) * np.exp(1j * p * x)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    return WaveFunction(grid, psi, validate=False)


def _resolve_diagonal(grid: GridSpec, observable: Observable) -> np.ndarray:
    if callable(observable):
        vals = np.asarray(observable(grid.x), dtype=float)
    else:
        vals = np.asarray(observable, dtype=float)
    if vals.shape != (grid.n_points,):
        raise ValueError("diagonal observable must have shape (n_points,)")
    return vals


def _expect_density(rho: DensityMatrix, observable: Observable) -> float:
    grid = rho.grid
    if isinstance(observable, str):
        key = observable.lower()
        if key in ("p", "p2"):
            masses = rho.momentum_masses()
            pw = grid.p if key == "p" else grid.p**2
            val = np.sum(pw * masses)
            return float(val)
        if key == "x":
            vals = grid.x
        elif key == "x2":
            vals = grid.x**2
        else:
            raise ValueError(f"unknown observable {observable!r}")
    else:
        vals = _resolve_diagonal(grid, observable)
    if rho.factor is None:
        # a raw kernel may have a complex diagonal; a factor's is real
        imag = np.sum(vals * np.diag(rho.elements).imag) * grid.dx
        if abs(imag) > 1e-6:
            raise NonHermitianState(f"expectation has imaginary part {imag:.3e}")
    return float(np.sum(vals * rho.position_density()) * grid.dx)


def expectation(state: State, observable: Observable) -> float:
    """Expectation value of an observable in a pure or mixed state.

    observable may be one of the strings "x", "p", "x2", "p2", a real array
    of diagonal (position-basis) values, or a callable f(x) -> values.  A
    WaveFunction is read through its rank-1 to_density().
    """
    if isinstance(state, WaveFunction):
        state = state.to_density()
    if isinstance(state, DensityMatrix):
        return _expect_density(state, observable)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def variance(state: State, which: str) -> float:
    """Var(X) for which="x" or Var(P) for which="p"; never returns < 0."""
    key = which.lower()
    if key not in ("x", "p"):
        raise ValueError("which must be 'x' or 'p'")
    mean = expectation(state, key)
    second = expectation(state, key + "2")
    return max(second - mean * mean, 0.0)


def mean_phase_point(state: State) -> PhasePoint:
    """(<X>, <P>) bundled as a PhasePoint."""
    return PhasePoint(expectation(state, "x"), expectation(state, "p"))


def purity_and_entropy(rho: DensityMatrix) -> tuple[float, float, float]:
    """Return (purity, linear entropy, von Neumann entropy).

    purity = Tr(rho^2); S_lin = 1 - purity; S_vN = -sum(lam ln lam) over the
    eigenvalues of rho (dimensionless probabilities, i.e. kernel * dx).
    Eigenvalues below 1e-14 are dropped from the log sum.
    """
    dx = rho.grid.dx
    if rho.factor is None:
        purity = float(np.sum(np.abs(rho.elements) ** 2) * dx * dx)
        lam = np.linalg.eigvalsh(rho.elements * dx)
    else:
        # with V = Q T (thin QR), rho = Q (T diag(lam) T^H) Q^H: its nonzero
        # eigenvalues are those of the r x r middle matrix
        purity = rho.factor.squares() * dx * dx
        tri = np.linalg.qr(rho.factor.rows.T, mode="r")
        lam = np.linalg.eigvalsh((tri * rho.factor.lam) @ tri.conj().T * dx)
    lam = lam[lam > 1e-14]
    s_vn = float(-np.sum(lam * np.log(lam)))
    return purity, 1.0 - purity, s_vn


# Eigenvalue floors of check_positivity: below the first it warns, below
# the second it raises.
POSITIVITY_WARN_FLOOR = -1e-6
POSITIVITY_ERROR_FLOOR = -1e-3


def check_positivity(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of rho (as a probability, kernel * dx).

    Emits PositivityWarning below POSITIVITY_WARN_FLOOR and raises
    PositivityError below POSITIVITY_ERROR_FLOOR.  Returns the minimum
    eigenvalue either way.  A factor-backed state keeps no kernel.
    """
    lam_min = float(np.linalg.eigvalsh(rho._kernel() * rho.grid.dx)[0])
    if lam_min < POSITIVITY_ERROR_FLOOR:
        raise PositivityError(f"eigenvalue {lam_min:.3e} below {POSITIVITY_ERROR_FLOOR:.1e}")
    if lam_min < POSITIVITY_WARN_FLOOR:
        warnings.warn(
            f"eigenvalue {lam_min:.3e} below {POSITIVITY_WARN_FLOOR:.1e}", PositivityWarning
        )
    return lam_min
