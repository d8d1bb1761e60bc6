"""Phase-space partitions, coherent-state window POVMs, predictability sieve.

A partition tiles a rectangle of phase space with cells mu_alpha; each cell
gets the positive operator Pi_alpha = (1/2pi) int_cell |Z><Z| dQ dP built by
per-cell quadrature over coherent states of width sigma_x.  A coherent
state's |Z(x)|^2 does not depend on P, so the quadrature sum is separable:
Pi_alpha = G o T, the Schur product of a real Gram matrix G of the
q-envelopes and a Hermitian matrix T of the p plane waves.  A cell then
costs O((n_q + n_p) N^2), not O(n_q n_p N^2).  The remainder
Pi_rest = I - sum Pi_alpha is kept as the exact subtraction so completeness
is an identity; it is positive up to quadrature error only (the continuum
remainder integral is an operator <= I); it is built on its first read,
as collapsing never reads it.  A state being collapsed meets
the operators only through POVMSet.project, as Pi_alpha V for a factor
rho = V diag(lam) V^H of its kernel with r << N columns: branch weights and
Lueders children cost O(N^2 r) per cell, and no Pi_alpha^2 is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dynamics import Potential, Propagator, _evolve_on
from .errors import PositivityError, RuleError, WindowTooSmall
from .qstate import DensityMatrix, GridSpec, PhasePoint, _check_width, coherent_state

__all__ = [
    "PhasePartition",
    "POVMSet",
    "SieveResult",
    "build_povm",
    "pvm_quality",
    "predictability_sieve",
]


@dataclass(frozen=True)
class PhasePartition:
    """Rectangular window tiled by n_x * n_p equal cells.

    Cell (i, j) covers [q_i, q_{i+1}] x [p_j, p_{j+1}] and carries the flat
    index alpha = i * n_p + j.  Cell volume d_x * d_p may not drop below 1
    (a coherent-state cell has volume 2 pi sigma_x sigma_p = pi).
    """

    x_window: tuple[float, float]
    p_window: tuple[float, float]
    n_x: int
    n_p: int

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("x_window", self.x_window), ("p_window", self.p_window)):
            if not hi > lo:
                raise RuleError(f"{name}[1]", f"{name} must be ordered (lo, hi)")
        if self.n_x < 1 or self.n_p < 1:
            raise ValueError("need at least one cell per axis")
        volume = self.d_x * self.d_p
        if volume < 1.0 - 1e-9:
            finer = "n_x" if self.d_x <= self.d_p else "n_p"
            raise RuleError(finer, f"cell volume d_x * d_p = {volume:.4g} below the floor of 1")

    @property
    def d_x(self) -> float:
        return (self.x_window[1] - self.x_window[0]) / self.n_x

    @property
    def d_p(self) -> float:
        return (self.p_window[1] - self.p_window[0]) / self.n_p

    @property
    def n_cells(self) -> int:
        return self.n_x * self.n_p

    def index(self, i: int, j: int) -> int:
        return i * self.n_p + j

    def ij(self, alpha: int) -> tuple[int, int]:
        return divmod(alpha, self.n_p)

    def cell_bounds(self, alpha: int) -> tuple[float, float, float, float]:
        i, j = self.ij(alpha)
        return (
            self.x_window[0] + i * self.d_x,
            self.x_window[0] + (i + 1) * self.d_x,
            self.p_window[0] + j * self.d_p,
            self.p_window[0] + (j + 1) * self.d_p,
        )

    def cell_center(self, alpha: int) -> PhasePoint:
        q1, q2, p1, p2 = self.cell_bounds(alpha)
        return PhasePoint(0.5 * (q1 + q2), 0.5 * (p1 + p2))

    def locate(self, q: float, p: float) -> int | None:
        """Flat index of the cell containing (q, p), or None outside the window."""
        i = math.floor((q - self.x_window[0]) / self.d_x)
        j = math.floor((p - self.p_window[0]) / self.d_p)
        if 0 <= i < self.n_x and 0 <= j < self.n_p:
            return self.index(i, j)
        return None

    def adjacent(self, alpha: int, beta: int) -> bool:
        """True when cells share an edge or a corner (or are equal)."""
        ia, ja = self.ij(alpha)
        ib, jb = self.ij(beta)
        return max(abs(ia - ib), abs(ja - jb)) <= 1

    def shifted(self, dq: float, dp: float) -> "PhasePartition":
        return PhasePartition(
            (self.x_window[0] + dq, self.x_window[1] + dq),
            (self.p_window[0] + dp, self.p_window[1] + dp),
            self.n_x,
            self.n_p,
        )


def _envelopes(grid: GridSpec, q, sigma_x: float) -> np.ndarray:
    """Unnormalized Gaussian envelopes exp(-(x - q_a)^2 / 4 sigma_x^2), row a."""
    return np.exp(-((grid.x - np.asarray(q, dtype=float)[:, None]) ** 2) / (4.0 * sigma_x**2))


def _packets(grid: GridSpec, q, p, sigma_x: float) -> np.ndarray:
    """Discretely normalized Gaussians at the nodes (q_a, p_b), row a * len(p) + b:
    the broadcast product of q-only envelopes and p-only plane waves.  No
    containment guard (quadrature nodes may sit near the window edge, where
    the escape element absorbs the loss)."""
    env = _envelopes(grid, q, sigma_x)
    wave = np.exp(1j * np.asarray(p, dtype=float)[:, None] * grid.x)
    block = (env[:, None, :] * wave[None, :, :]).reshape(-1, grid.n_points)
    nrm = np.sqrt(np.sum(np.abs(block) ** 2, axis=1) * grid.dx)
    if np.any(nrm <= 0):
        raise ValueError(f"a packet at q in {q}, p in {p} has no support on the grid")
    block /= nrm[:, None]
    return block


def _cell_rule(n: int, rule: str):
    """The n-point rule on one axis as a map (lo, hi) -> (nodes, weights);
    Gauss-Legendre reference nodes are computed here once, then mapped
    affinely onto every cell."""
    if rule == "midpoint":
        frac = np.arange(n) + 0.5
        return lambda lo, hi: (lo + frac * ((hi - lo) / n), np.full(n, (hi - lo) / n))
    if rule == "gauss":
        ref, ref_w = np.polynomial.legendre.leggauss(n)
        return lambda lo, hi: (
            0.5 * (hi + lo) + 0.5 * (hi - lo) * ref, 0.5 * (hi - lo) * ref_w
        )
    raise ValueError(f"unknown quadrature rule {rule!r}")


@dataclass
class POVMSet:
    """Immutable bundle of cell operators, the exact remainder, and metadata.

    operators[alpha] acts by plain matrix multiplication (one dx factor is
    absorbed), so Tr(Pi rho) = sum(Pi * rho.T) * dx and the identity is eye.
    The remainder rest is built on its first read: collapsing a state needs
    Pi_rest V = V - sum_alpha Pi_alpha V only.
    """

    grid: GridSpec
    partition: PhasePartition
    sigma_x: float
    operators: np.ndarray
    rule: str
    quadrature: tuple[int, int]
    _rest: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def rest(self) -> np.ndarray:
        """Pi_rest = I - sum_alpha Pi_alpha, built on first read."""
        if self._rest is None:
            # in place, with the bits of eye(n) - sum: 1 + (0 - s) is 1 - s
            rest = self.operators.sum(axis=0)
            np.subtract(0.0, rest, out=rest)
            rest[np.diag_indices(self.grid.n_points)] += 1.0
            self._rest = rest
        return self._rest

    def trace_product(self, op: np.ndarray, rho: DensityMatrix) -> float:
        return float(np.sum(op * rho._kernel().T).real * self.grid.dx)

    def probabilities(self, rho: DensityMatrix) -> tuple[np.ndarray, float]:
        """(Tr(Pi_alpha rho) per cell, Tr(Pi_rest rho)); tiny negatives clipped.

        Tr(Pi_rest rho) = Tr rho - sum_alpha Tr(Pi_alpha rho) builds no rest,
        and a factor-backed state keeps no kernel.  Raises PositivityError
        when any weight drops below -1e-10 (a corrupted state, not roundoff).
        """
        probs = (
            np.einsum("aij,ji->a", self.operators, rho._kernel()).real * self.grid.dx
        )
        return _clip_weights(probs, rho.trace() - float(probs.sum()))

    def project(self, vecs: np.ndarray, alpha: int | None = None) -> np.ndarray:
        """Pi_alpha V for the columns V of a factor rho = V diag(lam) V^H;
        with alpha None, the stack of Pi_alpha V over every cell.

        The one place where a cell operator meets a state being collapsed:
        the weight Tr(Pi_alpha^2 rho) and the Lueders update Pi_alpha rho
        Pi_alpha both follow from Pi_alpha V, in O(N^2 r) for r columns.
        """
        return (self.operators if alpha is None else self.operators[alpha]) @ vecs


def _clip_weights(weights: np.ndarray, escape: float) -> tuple[np.ndarray, float]:
    """Cell and escape weights with roundoff negatives clipped to zero.

    Raises PositivityError when any weight drops below -1e-10, which
    signals a corrupted state or kernel rather than roundoff.
    """
    low = min(weights.min(), escape)
    if low < -1e-10:
        raise PositivityError(f"cell weight {low:.3e} below -1e-10")
    return np.clip(weights, 0.0, None), max(escape, 0.0)


def _check_on_grid(grid: GridSpec, partition: PhasePartition) -> None:
    """The partition's rule on a grid: its x-window inside [x_min, x_max],
    its p-window within the momentum grid's +-pi/dx."""
    (x_lo, x_hi), (p_lo, p_hi) = partition.x_window, partition.p_window
    for field, inside in (
        ("x_window[0]", x_lo >= grid.x_min), ("x_window[1]", x_hi <= grid.x_max),
        ("p_window[0]", abs(p_lo) <= grid.p_max), ("p_window[1]", abs(p_hi) <= grid.p_max),
    ):
        if not inside:
            raise RuleError(field, f"partition {field} outside the grid: x in [{grid.x_min:g}, "
                            f"{grid.x_max:g}], |p| <= pi/dx = {grid.p_max:g}")


def build_povm(
    grid: GridSpec,
    partition: PhasePartition,
    sigma_x: float,
    quadrature: tuple[int, int] | None = None,
    rule: str = "gauss",
) -> POVMSet:
    """Assemble one positive operator per cell; the exact remainder is built
    on its first read (POVMSet.rest).

    quadrature = (n_q, n_p) subsample counts per cell, each at least 2;
    None (the default) scales the counts with the cell size in coherent
    units, which keeps Gauss-Legendre at analytic-integral accuracy from
    2-sigma cells up to one cell covering the whole window.  Midpoint is
    supported as a cheaper, coarser alternative.  A cell operator is the
    Hermitian part of G o T, with G = E^T diag(w_q / ||env||^2) E one real
    gemm per strip of cells sharing a q-interval and T = W^T diag(w_p) conj(W)
    one complex gemm per cell.  Raises WindowTooSmall when the remainder
    acts at more than 0.1 (operator norm) on a probe coherent state parked
    at the window center.
    """
    _check_width(grid, sigma_x)
    _check_on_grid(grid, partition)
    if quadrature is None:
        # ~1.7 nodes per coherent width resolves the oscillatory P factor
        sigma_p = 0.5 / sigma_x
        nq = min(48, math.ceil(1.7 * partition.d_x / sigma_x) + 3)
        npp = min(48, math.ceil(1.7 * partition.d_p / sigma_p) + 3)
    else:
        nq, npp = quadrature
    if nq < 2 or npp < 2:
        raise ValueError("quadrature must be at least (2, 2)")

    q_rule, p_rule = _cell_rule(nq, rule), _cell_rule(npp, rule)
    n = grid.n_points
    # dx / 2pi of the measure times the 1/2 of the Hermitian part
    scale = 0.5 * grid.dx / (2.0 * math.pi)
    ops = np.empty((partition.n_cells, n, n), dtype=np.complex128)
    for i in range(partition.n_x):
        q1, q2, _, _ = partition.cell_bounds(partition.index(i, 0))
        qn, qw = q_rule(q1, q2)
        env = _envelopes(grid, qn, sigma_x)
        # a node inside the grid window, of width at least 2 dx, has support
        norm_sq = np.sum(env * env, axis=1) * grid.dx
        # |packet|^2 is free of p: one real Gram matrix G per strip of
        # cells sharing this q-interval, with scale folded into its weights
        gram = (env * (qw * scale / norm_sq)[:, None]).T @ env
        del env
        for j in range(partition.n_p):
            alpha = partition.index(i, j)
            _, _, p1, p2 = partition.cell_bounds(alpha)
            pn, pw = p_rule(p1, p2)
            wave = np.exp(1j * pn[:, None] * grid.x)
            # Pi_alpha = G o T with the Hermitian T = W^T diag(w_p) conj(W)
            op = (wave * pw[:, None]).T @ np.conjugate(wave, out=wave)
            op *= gram
            # op^H + op, bitwise Hermitian, written straight into the stack
            np.conjugate(op.T, out=ops[alpha])
            ops[alpha] += op
            del op  # freed before the next cell's T is allocated

    povm = POVMSet(grid, partition, sigma_x, ops, rule, (nq, npp))
    leak = _probe_leak(povm)
    if leak > 0.1:
        raise WindowTooSmall(
            f"remainder acts at {leak:.3f} on a centered probe packet "
            f"(window {partition.x_window} x {partition.p_window})"
        )
    return povm


def _probe_leak(povm: POVMSet) -> float:
    """Operator norm of Pi_rest |v><v| dx for the packet v at the window center;
    the product has rank one, so the norm is ||Pi_rest v|| ||v|| dx, with
    Pi_rest v = v - sum_alpha Pi_alpha v."""
    part = povm.partition
    v = _packets(povm.grid, [sum(part.x_window) / 2], [sum(part.p_window) / 2], povm.sigma_x)[0]
    rest_v = v - povm.project(v).sum(axis=0)
    return float(np.linalg.norm(rest_v) * np.linalg.norm(v) * povm.grid.dx)


# Power-iteration budget of _opnorm_power: at most this many iterations,
# stopping once the estimate moves by less than the relative tolerance.
_POWER_ITERS = 60
_POWER_TOL = 1e-12


def _opnorm_power(m: np.ndarray) -> float:
    """Largest singular value by power iteration on m^H m; deterministic start."""
    n = m.shape[0]
    v = np.ones(n, dtype=np.complex128) + 1e-3 * np.cos(np.arange(n))
    v /= np.linalg.norm(v)
    last = 0.0
    for _ in range(_POWER_ITERS):
        w = m @ v
        v = m.conj().T @ w
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
        v /= nv
        s = math.sqrt(nv)
        if abs(s - last) <= _POWER_TOL * max(s, 1.0):
            return s
        last = s
    return last


def pvm_quality(povm: POVMSet, exact: bool = False) -> dict:
    """Approximate-PVM diagnostics.

    Returns completeness_residual (operator norm of sum + rest - I, an
    identity of the construction), the full orthogonality matrix with
    entries ||Pi_a Pi_b - delta_ab Pi_a|| / ||Pi_a||, and summary scalars:
    worst_offdiag, worst_adjacent_offdiag, worst_nonadjacent_offdiag,
    worst_diagonal_defect.  exact=True swaps power iteration for full SVDs.
    """
    norm = (lambda m: float(np.linalg.norm(m, 2))) if exact else _opnorm_power
    ops = povm.operators
    m = len(ops)
    total = ops.sum(axis=0) + povm.rest - np.eye(povm.grid.n_points)
    residual = float(np.linalg.norm(total, 2))

    base = np.array([norm(ops[a]) for a in range(m)])
    orth = np.zeros((m, m))
    for a in range(m):
        pa = ops[a]
        for b in range(m):
            prod = pa @ ops[b]
            if a == b:
                prod = prod - pa
            orth[a, b] = norm(prod) / base[a]

    part = povm.partition
    off = ~np.eye(m, dtype=bool)
    adj = np.zeros((m, m), dtype=bool)
    for a in range(m):
        for b in range(m):
            adj[a, b] = a != b and part.adjacent(a, b)
    far = off & ~adj
    return {
        "completeness_residual": residual,
        "orthogonality_matrix": orth,
        "worst_offdiag": float(orth[off].max()) if m > 1 else 0.0,
        "worst_adjacent_offdiag": float(orth[adj].max()) if adj.any() else 0.0,
        "worst_nonadjacent_offdiag": float(orth[far].max()) if far.any() else 0.0,
        "worst_diagonal_defect": float(np.diag(orth).max()),
    }


@dataclass
class SieveResult:
    """Linear-entropy curves from scanning initial packet widths."""

    sigma_list: np.ndarray
    times: np.ndarray
    curves: np.ndarray  # shape (len(sigma_list), len(times))
    argmin_width: float

    def as_columns(self) -> dict:
        """sigma, t, s_lin columns in CSV order, one row per (width, time)."""
        n_sigma, n_times = self.curves.shape
        return {
            "sigma": np.repeat(self.sigma_list, n_times),
            "t": np.tile(self.times, n_sigma),
            "s_lin": self.curves.ravel(),
        }


def _sieve_widths(grid: GridSpec, sigma_list: Sequence[float]) -> np.ndarray:
    """sigma_list as an array of at least one width, each meeting _check_width."""
    widths = np.asarray(list(sigma_list), dtype=float)
    if widths.size == 0:
        raise RuleError("sigma_list", "sigma_list must be nonempty")
    for sigma in widths.tolist():
        _check_width(grid, sigma, "sigma_list")
    return widths


def predictability_sieve(
    grid: GridSpec,
    potential: Potential,
    lambda_rate: float,
    sigma_list: Sequence[float],
    z0: PhasePoint,
    horizon: float,
    dt: float = 0.01,
    record_every: int | None = None,
) -> SieveResult:
    """Rank initial Gaussian widths by linear-entropy growth up to horizon.

    Each width in sigma_list seeds a pure packet at z0 which evolves under
    the open dynamics; the width whose S_lin(horizon) is smallest wins.
    """
    if horizon <= 0 or dt <= 0:
        raise ValueError("horizon and dt must be positive")
    widths = _sieve_widths(grid, sigma_list)
    n_steps = max(1, int(round(horizon / dt)))
    cadence = record_every or max(1, n_steps // 200)

    # every width shares (grid, potential, lambda_rate, dt): one propagator
    prop = Propagator(grid, potential, lambda_rate, dt)
    curves = []
    times = None
    for sigma in widths:
        psi = coherent_state(grid, z0.q, z0.p, float(sigma))
        rec = _evolve_on(prop, psi, n_steps, cadence)
        curves.append(rec.s_lin)
        times = rec.times
    curves = np.asarray(curves)
    best = int(np.argmin(curves[:, -1]))
    return SieveResult(widths, times, curves, float(widths[best]))
