"""Branch decomposition of the decohering state and its stochastic unraveling.

A branch tree alternates open-system evolution over an interval Delta t with
a window-POVM split of every leaf: child weights follow the repeated-
application rule w = Tr(Pi_alpha^2 rho), child states the Lueders update
Pi rho Pi / Tr(Pi rho Pi).  Sampling one child per step instead of keeping
all of them yields a stochastic trajectory whose history distribution is the
Born weight of the corresponding branch.

Both are read from one Hermitian factor rho ~ V diag(lam) V^H of the evolved
kernel, found by a randomized range finder (_factor).  Decoherence leaves
that kernel quasi-classical and of low numerical rank r, so the weights
dx sum_k lam_k ||Pi_alpha v_k||^2 and the children (Pi V) diag(lam) (Pi V)^H
cost O(N^2 r) per cell in place of the O(N^3) of Pi^2 and Pi rho Pi.

Every child, of a tree or of a sampler node, is held as that factor,
(lam / w_alpha, Pi_alpha V): its phase point and density read it in
O(N r), and its N x N kernel is built only when its elements are read.
A tree or sampler root made from a wave function is the packet itself,
a factor of rank 1.  Each collapse interval steps one state through the
density chain evolve records from (_evolve_kernel), so by its entry rule a
factor within the factored bound steps as it is, and any other state as a
kernel it does not keep: a branch_step holds at most one evolving N x N
kernel besides the POVM and the propagator's tables.

The module also carries an explicit system (x) environment model — a qubit
bath coupled to position — used to check that phase-space histories of the
reduced dynamics really decohere, via the decoherence functional and
configuration-space (super)orthogonality measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .dynamics import Potential, Propagator, _evolve_kernel, _SplitStep
from .errors import EmptyTree, EscapeMass, EscapeSampled, ExplosionGuard
from .pointer import POVMSet, _clip_weights
from .qstate import DensityMatrix, GridSpec, PhasePoint, WaveFunction, _Factor, mean_phase_point

__all__ = [
    "BranchNode",
    "BranchTree",
    "BornSampler",
    "branch_step",
    "mixture_consistency",
    "suggested_branch_interval",
    "ExplicitModel",
    "DecoherenceReport",
    "evolve_explicit",
    "decoherence_functional",
    "superorthogonality_overlap",
]


# Default live-leaf cap of branch_step and the most history nodes one
# BornSampler caches: both bound how many state factors stay alive.
NODE_CAP = 256


def suggested_branch_interval(lambda_rate: float, d_x: float) -> float:
    """Smallest Delta t for which one cell width dephases by at least e^-3."""
    if lambda_rate <= 0 or d_x <= 0:
        raise ValueError("lambda_rate and d_x must be positive")
    return 3.0 / (lambda_rate * d_x * d_x)


@dataclass
class BranchNode:
    """One branch: its cell history, Born weight, state, and phase-space label."""

    history: tuple[int, ...]
    weight_sq: float
    state: DensityMatrix
    z: PhasePoint
    # P(cell | history so far) at each collapse, root first, kept for audits;
    # no reference to ancestor nodes, so their kernels can be freed
    cond_probs: tuple[float, ...] = ()


@dataclass
class BranchTree:
    """All live branches plus the mass that left the bookkeeping.

    dropped_weight collects pruned children (weight below prune_epsilon);
    escape_weight collects mass assigned to the remainder element.  Neither
    is ever renormalized back into the leaves.
    """

    povm: POVMSet
    dt: float
    prune_epsilon: float
    leaves: list[BranchNode]
    dropped_weight: float = 0.0
    escape_weight: float = 0.0
    n_steps: int = 0

    @classmethod
    def from_state(cls, rho: DensityMatrix, povm: POVMSet, dt: float, prune_epsilon: float = 0.0):
        root = BranchNode((), 1.0, rho, mean_phase_point(rho))
        return cls(povm, dt, prune_epsilon, [root])

    def weight_closure(self) -> float:
        return sum(leaf.weight_sq for leaf in self.leaves) + self.dropped_weight + self.escape_weight

    def snapshot(self) -> list[dict]:
        """JSON-ready rows, one per leaf."""
        return [
            {
                "history": list(leaf.history),
                "weight": leaf.weight_sq,
                "z": [leaf.z.q, leaf.z.p],
            }
            for leaf in self.leaves
        ]


@lru_cache(maxsize=16)
def _sketch(n: int, k: int) -> np.ndarray:
    """Fixed-seed real Gaussian test matrix of shape (n, k), stored complex
    for the products with the kernel.  Drawn from its own generator, so no
    trajectory stream is touched; read-only, as it is shared."""
    omega = np.random.default_rng(0x5EED).standard_normal((n, k)).astype(np.complex128)
    omega.flags.writeable = False
    return omega


def _factor(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) with elements ~ V diag(lam) V^H and orthonormal columns V.

    A randomized range finder with one re-orthonormalized power step
    (Halko, Martinsson & Tropp 2011, sec. 4): Q = qr(rho Omega), then
    Q = qr(rho Q), then the Ritz pairs of the k x k matrix Q^H rho Q.  k
    starts at 32 and doubles until the smallest Ritz value drops below
    N eps |lam|_max, the kernel's own roundoff floor, so the rank follows
    from the input; at k = N the full eigh is taken instead.  Ritz pairs
    below eps |lam|_max carry roundoff only and are dropped.  lam keeps its
    sign, so a kernel that is not positive yields negative weights.
    """
    n = elements.shape[0]
    eps = np.finfo(float).eps
    k = min(n, 32)
    while k < n:
        q = np.linalg.qr(elements @ _sketch(n, k))[0]
        q = np.linalg.qr(elements @ q)[0]
        lam, ritz = np.linalg.eigh(q.conj().T @ (elements @ q))
        if np.abs(lam).min() <= n * eps * np.abs(lam).max():
            vecs = q @ ritz
            break
        k *= 2
    else:
        lam, vecs = np.linalg.eigh(elements)
    keep = np.abs(lam) > eps * np.abs(lam).max()
    return lam[keep], vecs[:, keep]


def _interval_propagator(
    grid: GridSpec, potential: Potential, lambda_rate: float, dt: float,
    dt_int: float | None = None,
) -> tuple[Propagator, int]:
    """Substep map for one interval dt cut into round(dt / dt_int) equal
    substeps; dt_int None cuts it into substeps of about 0.01."""
    n_sub = max(1, int(round(dt / (0.01 if dt_int is None else dt_int))))
    return Propagator(grid, potential, lambda_rate, dt / n_sub), n_sub


def _weigh(
    povm: POVMSet, elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Factor a kernel and weigh the cells.

    With the factor rho = V diag(lam) V^H, the weight Tr(Pi_alpha^2 rho) of
    cell alpha is dx sum_k lam_k ||Pi_alpha v_k||^2, and the escape weight
    is the same sum over Pi_rest V = V - sum_alpha Pi_alpha V.  Raises
    PositivityError below -1e-10.  Returns (lam, V, the stack of Pi_alpha V,
    cell weights, escape weight); the N x N kernel is not kept.
    """
    lam, vecs = _factor(elements)
    projs = povm.project(vecs)
    dx = povm.grid.dx
    # the stack of the cells' factors (lam, Pi_alpha V), and the remainder's
    cells = _Factor(lam, projs.transpose(0, 2, 1))
    rest = _Factor(lam, (vecs - projs.sum(axis=0)).T)
    weights, esc = _clip_weights(cells.mass() * dx, float(rest.mass()) * dx)
    return lam, vecs, projs, weights, esc


def _collapse(grid: GridSpec, proj: np.ndarray, lam: np.ndarray, weight: float) -> DensityMatrix:
    """Lueders child Pi rho Pi / w of rho = V diag(lam) V^H, from proj = Pi V
    and the cell weight w > 0, held as the factor (lam / w, Pi V)."""
    return DensityMatrix._from_factor(grid, _Factor(lam / weight, proj.T))


def branch_step(
    tree: BranchTree,
    potential: Potential,
    lambda_rate: float,
    dt_int: float | None,
    escape_tol: float = 0.05,
    leaf_cap: int = NODE_CAP,
) -> BranchTree:
    """Evolve every leaf for the branching interval, then split it.

    dt_int is the internal integrator step; the interval tree.dt is evolved
    in round(tree.dt / dt_int) equal substeps, of about 0.01 for None.
    Raises EscapeMass when any leaf sends more than escape_tol of its
    conditional weight to the remainder, and ExplosionGuard when the
    live-leaf count would exceed leaf_cap (raise prune_epsilon or coarsen
    the partition instead).
    """
    if not tree.leaves:
        raise EmptyTree("branch_step needs at least one live leaf")
    grid = tree.povm.grid
    prop, n_sub = _interval_propagator(grid, potential, lambda_rate, tree.dt, dt_int)

    new_leaves: list[BranchNode] = []
    dropped = tree.dropped_weight
    escaped = tree.escape_weight
    for leaf in tree.leaves:
        lam, _, projs, weights, esc = _weigh(
            tree.povm, _evolve_kernel(prop, leaf.state, n_sub)
        )
        total = weights.sum() + esc
        if total <= 0:
            raise EmptyTree(f"leaf {leaf.history} has no weight anywhere")
        if esc / total > escape_tol:
            raise EscapeMass(
                f"leaf {leaf.history}: escape fraction {esc / total:.3f} > {escape_tol}"
            )
        escaped += leaf.weight_sq * esc / total
        for alpha in np.nonzero(weights)[0]:
            cond = weights[alpha] / total
            w_child = leaf.weight_sq * cond
            if w_child < tree.prune_epsilon:
                dropped += w_child
                continue
            # a copy, so a child does not keep its pruned siblings' rows alive
            child = _collapse(grid, projs[alpha].copy(), lam, weights[alpha])
            new_leaves.append(
                BranchNode(
                    leaf.history + (int(alpha),),
                    w_child,
                    child,
                    mean_phase_point(child),
                    leaf.cond_probs + (cond,),
                )
            )
        if len(new_leaves) > leaf_cap:
            raise ExplosionGuard(
                f"leaf count {len(new_leaves)} exceeds cap {leaf_cap}"
            )
    return BranchTree(
        tree.povm,
        tree.dt,
        tree.prune_epsilon,
        new_leaves,
        dropped_weight=dropped,
        escape_weight=escaped,
        n_steps=tree.n_steps + 1,
    )


@dataclass
class _HistoryNode:
    """A BornSampler cache entry: the state after one collapse history and,
    once evolved, the factor (lam, V) and cell weights of the next interval.
    Past the root the state is the Lueders child as a factor, so a node
    holds N x r arrays only; the collapse interval steps it through the
    one density chain, which keeps no kernel on it."""

    state: DensityMatrix
    z: PhasePoint
    lam: Optional[np.ndarray] = None
    vecs: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    total: float = 0.0


class BornSampler:
    """Born-weighted collapse trajectories from one initial state.

    Trajectories that share a collapse-history prefix share its evolution.
    The history tree is expanded lazily, keyed by prefix: a node keeps its
    post-collapse state, as the factor (lam / w_alpha, Pi_alpha V), and
    phase point and, once a trajectory leaves it, the factor (lam, V) of
    the evolved kernel and the cell weights of the next interval.  Each
    trajectory draws from its own rng stream against those weights.  The
    float operations per history are those of evolving it alone, so results
    are bit-identical to independent sampling.  At most NODE_CAP nodes are
    cached, each holding N x r arrays only (a root built from a wave
    function is its rank-1 factor); past the cap, trajectories continue on
    uncached states.
    """

    def __init__(
        self,
        rho0: DensityMatrix,
        potential: Potential,
        lambda_rate: float,
        povm: POVMSet,
        dt: float,
        dt_int: float | None = None,
    ):
        if rho0.grid != povm.grid:
            raise ValueError("rho0 and povm must share one grid")
        self.grid = rho0.grid
        self.povm = povm
        self.dt = dt
        self._prop, self._n_sub = _interval_propagator(
            self.grid, potential, lambda_rate, dt, dt_int
        )
        root = _HistoryNode(rho0.copy(), mean_phase_point(rho0))
        self._nodes: dict[tuple[int, ...], _HistoryNode] = {(): root}

    def trajectory(self, n_steps: int, rng_seed, stop=None):
        """One history: evolve dt, collapse to one sampled cell, repeat.

        Returns (records, final_state) where records is a list of
        (t, alpha, PhasePoint); the first entry is the t = 0 readout with
        alpha = None.  Past t = 0 the final state is a factor, its kernel
        built on the first read of its elements.  Drawing the remainder
        element raises EscapeSampled with .time and .records attached.
        Deterministic for a fixed rng_seed.

        stop, when given, is called after each collapse with (t, alpha, z);
        returning True ends the run early with the records so far.
        """
        rng = np.random.default_rng(rng_seed)
        history: tuple[int, ...] = ()
        node = self._nodes[history]
        records = [(0.0, None, node.z)]
        for step in range(1, n_steps + 1):
            if node.vecs is None:
                node.lam, node.vecs, _, node.weights, esc = _weigh(
                    self.povm, _evolve_kernel(self._prop, node.state, self._n_sub)
                )
                node.total = node.weights.sum() + esc
            t = step * self.dt
            draw = rng.random() * node.total
            alpha = int(np.searchsorted(np.cumsum(node.weights), draw, side="right"))
            if alpha >= len(node.weights):
                err = EscapeSampled(f"escape element drawn at t = {t:.6g}")
                err.time = t
                err.records = records
                raise err
            history += (alpha,)
            node = self._child(history, node, alpha)
            records.append((t, alpha, node.z))
            if stop is not None and stop(t, alpha, node.z):
                break
        # a copy, so reading its elements builds no kernel on the cached node
        return records, node.state.copy()

    def _child(self, history: tuple[int, ...], parent: _HistoryNode, alpha: int) -> _HistoryNode:
        node = self._nodes.get(history)
        if node is None:
            # a drawn cell always has positive weight
            proj = self.povm.project(parent.vecs, alpha)
            state = _collapse(self.grid, proj, parent.lam, parent.weights[alpha])
            node = _HistoryNode(state, mean_phase_point(state))
            if len(self._nodes) < NODE_CAP:
                self._nodes[history] = node
        return node


def mixture_consistency(tree: BranchTree, reference: DensityMatrix) -> float:
    """Max pointwise gap between the weighted branch density and the reference.

    Both sides are position densities (kernel diagonals); the reference is
    the same initial state evolved without any collapses.  Escaped and
    pruned mass is missing from the branch side by construction.
    """
    if not tree.leaves:
        raise EmptyTree("mixture_consistency needs live leaves")
    mixed = np.zeros(reference.grid.n_points)
    for leaf in tree.leaves:
        mixed += leaf.weight_sq * leaf.state.position_density()
    return float(np.max(np.abs(mixed - reference.position_density())))


# --- explicit system (x) qubit-environment model ---------------------------


@dataclass
class ExplicitModel:
    """Pure state of the particle plus k coupled qubits.

    state has shape (n_points, 2^k); column b is the amplitude on the
    environment basis state whose bit j (LSB = qubit 0) selects the
    sigma_z eigenvalue s_j = +1 (bit 0) or -1 (bit 1).  The interaction is
    H_int = X (x) sum_j g_j sigma_z^(j); optional env_energies h_j add the
    commuting self-term sum_j h_j sigma_z^(j).
    """

    grid: GridSpec
    couplings: np.ndarray
    state: np.ndarray
    env_energies: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.couplings = np.atleast_1d(np.asarray(self.couplings, dtype=float))
        k = self.k
        if k > 12:
            raise ValueError(f"k = {k} exceeds the desk-scale cap of 12")
        if not np.all(np.isfinite(self.couplings)):
            raise ValueError("couplings must be finite")
        self.state = np.asarray(self.state, dtype=np.complex128)
        if self.state.shape != (self.grid.n_points, 2**k):
            raise ValueError(f"state must have shape (n_points, 2^{k})")
        if self.env_energies is not None:
            self.env_energies = np.asarray(self.env_energies, dtype=float)
            if self.env_energies.shape != (k,):
                raise ValueError("env_energies must match the number of qubits")
            if not np.all(np.isfinite(self.env_energies)):
                raise ValueError("env_energies must be finite")
        # a non-finite amplitude makes the norm nan or inf
        nrm = self.norm_squared()
        if not math.isfinite(nrm) or abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"joint state not normalized: {nrm!r}")

    @property
    def k(self) -> int:
        return len(self.couplings)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.state) ** 2) * self.grid.dx)

    @classmethod
    def from_wavefunction(cls, psi: WaveFunction, couplings, env_energies=None):
        """System state (x) environment in the uniform superposition |+>^k."""
        couplings = np.atleast_1d(np.asarray(couplings, dtype=float))
        b = 2 ** len(couplings)
        joint = np.repeat(psi.amplitudes[:, None], b, axis=1) / math.sqrt(b)
        return cls(psi.grid, couplings, joint, env_energies)

    def sigma_signs(self) -> np.ndarray:
        """s_j(b) matrix of shape (2^k, k): +1 for bit 0, -1 for bit 1."""
        b = np.arange(2**self.k)
        bits = (b[:, None] >> np.arange(self.k)[None, :]) & 1
        return 1.0 - 2.0 * bits

    def reduced_density(self) -> DensityMatrix:
        """Trace out the qubits."""
        rho = self.state @ self.state.conj().T
        return DensityMatrix(self.grid, rho, validate=False)


@dataclass
class DecoherenceReport:
    """Conditioned-environment overlaps and history-consistency diagnostics."""

    bin_bounds: Optional[list] = None
    bin_mass: Optional[np.ndarray] = None
    bin_centroids: Optional[np.ndarray] = None
    env_overlaps: Optional[np.ndarray] = None
    consistency_ratios: Optional[np.ndarray] = None
    reduced_rho: Optional[DensityMatrix] = None


def _explicit_rows(
    model: ExplicitModel, potential: Potential, dt: float
) -> tuple[np.ndarray, _SplitStep, np.ndarray]:
    """The distinct rows of the joint state transposed to (2^k, n_points),
    their split-step core and the index that expands them: a block stepped
    from rows, indexed by inverse, is the block of every row.

    Row b's diagonal phase covers V(x) plus the full interaction s_b x and
    any sigma_z self-term h_b, all of which commute; with k = 0 this is
    exactly the single-particle Strang step.  Its phase row is built from
    the two scalars alone, so rows with the same bits of (s_b, h_b) and the
    same initial row are one computation, bit for bit, and each such group
    is stepped once.  The representatives stay C-ordered rows, the core's
    layout.
    """
    signs = model.sigma_signs()  # (2^k, k)
    shift = signs @ model.couplings  # s_b = sum_j g_j s_j(b)
    env = signs @ model.env_energies if model.env_energies is not None else np.zeros(len(shift))
    rows = np.ascontiguousarray(model.state.T)
    # ids of the distinct initial rows, keyed on bits so 0.0 and -0.0 stay
    # apart; np.unique(bits, axis=0) groups alike, but its row-as-record
    # compares take 30 times as long on the equal rows of from_wavefunction
    bits = rows.view(np.uint64)
    order = np.lexsort(bits.T)
    srt = bits[order]
    start = np.empty(len(rows), dtype=np.int64)
    start[order] = np.cumsum(np.r_[False, (srt[1:] != srt[:-1]).any(axis=1)])
    keys = np.column_stack((shift.view(np.int64), env.view(np.int64), start))
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    grid = model.grid
    diag = potential.values(grid) + shift[first, None] * grid.x + env[first, None]
    return rows[first], _SplitStep(grid, diag, dt), inverse.reshape(-1)


def evolve_explicit(
    model: ExplicitModel,
    potential: Potential,
    dt: float,
    n_steps: int,
    bins: Optional[Sequence[tuple[float, float]]] = None,
) -> tuple[ExplicitModel, DecoherenceReport]:
    """Run the joint unitary dynamics and report conditioned-env overlaps.

    The transposed (2^k, n_points) block steps each distinct environment
    row once, as one fused split-step call (see _explicit_rows), and is
    expanded to every row before anything reads it.

    bins are position intervals; each nonempty bin is represented by the
    grid point nearest its probability centroid, and the environment ket at
    that point (normalized column of the joint state) stands in for the
    branch's environment state.  Defaults to the two window halves.
    """
    grid = model.grid
    rows, core, inverse = _explicit_rows(model, potential, dt)
    state = np.ascontiguousarray(core.run(rows, n_steps)[inverse].T)
    out = ExplicitModel(grid, model.couplings, state, model.env_energies)

    if bins is None:
        mid = 0.5 * (grid.x_min + grid.x_max)
        bins = [(grid.x_min, mid), (mid, grid.x_max)]
    density = np.sum(np.abs(state) ** 2, axis=1) * grid.dx
    kets, masses, kept, reps = [], [], [], []
    for lo, hi in bins:
        sel = (grid.x >= lo) & (grid.x < hi)
        mass = float(density[sel].sum())
        if mass < 1e-12:
            continue
        centroid = float(np.sum(grid.x[sel] * density[sel]) / mass)
        idx = int(np.argmin(np.abs(grid.x - centroid)))
        ket = state[idx]
        nrm = np.linalg.norm(ket)
        if nrm == 0:
            continue
        kets.append(ket / nrm)
        masses.append(mass)
        kept.append((float(lo), float(hi)))
        reps.append(grid.x[idx])
    m = len(kets)
    overlaps = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            overlaps[a, b] = min(abs(np.vdot(kets[a], kets[b])), 1.0)
    report = DecoherenceReport(
        bin_bounds=kept,
        bin_mass=np.asarray(masses),
        bin_centroids=np.asarray(reps),
        env_overlaps=overlaps,
        reduced_rho=out.reduced_density(),
    )
    return out, report


def decoherence_functional(
    model: ExplicitModel,
    projectors: Sequence[np.ndarray],
    history_set: Sequence[tuple[int, ...]],
    potential: Potential,
    dt: float,
) -> tuple[np.ndarray, DecoherenceReport]:
    """Gram matrix of history vectors C_hist |Psi0> plus consistency ratios.

    A history (a_0, ..., a_N) applies projector a_0, then alternates the
    joint unitary over dt with the next projector: C = P_aN U ... U P_a0.
    Projectors act on the particle index only, so the history vectors
    step each distinct environment row once (see _explicit_rows) and are
    expanded to every row for the Gram sum alone.  Shared prefixes are
    evaluated once.  Cost grows with len(histories) and N; both are capped.
    """
    histories = [tuple(h) for h in history_set]
    if not histories:
        raise ValueError("history_set must be nonempty")
    if len(histories) > 64:
        raise ValueError("history_set capped at 64 histories")
    length = len(histories[0])
    if any(len(h) != length for h in histories):
        raise ValueError("all histories must share one length")
    if length > 5:
        raise ValueError("histories capped at 5 entries (4 evolution steps)")

    rows, core, inverse = _explicit_rows(model, potential, dt)
    grid = model.grid
    # history vectors of the distinct rows, C-ordered, the core's layout
    cache: dict[tuple[int, ...], np.ndarray] = {(): rows}

    def vector(prefix: tuple[int, ...]) -> np.ndarray:
        if prefix in cache:
            return cache[prefix]
        prev = vector(prefix[:-1])
        cur = prev if len(prefix) == 1 else core.run(prev)
        out = cur @ projectors[prefix[-1]].T
        cache[prefix] = out
        return out

    vecs = [vector(h)[inverse] for h in histories]
    m = len(histories)
    d = np.empty((m, m), dtype=np.complex128)
    for a in range(m):
        for b in range(m):
            d[a, b] = np.sum(vecs[b].conj() * vecs[a]) * grid.dx
    diag = np.real(np.diag(d))
    ratios = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            denom = math.sqrt(max(diag[a], 0.0) * max(diag[b], 0.0))
            ratios[a, b] = abs(d[a, b]) / denom if denom > 1e-300 else 0.0
    return d, DecoherenceReport(consistency_ratios=ratios)


def superorthogonality_overlap(branch_a: ExplicitModel, branch_b: ExplicitModel) -> float:
    """Bhattacharyya coefficient of the two configuration-space densities.

    Configuration space is (grid point, qubit basis state); 1 means the
    branches live on identical configurations (however orthogonal their
    phases), 0 means disjoint supports.
    """
    if branch_a.grid is not branch_b.grid and branch_a.grid != branch_b.grid:
        raise ValueError("branches must share a grid")
    if branch_a.state.shape != branch_b.state.shape:
        raise ValueError("branches must share the environment dimension")
    pa = np.abs(branch_a.state) ** 2 * branch_a.grid.dx
    pb = np.abs(branch_b.state) ** 2 * branch_b.grid.dx
    return float(np.sum(np.sqrt(pa * pb)))
