"""Stochastic trajectories through the spectral entries of an evolving state.

The two-time conditional probabilities p(j at t+dt | i at t) define, step by
step, a classical Markov chain over the retained spectral entries of
rho(t). Chaining them into full multi-time trajectories is a modeling
completion made by this package: the underlying theory fixes only the
two-time conditionals, not any particular joint distribution over whole
histories. The chain is the minimal completion consistent with those
conditionals, and everything downstream of it (sampled paths, ensemble
frequency reports) should be read with that caveat.

Every grid state is read from one spectrum: rho is pushed along the grid by
the step channel's Kraus sum into one ``(n_times, d, d)`` stack, one stacked
eigendecomposition reads all of it, and the density-matrix checks and the
epistemic reading of :mod:`modaldyn.states` (purity shortcut, threshold,
degeneracy) run over the stack at once, so no per-point state objects are
made. Errors name the grid point and come in grid order.

The rows of each step are the one-block case of the conditional-probability
kernel in :mod:`modaldyn.conditional` (parent = entries at t, the one block
= entries at t+dt), computed for all entries at once. Each row must sum to
one within ``CHAIN_ROW_SUM_TOL``; the strict/permissive mode names are the
same as for conditional tables.

Branch identity across time is kept by eigenvector overlap: entries at t+dt
are greedily matched to entries at t by largest |<psi_i(t)|psi_j(t+dt)>|, so
a trajectory label follows one physical branch through eigenvalue crossings
instead of jumping with the descending-eigenvalue sort order. Labels are
created as branches appear (rank growth) and retired as they vanish.

Randomness: each trajectory uses its own PCG64 generator seeded explicitly;
a trajectory draws ``n_steps + 1`` uniforms up front, the first selecting the
initial entry and the k-th thereafter selecting the jump at step k. Ensembles
use consecutive seeds ``base_seed .. base_seed + n - 1``, which makes every
sample reproducible in isolation and the aggregate independent of execution
order. ``_uniforms`` is the one place this contract is written, and
``StepChain._walk`` the one walk: a single trajectory is its one-row case,
and an ensemble walks blocks of ``ENSEMBLE_BLOCK`` trajectories, so its
memory does not grow with the number of trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import channels as channels_mod
from .channels import KrausChannel, LindbladGenerator, _kraus_sum
from .conditional import (
    CHAIN_ROW_SUM_TOL,
    STRICT,
    _check_mode,
    _conditional_probabilities,
    _kraus_operators,
    trivial_partition,
)
from .errors import (
    DimensionMismatchError,
    InvalidDensityMatrixError,
    NormalizationError,
)
from .linalg import _ordered_eig, check_memory
from .states import DEFAULT_THRESHOLD, DensityMatrix, _density_fault, _read_spectra

# Trajectories per block of an ensemble walk. A fixed count rather than a
# fixed number of uniforms: blocks of 2^20 uniforms walk a 4,096-step chain
# 255 trajectories at a time, which took 1.3x as long.
ENSEMBLE_BLOCK = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid ``t0 + k*dt`` for ``k = 0..n_steps``."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive: {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative: {self.n_steps}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """One sampled history: ``(time, branch label, eigenvalue at that time)``."""

    points: tuple[tuple[float, int, float], ...]
    seed: int


@dataclass(frozen=True)
class EnsembleReport:
    """Empirical branch occupation against the exact eigenvalue reference.

    Arrays are indexed ``[time, branch label]``; a label absent at some time
    carries reference eigenvalue 0 and can collect no counts. Frequencies at
    each time sum to one exactly (counts over samples).
    """

    times: np.ndarray
    frequencies: np.ndarray
    eigenvalues: np.ndarray
    max_abs_deviation: float
    sample_count: int
    base_seed: int


@dataclass
class StepChain:
    """Prepared per-step conditional machinery along one time grid.

    Construction computes the step channel, the spectra of every grid state
    and the rows, so that sampling is just inverse-CDF draws.
    ``entry_probs[k]`` and ``entry_vectors[k]`` are the retained eigenvalues
    and eigenvector columns at grid point ``k``, views into the stacked
    spectrum of the grid. ``entry_labels[k][e]`` is the persistent branch
    label of retained entry ``e`` at grid point ``k``; ``raw_rows[k]`` are
    the unnormalized two-time conditional rows between grid points ``k`` and
    ``k+1``. ``cum_rows[k]`` are the cumulative normalized rows into grid
    point ``k``: ``cum_rows[0]`` is the one row of the initial eigenvalues,
    ``cum_rows[k + 1]`` comes from ``raw_rows[k]``.
    """

    grid: TimeGrid
    entry_probs: list[np.ndarray]
    entry_vectors: list[np.ndarray]
    entry_labels: list[np.ndarray]
    raw_rows: list[np.ndarray]
    n_labels: int
    cum_rows: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p0 = self.entry_probs[0]
        self.cum_rows = [np.cumsum(p0 / p0.sum())[None, :]]
        for rows in self.raw_rows:
            sums = rows.sum(axis=1, keepdims=True)
            self.cum_rows.append(np.cumsum(rows / sums, axis=1))

    @property
    def n_times(self) -> int:
        return len(self.entry_probs)

    def eigenvalue_table(self) -> np.ndarray:
        """Reference eigenvalues arranged ``[time, branch label]``."""
        table = np.zeros((self.n_times, self.n_labels))
        for k in range(self.n_times):
            table[k, self.entry_labels[k]] = self.entry_probs[k]
        return table

    def propagated_marginals(self) -> np.ndarray:
        """Chain marginals pushed forward with the exact conditional rows.

        By the law of total probability these must reproduce the eigenvalue
        table up to truncation effects; the match is a core consistency check
        on the whole construction.
        """
        table = np.zeros((self.n_times, self.n_labels))
        mu = self.entry_probs[0].copy()
        table[0, self.entry_labels[0]] = mu
        for k, rows in enumerate(self.raw_rows):
            mu = mu @ rows
            table[k + 1, self.entry_labels[k + 1]] = mu
        return table

    def _walk(self, uniforms: np.ndarray) -> np.ndarray:
        """Entry indices ``[trajectory, time]`` for uniforms ``[trajectory, time]``.

        Uniform ``u`` at grid point ``k`` picks, from the cumulative row of
        the entry held at ``k - 1`` (the initial row at ``k = 0``), the
        number of cumulative values ``<= u``: the inverse CDF. The pick is
        clamped to the last entry in case round-off leaves the row's last
        cumulative value below ``u``.
        """
        entries = np.empty(uniforms.shape, dtype=int)
        held = np.zeros(len(uniforms), dtype=int)
        for k, cum in enumerate(self.cum_rows):
            picked = (cum[held] <= uniforms[:, k, None]).sum(axis=1)
            held = entries[:, k] = np.minimum(picked, cum.shape[1] - 1)
        return entries

    def sample(self, seed: int) -> Trajectory:
        entries = self._walk(_uniforms(int(seed), 1, self.n_times))[0]
        times = self.grid.times
        points = tuple(
            (
                float(times[k]),
                int(self.entry_labels[k][entries[k]]),
                float(self.entry_probs[k][entries[k]]),
            )
            for k in range(self.n_times)
        )
        return Trajectory(points=points, seed=int(seed))


def _uniforms(first_seed: int, n_rows: int, n_times: int) -> np.ndarray:
    """Row ``i`` is ``PCG64(first_seed + i).random(n_times)``, for ``i < n_rows``.

    The package's RNG contract: trajectory ``first_seed + i`` draws these
    uniforms, whatever else is drawn with it.
    """
    out = np.empty((n_rows, n_times))
    for i in range(n_rows):
        out[i] = np.random.Generator(np.random.PCG64(first_seed + i)).random(n_times)
    return out


def _greedy_overlap_labels(
    prev_vectors: np.ndarray,
    prev_labels: np.ndarray,
    vectors: np.ndarray,
    next_label: int,
) -> tuple[np.ndarray, int]:
    """Assign persistent labels to new entries by maximal overlap.

    Greedy on the overlap magnitude matrix; ties resolve to the lowest
    (previous, new) index pair. Unmatched new entries get fresh labels in
    entry order.
    """
    m_prev = prev_vectors.shape[1]
    m_new = vectors.shape[1]
    overlap = np.abs(prev_vectors.conj().T @ vectors)
    labels = -np.ones(m_new, dtype=int)
    used_prev = np.zeros(m_prev, dtype=bool)
    for _ in range(min(m_prev, m_new)):
        masked = overlap.copy()
        masked[used_prev, :] = -1.0
        masked[:, labels >= 0] = -1.0
        a, b = np.unravel_index(int(np.argmax(masked)), masked.shape)
        labels[b] = prev_labels[a]
        used_prev[a] = True
    for b in range(m_new):
        if labels[b] < 0:
            labels[b] = next_label
            next_label += 1
    return labels, next_label


def build_step_chain(
    generator: LindbladGenerator,
    rho0: DensityMatrix,
    grid: TimeGrid,
    threshold: float = DEFAULT_THRESHOLD,
    mode: str = STRICT,
    step_channel: Optional[KrausChannel] = None,
) -> StepChain:
    """Precompute spectra and conditional rows along the grid.

    ``step_channel`` overrides the generator exponential for one grid step
    (useful for discrete-map dynamics); otherwise it is ``exp(L*dt)``.
    In strict mode any degenerate spectrum along the grid refuses the chain.
    """
    mode = _check_mode(mode)
    if step_channel is None:
        step_channel = channels_mod.evolve(generator, grid.dt)
    ops = _kraus_operators(step_channel)
    layout = rho0.layout
    d = layout.total_dim
    if step_channel.dim != d:
        raise DimensionMismatchError(
            f"channel dim {step_channel.dim} does not match state dim {d}"
        )
    n_times = grid.n_steps + 1
    check_memory(n_times * d * d, f"a stack of {n_times} grid states")
    states = np.empty((n_times, d, d), dtype=complex)
    states[0] = rho0.matrix
    every = tuple(range(layout.n_factors))
    for k in range(grid.n_steps):
        rho = states[k].reshape(layout.dims * 2)
        states[k + 1] = _kraus_sum(ops, rho, every).reshape(d, d)
    w, v = _ordered_eig(states)

    def point(k: int) -> str:
        return f"grid point {k} (t={grid.t0 + k * grid.dt:g})"

    # errors come in grid order, as if each point were read as it is reached
    fault = _density_fault(states, w)
    n_ok = n_times if fault is None else fault[0]
    probs, counts, _ = _read_spectra(
        states[:n_ok], w[:n_ok], threshold, mode == STRICT, point
    )
    if fault is not None:
        raise InvalidDensityMatrixError(f"{point(n_ok)}: {fault[1]}")

    entry_probs = [probs[k, :n] for k, n in enumerate(counts)]
    entry_vectors = [v[k, :, :n] for k, n in enumerate(counts)]
    entry_labels = [np.arange(counts[0])]
    next_label = int(counts[0])
    for k in range(1, n_times):
        labels, next_label = _greedy_overlap_labels(
            entry_vectors[k - 1], entry_labels[k - 1], entry_vectors[k], next_label
        )
        entry_labels.append(labels)

    part = trivial_partition(layout)
    raw_rows = []
    for k in range(grid.n_steps):
        rows = _conditional_probabilities(
            ops, entry_vectors[k], [entry_vectors[k + 1]], part
        )
        sums = rows.sum(axis=1)
        # negated so that a NaN sum fails too
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= CHAIN_ROW_SUM_TOL))
        if bad.size:
            a = int(bad[0])
            raise NormalizationError(
                f"conditional row {a} at step {k} sums to {float(sums[a]):.15g}, "
                f"outside 1 +- {CHAIN_ROW_SUM_TOL:g}"
            )
        raw_rows.append(rows)

    return StepChain(
        grid=grid,
        entry_probs=entry_probs,
        entry_vectors=entry_vectors,
        entry_labels=entry_labels,
        raw_rows=raw_rows,
        n_labels=next_label,
    )


def sample_trajectory(
    generator: LindbladGenerator,
    rho0: DensityMatrix,
    grid: TimeGrid,
    seed: int,
    threshold: float = DEFAULT_THRESHOLD,
    mode: str = STRICT,
) -> Trajectory:
    """Sample one trajectory; identical seeds give identical trajectories."""
    chain = build_step_chain(generator, rho0, grid, threshold, mode)
    return chain.sample(seed)


def run_ensemble(
    generator: LindbladGenerator,
    rho0: DensityMatrix,
    grid: TimeGrid,
    n_samples: int,
    base_seed: int,
    threshold: float = DEFAULT_THRESHOLD,
    mode: str = STRICT,
    chain: Optional[StepChain] = None,
) -> EnsembleReport:
    """Aggregate ``n_samples`` trajectories with seeds ``base_seed + k``.

    Trajectories are walked together in consecutive blocks of
    ``ENSEMBLE_BLOCK``, each with the uniforms of its own seeded generator,
    and their label counts are added up; so results are bit-identical to
    sampling the trajectories one by one, and no array grows with
    ``n_samples``.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1: {n_samples}")
    if chain is None:
        chain = build_step_chain(generator, rho0, grid, threshold, mode)
    elif grid != chain.grid:
        raise ValueError(f"grid {grid} is not the chain's grid {chain.grid}")
    n_times = chain.n_times
    counts = np.zeros((n_times, chain.n_labels), dtype=np.int64)
    for start in range(0, n_samples, ENSEMBLE_BLOCK):
        n_rows = min(ENSEMBLE_BLOCK, n_samples - start)
        entries = chain._walk(_uniforms(int(base_seed) + start, n_rows, n_times))
        for k in range(n_times):
            labels_k = chain.entry_labels[k][entries[:, k]]
            counts[k] += np.bincount(labels_k, minlength=chain.n_labels)
        del entries  # before the next block's arrays are allocated
    frequencies = counts / n_samples
    eigenvalues = chain.eigenvalue_table()
    max_dev = float(np.abs(frequencies - eigenvalues).max())
    return EnsembleReport(
        times=chain.grid.times,
        frequencies=frequencies,
        eigenvalues=eigenvalues,
        max_abs_deviation=max_dev,
        sample_count=n_samples,
        base_seed=int(base_seed),
    )
