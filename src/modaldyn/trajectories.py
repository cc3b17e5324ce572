"""Stochastic trajectories through the spectral entries of an evolving state.

The two-time conditional probabilities p(j at t+dt | i at t) define, step by
step, a classical Markov chain over the retained spectral entries of
rho(t). Chaining them into full multi-time trajectories is a modeling
completion made by this package. The underlying theory fixes p(b at t' | a
at t) for every pair of times, and the chain reproduces it only for
adjacent grid points: its composed law between farther times in general
departs from the theory's (README, "Modeling note"). Everything downstream
of the chain (sampled paths, ensemble frequency reports) should be read
with that caveat.

A chain is a fixed set of whole-grid arrays, read from the step channel
as it is. ``channels.iterate`` pushes rho along the grid into one
``(n_times, d, d)`` stack, which one stacked eigendecomposition reads; the
density-matrix checks and the epistemic reading of :mod:`modaldyn.states`
run over it at once. Errors name the grid point and come in grid order. The
rows of every step are the one-block case of the kernel in
:mod:`modaldyn.conditional`, read from the amplitude stacks
``channels.amplitudes`` gives for the kept eigenvectors of every grid point
at once, and must sum to one within ``CHAIN_ROW_SUM_TOL``. The step passes
the tables' gate ``channels.steps``, and the chain reads by the tables' rules
in :mod:`modaldyn.states` (threshold range, strict-mode refusal, result bound).

Branch identity across time is kept by eigenvector overlap: entries at t+dt
are greedily matched to entries at t by largest |<psi_i(t)|psi_j(t+dt)>|,
each entry at most once and ties going to the lowest (previous, new) index
pair, so a trajectory label follows one physical branch through eigenvalue
crossings instead of jumping with the descending-eigenvalue sort order. A
matched entry keeps its partner's label. An unmatched one (a branch that
appears) gets the next unused integer, in entry order; a label whose branch
vanishes is retired and never reused. Labels at t = 0 are 0, 1, ... in entry
order.

Randomness: trajectory ``i`` of an ensemble with base seed ``s`` draws its
``n_steps + 1`` uniforms up front, the first selecting the initial entry and
the k-th thereafter selecting the jump at step k. They are row
``i mod ENSEMBLE_BLOCK`` of ``Generator(PCG64([s, i // ENSEMBLE_BLOCK]))
.random((ENSEMBLE_BLOCK, n_steps + 1))``, drawn row-major: one keyed
generator per block of 4,096 trajectories, not one per trajectory. Every
trajectory is reproducible by drawing its block, and the aggregate does not
depend on execution order or on how a block is sliced to fit memory. A
single sample with seed ``s`` is trajectory 0. ``_uniforms`` is the one place
this contract is written. ``StepChain.sample`` bisects one trajectory's held
rows, and ``StepChain._walk`` walks an ensemble in cache-sized slices of at
most ``ENSEMBLE_BLOCK`` trajectories, so its memory does not grow with the
number of trajectories.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator

import numpy as np

from . import linalg
from .channels import KrausChannel, _not_kraus, amplitudes, iterate, steps
from .errors import InvalidDensityMatrixError, NormalizationError
from .linalg import Record, Value, _ordered_eig, check_memory
from .states import (
    STRICT, PureState, State, _check_bound, _check_mode, _check_threshold, _density_fault,
    _read_spectra,
)
from .tolerances import CHAIN_ROW_SUM_TOL, DEFAULT_THRESHOLD

# Trajectories per keyed generator: part of the RNG contract, not a tuning
# value, since changing it changes every draw past trajectory 4,095. Walk
# slices are the most of 4,096, 2,048 and 1,024 trajectories whose uniforms
# fit in SLICE_CELLS (2.1 MB), unless the memory budget allows fewer: whole
# 4,096 x 257 slices raised a 20,000-trajectory ensemble's peak RSS from
# 41.8 to 49.6 MB and walked no faster; slices of 256 walked slower.
ENSEMBLE_BLOCK = 4096
SLICE_CELLS, SLICE_ROWS_MIN = ENSEMBLE_BLOCK * 65, 1024
# steps per chunk of the chain's amplitude stage, whose temporaries so stay fixed
CHAIN_CHUNK = 1024

# The RNG contract as documents name it; the version counts contract changes
# (1 was one PCG64(base_seed + i) per trajectory).
RNG_CONTRACT = {
    "algorithm": "PCG64", "block_size": ENSEMBLE_BLOCK, "contract_version": 2
}

# Seeds run from 0 to SEED_BOUND - 1: numpy's seed sequence ignores trailing
# zero 32-bit words, so the key [k 2^32 + x, 0] of a larger seed would be the
# key [x, k] of block k of seed x.
SEED_BOUND = 1 << 32
# a trajectory point, the record its document lists
POINT = np.dtype([("time", float), ("index", np.int64), ("probability", float)])


class TimeGrid(Value):
    """Uniform time grid ``k*dt`` for ``k = 0..n_steps``."""

    dt: float
    n_steps: int

    def __init__(self, dt, n_steps) -> None:
        dt, n_steps = float(dt), int(n_steps)
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be finite and positive: {dt}")
        if n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative: {n_steps}")
        self._bind(dt, n_steps)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


class Trajectory(Record):
    """One sampled history: read-only ``POINT`` records (time, branch label, eigenvalue)."""

    points: np.ndarray
    seed: int

    def __init__(self, points, seed) -> None:
        self._bind(points, seed)


class EnsembleReport(Record):
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

    def __init__(
        self, times, frequencies, eigenvalues, max_abs_deviation, sample_count, base_seed
    ) -> None:
        self._bind(
            times, frequencies, eigenvalues, max_abs_deviation, sample_count, base_seed
        )


class StepChain(Record):
    """Spectra, branch labels and conditional rows along one time grid.

    Every array is indexed by grid point ``k`` (``rows`` by step) and padded
    to the largest entry count ``m``. ``counts[k]`` entries are kept at grid
    point ``k``; entry ``e`` has eigenvalue ``probs[k, e]``, eigenvector
    ``vectors[k, :, e]`` and persistent branch label ``labels[k, e]``.
    ``rows[k, a, b]`` is the unnormalized two-time conditional probability
    of entry ``b`` at grid point ``k + 1`` given entry ``a`` at ``k``.
    Padding is 0, and -1 in ``labels``. ``cum[k, a]`` is the cumulative
    normalized row drawn from at grid point ``k`` when entry ``a`` is held
    at ``k - 1``: ``cum[0]`` holds the initial eigenvalues in every row, and
    ``cum[k + 1]`` comes from ``rows[k]``. Sampling is inverse-CDF draws.
    """

    grid: TimeGrid
    counts: np.ndarray
    probs: np.ndarray
    vectors: np.ndarray
    labels: np.ndarray
    rows: np.ndarray
    cum: np.ndarray
    n_labels: int

    def __init__(self, grid, counts, probs, vectors, labels, rows, cum, n_labels) -> None:
        self._bind(grid, counts, probs, vectors, labels, rows, cum, n_labels)

    @property
    def n_times(self) -> int:
        return len(self.counts)

    def _by_label(self, values: np.ndarray) -> np.ndarray:
        """``values[time, entry]`` arranged ``[time, branch label]``."""
        table = np.zeros((self.n_times, self.n_labels))
        k, e = np.nonzero(self.labels >= 0)
        table[k, self.labels[k, e]] = values[k, e]
        return table

    def eigenvalue_table(self) -> np.ndarray:
        """Reference eigenvalues arranged ``[time, branch label]``."""
        return self._by_label(self.probs)

    def propagated_marginals(self) -> np.ndarray:
        """Chain marginals pushed forward with the exact conditional rows.

        By the law of total probability these must reproduce the eigenvalue
        table up to truncation effects; the match is a core consistency check
        on the whole construction.
        """
        mu = self.probs.copy()
        for k, rows in enumerate(self.rows):
            mu[k + 1] = mu[k] @ rows
        return self._by_label(mu)

    def _walk(self, uniforms: np.ndarray) -> np.ndarray:
        """Entry indices ``[trajectory, time]`` for uniforms ``[trajectory, time]``.

        Uniform ``u`` at grid point ``k`` picks, from the cumulative row of
        the entry held at ``k - 1`` (the initial row at ``k = 0``), the
        number of cumulative values ``<= u``: the inverse CDF. The pick is
        clamped to the last kept entry, which also covers round-off leaving
        the row's last cumulative value below ``u``. Cumulative rows do not
        decrease, so counting over the columns before the last kept entry
        applies the clamp: one gather of those columns at the held rows,
        compared with the grid point's uniforms as they lie, strided. Picks
        and held entries are the smallest unsigned integer type that holds
        ``m``: one byte up to 255 entries.
        """
        pick = np.min_scalar_type(self.cum.shape[1])
        picks = np.zeros(uniforms.shape[::-1], dtype=pick)  # [time, trajectory]
        held = np.zeros(len(uniforms), dtype=pick)
        cum_t = np.ascontiguousarray(self.cum.transpose(0, 2, 1))  # [k, column, row]
        for u, columns, picked, n in zip(uniforms.T, cum_t, picks, self.counts.tolist()):
            below = columns[: n - 1].take(held, axis=1) <= u
            below.sum(axis=0, dtype=pick, out=picked)
            held = picked
        return picks.T

    def sample(self, seed: int) -> Trajectory:
        """Trajectory 0 of the ensemble with base seed ``seed``, picked as by
        ``_walk``: each uniform bisects the held row's columns before its last
        kept entry, read as Python floats through a flat memoryview."""
        uniforms = next(_uniforms(int(seed), 1, self.n_times, 1))[0]
        flat, m, held = memoryview(self.cum.reshape(-1)), self.cum.shape[1], 0
        entries = np.empty(self.n_times, dtype=np.intp)
        out = memoryview(entries)
        for k, (u, n) in enumerate(zip(memoryview(uniforms), memoryview(self.counts))):
            row = (k * m + held) * m
            held = out[k] = bisect_right(flat, u, row, row + n - 1) - row
        at = np.arange(self.n_times)
        points = np.empty(self.n_times, dtype=POINT)
        points["time"] = self.grid.times
        points["index"] = self.labels[at, entries]
        points["probability"] = self.probs[at, entries]
        return Trajectory(points=points, seed=int(seed))


def _check_seed(seed: int, what: str = "seed") -> None:
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"{what} must lie in 0..{SEED_BOUND - 1}: {seed}")


def _check_samples(n: int, what: str = "n_samples") -> None:
    if n < 1:
        raise ValueError(f"{what} must be >= 1: {n}")
    if n >= 2**63:
        raise ValueError(f"{what} must be below 2**63, the bound of its int64 counts: {n}")


def _uniforms(
    base_seed: int, n_rows: int, n_times: int, max_rows: int
) -> Iterator[np.ndarray]:
    """Uniforms ``[trajectory, time]`` of trajectories ``0 .. n_rows - 1``.

    The package's RNG contract: trajectory ``i`` reads row
    ``i mod ENSEMBLE_BLOCK`` of ``Generator(PCG64([base_seed, b]))
    .random((ENSEMBLE_BLOCK, n_times))`` with ``b = i // ENSEMBLE_BLOCK``.
    Yields consecutive slices of at most ``max_rows`` rows, none across a
    block; a block's slices come from its one generator in turn and give the
    rows of one whole draw, whatever their size. Every slice is drawn into
    one buffer, which the next slice overwrites: with a fresh array per
    slice, 10^6 trajectories of 65 grid points took twice as long and
    395,000 page faults against 13,000; ``run_ensemble`` keeps it in cache.
    A seed outside ``0 .. SEED_BOUND - 1`` raises ``ValueError``.
    """
    _check_seed(base_seed)
    buffer = np.empty((min(max_rows, n_rows), n_times))
    for first in range(0, n_rows, ENSEMBLE_BLOCK):
        key = [base_seed, first // ENSEMBLE_BLOCK]
        generator = np.random.Generator(np.random.PCG64(key))
        end = min(first + ENSEMBLE_BLOCK, n_rows)
        for start in range(first, end, max_rows):
            yield generator.random(out=buffer[: min(max_rows, end - start)])


def _branch_labels(overlaps: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, int]:
    """Persistent labels ``[grid point, entry]`` (-1 on padding) and their number.

    ``overlaps[k, a, b]`` is ``|<psi_a(k)|psi_b(k + 1)>|`` and ``kept[k, e]``
    says entry ``e`` is kept at grid point ``k``; the rule is the module's
    greedy match. All steps are matched at once: a stable sort puts each
    step's pairs in greedy order (equal overlaps in row-major order, the
    lowest pair first), and pass ``j`` takes each step's ``j``-th pair if
    both its entries are still free. Unmatched kept entries are roots,
    labelled in grid order and then entry order; the others read their
    root's label by pointer jumping along the matched predecessors.
    """
    n_steps, m = overlaps.shape[:2]
    order = np.argsort(-overlaps.reshape(n_steps, m * m), axis=1, kind="stable")
    base = m * np.arange(n_steps)
    # padded entries start out taken
    prev_free, new_free = kept[:-1].flatten(), kept[1:].flatten()
    # ptr[i]: the flat entry that entry i (of every grid point) continues
    ptr = np.arange(kept.size)
    for pair in order.T:
        # flat indices into kept[:-1] and kept[1:]
        a, b = np.divmod(pair, m)
        a += base
        b += base
        take = prev_free[a] & new_free[b]
        a, b = a[take], b[take]
        prev_free[a] = new_free[b] = False
        ptr[m + b] = a
    roots = kept.ravel() & (ptr == np.arange(kept.size))
    for _ in range(n_steps.bit_length()):  # 2^rounds >= n_steps links
        ptr = ptr[ptr]
    fresh = np.cumsum(roots) - 1
    labels = np.where(kept.ravel(), fresh[ptr], -1).reshape(kept.shape)
    return labels, int(fresh[-1]) + 1


def build_step_chain(
    step_channel: KrausChannel,
    rho0: State,
    grid: TimeGrid,
    threshold: float = DEFAULT_THRESHOLD,
    mode: str = STRICT,
) -> StepChain:
    """Precompute spectra and conditional rows along the grid.

    ``step_channel`` is the ``KrausChannel`` carrying the state over one grid
    step: for generator dynamics ``channels.evolve(generator, grid.dt)``, or
    any discrete map on every factor. Anything else (a schedule, ``None``, a
    generator, a flow) is refused with a ``TypeError`` naming the conversion.
    In strict mode any degenerate spectrum along the grid refuses the chain.
    A ``PureState`` is read as its density matrix, as ``channels.apply``
    reads it.
    """
    mode = _check_mode(mode)
    _check_threshold(threshold)
    if not isinstance(step_channel, KrausChannel):
        raise _not_kraus(step_channel, "a KrausChannel")
    if isinstance(rho0, PureState):
        rho0 = rho0.reduce(rho0.layout.labels)
    steps(step_channel, rho0.layout)
    d = rho0.dim
    n_times, n_steps = grid.n_steps + 1, grid.n_steps
    # complex entries: per grid point (at most d kept), the measured peak of
    # the states and their eigenvectors; per step of one amplitude chunk, its
    # kets, bras, one amplitude per Kraus operator, a product and squares
    check_memory(
        n_times * (5 * d * d + d)
        + min(n_steps, CHAIN_CHUNK) * (4 + len(step_channel.operators)) * d * d,
        f"a chain over {n_times} grid states "
        f"({16 * n_times * d * d} bytes for the states alone)",
    )
    states = iterate(step_channel, rho0.matrix, n_steps)
    w, v = _ordered_eig(states)

    def point(k: int) -> str:
        return f"grid point {k} (t={k * grid.dt:g})"

    # errors come in grid order, as if each point were read as it is reached
    fault = _density_fault(states, w)
    n_ok = n_times if fault is None else fault[0]
    probs, counts, _ = _read_spectra(w[:n_ok], threshold, mode, point)
    if fault is not None:
        raise InvalidDensityMatrixError(f"{point(n_ok)}: {fault[1]}")

    m = int(counts.max())
    kept = np.arange(m) < counts[:, None]
    probs = np.where(kept, probs[:, :m], 0.0)
    vectors = np.where(kept[:, None, :], v[:, :, :m], 0.0)
    del states, w, v
    # read before the rows: after them, the scan's temporaries kept the
    # freed row arrays from going back to the system (peak RSS 149.5 MB
    # against 134.6 MB for sample --steps 100000 --n 1 on glibc)
    labels, n_labels = _branch_labels(
        np.abs(vectors[:-1].transpose(0, 2, 1) @ vectors[1:].conj()), kept
    )
    raw = np.zeros((n_steps, m, m))
    for lo in range(0, n_steps, CHAIN_CHUNK):
        part = vectors[lo : lo + CHAIN_CHUNK + 1]
        n, bras = len(part) - 1, part[1:].conj()
        kets = part[:-1].transpose(1, 0, 2).reshape(d, n * m)
        for amp in amplitudes(step_channel, kets, rho0.layout):
            amp = amp.reshape(d, n, m).transpose(1, 2, 0) @ bras
            raw[lo : lo + n] += amp.real**2 + amp.imag**2
    rows = np.minimum(raw, 1.0)
    sums = rows.sum(axis=2)
    # negated so that a NaN sum fails too; rows past the counts are padding
    bad = ~(np.abs(sums - 1.0) <= CHAIN_ROW_SUM_TOL) & kept[:-1]
    k, a = divmod(int(np.argmax(bad)) if bad.any() else bad.size, m)
    _check_bound(raw[: k + 1])  # at one step, the bound check comes first
    if k < n_steps:
        raise NormalizationError(
            f"conditional row {a} at step {k} sums to {float(sums[k, a]):.15g}, "
            f"outside 1 +- {CHAIN_ROW_SUM_TOL:g}"
        )

    cum = np.concatenate((np.broadcast_to(probs[0], (1, m, m)), rows))
    sums = cum.sum(axis=2, keepdims=True)
    np.divide(cum, sums, out=cum, where=sums > 0)
    return StepChain(
        grid=grid,
        counts=counts,
        probs=probs,
        vectors=vectors,
        labels=labels,
        rows=rows,
        cum=np.cumsum(cum, axis=2, out=cum),
        n_labels=n_labels,
    )


def run_ensemble(chain: StepChain, n_samples: int, base_seed: int) -> EnsembleReport:
    """Aggregate trajectories ``0 .. n_samples - 1`` of base seed ``base_seed``.

    Trajectories are walked together in consecutive slices, with the
    uniforms the RNG contract gives them (see ``_uniforms``), and their
    entry counts are added up; so results are bit-identical to sampling the
    trajectories one by one, and no array grows with ``n_samples``. A slice
    is the most of 4,096, 2,048 and 1,024 trajectories whose uniforms fit
    in ``SLICE_CELLS``. It holds ``8 + p + 1`` bytes per grid point and
    trajectory: its 8-byte uniforms, its picks of ``p`` bytes (1 up to 255
    entries per grid point, see ``StepChain._walk``) and a one-byte mask
    that counts them. So a chain longer than 26,213 steps walks fewer than
    1,024 at a time to stay within the memory budget; the counts do not
    depend on the slice size. The chain's own memory guard has left room
    for one.
    """
    n_samples = int(n_samples)
    _check_samples(n_samples)
    n_times, m = chain.cum.shape[:2]
    cell = 8 + np.min_scalar_type(m).itemsize + 1
    rows = ENSEMBLE_BLOCK
    while rows > SLICE_ROWS_MIN and rows * n_times > SLICE_CELLS:
        rows //= 2
    rows = min(rows, linalg.MEMORY_BUDGET_BYTES // (cell * n_times))
    # at_least[k, e]: trajectories on entry e or a later one at grid point k
    at_least = np.zeros((n_times, m + 1), dtype=np.int64)
    at_least[:, 0] = n_samples
    for uniforms in _uniforms(int(base_seed), n_samples, n_times, rows):
        entries = chain._walk(uniforms)
        for e in range(1, m):
            at_least[:, e] += np.count_nonzero(entries >= e, axis=0)
        del entries  # before the next slice's picks are allocated
    counts = chain._by_label(at_least[:, :-1] - at_least[:, 1:])
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
