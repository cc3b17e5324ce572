"""Conditional probabilities between spectral decompositions at two times.

The central quantity: given a parent system W occupying ontic state w at time
t (an eigenvector of rho_W(t)), the probability of finding disjoint subsystems
Q_1..Q_n in ontic states i_1..i_n at time t' >= t is

    p(i_1..i_n ; t' | w ; t)
        = Tr[ (P_1(i_1) kron ... kron P_n(i_n))  E[P_W(w)] ]

where each P_a(i_a) projects onto an eigenvector of the reduced matrix of
Q_a at t', P_W(w) projects onto the parent eigenvector at t, and E is the CPT
channel carrying W from t to t'. Two special cases matter enough to get their
own entry points: the single-time case (identity channel) and the
single-subsystem two-time case (trivial partition).

Every entry point is a slice of one kernel. For each parent column ``w`` it
takes an amplitude stack ``A_w`` with ``A_w A_w^dag = E[P_W(w)]``, so the
quantity is ``sum_r |<b_1(i_1) kron ... kron b_n(i_n)| A_w[:, r]|^2``,
evaluated for all parent columns and block indices at once: it reorders the
tensor factors into block order and contracts each block's eigenbasis along
its axes. This module never acts with the dynamics itself: the stacks come
from ``channels.amplitudes`` and the state at t' from ``channels.apply``,
both behind the gate ``channels.steps``, which takes a Kraus channel, a
schedule of local steps ``(positions, channel)`` or a generator flow, and
refuses a ``Superoperator``, to be converted once by the caller. The blocks
are read from the reduced state at t'. A table is the full result; a
scalar query is the kernel on one parent column and one basis vector per
block; the step rows of a trajectory chain are the one-block case, stacked
over the steps.

Degenerate spectra make eigenvectors non-unique, so queries touching a
flagged degenerate cluster are refused in strict mode and answered against
the canonical basis (with the flags carried on the result) in permissive
mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import Dynamics, amplitudes, apply, steps
from .errors import (
    DegenerateBasisError,
    LayoutMismatchError,
    NormalizationError,
    ProbabilityBoundsError,
)
from .linalg import SystemLayout
from .states import STRICT, EpistemicState, State, _check_bound, _check_mode, extract_epistemic
from .tolerances import DEFAULT_THRESHOLD, ROW_SUM_TOL


@dataclass(frozen=True)
class Partition:
    """Ordered split of a layout's factors into disjoint covering blocks.

    Block order fixes the index order of conditional queries. Within each
    block, labels are canonicalized to parent layout order; blocks themselves
    may interleave arbitrarily (the machinery permutes tensor factors
    explicitly, so non-contiguous blocks are fine).
    """

    layout: SystemLayout
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise LayoutMismatchError("partition needs at least one block")
        canon = []
        seen: set[str] = set()
        for block in self.blocks:
            if not block:
                raise LayoutMismatchError("empty partition block")
            pos = self.layout.positions(block)
            labels = tuple(self.layout.labels[p] for p in pos)
            if seen & set(labels):
                raise LayoutMismatchError(
                    f"blocks overlap on {sorted(seen & set(labels))}"
                )
            seen |= set(labels)
            canon.append(labels)
        if seen != set(self.layout.labels):
            missing = set(self.layout.labels) - seen
            raise LayoutMismatchError(
                f"blocks do not cover the layout; missing {sorted(missing)}"
            )
        object.__setattr__(self, "blocks", tuple(canon))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def concat_positions(self) -> tuple[int, ...]:
        """Parent factor positions in blocks-concatenated order."""
        return tuple(
            self.layout.position(label) for block in self.blocks for label in block
        )


def trivial_partition(layout: SystemLayout) -> Partition:
    return Partition(layout, (tuple(layout.labels),))


def _entry_index(e: EpistemicState, index: int, what: str) -> int:
    index = int(index)
    if not 0 <= index < len(e):
        raise IndexError(
            f"{what} index {index} out of range for {len(e)} retained entries"
        )
    return index


def _refuse_degenerate_entry(e: EpistemicState, index: int, what: str) -> None:
    if e.is_degenerate(index):
        raise DegenerateBasisError(
            f"{what} index {index} lies in a degenerate eigenvalue cluster; "
            "rerun in permissive mode to answer against the canonical basis"
        )


def _refuse_any_degeneracy(e: EpistemicState, what: str) -> None:
    if e.degenerate_clusters:
        raise DegenerateBasisError(
            f"{what} has degenerate eigenvalue clusters {e.degenerate_clusters}; "
            "rerun in permissive mode to answer against the canonical basis"
        )


def _block_probabilities(
    stacks: Sequence[np.ndarray],
    block_bases: Sequence[np.ndarray],
    part: Partition,
) -> np.ndarray:
    """``probs[w, i_1..i_n] = sum_r |<b_1(i_1)..b_n(i_n)| A_w[:, r]|^2``.

    ``stacks[r]`` holds column ``r`` of every parent's stack ``A_w`` as
    its column ``w`` (``K_r @ V_parent`` for a Kraus family), over the
    partition's layout; ``block_bases[a]`` holds block ``a``'s vectors as
    columns over that block's factors in layout order. Entries are real and
    nonnegative by construction; values above ``1 + CLAMP_TOL`` raise, and
    the rest are clamped to at most one.
    """
    dims = part.layout.dims
    axes = part.concat_positions() + (len(dims),)
    shape = tuple(b.shape[0] for b in block_bases) + (-1,)
    bras = [np.conj(b) for b in block_bases]
    probs = 0.0
    for amp in stacks:
        amp = amp.reshape(dims + (-1,)).transpose(axes).reshape(shape)
        for bra in bras:
            amp = np.tensordot(amp, bra, axes=(0, 0))
        probs = probs + (amp.real**2 + amp.imag**2)
    _check_bound(probs[None])
    return np.minimum(probs, 1.0)


def _parent(
    rho_w_t: State, channel: Dynamics, part: Partition, threshold: float
) -> tuple[Dynamics, EpistemicState]:
    """The dynamics through the gate, and the parent spectrum at t."""
    if part.layout != rho_w_t.layout:
        raise LayoutMismatchError(
            "partition layout does not match the density matrix layout"
        )
    dynamics = steps(channel, part.layout)
    return dynamics, extract_epistemic(rho_w_t, threshold)


def _blocks(
    rho_w_t: State, dynamics: Dynamics, part: Partition, threshold: float
) -> tuple[EpistemicState, ...]:
    """The block spectra at t', after ``dynamics``."""
    rho_tprime = apply(dynamics, rho_w_t)
    return tuple(
        extract_epistemic(rho_tprime.reduce(block), threshold)
        for block in part.blocks
    )


def _validate_query(
    parent: EpistemicState,
    blocks: tuple[EpistemicState, ...],
    w: int,
    indices: Sequence[int],
    mode: str,
) -> tuple[int, tuple[int, ...]]:
    if len(indices) != len(blocks):
        raise IndexError(
            f"expected {len(blocks)} subsystem indices, got {len(indices)}"
        )
    w = _entry_index(parent, w, "parent")
    idx = tuple(
        _entry_index(blocks[a], i, f"block {a}") for a, i in enumerate(indices)
    )
    if mode == STRICT:
        _refuse_degenerate_entry(parent, w, "parent")
        for a, i in enumerate(idx):
            _refuse_degenerate_entry(blocks[a], i, f"block {a}")
    return w, idx


def joint_conditional(
    rho_w_t: State,
    channel: Dynamics,
    part: Partition,
    w: int,
    indices: Sequence[int],
    mode: str = STRICT,
    threshold: float = DEFAULT_THRESHOLD,
) -> float:
    """General two-time conditional probability for a partitioned parent.

    ``w`` indexes the retained spectral entries of ``rho_w_t``; ``indices``
    index the retained entries of each block's reduced matrix after the
    channel (``None`` is the identity; a schedule of local steps is accepted
    too). Conditioning on dropped (sub-threshold) entries is impossible by
    construction, which is exactly the zero-probability-conditioning
    precondition.
    """
    mode = _check_mode(mode)
    dynamics, parent = _parent(rho_w_t, channel, part, threshold)
    blocks = _blocks(rho_w_t, dynamics, part, threshold)
    w, idx = _validate_query(parent, blocks, w, indices, mode)
    probs = _block_probabilities(
        amplitudes(dynamics, parent.vectors[:, w : w + 1], part.layout),
        [b.vectors[:, i : i + 1] for b, i in zip(blocks, idx)],
        part,
    )
    return probs.item()


def kinematic_conditional(
    rho_w: State,
    part: Partition,
    w: int,
    indices: Sequence[int],
    mode: str = STRICT,
    threshold: float = DEFAULT_THRESHOLD,
) -> float:
    """Single-time conditional: subsystem states given the parent state now.

    The squared overlap between the parent eigenvector and the product of
    subsystem eigenvectors: ``joint_conditional`` under the identity channel.
    """
    return joint_conditional(rho_w, None, part, w, indices, mode, threshold)


def dynamical_conditional(
    rho_q_t: State,
    channel: Dynamics,
    i: int,
    j: int,
    mode: str = STRICT,
    threshold: float = DEFAULT_THRESHOLD,
) -> float:
    """Two-time conditional for one undivided system: p(j at t' | i at t).

    ``joint_conditional`` with the trivial one-block partition.
    """
    part = trivial_partition(rho_q_t.layout)
    return joint_conditional(rho_q_t, channel, part, i, (j,), mode, threshold)


@dataclass(frozen=True)
class ConditionalTable:
    """Full conditional-probability table with its audit numbers.

    ``probabilities[w, i_1, ..., i_n]`` is the conditional probability of the
    block entries given parent entry ``w``. Rows must sum to one within
    ``ROW_SUM_TOL`` (violations raise at construction); marginal deviations
    are recorded but left to the caller's judgement.
    """

    parent: EpistemicState
    blocks: tuple[EpistemicState, ...]
    partition: Partition
    probabilities: np.ndarray
    mode: str
    row_sums: np.ndarray = field(init=False)
    max_row_deviation: float = field(init=False)
    max_marginal_deviation: float = field(init=False)

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        expected = (len(self.parent),) + tuple(len(b) for b in self.blocks)
        if probs.shape != expected:
            raise LayoutMismatchError(
                f"table shape {probs.shape} does not match entries {expected}"
            )
        # negated so that NaN fails too
        if not (probs.min() >= 0.0 and probs.max() <= 1.0):
            raise ProbabilityBoundsError("table values must lie in [0, 1]")
        sums = probs.reshape(probs.shape[0], -1).sum(axis=1)
        dev = float(np.abs(sums - 1.0).max())
        if not dev <= ROW_SUM_TOL:
            raise NormalizationError(
                f"conditional rows sum to 1 within {dev:.3e} > {ROW_SUM_TOL:.1e}"
            )
        marg_dev = 0.0
        weights = self.parent.probabilities
        for a, block in enumerate(self.blocks):
            axes = tuple(
                k + 1 for k in range(len(self.blocks)) if k != a
            )
            cond_marg = probs.sum(axis=axes) if axes else probs
            mixed = weights @ cond_marg
            marg_dev = max(
                marg_dev, float(np.abs(mixed - block.probabilities).max())
            )
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "row_sums", sums)
        object.__setattr__(self, "max_row_deviation", dev)
        object.__setattr__(self, "max_marginal_deviation", marg_dev)


def conditional_table(
    rho_w_t: State,
    channel: Dynamics,
    part: Partition,
    mode: str = STRICT,
    threshold: float = DEFAULT_THRESHOLD,
) -> ConditionalTable:
    """Evaluate the conditional probability over every retained combination.

    ``channel=None`` means the identity (single-time table); a schedule of
    local steps ``(positions, KrausChannel)`` is applied step by step, with
    no dense composed channel; a ``GeneratorFlow`` is applied matrix-free.
    In strict mode any degenerate cluster in the parent or a block refuses
    the whole table, since a table necessarily touches every entry.
    """
    mode = _check_mode(mode)
    dynamics, parent = _parent(rho_w_t, channel, part, threshold)
    # before the state is carried: a flow's plan refuses an over-budget
    # table before anything is flowed
    stacks = amplitudes(dynamics, parent.vectors, part.layout)
    blocks = _blocks(rho_w_t, dynamics, part, threshold)
    if mode == STRICT:
        _refuse_any_degeneracy(parent, "parent spectrum")
        for a, block in enumerate(blocks):
            _refuse_any_degeneracy(block, f"block {a} spectrum")
    probs = _block_probabilities(stacks, [b.vectors for b in blocks], part)
    return ConditionalTable(
        parent=parent,
        blocks=blocks,
        partition=part,
        probabilities=probs,
        mode=mode,
    )
