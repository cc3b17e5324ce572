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
its axes. Tables and scalar queries reach it by one path: the layout check,
the parent spectrum at t, the stacks of the requested parent columns from
``channels.amplitudes`` (first, so that a flow's plan refuses an
over-budget table before the state is flowed), the state at t' from
``channels.apply``, and the block spectra from ``states.extract_block``. Only
``amplitudes`` and ``apply`` act with the dynamics, each behind the gate
``channels.steps``, which takes a Kraus channel, a schedule of local steps
``(positions, channel)`` or a generator flow, and refuses a
``Superoperator``, to be converted once by the caller. A table is the full
result; a scalar query is the kernel on one parent column and one basis
vector per block; the step rows of a trajectory chain are the one-block
case, stacked over the steps.

Degenerate spectra make eigenvectors non-unique, so queries touching a
flagged degenerate cluster are refused in strict mode and answered against
the canonical basis (flags carried on the result) in permissive mode. That
refusal, the threshold's range and the result bound are in :mod:`modaldyn.states`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channels import Dynamics, amplitudes, apply
from .errors import LayoutMismatchError, NormalizationError, ProbabilityBoundsError
from .linalg import Record, SystemLayout, Value
from .states import (
    STRICT, EpistemicState, State, _check_bound, _check_mode, _refuse_degeneracy,
    extract_block, extract_epistemic,
)
from .tolerances import DEFAULT_THRESHOLD, ROW_SUM_TOL


class Partition(Value):
    """Ordered split of a layout's factors into disjoint covering blocks.

    Block order fixes the index order of conditional queries. The layout
    judges the labels: ``SystemLayout.positions`` canonicalizes each block
    to parent layout order and refuses a label it does not hold or that is
    named more than once, within a block or across blocks. Blocks themselves
    may interleave arbitrarily (the machinery permutes tensor factors
    explicitly, so non-contiguous blocks are fine).
    """

    layout: SystemLayout
    blocks: tuple[tuple[str, ...], ...]

    def __init__(self, layout, blocks) -> None:
        if not blocks:
            raise LayoutMismatchError("partition needs at least one block")
        if not all(blocks):
            raise LayoutMismatchError("empty partition block")
        canon = tuple(
            tuple(layout.labels[p] for p in layout.positions(b)) for b in blocks
        )
        # every label at once: one in two blocks is named more than once
        if len(layout.positions(s for b in canon for s in b)) < len(layout.labels):
            missing = set(layout.labels).difference(*canon)
            raise LayoutMismatchError(
                f"blocks do not cover the layout; missing {sorted(missing)}"
            )
        self._bind(layout, canon)

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


def _kernel_inputs(
    rho_w_t: State, channel: Dynamics, part: Partition, threshold: float, columns: slice
) -> tuple[EpistemicState, Sequence[np.ndarray], tuple[EpistemicState, ...]]:
    """The parent spectrum at t, the kernel's stacks of its ``columns``, and
    the block spectra at t' after ``channel``; the module docstring gives
    the order and its reason."""
    if part.layout != rho_w_t.layout:
        raise LayoutMismatchError(
            "partition layout does not match the density matrix layout"
        )
    parent = extract_epistemic(rho_w_t, threshold)
    stacks = amplitudes(channel, parent.vectors[:, columns], part.layout)
    rho_tprime = apply(channel, rho_w_t)
    return parent, stacks, tuple(extract_block(rho_tprime, b, threshold) for b in part.blocks)


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
    w = int(w)
    parent, stacks, blocks = _kernel_inputs(
        rho_w_t, channel, part, threshold, slice(w, w + 1)
    )
    if len(indices) != len(blocks):
        raise IndexError(
            f"expected {len(blocks)} subsystem indices, got {len(indices)}"
        )
    names = ["parent"] + [f"block {a}" for a in range(len(blocks))]
    spectra = (parent, *blocks)
    idx = (w, *(int(i) for i in indices))
    for what, e, i in zip(names, spectra, idx):
        if not 0 <= i < len(e):
            raise IndexError(
                f"{what} index {i} out of range for {len(e)} retained entries"
            )
    for what, e, i in zip(names, spectra, idx):
        _refuse_degeneracy(mode, e.degenerate_clusters, what, i)
    bases = [b.vectors[:, i : i + 1] for b, i in zip(blocks, idx[1:])]
    return _block_probabilities(stacks, bases, part).item()


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


class ConditionalTable(Record):
    """Full conditional-probability table with its audit numbers.

    ``probabilities[w, i_1, ..., i_n]`` is the conditional probability of the
    block entries given parent entry ``w``. Rows must sum to one within
    ``ROW_SUM_TOL`` (violations raise at construction); marginal deviations
    are recorded but left to the caller's judgement. ``probabilities`` is
    copied from the input, and it and ``row_sums`` are read-only.
    """

    parent: EpistemicState
    blocks: tuple[EpistemicState, ...]
    partition: Partition
    probabilities: np.ndarray
    mode: str
    row_sums: np.ndarray
    max_row_deviation: float
    max_marginal_deviation: float

    def __init__(self, parent, blocks, partition, probabilities, mode) -> None:
        probs = np.array(probabilities, dtype=float)
        expected = (len(parent),) + tuple(len(b) for b in blocks)
        if probs.shape != expected:
            raise LayoutMismatchError(
                f"table shape {probs.shape} does not match entries {expected}"
            )
        # negated so that NaN fails too; the worst entry is a NaN, else the farthest out
        if not (probs.min() >= 0.0 and probs.max() <= 1.0):
            at = np.unravel_index(int(np.argmax(np.abs(probs - 0.5))), probs.shape)
            why = f"the worst is {float(probs[at])} at [w, i_1..i_n] = {tuple(map(int, at))}"
            raise ProbabilityBoundsError(f"table values must lie in [0, 1]; {why}")
        sums = probs.reshape(probs.shape[0], -1).sum(axis=1)
        dev = float(np.abs(sums - 1.0).max())
        if not dev <= ROW_SUM_TOL:
            raise NormalizationError(
                f"conditional rows sum to 1 within {dev:.3e} > {ROW_SUM_TOL:.1e}"
            )
        marg_dev = 0.0
        for a, block in enumerate(blocks):
            axes = tuple(k + 1 for k in range(len(blocks)) if k != a)
            mixed = parent.probabilities @ (probs.sum(axis=axes) if axes else probs)
            marg_dev = max(marg_dev, float(np.abs(mixed - block.probabilities).max()))
        self._bind(parent, blocks, partition, probs, mode, sums, dev, marg_dev)


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
    parent, stacks, blocks = _kernel_inputs(
        rho_w_t, channel, part, threshold, slice(None)
    )
    _refuse_degeneracy(mode, parent.degenerate_clusters, "parent spectrum")
    for a, block in enumerate(blocks):
        _refuse_degeneracy(mode, block.degenerate_clusters, f"block {a} spectrum")
    probs = _block_probabilities(stacks, [b.vectors for b in blocks], part)
    return ConditionalTable(
        parent=parent,
        blocks=blocks,
        partition=part,
        probabilities=probs,
        mode=mode,
    )
