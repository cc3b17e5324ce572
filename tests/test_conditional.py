import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modaldyn import (
    ConditionalTable,
    DensityMatrix,
    DegenerateBasisError,
    DimensionMismatchError,
    GeneratorFlow,
    KrausChannel,
    LayoutMismatchError,
    LindbladGenerator,
    NormalizationError,
    Partition,
    ProbabilityBoundsError,
    PureState,
    Superoperator,
    SystemLayout,
    TimeGrid,
    amplitude_damping_qubit,
    apply,
    build_step_chain,
    compose,
    conditional_table,
    dynamical_conditional,
    epr_bohm,
    evolve,
    extract_epistemic,
    ghz_mermin,
    joint_conditional,
    kinematic_conditional,
    trivial_partition,
    unitary_channel,
    von_neumann_measurement,
)
from modaldyn.conditional import _block_probabilities

from oracles import naive_embed, naive_joint_probability
from random_objects import random_density_matrix, random_kraus_channel, random_unitary


def test_partition_validation():
    layout = SystemLayout.qubits(("A", "B", "C"))
    part = Partition(layout, (("C", "A"), ("B",)))
    # labels inside a block are canonicalized to layout order
    assert part.blocks == (("A", "C"), ("B",))
    assert part.n_blocks == 2
    with pytest.raises(LayoutMismatchError):
        Partition(layout, (("A",), ("B",)))  # does not cover C
    with pytest.raises(LayoutMismatchError, match="named more than once"):
        Partition(layout, (("A", "B"), ("B", "C")))  # overlap
    with pytest.raises(Exception):
        Partition(layout, (("A", "Z"), ("B", "C")))  # unknown label
    assert trivial_partition(layout).blocks == (("A", "B", "C"),)


def _pair_table():
    pair = SystemLayout.qubits(("A", "B"))
    rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), pair)
    part = Partition(pair, (("A",), ("B",)))
    return rho, part, conditional_table(rho, None, part)


def _refusals():
    rho, part, table = _pair_table()
    pair = part.layout
    other = trivial_partition(SystemLayout.qubits(("X", "Y")))
    wide = unitary_channel(np.eye(8))
    flip = unitary_channel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    decay = np.kron(np.eye(2), [[0.0, 1.0], [0.0, 0.0]])
    flowed = GeneratorFlow(LindbladGenerator(np.zeros((4, 4)), [(decay, 0.3)]), 0.5)
    fields = (table.parent, table.blocks, table.partition)

    def table_with(*changes):
        probs = table.probabilities.copy()
        for at, value in changes:
            probs[at] = value
        return ConditionalTable(*fields, probs, table.mode)

    return {
        "no-blocks": (
            lambda: Partition(pair, ()),
            LayoutMismatchError, "partition needs at least one block",
        ),
        "empty-block": (
            lambda: Partition(pair, (("A",), (), ("B",))),
            LayoutMismatchError, "empty partition block",
        ),
        # the layout is checked first, before the dynamics' gate
        "table-layout": (
            lambda: conditional_table(rho, wide, other),
            LayoutMismatchError,
            "partition layout does not match the density matrix layout",
        ),
        "query-layout": (
            lambda: joint_conditional(rho, wide, other, 0, (0,)),
            LayoutMismatchError,
            "partition layout does not match the density matrix layout",
        ),
        # the stacks of the empty column are taken first, and change nothing
        "query-parent-index": (
            lambda: joint_conditional(rho, None, part, 4, (0, 0)),
            IndexError, "parent index 4 out of range for 4 retained entries",
        ),
        "query-parent-index-local": (
            lambda: joint_conditional(rho, (((0,), flip),), part, -1, (0, 0)),
            IndexError, "parent index -1 out of range for 4 retained entries",
        ),
        "query-parent-index-flow": (
            lambda: joint_conditional(rho, flowed, part, 9, (0, 0)),
            IndexError, "parent index 9 out of range for 4 retained entries",
        ),
        "query-index-count": (
            lambda: joint_conditional(rho, None, part, 0, (0,)),
            IndexError, "expected 2 subsystem indices, got 1",
        ),
        "table-shape": (
            lambda: ConditionalTable(
                *fields, np.full((4, 2, 3), 1 / 6), table.mode
            ),
            LayoutMismatchError,
            "table shape (4, 2, 3) does not match entries (4, 2, 2)",
        ),
        "table-rows": (
            lambda: ConditionalTable(*fields, table.probabilities / 2, table.mode),
            NormalizationError,
            "conditional rows sum to 1 within 5.000e-01 > 1.0e-08",
        ),
        # the value farthest outside [0, 1] is named, or else the first NaN
        "table-values": (
            lambda: table_with(((1, 0, 1), -0.25), ((3, 1, 1), 1.5), ((0, 1, 1), 1.25)),
            ProbabilityBoundsError,
            "table values must lie in [0, 1]; the worst is 1.5 at [w, i_1..i_n] = (3, 1, 1)",
        ),
        "table-values-nan": (
            lambda: table_with(((0, 0, 0), 2.0), ((2, 1, 0), np.nan), ((3, 0, 0), np.nan)),
            ProbabilityBoundsError,
            "table values must lie in [0, 1]; the worst is nan at [w, i_1..i_n] = (2, 1, 0)",
        ),
    }


@pytest.mark.parametrize("name", list(_refusals()))
def test_partitions_queries_and_tables_refuse_bad_input(name):
    call, error, message = _refusals()[name]
    with pytest.raises(error) as info:
        call()
    assert info.value.args[0] == message


def test_singlet_anticorrelation_table():
    sc = epr_bohm()
    part = Partition(sc.layout, (("A",), ("B",)))
    table = conditional_table(sc.initial_state, None, part, mode="permissive")
    # the parent is pure, so one row; same-index outcomes are impossible
    expected = np.array([[[0.0, 0.5], [0.5, 0.0]]])
    assert np.abs(table.probabilities - expected).max() < 1e-12
    # each single-qubit block of the singlet is maximally mixed
    assert [b.degenerate_clusters for b in table.blocks] == [((0, 1),), ((0, 1),)]
    assert table.max_row_deviation < 1e-12


def test_singlet_strict_mode_refuses():
    sc = epr_bohm()
    part = Partition(sc.layout, (("A",), ("B",)))
    with pytest.raises(DegenerateBasisError):
        conditional_table(sc.initial_state, None, part, mode="strict")
    with pytest.raises(DegenerateBasisError):
        kinematic_conditional(sc.initial_state, part, 0, (0, 1), mode="strict")


def test_ghz_three_way_table():
    sc = ghz_mermin()
    part = Partition(sc.layout, (("A",), ("B",), ("C",)))
    table = conditional_table(sc.initial_state, None, part, mode="permissive")
    probs = table.probabilities[0]
    assert probs[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert probs[1, 1, 1] == pytest.approx(0.5, abs=1e-12)
    # every mixed outcome is forbidden
    for idx in itertools.product(range(2), repeat=3):
        if idx != (0, 0, 0) and idx != (1, 1, 1):
            assert probs[idx] < 1e-12


def test_joint_matches_loop_oracle_identity_channel():
    rng = np.random.default_rng(31)
    layout = SystemLayout(dims=(2, 3), labels=("A", "B"))
    part = Partition(layout, (("B",), ("A",)))  # scrambled block order on purpose
    for _ in range(5):
        rho = random_density_matrix(layout, rng, min_eigenvalue_gap=1e-3)
        parent = extract_epistemic(rho)
        block_b = extract_epistemic(rho.reduce(("B",)))
        block_a = extract_epistemic(rho.reduce(("A",)))
        for w, i, j in itertools.product(
            range(len(parent)), range(len(block_b)), range(len(block_a))
        ):
            got = joint_conditional(
                rho, unitary_channel(np.eye(6)), part, w, (i, j), mode="permissive"
            )
            want = naive_joint_probability(
                layout.dims,
                [(1,), (0,)],
                [block_b.vectors[:, i], block_a.vectors[:, j]],
                parent.vectors[:, w],
            )
            assert abs(got - want) < 1e-12


def test_joint_matches_loop_oracle_with_channel():
    rng = np.random.default_rng(32)
    layout = SystemLayout.qubits(("A", "B"))
    part = Partition(layout, (("A",), ("B",)))
    for _ in range(5):
        rho = random_density_matrix(layout, rng, min_eigenvalue_gap=1e-3)
        ch = random_kraus_channel(4, 3, rng)

        parent = extract_epistemic(rho)
        evolved = apply(ch, rho)
        block_a = extract_epistemic(evolved.reduce(("A",)))
        block_b = extract_epistemic(evolved.reduce(("B",)))
        for w, i, j in itertools.product(
            range(len(parent)), range(len(block_a)), range(len(block_b))
        ):
            got = joint_conditional(rho, ch, part, w, (i, j), mode="permissive")
            want = naive_joint_probability(
                layout.dims,
                [(0,), (1,)],
                [block_a.vectors[:, i], block_b.vectors[:, j]],
                parent.vectors[:, w],
                kraus_operators=ch.operators,
            )
            assert abs(got - want) < 1e-12


def test_kinematic_equals_joint_with_identity():
    rng = np.random.default_rng(33)
    layout = SystemLayout(dims=(2, 3), labels=("A", "B"))
    part = Partition(layout, (("A",), ("B",)))
    # an identity per entry: three generic states query every entry index
    for _ in range(3):
        rho = random_density_matrix(layout, rng, min_eigenvalue_gap=1e-3)
        parent = extract_epistemic(rho)
        e_a = extract_epistemic(rho.reduce(("A",)))
        e_b = extract_epistemic(rho.reduce(("B",)))
        for w, i, j in itertools.product(
            range(len(parent)), range(len(e_a)), range(len(e_b))
        ):
            a = kinematic_conditional(rho, part, w, (i, j), mode="permissive")
            b = joint_conditional(
                rho, unitary_channel(np.eye(6)), part, w, (i, j), mode="permissive"
            )
            assert abs(a - b) < 1e-12


def test_dynamical_equals_joint_with_trivial_partition():
    rng = np.random.default_rng(34)
    layout = SystemLayout(dims=(3,), labels=("Q",))
    part = trivial_partition(layout)
    for _ in range(10):
        rho = random_density_matrix(layout, rng, min_eigenvalue_gap=1e-3)
        ch = random_kraus_channel(3, 2, rng)
        e_t = extract_epistemic(rho)

        e_tp = extract_epistemic(apply(ch, rho))
        for i, j in itertools.product(range(len(e_t)), range(len(e_tp))):
            a = dynamical_conditional(rho, ch, i, j, mode="permissive")
            b = joint_conditional(rho, ch, part, i, (j,), mode="permissive")
            assert abs(a - b) < 1e-12


def test_rows_normalize_and_marginals_close():
    rng = np.random.default_rng(35)
    for dims in [(2, 2), (2, 3)]:
        layout = SystemLayout(dims=dims, labels=("A", "B"))
        part = Partition(layout, (("A",), ("B",)))
        for _ in range(10):
            rho = random_density_matrix(layout, rng, min_eigenvalue_gap=1e-3)
            ch = random_kraus_channel(layout.total_dim, 2, rng)
            table = conditional_table(rho, ch, part, mode="permissive")
            assert np.abs(table.row_sums - 1.0).max() < 1e-8
            assert table.max_row_deviation < 1e-8
            # law of total probability over the parent weights
            assert table.max_marginal_deviation < 1e-8


def test_bad_indices_raise_index_error():
    sc = ghz_mermin()
    part = Partition(sc.layout, (("A",), ("B",), ("C",)))
    with pytest.raises(IndexError):
        kinematic_conditional(sc.initial_state, part, 5, (0, 0, 0), mode="permissive")
    with pytest.raises(IndexError):
        kinematic_conditional(sc.initial_state, part, 0, (0, 0, 7), mode="permissive")


def test_table_values_stay_in_unit_interval():
    rng = np.random.default_rng(36)
    layout = SystemLayout.qubits(("A", "B"))
    part = Partition(layout, (("A",), ("B",)))
    for _ in range(10):
        rho = random_density_matrix(layout, rng)
        table = conditional_table(rho, None, part, mode="permissive")
        assert table.probabilities.min() >= 0.0
        assert table.probabilities.max() <= 1.0


def test_bound_error_names_worst_entry_in_plain_numbers():
    # a non-trace-preserving family pushes entry (w=1, i=1) to 2
    ops = (np.diag([1.0, np.sqrt(2.0)]),)
    part = trivial_partition(SystemLayout.qubits(("Q",)))
    with pytest.raises(ProbabilityBoundsError) as info:
        _block_probabilities([k @ np.eye(2) for k in ops], [np.eye(2)], part)
    message = str(info.value)
    assert "np.float64" not in message
    assert "2.0000000000000004 at [w, i_1..i_n] = (1, 1)" in message
    assert "1 + 1e-10" in message


def test_table_refuses_nan_and_derives_its_audit_numbers():
    qubit = SystemLayout.qubits(("Q",))
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), qubit)
    table = conditional_table(rho, None, trivial_partition(qubit))
    fields = (table.parent, table.blocks, table.partition)
    probs = table.probabilities.copy()
    probs[0, 0] = np.nan
    with pytest.raises(ProbabilityBoundsError, match=r"lie in \[0, 1\]"):
        ConditionalTable(*fields, probs, table.mode)
    # the audit numbers are computed, never taken from the caller
    for name in ("row_sums", "max_row_deviation", "max_marginal_deviation"):
        with pytest.raises(TypeError):
            ConditionalTable(*fields, table.probabilities, table.mode, **{name: 0.0})


@pytest.mark.parametrize("blocks", ["S,P,E1+E2+E3", "S+P,E1,E2+E3"])
def test_schedule_table_equals_composed_dense_channel(blocks):
    sc = von_neumann_measurement(np.sqrt(0.3), np.sqrt(0.7), n_env=3)
    dims = sc.layout.dims
    dense = [
        unitary_channel(naive_embed(ch.operators[0], dims, positions))
        for positions, ch in sc.dynamics
    ]
    composed = dense[0]
    for nxt in dense[1:]:
        composed = compose(nxt, composed)
    part = Partition(sc.layout, tuple(tuple(b.split("+")) for b in blocks.split(",")))
    rho = DensityMatrix.from_vector(sc.initial_state.vector, sc.layout)
    want = conditional_table(rho, composed, part)
    got = conditional_table(sc.initial_state, sc.dynamics, part)
    assert got.probabilities.shape == want.probabilities.shape
    assert np.abs(got.probabilities - want.probabilities).max() < 1e-12
    for a, b in zip(got.blocks, want.blocks):
        assert np.abs(a.probabilities - b.probabilities).max() < 1e-12


def test_a_block_of_every_factor_reads_the_state_itself(monkeypatch):
    # the final state is the block's reading: no partial trace densifies it
    sc = von_neumann_measurement(np.sqrt(0.3), np.sqrt(0.7), n_env=3)

    def refuse(self, keep):
        raise AssertionError(f"reduced to {keep}")

    monkeypatch.setattr(PureState, "reduce", refuse)
    table = conditional_table(sc.initial_state, sc.dynamics, trivial_partition(sc.layout))
    assert table.blocks[0].probabilities.tolist() == [1.0]
    assert table.probabilities.item() == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ property tests

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None)


@st.composite
def random_cases(draw):
    """Partition with random block order and grouping, state and channel.

    Layouts have 2-3 factors of dims 2-3; the channel is a random Kraus
    family with 1-3 operators. The returned generator picks query entries.
    """
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    labels = [f"Q{k}" for k in range(len(dims))]
    order = draw(st.permutations(labels))
    cuts = draw(st.sets(st.integers(1, len(dims) - 1), max_size=len(dims) - 1))
    bounds = [0, *sorted(cuts), len(dims)]
    blocks = tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))
    layout = SystemLayout(tuple(dims), tuple(labels))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = random_density_matrix(layout, rng)
    ch = random_kraus_channel(layout.total_dim, draw(st.integers(1, 3)), rng)
    return Partition(layout, blocks), rho, ch, rng


def _table_entries(table):
    return itertools.product(*(range(n) for n in table.probabilities.shape))


@PROPERTY_SETTINGS
@given(random_cases(), st.booleans())
def test_table_matches_naive_oracle(case, identity):
    part, rho, ch, _ = case
    channel = None if identity else ch
    table = conditional_table(rho, channel, part, mode="permissive")
    positions = [part.layout.positions(block) for block in part.blocks]
    for w, *idx in _table_entries(table):
        want = naive_joint_probability(
            part.layout.dims,
            positions,
            [b.vectors[:, i] for b, i in zip(table.blocks, idx)],
            table.parent.vectors[:, w],
            kraus_operators=None if identity else ch.operators,
        )
        assert abs(table.probabilities[(w, *idx)] - want) < 1e-12


def _spectral_gaps(e):
    """Gaps between an epistemic state's adjacent probabilities (inf for one)."""
    return np.append(-np.diff(e.probabilities), np.inf)


@PROPERTY_SETTINGS
@given(random_cases())
def test_a_local_unitary_frame_change_leaves_every_entry_in_place(case):
    # rho -> U rho U^dag and K -> U K U^dag with U = U_1 kron ... kron U_n over
    # the blocks rotate the parent and every block eigenbasis by the same
    # unitaries and keep every spectrum; so each entry stays where it was.
    # Eigenvectors are read to round-off over gap, hence the assumed gaps.
    part, rho, ch, rng = case
    dims = part.layout.dims
    u = np.eye(part.layout.total_dim, dtype=complex)
    for block in part.blocks:
        positions = part.layout.positions(block)
        u_block = random_unitary(int(np.prod([dims[p] for p in positions])), rng)
        u = naive_embed(u_block, dims, positions) @ u
    table = conditional_table(rho, ch, part, mode="permissive")
    for e in (table.parent, *table.blocks):
        assume(_spectral_gaps(e).min() > 1e-3)
    moved = conditional_table(
        DensityMatrix(u @ rho.matrix @ u.conj().T, part.layout),
        KrausChannel(u @ ch.operators @ u.conj().T),
        part,
        mode="permissive",
    )
    assert moved.probabilities.shape == table.probabilities.shape
    assert np.abs(moved.probabilities - table.probabilities).max() <= 1e-12


@PROPERTY_SETTINGS
@given(random_cases().filter(lambda case: len(case[0].blocks) > 1), st.data())
def test_a_channel_on_the_other_blocks_leaves_a_blocks_marginal_rows(case, data):
    # no-signalling: a channel acting only on the other blocks keeps this
    # block's reduced state, so p(i_a | w) summed over the other blocks'
    # entries is its value under the identity; the block's eigenvectors are
    # read to round-off over gap, hence the assumed gaps
    part, rho, _, rng = case
    a = data.draw(st.integers(0, len(part.blocks) - 1))
    others = sorted(
        p for k, block in enumerate(part.blocks) if k != a
        for p in part.layout.positions(block)
    )
    support = int(np.prod([part.layout.dims[p] for p in others]))
    ch = random_kraus_channel(support, int(rng.integers(1, 4)), rng)
    still = conditional_table(rho, None, part, mode="permissive")
    assume(_spectral_gaps(still.blocks[a]).min() > 1e-3)
    acted = conditional_table(rho, ((tuple(others), ch),), part, mode="permissive")
    axes = tuple(k + 1 for k in range(len(part.blocks)) if k != a)
    want, got = still.probabilities.sum(axis=axes), acted.probabilities.sum(axis=axes)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


@PROPERTY_SETTINGS
@given(random_cases())
def test_scalar_queries_are_table_entries(case):
    part, rho, ch, rng = case

    def some_entry(table):
        return tuple(int(rng.integers(n)) for n in table.probabilities.shape)

    table = conditional_table(rho, ch, part, mode="permissive")
    w, *idx = some_entry(table)
    got = joint_conditional(rho, ch, part, w, idx, mode="permissive")
    assert abs(got - table.probabilities[(w, *idx)]) < 1e-14

    # a one-step local schedule, on the first factor only
    local = (((0,), random_kraus_channel(part.layout.dims[0], 2, rng)),)
    table = conditional_table(rho, local, part, mode="permissive")
    w, *idx = some_entry(table)
    got = joint_conditional(rho, local, part, w, idx, mode="permissive")
    assert abs(got - table.probabilities[(w, *idx)]) < 1e-14

    table = conditional_table(rho, None, part, mode="permissive")
    w, *idx = some_entry(table)
    got = kinematic_conditional(rho, part, w, idx, mode="permissive")
    assert abs(got - table.probabilities[(w, *idx)]) < 1e-14

    table = conditional_table(rho, ch, trivial_partition(rho.layout), mode="permissive")
    i, j = some_entry(table)
    got = dynamical_conditional(rho, ch, i, j, mode="permissive")
    assert abs(got - table.probabilities[i, j]) < 1e-14


def test_superoperator_dynamics_is_refused():
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), SystemLayout.qubits(("Q",)))
    part = trivial_partition(rho.layout)
    sup = Superoperator(np.eye(4), 2)
    hint = re.escape("KrausChannel(choi_to_kraus(superoperator_to_choi(s), d))")
    calls = [
        lambda: conditional_table(rho, sup, part),
        lambda: conditional_table(rho, (((0,), sup),), part),
        lambda: joint_conditional(rho, sup, part, 0, (0,)),
        lambda: dynamical_conditional(rho, sup, 0, 0),
        lambda: build_step_chain(sup, rho, TimeGrid(1.0, 2)),
        lambda: apply(sup, rho),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=hint):
            call()


def test_dynamics_of_the_wrong_dim_or_positions_are_refused_by_one_gate():
    qubit = SystemLayout.qubits(("Q",))
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), qubit)
    part = trivial_partition(rho.layout)
    wide = unitary_channel(np.eye(4))
    for call in (
        lambda: conditional_table(rho, wide, part),
        lambda: conditional_table(rho, (((0,), wide),), part),
        lambda: build_step_chain(wide, rho, TimeGrid(1.0, 2)),
        lambda: apply(wide, rho),
    ):
        with pytest.raises(DimensionMismatchError, match="channel dim 4 does not match"):
            call()
    pair = SystemLayout.qubits(("A", "B"))
    rho2 = DensityMatrix(np.eye(4, dtype=complex) / 4, pair)
    with pytest.raises(LayoutMismatchError, match="not distinct factors"):
        conditional_table(rho2, (((0, 0), wide),), trivial_partition(pair))


def test_generator_dynamics_is_refused_with_the_conversion():
    sc = amplitude_damping_qubit(1.0)
    rho, gen = sc.initial_state, sc.dynamics
    hint = re.escape(
        "not a LindbladGenerator; convert a LindbladGenerator first with "
        "evolve(generator, dt)"
    )
    grid = TimeGrid(0.25, 2)
    calls = [
        lambda: conditional_table(rho, gen, trivial_partition(rho.layout)),
        lambda: conditional_table(rho, (((0,), gen),), trivial_partition(rho.layout)),
        lambda: build_step_chain(gen, rho, grid),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=hint):
            call()
    # the conversion the message names is accepted
    assert build_step_chain(evolve(gen, grid.dt), rho, grid).grid is grid
