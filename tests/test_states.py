import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modaldyn import (
    DensityMatrix,
    DimensionMismatchError,
    EpistemicState,
    InvalidDensityMatrixError,
    NonOrthogonalEntriesError,
    Partition,
    PureState,
    SystemLayout,
    conditional_table,
    epistemic_to_density,
    extract_epistemic,
)
from modaldyn import linalg

from random_objects import random_density_matrix, random_state_vector

QUBIT = SystemLayout.qubits(("Q",))


def test_density_matrix_validation():
    DensityMatrix(np.diag([0.6, 0.4]).astype(complex), QUBIT)
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex), QUBIT)  # trace 1.2
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]), QUBIT)  # not Hermitian
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex), QUBIT)  # not PSD
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(np.eye(3) / 3.0, QUBIT)  # wrong shape for layout


PAIR = SystemLayout.qubits(("A", "B"))
REFUSALS = {
    "mode": (
        lambda: conditional_table(
            DensityMatrix(np.eye(4) / 4, PAIR), None, Partition(PAIR, (("A",), ("B",))),
            mode="lenient",
        ),
        ValueError, "mode must be 'strict' or 'permissive': 'lenient'",
    ),
    "extract-array": (
        lambda: extract_epistemic(np.eye(2) / 2),
        InvalidDensityMatrixError, "extract_epistemic expects a DensityMatrix or a PureState",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_readings_refuse_a_bad_mode_or_a_non_state(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert info.value.args[0] == message


def test_density_matrix_is_immutable():
    rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex), QUBIT)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def test_ontic_state_unit_norm_and_phase():
    with pytest.raises(InvalidDensityMatrixError):
        EpistemicState(np.ones(1), np.array([[1.0], [1.0]]), QUBIT)
    e = EpistemicState(np.ones(1), np.array([[0.0], [1j]]), QUBIT)
    # stored vectors are phase-canonicalized, column by column
    assert np.abs(e.vectors[:, 0] - np.array([0.0, 1.0])).max() < 1e-15
    with pytest.raises(ValueError):
        e.vectors[0, 0] = 1.0
    with pytest.raises(ValueError):
        e.probabilities[0] = 0.5


def test_epistemic_state_checks_shape_entries_and_clusters():
    with pytest.raises(DimensionMismatchError):
        EpistemicState(np.ones(1), np.ones((3, 1)) / np.sqrt(3.0), QUBIT)
    with pytest.raises(DimensionMismatchError):
        EpistemicState(np.ones(1), np.eye(2), QUBIT)
    with pytest.raises(InvalidDensityMatrixError, match="at least one entry"):
        EpistemicState(np.ones(0), np.ones((2, 0)), QUBIT, truncation_mass=1.0)
    with pytest.raises(IndexError, match="cluster index out of range"):
        EpistemicState(np.full(2, 0.5), np.eye(2), QUBIT, ((0, 2),))


def test_extract_epistemic_reads_spectrum():
    rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex), QUBIT)
    e = extract_epistemic(rho)
    assert e.probabilities.tolist() == pytest.approx([0.7, 0.3])
    # entries come back in descending probability order with matching vectors
    assert np.abs(e.vectors[:, 0] - np.array([0.0, 1.0])).max() < 1e-14
    assert np.abs(e.vectors[:, 1] - np.array([1.0, 0.0])).max() < 1e-14
    assert e.truncation_mass == 0.0
    assert e.degenerate_clusters == ()


def test_extract_flags_degeneracy():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0, QUBIT)
    e = extract_epistemic(rho)
    assert e.degenerate_clusters == ((0, 1),)
    assert e.is_degenerate(0) and e.is_degenerate(1)


def test_extract_pure_state_shortcut():
    v = np.array([0.6, 0.8], dtype=complex)
    rho = DensityMatrix(np.outer(v, v.conj()), QUBIT)
    e = extract_epistemic(rho)
    assert len(e) == 1
    assert e.probabilities[0] == 1.0
    assert np.abs(e.vectors[:, 0] - v).max() < 1e-8


def test_threshold_moves_small_weights_to_truncation_mass():
    rho = DensityMatrix(np.diag([0.9995, 0.0005]).astype(complex), QUBIT)
    e = extract_epistemic(rho, threshold=1e-3)
    assert len(e) == 1
    assert e.truncation_mass == pytest.approx(0.0005, abs=1e-12)
    with pytest.raises(ValueError):
        extract_epistemic(rho, threshold=1.0)
    with pytest.raises(ValueError):
        extract_epistemic(rho, threshold=-0.1)


def test_roundtrip_random_states():
    rng = np.random.default_rng(101)
    for trial in range(30):
        dim = int(rng.integers(2, 7))
        layout = SystemLayout((dim,), ("Q",))
        rho = random_density_matrix(layout, rng)
        e = extract_epistemic(rho)
        back = epistemic_to_density(e)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-10
        gram = e.vectors.conj().T @ e.vectors
        assert np.abs(gram - np.eye(len(e))).max() < 1e-11


def test_reduce_produces_subsystem_state():
    layout = SystemLayout.qubits(("A", "B"))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = DensityMatrix(np.outer(bell, bell.conj()), layout)
    reduced = rho.reduce(("A",))
    assert reduced.layout.labels == ("A",)
    assert np.abs(reduced.matrix - np.eye(2) / 2.0).max() < 1e-14
    e = extract_epistemic(reduced)
    assert e.probabilities.tolist() == pytest.approx([0.5, 0.5])
    assert e.degenerate_clusters == ((0, 1),)


def test_a_block_of_every_factor_is_read_as_the_state_itself(monkeypatch):
    # in any order and with no reduction; a block of fewer factors reads the reduction
    from modaldyn.errors import LayoutMismatchError
    from modaldyn.states import extract_block

    rng = np.random.default_rng(41)
    layout = SystemLayout.qubits(("A", "B", "C"))
    pure = PureState(random_state_vector(8, rng), layout)
    for rho in (pure, random_density_matrix(layout, rng)):
        with pytest.raises(LayoutMismatchError, match="'B' named more than once"):
            extract_block(rho, ("A", "B", "B"), 0.0)
        read = [extract_block(rho, ("C", "A"), 0.0)]
        monkeypatch.setattr(type(rho), "reduce", None)
        read.append(extract_block(rho, ("C", "A", "B"), 0.0))
        monkeypatch.undo()
        for e, expected in zip(read, (rho.reduce(("A", "C")), rho)):
            want = extract_epistemic(expected, 0.0)
            assert np.array_equal(e.probabilities, want.probabilities)
            assert np.array_equal(e.vectors, want.vectors)
            assert e.layout == expected.layout


def test_one_decomposition_per_block_read(monkeypatch):
    # a block that no record holds is checked on the eigh that reads it
    from modaldyn import TimeGrid, build_step_chain, evolve
    from modaldyn.scenarios import amplitude_damping_qubit, von_neumann_measurement
    from modaldyn.states import extract_block

    rng = np.random.default_rng(5)
    rho = random_density_matrix(SystemLayout((2, 3), ("A", "B")), rng)
    sc = von_neumann_measurement(np.sqrt(0.3), np.sqrt(0.7), n_env=3)
    part = Partition(sc.layout, (("S",), ("P",), ("E1", "E2", "E3")))
    damping = amplitude_damping_qubit(1.0, DensityMatrix(np.diag([0.3, 0.7]), QUBIT))
    grid = TimeGrid(0.25, 4)
    step = evolve(damping.dynamics, grid.dt)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def count(read):
        calls.clear()
        read()
        return len(calls)

    assert count(lambda: extract_block(rho, ("B",), 0.0)) == 1
    assert count(lambda: conditional_table(sc.initial_state, sc.dynamics, part)) == 3
    # the chain's one stacked eigh reads and checks every grid state
    assert count(lambda: build_step_chain(step, damping.initial_state, grid)) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=2, max_size=4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-3, 1e-2]),
)
def test_a_block_read_is_the_reading_of_its_reduction(dims, pure, seed, threshold):
    from modaldyn.states import extract_block

    rng = np.random.default_rng(seed)
    layout = SystemLayout(tuple(dims), tuple(f"Q{k}" for k in range(len(dims))))
    d = layout.total_dim
    if pure:
        rho = PureState(random_state_vector(d, rng), layout)
    else:
        rho = random_density_matrix(layout, rng, rank=int(rng.integers(1, d + 1)))
    n = int(rng.integers(1, len(dims)))
    labels = tuple(rng.permutation(layout.labels)[:n])
    e = extract_block(rho, labels, threshold)
    want = extract_epistemic(rho.reduce(labels), threshold)
    assert e.layout == want.layout
    assert np.array_equal(e.probabilities, want.probabilities)
    assert np.array_equal(e.vectors, want.vectors)
    assert e.degenerate_clusters == want.degenerate_clusters
    assert e.truncation_mass == want.truncation_mass


def test_a_block_read_refuses_what_its_reduction_refuses():
    # each eigenvalue of the pair is within PSD_TOL, A's reduction is not
    from modaldyn.states import extract_block

    eps = 0.9e-10
    rho = DensityMatrix(
        np.diag([0.5 + eps, 0.5 + eps, -eps, -eps]), SystemLayout.qubits(("A", "B"))
    )
    messages = []
    for read in (
        lambda: extract_block(rho, ("A",), 0.0),
        lambda: extract_epistemic(rho.reduce(("A",)), 0.0),
    ):
        with pytest.raises(InvalidDensityMatrixError) as info:
            read()
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "minimum eigenvalue -1.800e-10 below -1.0e-10"


def test_epistemic_state_rejects_non_orthogonal_entries():
    vectors = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.array([1.0, np.sqrt(2.0)])
    with pytest.raises(NonOrthogonalEntriesError):
        EpistemicState(np.array([0.5, 0.5]), vectors, QUBIT)


@pytest.mark.parametrize(
    "args, kwargs, error, message",
    [
        (
            ([0.5, 0.5], np.array([[1.0, 1.0], [0.0, 1.0]]) / np.array([1.0, np.sqrt(2.0)])),
            {},
            NonOrthogonalEntriesError,
            "retained ontic states are not mutually orthonormal: max |V^dag V - I| = "
            "7.071e-01 exceeds 1.0e-09",
        ),
        (
            ([0.5, 0.5], np.eye(2)),
            {"degenerate_clusters": ((0, 1), (2,))},
            IndexError,
            "degenerate cluster index out of range: 2 is not in [0, 2)",
        ),
        (
            ([0.6, 0.6], np.eye(2)),
            {"truncation_mass": -0.2},
            InvalidDensityMatrixError,
            "truncation mass -0.2 is below -1.000e-09",
        ),
        (
            ([0.6, 0.4 + 2e-9], np.eye(4)[:, :2]),
            {"truncation_mass": -2e-9},
            InvalidDensityMatrixError,
            "truncation mass -2e-09 is below -1.200e-09",
        ),
    ],
    ids=["non-orthonormal", "cluster-index", "negative-mass", "mass-of-two-dropped"],
)
def test_epistemic_state_refusals_name_the_value_and_the_bound(args, kwargs, error, message):
    probabilities, vectors = args
    layout = QUBIT if len(vectors) == 2 else PAIR
    with pytest.raises(error) as info:
        EpistemicState(np.array(probabilities), vectors, layout, **kwargs)
    assert str(info.value) == message


def test_a_negative_truncation_mass_is_not_reassembled():
    # accepted, it was reassembled as diag(0.5, 0.5)
    with pytest.raises(InvalidDensityMatrixError, match="truncation mass -0.2"):
        epistemic_to_density(EpistemicState([0.6, 0.6], np.eye(2), QUBIT, truncation_mass=-0.2))


def test_dropped_eigenvalues_near_the_psd_bound_are_read():
    # 14 dropped eigenvalues of -0.95 PSD_TOL hold less than -MASS_BALANCE_TOL,
    # but no less than the bound of 14 dropped eigenvalues
    layout = SystemLayout.qubits(("A", "B", "C", "D"))
    w = np.full(16, -0.95e-10)
    w[:2] = 0.6, 0.4 + 14 * 0.95e-10
    e = extract_epistemic(DensityMatrix(np.diag(w).astype(complex), layout))
    assert e.probabilities.tolist() == [0.6, w[1]]
    assert e.truncation_mass == pytest.approx(-14 * 0.95e-10, rel=1e-12)
    assert e.truncation_mass < -1e-9


def test_epistemic_state_rejects_bad_mass_balance():
    with pytest.raises(InvalidDensityMatrixError, match="sum to 0.8, not 1"):
        EpistemicState(np.array([0.5, 0.3]), np.eye(2), QUBIT)


@pytest.mark.parametrize(
    "probabilities, vectors, mass, message",
    [
        ([1.2, -0.2], np.eye(2), 0.0, "probability 0 is 1.2, outside [0, 1]"),
        ([1.5], np.array([[1.0], [0.0]]), -0.5, "probability 0 is 1.5, outside [0, 1]"),
        ([0.9, -0.1], np.eye(2), 0.2, "probability 1 is -0.1, outside [0, 1]"),
        ([0.5, np.nan], np.eye(2), 0.5, "probability 1 is nan, outside [0, 1]"),
    ],
    ids=["above-one", "above-one-with-negative-mass", "negative", "nan"],
)
def test_epistemic_state_refuses_a_probability_outside_the_unit_interval(
    probabilities, vectors, mass, message
):
    with pytest.raises(InvalidDensityMatrixError) as info:
        EpistemicState(np.array(probabilities), vectors, QUBIT, truncation_mass=mass)
    assert str(info.value) == message


def test_state_bounds_reject_nan_and_print_plain_numbers():
    with pytest.raises(InvalidDensityMatrixError):
        EpistemicState(np.ones(1), np.array([[np.nan], [1.0]]), QUBIT)
    with pytest.raises(InvalidDensityMatrixError):
        EpistemicState(np.array([np.nan]), np.array([[1.0], [0.0]]), QUBIT)
    with pytest.raises(InvalidDensityMatrixError) as info:
        DensityMatrix(np.diag([0.6, 0.4 + 6e-10]).astype(complex), QUBIT)
    assert str(info.value) == "trace 1.0000000006+0i is not 1 within 1.0e-10"


def test_rebuild_refuses_large_truncation():
    rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex), QUBIT)
    e = extract_epistemic(rho, threshold=0.5)
    assert e.truncation_mass == pytest.approx(0.1)
    with pytest.raises(ValueError):
        epistemic_to_density(e)


def test_pure_state_normalizes_and_rejects_non_states():
    pair = SystemLayout.qubits(("A", "B"))
    psi = PureState(np.array([0.0, 3.0j, 0.0, 4.0j]), pair)
    assert np.abs(psi.vector - np.array([0.0, 0.6j, 0.0, 0.8j])).max() < 1e-15
    with pytest.raises(ValueError):
        psi.vector[0] = 1.0
    for bad in ([0.0, 0.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0], [np.inf, 1.0, 0.0, 0.0]):
        with pytest.raises(InvalidDensityMatrixError):
            PureState(np.array(bad), pair)
    with pytest.raises(InvalidDensityMatrixError):
        PureState(np.array([1.0, 0.0]), pair)
    e = extract_epistemic(psi)
    assert e.probabilities.tolist() == [1.0]
    # canonical phase: the largest component is real and positive
    assert np.abs(e.vectors[:, 0] - np.array([0.0, 0.6, 0.0, 0.8])).max() < 1e-15
    dense = extract_epistemic(DensityMatrix.from_vector(psi.vector, pair))
    assert np.abs(dense.vectors - e.vectors).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=1, max_size=2),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_record_holds_the_ordered_eigenvectors(dims, pure, seed):
    rng = np.random.default_rng(seed)
    layout = SystemLayout(tuple(dims), tuple(f"Q{k}" for k in range(len(dims))))
    d = layout.total_dim
    if pure:
        psi = PureState(random_state_vector(d, rng), layout)
        rho = DensityMatrix.from_vector(psi.vector, layout).matrix
        e = extract_epistemic(psi)
        want = [linalg.canonical_phase(psi.vector)]
    else:
        state = random_density_matrix(layout, rng, rank=int(rng.integers(1, d + 1)))
        rho = state.matrix
        e = extract_epistemic(state)
        _, v = linalg._ordered_eig(rho)
        want = [linalg.canonical_phase(v[:, i]) for i in range(len(e))]
    assert e.vectors.shape == (d, len(e)) and e.probabilities.shape == (len(e),)
    for i, col in enumerate(want):
        assert np.array_equal(e.vectors[:, i], col)
    assert np.abs(e.vectors.conj().T @ e.vectors - np.eye(len(e))).max() <= 1e-12
    if e.truncation_mass == 0.0:
        back = (e.vectors * e.probabilities) @ e.vectors.conj().T
        assert np.abs(back - rho).max() <= 1e-12
