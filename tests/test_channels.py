import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from modaldyn import (
    ConditionalTable,
    CptVerificationError,
    DensityMatrix,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    KrausChannel,
    LindbladGenerator,
    NotHermitianError,
    NotUnitaryError,
    Partition,
    ProblemTooLargeError,
    PureState,
    Superoperator,
    SystemLayout,
    apply,
    choi_to_kraus,
    compose,
    conditional_table,
    evolve,
    kraus_to_choi,
    superoperator_to_choi,
    unitary_channel,
    verify_cpt,
    verify_kraus_operators,
    verify_superoperator_matrix,
    von_neumann_measurement,
)
from modaldyn import channels, cli, linalg

from oracles import (
    naive_choi,
    naive_embed,
    naive_kraus_apply,
    naive_lindblad_generator,
    naive_partial_trace,
    naive_superoperator,
    trace_distance,
)
from random_objects import (
    random_density_matrix,
    random_kraus_channel,
    random_lindblad,
    random_state_vector,
    random_unitary,
)

QUBIT = SystemLayout.qubits(("Q",))
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def damping_kraus(p: float) -> KrausChannel:
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(operators=(k0, k1))


def test_kraus_completeness_enforced():
    with pytest.raises(CptVerificationError):
        KrausChannel(operators=(np.eye(2) * 0.5,))
    with pytest.raises(TypeError):
        KrausChannel(operators=(np.eye(2),), dim=7)  # the dimension is derived
    ch = damping_kraus(0.3)
    assert verify_cpt(ch).is_tp
    assert verify_cpt(ch).is_cp


def test_a_channel_owns_one_read_only_operator_array():
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.7)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(0.3)], [0.0, 0.0]], dtype=complex)
    stack = np.stack([k0, k1])
    ch = KrausChannel(stack)
    assert ch.operators.shape == (2, 2, 2) and ch.operators.dtype == complex
    stack[0] = 0.0  # the caller's array, written after the check
    assert np.array_equal(ch.operators, np.stack([k0, k1]))
    one = KrausChannel((k0, k1))  # a sequence of matrices stacks the same way
    k0[0, 0] = 5.0
    assert np.array_equal(one.operators, ch.operators)
    with pytest.raises(ValueError, match="read-only"):
        ch.operators[0, 0, 0] = 2.0
    assert verify_cpt(ch).is_tp


def test_a_channel_refuses_an_operator_array_of_the_wrong_shape():
    with pytest.raises(CptVerificationError, match="at least one Kraus operator"):
        KrausChannel(())
    with pytest.raises(CptVerificationError, match="at least one Kraus operator"):
        KrausChannel(np.zeros((0, 2, 2)))
    with pytest.raises(DimensionMismatchError, match=r"disagree: \[\(2, 2\), \(3, 3\)\]"):
        KrausChannel((np.eye(2), np.eye(3)))
    for bad in (np.eye(2), np.ones((1, 2, 3))):
        with pytest.raises(DimensionMismatchError, match=r"not \(n, d, d\)"):
            KrausChannel(bad)


def test_the_cpt_reports_refuse_non_finite_input():
    inf_diag = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic
        with pytest.raises(ValueError, match=r"Kraus operator entries must be finite: \(inf"):
            verify_kraus_operators([inf_diag])
        s = np.eye(4)
        s[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"superoperator entries must be finite: \(nan"):
            verify_superoperator_matrix(s, 2)


def test_unitary_channel_requires_unitary():
    with pytest.raises(NotUnitaryError):
        unitary_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))
    rng = np.random.default_rng(0)
    u = random_unitary(3, rng)
    ch = unitary_channel(u)
    rep = verify_cpt(ch)
    assert rep.is_cp and rep.is_tp


def test_apply_matches_naive_kraus_sum():
    rng = np.random.default_rng(14)
    for _ in range(10):
        ch = random_kraus_channel(3, 4, rng)
        rho = random_density_matrix(SystemLayout((3,), ("Q",)), rng)
        out = apply(ch, rho)
        ref = naive_kraus_apply(ch.operators, rho.matrix)
        assert np.abs(out.matrix - ref).max() < 1e-12
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12


@pytest.mark.parametrize("case", ["qubit-damping", "random-2x3"])
def test_iterate_equals_repeated_apply_bit_for_bit(case):
    # a chain's grid states are the states apply carries step by step
    rng = np.random.default_rng(30)
    if case == "qubit-damping":
        layout = QUBIT
        step = KrausChannel([[[1, 0], [0, np.sqrt(0.7)]], np.sqrt(0.3) * LOWER])
    else:
        layout = SystemLayout((2, 3), ("A", "B"))
        step = random_kraus_channel(6, 3, rng)
    state = random_density_matrix(layout, rng)
    stack = channels.iterate(step, state.matrix, 6)
    expected = [state.matrix]
    for _ in range(6):
        state = apply(step, state)
        expected.append(state.matrix)
    assert np.array_equal(stack, np.stack(expected))


def test_superoperator_reproduces_kraus_action():
    rng = np.random.default_rng(15)
    ch = random_kraus_channel(2, 3, rng)
    s = Superoperator(naive_superoperator(ch.operators), 2)
    rho = random_density_matrix(QUBIT, rng)
    via_kraus = naive_kraus_apply(ch.operators, rho.matrix)
    via_super = (s.matrix @ rho.matrix.reshape(-1)).reshape(2, 2)
    assert np.abs(via_kraus - via_super).max() < 1e-12


def test_choi_roundtrip():
    rng = np.random.default_rng(16)
    for _ in range(5):
        ch = random_kraus_channel(3, 2, rng)
        choi = kraus_to_choi(ch)
        # the two Choi constructions must agree
        choi2 = superoperator_to_choi(Superoperator(naive_superoperator(ch.operators), 3))
        assert np.abs(choi - choi2).max() < 1e-12
        ops = choi_to_kraus(choi, 3)
        rebuilt = KrausChannel(ops)
        rho = random_density_matrix(SystemLayout((3,), ("Q",)), rng)
        a = naive_kraus_apply(ch.operators, rho.matrix)
        b = naive_kraus_apply(rebuilt.operators, rho.matrix)
        assert np.abs(a - b).max() < 1e-10


def test_transpose_map_rejected():
    # transpose is trace preserving but not completely positive
    d = 2
    s = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            s[d * j + i, d * i + j] = 1.0
    rep = verify_superoperator_matrix(s, d)
    assert rep.is_tp
    assert not rep.is_cp
    assert rep.choi_min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(CptVerificationError):
        choi_to_kraus(superoperator_to_choi(Superoperator(s, d)), d)


def test_verify_kraus_reports_completeness_residual():
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - 0.3)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(0.3 + 1e-6)], [0.0, 0.0]], dtype=complex)
    rep = verify_kraus_operators((k0, k1))
    assert not rep.is_tp
    assert rep.is_cp
    assert rep.completeness_residual > 1e-7


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_a_tolerance_not_finite_and_nonnegative_is_refused_before_any_eigensolver(
    monkeypatch, tol
):
    # -1 and NaN reported the identity as neither CP nor TP; inf passed anything
    def eigensolver(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigensolver)
    monkeypatch.setattr(np.linalg, "eigh", eigensolver)
    message = f"tol must be finite and >= 0: {tol}"
    with pytest.raises(ValueError) as info:
        verify_kraus_operators(np.eye(2)[None], tol=tol)
    assert info.value.args[0] == message
    with pytest.raises(ValueError) as info:
        verify_superoperator_matrix(np.eye(4), 2, tol=tol)
    assert info.value.args[0] == message
    with pytest.raises(ValueError) as info:
        verify_cpt(unitary_channel(np.eye(2)), tol)
    assert info.value.args[0] == message


def test_identity_channel_is_noop():
    rng = np.random.default_rng(17)
    rho = random_density_matrix(QUBIT, rng)
    out = apply(unitary_channel(np.eye(2)), rho)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-15


def test_lindblad_generator_validation():
    with pytest.raises(Exception):
        LindbladGenerator(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]), jumps=())
    with pytest.raises(ValueError):
        LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, -1.0),))
    with pytest.raises(ValueError, match="rate must be finite and nonnegative: inf"):
        LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, np.inf),))
    for bad in (np.inf, np.nan):
        op = LOWER.copy()
        op[1, 0] = bad
        with pytest.raises(ValueError, match="jump operator entries must be finite"):
            LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((op, 1.0),))


REFUSALS = {
    "hamiltonian-not-square": (
        lambda: LindbladGenerator(np.zeros((2, 3))),
        NotHermitianError, "Hamiltonian must be square, got (2, 3)",
    ),
    "jump-shape": (
        lambda: LindbladGenerator(np.zeros((2, 2)), ((np.eye(3), 1.0),)),
        DimensionMismatchError, "jump operator shape (3, 3) does not match (2, 2)",
    ),
    "superoperator-shape": (
        lambda: Superoperator(np.eye(4), 3),
        DimensionMismatchError, "superoperator shape (4, 4) is not (9, 9)",
    ),
    "unitary-not-square": (
        lambda: unitary_channel(np.eye(3)[:2]),
        NotUnitaryError, "expected a square matrix, got (2, 3)",
    ),
    "choi-zero": (
        lambda: choi_to_kraus(np.zeros((4, 4)), 2),
        CptVerificationError, "Choi matrix has no eigenvalue above cutoff",
    ),
    "compose-dims": (
        lambda: compose(unitary_channel(np.eye(2)), unitary_channel(np.eye(4))),
        DimensionMismatchError, "cannot compose dims 2 and 4",
    ),
    "renormalize-incomplete": (
        lambda: channels._renormalize_completeness(np.array([1.1 * np.eye(2)])),
        CptVerificationError, "extracted Kraus family misses completeness by 2.970e-01",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_constructors_and_conversions_refuse_bad_shapes(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert info.value.args[0] == message


@pytest.mark.parametrize("cp", [True, False], ids=["kraus", "transpose"])
def test_verify_cpt_reads_a_superoperator_by_its_matrix(cp):
    ops = random_kraus_channel(2, 3, np.random.default_rng(61)).operators
    # the transpose map, vec(rho) -> vec(rho^T), is TP and not CP
    matrix = naive_superoperator(ops) if cp else np.eye(4)[[0, 2, 1, 3]]
    sup = Superoperator(matrix, 2)
    report = verify_cpt(sup)
    assert report == verify_superoperator_matrix(sup.matrix, sup.dim)
    assert (report.is_cp, report.is_tp) == (cp, True)


def test_lindblad_superoperator_action_on_dephasing():
    # generator must act as -2*gamma on the coherence |0><1|
    gamma = 0.7
    g = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, gamma),))
    ls = naive_lindblad_generator(g.hamiltonian, g.jumps, "C")
    coherence = np.zeros((2, 2), dtype=complex)
    coherence[0, 1] = 1.0
    image = (ls @ coherence.reshape(-1)).reshape(2, 2)
    assert np.abs(image - (-2.0 * gamma) * coherence).max() < 1e-12


def test_evolve_matches_expm_action():
    rng = np.random.default_rng(18)
    g = random_lindblad(2, 2, rng)
    t = 0.37
    ch = evolve(g, t)
    rho = random_density_matrix(QUBIT, rng)
    step = scipy.linalg.expm(naive_lindblad_generator(g.hamiltonian, g.jumps, "C") * t)
    ref = (step @ rho.matrix.reshape(-1)).reshape(2, 2)
    out = apply(ch, rho)
    assert np.abs(out.matrix - ref).max() < 1e-9


def test_evolve_semigroup_property():
    rng = np.random.default_rng(19)
    g = random_lindblad(2, 1, rng)
    rho = random_density_matrix(QUBIT, rng)
    one_shot = apply(evolve(g, 0.8), rho)
    stepped = apply(evolve(g, 0.4), apply(evolve(g, 0.4), rho))
    assert np.abs(one_shot.matrix - stepped.matrix).max() < 1e-8
    composed = compose(evolve(g, 0.4), evolve(g, 0.4))
    assert np.abs(apply(composed, rho).matrix - one_shot.matrix).max() < 1e-8


@pytest.mark.parametrize("t", [1e8, 1e30])
def test_evolve_over_a_long_duration_keeps_trace_and_decays(t):
    # amplitude damping: the generator matrix is triangular, with an exact
    # eigenvalue 0 that 2^s squarings would otherwise round away
    lowering = np.array([[0.0, 1.0], [0.0, 0.0]])
    g = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((lowering, 1.0),))
    excited = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    out = apply(evolve(g, t), excited)
    assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() < 1e-12


def test_evolve_rejects_negative_duration():
    g = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, 1.0),))
    with pytest.raises(ValueError):
        evolve(g, -0.1)


def test_evolve_rejects_non_finite_duration():
    g = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, 1.0),))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="duration must be finite"):
            evolve(g, bad)


@pytest.mark.parametrize("t", [1e-4, 30.0], ids=["low-degree", "squared"])
def test_evolve_peaks_within_its_memory_estimate(t):
    # the budget check counts nine d^2 x d^2 complex arrays
    import tracemalloc

    g = random_lindblad(16, 3, np.random.default_rng(20))
    tracemalloc.start()
    try:
        evolve(g, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 16 * 16**4


def test_evolve_is_refused_over_the_memory_budget(monkeypatch):
    # nine 16 x 16 complex arrays at d=4: 36,864 bytes
    g = random_lindblad(4, 2, np.random.default_rng(29))
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 36863)
    with pytest.raises(ProblemTooLargeError, match="dimension 4 needs 36864 bytes"):
        evolve(g, 0.5)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 36864)
    assert evolve(g, 0.5).dim == 4


def test_a_schedule_is_refused_before_a_step_makes_stacks_over_the_budget(monkeypatch):
    # a 4-operator step on qubit A multiplies the stacks by 4: k steps on
    # the 16 entries of np.eye(4) make 4^k stacks of 256 bytes
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], SIGMA_Z]
    pauli = KrausChannel(np.stack(paulis) / 2)
    layout = SystemLayout.qubits(("A", "B"))
    basis = np.eye(4, dtype=complex)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 512 * 1024)
    assert len(channels.amplitudes((((0,), pauli),) * 5, basis, layout)) == 1024
    made = []

    def counted(*args):
        made.append(1)
        return linalg.apply_local(*args)

    monkeypatch.setattr(channels, "apply_local", counted)
    with pytest.raises(ProblemTooLargeError, match="4096 amplitude stacks of 16 entries"):
        channels.amplitudes((((0,), pauli),) * 6, basis, layout)
    assert len(made) == 4 + 16 + 64 + 256 + 1024


def _table_of(probabilities):
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), QUBIT)
    table = conditional_table(rho, None, Partition(QUBIT, (("Q",),)))
    fields = (table.parent, table.blocks, table.partition)
    return ConditionalTable(*fields, probabilities, table.mode)


@pytest.mark.parametrize(
    "given, kept",
    [
        (lambda: np.zeros((2, 2)), lambda a: LindbladGenerator(a).hamiltonian),
        (
            lambda: LOWER.copy(),
            lambda a: LindbladGenerator(np.zeros((2, 2)), ((a, 1.0),)).jumps[0][0],
        ),
        (lambda: np.eye(4, dtype=complex), lambda a: Superoperator(a, 2).matrix),
        (lambda: np.eye(2), lambda a: _table_of(a).probabilities),
        (lambda: np.eye(2), lambda a: _table_of(a).row_sums),
    ],
    ids=["hamiltonian", "jump-operator", "superoperator", "table", "table-row-sums"],
)
def test_a_checked_record_keeps_a_read_only_copy_of_its_input(given, kept):
    # a later write to the caller's array must not reach the checked record
    array = given()
    record = kept(array)
    before = record.copy()
    array[0, 0] = 7.0
    assert np.array_equal(record, before)
    assert not record.flags.writeable


def test_dephasing_closed_form():
    gamma = 0.9
    g = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, gamma),))
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex), QUBIT)
    for t in np.linspace(0.0, 2.0, 9):
        out = apply(evolve(g, float(t)), plus)
        assert abs(out.matrix[0, 1] - 0.5 * np.exp(-2.0 * gamma * t)) < 1e-9
        assert abs(out.matrix[0, 0] - 0.5) < 1e-9


def test_damping_closed_form():
    gamma = 1.3
    g = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((LOWER, gamma),))
    excited = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    for t in np.linspace(0.0, 2.0, 9):
        out = apply(evolve(g, float(t)), excited)
        assert abs(out.matrix[1, 1] - np.exp(-gamma * t)) < 1e-9


def test_trace_distance_contracts_under_channels():
    rng = np.random.default_rng(20)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        layout = SystemLayout((dim,), ("Q",))
        ch = random_kraus_channel(dim, int(rng.integers(1, 4)), rng)
        rho = random_density_matrix(layout, rng)
        sigma = random_density_matrix(layout, rng)
        before = trace_distance(rho.matrix, sigma.matrix)
        after = trace_distance(apply(ch, rho).matrix, apply(ch, sigma).matrix)
        assert after <= before + 1e-9


def test_verify_large_unitary_uses_gram_path():
    # 9 qubits: the explicit Choi matrix would be 2^18-sized (1 TiB), so the
    # verifier must fall back to the Gram spectrum and still pass
    rng = np.random.default_rng(21)
    u = random_unitary(2**9, rng)
    rep = verify_cpt(unitary_channel(u))
    assert rep.is_cp and rep.is_tp


@pytest.mark.parametrize("d", [2, 3, 4])
def test_choi_spectrum_matches_explicit_choi(d):
    # n < d^2 takes the Gram matrix, n >= d^2 the Choi matrix itself; for
    # n > d^2 the Gram matrix has n - d^2 zero eigenvalues the Choi lacks
    rng = np.random.default_rng(22 + d)
    for n in (1, 2, d * d - 1, d * d, d * d + 3):
        ch = random_kraus_channel(d, n, rng)
        explicit = naive_choi(ch.operators)
        want = float(np.linalg.eigvalsh(explicit).min())
        got = verify_kraus_operators(ch.operators).choi_min_eigenvalue
        assert abs(got - want) < 1e-12, (n, got, want)
        assert np.abs(kraus_to_choi(ch) - explicit).max() < 1e-12


def test_program_made_channels_are_checked_once(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a program-made channel was verified a second time")

    monkeypatch.setattr(channels, "verify_kraus_operators", refuse)
    monkeypatch.setattr(channels, "verify_superoperator_matrix", refuse)
    g = random_lindblad(2, 2, np.random.default_rng(23))
    compose(evolve(g, 0.4), evolve(g, 0.4))
    von_neumann_measurement(0.6, 0.8, n_env=2)
    argv = ["conditional", "--scenario", "von-neumann", "--n-env", "2", "--blocks", "S,P,E1+E2"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_constructors_reject_nan():
    nan_diag = np.diag([np.nan, 1.0]).astype(complex)
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(nan_diag, QUBIT)
    with pytest.raises(CptVerificationError):
        KrausChannel((nan_diag,))
    with pytest.raises(NotUnitaryError):
        unitary_channel(nan_diag)
    s = np.eye(4, dtype=complex)
    s[0, 0] = np.nan
    with pytest.raises(CptVerificationError):
        Superoperator(s, 2)
    # refused as input, before the Hermiticity check can read it
    with pytest.raises(ValueError, match=r"Hamiltonian entries must be finite: \(nan\+0j\)"):
        LindbladGenerator(hamiltonian=nan_diag)
    with pytest.raises(ValueError):
        LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, np.nan),))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_a_generator_matrix_annihilates_the_trace_row(d):
    # vec(I)^T L = 0 by construction, so no constructor checks it; the
    # round-off left in the reference matrix's row, which the squarings of
    # a map would amplify, is at most 0.34 * 2^-52 * ||L||_1 here
    vec_i = np.eye(d).reshape(-1)
    for n_jumps in range(4):
        for scale in (1.0, 1e3, 1e7):
            for seed in range(3):
                rng = np.random.default_rng([d, n_jumps, seed])
                g = random_lindblad(d, n_jumps, rng, scale)
                mat = naive_lindblad_generator(g.hamiltonian, g.jumps, "C")
                norm = np.abs(mat).sum(axis=0).max()
                row = np.abs(vec_i @ mat).max()
                assert row <= 4 * 2.0**-52 * norm, (n_jumps, scale, seed, row / norm)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(2, 3), min_size=2, max_size=3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_local_apply_matches_dense_embedding(dims, data, seed):
    # positions come in any order and need not be adjacent, e.g. (2, 0)
    n = len(dims)
    order = data.draw(st.permutations(range(n)))
    positions = tuple(order[: data.draw(st.integers(1, n))])
    keep = tuple(sorted(order[: data.draw(st.integers(1, n))]))
    rng = np.random.default_rng(seed)
    layout = SystemLayout(tuple(dims), tuple(f"F{i}" for i in range(n)))
    sub = int(np.prod([dims[p] for p in positions]))
    gate = unitary_channel(random_unitary(sub, rng))
    family = random_kraus_channel(sub, int(rng.integers(2, 4)), rng)
    psi = PureState(random_state_vector(layout.total_dim, rng), layout)
    pure = np.outer(psi.vector, psi.vector.conj())
    rho = random_density_matrix(layout, rng)

    out = apply(((positions, gate),), psi)
    assert isinstance(out, PureState)
    want = naive_embed(gate.operators[0], dims, positions) @ psi.vector
    assert np.abs(out.vector - want).max() < 1e-12
    embedded = [naive_embed(k, dims, positions) for k in family.operators]
    mixed = apply(((positions, family),), psi)
    assert isinstance(mixed, DensityMatrix)
    assert np.abs(mixed.matrix - naive_kraus_apply(embedded, pure)).max() < 1e-12
    got = apply(((positions, family),), rho).matrix
    assert np.abs(got - naive_kraus_apply(embedded, rho.matrix)).max() < 1e-12
    got = apply(((positions, gate),), rho).matrix
    want = naive_kraus_apply([naive_embed(gate.operators[0], dims, positions)], rho.matrix)
    assert np.abs(got - want).max() < 1e-12

    labels = tuple(layout.labels[p] for p in keep)
    reduced = psi.reduce(labels)
    assert reduced.layout == layout.sublayout(labels)
    assert np.abs(reduced.matrix - naive_partial_trace(pure, dims, keep)).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(2, 3), min_size=2, max_size=3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_apply_runs_a_mixed_schedule(dims, data, seed):
    # unitary and multi-Kraus local steps in any order, on any factors
    n = len(dims)
    rng = np.random.default_rng(seed)
    layout = SystemLayout(tuple(dims), tuple(f"F{i}" for i in range(n)))
    kinds = [True, False] + data.draw(st.lists(st.booleans(), max_size=2))
    schedule = []
    for is_unitary in data.draw(st.permutations(kinds)):
        order = data.draw(st.permutations(range(n)))
        positions = tuple(order[: data.draw(st.integers(1, n))])
        sub = int(np.prod([dims[p] for p in positions]))
        if is_unitary:
            ch = unitary_channel(random_unitary(sub, rng))
        else:
            ch = random_kraus_channel(sub, int(rng.integers(2, 4)), rng)
        schedule.append((positions, ch))
    psi = PureState(random_state_vector(layout.total_dim, rng), layout)
    rho = random_density_matrix(layout, rng)

    for state, want in ((psi, np.outer(psi.vector, psi.vector.conj())), (rho, rho.matrix)):
        for positions, ch in schedule:
            embedded = [naive_embed(k, dims, positions) for k in ch.operators]
            want = naive_kraus_apply(embedded, want)
        got = apply(tuple(schedule), state)
        assert isinstance(got, DensityMatrix)
        assert np.abs(got.matrix - want).max() < 1e-12
