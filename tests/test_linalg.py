import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modaldyn import (
    DensityMatrix,
    LayoutMismatchError,
    NotHermitianError,
    Partition,
    PureState,
    SystemLayout,
    UnknownLabelError,
    canonical_phase,
    hermitian_eig,
    partial_trace,
)
from modaldyn.linalg import _ordered_eig, apply_local

from oracles import naive_canonical_phase, naive_ordered_columns, naive_partial_trace
from random_objects import random_density_matrix, random_hermitian


def test_layout_basics():
    layout = SystemLayout(dims=(2, 3, 2), labels=("A", "B", "C"))
    assert layout.total_dim == 12
    assert layout.n_factors == 3
    assert layout.position("B") == 1
    assert layout.positions(("C", "A")) == (0, 2)
    sub = layout.sublayout(("C", "A"))
    assert sub.labels == ("A", "C")
    assert sub.dims == (2, 2)


def test_layout_rejects_bad_input():
    with pytest.raises(LayoutMismatchError):
        SystemLayout(dims=(2, 2), labels=("A",))
    with pytest.raises(LayoutMismatchError):
        SystemLayout(dims=(), labels=())
    with pytest.raises(LayoutMismatchError):
        SystemLayout(dims=(2, 0), labels=("A", "B"))
    with pytest.raises(LayoutMismatchError):
        SystemLayout(dims=(2, 2), labels=("A", "A"))
    layout = SystemLayout.qubits(("A", "B"))
    with pytest.raises(UnknownLabelError):
        layout.position("Z")


def test_a_label_named_twice_is_refused_wherever_labels_are_read():
    layout = SystemLayout(dims=(2, 3), labels=("A", "B"))
    rho = DensityMatrix(np.eye(6, dtype=complex) / 6, layout)
    pure = PureState(np.eye(6, dtype=complex)[0], layout)
    for call in (
        lambda: layout.positions(("B", "A", "B")),
        lambda: layout.sublayout(("A", "A")),
        lambda: partial_trace(rho.matrix, layout, ("A", "A")),
        lambda: rho.reduce(("A", "A")),
        lambda: pure.reduce(("A", "A")),
        lambda: Partition(layout, (("A", "A"), ("B",))),
    ):
        with pytest.raises(LayoutMismatchError, match="^label '[AB]' named more than once$"):
            call()


QUBIT = SystemLayout.qubits(("Q",))
REFUSALS = {
    "sublayout-empty": (
        lambda: QUBIT.sublayout(()),
        UnknownLabelError, "sublayout needs at least one label",
    ),
    "eig-not-square": (
        lambda: hermitian_eig(np.ones((2, 3))),
        NotHermitianError, "expected a square matrix, got shape (2, 3)",
    ),
    "trace-shape": (
        lambda: partial_trace(np.eye(3), QUBIT, ("Q",)),
        LayoutMismatchError, "matrix shape (3, 3) does not match layout dimension 2",
    ),
    "trace-keep-empty": (
        lambda: partial_trace(np.eye(2), QUBIT, ()),
        UnknownLabelError, "keep must name at least one factor",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_layouts_eig_and_partial_trace_refuse_bad_arguments(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert info.value.args[0] == message


def test_canonical_phase_fixes_largest_component():
    v = np.array([0.3j, -0.8, 0.1])
    w = canonical_phase(v)
    k = int(np.argmax(np.abs(w)))
    assert w[k].real > 0
    assert abs(w[k].imag) < 1e-15
    # global phase must not matter
    w2 = canonical_phase(v * np.exp(1.7j))
    assert np.abs(w - w2).max() < 1e-12


def test_hermitian_eig_descending_and_orthonormal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_hermitian(6, rng)
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) <= 1e-14)
        assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-11
        assert np.abs(h @ v - v * w).max() < 1e-9


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        hermitian_eig(m)


def test_hermitian_eig_identity_keeps_standard_basis_order():
    # fully degenerate spectrum: tie-break must preserve the identity order
    w, v = hermitian_eig(np.eye(4, dtype=complex))
    assert np.abs(v - np.eye(4)).max() == 0.0
    assert np.all(w == 1.0)


def test_ordered_eig_of_a_stack_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(17)
    stack = np.stack(
        [random_hermitian(3, rng) for _ in range(5)]
        + [np.eye(3, dtype=complex), np.diag([0.5, 0.25, 0.25]).astype(complex)]
    )
    w, v = _ordered_eig(stack)
    for k, h in enumerate(stack):
        wk, vk = _ordered_eig(h)
        assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_stacked_canonical_phase_matches_one_column_at_a_time(d, n, depth, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(int(k) for k in rng.integers(1, 4, size=depth - 1)) + (d, n)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # exact-magnitude ties, pure phases and zero columns
    v[..., 0, :] = np.where(rng.random(shape[:-2] + (n,)) < 0.3, 0.0, v[..., 0, :])
    v = np.where(rng.random(shape[:-2] + (1, n)) < 0.2, 0.0, v)
    if d > 1:
        tie = rng.random(shape[:-2] + (n,)) < 0.3
        v[..., 1, :] = np.where(tie, 1j * v[..., 0, :], v[..., 1, :])
    got = canonical_phase(v)
    for idx in np.ndindex(shape[:-2]):
        for j in range(n):
            assert np.array_equal(got[idx][:, j], naive_canonical_phase(v[idx][:, j]))
    first = (0,) * (depth - 1)
    assert np.array_equal(canonical_phase(v[first][:, 0]), got[first][:, 0])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_ordered_eig_matches_per_matrix_oracle_with_exact_ties(d, n_stack, seed):
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(n_stack):
        kind = rng.integers(3)
        if kind == 0:
            stack.append(random_hermitian(d, rng))
        else:
            # a permuted diagonal with repeated entries: exactly tied eigenvalues,
            # as a real matrix or under a diagonal phase unitary
            values = rng.choice([0.0, 0.25, 0.5], size=d)
            perm = np.eye(d)[rng.permutation(d)]
            phases = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)))
            u = perm if kind == 1 else phases @ perm
            stack.append(u @ np.diag(values) @ u.conj().T)
    stack = np.array(stack, dtype=complex)
    w, v = _ordered_eig(stack)
    for k, h in enumerate(stack):
        wk, vk = np.linalg.eigh(0.5 * (h + h.conj().T))
        wk, vk = wk[::-1], vk[:, ::-1]
        assert np.array_equal(w[k], wk)
        assert np.array_equal(v[k], naive_ordered_columns(wk, vk))


def test_hermitian_eig_deterministic():
    rng = np.random.default_rng(5)
    h = random_hermitian(5, rng)
    w1, v1 = hermitian_eig(h)
    w2, v2 = hermitian_eig(h.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_partial_trace_matches_naive_oracle():
    rng = np.random.default_rng(23)
    layouts = [
        SystemLayout(dims=(2, 2, 2), labels=("A", "B", "C")),
        SystemLayout(dims=(2, 3, 2), labels=("A", "B", "C")),
        SystemLayout(dims=(3, 2, 4), labels=("A", "B", "C")),
    ]
    for layout in layouts:
        rho = random_density_matrix(layout, rng)
        keep_sets = [("A",), ("B",), ("C",), ("A", "B"), ("A", "C"), ("B", "C")]
        for keep in keep_sets:
            fast = partial_trace(rho.matrix, layout, keep)
            slow = naive_partial_trace(
                rho.matrix, layout.dims, layout.positions(keep)
            )
            assert np.abs(fast - slow).max() < 1e-12


def test_partial_trace_of_product_state():
    layout = SystemLayout.qubits(("A", "B"))
    rho_a = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    rho_b = np.array([[0.5, 0.2j], [-0.2j, 0.5]], dtype=complex)
    joint = np.kron(rho_a, rho_b)
    assert np.abs(partial_trace(joint, layout, ("A",)) - rho_a).max() < 1e-14
    assert np.abs(partial_trace(joint, layout, ("B",)) - rho_b).max() < 1e-14


@pytest.mark.parametrize("d", [2, 8, 128])
def test_apply_local_on_every_factor_is_a_plain_product(d):
    # On the leading axes from the left, and on the trailing axes from the
    # right, the one tensordot path contracts exactly as K @ X and X @ K^dag:
    # this can fail only on a numpy or BLAS that orders a tensordot and a
    # matmul differently.
    rng = np.random.default_rng(d)
    n = d.bit_length() - 1
    k, x = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
    tensor = x.reshape((2,) * 2 * n)
    left = apply_local(k, tensor, range(n))
    right = apply_local(k.conj().T, tensor, range(n, 2 * n), right=True)
    assert np.array_equal(left.reshape(d, d), k @ x)
    assert np.array_equal(right.reshape(d, d), x @ k.conj().T)
