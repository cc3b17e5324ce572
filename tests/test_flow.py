"""The matrix-free generator flow, and the map made from it, against a dense
column-stacked ``expm``."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modaldyn import (
    DensityMatrix,
    DimensionMismatchError,
    GeneratorFlow,
    LindbladGenerator,
    Partition,
    ProblemTooLargeError,
    PureState,
    SystemLayout,
    TimeGrid,
    apply,
    build_step_chain,
    conditional_table,
    dynamical_conditional,
    flow,
    generator_map,
    joint_conditional,
    trivial_partition,
    verify_superoperator_matrix,
)
from modaldyn import channels
from modaldyn.scenarios import amplitude_damping_qubit, dephasing_qubit

from oracles import (
    flow_norm_every_term,
    naive_lindblad_apply,
    naive_lindblad_expm,
    naive_lindblad_generator,
    product_amplitudes,
)
from random_objects import (
    random_density_matrix,
    random_lindblad,
    random_state_vector,
)

FLOW_TOL = 1e-12


def _generator(d: int, n_jumps: int, h_scale: float, seed: int) -> LindbladGenerator:
    g = random_lindblad(d, n_jumps, np.random.default_rng(seed))
    return LindbladGenerator(h_scale * g.hamiltonian, g.jumps)


@st.composite
def flow_cases(draw):
    """A layout of one or two factors (d <= 16), a generator, a time and a state.

    Hamiltonians are scaled by up to 10 and times run to 3, so the flow
    takes one scaling step or hundreds.
    """
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)))
    layout = SystemLayout(dims, tuple(f"Q{k}" for k in range(len(dims))))
    seed = draw(st.integers(0, 2**32 - 1))
    n_jumps, h_scale = draw(st.integers(0, 3)), draw(st.floats(0.1, 10.0))
    g = _generator(layout.total_dim, n_jumps, h_scale, seed)
    t = draw(st.floats(0.0, 3.0))
    rho = random_density_matrix(layout, np.random.default_rng(seed + 1))
    return layout, g, t, rho


FLOW_SETTINGS = settings(max_examples=20, deadline=None)


@FLOW_SETTINGS
@given(flow_cases())
@example(
    (
        SystemLayout((4, 4), ("A", "B")),
        _generator(16, 3, 10.0, 5),
        3.0,
        random_density_matrix(SystemLayout((4, 4), ("A", "B")), np.random.default_rng(6)),
    )
)
def test_state_image_matches_dense_expm(case):
    layout, g, t, rho = case
    got = apply(GeneratorFlow(g, t), rho).matrix
    want = naive_lindblad_apply(g.hamiltonian, g.jumps, t, rho.matrix)
    assert np.abs(got - want).max() < FLOW_TOL


# the flow's accuracy over the drawn durations and norms is the state
# image's property above; a table adds the stacked flow, its eigen-factor and
# the block contraction, for which half the draws suffice
@settings(FLOW_SETTINGS, max_examples=10)
@given(flow_cases())
@example(
    (
        SystemLayout((2,), ("Q0",)),
        _generator(2, 0, 1.0, 0),
        5e-324,
        random_density_matrix(SystemLayout((2,), ("Q0",)), np.random.default_rng(4)),
    )
)
def test_table_entries_match_dense_expm(case):
    layout, g, t, rho = case
    part = Partition(layout, tuple((label,) for label in layout.labels))
    table = conditional_table(rho, GeneratorFlow(g, t), part, mode="permissive")
    positions = [layout.positions(block) for block in part.blocks]
    step = naive_lindblad_expm(g.hamiltonian, g.jumps, t)
    d = layout.total_dim
    images = [
        (step @ np.outer(v, v.conj()).reshape(-1, order="F")).reshape(d, d, order="F")
        for v in table.parent.vectors.T
    ]
    for idx in itertools.product(*(range(len(b)) for b in table.blocks)):
        amp = product_amplitudes(
            layout.dims, positions, [b.vectors[:, i] for b, i in zip(table.blocks, idx)]
        )
        for w, image in enumerate(images):
            want = (amp.conj() @ image @ amp).real
            assert abs(table.probabilities[(w, *idx)] - want) < FLOW_TOL


def test_a_long_flow_takes_several_steps_and_stops_each_series_early(monkeypatch):
    g = _generator(8, 3, 10.0, 11)
    rho = random_density_matrix(SystemLayout((8,), ("Q",)), np.random.default_rng(12))
    chosen, stack_norms = [], []
    taylor_parameters, abs_sum_max = channels._taylor_parameters, channels._abs_sum_max

    def spy_parameters(tb):
        chosen.append(taylor_parameters(tb))
        return chosen[-1]

    def spy_norm(a):
        if a.ndim == 3:
            stack_norms.append(a)
        return abs_sum_max(a)

    monkeypatch.setattr(channels, "_taylor_parameters", spy_parameters)
    monkeypatch.setattr(channels, "_abs_sum_max", spy_norm)
    got = flow(GeneratorFlow(g, 3.0), rho.matrix[None])[0]
    [(m, s)] = chosen
    terms = (len(stack_norms) - s) // 2  # one norm per step, two per term
    assert s > 1
    assert terms < m * s
    want = naive_lindblad_apply(g.hamiltonian, g.jumps, 3.0, rho.matrix)
    assert np.abs(got - want).max() < FLOW_TOL


def test_a_subnormal_duration_takes_one_step():
    # 5e-324 / theta_m underflows to 0 for the larger degrees, which once
    # chose zero steps and divided by zero in the flow
    assert channels._taylor_parameters(5e-324) == (1, 1)
    g = _generator(2, 0, 1.0, 0)
    rho = random_density_matrix(SystemLayout((2,), ("Q",)), np.random.default_rng(4))
    got = flow(GeneratorFlow(g, 5e-324), rho.matrix[None])[0]
    assert np.abs(got - rho.matrix).max() < FLOW_TOL


def test_the_norm_bound_covers_the_shifted_generator():
    # a column-heavy jump: ||J||_1 = 3 but ||J||_inf = 1, so a bound with
    # ||J||_1 ||J||_inf in place of ||J||_1^2 (5.1) would be below the norm (9.1)
    column = np.zeros((3, 3), dtype=complex)
    column[:, 0] = 1.0
    generators = [LindbladGenerator(np.zeros((3, 3)), ((column, 1.0),))]
    generators += [_generator(d, n, 3.0, d + n) for d in (2, 3, 5) for n in (0, 1, 3)]
    for g in generators:
        d = g.dim
        dense = naive_lindblad_generator(g.hamiltonian, g.jumps, "C")
        _, _, mu, bound = channels._shifted_generator(g)
        assert abs(mu - np.trace(dense).real / d**2) < 1e-12
        shifted = dense - mu * np.eye(d * d)
        assert np.abs(shifted).sum(axis=0).max() <= bound * (1 + 1e-12)


def test_flowing_twice_equals_flowing_once_for_twice_as_long():
    layout = SystemLayout((2, 3), ("A", "B"))
    g = _generator(6, 2, 2.0, 21)
    rho = random_density_matrix(layout, np.random.default_rng(22))
    twice = apply(GeneratorFlow(g, 0.7), apply(GeneratorFlow(g, 0.7), rho))
    once = apply(GeneratorFlow(g, 1.4), rho)
    assert np.abs(twice.matrix - once.matrix).max() < FLOW_TOL


def test_a_long_unitary_flow_keeps_its_state_pure():
    # H = Z from |+>: 2,000 radians, 283 steps of degree 30; with degrees to
    # 55 (theta 9.9) the series cancels terms 2,500 times the result and
    # the state was 1.0e-11 off
    g = LindbladGenerator(np.diag([1.0, -1.0]).astype(complex))
    got = flow(GeneratorFlow(g, 1000.0), np.full((1, 2, 2), 0.5, dtype=complex))[0]
    phase = np.exp(-2000j)
    want = 0.5 * np.array([[1.0, phase], [phase.conjugate(), 1.0]])
    assert np.abs(got - want).max() < FLOW_TOL


def test_a_flow_over_the_work_budget_is_refused_before_it_starts(monkeypatch):
    # one jump on a qubit for 1 time unit: degree 21, one step, each term
    # four products of a 2 x 2 stack and 13 array operations
    work = 21 * (4 * 8 + 13 * 2**13)
    g = LindbladGenerator(
        np.zeros((2, 2)), ((np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0),)
    )
    stack = np.full((1, 2, 2), 0.5, dtype=complex)
    stack_norms = []
    abs_sum_max = channels._abs_sum_max

    def spy_norm(a):
        if a.ndim == 3:
            stack_norms.append(a)
        return abs_sum_max(a)

    monkeypatch.setattr(channels, "_abs_sum_max", spy_norm)
    monkeypatch.setattr(channels, "FLOW_WORK_BUDGET", work - 1)
    with pytest.raises(
        ProblemTooLargeError,
        match=r"^flowing 1 matrices of dimension 2 for a duration of 1 takes 1 steps "
        r"of degree 21, about 2\.24e\+06 multiply-adds, over the budget of 2\.24e\+06$",
    ):
        flow(GeneratorFlow(g, 1.0), stack)
    assert stack_norms == []
    monkeypatch.setattr(channels, "FLOW_WORK_BUDGET", work)
    flow(GeneratorFlow(g, 1.0), stack)
    assert stack_norms


def test_a_finite_but_huge_norm_bound_is_refused_over_the_work_budget():
    # five qubits, t b about 8e300: t b / theta_m is infinite for the low
    # degrees, and degree 30's step count times the work of a step is past
    # the float range
    d = 32
    g = LindbladGenerator(
        np.diag(np.linspace(-1e300, 1e300, d)), ((np.eye(d), 1e300),) * 6
    )
    with pytest.raises(
        ProblemTooLargeError,
        match=r"^flowing 32 matrices of dimension 32 for a duration of 1 takes [\d.]+e\+\d+ "
        r"steps of degree 30, about inf multiply-adds, over the budget of 6\.87e\+10$",
    ):
        channels._flow_plan(GeneratorFlow(g, 1.0), 32)


def test_a_zero_duration_flow_is_exactly_the_identity():
    layout = SystemLayout((2, 2), ("A", "B"))
    rho = random_density_matrix(layout, np.random.default_rng(23))
    stack = np.stack([rho.matrix, np.eye(4) / 4])
    g = _generator(4, 2, 1.0, 24)
    assert np.array_equal(flow(GeneratorFlow(g, 0.0), stack), stack)
    assert np.array_equal(apply(GeneratorFlow(g, 0.0), rho).matrix, rho.matrix)


def test_scalar_queries_on_a_flow_are_table_entries():
    layout = SystemLayout((2, 2), ("A", "B"))
    rng = np.random.default_rng(25)
    rho = random_density_matrix(layout, rng)
    f = GeneratorFlow(_generator(4, 2, 1.0, 26), 0.6)
    part = Partition(layout, (("B",), ("A",)))
    table = conditional_table(rho, f, part, mode="permissive")
    for w, i, j in itertools.product(*(range(n) for n in table.probabilities.shape)):
        got = joint_conditional(rho, f, part, w, (i, j), mode="permissive")
        assert abs(got - table.probabilities[w, i, j]) < 1e-14
    table = conditional_table(rho, f, trivial_partition(layout), mode="permissive")
    for i, j in itertools.product(*(range(n) for n in table.probabilities.shape)):
        got = dynamical_conditional(rho, f, i, j, mode="permissive")
        assert abs(got - table.probabilities[i, j]) < 1e-14


def test_the_flow_draws_no_random_numbers():
    # an estimated norm would differ here: scipy's expm_multiply on a
    # LinearOperator gives different bits after these two seeds
    rng = np.random.default_rng(27)
    rho = random_density_matrix(SystemLayout((16,), ("Q",)), rng)
    g = random_lindblad(16, 3, rng)
    results = []
    for seed in (1, 2):
        np.random.seed(seed)
        results.append(flow(GeneratorFlow(g, 0.5), rho.matrix[None]).tobytes())
    assert results[0] == results[1]


@pytest.mark.parametrize("case", ["damping", "three-qubits"])
def test_the_flow_stops_where_a_norm_on_every_term_stops(case):
    # the flow takes the sum's norm only where the terms' norms let the stop
    # test pass; the oracle takes it on every term
    if case == "damping":
        sc = amplitude_damping_qubit(1.0)
        f = GeneratorFlow(sc.dynamics, 1000.0)
        stack = sc.initial_state.matrix[None]
    else:
        rng = np.random.default_rng(34)
        f = GeneratorFlow(random_lindblad(8, 3, rng), 2.5)
        layout = SystemLayout.qubits(("A", "B", "C"))
        stack = np.stack([random_density_matrix(layout, rng).matrix for _ in range(3)])
    k, jumps, mu, m, s = channels._flow_plan(f, len(stack))
    reference = flow_norm_every_term(k, jumps, mu, m, s, f.duration, stack)
    assert np.array_equal(flow(f, stack), reference)


def test_a_flow_of_the_wrong_dim_or_duration_is_refused():
    g = _generator(4, 1, 1.0, 30)
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), SystemLayout.qubits(("Q",)))
    with pytest.raises(DimensionMismatchError, match="generator dim 4 does not match"):
        apply(GeneratorFlow(g, 0.5), rho)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="duration must be finite and nonnegative"):
            GeneratorFlow(g, bad)


def test_a_chain_refuses_a_flow_and_names_evolve():
    g = _generator(2, 1, 1.0, 31)
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), SystemLayout.qubits(("Q",)))
    with pytest.raises(TypeError, match=r"not a GeneratorFlow; .*evolve\(generator, dt\)"):
        build_step_chain(GeneratorFlow(g, 0.25), rho, TimeGrid(0.25, 2))


def test_a_pure_state_flows_as_its_density_matrix():
    layout = SystemLayout((2, 2), ("A", "B"))
    psi = PureState(random_state_vector(4, np.random.default_rng(32)), layout)
    rho = psi.reduce(layout.labels)
    f = GeneratorFlow(_generator(4, 2, 1.0, 33), 0.4)
    assert np.array_equal(apply(f, psi).matrix, apply(f, rho).matrix)
    part = Partition(layout, (("A",), ("B",)))
    from_psi = conditional_table(psi, f, part, mode="permissive")
    from_rho = conditional_table(rho, f, part, mode="permissive")
    assert np.abs(from_psi.probabilities - from_rho.probabilities).max() < 1e-14


def test_a_flowed_table_plans_each_flow_once(monkeypatch):
    # the projectors' plan is the one their flow runs; the state's flow
    # (apply) plans one matrix
    sc = amplitude_damping_qubit(1.0)
    planned = []
    plan = channels._flow_plan
    monkeypatch.setattr(channels, "_flow_plan", lambda f, n: planned.append(n) or plan(f, n))
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), sc.layout)
    f = GeneratorFlow(sc.dynamics, 0.5)
    conditional_table(rho, f, trivial_partition(sc.layout))
    assert planned == [2, 1]


def _row_major(column_stacked: np.ndarray, d: int) -> np.ndarray:
    """A map on column-stacked vectors, taken to row-major vectors."""
    swap = np.arange(d * d).reshape(d, d).T.reshape(-1)
    return column_stacked[np.ix_(swap, swap)]


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 8),
    n_jumps=st.integers(0, 3),
    rate_scale=st.sampled_from([1.0, 1e3]),
    log_t=st.floats(-6.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_generator_map_matches_dense_expm(d, n_jumps, rate_scale, log_t, seed):
    g = random_lindblad(d, n_jumps, np.random.default_rng(seed), rate_scale)
    t = 10.0**log_t
    want = _row_major(naive_lindblad_expm(g.hamiltonian, g.jumps, t), d)
    err = np.abs(generator_map(g, t) - want).sum(axis=0).max()
    # the exponential's relative condition number is about ||t L||, so two
    # correct results may differ by ||t L|| 2^-53: a unitary map at t = 1e3
    # reaches ||t L||_1 = 1e4, where the two differed by up to 1.0 times that
    norm = np.abs(naive_lindblad_generator(g.hamiltonian, g.jumps)).sum(axis=0).max()
    assert err <= max(1e-12, 4 * 2.0**-53 * t * norm) * np.abs(want).sum(axis=0).max()


def test_a_zero_duration_map_is_exactly_the_identity():
    for d in (2, 3, 5):
        assert np.array_equal(generator_map(_generator(d, 2, 1.0, 34 + d), 0.0), np.eye(d * d))


@pytest.mark.parametrize(
    "scenario, limit",
    [
        # every state decays to |0><0|
        (amplitude_damping_qubit, [[1, 0, 0, 1], [0] * 4, [0] * 4, [0] * 4]),
        # populations stay, coherences go
        (dephasing_qubit, np.diag([1, 0, 0, 1])),
    ],
    ids=["damping", "dephasing"],
)
def test_a_long_map_keeps_the_fixed_points_of_damping_and_dephasing(scenario, limit):
    # the unshifted flow maps their populations exactly, so 2^q squarings
    # have no round-off to amplify; a flow shifted by mu = Tr L / d^2 moved
    # dephased populations by 3e-8 at this duration
    x = generator_map(scenario(1.0).dynamics, 1e9)
    assert verify_superoperator_matrix(x, 2).completeness_residual <= 1e-14
    assert np.abs(x - np.asarray(limit)).max() <= 1e-15


@pytest.mark.parametrize("d", [2, 4, 8])
def test_a_dense_map_over_a_long_duration_is_its_steady_state(d):
    # past the mixing time exp(t L) = vec(rho_ss) vec(I)^T, with rho_ss the
    # generator's null vector; squaring without the trace projection missed
    # completeness by up to 2e-3 at this duration
    g = random_lindblad(d, 3, np.random.default_rng([d, 49]))
    dense = naive_lindblad_generator(g.hamiltonian, g.jumps, "C")
    null = np.linalg.svd(dense)[2][-1].conj()
    want = np.outer(null / null.reshape(d, d).trace(), np.eye(d).reshape(-1))
    assert np.abs(generator_map(g, 1e12) - want).sum(axis=0).max() <= 1e-13
