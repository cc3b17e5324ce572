import re

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from modaldyn import (
    DegenerateBasisError,
    DensityMatrix,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    KrausChannel,
    LindbladGenerator,
    NormalizationError,
    ProblemTooLargeError,
    PureState,
    SystemLayout,
    TimeGrid,
    amplitude_damping_qubit,
    build_step_chain,
    evolve,
    run_ensemble,
)
from modaldyn import linalg, trajectories
from modaldyn.scenarios import dephasing_qubit
from modaldyn.tolerances import CHAIN_ROW_SUM_TOL
from modaldyn.trajectories import ENSEMBLE_BLOCK

from oracles import (
    naive_branch_labels,
    naive_chain_states,
    naive_kraus_apply,
    naive_walk,
)
from random_objects import (
    random_density_matrix,
    random_kraus_channel,
    random_lindblad,
    random_unitary,
)

QUBIT = SystemLayout.qubits(("Q",))
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def dephasing(gamma=1.0):
    return LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, gamma),))


def damping(gamma=1.0):
    return LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((LOWER, gamma),))


def test_time_grid_validation():
    grid = TimeGrid(0.5, 4)
    assert np.abs(grid.times - np.array([0.0, 0.5, 1.0, 1.5, 2.0])).max() == 0.0
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.5, -1)
    with pytest.raises(TypeError):  # a grid starts at 0: there is no t0
        TimeGrid(0.0, 0.5, 4)


def test_time_grid_rejects_non_finite_step():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be finite"):
            TimeGrid(bad, 4)


def test_dephasing_keeps_populations_frozen():
    # diagonal state, dephasing noise: branches never switch
    rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), QUBIT)
    grid = TimeGrid(0.2, 5)
    chain = build_step_chain(evolve(dephasing(), grid.dt), rho0, grid)
    assert chain.counts.tolist() == [2] * 6
    assert np.abs(chain.rows - np.eye(2)).max() < 1e-10
    traj = chain.sample(seed=123)
    labels = {label for _, label, _ in traj.points}
    assert len(labels) == 1


def test_dephasing_ensemble_frequencies():
    rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), QUBIT)
    grid = TimeGrid(0.2, 5)
    chain = build_step_chain(evolve(dephasing(), grid.dt), rho0, grid)
    report = run_ensemble(chain, n_samples=2000, base_seed=7)
    # binomial 4 sigma for p=0.7, n=2000
    bound = 4.0 * np.sqrt(0.7 * 0.3 / 2000.0)
    assert abs(report.frequencies[-1, 0] - 0.7) < bound
    assert report.max_abs_deviation < bound


def test_damping_labels_follow_branches_through_crossing():
    # eigenvalues cross at t = ln 2; the excited branch keeps its label
    grid = TimeGrid(0.25, 6)
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    chain = build_step_chain(evolve(damping(1.0), grid.dt), rho0, grid)
    table = chain.eigenvalue_table()
    times = grid.times
    assert np.abs(table[:, 0] - np.exp(-times)).max() < 1e-9
    assert np.abs(table[:, 1] - (1.0 - np.exp(-times))).max() < 1e-9


def test_damping_first_step_row():
    grid = TimeGrid(0.25, 1)
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    chain = build_step_chain(evolve(damping(1.0), grid.dt), rho0, grid)
    # pure start: one entry at t=0, survival probability e^{-gamma dt}
    assert chain.counts[:2].tolist() == [1, 2]
    assert abs(chain.rows[0, 0, 0] - np.exp(-0.25)) < 1e-10
    assert abs(chain.rows[0, 0, 1] - (1.0 - np.exp(-0.25))) < 1e-10


def test_propagated_marginals_match_eigenvalues():
    rng = np.random.default_rng(41)
    grid = TimeGrid(0.1, 10)
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    chain = build_step_chain(evolve(damping(1.0), grid.dt), rho0, grid)
    assert np.abs(chain.propagated_marginals() - chain.eigenvalue_table()).max() < 1e-7
    for _ in range(5):
        g = random_lindblad(2, 2, rng)
        rho = DensityMatrix(np.diag([0.8, 0.2]).astype(complex), QUBIT)
        ch = build_step_chain(evolve(g, grid.dt), rho, grid, mode="permissive")
        assert np.abs(ch.propagated_marginals() - ch.eigenvalue_table()).max() < 1e-7


@settings(max_examples=12, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(0, 3),
    st.floats(0.01, 1.0),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_chain_marginals_keep_total_probability(d, n_jumps, dt, n_steps, seed):
    # Total probability: with every entry kept, lambda(k) R(k) = lambda(k + 1)
    # up to round-off, which lies far below tau = CHAIN_ROW_SUM_TOL. The rows
    # are nonnegative and each sums to at most 1 + tau (the chain checks it),
    # so a step multiplies an l1 error by at most 1 + tau, and after n steps
    # the marginals miss the eigenvalues by at most
    # sum_k tau (1 + tau)^k <= n tau (1 + tau)^n in l1, and so entrywise.
    rng = np.random.default_rng(seed)
    layout = SystemLayout((d,), ("Q",))
    rho0 = random_density_matrix(layout, rng)
    step = evolve(random_lindblad(d, n_jumps, rng), dt)
    chain = build_step_chain(step, rho0, TimeGrid(dt, n_steps), mode="permissive")
    assert chain.counts.tolist() == [d] * (n_steps + 1)  # nothing was dropped
    tau = CHAIN_ROW_SUM_TOL
    bound = n_steps * tau * (1.0 + tau) ** n_steps
    assert np.abs(chain.propagated_marginals() - chain.eigenvalue_table()).max() <= bound


def test_a_chain_refuses_a_schedule_or_none_and_names_the_conversion():
    # generators and flows: test_conditional.py and test_flow.py
    rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), QUBIT)
    grid = TimeGrid(0.25, 2)
    step = evolve(damping(), grid.dt)
    refusals = [
        ((((0,), step),), "not a schedule; compose(later, earlier) joins two steps"),
        (None, "not None; the step that changes nothing is unitary_channel("),
    ]
    for dynamics, message in refusals:
        with pytest.raises(TypeError, match="must be a KrausChannel, " + re.escape(message)):
            build_step_chain(dynamics, rho0, grid)
    assert build_step_chain(step, rho0, grid).n_times == 3


def test_strict_mode_refuses_degenerate_grid_point():
    rho0 = DensityMatrix(np.eye(2, dtype=complex) / 2.0, QUBIT)
    grid = TimeGrid(0.1, 3)
    step = evolve(dephasing(), grid.dt)
    with pytest.raises(DegenerateBasisError):
        build_step_chain(step, rho0, grid, mode="strict")
    chain = build_step_chain(step, rho0, grid, mode="permissive")
    assert chain.n_times == 4


def test_sampling_is_deterministic():
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    grid = TimeGrid(0.25, 4)
    a = build_step_chain(evolve(damping(1.0), grid.dt), rho0, grid).sample(seed=99)
    b = build_step_chain(evolve(damping(1.0), grid.dt), rho0, grid).sample(seed=99)
    assert np.array_equal(a.points, b.points)
    assert a.seed == b.seed == 99


def test_sampled_points_are_read_only_records():
    traj = _damping_chain(4).sample(3)
    assert traj.points.dtype == trajectories.POINT
    assert not traj.points.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        traj.points["index"][0] = 1


def test_a_sample_keeps_few_bytes_per_point():
    import tracemalloc

    # a record of 24 bytes per point, and the uniforms, picks and columns
    # it is filled from; Python tuples of three numbers took 158 bytes
    chain = _damping_chain(20000)
    chain.sample(0)
    tracemalloc.start()
    try:
        chain.sample(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * chain.n_times


def test_ensemble_matches_sequential_sampling_bitwise():
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    grid = TimeGrid(0.25, 4)
    chain = build_step_chain(evolve(damping(1.0), grid.dt), rho0, grid)
    n = ENSEMBLE_BLOCK + 64  # and 64 trajectories of the second block
    base = 1234
    report = run_ensemble(chain, n_samples=n, base_seed=base)
    at = np.arange(chain.n_times)
    counts = np.zeros_like(report.frequencies)
    for block in range(2):
        bits = np.random.PCG64([base, block])
        draw = np.random.Generator(bits).random((ENSEMBLE_BLOCK, chain.n_times))
        for row in draw[: n - block * ENSEMBLE_BLOCK]:
            counts[at, chain.labels[at, chain._walk(row[None])[0]]] += 1
    assert np.array_equal(report.frequencies, counts / n)
    # a single sample with seed s is trajectory 0 of base seed s
    first = np.random.Generator(np.random.PCG64([base, 0])).random((1, chain.n_times))
    labels = chain.labels[at, chain._walk(first)[0]]
    assert [label for _, label, _ in chain.sample(base).points] == labels.tolist()


def _unpadded(chain):
    """The chain's initial eigenvalues and step rows, without padding."""
    c = chain.counts
    rows = [chain.rows[k, : c[k], : c[k + 1]] for k in range(chain.n_times - 1)]
    return chain.probs[0, : c[0]], rows


def _random_chain(dims, n_ops, n_steps, rng):
    layout = SystemLayout(tuple(dims), tuple(f"Q{k}" for k in range(len(dims))))
    d = layout.total_dim
    rho0 = random_density_matrix(layout, rng)
    ch = random_kraus_channel(d, n_ops, rng)
    grid = TimeGrid(1.0, n_steps)
    return build_step_chain(ch, rho0, grid, mode="permissive")


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=1, max_size=2),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 8),
)
def test_sample_matches_naive_walk(dims, n_ops, n_steps, seed):
    chain = _random_chain(dims, n_ops, n_steps, np.random.default_rng(seed))
    times = chain.grid.times
    for s in range(seed, seed + 8):
        entries = naive_walk(*_unpadded(chain), s)
        want = [
            (float(times[k]), int(chain.labels[k, e]), float(chain.probs[k, e]))
            for k, e in enumerate(entries)
        ]
        assert chain.sample(s).points.tolist() == want


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=1, max_size=2),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_walk_picks_what_a_gathered_row_count_picks(dims, n_ops, n_steps, seed):
    rng = np.random.default_rng(seed)
    chain = _random_chain(dims, n_ops, n_steps, rng)
    uniforms = _probing_uniforms(chain, rng)
    picks = chain._walk(uniforms)
    assert picks.dtype == np.uint8
    assert np.array_equal(picks, _gathered_row_count_walk(chain, uniforms))


def _probing_uniforms(chain, rng):
    """Random uniforms, ones equal to cumulative values, and both ends of [0, 1)."""
    n_times = chain.n_times
    ties = rng.choice(chain.cum.ravel(), size=(300, n_times))
    ends = np.array([[0.0], [np.nextafter(1.0, 0.0)]]).repeat(n_times, axis=1)
    return np.concatenate((rng.random((300, n_times)), ties % 1.0, ends))


def _gathered_row_count_walk(chain, uniforms):
    """The earlier walk: gather each held row, count its values <= u, clamp."""
    want = np.empty(uniforms.shape, dtype=int)
    held = np.zeros(len(uniforms), dtype=int)
    for k in range(chain.n_times):
        picked = (chain.cum[k][held] <= uniforms[:, k, None]).sum(axis=1)
        held = want[:, k] = np.minimum(picked, chain.counts[k] - 1)
    return want


def test_walk_picks_in_two_bytes_past_255_entries():
    # a synthetic chain: only cum and counts are walked; 300 entries at
    # some grid points need uint16 picks
    rng = np.random.default_rng(255)
    m, n_steps = 300, 4
    counts = np.array([300, 257, 300, 120, 290])
    kept = np.arange(m) < counts[:, None]
    weights = np.where(kept[:, None, :], rng.random((n_steps + 1, m, m)), 0.0)
    weights[0] = weights[0, 0]  # every row of cum[0] is the initial row
    cum = np.cumsum(weights / weights.sum(axis=2, keepdims=True), axis=2)
    chain = trajectories.StepChain(
        grid=TimeGrid(1.0, n_steps), counts=counts, probs=None, vectors=None,
        labels=None, rows=None, cum=cum, n_labels=0,
    )
    uniforms = _probing_uniforms(chain, rng)
    picks = chain._walk(uniforms)
    assert picks.dtype == np.uint16 and picks.max() > 255
    assert np.array_equal(picks, _gathered_row_count_walk(chain, uniforms))


def test_ensemble_counts_match_naive_walks_across_blocks():
    chain = _random_chain([3], 2, 3, np.random.default_rng(5))
    n = 2 * ENSEMBLE_BLOCK + 123  # three blocks, the last one partial
    base = 777
    report = run_ensemble(chain, n_samples=n, base_seed=base)
    counts = np.zeros_like(report.frequencies)
    for i in range(n):
        for k, e in enumerate(naive_walk(*_unpadded(chain), base, i)):
            counts[k, chain.labels[k, e]] += 1
    assert counts.sum() == n * chain.n_times
    assert np.array_equal(report.frequencies, counts / n)


def _channel_onto(d, r, n_ops, rng):
    """A random Kraus channel on dimension ``d`` whose image has dimension ``r``.

    ``K_k = W A_k``: ``W`` is a d x r isometry and the ``A_k`` are the r x d
    blocks of a random isometry from d to ``r n_ops`` dimensions.
    """
    g = rng.normal(size=(r * n_ops, d)) + 1j * rng.normal(size=(r * n_ops, d))
    q = np.linalg.qr(g)[0]
    w = random_unitary(d, rng)[:, :r]
    return KrausChannel(tuple(w @ q[k * r : (k + 1) * r] for k in range(n_ops)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(1, 8),
    st.integers(0, 1),
    st.booleans(),
    st.integers(1, 6),
    st.sampled_from([1e-12, 1e-4, 1e-2]),
    st.integers(0, 2**32 - 1),
)
def test_branch_labels_match_the_greedy_loop(d, r, extra, pure, n_steps, threshold, seed):
    # a pure start grows in rank step by step; a channel onto r < d
    # dimensions drops a mixed start's rank at the first step
    rng = np.random.default_rng(seed)
    r = min(r, d)
    layout = SystemLayout((d,), ("Q",))
    if pure:
        rho0 = DensityMatrix.from_vector(rng.normal(size=d) + 1j * rng.normal(size=d), layout)
    else:
        rho0 = random_density_matrix(layout, rng)
    ch = _channel_onto(d, r, -(-d // r) + extra, rng)
    grid = TimeGrid(1.0, n_steps)
    try:
        chain = build_step_chain(ch, rho0, grid, threshold=threshold, mode="permissive")
    except NormalizationError:
        reject()  # an entry dropped under the threshold took part of a row's mass
    overlaps = np.abs(chain.vectors[:-1].transpose(0, 2, 1) @ chain.vectors[1:].conj())
    labels, n_labels = naive_branch_labels(overlaps, chain.counts)
    assert np.array_equal(chain.labels, labels)
    assert chain.n_labels == n_labels


def test_tied_overlaps_go_to_the_lowest_pair():
    every = np.ones((2, 3), dtype=bool)
    # all overlaps equal: each new entry keeps the label of its own index
    labels, n_labels = trajectories._branch_labels(np.full((1, 3, 3), 0.5), every)
    assert labels.tolist() == [[0, 1, 2], [0, 1, 2]] and n_labels == 3
    # previous entry 0 ties between new entries 1 and 2: the lower, 1, wins,
    # then (1, 0) and (2, 2) are the best free pairs; a third grid point
    # adds a fourth entry, which gets the next label
    overlaps = np.zeros((2, 4, 4))
    overlaps[0, :3, :3] = [[0.1, 0.9, 0.9], [0.8, 0.2, 0.7], [0.3, 0.4, 0.6]]
    overlaps[1, :3, :4] = 0.25
    kept = np.arange(4) < np.array([3, 3, 4])[:, None]
    labels, n_labels = trajectories._branch_labels(overlaps, kept)
    assert labels.tolist() == [[0, 1, 2, -1], [1, 0, 2, -1], [1, 0, 2, 3]]
    assert n_labels == 4
    # many ties: overlaps drawn from a few values, against the loop
    rng = np.random.default_rng(19)
    for _ in range(200):
        m, n_steps = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        counts = rng.integers(1, m + 1, size=n_steps + 1)
        kept = np.arange(m) < counts[:, None]
        overlaps = rng.integers(0, 3, size=(n_steps, m, m)) / 2.0
        labels, n_labels = trajectories._branch_labels(overlaps, kept)
        want, want_n = naive_branch_labels(overlaps, counts)
        assert np.array_equal(labels[:, : counts.max()], want) and n_labels == want_n
        assert np.all(labels[:, counts.max() :] == -1)


@pytest.mark.parametrize(
    "d, n_steps, n_ops",
    [(2, 20000, 2), (8, 2000, 2), (4, 1000, 16)],
    ids=["2-20000", "8-2000", "4-1000-16"],
)
def test_chain_peaks_within_its_memory_estimate(monkeypatch, d, n_steps, n_ops):
    import tracemalloc

    # the last case is one amplitude chunk, with the most Kraus operators
    rng = np.random.default_rng(d)
    layout = SystemLayout((d,), ("Q",))
    rho0 = random_density_matrix(layout, rng)
    step = random_kraus_channel(d, n_ops, rng)
    estimates = []
    check = trajectories.check_memory

    def spy(n_entries, what):
        estimates.append(16 * n_entries)
        check(n_entries, what)

    monkeypatch.setattr(trajectories, "check_memory", spy)
    tracemalloc.start()
    try:
        build_step_chain(step, rho0, TimeGrid(1.0 / n_steps, n_steps), mode="permissive")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1 and peak <= estimates[0]


def test_a_qubit_chain_peaks_within_400_bytes_per_grid_point():
    import tracemalloc

    # the amplitude stage runs in chunks of CHAIN_CHUNK steps, and the
    # states and their eigendecomposition are let go once read
    rho0 = DensityMatrix(np.diag([0.3, 0.7]).astype(complex), QUBIT)
    grid = TimeGrid(1.0 / 20000, 20000)
    step = evolve(damping(1.0), grid.dt)
    tracemalloc.start()
    try:
        build_step_chain(step, rho0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400 * (grid.n_steps + 1)


@pytest.mark.parametrize("n_steps", [1500, 1501])
def test_the_chain_guard_refuses_past_its_estimate(monkeypatch, n_steps):
    # a qubit chain with two Kraus operators estimates 5 d^2 + d complex
    # entries per grid point and (4 + 2) d^2 per step of one 1,024-step
    # chunk; the budget below admits exactly 1,500 steps
    rho0 = DensityMatrix(np.diag([0.3, 0.7]).astype(complex), QUBIT)
    step = evolve(damping(1.0), 0.001)
    assert len(step.operators) == 2
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 16 * (1501 * 22 + 1024 * 24))
    grid = TimeGrid(0.001, n_steps)
    if n_steps == 1500:
        assert build_step_chain(step, rho0, grid).n_times == 1501
    else:
        with pytest.raises(ProblemTooLargeError, match="a chain over 1502 grid states"):
            build_step_chain(step, rho0, grid)


def test_damping_is_absorbing():
    # a decayed trajectory must never re-excite
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    grid = TimeGrid(0.5, 6)
    chain = build_step_chain(evolve(damping(1.0), grid.dt), rho0, grid)
    for i in range(200):
        traj = chain.sample(5000 + i)
        seen_ground = False
        for _, label, _ in traj.points:
            if label == 1:
                seen_ground = True
            elif seen_ground:
                raise AssertionError(f"trajectory {i} re-excited: {traj.points}")


def test_row_sum_error_reports_plain_numbers():
    # threshold 0.01 drops the decayed branch, so a row loses that mass
    rho0 = DensityMatrix(np.diag([0.3, 0.7]).astype(complex), QUBIT)
    sc = amplitude_damping_qubit(1.0, rho0)
    grid = TimeGrid(1.25, 4)
    with pytest.raises(NormalizationError) as info:
        step = evolve(sc.dynamics, grid.dt)
        build_step_chain(step, sc.initial_state, grid, threshold=0.01)
    message = str(info.value)
    assert "np.float64" not in message
    numbers = [float(x) for x in re.findall(r"\d+\.?\d*(?:e[-+]?\d+)?", message)]
    assert 1e-6 in numbers
    assert any(abs(x - 0.71349520313981) < 1e-12 for x in numbers)


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=1, max_size=2),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_chain_rows_match_kraus_quadratic_forms(dims, n_ops, seed):
    rng = np.random.default_rng(seed)
    layout = SystemLayout(tuple(dims), tuple(f"Q{k}" for k in range(len(dims))))
    d = layout.total_dim
    rho0 = random_density_matrix(layout, rng)
    ch = random_kraus_channel(d, n_ops, rng)
    chain = build_step_chain(ch, rho0, TimeGrid(1.0, 2), mode="permissive")
    c = chain.counts
    for k, rows in enumerate(_unpadded(chain)[1]):
        vecs_t, vecs_tp = chain.vectors[k, :, : c[k]], chain.vectors[k + 1, :, : c[k + 1]]
        for a in range(vecs_t.shape[1]):
            evolved = naive_kraus_apply(
                ch.operators, np.outer(vecs_t[:, a], vecs_t[:, a].conj())
            )
            for b in range(vecs_tp.shape[1]):
                want = (vecs_tp[:, b].conj() @ evolved @ vecs_tp[:, b]).real
                assert abs(rows[a, b] - want) < 1e-12


def test_intermediate_states_are_validated():
    # sqrt(1 + 4e-10) I passes the channel's completeness bound (1e-9), but
    # one step moves the trace by 4e-10, past the state's trace bound (1e-10)
    step = KrausChannel((np.sqrt(1.0 + 4e-10) * np.eye(2, dtype=complex),))
    rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), QUBIT)
    with pytest.raises(InvalidDensityMatrixError) as info:
        build_step_chain(step, rho0, TimeGrid(1.0, 3))
    message = str(info.value)
    assert "grid point 1 " in message and "np.float64" not in message
    numbers = [float(x) for x in re.findall(r"\d+\.?\d*(?:e[-+]?\d+)?", message)]
    assert 1e-10 in numbers
    assert any(abs(x - (1.0 + 4e-10)) < 1e-15 for x in numbers)
    # faults come in grid order: the degenerate start is refused first
    half = DensityMatrix(np.eye(2, dtype=complex) / 2.0, QUBIT)
    with pytest.raises(DegenerateBasisError, match="grid point 0 ") as info:
        build_step_chain(step, half, TimeGrid(1.0, 3))
    assert "rerun in permissive mode" in str(info.value)


def test_an_out_of_range_threshold_is_refused_before_the_grid_states(monkeypatch):
    def refuse(*args):
        raise AssertionError("the grid states were computed")

    monkeypatch.setattr(trajectories, "iterate", refuse)
    rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), QUBIT)
    with pytest.raises(ValueError, match=re.escape("threshold must lie in [0, 1): 1.5")):
        build_step_chain(evolve(damping(), 0.25), rho0, TimeGrid(0.25, 4), threshold=1.5)


def test_a_step_of_the_wrong_dim_is_refused_by_the_gate():
    rho0 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), QUBIT)
    wide = KrausChannel((np.eye(4, dtype=complex),))
    with pytest.raises(DimensionMismatchError) as info:
        build_step_chain(wide, rho0, TimeGrid(1.0, 2))
    assert str(info.value) == "channel dim 4 does not match dim 2 of factors (0,)"


def test_pure_start_reads_one_entry_of_probability_one():
    # eigh puts this state's top eigenvalue one ulp below 1; the purity
    # shortcut reads it as exactly one
    vec = np.array([np.cos(0.3), np.sin(0.3) * np.exp(0.7j)])
    rho0 = DensityMatrix.from_vector(vec, QUBIT)
    chain = build_step_chain(evolve(damping(1.0), 0.25), rho0, TimeGrid(0.25, 3))
    assert chain.probs[0, : chain.counts[0]].tolist() == [1.0]


@settings(max_examples=12, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=1, max_size=2),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_chain_spectra_match_repeated_kraus_oracle(dims, n_ops, n_steps, seed):
    rng = np.random.default_rng(seed)
    layout = SystemLayout(tuple(dims), tuple(f"Q{k}" for k in range(len(dims))))
    d = layout.total_dim
    rho0 = random_density_matrix(layout, rng)
    ch = random_kraus_channel(d, n_ops, rng)
    chain = build_step_chain(ch, rho0, TimeGrid(1.0, n_steps), mode="permissive")
    oracle = naive_chain_states(ch.operators, rho0.matrix, n_steps)
    assert chain.n_times == len(oracle)
    for k, rho in enumerate(oracle):
        w = np.linalg.eigvalsh(rho)[::-1]
        u = np.linalg.eigh(rho)[1][:, ::-1]
        n = chain.counts[k]
        probs, vecs = chain.probs[k, :n], chain.vectors[k, :, :n]
        assert np.abs(probs - w[:n]).max() < 1e-12
        assert np.all(w[n:] < 1e-12)  # only sub-threshold weights are dropped
        for j in range(n):
            gaps = np.abs(np.delete(w, j) - w[j])
            if gaps.min() < 1e-6:
                continue
            want = np.outer(u[:, j], u[:, j].conj())
            got = np.outer(vecs[:, j], vecs[:, j].conj())
            assert np.abs(got - want).max() < 1e-9


@settings(max_examples=4, deadline=None)
@given(
    st.lists(st.integers(2, 3), min_size=1, max_size=2),
    st.integers(2, 3),
    st.integers(1, 2),
    st.integers(0, 2**32 - 4),
)
def test_padding_is_never_read(dims, n_ops, n_steps, seed):
    # a pure start keeps one entry, and the channel raises the rank after it
    rng = np.random.default_rng(seed)
    layout = SystemLayout(tuple(dims), tuple(f"Q{k}" for k in range(len(dims))))
    d = layout.total_dim
    rho0 = DensityMatrix.from_vector(rng.normal(size=d) + 1j * rng.normal(size=d), layout)
    ch = random_kraus_channel(d, n_ops, rng)
    chain = build_step_chain(ch, rho0, TimeGrid(1.0, n_steps), mode="permissive")
    assert chain.counts[0] == 1 and chain.counts.max() > 1
    pad = np.arange(chain.counts.max()) >= chain.counts[:, None]
    assert np.all(chain.probs[pad] == 0.0) and np.all(chain.labels[pad] == -1)
    assert np.all(chain.vectors.transpose(0, 2, 1)[pad] == 0.0)
    assert np.all(chain.rows[pad[:-1]] == 0.0)
    assert np.all(chain.rows.transpose(0, 2, 1)[pad[1:]] == 0.0)
    # 1.0 stands for a draw above a row's rounded total: only the clamp
    # keeps the walk off the padding then
    for u in (np.nextafter(1.0, 0.0), 1.0):
        entries = chain._walk(np.full((1, chain.n_times), u))[0]
        assert np.all(entries < chain.counts)
    for s in range(seed, seed + 4):
        assert all(label >= 0 for _, label, _ in chain.sample(s).points)
    # two blocks, the second of one trajectory; more blocks add nothing to
    # padding (test_ensemble_counts_match_naive_walks_across_blocks walks three)
    n = ENSEMBLE_BLOCK + 1
    report = run_ensemble(chain, n_samples=n, base_seed=seed)
    counts = np.zeros_like(report.frequencies)
    for i in range(n):
        for k, e in enumerate(naive_walk(*_unpadded(chain), seed, i)):
            counts[k, chain.labels[k, e]] += 1
    assert np.array_equal(report.frequencies, counts / n)


def test_memory_guard_counts_the_whole_chain(monkeypatch):
    # 64 grid states of 2 x 2 complex entries: a 4,096-byte stack, which
    # fits in the budget below while the rest of the chain does not
    rho0 = DensityMatrix(np.diag([0.3, 0.7]).astype(complex), QUBIT)
    step = evolve(damping(1.0), 0.25)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 2 * 4096)
    with pytest.raises(ProblemTooLargeError, match="4096 bytes for the states alone"):
        build_step_chain(step, rho0, TimeGrid(0.25, 63))


def test_ensemble_blocks_fit_the_memory_budget(monkeypatch):
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    grid = TimeGrid(1.0 / 64, 64)
    chain = build_step_chain(evolve(damping(1.0), grid.dt), rho0, grid)
    n = ENSEMBLE_BLOCK + 250
    want = run_ensemble(chain, n_samples=n, base_seed=5)
    # 10 bytes per cell (uniform, one-byte pick, mask): 100 rows of 65 grid
    # points fit, 101 do not
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 10 * 65 * 101 - 1)
    rows, got = _slice_rows(monkeypatch, chain, n, base_seed=5)
    # slices of one block's generator stop at the block's end
    assert rows == [100] * 40 + [96, 100, 100, 50]
    assert np.array_equal(got.frequencies, want.frequencies)
    assert got.max_abs_deviation == want.max_abs_deviation


def test_an_ensemble_slice_peaks_within_its_estimate():
    import tracemalloc

    # the dephasing request of the ensemble benchmark, one block of it,
    # walked in slices of 1,024 trajectories
    sc = dephasing_qubit(0.5)
    grid = TimeGrid(2.0 / 256, 256)
    chain = build_step_chain(evolve(sc.dynamics, grid.dt), sc.initial_state, grid)
    estimate = 10 * 1024 * chain.n_times  # 10 bytes per cell
    tracemalloc.start()
    try:
        run_ensemble(chain, n_samples=ENSEMBLE_BLOCK, base_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate + 2**20


def _slice_rows(monkeypatch, chain, n_samples, base_seed=3, walk=True):
    """The rows of the slices ``run_ensemble`` draws, and its report.

    Without ``walk``, nothing is drawn: the rows are the cap on a slice.
    """
    rows = []
    uniforms = trajectories._uniforms

    def spy(base_seed, n_rows, n_times, max_rows):
        if not walk:
            rows.append(max_rows)
            return
        for slice_ in uniforms(base_seed, n_rows, n_times, max_rows):
            rows.append(len(slice_))
            yield slice_

    monkeypatch.setattr(trajectories, "_uniforms", spy)
    report = run_ensemble(chain, n_samples=n_samples, base_seed=base_seed)
    return rows, report


def test_ensemble_slices_are_cache_sized(monkeypatch):
    # uniforms of at most 4,096 x 65 cells, in slices of 4,096, 2,048 or
    # 1,024 trajectories, and never fewer than 1,024 but for the budget
    n = 2 * ENSEMBLE_BLOCK + 5
    for n_steps, want in [(64, [4096] * 2), (129, [2048] * 4), (256, [1024] * 8)]:
        assert _slice_rows(monkeypatch, _damping_chain(n_steps), n)[0] == want + [5]
    long = _damping_chain(19999)
    assert _slice_rows(monkeypatch, long, n, walk=False)[0] == [1024]
    # 10 bytes per cell: 500 rows of 20,000 grid points fit, 501 do not
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 10 * 20000 * 501 - 1)
    assert _slice_rows(monkeypatch, long, n, walk=False)[0] == [500]


def test_an_ensemble_of_no_trajectories_is_refused():
    with pytest.raises(ValueError) as info:
        run_ensemble(_damping_chain(4), n_samples=0, base_seed=1)
    assert info.value.args[0] == "n_samples must be >= 1: 0"


@pytest.mark.parametrize("seed", [2**32, 2**32 + 7, 3 * 2**32 + 11, -1])
def test_a_seed_outside_32_bits_is_refused(seed):
    # numpy's seed sequence would key seed k 2^32 + x as block k of seed x
    chain = _damping_chain(4)
    message = rf"seed must lie in 0\.\.4294967295: {seed}$"
    with pytest.raises(ValueError, match=message):
        next(trajectories._uniforms(seed, 1, chain.n_times, 1))
    with pytest.raises(ValueError, match=message):
        chain.sample(seed)
    with pytest.raises(ValueError, match=message):
        run_ensemble(chain, n_samples=2, base_seed=seed)


def test_the_largest_seed_is_its_own_key():
    chain = _damping_chain(4)
    top = trajectories.SEED_BOUND - 1
    assert top == 2**32 - 1
    want = np.random.Generator(np.random.PCG64([top, 0])).random((2, chain.n_times))
    assert np.array_equal(next(trajectories._uniforms(top, 2, chain.n_times, 2)), want)
    entries = naive_walk(*_unpadded(chain), top)
    assert [label for _, label, _ in chain.sample(top).points] == [
        int(chain.labels[k, e]) for k, e in enumerate(entries)
    ]
    assert run_ensemble(chain, n_samples=2, base_seed=top).base_seed == top


def _consumed_uniforms(monkeypatch, chain, n_samples, base_seed):
    """The uniforms ``run_ensemble`` hands the walk, in order, and their slice sizes."""
    seen = []
    walk = trajectories.StepChain._walk

    def spy(self, uniforms):
        seen.append(uniforms.copy())
        return walk(self, uniforms)

    monkeypatch.setattr(trajectories.StepChain, "_walk", spy)
    run_ensemble(chain, n_samples=n_samples, base_seed=base_seed)
    return np.concatenate(seen), [len(u) for u in seen]


def _damping_chain(n_steps):
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
    grid = TimeGrid(1.0 / n_steps, n_steps)
    return build_step_chain(evolve(damping(1.0), grid.dt), rho0, grid)


def test_walked_uniforms_pass_a_chi_square_smoke_test(monkeypatch):
    # 12,293 trajectories of 17 grid points, three blocks and a part, in 64
    # bins: chi^2 with 63 degrees of freedom lies in [23.2, 131.4] but for
    # a 2e-6 chance (its 1e-6 and 1 - 1e-6 quantiles)
    n = 3 * ENSEMBLE_BLOCK + 5
    u, _ = _consumed_uniforms(monkeypatch, _damping_chain(16), n, 2718)
    assert u.shape == (n, 17)
    assert u.min() >= 0.0 and u.max() < 1.0
    observed = np.bincount((u * 64).astype(int).ravel(), minlength=64)
    expected = u.size / 64
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert 23.2 < chi2 < 131.4


def _correlation(a, b):
    """12 mean((a - 1/2)(b - 1/2)): about N(0, 1/len) for independent uniforms."""
    return 12.0 * float(np.mean((a - 0.5) * (b - 0.5)))


def test_adjacent_steps_of_a_trajectory_are_uncorrelated(monkeypatch):
    # 5 standard deviations of the pooled statistic: exceeded with chance 6e-7
    n = 3 * ENSEMBLE_BLOCK + 5
    u, _ = _consumed_uniforms(monkeypatch, _damping_chain(16), n, 31)
    pairs = u[:, :-1].size
    assert abs(_correlation(u[:, :-1], u[:, 1:])) < 5.0 / np.sqrt(pairs)


def test_adjacent_trajectories_are_uncorrelated_across_block_and_slice_ends(
    monkeypatch,
):
    # 257 grid points per trajectory; the budget walks 1,000 at a time, so
    # slices end at trajectories 999, 1999, ..., and blocks end at 4095, 8191
    chain = _damping_chain(256)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 10 * 257 * 1000)
    n = 2 * ENSEMBLE_BLOCK + 10
    u, sizes = _consumed_uniforms(monkeypatch, chain, n, 4242)
    starts = np.cumsum(sizes)[:-1]
    assert {1000, ENSEMBLE_BLOCK, ENSEMBLE_BLOCK + 1000} <= set(starts.tolist())
    assert len(np.unique(u, axis=0)) == n  # no trajectory repeats another
    # 5 standard deviations each, pooled over all adjacent pairs and over
    # the 10 pairs that straddle a slice or block end
    assert abs(_correlation(u[:-1], u[1:])) < 5.0 / np.sqrt(u[:-1].size)
    ends = u[starts - 1], u[starts]
    assert abs(_correlation(*ends)) < 5.0 / np.sqrt(ends[0].size)


def test_a_pure_initial_state_gives_the_chain_of_its_density_matrix():
    grid = TimeGrid(0.1, 3)
    step = evolve(damping(), grid.dt)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    from_psi = build_step_chain(step, PureState(plus, QUBIT), grid)
    from_rho = build_step_chain(step, DensityMatrix.from_vector(plus, QUBIT), grid)
    for name, value in vars(from_rho).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(from_psi, name), value), name
    assert from_psi.n_labels == from_rho.n_labels


@settings(max_examples=8, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(ENSEMBLE_BLOCK + 1, 2 * ENSEMBLE_BLOCK + 200),
    st.integers(200, 999),
    st.integers(0, 2**32 - 1),
)
def test_ensemble_counts_do_not_depend_on_the_slice_size(
    d, n_ops, n_steps, n_samples, small_rows, seed
):
    # up to 65 grid points, run_ensemble walks min(ENSEMBLE_BLOCK, budget //
    # (10 n_times)) rows at a time; whole blocks and slices of under 1,000
    # rows must count alike
    rng = np.random.default_rng(seed)
    layout = SystemLayout((d,), ("Q",))
    step = random_kraus_channel(d, n_ops, rng)
    chain = build_step_chain(
        step, random_density_matrix(layout, rng), TimeGrid(0.1, n_steps), mode="permissive"
    )
    frequencies = []
    for rows in (ENSEMBLE_BLOCK, small_rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "MEMORY_BUDGET_BYTES", rows * 10 * chain.n_times)
            sizes, report = _slice_rows(patch, chain, n_samples, seed)
            assert sizes[0] == rows
            frequencies.append(report.frequencies)
    assert np.array_equal(frequencies[0], frequencies[1])
