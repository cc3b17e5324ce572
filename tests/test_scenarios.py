import dataclasses

import numpy as np
import pytest

from modaldyn import (
    DensityMatrix,
    GeneratorFlow,
    InvalidAmplitudesError,
    LindbladGenerator,
    Partition,
    Scenario,
    SystemLayout,
    amplitude_damping_qubit,
    apply,
    conditional_table,
    dephasing_qubit,
    epr_bohm,
    evolve,
    extract_epistemic,
    ghz_mermin,
    von_neumann_measurement,
)
from modaldyn.scenarios import KET_PLUS, SCENARIOS
from modaldyn.serialize import scenario_from_document, scenario_to_document

from oracles import (
    damping_excited_population,
    dephasing_offdiagonal,
    record_pair_eigenvalues,
)


def test_epr_margins_are_maximally_mixed():
    sc = epr_bohm()
    for label in ("A", "B"):
        reduced = sc.initial_state.reduce((label,))
        assert np.abs(reduced.matrix - np.eye(2) / 2.0).max() < 1e-12
        e = extract_epistemic(reduced)
        assert e.probabilities.tolist() == pytest.approx([0.5, 0.5])
        assert e.degenerate_clusters == ((0, 1),)


def test_ghz_pair_margin_is_classically_correlated():
    sc = ghz_mermin()
    pair = sc.initial_state.reduce(("A", "B"))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    assert np.abs(pair.matrix - expected).max() < 1e-12


def test_von_neumann_amplitude_validation():
    with pytest.raises(InvalidAmplitudesError):
        von_neumann_measurement(alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        von_neumann_measurement(alpha=1.0, beta=0.0, n_env=-1)
    with pytest.raises(ValueError):
        von_neumann_measurement(alpha=1.0, beta=0.0, coupling=1.5)


def test_von_neumann_pointer_reads_born_weights_exactly():
    p = 0.3
    sc = von_neumann_measurement(alpha=np.sqrt(p), beta=np.sqrt(1.0 - p), n_env=4)
    pointer = sc.state_at(0).reduce(("P",))
    e = extract_epistemic(pointer)
    assert e.probabilities.tolist() == pytest.approx([0.7, 0.3], abs=1e-12)
    assert np.abs(pointer.matrix - np.diag([0.3, 0.7])).max() < 1e-12


def test_von_neumann_record_offdiagonal_suppression():
    p = 0.3
    coupling = 0.4
    for n_env in (0, 1, 3, 5):
        sc = von_neumann_measurement(
            alpha=np.sqrt(p), beta=np.sqrt(1.0 - p), n_env=n_env, coupling=coupling
        )
        record = sc.state_at(0).reduce(("S", "P"))
        # the only surviving off-diagonal element connects |00> and |11>
        offdiag = abs(record.matrix[0, 3])
        expected = np.sqrt(p * (1.0 - p)) * coupling**n_env
        assert abs(offdiag - expected) < 1e-12


def test_von_neumann_record_eigenvalues_match_closed_form():
    p = 0.3
    coupling = 0.4
    for n_env in (0, 2, 6, 8):
        sc = von_neumann_measurement(
            alpha=np.sqrt(p), beta=np.sqrt(1.0 - p), n_env=n_env, coupling=coupling
        )
        record = sc.state_at(0).reduce(("S", "P"))
        e = extract_epistemic(record)
        big, small = record_pair_eigenvalues(p, n_env, coupling)
        got = sorted(e.probabilities, reverse=True)
        assert got[0] == pytest.approx(big, abs=1e-12)
        if len(got) > 1:
            assert got[1] == pytest.approx(small, abs=1e-12)


def test_von_neumann_record_eigenvalues_at_large_environments():
    # the state vector has 2^(n_env + 2) entries: 2^18 at n_env = 16
    p = 0.3
    coupling = 0.4
    for n_env in (12, 16):
        sc = von_neumann_measurement(
            alpha=np.sqrt(p), beta=np.sqrt(1.0 - p), n_env=n_env, coupling=coupling
        )
        record = extract_epistemic(sc.state_at(0).reduce(("S", "P")))
        big, small = record_pair_eigenvalues(p, n_env, coupling)
        assert len(record) == 2
        assert abs(record.probabilities[0] - big) < 1e-12
        assert abs(record.probabilities[1] - small) < 1e-12


def test_von_neumann_deviation_decreases_with_environment_size():
    p = 0.3
    devs = []
    for n_env in range(9):
        sc = von_neumann_measurement(
            alpha=np.sqrt(p), beta=np.sqrt(1.0 - p), n_env=n_env, coupling=0.4
        )
        record = sc.state_at(0).reduce(("S", "P"))
        probs = np.zeros(2)
        e = extract_epistemic(record)
        probs[: len(e)] = e.probabilities
        # deviation of the record spectrum from the Born weights (0.7, 0.3)
        devs.append(np.abs(np.sort(probs)[::-1] - np.array([0.7, 0.3])).max())
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-6


def test_dephasing_scenario_oracle():
    sc = dephasing_qubit(gamma=0.8)
    for t in (0.0, 0.5, 1.3):
        rho_t = sc.state_at(t)
        want = dephasing_offdiagonal(sc.initial_state.matrix[0, 1], 0.8, t)
        assert abs(rho_t.matrix[0, 1] - want) < 1e-9


def test_damping_scenario_oracle():
    sc = amplitude_damping_qubit(gamma=1.1)
    for t in (0.0, 0.4, 2.0):
        rho_t = sc.state_at(t)
        want = damping_excited_population(sc.initial_state.matrix[1, 1].real, 1.1, t)
        assert abs(rho_t.matrix[1, 1] - want) < 1e-9


def test_state_at_a_negative_time_raises_on_a_generator():
    with pytest.raises(ValueError, match="duration must be finite and nonnegative"):
        dephasing_qubit(gamma=0.8).state_at(-1)


def test_state_at_agrees_with_direct_evolution():
    sc = amplitude_damping_qubit(gamma=1.0)
    t = 0.7
    direct = apply(evolve(sc.dynamics, t), sc.initial_state)
    assert np.abs(sc.state_at(t).matrix - direct.matrix).max() < 1e-12


def test_a_scenario_is_a_state_and_its_dynamics():
    assert [f.name for f in dataclasses.fields(Scenario)] == [
        "name",
        "initial_state",
        "dynamics",
    ]
    built = [build(**params) for build, params in SCENARIOS.values()]
    for sc in built + [scenario_from_document(scenario_to_document(dephasing_qubit(0.5)))]:
        assert sc.layout == sc.initial_state.layout


def test_the_layout_is_read_from_the_state():
    # a qubit labelled X: the scenario's blocks are the state's labels
    rho0 = DensityMatrix.from_vector(KET_PLUS, SystemLayout.qubits(("X",)))
    sc = dephasing_qubit(0.5, rho0=rho0)
    part = Partition(sc.layout, (sc.layout.labels,))
    table = conditional_table(sc.initial_state, sc.dynamics_to(1.0)[0], part)
    assert table.probabilities.shape == (1, 2)
    assert sc.layout.labels == ("X",)


def test_dynamics_to_names_the_dynamics_that_carry_the_state():
    damping = amplitude_damping_qubit(1.0)
    assert isinstance(damping.dynamics, LindbladGenerator)
    flow, flow_id = damping.dynamics_to(0.5)
    assert flow == GeneratorFlow(damping.dynamics, 0.5) and flow_id == "damping:lindblad"
    assert damping.dynamics_to(0) == (None, "identity")
    assert epr_bohm().dynamics_to(1.0) == (None, "identity")
    chain = von_neumann_measurement(1.0, 0.0, n_env=1)
    for t in (0.0, 3.0):
        assert chain.dynamics_to(t) == (chain.dynamics, "von-neumann:schedule")
