"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is pinned here, not imported, so drift in library defaults cannot
silently weaken a criterion.
"""

import itertools
import json
import subprocess
import sys

import numpy as np

from modaldyn import (
    DensityMatrix,
    LindbladGenerator,
    Partition,
    SystemLayout,
    TimeGrid,
    apply,
    build_step_chain,
    conditional_table,
    dynamical_conditional,
    epistemic_to_density,
    evolve,
    extract_epistemic,
    joint_conditional,
    kinematic_conditional,
    run_ensemble,
    trivial_partition,
    unitary_channel,
    verify_cpt,
    verify_superoperator_matrix,
    von_neumann_measurement,
)

from oracles import naive_partial_trace, trace_distance
from random_objects import (
    random_density_matrix,
    random_kraus_channel,
    random_lindblad,
    random_unitary,
)

QUBIT = SystemLayout.qubits(("Q",))
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _report(num: int, title: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {title}")
        raise
    print(f"criterion {num:2d}: PASS  {title}")


def test_criterion_01_spectral_round_trip():
    def check():
        rng = np.random.default_rng(1001)
        for trial in range(100):
            dim = int(rng.integers(2, 9))
            layout = SystemLayout((dim,), ("Q",))
            rho = random_density_matrix(layout, rng)
            e = extract_epistemic(rho)
            back = epistemic_to_density(e)
            frob = float(np.linalg.norm(back.matrix - rho.matrix))
            assert frob <= 1e-9, f"trial {trial}: Frobenius error {frob:.3e}"
            gram_dev = np.abs(e.vectors.conj().T @ e.vectors - np.eye(len(e))).max()
            assert gram_dev <= 1e-11, f"trial {trial}: orthonormality {gram_dev:.3e}"

    _report(1, "spectral extract/rebuild round trip (100 states, dims 2-8)", check)


def test_criterion_02_partial_trace_oracle():
    def check():
        rng = np.random.default_rng(1002)
        labels = ("A", "B", "C")
        keeps = [("A",), ("B",), ("C",), ("A", "B"), ("A", "C"), ("B", "C")]
        for trial in range(100):
            dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
            layout = SystemLayout(dims, labels)
            rho = random_density_matrix(layout, rng)
            keep = keeps[trial % len(keeps)]
            fast = rho.reduce(keep).matrix
            slow = naive_partial_trace(rho.matrix, dims, layout.positions(keep))
            dev = np.abs(fast - slow).max()
            assert dev <= 1e-12, f"trial {trial}: deviation {dev:.3e}"

    _report(2, "partial trace matches naive index-summation oracle", check)


def test_criterion_03_cpt_verification():
    def check():
        rng = np.random.default_rng(1003)
        tol = 1e-9
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            rep = verify_cpt(unitary_channel(random_unitary(dim, rng)), tol)
            assert rep.is_cp and rep.is_tp
            rep = verify_cpt(random_kraus_channel(dim, 3, rng), tol)
            assert rep.is_cp and rep.is_tp
            g = random_lindblad(dim, 2, rng)
            rep = verify_cpt(evolve(g, 0.6), tol)
            assert rep.is_cp and rep.is_tp
        # transpose map: trace preserving but not completely positive
        d = 2
        s = np.zeros((4, 4))
        for i in range(d):
            for j in range(d):
                s[d * j + i, d * i + j] = 1.0
        rep = verify_superoperator_matrix(s, d, tol)
        assert rep.is_tp and not rep.is_cp

    _report(3, "CPT verification passes channels, rejects transpose map", check)


def test_criterion_04_trace_distance_monotone():
    def check():
        rng = np.random.default_rng(1004)
        for trial in range(100):
            dim = int(rng.integers(2, 5))
            layout = SystemLayout((dim,), ("Q",))
            ch = random_kraus_channel(dim, int(rng.integers(1, 4)), rng)
            rho = random_density_matrix(layout, rng)
            sigma = random_density_matrix(layout, rng)
            before = trace_distance(rho.matrix, sigma.matrix)
            after = trace_distance(apply(ch, rho).matrix, apply(ch, sigma).matrix)
            assert after <= before + 1e-9, (
                f"trial {trial}: {after:.12f} > {before:.12f} + 1e-9"
            )

    _report(4, "trace distance non-increasing under channels (100 triples)", check)


def test_criterion_05_row_normalization():
    def check():
        rng = np.random.default_rng(1005)
        for trial in range(50):
            dims = (2, 2) if trial % 2 == 0 else (2, 3)
            layout = SystemLayout(dims, ("A", "B"))
            part = Partition(layout, (("A",), ("B",)))
            rho = random_density_matrix(layout, rng)
            ch = random_kraus_channel(layout.total_dim, 2, rng)
            table = conditional_table(rho, ch, part, mode="permissive")
            assert table.max_row_deviation <= 1e-8, (
                f"trial {trial}: row deviation {table.max_row_deviation:.3e}"
            )

    _report(5, "conditional rows sum to one (50 instances, 2x2 and 2x3)", check)


def test_criterion_06_total_probability():
    def check():
        rng = np.random.default_rng(1006)
        for trial in range(50):
            dim = int(rng.integers(2, 5))
            layout = SystemLayout((dim,), ("Q",))
            rho = random_density_matrix(layout, rng)
            ch = random_kraus_channel(dim, 2, rng)
            e_t = extract_epistemic(rho)
            e_tp = extract_epistemic(apply(ch, rho))
            step = np.zeros((len(e_t), len(e_tp)))
            for i, j in itertools.product(range(len(e_t)), range(len(e_tp))):
                step[i, j] = dynamical_conditional(rho, ch, i, j, mode="permissive")
            pushed = e_t.probabilities @ step
            dev = np.abs(pushed - e_tp.probabilities).max()
            assert dev <= 1e-8, f"trial {trial}: total-probability gap {dev:.3e}"

    _report(6, "law of total probability across time steps (50 instances)", check)


def test_criterion_07_special_case_collapse():
    def check():
        rng = np.random.default_rng(1007)
        layout = SystemLayout(dims=(2, 3), labels=("A", "B"))
        part = Partition(layout, (("A",), ("B",)))
        ident = unitary_channel(np.eye(6))
        # an exact identity, checked at every entry; every generic state
        # draw takes the same path
        for _ in range(5):
            rho = random_density_matrix(layout, rng)
            e = extract_epistemic(rho)
            e_a = extract_epistemic(rho.reduce(("A",)))
            e_b = extract_epistemic(rho.reduce(("B",)))
            for w, i, j in itertools.product(
                range(len(e)), range(len(e_a)), range(len(e_b))
            ):
                a = kinematic_conditional(rho, part, w, (i, j), mode="permissive")
                b = joint_conditional(rho, ident, part, w, (i, j), mode="permissive")
                assert abs(a - b) <= 1e-12
        qutrit = SystemLayout((3,), ("Q",))
        triv = trivial_partition(qutrit)
        for _ in range(5):
            rho = random_density_matrix(qutrit, rng)
            ch = random_kraus_channel(3, 2, rng)
            e_t = extract_epistemic(rho)
            e_tp = extract_epistemic(apply(ch, rho))
            for i, j in itertools.product(range(len(e_t)), range(len(e_tp))):
                a = dynamical_conditional(rho, ch, i, j, mode="permissive")
                b = joint_conditional(rho, ch, triv, i, (j,), mode="permissive")
                assert abs(a - b) <= 1e-12

    _report(7, "special cases collapse to the general conditional form", check)


def test_criterion_08_closed_form_dynamics():
    def check():
        gamma = 0.8
        g = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, gamma),))
        plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex), QUBIT)
        for t in np.linspace(0.0, 2.0, 10):
            out = apply(evolve(g, float(t)), plus)
            dev = abs(out.matrix[0, 1] - 0.5 * np.exp(-2.0 * gamma * t))
            assert dev <= 1e-8, f"dephasing t={t}: {dev:.3e}"
        g = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((LOWER, gamma),))
        excited = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
        for t in np.linspace(0.0, 2.0, 10):
            out = apply(evolve(g, float(t)), excited)
            dev = abs(out.matrix[1, 1] - np.exp(-gamma * t))
            assert dev <= 1e-8, f"damping t={t}: {dev:.3e}"

    _report(8, "dephasing and damping match closed-form decay laws", check)


def test_criterion_09_born_rule_emergence():
    def check():
        p = 0.3
        sc = von_neumann_measurement(
            alpha=np.sqrt(p), beta=np.sqrt(1.0 - p), n_env=8, coupling=0.4
        )
        final = sc.state_at(0)
        pointer = extract_epistemic(final.reduce(("P",)))
        got = np.sort(pointer.probabilities)
        assert np.abs(got - np.array([0.3, 0.7])).max() <= 1e-4
        # decoherence part: the measurement-record spectrum converges to the
        # Born weights strictly monotonically as the environment grows
        devs = []
        for n_env in range(9):
            sc_n = von_neumann_measurement(
                alpha=np.sqrt(p), beta=np.sqrt(1.0 - p), n_env=n_env, coupling=0.4
            )
            record = extract_epistemic(sc_n.state_at(0).reduce(("S", "P")))
            probs = np.zeros(2)
            probs[: len(record)] = record.probabilities
            devs.append(float(np.abs(np.sort(probs)[::-1] - [0.7, 0.3]).max()))
        assert all(a > b for a, b in zip(devs, devs[1:])), devs
        assert devs[8] <= 1e-4, devs

    _report(9, "Born weights emerge from the measurement model", check)


def test_criterion_10_ensemble_consistency():
    def check():
        gamma = 1.0
        g = LindbladGenerator(hamiltonian=np.zeros((2, 2)), jumps=((LOWER, gamma),))
        rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), QUBIT)
        grid = TimeGrid(0.125, 8)  # gamma * t = 1 at the last point
        n = 10_000
        chain = build_step_chain(evolve(g, grid.dt), rho0, grid)
        marg_dev = np.abs(chain.propagated_marginals() - chain.eigenvalue_table()).max()
        assert marg_dev <= 1e-7, f"chain marginal deviation {marg_dev:.3e}"
        report = run_ensemble(chain, n_samples=n, base_seed=20240)
        target = np.exp(-1.0)
        sigma = np.sqrt(target * (1.0 - target) / n)
        gap = abs(report.frequencies[-1, 0] - target)
        assert gap <= 4.0 * sigma, f"occupation gap {gap:.4f} > 4 sigma {4*sigma:.4f}"

    _report(10, "trajectory ensemble tracks exact eigenvalue curves", check)


def test_criterion_11_cli_determinism(tmp_path):
    def check():
        cases = [
            ["epistemic", "--scenario", "epr-bohm", "--subsystem", "A"],
            [
                "conditional",
                "--scenario",
                "ghz-mermin",
                "--blocks",
                "A,B,C",
                "--mode",
                "permissive",
                "--format",
                "csv",
            ],
            [
                "sample",
                "--scenario",
                "damping",
                "--t",
                "1.0",
                "--steps",
                "8",
                "--n",
                "200",
                "--seed",
                "31415",
            ],
        ]
        for argv in cases:
            outs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "modaldyn.cli", *argv],
                    capture_output=True,
                    check=True,
                )
                outs.append(proc.stdout)
            assert outs[0] == outs[1], f"non-deterministic output for {argv}"
            assert outs[0]

    _report(11, "fixed seeds give byte-identical CLI output", check)
