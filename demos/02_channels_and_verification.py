"""Open-system dynamics and what it takes for a map to be physical.

A channel must be completely positive (Choi matrix PSD) and trace preserving
(Kraus completeness). The package carries channels as Kraus families,
Lindblad generators, or superoperator matrices and converts between them
through the Choi matrix. The classic counterexample, the transpose map,
shows why positivity alone is not enough.
"""

import numpy as np

from modaldyn import (
    DensityMatrix,
    KrausChannel,
    LindbladGenerator,
    Superoperator,
    SystemLayout,
    apply,
    evolve,
    kraus_to_choi,
    verify_cpt,
    verify_superoperator_matrix,
)

QUBIT = SystemLayout.qubits(("Q",))


def main():
    # Amplitude damping at gamma = 0.3: the excited state decays with
    # probability gamma. Its two Kraus operators and their verification report.
    gamma = 0.3
    ch = KrausChannel((
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
    ))
    rep = verify_cpt(ch)
    print(f"amplitude-damping channel (gamma = {gamma}):")
    print(f"  trace preserving: {rep.is_tp} (residual {rep.completeness_residual:.2e})")
    print(f"  completely positive: {rep.is_cp} (Choi min eig {rep.choi_min_eigenvalue:.2e})")
    choi = kraus_to_choi(ch)
    print(f"  Choi eigenvalues: {np.round(np.linalg.eigvalsh(choi), 4)}")

    # The transpose map preserves trace and positivity of states, yet fails
    # complete positivity: its Choi matrix has a -1 eigenvalue. Entangle the
    # system with a partner and "transpose one side" stops being physical.
    d = 2
    s = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            s[d * j + i, d * i + j] = 1.0  # vec-level transpose, row-major
    rep = verify_superoperator_matrix(s, d)
    print("\ntranspose map:")
    print(f"  trace preserving: {rep.is_tp}")
    print(f"  completely positive: {rep.is_cp} (Choi min eig {rep.choi_min_eigenvalue:+.1f})")

    # Lindblad generators exponentiate to channel semigroups. Exact
    # exponentiation keeps exp(L(t1+t2)) = exp(L t1) exp(L t2) to precision.
    gamma = 0.8
    dephase = LindbladGenerator(
        hamiltonian=np.zeros((2, 2)),
        jumps=((np.diag([1.0, -1.0]).astype(complex), gamma),),
    )
    plus = DensityMatrix(np.full((2, 2), 0.5), QUBIT)
    print("\ndephasing semigroup, off-diagonal decay:")
    print("    t     rho_01(t)    exact e^(-2 gamma t)/2")
    for t in (0.0, 0.25, 0.5, 1.0, 2.0):
        out = apply(evolve(dephase, t), plus)
        exact = 0.5 * np.exp(-2.0 * gamma * t)
        print(f"  {t:5.2f}  {out.matrix[0, 1].real:10.6f}  {exact:10.6f}")

    one_shot = apply(evolve(dephase, 1.0), plus)
    stepped = apply(evolve(dephase, 0.5), apply(evolve(dephase, 0.5), plus))
    print(
        "  semigroup deviation exp(L) vs exp(L/2)^2:"
        f" {np.abs(one_shot.matrix - stepped.matrix).max():.2e}"
    )

    # Superoperator wrappers carry their own trace condition.
    ident = Superoperator(np.eye(4), 2)
    print(f"\nidentity as superoperator verifies: {verify_cpt(ident)}")


if __name__ == "__main__":
    main()
