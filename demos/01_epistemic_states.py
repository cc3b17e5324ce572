"""Reading a density matrix as a probability distribution over state vectors.

The spectral decomposition rho = sum_i p_i |psi_i><psi_i| is taken literally:
the system is in exactly one of the eigenstates |psi_i>, with probability
p_i. This script walks through the extraction on a few states and shows the
bookkeeping the package keeps around it (thresholds, degeneracy flags,
truncation mass).
"""

import numpy as np

from modaldyn import (
    DensityMatrix,
    SystemLayout,
    epistemic_to_density,
    epr_bohm,
    extract_epistemic,
)


def show(title, e):
    print(f"\n{title}")
    for k, (p, vector) in enumerate(zip(e.probabilities, e.vectors.T)):
        flag = " (degenerate cluster)" if e.is_degenerate(k) else ""
        print(f"  entry {k}: p = {p:.6f}  vector = {np.round(vector, 4)}{flag}")
    if e.truncation_mass:
        print(f"  truncation mass: {e.truncation_mass:.3e}")


def main():
    qubit = SystemLayout.qubits(("Q",))

    # A generic mixed state: two entries, no surprises.
    rho = DensityMatrix(
        np.array([[0.62, 0.18 + 0.05j], [0.18 - 0.05j, 0.38]]), qubit
    )
    e = extract_epistemic(rho)
    show("generic mixed qubit", e)

    # Rebuilding from the entries reproduces the matrix exactly.
    back = epistemic_to_density(e)
    print(f"  rebuild error: {np.abs(back.matrix - rho.matrix).max():.2e}")

    # A pure state collapses to a single certain entry.
    v = np.array([0.6, 0.8])
    pure = DensityMatrix(np.outer(v, v), qubit)
    show("pure qubit", extract_epistemic(pure))

    # Entangled pair: each side alone is maximally mixed, and the package
    # flags the eigenvalue tie, because then the eigenbasis is a convention,
    # not a fact about the system.
    singlet = epr_bohm()
    left = singlet.initial_state.reduce(("A",))
    show("one side of a singlet (improper mixture)", extract_epistemic(left))

    # Thresholding: weights below the cutoff move into truncation_mass
    # instead of producing near-spurious entries.
    nearly_pure = DensityMatrix(np.diag([1.0 - 1e-9, 1e-9]), qubit)
    show(
        "nearly pure state, threshold 1e-6",
        extract_epistemic(nearly_pure, threshold=1e-6),
    )


if __name__ == "__main__":
    main()
