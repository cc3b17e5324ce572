"""Born weights emerging from a fully unitary measurement model.

A system qubit in alpha|0> + beta|1> is copied onto a pointer qubit, and the
pointer is then read by a growing number of environment qubits. Nothing
collapses: the whole model is unitary. Yet the spectral probabilities of the
measurement record converge to |alpha|^2 and |beta|^2 as the environment
grows, because decoherence suppresses the record's off-diagonal element by
coupling**n_env. The Born rule appears as the large-environment limit of the
spectral (epistemic) probabilities.
"""

import numpy as np

from modaldyn import extract_epistemic, von_neumann_measurement


def main():
    p = 0.3  # |alpha|^2
    coupling = 0.4

    print(f"|alpha|^2 = {p}, environment overlap per qubit = {coupling}")
    print("\n n_env   record spectrum          deviation from (0.7, 0.3)")
    for n_env in range(9):
        sc = von_neumann_measurement(
            alpha=np.sqrt(p), beta=np.sqrt(1.0 - p), n_env=n_env, coupling=coupling
        )
        record = extract_epistemic(sc.state_at(0).reduce(("S", "P")))
        probs = np.zeros(2)
        probs[: len(record)] = record.probabilities
        probs = np.sort(probs)[::-1]
        dev = np.abs(probs - np.array([0.7, 0.3])).max()
        print(f"   {n_env}    ({probs[0]:.8f}, {probs[1]:.8f})   {dev:.3e}")

    # The pointer's own reduced state carries the Born weights exactly at any
    # environment size; the environment's role is to make the record's
    # *eigenbasis* the pointer basis, by erasing the off-diagonal element.
    sc = von_neumann_measurement(alpha=np.sqrt(p), beta=np.sqrt(1.0 - p), n_env=8)
    pointer = extract_epistemic(sc.state_at(0).reduce(("P",)))
    print(f"\npointer probabilities at n_env=8: {np.round(pointer.probabilities, 10)}")

    print(f"predicted off-diagonal suppression 0.4**8 = {coupling**8:.3e}")


if __name__ == "__main__":
    main()
