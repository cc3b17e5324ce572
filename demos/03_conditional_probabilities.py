"""Conditional probabilities linking parent and subsystem spectral entries.

Given a parent system in spectral entry w, what is the probability that its
subsystems occupy given entries of their own reduced spectra, possibly after
open-system evolution? The general answer is

    p(i_1 ... i_n ; t' | w ; t) = Tr[(P_1 x ... x P_n) E[P_w]]

and two special cases fall out: the identity channel (single-time,
kinematic) and the trivial partition (two-time, single system).
"""

import numpy as np

from modaldyn import (
    DegenerateBasisError,
    Partition,
    conditional_table,
    dynamical_conditional,
    epr_bohm,
    evolve,
    ghz_mermin,
    dephasing_qubit,
)


def main():
    # Singlet: each side is a fair coin on its own, but conditioned on the
    # joint state the outcomes are perfectly anticorrelated.
    singlet = epr_bohm()
    part = Partition(singlet.layout, (("A",), ("B",)))
    try:
        conditional_table(singlet.initial_state, None, part, mode="strict")
    except DegenerateBasisError as exc:
        print(f"strict mode refuses the singlet: {exc}")

    table = conditional_table(singlet.initial_state, None, part, mode="permissive")
    print("\nsinglet joint conditionals p(i, j | w=0), canonical bases:")
    print(np.round(table.probabilities[0], 6))
    print(f"row sums: {table.row_sums}")

    # GHZ: three-way conditional table concentrates on 000 and 111.
    ghz = ghz_mermin()
    part3 = Partition(ghz.layout, (("A",), ("B",), ("C",)))
    table3 = conditional_table(ghz.initial_state, None, part3, mode="permissive")
    print("\nGHZ p(i, j, k | w=0) non-zero cells:")
    probs = table3.probabilities[0]
    for idx in np.argwhere(probs > 1e-12):
        print(f"  {tuple(idx)} -> {probs[tuple(idx)]:.4f}")

    # Two-time, single system: dephasing turns the plus state's certain
    # entry into a branching over the emerging pointer entries.
    sc = dephasing_qubit(gamma=1.0)
    t = 0.6
    ch = evolve(sc.dynamics, t)
    print(f"\ndephasing qubit, p(j at t={t} | i at t=0):")
    for i in range(1):  # the initial plus state is pure: one entry
        row = [
            dynamical_conditional(sc.initial_state, ch, i, j, mode="permissive")
            for j in range(2)
        ]
        print(f"  from entry {i}: {np.round(row, 6)}  (sums to {sum(row):.12f})")

    # The table records audit numbers alongside the probabilities.
    layout = sc.layout
    from modaldyn import trivial_partition

    triv = trivial_partition(layout)
    t2 = conditional_table(sc.initial_state, ch, triv, mode="permissive")
    print(
        f"\naudit: max row deviation {t2.max_row_deviation:.2e}, "
        f"max marginal deviation {t2.max_marginal_deviation:.2e}"
    )


if __name__ == "__main__":
    main()
