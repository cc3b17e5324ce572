"""Slow reference implementations the test suite trusts.

Everything here is written with plain Python loops and elementwise
arithmetic so it shares no code path with the package: no einsum, no
vectorization tricks, no factor permutation helpers. Tests compare the
fast implementations against these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def naive_partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit summation over traced multi-indices.

    ``keep`` holds factor positions to retain, in the order they appear
    in ``dims``.
    """
    dims = tuple(int(d) for d in dims)
    keep = tuple(sorted(keep))
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    keep_dims = tuple(dims[i] for i in keep)
    out_dim = int(np.prod(keep_dims)) if keep_dims else 1
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for row_kept in itertools.product(*[range(dims[i]) for i in keep]):
        for col_kept in itertools.product(*[range(dims[i]) for i in keep]):
            acc = 0.0 + 0.0j
            for env in itertools.product(*[range(dims[i]) for i in traced]):
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, val in zip(keep, row_kept):
                    row[pos] = val
                for pos, val in zip(keep, col_kept):
                    col[pos] = val
                for pos, val in zip(traced, env):
                    row[pos] = val
                    col[pos] = val
                r = int(np.ravel_multi_index(tuple(row), dims))
                c = int(np.ravel_multi_index(tuple(col), dims))
                acc += rho[r, c]
            r_out = int(np.ravel_multi_index(row_kept, keep_dims)) if keep_dims else 0
            c_out = int(np.ravel_multi_index(col_kept, keep_dims)) if keep_dims else 0
            out[r_out, c_out] = acc
    return out


def naive_kraus_apply(operators, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in operators:
        k = np.asarray(k, dtype=complex)
        out += k @ rho @ k.conj().T
    return out


def naive_lindblad_generator(h, jumps, order: str = "F") -> np.ndarray:
    """The generator matrix L on vectorized matrices, stacked in ``order``.

    ``order="F"`` stacks columns, ``vec(X)[a + d b] = X[a, b]``; ``"C"``
    stacks rows, ``vec(X)[a d + b] = X[a, b]``. Column ``vec(|a><b|)`` of L
    is the generator's image of ``|a><b|``, formed one basis matrix at a
    time from ``-i[H, X] + sum rate (J X J^dag - {J^dag J, X}/2)`` over the
    ``(J, rate)`` pairs of ``jumps``. No Kronecker product is involved.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    gen = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            x = np.zeros((d, d), dtype=complex)
            x[a, b] = 1.0
            image = -1j * (h @ x - x @ h)
            for op, rate in jumps:
                op = np.asarray(op, dtype=complex)
                ldl = op.conj().T @ op
                image += rate * (op @ x @ op.conj().T - 0.5 * (ldl @ x + x @ ldl))
            column = np.ravel_multi_index((a, b), (d, d), order=order)
            gen[:, column] = image.reshape(-1, order=order)
    return gen


def naive_lindblad_expm(h, jumps, t: float) -> np.ndarray:
    """``exp(t L)`` on column-stacked vectors, by ``scipy.linalg.expm``.

    ``vec(I)^T L = 0`` holds exactly, but not in L's round-off, and
    scipy's 2^s squarings amplify that round-off in the map's eigenvalue 1:
    at t = 1e3 with rates near 1e3 the map was off its steady-state limit by
    up to 4e-10. So L is exponentiated in a real orthonormal basis whose
    first vector is ``vec(I) / sqrt(d)``, with that basis vector's row set to
    exact zeros, which every power of the rotated matrix keeps: scipy's map
    then has the row ``(1, 0, ..., 0)`` exactly, and its squarings no
    eigenvalue-1 round-off to amplify. No row-major vectorization is
    involved.
    """
    import scipy.linalg

    gen = naive_lindblad_generator(h, jumps)
    d2 = gen.shape[0]
    basis = np.eye(d2)
    basis[:, 0] = np.eye(math.isqrt(d2)).reshape(-1, order="F")
    q, _ = np.linalg.qr(basis)
    rotated = q.T @ gen @ q
    rotated[0] = 0.0
    return q @ scipy.linalg.expm(t * rotated) @ q.T


def naive_lindblad_apply(h, jumps, t: float, rho: np.ndarray) -> np.ndarray:
    """``exp(t L)`` of :func:`naive_lindblad_expm` applied to one matrix."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    vec = naive_lindblad_expm(h, jumps, t) @ rho.reshape(-1, order="F")
    return vec.reshape(d, d, order="F")


def flow_norm_every_term(k, jumps, mu: float, m: int, s: int, t: float, mats) -> np.ndarray:
    """The generator flow's Taylor loop, taking the sum's norm on every term.

    ``(k, jumps, mu, m, s)`` is the plan of the flow (``K'``, the scaled jump
    operators, the trace shift, the degree and the step count) and ``mats``
    the stack it carries. Each step stops once two successive terms are at
    most 2^-53 of the partial sum, in the 1-norm of the stack's columns.
    """

    def norm(a):
        return float(np.abs(a).sum(axis=0).max())

    out = np.asarray(mats, dtype=complex)
    for _ in range(s):
        term = out
        c1 = norm(term)
        for j in range(1, m + 1):
            nxt = k @ term
            nxt += term @ k.conj().T
            for op in jumps:
                nxt += op @ term @ op.conj().T
            nxt *= t / (s * j)
            term = nxt
            c2 = norm(term)
            out = out + term
            if c1 + c2 <= 2.0**-53 * norm(out):
                break
            c1 = c2
        out = math.exp(t * mu / s) * out
    return out


def naive_chain_states(operators, rho0: np.ndarray, n_steps: int) -> list[np.ndarray]:
    """``rho0`` and its images under 1..n_steps repeated applications of a Kraus map."""
    states = [np.asarray(rho0, dtype=complex)]
    for _ in range(int(n_steps)):
        states.append(naive_kraus_apply(operators, states[-1]))
    return states


def naive_embed(op, dims, positions) -> np.ndarray:
    """Dense operator on every factor: ``op`` on ``positions``, identity elsewhere.

    ``op`` acts on the factors at ``positions``, listed in the operator's
    own factor order. The result is ``op kron I`` over the factor order
    ``positions + rest``, moved back to layout order entry by entry.
    """
    dims = tuple(int(d) for d in dims)
    positions = tuple(int(p) for p in positions)
    rest = tuple(i for i in range(len(dims)) if i not in positions)
    order = positions + rest
    rest_dim = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(np.asarray(op, dtype=complex), np.eye(rest_dim))
    order_dims = tuple(dims[i] for i in order)
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=complex)
    for row in itertools.product(*[range(d) for d in dims]):
        for col in itertools.product(*[range(d) for d in dims]):
            r = int(np.ravel_multi_index(tuple(row[i] for i in order), order_dims))
            c = int(np.ravel_multi_index(tuple(col[i] for i in order), order_dims))
            out[
                int(np.ravel_multi_index(row, dims)), int(np.ravel_multi_index(col, dims))
            ] = big[r, c]
    return out


def naive_choi(operators) -> np.ndarray:
    """``sum_k vec(K_k) vec(K_k)^dag`` by explicit entrywise loops."""
    operators = [np.asarray(k, dtype=complex) for k in operators]
    d = operators[0].shape[0]
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in operators:
        for a, b, c, e in itertools.product(range(d), repeat=4):
            choi[a * d + b, c * d + e] += k[a, b] * np.conj(k[c, e])
    return choi


def naive_superoperator(operators) -> np.ndarray:
    """``sum_k K_k kron conj(K_k)``, the map on row-major ``vec(rho)``, by
    explicit entrywise loops."""
    operators = [np.asarray(k, dtype=complex) for k in operators]
    d = operators[0].shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in operators:
        for a, b, c, e in itertools.product(range(d), repeat=4):
            out[a * d + b, c * d + e] += k[a, c] * np.conj(k[b, e])
    return out


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``(1/2) sum |eigenvalues of rho - sigma|`` for Hermitian operands."""
    diff = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def product_amplitudes(dims, block_positions, block_vectors) -> np.ndarray:
    """Full-space amplitudes of a tensor product of block vectors.

    ``block_positions[b]`` lists the factor positions (in layout order)
    that block ``b`` occupies; ``block_vectors[b]`` is that block's
    vector over its own factors in the same order. Built by looping over
    every full multi-index, so no reshapes or permutations are involved.
    """
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    amp = np.zeros(total, dtype=complex)
    for full_idx in itertools.product(*[range(d) for d in dims]):
        value = 1.0 + 0.0j
        for positions, vec in zip(block_positions, block_vectors):
            sub = tuple(full_idx[p] for p in positions)
            sub_dims = tuple(dims[p] for p in positions)
            value *= vec[int(np.ravel_multi_index(sub, sub_dims))]
        amp[int(np.ravel_multi_index(full_idx, dims))] = value
    return amp


def naive_joint_probability(
    dims, block_positions, block_vectors, parent_vector, kraus_operators=None
) -> float:
    """Tr[(|V><V|) E[|Psi_w><Psi_w|]] with V the product of block vectors."""
    amp = product_amplitudes(dims, block_positions, block_vectors)
    parent = np.asarray(parent_vector, dtype=complex)
    rho_w = np.outer(parent, parent.conj())
    if kraus_operators is not None:
        rho_w = naive_kraus_apply(kraus_operators, rho_w)
    value = amp.conj() @ rho_w @ amp
    return float(value.real)


def naive_canonical_phase(v) -> np.ndarray:
    """One vector with its largest component (lowest index on ties) made real.

    The pivot ``a`` is scaled by Python's ``abs`` of the complex scalar, one
    vector at a time; a zero vector comes back unchanged.
    """
    v = np.asarray(v, dtype=complex)
    k = int(np.argmax(np.abs(v)))
    a = v[k]
    if a == 0:
        return v.copy()
    return v * (abs(a) / a)


def naive_ordered_columns(w, v) -> np.ndarray:
    """Eigenvector columns of one matrix, canonical phase and tie order.

    ``w`` holds the eigenvalues in descending order and ``v`` the matching
    columns. Each column gets :func:`naive_canonical_phase`; columns are
    then sorted by descending ``(w, re(v_0), im(v_0), re(v_1), ...)`` with
    ``sorted``, which reorders only exactly tied eigenvalues.
    """
    cols = [naive_canonical_phase(v[:, j]) for j in range(v.shape[1])]

    def key(j):
        return (w[j], tuple(x for c in cols[j] for x in (c.real, c.imag)))

    order = sorted(range(len(cols)), key=key)
    return np.column_stack([cols[j] for j in reversed(order)])


def naive_walk(initial_probs, raw_rows, seed, trajectory=0) -> list[int]:
    """Entry indices of one trajectory through a step chain, one draw at a time.

    Trajectory ``i`` of base seed ``seed`` reads row ``i mod 4096`` of the
    row-major ``(4096, n_times)`` draw of ``PCG64([seed, i // 4096])``: its
    own generator, advanced past the ``(i mod 4096) * n_times`` doubles of
    the rows before it (one 64-bit output each), gives its ``n_times``
    uniforms. The first picks the initial entry from ``initial_probs``; the
    k-th picks the entry at grid point k from the row ``raw_rows[k - 1][e]``
    of the entry ``e`` held at k - 1. Each pick is the inverse CDF:
    ``searchsorted`` of the uniform on the cumulative normalized weights,
    clamped to the last entry.
    """
    n_times = len(raw_rows) + 1
    block, row = divmod(int(trajectory), 4096)
    bits = np.random.PCG64([int(seed), block])
    bits.advance(row * n_times)
    uniforms = np.random.Generator(bits).random(n_times)
    entries = []
    for k in range(n_times):
        weights = np.asarray(initial_probs if k == 0 else raw_rows[k - 1][entries[-1]])
        cum = np.cumsum(weights / weights.sum())
        pick = int(np.searchsorted(cum, uniforms[k], side="right"))
        entries.append(min(pick, len(weights) - 1))
    return entries


def naive_branch_labels(overlaps, counts) -> tuple[np.ndarray, int]:
    """Branch labels ``[grid point, entry]`` (-1 on padding) by the step-by-step greedy match.

    ``overlaps[k][a][b]`` is ``|<psi_a(k)|psi_b(k + 1)>|`` and ``counts[k]``
    the entries kept at grid point ``k``. At each step the largest overlap
    among pairs whose previous and new entries are both free is taken, the
    first in row-major order on a tie (the lowest (previous, new) pair),
    until one side runs out; a taken new entry inherits its partner's label,
    and the other new entries get fresh labels in entry order.
    """
    counts = [int(c) for c in counts]
    labels = np.full((len(counts), max(counts)), -1)
    labels[0, : counts[0]] = range(counts[0])
    n_labels = counts[0]
    for k in range(1, len(counts)):
        rows, cols = list(range(counts[k - 1])), list(range(counts[k]))
        while rows and cols:
            best = None
            for a in rows:
                for b in cols:
                    if best is None or overlaps[k - 1][a][b] > best[0]:
                        best = (overlaps[k - 1][a][b], a, b)
            _, a, b = best
            labels[k, b] = labels[k - 1, a]
            rows.remove(a)
            cols.remove(b)
        for b in cols:
            labels[k, b] = n_labels
            n_labels += 1
    return labels, n_labels


def dephasing_offdiagonal(initial_offdiag: complex, gamma: float, t: float) -> complex:
    return initial_offdiag * np.exp(-2.0 * gamma * t)


def damping_excited_population(initial_pop: float, gamma: float, t: float) -> float:
    return initial_pop * np.exp(-gamma * t)


def record_pair_eigenvalues(p: float, n_env: int, coupling: float):
    """Spectrum of the system+pointer state after environment coupling.

    The off-diagonal of the two-outcome record state is suppressed by a
    factor s = coupling**n_env, giving eigenvalues (1 +- g)/2 with
    g = sqrt((p - q)^2 + 4 p q s^2).
    """
    q = 1.0 - p
    s = float(coupling) ** int(n_env)
    gap = np.sqrt((p - q) ** 2 + 4.0 * p * q * s * s)
    return (1.0 + gap) / 2.0, (1.0 - gap) / 2.0


def per_element_pairs(a):
    """``[re, im]`` pairs nested like the axes of ``a``, built one entry at a time.

    Each entry ``z`` becomes ``[float(z.real), float(z.imag)]`` of
    ``complex(z)``; the array encoder in ``serialize`` must give the same
    lists.
    """
    a = np.asarray(a)
    if a.ndim == 0:
        z = complex(a[()])
        return [float(z.real), float(z.imag)]
    return [per_element_pairs(x) for x in a]


def per_entry_csv_rows(kind: str, obj) -> list[str]:
    """The data and footer lines of a ``serialize`` CSV document of
    ``kind``, formatted one entry at a time with ``repr(float(x))``.

    ``obj`` is what the writer takes: an epistemic state, a conditional
    table, a trajectory or an ensemble report.
    """

    def f(x):
        return repr(float(x))

    lines = []
    if kind == "epistemic":
        for i, p in enumerate(obj.probabilities):
            degenerate = any(i in c for c in obj.degenerate_clusters)
            lines.append(f"{i},{f(p)},{int(degenerate)}")
        lines.append(f"# truncation_mass: {f(obj.truncation_mass)}")
    elif kind == "table":
        probs = obj.probabilities
        for index in itertools.product(*(range(n) for n in probs.shape)):
            lines.append(",".join([*map(str, index), f(probs[index])]))
        for w, s in enumerate(obj.row_sums):
            lines.append(f"# row_sum w={w}: {f(s)}")
        lines.append(f"# max_row_deviation: {f(obj.max_row_deviation)}")
        lines.append(f"# max_marginal_deviation: {f(obj.max_marginal_deviation)}")
    elif kind == "trajectory":
        for t, i, p in obj.points:
            lines.append(f"{f(t)},{int(i)},{f(p)}")
    else:
        for k, t in enumerate(obj.times):
            for label in range(obj.frequencies.shape[1]):
                freq, eig = obj.frequencies[k, label], obj.eigenvalues[k, label]
                lines.append(f"{f(t)},{label},{f(freq)},{f(eig)}")
        lines.append(f"# max_abs_deviation: {f(obj.max_abs_deviation)}")
        lines.append(f"# sample_count: {obj.sample_count}")
    return lines
