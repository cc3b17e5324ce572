"""Completely positive trace-preserving dynamics in three representations.

Kraus families, Lindblad generators, and superoperator matrices convert into
one another through the Choi matrix. Conventions used throughout:

* a Kraus family ``{K_k}`` is one read-only complex ``(n, d, d)`` array, the
  shape channel and scenario files store; its completeness sum, Choi columns
  and products are batched matrix products and reshapes of that array;
* vectorization is row-major (``numpy`` C order), so ``vec(A rho B) =
  (A kron B^T) vec(rho)``;
* the Choi matrix is ``(E kron id)`` applied to the unnormalized maximally
  entangled pair ``sum_i |ii>``, i.e. ``Choi = sum_k vec(K_k) vec(K_k)^dag
  = W W^dag`` with ``W = [vec K_1 ... vec K_n]`` for a Kraus family
  ``{K_k}``. Complete positivity is equivalent to this matrix being positive
  semidefinite, and trace preservation to its output-side partial trace
  equalling the identity. A Kraus family is therefore completely positive by
  construction, and a program-made ``KrausChannel`` is checked once, for
  completeness, by its constructor (Choi, Linear Algebra Appl. 10, 285,
  1975).

A generator's map ``exp(t L)`` reaches a state or a table as a
``GeneratorFlow``, applied by :func:`flow` without forming L: a truncated
Taylor series with scaling whose degree and step count keep the backward
error below unit round-off, so semigroup identities hold to solver
precision. Its work grows with the duration, and a flow over a fixed work
budget is refused before it starts. The same flow of the d^2 unit matrices
over a short step, squared up to the duration, is the whole map
(:func:`generator_map`), the one matrix exponential of the package: the
``lindblad`` channel check reads it, and ``evolve`` decomposes it into a
Kraus family for a trajectory chain's step.

A discrete schedule is a sequence of steps ``(positions, KrausChannel)``: the
channel's operators act on the layout factors at ``positions``, listed in the
operator's own factor order, so a two-qubit gate in a many-qubit layout is
stored and checked as a 4x4 matrix, and contracted into a state or a set of
vectors without building its dense embedding.

This is the one module that acts with dynamics. ``apply`` carries a state,
and ``iterate`` the grid states of a trajectory chain under its step
channel. ``amplitudes`` feeds the conditional-probability kernel: for each
parent vector ``|w>`` a stack ``A_w`` with ``A_w A_w^dag = E[|w><w|]``,
which tables, scalar queries and the step rows of a trajectory chain all
read. ``apply``, ``amplitudes`` and a chain's step pass the one gate ``steps``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    CptVerificationError,
    DimensionMismatchError,
    LayoutMismatchError,
    NotHermitianError,
    NotUnitaryError,
    ProblemTooLargeError,
)
from .linalg import Record, SystemLayout, Value, apply_local, check_finite, check_memory
from .states import DensityMatrix, PureState, State
from .tolerances import CHOI_EIG_CUTOFF, CPT_TOL, HERMITICITY_TOL, UNITARITY_TOL


class KrausChannel(Record):
    """CPT map presented as a Kraus family ``rho -> sum_k K_k rho K_k^dag``.

    ``operators[k]`` is ``K_k`` of one complex ``(n, d, d)`` array, copied
    from the input and read-only, so the family checked is the family kept.
    Construction verifies ``||sum_k K_k^dag K_k - I||_F <= CPT_TOL``; on the
    channels the program makes (``evolve``, ``compose``) it is the one CPT
    check.
    """

    operators: np.ndarray
    dim: int

    def __init__(self, operators) -> None:
        self.__post_init__(operators)

    def __post_init__(self, operators) -> None:
        try:
            ops = np.array(operators, dtype=complex)
        except ValueError as exc:
            shapes = {np.shape(k) for k in operators}
            if len(shapes) < 2:
                raise
            why = f"Kraus operator shapes disagree: {sorted(shapes)}"
            raise DimensionMismatchError(why) from exc
        if ops.shape[:1] == (0,):
            raise CptVerificationError("a channel needs at least one Kraus operator")
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            why = f"Kraus operators of shape {ops.shape}, not (n, d, d)"
            raise DimensionMismatchError(why)
        resid = completeness_residual(ops)
        if not resid <= CPT_TOL:
            raise CptVerificationError(
                f"completeness residual {resid:.3e} exceeds {CPT_TOL:.1e}"
            )
        self._bind(ops, ops.shape[1])


class LindbladGenerator(Record):
    """Markovian generator data: Hamiltonian plus weighted jump operators.

    The Hamiltonian's entries are finite, and ``jumps`` is a sequence of
    ``(operator, rate)`` pairs with finite operator entries and finite
    nonnegative rates; the generated motion is
    ``drho/dt = -i[H, rho] + sum_k rate_k (L rho L^dag - {L^dag L, rho}/2)``.
    The matrices are copied from the input and read-only, so the generator
    checked is the generator kept.
    """

    hamiltonian: np.ndarray
    jumps: tuple[tuple[np.ndarray, float], ...]

    def __init__(self, hamiltonian, jumps=()) -> None:
        h = np.array(hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise NotHermitianError(f"Hamiltonian must be square, got {h.shape}")
        check_finite(h, "Hamiltonian")
        dev = np.abs(h - h.conj().T).max()
        if not dev <= HERMITICITY_TOL:
            raise NotHermitianError(
                f"Hamiltonian deviates from Hermitian by {dev:.3e}"
            )
        kept = []
        for op, rate in jumps:
            op = np.array(op, dtype=complex)
            if op.shape != h.shape:
                raise DimensionMismatchError(
                    f"jump operator shape {op.shape} does not match {h.shape}"
                )
            check_finite(op, "jump operator")
            rate = float(rate)
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"jump rate must be finite and nonnegative: {rate}")
            op.setflags(write=False)
            kept.append((op, rate))
        self._bind(h, tuple(kept))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _duration(value: float) -> float:
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"duration must be finite and nonnegative: {value}")
    return value


class GeneratorFlow(Value):
    """The map ``exp(duration * L)`` of a generator, applied by :func:`flow`.

    Only the generator and the duration are kept; the map itself is never
    formed. Construction refuses a negative or non-finite duration.
    """

    generator: LindbladGenerator
    duration: float

    def __init__(self, generator, duration) -> None:
        self._bind(generator, _duration(duration))

    @property
    def dim(self) -> int:
        return self.generator.dim


# theta_m of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), for a
# backward error of at most 2^-53: degree m of the Taylor polynomial -> the
# largest 1-norm of the scaled argument it may take (Higham, Functions of
# Matrices, Table A.3). Their degrees 35..55 (theta up to 9.9) are left out:
# a step's terms then reach e^theta / sqrt(2 pi theta), about 2,500 times
# the result, and the round-off of thousands of such steps adds up. A
# qubit under H = Z alone, flowed for 10,000 time units from |+>, kept a
# spurious eigenvalue of 1.6e-10 with them and 9e-14 without, at about
# half again as many terms.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
}
_UNIT_ROUNDOFF = 2.0**-53

# Most work one flow may take, in complex multiply-adds, and numpy's
# overhead per array operation counted in the same unit. Measured with one
# BLAS thread, a multiply-add in a batched product took 0.06 to 0.24 ns and
# an operation on 2 x 2 matrices 1 to 2 us: the budget is 5 to 20 s.
FLOW_WORK_BUDGET = 1 << 36
_CALL_OVERHEAD = 1 << 13


def flow(f: GeneratorFlow, mats: np.ndarray) -> np.ndarray:
    """``exp(duration * L)`` applied to each matrix of a stack ``(n, d, d)``.

    Al-Mohy & Higham's truncated Taylor series with scaling (SIAM J. Sci.
    Comput. 33, 488, 2011), on the generator's action
    ``X -> K'X + XK'^dag + sum_k J_k X J_k^dag`` with ``J_k = sqrt(rate_k)
    L_k`` and ``K' = -iH - 1/2 sum_k J_k^dag J_k - (mu/2) I``: the generator
    less ``mu = Tr L / d^2``, which each of the s scaling steps restores as a
    factor ``exp(t mu / s)``. The degree m and s minimise ``m ceil(t b /
    theta_m)``, where ``b = 2 ||K'||_1 + sum_k ||J_k||_1^2`` bounds the
    1-norm of ``L - mu I`` (``||A kron B||_1 = ||A||_1 ||B||_1``); their
    backward-error bound holds for any upper bound on that norm, so no norm
    is estimated and nothing is random. Each step's series stops early once
    two terms are below 2^-53 of the sum, as in their Algorithm 3.2; the
    sum's norm is taken only where the sum of the terms' norms, which bounds
    it, lets the test pass. At zero duration the result equals the stack
    exactly.

    The work grows with ``duration * b``, since an action cannot be squared:
    a flow over ``FLOW_WORK_BUDGET`` multiply-adds, or over the memory
    budget, is refused with :class:`ProblemTooLargeError` before it starts
    (:func:`_flow_plan`).
    """
    mats = np.asarray(mats, dtype=complex)
    return _run_flow(f, _flow_plan(f, mats.shape[0]), mats)


def _run_flow(
    f: GeneratorFlow,
    plan: tuple[np.ndarray, list[np.ndarray], float, int, int],
    mats: np.ndarray,
) -> np.ndarray:
    """:func:`flow` of the stack ``mats`` by the ``plan`` that
    :func:`_flow_plan` made for it."""
    t = f.duration
    k, jumps, mu, m, s = plan
    k_dag = k.conj().T
    pairs = [(j, j.conj().T) for j in jumps]
    eta = math.exp(t * mu / s)
    out = mats
    for _ in range(s):
        term = out
        c1 = upper = _abs_sum_max(term)
        for j in range(1, m + 1):
            nxt = k @ term
            nxt += term @ k_dag
            for op, op_dag in pairs:
                nxt += op @ term @ op_dag
            nxt *= t / (s * j)
            term = nxt
            c2 = _abs_sum_max(term)
            out = out + term
            # the norms of the terms so far bound ||out||; twice their sum
            # covers the round-off of both sums, so the stop test below
            # skips no norm that could pass it
            upper += c2
            small = c1 + c2
            if small <= 2 * _UNIT_ROUNDOFF * upper:
                if small <= _UNIT_ROUNDOFF * _abs_sum_max(out):
                    break
            c1 = c2
        out = eta * out
    return out


def _flow_plan(
    f: GeneratorFlow, n: int
) -> tuple[np.ndarray, list[np.ndarray], float, int, int]:
    """``(K', [J_k], mu, m, s)`` of a flow of ``n`` matrices, refused with
    :class:`ProblemTooLargeError` over either budget before it starts."""
    g, t, d = f.generator, f.duration, f.dim
    # the peak measured with tracemalloc (d = 16..128, n = 1..d+1, 1..6
    # jumps): five stacks and 2 (jumps + 1) generator-sized matrices
    check_memory(
        (5 * n + 2 * len(g.jumps) + 3) * d * d,
        f"flowing {n} matrices of dimension {d}",
    )
    k, jumps, mu, bound = _shifted_generator(g)
    m, s = _taylor_parameters(t * bound)
    # each term takes 2 + 2 jumps products of n d x d matrices and nine
    # other array operations
    products = 2 + 2 * len(jumps)
    work = m * float(s) * (products * n * d**3 + (products + 9) * _CALL_OVERHEAD)
    if work > FLOW_WORK_BUDGET:
        raise ProblemTooLargeError(
            f"flowing {n} matrices of dimension {d} for a duration of {t:g} "
            f"takes {float(s):.9g} steps of degree {m}, about {work:.2e} multiply-adds, "
            f"over the budget of {FLOW_WORK_BUDGET:.2e}"
        )
    return k, jumps, mu, m, s


def _shifted_generator(
    g: LindbladGenerator, shift: bool = True
) -> tuple[np.ndarray, list[np.ndarray], float, float]:
    """``(K', [J_k], mu, b)`` of :func:`flow`, from the generator's data;
    with ``shift`` false, ``mu`` is 0 and ``K'`` is K.

    Entries too large for a float make ``b`` infinite or NaN, which
    :func:`_taylor_parameters` refuses.
    """
    d = g.dim
    with np.errstate(all="ignore"):
        jumps = [math.sqrt(rate) * op for op, rate in g.jumps]
        k = -1j * g.hamiltonian
        for j in jumps:
            k -= 0.5 * (j.conj().T @ j)
        # Tr L = 2d Re Tr K + sum_k |Tr J_k|^2, from Tr(A kron B) = Tr A Tr B
        tr_l = 2 * d * np.trace(k).real + sum(abs(np.trace(j)) ** 2 for j in jumps)
        mu = float(tr_l) / d**2 if shift else 0.0
        k -= 0.5 * mu * np.eye(d)
        norms = [_abs_sum_max(j) for j in jumps]
        bound = 2 * _abs_sum_max(k) + sum(n * n for n in norms)
    return k, jumps, mu, bound


def _taylor_parameters(tb: float) -> tuple[int, int]:
    """The degree m and the step count s minimising ``m ceil(tb / theta_m)``.

    Ties go to the lower degree; ``tb = 0`` needs no term, ``(0, 1)``.
    """
    if not 0.0 <= tb < math.inf:
        raise ValueError(
            f"duration times the generator's norm bound is {tb}, not a finite number"
        )
    m, s = 0, 1
    if tb > 0:
        for degree, theta in _THETA.items():
            if tb / theta == math.inf:  # too many steps to count; degree 30 never is
                continue
            # a subnormal tb / theta underflows to 0; a positive tb takes a step
            n_steps = max(1, math.ceil(tb / theta))
            if m == 0 or degree * n_steps < m * s:
                m, s = degree, n_steps
    return m, s


def generator_map(g: LindbladGenerator, duration: float) -> np.ndarray:
    """The d^2 x d^2 map ``exp(duration * L)`` on row-major vectorized operators.

    Its columns are the :func:`flow` images of the d^2 unit matrices
    ``E_ij`` over ``duration / 2^q``, where q is the least integer with
    ``duration * b / 2^q <= theta_30``, so at most 30 Taylor terms; only
    those with ``i <= j`` are flowed, since the image of ``E_ji`` is the
    conjugate transpose of that of ``E_ij``. The map is then squared q
    times. Squaring multiplies the round-off on the map's eigenvalue 1 by
    about 2^q, so each square is projected back onto trace preservation,
    ``X <- X + (e/d)(e^T - e^T X)`` with ``e = vec(I)``. The flow here is
    not shifted by ``mu``, and ``b`` bounds the 1-norm of L itself: a matrix
    L annihilates then gets terms that vanish wherever the generator's
    products do so exactly (the populations under damping or dephasing),
    so its image is exact and no squaring moves it, where the projection
    covers the trace alone. The work does not grow with the duration beyond
    q squarings, so the flow's work budget does not apply. The map peaks at
    about 3.2 d^2 x d^2 complex arrays (tracemalloc, d = 16), and is
    refused over nine, the estimate that covers :func:`evolve` too, above
    the memory budget, before the first is allocated. At zero duration it
    is the identity exactly; a map not finite after q squarings raises
    ``ValueError``.
    """
    t, d = _duration(duration), g.dim
    check_memory(9 * d**4, f"evolving a generator of dimension {d}")
    k, jumps, mu, bound = _shifted_generator(g, shift=False)
    # a non-finite t b keeps q = 0 and is refused by _taylor_parameters
    tb, q = t * bound, 0
    while tb < math.inf and math.ldexp(tb, -q) > _THETA[30]:
        q += 1
    h = math.ldexp(t, -q)
    plan = (k, jumps, mu, *_taylor_parameters(h * bound))
    rows, cols = np.triu_indices(d)
    units = np.zeros((len(rows), d, d), dtype=complex)
    units[np.arange(len(rows)), rows, cols] = 1.0
    images = _run_flow(GeneratorFlow(g, h), plan, units)
    x = np.empty((d, d, d, d), dtype=complex)
    x[:, :, cols, rows] = images.conj().transpose(2, 1, 0)
    x[:, :, rows, cols] = images.transpose(1, 2, 0)
    x = x.reshape(d * d, d * d)
    e = np.eye(d).reshape(-1)
    with np.errstate(all="ignore"):
        for _ in range(q):
            x = x @ x
            x[:: d + 1] += (e - x[:: d + 1].sum(axis=0)) / d
    if not np.isfinite(x).all():
        raise ValueError(f"the map for duration {t:g} is not finite after {q} squarings")
    return x


def _abs_sum_max(a: np.ndarray) -> float:
    """The 1-norm of a matrix; of a stack ``(n, d, d)``, the infinity norm of
    its n matrices as columns of length ``d^2``."""
    return float(np.abs(a).sum(axis=0).max())


class Superoperator(Record):
    """Dense map on row-major vectorized operators, whose trace row
    ``vec(I)^T S = vec(I)^T`` is checked to ``CPT_TOL`` on construction;
    the matrix is copied from the input and read-only."""

    matrix: np.ndarray
    dim: int

    def __init__(self, matrix, dim) -> None:
        self.__post_init__(matrix, dim)

    def __post_init__(self, matrix, dim) -> None:
        mat = np.array(matrix, dtype=complex)
        d = int(dim)
        if mat.shape != (d * d, d * d):
            raise DimensionMismatchError(
                f"superoperator shape {mat.shape} is not ({d * d}, {d * d})"
            )
        vec_i = np.eye(d, dtype=complex).reshape(-1)
        resid = np.abs(mat.T @ vec_i - vec_i).max()
        # a NaN residual (a non-finite entry) fails too
        if not resid <= CPT_TOL:
            raise CptVerificationError(
                f"trace row condition violated by {resid:.3e} (bound {CPT_TOL:.3e})"
            )
        self._bind(mat, d)


Channel = Union[KrausChannel, Superoperator]
Schedule = tuple[tuple[tuple[int, ...], KrausChannel], ...]
Dynamics = Optional[Union[KrausChannel, Schedule, GeneratorFlow]]


class CptReport(Value):
    """Outcome of a CPT verification pass."""

    is_tp: bool
    is_cp: bool
    choi_min_eigenvalue: float
    completeness_residual: float

    def __init__(self, is_tp, is_cp, choi_min_eigenvalue, completeness_residual) -> None:
        self._bind(is_tp, is_cp, choi_min_eigenvalue, completeness_residual)


def _completeness_sum(ops: np.ndarray) -> np.ndarray:
    """``sum_k K_k^dag K_k``, summed from 0 in operator order."""
    return (ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0, initial=0.0)


def completeness_residual(ops: Sequence[np.ndarray]) -> float:
    """Frobenius norm of ``sum K^dag K - I``."""
    ops = np.asarray(ops, dtype=complex)
    return float(np.linalg.norm(_completeness_sum(ops) - np.eye(ops.shape[1])))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    """Wrap a unitary as a single-operator channel."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitaryError(f"expected a square matrix, got {u.shape}")
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if not dev <= UNITARITY_TOL:
        raise NotUnitaryError(f"||U^dag U - I|| = {dev:.3e} exceeds {UNITARITY_TOL:.1e}")
    return KrausChannel(u[None])


def steps(
    dynamics: Dynamics, layout: SystemLayout
) -> Union[Schedule, GeneratorFlow]:
    """``dynamics`` as schedule steps; a channel is one step on every factor.

    The one gate of ``apply``, ``amplitudes`` and a chain's step. A
    ``GeneratorFlow`` passes through once its dim is the layout's. Anything
    but a ``KrausChannel`` or a schedule of them is otherwise refused with a
    ``TypeError`` naming the conversion. Each step's positions must be
    distinct factors of ``layout``, and its channel's dim the product of
    their dims.
    """
    if dynamics is None:
        return ()
    if isinstance(dynamics, GeneratorFlow):
        if dynamics.dim != layout.total_dim:
            raise DimensionMismatchError(
                f"generator dim {dynamics.dim} does not match dim "
                f"{layout.total_dim} of layout {layout.labels}"
            )
        return dynamics
    factors = range(layout.n_factors)
    if not isinstance(dynamics, tuple):
        dynamics = ((tuple(factors), dynamics),)
    for positions, channel in dynamics:
        if not isinstance(channel, KrausChannel):
            raise _not_kraus(channel, "a KrausChannel or a schedule of them")
        if len(set(positions)) != len(positions) or not set(positions) <= set(factors):
            raise LayoutMismatchError(
                f"positions {positions} are not distinct factors of {layout.labels}"
            )
        support = math.prod(layout.dims[p] for p in positions)
        if channel.dim != support:
            raise DimensionMismatchError(
                f"channel dim {channel.dim} does not match dim {support} "
                f"of factors {positions}"
            )
    return dynamics


def amplitudes(
    dynamics: Dynamics, basis: np.ndarray, layout: SystemLayout
) -> Sequence[np.ndarray]:
    """The kernel's amplitude stacks ``A_w`` of the columns ``w`` of ``basis``.

    ``dynamics`` passes the gate :func:`steps`. A schedule gives ``K @
    basis`` for each of its Kraus operators ``K``, the products of one
    operator per step: the columns are pushed through the steps with each
    operator acting on its own factors only, and a step whose stacks are
    over the memory budget is refused before it makes them. A flow gives,
    for each column ``w``, the eigen-factor ``V sqrt(lambda)`` of the
    flowed ``|w><w|`` (round-off negative eigenvalues clipped to 0),
    stacked ``[r, :, w]``; the projectors are flowed in one stacked call,
    planned before they are made, so a flow over either budget is refused
    before anything is allocated.
    """
    dynamics = steps(dynamics, layout)
    if not isinstance(dynamics, GeneratorFlow):
        amps = [basis.reshape(layout.dims + (-1,))]
        for positions, step in dynamics:
            stacks = len(amps) * len(step.operators)
            what = f"making {stacks} amplitude stacks of {basis.size} entries"
            check_memory(stacks * basis.size, what)
            amps = [apply_local(k, a, positions) for k in step.operators for a in amps]
        return [a.reshape(basis.shape) for a in amps]
    plan = _flow_plan(dynamics, basis.shape[1])
    # the projectors, their images, eigenvectors and factors, and the
    # kernel's copies take at most 4.1 stacks at d = 16..64 (tracemalloc),
    # within the estimate of a flow of n matrices that the plan checked; a
    # table keeps the result, one stack, while its state flows
    kets = basis.T
    images = _run_flow(dynamics, plan, kets[:, :, None] * kets.conj()[:, None, :])
    lam, vecs = np.linalg.eigh(images)
    return (vecs * np.sqrt(np.maximum(lam, 0.0))[:, None, :]).transpose(2, 1, 0)


def _not_kraus(dynamics: object, wanted: str) -> TypeError:
    """The refusal of ``dynamics`` where ``wanted`` is needed, naming the conversion."""
    name = "schedule" if isinstance(dynamics, tuple) else type(dynamics).__name__
    given = "None" if dynamics is None else f"a {name}"
    hint = _CONVERSIONS.get(name, "")
    return TypeError(f"dynamics must be {wanted}, not {given}{hint}")


_CONVERSIONS = {
    "Superoperator": "; convert a Superoperator s first with "
    "KrausChannel(choi_to_kraus(superoperator_to_choi(s), d))",
    "LindbladGenerator": "; convert a LindbladGenerator first with "
    "evolve(generator, dt), or with GeneratorFlow(generator, t) to carry "
    "a state or a table",
    "GeneratorFlow": "; its Kraus operators are evolve(generator, dt)",
    "schedule": "; compose(later, earlier) joins two steps on every factor",
    "NoneType": "; the step that changes nothing is unitary_channel(np.eye(d))",
}


def apply(dynamics: Dynamics, state: State) -> State:
    """Carry a state through ``dynamics``, revalidating it after each step.

    ``dynamics`` is ``None``, a ``KrausChannel`` on every factor, a
    schedule, or a ``GeneratorFlow``; it passes the gate :func:`steps` once.
    A flow carries the state's ``DensityMatrix`` by :func:`flow`. A
    schedule's steps run in order. A single-operator step keeps a
    ``PureState`` a ``PureState``, contracting the operator into the
    amplitude tensor; any other step turns it into its ``DensityMatrix``
    first. On a ``DensityMatrix`` each Kraus operator is contracted on the
    row axes and its conjugate on the column axes.
    """
    layout = state.layout
    dynamics = steps(dynamics, layout)
    if isinstance(dynamics, GeneratorFlow):
        if isinstance(state, PureState):
            state = state.reduce(layout.labels)
        return DensityMatrix(flow(dynamics, state.matrix[None])[0], layout)
    for positions, ch in dynamics:
        if isinstance(state, PureState):
            if len(ch.operators) == 1:
                amps = state.vector.reshape(layout.dims)
                vec = apply_local(ch.operators[0], amps, positions).reshape(-1)
                state = PureState(vec, layout)
                continue
            state = state.reduce(layout.labels)
        rho = state.matrix.reshape(layout.dims * 2)
        cols = tuple(layout.n_factors + p for p in positions)
        out = 0.0
        for k in ch.operators:
            out = out + apply_local(
                k.conj().T, apply_local(k, rho, positions), cols, right=True
            )
        state = DensityMatrix(out.reshape(state.dim, state.dim), layout)
    return state


def iterate(step: KrausChannel, rho: np.ndarray, n_steps: int) -> np.ndarray:
    """``rho`` and its images under 1 to ``n_steps`` applications of ``step``,
    stacked ``(n_steps + 1, d, d)`` and unchecked: a chain's grid states. Each
    image is summed from 0 in operator order, as :func:`apply` sums it."""
    ops = step.operators
    ops_dag = ops.conj().transpose(0, 2, 1)
    states = np.empty((n_steps + 1, *rho.shape), dtype=complex)
    states[0] = rho
    left, both = np.empty_like(ops), np.empty_like(ops)  # no temporaries per step
    for k in range(n_steps):
        np.matmul(ops, states[k], out=left)
        np.matmul(left, ops_dag, out=both)
        np.add.reduce(both, axis=0, initial=0.0, out=states[k + 1])
    return states


def kraus_to_choi(ch: KrausChannel) -> np.ndarray:
    w = ch.operators.reshape(len(ch.operators), -1).T
    return w @ w.conj().T


def _realign(matrix: np.ndarray, d: int) -> np.ndarray:
    """Choi matrix of a superoperator matrix, and back (the map is an involution)."""
    return matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def superoperator_to_choi(s: Superoperator) -> np.ndarray:
    return _realign(s.matrix, s.dim)


def choi_to_kraus(choi: np.ndarray, dim: int) -> np.ndarray:
    """Kraus operators ``(n, dim, dim)`` from a Choi matrix eigendecomposition.

    Eigenvalues below ``CHOI_EIG_CUTOFF`` are dropped; eigenvalues below
    ``-CPT_TOL`` mean the map is not completely positive and raise.
    """
    choi = np.asarray(choi, dtype=complex)
    sym = 0.5 * (choi + choi.conj().T)
    w, v = np.linalg.eigh(sym)
    if w.min() < -CPT_TOL:
        raise CptVerificationError(
            f"Choi matrix has eigenvalue {w.min():.3e}; map is not CP"
        )
    keep = w >= CHOI_EIG_CUTOFF
    if not keep.any():
        raise CptVerificationError("Choi matrix has no eigenvalue above cutoff")
    return (v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, dim, dim)


def verify_kraus_operators(
    ops: Sequence[np.ndarray], tol: float = CPT_TOL
) -> CptReport:
    """CPT report for a raw Kraus family: only non-finite entries or ``tol`` are refused.

    The Choi matrix ``W W^dag`` shares its nonzero spectrum with the Gram
    matrix ``W^dag W`` of the n operators, and the smaller of the two is
    decomposed. With n < d^2 the Choi matrix also has d^2 - n exact zero
    eigenvalues, so the reported minimum is ``min(0, lambda_min(W^dag W))``:
    exactly 0.0 for a unitary or an ``evolve`` result, and a round-off-sized
    negative number at worst when the operators are linearly dependent.
    """
    _check_tol(tol)
    ops = np.asarray(ops, dtype=complex)
    check_finite(ops, "Kraus operator")
    resid = completeness_residual(ops)
    w = ops.reshape(len(ops), -1).T
    if len(ops) < w.shape[0]:
        choi_min = min(0.0, float(np.linalg.eigvalsh(w.conj().T @ w).min()))
    else:
        choi_min = float(np.linalg.eigvalsh(w @ w.conj().T).min())
    return _report(choi_min, resid, tol)


def verify_superoperator_matrix(
    matrix: np.ndarray, dim: int, tol: float = CPT_TOL
) -> CptReport:
    """CPT report for a raw superoperator matrix (row-major vectorization);
    only non-finite entries or ``tol`` are refused."""
    _check_tol(tol)
    matrix = np.asarray(matrix, dtype=complex)
    check_finite(matrix, "superoperator")
    d = int(dim)
    choi = _realign(matrix, d)
    choi_min = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min())
    out_trace = np.einsum(choi.reshape(d, d, d, d), [0, 1, 0, 2], [1, 2])
    return _report(choi_min, float(np.linalg.norm(out_trace - np.eye(d))), tol)


def _check_tol(tol: float, what: str = "tol") -> None:
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{what} must be finite and >= 0: {tol}")


def _report(choi_min: float, resid: float, tol: float) -> CptReport:
    return CptReport(bool(resid <= tol), bool(choi_min >= -tol), choi_min, resid)


def verify_cpt(ch: Channel, tol: float = CPT_TOL) -> CptReport:
    """Check complete positivity and trace preservation; raises only on a bad ``tol``."""
    if isinstance(ch, KrausChannel):
        return verify_kraus_operators(ch.operators, tol)
    return verify_superoperator_matrix(ch.matrix, ch.dim, tol)


def evolve(g: LindbladGenerator, duration: float) -> KrausChannel:
    """Exact channel ``exp(L * duration)`` as a Kraus family.

    For the callers that need Kraus operators: a trajectory chain's step
    channel. A state or a table is carried by a ``GeneratorFlow`` instead,
    which never forms the map. Here the map is :func:`generator_map`, read
    as a Choi matrix and decomposed into at most d^2 Kraus operators. The
    family is renormalized to exact completeness when the residual is
    within ``CPT_TOL``; larger residuals raise. The ``KrausChannel``
    constructor's completeness check is the only check on the result:
    complete positivity needs none, because a Kraus family's Choi matrix
    ``W W^dag`` is positive semidefinite by construction. The route is
    refused above the memory budget by :func:`generator_map`'s check,
    before the first d^2 x d^2 array is allocated.
    """
    ops = choi_to_kraus(_realign(generator_map(g, duration), g.dim), g.dim)
    return KrausChannel(_renormalize_completeness(ops))


def _renormalize_completeness(ops: np.ndarray) -> np.ndarray:
    """Right-multiply by (sum K^dag K)^(-1/2) to pin completeness exactly.

    Raises when the family misses completeness by more than ``CPT_TOL``.
    """
    acc = _completeness_sum(ops)
    resid = float(np.linalg.norm(acc - np.eye(acc.shape[0])))
    if not resid <= CPT_TOL:
        raise CptVerificationError(
            f"extracted Kraus family misses completeness by {resid:.3e}"
        )
    w, v = np.linalg.eigh(0.5 * (acc + acc.conj().T))
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return ops @ inv_sqrt


def compose(later: KrausChannel, earlier: KrausChannel) -> KrausChannel:
    """Channel applying ``earlier`` first, then ``later``.

    The pairwise operator products are a Kraus family, so they are
    completely positive by construction; the ``KrausChannel`` constructor's
    completeness check is the only check they get.
    """
    if later.dim != earlier.dim:
        raise DimensionMismatchError(
            f"cannot compose dims {later.dim} and {earlier.dim}"
        )
    ops = later.operators[:, None] @ earlier.operators
    return KrausChannel(ops.reshape(-1, later.dim, later.dim))
