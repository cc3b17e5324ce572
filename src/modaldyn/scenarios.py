"""Canned physical setups, each an initial state and its dynamics.

Each constructor returns a :class:`Scenario` bundling an initial state and
its dynamics (a Lindblad generator, a discrete schedule, or nothing); its
docstring gives the closed forms the setup obeys.
``SCENARIOS`` names the constructors the command line offers, with the
parameters each takes and their defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .channels import (
    Dynamics,
    GeneratorFlow,
    LindbladGenerator,
    Schedule,
    apply,
    unitary_channel,
)
from .errors import InvalidAmplitudesError
from .linalg import SystemLayout, check_memory, kron_all
from .states import DensityMatrix, PureState, State
from .tolerances import AMPLITUDE_NORM_TOL

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|

KET_ZERO = np.array([1.0, 0.0], dtype=complex)
KET_ONE = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class Scenario:
    """A named system, its initial state, and how it moves.

    ``initial_state`` is a ``DensityMatrix``, or a ``PureState`` when the
    scenario starts pure and its dynamics keep it so; its layout is the
    scenario's. ``dynamics`` is a ``LindbladGenerator``, a schedule, or
    ``None``. A schedule is a sequence of steps ``(positions, KrausChannel)``,
    applied in order: each channel acts on the layout factors at
    ``positions``, listed in the channel's own factor order, so its operators
    have the size of those factors only. A schedule read from a scenario file
    acts on every factor in layout order.
    """

    name: str
    initial_state: State
    dynamics: Union[LindbladGenerator, Schedule, None] = None

    @property
    def layout(self) -> SystemLayout:
        return self.initial_state.layout

    def dynamics_to(self, t: float) -> tuple[Dynamics, str]:
        """Dynamics that carry the initial state to time ``t``, and their id.

        A generator gives its ``GeneratorFlow`` over ``t`` for any ``t != 0``
        (the flow refuses ``t < 0``), a schedule runs in full whatever ``t``;
        a static scenario has ``None``.
        """
        if isinstance(self.dynamics, LindbladGenerator):
            if t != 0:
                return GeneratorFlow(self.dynamics, t), f"{self.name}:lindblad"
        elif self.dynamics:
            return self.dynamics, f"{self.name}:schedule"
        return None, "identity"

    def state_at(self, t: float) -> State:
        """The initial state carried to time ``t`` by :meth:`dynamics_to`."""
        return apply(self.dynamics_to(t)[0], self.initial_state)


def _controlled_gate(gate: np.ndarray) -> np.ndarray:
    """``|0><0| kron I + |1><1| kron gate`` on (control, target) qubits."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = np.eye(2)
    out[2:, 2:] = gate
    return out


def von_neumann_measurement(
    alpha: complex,
    beta: complex,
    n_env: int = 8,
    coupling: float = 0.4,
) -> Scenario:
    """Unitary measurement of a qubit by a pointer, watched by an environment.

    The system starts in ``alpha|0> + beta|1>``, the pointer in its ready
    state ``|0>``, and ``n_env`` environment qubits in ``|0>``. The schedule
    first copies the system onto the pointer (controlled flip), then lets
    each environment qubit read the pointer through a controlled rotation
    whose conditional environment states overlap by ``coupling``. The state
    stays pure and is carried as a ``PureState`` vector of dimension
    ``2 ** (n_env + 2)``; each schedule step is a 4x4 controlled gate on its
    (control, target) qubits. After the full schedule, the off-diagonal of
    the system+pointer record is suppressed by exactly ``coupling ** n_env``,
    which gives this scenario closed forms:

    * pointer reduced state: exactly ``diag(|alpha|^2, |beta|^2)``;
    * record (system+pointer) eigenvalues:
      ``(1 +- sqrt((p - q)^2 + 4 p q s^2)) / 2`` with ``p = |alpha|^2``,
      ``q = |beta|^2``, ``s = coupling ** n_env``, converging monotonically
      to the Born weights as ``n_env`` grows.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    norm_dev = abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0)
    if norm_dev > AMPLITUDE_NORM_TOL:
        raise InvalidAmplitudesError(
            f"|alpha|^2 + |beta|^2 deviates from 1 by {norm_dev:.3e}"
        )
    n_env = int(n_env)
    if n_env < 0:
        raise ValueError(f"n_env must be nonnegative: {n_env}")
    coupling = float(coupling)
    if not 0.0 <= coupling <= 1.0:
        raise ValueError(f"coupling must lie in [0, 1]: {coupling}")

    check_memory(2 ** (n_env + 2), f"the von-neumann state vector for n_env={n_env}")
    labels = ("S", "P") + tuple(f"E{k}" for k in range(1, n_env + 1))
    layout = SystemLayout.qubits(labels)
    system = alpha * KET_ZERO + beta * KET_ONE
    vec = kron_all([system] + [KET_ZERO] * (1 + n_env))
    initial = PureState(vec, layout)

    # Environment qubit k ends in |0> or RY(theta)|0>; overlap cos(theta/2).
    theta = 2.0 * math.acos(coupling)
    ry = np.array(
        [
            [math.cos(theta / 2.0), -math.sin(theta / 2.0)],
            [math.sin(theta / 2.0), math.cos(theta / 2.0)],
        ],
        dtype=complex,
    )
    copy = unitary_channel(_controlled_gate(PAULI_X))
    read = unitary_channel(_controlled_gate(ry))
    schedule = (((0, 1), copy),) + tuple(((1, 2 + k), read) for k in range(n_env))
    return Scenario(name="von-neumann", initial_state=initial, dynamics=schedule)


def epr_bohm() -> Scenario:
    """Two-qubit singlet; both margins maximally mixed (probabilities 1/2,
    1/2), perfectly anticorrelated in every aligned basis: each opposite
    outcome pair has probability 1/2, each equal pair 0."""
    layout = SystemLayout.qubits(("A", "B"))
    vec = (np.kron(KET_ZERO, KET_ONE) - np.kron(KET_ONE, KET_ZERO)) / math.sqrt(2.0)
    return Scenario("epr-bohm", DensityMatrix.from_vector(vec, layout))


def ghz_mermin() -> Scenario:
    """Three-qubit GHZ state ``(|000> + |111>)/sqrt(2)``; each margin is
    maximally mixed (probabilities 1/2, 1/2), and in the computational basis
    all-zero and all-one outcomes have probability 1/2, mixed outcomes 0."""
    layout = SystemLayout.qubits(("A", "B", "C"))
    vec = (kron_all([KET_ZERO] * 3) + kron_all([KET_ONE] * 3)) / math.sqrt(2.0)
    return Scenario("ghz-mermin", DensityMatrix.from_vector(vec, layout))


def _one_jump_qubit(
    name: str, jump: np.ndarray, gamma: float, rho0: Optional[DensityMatrix], ket
) -> Scenario:
    """A qubit from ``rho0`` (``|ket>`` on ``Q`` if ``None``), one jump at ``gamma``."""
    if rho0 is None:
        rho0 = DensityMatrix.from_vector(ket, SystemLayout.qubits(("Q",)))
    generator = LindbladGenerator(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=((jump, gamma),),
    )
    return Scenario(name=name, initial_state=rho0, dynamics=generator)


def dephasing_qubit(
    gamma: float, rho0: Optional[DensityMatrix] = None
) -> Scenario:
    """Pure dephasing: jump operator ``sigma_z`` at rate ``gamma``.

    Coherences decay as ``rho_01(t) = rho_01(0) * exp(-2 gamma t)`` while
    populations stand still; from ``|+><+|`` the eigenvalues at time t are
    ``(1 +- exp(-2 gamma t)) / 2``.
    """
    return _one_jump_qubit("dephasing", PAULI_Z, gamma, rho0, KET_PLUS)


def amplitude_damping_qubit(
    gamma: float, rho0: Optional[DensityMatrix] = None
) -> Scenario:
    """Spontaneous decay: jump operator ``|0><1|`` at rate ``gamma``.

    The excited population decays as ``rho_11(t) = rho_11(0) * exp(-gamma t)``.
    Default initial state is the excited state ``|1><1|``.
    """
    return _one_jump_qubit("damping", LOWERING, gamma, rho0, KET_ONE)


def _von_neumann(alpha2: float, n_env: int, coupling: float) -> Scenario:
    """The measurement chain of ``|alpha|^2 = alpha2`` with real amplitudes."""
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError(f"--alpha2 must lie in [0, 1]: {alpha2}")
    alpha, beta = math.sqrt(alpha2), math.sqrt(1.0 - alpha2)
    return von_neumann_measurement(alpha, beta, n_env=n_env, coupling=coupling)


_QUBIT = {"gamma": 1.0, "rho0": None}  # rho0 None: the scenario's own state
# Name -> (builder, {parameter: default}); builders take their parameters by
# keyword and look constructors up here at call time, so a rebound one is seen.
SCENARIOS: dict[str, tuple[Callable[..., Scenario], dict]] = {
    "epr-bohm": (lambda: epr_bohm(), {}),
    "ghz-mermin": (lambda: ghz_mermin(), {}),
    "dephasing": (lambda **kw: dephasing_qubit(**kw), _QUBIT),
    "damping": (lambda **kw: amplitude_damping_qubit(**kw), _QUBIT),
    "von-neumann": (_von_neumann, {"alpha2": 0.3, "n_env": 8, "coupling": 0.4}),
    "ghz": (lambda: ghz_mermin(), {}),  # alias of ghz-mermin
}
