"""Modal dynamics toolkit for finite-dimensional quantum systems.

The package turns density matrices into spectral epistemic states, computes
conditional probabilities between spectral entries across subsystem
partitions and time, samples ontic trajectories under Lindblad dynamics, and
verifies that channels are completely positive and trace preserving.

Public names are imported from their modules on first use (PEP 562), so a
program loads only the modules it uses: ``import modaldyn`` alone loads
none of them, nor numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each module.
_EXPORTS = {
    "channels": (
        "Channel", "CptReport", "GeneratorFlow", "KrausChannel",
        "LindbladGenerator", "Superoperator", "apply", "choi_to_kraus",
        "compose", "completeness_residual", "evolve", "flow", "generator_map",
        "kraus_to_choi", "superoperator_to_choi", "unitary_channel",
        "verify_cpt", "verify_kraus_operators", "verify_superoperator_matrix",
    ),
    "conditional": (
        "ConditionalTable", "Partition", "conditional_table",
        "dynamical_conditional", "joint_conditional", "kinematic_conditional",
        "trivial_partition",
    ),
    "errors": (
        "CptVerificationError", "DegenerateBasisError",
        "DimensionMismatchError", "InvalidAmplitudesError",
        "InvalidDensityMatrixError", "LayoutMismatchError", "ModalDynError",
        "NonOrthogonalEntriesError", "NormalizationError", "NotHermitianError",
        "NotUnitaryError", "ProbabilityBoundsError", "ProblemTooLargeError",
        "UnknownLabelError",
    ),
    "linalg": (
        "SystemLayout", "canonical_phase", "hermitian_eig", "kron_all",
        "partial_trace",
    ),
    "scenarios": (
        "Scenario", "amplitude_damping_qubit", "dephasing_qubit", "epr_bohm",
        "ghz_mermin", "von_neumann_measurement",
    ),
    "states": (
        "DensityMatrix", "EpistemicState", "PureState", "epistemic_to_density",
        "extract_epistemic",
    ),
    "trajectories": (
        "EnsembleReport", "StepChain", "TimeGrid", "Trajectory",
        "build_step_chain", "run_ensemble",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
