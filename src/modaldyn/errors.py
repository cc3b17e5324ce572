"""Exception types raised by modaldyn.

Every error that signals a violated numerical contract derives from
:class:`ModalDynError`, so callers can catch the whole family at once while
the CLI maps individual subclasses to stable exit codes.
"""

from __future__ import annotations


class ModalDynError(Exception):
    """Base class for all modaldyn contract violations."""


class NotHermitianError(ModalDynError):
    """Matrix expected to be Hermitian exceeds the Hermiticity tolerance."""


class NotUnitaryError(ModalDynError):
    """Matrix expected to be unitary fails the isometry check."""


class LayoutMismatchError(ModalDynError):
    """Matrix shape does not match the declared tensor-factor layout."""


class UnknownLabelError(ModalDynError):
    """A subsystem label is not present in the layout."""


class DimensionMismatchError(ModalDynError):
    """Operands have incompatible dimensions."""


class InvalidDensityMatrixError(ModalDynError):
    """Candidate density matrix is not Hermitian, unit-trace, and PSD."""


class NonOrthogonalEntriesError(ModalDynError):
    """Epistemic-state vectors are not mutually orthonormal."""


class CptVerificationError(ModalDynError):
    """Channel failed complete-positivity or trace-preservation checks."""


class InvalidAmplitudesError(ModalDynError):
    """Pure-state amplitudes are not normalized."""


class DegenerateBasisError(ModalDynError):
    """Strict-mode query touched a degenerate eigenvalue cluster."""


class NormalizationError(ModalDynError):
    """A probability row failed its normalization invariant."""


class ProbabilityBoundsError(ModalDynError):
    """Computed probability left [0, 1] by more than round-off allows.

    This signals an implementation or input-validation bug, not ordinary
    floating-point noise: noise-sized excursions are clamped, larger ones
    raise this error.
    """


class ProblemTooLargeError(ModalDynError):
    """A requested array would exceed the memory budget; nothing was allocated."""
