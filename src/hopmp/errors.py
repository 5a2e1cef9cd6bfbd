"""Exception types shared across the toolkit."""


class HopmpError(Exception):
    """Base class for all toolkit errors."""


class TimeOutOfRange(HopmpError):
    """A time argument lies outside the trajectory horizon."""


class OrderUnavailable(HopmpError):
    """A jet or a derivative cannot be computed exactly (refused, not approximated)."""


class InsufficientJetOrder(HopmpError):
    """A jet point is too shallow for the requested operation."""


class SingularBoundaryMatrix(HopmpError):
    """The 4x4 boundary matrix is numerically singular."""


class StepSizeUnderflow(HopmpError):
    """The adaptive integrator failed (stiffness or blow-up)."""


class ConstraintViolation(HopmpError):
    """Initial data violate the declared admissibility constraint."""


class NonSolvableForm(HopmpError):
    """The Lagrangian is not affine in the adjoint block."""


class DegenerateAdjoint(HopmpError):
    """The adjoint vanishes on an interval; the sign rule is undefined there."""


class DegenerateHorizon(HopmpError):
    """The horizon hits a degeneracy of the probed map."""


class BadParams(HopmpError):
    """Invalid parameters for a builtin problem."""


class ConfigError(HopmpError):
    """The run configuration does not parse or validate."""


class NoClosedForm(HopmpError):
    """No closed-form optimal reference is available for this problem."""
