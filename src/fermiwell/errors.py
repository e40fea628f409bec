"""Exception types shared across the package.

Each type carries the label and exit code the command line reports it with.
"""


class FermiwellError(Exception):
    """Base class for all package errors."""

    label = "numerical failure"
    exit_code = 3


class DomainError(FermiwellError, ValueError):
    """Argument outside the mathematically valid window."""

    label = "usage error"
    exit_code = 2


class VerificationError(FermiwellError):
    """A computed result failed one of its own consistency checks."""

    label = "verification failure"
    exit_code = 1


class PoleError(DomainError):
    """log Gamma evaluated at a non-positive integer."""


class ConvergenceError(FermiwellError):
    """A series or iterative scheme hit its budget before the tolerance."""


class DegenerateParameterError(FermiwellError):
    """c-a-b within 1e-8 of an integer where the connection formula is needed."""


class QuadratureError(FermiwellError):
    """Adaptive quadrature exhausted its refinement budget."""


class BracketCollisionError(VerificationError):
    """Brackets that do not hold one root each: the exact scan brackets a
    count outside the paper's counting rule, a root's parity misfits its
    place in the ladder, or two oracle levels of one parity lie closer than
    bisection in floating point can separate."""


class LabelingError(VerificationError):
    """A state's node count misfits its place in the ladder, or the oracle's Sturm count decreases."""


class RootNotFoundError(VerificationError):
    """Requested root lies beyond the scan ceiling."""

