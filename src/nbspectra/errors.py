"""Exception types shared across the package.

The errors of bad input, parameters or files subclass `UsageError`, on
which the CLI exits 2; it exits 3 on any other error.
"""


class UsageError(ValueError):
    """Bad input; the CLI exits 2."""


class ParityError(UsageError):
    """Degree/size combination has odd stub count, no such graph exists."""


class InfeasibleError(UsageError):
    """Requested parameters admit no simple object (e.g. degree >= n)."""


class RetryExhausted(RuntimeError):
    """Rejection sampler hit its restart cap without producing a valid object."""


class DivisibilityError(UsageError):
    """Hyperedge size does not divide the total stub count."""


class ConvergenceError(RuntimeError):
    """Eigensolver output failed its residual/orthonormality certificate."""


class DegenerateError(ValueError):
    """Operation undefined for these parameters (zero denominator or d = 1)."""


class TrivialEigenvalueError(ValueError):
    """Eigenvector lift requested at a trivial non-backtracking eigenvalue."""


class ZeroVectorError(ValueError):
    """A vector that must be nonzero vanished."""


class SingularError(ArithmeticError):
    """Pivot underflow: matrix is singular to working precision."""


class NearSingularError(UsageError):
    """Evaluation point too close to a spectrum/singularity guard radius."""


class IntegrationError(RuntimeError):
    """Closed-form CDF failed its certificate."""


class DomainError(UsageError):
    """Parameter outside the valid domain of a density or report."""


class StructureError(RuntimeError):
    """A structural identity that must hold exactly failed (generator bug)."""


class AmbiguityError(RuntimeError):
    """Two candidate eigenvalues are too close to select between."""


class MultiplicityError(RuntimeError):
    """An eigenvalue required to be simple is not."""


class DetectabilityError(UsageError):
    """Block-model parameters below the detectability threshold."""


class ParseError(UsageError):
    """Malformed input file."""


class InvariantError(UsageError):
    """Loaded or constructed object violates its type invariants."""
