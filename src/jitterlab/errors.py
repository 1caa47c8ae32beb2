"""Exception taxonomy shared across the package.

Every error raised deliberately by this package derives from JitterlabError,
so callers can catch one base type at the CLI boundary.  The subclasses keep
failure modes distinguishable in tests: dimension and parameter validation,
scalar-minimizer pathologies, regime violations of the closed forms, and
divergence of the iterative routines.
"""


class JitterlabError(Exception):
    """Base class for all deliberate errors raised by jitterlab."""


class InvalidDimensionError(JitterlabError, ValueError):
    """A dimension argument is out of range (e.g. d > n or d == 0)."""


class InvalidParameterError(JitterlabError, ValueError):
    """A scalar parameter is outside its legal range."""


class UnboundedBelowError(JitterlabError, RuntimeError):
    """Bracket expansion exhausted its budget without finding a minimum."""


class EvaluationError(JitterlabError, RuntimeError):
    """A non-finite value appeared where a finite one is required, or a solver stalled."""


class BoundaryLimitError(JitterlabError, RuntimeError):
    """The minimum of an objective lies on an excluded boundary of its domain."""


class OutOfRegimeError(JitterlabError, ValueError):
    """A closed form was requested outside the regime where it is defined."""


class DegenerateRegimeError(JitterlabError, RuntimeError):
    """The requested estimator degenerates (e.g. the zero map) at these inputs."""


class DegenerateInputError(JitterlabError, ValueError):
    """An input vector required to have a direction is (numerically) zero."""


class AttackDivergenceError(JitterlabError, RuntimeError):
    """A perturbation search produced non-finite iterates."""


class TrainingDivergenceError(JitterlabError, RuntimeError):
    """A training run produced a non-finite objective value."""


class ConfigError(JitterlabError, ValueError):
    """A config file or override is malformed or names an unknown key."""
