"""Exception taxonomy shared across the package.

Every error raised deliberately by this package derives from JitterlabError,
so callers can catch one base type at the CLI boundary.  The subclasses keep
failure modes distinguishable in tests: dimension and parameter validation,
non-finite values and stalled solvers, regime violations of the closed forms,
and divergence of the iterative routines.
"""


class JitterlabError(Exception):
    """Base class for all deliberate errors raised by jitterlab."""


class InvalidDimensionError(JitterlabError, ValueError):
    """A dimension n, d or m below 1, or sizes that do not fit together (d > n, shapes)."""


class InvalidParameterError(JitterlabError, ValueError):
    """A parameter is outside its legal range, or a count, seed or dimension is not an int."""


class EvaluationError(JitterlabError, RuntimeError):
    """A non-finite value appeared where a finite one is required, or a solver stalled."""


class OutOfRegimeError(JitterlabError, ValueError):
    """A closed form was requested outside the regime where it is defined."""


class DegenerateInputError(JitterlabError, ValueError):
    """An input vector required to have a direction is (numerically) zero."""


class AttackDivergenceError(JitterlabError, RuntimeError):
    """A perturbation search produced non-finite iterates."""


class TrainingDivergenceError(JitterlabError, RuntimeError):
    """A training run produced a non-finite objective value."""


class ConfigError(JitterlabError, ValueError):
    """A config file or override is malformed or names an unknown key."""
