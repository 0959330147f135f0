"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """Experiment configuration is malformed; message names the offending field."""


class ConstantConditionError(ValueError):
    """Certificate constants violate c1 > 2*c2*sqrt(K)."""


class EvaluatorError(RuntimeError):
    """A model evaluator returned NaN for a finite state; carries (x, t)."""

    def __init__(self, message, x=None, t=None):
        super().__init__(message)
        self.x = x
        self.t = t


class RateIntegralError(ValueError):
    """The rate function's integral 1/r diverges at 0 (refinement did not
    converge), or the level lies below the quadrature's range."""
