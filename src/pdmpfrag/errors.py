"""Exception hierarchy shared by all modules, and the one rule for counts:
``_count`` checks every size, budget and path count where it enters."""

import numpy as np


class ModelError(Exception):
    """Base class for errors caused by a mis-specified or out-of-regime model."""


class DomainError(ModelError):
    """A model function violated its sign/domain contract (e.g. g <= 0)."""


class NonIntegrableRate(ModelError):
    """phi/g is not locally integrable at a required anchor point."""


class InfiniteHolding(ModelError):
    """The requested quantile exceeds the total cumulative rate along the orbit."""


class DomainExit(ModelError):
    """The decay flow reaches 0 in finite time before the requested horizon."""

    def __init__(self, hitting_time, message=None):
        self.hitting_time = hitting_time
        super().__init__(message or f"flow absorbed at 0 after time {hitting_time}")


class KernelDomain(ModelError):
    """State outside the jump kernel's declared domain."""


class NoDensity(ModelError):
    """The jump kernel does not supply a transition density."""


class NotADensity(ModelError):
    """Input mass deviates from 1 beyond tolerance."""


class NumericalError(Exception):
    """Base class for numerical non-convergence (distinct from model errors)."""


class NonConvergent(NumericalError):
    """A quadrature failed to converge."""


class OutOfRegime(ModelError):
    """Parameters outside the regime where the divergence conditions hold."""


class ConfigError(Exception):
    """Invalid experiment configuration."""


def _count(n, name, low=0):
    """A count as an int: an integral float such as 400.0 is 400.  A bool,
    a string, a fraction, NaN, inf or a value below ``low`` is a ValueError
    naming the parameter and its bound."""
    integral = (not isinstance(n, (bool, np.bool_, str))
                and float(n).is_integer())  # NaN and inf are not
    if not (integral and n >= low):
        raise ValueError(f"need an integer {name} >= {low}, got {n!r}")
    return int(n)
