"""Exception hierarchy shared by all modules."""


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
