"""Closed-form ground truth for the power fragmentation family.

For pure fragmentation with rate phi(x) = a x^{-gamma} and the homogeneous
power kernel h(z) = (nu+2) z^nu, for every nu > -2 and gamma > 0, the
explosion time tau started from x0 = 1, a = 1 has the gamma distribution
with shape 1 + (nu+2)/gamma and unit scale (the perpetuity
tau = eps + R^gamma tau', solved by the beta-gamma algebra); general
(a, x0) rescale time by a x0^{-gamma}.  One tail, ``tau_tail``, gives the
explosion CDF and the exact semigroup mass, independent targets for the
Monte Carlo engine and the grid evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .characteristics import _check_states
from .errors import NonConvergent, OutOfRegime, _count
from .monotone import endpoint_integral, gauss_panels

_PROD_FLOOR = 1e-16  # series truncation: remaining factors below this are noise


def _check_family(params, rate_power):
    """Refuse nu outside (-2, inf), or ``rate_power`` or a outside (0, inf)."""
    for name, low in (("nu", -2.0), (rate_power, 0.0), ("a", 0.0)):
        if not low < getattr(params, name) < math.inf:  # NaN too
            raise OutOfRegime(f"need finite {name} > {low:g} "
                              f"(got {name} = {getattr(params, name)})")


@dataclass(frozen=True)
class TauOracle:
    """Pure-fragmentation power family: h(z)=(nu+2)z^nu, phi(x)=a x^{-gamma}."""

    nu: float = 0.0
    gamma: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        _check_family(self, "gamma")

    @property
    def shape(self):
        return 1.0 + (self.nu + 2.0) / self.gamma

    def time_scale(self, x0=1.0):
        """tau(x0) is distributed as Gamma(shape)/(a x0^{-gamma})."""
        return self.a * x0 ** (-self.gamma)


@dataclass(frozen=True)
class GrowthTauParams:
    """Growth power family: g(x) = x^{1-beta} and phi(x) = a x^{-beta}.

    Here beta > 0 and the kernel is the power kernel h(z) = (nu+2) z^nu.
    Q(x) = a log x, so from state x the pre-jump state is x e^{eps/a}, the
    holding time is x^beta (e^{beta eps/a} - 1) / beta, and the daughter is
    the pre-jump state times H^{<-}(theta) = theta^{1/(nu+2)}.
    """

    nu: float = 0.0
    beta: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        _check_family(self, "beta")


def tau_tail(oracle: TauOracle, q) -> float:
    """1 - F_tau(q): regularized upper incomplete gamma at shape 1+(nu+2)/gamma."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("q must be nonnegative")
    out = special.gammaincc(oracle.shape, q)
    return float(out) if out.ndim == 0 else out


def explosion_cdf(oracle: TauOracle, t, x0=1.0):
    """P(t_inf <= t) from x0 in (0, inf) (time rescaled by a x0^{-gamma})."""
    _check_states(x0)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):
        raise ValueError("t must lie in [0, inf)")
    return 1.0 - tau_tail(oracle, t * oracle.time_scale(x0))


def exact_mass(oracle: TauOracle, t, u) -> float:
    """Exact mass ||P(t) u|| of the semigroup at time t acting on density u.

    int P_x(t < t_inf) u(x) x dx: the gamma tail ``tau_tail`` at
    t a x^{-gamma}, for every nu > -2 and gamma > 0.  The same integral
    bounds from above the mass of any pure-jump model with this kernel and
    phi(x) >= a x^{-gamma}, because that chain explodes sooner.  ``u`` is a
    GridDensity: the tail is integrated over each cell against its
    midpoint reconstruction ``u.values()``, and the out-of-grid buckets
    are not counted.
    """
    if not 0 <= t < math.inf:
        raise ValueError("t must lie in [0, inf)")
    edges = u.grid.edges
    w = gauss_panels(lambda x: tau_tail(oracle, t * oracle.time_scale(x)) * x,
                     edges[:-1], edges[1:])
    return float(w @ u.values())


def sample_tau(params, rng, K_max=100_000, x0=1.0) -> float:
    """One explosion time by direct summation of the holding-time series.

    Pure fragmentation (TauOracle): tau = sum_k eps_k prod_{l<k} H^{<-}(th_l)^gamma,
    scaled by x0^gamma / a.  Growth family (GrowthTauParams):
    tau = sum_k (e^{beta eps_k/a} - 1) prod_{l<k} H^{<-}(th_l)^beta e^{beta eps_l/a},
    scaled by x0^beta / beta.

    Truncates once the running product drops below 1e-16; raises NonConvergent
    if the budget K_max is exhausted first.  A growth series whose log product
    has drift beta/a - beta/(nu+2) >= 0 diverges almost surely: +inf (no
    explosion) is returned without drawing.  x0 must lie in (0, inf).
    """
    _check_states(x0)
    K_max = _count(K_max, "K_max", 1)
    # per family: the exponent of H^{<-}(theta) in the product, the final
    # scale x0^power / div, and a step eps -> (increment, growth factor)
    if isinstance(params, TauOracle):
        inv_pow = params.gamma / (params.nu + 2.0)
        power, div = params.gamma, params.a

        def step(eps):
            return eps, 1.0
    elif isinstance(params, GrowthTauParams):
        inv_pow = params.beta / (params.nu + 2.0)
        if params.beta / params.a - inv_pow >= 0:
            return math.inf  # log product drifts up: the series diverges a.s.
        power, div = params.beta, params.beta

        def step(eps):
            grow = math.exp(params.beta * eps / params.a)
            return grow - 1.0, grow
    else:
        raise TypeError("params must be a TauOracle or GrowthTauParams")
    total = 0.0
    prod = 1.0
    for _ in range(K_max):
        inc, grow = step(rng.standard_exponential())
        total += inc * prod
        if prod < _PROD_FLOOR:
            return total * x0 ** power / div
        prod *= grow * rng.random() ** inv_pow
    raise NonConvergent("tau series did not truncate within K_max")


def mu0(h) -> float:
    """mu_0 = int_0^1 log(z) h(z) z dz (drift of the log jump chain; <= 0).

    For the power family h(z)=(nu+2)z^nu this equals -1/(nu+2).  Returns
    -inf when the integral diverges at zero.
    """
    with np.errstate(over="ignore"):
        val, ok = endpoint_integral(
            lambda z: -np.log(z) * np.asarray(h(z), dtype=float) * z,
            1.0, "zero")
    return -val if ok else -math.inf
