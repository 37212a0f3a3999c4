"""Closed-form ground truth for the power fragmentation family.

For pure fragmentation with rate phi(x) = a x^{-gamma} (gamma > 0) and the
homogeneous power kernel h(z) = (nu+2) z^nu, the explosion time tau started
from x0 = 1, a = 1 has the gamma distribution with shape 1 + (nu+2)/gamma
and unit scale; general (a, x0) rescale time by a x0^{-gamma}.  This gives
independent targets for the Monte Carlo engine and the grid evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import NonConvergent, OutOfRegime
from .monotone import endpoint_integral, gauss_panels

_PROD_FLOOR = 1e-16  # series truncation: remaining factors below this are noise


@dataclass(frozen=True)
class TauOracle:
    """Pure-fragmentation power family: h(z)=(nu+2)z^nu, phi(x)=a x^{-gamma}."""

    nu: float = 0.0
    gamma: float = 1.0
    a: float = 1.0

    def __post_init__(self):
        if self.nu <= -2:
            raise OutOfRegime("need nu > -2")
        if self.gamma <= 0 or self.a <= 0:
            raise OutOfRegime("need gamma > 0 and a > 0")

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


def tau_tail(oracle: TauOracle, q) -> float:
    """1 - F_tau(q): regularized upper incomplete gamma at shape 1+(nu+2)/gamma."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("q must be nonnegative")
    out = special.gammaincc(oracle.shape, q)
    return float(out) if out.ndim == 0 else out


def explosion_cdf(oracle: TauOracle, t, x0=1.0):
    """P(t_inf <= t) started from x0 (time rescaled by a x0^{-gamma})."""
    return 1.0 - tau_tail(oracle, np.asarray(t, dtype=float) * oracle.time_scale(x0))


def _survival_weight(oracle, t, x):
    """e^{-s} sum_{k<=rho} s^k/k! with s = a t x^{-gamma}, rho = (nu+2)/gamma."""
    rho = (oracle.nu + 2.0) / oracle.gamma
    k_max = int(round(rho))
    s = oracle.a * t * np.asarray(x, dtype=float) ** (-oracle.gamma)
    term = np.ones_like(s)
    acc = np.ones_like(s)
    for k in range(1, k_max + 1):
        term = term * s / k
        acc = acc + term
    return np.exp(-s) * acc


def exact_mass(oracle: TauOracle, t, u) -> float:
    """Exact mass of the semigroup at time t acting on density u.

    int e^{-atx^{-gamma}} sum_{k<=rho} (atx^{-gamma})^k/k! u(x) x dx, valid
    when rho = (nu+2)/gamma is a nonnegative integer.  ``u`` may be a
    GridDensity (cellwise quadrature against the midpoint reconstruction) or
    a callable density (quadrature over its support must be passed via a
    GridDensity instead).
    """
    rho = (oracle.nu + 2.0) / oracle.gamma
    if abs(rho - round(rho)) > 1e-9:
        raise OutOfRegime("exact_mass needs (nu+2)/gamma to be an integer")
    if t < 0:
        raise ValueError("t must be nonnegative")
    edges = u.grid.edges
    w = gauss_panels(lambda x: _survival_weight(oracle, t, x) * x,
                     edges[:-1], edges[1:])
    core = float(w @ u.values())
    # sub-grid mass (if any) is below every x: s large, weight ~ 0
    return core


def mass_upper_bound(oracle: TauOracle, t, u) -> float:
    """int (1 - F_tau(a t x^{-gamma})) u(x) x dx via tau_tail.

    Upper bound for the semigroup mass under phi(x) <= a x^{-gamma}, with
    equality when phi(x) = a x^{-gamma}; independent route from exact_mass.
    """
    edges = u.grid.edges

    def wfun(x):
        return tau_tail(oracle, oracle.a * t * x ** (-oracle.gamma)) * x

    w = gauss_panels(wfun, edges[:-1], edges[1:])
    return float(w @ u.values())


def sample_tau(params, rng, K_max=100_000, x0=1.0) -> float:
    """One explosion time by direct summation of the holding-time series.

    Pure fragmentation (TauOracle): tau = sum_k eps_k prod_{l<k} H^{<-}(th_l)^gamma,
    scaled by x0^gamma / a.  Growth family (GrowthTauParams):
    tau = sum_k (e^{beta eps_k/a} - 1) prod_{l<k} H^{<-}(th_l)^beta e^{beta eps_l/a},
    scaled by x0^beta / beta.

    Truncates once the running product drops below 1e-16; raises NonConvergent
    if the budget K_max is exhausted first.
    """
    if isinstance(params, TauOracle):
        inv_pow = params.gamma / (params.nu + 2.0)
        total = 0.0
        prod = 1.0
        for _ in range(K_max):
            eps = rng.standard_exponential()
            total += eps * prod
            if prod < _PROD_FLOOR:
                return total * x0 ** params.gamma / params.a
            prod *= rng.random() ** inv_pow
        raise NonConvergent("tau series did not truncate within K_max")
    if isinstance(params, GrowthTauParams):
        inv_pow = params.beta / (params.nu + 2.0)
        total = 0.0
        prod = 1.0
        for _ in range(K_max):
            eps = rng.standard_exponential()
            grow = math.exp(params.beta * eps / params.a)
            total += (grow - 1.0) * prod
            if prod < _PROD_FLOOR:
                return total * x0 ** params.beta / params.beta
            prod *= grow * rng.random() ** inv_pow
            if prod > 1e12 or total > 1e12:
                return math.inf  # series diverging: no explosion on this path
        raise NonConvergent("tau series did not truncate within K_max")
    raise TypeError("params must be a TauOracle or GrowthTauParams")


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
