"""Jump distributions and their sampling maps.

The built-in family is the fragmentation kernel
J(x, B) = (1/x) int_0^x 1_B(y) b(y, x) y dy with daughter-size density b
mass-normalized by int_0^y b(x, y) x dx = y.  Sampling goes through the
per-parent CDF H_x and its generalized inverse: kappa(q, x) = H_x^{<-}(q) x.
"""

from __future__ import annotations

import numpy as np

from .errors import KernelDomain, NoDensity
from .monotone import TabulatedIntegralMap

Q_MIN = 2.0 ** -53  # clamp for uniform variates: measure-zero endpoints


def _clamp_q(q):
    return np.clip(np.asarray(q, dtype=float), Q_MIN, 1.0 - Q_MIN)


class JumpKernel:
    """Base class; subclasses provide the per-parent fragment-fraction CDF
    and either the fraction density h of a homogeneous kernel or b."""

    def ratio_cdf(self, x, r):
        """H_x(r): probability that a daughter is below r*x, r in [0,1]."""
        raise NotImplementedError

    def ratio_inverse(self, x, q):
        """H_x^{<-}(q), generalized inverse of the fraction CDF."""
        raise NotImplementedError

    def b(self, x, y):
        """Daughter-size density b(x, y) = h(x/y)/y (zero for x >= y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.h(np.where(x < y, x / y, 0.5)) / y
        return np.where(x < y, val, 0.0)

    def sample(self, q, x):
        """kappa(q, x): daughter size for uniform variate q, parent x."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise KernelDomain("parent size must be positive")
        return self._kappa(_clamp_q(q), x)

    def _kappa(self, q, x):
        """The sampling map on checked parents x > 0 and clamped q."""
        return self.ratio_inverse(x, q) * x

    def transition_density(self, x, y):
        """Kernel p(x,y) = b(x,y)/y of the transition operator w.r.t. m(dx)=x dx."""
        y = np.asarray(y, dtype=float)
        return self.b(x, y) / y

    def fragment_cdf(self, x, r):
        """J(x, (0, r]) for absolute daughter size r."""
        x = np.asarray(x, dtype=float)
        r = np.asarray(r, dtype=float)
        return self.ratio_cdf(x, np.clip(r / x, 0.0, 1.0))


class PowerLawKernel(JumpKernel):
    """Homogeneous kernel with h(z) = (nu + 2) z**nu, nu > -2 (closed forms)."""

    def __init__(self, nu=0.0):
        if nu <= -2:
            raise ValueError("need nu > -2 for a normalizable kernel")
        self.nu = float(nu)

    def h(self, z):
        return (self.nu + 2.0) * np.asarray(z, dtype=float) ** self.nu

    def ratio_cdf(self, x, r):
        return np.asarray(r, dtype=float) ** (self.nu + 2.0)

    def ratio_inverse(self, x, q):
        return np.asarray(q, dtype=float) ** (1.0 / (self.nu + 2.0))


class HomogeneousKernel(JumpKernel):
    """Homogeneous kernel b(x,y) = h(x/y)/y for a general normalized h."""

    def __init__(self, h):
        self.h_fn = h
        self.H = TabulatedIntegralMap(lambda z: h(z) * z, orientation="from_below",
                                      anchor=0.0, domain=(1e-12, 1.0))

    def h(self, z):
        return self.h_fn(np.asarray(z, dtype=float))

    def ratio_cdf(self, x, r):
        return self.H(np.asarray(r, dtype=float))

    def ratio_inverse(self, x, q):
        return self.H.inverse(q)


class SeparableKernel(JumpKernel):
    """Separable kernel b(x,y) = beta(x) y / Lambda(y), Lambda(y) = int_0^y beta z dz.

    kappa(q, x) = Lambda^{<-}(q Lambda(x)); the map x -> Lambda(x) conjugates
    this family to the homogeneous kernel with uniform fraction CDF H(r) = r.
    """

    def __init__(self, beta):
        self.beta_fn = beta
        self.Lam = TabulatedIntegralMap(lambda z: beta(z) * z,
                                        orientation="from_below", anchor=0.0)

    def beta(self, x):
        return self.beta_fn(np.asarray(x, dtype=float))

    def ratio_cdf(self, x, r):
        x = np.asarray(x, dtype=float)
        r = np.asarray(r, dtype=float)
        return self.Lam(r * x) / self.Lam(x)

    def ratio_inverse(self, x, q):
        x = np.asarray(x, dtype=float)
        q = np.asarray(q, dtype=float)
        return self.Lam.inverse(q * self.Lam(x)) / x

    def _kappa(self, q, x):
        return self.Lam.inverse(q * self.Lam(x))

    def b(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.beta(x) * y / self.Lam(y)
        return np.where(x < y, val, 0.0)

    def transition_density(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.where(x < y, self.beta(x) / self.Lam(y), 0.0)


class CustomKernel(JumpKernel):
    """User-supplied sampling map kappa(q, x); optional transition density p."""

    def __init__(self, kappa, p=None):
        self.kappa = kappa
        self.p = p

    def _kappa(self, q, x):
        return self.kappa(q, x)

    def transition_density(self, x, y):
        if self.p is None:
            raise NoDensity("custom kernel lacks a transition density")
        return self.p(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def b(self, x, y):
        return self.transition_density(x, y) * np.asarray(y, dtype=float)
