"""Jump kernels as three maps.

J(x, .), the law of the daughter of a parent of size x, is a probability on
(0, x): J(x, B) = (1/x) int_0^x 1_B(y) b(y, x) y dy, with the daughter-size
density b mass-normalized by int_0^y b(x, y) x dx = y.  The simulation
draws from it through kappa(q, x) (``sample``), B = P(phi .) reads its CDF
(``fragment_cdf``), and the embedded chain and the mass condition read b.
Each kernel gives ``_kappa``, ``fragment_cdf`` and ``b``.
"""

from __future__ import annotations

import numpy as np

from .errors import KernelDomain, NoDensity
from .monotone import ClosedFormMap, TabulatedIntegralMap

Q_MIN = 2.0 ** -53  # clamp for uniform variates: measure-zero endpoints


def _clamp_q(q):
    return np.minimum(np.maximum(np.asarray(q, dtype=float), Q_MIN), 1.0 - Q_MIN)


class JumpKernel:
    """Base class: the guarded sampling map and p = b / y over a
    subclass's ``_kappa`` and ``b``."""

    def sample(self, q, x):
        """kappa(q, x): daughter size for uniform variate q, parent x."""
        x = np.asarray(x, dtype=float)
        if (x <= 0).any():
            raise KernelDomain("parent size must be positive")
        return self._kappa(_clamp_q(q), x)

    def transition_density(self, x, y):
        """Kernel p(x,y) = b(x,y)/y of the transition operator w.r.t. m(dx)=x dx."""
        y = np.asarray(y, dtype=float)
        return self.b(x, y) / y

    def fragment_cdf(self, x, r):
        """J(x, (0, r]) for absolute daughter size r."""
        raise NoDensity(f"{type(self).__name__} gives no fragment CDF")


class HomogeneousKernel(JumpKernel):
    """Homogeneous kernel b(x,y) = h(x/y)/y for a general normalized h.

    The three maps come from the fraction density h and the monotone map
    ``H`` of its CDF H(r) = int_0^r h(z) z dz: kappa(q, x) = H^{<-}(q) x
    and J(x, (0, r]) = H(r / x).
    """

    def __init__(self, h):
        self.h_fn = h
        self.H = TabulatedIntegralMap(lambda z: h(z) * z, orientation="from_below",
                                      anchor=0.0, domain=(1e-12, 1.0))

    def h(self, z):
        return self.h_fn(np.asarray(z, dtype=float))

    def _kappa(self, q, x):
        return self.H.inverse(q) * x

    def fragment_cdf(self, x, r):
        x = np.asarray(x, dtype=float)
        r = np.asarray(r, dtype=float)
        return self.H(np.clip(r / x, 0.0, 1.0))

    def b(self, x, y):
        """Daughter-size density b(x, y) = h(x/y)/y (zero for x >= y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.h(np.where(x < y, x / y, 0.5)) / y
        return np.where(x < y, val, 0.0)


class PowerLawKernel(HomogeneousKernel):
    """Homogeneous kernel with h(z) = (nu + 2) z**nu, nu > -2: H(r) = r**(nu+2)
    and its inverse in closed form, no table."""

    def __init__(self, nu=0.0):
        if not -2 < nu < np.inf:  # NaN too
            raise ValueError(f"need finite nu > -2 (got nu = {nu})")
        self.nu = float(nu)
        p = self.nu + 2.0
        self.H = ClosedFormMap(lambda r: r ** p, lambda q: q ** (1.0 / p),
                               direction=+1, limit_zero=0.0, limit_inf=np.inf)

    def h(self, z):
        return (self.nu + 2.0) * np.asarray(z, dtype=float) ** self.nu


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

    def _kappa(self, q, x):
        return self.Lam.inverse(q * self.Lam(x))

    def fragment_cdf(self, x, r):
        x = np.asarray(x, dtype=float)
        r = np.asarray(r, dtype=float)
        return self.Lam(np.clip(r / x, 0.0, 1.0) * x) / self.Lam(x)

    def b(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.beta(x) * y / self.Lam(y)
        return np.where(x < y, val, 0.0)


class CustomKernel(JumpKernel):
    """User-supplied sampling map kappa(q, x); optional transition density p.

    It has no fragment CDF, so B and the embedded chain raise NoDensity."""

    def __init__(self, kappa, p=None):
        self.kappa = kappa
        self.p = p

    def _kappa(self, q, x):
        return self.kappa(q, x)

    def b(self, x, y):
        if self.p is None:
            raise NoDensity("custom kernel lacks a transition density")
        y = np.asarray(y, dtype=float)
        return self.p(np.asarray(x, dtype=float), y) * y
