"""Jump distributions and their sampling maps.

The built-in family is the fragmentation kernel
J(x, B) = (1/x) int_0^x 1_B(y) b(y, x) y dy with daughter-size density b
mass-normalized by int_0^y b(x, y) x dx = y.  Sampling goes through the
per-parent CDF H_x and its generalized inverse: kappa(q, x) = H_x^{<-}(q) x.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .errors import KernelDomain, NoDensity
from .monotone import TabulatedIntegralMap

Q_MIN = 2.0 ** -53  # clamp for uniform variates: measure-zero endpoints


def _clamp_q(q):
    return np.clip(np.asarray(q, dtype=float), Q_MIN, 1.0 - Q_MIN)


class JumpKernel:
    """Base class; subclasses provide the per-parent fragment-fraction CDF."""

    family = "abstract"

    def ratio_cdf(self, x, r):
        """H_x(r): probability that a daughter is below r*x, r in [0,1]."""
        raise NotImplementedError

    def ratio_inverse(self, x, q):
        """H_x^{<-}(q), generalized inverse of the fraction CDF."""
        raise NotImplementedError

    def b(self, x, y):
        """Daughter-size density b(x, y) (zero for x >= y)."""
        raise NotImplementedError

    def sample(self, q, x):
        """kappa(q, x): daughter size for uniform variate q, parent x."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise KernelDomain("parent size must be positive")
        return self.ratio_inverse(x, _clamp_q(q)) * x

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

    family = "homogeneous_power"

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

    def b(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.h(x / y) / y
        return np.where(x < y, val, 0.0)


class HomogeneousKernel(JumpKernel):
    """Homogeneous kernel b(x,y) = h(x/y)/y for a general normalized h."""

    family = "homogeneous"

    def __init__(self, h, n_nodes=4096):
        self.h_fn = h
        self.H = TabulatedIntegralMap(lambda z: h(z) * z, orientation="from_below",
                                      anchor=0.0, domain=(1e-12, 1.0),
                                      n_nodes=n_nodes)

    def normalization_residual(self):
        return abs(float(self.H(np.array([1.0]))[0]) - 1.0)

    def h(self, z):
        return self.h_fn(np.asarray(z, dtype=float))

    def ratio_cdf(self, x, r):
        return self.H(np.asarray(r, dtype=float))

    def ratio_inverse(self, x, q):
        return self.H.inverse(q)

    def b(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.h(np.where(x < y, x / y, 0.5)) / y
        return np.where(x < y, val, 0.0)


class SeparableKernel(JumpKernel):
    """Separable kernel b(x,y) = beta(x) y / Lambda(y), Lambda(y) = int_0^y beta z dz.

    kappa(q, x) = Lambda^{<-}(q Lambda(x)); the map x -> Lambda(x) conjugates
    this family to the homogeneous kernel with uniform fraction CDF H(r) = r.
    """

    family = "separable"

    def __init__(self, beta, domain=(1e-9, 1e9), n_nodes=4096):
        self.beta_fn = beta
        self.Lam = TabulatedIntegralMap(lambda z: beta(z) * z,
                                        orientation="from_below", anchor=0.0,
                                        domain=domain, n_nodes=n_nodes)

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

    def sample(self, q, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise KernelDomain("parent size must be positive")
        return self.Lam.inverse(_clamp_q(q) * self.Lam(x))

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


class GeneralFragmentationKernel(JumpKernel):
    """General mass-normalized b(x, y); H_x tabulated per parent on demand.

    Per-parent CDFs are cached in a bounded thread-safe memo keyed by the
    exact parent value; between cached parents H_x is recomputed rather than
    interpolated.
    """

    family = "general"

    def __init__(self, b, cache_size=256, n_nodes=1024):
        self.b_fn = b
        self.n_nodes = n_nodes
        self._cache = OrderedDict()
        self._cache_size = cache_size
        self._lock = threading.Lock()

    def b(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.where(x < y, self.b_fn(x, y), 0.0)

    def _ratio_map(self, x):
        x = float(x)
        with self._lock:
            if x in self._cache:
                self._cache.move_to_end(x)
                return self._cache[x]
        m = TabulatedIntegralMap(lambda z: self.b_fn(z * x, x) * x * z,
                                 orientation="from_below", anchor=0.0,
                                 domain=(1e-12, 1.0), n_nodes=self.n_nodes)
        with self._lock:
            self._cache[x] = m
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return m

    def ratio_cdf(self, x, r):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        r_arr = np.broadcast_to(np.asarray(r, dtype=float), x_arr.shape) \
            if np.ndim(r) == 0 else np.atleast_1d(np.asarray(r, dtype=float))
        if x_arr.size == 1:
            out = self._ratio_map(x_arr[0])(np.atleast_1d(r_arr))
        else:
            out = np.array([float(self._ratio_map(xi)(np.array([ri]))[0])
                            for xi, ri in np.broadcast(x_arr, r_arr)])
        return out if np.ndim(x) or np.ndim(r) else float(out[0])

    def ratio_inverse(self, x, q):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        q_arr = np.broadcast_to(np.asarray(q, dtype=float), x_arr.shape) \
            if np.ndim(q) == 0 else np.atleast_1d(np.asarray(q, dtype=float))
        if x_arr.size == 1:
            out = self._ratio_map(x_arr[0]).inverse(np.atleast_1d(q_arr))
        else:
            out = np.array([float(self._ratio_map(xi).inverse(np.array([qi]))[0])
                            for xi, qi in np.broadcast(x_arr, q_arr)])
        return out if np.ndim(x) or np.ndim(q) else float(out[0])


class CustomKernel(JumpKernel):
    """User-supplied sampling map kappa(q, x); optional transition density p."""

    family = "custom"

    def __init__(self, kappa, p=None):
        self.kappa = kappa
        self.p = p

    def sample(self, q, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise KernelDomain("parent size must be positive")
        return self.kappa(_clamp_q(q), x)

    def transition_density(self, x, y):
        if self.p is None:
            raise NoDensity("custom kernel lacks a transition density")
        return self.p(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def b(self, x, y):
        if self.p is None:
            raise NoDensity("custom kernel lacks a transition density")
        return self.p(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) \
            * np.asarray(y, dtype=float)
