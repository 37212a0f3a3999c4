"""Deterministic part of the PDMP: semiflow, jump rate, and the G/Q machinery.

The semiflow is pi_t x = G^{-1}(G(x) + t) with G the (anti)derivative of
1/g, and the cumulative jump rate along an orbit is
phi_x(t) = Q(pi_t x) - Q(x) with Q the (anti)derivative of phi/g.  The
identities hold in both the growth and the decay regime with the sign
conventions baked into the monotone maps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, DomainExit, InfiniteHolding, NonIntegrableRate
from .monotone import ClosedFormMap, MonotoneMap, TabulatedIntegralMap

DEFAULT_DOMAIN = (1e-9, 1e9)


class Regime(enum.Enum):
    PURE_JUMP = "pure_jump"
    GROWTH = "growth"
    DECAY = "decay"


@dataclass(frozen=True)
class SemiflowSpec:
    """Drift description.  ``g`` is the positive drift magnitude.

    ``power_beta`` declares the closed-form family g(x) = x**(1 - beta)
    (beta >= 0 growth, beta <= 0 decay); ``closed_form`` is an optional
    (G, G_inverse) pair of callables overriding numeric construction.
    """

    regime: Regime
    g: object = None
    power_beta: float | None = None
    closed_form: tuple | None = None

    def g_eval(self, x):
        if self.power_beta is not None and self.g is None:
            return np.asarray(x, dtype=float) ** (1.0 - self.power_beta)
        return self.g(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class RateSpec:
    """Jump rate phi >= 0; ``power`` tags the family phi(x) = a * x**alpha."""

    phi: object = None
    power: tuple | None = None  # (a, alpha)

    def phi_eval(self, x):
        if self.power is not None and self.phi is None:
            a, alpha = self.power
            return a * np.asarray(x, dtype=float) ** alpha
        return self.phi(np.asarray(x, dtype=float))


def _power_map(coeff, p, orientation):
    """Closed-form map for integrand coeff * x**(p-1), anchored per convention."""
    if orientation == "from_below":  # increasing; anchor 0 when p > 0, else 1
        if p > 0:
            c = coeff / p

            def inv_below(q):
                with np.errstate(invalid="ignore"):
                    return np.maximum(np.asarray(q, dtype=float) / c,
                                      0.0) ** (1.0 / p)

            return ClosedFormMap(
                lambda x: c * x ** p, inv_below,
                direction=+1, limit_zero=0.0, limit_inf=np.inf)
        if p == 0:
            return ClosedFormMap(
                lambda x: coeff * np.log(x),
                lambda q: np.exp(q / coeff),
                direction=+1, limit_zero=-np.inf, limit_inf=np.inf)
        raise NonIntegrableRate("growth-regime integrand diverges at infinity")
    else:  # from_above: non-increasing; anchor +inf when p < 0, else 1
        if p < 0:
            c = coeff / (-p)

            def inv(q):
                q = np.asarray(q, dtype=float)
                # generalized inverse: sup{x: V(x) >= q}; 0 once q <= V(inf) = 0
                with np.errstate(divide="ignore"):
                    val = np.where(q > 0.0, np.maximum(q / c, 1e-300) ** (1.0 / p), 0.0)
                return val

            def fwd(x):
                with np.errstate(over="ignore", divide="ignore"):
                    return c * np.asarray(x, dtype=float) ** p

            return ClosedFormMap(
                fwd, inv, direction=-1, limit_zero=np.inf, limit_inf=0.0)
        if p == 0:
            return ClosedFormMap(
                lambda x: -coeff * np.log(x),
                lambda q: np.exp(-q / coeff),
                direction=-1, limit_zero=np.inf, limit_inf=-np.inf)
        raise NonIntegrableRate("decay-regime integrand diverges at 0")


@dataclass
class CharacteristicsSpec:
    """The triple (semiflow pi, rate phi, jump kernel J) plus derived G, Q."""

    semiflow: SemiflowSpec
    rate: RateSpec
    kernel: object = None
    G: MonotoneMap | None = None
    Q: MonotoneMap | None = None
    domain: tuple = DEFAULT_DOMAIN
    divergence: dict = field(default_factory=dict)

    @property
    def regime(self):
        return self.semiflow.regime

    def phi(self, x):
        return self.rate.phi_eval(x)

    def g(self, x):
        return self.semiflow.g_eval(x)


def _divergence_flag(tab_map, regime):
    """asGQ/asGQd heuristic: the defining integral must diverge at the far end."""
    if not isinstance(tab_map, TabulatedIntegralMap):
        return "declared"
    ok = (not tab_map._tail_ok) if regime is Regime.GROWTH else (not tab_map._head_ok)
    return "verified" if ok else "failed"


def build_gq(semiflow: SemiflowSpec, rate: RateSpec, *, domain=DEFAULT_DOMAIN):
    """Construct the monotone maps G (of 1/g) and Q (of phi/g).

    Anchors follow the orbit's direction: the endpoint (0 for growth,
    +inf for decay) when the integral converges there, otherwise 1.
    """
    regime = semiflow.regime
    if regime is Regime.PURE_JUMP:
        raise ValueError("build_gq applies to growth/decay regimes only")
    orientation = "from_below" if regime is Regime.GROWTH else "from_above"

    # sanity: g > 0 at sample points
    xs = np.geomspace(domain[0], domain[1], 64)
    gx = semiflow.g_eval(xs)
    if np.any(~np.isfinite(gx)) or np.any(gx <= 0):
        raise DomainError("g must be positive on the working domain")

    divergence = {}
    if semiflow.closed_form is not None:
        fwd, inv = semiflow.closed_form
        direction = +1 if regime is Regime.GROWTH else -1
        G = ClosedFormMap(fwd, inv, direction=direction)
        divergence["G"] = "declared"
    elif semiflow.power_beta is not None:
        beta = semiflow.power_beta
        G = _power_map(1.0, beta, orientation)
        ok = beta >= 0 if regime is Regime.GROWTH else beta <= 0
        divergence["G"] = "verified" if ok else "failed"
    else:
        G = TabulatedIntegralMap(lambda x: 1.0 / semiflow.g_eval(x),
                                 orientation=orientation, domain=domain)
        divergence["G"] = _divergence_flag(G, regime)

    if rate.power is not None and semiflow.power_beta is not None:
        a, alpha = rate.power
        if a <= 0:
            raise DomainError("power-law rate needs a > 0")
        Q = _power_map(a, alpha + semiflow.power_beta, orientation)
        p = alpha + semiflow.power_beta
        ok = p >= 0 if regime is Regime.GROWTH else p <= 0
        divergence["Q"] = "verified" if ok else "failed"
    else:
        def phi_over_g(x):
            return rate.phi_eval(x) / semiflow.g_eval(x)
        Q = TabulatedIntegralMap(phi_over_g, orientation=orientation,
                                 domain=domain)
        divergence["Q"] = _divergence_flag(Q, regime)

    return G, Q, divergence


def build_characteristics(semiflow, rate, kernel=None, *, domain=DEFAULT_DOMAIN):
    """Assemble a CharacteristicsSpec, tabulating G and Q when needed."""
    if semiflow.regime is Regime.PURE_JUMP:
        xs = np.geomspace(domain[0], domain[1], 64)
        phis = rate.phi_eval(xs)
        if np.any(phis < 0):
            raise DomainError("phi must be nonnegative")
        flag = "verified" if np.all(phis > 0) else "failed"
        return CharacteristicsSpec(semiflow, rate, kernel, None, None,
                                   domain, {"phi_positive": flag})
    G, Q, divergence = build_gq(semiflow, rate, domain=domain)
    return CharacteristicsSpec(semiflow, rate, kernel, G, Q, domain, divergence)


# -- flow and holding-time machinery ---------------------------------------

def flow_vec(spec, t, x):
    """pi_t x, vectorized; returns (positions, absorbed_mask).

    In the decay regime with G(0+) finite the flow may reach 0 before t;
    such entries are returned as 0.0 with the mask set.
    """
    x = np.asarray(x, dtype=float)
    if spec.regime is Regime.PURE_JUMP:
        return np.broadcast_to(x, np.broadcast(x, t).shape).copy(), \
            np.zeros(np.broadcast(x, t).shape, dtype=bool)
    gx = spec.G(x) + t
    absorbed = np.zeros(np.shape(gx), dtype=bool)
    if spec.regime is Regime.DECAY and spec.G.limit_zero is not None \
            and np.isfinite(spec.G.limit_zero):
        absorbed = np.asarray(gx > spec.G.limit_zero)
    y = spec.G.inverse(gx)
    y = np.where(absorbed, 0.0, y)
    return y, absorbed


def flow(spec, t, x):
    """pi_t x for scalar t >= 0, x > 0.  Raises DomainExit on 0-absorption."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if x <= 0:
        raise DomainError("state must be positive")
    if spec.regime is Regime.PURE_JUMP:
        return float(x)
    y, absorbed = flow_vec(spec, t, np.array([x], dtype=float))
    if absorbed[0]:
        hit = float(spec.G.limit_zero - spec.G(np.array([x]))[0])
        raise DomainExit(hit)
    return float(y[0])


def cumulative_rate(spec, x, t):
    """phi_x(t) = int_0^t phi(pi_s x) ds, via the Q identity."""
    if spec.regime is Regime.PURE_JUMP:
        return spec.phi(x) * t
    y, absorbed = flow_vec(spec, t, x)
    qx = spec.Q(np.asarray(x, dtype=float))
    lim = spec.Q.limit_zero if spec.Q.limit_zero is not None else np.inf
    out = np.where(absorbed, lim - qx, spec.Q(np.where(absorbed, 1.0, y)) - qx)
    if np.ndim(x) == 0 and np.ndim(t) == 0:
        return float(out)
    return out


def _holding(spec, x, eps):
    """(dt, x_pre, absorbed) of states ``x`` for rate quantiles ``eps``.

    The one holding-time rule, behind the jump step of ``simulate`` and the
    scalar views below: x_pre = Q^{<-}(Q(x) + eps) directly through Q (never
    by composing the flow with dt) and dt = phi_x^{<-}(eps) = G(x_pre) -
    G(x).  Raises InfiniteHolding for a zero pure-jump rate and for eps
    beyond a bounded cumulative rate, unless the decay orbit reaches 0
    first (G(0+) finite): that path is ``absorbed`` after G(0+) - G(x).
    """
    regime = spec.regime
    if regime is Regime.PURE_JUMP:
        rate = np.asarray(spec.phi(x), dtype=float)
        if np.any(rate <= 0):
            raise InfiniteHolding("zero jump rate in pure-jump regime")
        return eps / rate, x, np.zeros(len(x), dtype=bool)
    lim = spec.Q.limit_inf if regime is Regime.GROWTH else spec.Q.limit_zero
    lim = np.inf if lim is None else lim
    qx = spec.Q(x)
    with np.errstate(invalid="ignore"):
        absorbed = eps > (lim - qx)
    g0 = spec.G.limit_zero
    if np.any(absorbed) and (regime is Regime.GROWTH or g0 is None
                             or not np.isfinite(g0)):
        raise InfiniteHolding(
            "cumulative rate along the orbit is bounded; check asGQ/asGQd")
    x_pre = spec.Q.inverse(qx + np.where(absorbed, 0.0, eps))
    gx = spec.G(x)
    # a state outside float range cannot be advanced: dt = nan freezes it
    dead = ~(x_pre > 0.0) | ~np.isfinite(x_pre)
    x_pre = np.where(dead, x, x_pre)
    with np.errstate(over="ignore", invalid="ignore"):
        dt = spec.G(x_pre) - gx
        # short orbit segment, where the G-difference is lost to rounding:
        # small against G(x), or (near G(x) = 0) lost with x_pre's own digits;
        # eps/phi(geometric midpoint) is the exact limit
        lossy = (dt <= 1e-8 * np.abs(gx)) | (np.abs(x_pre - x) <= 1e-8 * x)
        if np.any(lossy):
            mid = np.sqrt(x * x_pre)
            rate = np.asarray(spec.phi(mid), dtype=float)
            dt = np.where(lossy, eps / rate, dt)
    dt = np.where(dead, np.nan, dt)
    if np.any(absorbed):
        dt = np.where(absorbed, g0 - gx, dt)
    return dt, x_pre, absorbed


def _holding_at(spec, x, q):
    """Scalar (holding time, pre-jump state) for x > 0, q >= 0; q = 0 is
    (0, x) whatever the rate."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    if q == 0:
        return 0.0, float(x)
    dt, x_pre, absorbed = _holding(spec, np.array([x], dtype=float),
                                   np.array([q], dtype=float))
    if absorbed[0]:
        raise InfiniteHolding(
            "quantile exceeds the total cumulative rate along the orbit")
    return float(dt[0]), float(x_pre[0])


def inverse_cumulative_rate(spec, x, q):
    """Holding-time quantile phi_x^{<-}(q) for scalar x > 0, q >= 0."""
    return _holding_at(spec, x, q)[0]


def post_flow_position(spec, x, q):
    """Pre-jump position pi_{phi_x^{<-}(q)} x = Q^{<-}(Q(x) + q), scalar x, q."""
    return _holding_at(spec, x, q)[1]
