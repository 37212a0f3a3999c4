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
    """Drift: the positive magnitude ``g`` or ``power_beta`` for the family
    g(x) = x**(1 - beta) (beta >= 0 growth, beta <= 0 decay), exactly one of
    them, the one G comes from; pure jump takes neither."""

    regime: Regime
    g: object = None
    power_beta: float | None = None

    def __post_init__(self):
        given = (self.g is not None) + (self.power_beta is not None)
        if given != (self.regime is not Regime.PURE_JUMP):
            raise ValueError("growth and decay take exactly one of g and "
                             "power_beta, pure jump neither")
        if self.power_beta is not None and not np.isfinite(self.power_beta):
            raise ValueError(f"power_beta must be finite: {self.power_beta}")

    def g_eval(self, x):
        if self.g is None:
            return np.asarray(x, dtype=float) ** (1.0 - self.power_beta)
        return self.g(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class RateSpec:
    """Jump rate phi >= 0: a callable ``phi``, or ``power`` for the family
    phi(x) = a * x**alpha; exactly one, the one Q comes from."""

    phi: object = None
    power: tuple | None = None  # (a, alpha)

    def __post_init__(self):
        if (self.phi is None) == (self.power is None):
            raise ValueError("a rate takes exactly one of phi and power")
        if self.power is not None and not np.all(np.isfinite(self.power)):
            raise ValueError(f"power (a, alpha) must be finite: {self.power}")

    def phi_eval(self, x):
        if self.phi is None:
            a, alpha = self.power
            return a * np.asarray(x, dtype=float) ** alpha
        return self.phi(np.asarray(x, dtype=float))


def _power_map(coeff, p, orientation):
    """Closed-form map for integrand coeff * x**(p-1), anchored per convention.

    With d = +1 (from_below) or -1 (from_above): V = d coeff log x for p = 0,
    V = (coeff/|p|) x**p for d p > 0 (generalized inverse 0 once q <= 0,
    NaN at q = NaN).
    """
    d = +1 if orientation == "from_below" else -1
    if p == 0:
        c = d * coeff
        return ClosedFormMap(lambda x: c * np.log(x), lambda q: np.exp(q / c),
                             direction=d, limit_zero=-d * np.inf,
                             limit_inf=d * np.inf)
    if d * p < 0:
        raise NonIntegrableRate(f"{orientation} integrand x**{p - 1:g} "
                                f"diverges at {'infinity' if d > 0 else '0'}")
    c = coeff / abs(p)

    def fwd(x):
        with np.errstate(over="ignore", divide="ignore"):
            return c * x ** p

    def inv(q):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return np.where(q <= 0.0, 0.0, np.maximum(q / c, 1e-300) ** (1.0 / p))

    return ClosedFormMap(fwd, inv, direction=d,
                         limit_zero=np.inf if d < 0 else 0.0,
                         limit_inf=np.inf if d > 0 else 0.0)


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


def _divergence_flag(vmap, regime):
    """asGQ/asGQd: the map's integral must diverge where the orbit heads
    (+inf for growth, 0 for decay)."""
    far = vmap.limit_inf if regime is Regime.GROWTH else vmap.limit_zero
    return "failed" if np.isfinite(far) else "verified"


def build_characteristics(semiflow, rate, kernel=None, *, domain=DEFAULT_DOMAIN):
    """Assemble a CharacteristicsSpec with the maps G (of 1/g) and Q (of phi/g).

    The power map where the model gives power families, tabulations
    otherwise.  Anchors follow the orbit's direction: the endpoint (0 for
    growth, +inf for decay) when the integral converges there, otherwise 1.
    """
    regime = semiflow.regime
    xs = np.geomspace(domain[0], domain[1], 64)
    phis = rate.phi_eval(xs)
    if not np.all(phis >= 0):  # NaN too
        raise DomainError("phi must be nonnegative")
    if regime is Regime.PURE_JUMP:
        flag = "verified" if np.all(phis > 0) else "failed"
        return CharacteristicsSpec(semiflow, rate, kernel, None, None,
                                   domain, {"phi_positive": flag})
    orientation = "from_below" if regime is Regime.GROWTH else "from_above"
    gx = semiflow.g_eval(xs)
    if np.any(~np.isfinite(gx)) or np.any(gx <= 0):
        raise DomainError("g must be positive on the working domain")

    beta = semiflow.power_beta
    if beta is not None:
        G = _power_map(1.0, beta, orientation)
    else:
        G = TabulatedIntegralMap(lambda x: 1.0 / semiflow.g_eval(x),
                                 orientation=orientation, domain=domain)

    if rate.power is not None and beta is not None:
        a, alpha = rate.power
        if a <= 0:
            raise DomainError("power-law rate needs a > 0")
        Q = _power_map(a, alpha + beta, orientation)
    else:
        Q = TabulatedIntegralMap(
            lambda x: rate.phi_eval(x) / semiflow.g_eval(x),
            orientation=orientation, domain=domain)

    return CharacteristicsSpec(semiflow, rate, kernel, G, Q, domain,
                               {"G": _divergence_flag(G, regime),
                                "Q": _divergence_flag(Q, regime)})


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
    # a growth orbit never reaches 0, nor does a decay one with G(0+) = inf
    g0 = spec.G.limit_zero if spec.regime is Regime.DECAY else np.inf
    absorbed = np.asarray(gx > g0)
    return np.where(absorbed, 0.0, spec.G.inverse(gx)), absorbed


def flow(spec, t, x):
    """pi_t x for scalar t >= 0, x in (0, inf); DomainExit on 0-absorption."""
    if not t >= 0:  # NaN too
        raise ValueError("t must be nonnegative")
    if not 0 < x < np.inf:  # NaN too
        raise DomainError("state must lie in (0, inf)")
    y, absorbed = flow_vec(spec, t, np.array([x], dtype=float))
    if absorbed[0]:  # at the hit time G(0+) - G(x)
        raise DomainExit(float(spec.G.limit_zero - spec.G(np.array([x]))[0]))
    return float(y[0])


def _check_states(x):
    """Refuse states outside (0, inf), NaN included."""
    if not np.all((np.asarray(x) > 0) & (np.asarray(x) < np.inf)):
        raise ValueError("states must lie in (0, inf)")


def _count(n, name):
    """A count as an int: an integral float such as 400.0 is 400, and
    anything else is a ValueError naming the parameter."""
    if not float(n).is_integer():  # NaN and inf too
        raise ValueError(f"{name} must be an integer, got {n!r}")
    return int(n)


def cumulative_rate(spec, x, t):
    """phi_x(t) = int_0^t phi(pi_s x) ds, via the Q identity, for states x in
    (0, inf) and times t >= 0."""
    _check_states(x)
    if not np.all(np.asarray(t) >= 0):  # NaN too
        raise ValueError("t must be nonnegative")
    if spec.regime is Regime.PURE_JUMP:
        return spec.phi(x) * t
    y, absorbed = flow_vec(spec, t, x)
    qx = spec.Q(np.asarray(x, dtype=float))
    out = np.where(absorbed, spec.Q.limit_zero - qx,
                   spec.Q(np.where(absorbed, 1.0, y)) - qx)
    return float(out) if np.ndim(x) == 0 and np.ndim(t) == 0 else out


def _holding(spec, x, eps):
    """(dt, x_pre, absorbed) of states ``x`` for rate quantiles ``eps``.

    The one holding-time rule, behind the jump step of ``simulate`` and the
    scalar views below: x_pre = Q^{<-}(Q(x) + eps) directly through Q (never
    by composing the flow with dt) and dt = phi_x^{<-}(eps) = G(x_pre) - G(x).
    Raises InfiniteHolding for a zero pure-jump rate and for eps beyond a
    bounded cumulative rate, unless the decay orbit reaches 0 first (G(0+)
    finite): that path is ``absorbed`` after G(0+) - G(x).  Absorption is
    tested only if Q's far limit is finite; the absorbed and dead fix-ups
    run only when some path needs them.
    """
    regime = spec.regime
    if regime is Regime.PURE_JUMP:
        rate = np.asarray(spec.phi(x), dtype=float)
        if (rate <= 0).any():
            raise InfiniteHolding("zero jump rate in pure-jump regime")
        return eps / rate, x, np.zeros(len(x), dtype=bool)
    lim = spec.Q.limit_inf if regime is Regime.GROWTH else spec.Q.limit_zero
    qx = spec.Q(x)
    if lim < np.inf:
        absorbed = eps > (lim - qx)
        any_absorbed = absorbed.any()
    else:
        absorbed, any_absorbed = np.zeros(len(x), bool), False
    g0 = spec.G.limit_zero
    if any_absorbed and (regime is Regime.GROWTH or not np.isfinite(g0)):
        raise InfiniteHolding(
            "cumulative rate along the orbit is bounded; check asGQ/asGQd")
    x_pre = spec.Q.inverse(
        qx + np.where(absorbed, 0.0, eps) if any_absorbed else qx + eps)
    gx = spec.G(x)
    # a state outside float range cannot be advanced: dt = nan freezes it
    live = (x_pre > 0.0) & (x_pre < np.inf)
    all_live = live.all()
    if not all_live:
        x_pre = np.where(live, x_pre, x)
    with np.errstate(over="ignore", invalid="ignore"):
        dt = spec.G(x_pre) - gx
        # short orbit segment, where the G-difference is lost to rounding:
        # small against G(x), or (near G(x) = 0) lost with x_pre's own digits;
        # eps/phi(geometric midpoint) is the exact limit
        lossy = (dt <= 1e-8 * np.abs(gx)) | (np.abs(x_pre - x) <= 1e-8 * x)
        if lossy.any():
            mid = np.sqrt(x * x_pre)
            rate = np.asarray(spec.phi(mid), dtype=float)
            dt = np.where(lossy, eps / rate, dt)
    if not all_live:
        dt = np.where(live, dt, np.nan)
    if any_absorbed:
        dt = np.where(absorbed, g0 - gx, dt)
    return dt, x_pre, absorbed


def _holding_at(spec, x, q):
    """Scalar (holding time, pre-jump state) for x in (0, inf), q >= 0; q = 0
    is (0, x) whatever the rate."""
    _check_states(x)
    if not q >= 0:  # NaN too
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
