"""Semiflow, cumulative rate, and the G/Q machinery."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import pdmpfrag
from pdmpfrag import (
    ClosedFormMap,
    DomainError,
    DomainExit,
    HomogeneousKernel,
    InfiniteHolding,
    NonIntegrableRate,
    PowerLawKernel,
    RateSpec,
    Regime,
    SemiflowSpec,
    SeparableKernel,
    build_characteristics,
    cumulative_rate,
    flow,
    inverse_cumulative_rate,
    post_flow_position,
)
from pdmpfrag.characteristics import _power_map
from conftest import power_model, unit_decay_model


def _tabulated_model(regime, g, phi, kernel=None, domain=(1e-9, 1e9)):
    return build_characteristics(
        SemiflowSpec(regime=regime, g=g), RateSpec(phi=phi),
        kernel or PowerLawKernel(0.0), domain=domain)


def test_build_gq_growth_log():
    # g(x) = x: G(x) = log x up to the anchor; differences are anchor-free
    spec = _tabulated_model(Regime.GROWTH,
                            lambda x: np.asarray(x, float),
                            lambda x: np.ones_like(np.asarray(x, float)))
    g2 = float(spec.G(np.array([2.0]))[0] - spec.G(np.array([1.0]))[0])
    assert abs(g2 - math.log(2.0)) < 1e-10


def test_build_gq_tabulated_q_vs_quad():
    # growth, g = x^{1-beta}, phi = a x^alpha: Q matches independent quadrature
    a, alpha, beta = 2.0, 0.5, 0.5
    spec = _tabulated_model(
        Regime.GROWTH,
        lambda x: np.asarray(x, float) ** (1.0 - beta),
        lambda x: a * np.asarray(x, float) ** alpha)
    for x in (2.0, 4.0):
        got = float(spec.Q(np.array([x]))[0] - spec.Q(np.array([1.0]))[0])
        want, _ = quad(lambda z: a * z ** (alpha + beta - 1.0), 1.0, x)
        assert abs(got - want) < 1e-8


def test_build_gq_decay_closed_q():
    # decay, g = x, phi = a/x: Q(x) = a/x with anchor at +infinity
    a = 3.0
    spec = power_model("decay", alpha=-1.0, beta=0.0, a=a)
    xs = np.array([0.5, 1.0, 4.0])
    assert np.max(np.abs(spec.Q(xs) - a / xs)) < 1e-12
    # the 0-branch of the sup-convention generalized inverse
    assert float(spec.Q.inverse(np.array([0.0]))[0]) == 0.0
    assert float(spec.Q.inverse(np.array([-1.0]))[0]) == 0.0


def test_build_gq_rejects_nonpositive_g():
    with pytest.raises(DomainError):
        build_characteristics(
            SemiflowSpec(regime=Regime.GROWTH,
                         g=lambda x: -np.ones_like(np.asarray(x, float))),
            RateSpec(power=(1.0, 0.0)))


def test_build_gq_rejects_wrong_sign_power():
    # decay with g = x^{1-beta}, beta = 1 means 1/g integrand x^{-0} ... the
    # from-above power map diverges at 0 only for p < 0; p > 0 is rejected
    with pytest.raises(NonIntegrableRate):
        build_characteristics(SemiflowSpec(regime=Regime.DECAY, power_beta=1.0),
                              RateSpec(power=(1.0, -1.0)))


def test_divergence_flags():
    growth_ok = power_model("growth", alpha=0.5, beta=0.5)
    assert growth_ok.divergence == {"G": "verified", "Q": "verified"}
    pj = power_model("pure_jump", alpha=-1.0)
    assert pj.divergence == {"phi_positive": "verified"}
    # unit-speed decay reaches 0: both integrals converge there
    assert unit_decay_model().divergence == {"G": "failed", "Q": "failed"}


def _x(x):
    return np.asarray(x, float)


def _one(x):
    return np.ones_like(_x(x))


# each characteristic from exactly one source: both or neither is refused
TWO_SOURCES = {
    "growth-g-and-beta": lambda: SemiflowSpec(
        regime=Regime.GROWTH, g=lambda x: 2 * x, power_beta=0.0),
    "decay-g-and-beta": lambda: SemiflowSpec(
        regime=Regime.DECAY, g=_one, power_beta=-1.0),
    "growth-neither": lambda: SemiflowSpec(regime=Regime.GROWTH),
    "decay-neither": lambda: SemiflowSpec(regime=Regime.DECAY),
    "pure-jump-g": lambda: SemiflowSpec(regime=Regime.PURE_JUMP, g=_one),
    "pure-jump-beta": lambda: SemiflowSpec(regime=Regime.PURE_JUMP,
                                           power_beta=0.0),
    "rate-phi-and-power": lambda: RateSpec(phi=lambda x: 2 * x,
                                           power=(1.0, 1.0)),
    "rate-neither": lambda: RateSpec(),
}


@pytest.mark.parametrize("name", sorted(TWO_SOURCES))
def test_one_source_per_characteristic(name):
    # unrefused, G and Q came from the power tags while g and phi evaluated
    # the callables: phi(1) = 2 but Q(2) - Q(1) = 1, g(1) = 2 but
    # G(e) - G(1) = 1
    with pytest.raises(ValueError, match="exactly one"):
        TWO_SOURCES[name]()


def test_every_model_map_states_its_limits():
    # G, Q and each kernel's H or Lam state float limits at 0 and inf, so
    # every asGQ/asGQd flag is read off a limit: verified or failed
    specs = [power_model("pure_jump", alpha=-1.0),
             power_model("pure_jump", alpha=0.0),
             power_model("growth", alpha=0.5, beta=0.5),
             power_model("growth", alpha=-1.0, beta=1.0, nu=-1.5),
             power_model("decay", alpha=-1.0, beta=0.0, nu=1.0),
             power_model("decay", alpha=0.0, beta=-1.0),
             unit_decay_model(),
             _tabulated_model(Regime.GROWTH, _x, _one),
             _tabulated_model(Regime.GROWTH, lambda x: _x(x) ** 0.5,
                              lambda x: 2.0 * _x(x) ** 0.5),
             _tabulated_model(Regime.GROWTH, _x, lambda x: np.exp(-_x(x))),
             _tabulated_model(Regime.DECAY, _one, lambda x: 2.0 / _x(x))]
    maps = [HomogeneousKernel(lambda z: 2.0 * _one(z)).H,
            SeparableKernel(_one).Lam]
    for spec in specs:
        assert set(spec.divergence.values()) <= {"verified", "failed"}
        maps.append(spec.kernel.H)
        if spec.G is not None:
            maps += [spec.G, spec.Q]
    for vmap in maps:
        assert isinstance(vmap.limit_zero, float)
        assert isinstance(vmap.limit_inf, float)
    with pytest.raises(TypeError):
        ClosedFormMap(np.log, np.exp)
    assert not hasattr(pdmpfrag, "build_gq")
    assert "build_gq" not in pdmpfrag.__all__


@pytest.mark.parametrize("p", [-1.5, -1.0, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("orientation", ["from_below", "from_above"])
def test_power_map_closed_form(p, orientation):
    # integrand coeff x^(p-1) with d = +1 (from_below) or -1 (from_above):
    # V = d coeff log x for p = 0, V = (coeff/|p|) x^p for d p > 0, and
    # d p < 0 diverges at the anchor's end
    coeff, d = 2.5, (1 if orientation == "from_below" else -1)
    if d * p < 0:
        with pytest.raises(NonIntegrableRate):
            _power_map(coeff, p, orientation)
        return
    vmap = _power_map(coeff, p, orientation)
    xs = np.geomspace(1e-9, 1e9, 73)
    qs = np.concatenate([[-2.0, -1e-300, 0.0, 1e-310],
                         np.geomspace(1e-12, 1e12, 49),
                         -np.geomspace(1e-12, 1e12, 7)])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if p == 0:
            c = d * coeff
            fwd, inv = c * np.log(xs), np.exp(qs / c)
            limits = (-d * np.inf, d * np.inf)
        else:
            c = coeff / abs(p)
            fwd = c * xs ** p
            inv = np.where(qs > 0, np.maximum(qs / c, 1e-300) ** (1.0 / p), 0.0)
            limits = (0.0, np.inf) if d > 0 else (np.inf, 0.0)
            # the generalized inverse is 0 at and below V's value 0 at its anchor
            assert np.all(vmap.inverse(qs[qs <= 0]) == 0.0)
        np.testing.assert_array_equal(vmap(xs), fwd)
        np.testing.assert_array_equal(vmap.inverse(qs), inv)
    assert (vmap.limit_zero, vmap.limit_inf, vmap.direction) == limits + (d,)


def test_flow_examples():
    pj = power_model("pure_jump", alpha=-1.0)
    assert flow(pj, 7.3, 3.0) == 3.0
    growth = power_model("growth", alpha=0.0, beta=0.0)  # g = x
    assert abs(flow(growth, 1.0, 1.0) - math.e) < 1e-9
    # unit-speed decay: g = 1 (tabulated), phi = 1
    dec = _tabulated_model(Regime.DECAY,
                           lambda x: np.ones_like(np.asarray(x, float)),
                           lambda x: np.ones_like(np.asarray(x, float)),
                           domain=(1e-9, 1e3))
    assert abs(flow(dec, 0.5, 2.0) - 1.5) < 1e-8
    with pytest.raises(DomainExit) as exc:
        flow(dec, 3.0, 2.0)
    assert abs(exc.value.hitting_time - 2.0) < 1e-6


@pytest.mark.parametrize("regime,alpha,beta", [
    ("pure_jump", -1.0, None), ("growth", -1.0, 1.0), ("decay", 0.0, -1.0)])
@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_flow_refuses_states_outside_domain(regime, alpha, beta, x):
    # unchecked, x = nan flows to nan (pure jump, growth) or 0.0 (decay),
    # and x = inf to inf or 1.0
    with pytest.raises(DomainError):
        flow(power_model(regime, alpha=alpha, beta=beta), 1.0, x)


def test_flow_semigroup_law_spot():
    growth = power_model("growth", alpha=0.5, beta=0.5)
    x, t, s = 0.7, 0.4, 1.1
    lhs = flow(growth, t + s, x)
    rhs = flow(growth, t, flow(growth, s, x))
    assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))


def test_inverse_cumulative_rate_pure_jump():
    pj = power_model("pure_jump", alpha=-1.0)
    assert abs(inverse_cumulative_rate(pj, 2.0, 3.0) - 6.0) < 1e-12
    assert inverse_cumulative_rate(pj, 2.0, 0.0) == 0.0
    assert cumulative_rate(pj, 2.0, 3.0) == 0.5 * 3.0  # phi(x) t, phi = 1/x


def test_inverse_cumulative_rate_constant_rate_growth():
    spec = power_model("growth", alpha=0.0, beta=0.0, a=4.0)
    assert abs(inverse_cumulative_rate(spec, 1.0, 2.0) - 0.5) < 1e-10
    # state-independence of the constant-rate clock
    assert abs(inverse_cumulative_rate(spec, 7.0, 2.0) - 0.5) < 1e-10


def test_inverse_cumulative_rate_decay_closed_form():
    # unit-drift decay (g = 1, tabulated G), phi = a/x: Q(x) = -a log x, so
    # the holding time is x (1 - e^{-q/a})
    a = 2.0
    spec = _tabulated_model(Regime.DECAY,
                            lambda x: np.ones_like(np.asarray(x, float)),
                            lambda x: a / np.asarray(x, float))
    got = inverse_cumulative_rate(spec, 1.0, 1.0)
    assert abs(got - (1.0 - math.exp(-1.0 / a))) < 1e-8


def test_post_flow_position_examples():
    growth = power_model("growth", alpha=0.5, beta=0.5)
    assert abs(post_flow_position(growth, 1.7, 0.0) - 1.7) < 1e-10
    # constant rate phi = a, g = x^{1-beta}: Q = (a/beta) x^beta, so the
    # pre-jump position is (x^beta + beta q / a)^{1/beta}
    spec = power_model("growth", alpha=0.0, beta=1.0, a=1.0)
    assert abs(post_flow_position(spec, 1.0, 1.0) - 2.0) < 1e-10
    # alpha + beta = 0 family: Q = a log x, position = x e^{q/a}
    spec0 = power_model("growth", alpha=-1.0, beta=1.0, a=1.0)
    assert abs(post_flow_position(spec0, 1.0, 1.0) - math.e) < 1e-9
    # decay g = x, phi = a/x: Q = a/x, position = a x / (a + q x)
    dec = power_model("decay", alpha=-1.0, beta=0.0, a=1.0)
    assert abs(post_flow_position(dec, 1.0, 1.0) - 0.5) < 1e-10


def test_post_flow_position_matches_flow_composition():
    for spec in (power_model("growth", alpha=0.5, beta=0.5, a=2.0),
                 power_model("decay", alpha=-0.5, beta=-0.5, a=1.5)):
        for x, q in ((0.3, 0.7), (2.0, 1.9)):
            t = inverse_cumulative_rate(spec, x, q)
            assert abs(post_flow_position(spec, x, q) - flow(spec, t, x)) \
                < 1e-8 * (1.0 + x)


def test_cumulative_rate_additivity_spot():
    spec = power_model("growth", alpha=1.0, beta=0.5)
    x, t, s = 0.9, 0.3, 0.8
    lhs = cumulative_rate(spec, x, t + s)
    rhs = cumulative_rate(spec, x, t) + cumulative_rate(
        spec, flow(spec, t, x), s)
    assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))


def test_galois_property_spot():
    spec = power_model("growth", alpha=0.5, beta=0.5)
    x = 1.3
    for q in (0.1, 1.0, 4.0):
        t = inverse_cumulative_rate(spec, x, q)
        assert cumulative_rate(spec, x, t) >= q - 1e-9
        assert cumulative_rate(spec, x, t * (1 - 1e-6)) <= q + 1e-9


def test_infinite_holding_for_bounded_q():
    # growth with phi decaying fast: Q(inf) finite, so large quantiles are
    # unreachable along the orbit
    spec = _tabulated_model(Regime.GROWTH, lambda x: np.asarray(x, float),
                            lambda x: np.exp(-np.asarray(x, float)))
    assert spec.divergence["Q"] == "failed"
    with pytest.raises(InfiniteHolding):
        inverse_cumulative_rate(spec, 1.0, 10.0)


def test_consistency_residual():
    # finite-difference checks of G'g = +-1 and Q'g = +-phi
    xs, h = np.array([0.5, 1.0, 3.0]), 1e-6
    for spec, s in ((power_model("growth", alpha=0.5, beta=0.5, a=2.0), 1.0),
                    (power_model("decay", alpha=-1.0, beta=0.0, a=1.0), -1.0)):
        gp = (spec.G(xs * (1 + h)) - spec.G(xs * (1 - h))) / (2 * h * xs)
        qp = (spec.Q(xs * (1 + h)) - spec.Q(xs * (1 - h))) / (2 * h * xs)
        phi = spec.phi(xs)
        assert np.max(np.abs(gp * spec.g(xs) - s)) < 1e-4
        assert np.max(np.abs(qp * spec.g(xs) - s * phi) / (1.0 + phi)) < 1e-4


@pytest.mark.parametrize("tabulated", [False, True],
                         ids=["closed_form", "tabulated"])
def test_holding_time_short_segment(tabulated):
    # g = x, phi = 1: the holding time is exactly q, also where the
    # difference G(x_pre) - G(x) of two numbers near log x loses it, and
    # near G(x) = log x = 0, where x_pre itself is rounded
    rate = (RateSpec(phi=lambda x: np.ones_like(np.asarray(x, float)))
            if tabulated else RateSpec(power=(1.0, 0.0)))
    spec = build_characteristics(
        SemiflowSpec(regime=Regime.GROWTH, power_beta=0.0), rate,
        PowerLawKernel(0.0))
    for x in (1.0, 1.0 + 1e-9, 1e4, 1e8):
        for q in (1e-12, 1e-9):
            assert abs(inverse_cumulative_rate(spec, x, q) - q) <= 1e-12 * q


# (function, x, t or q) calls that must refuse their input
BAD_RATE_CALLS = [
    (cumulative_rate, 1.0, -1.0), (cumulative_rate, 1.0, math.nan),
    (cumulative_rate, np.array([1.0, 2.0]), np.array([0.5, math.nan])),
    (cumulative_rate, -1.0, 1.0), (cumulative_rate, 0.0, 1.0),
    (cumulative_rate, math.inf, 1.0), (cumulative_rate, math.nan, 1.0),
    (cumulative_rate, np.array([1.0, -1.0]), 1.0),
    (inverse_cumulative_rate, 1.0, math.nan),
    (post_flow_position, 1.0, math.nan),
    (inverse_cumulative_rate, -1.0, 0.5), (post_flow_position, -1.0, 0.5),
    (inverse_cumulative_rate, math.inf, 0.5), (post_flow_position, 0.0, 0.5),
]


@pytest.mark.parametrize("regime,alpha,beta", [
    ("pure_jump", -1.0, None), ("decay", 0.0, -1.0), ("growth", -1.0, 1.0)])
@pytest.mark.parametrize("fn,x,v", BAD_RATE_CALLS,
                         ids=[f"{fn.__name__}-{i}"
                              for i, (fn, _, _) in enumerate(BAD_RATE_CALLS)])
def test_rate_views_refuse_invalid_input(regime, alpha, beta, fn, x, v):
    # unchecked: cumulative_rate gave -1.0 at t = -1 (pure jump), inf at
    # t = nan or -1 (decay) or a RuntimeWarning (growth); the holding views
    # gave nan at q = nan, and at x = -1 nan (decay), InfiniteHolding (pure
    # jump) or a RuntimeWarning (growth)
    spec = power_model(regime, alpha=alpha, beta=beta)
    with pytest.raises(ValueError):
        fn(spec, x, v)
