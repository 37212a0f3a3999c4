"""Gamma-law oracles: tail, exact mass, series sampler, log-jump drift."""

import math

import numpy as np
import pytest
from scipy import stats

from pdmpfrag import NonConvergent, OutOfRegime
from pdmpfrag.density import GridDensity
from pdmpfrag.oracles import (
    GrowthTauParams,
    TauOracle,
    exact_mass,
    explosion_cdf,
    mass_upper_bound,
    mu0,
    sample_tau,
    tau_tail,
)
from conftest import aligned_grid, power_model

# Exact semigroup mass for phi(x) = 1/x, h = 2, u0 uniform-in-m on [1, 2],
# frozen from two independent quadratures (adaptive and 60-pt Gauss) of
# (2/3) int_1^2 e^{-t/x}(1 + t/x + (t/x)^2/2) x dx agreeing to ~1e-16.
GOLDEN_MASS = {0.25: 0.999245027597141,
               1.0: 0.967808358644305,
               4.0: 0.510815068131894}


def test_tau_tail_values():
    o = TauOracle(nu=0.0, gamma=1.0, a=1.0)  # shape 3
    assert o.shape == 3.0
    assert tau_tail(o, 0.0) == 1.0
    # Gamma(3) tail at 1: e^{-1}(1 + 1 + 1/2) = 2.5/e
    assert abs(tau_tail(o, 1.0) - 2.5 / math.e) < 1e-14
    assert tau_tail(o, 100.0) < 1e-30
    qs = np.linspace(0.0, 10.0, 101)
    assert np.all(np.diff(tau_tail(o, qs)) < 0)


def test_oracle_regime_guards():
    with pytest.raises(OutOfRegime):
        TauOracle(nu=-2.0, gamma=1.0, a=1.0)
    with pytest.raises(OutOfRegime):
        TauOracle(nu=0.0, gamma=-1.0, a=1.0)
    with pytest.raises(OutOfRegime):
        TauOracle(nu=0.0, gamma=1.0, a=0.0)


def test_explosion_cdf_rescaling():
    o1 = TauOracle(nu=0.0, gamma=1.0, a=1.0)
    o2 = TauOracle(nu=0.0, gamma=1.0, a=2.0)
    for t in (0.3, 1.0, 5.0):
        # doubling a is a time rescale t -> 2t
        assert abs(explosion_cdf(o2, t) - explosion_cdf(o1, 2.0 * t)) < 1e-14
        # x0 enters through a x0^{-gamma}
        assert abs(explosion_cdf(o1, t, x0=0.5)
                   - explosion_cdf(o2, t, x0=1.0)) < 1e-14


def test_exact_mass_golden_values():
    o = TauOracle(nu=0.0, gamma=1.0, a=1.0)
    u = GridDensity.uniform_in_m(aligned_grid(), 1.0, 2.0)
    assert exact_mass(o, 0.0, u) == pytest.approx(1.0, abs=1e-12)
    for t, want in GOLDEN_MASS.items():
        assert abs(exact_mass(o, t, u) - want) < 1e-9
    ts = np.linspace(0.0, 40.0, 81)
    ms = np.array([exact_mass(o, t, u) for t in ts])
    assert np.all(np.diff(ms) < 0)
    assert ms[-1] < 1e-4


def test_exact_mass_integer_rho_guard():
    o = TauOracle(nu=0.5, gamma=1.0, a=1.0)  # rho = 2.5
    u = GridDensity.uniform_in_m(aligned_grid(), 1.0, 2.0)
    with pytest.raises(OutOfRegime):
        exact_mass(o, 1.0, u)
    with pytest.raises(ValueError):
        exact_mass(TauOracle(), -1.0, u)


def test_mass_upper_bound_equality_route():
    # for phi exactly a x^{-gamma} the bound is an equality; the two
    # quadratures (truncated exponential sum vs gammaincc) must agree
    o = TauOracle(nu=0.0, gamma=1.0, a=1.0)
    u = GridDensity.uniform_in_m(aligned_grid(), 1.0, 2.0)
    for t in (0.25, 1.0, 4.0):
        assert abs(exact_mass(o, t, u) - mass_upper_bound(o, t, u)) < 1e-10


def test_sample_tau_distribution():
    o = TauOracle(nu=0.0, gamma=1.0, a=1.0)
    rng = np.random.default_rng(17)
    n = 20_000
    taus = np.array([sample_tau(o, rng) for _ in range(n)])
    res = stats.kstest(taus, lambda q: 1.0 - tau_tail(o, q))
    assert res.statistic < 1.63 / math.sqrt(n)
    # E tau = shape = 3, Var = 3
    assert abs(np.mean(taus) - 3.0) <= 3.0 * np.std(taus) / math.sqrt(n)
    # x0 and a enter as the deterministic factor x0^gamma / a
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    t1 = sample_tau(o, rng1, x0=2.0)
    t2 = sample_tau(TauOracle(nu=0.0, gamma=1.0, a=2.0), rng2, x0=1.0)
    assert abs(t1 - 4.0 * t2) < 1e-12 * t1


@pytest.mark.parametrize("beta,a", [(1.0, 1.0), (0.5, 1.0), (1.0, 2.0)])
def test_sample_tau_growth_matches_simulation(beta, a):
    # growth with g = x^{1-beta}, phi = a x^{-beta}, h(z) = 0.5 z^{-1.5}: the
    # series sampler and the jump-chain engine target the same law
    params = GrowthTauParams(nu=-1.5, beta=beta, a=a)
    rng = np.random.default_rng(23)
    n = 4000
    taus = np.array([sample_tau(params, rng) for _ in range(n)])
    assert np.all(np.isfinite(taus))
    spec = power_model("growth", alpha=-beta, beta=beta, a=a, nu=-1.5)
    from pdmpfrag import run_chains
    times, _, status, _ = run_chains(spec, np.full(n, 1.0), seed=31,
                                     n_max=2000)
    assert np.all(status == 1)  # every path stabilizes (explodes)
    res = stats.ks_2samp(taus, times[0])
    assert res.pvalue > 1e-3


def test_sample_tau_growth_divergent_regime():
    # nu = 0 growth: the multiplicative drift is >= 1, the series diverges
    # and the sampler reports +inf (no explosion) on most paths
    params = GrowthTauParams(nu=0.0, beta=1.0, a=1.0)
    rng = np.random.default_rng(3)
    vals = np.array([sample_tau(params, rng, K_max=5000) for _ in range(200)])
    assert np.mean(np.isinf(vals)) > 0.5


def test_sample_tau_type_guard():
    with pytest.raises(TypeError):
        sample_tau("not-params", np.random.default_rng(0))


def test_mu0_values():
    assert abs(mu0(lambda z: 2.0 * np.ones_like(np.asarray(z, float)))
               + 0.5) < 1e-10
    assert abs(mu0(lambda z: 4.0 * np.asarray(z, float) ** 2) + 0.25) < 1e-10
    assert abs(mu0(lambda z: 0.1 * np.asarray(z, float) ** -1.9) + 10.0) < 1e-6
    assert mu0(lambda z: np.asarray(z, float) ** -2.0) == -math.inf
