"""Gamma-law oracles: tail, exact mass, series sampler, log-jump drift."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from pdmpfrag import OutOfRegime, estimate_survival_mass
from pdmpfrag.density import GridDensity
from pdmpfrag.oracles import (
    GrowthTauParams,
    TauOracle,
    exact_mass,
    explosion_cdf,
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


# Monte Carlo budget of the non-integer-rho check, fixed before its first run
MC_PATHS, MC_N_MAX, MC_SEED = 40_000, 4_000, 3


@pytest.mark.parametrize("nu", [0.5, -1.5])
def test_exact_mass_non_integer_rho(nu):
    # rho = (nu+2)/gamma = 2.5 and 0.5: the gamma tail holds for every rho,
    # so exact_mass agrees with the jump chain and with an adaptive
    # quadrature of the same tail, (2/3) int_1^2 Q(s, t/x) x dx
    o = TauOracle(nu=nu, gamma=1.0, a=1.0)
    spec = power_model("pure_jump", alpha=-1.0, nu=nu)
    u = GridDensity.uniform_in_m(aligned_grid(), 1.0, 2.0)
    for t in (0.25, 1.0, 4.0):
        got = exact_mass(o, t, u)
        est = estimate_survival_mass(spec, u, t, MC_PATHS, MC_N_MAX,
                                     seed=MC_SEED)
        assert abs(got - est.value) <= 3.0 * est.std_error, (t, got, est)
        if nu == -1.5:
            want, _ = integrate.quad(
                lambda x: special.gammaincc(o.shape, t / x) * x, 1.0, 2.0,
                epsabs=0.0, epsrel=1e-13)
            assert abs(got - 2.0 / 3.0 * want) < 1e-12, t
    with pytest.raises(ValueError):
        exact_mass(TauOracle(), -1.0, u)


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


@pytest.mark.parametrize("beta,a", [(1.0, 1.0), (0.5, 1.0), (1.0, 2.0),
                                    (2.0, 1.0)])
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


@pytest.mark.parametrize("x0", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda x0: sample_tau(TauOracle(), np.random.default_rng(0), x0=x0),
    lambda x0: sample_tau(GrowthTauParams(), np.random.default_rng(0), x0=x0),
    lambda x0: explosion_cdf(TauOracle(), 1.0, x0=x0),
], ids=["sample_tau-power", "sample_tau-growth", "explosion_cdf"])
def test_start_outside_domain_refused(call, x0):
    # unchecked, sample_tau returns -1.104 at x0 = -1, 0.0 at 0, nan and
    # inf, and explosion_cdf a ZeroDivisionError at 0, nan and 0.0 at inf
    with pytest.raises(ValueError):
        call(x0)


def test_mu0_values():
    assert abs(mu0(lambda z: 2.0 * np.ones_like(np.asarray(z, float)))
               + 0.5) < 1e-10
    assert abs(mu0(lambda z: 4.0 * np.asarray(z, float) ** 2) + 0.25) < 1e-10
    assert abs(mu0(lambda z: 0.1 * np.asarray(z, float) ** -1.9) + 10.0) < 1e-6
    assert mu0(lambda z: np.asarray(z, float) ** -2.0) == -math.inf
