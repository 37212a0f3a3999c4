"""Property-based invariants: kernels, semiflows, rates, substochasticity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdmpfrag import (
    PowerLawKernel,
    cumulative_rate,
    flow,
    inverse_cumulative_rate,
    post_flow_position,
)
from pdmpfrag.density import (
    GridDensity,
    LogGrid,
    apply_B,
    apply_S,
    dyson_phillips,
    resolvent_A,
)
from pdmpfrag.monotone import gauss_panels
from conftest import power_model

COMMON = settings(max_examples=1000, deadline=None, derandomize=True)

nus = st.floats(-0.9, 4.0)
parents = st.floats(0.1, 50.0)
quantiles = st.floats(1e-6, 1.0 - 1e-6)
times = st.floats(0.0, 3.0)
states = st.floats(0.1, 10.0)
rates_q = st.floats(1e-4, 5.0)


def _growth(alpha_plus_beta, beta, a=1.0):
    return power_model("growth", alpha=alpha_plus_beta - beta, beta=beta, a=a)


def _decay(minus_ab, beta, a=1.0):
    # alpha + beta = -minus_ab <= 0 keeps the rate divergent toward 0
    return power_model("decay", alpha=-minus_ab - beta, beta=beta, a=a)


@COMMON
@given(nu=nus, y=parents)
def test_kernel_mass_condition(nu, y):
    # int_0^y b(x, y) x dx = y for every admissible parent
    kern = PowerLawKernel(nu)
    edges = np.geomspace(y * 1e-12, y, 1025)
    val = float(np.sum(gauss_panels(lambda x: kern.b(x, y) * x,
                                    edges[:-1], edges[1:])))
    assert abs(val - y) < 1e-8 * y


@COMMON
@given(nu=nus, y=parents, q=quantiles, dq=st.floats(0.0, 0.5))
def test_kernel_sampling_galois(nu, y, q, dq):
    # H_y(kappa(q, y)) = q, and kappa is nondecreasing in q
    kern = PowerLawKernel(nu)
    x = float(kern.sample(q, y))
    assert 0.0 < x <= y
    assert abs(float(kern.fragment_cdf(y, np.array([x]))[0]) - q) < 1e-9
    q2 = min(q + dq, 1.0 - 1e-9)
    assert float(kern.sample(q2, y)) >= x - 1e-12 * y


@COMMON
@given(delta=st.floats(0.0, 2.0),
       beta=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       x=states, t=times, s=times)
def test_semiflow_semigroup_law_growth(delta, beta, x, t, s):
    spec = _growth(delta, beta)
    lhs = flow(spec, t, flow(spec, s, x))
    rhs = flow(spec, t + s, x)
    assert abs(lhs - rhs) < 1e-9 * rhs


@COMMON
@given(minus_ab=st.floats(0.0, 2.0), beta=st.floats(-2.0, -0.1),
       x=states, t=times, s=times)
def test_semiflow_semigroup_law_decay(minus_ab, beta, x, t, s):
    spec = _decay(minus_ab, beta)
    lhs = flow(spec, t, flow(spec, s, x))
    rhs = flow(spec, t + s, x)
    assert abs(lhs - rhs) < 1e-9 * rhs


@COMMON
@given(delta=st.floats(0.1, 2.0), beta=st.floats(0.1, 2.0),
       x=states, q1=rates_q, q2=rates_q)
def test_cumulative_rate_additivity(delta, beta, x, q1, q2):
    # accumulate q1 then q2 from the pre-jump position = accumulate q1+q2
    spec = _growth(delta, beta)
    t1 = inverse_cumulative_rate(spec, x, q1)
    y = post_flow_position(spec, x, q1)
    t2 = inverse_cumulative_rate(spec, y, q2)
    t12 = inverse_cumulative_rate(spec, x, q1 + q2)
    assert abs((t1 + t2) - t12) < 1e-8 * (1.0 + t12)


@COMMON
@given(delta=st.floats(0.1, 2.0), beta=st.floats(0.1, 2.0),
       x=states, q=rates_q)
def test_inverse_rate_galois(delta, beta, x, q):
    # phi_x(phi_x^{<-}(q)) = q (the cumulative rate is strictly increasing)
    spec = _growth(delta, beta)
    t = inverse_cumulative_rate(spec, x, q)
    back = cumulative_rate(spec, x, t)
    assert abs(back - q) < 1e-8 * (1.0 + q)


_grid = LogGrid(1e-4, 1e2, 64)
_specs = {
    "pure_frag": power_model("pure_jump", alpha=-1.0, beta=None),
    "bounded": power_model("pure_jump", alpha=0.0, beta=None),
    "growth": power_model("growth", alpha=0.0, beta=1.0),
    "decay": power_model("decay", alpha=0.0, beta=-1.0),
}


_grid_fine = LogGrid(1e-4, 1e2, 256)


@COMMON
@given(name=st.sampled_from(sorted(_specs)), t=st.floats(0.0, 5.0),
       lam=st.floats(1e-2, 1e2), lo=st.floats(0.05, 5.0),
       width=st.floats(1.1, 4.0))
def test_substochasticity(name, t, lam, lo, width):
    # S(t), B, and lam R(lam, A) never create mass; the resolvent kernel is
    # quadrature-based, so its bound carries the grid's quadrature tolerance
    spec = _specs[name]
    u = GridDensity.uniform_in_m(_grid, lo, lo * width)
    m0 = u.total_mass
    assert apply_S(spec, t, u).total_mass <= m0 + 1e-9
    assert apply_B(spec, u).total_mass <= m0 * float(
        np.max(spec.phi(_grid.nodes))) + 1e-9
    # the kernel concentrates on a 1/lam-neighbourhood, so the cellwise
    # quadrature error (and hence the admissible overshoot) scales with lam
    uf = GridDensity.uniform_in_m(_grid_fine, lo, lo * width)
    r = resolvent_A(spec, lam, uf)
    assert lam * r.total_mass <= uf.total_mass * (1.0 + 1e-6 + 2e-4 * lam)


@COMMON
@given(name=st.sampled_from(sorted(_specs)), t=st.floats(0.0, 3.0),
       lo=st.floats(0.05, 5.0))
def test_dyson_dominates_free_semigroup(name, t, lo):
    # every Dyson term is nonnegative: the sum dominates S(t) cellwise
    spec = _specs[name]
    u = GridDensity.uniform_in_m(_grid, lo, 2.0 * lo)
    free = apply_S(spec, t, u)
    total, _ = dyson_phillips(spec, t, u, N=2, n_s=6)
    assert np.all(total.masses >= free.masses - 1e-12)


@pytest.mark.parametrize("width", [1.1, 4.0])
@pytest.mark.parametrize("lo", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("t", [0.3, 1.0, 3.0, 5.0])
@pytest.mark.parametrize("name", ["bounded", "decay", "growth"])
def test_dyson_substochastic(name, t, lo, width):
    # grid mass plus both buckets never exceeds ||u||: out-of-grid mass is a
    # flux counted once, not re-added at every later term (N = 60 is costly,
    # hence a fixed grid of cases rather than hypothesis)
    u = GridDensity.uniform_in_m(_grid, lo, lo * width)
    res, _ = dyson_phillips(_specs[name], t, u, N=60, n_s=16)
    assert res.total_mass <= u.total_mass * (1.0 + 1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "open spatial-consistency defect: S(t) decays each cell by its "
    "cell-averaged survival while B injects at the nodal phi; for phi = 1/x "
    "on this 64-cell grid that creates 3.5e-4 to 3.8e-4 of mass at any n_s"))
def test_dyson_substochastic_pure_frag():
    u = GridDensity.uniform_in_m(_grid, 5.0, 20.0)
    res, _ = dyson_phillips(_specs["pure_frag"], 1.0, u, N=60, n_s=16)
    assert res.total_mass <= u.total_mass * (1.0 + 1e-9)
