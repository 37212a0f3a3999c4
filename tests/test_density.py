"""Grid engine: S(t), B, resolvents, Dyson-Phillips, resolvent series."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from pdmpfrag import (
    GridDensity,
    LogGrid,
    PowerLawKernel,
    RateSpec,
    Regime,
    SemiflowSpec,
    apply_B,
    apply_S,
    build_characteristics,
    cumulative_rate,
    dyson_phillips,
    resolvent_A,
    resolvent_series,
)
from pdmpfrag.density import _SOperator
from pdmpfrag.oracles import TauOracle, exact_mass
from conftest import aligned_grid, power_model

DATA = Path(__file__).resolve().parent / "data"


def _zero_rate():
    return RateSpec(phi=lambda x: np.zeros_like(np.asarray(x, float)))


def test_grid_and_density_basics(tmp_path):
    grid = LogGrid(1e-2, 1e2, 64)
    assert grid.n_cells == 64
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    assert abs(u.total_mass - 1.0) < 1e-12
    assert abs(u.grid_mass - 1.0) < 1e-12
    # from_function: smooth density projected by quadrature, mass checked
    # against an independent adaptive quadrature
    u2 = GridDensity.from_function(grid, lambda x: np.exp(-x))
    want, _ = quad(lambda x: x * math.exp(-x), 1e-2, 1e2, epsabs=1e-13,
                   epsrel=1e-13, limit=200)
    assert abs(u2.grid_mass - want) < 1e-9
    # inverse-CDF samples live in the support and are monotone in the variate
    us = np.linspace(0.001, 0.999, 101)
    xs = u.sample_inverse_cdf(us)
    # support is [1, 2] up to the containing cells (cell ratio ~1.155)
    ratio = (1e2 / 1e-2) ** (1.0 / 64)
    assert np.all((xs >= 1.0 / ratio) & (xs <= 2.0 * ratio))
    assert np.all(np.diff(xs) >= 0)
    path = tmp_path / "u.csv"
    u.save_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 1], u.masses)
    empty = GridDensity(grid, np.zeros(grid.n_cells))
    assert empty.grid_mass == 0.0


def test_apply_S_identity_and_diag(pure_frag):
    grid = LogGrid(1e-3, 1e3, 512)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    u0 = apply_S(pure_frag, 0.0, u)
    np.testing.assert_array_equal(u0.masses, u.masses)
    # pure fragmentation: pointwise factor e^{-t/x}; cell averages agree with
    # the node value to the cell resolution
    ut = apply_S(pure_frag, 1.0, u)
    sel = u.masses > 0
    factors = ut.masses[sel] / u.masses[sel]
    want = np.exp(-1.0 / grid.nodes[sel])
    assert np.max(np.abs(factors - want)) < 1e-4
    assert ut.total_mass <= u.total_mass


def test_apply_S_mass_vs_quadrature(pure_frag):
    # mass after S(1) on the uniform [1,2] density: int (2/3) e^{-1/x} x dx,
    # independent adaptive quadrature, to 1e-8 (cells aligned with [1,2])
    grid = aligned_grid()
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    ut = apply_S(pure_frag, 1.0, u)
    want, _ = quad(lambda x: (2.0 / 3.0) * math.exp(-1.0 / x) * x, 1.0, 2.0,
                   epsabs=1e-13, epsrel=1e-13)
    assert abs(ut.grid_mass - want) < 1e-8


def test_apply_S_growth_pushforward():
    # g = x, phi = 0: S(t) is the mass-preserving pushforward along x e^t
    spec = build_characteristics(
        SemiflowSpec(regime=Regime.GROWTH, power_beta=0.0), _zero_rate(),
        PowerLawKernel(0.0))
    grid = LogGrid(0.25, 32.0, 1024)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    t = 0.3
    ut = apply_S(spec, t, u)
    assert abs(ut.total_mass - u.total_mass) < 1e-10
    # exact pushforward cell masses: mass of [a,b] = u0-mass of [a e^-t, b e^-t]
    c = 2.0 / 3.0
    a = np.clip(grid.edges[:-1] * math.exp(-t), 1.0, 2.0)
    b = np.clip(grid.edges[1:] * math.exp(-t), 1.0, 2.0)
    want = c * 0.5 * (b ** 2 - a ** 2)
    assert np.sum(np.abs(ut.masses - want)) < 2e-2 * u.total_mass
    # the support moved: center of mass scales by ~e^t
    com = np.sum(grid.nodes * ut.masses) / np.sum(grid.nodes * u.masses)
    assert abs(com - math.exp(t)) < 0.01


def test_apply_B_single_cell(pure_frag):
    # u concentrated in one cell at x*: B u is uniform in m on (0, x*) with
    # total mass phi(x*) * (cell mass), for h = 2
    grid = LogGrid(1e-4, 1e2, 256)
    j = int(np.searchsorted(grid.nodes, 5.0))
    u = GridDensity(grid, np.zeros(grid.n_cells))
    u.masses[j] = 1.0
    xstar = grid.nodes[j]
    out = apply_B(pure_frag, u)
    total = out.grid_mass + out.sub_grid_mass
    want_total = float(pure_frag.phi(xstar)) * 1.0
    assert abs(total - want_total) < 1e-12
    # uniform in m below x*: masses proportional to cell m-measure
    below = grid.edges[1:] <= xstar
    dens = out.masses[below] / grid.m_weights[below]
    assert np.max(np.abs(dens - dens[0])) < 1e-12 * dens[0]
    assert np.all(out.masses[grid.edges[:-1] >= xstar] == 0.0)


def test_apply_B_zero_rate_and_norm(pure_frag):
    grid = LogGrid(1e-4, 1e2, 256)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    spec0 = build_characteristics(
        SemiflowSpec(regime=Regime.PURE_JUMP), _zero_rate(),
        PowerLawKernel(0.0))
    out0 = apply_B(spec0, u)
    assert out0.grid_mass == 0.0 and out0.sub_grid_mass == 0.0
    # ||B u|| = int phi u dm exactly (P is stochastic; accounting is exact)
    out = apply_B(pure_frag, u)
    phi = np.asarray(pure_frag.phi(grid.nodes), dtype=float)
    want = float(phi @ u.masses)
    assert abs((out.grid_mass + out.sub_grid_mass) - want) < 1e-12 * want


def test_resolvent_A_pure_jump_diagonal(pure_frag):
    grid = LogGrid(1e-4, 1e2, 256)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    r = resolvent_A(pure_frag, 1.0, u)
    want = u.masses * grid.nodes / (grid.nodes + 1.0)
    np.testing.assert_allclose(r.masses, want, rtol=1e-14)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_resolvent_identity_r_sub(pure_frag, lam):
    # lam ||R u|| + ||B R u|| = ||u||, exact on-grid by construction
    grid = LogGrid(1e-12, 1e2, 512)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    r = resolvent_A(pure_frag, lam, u)
    br = apply_B(pure_frag, r)
    lhs = lam * r.total_mass + br.total_mass
    assert abs(lhs - u.total_mass) < 1e-12 * u.total_mass


def test_resolvent_A_growth_vs_laplace_quadrature():
    # g = x, phi = a: R(lam, A) is the Laplace transform of S(t); compare to
    # a time quadrature of apply_S on a fine t-grid, and the mass identity
    spec = power_model("growth", alpha=0.0, beta=0.0, a=1.0)
    grid = LogGrid(1e-3, 1e5, 512)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    lam = 1.0
    r = resolvent_A(spec, lam, u)
    # tolerance set by the x_max truncation of the x^{-4} resolvent tail
    assert abs(lam * r.grid_mass - lam / (lam + 1.0)) < 1e-9
    ts = np.linspace(0.0, 40.0, 801)
    acc = np.zeros(grid.n_cells)
    for t in ts:
        w = math.exp(-lam * t) * (0.5 if t in (ts[0], ts[-1]) else 1.0)
        acc += w * apply_S(spec, t, u).masses
    acc *= ts[1] - ts[0]
    # trapezoid in t and cell-transport smearing: a few-percent match
    sel = r.masses > 1e-4 * np.max(r.masses)
    rel = np.abs(acc[sel] - r.masses[sel]) / np.max(r.masses)
    assert np.max(rel) < 0.05
    assert abs(np.sum(acc) - r.grid_mass) < 0.01 * r.grid_mass


def test_resolvent_A_growth_pointwise_closed_form():
    # g = x, phi = a, u uniform-in-m on [1,2]: for x inside smooth regions
    # R(lam,A)u(x) = (2/3) x^{-(lam+a)-2} (min(x,2)^{lam+a+2} - 1)/(lam+a+2)
    # for x >= 1 (and 0 below 1)
    spec = power_model("growth", alpha=0.0, beta=0.0, a=1.0)
    grid = LogGrid(1e-3, 1e4, 2048)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    lam, a = 1.0, 1.0
    r = resolvent_A(spec, lam, u)
    vals = r.values()
    p = lam + a + 2.0

    def closed(x):
        if x <= 1.0:
            return 0.0
        return (2.0 / 3.0) * x ** (-p) * (min(x, 2.0) ** p - 1.0) / p

    for x in (1.5, 3.0, 10.0, 50.0):
        j = int(np.searchsorted(grid.nodes, x))
        want = closed(grid.nodes[j])
        assert abs(vals[j] - want) < 5e-3 * closed(2.0)


def test_dyson_phillips_n0_and_bounded_honesty(pure_frag, bounded_pure_jump):
    grid = LogGrid(1e-6, 1e2, 256)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    res0, tr0 = dyson_phillips(pure_frag, 0.7, u, N=0)
    np.testing.assert_array_equal(res0.masses, apply_S(pure_frag, 0.7, u).masses)
    res, tr = dyson_phillips(bounded_pure_jump, 1.0, u, N=30, n_s=64)
    assert tr.converged
    assert res.total_mass >= 0.999 * u.total_mass
    assert res.total_mass <= u.total_mass + 1e-10


def test_dyson_phillips_vs_exact_mass(pure_frag):
    grid = aligned_grid()
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    oracle = TauOracle(nu=0.0, gamma=1.0, a=1.0)
    res, tr = dyson_phillips(pure_frag, 1.0, u, N=60, n_s=64)
    assert tr.converged
    want = exact_mass(oracle, 1.0, u)
    assert abs(res.total_mass - want) < 0.01 * want
    # the truncated sum approaches from below as N grows
    res_small, _ = dyson_phillips(pure_frag, 1.0, u, N=2, n_s=64)
    assert res_small.total_mass <= res.total_mass + 1e-12


def test_dyson_phillips_budget_flag(pure_frag):
    grid = LogGrid(1e-6, 1e2, 128)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    res, tr = dyson_phillips(pure_frag, 1.0, u, N=1, n_s=16)
    assert not tr.converged and "N=1" in tr.note
    assert res.total_mass > 0  # result still returned


def test_dyson_dominates_S(pure_frag):
    grid = LogGrid(1e-6, 1e2, 128)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    res, _ = dyson_phillips(pure_frag, 1.0, u, N=40, n_s=32)
    s = apply_S(pure_frag, 1.0, u)
    assert np.all(res.masses >= s.masses - 1e-15)


def test_df_one_step_consistency(pure_frag):
    # P(t)u ~ S(t)u + int_0^t P(t-s) B S(s) u ds with P the computed sum
    grid = LogGrid(1e-6, 1e2, 96)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    t, n_s = 0.8, 16
    pu, _ = dyson_phillips(pure_frag, t, u, N=40, n_s=32)
    h = t / n_s
    acc = apply_S(pure_frag, t, u).masses.copy()
    for j in range(n_s):
        s = (j + 0.5) * h
        bs = apply_B(pure_frag, apply_S(pure_frag, s, u))
        conv, _ = dyson_phillips(pure_frag, t - s, bs, N=40, n_s=16)
        acc += h * conv.masses
    rel = np.sum(np.abs(acc - pu.masses)) / pu.grid_mass
    assert rel < 0.02


def test_series_semigroup_consistency(pure_frag):
    # lam * time-Laplace transform of the Dyson sum matches lam R(lam, C) u
    grid = LogGrid(1e-6, 1e2, 96)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    lam = 1.0
    rc, tr = resolvent_series(pure_frag, lam, u, N=80)
    xg, wg = np.polynomial.legendre.leggauss(16)
    T = 24.0
    ts = 0.5 * T * (xg + 1.0)
    acc = np.zeros(grid.n_cells)
    for t, w in zip(ts, wg):
        res, _ = dyson_phillips(pure_frag, float(t), u, N=50,
                                n_s=max(16, int(8 * t)))
        acc += 0.5 * T * w * math.exp(-lam * t) * res.masses
    assert abs(np.sum(acc) - rc.grid_mass) < 0.02 * rc.grid_mass
    sel = rc.masses > 1e-3 * np.max(rc.masses)
    rel = np.abs(acc[sel] - rc.masses[sel]) / np.max(rc.masses)
    assert np.max(rel) < 0.05


def test_resolvent_series_identity_and_flags(pure_frag, bounded_pure_jump):
    grid = LogGrid(1e-12, 1e2, 512)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    r0, _ = resolvent_series(pure_frag, 1.0, u, N=0)
    np.testing.assert_allclose(r0.masses,
                               resolvent_A(pure_frag, 1.0, u).masses)
    rc, tr = resolvent_series(pure_frag, 1.0, u, N=60)
    assert max(tr.residuals) < 1e-8 * u.total_mass
    assert tr.converged
    # bounded phi: geometric decay of ||(BR)^n u|| at rate <= a/(lam+a) = 0.5
    # (late terms drift above 0.5: the absorbing sub-grid bucket stops
    # damping mass that the cascade has pushed below x_min)
    _, trb = resolvent_series(bounded_pure_jump, 1.0, u, N=40)
    norms = np.asarray(trb.term_norms)
    ratios = norms[1:] / norms[:-1]
    assert np.all(ratios[:15] <= 0.5 + 1e-9)
    assert np.all(ratios <= 0.65)
    # too-small budget: flagged unconverged, result still returned
    _, trs = resolvent_series(pure_frag, 1.0, u, N=3)
    assert not trs.converged


def test_dyson_honest_conservation(bounded_pure_jump):
    # phi = 1 is honest: grid mass plus sub-grid bucket stays ||u|| = 1 up to
    # the time-quadrature error, which doubling n_s exposes
    grid = LogGrid(1e-1, 1e2, 192)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    tot = {n_s: dyson_phillips(bounded_pure_jump, 4.0, u, N=60,
                               n_s=n_s)[0].total_mass for n_s in (32, 64)}
    assert abs(tot[64] - 1.0) <= abs(tot[64] - tot[32])


@pytest.mark.parametrize("name,spec", [
    ("pure_frag", power_model("pure_jump", alpha=-1.0)),
    ("growth", power_model("growth", alpha=0.0, beta=0.0)),
    ("decay", power_model("decay", alpha=0.0, beta=-1.0)),
])
def test_dyson_golden_grid_masses(name, spec):
    # grid masses of the element-by-element convolution this engine replaced
    # (commit 8c82c92); N = 3 stops both on the budget, not on the tail rule
    want = json.loads((DATA / "dyson_golden.json").read_text())[name]
    u = GridDensity.uniform_in_m(LogGrid(1e-4, 1e2, 64), 1.0, 2.0)
    res, tr = dyson_phillips(spec, 1.0, u, N=3, n_s=16)
    assert not tr.converged
    np.testing.assert_allclose(res.masses, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("t", [0.1, 2.0])
@pytest.mark.parametrize("spec", [
    power_model("growth", alpha=0.0, beta=0.0),
    power_model("decay", alpha=0.0, beta=-1.0),
])
def test_transport_S_columns_carry_survival(spec, t):
    # each source cell's mass goes on-grid or to a bucket, scaled by survival
    grid = LogGrid(1e-4, 1e2, 64)
    op = _SOperator(spec, grid, t)
    cols = np.asarray(op.mat.sum(axis=0)).ravel() + op.sub_row + op.sup_row
    want = np.exp(-np.asarray(cumulative_rate(spec, grid.nodes, t)))
    np.testing.assert_allclose(cols, want, rtol=0.0, atol=1e-14)


def test_transport_S_degenerate_cells(monkeypatch):
    # a zero-width or unbounded destination interval deposits the whole
    # surviving cell mass at its midpoint's destination cell, or in a bucket
    import pdmpfrag.density as density
    monkeypatch.setattr(density, "cumulative_rate",
                        lambda spec, x, t: np.full(np.shape(x), 0.25))

    class StepG:  # G on the 7 grid edges: a flat piece and infinite ends
        direction = 1

        def __call__(self, x):
            return np.array([-np.inf, 0.0, 1.0, 1.0, 2.0, 3.0, np.inf])

    spec = SimpleNamespace(regime=Regime.GROWTH, G=StepG())
    op = _SOperator(spec, LogGrid(1.0, 64.0, 6), 0.5)
    surv = math.exp(-0.25)
    mat = op.mat.toarray()
    np.testing.assert_allclose(mat.sum(axis=0) + op.sub_row + op.sup_row,
                               surv, rtol=0.0, atol=1e-15)
    assert mat[1, 0] == surv  # (-inf, 0.5]: deposited at 0.5
    assert mat[3, 2] == surv  # [1.5, 1.5]: deposited at 1.5
    assert op.sup_row[5] == surv  # [3.5, inf): above the grid
