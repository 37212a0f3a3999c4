"""Grid engine: S(t), B, resolvents, Dyson-Phillips, resolvent series."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csc_matrix

from pdmpfrag import (
    GridDensity,
    HomogeneousKernel,
    LogGrid,
    NoDensity,
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
from pdmpfrag.density import _BOperator, _SOperator
from pdmpfrag.oracles import TauOracle, exact_mass
from conftest import aligned_grid, power_model, unit_decay_model

DATA = Path(__file__).resolve().parent / "data"


def _zero_rate():
    return RateSpec(phi=lambda x: np.zeros_like(np.asarray(x, float)))


def _csc(mat):
    # a transport S(t) triple (data, row indices, column pointers) as the
    # public scipy matrix of shape (n + 2, n)
    data, rows, ptr = mat
    n = len(ptr) - 1
    return csc_matrix((data, rows, ptr), shape=(n + 2, n))


def test_grid_and_density_basics():
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
    empty = GridDensity(grid, np.zeros(grid.n_cells))
    assert empty.grid_mass == 0.0


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 2.0)])
def test_uniform_in_m_needs_lo_below_hi(lo, hi):
    # an empty or reversed interval has no uniform density: a ValueError
    # naming both ends, not a ZeroDivisionError or a negative density
    with pytest.raises(ValueError, match="lo < hi"):
        GridDensity.uniform_in_m(LogGrid(1e-2, 1e2, 64), lo, hi)


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
    # independent adaptive quadrature, to 1e-8 (cells aligned with [1,2]).
    # S decays each cell by its nodal survival e^{-phi(node) t}: a midpoint
    # rule, second order in the cell width, whose error is negative (S loses
    # at least the true mass); Richardson on 16 and 32 cells per octave
    want, _ = quad(lambda x: (2.0 / 3.0) * math.exp(-1.0 / x) * x, 1.0, 2.0,
                   epsabs=1e-13, epsrel=1e-13)
    err = {}
    for per_octave in (8, 16, 32, 64):
        grid = LogGrid(2.0 ** -20, 2.0 ** 7, 27 * per_octave)
        u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
        err[per_octave] = apply_S(pure_frag, 1.0, u).grid_mass - want
    assert all(e < 0 for e in err.values())
    for coarse in (8, 16, 32):
        assert abs(err[coarse] / err[2 * coarse] - 4.0) < 0.05
    assert abs((4.0 * err[32] - err[16]) / 3.0) < 1e-8


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


@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("name,spec", [
    ("growth", power_model("growth", alpha=0.0, beta=0.0)),
    ("growth_sqrt", power_model("growth", alpha=-0.5, beta=1.0)),
    ("decay", power_model("decay", alpha=0.0, beta=-1.0)),
    ("decay_to_zero", unit_decay_model()),
])
def test_resolvent_A_golden_cell_masses(name, spec, lam):
    # cell masses of the per-cell rescaled scan that the prefix sum replaced
    # (commit b5fab3f), down to 1e-304, with the same exact zeros
    want = json.loads((DATA / "resolvent_golden.json").read_text())[f"{name}@{lam:g}"]
    u = GridDensity.uniform_in_m(LogGrid(1e-4, 1e2, 64), 1.0, 2.0)
    np.testing.assert_allclose(resolvent_A(spec, lam, u).masses, want,
                               rtol=1e-11, atol=0.0)


def test_resolvent_A_transport_rejects_negative_masses():
    u = GridDensity(LogGrid(1e-2, 1e2, 16), np.full(16, -1.0))
    with pytest.raises(ValueError):
        resolvent_A(power_model("growth", alpha=0.0, beta=0.0), 1.0, u)


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


def test_series_need_a_jump_kernel():
    spec = build_characteristics(SemiflowSpec(regime=Regime.PURE_JUMP),
                                 RateSpec(power=(1.0, 0.0)))
    u = GridDensity.uniform_in_m(aligned_grid(), 1.0, 2.0)
    with pytest.raises(NoDensity):
        resolvent_series(spec, 1.0, u, N=2)
    with pytest.raises(NoDensity):
        dyson_phillips(spec, 1.0, u, N=2, n_s=4)


def test_dyson_honest_conservation(bounded_pure_jump):
    # phi = 1 is honest: grid mass plus sub-grid bucket stays ||u|| = 1 up to
    # the time-quadrature error, which doubling n_s exposes
    grid = LogGrid(1e-1, 1e2, 192)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    tot = {n_s: dyson_phillips(bounded_pure_jump, 4.0, u, N=60,
                               n_s=n_s)[0].total_mass for n_s in (32, 64)}
    assert abs(tot[64] - 1.0) <= abs(tot[64] - tot[32])


@pytest.mark.xfail(strict=True, reason="the below-grid entries of _transport "
                   "discount mass leaving the grid by the whole-step survival")
def test_dyson_honest_decay_conservation():
    # decay g = x^2 with phi = 1 is honest: grid mass plus buckets stays
    # ||u|| = 1 up to the time-quadrature error that doubling n_s exposes.
    # On this coarse grid the sub-grid bucket takes 0.61 of the mass, and
    # 5.4% goes missing at every n_s
    spec = power_model("decay", alpha=0.0, beta=-1.0)
    u = GridDensity.uniform_in_m(LogGrid(1e-1, 1e2, 192), 1.0, 2.0)
    tot = {n_s: dyson_phillips(spec, 4.0, u, N=60, n_s=n_s)[0].total_mass
           for n_s in (64, 128)}
    assert abs(tot[128] - u.total_mass) <= abs(tot[128] - tot[64])


def test_dyson_builds_each_operator_once(monkeypatch, pure_frag):
    # one S for all 2 n_s half-step times and one B per call, in both the
    # diagonal and the transport regime
    import pdmpfrag.density as density
    built = []
    for name in ("_SOperator", "_BOperator"):
        cls = getattr(density, name)
        monkeypatch.setattr(density, name,
                            lambda *a, cls=cls: built.append(cls(*a)) or built[-1])
    u = GridDensity.uniform_in_m(LogGrid(1e-4, 1e2, 64), 1.0, 2.0)
    for spec in (pure_frag, power_model("growth", alpha=0.0, beta=0.0)):
        built.clear()
        dyson_phillips(spec, 1.0, u, N=3, n_s=16)
        assert [type(op).__name__ for op in built] == ["_SOperator", "_BOperator"]
        s_op = built[0]
        assert len(s_op.factor if s_op.mats is None else s_op.mats) == 32


@pytest.mark.parametrize("name,spec", [
    ("pure_frag", power_model("pure_jump", alpha=-1.0)),
    ("growth", power_model("growth", alpha=0.0, beta=0.0)),
    ("decay", power_model("decay", alpha=0.0, beta=-1.0)),
    ("growth_sqrt", power_model("growth", alpha=-0.5, beta=1.0)),
    ("growth_tabulated", build_characteristics(
        SemiflowSpec(regime=Regime.GROWTH, power_beta=0.0),
        RateSpec(phi=lambda x: np.asarray(x, float)), PowerLawKernel(0.0))),
    ("decay_to_zero", unit_decay_model()),
])
def test_dyson_golden_grid_masses(name, spec):
    # grid masses of the element-by-element convolution this engine replaced
    # (commit 8c82c92) for growth and decay; the three models where w = G(x)
    # is not uniform on the grid, Q is tabulated or the orbit reaches 0 were
    # recorded when S(t) was still built once per time (commit 512798c);
    # pure_frag, with the nodal survival, from the direct lag sum of
    # _SOperator.add that the pure-jump recurrence replaced.  N = 3 stops
    # every case on the budget, not on the tail rule
    want = json.loads((DATA / "dyson_golden.json").read_text())[name]
    u = GridDensity.uniform_in_m(LogGrid(1e-4, 1e2, 64), 1.0, 2.0)
    res, tr = dyson_phillips(spec, 1.0, u, N=3, n_s=16)
    assert not tr.converged
    np.testing.assert_allclose(res.masses, want, rtol=1e-12, atol=0.0)


_SMALL = ((1e-4, 1e2, 64), 1.0, 3, 16, (0.0, 0.0))
_TRANSPORT_GOLDEN = [
    # (name, spec, grid, t, N, n_s, start buckets (sub, sup)); the first
    # five are the transport models of dyson_golden.json, on its set-up
    ("growth", power_model("growth", alpha=0.0, beta=0.0)) + _SMALL,
    ("decay", power_model("decay", alpha=0.0, beta=-1.0)) + _SMALL,
    ("growth_sqrt", power_model("growth", alpha=-0.5, beta=1.0)) + _SMALL,
    ("growth_tabulated", build_characteristics(
        SemiflowSpec(regime=Regime.GROWTH, power_beta=0.0),
        RateSpec(phi=lambda x: np.asarray(x, float)),
        PowerLawKernel(0.0))) + _SMALL,
    ("decay_to_zero", unit_decay_model()) + _SMALL,
    # both buckets nonzero: growth g = x leaves the top and B sends
    # fragments below x_min = 0.1; decay g = x^2 leaves at the bottom, and
    # never at the top, so its start carries a super-grid bucket
    ("growth_buckets", power_model("growth", alpha=0.0, beta=0.0),
     (1e-1, 1e2, 96), 4.0, 60, 32, (0.0, 0.0)),
    ("decay_buckets", power_model("decay", alpha=0.0, beta=-1.0),
     (1e-1, 1e2, 96), 4.0, 60, 32, (0.0625, 0.125)),
]


@pytest.mark.parametrize("name,spec,grid,t,N,n_s,start", _TRANSPORT_GOLDEN,
                         ids=[case[0] for case in _TRANSPORT_GOLDEN])
def test_transport_dyson_golden(name, spec, grid, t, N, n_s, start):
    # transport Dyson-Phillips outputs recorded before the out-of-grid
    # buckets became two rows of each S matrix (commit 4d54c18): grid masses
    # keep every bit; the bucket deposits, now summed in ascending source
    # order rather than by BLAS, may move by an ulp: here the final buckets
    # kept their bits and term_norms moved by <= 1.6e-16 relative
    want = json.loads((DATA / "transport_golden.json").read_text())[name]
    u = GridDensity.uniform_in_m(LogGrid(*grid), 1.0, 2.0)
    u.sub_grid_mass, u.super_grid_mass = start
    res, tr = dyson_phillips(spec, t, u, N=N, n_s=n_s)
    np.testing.assert_array_equal(res.masses, want["masses"])
    np.testing.assert_allclose([res.sub_grid_mass, res.super_grid_mass],
                               [want["sub"], want["sup"]], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(tr.term_norms, want["term_norms"],
                               rtol=1e-15, atol=0.0)


_PURE_JUMP_GOLDEN = [
    # (name, alpha of phi = x^alpha, grid, t, n_s), u uniform in m on [1, 2]
    ("inv_x_t1", -1.0, (1e-6, 1e2, 256), 1.0, 64),
    ("inv_x_t4", -1.0, (1e-6, 1e2, 256), 4.0, 128),
    ("one_t4", 0.0, (1e-1, 1e2, 192), 4.0, 128),
]


@pytest.mark.parametrize("name,alpha,grid,t,n_s", _PURE_JUMP_GOLDEN,
                         ids=[case[0] for case in _PURE_JUMP_GOLDEN])
def test_pure_jump_dyson_golden(name, alpha, grid, t, n_s):
    # pure-jump outputs recorded while every level still ran on all n
    # cells (commit e1f2aa9): the levels now run on the cells up to u's
    # highest occupied one, and every bit is kept
    want = json.loads((DATA / "pure_jump_golden.json").read_text())[name]
    u = GridDensity.uniform_in_m(LogGrid(*grid), 1.0, 2.0)
    res, tr = dyson_phillips(power_model("pure_jump", alpha=alpha), t, u,
                             n_s=n_s)
    assert tr.converged
    np.testing.assert_array_equal(res.masses, want["masses"])
    np.testing.assert_array_equal([res.sub_grid_mass, res.super_grid_mass],
                                  [want["sub"], want["sup"]])
    np.testing.assert_array_equal(tr.term_norms, want["term_norms"])


def test_pure_jump_dyson_runs_on_occupied_cells(monkeypatch, pure_frag):
    # B sends mass only to smaller cells, so both operators are built on the
    # first J cells, J = 1 + u's highest nonzero cell, and the cells above
    # stay exactly 0; u in the top cell needs the whole grid
    import pdmpfrag.density as density
    grids = []
    for name in ("_SOperator", "_BOperator"):
        cls = getattr(density, name)
        monkeypatch.setattr(
            density, name,
            lambda spec, grid, *a, cls=cls: grids.append(grid) or cls(spec, grid, *a))
    grid = LogGrid(1e-4, 1e2, 64)
    # x = 2 lies in cell 45, [1.65, 2.05]; x = 100 in the top cell
    for hi, J in ((2.0, 46), (100.0, 64)):
        u = GridDensity.uniform_in_m(grid, 1.0, hi)
        grids.clear()
        res, tr = dyson_phillips(pure_frag, 1.0, u, N=60, n_s=16)
        assert [g.n_cells for g in grids] == [J, J]
        assert tr.cells == J
        for g in grids:
            np.testing.assert_array_equal(g.edges, grid.edges[:J + 1])
            np.testing.assert_array_equal(g.nodes, grid.nodes[:J])
            np.testing.assert_array_equal(g.m_weights, grid.m_weights[:J])
        assert res.masses.shape == (64,)
        assert np.all(res.masses[J:] == 0.0) and np.all(res.masses[:J] > 0.0)
    # transport moves mass up, so its levels run on every cell
    growth = power_model("growth", alpha=0.0, beta=0.0)
    u = GridDensity.uniform_in_m(grid, 1.0, 2.0)
    assert dyson_phillips(growth, 1.0, u, N=3, n_s=16)[1].cells == 64


@pytest.mark.parametrize("spec", [
    power_model("pure_jump", alpha=-1.0),
    power_model("growth", alpha=0.0, beta=0.0),
])
def test_dyson_zero_density_converges_at_once(spec):
    # a density with no mass has a zero tail at the first level: it stops
    # there, converged, instead of running the whole budget N
    u = GridDensity(LogGrid(1e-4, 1e2, 64), np.zeros(64))
    res, tr = dyson_phillips(spec, 1.0, u, N=60, n_s=16)
    assert tr.converged and tr.note == ""
    assert tr.term_norms == [0.0, 0.0]
    assert res.total_mass == 0.0 and res.masses.shape == (64,)


@pytest.mark.parametrize("t", [0.1, 2.0])
@pytest.mark.parametrize("spec", [
    power_model("growth", alpha=0.0, beta=0.0),
    power_model("decay", alpha=0.0, beta=-1.0),
])
def test_transport_S_columns_carry_survival(spec, t):
    # each source cell's mass goes on-grid or to a bucket, scaled by survival,
    # at every time of one operator built for several times at once
    grid = LogGrid(1e-4, 1e2, 64)
    ts = (t / 8, t / 2, t)
    op = _SOperator(spec, grid, ts)
    assert len(op.mats) == 3
    for r, s in enumerate(ts):
        mat = _csc(op.mats[r]).toarray()
        assert mat.shape == (66, 64)
        # rows n and n + 1 are the super- and sub-grid deposits
        cols = mat[:-2].sum(axis=0) + mat[-1] + mat[-2]
        want = np.exp(-np.asarray(cumulative_rate(spec, grid.nodes, s)))
        np.testing.assert_allclose(cols, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("spec,k", [
    (power_model("growth", alpha=0.0, beta=0.0), 2),
    (power_model("decay", alpha=0.0, beta=-1.0), 1),
], ids=["growth", "decay"])
def test_transport_S_add_stack_is_rows(spec, k):
    # add on a (3, n) stack, in C or F order as the lag loop passes it, is
    # three 1-D adds, as apply_S and the term-0 rows make them, bit for bit:
    # grid and both buckets.  One S(t) moves every cell the same way in w,
    # so growth deposits above the grid (sup, output k = 2) and decay below
    # (sub, k = 1)
    grid = LogGrid(1e-1, 1e2, 96)
    op = _SOperator(spec, grid, [4.0])
    x = np.random.default_rng(7).random((3, grid.n_cells))

    def start():
        return np.ones_like(x), np.full(3, 0.5), np.full(3, 0.25)

    want = start()
    for i in range(3):
        op.add(0, x[i], want[0][i], want[1][i:i + 1], want[2][i:i + 1])
    assert np.all(want[k] > start()[k])
    for stack in (x, np.asfortranarray(x)):
        got = start()
        op.add(0, stack, *got)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_diagonal_S_adds_any_stack(pure_frag):
    # a stack taller than the len(ts) rows of the operator, no deposits
    grid = LogGrid(1e-4, 1e2, 64)
    op = _SOperator(pure_frag, grid, [0.5])
    x = np.random.default_rng(5).random((3, 64))
    out, none = np.ones_like(x), np.zeros(3)
    op.add(0, x, out, none, none)
    assert np.array_equal(out, 1.0 + x * op.factor[0])
    assert np.array_equal(none, np.zeros(3))


def _lag_sum(op, wm):
    # the direct convolution: sum_{j<k} S((k-j-1/2) h) wm[j] into row k-1,
    # one add per lag d = k-j-1, on ts the half steps j h/2
    n_s = len(wm)
    out, sub, sup = np.zeros_like(wm), np.zeros(n_s), np.zeros(n_s)
    for d in range(n_s - 1, -1, -1):
        op.add(2 * d, wm[:n_s - d], out[d:], sub[d:], sup[d:])
    return out, sub, sup


def _convolved(op, wm):
    out, sub, sup = np.zeros_like(wm), np.zeros(len(wm)), np.zeros(len(wm))
    op.convolve(wm, out, sub, sup)
    return out, sub, sup


@pytest.mark.parametrize("n_s", [1, 2, 5, 64, 127, 128])
def test_diagonal_S_convolve_matches_lag_sum(pure_frag, n_s):
    # the pure-jump recurrence against the direct sum, where phi h reaches
    # 1.6e4 (x = 1e-6, n_s = 64) and e^{-phi h} underflows; some cells get
    # no source.  Blocks of round(sqrt(n_s)) rows: n_s = 64 fills 8 blocks,
    # 5, 127 and 128 pad the last block, 1 and 2 run blocks of one row
    grid = LogGrid(1e-6, 1e2, 256)
    h = 1.0 / n_s
    op = _SOperator(pure_frag, grid, np.arange(1, 2 * n_s + 1) * (0.5 * h))
    rng = np.random.default_rng(11)
    wm = rng.random((n_s, grid.n_cells))
    wm[:, rng.random(grid.n_cells) < 0.2] = 0.0
    want, _, _ = _lag_sum(op, wm)
    got, sub, sup = _convolved(op, wm)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.all(got >= 0.0)
    nz = want != 0.0
    assert np.max(np.abs(got[nz] - want[nz]) / want[nz]) <= 1e-12
    assert not sub.any() and not sup.any()


def test_transport_S_convolve_is_lag_sum():
    spec = power_model("growth", alpha=0.0, beta=0.0)
    grid = LogGrid(1e-4, 1e2, 64)
    n_s, h = 16, 1.0 / 16
    op = _SOperator(spec, grid, np.arange(1, 2 * n_s + 1) * (0.5 * h))
    wm = np.random.default_rng(12).random((n_s, grid.n_cells))
    # convolve runs the lag loop on wm in F order, where the sparse products
    # read contiguous rows; one sparse product, buckets included, has the
    # same bits in either layout, so the reference runs on the C-order wm
    want = _lag_sum(op, wm)
    for got, want in zip(_convolved(op, wm), want):
        assert np.array_equal(got, want)


def _b_columns(spec, grid):
    # one parent node at a time: fragment_cdf at every edge, differenced
    cols = [np.asarray(spec.kernel.fragment_cdf(y, grid.edges), dtype=float)
            for y in grid.nodes]
    frac = np.stack([np.diff(c) for c in cols], axis=1)
    return frac, np.array([c[0] for c in cols])


@pytest.mark.parametrize("kernel", [
    PowerLawKernel(0.0), PowerLawKernel(1.0),
    HomogeneousKernel(lambda z: 3.0 * np.asarray(z, float)),
], ids=["power0", "power1", "homogeneous"])
def test_B_build_matches_per_column_loop(kernel):
    # the blocked build of B is the per-node loop, bit for bit; 300 cells
    # make the tabulated kernel's blocks uneven
    spec = build_characteristics(SemiflowSpec(regime=Regime.PURE_JUMP),
                                 RateSpec(power=(1.0, -1.0)), kernel)
    grid = LogGrid(1e-4, 1e2, 300)
    frac, sub_row = _b_columns(spec, grid)
    b_op = _BOperator(spec, grid)
    assert np.array_equal(b_op.frac, frac)
    assert np.array_equal(b_op.sub_row, sub_row)


def _degenerate_op(monkeypatch):
    # S(0.5) on 6 cells whose G has a flat piece and infinite ends, at the
    # constant cumulative rate 0.25
    import pdmpfrag.density as density
    monkeypatch.setattr(density, "cumulative_rate",
                        lambda spec, x, t: np.full(np.broadcast(x, t).shape, 0.25))

    class StepG:  # G on the 7 grid edges: a flat piece and infinite ends
        direction = 1

        def __call__(self, x):
            return np.array([-np.inf, 0.0, 1.0, 1.0, 2.0, 3.0, np.inf])

    spec = SimpleNamespace(regime=Regime.GROWTH, G=StepG())
    return _SOperator(spec, LogGrid(1.0, 64.0, 6), [0.5])


def test_transport_S_degenerate_cells(monkeypatch):
    # a zero-width or unbounded destination interval deposits the whole
    # surviving cell mass at its midpoint's destination cell, or in a bucket
    op = _degenerate_op(monkeypatch)
    surv = math.exp(-0.25)
    full = _csc(op.mats[0]).toarray()
    assert full.shape == (8, 6)
    mat, sup_row, sub_row = full[:-2], full[-2], full[-1]
    np.testing.assert_allclose(mat.sum(axis=0) + sub_row + sup_row,
                               surv, rtol=0.0, atol=1e-15)
    assert mat[1, 0] == surv  # (-inf, 0.5]: deposited at 0.5
    assert mat[3, 2] == surv  # [1.5, 1.5]: deposited at 1.5
    assert sup_row[5] == surv  # [3.5, inf): midpoint +inf, above the grid
    # each output cell adds its sources in ascending order, as the CSR of a
    # COO conversion does: cell 3 takes regular column 1, degenerate column
    # 2 and regular column 3, and on this stack adding column 3 before
    # column 2 ends one ulp higher
    x = np.array([[0.0, 1.0, 2.0 ** 53, 1.0, 0.0, 0.0]])
    want = np.zeros_like(x)
    for j in range(6):
        want += mat[:, j] * x[:, j:j + 1]
    for masses, expect in ((x, want), (x[0], want[0])):
        out = np.zeros_like(masses)
        op.add(0, masses, out, np.zeros(masses.shape[:-1]),
               np.zeros(masses.shape[:-1]))
        assert np.array_equal(out, expect)


@pytest.mark.parametrize("spec", [
    power_model("growth", alpha=0.0, beta=0.0),
    power_model("decay", alpha=0.0, beta=-1.0),
    None,
], ids=["growth", "decay", "degenerate"])
def test_transport_S_add_matches_scipy(spec, monkeypatch):
    # the compiled product of add against the public scipy path, the same
    # triple as a csc_matrix applied with @, bit for bit: a 1-D density,
    # (3, n) stacks in C and F order and a block of an F-order (n_s, n)
    # stack, as the lag loop passes it, on the S(t) of the stack test and
    # the degenerate matrix
    op = (_degenerate_op(monkeypatch) if spec is None
          else _SOperator(spec, LogGrid(1e-1, 1e2, 96), [4.0]))
    mat = _csc(op.mats[0])
    n = mat.shape[1]
    rng = np.random.default_rng(17)
    x3 = rng.random((3, n))
    for masses in (rng.random(n), x3, np.asfortranarray(x3),
                   np.asfortranarray(rng.random((64, n)))[:48]):
        want = (mat @ masses.T).T
        out = np.zeros(masses.shape)
        sub, sup = np.zeros(masses.shape[:-1]), np.zeros(masses.shape[:-1])
        op.add(0, masses, out, sub, sup)
        assert np.array_equal(out, want[..., :-2])
        assert np.array_equal(sup, want[..., -2])
        assert np.array_equal(sub, want[..., -1])


@pytest.mark.parametrize("spec", [
    power_model("growth", alpha=0.0, beta=0.0),
    power_model("decay", alpha=0.0, beta=-1.0),
], ids=["growth", "decay"])
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_apply_S_wrong_length_masses_raise(spec, extra):
    # the compiled product checks no sizes: masses a cell short would write
    # rows past its result and a cell long read past the column pointers,
    # so transport refuses them as csc_matrix @ did
    grid = LogGrid(1e-1, 1e2, 96)
    u = GridDensity(grid, np.full(grid.n_cells + extra, 1e-2))
    with pytest.raises(ValueError, match="96 cells"):
        apply_S(spec, 1.0, u)
