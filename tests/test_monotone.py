"""Monotone-map machinery: quadrature, tabulation, generalized inverses."""

import numpy as np
import pytest

from pdmpfrag import NonIntegrableRate, TabulatedIntegralMap
from pdmpfrag.monotone import endpoint_integral, gauss_panels


def test_gauss_panels_polynomial_exact():
    # 15-point Gauss is exact for polynomials of degree <= 29
    val = gauss_panels(lambda x: x ** 8, np.array([0.0]), np.array([1.0]))
    assert abs(val[0] - 1.0 / 9.0) < 1e-15


def test_gauss_panels_vectorized_panels():
    edges = np.geomspace(0.5, 8.0, 33)
    vals = gauss_panels(np.exp, edges[:-1], edges[1:])
    assert abs(np.sum(vals) - (np.exp(8.0) - np.exp(0.5))) < 1e-9 * np.exp(8.0)


def test_endpoint_integral_convergent_tail():
    val, ok = endpoint_integral(lambda x: x ** -2.0, 1.0, "inf")
    assert ok and abs(val - 1.0) < 1e-10


def test_endpoint_integral_divergent_tail():
    val, ok = endpoint_integral(lambda x: 1.0 / x, 1.0, "inf")
    assert not ok and val == np.inf


def test_endpoint_integral_convergent_head():
    val, ok = endpoint_integral(lambda x: x ** -0.5, 1.0, "zero")
    assert ok and abs(val - 2.0) < 1e-10


def test_endpoint_integral_divergent_head():
    _, ok = endpoint_integral(lambda x: 1.0 / x, 1.0, "zero")
    assert not ok


def test_tabulated_from_below_log():
    # V(x) = int_1^x dz/z = log x (anchor forced to 1: 1/z diverges at 0)
    m = TabulatedIntegralMap(lambda x: 1.0 / x, orientation="from_below",
                             domain=(1e-6, 1e6), n_nodes=2048)
    assert m.anchor == 1.0
    xs = np.array([0.01, 0.5, 2.0, 100.0])
    assert np.max(np.abs(m(xs) - np.log(xs))) < 1e-12
    assert m.direction == +1
    assert m.limit_zero == -np.inf and m.limit_inf == np.inf
    assert m.roundtrip_error(xs) < 1e-10
    assert np.all(np.diff(m(np.geomspace(1e-5, 1e5, 64))) >= 0)
    # a coarse table on a narrower domain keeps the values to 1e-10
    m = TabulatedIntegralMap(lambda x: 1.0 / x, orientation="from_below",
                             domain=(1e-3, 1e3), n_nodes=256)
    xs = np.geomspace(0.01, 100.0, 17)
    assert np.max(np.abs(m(xs) - np.log(xs))) < 1e-10


def test_tabulated_from_above_power():
    # V(x) = int_x^inf 2 z^-2 dz = 2/x (anchor +inf, the decay convention)
    m = TabulatedIntegralMap(lambda x: 2.0 * x ** -2.0,
                             orientation="from_above", domain=(1e-6, 1e6),
                             n_nodes=2048)
    assert m.anchor == np.inf
    xs = np.array([0.1, 1.0, 4.0, 50.0])
    assert np.max(np.abs(m(xs) - 2.0 / xs)) < 1e-8
    assert m.direction == -1
    assert m.roundtrip_error(xs) < 1e-8


def test_from_above_keeps_relative_precision_where_small():
    # V(x) = 2/x on the default domain: V spans 2e9 at the lower edge, yet
    # each value keeps its relative precision, and so does the inverse
    m = TabulatedIntegralMap(lambda x: 2.0 * _arr(x) ** -2.0,
                             orientation="from_above")
    xs = np.array([1.0, 1e2, 1e4, 1e6])
    v = m(xs)
    assert np.all(np.abs(v - 2.0 / xs) <= 1e-12 * (2.0 / xs))
    assert np.all(np.abs(m.inverse(v) - xs) <= 1e-12 * xs)


def test_from_below_interior_anchor_keeps_relative_precision():
    # f = x^-2 diverges at 0, so the map is anchored at 1: V(x) = 1 - 1/x.
    # Summed from the lower edge the table would hold ~1e9 near x = 1, and
    # V(1.0001) and the inverse near V = 1 would keep no relative precision
    m = TabulatedIntegralMap(lambda x: _arr(x) ** -2.0)
    assert m.anchor == 1.0
    x = np.array([1.0001])
    want = (x - 1.0) / x
    assert np.all(np.abs(m(x) - want) <= 1e-12 * want)
    xs = np.array([1e2, 1e4, 1e6])
    assert np.all(np.abs(m.inverse(m(xs)) - xs) <= 1e-9 * xs)


def test_anchor_zero_requires_integrability():
    with pytest.raises(NonIntegrableRate):
        TabulatedIntegralMap(lambda x: 1.0 / x, orientation="from_below",
                             anchor=0.0, domain=(1e-6, 1e6), n_nodes=256)


def test_generalized_inverse_flat_piece():
    # integrand vanishing on [1, 2]: V is flat there; the increasing
    # generalized inverse must return the leftmost point of the flat piece
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 1.0) & (x <= 2.0), 0.0, 1.0)

    m = TabulatedIntegralMap(f, orientation="from_below", anchor=0.1,
                             domain=(1e-2, 1e2), n_nodes=4096)
    q = float(m(np.array([1.5]))[0])
    x_left = float(m.inverse(np.array([q]))[0])
    assert x_left <= 1.0 + 1e-3


def test_inverse_clamps_to_domain():
    m = TabulatedIntegralMap(lambda x: np.ones_like(np.asarray(x, float)),
                             orientation="from_below", anchor=1.0,
                             domain=(0.5, 2.0), n_nodes=128)
    lo = float(m.inverse(np.array([-1e9]))[0])
    hi = float(m.inverse(np.array([1e9]))[0])
    assert lo == 0.5 and hi == 2.0


def _bisect_inverse(m, q, n_steps=64):
    """Reference generalized inverse: plain log bisection within the cell."""
    t = (np.asarray(q, dtype=float) - m._const) / m._sign
    td = m._table_dir
    side = "left" if m.direction > 0 else "right"
    j = np.clip(np.searchsorted(td * m.cumvals, td * t, side=side), 1,
                len(m.nodes) - 1)
    a, b = m.nodes[j - 1], m.nodes[j]
    tau = td * (t - m.cumvals[j - 1])
    for _ in range(n_steps):
        mid = np.sqrt(a * b)
        fm = gauss_panels(m.f, m.nodes[j - 1], mid)
        take_left = fm >= tau if m.direction > 0 else fm > tau
        b = np.where(take_left, mid, b)
        a = np.where(take_left, a, mid)
    out = b if m.direction > 0 else a
    out = np.where(td * t <= td * m.cumvals[0], m.domain[0], out)
    return np.where(td * t >= td * m.cumvals[-1], m.domain[1], out)


def _arr(x):
    return np.asarray(x, dtype=float)


_INTEGRANDS = {
    "one": (lambda x: np.ones_like(_arr(x)), "from_below"),
    "inv_x": (lambda x: 1.0 / _arr(x), "from_below"),
    "x_sq": (lambda x: _arr(x) ** 2, "from_below"),
    "wavy": (lambda x: 1.0 + 0.9 * np.sin(5.0 * np.log(_arr(x))),
             "from_below"),
    "two_x_minus_2": (lambda x: 2.0 * _arr(x) ** -2.0, "from_above"),
}


class _Counted:
    """Integrand wrapper counting the points it is evaluated at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, x):
        self.points += np.size(x)
        return self.f(x)


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
def test_inverse_matches_bisection(name):
    f, orientation = _INTEGRANDS[name]
    m = TabulatedIntegralMap(f, orientation=orientation, n_nodes=4096)
    rng = np.random.default_rng(11)
    lo, hi = m.domain
    xs = np.exp(rng.uniform(np.log(lo), np.log(hi), 2000))
    q = np.concatenate([m(xs), m(m.nodes)])
    got = m.inverse(q)
    want = _bisect_inverse(m, q)
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))


def _jump_in_cell():
    """V of f = 0 on [1, 2] and 1 + x elsewhere, on 512 nodes, and a point
    x whose cell holds the jump of f at 2, with q = V(x)."""
    def f(x):
        x = _arr(x)
        return np.where((x >= 1.0) & (x <= 2.0), 0.0, 1.0 + x)

    m = TabulatedIntegralMap(f, orientation="from_below", anchor=0.1,
                             domain=(1e-2, 1e2), n_nodes=512)
    x = 2.00138677
    return m, x, m(np.array([x]))


def test_log_bisection_on_V_across_jump_in_cell():
    # log bisection on the same V recovers x: the miss is inverse's own
    m, x, q = _jump_in_cell()
    lo, hi = np.log(1.9), np.log(2.1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if m(np.array([np.exp(mid)]))[0] >= q[0]:
            hi = mid
        else:
            lo = mid
    assert abs(np.exp(hi) - x) <= 4.0 * np.spacing(x)


@pytest.mark.xfail(strict=True, reason="inverse integrates the cell across "
                   "the jump of f with one Gauss panel: 2.0015658, 8.9e-5 "
                   "relative off")
def test_inverse_across_jump_in_cell():
    m, x, q = _jump_in_cell()
    assert abs(m.inverse(q)[0] - x) <= 4.0 * np.spacing(x)


def test_inverse_at_double_zero_of_integrand():
    # f = (log x)^2 vanishes to second order at 1, where Newton converges
    # only linearly; the residual in q must still reach the rounding floor
    m = TabulatedIntegralMap(lambda x: np.log(_arr(x)) ** 2,
                             orientation="from_below", domain=(1e-2, 1e2),
                             n_nodes=4096)
    q = np.concatenate([m(np.geomspace(0.5, 2.0, 801)), m(np.array([1.0])),
                        2.0 + np.linspace(-1e-12, 1e-12, 801)])
    x = m.inverse(q)
    assert np.all(np.abs(m(x) - q) <= 8.0 * np.spacing(q))


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
def test_inverse_integrand_evaluations_per_point(name):
    # the per-cell Hermite start leaves most points two Newton passes of 16
    # evaluations (a 15-point panel and f(x)) each
    f, orientation = _INTEGRANDS[name]
    counted = _Counted(f)
    m = TabulatedIntegralMap(counted, orientation=orientation, n_nodes=4096)
    xs = np.exp(np.random.default_rng(12).uniform(np.log(1e-8), np.log(1e8),
                                                  1000))
    q = m(xs)
    counted.points = 0
    m.inverse(q)
    assert counted.points / q.size <= 40


def test_inverse_keeps_shape():
    m = TabulatedIntegralMap(lambda x: 1.0 / _arr(x), domain=(1e-3, 1e3),
                             n_nodes=256)
    xs = np.geomspace(0.01, 100.0, 6).reshape(2, 3)
    back = m.inverse(m(xs))
    assert back.shape == (2, 3)
    assert np.max(np.abs(back - xs) / xs) < 1e-12
    assert isinstance(m.inverse(float(m(np.array([2.0]))[0])), float)
