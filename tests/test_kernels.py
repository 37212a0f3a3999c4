"""Fragmentation kernels: sampling maps, transition densities, mass condition."""

import numpy as np
import pytest

from pdmpfrag import (
    CustomKernel,
    HomogeneousKernel,
    JumpKernel,
    KernelDomain,
    NoDensity,
    PowerLawKernel,
    SeparableKernel,
)
from pdmpfrag.monotone import gauss_panels


def _kernel_mass(kernel, y, lo_frac=1e-12, n=2049):
    edges = np.geomspace(y * lo_frac, y, n)
    return float(np.sum(gauss_panels(lambda x: kernel.b(x, y) * x,
                                     edges[:-1], edges[1:])))


def test_power_kernel_sampling_closed_form():
    k = PowerLawKernel(0.0)  # h = 2
    assert abs(k.sample(0.25, 4.0) - 2.0) < 1e-14
    assert k.sample(0.999999, 3.0) <= 3.0
    with pytest.raises(ValueError):
        PowerLawKernel(-2.0)


def test_separable_uniform_beta():
    # beta(z) = 1: Lambda(y) = y^2/2, kappa(q, x) = sqrt(q) x
    k = SeparableKernel(lambda z: np.ones_like(np.asarray(z, float)))
    assert abs(k.sample(0.25, 4.0) - 2.0) < 1e-8
    # conjugacy Lambda(kappa(q,x)) = q Lambda(x)
    for q, x in ((0.1, 1.0), (0.7, 5.0), (0.5, 0.3)):
        lhs = float(k.Lam(np.array([float(k.sample(q, x))]))[0])
        rhs = q * float(k.Lam(np.array([x]))[0])
        assert abs(lhs - rhs) < 1e-8 * (1.0 + rhs)


def test_transition_density_examples():
    k = PowerLawKernel(0.0)
    assert abs(k.transition_density(1.0, 2.0) - 0.5) < 1e-14
    assert k.transition_density(3.0, 2.0) == 0.0
    # int_0^y p(x, y) x dx = 1 at y = 5 for h(z) = 3z (nu = 1)
    k1 = PowerLawKernel(1.0)
    y = 5.0
    edges = np.geomspace(y * 1e-12, y, 2049)
    val = float(np.sum(gauss_panels(
        lambda x: k1.transition_density(x, y) * x, edges[:-1], edges[1:])))
    assert abs(val - 1.0) < 1e-10


@pytest.mark.parametrize("y", [0.5, 1.0, 5.0, 50.0])
def test_mass_condition_closed_form_families(y):
    for kernel in (PowerLawKernel(0.0), PowerLawKernel(1.0),
                   PowerLawKernel(-0.5),
                   SeparableKernel(lambda z: np.ones_like(np.asarray(z, float)))):
        assert abs(_kernel_mass(kernel, y) - y) < 1e-10 * y


def test_homogeneous_tabulated_matches_power():
    k = HomogeneousKernel(lambda z: 2.0 * np.ones_like(np.asarray(z, float)))
    assert abs(float(k.H(np.array([1.0]))[0]) - 1.0) < 1e-10
    qs = np.array([0.1, 0.25, 0.5, 0.9])
    got = k.H.inverse(qs)
    assert np.max(np.abs(got - np.sqrt(qs))) < 1e-9


def test_sampling_cdf_consistency():
    # stratified q-grid; empirical CDF vs H_x(r/x) within 2/sqrt(N)
    n = 4000
    qs = (np.arange(n) + 0.5) / n
    for kernel in (PowerLawKernel(1.0),
                   SeparableKernel(lambda z: np.ones_like(np.asarray(z, float)))):
        x = 3.0
        samples = np.sort(np.asarray(kernel.sample(qs, x), dtype=float))
        model = np.asarray(kernel.fragment_cdf(x, samples), dtype=float)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(ecdf_hi - model)),
                 np.max(np.abs(model - ecdf_lo)))
        assert ks < 2.0 / np.sqrt(n)


def test_fragment_cdf_endpoints():
    k = PowerLawKernel(0.0)
    edges = np.array([0.0, 1.0, 2.0, 5.0])
    cdf = k.fragment_cdf(2.0, edges)
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0)


def test_kernel_domain_and_no_density_errors():
    with pytest.raises(KernelDomain):
        PowerLawKernel(0.0).sample(0.5, -1.0)
    custom = CustomKernel(kappa=lambda q, x: 0.5 * x)
    assert custom.sample(0.5, 2.0) == 1.0
    with pytest.raises(NoDensity):
        custom.transition_density(1.0, 2.0)


def test_kernels_are_three_maps():
    # the base holds the guarded sample, p = b / y and a fragment_cdf that
    # raises NoDensity; the h-based b belongs to the homogeneous kernels,
    # which read their ratio CDF only through the map H, and no other kernel
    # overrides p
    assert {"sample", "transition_density", "fragment_cdf"} <= set(vars(JumpKernel))
    assert not {"b", "h"} & set(vars(JumpKernel))
    for cls in (JumpKernel, HomogeneousKernel, PowerLawKernel, SeparableKernel,
                CustomKernel):
        assert not hasattr(cls, "ratio_cdf") and not hasattr(cls, "ratio_inverse")
    for cls in (SeparableKernel, CustomKernel):
        assert "transition_density" not in vars(cls)
    for cls in (HomogeneousKernel, SeparableKernel, CustomKernel):
        assert {"_kappa", "b"} <= set(vars(cls))
    assert PowerLawKernel.b is HomogeneousKernel.b
    assert PowerLawKernel.fragment_cdf is HomogeneousKernel.fragment_cdf
    with pytest.raises(NoDensity):
        CustomKernel(kappa=lambda q, x: 0.5 * x).fragment_cdf(2.0, 1.0)
