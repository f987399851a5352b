"""Tests for the macroscopic state vector and its operators."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from r13lab.state import (
    StateVector,
    entropy_density,
    mass_inner,
    physical_fluxes,
    relaxation_apply,
    relaxation_rates,
)
from r13lab.tensors import StfTensor3

RELAX_MODEL = SimpleNamespace(l1=0.8, l2=1.3)
MAXWELL_FLUX = SimpleNamespace(k0=1.0, k1=0.0, k2=0.0, k3=0.0, k4=0.0, k5=1.0)
GENERIC_FLUX = SimpleNamespace(k0=0.9, k1=0.02, k2=0.003, k3=0.05, k4=0.01, k5=1.1)


def random_state(rng):
    return StateVector.random(rng)


class TestMassInner:
    def test_density_unit(self):
        u = StateVector(rho=1.0)
        assert mass_inner(u, u) == pytest.approx(1.0)

    def test_temperature_weight(self):
        u = StateVector(theta=1.0)
        assert mass_inner(u, u) == pytest.approx(1.5)

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b, c = (random_state(rng) for _ in range(3))
            assert mass_inner(a, b) == pytest.approx(mass_inner(b, a), rel=1e-12)
            lhs = mass_inner(StateVector.from_array(a.to_array() + 2.0 * b.to_array()), c)
            assert lhs == pytest.approx(mass_inner(a, c) + 2.0 * mass_inner(b, c), rel=1e-10)

    def test_positive_definite_on_canonical_basis(self):
        for k in range(13):
            arr = np.zeros(13)
            arr[k] = 1.0
            u = StateVector.from_array(arr)
            assert mass_inner(u, u) > 0.0

    def test_positive_on_random(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            u = random_state(rng)
            assert mass_inner(u, u) > 0.0


class TestRelaxation:
    def test_conserved_fields_untouched(self):
        u = StateVector(rho=1.0, theta=-2.0, u=np.array([1.0, 2.0, 3.0]))
        out = relaxation_apply(u, RELAX_MODEL, kn=0.1)
        assert_allclose(out.to_array(), np.zeros(13), atol=1e-15)

    def test_weighted_blocks(self):
        u = StateVector(s_bar=np.array([1.0, 0.0, 0.0]),
                        sigma_bar=StfTensor3(np.array([1.0, 0, 0, 0, 0])))
        out = relaxation_apply(u, RELAX_MODEL, kn=0.5)
        assert out.s_bar[0] == pytest.approx(-(4.0 / 15.0) * RELAX_MODEL.l1 / 0.5)
        assert out.sigma_bar.components[0] == pytest.approx(-0.5 * RELAX_MODEL.l2 / 0.5)

    def test_rejects_nonpositive_kn(self):
        with pytest.raises(ValueError, match="Kn must be positive"):
            relaxation_apply(StateVector(), RELAX_MODEL, 0.0)

    def test_normalized_damping_rates(self):
        u = StateVector(s_bar=np.array([0.0, 1.0, 0.0]))
        out = relaxation_rates(u, RELAX_MODEL, kn=0.2)
        assert out.s_bar[1] == pytest.approx(-2.0 * RELAX_MODEL.l1 / (3.0 * 0.2))
        u2 = StateVector(sigma_bar=StfTensor3(np.array([0, 0, 1.0, 0, 0])))
        out2 = relaxation_rates(u2, RELAX_MODEL, kn=0.2)
        assert out2.sigma_bar.components[2] == pytest.approx(-RELAX_MODEL.l2 / 0.2)

    def test_dissipative_pairing(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            u = random_state(rng)
            assert mass_inner(u, relaxation_apply(u, RELAX_MODEL, kn=0.3)) <= 1e-14

    @pytest.mark.parametrize("relax", [relaxation_apply, relaxation_rates])
    @pytest.mark.parametrize("kn", [float("nan"), float("inf")])
    def test_kn_must_be_finite(self, relax, kn):
        # NaN fails every comparison and inf gives zero rates: neither is a
        # Knudsen number.
        with pytest.raises(ValueError, match="Kn must be positive"):
            relax(StateVector(s_bar=np.ones(3)), RELAX_MODEL, kn)

    def test_rates_reject_nonpositive_kn(self):
        with pytest.raises(ValueError, match="Kn must be positive"):
            relaxation_rates(StateVector(), RELAX_MODEL, 0.0)

    @pytest.mark.parametrize("relax", [relaxation_apply, relaxation_rates])
    @pytest.mark.parametrize("kn", [True, 10**400, 1e-320],
                             ids=["bool", "huge-int", "subnormal"])
    def test_kn_must_be_a_normal_float(self, relax, kn):
        # True once passed as Kn 1, 10**400 raised OverflowError, and the
        # subnormal 1e-320 gave infinite rates with a RuntimeWarning.
        with pytest.raises(ValueError, match="Kn must be positive and finite"):
            relax(StateVector(s_bar=np.ones(3)), RELAX_MODEL, kn)


class TestEntropy:
    def test_reference_value(self):
        assert entropy_density(StateVector(), h0=3.0) == pytest.approx(3.0)

    def test_density_only(self):
        assert entropy_density(StateVector(rho=1.0), h0=0.0) == pytest.approx(-0.5)

    def test_definition(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            u = random_state(rng)
            assert 7.0 - entropy_density(u, h0=7.0) == pytest.approx(
                0.5 * mass_inner(u, u), rel=1e-12)


class TestPhysicalFluxes:
    def test_maxwell_identification(self):
        rng = np.random.default_rng(2)
        u, du = random_state(rng), random_state(rng)
        out = physical_fluxes(u, du, MAXWELL_FLUX, kn=0.1)
        assert_allclose(out.sigma.components, u.sigma_bar.components, atol=1e-14)
        assert_allclose(out.s, u.s_bar, atol=1e-14)

    def test_zero_derivatives(self):
        rng = np.random.default_rng(3)
        u = random_state(rng)
        out = physical_fluxes(u, StateVector(), GENERIC_FLUX, kn=0.1)
        assert_allclose(out.sigma.components, GENERIC_FLUX.k5 * u.sigma_bar.components,
                        atol=1e-14)
        assert_allclose(out.s, GENERIC_FLUX.k0 * u.s_bar, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        u1, du1 = random_state(rng), random_state(rng)
        u2, du2 = random_state(rng), random_state(rng)
        sum_u = StateVector.from_array(u1.to_array() + u2.to_array())
        sum_du = StateVector.from_array(du1.to_array() + du2.to_array())
        a = physical_fluxes(u1, du1, GENERIC_FLUX, kn=0.2)
        b = physical_fluxes(u2, du2, GENERIC_FLUX, kn=0.2)
        c = physical_fluxes(sum_u, sum_du, GENERIC_FLUX, kn=0.2)
        assert_allclose(c.sigma.components, a.sigma.components + b.sigma.components,
                        atol=1e-13)
        assert_allclose(c.s, a.s + b.s, atol=1e-13)

    def test_gradient_terms(self):
        # normal heat conduction: only d theta/dx drives s1
        du = StateVector(theta=0.0).from_array(
            np.array([0, 1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]))
        out = physical_fluxes(StateVector(), du, GENERIC_FLUX, kn=0.4)
        assert out.s[0] == pytest.approx(-1.5 * GENERIC_FLUX.k1 * 0.4)
        assert out.s[1] == pytest.approx(0.0, abs=1e-15)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(21)
        u = random_state(rng)
        assert_allclose(StateVector.from_array(u.to_array()).to_array(), u.to_array(),
                        atol=1e-15)

    def test_pressure_accessor(self):
        u = StateVector(rho=0.25, theta=-1.0)
        assert u.p == pytest.approx(-0.75)

    def test_from_array_rejects_a_wrong_length(self):
        with pytest.raises(ValueError, match="expected 13 canonical components"):
            StateVector.from_array(np.zeros(12))


class TestBatching:
    """Batched states give, item by item, the numbers of single states."""

    SHAPE = (4, 3)

    @staticmethod
    def batch_state(arr):
        return StateVector(rho=arr[..., 0], theta=arr[..., 1], u=arr[..., 2:5],
                           s_bar=arr[..., 5:8], sigma_bar=StfTensor3(arr[..., 8:13]))

    def test_physical_fluxes(self):
        rng = np.random.default_rng(201)
        u, du = rng.uniform(-1.0, 1.0, size=(2,) + self.SHAPE + (13,))
        out = physical_fluxes(self.batch_state(u), self.batch_state(du),
                              GENERIC_FLUX, kn=0.3)
        assert out.sigma.components.shape == self.SHAPE + (5,)
        assert out.s.shape == self.SHAPE + (3,)
        for idx in np.ndindex(self.SHAPE):
            item = physical_fluxes(StateVector.from_array(u[idx]),
                                   StateVector.from_array(du[idx]), GENERIC_FLUX, kn=0.3)
            assert np.array_equal(out.sigma.components[idx], item.sigma.components)
            assert np.array_equal(out.s[idx], item.s)

    def test_mass_inner(self):
        rng = np.random.default_rng(202)
        a, b = rng.uniform(-1.0, 1.0, size=(2,) + self.SHAPE + (13,))
        out = mass_inner(self.batch_state(a), self.batch_state(b))
        assert out.shape == self.SHAPE
        for idx in np.ndindex(self.SHAPE):
            assert out[idx] == mass_inner(StateVector.from_array(a[idx]),
                                          StateVector.from_array(b[idx]))

    def test_component_shapes_still_checked(self):
        with pytest.raises(ValueError, match="3-vectors"):
            StateVector(u=np.zeros((4, 2)))
