"""Macroscopic R13 state: the 13-component state vector, the mass-weighted
inner product, relaxation, entropy density, and physical flux recovery.

Canonical serialization order of the 13 scalar components:

    rho, theta, u1, u2, u3, s1, s2, s3, sig11, sig22, sig12, sig13, sig23

(the five stress entries follow the stf ordering of :mod:`r13lab.tensors`).
Fields may carry leading batch axes, as in :mod:`r13lab.tensors`; the inner
product and the flux recovery then act on every state of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inputs
from .tensors import StfTensor3, slab_grad_vec, slab_grad_stf2


@dataclass(frozen=True)
class StateVector:
    """Linearized R13 state (rho, theta, u, s_bar, sigma_bar)."""

    rho: float = 0.0
    theta: float = 0.0
    u: np.ndarray = field(default_factory=lambda: np.zeros(3))
    s_bar: np.ndarray = field(default_factory=lambda: np.zeros(3))
    sigma_bar: StfTensor3 = field(default_factory=lambda: StfTensor3(np.zeros(5)))

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "s_bar", np.asarray(self.s_bar, dtype=float))
        if self.u.shape[-1:] != (3,) or self.s_bar.shape[-1:] != (3,):
            raise ValueError("u and s_bar must be 3-vectors")

    @property
    def p(self) -> float:
        """Pressure variable p = rho + theta."""
        return self.rho + self.theta

    def to_array(self) -> np.ndarray:
        """The 13 canonical components of a single state."""
        return np.concatenate(([self.rho, self.theta], self.u, self.s_bar,
                               self.sigma_bar.components))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "StateVector":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (13,):
            raise ValueError("expected 13 canonical components")
        return cls(rho=float(arr[0]), theta=float(arr[1]), u=arr[2:5],
                   s_bar=arr[5:8], sigma_bar=StfTensor3(arr[8:13]))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "StateVector":
        """Components uniform in [-1, 1]; callers document the seed."""
        return cls.from_array(rng.uniform(-1.0, 1.0, size=13))

    def scale(self, alpha: float) -> "StateVector":
        return StateVector.from_array(alpha * self.to_array())


@dataclass(frozen=True)
class PhysicalFluxes:
    """Physical stress and heat flux recovered from the modified variables."""

    sigma: StfTensor3
    s: np.ndarray


def mass_inner(u1: StateVector, u2: StateVector) -> float:
    """<U1, M U2> with M = diag(1, 3/2, I, (2/5)I, (1/2)I_stf)."""
    sig = (u1.sigma_bar.matrix() * u2.sigma_bar.matrix()).sum(axis=(-2, -1))
    return (u1.rho * u2.rho + 1.5 * u1.theta * u2.theta + (u1.u * u2.u).sum(axis=-1)
            + 0.4 * (u1.s_bar * u2.s_bar).sum(axis=-1) + 0.5 * sig)


def relaxation_apply(u: StateVector, model, kn: float) -> StateVector:
    """S U in the M-weighted convention of the compact system.

    The s_bar block is scaled by -(4/15) l1 / Kn and the sigma_bar block by
    -(1/2) l2 / Kn; rho, theta, u are conserved fields and get zero.
    """
    kn = inputs.positive(kn, "Kn")
    return StateVector(
        rho=0.0, theta=0.0, u=np.zeros(3),
        s_bar=-(4.0 / 15.0) * model.l1 / kn * u.s_bar,
        sigma_bar=StfTensor3(-(0.5 * model.l2 / kn) * u.sigma_bar.components),
    )


def relaxation_rates(u: StateVector, model, kn: float) -> StateVector:
    """M^{-1} S U: the damping terms as they appear in the evolution system,
    -(2 l1)/(3 Kn) s_bar and -(l2/Kn) sigma_bar."""
    kn = inputs.positive(kn, "Kn")
    return StateVector(
        rho=0.0, theta=0.0, u=np.zeros(3),
        s_bar=-(2.0 * model.l1) / (3.0 * kn) * u.s_bar,
        sigma_bar=StfTensor3(-(model.l2 / kn) * u.sigma_bar.components),
    )


def entropy_density(u: StateVector, h0: float = 0.0) -> float:
    """H0 - (1/2) <U, M U>; H0 is an arbitrary reference constant."""
    return h0 - 0.5 * mass_inner(u, u)


def physical_fluxes(u: StateVector, du_dx: StateVector, model, kn: float) -> PhysicalFluxes:
    """Recover physical (sigma, s) from modified variables and x-derivatives.

    du_dx carries d/dx of every component under the slab convention
    (variation along axis 1 only).
    """
    _, grad_u_stf = slab_grad_vec(u.u, du_dx.u)
    _, grad_s_stf = slab_grad_vec(u.s_bar, du_dx.s_bar)
    _, _, div_sigma = slab_grad_stf2(u.sigma_bar, du_dx.sigma_bar)
    grad_theta = np.zeros(np.shape(du_dx.theta) + (3,))
    grad_theta[..., 0] = du_dx.theta

    sigma = StfTensor3(model.k5 * u.sigma_bar.components
                       - model.k4 * kn * grad_s_stf.components
                       - model.k3 * kn * grad_u_stf.components)
    s = (model.k0 * u.s_bar - 1.5 * model.k1 * kn * grad_theta
         + 1.5 * model.k2 * kn * div_sigma)
    return PhysicalFluxes(sigma=sigma, s=s)
