"""Symmetric trace-free (stf) tensor algebra and 1-D slab gradient operators.

Second-order fields (stress-like) are handled through their five canonical
components in the fixed ordering

    (T11, T22, T12, T13, T23),   T33 = -T11 - T22,

which all serialization and assembly code shares.  Third-order tensors are
kept dense (27 entries); the 7-component reduction is an output view only.

Every helper broadcasts over leading batch axes: components, vectors and
matrices sit on the trailing axes, so an (..., 5) component array is a batch
of tensors and (..., 3, 3) a batch of matrices.  A single tensor is the 0-d
batch.  Reductions run over the trailing axes only, element by element, so a
batch gives the same numbers as its items evaluated one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Canonical index pairs of the five independent stf components.
STF_PAIRS = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2))

# Independent entries of a symmetric trace-free 3rd-order tensor.  The
# remaining multisets follow from trace-freeness:
#   T133 = -T111 - T122,  T233 = -T112 - T222,  T333 = -T113 - T223.
STF3_TRIPLES = (
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2), (1, 1, 1), (1, 1, 2),
)


def stf_basis_matrices() -> np.ndarray:
    """Return the five canonical basis matrices E_a, shape (5, 3, 3).

    A component vector c represents the matrix sum_a c[a] * E_a.
    """
    basis = np.zeros((5, 3, 3))
    basis[0] = np.diag([1.0, 0.0, -1.0])
    basis[1] = np.diag([0.0, 1.0, -1.0])
    for a, (i, j) in enumerate(STF_PAIRS[2:], start=2):
        basis[a, i, j] = 1.0
        basis[a, j, i] = 1.0
    return basis


_BASIS = stf_basis_matrices()
_EYE = np.eye(3)
_ROWS, _COLS = np.array(STF_PAIRS).T
_STF3_INDEX = tuple(np.array(STF3_TRIPLES).T)


@dataclass(frozen=True)
class StfTensor3:
    """Symmetric trace-free 3x3 tensors stored by canonical components."""

    components: np.ndarray  # shape (..., 5)

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if c.shape[-1:] != (5,):
            raise ValueError(f"expected 5 components, got shape {c.shape}")
        object.__setattr__(self, "components", c)

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "StfTensor3":
        a = np.asarray(a, dtype=float)
        sym = 0.5 * (a + a.swapaxes(-1, -2))
        dev = sym - (sym.trace(axis1=-2, axis2=-1) / 3.0)[..., None, None] * _EYE
        return cls(dev[..., _ROWS, _COLS])

    def matrix(self) -> np.ndarray:
        return np.einsum("...a,aij->...ij", self.components, _BASIS)

    def norm2(self):
        """Frobenius double contraction T:T."""
        m = self.matrix()
        return (m * m).sum(axis=(-2, -1))


@dataclass(frozen=True)
class Frame:
    """Orthonormal boundary frame (n outward, t1, t2 tangential)."""

    n: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    rows: np.ndarray = field(init=False, repr=False, compare=False)  # n, t1, t2

    def __post_init__(self):
        for name in ("n", "t1", "t2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        vecs = (self.n, self.t1, self.t2)
        gram = np.array([[float(a @ b) for b in vecs] for a in vecs])
        if not np.allclose(gram, np.eye(3), atol=1e-14):
            raise ValueError("frame vectors are not orthonormal")
        object.__setattr__(self, "rows", np.stack(vecs))


IDENTITY_FRAME = Frame(n=np.array([1.0, 0.0, 0.0]),
                       t1=np.array([0.0, 1.0, 0.0]),
                       t2=np.array([0.0, 0.0, 1.0]))


def stf2(a: np.ndarray) -> StfTensor3:
    """Project 3x3 matrices onto their symmetric trace-free part."""
    return StfTensor3.from_matrix(a)


def sym3(b: np.ndarray) -> np.ndarray:
    """Full symmetrization of 3rd-order tensors (average of 6 transposes)."""
    b = np.asarray(b, dtype=float)
    n = b.ndim - 3
    lead = tuple(range(n))
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    return sum(b.transpose(lead + (n + i, n + j, n + k)) for i, j, k in perms) / 6.0


def stf3(b: np.ndarray) -> np.ndarray:
    """Symmetric trace-free projection of 3x3x3 tensors, returned dense.

    Subtracts (1/5)(t_i d_jk + t_j d_ik + t_k d_ij) from the symmetrization,
    where t is its single independent trace vector.
    """
    s = sym3(b)
    t = np.einsum("...ill->...i", s)
    corr = (t[..., :, None, None] * _EYE
            + t[..., None, :, None] * _EYE[:, None, :]
            + t[..., None, None, :] * _EYE[:, :, None]) / 5.0
    return s - corr


def stf3_components(t: np.ndarray) -> np.ndarray:
    """The 7 independent entries of stf 3rd-order tensors (view only)."""
    return np.asarray(t, dtype=float)[(..., *_STF3_INDEX)]


def slab_grad_vec(values: np.ndarray, derivs: np.ndarray):
    """Gradient of a vector field in slab geometry (variation along axis 1).

    With nabla = e1 d/dx the gradient matrix is derivs (x) e1; returns the
    full matrix and its stf2 projection.  values is unused algebraically but
    kept in the signature so call sites pass the whole field sample.
    """
    derivs = np.asarray(derivs, dtype=float)
    grad = np.zeros(derivs.shape + (3,))
    grad[..., 0] = derivs
    return grad, stf2(grad)


def slab_grad_stf2(field: StfTensor3, derivs: StfTensor3):
    """Gradient of an stf 2nd-order field in slab geometry.

    Returns ((nabla sigma)_ijk = dsigma_ij/dx * delta_k1 dense, its stf3
    projection, and the divergence (nabla . sigma)_i = dsigma_i1/dx).
    """
    dmat = derivs.matrix()
    grad = np.zeros(dmat.shape + (3,))
    grad[..., 0] = dmat
    div = dmat[..., 0].copy()
    return grad, stf3(grad), div


# Frame projections multiply and sum explicitly instead of using matmul, whose
# BLAS kernels may round a batch differently from its items.  Moving the frame
# axes first makes a single vector or tensor give plain scalars.
_AXES = ("n", "t1", "t2")


def frame_components(obj, frame: Frame) -> dict:
    """Project 3-vectors or StfTensor3 onto a wall frame."""
    r = frame.rows
    if isinstance(obj, StfTensor3):
        rm = (r[:, :, None] * obj.matrix()[..., None, :, :]).sum(axis=-2)  # r_ai m_ij
        comps = (rm[..., :, None, :] * r).sum(axis=-1)  # r_ai m_ij r_bj
        return {a + b: c for a, row in zip(_AXES, np.rollaxis(comps, -2))
                for b, c in zip(_AXES, np.rollaxis(row, -1))}
    comps = (np.asarray(obj, dtype=float)[..., None, :] * r).sum(axis=-1)
    return dict(zip(_AXES, np.rollaxis(comps, -1)))
