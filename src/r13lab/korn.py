"""Korn-type inequality probes on the unit cube.

Certifies, by finite elements and dense generalized eigensolves, that

    ||u||_0^2 + ||stf grad u||_0^2  >~  ||u||_1^2      (classical form)
    ||u||_b^2 + ||stf grad u||_0^2  >~  ||u||_1^2      (boundary form)

hold with a strictly positive constant on hexahedral meshes, and that the
kernel of the stf-gradient form is exactly the 10-dimensional conformal
Killing space once the element space contains quadratics.

Elements are tensor-product Lagrange hexahedra (degree 1 or 2) on uniform
subdivisions of [0,1]^3, so every element matrix is a translate of a single
reference matrix and quadrature is exact for all assembled forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .fe1d import element_coo, gauss01, lagrange

# Dense eigensolves only; beyond this the module is out of its depth.
MAX_DENSE_DOFS = 6000

# Near-zero eigenvalues below this multiple of the largest one count as kernel.
KERNEL_REL_THRESHOLD = 1e-10


# ---------------------------------------------------------------------------
# Conformal Killing fields


@dataclass(frozen=True)
class CKField:
    """Conformal Killing field u(x) = a + lam*x + A x + 2(b.x)x - |x|^2 b.

    A must be skew-symmetric; the four blocks give dimension 3+1+3+3 = 10.
    """

    a: np.ndarray
    lam: float
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (3,) or b.shape != (3,):
            raise ValueError("a and b must be 3-vectors")
        if A.shape != (3, 3):
            raise ValueError("A must be a 3x3 matrix")
        if not np.allclose(A, -A.T, atol=1e-12):
            raise ValueError("A must be skew-symmetric")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def coefficient_vector(self) -> np.ndarray:
        """The 10 free coefficients (a, lam, upper-triangular A, b)."""
        return np.concatenate([
            self.a,
            [self.lam],
            [self.A[0, 1], self.A[0, 2], self.A[1, 2]],
            self.b,
        ])


def ck_field_from_coefficients(coeffs: np.ndarray) -> CKField:
    """Inverse of CKField.coefficient_vector."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (10,):
        raise ValueError("coefficient vector must have length 10")
    A = np.array([
        [0.0, c[4], c[5]],
        [-c[4], 0.0, c[6]],
        [-c[5], -c[6], 0.0],
    ])
    return CKField(a=c[:3], lam=c[3], A=A, b=c[7:])


def random_ck_field(rng: np.random.Generator, normalized: bool = True) -> CKField:
    coeffs = rng.standard_normal(10)
    if normalized:
        coeffs = coeffs / np.linalg.norm(coeffs)
    return ck_field_from_coefficients(coeffs)


def ck_eval(f: CKField, x: np.ndarray) -> np.ndarray:
    """Evaluate the field at points x of shape (..., 3)."""
    x = np.asarray(x, dtype=float)
    bx = x @ f.b
    return (f.a + f.lam * x + x @ f.A.T
            + 2.0 * bx[..., None] * x - np.sum(x * x, axis=-1)[..., None] * f.b)


def ck_jacobian(f: CKField, x: np.ndarray) -> np.ndarray:
    """Analytic Jacobian J_ij = d u_i / d x_j at points x of shape (..., 3)."""
    x = np.asarray(x, dtype=float)
    eye = np.eye(3)
    bx = x @ f.b
    J = (f.lam + 2.0 * bx)[..., None, None] * eye + f.A
    J = J + 2.0 * x[..., :, None] * f.b[None, :]
    J = J - 2.0 * f.b[..., :, None] * x[..., None, :]
    return J


def stf_of_matrix(J: np.ndarray) -> np.ndarray:
    """Symmetric trace-free part of 3x3 matrices, shape (..., 3, 3)."""
    sym = 0.5 * (J + np.swapaxes(J, -1, -2))
    tr = np.trace(J, axis1=-2, axis2=-1)
    return sym - (tr / 3.0)[..., None, None] * np.eye(3)


# ---------------------------------------------------------------------------
# Mesh and elements


@dataclass(frozen=True)
class CubeMesh:
    """Uniform hexahedral partition of the unit cube with Lagrange nodes.

    Nodes form an (n*degree + 1)^3 grid indexed x-fastest; elements are
    numbered x-fastest too, and each element's local nodes follow the same
    tensor ordering.
    """

    n: int
    degree: int
    nodes: np.ndarray = field(repr=False)
    elements: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_dofs(self) -> int:
        return 3 * self.n_nodes

    @property
    def h(self) -> float:
        return 1.0 / self.n


def build_cube_mesh(n: int, degree: int) -> CubeMesh:
    if n < 1:
        raise ValueError("n must be at least 1")
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    p = degree
    m = n * p + 1
    axis = np.linspace(0.0, 1.0, m)
    Z, Y, X = np.meshgrid(axis, axis, axis, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    # Grid index along one axis of each (element, local node) pair; the
    # element table is (ez, ey, ex, lz, ly, lx) flattened, x fastest.
    g = np.arange(n)[:, None] * p + np.arange(p + 1)
    gx = g[None, None, :, None, None, :]
    gy = g[None, :, None, None, :, None]
    gz = g[:, None, None, :, None, None]
    elements = (gx + m * (gy + m * gz)).reshape(n ** 3, (p + 1) ** 3)
    return CubeMesh(n=n, degree=degree, nodes=nodes, elements=elements)


def _reference_tensors(p: int):
    """Shape values and gradients at Gauss points of the reference cube.

    Returns (weights (nq,), vals (nq, nloc), grads (nq, nloc, 3)) on [0,1]^3.
    """
    x1, w1 = gauss01(p + 1)
    v, d = (t.T for t in lagrange(np.linspace(0.0, 1.0, p + 1), x1))  # (q, p+1)

    def tensor(fx, fy, fz):
        # x-fastest points and shape functions; each entry is fx * fy * fz.
        return np.kron(fz, np.kron(fy, fx))

    weights = tensor(w1, w1, w1)
    vals = tensor(v, v, v)
    grads = np.stack([tensor(d, v, v), tensor(v, d, v), tensor(v, v, d)], axis=-1)
    return weights, vals, grads


def _stf_b_matrix(grads: np.ndarray) -> np.ndarray:
    """B[l, c, i, j] with stf(grad u)_ij = sum_{l,c} u_{l,c} B[l,c,i,j].

    grads holds physical shape-function gradients of shape (nloc, 3).
    """
    nloc = grads.shape[0]
    eye = np.eye(3)
    B = np.zeros((nloc, 3, 3, 3))
    B += 0.5 * np.einsum("ci,lj->lcij", eye, grads)
    B += 0.5 * np.einsum("cj,li->lcij", eye, grads)
    B -= np.einsum("lc,ij->lcij", grads, eye) / 3.0
    return B


@dataclass(frozen=True)
class CubeForms:
    """Gram matrices of the four quadratic forms over vector nodal dofs."""

    mesh: CubeMesh
    l2: scipy.sparse.csr_matrix = field(repr=False)
    h1: scipy.sparse.csr_matrix = field(repr=False)
    stf: scipy.sparse.csr_matrix = field(repr=False)
    boundary: scipy.sparse.csr_matrix = field(repr=False)


def _scatter(mesh: CubeMesh, element_matrix: np.ndarray,
             element_list=None) -> scipy.sparse.csr_matrix:
    """Accumulate one shared element matrix over the mesh elements, or
    over the rows of element_list (node tables of the same width).

    element_matrix has shape (nloc, nloc) acting on scalar nodes, or
    (3*nloc, 3*nloc) acting on interleaved vector dofs.  A scalar matrix
    acts on each vector component alone, so it is scattered into the three
    diagonal component blocks, one copy of the element list per component.
    Couplings that sum to exactly zero are dropped, so every stored entry is
    a real coupling.
    """
    elements = mesh.elements if element_list is None else element_list
    nloc = elements.shape[1]
    if element_matrix.shape == (nloc, nloc):
        dofs = (3 * elements + np.arange(3)[:, None, None]).reshape(-1, nloc)
    else:
        dofs = (3 * elements[:, :, None] + np.arange(3)).reshape(len(elements), -1)
    rows, cols, data = element_coo(dofs, dofs, element_matrix)
    mat = scipy.sparse.coo_matrix((data, (rows, cols)),
                                  shape=(mesh.n_dofs, mesh.n_dofs)).tocsr()
    mat.eliminate_zeros()
    return mat


def _boundary_face_matrix(mesh: CubeMesh) -> scipy.sparse.csr_matrix:
    """Gram of the boundary L2 form over the six cube faces.

    Each cube face is a uniform n x n quad mesh of degree p whose 2-D mass
    matrix is the Kronecker square of the 1-D one.  The face node tables
    are read off the element table: the elements and local nodes at one
    end of an axis.  Orientation does not matter for a mass matrix.
    """
    n, p = mesh.n, mesh.degree
    x1, w1 = gauss01(p + 1)
    v1, _ = lagrange(np.linspace(0.0, 1.0, p + 1), x1)
    m1 = (v1 * w1) @ v1.T * mesh.h
    # Axes of the element table: (ez, ey, ex, lz, ly, lx).
    table = mesh.elements.reshape((n,) * 3 + (p + 1,) * 3)
    faces = [np.take(np.take(table, end, axis=5 - k), end, axis=2 - k).reshape(n * n, -1)
             for k in range(3) for end in (0, -1)]
    return _scatter(mesh, np.kron(m1, m1), np.concatenate(faces))


def assemble_cube_forms(mesh: CubeMesh) -> CubeForms:
    """Assemble L2, H1, stf-gradient, and boundary Gram matrices."""
    p = mesh.degree
    h = mesh.h
    weights, vals, grads_ref = _reference_tensors(p)
    grads = grads_ref / h  # physical gradients on an h-cube element
    scale = h ** 3

    nloc = vals.shape[1]
    mass = np.zeros((nloc, nloc))
    stiff = np.zeros((nloc, nloc))
    stf_el = np.zeros((3 * nloc, 3 * nloc))
    for iq in range(len(weights)):
        w = weights[iq] * scale
        mass += w * np.outer(vals[iq], vals[iq])
        stiff += w * (grads[iq] @ grads[iq].T)
        B = _stf_b_matrix(grads[iq]).reshape(3 * nloc, 9)
        stf_el += w * (B @ B.T)

    l2 = _scatter(mesh, mass)
    grad = _scatter(mesh, stiff)
    stf = _scatter(mesh, stf_el)
    boundary = _boundary_face_matrix(mesh)
    return CubeForms(mesh=mesh, l2=l2, h1=(l2 + grad).tocsr(), stf=stf,
                     boundary=boundary)


def interpolate(mesh: CubeMesh, func) -> np.ndarray:
    """Nodal interpolation of a vector field; returns interleaved dofs."""
    values = np.asarray(func(mesh.nodes), dtype=float)
    if values.shape != (mesh.n_nodes, 3):
        raise ValueError("field must return one 3-vector per node")
    return values.ravel()


def stf_energy(mesh: CubeMesh, u: np.ndarray) -> float:
    """Quadrature of ||stf grad u_h||^2 as a sum of squares.

    Mathematically equal to u' S u with the assembled Gram matrix, but for
    vectors in the kernel the pointwise evaluation is quadratically small
    in rounding error where the matrix form only reaches it linearly.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_dofs,):
        raise ValueError("dof vector has wrong length")
    weights, _, grads_ref = _reference_tensors(mesh.degree)
    grads = grads_ref / mesh.h
    ue = u.reshape(mesh.n_nodes, 3)[mesh.elements]  # (n_elements, nloc, 3)
    # grad u_h (i,j) at quadrature points: sum_l ue[e,l,i] grads[q,l,j]
    S = stf_of_matrix(np.einsum("eli,qlj->eqij", ue, grads))
    return mesh.h ** 3 * float(np.einsum("q,eqij,eqij->", weights, S, S))


# ---------------------------------------------------------------------------
# Eigenvalue probes


@dataclass(frozen=True)
class KornReport:
    """Generalized eigenvalue summary for the Korn-type forms."""

    n: int
    degree: int
    n_dofs: int
    lambda_min_classical: float
    lambda_min_boundary: float
    stf_kernel_dim: int
    kernel_threshold: float
    stf_eig_max: float
    classical_tail: np.ndarray = field(repr=False)
    boundary_tail: np.ndarray = field(repr=False)
    stf_tail: np.ndarray = field(repr=False)


def _check_dense(n_dofs: int) -> None:
    """Reject meshes too large for the dense eigensolves, before assembly."""
    if n_dofs > MAX_DENSE_DOFS:
        raise ValueError(
            f"mesh has {n_dofs} dofs; dense eigensolves support "
            f"at most {MAX_DENSE_DOFS}")


def _dense_eigvals(A: scipy.sparse.spmatrix, B: scipy.sparse.spmatrix) -> np.ndarray:
    return scipy.linalg.eigh(A.toarray(), B.toarray(), eigvals_only=True)


def korn_constants(forms: CubeForms, n_tail: int = 12) -> KornReport:
    """Solve the three generalized eigenproblems and summarize.

    Pencils: (L2 + stf) vs H1, (boundary + stf) vs H1, and stf vs L2 for
    the kernel count.  Dense solves only; raises for oversized meshes.
    """
    mesh = forms.mesh
    _check_dense(mesh.n_dofs)
    classical = _dense_eigvals(forms.l2 + forms.stf, forms.h1)
    boundary = _dense_eigvals(forms.boundary + forms.stf, forms.h1)
    stf = _dense_eigvals(forms.stf, forms.l2)
    threshold = KERNEL_REL_THRESHOLD * stf[-1]
    kernel_dim = int(np.count_nonzero(stf < threshold))
    return KornReport(
        n=mesh.n,
        degree=mesh.degree,
        n_dofs=mesh.n_dofs,
        lambda_min_classical=float(classical[0]),
        lambda_min_boundary=float(boundary[0]),
        stf_kernel_dim=kernel_dim,
        kernel_threshold=float(threshold),
        stf_eig_max=float(stf[-1]),
        classical_tail=classical[:n_tail].copy(),
        boundary_tail=boundary[:n_tail].copy(),
        stf_tail=stf[:n_tail].copy(),
    )


def boundary_korn_eigenvalue(mesh: CubeMesh) -> float:
    """Smallest eigenvalue of (boundary + stf) vs H1 only, via subset solve."""
    _check_dense(mesh.n_dofs)
    forms = assemble_cube_forms(mesh)
    vals = scipy.linalg.eigh((forms.boundary + forms.stf).toarray(),
                             forms.h1.toarray(), eigvals_only=True,
                             subset_by_index=[0, 0])
    return float(vals[0])


# ---------------------------------------------------------------------------
# Boundary nonvanishing of conformal Killing fields


@dataclass(frozen=True)
class CKVanishingReport:
    """Boundary L2 norm of a conformal Killing field over the cube faces."""

    boundary_norm: float
    coefficient_norm: float

    @property
    def ratio(self) -> float:
        if self.coefficient_norm == 0.0:
            return 0.0
        return self.boundary_norm / self.coefficient_norm


def _face_quadrature(mesh: CubeMesh, n_quad: int):
    """Points (N, 3) and weights (N,) of the n_quad x n_quad Gauss rule on
    every face panel of the mesh, over all six cube faces."""
    x1, w1 = gauss01(n_quad)
    h = mesh.h
    t = ((np.arange(mesh.n)[:, None] + x1) * h).ravel()
    wt = np.tile(w1, mesh.n)
    a, b = np.meshgrid(t, t, indexing="ij")
    pts = []
    for axis in range(3):
        for side in (0.0, 1.0):
            face = np.empty(a.shape + (3,))
            face[..., axis] = side
            face[..., [ax for ax in range(3) if ax != axis]] = np.stack([a, b], axis=-1)
            pts.append(face.reshape(-1, 3))
    return np.concatenate(pts), np.tile(np.outer(wt, wt).ravel() * h * h, 6)


def ck_boundary_gram(mesh: CubeMesh, n_quad: int = 4) -> np.ndarray:
    """10x10 Gram of the conformal Killing basis in the boundary L2 product.

    A strictly positive smallest eigenvalue certifies that no nonzero
    conformal Killing field vanishes on the cube boundary, and its square
    root lower-bounds the boundary norm of any unit-coefficient field.
    """
    pts, w = _face_quadrature(mesh, n_quad)
    vals = np.stack([ck_eval(ck_field_from_coefficients(row), pts) for row in np.eye(10)])
    return np.einsum("aqc,bqc,q->ab", vals, vals, w)


def ck_vanishing_check(f: CKField, mesh: CubeMesh, n_quad: int = 4) -> CKVanishingReport:
    """Exact boundary L2 norm of the analytic field over the cube faces.

    The integrand |u|^2 is quartic per axis, so n_quad >= 3 Gauss points
    per face axis integrate it exactly; face panels follow the mesh.
    """
    pts, w = _face_quadrature(mesh, n_quad)
    vals = ck_eval(f, pts)
    total = float(w @ np.sum(vals * vals, axis=-1))
    return CKVanishingReport(
        boundary_norm=float(np.sqrt(total)),
        coefficient_norm=float(np.linalg.norm(f.coefficient_vector())),
    )
