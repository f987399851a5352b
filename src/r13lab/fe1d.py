"""The one-dimensional finite elements of the slab and cube solvers: the
uniform mesh of [0, 1] and its scalar spaces, which only this module knows,
a Gauss rule, a Lagrange tabulator, element points and matrices, a scatter
that repeats one element matrix over every element, the parity bases of
the mirror x -> 1 - x, the global CG matrices of the cube forms, the
block loop of both spectral probes with the inertia certificate by which
it skips a block, and the byte bound of the slab and Korn memos.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DEFAULT_DEGREE = 2


def read_only(*arrays) -> tuple:
    """The arrays, each made read-only in place."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def trim_lru(memo: dict, budget: int, nbytes) -> None:
    """Drop every entry of memo whose nbytes alone exceed budget, then the
    first, least recently used, entries until the nbytes of its values add
    up to at most budget; so an entry too large to keep drops no other."""
    for key in [key for key, value in memo.items() if nbytes(value) > budget]:
        del memo[key]
    while sum(map(nbytes, memo.values())) > budget:
        del memo[next(iter(memo))]


@functools.lru_cache(maxsize=16)
def gauss01(q: int):
    """(points, weights) of the q-point Gauss-Legendre rule on [0, 1], as
    read-only arrays computed once per q and shared by every caller."""
    pts, wts = np.polynomial.legendre.leggauss(q)
    return read_only(0.5 * (pts + 1.0), 0.5 * wts)


def lagrange(nodes: np.ndarray, x: np.ndarray):
    """Values and derivatives of the Lagrange basis on given nodes.

    Returns arrays of shape (len(nodes), len(x)).  Plain product-rule
    evaluation, vectorized over the ordered node pairs (i, j), i != j:

        vals[i] = prod_{j != i} w[i, j],   w[i, j] = (x - x_j) / (x_i - x_j),
        ders[i] = sum_{j != i} 1 / (x_i - x_j) * prod_{l != i, j} w[i, l],

    with every product and sum taken in increasing j or l.  With at most
    three nodes, as here, every product has at most two factors and every
    sum at most two terms, so the bits do not depend on how they group.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(nodes)
    i, j = np.nonzero(~np.eye(n, dtype=bool))  # pairs ordered by i, then j
    inv = (1.0 / (nodes[i] - nodes[j])).reshape(n, n - 1, 1)
    w = ((x - nodes[j, None]) / (nodes[i] - nodes[j])[:, None]).reshape(n, n - 1, x.size)
    # others[i, k]: the product of row i of w with its k-th factor set to one.
    others = np.where(np.eye(n - 1, dtype=bool)[:, :, None], 1.0, w[:, None]).prod(axis=2)
    return w.prod(axis=1), (inv * others).sum(axis=1)


@dataclass(frozen=True)
class SlabMesh:
    """Uniform partition of [0, 1] into n_elements intervals."""

    n_elements: int
    degree: int = DEFAULT_DEGREE

    def __post_init__(self):
        n, p = self.n_elements, self.degree
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"n_elements must be an integer of at least 1, got {n!r}")
        if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {p!r}")
        # Node and point arithmetic runs in floats, which count dofs exactly
        # only up to 2**53.
        if n * p + 1 > 2**53:
            raise ValueError(f"n_elements * degree + 1 must be at most 2**53, got "
                             f"n_elements={n!r}, degree={p!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_elements

    def points(self, ref) -> np.ndarray:
        """(n_elements, len(ref)) images of reference points in every element."""
        return (np.arange(self.n_elements)[:, None] + ref) * self.h

    def quadrature(self, q: int):
        """Flat (points, weights) of the q-point Gauss rule on every element."""
        pts, wts = gauss01(q)
        return self.points(pts).ravel(), np.tile(wts * self.h, self.n_elements)


@dataclass(frozen=True)
class ScalarSpace:
    """One scalar finite element space on the slab mesh.

    kind "cg": continuous Lagrange elements of the mesh degree.
    kind "dg": discontinuous elements of degree mesh.degree - 1 with
    Gauss-point nodes (traces are evaluated by extrapolation).
    """

    mesh: SlabMesh
    kind: str

    def __post_init__(self):
        if self.kind not in ("cg", "dg"):
            raise ValueError(f"unknown space kind {self.kind!r}")

    @property
    def local_nodes(self) -> np.ndarray:
        p = self.mesh.degree
        if self.kind == "cg":
            return np.linspace(0.0, 1.0, p + 1)
        return gauss01(p)[0]

    @property
    def n_local(self) -> int:
        return self.mesh.degree + 1 if self.kind == "cg" else self.mesh.degree

    @property
    def ndof(self) -> int:
        n, p = self.mesh.n_elements, self.mesh.degree
        return n * p + 1 if self.kind == "cg" else n * p

    def tabulate(self, ref_pts: np.ndarray):
        """Basis values and physical derivatives at reference points."""
        vals, ders = lagrange(self.local_nodes, ref_pts)
        return vals, ders * self.mesh.n_elements

    @functools.cached_property
    def gauss_tabulation(self):
        """(values, physical derivatives, element weights) at the degree + 1
        Gauss points of one element; built once, as read-only arrays."""
        pts, wts = gauss01(self.mesh.degree + 1)
        return read_only(*self.tabulate(pts), wts * self.mesh.h)

    def locate(self, x: np.ndarray):
        """(element dofs of shape (len(x), n_local), basis values, basis
        x-derivatives of shape (n_local, len(x))) at points in [0, 1].

        Raises ValueError for points that are not finite or lie outside
        [0, 1]; an interior element boundary belongs to the element on its
        right.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # NaN fails both comparisons.
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValueError("evaluation points must be finite and lie in [0, 1]")
        n = self.mesh.n_elements
        elems = np.minimum((x * n).astype(int), n - 1)
        bv, bd = self.tabulate(x * n - elems)
        return self.all_element_dofs()[elems], bv, bd

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray):
        """Field values and x-derivatives at arbitrary points in [0, 1], of
        shape (..., len(x)) for coefficients (..., ndof)."""
        dofs, bv, bd = self.locate(x)
        local = coeffs[..., dofs.T]
        return (local * bv).sum(axis=-2), (local * bd).sum(axis=-2)

    def all_element_dofs(self) -> np.ndarray:
        """(n_elements, n_local) global dof indices."""
        p = self.mesh.degree
        base = np.arange(self.mesh.n_elements)[:, None] * p
        return base + np.arange(self.n_local)[None, :]


def element_matrices(rows: ScalarSpace, cols: ScalarSpace) -> np.ndarray:
    """Element matrices (vv, vd, dv, dd) of two spaces, shape (4, rows.n_local,
    cols.n_local): row value (v) or x-derivative (d) times column value or
    x-derivative.  Gauss points are summed one by one, not by BLAS, so exact
    cancellations give exact zeros (DECISIONS.md D17)."""
    rv, rd, w = rows.gauss_tabulation
    cv, cd, _ = cols.gauss_tabulation
    return np.stack([np.einsum("iq,jq,q->ij", x, y, w) for x in (rv, rd) for y in (cv, cd)])


def element_coo(dofs1: np.ndarray, dofs2: np.ndarray, elem: np.ndarray):
    """COO triplets (rows, cols, vals) of one element matrix on every element.

    dofs1 (n_elements, n1) and dofs2 (n_elements, n2) hold the global row
    and column dofs of each element; elem has shape (n1, n2).
    """
    rows = np.repeat(dofs1, dofs2.shape[1], axis=1).ravel()
    cols = np.tile(dofs2, (1, dofs1.shape[1])).ravel()
    vals = np.tile(elem.ravel(), len(dofs1))
    return rows, cols, vals


def parity_bases(sizes, signs) -> tuple:
    """Sparse orthonormal bases (even, odd) of the vectors that the mirror
    x -> 1 - x maps to plus, resp. minus, themselves.

    The vector is a run of blocks of the given sizes, one field's dofs
    each.  CG nodes are equispaced and DG nodes Gauss points, so the mirror
    reverses every block and multiplies block b by signs[b]: a signed
    permutation i -> R(i) with sign s_i.  A pair i < R(i) gives the column
    (e_i + sigma s_i e_R(i)) / sqrt(2) to class sigma, a fixed entry the
    column e_i to class s_i.  Columns follow their first entry.
    """
    ends = np.cumsum(sizes)
    idx = np.arange(ends[-1])
    mate = np.repeat(2 * ends - np.asarray(sizes) - 1, sizes) - idx
    s = np.repeat(np.asarray(signs, dtype=float), sizes)
    bases = []
    for sigma in (1.0, -1.0):
        first = idx[(idx < mate) | ((idx == mate) & (s == sigma))]
        paired = np.flatnonzero(mate[first] != first)
        w = np.ones(first.size)
        w[paired] = np.sqrt(0.5)
        rows = np.concatenate([first, mate[first[paired]]])
        cols = np.concatenate([np.arange(first.size), paired])
        vals = np.concatenate([w, sigma * s[first[paired]] * w[paired]])
        bases.append(sp.csr_matrix((vals, (rows, cols)), shape=(idx.size, first.size)))
    return tuple(bases)


@functools.lru_cache(maxsize=16)
def cg_line_matrices(n: int, degree: int) -> MappingProxyType:
    """Dense global matrices of degree-p continuous Lagrange elements on a
    uniform n-element mesh of [0, 1], nodes left to right: "M" mass, "K"
    stiffness, "G" the derivative coupling G[i, j] = int phi_i' phi_j, "GT"
    its transpose, and "T" the endpoint trace phi_i(0) phi_j(0) + phi_i(1) phi_j(1).
    The zero diagonal of G at interior nodes is exact (`element_matrices`).
    Built once per (n, degree): a read-only mapping of read-only arrays,
    shared by every caller.
    """
    cg = ScalarSpace(SlabMesh(n, degree), "cg")
    dofs = cg.all_element_dofs()
    mats = np.zeros((4, cg.ndof, cg.ndof))
    for mat, elem in zip(mats, element_matrices(cg, cg)):
        rows, cols, vals = element_coo(dofs, dofs, elem)
        np.add.at(mat, (rows, cols), vals)
    mass, _, g, stiff = read_only(mats)[0]
    return MappingProxyType({"M": mass, "K": stiff, "G": g, "GT": g.T,
                             "T": read_only(np.diag(np.r_[1.0, np.zeros(cg.ndof - 2), 1.0]))[0]})


def pencil_above(a: np.ndarray, g: np.ndarray, tau: float) -> bool:
    """True iff the dense Cholesky factorization (LAPACK potrf) of
    a - tau * g succeeds, g symmetric positive definite.

    By Sylvester's law of inertia a - tau * g is positive definite exactly
    when every eigenvalue of the symmetric pencil (a, g) exceeds tau, so a
    pass certifies that the pencil has no eigenvalue at or below tau, up to
    the backward error of the factorization (DECISIONS.md D21).  The
    factorization takes n^3 / 3 flops, a small part of a dense eigensolve
    of the pencil.  A NaN fails: some LAPACK builds let one through potrf,
    but it always reaches the factor's diagonal.
    """
    shifted = g * -tau
    shifted += a
    # The transpose is a Fortran-ordered view, so potrf factors in place
    # instead of in a copy; its upper triangle is the lower triangle of
    # a - tau * g, the one scipy.linalg.eigh reads.
    factor, info = scipy.linalg.lapack.dpotrf(shifted.T, overwrite_a=True, clean=False)
    return info == 0 and bool(np.isfinite(np.diagonal(factor)).all())


def merge_lowest(low: np.ndarray, blocks: list, keep: int, solve) -> np.ndarray:
    """The `keep` lowest of the ascending values `low` and the eigenvalues
    of the symmetric pencils `blocks`, dense or CSR pairs (a, g) with g SPD.
    Only the blocks that can reach them are solved, by solve(i, a, g),
    which returns at least the `keep` lowest eigenvalues of block i; a dense
    block may instead be certified above them or reuse a twin's outcome
    (DECISIONS.md D21).  The blocks go in ascending Rayleigh bound
    min(diag(a) / diag(g)), an upper bound on a block's lowest eigenvalue.
    """
    bounds = [np.min(a.diagonal() / g.diagonal()) for a, g in blocks]
    # Twins have equal bounds, so `tied` holds the dense blocks handled at
    # the current bound with their values, None where certified.
    tied, bound = [], None
    for i in np.argsort(bounds, kind="stable"):
        a, g = blocks[i]
        if bounds[i] != bound:
            tied, bound = [], bounds[i]
        if sp.issparse(a):
            vals = solve(i, a, g)
        else:
            twin = next((t for t in tied if np.array_equal(t[0], a) and np.array_equal(t[1], g)),
                        None)
            if twin is not None:
                vals = twin[2]
            elif low.size == keep and bound > low[-1] and pencil_above(a, g, low[-1]):
                vals = None
            else:
                vals = solve(i, a, g)
            tied.append((a, g, vals))
        if vals is not None:
            low = np.sort(np.concatenate([low, vals]))[:keep]
    return low
