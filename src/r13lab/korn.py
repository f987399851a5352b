"""Korn-type inequality probes on the unit cube.

Certifies, by finite elements and generalized eigensolves, that

    ||u||_0^2 + ||stf grad u||_0^2  >~  ||u||_1^2      (classical form)
    ||u||_b^2 + ||stf grad u||_0^2  >~  ||u||_1^2      (boundary form)

hold with a strictly positive constant on hexahedral meshes, and that the
kernel of the stf-gradient form is exactly the 10-dimensional conformal
Killing space once the element space contains quadratics.

Elements are tensor-product Lagrange hexahedra (degree 1 or 2) on uniform
subdivisions of [0,1]^3.  Each term of each integrand (|u|^2, |grad u|^2,
|stf grad u|^2, and |u|^2 on the faces) is a product of one 1-D integral
per axis, so every Gram is a sum of Kronecker products of the 1-D CG
matrices of `fe1d.cg_line_matrices` (Lynch, Rice & Thomas 1964), listed in
`_FORM_TERMS`.  All terms that couple test component c to trial component d
lie on one Kronecker pattern, so `CubeForms._evaluate` builds that pattern
once per component pair and the values of every requested sum of forms from
one contraction of the stacked factor products with a coefficient table.

The uniform mesh and every integrand are mirror-symmetric, so every form
is invariant under the three reflections x_a -> 1 - x_a.  On the
interleaved nodal dofs a reflection is a signed permutation: it mirrors
the grid index along axis a and flips the sign of component a.  The three
commute and are involutions, so the dofs split orthogonally into 8 parity
classes, one per sign character s in {+1, -1}^3, and each reflection acts
as s_a on class s.  A form that commutes with the reflections couples no
two classes, so each pencil is exactly block diagonal in the class bases
and its spectrum is the union of the 8 block spectra.  The class bases are
Kronecker products of 1-D even/odd bases, so a class block is the same
Kronecker sum over parity-projected 1-D factors: one evaluation builds the
class blocks and, with identity bases, the global Grams, and the probes
never build a global Gram.

The cube is also symmetric under the 6 permutations of its axes, and so
is every form.  A permutation sigma acts on the dofs as a plain
permutation (nodes and components alike), commutes with the reflections
up to relabelling, and maps class s onto class s o sigma^-1, so the two
blocks are permutation-similar and share one spectrum.  The 8 classes
fall into 4 orbits, counted by the number of -1 signs: {+++} and {---}
of size 1, the three classes with one -1 and the three with two.  Both
probes take one representative per orbit and count its spectrum
orbit-size times.

The permutations that map a solved class onto itself, its stabilizer H,
split it further (Bossavit 1986, "Symmetry, groups, and boundary value
problems", CMAME 56).  H is all of S3 for {+++} and {---} and the swap of
the two equal-sign axes for the others; on the class dofs it acts as a
plain permutation, found by index arithmetic on the class layout.  A form
that commutes with H is block diagonal on the irreducible subspaces of H:
trivial, sign and one partner of the 2-dim standard irrep under S3, even
and odd under a swap.  Their bases are orbit sums, signed orbit sums and
(1 + tau)(2 - rho - rho^2) applied to one or two orbit members, normalized
(`_irreducible_bases`); a block of a 2-dim irrep stands for both partners.
The class block is built once and every block projected from it through
one side of the projection only (`Irrep`).

Each probe solves a fixed set of pencils (a | b) on every dense block.
Those depend on the mesh alone, so each is kept in the standard form of
LAPACK sygst, C = L^-1 a L^-T with b = L L^T (lower triangle, potrf then
sygst, itype 1; Anderson et al. 1999, LAPACK Users' Guide, 3rd ed.,
2.3.5.1), per mesh, pencil set and class, under a byte bound: a repeated
dense probe of a mesh runs one LAPACK eigensolve per block and pencil.
LAPACK's sygvd and sygvx, which `scipy.linalg.eigh(a, b)` calls, are
potrf, sygst and then syevd or syevx, and the probes call syevd and
syevx on C with the workspaces those drivers pass, so every eigenvalue
keeps the bits of `scipy.linalg.eigh(a, b)`.  The kept forms are the
only state the module keeps between calls; the form blocks, the line
matrices, their parity-projected factors, the term tables and the
irreducible bases are built afresh by each call that needs them.

`korn_constants` runs a dense solve of each such block and skips none: it
reports whole spectral tails, the largest stf eigenvalue and the size of
the stf kernel, which need every block's spectrum, and the 10-fold
conformal Killing kernel of the stf pencil makes a Krylov solver restart
from its internal seed, which would break run-to-run bit-identity.
`boundary_korn_eigenvalue` needs only the smallest eigenvalue of an SPD
pencil, and takes the minimum over the blocks by `fe1d.merge_lowest`, the
block loop of the slab coercivity probe too.  A block of at most
`DENSE_CLASS_ROWS` rows is solved densely in standard form for its lowest
eigenvalue alone, unless certified above the running minimum; a larger
one runs shift-invert Lanczos (ARPACK) on the sparse block, from one
sparse LU and a fixed-seed start vector per block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import inputs
from .fe1d import (ScalarSpace, SlabMesh, cg_line_matrices, merge_lowest, parity_bases, read_only,
                   trim_lru)

# Size cap of the dense eigensolves of korn_constants (and the korn CLI).
MAX_DENSE_DOFS = 6000
# Size cap of boundary_korn_eigenvalue, just above the top of the mesh ladder
# its sparse solve was checked on: 73,167 dofs, cube(28,1) and (14,2).
MAX_SPARSE_DOFS = 80_000

# Largest reflection-class block that boundary_korn_eigenvalue solves
# densely.  Shift-invert Lanczos converges slowly on the clustered low
# spectra of the blocks, and a dense solve of the lowest eigenvalue alone is
# faster up to blocks of about this size (DECISIONS.md D20).
DENSE_CLASS_ROWS = 500

# The standard forms of the pencils on the dense irreducible blocks of each
# solved class, kept per (n, degree, pencil set, class) up to
# _BLOCK_MEMO_BYTES, the least recently used dropped first; both probes of
# the benchmark meshes fit (DECISIONS.md D24).
_BLOCK_MEMO_BYTES = 4 * 2**20
_block_memo: dict = {}  # (n, degree, pencils, s) -> ((dim, stack), ...), least recently used first

# Seed of the start vectors of the boundary probe's sparse route, one stream
# per irreducible block.  Fixed random vectors, not symmetric ones such as
# all ones, which can be orthogonal to whole symmetry classes of a block.
_START_SEED = 20061

# The solved reflection classes, one per axis-permutation orbit (the
# classes with equal numbers of -1 signs), each with its orbit size.
_CLASS_ORBITS = {(1, 1, 1): 1, (-1, 1, 1): 3, (-1, -1, 1): 3, (-1, -1, -1): 1}

# The axis cycle x -> y -> z -> x, as the image of each axis.
_CYCLE = (1, 2, 0)

# The irreducible representations of the stabilizer H of a solved class,
# keyed by |H|, over its elements in the order of `_stabilizer`:
# (1, tau) for a swap tau, (1, rho, rho^2, tau, tau rho, tau rho^2) for S3
# with rho the axis cycle.  Each irrep has its dimension and its basis rows.
# A row gives one basis vector E y per orbit of class dofs, normalized, from
# a dof x of the orbit: the coefficients of E y on the images g x, those of
# its preimage y on x and on the image of x under the second element, and
# whether it is kept on free orbits only.  E is the irrep's group-algebra
# element: the sum of g, of sign(g) g, and for the 2-dim standard irrep
# e = (1 + tau)(2 - rho - rho^2).  Each E is self-adjoint with E^2 = |H| E.
# A free standard orbit (6 dofs) carries e x and
# (1 + tau)(rho - rho^2) x = e (x + 2 rho x) / 3, an orbit of 3 dofs e x.
_IRREPS = {
    2: ((1, (((1, 1), (1, 0), False),)),
        (1, (((1, -1), (1, 0), False),))),
    6: ((1, (((1, 1, 1, 1, 1, 1), (1, 0), False),)),
        (1, (((1, 1, 1, -1, -1, -1), (1, 0), False),)),
        (2, (((2, -1, -1, 2, -1, -1), (1, 0), False),
             ((0, 1, -1, 0, 1, -1), (1 / 3, 2 / 3), True)))),
}

# The form sums of the probes' pencils: korn_constants builds the four
# forms and solves (l2 + stf) and (boundary + stf) against h1 and stf against
# l2, summed on each irreducible block; boundary_korn_eigenvalue builds
# (boundary + stf) and h1.
_KORN_SUMS = (("l2",), ("h1",), ("stf",), ("boundary",))
_BOUNDARY_SUMS = (("boundary", "stf"), ("h1",))
# The pencil sets (sums, pencils): per pencil (a | b), the indices of the
# sums added in turn to make a on a block, and the index of b.
_KORN_PENCILS = (_KORN_SUMS, (((0, 2), 1), ((3, 2), 1), ((2,), 0)))
_BOUNDARY_PENCILS = (_BOUNDARY_SUMS, (((0,), 1),))

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
    tensor ordering.  Both tables are built on first use, after size checks.
    """

    n: int
    degree: int
    line: ScalarSpace = field(init=False, repr=False)

    def __post_init__(self):
        # The CG space along each axis; its mesh checks n and degree.
        object.__setattr__(self, "line", ScalarSpace(SlabMesh(self.n, self.degree), "cg"))

    @property
    def n_nodes(self) -> int:
        return self.line.ndof ** 3

    @property
    def n_dofs(self) -> int:
        return 3 * self.n_nodes

    @property
    def h(self) -> float:
        return self.line.mesh.h

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        axis = np.linspace(0.0, 1.0, self.line.ndof)
        z, y, x = np.meshgrid(axis, axis, axis, indexing="ij")
        return np.column_stack([x.ravel(), y.ravel(), z.ravel()])

    @functools.cached_property
    def elements(self) -> np.ndarray:
        # Grid index along one axis of each (element, local node) pair; the
        # element table is (ez, ey, ex, lz, ly, lx) flattened, x fastest.
        g, m = self.line.all_element_dofs(), self.line.ndof
        gx = g[None, None, :, None, None, :]
        gy = g[None, :, None, None, :, None]
        gz = g[:, None, None, :, None, None]
        return (gx + m * (gy + m * gz)).reshape(self.n ** 3, self.line.n_local ** 3)


def build_cube_mesh(n: int, degree: int) -> CubeMesh:
    return CubeMesh(n, degree)


def _on(factors: dict) -> tuple:
    """1-D factor names along (x, y, z): mass except on the given axes."""
    return tuple(factors.get(a, "M") for a in range(3))


# Kronecker terms of each form, (coef, (f_x, f_y, f_z), c, d): coef times
# the Kronecker product of the line matrices f_x, f_y, f_z (keys of
# fe1d.cg_line_matrices), coupling test component c to trial component d.
_FORM_TERMS = {
    "l2": [(1.0, _on({}), c, c) for c in range(3)],
    "boundary": [(1.0, _on({a: "T"}), c, c) for c in range(3) for a in range(3)],
    # |stf J|^2 = |J|^2/2 + J:J^T/2 - tr(J)^2/3 with J_ij = d_j u_i.  On
    # one component the derivative along a carries 1/2, and 1/2 + 1/2 - 1/3
    # along a = c.  Across components J:J^T pairs d_d of test component c
    # with d_c of trial component d, and tr(J)^2 pairs d_c with d_d; G
    # differentiates the test side.
    "stf": ([(2.0 / 3.0 if a == c else 0.5, _on({a: "K"}), c, c)
             for c in range(3) for a in range(3)]
            + [term for c in range(3) for d in range(3) if d != c
               for term in ((0.5, _on({d: "G", c: "GT"}), c, d),
                            (-1.0 / 3.0, _on({c: "G", d: "GT"}), c, d))]),
}
_FORM_TERMS["h1"] = _FORM_TERMS["l2"] + [(1.0, _on({a: "K"}), c, c)
                                         for c in range(3) for a in range(3)]


# The line matrices that the Kronecker terms take as factors.
_LINES = ("M", "K", "G", "GT", "T")


def _term_table(sums: tuple) -> dict:
    """The Kronecker terms of a tuple of form sums, such as (("boundary",
    "stf"), ("h1",)), grouped by component pair: (c, d) maps to the distinct
    factor triples, as indices into _LINES along (x, y, z), and to the
    coefficient table with one row per sum and one column per triple."""
    table = {}
    for k, names in enumerate(sums):
        for coef, factors, c, d in (t for name in names for t in _FORM_TERMS[name]):
            key = tuple(map(_LINES.index, factors))
            table.setdefault((c, d), {}).setdefault(key, np.zeros(len(sums)))[k] += coef
    return {cd: (np.array(list(terms)), np.array(list(terms.values())).T)
            for cd, terms in sorted(table.items())}


def _line_factors(n: int, degree: int) -> dict:
    """Per parity pair (p, q), with 0 the unprojected identity basis: the
    union nonzero pattern (i, j) of the projected 1-D factors P_p^T F P_q
    of the lines F in _LINES of `fe1d.cg_line_matrices(n, degree)`, their
    values on it (exact zeros kept) with one row per line, and their
    shape.  P_1 and P_-1 are the dense even and odd bases of
    `fe1d.parity_bases` on the mirror-symmetric line nodes."""
    lines = cg_line_matrices(n, degree)
    m = len(lines["M"])
    even, odd = parity_bases([m], [1.0])
    parity = {1: even.toarray(), -1: odd.toarray(), 0: np.eye(m)}
    factors = {}
    for p, q in ((1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)):
        mats = np.stack([parity[p].T @ lines[f] @ parity[q] for f in _LINES])
        i, j = np.nonzero(np.any(mats != 0.0, axis=0))
        factors[p, q] = (i, j, mats[:, i, j], mats.shape[1:])
    return factors


def _class_layout(m: int, s: tuple) -> tuple:
    """Per component c, its parities along (x, y, z) in reflection class s
    on m nodes per axis, and their basis sizes, (m + 1) // 2 even and
    m // 2 odd; and the offsets of the components' rows in the class
    basis, the last one being the class size."""
    parity = [tuple(-sa if a == c else sa for a, sa in enumerate(s)) for c in range(3)]
    shape = np.array([[(m + 1) // 2 if p > 0 else m // 2 for p in pc] for pc in parity])
    return parity, shape, np.cumsum([0, *shape.prod(axis=1)])


def _stabilizer(m: int, s: tuple) -> np.ndarray:
    """The images of the dofs of class s, on m nodes per axis, under each
    axis permutation that fixes s, one row per element in the order of
    `_IRREPS`.  Every class is fixed by the swap tau of two equal-sign
    axes, {+++} and {---} by all of S3, generated by tau = (x y) and the
    cycle rho.

    A permutation sigma that fixes s maps component c to component
    sigma[c], sigma[a] being the image of axis a, and the parity-basis index
    of a dof along axis a to axis sigma[a].  The 1-D bases are the same along
    every axis, so this is a plain permutation of the class dofs.
    """
    _, shape, offset = _class_layout(m, s)
    # Each dof's component and indices along (x, y, z), x fastest.
    comp = np.repeat(np.arange(3), np.diff(offset))
    local = np.arange(offset[-1]) - offset[comp]
    nx, ny = shape[comp, 0], shape[comp, 1]
    index = np.stack([local % nx, local // nx % ny, local // (nx * ny)])

    def image(sigma):
        sigma = np.array(sigma)
        jx, jy, jz = index[np.argsort(sigma)]
        to = sigma[comp]
        return offset[to] + (jz * shape[to, 1] + jy) * shape[to, 0] + jx

    a, b = next((a, b) for a, b in ((0, 1), (0, 2), (1, 2)) if s[a] == s[b])
    tau = image([b if k == a else a if k == b else k for k in range(3)])
    one = np.arange(tau.size)
    if len(set(s)) > 1:
        return np.stack([one, tau])
    rho = image(_CYCLE)
    return np.stack([one, rho, rho[rho], tau, tau[rho], tau[rho[rho]]])


@dataclass(frozen=True)
class Irrep:
    """One irreducible block of a reflection class: the irrep's dimension
    `dim`, the transpose qt (k x n) of its orthonormal basis q, and the
    transpose yt of its preimage columns y, both CSR.

    Each basis column is q_j = E y_j / |H| with E self-adjoint and
    E^2 = |H| E (`_IRREPS`), so E q_j = |H| q_j.  Every form a of the class
    commutes with the stabilizer H, hence with E, and
    q_i^T a q_j = q_i^T E a y_j / |H| = q_i^T a y_j.  A column of y has one
    or two entries, so one side of the projection q^T a y is a gather of
    one or two rows of a per column.
    """

    dim: int
    qt: scipy.sparse.csr_matrix
    yt: scipy.sparse.csr_matrix

    @property
    def rows(self) -> int:
        return self.qt.shape[0]

    def project(self, rows_of: np.ndarray) -> np.ndarray:
        """q^T a y for a stack of dense class matrices a given by rows,
        rows_of[i, m] being row i of matrix m: a stack (len, k, k)."""
        n, count, _ = rows_of.shape
        ya = self.yt @ rows_of.reshape(n, -1)
        # a y for each matrix a by rows (a is symmetric): row i of every
        # product side by side.
        ay = np.ascontiguousarray(ya.reshape(self.rows, count, n).transpose(2, 1, 0))
        return (self.qt @ ay.reshape(n, -1)).reshape(self.rows, count, self.rows).transpose(1, 0, 2)


def _csr_rows(n: int, at: np.ndarray, w: np.ndarray) -> scipy.sparse.csr_matrix:
    """The CSR matrix (k x n) whose row j has weights w[:, j] at columns
    at[:, j], repeated columns adding up."""
    return scipy.sparse.csr_matrix((w.T.ravel(), at.T.ravel(), np.arange(0, at.size + 1, len(at))),
                                   shape=(at.shape[1], n))


def _irreducible_bases(m: int, s: tuple) -> tuple:
    """The irreducible blocks of class s, on m nodes per axis, under its
    stabilizer H, as `Irrep` records in the order of `_IRREPS`.

    The dofs fall into orbits under H, each named by its smallest dof x.
    Every basis row of `_IRREPS` gives a column q_x = E y_x / c_x per orbit
    where E y_x is nonzero, c_x being its norm, and a preimage column
    |H| y_x / c_x.  Columns of different orbits have disjoint supports, and
    those of one orbit are orthogonal, so q is orthonormal.  An irrep with
    no column is an empty block.
    """
    images = _stabilizer(m, s)
    order, n = images.shape
    members = images[:, np.flatnonzero((images >= np.arange(n)).all(axis=0))]
    # same[g * order + h, x]: g x and h x are the same dof of the orbit of x.
    same = (members[:, None, :] == members[None, :, :]).reshape(order * order, -1)
    free = same.sum(axis=0) == order
    same = same.astype(float)
    bases = []
    for dim, patterns in _IRREPS[order]:
        at, w, pre_at, pre_w = [], [], [], []
        for coef, pre, free_only in patterns:
            coef, pre = np.array(coef, dtype=float), np.array(pre, dtype=float)
            norm2 = np.outer(coef, coef).ravel() @ same
            keep = (norm2 > 0.0) & (free | (not free_only))
            norm = np.sqrt(norm2[keep])
            at.append(members[:, keep])
            w.append(coef[:, None] / norm)
            pre_at.append(members[:2, keep])
            pre_w.append(order * pre[:, None] / norm)
        pre_at, pre_w = np.hstack(pre_at), np.hstack(pre_w)
        # A preimage on x alone gathers one row per column.
        terms = 2 if pre_w[1].any() else 1
        bases.append(Irrep(dim, _csr_rows(n, np.hstack(at), np.hstack(w)),
                           _csr_rows(n, pre_at[:terms], pre_w[:terms])))
    return tuple(bases)


def _global_gram(form: str):
    """Cached property: one form's Gram over the interleaved dofs 3 * node + c."""
    def gram(self) -> scipy.sparse.csr_matrix:
        return self.sparse_blocks(((form,),), None)[0]
    return functools.cached_property(gram)


@dataclass(frozen=True)
class CubeForms:
    """The four quadratic forms of a cube mesh, evaluated from its
    parity-projected 1-D line factors, built on first use.  `l2`, `h1`,
    `stf` and `boundary` are the global Grams, built on first access;
    `dense_blocks` and `sparse_blocks` build sums of forms on one
    reflection class without any global Gram, `irreducible_blocks` the
    sums on each irreducible block of a class under its axis-permutation
    stabilizer, and `reduced_blocks` the probes' pencils on those blocks
    in standard form."""

    mesh: CubeMesh

    l2 = _global_gram("l2")
    h1 = _global_gram("h1")
    stf = _global_gram("stf")
    boundary = _global_gram("boundary")

    @functools.cached_property
    def _factors(self) -> dict:
        """The mesh's `_line_factors`."""
        return _line_factors(self.mesh.n, self.mesh.degree)

    def class_size(self, s: tuple) -> int:
        """Number of dofs in reflection class s = (s_x, s_y, s_z)."""
        return int(_class_layout(self.mesh.line.ndof, s)[2][-1])

    def _evaluate(self, sums: tuple, s: tuple | None):
        """The size of reflection class s = (s_x, s_y, s_z), or of all dofs
        if s is None, and an iterator over its component pairs of the rows,
        columns and values (len(sums), nnz) of the form sums.

        In class s, component c has parity -s_a along axis a == c and s_a
        along the others, and the class basis lists the Kronecker parity
        bases of c = 0, 1, 2 in turn; on all dofs every basis is the
        identity and component c of node k sits at 3 * k + c.  Each
        component pair evaluates all its terms on one Kronecker pattern.
        """
        if s is None:
            parity, offset, stride = [(0, 0, 0)] * 3, range(3), 3
            size = self.mesh.n_dofs
        else:
            parity, _, offset = _class_layout(self.mesh.line.ndof, s)
            stride, size = 1, offset[-1]

        def pairs():
            for (c, d), (triples, coef) in _term_table(sums).items():
                (zi, zj, zv, _), (yi, yj, yv, (ny, my)), (xi, xj, xv, (nx, mx)) = (
                    self._factors[parity[c][a], parity[d][a]] for a in (2, 1, 0))
                outer = (zv[triples[:, 2], :, None, None]
                         * (yv[triples[:, 1], None, :, None] * xv[triples[:, 0], None, None, :]))
                yield (offset[c] + stride * ((zi[:, None, None] * ny + yi[:, None]) * nx + xi).ravel(),
                       offset[d] + stride * ((zj[:, None, None] * my + yj[:, None]) * mx + xj).ravel(),
                       coef @ outer.reshape(len(triples), -1))
        return size, pairs()

    def dense_blocks(self, sums: tuple, s: tuple | None) -> np.ndarray:
        """The form sums on class s (all dofs if None) as a stack of dense
        matrices (len(sums), n, n), scattered straight from the evaluation.
        The stack is a view of rows (n, len(sums), n): row i of every matrix
        side by side, the layout `irreducible_blocks` projects."""
        n, pairs = self._evaluate(sums, s)
        rows_of = np.zeros((n, len(sums), n))
        for rows, cols, vals in pairs:
            rows_of[rows, :, cols] = vals.T
        return rows_of.transpose(1, 0, 2)

    def sparse_blocks(self, sums: tuple, s: tuple | None) -> list:
        """The form sums on class s (all dofs if None) as CSR matrices on
        one sorted pattern.  Exact zeros are not stored, so every stored
        entry is a real coupling."""
        n, pairs = self._evaluate(sums, s)
        rows, cols, vals = (np.concatenate(parts, axis=-1) for parts in zip(*pairs))
        order = np.argsort(rows * n + cols)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        mats = []
        for v in vals:
            mat = scipy.sparse.csr_matrix((v[order], cols[order], indptr), shape=(n, n))
            mat.eliminate_zeros()
            mats.append(mat)
        return mats

    def irreducible_blocks(self, sums: tuple, s: tuple, dense: bool) -> list:
        """The form sums on each irreducible block of class s, as
        (dim, mats) in the order of `_irreducible_bases`: a stack of dense
        matrices if dense, else a list of CSR matrices.  The class blocks
        are built once, dense or sparse, and each is projected as q^T a y.
        Nothing is kept: the blocks and the bases are built on every call."""
        bases = _irreducible_bases(self.mesh.line.ndof, s)
        if not dense:
            mats = self.sparse_blocks(sums, s)
            return [(b.dim, [b.qt @ a @ b.yt.T for a in mats]) for b in bases]
        rows_of = self.dense_blocks(sums, s).transpose(1, 0, 2)
        return [(b.dim, b.project(rows_of)) for b in bases]

    def reduced_blocks(self, pencils: tuple, s: tuple) -> list:
        """The pencils of a pencil set (sums, pencils) on each dense
        irreducible block of class s, in standard form: (dim, stack) in
        the order of `_irreducible_bases`, the stack (len(pencils), k, k)
        read-only, one `_standard_form` per pencil.  They depend on the
        mesh alone, and are kept in `_block_memo` (DECISIONS.md D24), the
        only state this module keeps between calls."""
        key = (self.mesh.n, self.mesh.degree, pencils, s)
        kept = _block_memo.pop(key, None)
        if kept is None:
            sums, pairs = pencils
            kept = tuple((dim, *read_only(np.stack([
                _standard_form(functools.reduce(np.add, (mats[i] for i in a)), mats[b])
                for a, b in pairs]))) for dim, mats in self.irreducible_blocks(sums, s, True))
        _block_memo[key] = kept
        trim_lru(_block_memo, _BLOCK_MEMO_BYTES, lambda blocks: sum(c.nbytes for _, c in blocks))
        return list(kept)


def _standard_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The lower triangle of C = L^-1 a L^-T, b = L L^T SPD, zeros above:
    LAPACK potrf of b, then sygst (itype 1), as inside the sygvd and sygvx
    drivers of `scipy.linalg.eigh(a, b)` (DECISIONS.md D24)."""
    if not len(b):  # the dsygst wrapper takes no empty matrix
        return np.zeros((0, 0))
    lapack = scipy.linalg.lapack
    factor, info = lapack.dpotrf(b, lower=1)
    if info == 0:
        c, info = lapack.dsygst(a, factor, itype=1, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"standard form of a pencil failed: LAPACK info {info}")
    return np.tril(c)


def assemble_cube_forms(mesh: CubeMesh) -> CubeForms:
    """The L2, H1, stf-gradient and boundary forms of a cube mesh."""
    return CubeForms(mesh=mesh)


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
    # The 1-D element rule, shape functions (q, nloc), tensored x fastest.
    v, d, w = (t.T for t in mesh.line.gauss_tabulation)

    def tensor(fx, fy, fz):
        return np.kron(fz, np.kron(fy, fx))

    grads = np.stack([tensor(d, v, v), tensor(v, d, v), tensor(v, v, d)], axis=-1)
    ue = u.reshape(mesh.n_nodes, 3)[mesh.elements]  # (n_elements, nloc, 3)
    # grad u_h (i,j) at quadrature points: sum_l ue[e,l,i] grads[q,l,j]
    S = stf_of_matrix(np.einsum("eli,qlj->eqij", ue, grads))
    return float(np.einsum("q,eqij,eqij->", tensor(w, w, w), S, S))


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


def _check_size(n_dofs: int, sparse: bool = False) -> None:
    """Reject meshes too large for the eigensolves, before assembly."""
    cap, kind = (MAX_SPARSE_DOFS, "sparse") if sparse else (MAX_DENSE_DOFS, "dense")
    if n_dofs > cap:
        raise ValueError(f"mesh has {n_dofs} dofs; {kind} eigensolves support at most {cap}")


def _spectrum(c: np.ndarray) -> np.ndarray:
    """Every eigenvalue of a standard form c (`_standard_form`), ascending:
    LAPACK syevd with the workspace the sygvd wrapper passes it (lwork
    2n + 1, liwork 1), so the bits of `scipy.linalg.eigh(a, b,
    eigvals_only=True)`."""
    w, _, info = scipy.linalg.lapack.dsyevd(c, compute_v=0, lower=1, lwork=2 * len(c) + 1,
                                            liwork=1)
    if info:
        raise np.linalg.LinAlgError(f"syevd failed: LAPACK info {info}")
    return w


def _lowest(c: np.ndarray) -> np.ndarray:
    """The lowest eigenvalue of a non-empty standard form c, as an array of
    one: LAPACK syevx with the workspace of the sygvx query, so the bits of
    `scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=[0, 0])`."""
    lapack = scipy.linalg.lapack
    lwork = int(lapack.dsygvx_lwork(len(c), uplo="L")[0])
    w, _, _, _, info = lapack.dsyevx(c, compute_v=0, range="I", il=1, iu=1, lower=1, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(f"syevx failed: LAPACK info {info}")
    return w[:1]


def korn_constants(forms: CubeForms, n_tail: int = 12) -> KornReport:
    """Solve the three generalized eigenproblems and summarize.

    Pencils: (L2 + stf) vs H1, (boundary + stf) vs H1, and stf vs L2 for
    the kernel count.  Dense solves of every irreducible block of one
    reflection class per axis-permutation orbit; raises for oversized
    meshes.  n_tail must be a non-negative integer.
    """
    inputs.count(n_tail, "n_tail", 0)
    mesh = forms.mesh
    _check_size(mesh.n_dofs)
    # Each block spectrum stands for its class's whole orbit, and for every
    # partner of its irrep; an empty block has none.
    spectra = ([], [], [])
    for s, orbit in _CLASS_ORBITS.items():
        for dim, reduced in forms.reduced_blocks(_KORN_PENCILS, s):
            for out, c in zip(spectra, reduced):
                out.append(np.tile(_spectrum(c), orbit * dim))
    classical, boundary, stf = (np.sort(np.concatenate(s)) for s in spectra)
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
    """Smallest eigenvalue of (boundary + stf) vs H1 only.

    Merges by `fe1d.merge_lowest` (DECISIONS.md D21) the lowest eigenvalue
    of the non-empty irreducible blocks of one reflection class per
    axis-permutation orbit, in `_CLASS_ORBITS` order.  A class of at most
    DENSE_CLASS_ROWS rows is built dense, a larger one sparse.  A block of
    at most DENSE_CLASS_ROWS rows, or of one, which ARPACK cannot take, is
    solved densely for its lowest eigenvalue alone, in standard form (a
    dense class's blocks are kept so, D24); a larger one by
    shift-invert Lanczos about 0, converged to machine precision from a
    fixed-seed start vector per block.  Either way repeated calls return
    the same bits, and the result agrees with a dense solve of the unsplit
    pencil to roundoff.
    """
    _check_size(mesh.n_dofs, sparse=True)
    forms = assemble_cube_forms(mesh)
    low = np.empty(0)
    for s in _CLASS_ORBITS:
        if forms.class_size(s) <= DENSE_CLASS_ROWS:
            built = [(c, None) for _, (c,) in forms.reduced_blocks(_BOUNDARY_PENCILS, s)]
        else:
            # A sparse class's blocks above DENSE_CLASS_ROWS rows stay CSR;
            # the others are made dense pairs, a one-row block whatever the
            # threshold, since ARPACK cannot take it.
            built = [(pencil, h1) if h1.shape[0] > max(DENSE_CLASS_ROWS, 1)
                     else (pencil.toarray(), h1.toarray())
                     for _, (pencil, h1) in forms.irreducible_blocks(_BOUNDARY_SUMS, s, False)]
        index = [j for j, (pencil, _) in enumerate(built) if pencil.shape[0]]
        blocks = [built[j] for j in index]
        # Seed streams: the index of s among all 8 classes, x fastest, and
        # the block's index in the class.
        k = sum(2 ** a for a, sa in enumerate(s) if sa < 0)

        def solve(i, pencil, h1):
            if h1 is None:
                return _lowest(pencil)
            if not scipy.sparse.issparse(pencil):
                return _lowest(_standard_form(pencil, h1))
            v0 = np.random.default_rng((_START_SEED, k, index[i])).standard_normal(h1.shape[0])
            return scipy.sparse.linalg.eigsh(pencil, k=1, M=h1, sigma=0.0, tol=0.0, v0=v0,
                                             return_eigenvectors=False)

        low = merge_lowest(low, blocks, 1, solve)
    return float(low[0])


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
    t, wt = mesh.line.mesh.quadrature(n_quad)
    a, b = np.meshgrid(t, t, indexing="ij")
    pts = []
    for axis in range(3):
        for side in (0.0, 1.0):
            face = np.empty(a.shape + (3,))
            face[..., axis] = side
            face[..., [ax for ax in range(3) if ax != axis]] = np.stack([a, b], axis=-1)
            pts.append(face.reshape(-1, 3))
    return np.concatenate(pts), np.tile(np.outer(wt, wt).ravel(), 6)


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
