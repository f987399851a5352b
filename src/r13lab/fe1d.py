"""One-dimensional finite-element pieces shared by the slab and cube solvers.

Both discretizations are built from the same reference interval [0, 1]:
a Gauss rule, a Lagrange tabulator, a scatter that repeats one shared
element matrix over every element of a uniform mesh, and the global
matrices of such a mesh, the Kronecker factors of the cube forms.
"""

from __future__ import annotations

import numpy as np


def gauss01(q: int):
    """(points, weights) of the q-point Gauss-Legendre rule on [0, 1]."""
    pts, wts = np.polynomial.legendre.leggauss(q)
    return 0.5 * (pts + 1.0), 0.5 * wts


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


def element_coo(dofs1: np.ndarray, dofs2: np.ndarray, elem: np.ndarray):
    """COO triplets (rows, cols, vals) of one element matrix on every element.

    dofs1 (n_elements, n1) and dofs2 (n_elements, n2) hold the global row
    and column dofs of each element; elem has shape (n1, n2).
    """
    rows = np.repeat(dofs1, dofs2.shape[1], axis=1).ravel()
    cols = np.tile(dofs2, (1, dofs1.shape[1])).ravel()
    vals = np.tile(elem.ravel(), len(dofs1))
    return rows, cols, vals


def cg_line_matrices(n: int, degree: int) -> dict:
    """Dense global matrices of degree-p continuous Lagrange elements on a
    uniform n-element mesh of [0, 1], nodes left to right: "M" mass, "K"
    stiffness, "G" the derivative coupling G[i, j] = int phi_i' phi_j, "GT"
    its transpose, and "T" the endpoint trace phi_i(0) phi_j(0) + phi_i(1) phi_j(1).

    The p + 1 Gauss points are summed one by one, not by a BLAS product, so
    products that cancel exactly, such as those of the zero diagonal of G
    at interior nodes, give exact zeros.
    """
    m = n * degree + 1
    x, w = gauss01(degree + 1)
    v, d = lagrange(np.linspace(0.0, 1.0, degree + 1), x)
    dofs = np.arange(n)[:, None] * degree + np.arange(degree + 1)

    def assemble(a, b):
        out = np.zeros((m, m))
        rows, cols, vals = element_coo(dofs, dofs, (a[:, None] * b * w).sum(axis=-1))
        np.add.at(out, (rows, cols), vals)
        return out

    g = assemble(d, v)
    return {"M": assemble(v, v) / n, "K": assemble(d, d) * n, "G": g, "GT": g.T,
            "T": np.diag(np.r_[1.0, np.zeros(m - 2), 1.0])}
