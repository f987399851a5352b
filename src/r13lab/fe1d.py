"""One-dimensional finite-element pieces shared by the slab and cube solvers.

Both discretizations are built from the same reference interval [0, 1]:
a Gauss rule, a Lagrange tabulator, and a scatter that repeats one shared
element matrix over every element of a uniform mesh.
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
