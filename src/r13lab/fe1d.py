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
    evaluation; node counts here never exceed three.
    """
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(nodes)
    vals = np.ones((n, x.size))
    ders = np.zeros((n, x.size))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            w = (x - nodes[j]) / (nodes[i] - nodes[j])
            term = np.ones_like(x) / (nodes[i] - nodes[j])
            for l in range(n):
                if l in (i, j):
                    continue
                term *= (x - nodes[l]) / (nodes[i] - nodes[l])
            ders[i] += term
            vals[i] *= w
    return vals, ders


def element_coo(dofs1: np.ndarray, dofs2: np.ndarray, elem: np.ndarray):
    """COO triplets (rows, cols, vals) of one element matrix on every element.

    dofs1 (n_elements, n1) and dofs2 (n_elements, n2) hold the global row
    and column dofs of each element; elem has shape (n1, n2).
    """
    rows = np.repeat(dofs1, dofs2.shape[1], axis=1).ravel()
    cols = np.tile(dofs2, (1, dofs1.shape[1])).ravel()
    vals = np.tile(elem.ravel(), len(dofs1))
    return rows, cols, vals
