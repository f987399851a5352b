"""Shared 1-D finite-element toolkit: Gauss rule, Lagrange basis, scatter."""

import numpy as np
import pytest
import scipy.sparse as sp

from r13lab.fe1d import element_coo, gauss01, lagrange


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_gauss01_exact_to_degree_2q_minus_1(q):
    pts, wts = gauss01(q)
    assert np.all((pts > 0.0) & (pts < 1.0))
    for k in range(2 * q):
        assert wts @ pts ** k == pytest.approx(1.0 / (k + 1), rel=1e-14)
    # One degree higher is no longer integrated exactly.
    assert abs(wts @ pts ** (2 * q) - 1.0 / (2 * q + 1)) > 1e-6


NODE_SETS = {
    "equispaced-1": np.linspace(0.0, 1.0, 2),
    "equispaced-2": np.linspace(0.0, 1.0, 3),
    "gauss-1": gauss01(1)[0],
    "gauss-2": gauss01(2)[0],
    "gauss-3": gauss01(3)[0],
}


@pytest.mark.parametrize("name", NODE_SETS)
def test_lagrange_basis_properties(name):
    nodes = NODE_SETS[name]
    vals, ders = lagrange(nodes, nodes)
    np.testing.assert_allclose(vals, np.eye(len(nodes)), atol=1e-14)

    x = np.linspace(0.0, 1.0, 11)
    vals, ders = lagrange(nodes, x)
    assert vals.shape == ders.shape == (len(nodes), x.size)
    np.testing.assert_allclose(vals.sum(axis=0), 1.0, atol=1e-14)
    np.testing.assert_allclose(ders.sum(axis=0), 0.0, atol=1e-12)
    if len(nodes) > 1:
        # Linear functions are reproduced, derivative included.
        np.testing.assert_allclose(nodes @ vals, x, atol=1e-14)
        np.testing.assert_allclose(nodes @ ders, 1.0, atol=1e-12)


def test_element_coo_matches_per_element_loop():
    dofs1 = np.array([[0, 1, 2], [2, 3, 4]])
    dofs2 = np.array([[0, 1], [1, 2]])
    elem = np.arange(1.0, 7.0).reshape(3, 2)
    rows, cols, vals = element_coo(dofs1, dofs2, elem)
    got = sp.coo_matrix((vals, (rows, cols)), shape=(5, 3)).toarray()

    expect = np.zeros((5, 3))
    for d1, d2 in zip(dofs1, dofs2):
        expect[np.ix_(d1, d2)] += elem
    np.testing.assert_array_equal(got, expect)
