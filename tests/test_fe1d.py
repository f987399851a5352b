"""Shared 1-D finite-element toolkit: Gauss rule, Lagrange basis, scatter,
global line matrices."""

import numpy as np
import pytest
import scipy.sparse as sp

from r13lab.fe1d import cg_line_matrices, element_coo, gauss01, lagrange


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


def lagrange_loop(nodes, x):
    """Product-rule loops over the nodes: the reference for lagrange."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(nodes)
    vals = np.ones((n, x.size))
    ders = np.zeros((n, x.size))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            term = np.ones_like(x) / (nodes[i] - nodes[j])
            for l in range(n):
                if l not in (i, j):
                    term *= (x - nodes[l]) / (nodes[i] - nodes[l])
            ders[i] += term
            vals[i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
    return vals, ders


@pytest.mark.parametrize("name", NODE_SETS)
def test_lagrange_matches_loop_bit_for_bit(name):
    # At most three nodes: every product and sum has at most two real
    # factors or terms, so the vectorized form has the loops' exact bits.
    nodes = NODE_SETS[name]
    rng = np.random.default_rng(17)
    for x in (0.3, nodes, np.linspace(0.0, 1.0, 11), 3.0 * rng.random(200) - 1.0):
        got = lagrange(nodes, x)
        expect = lagrange_loop(nodes, x)
        for g, e in zip(got, expect):
            assert g.shape == e.shape
            assert np.array_equal(g.view(np.int64), e.view(np.int64))


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


@pytest.mark.parametrize("n,degree", [(1, 1), (3, 1), (1, 2), (3, 2)])
def test_cg_line_matrices_integrate_polynomials(n, degree):
    lines = cg_line_matrices(n, degree)
    m = n * degree + 1
    one = np.ones(m)
    x = np.linspace(0.0, 1.0, m)  # nodal values of the identity
    ends = np.zeros(m)
    ends[[0, -1]] = [-1.0, 1.0]
    assert one @ lines["M"] @ one == pytest.approx(1.0, rel=1e-14)
    assert x @ lines["M"] @ x == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert x @ lines["K"] @ x == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(lines["K"] @ one, 0.0, atol=1e-12)
    # G[i, j] = int phi_i' phi_j: integration by parts gives
    # G + G^T = diag(-1, 0, ..., 0, 1), and G 1 = phi(1) - phi(0).
    np.testing.assert_allclose(lines["G"] + lines["G"].T, np.diag(ends), atol=1e-14)
    np.testing.assert_allclose(lines["G"] @ one, ends, atol=1e-14)
    assert np.array_equal(lines["GT"], lines["G"].T)
    # Cancellations are exact, so interior nodes keep a zero diagonal.
    assert np.all(np.diag(lines["G"])[1:-1] == 0.0)
    assert np.array_equal(lines["T"], np.diag(np.abs(ends)))
