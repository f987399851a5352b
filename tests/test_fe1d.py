"""Shared 1-D finite-element toolkit: mesh and spaces, Gauss rule, Lagrange
basis, element matrices, scatter, mirror parity bases, global line
matrices, the Cholesky certificate of a symmetric pencil, and the block
loop of the spectral probes."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from r13lab import fe1d
from r13lab.fe1d import (
    ScalarSpace,
    SlabMesh,
    cg_line_matrices,
    element_coo,
    element_matrices,
    gauss01,
    lagrange,
    merge_lowest,
    parity_bases,
    pencil_above,
)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_gauss01_exact_to_degree_2q_minus_1(q):
    pts, wts = gauss01(q)
    assert np.all((pts > 0.0) & (pts < 1.0))
    for k in range(2 * q):
        assert wts @ pts ** k == pytest.approx(1.0 / (k + 1), rel=1e-14)
    # One degree higher is no longer integrated exactly.
    assert abs(wts @ pts ** (2 * q) - 1.0 / (2 * q + 1)) > 1e-6


def test_gauss01_shares_one_read_only_rule_per_q():
    pts, wts = gauss01(3)
    again = gauss01(3)
    assert again[0] is pts and again[1] is wts
    for arr in (pts, wts):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


@pytest.mark.parametrize("kind", ["cg", "dg"])
def test_gauss_tabulation_is_read_only(kind):
    # Built once per space and read by every element-matrix build.
    space = ScalarSpace(SlabMesh(4, 2), kind)
    assert space.gauss_tabulation is space.gauss_tabulation
    for arr in space.gauss_tabulation:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1.0


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


def test_cg_line_matrices_are_shared_and_read_only():
    # Built once per (n, degree) and handed to every caller, so no caller
    # can edit another's matrices.
    lines = cg_line_matrices(3, 2)
    assert cg_line_matrices(3, 2) is lines
    with pytest.raises(TypeError):
        lines["M"] = np.eye(7)
    for arr in lines.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def test_mesh_rejects_counts_beyond_exact_float_nodes():
    # Node and point arithmetic is in floats, exact up to 2**53 nodes.
    assert SlabMesh(2**53 - 1, 1).n_elements == 2**53 - 1
    for n, degree in ((2**53, 1), (2**52, 2), (10**20, 2)):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            SlabMesh(n, degree)


@pytest.mark.parametrize("n_elements,degree", [
    (4, True), (True, 2), (np.True_, 2), (2.5, 2), (4, 2.0), (np.float64(4.0), 2),
    ("4", 2), (None, 2), (0, 2), (-3, 1), (4, 0), (4, 3)])
def test_mesh_rejects_bad_counts(n_elements, degree):
    with pytest.raises(ValueError, match="n_elements|degree"):
        SlabMesh(n_elements, degree)


def test_mesh_accepts_numpy_integers():
    mesh = SlabMesh(np.int64(4), np.int32(2))
    assert ScalarSpace(mesh, "cg").ndof == 9


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_mesh_quadrature_exact_to_degree_2q_minus_1(n, q):
    mesh = SlabMesh(n, 2)
    x, w = mesh.quadrature(q)
    assert x.shape == w.shape == (n * q,)
    assert np.all(np.diff(x) > 0.0) and x[0] > 0.0 and x[-1] < 1.0
    for k in range(2 * q):
        assert w @ x ** k == pytest.approx(1.0 / (k + 1), rel=1e-13)
    assert np.array_equal(x, mesh.points(gauss01(q)[0]).ravel())


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("row_kind,col_kind", [("cg", "cg"), ("cg", "dg"),
                                               ("dg", "cg"), ("dg", "dg")])
def test_element_matrices_match_per_pair_einsum(n, degree, row_kind, col_kind):
    # The per-pair reference of tests/test_slab.py::_pair_by_pair_csr.
    mesh = SlabMesh(n, degree)
    rows, cols = ScalarSpace(mesh, row_kind), ScalarSpace(mesh, col_kind)
    qpts, qwts = gauss01(degree + 1)
    w = qwts * mesh.h
    (v1, d1), (v2, d2) = rows.tabulate(qpts), cols.tabulate(qpts)
    expect = [np.einsum("iq,jq,q->ij", x, y, w) for x in (v1, d1) for y in (v2, d2)]
    got = element_matrices(rows, cols)
    assert got.shape == (4, rows.n_local, cols.n_local)
    for g, e in zip(got, expect):
        assert g.tobytes() == e.tobytes()
    # The mass matrix integrates the partition of unity over one element.
    assert got[0].sum() == pytest.approx(mesh.h, rel=1e-14)


def mirror(sizes, signs):
    """Dense signed permutation that reverses each block and applies its sign."""
    ends = np.cumsum(sizes)
    out = np.zeros((ends[-1], ends[-1]))
    for start, end, sign in zip(ends - sizes, ends, signs):
        out[start:end, start:end] = sign * np.eye(end - start)[::-1]
    return out


@pytest.mark.parametrize("sizes,signs", [
    ([1], [1.0]), ([1], [-1.0]), ([4], [1.0]), ([5], [-1.0]),
    ([3, 4, 1, 2, 5], [1.0, -1.0, -1.0, 1.0, 1.0]),
    ([2, 7, 6, 3], [-1.0, -1.0, 1.0, -1.0])])
def test_parity_bases_are_orthonormal_parity_vectors(sizes, signs):
    even, odd = parity_bases(sizes, signs)
    refl = mirror(np.array(sizes), signs)
    basis = np.hstack([even.toarray(), odd.toarray()])
    assert basis.shape == (sum(sizes), sum(sizes))
    np.testing.assert_allclose(basis.T @ basis, np.eye(sum(sizes)), rtol=0, atol=1e-15)
    assert np.array_equal(refl @ even.toarray(), even.toarray())
    assert np.array_equal(refl @ odd.toarray(), -odd.toarray())
    for q in (even, odd):
        first = np.argmax(q.toarray() != 0.0, axis=0)
        assert np.all(np.diff(first) > 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 9])
def test_single_block_parity_bases_match_dense_grid_bases(m):
    # Even: (e_i + e_{m-1-i}) / sqrt(2) for i < m // 2, then the middle
    # node if m is odd; odd: (e_i - e_{m-1-i}) / sqrt(2).
    e, half = np.eye(m), m // 2
    low, high = e[:, :half], e[:, ::-1][:, :half]
    expect_even = np.hstack([np.sqrt(0.5) * (low + high), e[:, half:m - half]])
    expect_odd = np.sqrt(0.5) * (low - high)
    even, odd = parity_bases([m], [1.0])
    assert np.array_equal(even.toarray(), expect_even)
    assert np.array_equal(odd.toarray(), expect_odd)


@pytest.mark.parametrize("n,degree,shift", [(5, 2, 0.0), (8, 1, 0.0), (4, 2, -30.0)])
def test_pencil_above_brackets_the_lowest_eigenvalue(n, degree, shift):
    # (K + T + shift M, M): stiffness plus endpoint trace against mass, SPD
    # unshifted and indefinite with a negative lowest eigenvalue shifted.
    lines = cg_line_matrices(n, degree)
    a, g = lines["K"] + lines["T"] + shift * lines["M"], lines["M"]
    a0, g0 = a.copy(), g.copy()
    lam = scipy.linalg.eigh(a, g, eigvals_only=True)[0]
    assert (lam < 0.0) == (shift < 0.0)
    step = 1e-9 * abs(lam)
    assert pencil_above(a, g, lam - step)
    assert not pencil_above(a, g, lam + step)
    assert not pencil_above(a, g, np.nan)
    bad = a.copy()
    bad[0, -1] = bad[-1, 0] = np.nan
    assert not pencil_above(bad, g, lam - step)
    assert np.array_equal(a, a0) and np.array_equal(g, g0)


def _block(rng, n, shift):
    """A random symmetric pencil (a, g) of n rows, g SPD, whose eigenvalues
    all lie above shift."""
    x, y = rng.standard_normal((2, n, n))
    g = x @ x.T + n * np.eye(n)
    return y @ y.T + shift * g, g


def _spectrum(a, g):
    if sp.issparse(a):
        a, g = a.toarray(), g.toarray()
    return scipy.linalg.eigh(a, g, eigvals_only=True)


def _recording(solved):
    """A solve for merge_lowest that returns a block's whole spectrum and
    records the block's index."""
    def solve(i, a, g):
        solved.append(i)
        return _spectrum(a, g)
    return solve


def _union(blocks, keep, low=()):
    return np.sort(np.concatenate([low, *(_spectrum(a, g) for a, g in blocks)]))[:keep]


# Blocks of 1 to 6 rows at shifts from 0 to 60: the low ones hold every
# kept value, the high ones lie far above them.
SIZES_SHIFTS = [(4, 20.0), (3, 0.0), (6, 60.0), (1, 5.0), (5, 0.5), (2, 40.0)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("keep", [1, 3, 6, 21])
@pytest.mark.parametrize("sparse_at", [None, 1, 2])
def test_merge_lowest_keeps_the_lowest_of_every_block_spectrum(seed, keep, sparse_at):
    rng = np.random.default_rng(seed)
    blocks = [_block(rng, n, shift) for n, shift in SIZES_SHIFTS]
    if sparse_at is not None:
        blocks[sparse_at] = tuple(sp.csr_matrix(m) for m in blocks[sparse_at])
    solved = []
    low = merge_lowest(np.empty(0), blocks, keep, _recording(solved))
    assert low.tobytes() == _union(blocks, keep).tobytes()
    assert len(set(solved)) == len(solved)
    if sparse_at is not None:
        assert sparse_at in solved
    if keep >= sum(n for n, _ in SIZES_SHIFTS):
        assert sorted(solved) == list(range(len(blocks)))


def test_merge_lowest_solves_twins_once():
    rng = np.random.default_rng(3)
    low, high = _block(rng, 3, 0.0), _block(rng, 4, 50.0)
    twin = tuple(m.copy() for m in low)
    blocks = [high, low, twin]
    solved = []
    out = merge_lowest(np.empty(0), blocks, 6, _recording(solved))
    # The twin's values count twice, from one solve, and fill the six kept
    # values, so the high block is certified.
    assert solved == [1]
    assert out.tobytes() == _union(blocks, 6).tobytes()
    assert out.tobytes() == np.sort(np.tile(_spectrum(*low), 2)).tobytes()


def test_merge_lowest_certifies_a_dense_block_above_the_kept_values(monkeypatch):
    rng = np.random.default_rng(4)
    blocks = [_block(rng, 3, 30.0), _block(rng, 4, 0.0), _block(rng, 3, 30.0)]
    certified, solved = [], []
    above = fe1d.pencil_above

    def certifying(a, g, tau):
        certified.append(above(a, g, tau))
        return certified[-1]

    monkeypatch.setattr(fe1d, "pencil_above", certifying)
    out = merge_lowest(np.empty(0), blocks, 2, _recording(solved))
    assert solved == [1]
    assert certified == [True, True]
    assert out.tobytes() == _union(blocks, 2).tobytes()
    # A CSR block far above the kept values is solved all the same, with no
    # certificate tried.
    certified.clear()
    solved.clear()
    blocks[2] = tuple(sp.csr_matrix(m) for m in blocks[2])
    assert merge_lowest(np.empty(0), blocks, 2, _recording(solved)).tobytes() == out.tobytes()
    assert sorted(solved) == [1, 2]
    assert certified == [True]
    # A Rayleigh bound at or below the kept values, here the lowest
    # eigenvalue 1.5 of a diagonal pencil below 2, rules the certificate
    # out, so it is not tried.
    certified.clear()
    solved.clear()
    diagonal = [(np.diag(d), np.eye(len(d))) for d in ([1.0, 2.0, 3.0], [1.5, 10.0])]
    assert merge_lowest(np.empty(0), diagonal, 2, _recording(solved)).tolist() == [1.0, 1.5]
    assert solved == [0, 1]
    assert certified == []


def test_merge_lowest_carries_low_across_calls():
    rng = np.random.default_rng(5)
    blocks = [_block(rng, n, shift) for n, shift in SIZES_SHIFTS]
    solved = []
    low = merge_lowest(np.empty(0), blocks[:3], 4, _recording(solved))
    low = merge_lowest(low, blocks[3:], 4, _recording(solved))
    assert low.tobytes() == _union(blocks, 4).tobytes()
    # Values already kept below every block leave every dense block
    # certified and unsolved.
    solved.clear()
    kept = np.array([-2.0, -1.0, -0.5, -0.25])
    assert merge_lowest(kept, blocks, 4, _recording(solved)).tobytes() == kept.tobytes()
    assert solved == []
    # Fewer than keep values carried in: the lowest block is still solved.
    assert merge_lowest(kept[:3], blocks, 4, _recording(solved)).tobytes() == _union(
        blocks, 4, kept[:3]).tobytes()
    assert solved == [1]


def test_trim_lru_drops_an_entry_above_the_budget_alone():
    # Sizes stand for the values' bytes.  The entry too large for the
    # budget goes and the older ones stay; then the oldest go first.
    memo = {"a": 3, "b": 4, "big": 11, "c": 2}
    fe1d.trim_lru(memo, 10, lambda size: size)
    assert list(memo) == ["a", "b", "c"]
    fe1d.trim_lru(memo, 6, lambda size: size)
    assert list(memo) == ["b", "c"]
