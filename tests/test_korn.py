"""Conformal Killing fields, cube FEM forms, and Korn eigenvalue probes."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from r13lab import fe1d, korn
from r13lab.korn import (
    CKField,
    assemble_cube_forms,
    boundary_korn_eigenvalue,
    build_cube_mesh,
    ck_boundary_gram,
    ck_eval,
    ck_field_from_coefficients,
    ck_jacobian,
    ck_vanishing_check,
    interpolate,
    korn_constants,
    random_ck_field,
    stf_energy,
    stf_of_matrix,
)

# The degree-1 mesh cannot represent the quadratic conformal Killing
# fields, so its stf kernel is the affine subspace only.
AFFINE_CK_DIM = 7
CK_DIM = 10

# Exact Rayleigh quotients of the centered rotation field on the unit
# cube: ||u||^2 = 1/6, ||grad u||^2 = 2, ||u||_b^2 = 5/3, stf grad u = 0.
ROTATION_CLASSICAL = 1.0 / 13.0
ROTATION_BOUNDARY = 10.0 / 13.0


@pytest.fixture(scope="module")
def n2_deg2():
    mesh = build_cube_mesh(2, 2)
    return mesh, assemble_cube_forms(mesh)


@pytest.fixture(scope="module")
def report_deg2():
    forms = assemble_cube_forms(build_cube_mesh(2, 2))
    return korn_constants(forms)


@pytest.fixture(scope="module")
def report_deg1():
    forms = assemble_cube_forms(build_cube_mesh(2, 1))
    return korn_constants(forms)


@pytest.fixture(scope="module")
def coarse_mesh():
    return build_cube_mesh(2, 1)


def zero_field():
    return CKField(a=np.zeros(3), lam=0.0, A=np.zeros((3, 3)), b=np.zeros(3))


def constant_field(direction):
    return CKField(a=np.asarray(direction, dtype=float), lam=0.0,
                   A=np.zeros((3, 3)), b=np.zeros(3))


class TestCKField:
    def test_skew_required(self):
        with pytest.raises(ValueError, match="skew"):
            CKField(a=np.zeros(3), lam=0.0, A=np.eye(3), b=np.zeros(3))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="3-vector"):
            CKField(a=np.zeros(4), lam=0.0, A=np.zeros((3, 3)), b=np.zeros(3))
        with pytest.raises(ValueError, match="3x3"):
            CKField(a=np.zeros(3), lam=0.0, A=np.zeros((2, 2)), b=np.zeros(3))

    def test_coefficient_roundtrip(self):
        rng = np.random.default_rng(42)
        coeffs = rng.standard_normal(10)
        f = ck_field_from_coefficients(coeffs)
        assert np.allclose(f.coefficient_vector(), coeffs)

    def test_bad_coefficient_length(self):
        with pytest.raises(ValueError, match="length 10"):
            ck_field_from_coefficients(np.zeros(9))

    def test_random_field_normalized(self):
        rng = np.random.default_rng(0)
        f = random_ck_field(rng)
        assert np.linalg.norm(f.coefficient_vector()) == pytest.approx(1.0)


class TestCKEval:
    def test_constant_part(self):
        f = constant_field([1.0, 2.0, 3.0])
        x = np.array([[0.3, 0.1, 0.9], [0.0, 0.0, 0.0]])
        assert np.allclose(ck_eval(f, x), [[1, 2, 3], [1, 2, 3]])

    def test_quadratic_part_on_axis(self):
        # b = e1 at x = e1: 2(b.x)x - |x|^2 b = 2 e1 - e1 = e1.
        f = CKField(a=np.zeros(3), lam=0.0, A=np.zeros((3, 3)),
                    b=np.array([1.0, 0.0, 0.0]))
        out = ck_eval(f, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        f = random_ck_field(rng)
        x = rng.standard_normal((6, 3))
        J = ck_jacobian(f, x)
        eps = 1e-6
        for j in range(3):
            dx = np.zeros(3)
            dx[j] = eps
            fd = (ck_eval(f, x + dx) - ck_eval(f, x - dx)) / (2 * eps)
            assert np.allclose(J[..., j], fd, atol=1e-8)

    def test_analytic_stf_gradient_vanishes(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            f = random_ck_field(rng)
            x = 2.0 * rng.random((8, 3)) - 0.5
            S = stf_of_matrix(ck_jacobian(f, x))
            assert np.abs(S).max() <= 1e-12

    def test_stf_of_matrix_properties(self):
        rng = np.random.default_rng(3)
        J = rng.standard_normal((4, 3, 3))
        S = stf_of_matrix(J)
        assert np.allclose(S, np.swapaxes(S, -1, -2))
        assert np.allclose(np.trace(S, axis1=-2, axis2=-1), 0.0)
        # idempotent on its own range
        assert np.allclose(stf_of_matrix(S), S)


class TestCubeMesh:
    def test_validation(self):
        with pytest.raises(ValueError, match="degree"):
            build_cube_mesh(2, 3)
        with pytest.raises(ValueError, match="at least 1"):
            build_cube_mesh(0, 1)

    @pytest.mark.parametrize("n,degree", [(True, 1), (2, True), (2.0, 1), (2.5, 1),
                                          (2, 1.0), ("2", 1), (-1, 1)])
    def test_rejects_bad_counts(self, n, degree):
        with pytest.raises(ValueError, match="n_elements|degree"):
            build_cube_mesh(n, degree)

    def test_accepts_numpy_integers(self):
        assert build_cube_mesh(np.int64(2), np.int32(1)).n_dofs == 3 * 3 ** 3

    def test_oversized_mesh_is_rejected_before_allocation(self):
        # 1,594,323 dofs: the node and element tables alone would take
        # tens of MiB, so they must wait for first use.
        tracemalloc.start()
        try:
            mesh = build_cube_mesh(40, 2)
            with pytest.raises(ValueError, match="dense eigensolves"):
                korn._check_size(mesh.n_dofs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.n_dofs == 3 * 81 ** 3
        assert peak < 2 ** 20

    def test_node_counts(self):
        mesh = build_cube_mesh(3, 2)
        assert mesh.n_nodes == 7 ** 3
        assert mesh.n_dofs == 3 * 7 ** 3
        assert mesh.elements.shape == (27, 27)

    def test_nodes_cover_unit_cube(self):
        mesh = build_cube_mesh(2, 1)
        assert np.allclose(mesh.nodes.min(axis=0), 0.0)
        assert np.allclose(mesh.nodes.max(axis=0), 1.0)

    def test_element_nodes_within_element(self):
        mesh = build_cube_mesh(2, 2)
        h = mesh.h
        for e in range(mesh.elements.shape[0]):
            xyz = mesh.nodes[mesh.elements[e]]
            assert np.all(xyz.max(axis=0) - xyz.min(axis=0) <= h + 1e-12)


class TestAssembledForms:
    def test_meshes_of_one_size_share_read_only_line_factors(self):
        # The parity-projected line factors are built once per (n, degree).
        first, second = (assemble_cube_forms(build_cube_mesh(3, 2)) for _ in range(2))
        assert first.lines is second.lines and first._factors is second._factors
        with pytest.raises(TypeError):
            first._factors[1, 1] = None
        for *arrays, _ in first._factors.values():
            assert not any(arr.flags.writeable for arr in arrays)

    def test_constant_field_energies(self, n2_deg2):
        mesh, forms = n2_deg2
        u = interpolate(mesh, lambda x: np.tile([1.0, 0.0, 0.0], (len(x), 1)))
        assert u @ (forms.l2 @ u) == pytest.approx(1.0, abs=1e-12)
        assert u @ (forms.boundary @ u) == pytest.approx(6.0, abs=1e-12)
        assert u @ (forms.stf @ u) == pytest.approx(0.0, abs=1e-12)
        assert u @ (forms.h1 @ u) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_field_in_kernel(self, n2_deg2):
        mesh, forms = n2_deg2
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        u = interpolate(mesh, lambda x: x @ A.T)
        assert u @ (forms.stf @ u) == pytest.approx(0.0, abs=1e-12)
        assert stf_energy(mesh, u) <= 1e-28

    def test_linear_shear_energy(self, n2_deg2):
        # u = (x1, 0, 0): stf grad = diag(2/3, -1/3, -1/3), energy 2/3.
        mesh, forms = n2_deg2
        u = interpolate(mesh, lambda x: np.column_stack(
            [x[:, 0], np.zeros(len(x)), np.zeros(len(x))]))
        assert u @ (forms.stf @ u) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert stf_energy(mesh, u) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_quadratic_field_exact_integrals(self, n2_deg2):
        # u = (x1^2, 0, 0): exact energies on the unit cube.
        mesh, forms = n2_deg2
        u = interpolate(mesh, lambda x: np.column_stack(
            [x[:, 0] ** 2, np.zeros(len(x)), np.zeros(len(x))]))
        assert u @ (forms.stf @ u) == pytest.approx(8.0 / 9.0, rel=1e-12)
        assert u @ (forms.h1 @ u) == pytest.approx(23.0 / 15.0, rel=1e-12)
        assert u @ (forms.boundary @ u) == pytest.approx(9.0 / 5.0, rel=1e-12)

    def test_symmetry_and_psd(self, n2_deg2):
        _, forms = n2_deg2
        for mat in (forms.l2, forms.h1, forms.stf, forms.boundary):
            dense = mat.toarray()
            assert np.abs(dense - dense.T).max() <= 1e-13
            eigs = np.linalg.eigvalsh(dense)
            assert eigs[0] >= -1e-12

    def test_h1_dominates_parts(self, n2_deg2):
        # ||stf grad u||^2 <= ||grad u||^2 <= ||u||_1^2 for every dof vector.
        mesh, forms = n2_deg2
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.standard_normal(mesh.n_dofs)
            assert u @ (forms.stf @ u) <= u @ (forms.h1 @ u) + 1e-12

    def test_stf_energy_matches_matrix_for_generic_vectors(self, n2_deg2):
        mesh, forms = n2_deg2
        rng = np.random.default_rng(23)
        u = rng.standard_normal(mesh.n_dofs)
        assert stf_energy(mesh, u) == pytest.approx(u @ (forms.stf @ u), rel=1e-12)

    @pytest.mark.parametrize("n,degree", [(2, 1), (1, 2)])
    def test_grams_store_only_real_couplings(self, n, degree):
        # Scalar Grams couple each vector component with itself only; no
        # stored entry of any Gram is an explicit zero.
        forms = assemble_cube_forms(build_cube_mesh(n, degree))
        for mat in (forms.l2, forms.h1, forms.stf, forms.boundary):
            assert mat.nnz == np.count_nonzero(mat.data)
        rows, cols = forms.l2.nonzero()
        assert np.array_equal(rows % 3, cols % 3)

    @pytest.mark.parametrize("n,degree", [(2, 1), (3, 1), (2, 2)])
    def test_stf_cross_couplings_are_structural(self, n, degree):
        # Block (c, d != c) of the stf Gram pairs a derivative along c with
        # one along d.  int phi_i' phi_i = 0 at every interior 1-D node, so a
        # node pair that shares an interior grid index on axis c or d does
        # not couple: no such entry is stored, not even as roundoff (D17).
        mesh = build_cube_mesh(n, degree)
        stf = assemble_cube_forms(mesh).stf.tocoo()
        m = n * degree + 1
        grid_i, grid_j = (np.stack([(k // 3) // m ** a % m for a in range(3)])
                          for k in (stf.row, stf.col))
        coupled = (grid_i != grid_j) | (grid_i == 0) | (grid_i == m - 1)
        c, d, k = stf.row % 3, stf.col % 3, np.arange(stf.nnz)
        cross = c != d
        assert cross.any()
        assert np.all(coupled[c, k][cross] & coupled[d, k][cross])

    def test_interpolate_validates_shape(self, n2_deg2):
        mesh, _ = n2_deg2
        with pytest.raises(ValueError, match="3-vector per node"):
            interpolate(mesh, lambda x: np.zeros((len(x), 2)))

    def test_stf_energy_validates_length(self, n2_deg2):
        mesh, _ = n2_deg2
        with pytest.raises(ValueError, match="wrong length"):
            stf_energy(mesh, np.zeros(7))


class TestCKRepresentation:
    def test_ck_fields_exact_at_degree2(self):
        # Quadratic CK fields live in the degree-2 space: interpolation is
        # exact and the pointwise stf energy is rounding-level only.
        mesh = build_cube_mesh(2, 2)
        forms = assemble_cube_forms(mesh)
        rng = np.random.default_rng(77)
        for _ in range(5):
            f = random_ck_field(rng)
            u = interpolate(mesh, lambda x: ck_eval(f, x))
            h1 = u @ (forms.h1 @ u)
            assert stf_energy(mesh, u) <= 1e-20 * h1
            assert u @ (forms.stf @ u) <= 1e-12 * h1

    def test_affine_ck_exact_at_degree1(self):
        mesh = build_cube_mesh(2, 1)
        rng = np.random.default_rng(78)
        coeffs = np.concatenate([rng.standard_normal(7), np.zeros(3)])
        f = ck_field_from_coefficients(coeffs)
        u = interpolate(mesh, lambda x: ck_eval(f, x))
        assert stf_energy(mesh, u) <= 1e-24


class TestKornConstants:
    def test_kernel_dimension_degree2(self, report_deg2):
        assert report_deg2.stf_kernel_dim == CK_DIM

    def test_kernel_dimension_degree1(self, report_deg1):
        assert report_deg1.stf_kernel_dim >= AFFINE_CK_DIM
        assert report_deg1.stf_kernel_dim == AFFINE_CK_DIM

    def test_kernel_gap_is_wide(self, report_deg2):
        # eigenvalue 10 is rounding noise, eigenvalue 11 is order one
        tail = report_deg2.stf_tail
        assert abs(tail[CK_DIM - 1]) <= report_deg2.kernel_threshold
        assert tail[CK_DIM] > 1.0

    def test_lambda_range(self, report_deg1, report_deg2):
        for rep in (report_deg1, report_deg2):
            assert 0.0 < rep.lambda_min_classical <= 1.0
            assert 0.0 < rep.lambda_min_boundary <= 1.0

    def test_rotation_candidate_is_sharp_at_degree1(self, report_deg1):
        # On coarse degree-1 meshes the centered rotation is the minimizer.
        assert report_deg1.lambda_min_classical == pytest.approx(
            ROTATION_CLASSICAL, rel=1e-9)

    def test_single_element_values_exact(self):
        forms = assemble_cube_forms(build_cube_mesh(1, 1))
        rep = korn_constants(forms)
        assert rep.lambda_min_classical == pytest.approx(ROTATION_CLASSICAL, rel=1e-9)
        assert rep.lambda_min_boundary == pytest.approx(ROTATION_BOUNDARY, rel=1e-9)

    def test_classical_bounded_by_rotation_candidate(self, report_deg2):
        # The rotation field is admissible on every mesh, so the discrete
        # minimum can never exceed its Rayleigh quotient.
        assert report_deg2.lambda_min_classical <= ROTATION_CLASSICAL + 1e-12

    def test_recorded_degree2_values(self, report_deg2):
        assert report_deg2.lambda_min_classical == pytest.approx(0.0292621024, rel=1e-6)
        assert report_deg2.lambda_min_boundary == pytest.approx(0.2258648296, rel=1e-6)

    def test_metadata(self, report_deg2):
        assert report_deg2.n == 2
        assert report_deg2.degree == 2
        assert report_deg2.n_dofs == 375

    def test_nested_refinement_monotone(self):
        # 4^3 refines 2^3 (nested spaces), so the minimum cannot rise.
        lam2 = boundary_korn_eigenvalue(build_cube_mesh(2, 1))
        lam4 = boundary_korn_eigenvalue(build_cube_mesh(4, 1))
        assert 0.0 < lam4 <= lam2 + 1e-12
        assert lam4 > 0.5 * lam2

    @pytest.mark.xfail(
        strict=True,
        reason="the two-mesh variation bound presumes the boundary-Korn "
        "eigenvalue has settled by 4^3; measured drops are 26.7% (degree 1) "
        "and 34.9% (degree 2); see DECISIONS.md entry D12",
    )
    def test_two_mesh_variation_below_20_percent(self):
        lam2 = boundary_korn_eigenvalue(build_cube_mesh(2, 1))
        lam4 = boundary_korn_eigenvalue(build_cube_mesh(4, 1))
        assert abs(lam4 - lam2) < 0.2 * lam2

    def test_dense_size_guard(self, monkeypatch):
        # Each probe checks its own cap, and the guard fires before any
        # assembly.
        forms = assemble_cube_forms(build_cube_mesh(1, 1))

        def no_assembly(mesh):
            raise AssertionError("assembled before the size check")

        monkeypatch.setattr(korn, "assemble_cube_forms", no_assembly)
        monkeypatch.setattr(korn, "MAX_DENSE_DOFS", 10)
        with pytest.raises(ValueError, match="dense eigensolves"):
            korn_constants(forms)
        with pytest.raises(AssertionError, match="before the size check"):
            boundary_korn_eigenvalue(build_cube_mesh(1, 1))
        monkeypatch.setattr(korn, "MAX_SPARSE_DOFS", 10)
        with pytest.raises(ValueError, match="sparse eigensolves"):
            boundary_korn_eigenvalue(build_cube_mesh(1, 1))

    @pytest.mark.parametrize("n_tail", [-1, True, False, 2.5, 3.0, "3", None])
    def test_n_tail_must_be_a_non_negative_integer(self, n_tail):
        # A negative count once dropped the last value of each tail, True
        # gave one value, and 2.5 raised a TypeError from the slicing.
        forms = assemble_cube_forms(build_cube_mesh(1, 1))
        with pytest.raises(ValueError, match="n_tail must be a non-negative integer"):
            korn_constants(forms, n_tail=n_tail)

    @pytest.mark.parametrize("n_tail,size", [(0, 0), (np.int64(5), 5), (30, 24)])
    def test_n_tail_bounds_the_tails(self, n_tail, size):
        rep = korn_constants(assemble_cube_forms(build_cube_mesh(1, 1)), n_tail=n_tail)
        for tail in (rep.classical_tail, rep.boundary_tail, rep.stf_tail):
            assert tail.shape == (size,)


# DENSE_CLASS_ROWS that force every class block of boundary_korn_eigenvalue
# onto one route: no class has 0 rows, and none passes the size guard with
# more than MAX_SPARSE_DOFS.
ROUTE_ROWS = {"sparse": 0, "dense": korn.MAX_SPARSE_DOFS}


@pytest.fixture(params=list(ROUTE_ROWS))
def route(request, monkeypatch):
    monkeypatch.setattr(korn, "DENSE_CLASS_ROWS", ROUTE_ROWS[request.param])
    return request.param


def counting_eigensolvers(monkeypatch):
    """Record the block size of every dense eigh and sparse eigsh call, and
    of every class block that `pencil_above` certifies, so that the probe
    skips its solve."""
    def recording(solve, sizes):
        def counting(*args, **kwargs):
            sizes.append(args[0].shape[0])
            return solve(*args, **kwargs)
        return counting

    calls = {"eigh": [], "eigsh": [], "certified": []}
    for module, name in ((scipy.linalg, "eigh"), (scipy.sparse.linalg, "eigsh")):
        monkeypatch.setattr(module, name, recording(getattr(module, name), calls[name]))
    above = fe1d.pencil_above

    def certifying(a, g, tau):
        passed = above(a, g, tau)
        if passed:
            calls["certified"].append(a.shape[0])
        return passed

    monkeypatch.setattr(fe1d, "pencil_above", certifying)
    return calls


class TestBoundaryProbeRoutes:
    """boundary_korn_eigenvalue solves a class block of at most
    DENSE_CLASS_ROWS rows densely and a larger one by sparse shift-invert
    Lanczos; korn_constants is dense."""

    @pytest.mark.parametrize("n,degree", [(2, 1), (3, 1), (4, 1), (2, 2)])
    def test_matches_dense_korn_constants(self, monkeypatch, n, degree):
        mesh = build_cube_mesh(n, degree)
        dense = korn_constants(assemble_cube_forms(mesh)).lambda_min_boundary
        lams = {}
        for name, rows in ROUTE_ROWS.items():
            monkeypatch.setattr(korn, "DENSE_CLASS_ROWS", rows)
            lams[name] = boundary_korn_eigenvalue(mesh)
            assert lams[name] == pytest.approx(dense, rel=1e-12), name
            assert boundary_korn_eigenvalue(mesh) == lams[name], name
        assert lams["sparse"] == pytest.approx(lams["dense"], rel=1e-12)

    def test_mixed_routes_match_dense_route(self, monkeypatch, cold_korn_memo):
        # cube(8,1) classes have 300, 285, 264 and 240 rows, all above 120,
        # so each is built sparse.  Its irreducible blocks have 60, 40 and
        # 100 rows in {+++}, 155 and 130 in {-++}, 140 and 124 in {--+}, and
        # 50, 30 and 80 in {---}: at 120 the blocks above it take the sparse
        # route, and the others are made dense, where {---}'s are certified
        # above the minimum of the blocks before them.
        mesh = build_cube_mesh(8, 1)
        monkeypatch.setattr(korn, "DENSE_CLASS_ROWS", ROUTE_ROWS["dense"])
        dense = boundary_korn_eigenvalue(mesh)
        monkeypatch.setattr(korn, "DENSE_CLASS_ROWS", 120)
        calls = counting_eigensolvers(monkeypatch)
        mixed = boundary_korn_eigenvalue(mesh)
        assert calls == {"eigh": [40, 100, 60], "eigsh": [130, 155, 124, 140],
                         "certified": [30, 80, 50]}
        assert mixed == pytest.approx(dense, rel=1e-12)
        assert boundary_korn_eigenvalue(mesh) == mixed

    @pytest.mark.parametrize("rows", [korn.DENSE_CLASS_ROWS, ROUTE_ROWS["sparse"]],
                             ids=["default", "sparse"])
    @pytest.mark.parametrize("n,degree", [(n, 1) for n in range(1, 11)]
                             + [(n, 2) for n in range(1, 6)])
    def test_equals_the_minimum_of_every_block_solve(self, monkeypatch, n, degree, rows):
        # DECISIONS.md D21: the probe certifies a dense-route block above the
        # running minimum by a Cholesky factorization instead of solving it,
        # which changes no bit.  Reference: every irreducible block of every
        # orbit's class solved by its route, dense for lambda_min alone up to
        # DENSE_CLASS_ROWS rows and for one-row blocks, which ARPACK cannot
        # take, else shift-invert Lanczos from the block's own seed stream.
        # By default the 540- and 516-row classes of cube(10,1) and cube(5,2)
        # are built sparse and their blocks made dense.
        monkeypatch.setattr(korn, "DENSE_CLASS_ROWS", rows)
        mesh = build_cube_mesh(n, degree)
        forms = assemble_cube_forms(mesh)
        lowest = []
        for s in korn._CLASS_ORBITS:
            dense = forms.class_size(s) <= korn.DENSE_CLASS_ROWS
            k = sum(2 ** a for a, sa in enumerate(s) if sa < 0)
            blocks = forms.irreducible_blocks(korn._BOUNDARY_SUMS, s, dense)
            for j, (_, (pencil, h1)) in enumerate(blocks):
                if h1.shape[0] == 0:
                    continue
                if h1.shape[0] <= max(korn.DENSE_CLASS_ROWS, 1):
                    if not dense:
                        pencil, h1 = pencil.toarray(), h1.toarray()
                    lowest.append(scipy.linalg.eigh(pencil, h1, eigvals_only=True,
                                                    subset_by_index=[0, 0])[0])
                else:
                    v0 = np.random.default_rng((korn._START_SEED, k, j)).standard_normal(h1.shape[0])
                    lowest.append(scipy.sparse.linalg.eigsh(
                        pencil, k=1, M=h1, sigma=0.0, tol=0.0, v0=v0,
                        return_eigenvectors=False)[0])
        # 10 nonempty blocks, less the empty {+++} and {---} sign blocks of
        # cube(1,1) and the empty {---} sign block of cube(2,1) and (1,2).
        assert len(lowest) == {(1, 1): 8, (2, 1): 9, (1, 2): 9}.get((n, degree), 10)
        assert boundary_korn_eigenvalue(mesh) == min(lowest)

    def test_repeatable_bit_for_bit(self, route):
        meshes = [build_cube_mesh(2, 1), build_cube_mesh(4, 1)]
        first = [boundary_korn_eigenvalue(m) for m in meshes]
        forms = assemble_cube_forms(meshes[0])
        for _ in range(3):
            # Dense solves and ARPACK runs from its own internal start
            # vector in between must not change the probe's bits.
            korn_constants(forms)
            scipy.sparse.linalg.eigsh(forms.h1, k=2, M=forms.l2)
            assert [boundary_korn_eigenvalue(m) for m in meshes] == first

    def test_runs_no_dense_eigensolve(self, monkeypatch):
        def no_dense(*args, **kwargs):
            raise AssertionError("dense eigh called")

        monkeypatch.setattr(korn, "DENSE_CLASS_ROWS", ROUTE_ROWS["sparse"])
        monkeypatch.setattr(scipy.linalg, "eigh", no_dense)
        assert boundary_korn_eigenvalue(build_cube_mesh(3, 1)) > 0.0


class TestCKVanishing:
    def test_zero_field(self, coarse_mesh):
        rep = ck_vanishing_check(zero_field(), coarse_mesh)
        assert rep.boundary_norm == 0.0
        assert rep.ratio == 0.0

    def test_constant_field_norm(self, coarse_mesh):
        rep = ck_vanishing_check(constant_field([1.0, 0.0, 0.0]), coarse_mesh)
        assert rep.boundary_norm ** 2 == pytest.approx(6.0, rel=1e-12)
        assert rep.coefficient_norm == pytest.approx(1.0)

    def test_rotation_field_norm(self, coarse_mesh):
        # centered rotation: boundary norm^2 = 5/3 after shifting by a
        f = CKField(a=np.array([-0.5, 0.5, 0.0]), lam=0.0,
                    A=np.array([[0.0, 1.0, 0.0],
                                [-1.0, 0.0, 0.0],
                                [0.0, 0.0, 0.0]]),
                    b=np.zeros(3))
        rep = ck_vanishing_check(f, coarse_mesh)
        assert rep.boundary_norm ** 2 == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_gram_certificate(self, coarse_mesh):
        gram = ck_boundary_gram(coarse_mesh)
        assert np.abs(gram - gram.T).max() <= 1e-12
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] > 0.18  # recorded 0.185198
        assert eigs[0] == pytest.approx(0.185198, rel=1e-4)

    def test_gram_panel_independence(self):
        g1 = ck_boundary_gram(build_cube_mesh(1, 1))
        g3 = ck_boundary_gram(build_cube_mesh(3, 2))
        assert np.abs(g1 - g3).max() <= 1e-12

    def test_gram_consistent_with_direct_norm(self, coarse_mesh):
        rng = np.random.default_rng(5)
        gram = ck_boundary_gram(coarse_mesh)
        c = rng.standard_normal(10)
        f = ck_field_from_coefficients(c)
        direct = ck_vanishing_check(f, coarse_mesh).boundary_norm
        assert direct == pytest.approx(np.sqrt(c @ gram @ c), rel=1e-12)

    def test_random_fields_bounded_away_from_zero(self, coarse_mesh):
        # No unit-coefficient CK field comes close to vanishing on the
        # boundary; the Gram certificate lower-bounds every sample.
        rng = np.random.default_rng(123)
        gram = ck_boundary_gram(coarse_mesh)
        floor = np.sqrt(np.linalg.eigvalsh(gram)[0])
        ratios = [ck_vanishing_check(random_ck_field(rng), coarse_mesh).ratio
                  for _ in range(100)]
        assert min(ratios) >= floor - 1e-12
        assert min(ratios) > 1.0  # recorded 1.3929 for this seed


def reflection_classes(mesh):
    """Orthonormal sparse bases Q_s of the 8 reflection-parity classes.

    Keyed by the sign character s = (s_x, s_y, s_z): every u = Q_s y is
    mapped to s_a * u by the reflection x_a -> 1 - x_a.  Component c of
    such a field is, as a scalar grid function, even or odd along axis a
    with parity t_a = -s_a if a == c else s_a, so its basis is the Kronecker
    product of 1-D parity bases, placed on the dofs 3 * node + c.  The 8
    bases together are one orthogonal matrix on the dofs.
    """
    m = mesh.n * mesh.degree + 1
    half = m // 2
    i = np.arange(half)
    r = np.sqrt(0.5)
    parity = {}
    for t in (1, -1):
        # (e_i + t e_{m-1-i}) / sqrt(2) for i < m/2; the even basis also
        # holds the middle point e_mid when m is odd.
        mid = [half] if t > 0 and m % 2 else []
        parity[t] = scipy.sparse.csr_matrix(
            (np.r_[np.full(half, r), np.full(half, t * r), np.ones(len(mid))],
             (np.r_[i, m - 1 - i, mid], np.r_[i, i, mid])),
            shape=(m, half + len(mid)))

    signs = [(sx, sy, sz) for sz in (1, -1) for sy in (1, -1) for sx in (1, -1)]
    # Scalar grid functions of parities (tx, ty, tz); grid nodes are
    # x-fastest, so x is the innermost factor.
    scalar = {t: scipy.sparse.kron(parity[t[2]], scipy.sparse.kron(parity[t[1]], parity[t[0]]),
                                   format="coo")
              for t in signs}
    classes = {}
    for s in signs:
        rows, cols, vals = [], [], []
        width = 0
        for c in range(3):
            q = scalar[tuple(-sa if a == c else sa for a, sa in enumerate(s))]
            rows.append(3 * q.row + c)
            cols.append(q.col + width)
            vals.append(q.data)
            width += q.shape[1]
        classes[s] = scipy.sparse.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(mesh.n_dofs, width))
    return classes


def node_image(mesh, mapped):
    """Index of the node at each mapped node position, found from the
    node coordinates alone."""
    m = mesh.n * mesh.degree + 1

    def code(x):
        k = np.rint(x * (m - 1)).astype(int)
        return k[:, 0] + m * (k[:, 1] + m * k[:, 2])

    order = np.argsort(code(mesh.nodes))
    image = order[np.searchsorted(code(mesh.nodes)[order], code(mapped))]
    assert np.allclose(mesh.nodes[image], mapped, atol=1e-14)
    return image


def reflection(mesh, axis):
    """Signed permutation of the interleaved dofs for x_axis -> 1 - x_axis.

    Built from the node coordinates alone: node k is sent to the node at
    its mirror image, and component `axis` of the field changes sign.
    """
    mirrored = mesh.nodes.copy()
    mirrored[:, axis] = 1.0 - mirrored[:, axis]
    image = node_image(mesh, mirrored)
    comps = np.arange(3)
    rows = (3 * image[:, None] + comps).ravel()
    cols = (3 * np.arange(mesh.n_nodes)[:, None] + comps).ravel()
    signs = np.tile(np.where(comps == axis, -1.0, 1.0), mesh.n_nodes)
    return scipy.sparse.csr_matrix((signs, (rows, cols)), shape=(mesh.n_dofs,) * 2)


def axis_permutation(mesh, perm):
    """Permutation of the interleaved dofs for the axis map x'_a = x_perm[a].

    Built from the node coordinates alone: node k is sent to the node at
    its permuted position, and component a of the image field is
    component perm[a] of the field.
    """
    image = node_image(mesh, mesh.nodes[:, list(perm)])
    rows = (3 * image[:, None] + np.arange(3)).ravel()
    cols = (3 * np.arange(mesh.n_nodes)[:, None] + np.asarray(perm)).ravel()
    return scipy.sparse.csr_matrix((np.ones(mesh.n_dofs), (rows, cols)),
                                   shape=(mesh.n_dofs,) * 2)


def dense_spectra(forms):
    """Full dense spectra of the three unsplit Korn pencils."""
    pencils = {
        "classical": (forms.l2 + forms.stf, forms.h1),
        "boundary": (forms.boundary + forms.stf, forms.h1),
        "stf": (forms.stf, forms.l2),
    }
    return {name: scipy.linalg.eigh(a.toarray(), b.toarray(), eigvals_only=True)
            for name, (a, b) in pencils.items()}


SPLIT_MESHES = [(2, 1), (2, 2), (3, 2)]


@pytest.fixture(scope="module", params=SPLIT_MESHES, ids=lambda nd: "cube{}-{}".format(*nd))
def dense_reference(request):
    mesh = build_cube_mesh(*request.param)
    forms = assemble_cube_forms(mesh)
    return mesh, forms, dense_spectra(forms)


class TestReflectionSplit:
    """The 8 reflection-parity classes split every cube pencil exactly."""

    @pytest.mark.parametrize("n,degree", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_class_bases_are_orthonormal_and_complete(self, n, degree):
        mesh = build_cube_mesh(n, degree)
        classes = reflection_classes(mesh)
        assert sorted(classes) == sorted(
            (sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1))
        assert sum(q.shape[1] for q in classes.values()) == mesh.n_dofs
        # One orthogonal matrix: orthonormal within and across classes.
        q_all = scipy.sparse.hstack(list(classes.values()))
        gram = (q_all.T @ q_all).toarray()
        assert np.abs(gram - np.eye(mesh.n_dofs)).max() <= 1e-15
        # Class s is the joint eigenspace of the reflections with signs s.
        for axis in range(3):
            refl = reflection(mesh, axis)
            for s, q in classes.items():
                assert np.abs((refl @ q - s[axis] * q).toarray()).max() <= 1e-15

    @pytest.mark.parametrize("n,degree", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_forms_commute_with_reflections(self, n, degree):
        mesh = build_cube_mesh(n, degree)
        forms = assemble_cube_forms(mesh)
        for axis in range(3):
            refl = reflection(mesh, axis)
            assert (refl @ refl.T != scipy.sparse.identity(mesh.n_dofs)).nnz == 0
            for name in ("l2", "h1", "stf", "boundary"):
                mat = getattr(forms, name)
                gap = np.abs((refl @ mat @ refl.T - mat).toarray()).max()
                assert gap <= 1e-14 * np.abs(mat).max(), (name, axis, gap)

    def test_korn_constants_match_unsplit_dense_solve(self, dense_reference):
        mesh, forms, dense = dense_reference
        report = korn_constants(forms)
        for name, tail in (("classical", report.classical_tail),
                           ("boundary", report.boundary_tail),
                           ("stf", report.stf_tail)):
            ref = dense[name]
            np.testing.assert_allclose(tail, ref[:len(tail)], rtol=0.0,
                                       atol=1e-12 * ref[-1], err_msg=name)
        assert report.stf_eig_max == pytest.approx(dense["stf"][-1], rel=1e-12)
        threshold = korn.KERNEL_REL_THRESHOLD * dense["stf"][-1]
        assert report.stf_kernel_dim == np.count_nonzero(dense["stf"] < threshold)
        assert report.stf_kernel_dim == (CK_DIM if mesh.degree == 2 else AFFINE_CK_DIM)

    def test_boundary_probe_matches_unsplit_dense_solve(self, dense_reference):
        mesh, _, dense = dense_reference
        lam = boundary_korn_eigenvalue(mesh)
        assert lam == pytest.approx(dense["boundary"][0], rel=1e-12)
        assert boundary_korn_eigenvalue(mesh) == lam

    def test_shared_tables_are_read_only(self):
        # Both tables are cached and shared by every later probe: a write
        # into the line parity bases once moved the boundary Korn constant
        # of cube(2, 2) for the rest of the process.
        arrays = [*korn._line_parity(5).values(), *(
            arr for pair in korn._term_table((("boundary", "stf"), ("h1",))).values()
            for arr in pair)]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] += 1.0


FORM_NAMES = ("l2", "h1", "stf", "boundary")


class TestClassBlocks:
    """The probes read each class block straight from the parity-projected
    1-D factors; it must equal the projection of the global Gram."""

    @pytest.mark.parametrize("n,degree", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_blocks_equal_projected_global_grams(self, n, degree):
        mesh = build_cube_mesh(n, degree)
        forms = assemble_cube_forms(mesh)
        for s, q in reflection_classes(mesh).items():
            assert forms.class_size(s) == q.shape[1]
            for name in FORM_NAMES:
                ref = (q.T @ getattr(forms, name) @ q).toarray()
                block = forms.block(name, s)
                assert block.shape == ref.shape
                assert block.nnz == np.count_nonzero(block.data)
                gap = np.abs(block.toarray() - ref).max()
                assert gap <= 1e-15 * np.abs(ref).max(), (s, name, gap)

    @pytest.mark.parametrize("n,degree", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_probe_pencils_equal_projected_global_grams(self, n, degree):
        # The dense korn_constants pencils and the sparse (boundary + stf,
        # h1) pair of boundary_korn_eigenvalue, from the sums the probes
        # pass, against Q_s^T (G_a + G_b) Q_s of the global Grams.
        mesh = build_cube_mesh(n, degree)
        forms = assemble_cube_forms(mesh)
        for s, q in reflection_classes(mesh).items():
            dense = forms.dense_blocks(korn._KORN_SUMS, s)
            sparse = forms.sparse_blocks(korn._BOUNDARY_SUMS, s)
            for mat in sparse:
                assert mat.nnz == np.count_nonzero(mat.data)
            pairs = [*zip(korn._KORN_SUMS, dense),
                     *zip(korn._BOUNDARY_SUMS, (mat.toarray() for mat in sparse))]
            for names, mat in pairs:
                ref = (q.T @ sum(getattr(forms, name) for name in names) @ q).toarray()
                assert mat.shape == ref.shape
                gap = np.abs(mat - ref).max()
                assert gap <= 1e-15 * np.abs(ref).max(), (s, names, gap)

    def test_probes_build_no_global_gram(self, monkeypatch):
        def no_global(self):
            raise AssertionError("global Gram built")

        for name in FORM_NAMES:
            monkeypatch.setattr(korn.CubeForms, name, property(no_global))
        mesh = build_cube_mesh(2, 2)
        report = korn_constants(assemble_cube_forms(mesh))
        assert report.stf_kernel_dim == CK_DIM
        assert boundary_korn_eigenvalue(mesh) == pytest.approx(
            report.lambda_min_boundary, rel=1e-12)
        with pytest.raises(AssertionError, match="global Gram"):
            assemble_cube_forms(mesh).stf


def assert_same_report(report, ref):
    """Every field and tail of two KornReports, bit for bit."""
    for name in ("n", "degree", "n_dofs", "lambda_min_classical", "lambda_min_boundary",
                 "stf_kernel_dim", "stf_eig_max", "kernel_threshold"):
        assert getattr(report, name) == getattr(ref, name), name
    for name in ("classical_tail", "boundary_tail", "stf_tail"):
        assert getattr(report, name).tobytes() == getattr(ref, name).tobytes(), name


def class_block_spectra(forms, q):
    """Dense spectra of the three Korn pencils on one class block."""
    l2, h1, stf, bdry = ((q.T @ f @ q).toarray()
                         for f in (forms.l2, forms.h1, forms.stf, forms.boundary))
    return [scipy.linalg.eigh(a, b, eigvals_only=True)
            for a, b in ((l2 + stf, h1), (bdry + stf, h1), (stf, l2))]


class TestAxisPermutationSplit:
    """Axis permutations map reflection classes onto each other, so one
    class per orbit carries the spectrum of the whole orbit."""

    @pytest.mark.parametrize("n,degree", SPLIT_MESHES)
    def test_forms_commute_with_axis_permutations(self, n, degree):
        mesh = build_cube_mesh(n, degree)
        forms = assemble_cube_forms(mesh)
        for perm in itertools.permutations(range(3)):
            p = axis_permutation(mesh, perm)
            assert (p @ p.T != scipy.sparse.identity(mesh.n_dofs)).nnz == 0
            for name in ("l2", "h1", "stf", "boundary"):
                mat = getattr(forms, name)
                gap = np.abs((p @ mat @ p.T - mat).toarray()).max()
                assert gap <= 1e-14 * np.abs(mat).max(), (name, perm, gap)

    @pytest.mark.parametrize("n,degree", SPLIT_MESHES)
    def test_orbit_members_share_block_spectra(self, n, degree):
        mesh = build_cube_mesh(n, degree)
        forms = assemble_cube_forms(mesh)
        classes = reflection_classes(mesh)
        for minus in (1, 2):
            members = [q for s, q in classes.items() if s.count(-1) == minus]
            assert len(members) == 3
            first = class_block_spectra(forms, members[0])
            for q in members[1:]:
                for ref, eigs in zip(first, class_block_spectra(forms, q)):
                    np.testing.assert_allclose(eigs, ref, rtol=0.0, atol=1e-12 * ref[-1])

    def test_korn_constants_solves_one_class_per_orbit(self, monkeypatch, cold_korn_memo):
        eigh = scipy.linalg.eigh
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting)
        forms = assemble_cube_forms(build_cube_mesh(2, 2))
        first = korn_constants(forms)
        # 4 orbits with 3, 2, 2 and 3 irreducible blocks x 3 pencils.
        assert len(calls) == 30
        assert sorted({shape[0] for shape in calls}) == [3, 6, 9, 12, 18, 20, 21, 24, 30]
        again = korn_constants(forms)
        assert len(calls) == 60
        for name in ("lambda_min_classical", "lambda_min_boundary", "stf_kernel_dim",
                     "stf_eig_max", "kernel_threshold"):
            assert getattr(again, name) == getattr(first, name), name
        for name in ("classical_tail", "boundary_tail", "stf_tail"):
            assert np.array_equal(getattr(again, name), getattr(first, name)), name

    def test_probes_evaluate_each_solved_class_once(self, monkeypatch, route, cold_korn_memo):
        # The dense irreducible blocks are kept per mesh (DECISIONS.md D24):
        # a repeated dense probe, on a freshly built equal mesh, evaluates
        # no class; the sparse route evaluates each class on every call.
        evaluate = korn.CubeForms._evaluate
        calls = []

        def counting(self, sums, s):
            calls.append(s)
            return evaluate(self, sums, s)

        monkeypatch.setattr(korn.CubeForms, "_evaluate", counting)
        orbits = list(korn._CLASS_ORBITS)
        first = korn_constants(assemble_cube_forms(build_cube_mesh(2, 2)))
        assert calls == orbits
        again = korn_constants(assemble_cube_forms(build_cube_mesh(2, 2)))
        assert calls == orbits
        assert_same_report(again, first)
        calls.clear()
        lam = boundary_korn_eigenvalue(build_cube_mesh(3, 1))
        assert calls == orbits
        assert boundary_korn_eigenvalue(build_cube_mesh(3, 1)) == lam
        assert calls == (orbits if route == "dense" else 2 * orbits)

    def test_boundary_probe_solves_one_class_per_orbit(self, monkeypatch, route, cold_korn_memo):
        # cube(3,1) has 10 irreducible blocks in the 4 solved classes, of 6,
        # 2 and 8 rows, 14 and 10, 14 and 10, and 6, 2 and 8.  The sparse
        # route solves every block.  The dense route solves or certifies
        # each, and solves the first.
        solver, other = ("eigsh", "eigh") if route == "sparse" else ("eigh", "eigsh")
        calls = counting_eigensolvers(monkeypatch)
        mesh = build_cube_mesh(3, 1)
        first = boundary_korn_eigenvalue(mesh)
        solved = len(calls[solver])
        assert 1 <= solved <= 10
        assert solved + len(calls["certified"]) == 10
        assert solved == 10 or route == "dense"
        assert boundary_korn_eigenvalue(mesh) == first
        assert len(calls[solver]) == 2 * solved
        assert calls[other] == []


def kept_bytes(blocks):
    return sum(stack.nbytes for _, stack in blocks)


def probe(kind, n, degree):
    """korn_constants ("korn") or boundary_korn_eigenvalue ("boundary") on
    a freshly built cube(n, degree)."""
    mesh = build_cube_mesh(n, degree)
    return korn_constants(assemble_cube_forms(mesh)) if kind == "korn" else (
        boundary_korn_eigenvalue(mesh))


def probe_keys(kind, n, degree):
    """The memo keys of a dense probe, one per solved class in turn."""
    sums = korn._KORN_SUMS if kind == "korn" else korn._BOUNDARY_SUMS
    return [(n, degree, sums, s) for s in korn._CLASS_ORBITS]


class TestKeptBlocks:
    """DECISIONS.md D24: the dense irreducible blocks of each solved class
    are kept per (n, degree, sums, class), bounded by bytes, and every
    eigensolve still runs on every call."""

    def test_kept_stacks_are_read_only(self, cold_korn_memo):
        forms = assemble_cube_forms(build_cube_mesh(2, 2))
        s = (1, 1, 1)
        blocks = forms.irreducible_blocks(korn._KORN_SUMS, s, True)
        kept = korn._block_memo[2, 2, korn._KORN_SUMS, s]
        # A caller gets its own list of the kept stacks.
        blocks.clear()
        again = forms.irreducible_blocks(korn._KORN_SUMS, s, True)
        assert [dim for dim, _ in again] == [1, 1, 2]
        assert all(got is stack for (_, got), (_, stack) in zip(again, kept))
        for _, stack in kept:
            assert stack.shape[0] == len(korn._KORN_SUMS)
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] += 1.0
            with pytest.raises(ValueError, match="read-only"):
                stack[1][...] = 0.0

    def test_repeated_and_interleaved_probes_keep_their_bits(self, monkeypatch, cold_korn_memo):
        # The reference keeps nothing, so it builds every block on each
        # call, as the probes did before the keep.
        budget = korn._BLOCK_MEMO_BYTES
        monkeypatch.setattr(korn, "_BLOCK_MEMO_BYTES", 0)
        ref = {args: probe(*args) for args in (("korn", 3, 2), ("boundary", 8, 1),
                                               ("korn", 2, 2))}
        assert not korn._block_memo
        monkeypatch.setattr(korn, "_BLOCK_MEMO_BYTES", budget)
        order = [("korn", 3, 2), ("korn", 3, 2), ("boundary", 8, 1), ("korn", 3, 2),
                 ("boundary", 8, 1), ("korn", 2, 2), ("boundary", 8, 1), ("korn", 3, 2)]
        for args in order:
            got = probe(*args)
            if args[0] == "korn":
                assert_same_report(got, ref[args])
            else:
                assert got.hex() == ref[args].hex()
        # Both benchmark meshes fit in the memo beside cube(2,2).
        assert set(korn._block_memo) == {key for args in ref for key in probe_keys(*args)}

    def test_memo_is_bounded_by_bytes_least_recently_used_first(self, monkeypatch,
                                                                cold_korn_memo):
        order = [("korn", 2, 2), ("boundary", 4, 1), ("korn", 3, 2), ("boundary", 8, 1),
                 ("korn", 2, 2), ("boundary", 4, 1), ("korn", 4, 2), ("korn", 5, 2)]
        default = korn._BLOCK_MEMO_BYTES
        # The bytes of every entry, from a memo that keeps everything.
        monkeypatch.setattr(korn, "_BLOCK_MEMO_BYTES", 2**40)
        for args in order:
            probe(*args)
        sizes = {key: kept_bytes(blocks) for key, blocks in korn._block_memo.items()}
        # At cube(5,2) the {-++} class alone holds more than the default
        # budget, so it is not kept at all.
        oversized = (5, 2, korn._KORN_SUMS, (-1, 1, 1))
        assert sizes[oversized] > default
        for budget in (2**20, default):
            korn._block_memo.clear()
            monkeypatch.setattr(korn, "_BLOCK_MEMO_BYTES", budget)
            expected = []
            for args in order:
                probe(*args)
                # Least recently used first: a probe moves each of its
                # classes to the end in turn, and the oldest go first; a
                # class alone above the budget is not kept and drops none.
                for key in probe_keys(*args):
                    expected = [k for k in expected if k != key]
                    if sizes[key] <= budget:
                        expected.append(key)
                    while sum(sizes[k] for k in expected) > budget:
                        expected.pop(0)
                assert list(korn._block_memo) == expected, (budget, args)
                assert sum(map(kept_bytes, korn._block_memo.values())) <= budget
        # At the default budget cube(5,2) keeps its last class alone, and
        # building its oversized class again drops nothing.
        assert expected == probe_keys("korn", 5, 2)[-1:]
        before = list(korn._block_memo)
        assemble_cube_forms(build_cube_mesh(5, 2)).irreducible_blocks(
            korn._KORN_SUMS, oversized[-1], True)
        assert list(korn._block_memo) == before

    def test_sparse_route_keeps_nothing(self, monkeypatch, cold_korn_memo):
        mesh = build_cube_mesh(8, 1)
        monkeypatch.setattr(korn, "DENSE_CLASS_ROWS", 0)
        lam = boundary_korn_eigenvalue(mesh)
        assert not korn._block_memo
        # cube(10,1) by default: the 540- and 516-row classes are sparse,
        # and only the other two are kept.
        monkeypatch.setattr(korn, "DENSE_CLASS_ROWS", 500)
        boundary_korn_eigenvalue(build_cube_mesh(10, 1))
        assert list(korn._block_memo) == probe_keys("boundary", 10, 1)[2:]
        assert boundary_korn_eigenvalue(mesh) == pytest.approx(lam, rel=1e-12)


# The axis permutations that fix each solved class, as (image of x, of y,
# of z).
STABILIZERS = {(1, 1, 1): list(itertools.permutations(range(3))),
               (-1, 1, 1): [(0, 1, 2), (0, 2, 1)],
               (-1, -1, 1): [(0, 1, 2), (1, 0, 2)],
               (-1, -1, -1): list(itertools.permutations(range(3)))}


class TestStabilizerSplit:
    """The axis permutations that fix a solved class split its block into
    irreducible blocks: S3 for {+++} and {---} (trivial, sign, standard),
    a swap for the others (even, odd)."""

    @pytest.mark.parametrize("n,degree", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_stabilizer_permutes_class_dofs_and_commutes_with_blocks(self, n, degree):
        # Reference: Q_s^T P Q_s for the dof permutation P of each axis map
        # that fixes s, from node coordinates and the reference class bases.
        mesh = build_cube_mesh(n, degree)
        forms = assemble_cube_forms(mesh)
        classes = reflection_classes(mesh)
        m = n * degree + 1
        for s in korn._CLASS_ORBITS:
            q = classes[s]
            images = korn._stabilizer(m, s)
            assert images.shape == (len(STABILIZERS[s]), q.shape[1])
            mats = {}
            for perm in STABILIZERS[s]:
                p = (q.T @ axis_permutation(mesh, perm) @ q).toarray()
                assert np.array_equal(np.sort(p, axis=0)[:-1], np.zeros_like(p)[:-1])
                assert np.allclose(p.max(axis=0), 1.0, rtol=0.0, atol=1e-15)
                mats[tuple(np.argmax(p, axis=0))] = p
            assert {tuple(row) for row in images} == set(mats)
            assert tuple(images[0]) == tuple(range(q.shape[1]))
            blocks = forms.dense_blocks((("l2",), ("h1",), ("stf",), ("boundary",)), s)
            for row in images:
                for block in blocks:
                    gap = np.abs(block[np.ix_(row, row)] - block).max()
                    assert gap <= 1e-14 * np.abs(block).max(), (s, gap)

    @pytest.mark.parametrize("n,degree", [(n, 1) for n in range(1, 9)]
                             + [(n, 2) for n in range(1, 6)])
    def test_census_counts_every_dof(self, n, degree):
        # Every orbit's class stands for orbit classes, and every block for
        # dim partners of its irrep, empty blocks included.
        mesh = build_cube_mesh(n, degree)
        forms = assemble_cube_forms(mesh)
        total = 0
        for s, orbit in korn._CLASS_ORBITS.items():
            bases = korn._irreducible_bases(n * degree + 1, s)
            assert [b.dim for b in bases] == ([1, 1, 2] if len(set(s)) == 1 else [1, 1])
            assert sum(b.dim * b.rows for b in bases) == forms.class_size(s)
            total += orbit * sum(b.dim * b.rows for b in bases)
        assert total == mesh.n_dofs

    @pytest.mark.parametrize("n,degree", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_blocks_are_projections_on_orthonormal_partners(self, n, degree):
        # The partners of a class's irreps are orthonormal and orthogonal to
        # one another, and each projected block, q^T a y, equals the
        # two-sided projection q^T a q of the class block.
        forms = assemble_cube_forms(build_cube_mesh(n, degree))
        for s in korn._CLASS_ORBITS:
            bases = korn._irreducible_bases(n * degree + 1, s)
            q_all = np.hstack([b.qt.toarray().T for b in bases])
            assert np.abs(q_all.T @ q_all - np.eye(q_all.shape[1])).max() <= 1e-15
            class_blocks = forms.dense_blocks(korn._KORN_SUMS, s)
            sparse = forms.sparse_blocks(korn._KORN_SUMS, s)
            for (dim, dense), (_, projected), b in zip(
                    forms.irreducible_blocks(korn._KORN_SUMS, s, True),
                    forms.irreducible_blocks(korn._KORN_SUMS, s, False), bases):
                q = b.qt.toarray().T
                for block, mat, sp_mat in zip(class_blocks, dense, projected):
                    ref = q.T @ block @ q
                    scale = np.abs(block).max()
                    assert np.abs(mat - ref).max(initial=0.0) <= 1e-15 * scale
                    assert np.abs(sp_mat.toarray() - ref).max(initial=0.0) <= 1e-15 * scale
                    assert mat.shape == (b.rows, b.rows)

    @pytest.mark.parametrize("n,degree", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_stf_kernel_sits_where_the_conformal_killing_fields_do(self, n, degree):
        # The dilation is in {+++} trivial; the translation along x, and at
        # degree 2 the special conformal field along x, in the {-++} block
        # even under the swap of y and z; the rotation about z in the {--+}
        # block odd under the swap of x and y.  Each standard-irrep or
        # orbit partner repeats it: 1 + 3 + 3 = 7, 1 + 6 + 3 = 10.
        forms = assemble_cube_forms(build_cube_mesh(n, degree))
        spectra = {(s, j): (orbit * dim, scipy.linalg.eigh(a, b, eigvals_only=True))
                   for s, orbit in korn._CLASS_ORBITS.items()
                   for j, (dim, (a, b)) in enumerate(
                       forms.irreducible_blocks((("stf",), ("l2",)), s, True))
                   if b.shape[0]}
        top = max(eigs[-1] for _, eigs in spectra.values())
        kernel = {key: int(np.count_nonzero(eigs < korn.KERNEL_REL_THRESHOLD * top))
                  for key, (_, eigs) in spectra.items()}
        expected = {((1, 1, 1), 0): 1, ((-1, 1, 1), 0): degree, ((-1, -1, 1), 1): 1}
        assert {key: k for key, k in kernel.items() if k} == expected
        assert sum(spectra[key][0] * k for key, k in kernel.items()) == (
            CK_DIM if degree == 2 else AFFINE_CK_DIM)

    def test_bases_are_kept_read_only(self):
        # The bases depend on the mesh alone and are shared between calls.
        first = korn._irreducible_bases(5, (1, 1, 1))
        forms = assemble_cube_forms(build_cube_mesh(2, 2))
        korn_constants(forms)
        assert korn._irreducible_bases(5, (1, 1, 1)) is first
        for b in first:
            for mat in (b.qt, b.yt):
                for arr in (mat.data, mat.indices, mat.indptr):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0] = arr[0]
