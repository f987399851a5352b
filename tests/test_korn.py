"""Conformal Killing fields, cube FEM forms, and Korn eigenvalue probes."""

import numpy as np
import pytest

from r13lab import korn
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
        forms = assemble_cube_forms(build_cube_mesh(1, 1))
        monkeypatch.setattr(korn, "MAX_DENSE_DOFS", 10)

        def no_assembly(mesh):
            raise AssertionError("assembled before the size check")

        # The guard must fire before any assembly.
        monkeypatch.setattr(korn, "assemble_cube_forms", no_assembly)
        with pytest.raises(ValueError, match="dense eigensolves"):
            korn_constants(forms)
        with pytest.raises(ValueError, match="dense eigensolves"):
            boundary_korn_eigenvalue(build_cube_mesh(1, 1))


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
