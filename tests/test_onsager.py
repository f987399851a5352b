"""Wall coefficient pipeline: ratios, matching solves, final table, PSD audit."""

import dataclasses

import numpy as np
import pytest

from r13lab.models import MTable, bundled_model_path, bundled_models, load_model, resolve_model
from r13lab.onsager import (
    BoundaryCoeffs,
    boundary_coefficients,
    coefficient_report,
    intermediate_AB,
    matching_solve,
    proportionality_constants,
    synthetic_m_table,
    validate_boundary_psd,
)

BUNDLED = sorted(bundled_models())


def minimal_m():
    """Zero table with just enough entries for every C to have one ratio."""
    m = [[0.0] * 9 for _ in range(8)]
    m[0][2] = 1.0  # m13: C1, C4, C7 denominators
    m[1][6] = 1.0  # m27: C5
    m[2][2] = 1.0  # m33: C2, C3, C6
    m[3][6] = 1.0  # m47, m58: identity tangential block
    m[4][7] = 1.0
    return m


def make_doc(**overrides):
    doc = {
        "eta": 7,
        "chi": 1.0,
        "l1": 1.0,
        "l2": 1.2,
        "k": {f"k{i}": 0.0 for i in range(11)},
        "m": minimal_m(),
    }
    doc["k"]["k6"] = 0.5  # C1 = 2*k6/m13 = 1
    doc.update(overrides)
    return doc


def synthetic_doc(kvals, chi=1.0, **table_kwargs):
    chi_tilde = 2.0 * chi / (2.0 - chi)
    m = synthetic_m_table(np.asarray(kvals, dtype=float), chi_tilde, **table_kwargs)
    return {
        "eta": 7,
        "chi": chi,
        "l1": 1.0,
        "l2": 1.2,
        "k": {f"k{i}": float(kvals[i]) for i in range(11)},
        "m": m.tolist(),
    }


# A strict k-set reused by synthetic-table tests (same shape as the bundled
# eta7 file, rounded for readability).
STRICT_K = [0.9, 3.1e-3, 1.25e-5, 2.6e-3, 4.9e-2, 1.1, 0.45, 0.97, 0.55, 0.65, 2.9e-7]


class TestProportionalityConstants:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_tables_consistent(self, name):
        consts = proportionality_constants(load_model(bundled_model_path(name)))
        assert max(consts.residuals.values()) <= 1e-12
        assert consts.inconsistent() == ()

    def test_forced_c1(self):
        # m15 = 5*k4/2, m13 = 2*k6, m14 = 12*k7/5 force every C1 ratio to 1.
        doc = make_doc()
        doc["k"].update(k4=0.3, k6=0.7, k7=0.9)
        doc["m"][0] = [0.0, 0.0, 1.4, 12.0 * 0.9 / 5.0, 2.5 * 0.3, 0.0, 0.0, 0.0, 0.0]
        consts = proportionality_constants(load_model(doc))
        assert consts.C1 == pytest.approx(1.0, rel=1e-15)
        assert consts.residuals["C1"] <= 1e-15

    def test_forced_c2(self):
        doc = make_doc()
        doc["m"][2] = [0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0]
        doc["m"][3] = [0.0, 0.0, 2.0, 4.0, 6.0, 0.0, 1.0, 0.0, 0.0]
        consts = proportionality_constants(load_model(doc))
        assert consts.C2 == 2.0
        assert consts.residuals["C2"] == 0.0

    def test_disagreeing_ratios_flagged(self):
        doc = make_doc()
        doc["m"][2] = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        doc["m"][3] = [0.0, 0.0, 2.0, 2.002, 0.0, 0.0, 1.0, 0.0, 0.0]
        consts = proportionality_constants(load_model(doc))
        assert consts.residuals["C2"] == pytest.approx(1e-3, rel=0.05)
        assert "C2" in consts.inconsistent()
        assert "C2" not in consts.inconsistent(tol=1e-2)

    def test_all_ratios_undefined_names_constant(self):
        doc = make_doc()
        doc["m"][1][6] = 0.0  # kill m27; m28 already zero
        with pytest.raises(ValueError, match="C5"):
            proportionality_constants(load_model(doc))

    def test_first_defined_ratio_wins(self):
        # k4 = 0 makes m15 = 0 in the bundled Maxwell table, so C1 must come
        # from the 2*k6/m13 ratio.
        model = load_model(bundled_model_path("maxwell"))
        consts = proportionality_constants(model)
        assert consts.C1 == pytest.approx(2.0 * model.k6 / model.m[1, 3], rel=1e-15)
        assert "5*k4/(2*m15)" in consts.skipped["C1"]

    def test_zero_over_positive_is_defined(self):
        doc = make_doc()
        doc["k"]["k1"] = 0.0
        consts = proportionality_constants(load_model(doc))
        assert consts.C5 == 0.0
        assert consts.skipped["C5"] == ("k2/m28",)


class TestMatchingSolve:
    def test_identity_block_heat_pair(self):
        model = load_model(bundled_model_path("eta7"))
        match = matching_solve(model)
        assert match.alpha1 == pytest.approx(model.k4, rel=1e-15)
        assert match.beta1 == pytest.approx(24.0 * model.k7 / 25.0, rel=1e-15)

    def test_identity_block_momentum_pair(self):
        model = load_model(bundled_model_path("eta7"))
        match = matching_solve(model)
        assert match.alpha3 == pytest.approx(model.k3, rel=1e-15)
        assert match.beta3 == pytest.approx(model.k4, rel=1e-15)

    def test_singular_block_rejected(self):
        doc = make_doc()
        doc["m"][3][6] = 1.0
        doc["m"][3][7] = 1.0
        doc["m"][4][6] = 1.0
        doc["m"][4][7] = 1.0
        with pytest.raises(ValueError, match="singular"):
            matching_solve(load_model(doc))

    def test_nn_system_exact_case(self):
        # With m27 = m67 = 1, m68 = m69 = 0, and k10 = 0 the three equations
        # are consistent and give alpha2 = 3*k2/2, beta2 = 3*k9/2.
        doc = make_doc()
        doc["k"].update(k2=0.4, k9=0.7, k10=0.0)
        doc["m"][5][6] = 1.0
        match = matching_solve(load_model(doc))
        assert match.alpha2 == pytest.approx(1.5 * 0.4, rel=1e-12)
        assert match.beta2 == pytest.approx(1.5 * 0.7, rel=1e-12)
        assert match.lsq_residual <= 1e-14
        assert match.consistent()

    def test_nn_system_inconsistency_reported(self):
        doc = make_doc()
        doc["k"].update(k2=0.4, k9=0.7, k10=0.5)  # k10 breaks consistency
        doc["m"][5][6] = 1.0
        match = matching_solve(load_model(doc))
        assert match.lsq_residual > 1e-8 * match.rhs_norm
        assert not match.consistent()

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_tables_consistent(self, name):
        match = matching_solve(load_model(bundled_model_path(name)))
        assert match.consistent()
        assert match.lsq_residual <= 1e-12 * max(match.rhs_norm, 1.0)


class TestIntermediateAB:
    def test_zero_rows_give_negated_m46(self):
        doc = make_doc()
        doc["m"][3][5] = 0.25  # m46
        model = load_model(doc)
        ab = intermediate_AB(model, 0.0, 0.0)
        assert ab.A1 == 0.0
        assert ab.A2 == 0.0
        assert ab.A3 == -0.25

    def test_chi_tilde_scales_a1_a2_only(self):
        doc = make_doc()
        doc["m"][2][0] = 0.3  # m31
        doc["m"][2][1] = -0.2  # m32
        doc["m"][3] = [0.4, 0.1, 0.0, 0.0, 0.0, 0.6, 1.0, 0.0, 0.0]
        # chi = 0.5 gives chi_tilde = 2/3; chi = 0.8 gives 4/3.
        low = intermediate_AB(load_model(dict(doc, chi=0.5)), 0.7, 0.2)
        high = intermediate_AB(load_model(dict(doc, chi=0.8)), 0.7, 0.2)
        assert high.A1 == pytest.approx(2.0 * low.A1, rel=1e-14)
        assert high.A2 == pytest.approx(2.0 * low.A2, rel=1e-14)
        assert high.A3 == low.A3

    def test_matches_hand_formulas(self):
        rng = np.random.default_rng(919)
        doc = make_doc(chi=0.9)
        doc["m"] = rng.uniform(-1.0, 1.0, size=(8, 9)).tolist()
        model = load_model(doc)
        c2, c3 = 0.37, -0.81
        ab = intermediate_AB(model, c2, c3)
        xt = model.chi_tilde
        m = model.m
        assert ab.A1 == pytest.approx(xt * (m[4, 1] - c2 * m[3, 1]), rel=1e-14)
        assert ab.A2 == pytest.approx(xt * (-m[4, 2] - c2 * m[3, 2]), rel=1e-14)
        assert ab.A3 == pytest.approx(-m[4, 6] + c2, rel=1e-14)
        assert ab.B1 == pytest.approx(xt * (m[5, 1] - c3 * m[3, 1]), rel=1e-14)
        assert ab.B2 == pytest.approx(xt * (-m[5, 2] - c3 * m[3, 2]), rel=1e-14)
        assert ab.B3 == pytest.approx(-m[5, 6] + c3, rel=1e-14)


class TestBoundaryCoefficients:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_s5_formula(self, name):
        model = load_model(bundled_model_path(name))
        consts = proportionality_constants(model)
        coeffs = boundary_coefficients(model)
        assert coeffs.S5 == pytest.approx(2.0 * consts.C1 / (5.0 * model.chi_tilde), rel=1e-14)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_duplicates_agree(self, name):
        coeffs = boundary_coefficients(load_model(bundled_model_path(name)))
        gap1, gap2 = coeffs.duplicate_gaps()
        assert gap1 <= 1e-12
        assert gap2 <= 1e-12

    def test_s6_s8_vanish_without_stress_diffusion(self):
        kvals = list(STRICT_K)
        kvals[9] = 0.0  # k9
        coeffs = boundary_coefficients(load_model(synthetic_doc(kvals)))
        assert coeffs.S6 == 0.0
        assert coeffs.S8 == 0.0

    def test_s6_s8_linear_in_shear_rows(self):
        base = load_model(synthetic_doc(STRICT_K))
        scaled_doc = synthetic_doc(STRICT_K, m71=1.6, m81=0.6)
        scaled = load_model(scaled_doc)
        c0 = boundary_coefficients(base)
        c1 = boundary_coefficients(scaled)
        assert c1.S6 == pytest.approx(2.0 * c0.S6, rel=1e-14)
        assert c1.S8 == pytest.approx(c0.S8, rel=1e-14)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_ab_path_reproduces_table(self, name):
        # The final formulas must equal the intermediate-based combinations.
        model = load_model(bundled_model_path(name))
        match = matching_solve(model)
        coeffs = boundary_coefficients(model)
        a1, b1, a3, b3 = match.alpha1, match.beta1, match.alpha3, match.beta3
        assert coeffs.S1 == pytest.approx(-(a1 * coeffs.A2 + b1 * coeffs.B2), rel=1e-12, abs=1e-14)
        assert coeffs.T1 == pytest.approx(-(a1 * coeffs.A1 + b1 * coeffs.B1), rel=1e-12, abs=1e-14)
        assert coeffs.R2 == pytest.approx(a1 * coeffs.A3 + b1 * coeffs.B3, rel=1e-9, abs=1e-12)
        assert coeffs.S2 == pytest.approx(-(a3 * coeffs.A1 + b3 * coeffs.B1), rel=1e-12, abs=1e-14)
        assert coeffs.R4 == pytest.approx(-(a3 * coeffs.A3 + b3 * coeffs.B3), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_repeated_coefficients_consistent(self, name):
        # R1, R2, R3 each admit a second derivation path through other rows.
        model = load_model(bundled_model_path(name))
        consts = proportionality_constants(model)
        coeffs = boundary_coefficients(model)
        m = model.m
        r1_energy = 1.5 * consts.C5 * (consts.C4 + m[2, 6])
        assert coeffs.R1 == pytest.approx(r1_energy, rel=1e-9, abs=1e-12)
        r2_stress = -consts.C6 * m[3, 2] / 2.0 + 0.4 * model.k8
        assert coeffs.R2 == pytest.approx(r2_stress, rel=1e-9, abs=1e-12)
        r3_stress = coeffs.Y3 + 0.4 * model.k8
        assert coeffs.R3 == pytest.approx(r3_stress, rel=1e-9, abs=1e-12)

    def test_strict_mode_rejects_bad_ratios(self):
        doc = synthetic_doc(STRICT_K)
        doc["m"][3][3] = doc["m"][3][3] * 1.01  # break a C2 ratio
        with pytest.raises(ValueError, match="proportionality"):
            boundary_coefficients(load_model(doc))
        coeffs = boundary_coefficients(load_model(doc), strict=False)
        assert np.isfinite(coeffs.S1)

    def test_maxwell_momentum_path_collapses(self):
        model = load_model(bundled_model_path("maxwell"))
        match = matching_solve(model)
        assert match.alpha3 == 0.0
        assert match.beta3 == 0.0
        coeffs = boundary_coefficients(model)
        assert coeffs.T1 == pytest.approx(0.0, abs=1e-15)
        assert coeffs.T1_tilde == 0.0
        assert coeffs.S2 == pytest.approx(0.0, abs=1e-15)
        assert coeffs.S4 == pytest.approx(0.0, abs=1e-15)
        assert coeffs.T2 == pytest.approx(0.0, abs=1e-15)
        assert coeffs.R1 == pytest.approx(0.0, abs=1e-15)
        assert coeffs.R4 == pytest.approx(0.0, abs=1e-15)


class TestValidateBoundaryPsd:
    def test_boundary_case_passes(self):
        audit = validate_boundary_psd(BoundaryCoeffs(S1=1.0, S2=1.0, T1=1.0))
        assert audit.ok
        assert audit.tangential_eigenvalues == pytest.approx((0.0, 2.0), abs=1e-14)

    def test_determinant_failure_margin(self):
        audit = validate_boundary_psd(BoundaryCoeffs(S1=1.0, S2=1.0, T1=1.1))
        assert not audit.ok
        failed = {c.name: c.margin for c in audit.failures()}
        assert failed["T1^2 <= S1*S2"] == pytest.approx(-0.21, rel=1e-12)

    def test_negative_s_named(self):
        audit = validate_boundary_psd(BoundaryCoeffs(S3=-1e-6))
        names = [c.name for c in audit.failures()]
        assert "S3 >= 0" in names

    def test_tolerance_absorbs_roundoff(self):
        audit = validate_boundary_psd(BoundaryCoeffs(S1=-1e-14))
        assert audit.ok

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_models_pass(self, name):
        coeffs = boundary_coefficients(load_model(bundled_model_path(name)))
        audit = validate_boundary_psd(coeffs)
        assert audit.ok
        assert min(audit.tangential_eigenvalues) >= -1e-12
        assert min(audit.normal_eigenvalues) >= -1e-12


class TestSyntheticTable:
    def test_input_validation(self):
        with pytest.raises(ValueError, match="k0..k10"):
            synthetic_m_table(np.zeros(10), 2.0)
        with pytest.raises(ValueError, match="chi_tilde"):
            synthetic_m_table(np.ones(11), 0.0)
        with pytest.raises(ValueError, match="beta2"):
            synthetic_m_table(STRICT_K, 2.0, beta2=0.0)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError, match="Maxwell limit"):
            synthetic_m_table(np.zeros(11), 2.0)

    @pytest.mark.parametrize("chi", [1.0, 0.6])
    def test_random_strict_sets_pass_pipeline(self, chi):
        rng = np.random.default_rng(20240817)
        for _ in range(5):
            k3, k7 = rng.uniform(0.1, 1.0, size=2)
            k4 = 0.9 * np.sqrt(24.0 * k3 * k7 / 25.0)
            k1, k10 = rng.uniform(0.1, 1.0, size=2)
            k2 = 0.9 * np.sqrt(k1 * k10 / 3.0)
            k0, k5, k6, k8, k9 = rng.uniform(0.1, 1.5, size=5)
            kvals = [k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10]
            model = load_model(synthetic_doc(kvals, chi=chi))
            consts = proportionality_constants(model)
            assert max(consts.residuals.values()) <= 1e-12
            coeffs = boundary_coefficients(model)
            gap1, gap2 = coeffs.duplicate_gaps()
            assert max(gap1, gap2) <= 1e-12
            assert validate_boundary_psd(coeffs).ok

    def test_maxwell_limit_forces_rows(self):
        kvals = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.45, 0.9, 0.55, 0.65, 0.3]
        model = load_model(synthetic_doc(kvals))
        # m11 forced by the two R1 paths, m31 by the two R4 paths.
        assert model.m[1, 1] == pytest.approx(2.5, rel=1e-15)
        assert model.m[3, 1] == pytest.approx(2.0, rel=1e-15)
        coeffs = boundary_coefficients(model)
        assert coeffs.R1 == pytest.approx(0.0, abs=1e-15)
        assert coeffs.R4 == pytest.approx(0.0, abs=1e-15)
        assert validate_boundary_psd(coeffs).ok

    def test_normal_block_is_designed_gram_matrix(self):
        p, q = (1.0, 0.3), (0.8, 0.5)
        coeffs = boundary_coefficients(
            load_model(synthetic_doc(STRICT_K, normal_design=(p, q)))
        )
        assert coeffs.S3 == pytest.approx(np.dot(p, p), rel=1e-12)
        assert coeffs.S4 == pytest.approx(np.dot(q, q), rel=1e-12)
        assert coeffs.T2 == pytest.approx(np.dot(p, q), rel=1e-12)


# Relative bound of the tangential block identity: the measured gaps are at
# most 3.1e-16 on the bundled models and 7.8e-16 at tangential_scale 0.1.
TANGENTIAL_REL = 4e-15


def tangential_case(name, scale):
    """A bundled model, with its wall table rebuilt by synthetic_m_table at
    the given tangential_scale unless that is None (the file's table, made
    at scale 1)."""
    model = resolve_model(name)
    if scale is None:
        return model, 1.0
    table = synthetic_m_table(model.k, model.chi_tilde, tangential_scale=scale)
    return dataclasses.replace(model, m=MTable(table)), scale


class TestTangentialBlock:
    """The synthetic wall table makes the tangential block of the boundary
    coefficients s J P^2 J, with P = [[k3, k4], [k4, b]], b = 24 k7 / 25,
    J the swap and s the table's tangential_scale: cond(W) = cond(P)^2."""

    @pytest.mark.parametrize("name,scale", [(name, None) for name in BUNDLED]
                             + [("eta7", 0.1), ("eta7", 10.0)])
    def test_block_is_the_scaled_square_of_the_pair(self, name, scale):
        model, s = tangential_case(name, scale)
        c = boundary_coefficients(model)
        k3, k4, b = model.k3, model.k4, 24.0 * model.k7 / 25.0
        pair, swap = np.array([[k3, k4], [k4, b]]), np.array([[0.0, 1.0], [1.0, 0.0]])
        block = np.array([[c.S1, c.T1], [c.T1, c.S2]])
        ref = s * swap @ pair @ pair @ swap
        assert np.abs(block - ref).max() <= TANGENTIAL_REL * np.abs(ref).max()
        closed = s * np.array([k4**2 + b**2, k3**2 + k4**2, k4 * (k3 + b)])
        gap = np.abs(np.array([c.S1, c.S2, c.T1]) - closed).max()
        assert gap <= TANGENTIAL_REL * np.abs(closed).max()


class TestCoefficientReport:
    def test_report_structure(self):
        report = coefficient_report(load_model(bundled_model_path("eta7")))
        assert report["psd"]["ok"] is True
        assert report["duplicates"]["agree"] is True
        assert report["matching"]["consistent"] is True
        assert report["proportionality"]["inconsistent"] == []
        assert set(report["coefficients"]) >= {"S1", "R4", "T1_tilde"}

    def test_report_serializable(self):
        import json

        report = coefficient_report(load_model(bundled_model_path("maxwell")))
        parsed = json.loads(json.dumps(report))
        assert parsed["proportionality"]["values"]["C1"] == pytest.approx(1.0)
