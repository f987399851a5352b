"""Wall coefficient pipeline.

Derives the scalar coefficients of the weak-form wall conditions from a
molecular model in four stages:

1. proportionality constants C1..C7, each defined by several ratios of
   k's and m-table entries that must agree;
2. matching coefficients (alpha1, beta1) and (alpha3, beta3) from 2x2
   solves against the tangential derivative terms, and (alpha2, beta2)
   from a 3x2 least-squares matching of the normal-normal terms;
3. intermediates A1..A3, B1..B3;
4. the final boundary table R1..R4, S1..S8, T1, T2, with T1 and T2 also
   computed along independent second paths (the tilde duplicates) as a
   consistency check.

The wall quadratic form built from these coefficients must be positive
semidefinite: every S_i >= 0 and the coupling blocks [[S1,T1],[T1,S2]],
[[S3,T2],[T2,S4]] PSD.  validate_boundary_psd audits exactly that.

synthetic_m_table constructs a wall table that satisfies every ratio and
duplicate identity exactly for a given k-set; the bundled model files are
generated this way since physical tables are not published.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .models import MolecularModel, MTable

# Ratios defining one constant must agree to this relative tolerance.
RATIO_TOL = 1e-8
# Condition-number ceiling for the tangential 2x2 matching matrix.
COND_LIMIT = 1e12
# The 3x2 normal-stress matching must fit to this fraction of the rhs norm.
LSQ_TOL = 1e-8


@dataclass(frozen=True)
class ProportionalityConstants:
    """C1..C7 with per-constant agreement residuals.

    residuals[name] is the max pairwise relative deviation among the
    defined ratios; skipped[name] lists ratios dropped for having a zero
    denominator.
    """

    C1: float
    C2: float
    C3: float
    C4: float
    C5: float
    C6: float
    C7: float
    residuals: dict[str, float]
    skipped: dict[str, tuple[str, ...]]

    def inconsistent(self, tol: float = RATIO_TOL) -> tuple[str, ...]:
        """Constants whose defining ratios disagree beyond tol."""
        return tuple(name for name, r in self.residuals.items() if r > tol)


def proportionality_constants(model: MolecularModel) -> ProportionalityConstants:
    """Compute C1..C7 from every defining ratio.

    The value is the first defined ratio; ratios with a zero denominator
    are skipped and recorded.  Raises ValueError if every ratio of some
    constant is undefined.
    """
    m = model.m
    table = {
        "C1": (
            ("5*k4/(2*m15)", 5.0 / 2.0 * model.k4, m[1, 5]),
            ("2*k6/m13", 2.0 * model.k6, m[1, 3]),
            ("12*k7/(5*m14)", 12.0 / 5.0 * model.k7, m[1, 4]),
        ),
        "C2": (
            ("m43/m33", m[4, 3], m[3, 3]),
            ("m44/m34", m[4, 4], m[3, 4]),
            ("m45/m35", m[4, 5], m[3, 5]),
        ),
        "C3": (
            ("m53/m33", m[5, 3], m[3, 3]),
            ("m54/m34", m[5, 4], m[3, 4]),
            ("m55/m35", m[5, 5], m[3, 5]),
        ),
        "C4": (
            ("m23/m13", m[2, 3], m[1, 3]),
            ("m24/m14", m[2, 4], m[1, 4]),
            ("m25/m15", m[2, 5], m[1, 5]),
        ),
        "C5": (
            ("k1/m27", model.k1, m[2, 7]),
            ("k2/m28", model.k2, m[2, 8]),
        ),
        "C6": (
            ("3*k2/m35", 3.0 * model.k2, m[3, 5]),
            ("4*k9/m34", 4.0 * model.k9, m[3, 4]),
            ("k10/m33", model.k10, m[3, 3]),
        ),
        "C7": (
            ("m63/m13", m[6, 3], m[1, 3]),
            ("m64/m14", m[6, 4], m[1, 4]),
            ("m65/m15", m[6, 5], m[1, 5]),
        ),
    }
    values: dict[str, float] = {}
    residuals: dict[str, float] = {}
    skipped: dict[str, tuple[str, ...]] = {}
    for name, ratios in table.items():
        defined = [num / den for _, num, den in ratios if den != 0.0]
        skipped[name] = tuple(label for label, _, den in ratios if den == 0.0)
        if not defined:
            raise ValueError(f"every defining ratio of {name} has a zero denominator")
        values[name] = defined[0]
        worst = 0.0
        for i in range(len(defined)):
            for j in range(i + 1, len(defined)):
                scale = max(abs(defined[i]), abs(defined[j]))
                if scale > 0.0:
                    worst = max(worst, abs(defined[i] - defined[j]) / scale)
        residuals[name] = worst
    return ProportionalityConstants(
        C1=values["C1"],
        C2=values["C2"],
        C3=values["C3"],
        C4=values["C4"],
        C5=values["C5"],
        C6=values["C6"],
        C7=values["C7"],
        residuals=residuals,
        skipped=skipped,
    )


@dataclass(frozen=True)
class MatchingSolution:
    """Matching coefficients from the tangential and normal derivative systems."""

    alpha1: float
    beta1: float
    alpha3: float
    beta3: float
    alpha2: float
    beta2: float
    lsq_residual: float
    rhs_norm: float

    def consistent(self, tol: float = LSQ_TOL) -> bool:
        """True when the 3x2 system is solved within tolerance."""
        return self.lsq_residual <= tol * max(self.rhs_norm, np.finfo(float).tiny)


def matching_solve(model: MolecularModel) -> MatchingSolution:
    """Solve the three matching systems.

    (alpha1, beta1) and (alpha3, beta3) solve the 2x2 system with matrix
    [[m47, m57], [m48, m58]] against (k4, 24*k7/25) and (k3, k4).  The
    matrix must be well conditioned.  (alpha2, beta2) is the least-squares
    solution of

        [[m27, -m69], [0, -m67], [-m28, -m68]] @ (alpha2, beta2)
            = (1/2) * (3*k2, -3*k9, -k10),

    with the residual norm reported so callers can flag inconsistent
    tables.
    """
    m = model.m
    mat = np.array([[m[4, 7], m[5, 7]], [m[4, 8], m[5, 8]]])
    if np.linalg.cond(mat) > COND_LIMIT:
        raise ValueError("tangential matching matrix [[m47, m57], [m48, m58]] is singular")
    alpha1, beta1 = np.linalg.solve(mat, np.array([model.k4, 24.0 / 25.0 * model.k7]))
    alpha3, beta3 = np.linalg.solve(mat, np.array([model.k3, model.k4]))

    amat = np.array(
        [
            [m[2, 7], -m[6, 9]],
            [0.0, -m[6, 7]],
            [-m[2, 8], -m[6, 8]],
        ]
    )
    rhs = 0.5 * np.array([3.0 * model.k2, -3.0 * model.k9, -model.k10])
    sol, *_ = np.linalg.lstsq(amat, rhs, rcond=None)
    residual = float(np.linalg.norm(amat @ sol - rhs))
    return MatchingSolution(
        alpha1=float(alpha1),
        beta1=float(beta1),
        alpha3=float(alpha3),
        beta3=float(beta3),
        alpha2=float(sol[0]),
        beta2=float(sol[1]),
        lsq_residual=residual,
        rhs_norm=float(np.linalg.norm(rhs)),
    )


@dataclass(frozen=True)
class IntermediateAB:
    """Intermediates of the tangential heat-flux and momentum eliminations."""

    A1: float
    A2: float
    A3: float
    B1: float
    B2: float
    B3: float


def intermediate_AB(model: MolecularModel, C2: float, C3: float) -> IntermediateAB:
    """A's from wall-table row 4 with C2, B's from row 5 with C3."""
    m = model.m
    xt = model.chi_tilde
    return IntermediateAB(
        A1=xt * (m[4, 1] - C2 * m[3, 1]),
        A2=xt * (-m[4, 2] - C2 * m[3, 2]),
        A3=-m[4, 6] + C2,
        B1=xt * (m[5, 1] - C3 * m[3, 1]),
        B2=xt * (-m[5, 2] - C3 * m[3, 2]),
        B3=-m[5, 6] + C3,
    )


@dataclass(frozen=True)
class BoundaryCoeffs:
    """Final wall coefficient table.

    T1_tilde and T2_tilde are the same physical coefficients computed
    along independent derivation paths; for a consistent model they equal
    T1 and T2.  When omitted they default to the direct values so audits
    can be run on hand-built tables.
    """

    S1: float = 0.0
    S2: float = 0.0
    S3: float = 0.0
    S4: float = 0.0
    S5: float = 0.0
    S6: float = 0.0
    S7: float = 0.0
    S8: float = 0.0
    R1: float = 0.0
    R2: float = 0.0
    R3: float = 0.0
    R4: float = 0.0
    T1: float = 0.0
    T2: float = 0.0
    T1_tilde: float | None = None
    T2_tilde: float | None = None
    A1: float = 0.0
    A2: float = 0.0
    A3: float = 0.0
    B1: float = 0.0
    B2: float = 0.0
    B3: float = 0.0
    Y1: float = 0.0
    Y2: float = 0.0
    Y3: float = 0.0

    def __post_init__(self):
        if self.T1_tilde is None:
            object.__setattr__(self, "T1_tilde", self.T1)
        if self.T2_tilde is None:
            object.__setattr__(self, "T2_tilde", self.T2)

    def duplicate_gaps(self) -> tuple[float, float]:
        """Relative disagreement of (T1, T1_tilde) and (T2, T2_tilde)."""
        g1 = abs(self.T1 - self.T1_tilde) / max(abs(self.T1), abs(self.T1_tilde), 1.0)
        g2 = abs(self.T2 - self.T2_tilde) / max(abs(self.T2), abs(self.T2_tilde), 1.0)
        return g1, g2


# The derivation is a pure function of a hashable model and returns a
# frozen table, so each (model, strict) is derived once per process, in a
# memo of _DERIVATION_MEMO_SIZE keys; a rejection is not kept and is
# derived again.  Models compare as the dataclasses do, so a model whose
# parameters differ from a kept one's only in the sign of a zero gets the
# kept table, as the slab kernel memo shares kernels.
_DERIVATION_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_DERIVATION_MEMO_SIZE)
def boundary_coefficients(model: MolecularModel, *, strict: bool = True) -> BoundaryCoeffs:
    """Run the full pipeline and evaluate all final formulas, once per
    (model, strict) while the memo keeps it.

    With strict=True (default) a model whose ratios disagree beyond
    RATIO_TOL or whose 3x2 matching residual exceeds LSQ_TOL is rejected;
    strict=False still computes the table (useful for reporting on
    inconsistent data).
    """
    consts = proportionality_constants(model)
    if strict:
        bad = consts.inconsistent()
        if bad:
            raise ValueError(
                "proportionality ratios disagree beyond tolerance: " + ", ".join(bad)
            )
    match = matching_solve(model)
    if strict and not match.consistent():
        raise ValueError("normal-stress matching system is inconsistent beyond tolerance")
    ab = intermediate_AB(model, consts.C2, consts.C3)

    m = model.m
    xt = model.chi_tilde
    C1, C2, C3 = consts.C1, consts.C2, consts.C3
    C4, C5, C6, C7 = consts.C4, consts.C5, consts.C6, consts.C7
    a1, b1 = match.alpha1, match.beta1
    a2, b2 = match.alpha2, match.beta2
    a3, b3 = match.alpha3, match.beta3

    Y1 = a2 * xt * (C4 * m[1, 1] - m[2, 1]) + b2 * xt * (C7 * m[1, 1] - m[6, 1])
    Y2 = a2 * xt * (C4 * m[1, 2] + m[2, 2]) + b2 * xt * (C7 * m[1, 2] + m[6, 2])
    Y3 = -a2 * (m[2, 6] + C4) + b2 * (m[6, 6] - C7)

    return BoundaryCoeffs(
        S1=xt * (a1 * (m[4, 2] + C2 * m[3, 2]) + b1 * (m[5, 2] + C3 * m[3, 2])),
        S2=xt * (a3 * (C2 * m[3, 1] - m[4, 1]) + b3 * (C3 * m[3, 1] - m[5, 1])),
        S3=Y2,
        S4=3.0 / 2.0 * C5 * xt * (m[2, 1] - C4 * m[1, 1]),
        S5=2.0 / 5.0 * C1 / xt,
        S6=model.k9 * xt * m[7, 1],
        S7=C6 / (2.0 * xt),
        S8=2.0 * model.k9 * xt * m[8, 1],
        R1=2.0 / 5.0 * C1 * m[1, 1] - model.k0,
        R2=a1 * (C2 - m[4, 6]) + b1 * (C3 - m[5, 6]),
        R3=2.0 / 5.0 * C1 * m[1, 2],
        R4=C6 * m[3, 1] / 2.0 - model.k5,
        T1=xt * (a1 * (C2 * m[3, 1] - m[4, 1]) + b1 * (C3 * m[3, 1] - m[5, 1])),
        T2=-3.0 / 2.0 * C5 * xt * (m[2, 2] + C4 * m[1, 2]),
        # Second paths: momentum balance for T1, normal-normal stress for T2.
        T1_tilde=-(a3 * ab.A2 + b3 * ab.B2),
        T2_tilde=Y1,
        A1=ab.A1,
        A2=ab.A2,
        A3=ab.A3,
        B1=ab.B1,
        B2=ab.B2,
        B3=ab.B3,
        Y1=Y1,
        Y2=Y2,
        Y3=Y3,
    )


@dataclass(frozen=True)
class PsdCondition:
    name: str
    margin: float
    passed: bool


@dataclass(frozen=True)
class PsdAudit:
    """Positivity audit of the wall quadratic form.

    The tangential block couples the shear traces (coefficients S1, S2,
    T1), the normal block couples the temperature and normal-stress
    traces (S3, S4, T2).
    """

    conditions: tuple[PsdCondition, ...]
    tangential_block: np.ndarray
    tangential_eigenvalues: tuple[float, float]
    normal_block: np.ndarray
    normal_eigenvalues: tuple[float, float]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> tuple[PsdCondition, ...]:
        return tuple(c for c in self.conditions if not c.passed)


def validate_boundary_psd(coeffs: BoundaryCoeffs, tol: float = 1e-12) -> PsdAudit:
    """Check S_i >= 0, T1^2 <= S1*S2, and T2^2 <= S3*S4 with margins.

    Margins within -tol of zero pass (non-strict conditions evaluated in
    floating point).
    """
    conditions = []
    for i in range(1, 9):
        value = getattr(coeffs, f"S{i}")
        conditions.append(PsdCondition(f"S{i} >= 0", value, value >= -tol))
    det_t = coeffs.S1 * coeffs.S2 - coeffs.T1**2
    conditions.append(PsdCondition("T1^2 <= S1*S2", det_t, det_t >= -tol))
    det_n = coeffs.S3 * coeffs.S4 - coeffs.T2**2
    conditions.append(PsdCondition("T2^2 <= S3*S4", det_n, det_n >= -tol))

    tangential = np.array([[coeffs.S1, coeffs.T1], [coeffs.T1, coeffs.S2]])
    normal = np.array([[coeffs.S3, coeffs.T2], [coeffs.T2, coeffs.S4]])
    eig_t = np.linalg.eigvalsh(tangential)
    eig_n = np.linalg.eigvalsh(normal)
    return PsdAudit(
        conditions=tuple(conditions),
        tangential_block=tangential,
        tangential_eigenvalues=(float(eig_t[0]), float(eig_t[1])),
        normal_block=normal,
        normal_eigenvalues=(float(eig_n[0]), float(eig_n[1])),
    )


def coefficient_report(model: MolecularModel) -> dict:
    """Full pipeline summary as a plain nested dict (JSON/YAML friendly)."""
    consts = proportionality_constants(model)
    match = matching_solve(model)
    coeffs = boundary_coefficients(model, strict=False)
    audit = validate_boundary_psd(coeffs)
    gap1, gap2 = coeffs.duplicate_gaps()
    return {
        "proportionality": {
            "values": {f"C{i}": getattr(consts, f"C{i}") for i in range(1, 8)},
            "residuals": dict(consts.residuals),
            "skipped": {k: list(v) for k, v in consts.skipped.items()},
            "inconsistent": list(consts.inconsistent()),
        },
        "matching": {
            "alpha1": match.alpha1,
            "beta1": match.beta1,
            "alpha2": match.alpha2,
            "beta2": match.beta2,
            "alpha3": match.alpha3,
            "beta3": match.beta3,
            "lsq_residual": match.lsq_residual,
            "rhs_norm": match.rhs_norm,
            "consistent": bool(match.consistent()),
        },
        "intermediates": {
            name: getattr(coeffs, name) for name in ("A1", "A2", "A3", "B1", "B2", "B3")
        },
        "coefficients": {
            name: getattr(coeffs, name)
            for name in (
                "S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8",
                "R1", "R2", "R3", "R4", "T1", "T2", "T1_tilde", "T2_tilde",
            )
        },
        "duplicates": {
            "T1_gap": gap1,
            "T2_gap": gap2,
            "agree": bool(gap1 <= 1e-10 and gap2 <= 1e-10),
        },
        "psd": {
            "conditions": [
                {"name": c.name, "margin": c.margin, "passed": c.passed}
                for c in audit.conditions
            ],
            "tangential_eigenvalues": list(audit.tangential_eigenvalues),
            "normal_eigenvalues": list(audit.normal_eigenvalues),
            "ok": bool(audit.ok),
        },
    }


def synthetic_m_table(
    k,
    chi_tilde: float,
    *,
    c2: float = 0.5,
    c3: float = 0.75,
    c4: float = 1.25,
    c7: float = 0.8,
    tangential_scale: float = 1.0,
    m11: float = 3.0,
    m12: float = 1.0,
    m31: float = 1.0,
    m32: float = 0.5,
    normal_design: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.3), (0.8, 0.5)),
    alpha2: float = 0.25,
    beta2: float = 1.0,
    m21: float = 1.5,
    m22: float = 0.4,
    m26: float = 0.3,
    m71: float = 0.8,
    m81: float = 0.6,
) -> np.ndarray:
    """Build a wall table that is exactly consistent with the given k-set.

    Construction rules (C1 and C6 are normalized to 1, C5 to 1 for
    non-Maxwell k-sets and 0 in the Maxwell limit):

    * rows 1 and 3 carry the derivative columns m13..m15, m33..m35 forced
      by C1 = C6 = 1; rows 2, 4, 5, 6 copy them scaled by c4, c2, c3, c7;
    * the tangential 2x2 block is the identity, so alpha1 = k4,
      beta1 = 24*k7/25, alpha3 = k3, beta3 = k4;
    * columns 1 and 2 of rows 4 and 5 are chosen so the A/B combination
      reproduces -tangential_scale * [[k3, k4], [k4, 24*k7/25]], which
      makes T1 = T1_tilde automatic and ties the tangential PSD block to
      the strict constraint 25*k4^2 < 24*k3*k7 (Cauchy-Schwarz);
    * normal_design = (p, q) sets S3 = |p|^2, S4 = |q|^2, T2 = p.q, so the
      normal block is a Gram matrix and PSD by construction;
    * the remaining entries are back-solved so every coefficient that
      admits two derivation paths (R1..R4, T1, T2) agrees exactly.

    The k-set must either satisfy the strict pair constraint
    25*k4^2 < 24*k3*k7 or sit in the Maxwell limit k3 = k4 = 0.  In the
    Maxwell limit (and only there) m21, m22, m26, m31 stop being derived:
    m31 is pinned to 2*k5 so both R4 paths vanish, m11 is forced by the
    R1 paths, and m21, m22, m26 keep their passed values.  Likewise
    k1 = k2 = 0 sets C5 = 0 via m27 = 1, m28 = 0.

    Returns the (8, 9) array; wrap in MTable or embed in a model document.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (11,):
        raise ValueError("k must hold the 11 coefficients k0..k10")
    xt = float(chi_tilde)
    if xt <= 0.0:
        raise ValueError("chi_tilde must be positive")
    s = float(tangential_scale)
    m = np.zeros((8, 9))

    def put(j, col, value):
        m[j - 1, col - 1] = value

    # C5 target: 1 for non-Maxwell sets, 0 when the energy-flux k's vanish.
    if k[1] == 0.0 and k[2] == 0.0:
        c5, m27, m28 = 0.0, 1.0, 0.0
    else:
        c5, m27, m28 = 1.0, k[1], k[2]
    put(2, 7, m27)
    put(2, 8, m28)

    # Row 1 derivative columns (C1 = 1) and the scaled copies.
    row1_cols = (2.0 * k[6], 12.0 / 5.0 * k[7], 5.0 / 2.0 * k[4])
    for col, value in zip((3, 4, 5), row1_cols):
        put(1, col, value)
        put(2, col, c4 * value)
        put(6, col, c7 * value)
    # Row 3 derivative columns (C6 = 1) and the C2/C3 copies.
    row3_cols = (k[10], 4.0 * k[9], 3.0 * k[2])
    for col, value in zip((3, 4, 5), row3_cols):
        put(3, col, value)
        put(4, col, c2 * value)
        put(5, col, c3 * value)

    # Identity tangential block: alpha1 = k4, beta1 = 24*k7/25, alpha3 = k3,
    # beta3 = k4.
    put(4, 7, 1.0)
    put(5, 8, 1.0)
    a1, b1 = k[4], 24.0 / 25.0 * k[7]
    a3, b3 = k[3], k[4]

    # The A3/B3 back-solve is singular exactly when the two tangential
    # right-hand sides are parallel; for the bundled sets that happens only
    # in the Maxwell limit k3 = k4 = 0.
    det = a1 * b3 - b1 * a3
    if det == 0.0:
        if b1 == 0.0 or k[4] != 0.0:
            raise ValueError(
                "synthetic table requires 25*k4^2 < 24*k3*k7 or the Maxwell limit k3 = k4 = 0"
            )
        m31 = 2.0 * k[5]  # forces both R4 paths to zero
    put(3, 1, m31)
    put(3, 2, m32)

    # Both R1 paths must agree; with C5 = 0 that forces the canonical path
    # to zero through m11.
    if c5 == 0.0:
        m11 = 5.0 / 2.0 * k[0]
    else:
        m21 = c4 * m11 + 2.0 / 3.0 * float(np.dot(normal_design[1], normal_design[1])) / (c5 * xt)
        m22 = -c4 * m12 - 2.0 / 3.0 * float(np.dot(normal_design[0], normal_design[1])) / (c5 * xt)
        m26 = 2.0 / 3.0 * (2.0 / 5.0 * m11 - k[0]) / c5 - c4
    put(1, 1, m11)
    put(1, 2, m12)
    put(2, 1, m21)
    put(2, 2, m22)
    put(2, 6, m26)

    # Columns 1 and 2 of rows 4 and 5 realize the target A/B combination
    # -s * [[k3, k4], [k4, 24*k7/25]].
    put(4, 1, c2 * m31 - s * k[3] / xt)
    put(4, 2, -c2 * m32 + s * k[4] / xt)
    put(5, 1, c3 * m31 - s * k[4] / xt)
    put(5, 2, -c3 * m32 + s * b1 / xt)

    # A3, B3 reconciling the two derivation paths of R2 and R4.
    r2_target = 2.0 / 5.0 * k[8] - m32 / 2.0
    r4_target = m31 / 2.0 - k[5]
    if det == 0.0:
        a3b3 = np.array([0.0, r2_target / b1])
    else:
        a3b3 = np.linalg.solve(
            np.array([[a1, b1], [a3, b3]]), np.array([r2_target, -r4_target])
        )
    put(4, 6, c2 - a3b3[0])
    put(5, 6, c3 - a3b3[1])

    # Normal-stress matching columns for the chosen (alpha2, beta2).
    if beta2 == 0.0:
        raise ValueError("beta2 must be nonzero")
    put(6, 7, 3.0 / 2.0 * k[9] / beta2)
    put(6, 8, (k[10] / 2.0 - alpha2 * m28) / beta2)
    put(6, 9, (alpha2 * m27 - 3.0 / 2.0 * k[2]) / beta2)

    # Row 6 columns 1 and 2 make the normal-normal path reproduce T2 and
    # hit the S3 target; column 6 reconciles the two R3 paths.
    t2 = -3.0 / 2.0 * c5 * xt * (m22 + c4 * m12)
    s3 = float(np.dot(normal_design[0], normal_design[0]))
    put(6, 1, c7 * m11 + (alpha2 * (c4 * m11 - m21) - t2 / xt) / beta2)
    put(6, 2, (s3 / xt - alpha2 * (c4 * m12 + m22)) / beta2 - c7 * m12)
    put(6, 6, c7 + (2.0 / 5.0 * m12 - 2.0 / 5.0 * k[8] + alpha2 * (m26 + c4)) / beta2)

    put(7, 1, m71)
    put(8, 1, m81)
    return m
