"""Desk-scale finite element solver for the moment system on a unit slab.

Geometry is the interval [0, 1] with walls at x = 0 and x = 1; all fields
vary along axis 1 only, so every 3-D differential operator reduces through
the slab gradient helpers of :mod:`r13lab.tensors`.  The bilinear forms are
never hand-reduced: each one is probed numerically from its 3-D definition
on unit value / derivative inputs, all stacked into one batched evaluation,
which yields a constant pointwise kernel because the coefficients are
homogeneous.  Assembly then combines the kernel blocks with 1-D element
matrices.

Wall frames: at x = 1 the outward normal is +e1, at x = 0 it is -e1, with
t1 = e2 and t2 = e3 at both walls.  Normal components of odd fields flip
sign at x = 0 accordingly (s_n = -s1 there).

Two steady groupings are supported.  The coercive one solves for
(s, u, sigma, theta) with the pressure as a constrained multiplier field;
the grouped one for degenerate (Maxwell-type) models solves
(sigma, s, p | u, theta) with velocity in an H(div)-style space.  The
time-dependent path reuses the first grouping without the zero-mean
pressure constraint.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fe1d import element_coo, gauss01, lagrange
from .models import MolecularModel, thermo_discriminants
from .onsager import BoundaryCoeffs, boundary_coefficients
from .state import (PhysicalFluxes, StateVector, entropy_density, mass_inner,
                    physical_fluxes)
from .tensors import (
    Frame,
    StfTensor3,
    frame_components,
    slab_grad_stf2,
    slab_grad_vec,
)

DEFAULT_KN = 0.1
DEFAULT_DEGREE = 2
DEFAULT_ELEMENTS = 64

# Linear-solve acceptance threshold, relative to the load norm.
RESIDUAL_RTOL = 1e-8

# Stored scalar components of the weak-form state, in layout order.  The
# density is not stored; it is recovered as rho = p - theta.
COMPONENTS = (
    "p", "theta", "u1", "u2", "u3", "s1", "s2", "s3",
    "sig1", "sig2", "sig3", "sig4", "sig5",
)

# Component groups the bilinear forms act on.
GROUPS = {
    "p": ("p",),
    "th": ("theta",),
    "u": ("u1", "u2", "u3"),
    "s": ("s1", "s2", "s3"),
    "sg": ("sig1", "sig2", "sig3", "sig4", "sig5"),
}

# (first argument group, second argument group) of each bilinear form.
FORM_GROUPS = {
    "a": ("s", "s"),
    "b": ("th", "s"),
    "c": ("s", "sg"),
    "d": ("sg", "sg"),
    "e": ("u", "sg"),
    "f": ("u", "u"),
    "g": ("p", "u"),
    "j": ("s", "u"),
    "z": ("th", "sg"),
    "h": ("th", "th"),
}

# Outward frames at the two walls (index 0: x = 0, index 1: x = 1).
WALL_FRAMES = (
    Frame(n=np.array([-1.0, 0.0, 0.0]), t1=np.array([0.0, 1.0, 0.0]),
          t2=np.array([0.0, 0.0, 1.0])),
    Frame(n=np.array([1.0, 0.0, 0.0]), t1=np.array([0.0, 1.0, 0.0]),
          t2=np.array([0.0, 0.0, 1.0])),
)


class SolverError(RuntimeError):
    """Raised when a linear solve fails or misses the residual target."""


# ---------------------------------------------------------------------------
# meshes and scalar spaces


@dataclass(frozen=True)
class SlabMesh:
    """Uniform partition of [0, 1] into n_elements intervals."""

    n_elements: int
    degree: int = DEFAULT_DEGREE

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if self.degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")

    @property
    def h(self) -> float:
        return 1.0 / self.n_elements


@dataclass(frozen=True)
class ScalarSpace:
    """One scalar finite element space on the slab mesh.

    kind "cg": continuous Lagrange elements of the mesh degree.
    kind "dg": discontinuous elements of degree mesh.degree - 1 with
    Gauss-point nodes (traces are evaluated by extrapolation).
    """

    mesh: SlabMesh
    kind: str

    def __post_init__(self):
        if self.kind not in ("cg", "dg"):
            raise ValueError(f"unknown space kind {self.kind!r}")

    @property
    def local_nodes(self) -> np.ndarray:
        p = self.mesh.degree
        if self.kind == "cg":
            return np.linspace(0.0, 1.0, p + 1)
        return gauss01(p)[0]

    @property
    def n_local(self) -> int:
        return self.mesh.degree + 1 if self.kind == "cg" else self.mesh.degree

    @property
    def ndof(self) -> int:
        n, p = self.mesh.n_elements, self.mesh.degree
        return n * p + 1 if self.kind == "cg" else n * p

    def tabulate(self, ref_pts: np.ndarray):
        """Basis values and physical derivatives at reference points."""
        vals, ders = lagrange(self.local_nodes, ref_pts)
        return vals, ders * self.mesh.n_elements

    def locate(self, x: np.ndarray):
        """(element dofs of shape (len(x), n_local), basis values, basis
        x-derivatives of shape (n_local, len(x))) at points in [0, 1].

        Raises ValueError for points that are not finite or lie outside
        [0, 1]; an interior element boundary belongs to the element on its
        right.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # NaN fails both comparisons.
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValueError("evaluation points must be finite and lie in [0, 1]")
        n = self.mesh.n_elements
        elems = np.minimum((x * n).astype(int), n - 1)
        bv, bd = self.tabulate(x * n - elems)
        return self.all_element_dofs()[elems], bv, bd

    def evaluate(self, coeffs: np.ndarray, x: np.ndarray):
        """Field values and x-derivatives at arbitrary points in [0, 1]."""
        dofs, bv, bd = self.locate(x)
        local = coeffs[dofs].T
        return (local * bv).sum(axis=0), (local * bd).sum(axis=0)

    def all_element_dofs(self) -> np.ndarray:
        """(n_elements, n_local) global dof indices."""
        p = self.mesh.degree
        base = np.arange(self.mesh.n_elements)[:, None] * p
        return base + np.arange(self.n_local)[None, :]


def build_spaces(mesh: SlabMesh, formulation: str) -> dict:
    """Component -> ScalarSpace for one of the two steady groupings.

    The coercive grouping keeps every field continuous except the pressure.
    The degenerate grouping additionally moves theta and the tangential
    velocity into the discontinuous space (L2 / H(div)-type regularity).
    """
    if formulation not in ("nonmaxwell", "maxwell"):
        raise ValueError(f"unknown formulation {formulation!r}")
    cg = ScalarSpace(mesh, "cg")
    dg = ScalarSpace(mesh, "dg")
    spaces = {name: cg for name in COMPONENTS}
    spaces["p"] = dg
    if formulation == "maxwell":
        spaces["theta"] = dg
        spaces["u2"] = dg
        spaces["u3"] = dg
    return spaces


# ---------------------------------------------------------------------------
# wall data


@dataclass(frozen=True)
class WallData:
    """Wall temperature and tangential wall velocity at x = 0 and x = 1.

    u_t rows are (t1, t2) frame components per wall; the normal wall
    velocity is identically zero (non-penetration).
    """

    theta_w: np.ndarray
    u_t: np.ndarray

    def __post_init__(self):
        tw = np.asarray(self.theta_w, dtype=float)
        ut = np.asarray(self.u_t, dtype=float)
        if tw.shape != (2,):
            raise ValueError("theta_w must have one value per wall")
        if ut.shape != (2, 2):
            raise ValueError("u_t must be 2x2: walls by (t1, t2)")
        object.__setattr__(self, "theta_w", tw)
        object.__setattr__(self, "u_t", ut)

    @classmethod
    def homogeneous(cls) -> "WallData":
        return cls(theta_w=np.zeros(2), u_t=np.zeros((2, 2)))

    @classmethod
    def couette(cls, speed: float = 0.5) -> "WallData":
        """Antisymmetric tangential drive u_t1 = -speed / +speed."""
        return cls(theta_w=np.zeros(2),
                   u_t=np.array([[-speed, 0.0], [speed, 0.0]]))

    @classmethod
    def fourier(cls, delta: float = 0.5) -> "WallData":
        """Wall temperatures -delta / +delta, no tangential drive."""
        return cls(theta_w=np.array([-delta, delta]), u_t=np.zeros((2, 2)))

    @property
    def is_homogeneous(self) -> bool:
        return not (np.any(self.theta_w) or np.any(self.u_t))


# ---------------------------------------------------------------------------
# pointwise kernels probed from the 3-D form definitions
#
# Every pointwise integrand broadcasts over leading batch axes of its field
# samples (see r13lab.tensors) and reduces over the trailing axes only.


def _vec_fields(vals, ders):
    grad, grad_stf = slab_grad_vec(vals, ders)
    return {"val": np.asarray(vals, dtype=float), "grad_stf": grad_stf,
            "div": ders[..., 0]}


def _sig_fields(vals, ders):
    sig = StfTensor3(vals)
    _, grad_stf3, div = slab_grad_stf2(sig, StfTensor3(ders))
    return {"val": sig, "grad_stf3": grad_stf3, "div": div}


def _th_fields(val, der):
    grad = np.zeros(np.shape(der) + (3,))
    grad[..., 0] = der
    return {"val": val, "grad": grad}


def _dot(x: np.ndarray, y: np.ndarray):
    return np.sum(x * y, axis=-1)


def _stf2_dot(x: StfTensor3, y: StfTensor3):
    return np.sum(x.matrix() * y.matrix(), axis=(-2, -1))


def _stf3_dot(x: np.ndarray, y: np.ndarray):
    return np.sum(x * y, axis=(-3, -2, -1))


def _volume_forms(model: MolecularModel, kn: float) -> dict:
    """Pointwise volume integrands of the ten bilinear forms.

    Each callable takes the prepared field dictionaries of its two
    arguments.  These are verbatim transcriptions of the 3-D definitions;
    the slab reduction happens inside the field preparation only.
    """
    k = model
    return {
        "a": lambda s, r: (24.0 / 25.0) * k.k7 * kn * _stf2_dot(s["grad_stf"], r["grad_stf"])
        + (4.0 / 5.0) * k.k6 * kn * s["div"] * r["div"]
        + (4.0 * k.l1) / (15.0 * kn) * _dot(s["val"], r["val"]),
        "b": lambda th, r: k.k0 * th["val"] * r["div"],
        "c": lambda r, sg: -(2.0 / 5.0) * k.k8 * _dot(r["val"], sg["div"]),
        "d": lambda sg, tu: k.k9 * kn * _stf3_dot(sg["grad_stf3"], tu["grad_stf3"])
        + 0.5 * k.k10 * kn * _dot(sg["div"], tu["div"])
        + k.l2 / (2.0 * kn) * _stf2_dot(sg["val"], tu["val"]),
        "e": lambda v, sg: k.k5 * _dot(v["val"], sg["div"]),
        "f": lambda u, v: k.k3 * kn * _stf2_dot(u["grad_stf"], v["grad_stf"]),
        "g": lambda p, v: p["val"] * v["div"],
        "j": lambda s, v: k.k4 * kn * _stf2_dot(s["grad_stf"], v["grad_stf"]),
        "z": lambda th, tu: -1.5 * k.k2 * kn * _dot(th["grad"], tu["div"]),
        "h": lambda th, ga: 1.5 * k.k1 * kn * _dot(th["grad"], ga["grad"]),
    }


def _boundary_forms(coeffs: BoundaryCoeffs) -> dict:
    """Pointwise wall integrands in outward-frame trace components.

    The coupling written against (sig_t1t1 + sig_nn/2) carries an implied
    sum over both tangential directions; by trace-freeness the two terms
    are equal, so it enters through the explicit two-term sum below.
    """
    c = coeffs

    def d_form(sg, tu):
        tt = sum((sg[f"t{i}t{i}"] + 0.5 * sg["nn"]) * (tu[f"t{i}t{i}"] + 0.5 * tu["nn"])
                 for i in (1, 2))
        return (c.S3 * sg["nn"] * tu["nn"] + c.S6 * tt
                + c.S7 * (sg["nt1"] * tu["nt1"] + sg["nt2"] * tu["nt2"])
                + c.S8 * sg["t1t2"] * tu["t1t2"])

    return {
        "a": lambda s, r: c.S5 * s["n"] * r["n"] + c.S1 * (s["t1"] * r["t1"] + s["t2"] * r["t2"]),
        "b": lambda th, r: c.R1 * th * r["n"],
        "c": lambda r, sg: c.R2 * (r["t1"] * sg["nt1"] + r["t2"] * sg["nt2"]) + c.R3 * r["n"] * sg["nn"],
        "d": d_form,
        "e": lambda v, sg: c.R4 * (sg["nt1"] * v["t1"] + sg["nt2"] * v["t2"]),
        "f": lambda u, v: c.S2 * (u["t1"] * v["t1"] + u["t2"] * v["t2"]),
        "g": lambda p, v: 0.0,
        "j": lambda s, v: c.T1 * (s["t1"] * v["t1"] + s["t2"] * v["t2"]),
        "z": lambda th, tu: c.T2 * th * tu["nn"],
        "h": lambda th, ga: c.S4 * th * ga,
    }


_GROUP_DIM = {"p": 1, "th": 1, "u": 3, "s": 3, "sg": 5}


def _prepare(group: str, vals: np.ndarray, ders: np.ndarray):
    if group in ("u", "s"):
        return _vec_fields(vals, ders)
    if group == "sg":
        return _sig_fields(vals, ders)
    return _th_fields(vals[..., 0], ders[..., 0])


def _frame_comps(group: str, vals: np.ndarray, frame: Frame):
    if group in ("u", "s"):
        return frame_components(vals, frame)
    if group == "sg":
        return frame_components(StfTensor3(vals), frame)
    return vals[..., 0]


def _probe_volume_kernel(form, g1: str, g2: str) -> np.ndarray:
    """Constant kernel K with K[i, j] = form(probe_i, probe_j).

    Probe index layout per argument: first the value components, then the
    derivative components of the group.  The unit probes of the two
    arguments are stacked along crossed batch axes, (2 m1, 1) and
    (1, 2 m2), so one form evaluation gives the whole kernel.
    """
    m1, m2 = _GROUP_DIM[g1], _GROUP_DIM[g2]
    x = np.eye(2 * m1)[:, None]
    y = np.eye(2 * m2)[None]
    return form(_prepare(g1, x[..., :m1], x[..., m1:]),
                _prepare(g2, y[..., :m2], y[..., m2:]))


def _probe_boundary_kernel(form, g1: str, g2: str, frame: Frame) -> np.ndarray:
    """Wall kernel K with K[i, j] = form(unit trace i, unit trace j)."""
    m1, m2 = _GROUP_DIM[g1], _GROUP_DIM[g2]
    kern = form(_frame_comps(g1, np.eye(m1)[:, None], frame),
                _frame_comps(g2, np.eye(m2)[None], frame))
    # A form without wall terms returns a plain zero.
    return np.broadcast_to(kern, (m1, m2))


# ---------------------------------------------------------------------------
# assembly


def _csr(triplets: list, shape: tuple) -> sp.csr_matrix:
    """Sum a list of COO (rows, cols, vals) chunks into a CSR matrix."""
    if not triplets:
        return sp.csr_matrix(shape)
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


class SlabAssembly:
    """Assembled form matrices and load machinery for one configuration.

    Every bilinear form is stored as a global sparse matrix whose rows
    index the form's first argument and whose columns index the second,
    both in the shared component dof layout.  Row builders for the actual
    systems transpose blocks as needed.
    """

    def __init__(self, mesh: SlabMesh, model: MolecularModel, kn: float = DEFAULT_KN,
                 formulation: str = "nonmaxwell", coeffs: BoundaryCoeffs | None = None):
        if not (np.isfinite(kn) and kn > 0):
            raise ValueError(f"Kn must be positive and finite, got {kn!r}")
        if formulation == "maxwell" and not model.is_maxwell:
            raise ValueError("grouped degenerate solve requires a Maxwell-type model")
        if formulation == "nonmaxwell" and not model.is_maxwell:
            report = thermo_discriminants(model)
            if report.status1 != "strict" or report.status2 != "strict":
                raise ValueError(
                    "coercive grouping needs strictly positive discriminants: "
                    f"z1={report.z1:.3e}, z2={report.z2:.3e}")
        self.mesh = mesh
        self.model = model
        self.kn = float(kn)
        self.formulation = formulation
        self.coeffs = coeffs if coeffs is not None else boundary_coefficients(model)

        self.spaces = build_spaces(mesh, formulation)
        self.offsets: dict[str, int] = {}
        off = 0
        for name in COMPONENTS:
            self.offsets[name] = off
            off += self.spaces[name].ndof
        self.ndof = off

        self._vol = _volume_forms(model, self.kn)
        self._bdry = _boundary_forms(self.coeffs)
        self._forms: dict[str, sp.csr_matrix] = {}
        self._factorizations: dict = {}
        self._a_operator: sp.csr_matrix | None = None
        self._monitor_ops = None
        qpts, qwts = gauss01(mesh.degree + 1)
        self._tab = {kind: ScalarSpace(mesh, kind).tabulate(qpts)
                     for kind in ("cg", "dg")}
        self._traces = {kind: ScalarSpace(mesh, kind).locate(np.array([0.0, 1.0]))
                        for kind in ("cg", "dg")}
        self._qwts = qwts * mesh.h
        for name in FORM_GROUPS:
            self._forms[name] = self._assemble_form(name)
        self._mass = self._assemble_mass()

    # -- layout helpers ----------------------------------------------------

    def dofs(self, component: str) -> np.ndarray:
        return self.offsets[component] + np.arange(self.spaces[component].ndof)

    def group_dofs(self, group: str) -> np.ndarray:
        return np.concatenate([self.dofs(c) for c in GROUPS[group]])

    def _trace(self, component: str, wall: int):
        """(global dofs, basis values, basis x-derivatives) of one
        component at a wall."""
        dofs, vals, ders = self._traces[self.spaces[component].kind]
        return self.offsets[component] + dofs[wall], vals[:, wall], ders[:, wall]

    @property
    def essential_dofs(self) -> np.ndarray:
        """Global dofs of the normal velocity trace at both walls."""
        out = []
        for wall in (0, 1):
            gd, tv, _ = self._trace("u1", wall)
            # CG Lagrange trace is a single endpoint dof.
            out.append(gd[np.argmax(np.abs(tv))])
        return np.unique(np.array(out))

    def form(self, name: str) -> sp.csr_matrix:
        return self._forms[name]

    def mass_matrix(self) -> sp.csr_matrix:
        """Mass-weighted L2 Gram in the stored (p, theta, ...) variables."""
        return self._mass

    # -- element assembly ----------------------------------------------------

    def _pair_blocks(self, c1: str, c2: str):
        """Element matrices (value/deriv products) for a component pair."""
        s1, s2 = self.spaces[c1], self.spaces[c2]
        v1, d1 = self._tab[s1.kind]
        v2, d2 = self._tab[s2.kind]
        w = self._qwts
        mvv = np.einsum("iq,jq,q->ij", v1, v2, w)
        mvd = np.einsum("iq,jq,q->ij", v1, d2, w)
        mdv = np.einsum("iq,jq,q->ij", d1, v2, w)
        mdd = np.einsum("iq,jq,q->ij", d1, d2, w)
        return mvv, mvd, mdv, mdd

    def _scatter(self, c1: str, c2: str, elem: np.ndarray):
        """COO triplets of one element matrix repeated on every element."""
        return element_coo(self.offsets[c1] + self.spaces[c1].all_element_dofs(),
                           self.offsets[c2] + self.spaces[c2].all_element_dofs(), elem)

    def _scatter_kernel(self, kern: np.ndarray, comps1, comps2) -> list:
        """COO triplet chunks of the volume integral of a constant
        pointwise kernel acting on (values, derivatives) of comps1 (rows)
        and comps2 (columns)."""
        m1, m2 = len(comps1), len(comps2)
        triplets = []
        for i, c1 in enumerate(comps1):
            for jj, c2 in enumerate(comps2):
                kvv = kern[i, jj]
                kvd = kern[i, m2 + jj]
                kdv = kern[m1 + i, jj]
                kdd = kern[m1 + i, m2 + jj]
                if not (kvv or kvd or kdv or kdd):
                    continue
                mvv, mvd, mdv, mdd = self._pair_blocks(c1, c2)
                elem = kvv * mvv + kvd * mvd + kdv * mdv + kdd * mdd
                triplets.append(self._scatter(c1, c2, elem))
        return triplets

    def _assemble_form(self, name: str) -> sp.csr_matrix:
        g1, g2 = FORM_GROUPS[name]
        kern = _probe_volume_kernel(self._vol[name], g1, g2)
        triplets = self._scatter_kernel(kern, GROUPS[g1], GROUPS[g2])
        for wall in (0, 1):
            bk = _probe_boundary_kernel(self._bdry[name], g1, g2, WALL_FRAMES[wall])
            for i, c1 in enumerate(GROUPS[g1]):
                for jj, c2 in enumerate(GROUPS[g2]):
                    if bk[i, jj] == 0.0:
                        continue
                    gd1, tv1, _ = self._trace(c1, wall)
                    gd2, tv2, _ = self._trace(c2, wall)
                    triplets.append(element_coo(gd1[None], gd2[None],
                                                bk[i, jj] * np.outer(tv1, tv2)))
        return _csr(triplets, (self.ndof, self.ndof))

    def _assemble_mass(self) -> sp.csr_matrix:
        """Probe <U, M V> through the state module (rho = p - theta)."""
        m = len(COMPONENTS)
        units = np.eye(m)
        kern = np.zeros((2 * m, 2 * m))
        kern[:m, :m] = mass_inner(_state_from_components(units[:, None]),
                                  _state_from_components(units[None]))
        return _csr(self._scatter_kernel(kern, COMPONENTS, COMPONENTS),
                    (self.ndof, self.ndof))

    # -- loads ---------------------------------------------------------------

    def load_vector(self, wall: WallData) -> np.ndarray:
        """Wall-data functional on the test layout of this formulation.

        Rows: heat-flux tests get the temperature-jump functional, stress
        tests the tangential-drive and temperature couplings, and (in the
        coercive grouping) velocity and temperature tests their wall terms.
        """
        c = self.coeffs
        k = self.model
        out = np.zeros(self.ndof)
        include_wt = self.formulation == "nonmaxwell"
        for w in (0, 1):
            tw = wall.theta_w[w]
            ut1, ut2 = wall.u_t[w]
            # L1 on heat-flux tests r: -(R1 + k0) theta_W r_n + T1 u_W.r_t
            self._add_wall_term(out, "s", w, lambda fc: -(c.R1 + k.k0) * tw * fc["n"]
                                + c.T1 * (ut1 * fc["t1"] + ut2 * fc["t2"]))
            # L3 on stress tests tau: T2 theta_W tau_nn - (R4 + k5) u_W.tau_nt
            self._add_wall_term(out, "sg", w, lambda fc: c.T2 * tw * fc["nn"]
                                - (c.R4 + k.k5) * (ut1 * fc["nt1"] + ut2 * fc["nt2"]))
            if include_wt:
                # L4 on velocity tests v and L2 on temperature tests gamma.
                self._add_wall_term(out, "u", w, lambda fc: c.S2 * (ut1 * fc["t1"] + ut2 * fc["t2"]))
                self._add_wall_term(out, "th", w, lambda fc: c.S4 * tw * fc)
        return out

    def _add_wall_term(self, out: np.ndarray, group: str, wall: int, term):
        m = _GROUP_DIM[group]
        coeffs = term(_frame_comps(group, np.eye(m), WALL_FRAMES[wall]))
        for comp, coeff in zip(GROUPS[group], coeffs):
            if coeff == 0.0:
                continue
            gd, tv, _ = self._trace(comp, wall)
            out[gd] += coeff * tv

    # -- system operators ------------------------------------------------------

    def a_operator(self) -> sp.csr_matrix:
        """Test-row matrix of the coupled second-order block.

        Coercive grouping: all ten forms in their saddle arrangement on
        (s, u, sigma, theta).  Grouped degenerate formulation: only the
        (a, c, d) block on (sigma, s).  Built on the first call and cached;
        every caller shares the returned matrix, so none may modify it.
        """
        if self._a_operator is None:
            f = self._forms
            if self.formulation == "nonmaxwell":
                a = (f["a"].T + f["j"] + f["j"].T + f["f"].T
                     - f["c"] + f["c"].T - f["b"].T + f["b"] + f["e"] - f["e"].T
                     + f["d"].T + f["z"] + f["z"].T + f["h"].T)
            else:
                a = f["a"].T + f["c"].T - f["c"] + f["d"].T
            self._a_operator = a.tocsr()
        return self._a_operator

    def steady_system(self):
        """(matrix with multiplier row, rhs builder) for the steady solve."""
        f = self._forms
        if self.formulation == "nonmaxwell":
            core = self.a_operator() - f["g"].T - f["g"]
        else:
            core = (self.a_operator()
                    - f["b"].T - f["e"].T + f["g"]   # constraint couplings, flux rows
                    - f["b"] - f["e"] + f["g"].T)    # velocity / temperature rows
        pm = self._integral_vector("p")
        mat = sp.bmat([[core, pm[:, None]], [pm[None, :], None]], format="csr")
        return mat

    def transient_operator(self) -> sp.csr_matrix:
        """Weak operator of the evolution system (no zero-mean constraint)."""
        if self.formulation != "nonmaxwell":
            raise ValueError("transient stepping uses the coercive grouping spaces")
        f = self._forms
        return (self.a_operator() + f["g"] - f["g"].T).tocsr()

    def _integral_vector(self, component: str) -> np.ndarray:
        """Integral functional of one component."""
        space = self.spaces[component]
        vals, _ = self._tab[space.kind]
        dofs = self.offsets[component] + space.all_element_dofs().ravel()
        return np.bincount(dofs, np.tile(vals @ self._qwts, self.mesh.n_elements),
                           minlength=self.ndof)

    def t1_gram(self) -> sp.csr_matrix:
        """H1 Gram over the (s, u, sigma, theta) block, zeros elsewhere."""
        primary = [float(c != "p") for c in COMPONENTS]
        kern = np.diag(primary + primary)
        return _csr(self._scatter_kernel(kern, COMPONENTS, COMPONENTS),
                    (self.ndof, self.ndof))


def _state_from_components(comp: np.ndarray) -> StateVector:
    """Stored components (p, theta, u, s, sig) on the trailing axis to a
    StateVector with the same leading batch axes."""
    p, theta = np.rollaxis(comp[..., :2], -1)
    return StateVector(rho=p - theta, theta=theta, u=comp[..., 2:5],
                       s_bar=comp[..., 5:8], sigma_bar=StfTensor3(comp[..., 8:13]))


# ---------------------------------------------------------------------------
# discrete states


@dataclass
class DiscreteState:
    """Coefficient vector on an assembly's layout plus the constraint
    multiplier of steady solves."""

    assembly: SlabAssembly
    coefficients: np.ndarray
    multiplier: float = 0.0

    def component(self, name: str) -> np.ndarray:
        return self.coefficients[self.assembly.dofs(name)]

    def evaluate(self, name: str, x: np.ndarray):
        return self.assembly.spaces[name].evaluate(self.component(name), x)

    def sample(self, x: np.ndarray):
        """(values, derivatives) arrays of all components, shape (13, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.empty((len(COMPONENTS), x.size))
        ders = np.empty((len(COMPONENTS), x.size))
        for i, name in enumerate(COMPONENTS):
            vals[i], ders[i] = self.evaluate(name, x)
        return vals, ders

    def sample_grid(self, ref_pts: np.ndarray):
        """Sampling at the same reference points of every element, shapes
        (13, n_elements, len(ref_pts)); points are located as in sample."""
        n = self.assembly.mesh.n_elements
        vals, ders = self.sample(((np.arange(n)[:, None] + ref_pts) / n).ravel())
        shape = (len(COMPONENTS), n, np.size(ref_pts))
        return vals.reshape(shape), ders.reshape(shape)

    def state_at(self, x: float) -> StateVector:
        vals, _ = self.sample(np.array([x]))
        return _state_from_components(vals[:, 0])

    def profile(self, n_points: int = 201):
        """Sampled x grid, component values, and physical flux recovery."""
        x = np.linspace(0.0, 1.0, n_points)
        vals, ders = self.sample(x)
        # One flux recovery over all points, split into per-point records.
        fl = physical_fluxes(_state_from_components(vals.T), _state_from_components(ders.T),
                             self.assembly.model, self.assembly.kn)
        fluxes = [PhysicalFluxes(sigma=StfTensor3(sig), s=s)
                  for sig, s in zip(fl.sigma.components, fl.s)]
        return x, vals, fluxes


def random_state(assembly: SlabAssembly, rng: np.random.Generator) -> DiscreteState:
    """Seeded random coefficients with the wall constraint enforced."""
    coeffs = rng.uniform(-1.0, 1.0, size=assembly.ndof)
    coeffs[assembly.essential_dofs] = 0.0
    return DiscreteState(assembly=assembly, coefficients=coeffs)


def zero_state(assembly: SlabAssembly) -> DiscreteState:
    return DiscreteState(assembly=assembly, coefficients=np.zeros(assembly.ndof))


# ---------------------------------------------------------------------------
# monitors


@dataclass(frozen=True)
class SolveMonitors:
    """Energy bookkeeping of one state.

    i_bdry is the wall quadratic of the energy balance; for homogeneous
    wall data it is the entropy outflow through the walls and is
    nonnegative.  Subtracting wall_load gives the data-adjusted boundary
    production i_bdry_data = f1 - f2, which balances w1 at steady states.
    The identity b_diag = i_bdry - w1 holds for every discrete state.
    f2 is derived from that balance; f2_trace evaluates the same flux
    integral directly from derivative traces and agrees only up to
    discretization error.
    """

    energy: float
    w1: float
    i_bdry: float
    wall_load: float
    i_bdry_data: float
    f1: float
    f2: float
    f2_trace: float
    entropy: float
    mass: float
    b_diag: float
    residual: float
    residual_rel: float


def _w1_integrand(model: MolecularModel, kn: float, u_vals: np.ndarray,
                  u_ders: np.ndarray):
    """Bulk production density (nonpositive under the sign conditions) of
    component values and derivatives on the trailing axis."""
    k = model
    th_grad = np.zeros(u_ders.shape[:-1] + (3,))
    th_grad[..., 0] = u_ders[..., 1]
    _, grad_u_stf = slab_grad_vec(u_vals[..., 2:5], u_ders[..., 2:5])
    _, grad_s_stf = slab_grad_vec(u_vals[..., 5:8], u_ders[..., 5:8])
    div_s = u_ders[..., 5]
    sig = StfTensor3(u_vals[..., 8:13])
    dsig = StfTensor3(u_ders[..., 8:13])
    _, grad_sig_stf3, div_sig = slab_grad_stf2(sig, dsig)
    grad_part = (
        1.5 * k.k1 * _dot(th_grad, th_grad)
        - 3.0 * k.k2 * _dot(th_grad, div_sig)
        + 0.5 * k.k10 * _dot(div_sig, div_sig)
        + (4.0 / 5.0) * k.k6 * div_s * div_s
        + k.k3 * grad_u_stf.norm2()
        + 2.0 * k.k4 * _stf2_dot(grad_u_stf, grad_s_stf)
        + (24.0 / 25.0) * k.k7 * grad_s_stf.norm2()
        + k.k9 * _stf3_dot(grad_sig_stf3, grad_sig_stf3)
    )
    relax_part = ((4.0 / 15.0) * k.l1 * _dot(u_vals[..., 5:8], u_vals[..., 5:8])
                  + 0.5 * k.l2 * StfTensor3(u_vals[..., 8:13]).norm2())
    return -kn * grad_part - relax_part / kn


def _wall_quadratic(coeffs: BoundaryCoeffs, fr: dict) -> float:
    """Diagonal wall production quadratic in outward-frame traces.

    fr carries s (vector comps), u (vector comps), sig (tensor comps) and
    theta.  The tangential-trace couplings appear twice (cross terms), and
    the deviatoric tangential stress term sums over both directions.
    """
    c = coeffs
    s, u, sg, th = fr["s"], fr["u"], fr["sig"], fr["theta"]
    tt = sum((sg[f"t{i}t{i}"] + 0.5 * sg["nn"]) ** 2 for i in (1, 2))
    out = 0.0
    for i in ("t1", "t2"):
        out += c.S1 * s[i] ** 2 + c.S2 * u[i] ** 2 + 2.0 * c.T1 * s[i] * u[i]
        out += c.S7 * sg["n" + i] ** 2
    out += c.S3 * sg["nn"] ** 2 + c.S4 * th ** 2 + 2.0 * c.T2 * sg["nn"] * th
    out += c.S5 * s["n"] ** 2 + c.S6 * tt + c.S8 * sg["t1t2"] ** 2
    return out


def _wall_load_value(coeffs: BoundaryCoeffs, model: MolecularModel, fr: dict,
                     tw: float, ut1: float, ut2: float) -> float:
    """Wall-data functional density at one wall (all four test couplings)."""
    c = coeffs
    s, u, sg, th = fr["s"], fr["u"], fr["sig"], fr["theta"]
    out = -(c.R1 + model.k0) * tw * s["n"] + c.T1 * (ut1 * s["t1"] + ut2 * s["t2"])
    out += c.S2 * (ut1 * u["t1"] + ut2 * u["t2"])
    out += c.T2 * tw * sg["nn"] - (c.R4 + model.k5) * (ut1 * sg["nt1"] + ut2 * sg["nt2"])
    out += c.S4 * tw * th
    return out


def _f1_value(model: MolecularModel, fr: dict) -> float:
    """Entropy flux through one wall from trace values alone."""
    k = model
    s, u, sg, th = fr["s"], fr["u"], fr["sig"], fr["theta"]
    out = k.k0 * th * s["n"]
    out += k.k5 * (sg["nt1"] * u["t1"] + sg["nt2"] * u["t2"])
    out += (2.0 / 5.0) * k.k8 * (sg["nt1"] * s["t1"] + sg["nt2"] * s["t2"] + sg["nn"] * s["n"])
    return out


def _f2_trace_value(model: MolecularModel, kn: float, frame: Frame,
                    vals: np.ndarray, ders: np.ndarray) -> float:
    """Gradient-flux wall integrand from value and derivative traces."""
    k = model
    n = frame.n
    theta, dtheta = vals[1], ders[1]
    grad_th = np.array([dtheta, 0.0, 0.0])
    u3, s3 = vals[2:5], vals[5:8]
    _, grad_u_stf = slab_grad_vec(u3, ders[2:5])
    _, grad_s_stf = slab_grad_vec(s3, ders[5:8])
    div_s = ders[5]
    sig = StfTensor3(vals[8:13])
    _, grad_sig_stf3, div_sig = slab_grad_stf2(sig, StfTensor3(ders[8:13]))
    sig_m = sig.matrix()
    out = 1.5 * k.k1 * theta * float(n @ grad_th)
    out -= 1.5 * k.k2 * theta * float(n @ div_sig)
    out -= 1.5 * k.k2 * float((sig_m @ n) @ grad_th)
    out += k.k3 * float(u3 @ (grad_u_stf.matrix() @ n))
    out += k.k4 * float(u3 @ (grad_s_stf.matrix() @ n))
    out += k.k4 * float(s3 @ (grad_u_stf.matrix() @ n))
    out += (4.0 / 5.0) * k.k6 * float(s3 @ n) * div_s
    out += (24.0 / 25.0) * k.k7 * float(s3 @ (grad_s_stf.matrix() @ n))
    out += k.k9 * float(np.sum(sig_m * np.einsum("ijk,k->ij", grad_sig_stf3, n)))
    out += 0.5 * k.k10 * float((sig_m @ n) @ div_sig)
    return kn * out


def _quadratic_kernel(q, dim: int) -> np.ndarray:
    """Symmetric kernel of a quadratic functional by polarization probing.

    q is called once, on the stacked probes (n_probes, dim): first the unit
    vectors e_i, then e_i + e_j for every pair i < j.
    """
    basis = np.eye(dim)
    i, j = np.triu_indices(dim, 1)
    vals = q(np.concatenate([basis, basis[i] + basis[j]]))
    diag = vals[:dim]
    kern = np.diag(diag)
    kern[i, j] = kern[j, i] = 0.5 * (vals[dim:] - diag[i] - diag[j])
    return kern


# Monitor forms on the coefficient vector x: b_diag = x.a.x, w1 = x.w1.x,
# mass = mass.x (integral of rho = p - theta), and traces @ x gives the
# (wall, value | derivative, component) traces at both walls.
_MonitorOperators = namedtuple("_MonitorOperators", "a w1 mass traces")


def _monitor_operators(assembly: SlabAssembly) -> _MonitorOperators:
    """Monitor operators of an assembly, built on first use and cached.

    W comes from the pointwise w1 integrand by polarization, not from the
    bilinear forms, so b_diag = i_bdry - w1 stays an independent check.
    """
    if assembly._monitor_ops is not None:
        return assembly._monitor_ops
    model, kn, m = assembly.model, assembly.kn, len(COMPONENTS)
    k_w1 = _quadratic_kernel(lambda v: _w1_integrand(model, kn, v[..., :m], v[..., m:]),
                             2 * m)
    # One component's rows at a time keeps the COO temporaries small.
    w1 = sp.vstack([_csr(assembly._scatter_kernel(k_w1[[i, m + i]], (c,), COMPONENTS),
                         (assembly.ndof, assembly.ndof))[assembly.dofs(c)]
                    for i, c in enumerate(COMPONENTS)], format="csr")
    triplets = []
    for i, name in enumerate(COMPONENTS):
        for w in (0, 1):
            dofs, *traces = assembly._trace(name, w)
            for k in (0, 1):
                triplets.append((np.full(dofs.size, (2 * w + k) * m + i), dofs, traces[k]))
    assembly._monitor_ops = _MonitorOperators(
        a=assembly.a_operator(), w1=w1,
        mass=assembly._integral_vector("p") - assembly._integral_vector("theta"),
        traces=_csr(triplets, (4 * m, assembly.ndof)))
    return assembly._monitor_ops


def monitors(state: DiscreteState, assembly: SlabAssembly,
             wall: WallData | None = None,
             residual: float = 0.0, residual_rel: float = 0.0) -> SolveMonitors:
    """All energy monitors of one state.

    Volume monitors are quadratic and linear forms of the assembly's
    monitor operators; the wall monitors are evaluated pointwise from the
    value and derivative traces.
    """
    if wall is None:
        wall = WallData.homogeneous()
    model, kn = assembly.model, assembly.kn
    ops = _monitor_operators(assembly)
    x = state.coefficients
    energy = 0.5 * float(x @ (assembly.mass_matrix() @ x))
    w1 = float(x @ (ops.w1 @ x))
    # Entropy density is the reference constant minus the energy density.
    h0 = entropy_density(_state_from_components(np.zeros(len(COMPONENTS))))
    entropy = h0 - energy
    mass = float(ops.mass @ x)
    traces = (ops.traces @ x).reshape(2, 2, len(COMPONENTS))
    i_bdry = wall_load = f1 = f2_trace = 0.0
    for w, frame in enumerate(WALL_FRAMES):
        vals, ders = traces[w]
        fr = {
            "s": frame_components(vals[5:8], frame),
            "u": frame_components(vals[2:5], frame),
            "sig": frame_components(StfTensor3(vals[8:13]), frame),
            "theta": float(vals[1]),
        }
        i_bdry += _wall_quadratic(assembly.coeffs, fr)
        wall_load += _wall_load_value(assembly.coeffs, model, fr,
                                      wall.theta_w[w], wall.u_t[w, 0], wall.u_t[w, 1])
        f1 += _f1_value(model, fr)
        f2_trace += _f2_trace_value(model, kn, frame, vals, ders)
    i_bdry_data = i_bdry - wall_load
    b_diag = float(x @ (ops.a @ x))
    return SolveMonitors(
        energy=energy, w1=w1, i_bdry=i_bdry, wall_load=wall_load,
        i_bdry_data=i_bdry_data, f1=f1, f2=f1 - i_bdry_data, f2_trace=f2_trace,
        entropy=entropy, mass=mass, b_diag=b_diag,
        residual=residual, residual_rel=residual_rel,
    )


# ---------------------------------------------------------------------------
# steady solves


def _checked_residual(mat: sp.spmatrix, xr: np.ndarray, b: np.ndarray):
    """(absolute, relative) residual of a reduced solve; raises SolverError
    on non-finite entries or a relative residual above RESIDUAL_RTOL."""
    if not np.all(np.isfinite(xr)):
        raise SolverError("solution contains non-finite entries")
    res = float(np.linalg.norm(mat @ xr - b))
    bnorm = float(np.linalg.norm(b))
    rel = res / bnorm if bnorm > 0 else 0.0
    if rel > RESIDUAL_RTOL:
        raise SolverError(f"residual {res:.3e} exceeds {RESIDUAL_RTOL:.1e} * ||rhs||")
    return res, rel


def _solve_reduced(mat: sp.csr_matrix, rhs: np.ndarray, keep: np.ndarray):
    """Direct solve on the rows/columns in keep; returns (x_full, residuals)."""
    red = mat[keep][:, keep].tocsc()
    b = rhs[keep]
    try:
        lu = spla.splu(red)
        xr = lu.solve(b)
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc
    res, rel = _checked_residual(red, xr, b)
    x = np.zeros(mat.shape[0])
    x[keep] = xr
    return x, res, rel


def solve_steady(assembly: SlabAssembly, wall: WallData):
    """Steady solve in the assembly's formulation: the coercive grouping
    with constrained pressure, or the grouped degenerate formulation."""
    mat = assembly.steady_system()
    rhs = np.concatenate([assembly.load_vector(wall), [0.0]])
    keep = np.setdiff1d(np.arange(mat.shape[0]), assembly.essential_dofs)
    x, res, rel = _solve_reduced(mat, rhs, keep)
    state = DiscreteState(assembly=assembly, coefficients=x[:-1],
                          multiplier=float(x[-1]))
    mon = monitors(state, assembly, wall=wall, residual=res, residual_rel=rel)
    return state, mon


# ---------------------------------------------------------------------------
# transient stepping


def step_transient(state: DiscreteState, dt: float, scheme: str,
                   assembly: SlabAssembly, wall: WallData | None = None):
    """One theta-scheme step of the homogeneous evolution problem.

    Solves (M/dt + theta L) U+ = (M/dt - (1-theta) L) U with L the weak
    operator; implicit Euler (theta = 1) is unconditionally dissipative,
    the trapezoidal scheme (theta = 1/2) nearly conserves for small dt.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if wall is not None and not wall.is_homogeneous:
        raise ValueError("transient stepping supports homogeneous wall data only")
    theta_s = {"implicit-euler": 1.0, "crank-nicolson": 0.5}.get(scheme)
    if theta_s is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    key = (float(dt), scheme)
    cached = assembly._factorizations.get(key)
    if cached is None:
        keep = np.setdiff1d(np.arange(assembly.ndof), assembly.essential_dofs)
        mass = assembly.mass_matrix()
        op = assembly.transient_operator()
        left = (mass / dt + theta_s * op).tocsc()[keep][:, keep]
        right = (mass / dt - (1.0 - theta_s) * op).tocsr()[keep][:, keep]
        try:
            lu = spla.splu(left.tocsc())
        except RuntimeError as exc:
            raise SolverError(f"transient factorization failed: {exc}") from exc
        cached = (lu, left, right, keep)
        assembly._factorizations[key] = cached
    lu, left, right, keep = cached
    b = right @ state.coefficients[keep]
    xr = lu.solve(b)
    res, rel = _checked_residual(left, xr, b)
    coeffs = np.zeros(assembly.ndof)
    coeffs[keep] = xr
    new_state = DiscreteState(assembly=assembly, coefficients=coeffs)
    mon = monitors(new_state, assembly, residual=res, residual_rel=rel)
    return new_state, mon


def transient_run(assembly: SlabAssembly, initial: DiscreteState, dt: float,
                  n_steps: int, scheme: str = "implicit-euler"):
    """March n_steps from initial; returns (final state, list of monitors).

    The monitor list starts with the initial state so trajectories expose
    E^0 alongside every later step.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps!r}")
    state = initial
    trace = [monitors(state, assembly)]
    for _ in range(n_steps):
        state, mon = step_transient(state, dt, scheme, assembly)
        trace.append(mon)
    return state, trace


# ---------------------------------------------------------------------------
# spectral probes


@dataclass(frozen=True)
class CoercivityReport:
    """Spectral summary of the coupled second-order block.

    min_eig is the smallest generalized eigenvalue of the symmetric part
    against the H1 Gram of the primary fields; infsup is the smallest
    Gram-normalized singular value of the pressure coupling on the
    zero-mean complement; theta_bubble is the quadratic value on an
    interior temperature bubble (exactly zero for degenerate models).
    """

    formulation: str
    n_dofs: int
    min_eig: float
    low_eigs: tuple
    infsup: float | None
    theta_bubble: float | None


def coercivity_probe(assembly: SlabAssembly, n_report: int = 6) -> CoercivityReport:
    a_full = assembly.a_operator()
    sym = 0.5 * (a_full + a_full.T)
    gram = assembly.t1_gram()
    t1_dofs = np.concatenate([assembly.group_dofs(g) for g in ("s", "u", "sg", "th")])
    t1_dofs = np.setdiff1d(np.sort(t1_dofs), assembly.essential_dofs)
    a_d = sym[t1_dofs][:, t1_dofs].toarray()
    g_d = gram[t1_dofs][:, t1_dofs].toarray()
    eigs = scipy.linalg.eigh(a_d, g_d, eigvals_only=True)
    low = tuple(float(v) for v in eigs[:n_report])

    # Pressure coupling inf-sup on the zero-mean complement, velocity in H1.
    bmat = assembly.form("g")
    p_dofs = assembly.dofs("p")
    u_dofs = np.setdiff1d(assembly.group_dofs("u"), assembly.essential_dofs)
    b_d = bmat[p_dofs][:, u_dofs].toarray()
    gu = gram[u_dofs][:, u_dofs].toarray()
    # The pressure block of the mass matrix is the pressure Gram.
    mp = assembly.mass_matrix()[p_dofs][:, p_dofs].toarray()
    s_mat = b_d @ np.linalg.solve(gu, b_d.T)
    ones = np.ones(p_dofs.size)
    # Basis of the zero-mean complement in the pressure mass metric.
    zvecs = scipy.linalg.null_space((mp @ ones)[None, :])
    sz = zvecs.T @ s_mat @ zvecs
    mz = zvecs.T @ mp @ zvecs
    gevals = scipy.linalg.eigh(sz, mz, eigvals_only=True)
    infsup = float(np.sqrt(max(gevals[0], 0.0)))

    theta_bubble = None
    if assembly.model.is_maxwell:
        vec = np.zeros(assembly.ndof)
        th_space = assembly.spaces["theta"]
        # Any interior basis function has zero wall trace at degree 2.
        mid = assembly.offsets["theta"] + th_space.ndof // 2
        vec[mid] = 1.0
        theta_bubble = float(vec @ (sym @ vec))
    return CoercivityReport(
        formulation=assembly.formulation, n_dofs=int(t1_dofs.size),
        min_eig=float(eigs[0]), low_eigs=low, infsup=infsup,
        theta_bubble=theta_bubble,
    )


# ---------------------------------------------------------------------------
# self-convergence


@dataclass(frozen=True)
class ConvergenceRow:
    n_elements: int
    component_errors: dict
    total: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    reference_elements: int
    degree: int

    @property
    def totals(self) -> np.ndarray:
        return np.array([r.total for r in self.rows])

    @property
    def ratios(self) -> np.ndarray:
        t = self.totals
        return t[:-1] / t[1:]


def convergence_study(model: MolecularModel, wall: WallData, n_list,
                      degree: int = DEFAULT_DEGREE, kn: float = DEFAULT_KN,
                      formulation: str = "nonmaxwell",
                      ref_factor: int = 4) -> ConvergenceTable:
    """Self-convergence against a reference mesh ref_factor x finest."""
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 3:
        raise ValueError("need at least three meshes")
    n_ref = n_list[-1] * ref_factor
    ref_asm = SlabAssembly(SlabMesh(n_ref, degree), model, kn, formulation)
    ref_state, _ = solve_steady(ref_asm, wall)
    rows = []
    for n in n_list:
        asm = SlabAssembly(SlabMesh(n, degree), model, kn, formulation)
        state, _ = solve_steady(asm, wall)
        qpts, qwts = gauss01(degree + 2)
        h = asm.mesh.h
        x = ((np.arange(n)[:, None] + qpts) * h).ravel()
        err2 = ((state.sample(x)[0] - ref_state.sample(x)[0]) ** 2) @ np.tile(qwts * h, n)
        comp_err = {name: float(np.sqrt(err2[i])) for i, name in enumerate(COMPONENTS)}
        rows.append(ConvergenceRow(n_elements=n, component_errors=comp_err,
                                   total=float(np.sqrt(err2.sum()))))
    return ConvergenceTable(rows=tuple(rows), reference_elements=n_ref, degree=degree)
