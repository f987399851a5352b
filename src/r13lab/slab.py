"""Desk-scale finite element solver for the moment system on a unit slab.

Geometry is the interval [0, 1] with walls at x = 0 and x = 1; all fields
vary along axis 1 only, so every 3-D differential operator reduces through
the slab gradient helpers of :mod:`r13lab.tensors`.  The bilinear forms are
never hand-reduced: each one is probed numerically from its 3-D definition,
which yields a constant pointwise kernel because the coefficients are
homogeneous.  Forms, wall loads and monitors are all evaluated on one
cached set of unit probes of the 13-component state (unit values and
derivatives in the volume, unit value traces at each wall), stacked on
crossed batch axes so one batched evaluation gives a whole kernel.  Which
dofs couple is fixed by the mesh and the grouping
alone, so each (mesh, grouping) has one memoized layout: its dof tables,
wall traces, mass matrix and trace map, and one sparsity pattern per set
of coupled component pairs with the plan that scatters values into it.  A
matrix is then the kernel entries of its coupled pairs scaling the 1-D
element matrices of their space kinds, scattered into its cached pattern.

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

import functools
import numbers
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fe1d import (DEFAULT_DEGREE, ScalarSpace, SlabMesh, element_matrices, merge_lowest,
                   parity_bases, read_only, trim_lru)
from .models import MolecularModel, thermo_discriminants
from .onsager import BoundaryCoeffs, boundary_coefficients
from .state import StateVector, entropy_density, mass_inner, physical_fluxes
from .tensors import (
    Frame,
    StfTensor3,
    frame_components,
    slab_grad_stf2,
    slab_grad_vec,
)

DEFAULT_KN = 0.1

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

# Slice of each group: each group is a contiguous run of COMPONENTS.
_GROUP_SLICE = {g: slice(COMPONENTS.index(c[0]), COMPONENTS.index(c[0]) + len(c))
                for g, c in GROUPS.items()}

# Saddle arrangement of the system operators in test-row layout: each
# placement {form: (s, t)} contributes s * form + t * form^T.  No two
# placements of one operator cover the same component pair.
A_PLACEMENTS = {
    "nonmaxwell": {"a": (0, 1), "b": (1, -1), "c": (-1, 1), "d": (0, 1), "e": (1, -1),
                   "f": (0, 1), "j": (1, 1), "z": (1, 1), "h": (0, 1)},
    "maxwell": {"a": (0, 1), "c": (-1, 1), "d": (0, 1)},
}
# Constraint couplings the steady system adds to the A operator.
STEADY_PLACEMENTS = {
    "nonmaxwell": {"g": (-1, -1)},
    "maxwell": {"b": (-1, -1), "e": (-1, -1), "g": (1, 1)},
}
# Pressure coupling the evolution operator adds to the A operator.
TRANSIENT_PLACEMENTS = {"g": (1, -1)}

# Outward frames at the two walls (index 0: x = 0, index 1: x = 1).
WALL_FRAMES = (
    Frame(n=np.array([-1.0, 0.0, 0.0]), t1=np.array([0.0, 1.0, 0.0]),
          t2=np.array([0.0, 0.0, 1.0])),
    Frame(n=np.array([1.0, 0.0, 0.0]), t1=np.array([0.0, 1.0, 0.0]),
          t2=np.array([0.0, 0.0, 1.0])),
)


class SolverError(RuntimeError):
    """Raised when a linear solve fails or misses the residual target."""


def _positive_float(value, name: str) -> float:
    """value as a float; ValueError unless it is a real number, not a bool,
    in (0, the largest float].  The bound is compared before the
    conversion, so an int beyond the float range fails here too."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# scalar spaces


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
        # Read-only copies: later edits of the caller's arrays cannot reach
        # the data, and no instance can be edited past the checks below.
        def floats(name):
            raw = getattr(self, name)
            try:
                return np.array(raw, dtype=float)
            except OverflowError:  # an int beyond the float range
                raise ValueError(f"{name} must be finite, got {raw!r}") from None

        tw, ut = floats("theta_w"), floats("u_t")
        if tw.shape != (2,):
            raise ValueError("theta_w must have one value per wall")
        if ut.shape != (2, 2):
            raise ValueError("u_t must be 2x2: walls by (t1, t2)")
        for name, arr in (("theta_w", tw), ("u_t", ut)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {arr.tolist()!r}")
        object.__setattr__(self, "theta_w", _read_only(tw))
        object.__setattr__(self, "u_t", _read_only(ut))

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


def _wall_data(wall: WallData | None) -> np.ndarray:
    """Wall data as the wall-load kernel reads it: per wall (theta_w, u_t1,
    u_t2); zero for None, homogeneous walls."""
    return np.zeros((2, 3)) if wall is None else np.column_stack([wall.theta_w, wall.u_t])


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


def _volume_fields(vals: np.ndarray, ders: np.ndarray) -> dict:
    """Prepared volume fields of every group, keyed by group, from the
    component values and derivatives on the trailing axis."""
    return {g: _prepare(g, vals[..., c], ders[..., c]) for g, c in _GROUP_SLICE.items()}


def _wall_fields(vals: np.ndarray, frame: Frame) -> dict:
    """Outward-frame trace fields of every group, keyed by group, from the
    component values on the trailing axis."""
    return {g: _frame_comps(g, vals[..., c], frame) for g, c in _GROUP_SLICE.items()}


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.cache
def _unit_probes():
    """((rows, cols), walls): the _volume_fields of the 2 m unit probes
    (value | derivative, component) on crossed batch axes (2 m, 1) and
    (1, 2 m), and per wall the (rows, cols) _wall_fields of the m unit
    value traces on (m, 1) and (1, m).  One evaluation of a pointwise form
    on them gives its whole kernel.  Model- and mesh-free: built once per
    process, every array read-only."""
    m = len(COMPONENTS)
    units, traces = np.eye(2 * m), np.eye(m)
    vol = tuple(_volume_fields(e[..., :m], e[..., m:]) for e in (units[:, None], units[None]))
    walls = tuple(tuple(_wall_fields(e, frame) for e in (traces[:, None], traces[None]))
                  for frame in WALL_FRAMES)
    for fields in (*vol, *(fr for pair in walls for fr in pair)):
        for field in fields.values():
            for arr in (field.values() if isinstance(field, dict) else [field]):
                _read_only(arr.components if isinstance(arr, StfTensor3) else arr)
    return vol, walls


# The kernels depend on the model, Kn and the wall coefficients but never on
# the mesh: each key is probed once per process, and every assembly of it
# shares the read-only arrays (what depends on the mesh alone is in the
# layout memo below).  One key holds about 21 KB of kernels; the wall
# monitor kernel is kept as its 8 KB of wall blocks, and each assembly
# expands it to the mostly zero 65 KB operator.  Keys compare as the
# dataclasses do, so a parameter of -0.0 shares the entry of +0.0; the
# kernels of the two differ at most in zero signs.
_KERNEL_MEMO_SIZE = 64
_Kernels = namedtuple("_Kernels", "forms w1 wall wall_load")


@functools.lru_cache(maxsize=_KERNEL_MEMO_SIZE)
def _kernels(model: MolecularModel, kn: float, coeffs: BoundaryCoeffs) -> _Kernels:
    """Every kernel of one key on the unit probes: forms maps each form to
    its volume kernel (2, m1, 2, m2) and wall kernels (2, m1, m2), rows on
    its first argument; w1 is on (value | derivative, component) squared;
    wall holds the (output, wall) blocks on (component, component) of the
    wall monitors, the only entries that can be nonzero (see
    _WALL_COLUMN_KIND); wall_load is on (wall, datum, wall trace).

    Each family is probed from its own pointwise transcription (the form
    integrands, the w1 integrand and the wall formulas), never from another,
    so b_diag = i_bdry - w1 and f1 - f2_trace stay independent checks.
    """
    vol_forms, wall_forms = _volume_forms(model, kn), _boundary_forms(coeffs)
    vol, walls = _unit_probes()
    m = len(COMPONENTS)
    forms = {}
    for name, (g1, g2) in FORM_GROUPS.items():
        r, c = _GROUP_SLICE[g1], _GROUP_SLICE[g2]
        kern = vol_forms[name](vol[0][g1], vol[1][g2]).reshape(2, m, 2, m)[:, r, :, c]
        # A form without wall terms returns a plain zero.
        wall = [np.broadcast_to(wall_forms[name](w_rows[g1], w_cols[g2]), (m, m))[r, c]
                for w_rows, w_cols in walls]
        forms[name] = (_read_only(kern.copy()), _read_only(np.stack(wall)))
    w1 = _w1_integrand(model, kn, *vol)
    wall = np.zeros((3, 2, m, m))
    wall_load = np.zeros((2, 3, 2, 2, m))
    for w, (frame, fr) in enumerate(zip(WALL_FRAMES, walls)):
        wall[0, w] = _wall_quadratic(coeffs, *fr)
        wall[1, w] = _f1_value(model, *fr)
        wall[2, w] = _f2_trace_value(model, kn, frame, *vol)[:m, m:]
        wall_load[w, :, w, 0] = _wall_load_value(coeffs, model, fr[1], *np.eye(3)[:, :, None])
    return _Kernels(MappingProxyType(forms), _read_only(w1), _read_only(wall),
                    _read_only(wall_load).reshape(2, 3, 4 * m))


@functools.cache
def _mass_kernel() -> np.ndarray:
    """26 x 26 kernel of <U, M V>, probed through the state module (rho = p - theta)."""
    m = len(COMPONENTS)
    units = np.eye(m)
    kern = np.zeros((2 * m, 2 * m))
    kern[:m, :m] = mass_inner(_state_from_components(units[:, None]),
                              _state_from_components(units[None]))
    return _read_only(kern)


# ---------------------------------------------------------------------------
# layouts and sparsity patterns


def _int32(arr) -> np.ndarray:
    return _read_only(np.asarray(arr, dtype=np.int32))


@dataclass(frozen=True)
class _Pattern:
    """Compressed sparsity pattern, CSR or CSC, with the plan that sums a
    short value array into it: one value per entry of each element matrix
    and wall block (the elements of a pair share theirs), and one per
    border entry.  first[k] is the index of the first value of stored entry
    k; later holds, per rank r >= 1, the stored entries that receive an
    r-th value and its indices.  A matrix assigns the first values and adds
    the later ones rank by rank, so every stored entry sums its values in
    scatter order and a lone zero keeps its sign.  Every array is read-only
    int32.
    """

    shape: tuple
    csc: bool
    indptr: np.ndarray
    indices: np.ndarray
    first: np.ndarray
    later: tuple

    @classmethod
    def build(cls, keys: np.ndarray, src: np.ndarray, shape: tuple,
              csc: bool = False) -> "_Pattern":
        """Pattern of entries listed in scatter order, each with its key
        major * n_minor + minor (row major for CSR, column major for CSC)
        and the index src of its value; an entry with a negative key, on a
        padded or dropped row or column, is not stored."""
        n_major, n_minor = shape[::-1] if csc else shape
        order = np.argsort(keys, kind="stable")  # each stored entry's values in scatter order
        keys = keys[order]
        skip = np.searchsorted(keys, 0)
        order, keys = order[skip:], keys[skip:]
        new = np.empty(keys.size, dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        stored, n_sorted = keys[starts], keys.size
        del keys, new
        # The r-th value of a stored entry is at sorted position start + r.
        count = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=count[:-1])
        count[-1:] = n_sorted - starts[-1:]
        later = []
        for r in range(1, count.max(initial=1)):
            slots = np.flatnonzero(count > r)
            later.append((_int32(slots), _int32(src[order[starts[slots] + r]])))
        majors = np.arange(n_major + 1, dtype=stored.dtype) * n_minor
        return cls(shape=shape, csc=csc, indptr=_int32(np.searchsorted(stored, majors)),
                   indices=_int32(stored - stored // n_minor * n_minor),
                   first=_int32(src[order[starts]]), later=tuple(later))

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in (self.indptr, self.indices, self.first,
                                          *(arr for pair in self.later for arr in pair)))

    def matrix(self, vals: np.ndarray):
        """The matrix of the value array vals on this pattern.  Its index
        arrays are copies, so in-place operations on it leave the pattern
        alone."""
        data = vals[self.first]
        for slots, src in self.later:
            data[slots] += vals[src]
        fmt = sp.csc_matrix if self.csc else sp.csr_matrix
        return fmt((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)


def _frozen(mat):
    read_only(mat.data, mat.indices, mat.indptr)
    return mat


class _SlabLayout:
    """The model-free structure of the assemblies on one (mesh, grouping):
    element matrices, dof tables, wall traces, essential and kept dofs, the
    trace map and the mass matrix; and, built on first use and kept in
    the layout's one memo (`_keep`), what its callers key there: one
    sparsity pattern per coupled-pair signature, and whatever else depends
    on the mesh and such a signature alone.  Every array is read-only, so
    assemblies share the layout.
    """

    def __init__(self, mesh: SlabMesh, formulation: str):
        spaces = build_spaces(mesh, formulation)
        self.mesh, self.formulation = mesh, formulation
        kinds, size, m = ("cg", "dg"), mesh.degree + 1, len(COMPONENTS)
        space_of = {space.kind: space for space in spaces.values()}
        traces = {kind: space.locate(np.array([0.0, 1.0])) for kind, space in space_of.items()}
        # Element matrices (vv, vd, dv, dd) per (row kind, column kind), and
        # per component its element dofs, wall-trace dofs and wall traces
        # (wall, value | derivative, local basis function), all zero-padded
        # to the cg local size; padded dofs are -1.
        blocks = np.zeros((2, 2, 4, size, size))
        for a, b in np.ndindex(2, 2):
            elem = element_matrices(space_of[kinds[a]], space_of[kinds[b]])
            blocks[a, b, :, :elem.shape[1], :elem.shape[2]] = elem
        elem_dofs = np.full((m, mesh.n_elements, size), -1, dtype=np.int32)
        wall_dofs = np.full((m, 2, size), -1, dtype=np.int32)
        wall_traces = np.zeros((m, 2, 2, size))
        # Per space kind: element dofs, wall-trace dofs and wall traces.
        tables = {kind: (space.all_element_dofs(), traces[kind][0],
                         np.stack([traces[kind][1].T, traces[kind][2].T], axis=1))
                  for kind, space in space_of.items()}
        offsets, sizes = {}, {}
        off = 0
        for i, name in enumerate(COMPONENTS):
            space = spaces[name]
            elems, dofs, values = tables[space.kind]
            elem_dofs[i, :, :space.n_local] = off + elems
            wall_dofs[i, :, :space.n_local] = off + dofs
            wall_traces[i, :, :, :space.n_local] = values
            offsets[name], sizes[name] = off, space.ndof
            off += space.ndof
        self.ndof = off
        self.offsets, self.sizes = MappingProxyType(offsets), MappingProxyType(sizes)
        self.kind = _read_only(np.array([kinds.index(spaces[c].kind) for c in COMPONENTS]))
        self.blocks, self.elem_dofs = _read_only(blocks), _read_only(elem_dofs)
        self.wall_dofs, self.wall_traces = _read_only(wall_dofs), _read_only(wall_traces)
        # Global dofs of the normal velocity trace at both walls: u1 is CG in
        # both groupings, and its Lagrange trace is its first and last dof.
        self.essential_dofs = _int32([offsets["u1"], offsets["u1"] + sizes["u1"] - 1])
        # Rows and columns the steady solve keeps: all but the essential
        # dofs, with the pressure-mean multiplier last.  Less the multiplier,
        # they are the free dofs of every other solve and probe.
        free = np.ones(self.ndof + 1, dtype=bool)
        free[self.essential_dofs] = False
        self.steady_keep = _read_only(np.flatnonzero(free))
        self.free_dofs = self.steady_keep[:-1]
        self._kept: dict = {}  # what is built on first use, by key
        # Trace row (wall, value | derivative) m + component of each wall
        # dof.  Built once, as is the mass matrix, so their patterns are not
        # kept.
        rows = np.arange(4 * m).reshape(2, 2, m).transpose(2, 0, 1)[..., None]
        cols = wall_dofs[:, :, None]
        keys = np.where(cols >= 0, rows * self.ndof + cols, -1).ravel()
        self.traces = _frozen(_Pattern.build(keys, np.arange(keys.size), (4 * m, self.ndof))
                              .matrix(wall_traces.ravel()))
        coupled, walled, vals = self.values(_mass_kernel())
        self.mass = _frozen(self._build_pattern(coupled, walled).matrix(vals))
        # Bytes of the arrays the layout holds, its patterns included.
        self.nbytes = sum(arr.nbytes for arr in (
            self.kind, self.blocks, self.elem_dofs, self.wall_dofs, self.wall_traces,
            self.essential_dofs, self.steady_keep, *(getattr(mat, name)
                                                     for mat in (self.mass, self.traces)
                                                     for name in ("data", "indices", "indptr"))))

    def dofs(self, component: str) -> np.ndarray:
        return self.offsets[component] + np.arange(self.sizes[component])

    def free(self, components) -> np.ndarray:
        """The free dofs of the given components, in layout order."""
        free = self.free_dofs
        return np.concatenate([free[(free >= self.offsets[c])
                                    & (free < self.offsets[c] + self.sizes[c])]
                               for c in components])

    def matrix(self, kern: np.ndarray, walls: np.ndarray | None = None) -> sp.csr_matrix:
        """Global matrix of the volume integral of a constant pointwise
        kernel kern, 26 x 26 on (value | derivative, component) of rows and
        columns, plus the wall integrals of the value-trace kernels walls
        (wall, component, component) if given.  Only component pairs with a
        nonzero kernel entry are scattered."""
        coupled, walled, vals = self.values(kern, walls)
        return self.pattern(coupled, walled).matrix(vals)

    def values(self, kern, walls=None):
        """(coupled component pairs, nonzero wall kernel entries, value
        array) of matrix: the element matrix of each coupled pair, then the
        wall block of each nonzero wall entry."""
        m = len(COMPONENTS)
        if walls is None:
            walls = np.zeros((2, m, m))
        # Kernel entries (vv, vd, dv, dd) of each component pair on axis 0.
        k4 = kern.reshape(2, m, 2, m).transpose(0, 2, 1, 3).reshape(4, m, m)
        coupled = np.any(k4 != 0, axis=0)
        c1, c2 = np.nonzero(coupled)
        w, d1, d2 = np.nonzero(walls)
        blk = self.blocks[self.kind[c1], self.kind[c2]]
        k = k4[:, c1, c2, None, None]
        tv1, tv2 = self.wall_traces[d1, w, 0, :, None], self.wall_traces[d2, w, 0, None]
        # Four explicit terms: sum() would start from 0 and turn -0.0 into +0.0.
        vals = [k[0] * blk[:, 0] + k[1] * blk[:, 1] + k[2] * blk[:, 2] + k[3] * blk[:, 3],
                walls[w, d1, d2, None, None] * (tv1 * tv2)]
        return coupled, walls != 0, np.concatenate([v.ravel() for v in vals])

    def pattern(self, coupled: np.ndarray, walled: np.ndarray) -> _Pattern:
        """The CSR pattern of matrix for the coupled component pairs and the
        nonzero wall kernel entries walled, built on first use."""
        return self._keep((coupled.tobytes(), walled.tobytes()),
                          lambda: self._build_pattern(coupled, walled))

    def steady_pattern(self, a_sig: tuple, c_sig: tuple) -> _Pattern:
        """The pattern of the matrix a steady solve factors: the entries of
        the A operator and of its constraint couplings, given by their
        (coupled, walled) signatures, bordered by the zero-mean pressure row
        and column, on the rows and columns the solve keeps, as CSC.  Its
        value array is the two value arrays of matrix, then the border.  The
        two share no entry, so each stored entry sums, in scatter order, the
        values of one of them."""
        def build():
            size2 = (self.mesh.degree + 1) ** 2
            n_a, n_c = ((coupled.sum() + walled.sum()) * size2
                        for coupled, walled in (a_sig, c_sig))
            # Each dof to its index among the kept ones; dropped dofs and the
            # padding index -1 go to -1.
            at = np.full(self.ndof + 2, -1, dtype=np.int64)
            at[self.steady_keep] = np.arange(self.steady_keep.size)
            (a_keys, a_src), (c_keys, c_src) = (self._entries(*sig, at) for sig in (a_sig, c_sig))
            n, p = self.steady_keep.size, at[self.dofs("p")]
            border = (n_a + n_c + np.arange(p.size)).astype(np.int32)
            keys = np.concatenate([a_keys, c_keys, (n - 1) * n + p, p * n + n - 1])
            src = np.concatenate([a_src, c_src + np.int32(n_a), border, border])
            del a_keys, a_src, c_keys, c_src  # only the concatenations go on
            return _Pattern.build(keys, src, (n, n), csc=True)

        return self._keep(("steady", *(sig.tobytes() for sig in (*a_sig, *c_sig))), build)

    def _keep(self, key, build):
        """build(), kept under key from its first use and counted in nbytes."""
        kept = self._kept.get(key)
        if kept is None:
            kept = self._kept[key] = build()
            self.nbytes += kept.nbytes
            trim_lru(_layouts, _LAYOUT_MEMO_BYTES, operator.attrgetter("nbytes"))
        return kept

    def _build_pattern(self, coupled, walled) -> _Pattern:
        return _Pattern.build(*self._entries(coupled, walled), (self.ndof, self.ndof))

    def _entries(self, coupled, walled, at=None):
        """(keys, value indices) of the entries matrix scatters, in scatter
        order: the volume terms in pair, element, local row, local column
        order, then the wall terms in wall, pair, local row, local column
        order.  A key is row * n + column; with at, a renumbering of the
        dofs, it is column * n + row of the renumbered dofs.  Keys are int64,
        made from int64 dofs so that no product wraps, and negative where a
        row or a column is -1, padding or dropped."""
        c1, c2 = np.nonzero(coupled)
        w, d1, d2 = np.nonzero(walled)
        elem, wall, n = self.elem_dofs, self.wall_dofs, self.ndof
        if at is not None:
            elem, wall, n = at[elem], at[wall], self.steady_keep.size
        stride, pad = ((n, 1) if at is None else (1, n)), -n * (n + 1)  # pad is below -n * n

        def key(dofs, axis):  # the key terms of row (0) or column (1) dofs
            return np.where(dofs >= 0, dofs.astype(np.int64) * stride[axis], pad)

        def listed(rows, cols):
            # Element and wall blocks list their entries major index first, so
            # keys ascend within a block and the sort meets long runs.  Only
            # duplicates tie, and they come from different elements or
            # walls, in scatter order either way.
            return (rows[..., :, None], cols[..., None, :]) if at is None else (
                rows[..., None, :], cols[..., :, None])

        size = self.mesh.degree + 1
        vol = (c1.size, self.mesh.n_elements, size, size)
        n_vol = int(np.prod(vol))
        keys = np.empty(n_vol + w.size * size * size, dtype=np.int64)
        np.add(*listed(key(elem, 0)[c1], key(elem, 1)[c2]), out=keys[:n_vol].reshape(vol))
        np.add(*listed(key(wall, 0)[d1, w], key(wall, 1)[d2, w]),
               out=keys[n_vol:].reshape(w.size, size, size))
        # Value indices, listed as the keys are: one per element-matrix entry
        # of each pair, shared by all its elements, then one per wall-block
        # entry.
        local = np.add(*listed(np.arange(0, size * size, size), np.arange(size)))
        src = np.empty(keys.size, dtype=np.int32)
        src[:n_vol].reshape(vol)[...] = size * size * np.arange(c1.size)[:, None, None, None] + local
        src[n_vol:] = (size * size * (c1.size + np.arange(w.size)[:, None, None]) + local).ravel()
        return keys, src


# Layouts depend on the mesh and the grouping alone: each is built once per
# process and shared by every assembly on it, whatever its model and Kn.
# The memo holds layouts, with their patterns and probe plans, up to
# _LAYOUT_MEMO_BYTES and drops the least recently used beyond that; a
# layout out of the memo lives, with what it keeps, as long as its
# assemblies.  A coercive layout at n 64, degree 2, holds about 0.6 MiB once
# a steady solve has built its patterns, about 10 KB per element, so steady
# requests up to n 64 in both groupings fit.  A layout that only probes
# coercivity, with the symmetric part's pattern and one probe plan, holds
# about 0.36 MiB at n 64 and 1.43 MiB at n 256 (eta7), so the probes of a
# mesh ladder share one layout per mesh.
_LAYOUT_MEMO_BYTES = 2 * 2**20
_layouts: dict = {}  # (mesh, formulation) -> layout, least recently used first


def _slab_layout(mesh: SlabMesh, formulation: str) -> _SlabLayout:
    key = (mesh, formulation)
    layout = _layouts[key] = _layouts.pop(key, None) or _SlabLayout(mesh, formulation)
    trim_lru(_layouts, _LAYOUT_MEMO_BYTES, operator.attrgetter("nbytes"))
    return layout


# ---------------------------------------------------------------------------
# assembly


class SlabAssembly:
    """Kernels, system operators and load machinery for one configuration.

    Each bilinear form is kept as its probed volume and wall kernels, rows on
    its first argument, beside the monitor kernels.  Matrices are built from
    kernels per call by the layout, in the shared component dof layout; a
    system operator as one scatter of its placement table, the evolution
    operator as the A rows of the transient stack plus its pressure
    coupling rows.  Across calls it keeps its A values, its monitor
    operators, whose stack holds its only kept A, and once it steps, the
    transient stack [M; W; A; T; G], which takes over that A: the monitor
    stack becomes a view of its leading rows.  Per (dt, scheme) of its
    steps it keeps a factor, the load matrix and the kept dofs, but not
    the factored matrix.

    Mostly the values are the assembly's own work.  Its kernels, forms and
    monitors alike, are probed once per (model, Kn, wall coefficients) in
    one memo, the mass kernel once and the Gauss rules once per order; the
    layout (dof tables, wall traces, mass matrix, trace map, sparsity
    patterns, and one coercivity probe plan per coupling signature, its
    inf-sup constant included) once per (mesh, grouping) while the layout
    memo keeps it; and the derivation and audits of the model's wall
    coefficients once per model per process, in the memo of
    `onsager.boundary_coefficients`.
    Each assembly builds its two spaces, which evaluate its states and give
    its integral functionals, scatters its matrix values into the cached
    patterns and factors its own systems.
    """

    def __init__(self, mesh: SlabMesh, model: MolecularModel, kn: float = DEFAULT_KN,
                 formulation: str = "nonmaxwell"):
        kn = _positive_float(kn, "Kn")
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
        self.kn = kn
        self.formulation = formulation
        self.coeffs = boundary_coefficients(model)

        self.spaces = build_spaces(mesh, formulation)
        self._layout = _slab_layout(mesh, formulation)
        self.offsets, self.ndof = self._layout.offsets, self._layout.ndof
        self.essential_dofs = self._layout.essential_dofs
        self._kernels = _kernels(model, self.kn, self.coeffs)
        # A form the grouping does not place must vanish, or the solve and
        # the monitors would disagree on the model.
        unplaced = (FORM_GROUPS.keys() - A_PLACEMENTS[formulation].keys()
                    - STEADY_PLACEMENTS[formulation].keys())
        nonzero = sorted(name for name in unplaced
                         if any(np.any(kern) for kern in self._kernels.forms[name]))
        if nonzero:
            raise ValueError(f"the {formulation} grouping does not place the forms "
                             f"{', '.join(nonzero)}, which are nonzero for this model")
        self._factorizations: dict = {}

    # -- layout helpers ----------------------------------------------------

    def dofs(self, component: str) -> np.ndarray:
        return self._layout.dofs(component)

    def group_dofs(self, group: str) -> np.ndarray:
        return np.concatenate([self.dofs(c) for c in GROUPS[group]])

    def form(self, name: str) -> sp.csr_matrix:
        """One bilinear form, rows on its first argument; built per call.
        Its pattern is not kept: in the package only the coercivity probe's
        inf-sup solve, once per probe plan, reads a form alone."""
        coupled, walled, vals = self._layout.values(*self._placed({name: (1, 0)}))
        return self._layout._build_pattern(coupled, walled).matrix(vals)

    def mass_matrix(self) -> sp.csr_matrix:
        """Mass-weighted L2 Gram in the stored (p, theta, ...) variables;
        shared by every assembly of the layout, so read-only."""
        return self._layout.mass

    # -- element assembly ----------------------------------------------------

    def _placed(self, placements: dict):
        """(volume, wall) kernels of _SlabLayout.matrix for the sum of s *
        form + t * form^T over placements {form: (s, t)}; their blocks are
        disjoint, so assigning them keeps the sign of zeros."""
        m = len(COMPONENTS)
        kern, walls = np.zeros((2, m, 2, m)), np.zeros((2, m, m))
        for name, (s, t) in placements.items():
            r, c = (_GROUP_SLICE[g] for g in FORM_GROUPS[name])
            vol, wall = self._kernels.forms[name]
            if s:
                kern[:, r, :, c], walls[:, r, c] = s * vol, s * wall
            if t:
                kern[:, c, :, r] = t * vol.transpose(2, 3, 0, 1)
                walls[:, c, r] = t * wall.transpose(0, 2, 1)
        return kern, walls

    # -- loads ---------------------------------------------------------------

    def load_vector(self, wall: WallData) -> np.ndarray:
        """Wall-data functional on the test layout: the trace map applied to
        the wall-load kernel, the one that monitors contracts with the wall
        traces of a state.  In the grouped degenerate formulation the
        velocity and temperature terms vanish with the unplaced forms f and
        h (see __init__)."""
        return self._layout.traces.T @ np.einsum("wd,wdt->t", _wall_data(wall),
                                                 self._kernels.wall_load)

    # -- system operators ------------------------------------------------------

    def a_operator(self) -> sp.csr_matrix:
        """Test-row matrix of the coupled second-order block.

        Coercive grouping: all forms but g in their saddle arrangement on
        (s, u, sigma, theta).  Grouped degenerate formulation: only the
        (a, c, d) block on (sigma, s).  Exact zeros are not stored.  Built
        per call from the cached A values; the monitor stack holds the
        assembly's only kept copy.
        """
        coupled, walled, vals = self._a_values
        mat = self._layout.pattern(coupled, walled).matrix(vals)
        mat.eliminate_zeros()
        return mat

    @functools.cached_property
    def _a_values(self):
        """(coupled, walled, values) of the A placements, shared by the A
        operator and the steady system."""
        return self._layout.values(*self._placed(A_PLACEMENTS[self.formulation]))

    def steady_system(self) -> sp.csc_matrix:
        """Matrix the steady solve factors: the A operator plus its
        constraint couplings, bordered by the zero-mean pressure row and
        column, on the rows and columns the solve keeps (all but the
        essential dofs, the multiplier last), as CSC.

        One scatter of the A values, the constraint values and the border
        into the cached steady pattern.  The couplings cover no component
        pair of the A operator, so every entry sums the terms it sums
        there.  Exact zeros are not stored.
        """
        a_coupled, a_walled, a_vals = self._a_values
        c_coupled, c_walled, c_vals = self._layout.values(
            *self._placed(STEADY_PLACEMENTS[self.formulation]))
        border = self._integral_vector("p")[self.dofs("p")]
        pattern = self._layout.steady_pattern((a_coupled, a_walled), (c_coupled, c_walled))
        mat = pattern.matrix(np.concatenate([a_vals, c_vals, border]))
        mat.eliminate_zeros()
        return mat

    def transient_operator(self) -> sp.csr_matrix:
        """Weak operator of the evolution system (no zero-mean constraint):
        the A rows of the transient stack plus its pressure coupling rows
        G, which share no entry with them.  Built per call; a transient step
        builds it once per factorization.  Exact zeros are not stored."""
        if self.formulation != "nonmaxwell":
            raise ValueError("transient stepping uses the coercive grouping spaces")
        stack, n = self._transient_stack, self.ndof
        return stack[2 * n:3 * n] + stack[-n:]

    @functools.cached_property
    def _transient_stack(self) -> sp.csr_matrix:
        """[M; W; A; T; G], read-only: the monitor stack over the pressure
        coupling G of the evolution operator, built on first use.  The
        coupling's pattern is not kept, as for `form`.  One product of a
        step with it gives the monitor rows and its residual check (see
        step_transient)."""
        coupled, walled, vals = self._layout.values(*self._placed(TRANSIENT_PLACEMENTS))
        coupling = self._layout._build_pattern(coupled, walled).matrix(vals)
        ops = self._monitor_ops
        stack = _frozen(sp.vstack([ops.products, coupling], format="csr"))
        # The monitor stack becomes a view of the leading rows, so the
        # assembly keeps one copy of M, W, A and T.
        rows, nnz = ops.products.shape[0], ops.products.nnz
        self._monitor_ops = ops._replace(products=sp.csr_matrix(
            (stack.data[:nnz], stack.indices[:nnz], stack.indptr[:rows + 1]),
            shape=ops.products.shape))
        return stack

    def _integral_vector(self, component: str) -> np.ndarray:
        """Integral functional of one component."""
        space = self.spaces[component]
        vals, _, wts = space.gauss_tabulation
        dofs = self.offsets[component] + space.all_element_dofs().ravel()
        return np.bincount(dofs, np.tile(vals @ wts, self.mesh.n_elements),
                           minlength=self.ndof)

    def t1_gram(self) -> sp.csr_matrix:
        """H1 Gram over the (s, u, sigma, theta) block, zeros elsewhere.
        Its pattern is not kept: the coercivity probe, which builds it once
        per probe plan, keeps the values of the Gram's parity-class blocks
        at their dense positions instead."""
        primary = [float(c != "p") for c in COMPONENTS]
        coupled, walled, vals = self._layout.values(np.diag(primary + primary))
        return self._layout._build_pattern(coupled, walled).matrix(vals)

    @functools.cached_property
    def _monitor_ops(self) -> _MonitorOperators:
        """Monitor operators (see _MonitorOperators), built on first use."""
        m, kernels, layout = len(COMPONENTS), self._kernels, self._layout
        # The wall kernels as (output, wall trace, wall trace) matrices.
        wall = np.zeros((3, 2, 2, m, 2, 2, m))
        for o, w in np.ndindex(3, 2):
            wall[o, w, 0, :, w, _WALL_COLUMN_KIND[o]] = kernels.wall[o, w]
        return _MonitorOperators(
            products=_frozen(sp.vstack([layout.mass, layout.matrix(kernels.w1),
                                        self.a_operator(), layout.traces], format="csr")),
            mass=self._integral_vector("p") - self._integral_vector("theta"),
            wall=wall.reshape(3, 4 * m, 4 * m))


def _state_from_components(comp: np.ndarray) -> StateVector:
    """Stored components (p, theta, u, s, sig) on the trailing axis to a
    StateVector with the same leading batch axes."""
    p, theta = np.rollaxis(comp[..., :2], -1)
    return StateVector(rho=p - theta, theta=theta, u=comp[..., 2:5],
                       s_bar=comp[..., 5:8], sigma_bar=StfTensor3(comp[..., 8:13]))


# Entropy density is this reference constant minus the energy density.
_ENTROPY_REFERENCE = entropy_density(_state_from_components(np.zeros(len(COMPONENTS))))


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
        """(values, derivatives) arrays of all components, shape (13, len(x)).

        One ScalarSpace.evaluate call per space kind, on the stacked
        coefficients of its components, so points are located once per kind.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        spaces = self.assembly.spaces
        vals = np.empty((len(COMPONENTS), x.size))
        ders = np.empty((len(COMPONENTS), x.size))
        for kind in ("cg", "dg"):
            comps = [i for i, c in enumerate(COMPONENTS) if spaces[c].kind == kind]
            coeffs = np.stack([self.component(COMPONENTS[i]) for i in comps])
            vals[comps], ders[comps] = spaces[COMPONENTS[comps[0]]].evaluate(coeffs, x)
        return vals, ders

    def sample_grid(self, ref_pts: np.ndarray):
        """Sampling at the same reference points of every element, shapes
        (13, n_elements, len(ref_pts)); points are located as in sample."""
        mesh = self.assembly.mesh
        vals, ders = self.sample(mesh.points(ref_pts).ravel())
        shape = (len(COMPONENTS), mesh.n_elements, np.size(ref_pts))
        return vals.reshape(shape), ders.reshape(shape)

    def profile(self, n_points: int = 201):
        """Sampled x grid, component values (13, n_points), and the physical
        fluxes recovered at every point as one batched PhysicalFluxes: sigma
        with components (n_points, 5) and s of shape (n_points, 3)."""
        x = np.linspace(0.0, 1.0, n_points)
        vals, ders = self.sample(x)
        fluxes = physical_fluxes(_state_from_components(vals.T), _state_from_components(ders.T),
                                 self.assembly.model, self.assembly.kn)
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
    integral directly from value and derivative traces and agrees only up
    to discretization error.  The wall monitors i_bdry, wall_load, f1 and
    f2_trace are cached kernels on the wall traces, each probed from its
    own pointwise wall formula.
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


# The w1, i_bdry and f1 integrands are symmetric bilinear forms q(a, b) of
# two field dictionaries, cross terms split in half; the monitor is q(x, x).


def _w1_integrand(model: MolecularModel, kn: float, a: dict, b: dict):
    """Bulk production density (nonpositive on a = b under the sign
    conditions) of two volume field dictionaries (see _volume_fields)."""
    k = model
    th, sg, s, u = a["th"], a["sg"], a["s"], a["u"]
    th_b, sg_b, s_b, u_b = b["th"], b["sg"], b["s"], b["u"]
    grad_part = (
        1.5 * k.k1 * _dot(th["grad"], th_b["grad"])
        - 1.5 * k.k2 * (_dot(th["grad"], sg_b["div"]) + _dot(th_b["grad"], sg["div"]))
        + 0.5 * k.k10 * _dot(sg["div"], sg_b["div"])
        + (4.0 / 5.0) * k.k6 * (s["div"] * s_b["div"])
        + k.k3 * _stf2_dot(u["grad_stf"], u_b["grad_stf"])
        + k.k4 * (_stf2_dot(u["grad_stf"], s_b["grad_stf"])
                  + _stf2_dot(u_b["grad_stf"], s["grad_stf"]))
        + (24.0 / 25.0) * k.k7 * _stf2_dot(s["grad_stf"], s_b["grad_stf"])
        + k.k9 * _stf3_dot(sg["grad_stf3"], sg_b["grad_stf3"])
    )
    relax_part = ((4.0 / 15.0) * k.l1 * _dot(s["val"], s_b["val"])
                  + 0.5 * k.l2 * _stf2_dot(sg["val"], sg_b["val"]))
    return -kn * grad_part - relax_part / kn


def _wall_quadratic(coeffs: BoundaryCoeffs, a: dict, b: dict):
    """Wall production in outward-frame traces of two wall field
    dictionaries (see _wall_fields).

    The deviatoric tangential stress term sums over both directions.
    """
    c = coeffs
    s, u, sg, th = a["s"], a["u"], a["sg"], a["th"]
    s_b, u_b, sg_b, th_b = b["s"], b["u"], b["sg"], b["th"]
    tt = sum((sg[f"t{i}t{i}"] + 0.5 * sg["nn"]) * (sg_b[f"t{i}t{i}"] + 0.5 * sg_b["nn"])
             for i in (1, 2))
    out = 0.0
    for i in ("t1", "t2"):
        out += (c.S1 * (s[i] * s_b[i]) + c.S2 * (u[i] * u_b[i])
                + c.T1 * (s[i] * u_b[i] + s_b[i] * u[i]))
        out += c.S7 * (sg["n" + i] * sg_b["n" + i])
    out += (c.S3 * (sg["nn"] * sg_b["nn"]) + c.S4 * (th * th_b)
            + c.T2 * (sg["nn"] * th_b + sg_b["nn"] * th))
    out += c.S5 * (s["n"] * s_b["n"]) + c.S6 * tt + c.S8 * (sg["t1t2"] * sg_b["t1t2"])
    return out


def _wall_load_value(coeffs: BoundaryCoeffs, model: MolecularModel, fr: dict,
                     tw, ut1, ut2):
    """Wall-data functional density at one wall (all four test couplings);
    its kernel is both the load vector and the wall_load monitor."""
    c = coeffs
    s, u, sg, th = fr["s"], fr["u"], fr["sg"], fr["th"]
    out = -(c.R1 + model.k0) * tw * s["n"] + c.T1 * (ut1 * s["t1"] + ut2 * s["t2"])
    out += c.S2 * (ut1 * u["t1"] + ut2 * u["t2"])
    out += c.T2 * tw * sg["nn"] - (c.R4 + model.k5) * (ut1 * sg["nt1"] + ut2 * sg["nt2"])
    out += c.S4 * tw * th
    return out


def _f1_value(model: MolecularModel, a: dict, b: dict):
    """Entropy flux through one wall from trace values alone, of two wall
    field dictionaries; every term is a cross term."""
    k = model

    def flux(x, y):  # the theta and stress factors from x, the others from y
        s, sg = y["s"], x["sg"]
        return (k.k0 * x["th"] * s["n"]
                + k.k5 * (sg["nt1"] * y["u"]["t1"] + sg["nt2"] * y["u"]["t2"])
                + (2.0 / 5.0) * k.k8 * (sg["nt1"] * s["t1"] + sg["nt2"] * s["t2"]
                                        + sg["nn"] * s["n"]))

    return 0.5 * (flux(a, b) + flux(b, a))


def _f2_trace_value(model: MolecularModel, kn: float, frame: Frame, a: dict, b: dict):
    """Gradient-flux wall integrand, bilinear in the value traces of a and
    the derivative traces of b (volume field dictionaries)."""
    k = model
    n = frame.n
    theta, grad_th = a["th"]["val"], b["th"]["grad"]
    u3, s3 = a["u"]["val"], a["s"]["val"]
    grad_u, grad_s = b["u"]["grad_stf"].matrix(), b["s"]["grad_stf"].matrix()
    sig_m, div_sig = a["sg"]["val"].matrix(), b["sg"]["div"]
    sig_n = _dot(sig_m, n)
    out = 1.5 * k.k1 * theta * _dot(n, grad_th)
    out -= 1.5 * k.k2 * theta * _dot(n, div_sig)
    out -= 1.5 * k.k2 * _dot(sig_n, grad_th)
    out += k.k3 * _dot(u3, _dot(grad_u, n))
    out += k.k4 * _dot(u3, _dot(grad_s, n))
    out += k.k4 * _dot(s3, _dot(grad_u, n))
    out += (4.0 / 5.0) * k.k6 * _dot(s3, n) * b["s"]["div"]
    out += (24.0 / 25.0) * k.k7 * _dot(s3, _dot(grad_s, n))
    out += k.k9 * np.sum(sig_m * _dot(b["sg"]["grad_stf3"], n), axis=(-2, -1))
    out += 0.5 * k.k10 * _dot(sig_n, div_sig)
    return kn * out


# Monitor forms on the coefficient vector x.  products stacks, by rows, the
# mass matrix M, W, the A operator and the trace map T (sp.vstack of their
# CSR arrays, so each row keeps its entry order; once the assembly steps, a
# view of the leading rows of its transient stack), so y = products @ x
# holds M x, W x, A x and the 4 m wall traces t = T x: energy = x.Mx / 2,
# w1 = x.Wx and b_diag = x.Ax, while mass = mass.x (integral of rho = p -
# theta) is a dense dot.  On t, index (wall, value | derivative,
# component), (i_bdry, f1, f2_trace) = (wall @ t) @ t; wall_load contracts
# its kernel with the data and t.
_MonitorOperators = namedtuple("_MonitorOperators", "products mass wall")

# Trace kind (value 0 | derivative 1) of the columns of the wall monitors
# i_bdry, f1 and f2_trace; their rows are value traces.  Each couples the
# traces of one wall only.
_WALL_COLUMN_KIND = (0, 0, 1)


def _coefficients(state: DiscreteState, assembly: SlabAssembly) -> np.ndarray:
    """The coefficient vector of a state of assembly; raises ValueError for
    a state of another assembly or of the wrong length."""
    x = state.coefficients
    if state.assembly is not assembly:
        raise ValueError("the state belongs to another assembly")
    if x.shape != (assembly.ndof,):
        raise ValueError(f"the state's coefficients have shape {x.shape}, "
                         f"the assembly has {assembly.ndof} dofs")
    return x


def monitors(state: DiscreteState, assembly: SlabAssembly,
             wall: WallData | None = None,
             residual: float = 0.0, residual_rel: float = 0.0) -> SolveMonitors:
    """All energy monitors of one state.

    One sparse product with the assembly's cached stacked monitor operator
    gives M x, W x, A x and the 4 x 13 wall traces of the coefficient
    vector x: the volume monitors are dots of x with its slices, and the
    wall monitors are quadratic kernels and the data-weighted wall-load
    kernel on the traces.  The mass is a dense dot of x.
    """
    x = _coefficients(state, assembly)
    return _monitors(x, assembly._monitor_ops.products @ x, assembly, wall,
                     residual, residual_rel)


def _monitors(x: np.ndarray, y: np.ndarray, assembly: SlabAssembly, wall: WallData | None,
              residual: float, residual_rel: float) -> SolveMonitors:
    """The monitors of coefficient vector x, given y whose leading rows are
    the monitor stack's product with x; rows past them are not read."""
    ops, n = assembly._monitor_ops, assembly.ndof
    energy = 0.5 * float(x @ y[:n])
    w1 = float(x @ y[n:2 * n])
    b_diag = float(x @ y[2 * n:3 * n])
    t = y[3 * n:ops.products.shape[0]]
    entropy = _ENTROPY_REFERENCE - energy
    mass = float(ops.mass @ x)
    i_bdry, f1, f2_trace = ((ops.wall @ t) @ t).tolist()
    wall_load = float(np.sum(_wall_data(wall) * (assembly._kernels.wall_load @ t)))
    i_bdry_data = i_bdry - wall_load
    return SolveMonitors(
        energy=energy, w1=w1, i_bdry=i_bdry, wall_load=wall_load,
        i_bdry_data=i_bdry_data, f1=f1, f2=f1 - i_bdry_data, f2_trace=f2_trace,
        entropy=entropy, mass=mass, b_diag=b_diag,
        residual=residual, residual_rel=residual_rel,
    )


# ---------------------------------------------------------------------------
# steady solves


def _factor(red: sp.csc_matrix):
    """Sparse LU factor of red; raises SolverError if the factorization fails."""
    try:
        return spla.splu(red)
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc


def _solve(lu, b: np.ndarray) -> np.ndarray:
    """lu.solve(b); raises SolverError on non-finite entries."""
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("solution contains non-finite entries")
    return x


def _gate(lhs: np.ndarray, b: np.ndarray):
    """(absolute, relative residual) of a solve whose factored matrix maps
    its solution to lhs, against the load b (Frobenius norms).  Raises
    SolverError on a relative residual not within RESIDUAL_RTOL or a load
    norm that overflows."""
    # Norms of huge entries overflow to inf, and inf / inf is NaN: both fail
    # the gate.  Over an infinite load norm a finite residual reads 0, so an
    # overflowing load fails too.
    with np.errstate(over="ignore", invalid="ignore"):
        res = float(np.linalg.norm(lhs - b))
        bnorm = float(np.linalg.norm(b))
    rel = res / bnorm if bnorm > 0 else 0.0
    if not rel <= RESIDUAL_RTOL:
        raise SolverError(f"residual {res:.3e} is not within {RESIDUAL_RTOL:.1e} * ||rhs||")
    if bnorm == np.inf:
        raise SolverError("load norm overflows: the relative residual cannot be checked")
    return res, rel


def _checked_solve(lu, red: sp.csc_matrix, b: np.ndarray):
    """(x, absolute, relative residual) of red x = b solved with its factor
    lu, for one right-hand side or a block of them; see _solve and _gate
    for the checks."""
    x = _solve(lu, b)
    return (x, *_gate(red @ x, b))


def solve_steady(assembly: SlabAssembly, wall: WallData):
    """Steady solve in the assembly's formulation: the coercive grouping
    with constrained pressure, or the grouped degenerate formulation.

    A Maxwell-type model in the coercive grouping is rejected (DECISIONS.md
    D16): that steady system is singular or nearly so.
    """
    if assembly.model.is_maxwell and assembly.formulation == "nonmaxwell":
        raise ValueError("the coercive grouping has no well-posed steady solve for a "
                         "Maxwell-type model; use formulation: maxwell")
    red = assembly.steady_system()
    rhs = np.concatenate([assembly.load_vector(wall), [0.0]])
    keep = assembly._layout.steady_keep
    xr, res, rel = _checked_solve(_factor(red), red, rhs[keep])
    x = np.zeros(assembly.ndof + 1)
    x[keep] = xr
    state = DiscreteState(assembly=assembly, coefficients=x[:-1],
                          multiplier=float(x[-1]))
    mon = monitors(state, assembly, wall=wall, residual=res, residual_rel=rel)
    return state, mon


# ---------------------------------------------------------------------------
# transient stepping


def step_transient(state: DiscreteState, dt: float, scheme: str, assembly: SlabAssembly):
    """One theta-scheme step of the homogeneous evolution problem.

    Solves (M/dt + theta L) U+ = (M/dt - (1-theta) L) U with L the weak
    operator; implicit Euler (theta = 1) is unconditionally dissipative,
    the trapezoidal scheme (theta = 1/2) nearly conserves for small dt.
    state must be a state of assembly.

    The left matrix is factored once per (dt, scheme) and not kept.  A
    step is the sparse product of its load, one LU solve and one sparse
    product of the new coefficients with the assembly's transient stack
    [M; W; A; T; G] (L = A + G), whose rows give both the monitors and
    the residual check.
    """
    x = _coefficients(state, assembly)
    dt = _positive_float(dt, "dt")
    theta_s = {"implicit-euler": 1.0, "crank-nicolson": 0.5}.get(scheme)
    if theta_s is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    key = (dt, scheme)
    cached = assembly._factorizations.get(key)
    if cached is None:
        keep = assembly._layout.free_dofs
        mass = assembly.mass_matrix()
        op = assembly.transient_operator()
        left = (mass / dt + theta_s * op)[keep][:, keep].tocsc()
        right = (mass / dt - (1.0 - theta_s) * op)[keep][:, keep]
        # The kept columns renumbered as dofs, so right applies to the whole
        # coefficient vector; every row keeps its entries and their order.
        right = sp.csr_matrix((right.data, keep[right.indices], right.indptr),
                              shape=(keep.size, assembly.ndof))
        cached = (_factor(left), right, keep)
        assembly._factorizations[key] = cached
    lu, right, keep = cached
    b = right @ x
    coeffs = np.zeros(assembly.ndof)
    coeffs[keep] = _solve(lu, b)
    n, y = assembly.ndof, assembly._transient_stack @ coeffs
    # coeffs vanishes off keep, so on keep (M/dt + theta (A + G)) coeffs is
    # the left matrix applied to the solution.
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = (y[:n] / dt + theta_s * (y[2 * n:3 * n] + y[-n:]))[keep]
    res, rel = _gate(lhs, b)
    new_state = DiscreteState(assembly=assembly, coefficients=coeffs)
    return new_state, _monitors(coeffs, y, assembly, None, res, rel)


def transient_run(assembly: SlabAssembly, initial: DiscreteState, dt: float,
                  n_steps: int, scheme: str = "implicit-euler"):
    """March n_steps from initial; returns (final state, list of monitors).

    The monitor list starts with the initial state so trajectories expose
    E^0 alongside every later step.
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative and integral, got {n_steps!r}")
    state = initial
    trace = [monitors(state, assembly)]
    for _ in range(n_steps):
        state, mon = step_transient(state, dt, scheme, assembly)
        trace.append(mon)
    return state, trace


# ---------------------------------------------------------------------------
# spectral probes


# Components with an odd number of x indices (sig3 = T12, sig4 = T13 by
# tensors.STF_PAIRS): the wall reflection x -> 1 - x flips their sign.
_MIRROR_ODD = ("u1", "s1", "sig3", "sig4")
# The primary components, all but the pressure: the fields of the t1 Gram.
_PRIMARY = COMPONENTS[1:]


@dataclass(frozen=True)
class CoercivityReport:
    """Spectral summary of the coupled second-order block.

    min_eig is the smallest generalized eigenvalue of the symmetric part
    against the H1 Gram of the primary fields; infsup is the smallest
    Gram-normalized singular value of the pressure coupling on the
    zero-mean complement, None if empty; theta_bubble is the quadratic
    value on an interior temperature bubble (exactly zero for degenerate models).
    """

    formulation: str
    n_dofs: int
    min_eig: float
    low_eigs: tuple
    infsup: float | None
    theta_bubble: float | None


class _ProbePlan:
    """What coercivity_probe keeps per layout and coupling signature of the
    symmetric part, under that signature in the layout's memo (DECISIONS.md
    D22): the number of free primary dofs (t1 dofs); the inf-sup constant,
    solved from the t1 Gram when the plan is built; and per parity class of
    the wall reflection (D18) a tuple (q, q.T, blocks): its basis q on the
    full dof numbering, so that the class block of a matrix s is q.T s q,
    and the _ClassBlocks of the blocks that the nonzero entries of the
    first symmetric part sym draw between the primary components, with the
    class block of the t1 Gram.  A coupled component pair stores a nonzero
    entry whatever the model, and the rest reads no model coefficient, so
    every model with the signature has the same plan.  Every array is
    read-only, and q.T shares the arrays of q.
    """

    def __init__(self, assembly: "SlabAssembly", sym: sp.csr_matrix):
        layout, gram = assembly._layout, assembly.t1_gram()
        self.infsup = _infsup(assembly, gram)
        # Each primary component's free dofs, a run closed under the reflection.
        free = [layout.free([c]) for c in _PRIMARY]
        sizes = [f.size for f in free]
        t1, component = np.concatenate(free), np.repeat(np.arange(len(free)), sizes)
        self.n_dofs = t1.size
        g_t1, a_t1 = gram[t1][:, t1], sym[t1][:, t1]
        a_t1.eliminate_zeros()
        lowest, empty = _component_blocks(a_t1, component)
        classes = []
        for q in parity_bases(sizes, [-1.0 if c in _MIRROR_ODD else 1.0 for c in _PRIMARY]):
            g_q = q.T @ g_t1 @ q
            g_q.sum_duplicates()
            # Each column of q lies in one component's run; row i of q is dof t1[i].
            coo = q.tocoo()
            column = np.empty(q.shape[1], dtype=component.dtype)
            column[coo.col] = component[coo.row]
            q = _frozen(sp.csr_matrix((coo.data, (t1[coo.row], coo.col)),
                                      shape=(layout.ndof, q.shape[1])))
            classes.append((q, q.T, _ClassBlocks(lowest[column], empty, g_q)))
        self.classes = tuple(classes)
        self.nbytes = sum(q.data.nbytes + q.indices.nbytes + q.indptr.nbytes + blocks.nbytes
                          for q, _, blocks in classes)


def _infsup(assembly: SlabAssembly, gram: sp.csr_matrix) -> float | None:
    """Pressure coupling inf-sup on the zero-mean complement, velocity in
    H1, None if the complement is empty; gram is the assembly's t1 Gram.
    It applies the inverse velocity Gram on the free u1 dofs through the
    checked sparse direct solve of the steady and transient paths: in the
    slab div v = d v1/dx, so g stores nothing in the u2, u3 columns, and
    the t1 Gram couples no two velocity components, so u1 alone is exact."""
    p_dofs = assembly.dofs("p")
    u_dofs = assembly._layout.free(["u1"])
    b_d = assembly.form("g")[p_dofs][:, u_dofs].toarray()
    # The pressure block of the mass matrix is the pressure Gram.
    mp = assembly.mass_matrix()[p_dofs][:, p_dofs].toarray()
    gu = gram[u_dofs][:, u_dofs].tocsc()
    s_mat = b_d @ _checked_solve(_factor(gu), gu, b_d.T)[0]
    ones = np.ones(p_dofs.size)
    # Basis of the zero-mean complement in the pressure mass metric.
    zvecs = scipy.linalg.null_space((mp @ ones)[None, :])
    sz = zvecs.T @ s_mat @ zvecs
    mz = zvecs.T @ mp @ zvecs
    gevals = scipy.linalg.eigh(sz, mz, eigvals_only=True)
    return float(np.sqrt(max(gevals[0], 0.0))) if gevals.size else None


def _component_blocks(a: sp.csr_matrix, component: np.ndarray):
    """(lowest, empty) per primary component c: the lowest component that
    the stored entries of a connect c to, itself included, and whether a
    stores no entry in the rows of c.  component is the primary component
    of each row and column of a."""
    m = len(COMPONENTS) - 1
    coo = a.tocoo()
    graph = np.zeros((m, m), dtype=bool)
    graph[component[coo.row], component[coo.col]] = True
    # The boolean closure of a graph this small (DECISIONS.md D22): each
    # squaring doubles the path length reached.
    reach = graph | np.eye(m, dtype=bool)
    for _ in range(m.bit_length()):
        reach = reach @ reach
    return reach.argmax(axis=0), ~graph.any(axis=1)


class _ClassBlocks:
    """Where the entries of one class pencil (a, g) go in its dense blocks,
    g fixed when they are built.

    The columns fall into blocks that neither matrix couples, group[j]
    naming the block of column j and empty[group[j]] saying whether a
    stores nothing in it.  n_zero counts the columns of the empty blocks;
    every other block is laid out row-major, in order of its first
    column, its columns in their original order, at (offset, size) in
    `dense` among the first `area` values of one flat buffer, and its g
    block `area` values later.  Entry (i, j) of an a block goes to
    rows_at[i] + local[j]; g_at holds the position of each stored entry of
    g, the one slot past both halves for an entry of an empty block, and
    g_data its value.  Every array is read-only, the positions int32.
    """

    def __init__(self, group: np.ndarray, empty: np.ndarray, g):
        # Blocks numbered in order of their first column.
        _, first, inverse = np.unique(group, return_index=True, return_inverse=True)
        labels = np.argsort(np.argsort(first))[inverse]
        zero = empty[group[np.sort(first)]]
        sizes = np.bincount(labels)
        order = np.argsort(labels, kind="stable")
        local = np.empty_like(order)
        local[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        area = np.where(zero, 0, sizes * sizes)
        offsets = np.cumsum(area) - area
        self.n_zero, self.area = int(sizes[zero].sum()), int(area.sum())
        self.dense = tuple(zip(offsets[~zero].tolist(), sizes[~zero].tolist()))
        rows_at = offsets[labels] + local * sizes[labels]
        coo = g.tocoo()
        self.rows_at, self.local = _int32(rows_at), _int32(local)
        self.g_at = _int32(np.where(zero[labels[coo.row]], 2 * self.area,
                                    self.area + rows_at[coo.row] + local[coo.col]))
        self.g_data = _read_only(coo.data.copy())
        self.nbytes = sum(arr.nbytes for arr in (self.rows_at, self.local, self.g_at, self.g_data))

    def blocks(self, a) -> list:
        """The dense pair (a_b, g_b) of every block with an entry of a; a
        stores no entry twice.  The spectrum of the pencil is the union of
        the block spectra, with one zero per column counted in n_zero."""
        coo = a.tocoo()
        # One buffer for both halves: with two large buffers alive at once,
        # the allocator handed out fresh pages on every call (at n 64,
        # about 0.8 ms a class against 0.12 ms).
        buf = np.zeros(2 * self.area + 1)
        buf[self.rows_at[coo.row] + self.local[coo.col]] = coo.data
        buf[self.g_at] = self.g_data
        return [(buf[o:o + k * k].reshape(k, k), buf[self.area + o:self.area + o + k * k]
                 .reshape(k, k)) for o, k in self.dense]


def _block_spectrum(i: int, a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Every eigenvalue of a dense block, coercivity_probe's solve."""
    return scipy.linalg.eigh(a, g, eigvals_only=True)


def coercivity_probe(assembly: SlabAssembly, n_report: int = 6) -> CoercivityReport:
    """Spectral probe of the coupled second-order block.

    The pencil (symmetric part, t1 Gram) on the free primary dofs commutes
    with the wall reflection x -> 1 - x (DECISIONS.md D18), so it splits
    into an even and an odd parity class.  Each class is block diagonal up
    to a permutation, one block per connected component of the graph that
    the nonzero entries of the symmetric part draw between the 12 primary
    components, and the spectrum is the union of the block spectra.  A
    component where the symmetric part stores nothing (u and theta in the
    degenerate grouping) gives one exact zero per free dof, counted, not
    blocked: the zeros of a class are merged before its blocks.  The probe
    keeps only the max(n_report, 1) lowest values as it goes through the
    classes one at a time, and solves only the blocks that can reach them
    (`fe1d.merge_lowest`, DECISIONS.md D21); with n_report at least the
    pencil size every other block is solved.  n_report must be a
    non-negative integer.

    The symmetric part is one scatter of the symmetrized A kernels,
    (K + K^T) / 2 with (W + W^T) / 2 walls: the A placements are disjoint,
    so it is (A + A^T) / 2 bit for bit.  Everything else is built on the
    first probe of a layout with the symmetric part's coupling signature
    and kept in the layout's memo under that signature (`_ProbePlan`,
    DECISIONS.md D22): the class bases, the inf-sup constant, the blocks,
    and where each stored entry goes in them.  Each call builds the
    symmetric part, its class projections and their dense blocks.
    """
    if (isinstance(n_report, bool) or not isinstance(n_report, numbers.Integral)
            or n_report < 0):
        raise ValueError(f"n_report must be a non-negative integer, got {n_report!r}")
    layout = assembly._layout
    kern, walls = assembly._placed(A_PLACEMENTS[assembly.formulation])
    coupled, walled, vals = layout.values(0.5 * (kern + kern.transpose(2, 3, 0, 1)),
                                          0.5 * (walls + walls.transpose(0, 2, 1)))
    sym = layout.pattern(coupled, walled).matrix(vals)
    plan = layout._keep(("probe", coupled.tobytes(), walled.tobytes()),
                        lambda: _ProbePlan(assembly, sym))
    sym_csc = sym.tocsc()  # q.T is CSC, so each class product reads sym by columns
    keep = max(n_report, 1)
    low = np.empty(0)
    # One class at a time, so that only one class's blocks are alive.
    for q, qt, blocks in plan.classes:
        low = np.sort(np.concatenate([low, np.zeros(blocks.n_zero)]))[:keep]
        low = merge_lowest(low, blocks.blocks(qt @ sym_csc @ q), keep, _block_spectrum)
    low_eigs = tuple(float(v) for v in low[:n_report])

    theta_bubble = None
    if assembly.model.is_maxwell:
        vec = np.zeros(assembly.ndof)
        # Any interior basis function has zero wall trace at degree 2.
        vec[layout.offsets["theta"] + layout.sizes["theta"] // 2] = 1.0
        theta_bubble = float(vec @ (sym @ vec))
    return CoercivityReport(
        formulation=assembly.formulation, n_dofs=plan.n_dofs,
        min_eig=float(low[0]), low_eigs=low_eigs, infsup=plan.infsup,
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
    meshes = [SlabMesh(n, degree) for n in sorted(n_list)]  # rejects a level of 8.7 or True
    n_list = [int(mesh.n_elements) for mesh in meshes]
    if len(n_list) < 3:
        raise ValueError("need at least three meshes")
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"mesh levels must be distinct, got {n_list}")
    if (isinstance(ref_factor, bool) or not isinstance(ref_factor, numbers.Integral)
            or ref_factor < 2):
        raise ValueError(f"ref_factor must be an integer of at least 2, got {ref_factor!r}")
    n_ref = n_list[-1] * ref_factor
    ref_state, _ = solve_steady(SlabAssembly(SlabMesh(n_ref, degree), model, kn, formulation),
                                wall)
    # The reference is sampled at every level's quadrature points first, so
    # that it is released before the levels are solved.
    rules = [mesh.quadrature(degree + 2) for mesh in meshes]
    refs = [ref_state.sample(x)[0] for x, _ in rules]
    del ref_state
    rows = []
    for n, mesh, (x, wts), ref in zip(n_list, meshes, rules, refs):
        state, _ = solve_steady(SlabAssembly(mesh, model, kn, formulation), wall)
        err2 = ((state.sample(x)[0] - ref) ** 2) @ wts
        comp_err = {name: float(np.sqrt(err2[i])) for i, name in enumerate(COMPONENTS)}
        rows.append(ConvergenceRow(n_elements=n, component_errors=comp_err,
                                   total=float(np.sqrt(err2.sum()))))
    return ConvergenceTable(rows=tuple(rows), reference_elements=n_ref, degree=degree)
