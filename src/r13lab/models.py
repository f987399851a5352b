"""Molecular model parameters and the thermodynamic constraint audit.

A model bundles the dimensionless transport coefficients k0..k10, the
relaxation coefficients l1 and l2, the wall accommodation factor chi, and
an 8x9 wall coefficient table m_jk consumed by the boundary-condition
derivation.  Parameter sets load from YAML documents; bundled files cover
four interaction-exponent rows (eta = 7, 10, 17, infinity) plus the
Maxwell limit.

The strict constraints on (k1, k2, k10) and (k3, k4, k7) are expressed by
the discriminants

    z1 = k1*k10 - 3*k2^2,      z2 = 24*k3*k7 - 25*k4^2,

together with the ratios w1 = 3*k2^2/(k1*k10), w2 = 25*k4^2/(24*k3*k7).
Strict means z > 0 (equivalently w < 1); a vanishing product k1*k10 or
k3*k7 makes the pair degenerate rather than violated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

M_ROWS = 8
M_COLS = 9

_K_NAMES = tuple(f"k{i}" for i in range(11))


class MTable:
    """Wall coefficient table, indexed 1-based as m[j, k] with j in 1..8, k in 1..9."""

    __slots__ = ("_data",)

    def __init__(self, entries) -> None:
        data = np.array(entries, dtype=float)
        if data.shape != (M_ROWS, M_COLS):
            raise ValueError(f"m-table must have shape {(M_ROWS, M_COLS)}, got {data.shape}")
        data.setflags(write=False)
        self._data = data

    def __getitem__(self, jk: tuple[int, int]) -> float:
        j, k = jk
        if not (1 <= j <= M_ROWS and 1 <= k <= M_COLS):
            raise IndexError(f"m-table index out of range: ({j}, {k})")
        return float(self._data[j - 1, k - 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, MTable) and np.array_equal(self._data, other._data)

    def __hash__(self) -> int:
        # Hash the values, not their bytes, so that 0.0 and -0.0 hash alike
        # as they compare alike.
        return hash(tuple(self._data.ravel().tolist()))

    def __repr__(self) -> str:
        return f"MTable({self._data.tolist()!r})"

    @property
    def array(self) -> np.ndarray:
        """Read-only (8, 9) view, 0-based."""
        return self._data

    def with_entry(self, j: int, k: int, value: float) -> "MTable":
        """Copy with one 1-based entry replaced."""
        data = self._data.copy()
        data[j - 1, k - 1] = value
        return MTable(data)


@dataclass(frozen=True)
class MolecularModel:
    """Immutable parameter set for one molecular interaction model.

    eta only labels the parameter row (the string "infinity" is a valid
    label); it never enters arithmetic.
    """

    eta: float | str
    k0: float
    k1: float
    k2: float
    k3: float
    k4: float
    k5: float
    k6: float
    k7: float
    k8: float
    k9: float
    k10: float
    l1: float
    l2: float
    chi: float
    chi_tilde: float
    m: MTable
    is_maxwell: bool = False

    @property
    def k(self) -> np.ndarray:
        """Transport coefficients as an array indexed by subscript."""
        return np.array([getattr(self, name) for name in _K_NAMES])


def _require(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"missing field: {name}")
    return doc[name]


def _finite(raw, name: str) -> float:
    """raw as a float; booleans, non-numbers, NaN and infinities raise a
    ValueError that names the field."""
    try:
        value = math.nan if isinstance(raw, bool) else float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {raw!r}")
    return value


def _listed(raw, name: str) -> list:
    """raw as a list; anything but a list or tuple raises a ValueError that
    names the field."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {raw!r}")
    return list(raw)


def _parse_eta(raw) -> float | str:
    """The label 'infinity' (or 'inf') is the only infinite eta."""
    if isinstance(raw, str):
        label = raw.strip().lower()
        if label in ("infinity", "inf"):
            return "infinity"
        raise ValueError(f"eta must be a number or 'infinity', got {raw!r}")
    return _finite(raw, "eta")


def _parse_k(raw) -> dict[str, float]:
    if isinstance(raw, dict):
        missing = [name for name in _K_NAMES if name not in raw]
        if missing:
            raise ValueError(f"missing field: k.{missing[0]}")
        values = {name: _finite(raw[name], name) for name in _K_NAMES}
    else:
        seq = _listed(raw, "k")
        if len(seq) != len(_K_NAMES):
            raise ValueError(f"k must list {len(_K_NAMES)} values k0..k10, got {len(seq)}")
        values = {name: _finite(v, name) for name, v in zip(_K_NAMES, seq)}
    for name, value in values.items():
        if value < 0.0:
            raise ValueError(f"{name} must be nonnegative")
    return values


def _parse_m(raw) -> MTable:
    rows = _listed(raw, "m")
    if len(rows) != M_ROWS:
        raise ValueError(f"m must have {M_ROWS} rows, got {len(rows)}")
    data = np.zeros((M_ROWS, M_COLS))
    for j, row in enumerate(rows):
        entries = [_finite(v, f"m[{j + 1}, {k + 1}]")
                   for k, v in enumerate(_listed(row, f"m row {j + 1}"))]
        if len(entries) > M_COLS:
            raise ValueError(f"m row {j + 1} has {len(entries)} entries, expected at most {M_COLS}")
        # Short rows are right-padded with zeros.
        data[j, : len(entries)] = entries
    return MTable(data)


def load_model(source) -> MolecularModel:
    """Build a validated model from a YAML document (path or parsed mapping).

    Raises ValueError naming the offending field when a value is missing or
    out of range.  Unknown top-level keys are ignored so documents can carry
    annotations.  A file is read on every call, but each distinct document
    text is parsed once per process and its model shared: the model is
    frozen and its m-table read-only.  An invalid text is not remembered,
    so it raises on every call.
    """
    if isinstance(source, dict):
        return _model_from_doc(source)
    if isinstance(source, str):
        source = Path(source)
    return _model_from_text(source.read_text())


# Distinct model texts kept parsed; the package bundles five.
_MODEL_MEMO_SIZE = 32


@functools.lru_cache(maxsize=_MODEL_MEMO_SIZE)
def _model_from_text(text: str) -> MolecularModel:
    # libyaml's safe loader when PyYAML was built with it: same documents,
    # parsed in native code.
    return _model_from_doc(yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)))


def _model_from_doc(doc) -> MolecularModel:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a mapping")

    eta = _parse_eta(_require(doc, "eta"))
    kvals = _parse_k(_require(doc, "k"))
    l1 = _finite(_require(doc, "l1"), "l1")
    l2 = _finite(_require(doc, "l2"), "l2")
    if l1 <= 0.0:
        raise ValueError("l1 must be positive")
    if l2 <= 0.0:
        raise ValueError("l2 must be positive")
    chi = _finite(_require(doc, "chi"), "chi")
    if not 0.0 < chi <= 1.0:
        raise ValueError("chi must be in (0, 1]")
    m = _parse_m(_require(doc, "m"))
    is_maxwell = doc.get("maxwell", False)
    if not isinstance(is_maxwell, bool):
        raise ValueError(f"maxwell must be true or false, got {is_maxwell!r}")
    return MolecularModel(
        eta=eta,
        **kvals,
        l1=l1,
        l2=l2,
        chi=chi,
        chi_tilde=2.0 * chi / (2.0 - chi),
        m=m,
        is_maxwell=is_maxwell,
    )


@dataclass(frozen=True)
class ConstraintReport:
    """Discriminants and ratios of the two strict constraint pairs.

    status per pair: "strict" (z > 0), "boundary" (z = 0 with nonzero
    product), "violated" (z < 0), or "degenerate" (vanishing product, the
    ratio w is then undefined and reported as NaN).
    """

    z1: float
    w1: float
    status1: str
    z2: float
    w2: float
    status2: str

    @property
    def admissible(self) -> bool:
        """True unless either pair is violated."""
        return "violated" not in (self.status1, self.status2)


def _pair_status(z: float, product: float) -> str:
    if product == 0.0:
        return "degenerate"
    if z > 0.0:
        return "strict"
    if z == 0.0:
        return "boundary"
    return "violated"


def thermo_discriminants(model: MolecularModel) -> ConstraintReport:
    """Evaluate both strict thermodynamic constraint pairs."""
    p1 = model.k1 * model.k10
    z1 = p1 - 3.0 * model.k2**2
    w1 = 3.0 * model.k2**2 / p1 if p1 > 0.0 else math.nan
    p2 = model.k3 * model.k7
    z2 = 24.0 * p2 - 25.0 * model.k4**2
    w2 = 25.0 * model.k4**2 / (24.0 * p2) if p2 > 0.0 else math.nan
    return ConstraintReport(z1, w1, _pair_status(z1, p1), z2, w2, _pair_status(z2, p2))


def maxwell_specialize(model: MolecularModel) -> MolecularModel:
    """Collapse to the Maxwell limit: k0 = k5 = 1 and k1 = k2 = k3 = k4 = 0.

    All other fields are preserved, so the wall table of a non-Maxwell
    model generally stops being self-consistent after specialization; the
    bundled Maxwell model ships its own consistent table.
    """
    return replace(
        model, k0=1.0, k1=0.0, k2=0.0, k3=0.0, k4=0.0, k5=1.0, is_maxwell=True
    )


def _data_dir():
    return resources.files("r13lab").joinpath("data")


def bundled_models() -> tuple[str, ...]:
    """Names of the parameter files shipped with the package."""
    names = [p.name[:-5] for p in _data_dir().iterdir() if p.name.endswith(".yaml")]
    return tuple(sorted(names))


def bundled_model_path(name: str):
    path = _data_dir().joinpath(f"{name}.yaml")
    if not path.is_file():
        known = ", ".join(bundled_models())
        raise ValueError(f"unknown bundled model {name!r}; available: {known}")
    return path


def model_file(source) -> tuple:
    """(file, bundled) of a model source other than a mapping: a path ending
    in .yaml or .yml or naming an existing file, else a bundled model."""
    path = Path(source)
    if path.suffix in (".yaml", ".yml") or path.exists():
        return path, False
    return bundled_model_path(str(source)), True


def resolve_model(source) -> MolecularModel:
    """Load from a mapping, a file path, or a bundled model name like 'eta7'."""
    return load_model(source if isinstance(source, dict) else model_file(source)[0])
