"""Span recorder for the traced benchmark run.

The recorder wraps public entry points of the r13lab modules from outside
the library, keeps every span in memory and summarises them at the end.
Self time of a span is its duration minus the durations of its direct
child spans; the run is single threaded, so children nest inside their
parent.  An entry point that does not exist (renamed or removed) is listed
in ``missing`` and its span reports zero calls.

Deliberately not wrapped: ``r13lab.tensors`` (called per point, so a span
would cost more than the work it times; its time lands in the self time of
``slab.monitors`` and ``state.fluxes``) and ``r13lab.basis`` (no solver or
CLI path reaches it).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

_now = time.perf_counter


def _count_points(args, kwargs, result):
    return {"points": len(args[1])}


def _count_assembly(args, kwargs, result):
    return {"dofs": args[0].ndof}


def _count_mesh(args, kwargs, result):
    return {"dofs": result.n_dofs}


def _count_forms(args, kwargs, result):
    return {"dofs": args[0].n_dofs}


def _count_request(args, kwargs, result):
    argv = list(args[0])
    out = argv[argv.index("--out") + 1]
    return {"bytes_written": sum(e.stat().st_size for e in os.scandir(out)
                                 if e.is_file())}


def _count_factorize(args, kwargs, result):
    mat = args[0]
    return {"nnz": mat.nnz, "dofs": mat.shape[0],
            "lu_fill": result.L.nnz + result.U.nnz}


def _count_eigh(args, kwargs, result):
    n = args[0].shape[0]
    pencil = len(args) > 1 or kwargs.get("b") is not None
    return {"n": n, "n3": n ** 3, "bytes_computed": 8 * n * n * (1 + pencil)}


# (span, module, attribute path, counter).  Several entry points may share
# one span; a span nested in another of the same name counts as a call.
ENTRY_POINTS = (
    ("slab.sample", "r13lab.slab", "DiscreteState.sample", None),
    ("slab.sample", "r13lab.slab", "DiscreteState.sample_grid", None),
    ("slab.sample", "r13lab.slab", "DiscreteState.profile", None),
    ("slab.tabulate", "r13lab.slab", "ScalarSpace.tabulate", _count_points),
    ("slab.assembly", "r13lab.slab", "SlabAssembly.__init__", _count_assembly),
    ("slab.operator", "r13lab.slab", "SlabAssembly.a_operator", None),
    ("slab.operator", "r13lab.slab", "SlabAssembly.steady_system", None),
    ("slab.operator", "r13lab.slab", "SlabAssembly.transient_operator", None),
    ("slab.operator", "r13lab.slab", "SlabAssembly.t1_gram", None),
    ("slab.monitors", "r13lab.slab", "monitors", None),
    ("slab.solve", "r13lab.slab", "solve_steady", None),
    ("slab.step", "r13lab.slab", "step_transient", None),
    ("slab.study", "r13lab.slab", "convergence_study", None),
    ("slab.coercivity", "r13lab.slab", "coercivity_probe", None),
    ("korn.mesh", "r13lab.korn", "build_cube_mesh", _count_mesh),
    ("korn.assemble", "r13lab.korn", "assemble_cube_forms", _count_forms),
    ("models.load", "r13lab.models", "resolve_model", None),
    ("models.load", "r13lab.models", "load_model", None),
    ("onsager.derive", "r13lab.onsager", "boundary_coefficients", None),
    ("state.fluxes", "r13lab.state", "physical_fluxes", None),
    ("cli.request", "r13lab.cli", "main", _count_request),
)

# Library calls into scipy, wrapped where the r13lab module looks them up
# (module global, then attribute chain); the span is named by the module.
NATIVE_CALLS = (
    ("slab.factorize", "r13lab.slab", "spla.splu", _count_factorize),
    ("slab.eigh", "r13lab.slab", "scipy.linalg.eigh", _count_eigh),
    ("korn.eigh", "r13lab.korn", "scipy.linalg.eigh", _count_eigh),
)

# The factor object returned by a wrapped splu records its solves here.
LU_SOLVE_SPAN = "slab.lu_solve"

SPAN_NAMES = tuple(dict.fromkeys(
    [s for s, *_ in ENTRY_POINTS] + [s for s, *_ in NATIVE_CALLS]
    + [LU_SOLVE_SPAN]))

# Extra per-layer metrics: (name, unit).  Plain counts are summed over the
# span's calls; the ratios are computed in per_layer_metrics.
COUNT_METRICS = (
    ("slab.tabulate.points", "count"),
    ("slab.assembly.dofs", "count"),
    ("slab.factorize.nnz", "count"),
    ("slab.factorize.lu_fill", "count"),
    ("slab.factorize.dofs", "count"),
    ("slab.eigh.n", "count"),
    ("slab.eigh.n3", "count"),
    ("slab.eigh.bytes_computed", "B"),
    ("korn.eigh.n", "count"),
    ("korn.eigh.n3", "count"),
    ("korn.eigh.bytes_computed", "B"),
    ("korn.mesh.dofs", "count"),
    ("korn.assemble.dofs", "count"),
    ("cli.request.bytes_written", "B"),
)
# (name, unit, numerator, denominator) with numerator/denominator totals.
RATIO_METRICS = (
    ("slab.tabulate.points_per_call", "points/call",
     "slab.tabulate.points", "slab.tabulate.calls"),
    ("slab.operator.per_assembly", "ratio",
     "slab.operator.calls", "slab.assembly.calls"),
    ("slab.lu_solve.per_factorize", "ratio",
     "slab.lu_solve.calls", "slab.factorize.calls"),
)
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.errors"] = "count"
    units.update(COUNT_METRICS)
    units.update((name, unit) for name, unit, _, _ in RATIO_METRICS)
    units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return units


class Recorder:
    """In-memory spans: [name, start, end, parent index, child time, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, _now(), 0.0, parent, 0.0, False])

    def close(self, error: bool = False) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = _now()
        span[5] = error
        if self._stack:
            self.spans[self._stack[-1]][4] += span[2] - span[1]

    def wrap(self, name: str, fn, counter=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.close(error=True)
                raise
            if counter is not None:
                rec.count(name, counter, args, kwargs, result)
            rec.close()
            return result

        return traced

    def count(self, name, counter, args, kwargs, result) -> None:
        try:
            values = counter(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError, ValueError):
            label = f"{name} counts ({counter.__name__})"
            if label not in self.missing:
                self.missing.append(label)
            return
        for key, value in values.items():
            self.counts[f"{name}.{key}"] += value

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s, errors."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
               for name in SPAN_NAMES}
        for name, start, end, _, child, error in self.spans:
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
            row["errors"] += int(error)
        return out

    def per_layer_metrics(self, n_units: int, overhead_frac: float) -> dict:
        """Per-layer metric values, counts and times per traced unit."""
        summary = self.summary()
        totals = dict(self.counts)
        values = {}
        for span in SPAN_NAMES:
            row = summary[span]
            totals[f"{span}.calls"] = row["calls"]
            values[f"{span}.calls"] = row["calls"] / n_units
            values[f"{span}.self_s"] = row["self_s"] / n_units
            values[f"{span}.errors"] = row["errors"] / n_units
        for name, _ in COUNT_METRICS:
            values[name] = totals.get(name, 0) / n_units
        for name, _, num, den in RATIO_METRICS:
            d = totals.get(den, 0)
            values[name] = totals.get(num, 0) / d if d else 0.0
        values[OVERHEAD_METRIC[0]] = overhead_frac
        units = per_layer_units()
        return {name: {"value": values[name], "unit": units[name]}
                for name in units}

    def dump(self) -> list:
        """Spans as [name, start_s, duration_s, parent index, error]."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - s, p, err] for n, s, e, p, _, err in self.spans]


class _Proxy:
    """Attribute-delegating stand-in with some attributes overridden."""

    def __init__(self, target, **overrides):
        object.__setattr__(self, "_target", target)
        for key, value in overrides.items():
            object.__setattr__(self, key, value)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Installs and removes the recorder's wrappers on the r13lab modules."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list = []

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        rec = self.recorder
        for span, module, path, counter in ENTRY_POINTS:
            mod = importlib.import_module(module)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or (owner_name and attr not in owner.__dict__):
                self._missing(f"{module}.{path}")
                continue
            wrapped = rec.wrap(span, original, counter)
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            # Functions imported by name elsewhere are replaced there too.
            for name, other in list(sys.modules.items()):
                if name == "r13lab" or name.startswith("r13lab."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, wrapped)
        for span, module, path, counter in NATIVE_CALLS:
            mod = importlib.import_module(module)
            self._install_native(span, mod, module, path.split("."), counter)

    def _install_native(self, span, mod, module, chain, counter) -> None:
        objs = [mod]
        for part in chain:
            nxt = getattr(objs[-1], part, None)
            if nxt is None:
                self._missing(f"{module}.{'.'.join(chain)}")
                return
            objs.append(nxt)
        fn = objs[-1]
        if span == "slab.factorize":
            fn = self._factor_wrapping(fn)
        value = self.recorder.wrap(span, fn, counter)
        # Rebuild the chain bottom-up as proxies; the module global last.
        for part, parent in zip(reversed(chain[1:]), reversed(objs[1:-1])):
            value = _Proxy(parent, **{part: value})
        self._set(mod, chain[0], value)

    def _factor_wrapping(self, splu):
        rec = self.recorder

        @functools.wraps(splu)
        def factorize(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return _Proxy(lu, solve=rec.wrap(LU_SOLVE_SPAN, lu.solve))

        return factorize

    def _missing(self, label: str) -> None:
        if label not in self.recorder.missing:
            self.recorder.missing.append(label)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
