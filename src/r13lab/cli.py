"""Command-line front end tying the audits, probes, and slab runs together.

Every command writes its outputs into one directory together with a
manifest that records input hashes, library versions, and the seed, so a
rerun with identical configuration and seed reproduces every file bit for
bit (no timestamps anywhere).  Exit codes: 0 success, 2 configuration
problem, 3 the requested audit found inconsistent model data, 4 numerical
solver failure.

Numeric modules are imported only after the optional thread cap has been
applied, so ``--threads`` can still influence the pool sizes of BLAS
libraries loaded later.  The cap is best effort: it sets the usual
environment variables and is recorded in the manifest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import yaml

from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

OUT_ENV_VAR = "R13LAB_OUT"
DEFAULT_OUT = "r13lab-out"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_SOLVE_KEYS = {
    "model": None,
    "kn": 0.1,
    "elements": 64,
    "degree": 2,
    "formulation": "nonmaxwell",
}
_WALL_KEYS = {
    "problem": "couette",
    "wall_speed": 0.5,
    "wall_delta": 0.5,
    "wall_temperature": 0.5,
}

CONFIG_DEFAULTS = {
    "validate-params": {"model": None},
    "derive-bcs": {"model": None},
    "korn": {"n": 2, "degree": 2, "tail": 12},
    "solve-steady": {**_SOLVE_KEYS, **_WALL_KEYS, "profile_points": 201},
    "solve-transient": {
        **_SOLVE_KEYS,
        "dt": 0.01,
        "steps": 200,
        "scheme": "implicit-euler",
        "initial": "random",
        "profile_points": 201,
    },
    "converge": {
        **{k: v for k, v in _SOLVE_KEYS.items() if k != "elements"},
        **_WALL_KEYS,
        "levels": [8, 16, 32, 64],
        "ref_factor": 4,
    },
}


class ConfigError(Exception):
    """Bad flags, unreadable files, or invalid configuration values."""


# ---------------------------------------------------------------------------
# configuration plumbing


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise ConfigError("--threads must be a positive integer")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


def _resolve_out_dir(flag: str | None) -> Path:
    out = flag or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config_file(path: str) -> dict:
    # libyaml's safe loader when PyYAML was built with it: same documents,
    # parsed in native code.
    doc = yaml.load(Path(path).read_text(),
                    Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config file must be a mapping: {path}")
    return doc


def resolve_config(command: str, config_path: str | None,
                   model_flag: str | None) -> dict:
    """Merge defaults, config file, and the --model flag (flag wins)."""
    defaults = CONFIG_DEFAULTS[command]
    raw = _load_config_file(config_path) if config_path else {}
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {', '.join(unknown)}")
    cfg = {**defaults, **raw}
    if model_flag is not None:
        cfg["model"] = model_flag
    return cfg


def _require_model(cfg: dict) -> str:
    if not cfg.get("model"):
        raise ConfigError(
            "a model is required: pass --model or set 'model' in the config")
    return str(cfg["model"])


def _model_file(source: str) -> tuple[Path, str]:
    """The file a model source resolves to, for hashing in the manifest,
    and the path the manifest records: a model file's path as given, and a
    bundled model's path within the package (data/<name>.yaml), so that the
    manifest does not depend on where the package is installed."""
    from .models import model_file

    path, bundled = model_file(source)
    if bundled:
        return Path(str(path)), f"data/{path.name}"
    if not path.is_file():
        raise ConfigError(f"model file not found: {source}")
    return path, str(path)


def _positive_int(cfg: dict, key: str) -> int:
    value = cfg[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"'{key}' must be a positive integer, got {value!r}")
    return value


def _finite_float(cfg: dict, key: str) -> float:
    value = cfg[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"'{key}' must be a finite number, got {value!r}")
    return float(value)


def _wall_from_config(cfg: dict):
    import numpy as np

    from .slab import WallData

    problem = cfg["problem"]
    if problem == "equilibrium":
        temp = _finite_float(cfg, "wall_temperature")
        return WallData(theta_w=np.array([temp, temp]), u_t=np.zeros((2, 2)))
    if problem == "couette":
        return WallData.couette(_finite_float(cfg, "wall_speed"))
    if problem == "fourier":
        return WallData.fourier(_finite_float(cfg, "wall_delta"))
    raise ConfigError(
        f"unknown problem {problem!r}; choose equilibrium, couette, or fourier")


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(value) -> str:
    return repr(float(value))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    """Raises ValueError, writing nothing, if the payload holds a NaN or an
    infinity, which JSON cannot represent."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """rows is a float array or an iterable of rows that may hold strings."""
    import numpy as np

    lines = [",".join(header)]
    if isinstance(rows, np.ndarray):
        lines += [",".join(map(repr, row)) for row in rows.tolist()]
    else:
        lines += [",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row)
                  for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _finish(out_dir: Path, command: str, cfg: dict, args,
            outputs: list[str]) -> None:
    """Hash inputs and outputs and write the manifest (always last)."""
    import numpy
    import scipy

    inputs = {}
    if cfg.get("model"):
        model_path, recorded = _model_file(str(cfg["model"]))
        inputs["model"] = {"source": str(cfg["model"]),
                           "path": recorded,
                           "sha256": _sha256(model_path)}
    if args.config:
        inputs["config"] = {"path": args.config,
                            "sha256": _sha256(Path(args.config))}
    manifest = {
        "command": command,
        "config": cfg,
        "inputs": inputs,
        "outputs": {name: _sha256(out_dir / name) for name in outputs},
        "seed": args.seed,
        "threads": args.threads,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "r13lab": __version__,
        },
    }
    _write_json(out_dir / "manifest.json", manifest)
    for name in outputs + ["manifest.json"]:
        print(f"wrote {out_dir / name}")


def _monitor_dict(mon) -> dict:
    import dataclasses

    return {f.name: float(getattr(mon, f.name))
            for f in dataclasses.fields(mon)}


def _profile_rows(state, n_points: int):
    """CSV rows (one float array) of sampled components plus recovered
    physical fluxes."""
    import numpy as np

    from .slab import COMPONENTS

    header = (["x"] + list(COMPONENTS)
              + [f"phys_sigma_{i}{j}" for i, j in
                 ("11", "12", "13", "22", "23", "33")]
              + [f"phys_s_{i}" for i in "123"])
    x, vals, fluxes = state.profile(n_points)
    sig = fluxes.sigma.matrix()
    rows = np.column_stack([x, vals.T, sig[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]],
                            fluxes.s])
    return header, rows


# ---------------------------------------------------------------------------
# commands


def run_validate_params(cfg: dict, out_dir: Path, args) -> int:
    from .models import resolve_model, thermo_discriminants

    model = resolve_model(_require_model(cfg))
    report = thermo_discriminants(model)
    payload = {
        "eta": model.eta,
        "z1": report.z1, "w1": report.w1, "status1": report.status1,
        "z2": report.z2, "w2": report.w2, "status2": report.status2,
        "admissible": report.admissible,
    }
    _write_json(out_dir / "constraints.json", payload)
    print(f"model eta={model.eta}")
    print(f"pair 1: z1={report.z1:.6e} w1={report.w1:.6e} [{report.status1}]")
    print(f"pair 2: z2={report.z2:.6e} w2={report.w2:.6e} [{report.status2}]")
    print(f"admissible: {report.admissible}")
    _finish(out_dir, "validate-params", cfg, args, ["constraints.json"])
    return EXIT_OK if report.admissible else EXIT_DATA


def run_derive_bcs(cfg: dict, out_dir: Path, args) -> int:
    from .models import resolve_model
    from .onsager import coefficient_report

    model = resolve_model(_require_model(cfg))
    report = coefficient_report(model)
    consistent = (report["psd"]["ok"]
                  and report["duplicates"]["agree"]
                  and report["matching"]["consistent"]
                  and not report["proportionality"]["inconsistent"])
    report["consistent"] = consistent
    _write_json(out_dir / "boundary_coefficients.json", report)
    values = report["coefficients"]
    for group in (("S1", "S2", "S3", "S4"), ("S5", "S6", "S7", "S8"),
                  ("R1", "R2", "R3", "R4"), ("T1", "T2")):
        print("  ".join(f"{k}={values[k]:.6e}" for k in group))
    print(f"psd audit: {report['psd']['ok']}")
    print(f"duplicate coefficients agree: {report['duplicates']['agree']}")
    print(f"matching solve consistent: {report['matching']['consistent']}")
    print(f"consistent: {consistent}")
    _finish(out_dir, "derive-bcs", cfg, args, ["boundary_coefficients.json"])
    return EXIT_OK if consistent else EXIT_DATA


def run_korn(cfg: dict, out_dir: Path, args) -> int:
    from .korn import _check_size, assemble_cube_forms, build_cube_mesh, korn_constants

    mesh = build_cube_mesh(_positive_int(cfg, "n"), _positive_int(cfg, "degree"))
    _check_size(mesh.n_dofs)
    report = korn_constants(assemble_cube_forms(mesh),
                            n_tail=_positive_int(cfg, "tail"))
    payload = {
        "n": report.n,
        "degree": report.degree,
        "n_dofs": report.n_dofs,
        "lambda_min_classical": report.lambda_min_classical,
        "lambda_min_boundary": report.lambda_min_boundary,
        "stf_kernel_dim": report.stf_kernel_dim,
        "kernel_threshold": report.kernel_threshold,
        "stf_eig_max": report.stf_eig_max,
    }
    _write_json(out_dir / "korn_report.json", payload)
    n_rows = min(report.classical_tail.size, report.boundary_tail.size,
                 report.stf_tail.size)
    # The stf kernel eigenvalues are roundoff; written as 0.0, so the file
    # changes only when a reported quantity does.
    stf = report.stf_tail.copy()
    stf[:report.stf_kernel_dim] = 0.0
    _write_csv(out_dir / "korn_tails.csv",
               ["index", "classical", "boundary", "stf"],
               ([str(i), report.classical_tail[i], report.boundary_tail[i],
                 stf[i]] for i in range(n_rows)))
    print(f"mesh {report.n}^3 degree {report.degree}: {report.n_dofs} dofs")
    print(f"lambda_min classical: {report.lambda_min_classical:.6e}")
    print(f"lambda_min boundary:  {report.lambda_min_boundary:.6e}")
    print(f"stf kernel dimension: {report.stf_kernel_dim}")
    _finish(out_dir, "korn", cfg, args, ["korn_report.json", "korn_tails.csv"])
    return EXIT_OK


def _assembly_from_config(cfg: dict, n_elements: int):
    from .models import resolve_model
    from .slab import SlabAssembly, SlabMesh

    model = resolve_model(_require_model(cfg))
    mesh = SlabMesh(n_elements, _positive_int(cfg, "degree"))
    kn = _finite_float(cfg, "kn")
    return SlabAssembly(mesh, model, kn, str(cfg["formulation"]))


def run_solve_steady(cfg: dict, out_dir: Path, args) -> int:
    from .slab import solve_steady

    assembly = _assembly_from_config(cfg, _positive_int(cfg, "elements"))
    wall = _wall_from_config(cfg)
    state, mon = solve_steady(assembly, wall)
    header, rows = _profile_rows(state, _positive_int(cfg, "profile_points"))
    _write_csv(out_dir / "profile.csv", header, rows)
    _write_json(out_dir / "monitors.json", _monitor_dict(mon))
    print(f"steady solve: {assembly.ndof} dofs, "
          f"relative residual {mon.residual_rel:.3e}")
    print(f"energy={mon.energy:.6e} w1={mon.w1:.6e} i_bdry={mon.i_bdry:.6e}")
    _finish(out_dir, "solve-steady", cfg, args, ["profile.csv", "monitors.json"])
    return EXIT_OK


def run_solve_transient(cfg: dict, out_dir: Path, args) -> int:
    import numpy as np

    from .slab import random_state, transient_run, zero_state

    assembly = _assembly_from_config(cfg, _positive_int(cfg, "elements"))
    initial_kind = cfg["initial"]
    if initial_kind == "random":
        initial = random_state(assembly, np.random.default_rng(args.seed))
    elif initial_kind == "zero":
        initial = zero_state(assembly)
    else:
        raise ConfigError(f"unknown initial state {initial_kind!r}; "
                          "choose random or zero")
    dt = _finite_float(cfg, "dt")
    steps = _positive_int(cfg, "steps")
    final, trace = transient_run(assembly, initial, dt, steps,
                                 scheme=str(cfg["scheme"]))
    fields = list(_monitor_dict(trace[0]))
    _write_csv(out_dir / "monitors.csv", ["step", "time"] + fields,
               ([str(i), i * dt] + [getattr(m, f) for f in fields]
                for i, m in enumerate(trace)))
    header, rows = _profile_rows(final, _positive_int(cfg, "profile_points"))
    _write_csv(out_dir / "final_profile.csv", header, rows)
    energies = np.array([m.energy for m in trace])
    print(f"{steps} steps of {cfg['scheme']} with dt={dt}")
    print(f"energy {energies[0]:.6e} -> {energies[-1]:.6e}, "
          f"nonincreasing: {bool(np.all(np.diff(energies) <= 0.0))}")
    _finish(out_dir, "solve-transient", cfg, args,
            ["monitors.csv", "final_profile.csv"])
    return EXIT_OK


def run_converge(cfg: dict, out_dir: Path, args) -> int:
    from .models import resolve_model
    from .slab import convergence_study

    model = resolve_model(_require_model(cfg))
    levels = cfg["levels"]
    if (not isinstance(levels, (list, tuple))
            or not all(isinstance(n, int) and not isinstance(n, bool) and n > 0
                       for n in levels)):
        raise ConfigError("'levels' must be a list of positive element counts")
    table = convergence_study(
        model, _wall_from_config(cfg), levels,
        degree=_positive_int(cfg, "degree"), kn=_finite_float(cfg, "kn"),
        formulation=str(cfg["formulation"]),
        ref_factor=_positive_int(cfg, "ref_factor"))
    totals = table.totals
    ratios = [""] + [_fmt(r) for r in table.ratios]
    _write_csv(out_dir / "convergence.csv",
               ["n_elements", "total_error", "ratio_vs_previous"],
               ([str(row.n_elements), totals[i], ratios[i]]
                for i, row in enumerate(table.rows)))
    print(f"reference mesh: {table.reference_elements} elements, "
          f"degree {table.degree}")
    for i, row in enumerate(table.rows):
        tail = f"  ratio {table.ratios[i - 1]:.2f}" if i else ""
        print(f"n={row.n_elements:>5d}  error {totals[i]:.6e}{tail}")
    _finish(out_dir, "converge", cfg, args, ["convergence.csv"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "validate-params": (run_validate_params, True,
                        "audit the thermodynamic constraint pairs of a model"),
    "derive-bcs": (run_derive_bcs, True,
                   "derive wall coefficients and run the consistency audits"),
    "korn": (run_korn, False,
             "eigenvalue probes of the rigid-motion forms on a cube mesh"),
    "solve-steady": (run_solve_steady, True,
                     "steady slab solve with wall data"),
    "solve-transient": (run_solve_transient, True,
                        "implicit time stepping with homogeneous walls"),
    "converge": (run_converge, True,
                 "self-convergence study on a mesh ladder"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves
    it unchanged, so every call parses independently."""
    parser = argparse.ArgumentParser(
        prog="r13lab",
        description="verification laboratory for the linearized moment system")
    parser.add_argument("--version", action="version",
                        version=f"r13lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_model, helptext) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        if takes_model:
            cmd.add_argument("--model",
                             help="bundled model name or model YAML path")
        cmd.add_argument("--config", help="YAML run configuration")
        cmd.add_argument("--out",
                         help=f"output directory (default ${OUT_ENV_VAR} "
                              f"or {DEFAULT_OUT})")
        cmd.add_argument("--seed", type=int, default=0,
                         help="seed for any randomized state (default 0)")
        cmd.add_argument("--threads", type=int,
                         help="best-effort cap on BLAS thread pools")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _apply_thread_cap(args.threads)
        out_dir = _resolve_out_dir(args.out)
        cfg = resolve_config(args.command, args.config,
                             getattr(args, "model", None))
        return _COMMANDS[args.command][0](cfg, out_dir, args)
    except (ConfigError, ValueError, OSError, yaml.YAMLError) as exc:
        print(f"r13lab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        # SolverError and factorization failures from the sparse solver
        print(f"r13lab: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
