"""One benchmark process: set up a workload, run it, write the result.

    python3 bench/worker.py setup <workload> <seed> <workdir> <result.json>
    python3 bench/worker.py run <workload> <seed> <workdir> <result.json> <seconds> <trace>

Set-up time runs from just before the first numpy/scipy/r13lab import to
the first timed operation; it covers the imports, model resolution and
input generation, and is timed on a reference clock with the pure-Python
kernel (refclock.py).  ``setup`` stops there; ``run`` goes on to repeat
units until ``seconds`` have passed and at least the workload's
``min_ops`` operations are timed, then runs the untimed run-level checks.
With trace 1 it alternates untraced and traced units and reports per-layer
metrics from the traced ones.  r13lab is imported from ``src`` next to
this directory, never from an installed copy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import refclock
import spans
import stats

ROOT = Path(__file__).resolve().parent.parent
MIN_UNITS = 2  # wall_s is a median over units


def _load(name: str, seed: int, workdir: Path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads, workloads.WORKLOADS[name](seed, workdir)


def _setup(name: str, seed: int, workdir: Path):
    clock = refclock.RefClock("python", min_s=0.02)
    out, exc, setup_s = clock.measure(_load, name, seed, workdir)
    if exc:
        raise exc
    workloads, wl = out
    import r13lab

    src = Path(r13lab.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"r13lab imported from {src}, not from {ROOT / 'src'}")
    return workloads, wl, setup_s, clock.raw_total


def _versions() -> dict:
    import numpy
    import scipy

    out = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out[f"{module.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
    return out


def _run(workloads, wl, seconds: float, trace: bool) -> dict:
    ledger = workloads.Ledger()
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    untraced, traced, raw, raw_traced, unit_ops = [], [], [], [], []
    start = time.perf_counter()
    unit = 0
    while (unit < MIN_UNITS or time.perf_counter() - start < seconds
           or ledger.attempted < wl.min_ops or (trace and unit % 2)):
        tracing = trace and unit % 2 == 1
        if tracing:
            tracer.install()
        raw0, ops0 = wl.clock.raw_total, len(ledger.op_s)
        try:
            elapsed = wl.run_unit(unit, ledger)
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else untraced).append(elapsed)
        (raw_traced if tracing else raw).append(wl.clock.raw_total - raw0)
        if not tracing:
            unit_ops.append(ledger.op_s[ops0:])
        unit += 1
    speed = wl.clock.speed
    wl.final_checks(ledger)
    # Each position's median over units keeps a step that is slow in every
    # unit and drops the host's scheduling noise, which hits units at random.
    tail_of = ([stats.median(col) for col in zip(*unit_ops)] if wl.fixed_ops
               else ledger.op_s)
    tail_pct = stats.tail_percentile(len(tail_of) if wl.fixed_ops else wl.min_ops)

    result = {"versions": _versions(), "attempted": ledger.attempted, "failed": ledger.failed,
              "notes": ledger.notes, "inputs": wl.inputs,
              "units": len(untraced), "unit_s": untraced, "ops": len(ledger.op_s),
              "op_s": ledger.op_s,
              "tail_pct": tail_pct, "speed": speed,
              "wall_raw_s": stats.median(raw),
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if trace:
        overhead = stats.median(traced) / stats.median(untraced) - 1.0
        result["per_layer"] = recorder.per_layer_metrics(len(traced), overhead)
        result["missing"] = recorder.missing
        result["spans_summary"] = recorder.summary()
        result["traced_units"] = len(traced)
        result["spans"] = recorder.dump()
        result["wall_s_untraced"] = stats.median(untraced)
        result["wall_s_traced"] = stats.median(traced)
        result["wall_raw_s_traced"] = stats.median(raw_traced)
    else:
        result["wall_s"] = stats.median(untraced)
        result["op_p50_ms"] = 1e3 * stats.median(ledger.op_s)
        result["op_tail_ms"] = 1e3 * stats.tail(tail_of, tail_pct or 100.0)
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, workdir, out = argv[:5]
    workdir = Path(workdir)
    workloads, wl, setup_s, setup_raw_s = _setup(name, int(seed), workdir)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if mode == "run":
        result.update(_run(workloads, wl, float(argv[5]), argv[6] == "1"))
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
