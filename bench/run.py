"""r13lab benchmark: three workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload runs in a fresh worker process
(bench/worker.py) with BLAS and OpenMP pools pinned to one thread, after
SETUP_PROBES further fresh processes that only set up, so set-up time and
peak memory belong to that workload alone.  End-to-end times are reference
seconds from bench/refclock.py; the raw wall times are printed beside them.
The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A record with the environment, inputs
and metrics is written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("transient", "spectral_probes", "steady_requests")
SETUP_PROBES = 4
BLAS_THREADS = 1
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "r13lab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "blas_threads": BLAS_THREADS, "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str], workdir: Path, deadline: float) -> dict:
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(BENCH / "worker.py"), *args[:3], str(workdir),
           str(result_path), *args[3:]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker {' '.join(args)} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text())


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    workdir = OUT / f"work-{name}-{seed}-{trace:d}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        probes = [_worker(["setup", name, str(seed)], workdir, deadline)
                  for _ in range(SETUP_PROBES)]
        res = _worker(["run", name, str(seed), str(seconds), str(int(trace))],
                      workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes.append(res)
    res["setup_samples_s"] = [p["setup_s"] for p in probes]
    res["setup_raw_samples_s"] = [p["setup_raw_s"] for p in probes]
    res["setup_s"] = stats.median(res["setup_samples_s"])
    res["setup_raw_s"] = stats.median(res["setup_raw_samples_s"])
    if trace:
        metrics = res["per_layer"]
    else:
        metrics = {key: {"value": res[key], "unit": unit}
                   for key, unit in END_TO_END_UNITS.items()}
    environment = {**_environment(), **res.pop("versions")}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment,
              "correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "fail_frac": stats.fail_frac(res["failed"], res["attempted"]),
              "metrics": metrics,
              **{k: v for k, v in res.items() if k not in ("per_layer", "spans")}}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(res["spans"]) + "\n")
    return record


def _print_record(rec: dict) -> None:
    env = rec["environment"]
    tail = f"p{rec['tail_pct']:g}" if rec["tail_pct"] else "max"
    print(f"== {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
          f"units={rec['units']} ops={rec['ops']} tail={tail}")
    print(f"   env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
          f"numpy={env.get('numpy')} scipy={env.get('scipy')} "
          f"blas={env.get('numpy_blas')!r}/{env.get('scipy_blas')!r} "
          f"threads={env['blas_threads']} commit={env['git_commit']}")
    print(f"   inputs: {json.dumps(rec['inputs'], sort_keys=True)}")
    for note in rec["notes"]:
        print(f"   FAILED {note}")
    if rec.get("missing"):
        print(f"   missing entry points: {', '.join(rec['missing'])}")
    print(f"   fail_frac = {rec['fail_frac']:.6g} ratio "
          f"({rec['failed']}/{rec['attempted']})")
    print(f"   raw wall clock: setup {rec['setup_raw_s']:.4g} s, unit "
          f"{rec['wall_raw_s']:.4g} s; machine speed {rec['speed']:.3f} of reference")
    for key, m in rec["metrics"].items():
        print(f"   {key} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "r13lab" / "__init__.py").is_file():
        print(f"run.py: no r13lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated run raises SystemExit, so subprocess.run kills its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                                deadline) for n in names]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        _print_record(rec)
    prefix = len(records) > 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
