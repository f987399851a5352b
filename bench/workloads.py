"""The three benchmark workloads, driven through r13lab's public API.

Importing this module imports numpy, scipy and every r13lab module, so the
worker counts it as set-up.  Each workload builds its inputs in its
constructor: the seed drives the transient's initial state and the request
stream, and the library only ever receives the generated inputs; the
spectral probes have fixed inputs.  A unit is one checked instance of the
workload (one 200-step transient, one round of the four spectral probes,
one block of twelve CLI requests); a unit is a sequence of operations, and
an operation fails if it raises or if any of its checks fails.  Every timed
call goes through the workload's reference clock (refclock.py), so times
are in reference seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shutil
import traceback
from pathlib import Path

import numpy as np

from r13lab import cli, korn, slab
from r13lab.models import resolve_model

import refclock
import stats

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

# Mirrors slab.RESIDUAL_RTOL; kept here so the gate does not move with the
# library.
RESIDUAL_RTOL = 1e-8
MAX_FAILURE_NOTES = 20


class Ledger:
    """Operation outcomes and latencies of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []
        self.notes: list[str] = []

    def record(self, label: str, problems: list[str], seconds=None) -> None:
        self.attempted += 1
        if seconds is not None:
            self.op_s.append(seconds)
        if problems:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"{label}: {'; '.join(problems)}")


def _raised(exc: BaseException) -> str:
    return "raised " + "".join(
        traceback.format_exception_only(type(exc), exc)).strip()


def _golden(problems: list[str], key: str, value: float) -> None:
    ref = GOLDEN[key]
    if not stats.matches_golden(value, ref["value"], ref["rtol"],
                                ref.get("atol", 0.0)):
        problems.append(f"{key}={value!r} differs from golden {ref['value']!r}")


class Workload:
    """A run makes at least min_ops timed operations.  When ``fixed_ops`` is
    set, every unit runs the same sequence of operations, and op_tail_ms is
    taken over the positions in that sequence, each at its median over
    units; otherwise over all operations, at the percentile min_ops allows.
    ``kernel`` names the reference clock's calibration kernel."""

    name = ""
    min_ops = 1
    fixed_ops = False
    kernel = "python"

    def __init__(self, seed: int, workdir: Path):
        self.clock = refclock.RefClock(self.kernel)

    def run_unit(self, index: int, ledger: Ledger) -> float:
        """Run and check one unit; returns its time in library calls, in
        reference seconds."""
        raise NotImplementedError

    def final_checks(self, ledger: Ledger) -> None:
        """Untimed run-level checks, recorded as operations."""


class Transient(Workload):
    """Implicit Euler from a seeded random state, one op per step.

    The loop is transient_run's, spelled out so each step is timed.
    """

    name = "transient"
    min_ops = 200
    fixed_ops = True
    kernel = "numpy"
    n_elements, dt, steps = 64, 0.01, 200

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.model = resolve_model("eta7")
        self.state_seed = np.random.SeedSequence([seed, 2])
        self.inputs = {"model": "eta7", "n": self.n_elements, "degree": 2,
                       "kn": 0.1, "dt": self.dt, "steps": self.steps,
                       "scheme": "implicit-euler"}
        self.final_energy = None

    def _trajectory(self, seq: np.random.SeedSequence, record_input: bool):
        """Run one trajectory; returns (elapsed, monitors, op times, error)."""
        mons, op_s = [], []

        def start():
            asm = slab.SlabAssembly(slab.SlabMesh(self.n_elements, 2),
                                    self.model, 0.1, "nonmaxwell")
            state = slab.random_state(asm, np.random.default_rng(seq))
            mons.append(slab.monitors(state, asm))
            return asm, state

        out, exc, elapsed = self.clock.measure(start)
        if exc:
            return elapsed, mons, op_s, exc
        asm, state = out
        if record_input and "initial_sha256" not in self.inputs:
            self.inputs["initial_sha256"] = hashlib.sha256(
                state.coefficients.tobytes()).hexdigest()
        for _ in range(self.steps):
            out, exc, seconds = self.clock.measure(
                slab.step_transient, state, self.dt, "implicit-euler", asm)
            op_s.append(seconds)
            elapsed += seconds
            if exc:
                return elapsed, mons, op_s, exc
            state, mon = out
            mons.append(mon)
        return elapsed, mons, op_s, None

    @staticmethod
    def _step_problems(mons, k: int) -> list[str]:
        e0, prev, mon = mons[0].energy, mons[k - 1], mons[k]
        problems = []
        if not mon.energy <= prev.energy + 1e-12 * e0:
            problems.append(f"energy rose {prev.energy!r} -> {mon.energy!r}")
        for m in ((mons[0], mon) if k == 1 else (mon,)):
            if not m.w1 <= 1e-12:
                problems.append(f"w1={m.w1!r} > 1e-12")
        if not abs(mon.mass - mons[0].mass) <= 1e-10:
            problems.append(f"mass drift {mon.mass - mons[0].mass!r}")
        if not mon.residual_rel <= RESIDUAL_RTOL:
            problems.append(f"residual_rel={mon.residual_rel!r}")
        return problems

    def run_unit(self, index: int, ledger: Ledger) -> float:
        elapsed, mons, op_s, exc = self._trajectory(self.state_seed, True)
        for k in range(1, self.steps + 1):
            if k >= len(mons):
                seconds = op_s[k - 1] if k <= len(op_s) else None
                first = exc is not None and k == max(len(op_s), 1)
                ledger.record(f"step {k}", [_raised(exc) if first else "not run"],
                              seconds)
                continue
            problems = self._step_problems(mons, k)
            if k == self.steps:
                final = mons[-1].energy
                if self.final_energy is None:
                    self.final_energy = final
                elif final != self.final_energy:
                    problems.append(f"final energy {final!r} differs from the "
                                    f"first unit's {self.final_energy!r}")
            ledger.record(f"step {k}", problems, op_s[k - 1])
        return elapsed

    def final_checks(self, ledger: Ledger) -> None:
        """Untimed: the test_07 trajectory against its golden final energy."""
        _, mons, _, exc = self._trajectory(
            np.random.SeedSequence(GOLDEN["transient.seed"]), False)
        problems = [_raised(exc)] if exc else []
        if not exc:
            _golden(problems, "transient.final_energy", mons[-1].energy)
        ledger.record("golden trajectory", problems)


class SpectralProbes(Workload):
    """Four dense generalized eigenproblems, one op each."""

    name = "spectral_probes"
    fixed_ops = True
    kernel = "lapack"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.eta7 = resolve_model("eta7")
        self.maxwell = resolve_model("maxwell")
        self.inputs = {"korn": "cube(3, 2)", "boundary_korn": "cube(8, 1)",
                       "coercivity": ["eta7/nonmaxwell/64", "maxwell/maxwell/64"]}

    def _korn(self):
        report = korn.korn_constants(
            korn.assemble_cube_forms(korn.build_cube_mesh(3, 2)))
        problems = []
        if report.n_dofs != 1029:
            problems.append(f"n_dofs={report.n_dofs}")
        if report.stf_kernel_dim != 10:
            problems.append(f"stf_kernel_dim={report.stf_kernel_dim}")
        for key in ("lambda_min_classical", "lambda_min_boundary"):
            value = float(getattr(report, key))
            if not value > 0.0:
                problems.append(f"{key}={value!r} not positive")
            _golden(problems, f"korn.{key}", value)
        return problems

    def _boundary_korn(self):
        lam = korn.boundary_korn_eigenvalue(korn.build_cube_mesh(8, 1))
        problems = [] if lam > 0.0 else [f"lambda={lam!r} not positive"]
        _golden(problems, "boundary_korn.lambda", lam)
        return problems

    def _coercivity(self, model, formulation: str):
        report = slab.coercivity_probe(
            slab.SlabAssembly(slab.SlabMesh(64, 2), model, 0.1, formulation))
        problems = []
        if not (report.infsup is not None and report.infsup > 0.0):
            problems.append(f"infsup={report.infsup!r} not positive")
        if formulation == "nonmaxwell":
            if not report.min_eig > 0.0:
                problems.append(f"min_eig={report.min_eig!r} not positive")
        elif report.theta_bubble != 0.0:
            problems.append(f"theta_bubble={report.theta_bubble!r} not 0")
        _golden(problems, f"coercivity.{formulation}.min_eig", report.min_eig)
        _golden(problems, f"coercivity.{formulation}.infsup", report.infsup or 0.0)
        return problems

    def run_unit(self, index: int, ledger: Ledger) -> float:
        probes = (("korn", self._korn),
                  ("boundary_korn", self._boundary_korn),
                  ("coercivity eta7", lambda: self._coercivity(self.eta7, "nonmaxwell")),
                  ("coercivity maxwell", lambda: self._coercivity(self.maxwell, "maxwell")))
        total = 0.0
        for label, probe in probes:
            problems, exc, elapsed = self.clock.measure(probe)
            total += elapsed
            ledger.record(label, [_raised(exc)] if exc else problems, elapsed)
        return total


class SteadyRequests(Workload):
    """A seeded stream of ``r13lab solve-steady`` requests via cli.main.

    Each block of twelve requests holds every (model, problem) pair once,
    with the element counts and Knudsen numbers drawn from fixed balanced
    multisets, so every block costs about the same whatever the seed; the
    seed sets the order, the pairing and the wall data.
    """

    name = "steady_requests"
    min_ops = 48  # four blocks
    kernel = "numpy"
    block = 12
    models = ("eta7", "eta10", "eta-infinity", "maxwell")
    problems = ("couette", "fourier", "equilibrium")
    wall_keys = {"couette": "wall_speed", "fourier": "wall_delta",
                 "equilibrium": "wall_temperature"}
    n_blocks = 24

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        self.requests = []
        for _ in range(self.n_blocks):
            pairs = list(itertools.product(self.models, self.problems))
            order = rng.permutation(len(pairs))
            elements = rng.permutation([16, 32, 64] * 4)
            kns = rng.permutation([0.1, 1.0] * 6)
            for i, j in enumerate(order):
                model, problem = pairs[j]
                self.requests.append({
                    "model": model,
                    "problem": problem,
                    "formulation": "maxwell" if model == "maxwell" else "nonmaxwell",
                    "kn": float(kns[i]),
                    "elements": int(elements[i]),
                    self.wall_keys[problem]: round(float(rng.uniform(0.1, 1.0)), 6),
                })
        blob = json.dumps(self.requests, sort_keys=True).encode()
        self.inputs = {"requests": len(self.requests),
                       "requests_sha256": hashlib.sha256(blob).hexdigest()}
        self.workdir = workdir
        self.first_hashes = None
        self.served = 0

    def _request(self, k: int, ledger: Ledger, expect=None):
        """Serve the k-th request of the stream; returns (elapsed, output
        hashes or None).  With expect, the output hashes must equal it."""
        i = k % len(self.requests)
        req = self.requests[i]
        cfg = self.workdir / f"req-{i:05d}.yaml"
        out = self.workdir / f"out-{k:05d}"
        cfg.write_text("".join(f"{key}: {value!r}\n" for key, value in req.items()
                               if key != "model"))
        argv = ["solve-steady", "--model", req["model"], "--config", str(cfg),
                "--out", str(out), "--seed", "0"]
        sink = io.StringIO()

        def serve():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(argv)

        code, exc, elapsed = self.clock.measure(serve)
        if exc:
            ledger.record(f"request {k}", [_raised(exc)], elapsed)
            return elapsed, None
        problems, hashes = [], None
        if code != 0:
            problems.append(f"exit {code}: {sink.getvalue().strip()[-300:]}")
        else:
            mon = json.loads((out / "monitors.json").read_text())
            if not mon["residual_rel"] <= RESIDUAL_RTOL:
                problems.append(f"residual_rel={mon['residual_rel']!r}")
            gap = abs(mon["b_diag"] - (mon["i_bdry"] - mon["w1"]))
            if not gap <= 1e-8 * (1.0 + mon["energy"]):
                problems.append(f"energy identity gap {gap!r}")
            hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                      for name in ("profile.csv", "monitors.json", "manifest.json")}
            if expect is not None and hashes != expect:
                problems.append("outputs differ from request 0's")
        ledger.record(f"request {k} {req}", problems, elapsed)
        return elapsed, hashes

    def run_unit(self, index: int, ledger: Ledger) -> float:
        total = 0.0
        for _ in range(self.block):
            k = self.served
            elapsed, hashes = self._request(k, ledger)
            total += elapsed
            if k == 0:
                self.first_hashes = hashes
            else:
                shutil.rmtree(self.workdir / f"out-{k:05d}", ignore_errors=True)
            self.served += 1
        return total

    def final_checks(self, ledger: Ledger) -> None:
        """Repeat the first request; its outputs must be byte-identical."""
        self._request(0, ledger, expect=self.first_hashes or {})


WORKLOADS = {cls.name: cls for cls in (Transient, SpectralProbes, SteadyRequests)}
