"""Tests of the benchmark's own arithmetic and bookkeeping.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# -- tail percentile --------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (40, 75.0),
                                    (48, 75.0), (100, 90.0), (200, 95.0),
                                    (999, 95.0), (1000, 99.0)])
def test_tail_percentile_choice(n, pct):
    assert stats.tail_percentile(n) == pct


def test_chosen_tail_is_the_highest_with_ten_beyond():
    for n in range(1, 3000):
        pct = stats.tail_percentile(n)
        higher = [p for p in stats.TAIL_CANDIDATES if pct is None or p > pct]
        assert all(stats.beyond(n, p) < 10 for p in higher), n
        if pct is not None:
            values = list(range(n))
            cut = stats.tail(values, pct)
            assert sum(v > cut for v in values) >= 10, n


def test_nearest_rank_and_tail():
    values = [float(v) for v in range(1, 201)]  # 1..200, shuffled order irrelevant
    assert stats.nearest_rank(values[::-1], 95.0) == 190.0
    assert stats.tail(values, 95.0) == 190.0
    assert stats.tail(values, 100.0) == 200.0
    with pytest.raises(ValueError):
        stats.tail(values[:100], 95.0)  # 5 beyond, fewer than 10
    assert stats.median([3.0, 1.0, 2.0, 10.0]) == 2.5


# -- fail_frac and golden comparison ----------------------------------------

def test_fail_frac_counts_failed_operations_once():
    import workloads

    ledger = workloads.Ledger()
    ledger.record("a", [], 0.1)
    ledger.record("b", ["residual too large", "energy rose"], 0.2)
    ledger.record("c", ["raised RuntimeError"])  # an untimed check
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.op_s == [0.1, 0.2]
    assert stats.fail_frac(ledger.failed, ledger.attempted) == pytest.approx(2 / 3)
    assert stats.fail_frac(0, 5) == 0.0
    with pytest.raises(ValueError):
        stats.fail_frac(0, 0)
    with pytest.raises(ValueError):
        stats.fail_frac(4, 3)


def test_a_raising_step_fails_it_and_every_later_step(tmp_path, monkeypatch):
    import workloads

    wl = workloads.Transient(1, tmp_path)
    wl.n_elements, wl.steps = 4, 5
    real = workloads.slab.step_transient
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("factor is exactly singular")
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads.slab, "step_transient", flaky)
    ledger = workloads.Ledger()
    wl.run_unit(0, ledger)
    assert (ledger.attempted, ledger.failed) == (5, 3)
    assert len(ledger.op_s) == 3  # the raising step is timed, later ones not
    assert "singular" in ledger.notes[0] and ledger.notes[1:] == [
        "step 4: not run", "step 5: not run"]


def test_golden_comparison():
    assert stats.matches_golden(1.0 + 1e-9, 1.0, rtol=1e-8)
    assert not stats.matches_golden(1.0 + 1e-7, 1.0, rtol=1e-8)
    assert stats.matches_golden(-2.0, -2.0 * (1 + 5e-9), rtol=1e-8)
    assert stats.matches_golden(1e-12, 0.0, rtol=0.0, atol=1e-10)
    assert not stats.matches_golden(1e-9, 0.0, rtol=0.0, atol=1e-10)
    assert not stats.matches_golden(math.nan, 1.0, rtol=1.0)


def test_golden_failure_is_reported():
    import workloads

    problems = []
    key = "korn.lambda_min_classical"
    ref = workloads.GOLDEN[key]["value"]
    workloads._golden(problems, key, ref * (1 + 1e-12))
    assert problems == []
    workloads._golden(problems, key, ref * 1.01)
    assert len(problems) == 1 and key in problems[0]


# -- spans ------------------------------------------------------------------

@pytest.fixture
def clock(monkeypatch):
    ticks = []
    monkeypatch.setattr(spans, "_now", lambda: ticks.pop(0))
    return ticks


def test_self_time_subtracts_direct_children(clock):
    rec = spans.Recorder()
    # outer [0, 10] holds a [1, 3] and b [4, 5]; b holds c [4.2, 4.8].
    clock.extend([0.0, 1.0, 3.0, 4.0, 4.2, 4.8, 5.0, 10.0])
    rec.open("outer")
    rec.open("a")
    rec.close()
    rec.open("b")
    rec.open("c")
    rec.close()
    rec.close()
    rec.close()
    summary = rec.summary()
    assert summary["outer"]["self_s"] == pytest.approx(7.0)
    assert summary["outer"]["total_s"] == pytest.approx(10.0)
    assert summary["b"]["self_s"] == pytest.approx(0.4)
    assert summary["c"]["self_s"] == pytest.approx(0.6)
    assert summary["a"]["self_s"] == pytest.approx(2.0)
    assert [s[3] for s in rec.spans] == [-1, 0, 0, 2]


def test_same_named_nested_spans_each_count(clock):
    rec = spans.Recorder()
    clock.extend([0.0, 1.0, 2.0, 3.0])
    inner = rec.wrap("slab.sample", lambda: None)
    outer = rec.wrap("slab.sample", inner)
    outer()
    row = rec.summary()["slab.sample"]
    assert row["calls"] == 2
    assert row["self_s"] == pytest.approx(3.0)  # 2 outer + 1 inner


def test_errors_are_counted_and_reraised():
    rec = spans.Recorder()

    def boom():
        raise RuntimeError("singular")

    wrapped = rec.wrap("slab.factorize", boom)
    with pytest.raises(RuntimeError):
        rec.wrap("slab.solve", wrapped)()
    summary = rec.summary()
    assert summary["slab.factorize"]["errors"] == 1
    assert summary["slab.solve"]["errors"] == 1
    assert rec._stack == []


def test_counter_failure_is_reported_missing():
    rec = spans.Recorder()
    rec.wrap("korn.mesh", lambda: object(), spans._count_mesh)()
    assert rec.summary()["korn.mesh"]["calls"] == 1
    assert rec.missing == ["korn.mesh counts (_count_mesh)"]


def test_per_layer_ratios_and_per_unit_counts():
    rec = spans.Recorder()
    for _ in range(2):
        rec.wrap("slab.assembly", lambda: None)()
    for _ in range(6):
        rec.wrap("slab.operator", lambda: None)()
    rec.counts["slab.tabulate.points"] = 30
    for _ in range(10):
        rec.wrap("slab.tabulate", lambda: None)()
    m = rec.per_layer_metrics(n_units=2, overhead_frac=0.05)
    assert m["slab.operator.per_assembly"]["value"] == 3.0
    assert m["slab.operator.calls"]["value"] == 3.0
    assert m["slab.tabulate.points"]["value"] == 15.0
    assert m["slab.tabulate.points_per_call"]["value"] == 3.0
    assert m["slab.lu_solve.per_factorize"]["value"] == 0.0
    assert m["trace.overhead_frac"] == {"value": 0.05, "unit": "ratio"}
    assert list(m) == list(spans.per_layer_units())


def test_tracer_wraps_and_restores_entry_points():
    from r13lab import models, slab

    originals = (models.resolve_model, slab.boundary_coefficients,
                 slab.ScalarSpace.tabulate, slab.spla, slab.scipy)
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        model = models.resolve_model("eta7")
        mesh = slab.SlabMesh(4, 2)
        asm = slab.SlabAssembly(mesh, model, 0.1, "nonmaxwell")
        slab.solve_steady(asm, slab.WallData.couette())
    finally:
        tracer.uninstall()
    assert (models.resolve_model, slab.boundary_coefficients,
            slab.ScalarSpace.tabulate, slab.spla, slab.scipy) == originals
    summary = rec.summary()
    for span in ("models.load", "onsager.derive", "slab.assembly",
                 "slab.tabulate", "slab.solve", "slab.factorize",
                 "slab.lu_solve", "slab.monitors", "slab.operator"):
        assert summary[span]["calls"] >= 1, span
    assert rec.counts["slab.assembly.dofs"] == asm.ndof
    assert rec.counts["slab.factorize.lu_fill"] > rec.counts["slab.factorize.nnz"] > 0
    assert rec.missing == []


def test_missing_entry_point_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(spans, "ENTRY_POINTS", spans.ENTRY_POINTS + (
        ("slab.solve", "r13lab.slab", "solve_steady_removed", None),
        ("slab.sample", "r13lab.slab", "DiscreteState.gone", None)))
    monkeypatch.setattr(spans, "NATIVE_CALLS", spans.NATIVE_CALLS + (
        ("slab.eigh", "r13lab.slab", "scipy.linalg.no_such_solver", None),))
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    tracer.uninstall()
    assert rec.missing == ["r13lab.slab.solve_steady_removed",
                           "r13lab.slab.DiscreteState.gone",
                           "r13lab.slab.scipy.linalg.no_such_solver"]
    assert rec.per_layer_metrics(1, 0.0)["slab.solve.calls"]["value"] == 0.0


# -- reference clock and run summary ----------------------------------------

class _Kernel:
    """A calibration kernel whose repetitions advance a fake clock."""

    def __init__(self, ticks, rep_s):
        self.ticks, self.rep_s = ticks, rep_s

    def __call__(self):
        self.ticks[0] += self.rep_s


def _fake_clock(monkeypatch, rep_s):
    ticks = [0.0]
    monkeypatch.setattr(refclock, "_now", lambda: ticks[0])
    monkeypatch.setitem(refclock.KERNELS, "python", lambda: _Kernel(ticks, rep_s))
    monkeypatch.setitem(refclock.REF_REP_S, "python", 1.0)
    return ticks, refclock.RefClock("python", frac=0.1, min_s=2.0, window_s=0.5)


def test_reference_time_scales_raw_time_by_kernel_speed(monkeypatch):
    ticks, clock = _fake_clock(monkeypatch, rep_s=2.0)  # half the reference speed

    def op(seconds):
        ticks[0] += seconds
        return "done"

    assert clock.measure(op, 10.0) == ("done", None, pytest.approx(5.0))
    clock._run.rep_s = 4.0  # slower still: the after-block is reused as before
    assert clock.measure(op, 12.0)[2] == pytest.approx(12.0 * 2 / (2.0 + 4.0))
    assert clock.raw_total == 22.0 and clock.speed == pytest.approx(9.0 / 22.0)
    ticks[0] += 1.0  # more than window_s later: a fresh before-block
    assert clock.measure(op, 8.0)[2] == pytest.approx(2.0)


def test_reference_time_averages_the_blocks_in_the_window(monkeypatch):
    ticks, clock = _fake_clock(monkeypatch, rep_s=2.0)
    clock.window_s = 10.0

    def op():
        ticks[0] += 1.0

    assert clock.measure(op)[2] == pytest.approx(0.5)  # blocks [0, 2], [3, 5]
    clock._run.rep_s = 4.0
    # blocks [0, 2], [3, 5] and [6, 10]: 8 s over 3 repetitions
    assert clock.measure(op)[2] == pytest.approx(3.0 / 8.0)
    ticks[0] += 11.0  # the earlier blocks leave the window
    assert clock.measure(op)[2] == pytest.approx(0.25)


def test_reference_clock_returns_and_times_an_exception(monkeypatch):
    ticks, clock = _fake_clock(monkeypatch, rep_s=1.0)

    def boom():
        ticks[0] += 3.0
        raise RuntimeError("singular")

    result, exc, seconds = clock.measure(boom)
    assert result is None and isinstance(exc, RuntimeError)
    assert seconds == pytest.approx(3.0)


def test_run_reports_medians_and_position_median_tail(tmp_path):
    import worker
    import workloads

    class Clock:
        raw_total, speed = 0.0, 1.0

    class Fake(workloads.Workload):
        min_ops = 4
        fixed_ops = True  # two positions: too few for a tail percentile

        def __init__(self):
            self.clock, self.inputs = Clock(), {}

        def run_unit(self, index, ledger):
            for seconds in (1.0, 3.0):
                ledger.record("op", [], seconds + index)
            self.clock.raw_total += 10.0
            return 4.0 + 2.0 * index

    res = worker._run(workloads, Fake(), 0.0, False)
    assert (res["units"], res["attempted"], res["failed"]) == (2, 4, 0)
    assert res["tail_pct"] is None
    assert res["wall_s"] == 5.0 and res["wall_raw_s"] == 10.0
    assert res["op_p50_ms"] == 2500.0
    assert res["op_tail_ms"] == 3500.0  # the slower position's median of 3 and 4


# -- inputs and the definition file -----------------------------------------

def test_request_stream_is_seeded_and_balanced(tmp_path):
    import workloads

    a = workloads.SteadyRequests(7, tmp_path)
    b = workloads.SteadyRequests(7, tmp_path)
    c = workloads.SteadyRequests(8, tmp_path)
    assert a.requests == b.requests and a.inputs == b.inputs
    assert a.inputs["requests_sha256"] != c.inputs["requests_sha256"]
    block = a.requests[:12]
    assert sorted((r["model"], r["problem"]) for r in block) == sorted(
        (m, p) for m in a.models for p in a.problems)
    assert sorted(r["elements"] for r in block) == sorted([16, 32, 64] * 4)
    assert all((r["formulation"] == "maxwell") == (r["model"] == "maxwell")
               for r in a.requests)


def test_benchmark_json_matches_the_code():
    import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_units()
    positions = {"transient": workloads.Transient.steps, "spectral_probes": 4}
    tails = {name: stats.tail_percentile(positions.get(name, wl.min_ops))
             for name, wl in workloads.WORKLOADS.items()}
    assert tails == {"transient": 95.0, "spectral_probes": None,
                     "steady_requests": 75.0}
    assert {n for n, wl in workloads.WORKLOADS.items() if wl.fixed_ops} == set(positions)
    suffix = {"transient": "p95 of step medians over units",
              "spectral_probes": "slowest probe's median over units",
              "steady_requests": "p75"}
    for w in spec["workloads"]:
        assert w["why"].endswith("op_tail_ms = " + suffix[w["name"]])

