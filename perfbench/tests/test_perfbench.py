"""Tests of the benchmark itself: percentile and self-time arithmetic, the
tracer's wrapping, the digest gate, and a tiny-size smoke run of every
workload through the command line."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Span, Tracer, root_seconds, self_times, totals_by_name  # noqa: E402


def test_tail_percentile_keeps_ten_samples_above():
    pct, value, above = run.tail_percentile(range(1, 101))
    assert (pct, value, above) == (90.0, 90, 10)
    for n in range(11, 200):
        pct, value, above = run.tail_percentile(list(range(n, 0, -1)))
        assert above == 10 and value == n - 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_with_too_few_samples_falls_back_to_the_smallest():
    assert run.tail_percentile([5.0, 3.0, 4.0]) == (100.0 / 3, 3.0, 2)
    assert run.tail_percentile([7.0] * 11) == (100.0 / 11, 7.0, 10)


def _span(i, start, end, parent=None, name="x"):
    return Span(i, name, start, end, parent, 0)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(self_times(spans).values()) == root_seconds(spans) == 10.0


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 5.0, parent=0),
        _span(2, 3.0, 7.0, parent=0),
        _span(3, 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_totals_aggregate_by_name():
    spans = [
        Span(0, "a", 0.0, 4.0, None, 0, {"n": 2}),
        Span(1, "b", 1.0, 2.0, 0, 0, {}),
        Span(2, "a", 5.0, 6.0, None, 1, {"n": 3}),
    ]
    totals = totals_by_name(spans)
    assert totals["a"].calls == 2
    assert totals["a"].self_s == pytest.approx(4.0)
    assert totals["a"].total_s == pytest.approx(5.0)
    assert totals["a"].counts == {"n": 5}


def test_tracer_wraps_every_binding_and_restores():
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def inner(x):
        return x + 1

    def outer(x):
        return lib.inner(x) * 2

    lib.inner, lib.outer = inner, outer
    user.inner = inner  # a second binding, as after "from lib import inner"
    tracer = Tracer()
    tracer.install([lib, user], [(lib, "inner", "lib.inner", None), (lib, "outer", "lib.outer",
                                 lambda args, kwargs, result: {"out": result})])
    assert user.inner is not inner and lib.inner is not inner
    assert lib.outer(1) == 4 and not tracer.spans  # unarmed: no spans
    tracer.armed, tracer.instance = True, 7
    assert lib.outer(1) == 4 and user.inner(1) == 2
    by_name = {s.name: s for s in tracer.spans if s.parent is None}
    child = next(s for s in tracer.spans if s.parent is not None)
    assert child.name == "lib.inner" and child.parent == by_name["lib.outer"].id
    assert by_name["lib.outer"].counts == {"out": 4} and child.instance == 7
    tracer.restore()
    assert lib.inner is inner and lib.outer is outer and user.inner is inner


def test_benchmark_json_lists_the_metrics_run_py_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in run.PER_LAYER.items()
    ]
    predicted = json.loads((BENCH / "predictions.json").read_text())
    assert sorted(p["metric"] for p in predicted["layer_metrics"]) == sorted(run.PER_LAYER)
    assert sorted(predicted["workloads"]) == sorted(w["name"] for w in bench["workloads"])


def test_digest_mismatch_is_rejected(tmp_path):
    import workloads

    cfg = workloads.CONFIGS["lift-sweep"]["smoke"]
    recorded = workloads.load_digests()["lift-sweep"]["smoke"]
    tampered = {key: dict(value, kr_quad="0" * 64) for key, value in recorded.items()}
    sweep = workloads.LiftSweepWorkload(cfg, 3, tmp_path, tampered)
    sweep.setup()
    outcome = sweep.run(0, workloads.Stopwatch())
    assert outcome.failed is None
    assert any("kr_quad output" in problem for problem in outcome.rejected)
    honest = workloads.LiftSweepWorkload(cfg, 3, tmp_path, recorded)
    honest.setup()
    assert honest.run(0, workloads.Stopwatch()).rejected == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_unexpected_exception_is_a_rejection_not_a_failure(tmp_path, monkeypatch):
    import workloads

    def broken(*args, **kwargs):
        raise ValueError("broken lift")

    monkeypatch.setattr(workloads.constructions, "kr_quad_lift", broken)
    cfg = workloads.CONFIGS["lift-sweep"]["smoke"]
    sweep = workloads.LiftSweepWorkload(cfg, 3, tmp_path, workloads.load_digests()["lift-sweep"]["smoke"])
    sweep.setup()
    outcome = sweep.run(0, workloads.Stopwatch())
    assert outcome.failed is None
    assert outcome.rejected == ["unexpected ValueError: broken lift"]
