"""Tests of the benchmark itself: span arithmetic, the correctness gate,
and every workload's metrics on a minimal configuration.

    python3 -m pytest perfbench
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, span_table, uncovered_seconds  # noqa: E402

from etfforge import certify as nk  # noqa: E402
from etfforge.solver import D4Record, D4Report, solve  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def test_self_time_on_a_nested_span_tree():
    spans = [
        ["a", 0.0, 10.0, None, "x"],
        ["b", 1.0, 4.0, 0, "x"],
        ["c", 5.0, 9.0, 0, "x"],
        ["d", 6.0, 8.0, 2, "x"],
        ["b", 11.0, 12.0, None, "y"],
    ]
    table = span_table(spans)
    assert table["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert table["b"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert table["c"] == {"calls": 1, "s": 4.0, "self_s": 2.0}
    assert table["d"] == {"calls": 1, "s": 2.0, "self_s": 2.0}
    assert uncovered_seconds(spans, 13.0) == 2.0


def test_tracer_nests_spans_and_restores_the_namespace():
    pair = solve(3, seed=0).pair
    original = nk.f_eval_interval
    tracer = Tracer()
    with tracer.installed():
        assert nk.f_eval_interval is not original
        nk.certify(pair)
    assert nk.f_eval_interval is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "certify.certify"
    assert names.count("certify.f_eval_interval") == (4 * 3 + 1) + 2
    by_name = {s[0]: i for i, s in enumerate(tracer.spans)}
    assert tracer.spans[by_name["certify.secant_jacobian"]][3] == 0
    assert all(row["self_s"] >= 0.0 for row in span_table(tracer.spans).values())
    assert tracer.values["rigor.scalar_ops"] > 0


def test_speed_probe_ticks_during_a_pass_and_leaves_its_ticks_out():
    probe = run.SpeedProbe()
    previous = signal.getsignal(signal.SIGALRM)
    with probe.ticking():
        start = time.perf_counter()
        while time.perf_counter() - start < 1.5 * run.TICK_INTERVAL_S:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.samples()) >= 2  # one on entry, one or more inside the loop
    inside = probe.within(start, end)
    assert inside and sum(t1 - t0 for t0, t1, _ in inside) < end - start
    probe.ticks = [(0.0, 1.0, 0.9), (2.0, 3.0, 0.8), (5.0, 6.0, 0.7)]
    assert probe.within(1.5, 5.5) == [(2.0, 3.0, 0.8)]


def test_gate_rejects_a_certificate_that_does_not_hold():
    cert = nk.certify(solve(5, seed=0).pair).to_obj()
    assert workloads.certificate_problem(cert, 5) is None
    assert workloads.certificate_problem(dict(cert, lhs_upper=cert["rhs_lower"]), 5)
    assert workloads.certificate_problem(dict(cert, kernel_dim=cert["kernel_dim"] + 1), 5)
    bent = list(cert["x0"])
    bent[0] += 1e-6
    assert "check_etf" in workloads.certificate_problem(dict(cert, x0=bent), 5)


def test_gate_fails_a_d4_trial_that_did_not_round():
    records = (D4Record(0, 0.01, True), D4Record(1, 0.5, False))
    report = D4Report(trials=2, worst_re=0.5, all_rounded=False, records=records)
    outcomes, _ = workloads.D4Projections(trials=2).check(0, report)
    assert [o.status for o in outcomes] == ["ok", "wrong"]


MINIMAL = {
    "sweep_2_30": (lambda tmp: workloads.Sweep(d_lo=2, d_hi=5, out_dir=str(tmp / "sweep")), (3, 4)),
    "certify_large": (lambda tmp: workloads.CertifyLarge(dims=(5, 7)), (2, 2)),
    "d4_projections": (lambda tmp: workloads.D4Projections(trials=2, iterations=3000), None),
    "construct_detect": (lambda tmp: workloads.ConstructDetect(qs=(5, 7)), (4, 4)),
}


def _expected(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("name", sorted(MINIMAL))
@pytest.mark.parametrize("trace", [False, True])
def test_minimal_workload_emits_every_metric_and_passes_its_gate(name, trace, tmp_path):
    make, base = MINIMAL[name]
    report = run.measure(make(tmp_path), seed=1, seconds=0.0, trace=trace)
    assert report["correct"], report["wrong"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    assert report["units"] == _expected("per_layer" if trace else "end_to_end")
    assert set(report["metrics"]) == set(report["units"])
    if base is not None:
        per = report["per_pass"]
        assert (per["ok"], per["attempted"]) == base
    if trace:
        assert report["passes"] == 3
        assert report["spans"], "a traced run keeps its spans"
    else:
        assert all(report["metrics"][m] > 0 for m in report["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_2_30", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_all_keeps_the_result_of_a_workload_that_failed(monkeypatch, capsys):
    line = {"correct": False, "attempted": 3, "failed": 1,
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, stdout="human lines\n%s\n" % json.dumps(line), stderr="")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.run_all(argparse.Namespace(seed=0, seconds=1.0, trace=0)) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 12, 4)
    assert last["metrics"]["d4_projections.wall_s"] == {"value": 1.5, "unit": "s"}
