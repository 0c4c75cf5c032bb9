"""End to end: ``run.py --smoke`` emits every declared metric for all five
workloads, untraced and traced, and refuses what the contract says it must.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import metrics

LEDGER = Path(__file__).resolve().parents[1]
REPO = LEDGER.parents[1]
RUN = [sys.executable, str(LEDGER / "run.py")]


def _clean_env():
    env = dict(os.environ)
    for name in ("REPRO_KERNEL_PLANS", "REPRO_KERNEL_BACKEND",
                 "REPRO_KERNEL_AUTOTUNE_CACHE"):
        env.pop(name, None)
    return env


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    t0 = time.perf_counter()
    proc = subprocess.run(RUN + ["--smoke", "--out", str(out)],
                          env=_clean_env(), capture_output=True, text=True,
                          timeout=600)
    print(f"smoke suite took {time.perf_counter() - t0:.1f} s")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


def test_every_declared_metric_is_emitted(smoke_report):
    report, _ = smoke_report
    declared = {0: {m.name: m.unit for m in metrics.END_TO_END},
                1: {m.name: m.unit for m in metrics.PER_LAYER}}
    seen = set()
    for run in report["runs"]:
        result = run["result"]
        assert run["exit"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared[run["trace"]]
        assert all(isinstance(m["value"], float)
                   for m in result["metrics"].values())
        if run["trace"] == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        seen.add((run["workload"], run["trace"]))
    assert seen == {(w.name, t) for w in metrics.WORKLOADS for t in (0, 1)}


def test_layers_show_up_where_designed(smoke_report):
    report, _ = smoke_report
    traced = {run["workload"]: run["result"]["metrics"]
              for run in report["runs"] if run["trace"] == 1}

    def value(workload, name):
        return traced[workload][name]["value"]

    assert value("vgg_gist", "encodings.ssdc.encode_ms") > 0
    assert value("vgg_gist", "encodings.ssdc.input_sparsity") > 0
    assert value("vgg_baseline", "encodings.ssdc.encode_ms") == 0
    assert value("densenet_hybrid", "memory.recompute.replay_ms") > 0
    assert value("densenet_hybrid", "memory.shared_concat.slice_ms") > 0
    assert value("vgg_gist", "memory.recompute.replay_ms") == 0
    assert value("plan_suite", "memory.hybrid.build_ms") > 0
    assert value("plan_suite", "layers.conv.forward_ms") == 0
    assert value("verify_fuzz", "verify.graph_ms") > 0
    assert value("verify_fuzz", "verify.violations") == 0
    for w in metrics.TRAIN_WORKLOADS:
        assert abs(value(w, "train.residual_pct")) <= 5.0
    assert "separation" in report and "derived" in report


def test_host_stamp_and_trace_files(smoke_report):
    report, _ = smoke_report
    host = report["host"]
    assert {"git_sha", "python", "numpy", "blas", "cpu", "usable_cores",
            "thread_env", "seed", "scale_factor"} <= set(host)
    for w in metrics.WORKLOADS:
        trace = json.loads(
            (LEDGER / "results" / f"trace-{w.name}.json").read_text())
        assert trace["workload"] == w.name and trace["host"]["numpy"]
        span = trace["spans"][0]
        assert set(span) == {"name", "start_s", "end_s", "parent", "op",
                             "tag"}


def test_refuses_kernel_env_overrides():
    env = dict(_clean_env(), REPRO_KERNEL_BACKEND="reference")
    proc = subprocess.run(RUN + ["--workload", "plan_suite", "--smoke"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "REPRO_KERNEL_BACKEND" in proc.stderr and not proc.stdout


def test_fails_without_the_program_under_test(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("results", "__pycache__",
                                                  ".pytest_cache"))
    env = _clean_env()
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "vgg_gist", "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
