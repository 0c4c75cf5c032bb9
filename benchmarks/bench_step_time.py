"""Step-time A/B benchmark for the shape-static kernel plan layer.

Trains the scaled VGG for a handful of SGD steps twice per stash policy —
once on the plan-cache arms (``kernel_backend="numpy-plan"``, workspace
arena on), once on the original per-call loop kernels
(``kernel_backend="reference"``) — and reports the median
forward+backward step time of each mode.  Before timing is trusted, the
two modes are checked for *bit-identical* training: every step's loss
and every parameter gradient must match exactly, so the speedup is a
pure scheduling win with zero numerical drift.

Writes machine-readable results to ``BENCH_step_time.json`` at the repo
root (or the path given as argv[1]) and prints a human-readable table.

Run directly::

    PYTHONPATH=src python benchmarks/bench_step_time.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.kernels.plan import clear_plan_cache, plan_cache_stats
from repro.models import scaled_vgg
from repro.train import BaselinePolicy, GistPolicy, GraphExecutor, SGD

BATCH = 32
WARMUP_STEPS = 2
TIMED_STEPS = 10
REQUIRED_SPEEDUP = 1.5


def _run_mode(policy_name: str, use_plans: bool, images, labels):
    """Train for WARMUP + TIMED steps; return (step times, per-step trace)."""
    graph = scaled_vgg(batch_size=BATCH)
    policy = (GistPolicy(graph) if policy_name == "gist"
              else BaselinePolicy())
    # Pin both sides by arm name: this benchmark isolates the plan
    # layer, so the measured-autotuner dispatch (whose arms are timed
    # per-arm by bench_backends.py) must not float either of them.
    ex = GraphExecutor(graph, policy=policy, seed=0,
                       kernel_backend="numpy-plan" if use_plans
                       else "reference")
    opt = SGD(lr=0.01, momentum=0.9)
    times, trace = [], []
    for step in range(WARMUP_STEPS + TIMED_STEPS):
        t0 = time.perf_counter()
        loss = ex.forward(images, labels)
        grads = ex.backward()
        elapsed = time.perf_counter() - t0
        opt.step(ex.parameters(), grads)
        if step >= WARMUP_STEPS:
            times.append(elapsed)
        trace.append((loss, {k: v.copy() for k, v in grads.items()}))
    return times, trace


def _bit_identical(trace_a, trace_b) -> bool:
    for (loss_a, grads_a), (loss_b, grads_b) in zip(trace_a, trace_b):
        if loss_a != loss_b or grads_a.keys() != grads_b.keys():
            return False
        if any(not np.array_equal(grads_a[k], grads_b[k]) for k in grads_a):
            return False
    return True


def main(out_path: str = "BENCH_step_time.json") -> dict:
    rng = np.random.default_rng(0)
    images = rng.normal(0, 1, (BATCH, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 10, BATCH)

    clear_plan_cache()
    results = {}
    for policy_name in ("baseline", "gist"):
        on_times, on_trace = _run_mode(policy_name, True, images, labels)
        off_times, off_trace = _run_mode(policy_name, False, images, labels)
        median_on = statistics.median(on_times)
        median_off = statistics.median(off_times)
        results[policy_name] = {
            "cache_on_step_ms": [t * 1000 for t in on_times],
            "cache_off_step_ms": [t * 1000 for t in off_times],
            "median_on_ms": median_on * 1000,
            "median_off_ms": median_off * 1000,
            "speedup": median_off / median_on,
            "bit_identical": _bit_identical(on_trace, off_trace),
        }

    report = {
        "benchmark": "step_time",
        "network": "scaled_vgg",
        "batch_size": BATCH,
        "warmup_steps": WARMUP_STEPS,
        "timed_steps": TIMED_STEPS,
        "required_speedup": REQUIRED_SPEEDUP,
        "results": results,
        "plan_cache": plan_cache_stats(),
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'policy':<10} {'cache on':>10} {'cache off':>10} "
          f"{'speedup':>8} {'bit-identical':>14}")
    for name, r in results.items():
        print(f"{name:<10} {r['median_on_ms']:>8.1f}ms "
              f"{r['median_off_ms']:>8.1f}ms {r['speedup']:>7.2f}x "
              f"{str(r['bit_identical']):>14}")
    print(f"wrote {out_path}")
    return report


if __name__ == "__main__":
    report = main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_step_time.json")
    ok = all(
        r["bit_identical"] and r["speedup"] >= REQUIRED_SPEEDUP
        for r in report["results"].values()
    )
    sys.exit(0 if ok else 1)
