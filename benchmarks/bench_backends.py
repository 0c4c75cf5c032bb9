"""Per-arm step-time benchmark + conformance gate for the conv arms.

Trains the scaled VGG for a handful of SGD steps once per conv arm (the
arm list is read from ``CONV_ARMS``; each is forced with
``GraphExecutor(kernel_backend=name)``, the one way users have; max-pool
and the codecs run their one body throughout), plus the ``auto`` chooser, and
reports each arm's median forward+backward step time.  The yardstick is
the ``reference`` arm — the original per-call loop conv kernels.  Four
gates ride on top of the timings:

* **speedup** — the best arm must beat the reference loops by
  ``REQUIRED_SPEEDUP`` (1.5x): every arm is single-threaded Python over
  BLAS, so only scheduling and layout wins are available whatever the
  core count.
* **bit-identity** — the ``auto`` arm (what users get by default) and
  every ``exact`` arm must reproduce the reference loops' losses and
  every parameter gradient bit-for-bit.  Tolerance arms are timed and
  recorded but never gated on exactness.
* **chooser pick** — ``auto`` runs the whole-batch arm on every
  signature its record says was proven identical (static GEMM guard and
  live-data probe, ``exact["blas-fat"]``) and ``reference`` on every
  other: a regressed chooser fails by pick, not by a timing nobody gates.
* **golden digests** — the default dispatch path must still reproduce
  the checked-in scaled VGG golden traces
  (``tests/diagnostics/goldens/``), pinning the end-to-end bits, not
  just one batch stream.

Writes machine-readable results to ``BENCH_backends.json`` at the repo
root (or the path given as argv[1]) and prints a human-readable table.

Run directly::

    PYTHONPATH=src python benchmarks/bench_backends.py
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.diagnostics import GOLDEN_POLICIES, golden_filename, run_traced
from repro.kernels import (
    CONV_ARMS,
    autotune_report,
    clear_plan_cache,
    clear_selection_cache,
)
from repro.models import scaled_vgg
from repro.orchestrate import usable_cores
from repro.train import BaselinePolicy, GraphExecutor, SGD

BATCH = 32
WARMUP_STEPS = 2
TIMED_STEPS = 10

#: Gate on the best arm vs the reference loops.
REQUIRED_SPEEDUP = 1.5

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / \
    "diagnostics" / "goldens"

def _layer_arms() -> list:
    """Conv arm names, ground truth first."""
    return sorted(CONV_ARMS, key=lambda name: (name != "reference", name))


def _timed_steps(images, labels, kernel_backend=None):
    """Train scaled VGG; return (per-step seconds, (loss, grads) trace)."""
    graph = scaled_vgg(batch_size=BATCH)
    ex = GraphExecutor(graph, policy=BaselinePolicy(), seed=0,
                       kernel_backend=kernel_backend)
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


def _pick_follows_proof(rows: list) -> bool:
    """Deterministic: the pick is a function of the proof alone —
    ``blas-fat`` where it was proven, ``reference`` everywhere else."""
    return bool(rows) and all(
        row["backend"] == ("blas-fat" if row["exact"]["blas-fat"]
                           else "reference")
        for row in rows)


def _check_goldens() -> dict:
    """Default-dispatch runs must still match the checked-in goldens."""
    out = {}
    for policy in GOLDEN_POLICIES:
        path = GOLDEN_DIR / golden_filename("scaled_vgg", policy)
        if not path.exists():
            out[policy] = {"ok": False, "detail": f"missing golden {path}"}
            continue
        comparison = run_traced("scaled_vgg", policy, steps=3) \
            .compare_golden(path)
        out[policy] = {
            "ok": bool(comparison),
            "detail": "; ".join(comparison.mismatches) or "match",
        }
    return out


def main(out_path: str = "BENCH_backends.json") -> dict:
    rng = np.random.default_rng(0)
    images = rng.normal(0, 1, (BATCH, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 10, BATCH)

    cores = usable_cores()

    clear_plan_cache()
    clear_selection_cache()

    # The yardstick every arm is measured against is the first one: the
    # ground-truth ``reference`` arm (the per-call loops).
    arms = {}
    for name in _layer_arms():
        times, trace = _timed_steps(images, labels, kernel_backend=name)
        if not arms:
            median_ref, ref_trace = statistics.median(times), trace
        arms[name] = {
            "step_ms": [t * 1000 for t in times],
            "median_ms": statistics.median(times) * 1000,
            "speedup": median_ref / statistics.median(times),
            "bit_identical": _bit_identical(ref_trace, trace),
            "exact_contract": CONV_ARMS[name].exact,
        }

    auto_times, auto_trace = _timed_steps(images, labels)
    arms["auto"] = {
        "step_ms": [t * 1000 for t in auto_times],
        "median_ms": statistics.median(auto_times) * 1000,
        "speedup": median_ref / statistics.median(auto_times),
        "bit_identical": _bit_identical(ref_trace, auto_trace),
        "exact_contract": True,
    }

    best_name = min(arms, key=lambda n: arms[n]["median_ms"])
    best_speedup = arms[best_name]["speedup"]
    goldens = _check_goldens()

    exact_ok = all(r["bit_identical"] for r in arms.values()
                   if r["exact_contract"])
    golden_ok = all(g["ok"] for g in goldens.values())
    speedup_ok = best_speedup >= REQUIRED_SPEEDUP
    picks = autotune_report()
    pick_ok = _pick_follows_proof(picks)

    report = {
        "benchmark": "backends",
        "network": "scaled_vgg",
        "batch_size": BATCH,
        "warmup_steps": WARMUP_STEPS,
        "timed_steps": TIMED_STEPS,
        "usable_cores": cores,
        "required_speedup": REQUIRED_SPEEDUP,
        "reference_loops_median_ms": median_ref * 1000,
        "arms": arms,
        "best_arm": best_name,
        "best_speedup": best_speedup,
        "autotune_report": picks,
        "golden_digests": goldens,
        "gates": {
            "speedup": speedup_ok,
            "default_bit_identical": exact_ok,
            "chooser_pick": pick_ok,
            "golden_digests": golden_ok,
        },
        "gates_passed": speedup_ok and exact_ok and pick_ok and golden_ok,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")

    print(f"reference loops: {median_ref * 1000:8.1f} ms/step"
          f"  [{cores} usable core(s), gate >= {REQUIRED_SPEEDUP}x]")
    print(f"{'arm':<12} {'median':>10} {'speedup':>8} "
          f"{'bit-identical':>14} {'contract':>10}")
    for name, r in arms.items():
        contract = "exact" if r["exact_contract"] else "tolerance"
        print(f"{name:<12} {r['median_ms']:>8.1f}ms {r['speedup']:>7.2f}x "
              f"{str(r['bit_identical']):>14} {contract:>10}")
    print(f"best arm: {best_name} ({best_speedup:.2f}x); "
          f"picks: {[row['backend'] for row in picks]}; "
          f"goldens: {golden_ok}; gates passed: {report['gates_passed']}")
    print(f"wrote {out_path}")
    return report


if __name__ == "__main__":
    result = main(sys.argv[1] if len(sys.argv) > 1
                  else "BENCH_backends.json")
    sys.exit(0 if result["gates_passed"] else 1)
