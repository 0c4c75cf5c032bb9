"""Measured, cached backend chooser for the kernel registry.

This extends the plan layer's original GEMM-formulation probe (see
``repro.kernels.plan._gemm_fast``) from "matmul vs einsum" to "which
registered backend runs this signature fastest".  The first time a
``(op, shapes, dtype)`` signature is dispatched, every candidate arm —
all but the ``reference`` ground truth, which is the oracle and never a
candidate — runs the op forward *and* backward on the live data a few
times; the fastest arm that is **bit-identical to the incumbent
default** — the bytes of every output and the memory layout of every
tensor that escapes to the graph — wins and is cached for the rest of
the process.

Bit-identity (not closeness) is the eligibility bar on purpose: the
default selection must keep every training golden, so an arm whose BLAS
reduction order differs on some signature silently stays off there and
wins where it provably matches.  Arms that only meet their registered
``tolerance`` are never auto-selected; they are reachable via
``REPRO_KERNEL_BACKEND`` or a per-executor override, which bypasses this
module entirely.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.kernels.backends import (
    REFERENCE,
    ConvBackend,
    KernelBackend,
    backends_for,
    default_backend,
)
from repro.kernels.plan import bit_identical

#: Timed repetitions per arm during a tuning probe (min is kept).
PROBE_REPS = 2

_chosen: Dict[str, KernelBackend] = {}
_records: Dict[str, dict] = {}


# ----------------------------------------------------------------------
# Probe machinery
# ----------------------------------------------------------------------
def _matches(truth: Dict[str, np.ndarray], out: Dict[str, np.ndarray],
             stride_keys: Sequence[str]) -> bool:
    """Bit-identity check: values everywhere, layout on escaping keys."""
    for key, ref in truth.items():
        got = out.get(key)
        if got is None or not bit_identical(got, ref):
            return False
        if key in stride_keys and got.strides != ref.strides:
            return False
    return True


# ----------------------------------------------------------------------
# Per-op entry point
# ----------------------------------------------------------------------
def autotuned_backend(op: str, x, w4, bias, stride, pad) -> ConvBackend:
    """The tuned conv2d arm for this signature (probing on first use)."""
    sig = (f"x{'x'.join(map(str, x.shape))}-"
           f"w{'x'.join(map(str, w4.shape))}-s{stride}p{pad}-"
           f"b{int(bias is not None)}-{x.dtype}")
    key = f"{op}|{sig}"
    backend = _chosen.get(key)
    if backend is not None:
        return backend

    incumbent = default_backend(op)
    y0, _ = incumbent.forward(x, w4, bias, stride, pad, arena=None,
                              want_saved=False)
    dy = y0  # synthetic cotangent with realistic shape and magnitudes

    def runner(arm: ConvBackend) -> Dict[str, np.ndarray]:
        y, saved = arm.forward(x, w4, bias, stride, pad, arena=None,
                               want_saved=True)
        dx, dw = arm.backward(x, w4, dy, stride, pad, arena=None,
                              saved=saved)
        return {"y": y, "dx": dx, "dw": dw}

    arms = {b.name: b for b in backends_for(op) if b.name != REFERENCE}
    truth = runner(incumbent)
    timings: Dict[str, float] = {}
    exact: Dict[str, bool] = {}
    for name, arm in arms.items():
        best = float("inf")
        out: Dict[str, np.ndarray] = {}
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            out = runner(arm)
            best = min(best, time.perf_counter() - t0)
        timings[name] = best
        exact[name] = (name == incumbent.name
                       or _matches(truth, out, stride_keys=("y", "dx")))
    eligible = [name for name in timings if exact[name]]
    choice = min(eligible, key=lambda name: timings[name])
    _chosen[key] = arms[choice]
    _records[key] = {
        "op": op, "signature": sig, "backend": choice,
        "timings_ms": {n: t * 1000 for n, t in sorted(timings.items())},
        "exact": {n: bool(e) for n, e in sorted(exact.items())},
    }
    return arms[choice]


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------
def autotune_report() -> List[dict]:
    """Per-signature selection records (for the benches and tests)."""
    return [dict(_records[key]) for key in sorted(_records)]


def clear_selection_cache() -> None:
    """Drop every selection; the next dispatch of a signature re-probes."""
    _chosen.clear()
    _records.clear()
