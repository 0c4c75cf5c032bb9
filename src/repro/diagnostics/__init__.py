"""Step-trace observability, golden-trace conformance and invariants.

Three subsystems, all wired through the training executor:

* :class:`StepTracer` (:mod:`repro.diagnostics.tracer`) — structured
  per-step/per-node events: wall time, encode/decode byte counts and
  compression ratios per encoding.  Attached per executor; costs
  nothing when detached.
* :class:`TraceDigest` (:mod:`repro.diagnostics.digest`) — deterministic
  SHA-256 fingerprints of losses, parameter gradients and decoded stash
  tensors, with :meth:`~TraceDigest.save_golden` /
  :meth:`~TraceDigest.compare_golden` so any model+policy run can be
  pinned and re-verified in CI (recipes in
  :mod:`repro.diagnostics.golden`).
* :class:`InvariantSuite` (:mod:`repro.diagnostics.invariants`) — the
  runtime checker that lossless encodings round-trip bit-exactly (the
  executor itself refuses a stash read past its death point).

CLI surface: ``python -m repro trace`` runs a traced training demo and
saves/compares goldens.
"""

from repro.diagnostics.digest import (
    GoldenComparison,
    StepDigest,
    TraceDigest,
    array_digest,
    capture_digest,
    load_golden,
    mapping_digest,
    step_digest,
)
from repro.diagnostics.golden import (
    GOLDEN_MODELS,
    GOLDEN_POLICIES,
    golden_batches,
    golden_filename,
    run_traced,
)
from repro.diagnostics.invariants import (
    InvariantSuite,
    InvariantViolation,
)
from repro.diagnostics.tracer import StepRecord, StepTracer, TraceEvent

__all__ = [
    "GOLDEN_MODELS",
    "GOLDEN_POLICIES",
    "GoldenComparison",
    "InvariantSuite",
    "InvariantViolation",
    "StepDigest",
    "StepRecord",
    "StepTracer",
    "TraceDigest",
    "TraceEvent",
    "array_digest",
    "capture_digest",
    "golden_batches",
    "golden_filename",
    "load_golden",
    "mapping_digest",
    "run_traced",
    "step_digest",
]
