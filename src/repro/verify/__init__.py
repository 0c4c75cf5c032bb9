"""Differential fuzzing and oracle subsystem (the standing correctness
gate).

Gist's correctness claim is structural — shortened lifetimes shared by an
allocator that never aliases two live tensors — and this package checks
that claim on graphs nobody hand-wrote.  See
:mod:`repro.verify.runner` for the oracle table and the ``repro fuzz``
CLI for the command-line entry point.
"""

from repro.verify.differential import (
    ORACLE_BACKEND_DIFFERENTIAL,
    verify_backends,
)
from repro.verify.fuzzer import DEFAULT_MAX_OPS, GraphFuzzer
from repro.verify.oracles import (
    ORACLE_ALLOCATOR_SAFETY,
    ORACLE_DECISION_BYTES,
    ORACLE_HYBRID,
    ORACLE_LOSSLESS,
    ORACLE_PLAN_SAFETY,
    ORACLE_POLICY_BOUNDS,
    ORACLE_RECURRENT,
    ORACLE_ROUNDTRIP,
    ORACLE_SHARED_CONCAT,
    Violation,
    check_allocator_safety,
    check_decision_bytes,
    check_hybrid_plan,
    check_plan_safety,
    check_policy_bounds,
    check_recurrent_unroll,
    check_roundtrip,
    check_shared_concat,
    interval_clique_bound,
)
from repro.verify.distributed import ORACLE_DISTRIBUTED, check_distributed
from repro.verify.execution import check_lossless_execution
from repro.verify.runner import (
    FuzzReport,
    fuzz_work_units,
    merge_fuzz_results,
    minimize,
    oracle_battery,
    run_fuzz,
    run_fuzz_unit,
    verify_encodings,
    verify_graph,
    verify_seed,
)

__all__ = [
    "DEFAULT_MAX_OPS",
    "FuzzReport",
    "GraphFuzzer",
    "ORACLE_ALLOCATOR_SAFETY",
    "ORACLE_BACKEND_DIFFERENTIAL",
    "ORACLE_DECISION_BYTES",
    "ORACLE_DISTRIBUTED",
    "ORACLE_HYBRID",
    "ORACLE_LOSSLESS",
    "ORACLE_PLAN_SAFETY",
    "ORACLE_POLICY_BOUNDS",
    "ORACLE_RECURRENT",
    "ORACLE_ROUNDTRIP",
    "ORACLE_SHARED_CONCAT",
    "Violation",
    "check_allocator_safety",
    "check_decision_bytes",
    "check_distributed",
    "check_hybrid_plan",
    "check_lossless_execution",
    "check_plan_safety",
    "check_policy_bounds",
    "check_recurrent_unroll",
    "check_roundtrip",
    "check_shared_concat",
    "fuzz_work_units",
    "interval_clique_bound",
    "merge_fuzz_results",
    "minimize",
    "oracle_battery",
    "run_fuzz",
    "run_fuzz_unit",
    "verify_backends",
    "verify_encodings",
    "verify_graph",
    "verify_seed",
]
