"""Benchmark + gate for the graph-rewrite passes.

For every model in the registry, applies the rewrite pipeline (fusion,
pool-argmax, inplace; one sweep) and measures
the *pre-plan stash liveness* — the raw FP32 bytes of stashed feature
maps the training schedule would keep live before any encoding/planning
runs.  Gates on two properties:

* **reduction** — the rewritten graph's stashed bytes must be *strictly*
  lower than the original's on at least half the registry models.  The
  fused Conv+ReLU nodes drop the separately-stashed activation output,
  and pool-argmax drops the pool's X/Y pair, so a miss means a pass
  regressed.
* **equivalence** — on the cheap scaled models the rewrite-equivalence
  oracle must report a byte-identical two-step training run (losses and
  gradients) between the original and rewritten graphs.

Writes machine-readable results to ``BENCH_rewrite.json`` at the repo
root (or the path given as argv[1]) and prints a summary table.

Run directly::

    PYTHONPATH=src python benchmarks/bench_rewrite.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.analysis import classify_all_stashes, stash_bytes_by_class
from repro.ioutil import atomic_write_json
from repro.models import available_models, build_model
from repro.rewrite import apply_passes, check_rewrite_equivalence

#: Static analysis is cheap; keep the batch the trace goldens use.
BATCH_SIZE = 32

#: Models small enough to actually train two steps for the runtime gate.
RUNTIME_MODELS = ("tiny_cnn", "scaled_vgg", "scaled_alexnet")


def bench_model(name: str) -> dict:
    graph = build_model(name, batch_size=BATCH_SIZE)
    before_bytes = sum(stash_bytes_by_class(graph).values())
    before_count = len(classify_all_stashes(graph))

    result = apply_passes(graph)
    rewritten = result.graph
    after_bytes = sum(stash_bytes_by_class(rewritten).values())
    after_count = len(classify_all_stashes(rewritten))

    row = {
        "model": name,
        "stash_bytes_before": before_bytes,
        "stash_bytes_after": after_bytes,
        "stash_count_before": before_count,
        "stash_count_after": after_count,
        "pass_changes": {s.name: s.changes for s in result.stats},
        "reduced": after_bytes < before_bytes,
        "equivalence_violations": [],
    }
    if name in RUNTIME_MODELS:
        violations = check_rewrite_equivalence(graph, seed=0,
                                               rewrite_result=result)
        row["equivalence_violations"] = [str(v) for v in violations]
    return row


def main(out_path: str = "BENCH_rewrite.json") -> dict:
    rows = [bench_model(name) for name in available_models()]
    reduced = sum(1 for row in rows if row["reduced"])
    equivalence_ok = not any(row["equivalence_violations"] for row in rows)
    report = {
        "benchmark": "rewrite_passes",
        "batch_size": BATCH_SIZE,
        "models": rows,
        "models_reduced": reduced,
        "reduction_gate": reduced * 2 >= len(rows),
        "equivalence_gate": equivalence_ok,
        "gates_passed": reduced * 2 >= len(rows) and equivalence_ok,
    }
    atomic_write_json(Path(out_path), report, sort_keys=False)

    mib = 1024 * 1024
    print(f"{'model':<14} {'stash before':>12} {'stash after':>12} "
          f"{'maps':>9} {'changes':>8}")
    for row in rows:
        changes = sum(row["pass_changes"].values())
        maps = f"{row['stash_count_before']}->{row['stash_count_after']}"
        flag = "" if row["reduced"] else "  (no reduction)"
        print(f"{row['model']:<14} {row['stash_bytes_before'] / mib:11.1f}M "
              f"{row['stash_bytes_after'] / mib:11.1f}M {maps:>9} "
              f"{changes:>8}{flag}")
        for violation in row["equivalence_violations"]:
            print(f"    {violation}")
    print(f"models with strict stash reduction: {reduced}/{len(rows)}")
    print(f"gates passed: {report['gates_passed']}")
    print(f"wrote {out_path}")
    return report


if __name__ == "__main__":
    result = main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_rewrite.json")
    sys.exit(0 if result["gates_passed"] else 1)
