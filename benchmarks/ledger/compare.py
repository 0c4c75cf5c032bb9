#!/usr/bin/env python3
"""Compare two ledger result files: ``compare.py A.json B.json``.

One row per workload x end-to-end metric with both medians, the ratio B/A
(base: A), the metric's bound and a verdict:

* ``same``    B is within the bound of A;
* ``better`` / ``worse``  B differs from A by more than the bound;
* ``unresolved``  the run-to-run spread (interquartile range over median,
  known when a file holds four or more runs of the workload) exceeds the
  bound on either side, so a difference within reach of the noise cannot
  be called - unless every run of B beats every run of A.

Failed ops and the exact per-layer counts (planner decisions, rewrite
changes, MFR) must not differ at all.  Exit status 1 on any ``worse`` or
changed exact value, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402


def _runs(report: dict, workload: str, trace: int) -> List[dict]:
    return [run["result"] for run in report["runs"]
            if run["workload"] == workload and run["trace"] == trace
            and run["result"] is not None]


def _values(results: List[dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in results]


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range over median; ``None`` below four values."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """Verdict for one metric from each side's per-run values."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        b_always_better = (max(b) < min(a) if better == "lower"
                           else min(b) > max(a))
        return "better" if b_always_better else "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def compare(a: dict, b: dict) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for w in metrics.WORKLOADS:
        runs_a, runs_b = _runs(a, w.name, 0), _runs(b, w.name, 0)
        if not runs_a or not runs_b:
            rows.append({"workload": w.name, "metric": "(untraced runs)",
                         "verdict": "worse", "note": "missing on one side"})
            continue
        for m in metrics.END_TO_END:
            va, vb = _values(runs_a, m.name), _values(runs_b, m.name)
            rows.append({
                "workload": w.name, "metric": m.name, "unit": m.unit,
                "a": statistics.median(va), "b": statistics.median(vb),
                "ratio": statistics.median(vb) / statistics.median(va),
                "bound": m.bound,
                "verdict": verdict(va, vb, m.better, m.bound),
            })
        failed_a = sum(r["failed"] for r in runs_a)
        failed_b = sum(r["failed"] for r in runs_b)
        rows.append({"workload": w.name, "metric": "failed", "unit": "count",
                     "a": failed_a, "b": failed_b, "bound": 0.0,
                     "verdict": "worse" if failed_b > failed_a else "same"})
        traced_a, traced_b = _runs(a, w.name, 1), _runs(b, w.name, 1)
        if traced_a and traced_b:
            for name in metrics.EXACT_PER_LAYER:
                xa = _values(traced_a, name)[0]
                xb = _values(traced_b, name)[0]
                if xa != xb:
                    rows.append({"workload": w.name, "metric": name,
                                 "a": xa, "b": xb, "bound": 0.0,
                                 "verdict": "worse",
                                 "note": "exact value changed"})
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':<16} {'metric':<30} {'A':>12} {'B':>12} "
             f"{'B/A':>7} {'bound':>6}  verdict"]
    for r in rows:
        a, b = r.get("a"), r.get("b")
        ratio = f"{r['ratio']:.3f}" if "ratio" in r else ""
        lines.append(
            f"{r['workload']:<16} {r['metric']:<30} "
            f"{'' if a is None else format(a, '.4g'):>12} "
            f"{'' if b is None else format(b, '.4g'):>12} {ratio:>7} "
            f"{r.get('bound', ''):>6}  {r['verdict']}"
            f"{'  (' + str(r['note']) + ')' if 'note' in r else ''}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a, b)
    print(f"A = {argv[0]} ({a['host']['git_sha'][:12]})   "
          f"B = {argv[1]} ({b['host']['git_sha'][:12]})   ratios are B/A")
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
