"""Shared helpers for the benches that are not figure rows.

The kept ``bench_*`` files train or time the executor (Figures 12 and
14, the group-quant extension, the DPR rounding ablation, the kernel
backends) or gate the rewrite passes, and print the rows they assert
on.  Every static number — the figures, the §II-B recompute baseline
and the hybrid planner — is a ``repro sweep`` row in
``BENCH_figures.json``, checked by ``tests/test_paper_claims.py``.
"""

from __future__ import annotations


def print_header(title: str) -> None:
    """Banner separating each figure's output in the bench log."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}")
