"""Shared fixtures for the benches that are not figure rows.

The kept ``bench_*`` files train or time the executor (Figures 12 and
14, the group-quant extension, the DPR rounding ablation, the kernel
backends) or gate a planner (recompute baseline, hybrid planner,
rewrite passes), and print the rows they assert on.  The static figures
are ``repro sweep`` rows in ``BENCH_figures.json``, checked by
``tests/test_paper_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.models import PAPER_SUITE, build_model

#: Minibatch used throughout the paper's memory studies (Section II).
PAPER_MINIBATCH = 64


@pytest.fixture(scope="session")
def suite():
    """The paper's six networks at minibatch 64, built once."""
    return {name: build_model(name, batch_size=PAPER_MINIBATCH)
            for name in PAPER_SUITE}


def print_header(title: str) -> None:
    """Banner separating each figure's output in the bench log."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}")
