"""Regression: byte counts entering the cost model must be sane.

``CostModel.transfer_time`` and ``copy_time`` used to accept any float,
so a NaN or negative byte count (e.g. a buggy size model upstream)
propagated silently into plan costs, ranked options nonsensically and
produced NaN step times.  They now fail fast with ``ValueError``.
"""

import math

import pytest

from repro.perf.cost import CostModel


@pytest.fixture
def cost():
    return CostModel()


@pytest.mark.parametrize("bad", [-1, -0.5, float("nan"), float("inf"),
                                 float("-inf"), None, "4096"])
def test_transfer_time_rejects_bad_byte_counts(cost, bad):
    with pytest.raises(ValueError, match="transfer_time"):
        cost.transfer_time(bad)


@pytest.mark.parametrize("bad", [-1, float("nan"), float("inf"), None])
def test_copy_time_rejects_bad_byte_counts(cost, bad):
    with pytest.raises(ValueError, match="copy_time"):
        cost.copy_time(bad)


def test_valid_byte_counts_still_priced(cost):
    assert cost.transfer_time(0) == 0.0
    assert cost.copy_time(0) == 0.0
    assert math.isfinite(cost.transfer_time(1 << 20))
    assert cost.transfer_time(2 << 20) > cost.transfer_time(1 << 20)
    assert cost.copy_time(2 << 20) > cost.copy_time(1 << 20)


def test_hybrid_planner_surfaces_nan_sizes_instead_of_nan_plans(monkeypatch):
    # Pre-fix, a NaN CSR size estimate flowed through copy_time into the
    # option costs and the planner quietly emitted a NaN-costed plan.
    from repro.encodings import ssdc
    from repro.memory import hybrid
    from repro.models import build_model

    # The one place SSDC is sized, for every planner: the codec's own
    # ``encoded_bytes``, which reads this model.
    monkeypatch.setattr(ssdc, "csr_bytes",
                        lambda *args, **kwargs: float("nan"))
    graph = build_model("tiny_cnn", batch_size=4, num_classes=4,
                        image_size=8, channels=8)
    with pytest.raises(ValueError, match="copy_time"):
        hybrid.build_hybrid_plan(graph)
