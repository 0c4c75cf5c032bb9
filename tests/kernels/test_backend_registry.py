"""Regression tests for the conv arm table and its dispatch.

:data:`~repro.kernels.backends.CONV_ARMS` holds exactly the arms the
keep rule leaves, each exact or declaring a tolerance; the only force is
``GraphExecutor(kernel_backend=...)``, and an unknown name is a
``ValueError``.  The chooser side covers its picks: the ``reference``
loops wherever a probe cannot prove identity, the whole-batch arm on
every ledger signature, and the same vector from every fresh probe.
"""

import numpy as np
import pytest

import repro.kernels.plan as plan_module
from repro.kernels.autotune import (
    _probe_decides,
    autotune_report,
    autotuned_backend,
    clear_selection_cache,
)
from repro.kernels.backends import CONV_ARMS, REFERENCE, conv_arm
from repro.kernels.plan import direct_fill
from repro.models import build_model


# ----------------------------------------------------------------------
# The table and the one force
# ----------------------------------------------------------------------
def test_conv_arms_are_exactly_the_kept_arms():
    # Exactly the arms the keep rule (docs/architecture.md §9) leaves:
    # max-pool and the codecs run one body each and have no arms.
    assert sorted(CONV_ARMS) == ["blas-fat", "reference"]
    assert all(arm.name == name for name, arm in CONV_ARMS.items())
    assert REFERENCE == "reference"


def test_every_arm_is_exact_or_declares_a_tolerance():
    for name, arm in CONV_ARMS.items():
        assert arm.exact or arm.tolerance > 0, name
    assert [name for name, arm in sorted(CONV_ARMS.items())
            if not arm.exact] == ["blas-fat"]


def test_the_context_force_wins_over_the_chooser():
    class Ctx:
        kernel_backend = "reference"

    call = _ledger_conv_calls()[0]  # scaled VGG's first conv
    clear_selection_cache()
    try:
        assert conv_arm(Ctx(), *call) is CONV_ARMS["reference"]
        # No context, or one that forces nothing: the chooser decides.
        assert conv_arm(None, *call) is CONV_ARMS["blas-fat"]
        Ctx.kernel_backend = None
        assert conv_arm(Ctx(), *call) is CONV_ARMS["blas-fat"]
    finally:
        clear_selection_cache()


def test_unknown_executor_backend_is_a_precise_error():
    from repro.models import tiny_cnn
    from repro.train import GraphExecutor

    graph = tiny_cnn(batch_size=2)
    # "loop" named the codecs' ground-truth arms, which are gone.
    for name in ("no-such-arm", "loop"):
        with pytest.raises(ValueError) as err:
            GraphExecutor(graph, kernel_backend=name)
        assert str(err.value) == (
            f"kernel_backend={name!r} names no conv arm "
            f"(arms: blas-fat, reference)")


# ----------------------------------------------------------------------
# The chooser: proof, not stopwatch
# ----------------------------------------------------------------------
#: ``(x shape, F, k, pad, stride)`` on which blas-fat agreed with the
#: einsum contractions on 1-11 of 12 data draws (a 400-signature
#: sweep): a matching live-data probe proves nothing there, so the
#: static guard must keep the incumbent, ``reference``, whatever the
#: data says.
DATA_DEPENDENT_SIGNATURES = [
    ((3, 8, 3, 3), 1, 3, 0, 2), ((4, 2, 3, 3), 1, 1, 0, 1),
    ((4, 7, 6, 6), 1, 1, 0, 2), ((4, 1, 6, 6), 2, 1, 0, 1),
    ((4, 1, 4, 4), 3, 1, 1, 2), ((1, 4, 7, 7), 3, 3, 1, 1),
    ((2, 1, 8, 8), 2, 1, 0, 2), ((2, 2, 3, 3), 1, 1, 0, 2),
    ((3, 3, 4, 4), 1, 1, 1, 2), ((2, 3, 5, 5), 1, 1, 0, 2),
]


@pytest.mark.parametrize("shape,f,k,pad,stride", DATA_DEPENDENT_SIGNATURES)
def test_chooser_keeps_the_incumbent_where_agreement_depends_on_data(
        shape, f, k, pad, stride):
    for draw in range(12):
        rng = np.random.default_rng(draw)
        x = rng.normal(0, 1, shape).astype(np.float32)
        w4 = rng.normal(0, 0.5, (f, shape[1], k, k)).astype(np.float32)
        clear_selection_cache()
        arm = autotuned_backend(x, w4, None, stride, pad)
        assert arm is CONV_ARMS[REFERENCE], draw
        (row,) = autotune_report()
        assert (row["backend"], row["exact"]) == (
            REFERENCE, {"blas-fat": False})
    clear_selection_cache()


@pytest.mark.parametrize("n,b", [(6, 1), (5, 4)])
def test_chooser_guards_the_gemm_shapes_each_sample_block_issues(
        monkeypatch, n, b):
    """A 1x1-output conv: its forward and dcols GEMMs have a free
    dimension of b*P = b per block, and (N mod b)*P in a ragged last one.
    Whole-batch the static guard passes; once a block (or the ragged
    tail) holds one sample those GEMMs are matrix-vector products, so
    ``reference`` must stay however the probe would have come out."""
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (n, 8, 3, 3)).astype(np.float32)
    w4 = rng.normal(0, 0.5, (8, 8, 3, 3)).astype(np.float32)
    assert _probe_decides(x, w4, 1, 0)
    per_sample = 4 * 8 * 3 * 3  # one sample's (K, P) = (72, 1) columns
    monkeypatch.setattr(plan_module, "BLOCK_BYTES", 3 * per_sample)
    assert _probe_decides(x, w4, 1, 0)  # blocks of three: nothing is 1
    monkeypatch.setattr(plan_module, "BLOCK_BYTES", b * per_sample)
    assert not _probe_decides(x, w4, 1, 0)
    clear_selection_cache()
    try:
        arm = autotuned_backend(x, w4, None, 1, 0)
        assert arm is CONV_ARMS[REFERENCE]
        (row,) = autotune_report()
        assert (row["backend"], row["exact"]) == (
            REFERENCE, {"blas-fat": False})
    finally:
        clear_selection_cache()


def test_chooser_guards_the_per_slot_gemm_of_the_direct_fill():
    """On the direct fill ``dx`` is one ``(C,F)@(F,OH*WP)`` GEMM per
    sample and window slot.  One input channel makes it a matrix-vector
    product, which a matching probe cannot settle, so ``reference``
    stays — although the dcols ``(K,F)@(F,b*P)`` the copy fill issues,
    with K = 9, would be decided.  Two channels decide it."""
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (4, 2, 16, 16)).astype(np.float32)
    w4 = rng.normal(0, 0.5, (8, 2, 3, 3)).astype(np.float32)
    assert direct_fill(1, 16, 18)
    assert _probe_decides(x, w4, 1, 1)
    x, w4 = x[:, :1].copy(), w4[:, :1].copy()
    assert not _probe_decides(x, w4, 1, 1)
    clear_selection_cache()
    try:
        arm = autotuned_backend(x, w4, None, 1, 1)
        assert arm is CONV_ARMS[REFERENCE]
        (row,) = autotune_report()
        assert (row["backend"], row["exact"]) == (
            REFERENCE, {"blas-fat": False})
    finally:
        clear_selection_cache()


def _ledger_conv_calls():
    """One live ``(x, w4, bias, stride, pad)`` per distinct conv signature
    of the two ledger models at the ledger's batch size."""
    calls = {}
    rng = np.random.default_rng(0)
    for model in ("scaled_vgg", "densenet"):
        graph = build_model(model, batch_size=16)
        for node in graph.nodes:
            if node.kind != "conv":
                continue
            conv = node.layer
            shapes = node.input_shapes(graph)
            params = conv.init_params(shapes, rng)
            x = rng.normal(0, 1, shapes[0]).astype(np.float32)
            key = (shapes[0], params["w"].shape, conv.stride, conv.pad,
                   conv.bias)
            calls.setdefault(key, (x, params["w"], params.get("b"),
                                   conv.stride, conv.pad))
    return list(calls.values())


def test_chooser_picks_the_whole_batch_arm_on_every_ledger_signature():
    calls = _ledger_conv_calls()
    assert len(calls) == 13
    for _ in range(3):  # the same pick vector from every fresh probe
        clear_selection_cache()
        picks = [autotuned_backend(*call).name for call in calls]
        assert picks == ["blas-fat"] * len(calls)
        assert all(set(row) == {"signature", "backend", "exact"}
                   for row in autotune_report())
    clear_selection_cache()
