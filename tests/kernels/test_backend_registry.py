"""Regression tests for the kernel env switch and backend registry.

``REPRO_KERNEL_BACKEND`` names one conv arm, and an unknown value —
the per-op spellings the registry used to parse included — warns once
instead of silently falling back; an unknown
``GraphExecutor(kernel_backend=...)`` is a ``ValueError``.  The registry
side covers the registration contract (exact XOR tolerance), the exact
arm set the keep rule leaves, forced-arm resolution precedence, and the
chooser's picks: the incumbent wherever a probe cannot prove identity,
the whole-batch arm on every ledger signature, the same vector from
every fresh probe, and a fresh proof once the registry no longer holds
the picked arm.
"""

import warnings

import numpy as np
import pytest

import repro.kernels.backends as backends_module
import repro.kernels.plan as plan_module
from repro.kernels.autotune import (
    _probe_decides,
    autotune_report,
    autotuned_backend,
    clear_selection_cache,
)
from repro.kernels.backends import (
    _BACKENDS,
    ConvBackend,
    ConvBlasFat,
    backends_for,
    default_backend,
    get_backend,
    register_backend,
    resolve_forced_backend,
    select_backend,
    unregister_backend,
)
from repro.kernels.config import (
    _parse_backend_env,
    backend_override,
)
from repro.kernels.plan import direct_fill
from repro.models import build_model


# ----------------------------------------------------------------------
# REPRO_KERNEL_BACKEND: parsing + forced resolution
# ----------------------------------------------------------------------
def test_backend_spec_parsing():
    assert _parse_backend_env(None) is None
    assert _parse_backend_env("") is None
    assert _parse_backend_env(" Auto ") is None
    assert _parse_backend_env(" blas-fat ") == "blas-fat"
    # No per-op syntax: the whole value is one (here unknown) name.
    assert _parse_backend_env("conv2d=blas-fat") == "conv2d=blas-fat"


def test_an_old_per_op_spelling_warns_once_and_leaves_conv_to_the_chooser(
        monkeypatch):
    monkeypatch.setattr(backends_module, "_warned_forces", set())
    call = _ledger_conv_calls()[0]  # scaled VGG's first conv
    clear_selection_cache()
    try:
        with backend_override("maxpool2d=reference"):
            with pytest.warns(RuntimeWarning,
                              match="unknown backend 'maxpool2d=reference'"):
                assert resolve_forced_backend("conv2d") is None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert (select_backend("conv2d", None, *call)
                        is autotuned_backend("conv2d", *call))
    finally:
        clear_selection_cache()


def test_unknown_backend_name_warns_instead_of_silent_fallback():
    with backend_override("definitely-not-a-backend"):
        with pytest.warns(RuntimeWarning, match="unknown backend"):
            assert resolve_forced_backend("conv2d") is None


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
def test_every_op_registers_reference_and_default():
    # Exactly the arms the keep rule (docs/architecture.md §9) leaves:
    # max-pool and the codecs run one body each and register none.
    assert {op: [b.name for b in backends_for(op)]
            for op in _BACKENDS} == {
        "conv2d": ["reference", "blas-fat", "numpy-plan"],
    }
    # The first-listed arm is the ground truth; the default is the other
    # side of the A/B.
    assert default_backend("conv2d").name == "numpy-plan"


def test_executor_kwarg_wins_over_env_force():
    class Ctx:
        kernel_backend = "reference"

    with backend_override("numpy-plan"):
        assert resolve_forced_backend("conv2d", Ctx()).name == "reference"
        assert resolve_forced_backend("conv2d").name == "numpy-plan"


def test_unknown_executor_backend_is_a_precise_error():
    from repro.models import tiny_cnn
    from repro.train import GraphExecutor

    graph = tiny_cnn(batch_size=2)
    # "loop" named the codecs' ground-truth arms, which are gone.
    for name in ("no-such-arm", "loop"):
        with pytest.raises(ValueError) as err:
            GraphExecutor(graph, kernel_backend=name)
        assert str(err.value) == (
            f"kernel_backend={name!r} names no registered backend "
            f"(registered: blas-fat, numpy-plan, reference)")


class _BadContract(ConvBackend):
    name = "bad-contract"
    exact = False
    tolerance = 0.0


def test_nonexact_arm_without_tolerance_is_rejected():
    with pytest.raises(ValueError, match="error bound"):
        register_backend(_BadContract())
    with pytest.raises(KeyError):
        get_backend("conv2d", "bad-contract")


def test_unregister_is_idempotent():
    unregister_backend("conv2d", "never-registered")  # no raise
    with pytest.raises(KeyError, match="known:"):
        get_backend("conv2d", "never-registered")


# ----------------------------------------------------------------------
# The chooser: proof, not stopwatch
# ----------------------------------------------------------------------
#: ``(x shape, F, k, pad, stride)`` on which blas-fat agreed with the
#: incumbent on 1-11 of 12 data draws (400-signature sweep at PR 21): a
#: matching live-data probe proves nothing there, so the static guard
#: must keep the incumbent whatever the data says.
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
        arm = autotuned_backend("conv2d", x, w4, None, stride, pad)
        assert arm is default_backend("conv2d"), draw
        (row,) = autotune_report()
        assert row["exact"] == {"blas-fat": False, "numpy-plan": True}
    clear_selection_cache()


@pytest.mark.parametrize("n,b", [(6, 1), (5, 4)])
def test_chooser_guards_the_gemm_shapes_each_sample_block_issues(
        monkeypatch, n, b):
    """A 1x1-output conv: its forward and dcols GEMMs have a free
    dimension of b*P = b per block, and (N mod b)*P in a ragged last one.
    Whole-batch the static guard passes; once a block (or the ragged
    tail) holds one sample those GEMMs are matrix-vector products, so
    the incumbent must stay however the probe would have come out."""
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
        arm = autotuned_backend("conv2d", x, w4, None, 1, 0)
        assert arm is default_backend("conv2d")
        (row,) = autotune_report()
        assert row["exact"] == {"blas-fat": False, "numpy-plan": True}
    finally:
        clear_selection_cache()


def test_chooser_guards_the_per_slot_gemm_of_the_direct_fill():
    """On the direct fill ``dx`` is one ``(C,F)@(F,OH*WP)`` GEMM per
    sample and window slot.  One input channel makes it a matrix-vector
    product, which a matching probe cannot settle, so the incumbent
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
        arm = autotuned_backend("conv2d", x, w4, None, 1, 1)
        assert arm is default_backend("conv2d")
        (row,) = autotune_report()
        assert row["exact"] == {"blas-fat": False, "numpy-plan": True}
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


def test_a_registry_change_voids_the_choosers_selection():
    """A cached pick must be the registered instance: after a same-named
    replacement of its arm the chooser proves and returns the new arm,
    and after the arm is unregistered it falls back to the incumbent —
    never an arm ``get_backend`` no longer knows."""

    class _SameBlasFat(ConvBlasFat):
        """A replacement of the same name, computing the same bytes."""

    call = _ledger_conv_calls()[0]  # scaled VGG's first conv
    original = get_backend("conv2d", "blas-fat")
    replacement = _SameBlasFat()
    clear_selection_cache()
    try:
        with backend_override("auto"):
            assert select_backend("conv2d", None, *call) is original
            register_backend(replacement)
            assert select_backend("conv2d", None, *call) is replacement
            unregister_backend("conv2d", "blas-fat")
            assert (select_backend("conv2d", None, *call)
                    is default_backend("conv2d"))
            (row,) = autotune_report()
            assert row["exact"] == {"numpy-plan": True}
    finally:
        register_backend(original)
        clear_selection_cache()


def test_chooser_picks_the_whole_batch_arm_on_every_ledger_signature():
    calls = _ledger_conv_calls()
    assert len(calls) == 13
    for _ in range(3):  # the same pick vector from every fresh probe
        clear_selection_cache()
        picks = [autotuned_backend("conv2d", *call).name for call in calls]
        assert picks == ["blas-fat"] * len(calls)
        assert all(set(row) == {"op", "signature", "backend", "exact"}
                   for row in autotune_report())
    clear_selection_cache()
