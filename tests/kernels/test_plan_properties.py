"""Property tests for the shape-static kernel plans.

The planned kernels promise *bit identity* with the reference Python-loop
kernels, not approximate equality: the whole A/B story of the runtime
kernel layer rests on "same floats, less time".  These tests sweep random
shape signatures (Hypothesis) and assert exact ``np.array_equal`` on every
output, plus the exact adjoint relationship between ``im2col_t`` and the
``scatter_t`` fold that ``blas-fat``'s backward runs.
Every signature also draws the plan's sample-block size, so the kernels
are checked walking the batch in blocks — a ragged last one included —
not only in the one block the small shapes get by default.  Every plan
pads and folds through one shared pad buffer and one shared slot-plane
buffer, so the reuse tests run other users through them between every
two calls on the plan under test (:func:`other_users`).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.plan as plan_module
from repro.kernels.backends import CONV_ARMS
from repro.kernels.plan import (
    KernelPlan,
    bit_identical,
    clear_plan_cache,
    get_plan,
    plan_cache_stats,
)
from repro.layers.im2col import (
    col2im_reference,
    conv_output_hw,
    im2col_reference,
    maxpool_backward_reference,
    maxpool_reference,
)
from tests.conftest import col2im_t


@st.composite
def conv_signatures(draw):
    """Random valid (shape, kh, kw, stride, pad, b) signatures, ``b`` the
    samples per block the plan is built to walk."""
    n = draw(st.integers(1, 5))
    c = draw(st.integers(1, 4))
    kh = draw(st.integers(1, 4))
    kw = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    # Input large enough for at least one window position.
    h = draw(st.integers(max(1, kh - 2 * pad), 10))
    w = draw(st.integers(max(1, kw - 2 * pad), 10))
    conv_output_hw(h, w, kh, kw, stride, pad)  # raises if invalid
    return (n, c, h, w), kh, kw, stride, pad, draw(st.integers(1, n))


def blocked_plan(shape, kh, kw, stride, pad, b):
    """A fresh plan that walks ``b``-sample blocks: ``BLOCK_BYTES`` sized
    to exactly ``b`` samples' columns while it is built."""
    n, c, h, w = shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    saved = plan_module.BLOCK_BYTES
    plan_module.BLOCK_BYTES = 4 * c * kh * kw * oh * ow * b
    try:
        plan = KernelPlan(shape, kh, kw, stride, pad)
    finally:
        plan_module.BLOCK_BYTES = saved
    assert plan.b == b
    assert plan.blocks[-1][1] == n
    return plan


@settings(max_examples=60, deadline=None)
@given(conv_signatures(), st.integers(0, 2**31 - 1))
def test_im2col_bit_identical(sig, seed):
    shape, kh, kw, stride, pad, _ = sig
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, shape).astype(np.float32)
    plan = blocked_plan(*sig)
    got = plan.im2col(x)
    want = im2col_reference(x, kh, kw, stride, pad)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # blas-fat's transposed layout of the same gather.
    assert np.array_equal(plan.im2col_t(x),
                          want.transpose(1, 0, 2).reshape(plan.K, -1))


@settings(max_examples=60, deadline=None)
@given(conv_signatures(), st.integers(0, 2**31 - 1))
def test_col2im_bit_identical(sig, seed):
    shape, kh, kw, stride, pad, _ = sig
    n, c, h, w = shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    rng = np.random.default_rng(seed)
    cols = rng.normal(0, 1, (n, c * kh * kw, oh * ow)).astype(np.float32)
    plan = blocked_plan(*sig)
    got = col2im_t(plan, cols)
    want = col2im_reference(cols, shape, kh, kw, stride, pad)
    # Bitwise: the slot reduction replays the reference accumulation order.
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(conv_signatures(), st.integers(0, 2**31 - 1))
def test_col2im_is_exact_adjoint_of_im2col(sig, seed):
    """<im2col_t(x), g> == <x, col2im_t(g)> with *exact* arithmetic.

    Integer-valued operands keep every product and partial sum exactly
    representable, so the adjoint identity holds to the last bit — any
    index off by one anywhere would break it.
    """
    shape, kh, kw, stride, pad, _ = sig
    n, c, h, w = shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    rng = np.random.default_rng(seed)
    x = rng.integers(-8, 9, shape).astype(np.float32)
    g = rng.integers(-8, 9, (n, c * kh * kw, oh * ow)).astype(np.float32)
    plan = blocked_plan(*sig)
    g_t = g.transpose(1, 0, 2).reshape(plan.K, n * plan.P)
    lhs = np.vdot(plan.im2col_t(x).astype(np.float64),
                  g_t.astype(np.float64))
    rhs = np.vdot(x.astype(np.float64),
                  col2im_t(plan, g).astype(np.float64))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(conv_signatures(), st.integers(0, 2**31 - 1))
def test_maxpool_forward_bit_identical(sig, seed):
    shape, kh, kw, stride, pad, _ = sig
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, shape).astype(np.float32)
    plan = blocked_plan(*sig)
    y, argmax = plan.maxpool_forward(x)
    y_ref, argmax_ref = maxpool_reference(x, kh, kw, stride, pad)
    assert np.array_equal(y, y_ref)
    # Same winner under ties, too — the map feeds the backward scatter.
    assert np.array_equal(argmax, argmax_ref)


@settings(max_examples=60, deadline=None)
@given(conv_signatures(), st.integers(0, 2**31 - 1))
def test_maxpool_backward_bit_identical(sig, seed):
    """Covers overlapping windows (stride < kernel): duplicate scatter
    targets must accumulate in the reference element order."""
    shape, kh, kw, stride, pad, _ = sig
    n, c, h, w = shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, shape).astype(np.float32)
    dy = rng.normal(0, 1, (n, c, oh, ow)).astype(np.float32)
    plan = blocked_plan(*sig)
    _, argmax = plan.maxpool_forward(x)
    got = plan.maxpool_backward(argmax, dy)
    want = maxpool_backward_reference(argmax, dy, shape, kh, kw, stride, pad)
    assert np.array_equal(got, want)


def test_maxpool_disjoint_fast_path_matches_general():
    """stride == kernel, pad == 0, exact tiling takes the reshape path;
    force the general path through a same-geometry plan and compare."""
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (2, 3, 8, 8)).astype(np.float32)
    plan = KernelPlan(x.shape, 2, 2, 2, 0)
    y, argmax = plan.maxpool_forward(x)
    y_ref, argmax_ref = maxpool_reference(x, 2, 2, 2, 0)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(argmax, argmax_ref)


@settings(max_examples=30, deadline=None)
@given(conv_signatures(), st.integers(0, 2**31 - 1))
def test_noncontiguous_input_bit_identical(sig, seed):
    """einsum outputs can be transposed views; the strided gather must
    compact them instead of misreading their memory."""
    shape, kh, kw, stride, pad, _ = sig
    n, c, h, w = shape
    rng = np.random.default_rng(seed)
    # (C, N, H, W) storage transposed into an (N, C, H, W) view.
    x = np.ascontiguousarray(
        rng.normal(0, 1, (c, n, h, w)).astype(np.float32)
    ).transpose(1, 0, 2, 3)
    assert not x.flags.c_contiguous or 1 in (n, c)
    plan = blocked_plan(*sig)
    assert np.array_equal(
        plan.im2col(x), im2col_reference(x, kh, kw, stride, pad)
    )
    y, argmax = plan.maxpool_forward(x)
    y_ref, argmax_ref = maxpool_reference(x, kh, kw, stride, pad)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(argmax, argmax_ref)


def check_im2col(plan, rng, dtype=np.float32, pad_value=0.0) -> None:
    """One ``im2col`` call on ``plan`` through the shared pad buffer, held
    to the reference on the input padded with ``pad_value``."""
    x = rng.normal(0, 1, plan.shape).astype(dtype)
    border = ((0, 0), (0, 0), (plan.pad, plan.pad), (plan.pad, plan.pad))
    want = im2col_reference(np.pad(x, border, constant_values=pad_value),
                            plan.kh, plan.kw, plan.stride, 0)
    assert bit_identical(plan.im2col(x, pad_value=pad_value), want), (
        plan, dtype, pad_value)


def check_copy_fill(plan, rng, dtype=np.float32) -> None:
    """One copy fill (``scatter_t``) on ``plan`` through the shared
    slot-plane buffer, held to ``col2im_reference``."""
    cols = rng.normal(0, 1, (plan.shape[0], plan.K, plan.P)).astype(dtype)
    want = col2im_reference(cols, plan.shape, plan.kh, plan.kw, plan.stride,
                            plan.pad)
    assert bit_identical(np.ascontiguousarray(col2im_t(plan, cols)),
                         want), (plan, dtype)


def other_users(plan, rng):
    """An endless round of the shared buffers' other users, each a call
    that checks its own result, to run between two calls on ``plan``
    (``b`` 1 or 2).  Each leaves cells that ``plan``'s own calls never
    write holding other values, so a call that skipped its first-block
    refill, or refilled too few cells, would read them:

    * another, larger signature, whose cells cover ``plan``'s static ones;
    * the same signature at the other block size;
    * ``plan`` in float64;
    * ``plan``'s copy fill (on a direct-fill plan, the other fill);
    * ``plan`` padding with ``-inf``, as max-pool's general path does.
    """
    n, c, h, w = plan.shape
    other = blocked_plan((2, c + 2, h + 3, w + 3), 3, 3, 1, 2, 2)
    same = blocked_plan(plan.shape, plan.kh, plan.kw, plan.stride, plan.pad,
                        3 - plan.b)
    return itertools.cycle([
        lambda: (check_im2col(other, rng), check_copy_fill(other, rng)),
        lambda: (check_im2col(same, rng), check_copy_fill(same, rng)),
        lambda: (check_im2col(plan, rng, np.float64),
                 check_copy_fill(plan, rng, np.float64)),
        lambda: check_copy_fill(plan, rng),
        lambda: check_im2col(plan, rng, pad_value=-np.inf),
    ])


def test_padded_workspace_reused_across_calls():
    """The shared pad buffer must not leak state between inputs, between
    the blocks of one call (a ragged last one included), or from the
    other users that run between two calls."""
    for n, b in ((2, 1), (3, 2)):
        plan = blocked_plan((n, 2, 5, 5), 3, 3, 1, 1, b)
        rng = np.random.default_rng(0)
        users = other_users(plan, rng)
        for _ in range(10):
            next(users)()
            check_im2col(plan, rng)


def test_slot_workspace_reused_across_calls():
    """The copy fill's shared slot planes: stale slot data must never
    bleed in, from an earlier call, an earlier block or another user."""
    for n, b in ((2, 1), (3, 2)):
        plan = blocked_plan((n, 2, 6, 6), 3, 3, 2, 1, b)
        rng = np.random.default_rng(1)
        users = other_users(plan, rng)
        for _ in range(10):
            next(users)()
            check_copy_fill(plan, rng)


class TestPlanCache:
    def test_same_signature_shares_plan(self):
        clear_plan_cache()
        a = get_plan((2, 3, 8, 8), 3, 3, 1, 1)
        b = get_plan((2, 3, 8, 8), 3, 3, 1, 1)
        assert a is b
        stats = plan_cache_stats()
        assert stats["size"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_distinct_signatures_get_distinct_plans(self):
        clear_plan_cache()
        a = get_plan((2, 3, 8, 8), 3, 3, 1, 1)
        b = get_plan((2, 3, 8, 8), 3, 3, 2, 1)
        assert a is not b
        assert plan_cache_stats()["size"] == 2

    def test_clear_resets_counters(self):
        get_plan((1, 1, 4, 4), 2, 2, 2, 0)
        clear_plan_cache()
        stats = plan_cache_stats()
        assert stats == {"size": 0, "hits": 0, "misses": 0,
                         "workspace_bytes": 0}


# ----------------------------------------------------------------------
# Transposed-column adjoint: blas-fat's backward and both of its fills
# share one plan's slot planes
# ----------------------------------------------------------------------
def _hostile_values(rng, shape, dtype=np.float32):
    """Arrays of the values whose sums are easy to get wrong."""
    tiny = np.finfo(dtype).tiny
    yield "normal", rng.normal(0, 1, shape)
    yield "negative-zero", np.full(shape, -0.0)
    yield "nan", np.where(rng.random(shape) < 0.2, np.nan,
                          rng.normal(0, 1, shape))
    yield "inf", rng.choice([np.inf, -np.inf, 1.0, -0.0], shape)
    yield "denormal", rng.choice([tiny / 4, -tiny / 8, tiny, 0.0], shape)


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("sig,direct", [
    (((2, 3, 16, 16), 3, 3, 1, 1), True),
    (((2, 2, 7, 7), 3, 3, 2, 0), False),    # stride 2
    (((3, 2, 16, 22), 2, 3, 1, 1), True),   # non-square kernel and map
    (((3, 4, 5, 5), 1, 1, 1, 0), False),    # one slot, a narrow map
], ids=["sig0", "sig1", "sig2", "sig3"])
def test_col2im_t_conforms_on_hostile_planes_and_a_reused_plan(
        monkeypatch, sig, direct, b):
    """The adjoint of ``im2col_t`` as blas-fat's backward runs it ==
    ``col2im_reference`` on the same GEMM's column gradient, byte for
    byte, call after call on ONE plan and interleaved with the raw
    copy fill (``scatter_t``) and ``im2col``.  Every fill of every plan
    shares one slot-plane buffer, so a stale cell from any of them — the
    NaN a non-finite weight writes onto uncovered cells included — from
    an earlier block of the same call, or from one of the other users
    run between every two calls (:func:`other_users`), must never leak
    into a sum.  A GEMM never hands the copy fill an all -0.0 column, so
    the hostile planes also go to it raw, in float32 and float64, on the
    same plan."""
    shape, kh, kw, stride, pad = sig
    n, c = shape[:2]
    f = 6
    oh, ow = conv_output_hw(*shape[2:], kh, kw, stride, pad)
    monkeypatch.setattr(plan_module, "BLOCK_BYTES",
                        4 * c * kh * kw * oh * ow * b)
    clear_plan_cache()
    plan = get_plan(shape, kh, kw, stride, pad)
    assert plan.b == b
    assert plan_module.direct_fill(stride, oh, plan.wp) == direct
    arm = CONV_ARMS["blas-fat"]
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, shape).astype(np.float32)
    w4 = rng.normal(0, 0.5, (f, c, kh, kw)).astype(np.float32)
    weights = {"finite": w4, "nan": w4.copy(), "inf": w4.copy()}
    weights["nan"][1, 0, 0, 0] = np.nan
    weights["inf"][2, -1, -1, 0] = -np.inf
    users = other_users(plan, np.random.default_rng(8))

    def interleaved(*calls):
        """Each call's result, another user run before every one."""
        return [(next(users)(), call())[1] for call in calls]

    try:
        for (wlabel, w), (label, planes) in itertools.product(
                weights.items(), _hostile_values(rng, (n, f, oh * ow))):
            dy = planes.astype(np.float32)
            with np.errstate(invalid="ignore", over="ignore"):
                cols = np.matmul(w.reshape(f, -1).T, dy)
                want = col2im_reference(cols, shape, kh, kw, stride, pad)
                got = interleaved(
                    lambda: arm.backward(x, w, dy, stride, pad)[0],
                    lambda: col2im_t(plan, cols),
                    lambda: arm.backward(x, w, dy, stride, pad)[0],
                    lambda: check_im2col(plan, rng))
            for dx in got[:3]:
                assert bit_identical(dx, want), (wlabel, label)
        for dtype in (np.float32, np.float64):
            for label, planes in _hostile_values(
                    rng, (n, plan.K, plan.P), dtype):
                cols = planes.astype(dtype)
                with np.errstate(invalid="ignore"):  # inf - inf, NaN + x
                    want = col2im_reference(cols, shape, kh, kw, stride,
                                            pad)
                    got = interleaved(lambda: col2im_t(plan, cols),
                                      lambda: col2im_t(plan, cols))
                for dx in got:
                    assert bit_identical(np.ascontiguousarray(dx), want), (
                        dtype, label)
    finally:
        clear_plan_cache()
