"""Fault-injection tests for the kernel differential oracle.

Clean, every conv arm honours its exactness or tolerance contract
against the reference arm, and max-pool and the codec packers match
the loop kernel beside their one body byte for byte.

The oracle's job is to catch a *wrong* kernel, so every test here
breaks one on purpose — puts a broken conv arm into ``CONV_ARMS``, or
monkeypatches the one body of max-pool or a codec packer — asserts the
oracle fires on exactly that op, and restores it.  A passing clean run
is the baseline case — run once more with every plan walking the batch
in sample blocks, beside direct checks that blocking changes no bit.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro.kernels.plan as plan_module
from repro.encodings import binarize, ssdc
from repro.kernels.arena import NULL_ARENA
from repro.kernels.backends import CONV_ARMS, REFERENCE, ConvBackend
from repro.kernels.plan import (
    KernelPlan,
    bit_identical,
    clear_plan_cache,
    get_plan,
)
from repro.layers.im2col import conv_output_hw
from repro.verify import (
    ORACLE_BACKEND_DIFFERENTIAL,
    verify_backends,
)
from repro.layers import Concat
from repro.layers import merge
from repro.verify.differential import (
    _HOSTILE_F32,
    _make_concat_inputs,
    _make_csr_inputs,
    _pool_body,
    _pool_reference,
)


def _oracle_subjects(violations):
    return {v.subject for v in violations}


def test_clean_registry_has_no_violations():
    # 30 seeds x 2 trials: enough pool inputs hit the disjoint-window fast
    # path for its planted signed-zero ties to have caught the np.maximum
    # tie-break defect (7 findings at the commit before the fix).
    for seed in range(30):
        assert verify_backends(seed) == []


def test_clean_registry_has_no_violations_in_one_sample_blocks(monkeypatch):
    monkeypatch.setattr(plan_module, "BLOCK_BYTES", 1)
    clear_plan_cache()
    try:
        for seed in range(10):
            assert verify_backends(seed) == []
    finally:
        clear_plan_cache()


def _same_bits_and_layout(got, want):
    return all(
        got[key] is None if ref is None
        else bit_identical(got[key], ref) and got[key].strides == ref.strides
        for key, ref in want.items())


@pytest.mark.parametrize("need_dx", [True, False])
@pytest.mark.parametrize("want_saved", [True, False])
@pytest.mark.parametrize("shape,f,k,stride,pad,b", [
    pytest.param((5, 6, 9, 9), 8, 3, 1, 1, 2, id="ragged-last-block"),
    pytest.param((4, 6, 9, 9), 8, 3, 2, 0, 2, id="stride2-pad0"),
    pytest.param((5, 12, 7, 7), 10, 1, 1, 0, 3, id="1x1-ragged"),
    pytest.param((4, 8, 8, 8), 16, 3, 1, 1, 1, id="one-sample-blocks"),
    # Fuzz-corpus signatures whose einsum contractions BLAS matmul also
    # reproduces bit for bit.
    pytest.param((4, 14, 4, 4), 14, 3, 1, 1, 2, id="x4x14x4x4-w14x14x3x3"),
    pytest.param((4, 8, 6, 6), 7, 3, 1, 1, 2, id="x4x8x6x6-w7x8x3x3"),
    pytest.param((4, 14, 4, 4), 14, 1, 1, 0, 3, id="x4x14x4x4-w14x14x1x1"),
    pytest.param((4, 6, 8, 8), 8, 3, 1, 1, 4, id="x4x6x8x8-w8x6x3x3"),
    pytest.param((1, 18, 16, 16), 18, 3, 1, 1, 1,
                 id="x1x18x16x16-w18x18x3x3"),
])
def test_blocked_conv_lowering_changes_no_bit_or_stride(
        monkeypatch, shape, f, k, stride, pad, b, want_saved, need_dx):
    """The plan-backed conv arm, walked in ``b``-sample blocks, returns
    the bytes and strides of ``y``, ``dx`` and ``dw`` it returns in one
    block, saved columns or regathered, with or without ``dx``: it
    equals ``reference`` wherever its one-block form does — the only
    signatures where the chooser can promote it."""
    n, c, h, w = shape
    oh, ow = conv_output_hw(h, w, k, k, stride, pad)
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, shape).astype(np.float32)
    w4 = rng.normal(0, 0.5, (f, c, k, k)).astype(np.float32)
    bias = rng.normal(0, 0.5, f).astype(np.float32)
    dy = rng.normal(0, 1, (n, f, oh, ow)).astype(np.float32)

    def run(name):
        arm = CONV_ARMS[name]
        y, saved = arm.forward(x, w4, bias, stride, pad,
                               want_saved=want_saved)
        dx, dw = arm.backward(x, w4, dy, stride, pad, saved=saved,
                              need_dx=need_dx)
        return {"y": y, "dx": dx, "dw": dw}

    clear_plan_cache()
    try:
        assert get_plan(shape, k, k, stride, pad).b == n
        whole = run("blas-fat")
        monkeypatch.setattr(plan_module, "BLOCK_BYTES",
                            4 * c * k * k * oh * ow * b)
        clear_plan_cache()
        assert get_plan(shape, k, k, stride, pad).b == b
        assert _same_bits_and_layout(run("blas-fat"), whole)
    finally:
        clear_plan_cache()


@pytest.mark.parametrize("cotangent", ["negative-zero", "nan", "all-zero"])
@pytest.mark.parametrize("weights", ["finite", "negative", "nan", "inf"])
@pytest.mark.parametrize("shape,f,k,pad", [
    ((3, 4, 16, 16), 6, 3, 1),
    ((2, 3, 16, 22), 5, 5, 2),
])
def test_direct_fill_keeps_the_exact_arms_bytes_on_hostile_values(
        shape, f, k, pad, weights, cotangent):
    """blas-fat's direct fill writes ``W_s^T 0`` onto cells no slot
    covers, which is ``+0.0`` only for a finite ``W`` (all-negative
    included: ``-0.0`` products still sum to ``+0.0``); with a NaN or
    ±Inf weight it re-zeroes them.  Either way its ``dx`` and ``dw``
    are reference's bytes, with -0.0, NaN or nothing but zeros in
    ``dy``."""
    n, c, h, w = shape
    oh, ow = conv_output_hw(h, w, k, k, 1, pad)
    rng = np.random.default_rng(5)
    x = rng.normal(0, 1, shape).astype(np.float32)
    w4 = rng.normal(0, 0.5, (f, c, k, k)).astype(np.float32)
    dy = rng.normal(0, 1, (n, f, oh, ow)).astype(np.float32)
    if weights == "negative":
        w4 = -np.abs(w4)
    elif weights == "nan":
        w4[1, 0, 0, 0] = np.nan
    elif weights == "inf":
        w4[0, 1, -1, -1], w4[-1, -1, 0, -1] = np.inf, -np.inf
    if cotangent == "negative-zero":
        dy[rng.random(dy.shape) < 0.3] = -0.0
    elif cotangent == "nan":
        dy[rng.random(dy.shape) < 0.05] = np.nan
    else:
        dy[:] = 0.0
    assert plan_module.direct_fill(1, oh, w + 2 * pad)
    outs = {}
    for name in ("reference", "blas-fat"):
        arm = CONV_ARMS[name]
        with np.errstate(invalid="ignore"):
            y, saved = arm.forward(x, w4, None, 1, pad, want_saved=True)
            outs[name] = arm.backward(x, w4, dy, 1, pad, saved=saved)
    for got, want in zip(outs["blas-fat"], outs["reference"]):
        assert bit_identical(got, want)


def _same_pool_outputs(inputs):
    """The one max-pool body and ``maxpool_reference``: the bytes and
    strides of ``y``, ``argmax`` and ``dx``."""
    got, want = _pool_body(inputs), _pool_reference(inputs)
    return all(bit_identical(got[key], ref)
               and got[key].strides == ref.strides
               for key, ref in want.items())


def test_blocked_maxpool_general_path_stays_bit_identical(monkeypatch):
    """-inf padding, overlapping windows, NaN and signed-zero ties: the
    general path gathers through the one-block pad workspace, two
    samples and then a ragged one at a time."""
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, (5, 3, 7, 7)).astype(np.float32)
    x[:, :, 0, :2] = (0.0, -0.0)
    x[1::2, :, 3, 3] = np.nan
    dy = rng.normal(0, 1, (5, 3, 4, 4)).astype(np.float32)
    # One sample's (27, 16) float32 columns: blocks of two samples.
    monkeypatch.setattr(plan_module, "BLOCK_BYTES", 4 * 27 * 16 * 2)
    clear_plan_cache()
    try:
        assert _same_pool_outputs((x, dy, 3, 3, 2, 1))
        assert get_plan(x.shape, 3, 3, 2, 1).blocks == ((0, 2), (2, 4),
                                                        (4, 5))
    finally:
        clear_plan_cache()


def test_bit_identical_means_bytes():
    pos, neg = np.float32([0.0, 1.0]), np.float32([-0.0, 1.0])
    nan = np.float32([np.nan])
    assert np.array_equal(pos, neg) and not bit_identical(pos, neg)
    assert not np.array_equal(nan, nan) and bit_identical(nan, nan)
    assert not bit_identical(pos, pos.astype(np.float64))
    assert not bit_identical(pos, pos.reshape(1, 2))
    assert bit_identical(pos[::-1], np.float32([1.0, 0.0]))  # strided ok


def test_signed_zero_swap_is_caught_under_the_exact_contract(monkeypatch):
    """A max-pool body returning -0.0 wherever the truth is +0.0."""
    forward = KernelPlan.maxpool_forward

    def negzero(self, x, arena=NULL_ARENA):
        y, argmax = forward(self, x, arena)
        y = y.copy()
        y[(y == 0) & ~np.signbit(y)] = -0.0
        return y, argmax

    monkeypatch.setattr(KernelPlan, "maxpool_forward", negzero)
    violations = [v for seed in range(4) for v in verify_backends(seed)]
    assert violations, "== would have waved -0.0 through as +0.0"
    assert _oracle_subjects(violations) == {"maxpool2d"}
    assert all(v.detail.startswith("y:") for v in violations)


@pytest.mark.parametrize("window", [
    (0.0, -0.0, -1.0, -1.0),
    (-0.0, 0.0, -1.0, -1.0),
    (-1.0, -0.0, 0.0, -0.0),
    (-1.0, np.nan, -1.0, -1.0),
    (2.0, -1.0, np.nan, np.nan),
    (np.nan, 3.0, np.nan, -np.inf),
    (-np.inf, -np.inf, -np.inf, -np.inf),
])
def test_default_maxpool_equals_reference_on_hostile_windows(window):
    """Disjoint 2x2/s2 windows (every VGG pool): the fast path must return
    the bytes of the *first* maximum, and the first NaN when there is one."""
    x = np.full((2, 3, 4, 4), -2.0, np.float32)
    x[1, 2, 2:4, 0:2] = np.float32(window).reshape(2, 2)
    dy = np.arange(2 * 3 * 2 * 2, dtype=np.float32).reshape(2, 3, 2, 2)
    assert _same_pool_outputs((x, dy, 2, 2, 2, 0))


def test_wrong_exact_arm_is_caught(monkeypatch):
    """A ``pack_bits`` body that flips one stored bit."""
    pack_bits = binarize.pack_bits

    def evil(mask, arena=NULL_ARENA):
        out = pack_bits(mask, arena).copy()
        if out.size:
            out.view(np.uint8)[0] ^= np.uint8(1)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(binarize, "pack_bits", evil)
        violations = verify_backends(11)
    assert violations, "oracle missed a bit-flipping exact body"
    assert _oracle_subjects(violations) == {"pack_bits"}
    assert all(v.oracle == ORACLE_BACKEND_DIFFERENTIAL for v in violations)
    # The injected body must not poison later clean runs.
    assert verify_backends(11) == []


class _DriftingConv(ConvBackend):
    """Delegates to the reference arm, then drifts y far past its
    declared tolerance."""

    name = "evil-tolerance"
    exact = False
    tolerance = 1e-7

    def forward(self, x, w4, bias, stride, pad, arena=NULL_ARENA,
                want_saved=False):
        y, saved = CONV_ARMS[REFERENCE].forward(
            x, w4, bias, stride, pad, arena=arena, want_saved=want_saved
        )
        return y + np.float32(0.5), saved

    def backward(self, x, w4, dy, stride, pad, arena=NULL_ARENA, saved=None):
        return CONV_ARMS[REFERENCE].backward(
            x, w4, dy, stride, pad, arena=arena, saved=saved
        )


def test_tolerance_violation_is_caught(monkeypatch):
    monkeypatch.setitem(CONV_ARMS, "evil-tolerance", _DriftingConv())
    violations = verify_backends(5)
    assert violations
    assert _oracle_subjects(violations) == {"conv2d:evil-tolerance"}
    assert any("tolerance" in v.detail for v in violations)


class _NaNConv(_DriftingConv):
    """A tolerance arm that puts one NaN into an otherwise correct y: its
    max |err| is NaN, which compares False against any bound."""

    name = "evil-nan"

    def forward(self, x, w4, bias, stride, pad, arena=NULL_ARENA,
                want_saved=False):
        y, saved = CONV_ARMS[REFERENCE].forward(
            x, w4, bias, stride, pad, arena=arena, want_saved=want_saved
        )
        y = y.copy()
        y.reshape(-1)[0] = np.nan
        return y, saved


def test_nan_under_a_tolerance_contract_is_caught(monkeypatch):
    monkeypatch.setitem(CONV_ARMS, "evil-nan", _NaNConv())
    violations = [v for seed in range(10) for v in verify_backends(seed)]
    assert len(violations) == 20  # both trials of every seed
    assert _oracle_subjects(violations) == {"conv2d:evil-nan"}
    assert all(v.detail.startswith("y: 1 non-finite element(s)")
               for v in violations)


class _BitFlipConv(ConvBackend):
    """Claims the exact contract, delegates to the reference arm, then
    flips the lowest bit of one weight-gradient element."""

    name = "evil-bitflip"

    def forward(self, x, w4, bias, stride, pad, arena=NULL_ARENA,
                want_saved=False):
        return CONV_ARMS[REFERENCE].forward(x, w4, bias, stride, pad,
                                            arena=arena,
                                            want_saved=want_saved)

    def backward(self, x, w4, dy, stride, pad, arena=NULL_ARENA, saved=None):
        dx, dw = CONV_ARMS[REFERENCE].backward(x, w4, dy, stride, pad,
                                               arena=arena, saved=saved)
        dw = dw.copy()
        dw.reshape(-1).view(np.uint32)[0] ^= np.uint32(1)
        return dx, dw


def test_wrong_exact_conv_arm_is_caught(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setitem(CONV_ARMS, "evil-bitflip", _BitFlipConv())
        violations = verify_backends(7)
    assert violations, "oracle missed a bit-flipping exact conv arm"
    assert _oracle_subjects(violations) == {"conv2d:evil-bitflip"}
    assert all(v.detail.startswith("dw: ") and "under the exact contract"
               in v.detail for v in violations)
    # Taking the arm out of the table leaves the oracle clean again.
    assert verify_backends(7) == []


def test_scrambled_argmax_is_caught(monkeypatch):
    """A max-pool body whose Y-to-X map names the wrong window slot."""
    forward = KernelPlan.maxpool_forward

    def scrambled(self, x, arena=NULL_ARENA):
        y, argmax = forward(self, x, arena)
        return y, (argmax + np.uint8(1)) % np.uint8(self.S)

    monkeypatch.setattr(KernelPlan, "maxpool_forward", scrambled)
    violations = verify_backends(2)
    assert violations
    assert _oracle_subjects(violations) == {"maxpool2d"}
    assert any(v.detail.startswith("argmax:") for v in violations)


def test_crashing_arm_is_a_finding_not_an_abort(monkeypatch):
    def crash(x, cols=ssdc.NARROW_COLS, value_dtype=None):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(ssdc, "csr_encode", crash)
    violations = verify_backends(3)
    assert violations
    assert _oracle_subjects(violations) == {"csr_encode"}
    assert all("crashed" in v.detail for v in violations)


def test_violations_carry_the_seed_for_replay(monkeypatch):
    pack_bits = binarize.pack_bits
    monkeypatch.setattr(
        binarize, "pack_bits",
        lambda mask, arena=NULL_ARENA: pack_bits(mask, arena)
        | np.uint32(1))
    violations = verify_backends(42)
    assert violations
    assert _oracle_subjects(violations) == {"pack_bits"}
    assert all(v.seed == 42 for v in violations)


def test_oracle_is_seed_deterministic(monkeypatch):
    monkeypatch.setitem(CONV_ARMS, "evil-tolerance", _DriftingConv())
    first = verify_backends(9)
    second = verify_backends(9)
    assert [str(v) for v in first] == [str(v) for v in second]
    assert first


def test_csr_inputs_plant_hostile_structure_without_moving_the_rng():
    seen = Counter()
    for seed in range(120):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        flat, cols = _make_csr_inputs(rng)
        # The pre-plant draws, replayed: size, mask, values, cols.
        size = int(ref.choice([0, 1, int(ref.integers(1, 900))]))
        ref.random(size), ref.normal(0, 2, size)
        assert cols == int(ref.choice([7, 32, 256, 300]))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert flat.dtype == np.float32 and size - 1 <= flat.size <= size
        rows = flat[: flat.size // cols * cols].reshape(-1, cols)
        seen["-0.0"] += bool((np.signbit(flat) & (flat == 0)).any())
        seen["nan"] += bool(np.isnan(flat).any())
        seen["all-zero row"] += bool((rows == 0).all(axis=1).any())
        seen["all-dense row"] += bool((rows != 0).all(axis=1).any())
        seen["ragged tail"] += bool(flat.size > cols and flat.size % cols)
    assert all(seen[k] >= 20 for k in
               ("-0.0", "nan", "all-zero row", "all-dense row",
                "ragged tail")), seen


def test_concat_inputs_carry_every_hostile_bit_pattern():
    patterns = set(_HOSTILE_F32.view(np.uint32).tolist())
    seen, all_zero = set(), 0
    for seed in range(40):
        xs, dy = _make_concat_inputs(np.random.default_rng(seed))
        assert dy.shape[1] == sum(x.shape[1] for x in xs)
        for x in xs + [dy]:
            seen.update(x.view(np.uint32).ravel().tolist())
        all_zero += xs[-1].size > 0 and not xs[-1].any()
    assert patterns <= seen
    assert all_zero >= 10


def test_arithmetic_concat_copy_is_caught(monkeypatch):
    # x + 0.0 turns -0.0 into +0.0 and may quiet a signalling NaN: equal
    # under ==, different bytes.
    forward = Concat.forward

    def added(self, xs, params, ctx, train=True):
        return forward(self, [x + np.float32(0.0) for x in xs], params, ctx,
                       train)

    monkeypatch.setattr(Concat, "forward", added)
    violations = [v for seed in range(5) for v in verify_backends(seed)]
    assert violations
    assert _oracle_subjects(violations) == {"concat", "concat:chain-link"}
    assert all(v.detail.startswith("y:") for v in violations)


def test_concat_skipping_an_input_not_in_place_is_caught(monkeypatch):
    monkeypatch.setattr(merge, "_same_view", lambda a, b: True)
    violations = [v for seed in range(5) for v in verify_backends(seed)]
    assert {"concat", "concat:chain-link"} <= _oracle_subjects(violations)


@pytest.mark.parametrize("name,is_nonzero", [
    ("evil-negzero-kept", lambda flat: flat.view(np.uint32) != 0),
    ("evil-nan-dropped", lambda flat: (flat > 0) | (flat < 0)),
])
def test_planted_values_catch_a_wrong_notion_of_zero(monkeypatch, name,
                                                    is_nonzero):
    """A ``csr_encode`` body that is right but for what it calls a zero."""
    csr_encode = ssdc.csr_encode

    def build(x, cols=ssdc.NARROW_COLS, value_dtype=None):
        flat = np.asarray(x, np.float32).ravel()
        enc = csr_encode(np.where(is_nonzero(flat), np.float32(1),
                                  np.float32(0)), cols)
        return dataclasses.replace(enc, values=flat[ssdc.csr_positions(enc)])

    monkeypatch.setattr(ssdc, "csr_encode", build)
    violations = [v for seed in range(6) for v in verify_backends(seed)]
    assert _oracle_subjects(violations) == {"csr_encode"}, name
