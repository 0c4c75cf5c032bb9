"""Kernel differential oracle (dual-executor style): every kernel body a
step can run, against its ground truth.

For each op family the oracle draws shared random inputs, runs the op's
ground truth and every body held to it end to end (forward and backward
for the layer ops), and compares their named outputs:

* ``conv2d`` is the one op with a choice of arms
  (:data:`repro.kernels.backends.CONV_ARMS`).  Every arm but
  ``reference`` is held to the ``reference`` arm under the contract it
  declares: an ``exact=True`` arm byte for byte
  (:func:`~repro.kernels.plan.bit_identical`: dtype, shape and
  ``tobytes()``, so ``-0.0`` is not ``+0.0`` and a NaN matches itself),
  an ``exact=False`` arm within the tolerance it declared on finite
  values, with every NaN or Inf on either side matching the reference
  bit for bit.
* Max-pool and the two codec packers run one body each, held byte for
  byte to the loop kernel beside it: ``KernelPlan.maxpool_forward`` /
  ``maxpool_backward`` to :func:`~repro.layers.im2col.maxpool_reference`
  / :func:`~repro.layers.im2col.maxpool_backward_reference`, and
  :func:`~repro.encodings.binarize.pack_bits` and
  :func:`~repro.encodings.ssdc.csr_encode` to their ``*_reference``
  twins.  Bodies are looked up at call time, so the oracle checks what
  a training step runs.
* ``Concat`` runs one body, held byte for byte to ``np.concatenate``
  (forward) and ``np.split`` (backward) on NaNs with payload bits,
  ±Inf, ``-0.0``, denormals and an all-zero map: once writing a fresh
  array, once as a chain link whose first input already sits in the
  front of the output buffer.

The oracle is part of the tier-1 fuzz battery (:func:`verify_seed` calls
:func:`verify_backends` per seed), so neither a new arm nor a changed
body can land without holding its contract under randomized shapes,
strides, padding, ties and empty inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple

import numpy as np

from repro.encodings import binarize, ssdc
from repro.kernels.backends import CONV_ARMS, REFERENCE
from repro.kernels.plan import bit_identical, get_plan
from repro.layers import Concat
from repro.layers.base import OpContext
from repro.layers.im2col import (
    conv_output_hw,
    maxpool_backward_reference,
    maxpool_reference,
)
from repro.verify.oracles import Violation

ORACLE_BACKEND_DIFFERENTIAL = "backend-differential"

#: Shared-input trials per op family per seed (shapes re-randomized each
#: trial, so a 25-seed smoke batch covers ~50 signatures per family).
TRIALS = 2

Outputs = Dict[str, np.ndarray]


class Body(NamedTuple):
    """One implementation held to an op's ground truth, under its
    contract: ``run(inputs)`` returns its named outputs."""

    subject: str
    run: Callable[[tuple], Outputs]
    exact: bool = True
    tolerance: float = 0.0


@dataclass(frozen=True)
class OpFamily:
    """One op's shared-input draw, its ground truth and the bodies held
    to it.

    ``make_inputs(rng)`` draws a small randomized input tuple; ``truth``
    and each body of ``bodies()`` map it to named output arrays.
    ``bodies`` is read per trial, so an arm added since is checked.
    """

    make_inputs: Callable[[np.random.Generator], tuple]
    truth_name: str
    truth: Callable[[tuple], Outputs]
    bodies: Callable[[], List[Body]]


# ----------------------------------------------------------------------
# Shared-input draws
# ----------------------------------------------------------------------
def _make_conv_inputs(rng: np.random.Generator) -> tuple:
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    f = int(rng.integers(1, 5))
    kh = kw = int(rng.choice([1, 2, 3]))
    stride = int(rng.choice([1, 2]))
    pad = int(rng.integers(0, 2))
    h = int(rng.integers(max(2, kh), 8))
    w = int(rng.integers(max(2, kw), 8))
    if h + 2 * pad < kh or w + 2 * pad < kw:  # pragma: no cover - guarded
        h, w = kh, kw
    x = rng.normal(0, 1, (n, c, h, w)).astype(np.float32)
    w4 = rng.normal(0, 0.5, (f, c, kh, kw)).astype(np.float32)
    bias = (rng.normal(0, 0.5, f).astype(np.float32)
            if rng.random() < 0.5 else None)
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    dy = rng.normal(0, 1, (n, f, oh, ow)).astype(np.float32)
    return x, w4, bias, dy, stride, pad


def _make_pool_inputs(rng: np.random.Generator) -> tuple:
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    kh = kw = int(rng.choice([2, 3]))
    stride = int(rng.choice([1, 2, kh]))
    pad = int(rng.integers(0, min(2, (kh + 1) // 2)))
    h = int(rng.integers(kh, 9))
    w = int(rng.integers(kw, 9))
    x = rng.normal(0, 1, (n, c, h, w)).astype(np.float32)
    # Plant exact ties so tie-breaking order is part of the contract.
    if h >= 2:
        x[:, :, 0, :] = x[:, :, 1, :]
    # ... and a signed-zero tie heading the first window of every plane,
    # [+0, -0] on even planes and [-0, +0] on odd ones: equal under ==,
    # different bits, so "the first maximum" must mean that element.
    planes = x.reshape(n * c, h, w)
    planes[:, :kh, :kw] = -1.0
    planes[0::2, 0, :2] = (0.0, -0.0)
    planes[1::2, 0, :2] = (-0.0, 0.0)
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    dy = rng.normal(0, 1, (n, c, oh, ow)).astype(np.float32)
    return x, dy, kh, kw, stride, pad


def _make_pack_bits_inputs(rng: np.random.Generator) -> tuple:
    size = int(rng.choice([0, 1, 7, 31, 32, 33, int(rng.integers(1, 400))]))
    return ((rng.random(size) < 0.5),)


def _make_csr_inputs(rng: np.random.Generator) -> tuple:
    size = int(rng.choice([0, 1, int(rng.integers(1, 900))]))
    flat = np.where(rng.random(size) < 0.7, 0.0,
                    rng.normal(0, 2, size)).astype(np.float32)
    cols = int(rng.choice([7, 32, 256, 300]))
    # Hostile structure, planted after the last draw so it costs none (the
    # fuzz decision stream must not depend on it): a ragged last row, an
    # all-zero row, an all-dense row, and the two values whose "is it a
    # zero?" answer is easy to get wrong (-0.0 is one, NaN is not).
    if size > 1 and size % cols == 0:
        flat = flat[:-1]
    rows = flat[: flat.size // cols * cols].reshape(-1, cols)
    rows[:1] = 0.0
    dense = rows[1:2]
    dense[dense == 0] = 1.0
    if flat.size > 1:
        flat[-2:] = (-0.0, np.nan)
    return flat, cols


#: Float32 bit patterns a copy must carry unchanged: quiet and
#: signalling NaNs with payloads (one negative), +-Inf, -0.0, +0.0 and
#: denormals down to the smallest.
_HOSTILE_F32 = np.array(
    [0x7FC0BEEF, 0x7F800001, 0xFFC00042, 0x7F800000, 0xFF800000,
     0x80000000, 0x00000000, 0x00000001, 0x807FFFFF, 0x00400000],
    dtype=np.uint32).view(np.float32)


def _plant_hostile(arr: np.ndarray, shift: int) -> None:
    """Overwrite the leading elements with the hostile patterns, rotated
    by ``shift`` so each input carries them at different positions."""
    flat = arr.reshape(-1)
    k = min(flat.size, _HOSTILE_F32.size)
    flat[:k] = np.roll(_HOSTILE_F32, shift)[:k]


def _make_concat_inputs(rng: np.random.Generator) -> tuple:
    n = int(rng.integers(1, 3))
    rest = tuple(int(d) for d in rng.integers(1, 4, int(rng.integers(0, 3))))
    channels = [int(c) for c in rng.integers(0, 4, int(rng.integers(2, 5)))]
    xs = [rng.normal(0, 1, (n, c) + rest).astype(np.float32)
          for c in channels]
    dy = rng.normal(0, 1, (n, sum(channels)) + rest).astype(np.float32)
    # Hostile values after the last draw; the last input is all zeros.
    for i, x in enumerate(xs):
        _plant_hostile(x, i)
    xs[-1][...] = 0.0
    _plant_hostile(dy, 3)
    return xs, dy


# ----------------------------------------------------------------------
# Ground truths and bodies
# ----------------------------------------------------------------------
def _run_conv(arm, inputs: tuple) -> Outputs:
    x, w4, bias, dy, stride, pad = inputs
    y, saved = arm.forward(x, w4, bias, stride, pad, want_saved=True)
    dx, dw = arm.backward(x, w4, dy, stride, pad, saved=saved)
    return {"y": y, "dx": dx, "dw": dw}


def _conv_arms() -> List[Body]:
    return [Body(f"conv2d:{name}", partial(_run_conv, arm), arm.exact,
                 arm.tolerance)
            for name, arm in sorted(CONV_ARMS.items()) if name != REFERENCE]


def _pool_reference(inputs: tuple) -> Outputs:
    x, dy, kh, kw, stride, pad = inputs
    y, argmax = maxpool_reference(x, kh, kw, stride, pad)
    dx = maxpool_backward_reference(argmax, dy, x.shape, kh, kw, stride, pad)
    return {"y": y, "argmax": argmax, "dx": dx}


def _pool_body(inputs: tuple) -> Outputs:
    x, dy, kh, kw, stride, pad = inputs
    plan = get_plan(x.shape, kh, kw, stride, pad)
    y, argmax = plan.maxpool_forward(x)
    return {"y": y, "argmax": argmax, "dx": plan.maxpool_backward(argmax, dy)}


def _concat_outputs(y: np.ndarray, dxs) -> Outputs:
    return {"y": y, **{f"dx{i}": dx for i, dx in enumerate(dxs)}}


def _concat_reference(inputs: tuple) -> Outputs:
    xs, dy = inputs
    edges = np.cumsum([x.shape[1] for x in xs])[:-1]
    return _concat_outputs(np.concatenate(xs, axis=1),
                           np.split(dy, edges, axis=1))


class _ChainContext(OpContext):
    """A standalone context whose output buffer is the channel prefix of
    ``buffer`` (``None``: a fresh array)."""

    def __init__(self, buffer=None):
        self.buffer = buffer
        self.state: Dict[str, np.ndarray] = {}

    def save_state(self, key, value):
        self.state[key] = value

    def get_state(self, key):
        return self.state[key]

    def stashed_input(self, index=0):  # pragma: no cover - Concat reads none
        raise KeyError("Concat stashes nothing")

    stashed_output = stashed_input

    def output_buffer(self, shape, dtype):
        if self.buffer is None:
            return super().output_buffer(shape, dtype)
        return self.buffer[:, :shape[1]]


def _concat_body(in_chain: bool, inputs: tuple) -> Outputs:
    """``Concat``'s one body; ``in_chain`` runs it as a chain link: the
    first input already sits in the front of a buffer one channel wider
    than the output, as the executor's chain buffers hold it."""
    xs, dy = inputs
    ctx = _ChainContext()
    if in_chain:
        first = xs[0]
        ctx.buffer = np.full(
            (first.shape[0], 1 + sum(x.shape[1] for x in xs))
            + first.shape[2:], np.nan, np.float32)
        xs = [ctx.output_buffer(first.shape, first.dtype)] + xs[1:]
        xs[0][...] = first
    layer = Concat()
    y = layer.forward(xs, {}, ctx)
    dxs, _ = layer.backward(dy, {}, ctx)
    return _concat_outputs(y, dxs)


def _csr_outputs(enc: ssdc.CSRTensor) -> Outputs:
    return {"values": enc.values, "col_idx": enc.col_idx,
            "row_ptr": enc.row_ptr}


def _codec(make_inputs, module, name: str,
           outputs=lambda out: {"out": out}) -> OpFamily:
    """A one-body codec: ``module.<name>`` held to
    ``module.<name>_reference``, both looked up per call."""
    def run(fn_name, inputs):
        return outputs(getattr(module, fn_name)(*inputs))

    body = Body(name, partial(run, name))
    return OpFamily(make_inputs, f"{name}_reference",
                    partial(run, f"{name}_reference"), lambda: [body])


OP_FAMILIES = (
    OpFamily(_make_conv_inputs, f"conv2d:{REFERENCE}",
             lambda inputs: _run_conv(CONV_ARMS[REFERENCE], inputs),
             _conv_arms),
    OpFamily(_make_pool_inputs, "maxpool_reference",
             _pool_reference, lambda: [Body("maxpool2d", _pool_body)]),
    _codec(_make_pack_bits_inputs, binarize, "pack_bits"),
    _codec(_make_csr_inputs, ssdc, "csr_encode", _csr_outputs),
    OpFamily(_make_concat_inputs, "np.concatenate/np.split",
             _concat_reference,
             lambda: [Body("concat", partial(_concat_body, False)),
                      Body("concat:chain-link",
                           partial(_concat_body, True))]),
)


# ----------------------------------------------------------------------
# The comparison loop
# ----------------------------------------------------------------------
def _max_abs(arr: np.ndarray) -> float:
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr.astype(np.float64, copy=False))))


def _compare_outputs(truth_name: str, body: Body, ref_out: Outputs,
                     got_out: Outputs) -> List[Violation]:
    """One body's outputs vs the ground truth's, under its contract.

    Both sides are this module's own adapters, so they name the same
    outputs."""
    violations: List[Violation] = []
    subject = body.subject
    for key in sorted(ref_out):
        ref = np.asarray(ref_out[key])
        got = np.asarray(got_out[key])
        if got.shape != ref.shape or got.dtype != ref.dtype:
            violations.append(Violation(
                ORACLE_BACKEND_DIFFERENTIAL,
                f"{key}: shape/dtype {got.shape}/{got.dtype} != reference "
                f"{ref.shape}/{ref.dtype}", subject=subject,
            ))
            continue
        if body.exact:
            if not bit_identical(ref, got):
                bits = f"u{ref.itemsize}"
                n_bad = int(np.sum(ref.view(bits) != got.view(bits)))
                err = _max_abs(ref.astype(np.float64)
                               - got.astype(np.float64))
                violations.append(Violation(
                    ORACLE_BACKEND_DIFFERENTIAL,
                    f"{key}: {n_bad} element(s) differ from {truth_name} "
                    f"under the exact contract (max |err| {err:.3e})",
                    subject=subject,
                ))
            continue
        # The bound covers finite values only: a NaN or Inf on either side
        # must match the reference bit for bit (a NaN error compares
        # False against any bound).
        finite = np.isfinite(ref) & np.isfinite(got)
        bits = f"u{ref.itemsize}"
        n_wild = int(np.sum(~finite & (ref.view(bits) != got.view(bits))))
        if n_wild:
            violations.append(Violation(
                ORACLE_BACKEND_DIFFERENTIAL,
                f"{key}: {n_wild} non-finite element(s) differ from "
                f"{truth_name} (tolerance={body.tolerance:g} bounds "
                f"finite values only)", subject=subject,
            ))
            continue
        bound = body.tolerance * max(1.0, _max_abs(ref[finite]))
        err = _max_abs(ref[finite].astype(np.float64)
                       - got[finite].astype(np.float64))
        if err > bound:
            violations.append(Violation(
                ORACLE_BACKEND_DIFFERENTIAL,
                f"{key}: max |err| {err:.3e} exceeds the declared "
                f"tolerance bound {bound:.3e} "
                f"(tolerance={body.tolerance:g})", subject=subject,
            ))
    return violations


def _check(family: OpFamily, inputs: tuple) -> List[Violation]:
    """One shared input set: the ground truth, then every body on it."""
    try:
        ref_out = family.truth(inputs)
    except Exception as exc:  # noqa: BLE001 — a crash IS the finding
        return [Violation(
            ORACLE_BACKEND_DIFFERENTIAL,
            f"ground truth crashed: {type(exc).__name__}: {exc}",
            subject=family.truth_name,
        )]
    violations: List[Violation] = []
    for body in family.bodies():
        try:
            got_out = body.run(inputs)
        except Exception as exc:  # noqa: BLE001
            violations.append(Violation(
                ORACLE_BACKEND_DIFFERENTIAL,
                f"crashed: {type(exc).__name__}: {exc}",
                subject=body.subject,
            ))
            continue
        violations += _compare_outputs(family.truth_name, body, ref_out,
                                       got_out)
    return violations


def verify_backends(seed: int) -> List[Violation]:
    """The kernel differential oracle over every op family.

    Seed-deterministic: the same seed always exercises the same shapes
    (the fuzz determinism contract), :data:`TRIALS` draws per family.
    """
    rng = np.random.default_rng(seed + 0xBAC7E57)
    violations: List[Violation] = []
    for family in OP_FAMILIES:
        for _ in range(TRIALS):
            violations += _check(family, family.make_inputs(rng))
    return [Violation(v.oracle, v.detail, seed, v.subject)
            for v in violations]
