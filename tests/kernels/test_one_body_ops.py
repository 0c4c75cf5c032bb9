"""The one-body ops on the shapes and data training runs them on.

Max-pool and the codec packers run one body each, and the loop kernel
beside each body is its ground truth.  The differential oracle checks
them on small random draws; these tests check them on every max-pool
signature of the ledger models (batch 16) and the golden models, and on
the Binarize and SSDC maps of one live ``vgg_gist`` forward.
"""

import numpy as np
import pytest

from repro.diagnostics.golden import GOLDEN_MODELS
from repro.encodings import binarize, ssdc
from repro.kernels.arena import NULL_ARENA
from repro.kernels.plan import KernelPlan, bit_identical
from repro.layers.im2col import conv_output_hw
from repro.models import build_model
from repro.train import GistPolicy, GraphExecutor
from repro.train.data import make_synthetic_for
from repro.verify.differential import _pool_body, _pool_reference


def _maxpool_signatures():
    """Distinct ``(x shape, kh, kw, stride, pad)`` of every max-pool."""
    builds = [(model, {"batch_size": 16})
              for model in ("scaled_vgg", "densenet")]
    builds += GOLDEN_MODELS.items()
    signatures = set()
    for model, kwargs in builds:
        graph = build_model(model, **kwargs)
        for node in graph.nodes:
            if node.kind == "maxpool":
                pool = node.layer
                (shape,) = node.input_shapes(graph)
                signatures.add((tuple(shape), pool.kh, pool.kw,
                                pool.stride, pool.pad))
    return sorted(signatures)


SIGNATURES = _maxpool_signatures()


@pytest.mark.parametrize(
    "shape,kh,kw,stride,pad", SIGNATURES,
    ids=[f"{'x'.join(map(str, s))}-k{kh}x{kw}s{st}p{p}"
         for s, kh, kw, st, p in SIGNATURES])
def test_maxpool_body_is_its_reference_on_every_model_signature(
        shape, kh, kw, stride, pad):
    n, c, h, w = shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, shape).astype(np.float32)
    # Hostile windows: a signed-zero tie over -inf heading the first
    # plane, a NaN among -inf in the last one.
    x[0, 0, :kh, :kw] = -np.inf
    x[0, 0, 0, :2] = (-0.0, 0.0)
    x[-1, -1, :kh, :kw] = -np.inf
    x[-1, -1, kh - 1, kw - 1] = np.nan
    dy = rng.normal(0, 1, (n, c, oh, ow)).astype(np.float32)
    inputs = (x, dy, kh, kw, stride, pad)
    got, want = _pool_body(inputs), _pool_reference(inputs)
    assert set(got) == {"y", "argmax", "dx"}
    for key, ref in want.items():
        assert bit_identical(got[key], ref), key
        assert got[key].strides == ref.strides, key


def test_codec_bodies_are_their_references_on_live_vgg_gist_maps(
        monkeypatch):
    """One batch-16 ``vgg_gist`` forward: every mask ``pack_bits`` packs
    and every map ``csr_encode`` stashes, against the loop kernels."""
    graph = build_model("scaled_vgg", batch_size=16)
    executor = GraphExecutor(graph, GistPolicy(graph), seed=0)
    data, _ = make_synthetic_for(graph.node(graph.input_id).output_shape,
                                 num_samples=16, seed=0)
    pack_bits, csr_encode = binarize.pack_bits, ssdc.csr_encode
    masks, maps = [], []

    def record_mask(mask, arena=NULL_ARENA):
        masks.append(mask.copy())  # rented: released once it is packed
        return pack_bits(mask, arena)

    def record_map(x, cols=ssdc.NARROW_COLS, value_dtype=None):
        maps.append((x.copy(), cols, value_dtype))
        return csr_encode(x, cols, value_dtype)

    monkeypatch.setattr(binarize, "pack_bits", record_mask)
    monkeypatch.setattr(ssdc, "csr_encode", record_map)
    executor.forward(data.images[:16], data.labels[:16])
    assert (len(masks), len(maps)) == (4, 6)

    for mask in masks:
        assert bit_identical(pack_bits(mask),
                             binarize.pack_bits_reference(mask))
    for x, cols, value_dtype in maps:
        got = csr_encode(x, cols, value_dtype)
        want = ssdc.csr_encode_reference(x, cols, value_dtype)
        assert value_dtype is not None and got.nnz > 0
        assert (got.shape, got.cols) == (want.shape, want.cols)
        assert bit_identical(got.col_idx, want.col_idx)
        assert bit_identical(got.row_ptr, want.row_ptr)
        assert bit_identical(got.values.words, want.values.words)


def _is_disjoint(shape, kh, kw, stride, pad):
    _, _, h, w = shape
    return (pad == 0 and stride == kh == kw
            and h % kh == 0 and w % kw == 0)


@pytest.mark.parametrize(
    "shape,kh,kw,stride,pad", SIGNATURES,
    ids=[f"{'x'.join(map(str, s))}-k{kh}x{kw}s{st}p{p}"
         for s, kh, kw, st, p in SIGNATURES])
def test_maxpool_body_is_its_reference_on_relu_like_maps(
        monkeypatch, shape, kh, kw, stride, pad):
    """The maps training pools: NHWC-strided (as the planned convs hand
    them out), ReLU-like — most values exact ``+0.0``, so whole windows
    tie at zero — and drawn from a few finite levels, so positive maxima
    repeat inside a window.  Tiled windows must take the disjoint path,
    the others the general one."""
    n, c, h, w = shape
    oh, ow = conv_output_hw(h, w, kh, kw, stride, pad)
    rng = np.random.default_rng(1)
    levels = np.maximum(rng.integers(-4, 4, (n, h, w, c)), 0)
    x = (levels * np.float32(0.25)).astype(np.float32).transpose(0, 3, 1, 2)
    assert not x.flags["C_CONTIGUOUS"]
    assert np.count_nonzero(x) <= x.size // 2
    dy = rng.normal(0, 1, (n, c, oh, ow)).astype(np.float32)
    inputs = (x, dy, kh, kw, stride, pad)

    general = []
    im2col = KernelPlan.im2col

    def spy(self, *args, **kwargs):
        general.append(self.shape)
        return im2col(self, *args, **kwargs)

    monkeypatch.setattr(KernelPlan, "im2col", spy)
    got = _pool_body(inputs)
    assert bool(general) != _is_disjoint(shape, kh, kw, stride, pad)
    monkeypatch.undo()
    want = _pool_reference(inputs)
    assert set(got) == {"y", "argmax", "dx"}
    for key, ref in want.items():
        assert bit_identical(got[key], ref), key
        assert got[key].strides == ref.strides, key


def test_most_model_pools_take_the_disjoint_path():
    assert sum(_is_disjoint(*sig) for sig in SIGNATURES) >= 7
