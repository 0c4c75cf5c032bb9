"""The workspace arena's seam and codec fast-path equivalence.

A rent is a fresh allocation, so what an arena can still get wrong is a
rent site that reads what a rented buffer happens to hold: a poisoned
arena, assigned in place of the default, pins every site through full
executor steps and through the arena-aware codec paths.  The kernel
plans' two shared buffers are not rented; they are poisoned at every
call's first block instead, before the plan refills what it owns.
"""

from dataclasses import is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import HybridPolicy
from repro.diagnostics import capture_digest
from repro.diagnostics.golden import GOLDEN_MODELS, golden_batches
from repro.dtypes import FP16
from repro.encodings.binarize import BinarizeEncoding, pack_bits, unpack_bits
from repro.encodings.ssdc import csr_decode, csr_encode, csr_positions
import repro.kernels.plan as plan_module
from repro.kernels import (
    NULL_ARENA,
    WorkspaceArena,
    clear_plan_cache,
    clear_selection_cache,
    get_plan,
    plan_cache_stats,
)
from repro.memory.hybrid import build_hybrid_plan
from repro.models import build_model, tiny_cnn
from repro.train import (
    SGD,
    BaselinePolicy,
    GistPolicy,
    GraphExecutor,
    HybridExecutionPolicy,
    policy_from_name,
)
from repro.train.data import make_synthetic_for
from tests.conftest import col2im_t


class TestArenaInvariants:
    def test_rent_never_aliases_outstanding(self):
        arena = WorkspaceArena()
        live = [arena.rent((4, 8), np.float32) for _ in range(6)]
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                assert not np.shares_memory(a, b)


class _PoisonedArena(WorkspaceArena):
    """Arena whose every rent arrives filled with ``0xFF`` bytes (NaN as
    float, ``True`` as bool, -1 as int): a site that relies on what a
    rented buffer happens to hold changes the bits downstream."""

    def rent(self, shape, dtype=np.float32):
        arr = super().rent(shape, dtype)
        arr.view(np.uint8).fill(0xFF)
        return arr


@pytest.mark.parametrize("policy", ["baseline", "gist-lossless", "gist-fp16"])
@pytest.mark.parametrize("model", sorted(GOLDEN_MODELS))
def test_one_body_whatever_the_arena(model, policy):
    """Scratch memory is always an arena and every arena runs the same
    statements: the default and a poisoned one give one digest stream."""
    def digests(arena):
        graph = build_model(model, **GOLDEN_MODELS[model])
        executor = GraphExecutor(graph, policy_from_name(policy, graph),
                                 seed=0)
        if arena is not None:
            executor.arena = arena
        return capture_digest(executor, golden_batches(model, 3),
                              optimizer=SGD(lr=0.01, momentum=0.9)).steps

    assert digests(_PoisonedArena()) == digests(None)


def test_plan_workspaces_are_metered_where_no_arena_sees_them():
    """Every plan pads and folds through one shared pad buffer and one
    shared slot-plane buffer, outside every arena, each grown to the
    largest ``b``-sample block that has asked for it and kept until
    ``clear_plan_cache``: ``plan_cache_stats`` reports the two buffers,
    not a sum over plans.  Per sample the slot planes carry ``(kh - 1)*WP
    + kw - 1`` cells of slack, where the direct fill's last run and the
    cells after it end.  The batch-sized columns and gradient rows are
    the arena's rents.  A one-sample and a two-sample block of the same
    layout, in either order."""
    def block_bytes(b):
        padded = b * 3 * 8 * 8
        slack = b * (2 * 8 + 2)
        return 4 * (padded + 9 * padded + slack)

    for batches in ((1, 2), (2, 1)):
        clear_plan_cache()
        for n in batches:
            plan = get_plan((n, 3, 6, 6), 3, 3, 1, 1)
            assert plan.b == n
            col2im_t(plan, plan.im2col(np.ones((n, 3, 6, 6), np.float32)))
        assert plan_cache_stats()["size"] == 2
        assert plan_cache_stats()["workspace_bytes"] == block_bytes(2)
        clear_plan_cache()
        assert plan_cache_stats()["workspace_bytes"] == 0


#: ``plan_cache_stats()`` after one batch-16 step of the ledger's models
#: under their ledger policies: one plan per conv / pool signature, and
#: the shared pad and slot-plane buffers, each the largest sample block of
#: any plan.  One pad and one slot workspace per conv plan read
#: 15 877 680 and 18 545 400 bytes; batch-sized ones 30 154 240 and
#: 98 228 736.
WORKSPACE_PINS = {
    ("scaled_vgg", "baseline"): {"size": 9, "workspace_bytes": 3_585_232},
    ("densenet", "hybrid"): {"size": 9, "workspace_bytes": 2_696_896},
}


@pytest.mark.parametrize("model,policy", sorted(WORKSPACE_PINS))
def test_kernel_workspace_pins(model, policy):
    """The shared pad and slot-plane buffers hold the largest plan's
    sample block, not the batch and not one block per plan: exact
    buffer bytes and plan count after one batch-16 step.  Batch-sized or
    per-plan conv scratch fails here by count if it returns."""
    clear_plan_cache()
    clear_selection_cache()
    graph = build_model(model, batch_size=16)
    plan_policy = (HybridExecutionPolicy(build_hybrid_plan(graph,
                                                           HybridPolicy()))
                   if policy == "hybrid" else BaselinePolicy())
    data, _ = make_synthetic_for(graph.node(graph.input_id).output_shape,
                                 num_samples=16, seed=0)
    executor = GraphExecutor(graph, policy=plan_policy, seed=0)
    executor.forward(data.images, data.labels)
    executor.backward()
    stats = plan_cache_stats()
    assert {key: stats[key] for key in ("size", "workspace_bytes")} == \
        WORKSPACE_PINS[model, policy]
    clear_plan_cache()
    clear_selection_cache()


@pytest.mark.parametrize("model", ["scaled_vgg", "densenet"])
def test_one_digest_whatever_the_shared_buffers_held(monkeypatch, model):
    """The shared pad and slot-plane buffers hold whatever their last
    user left; each call refills the cells its blocks do not write at its
    first block.  So ``0xFF`` bytes (NaN) poured over a buffer before
    every call's first block, and over every newly grown buffer, leave
    three batch-16 ``blas-fat`` steps' digests as they were (both fills
    on VGG, blocks with a ragged tail on both)."""
    def digests():
        clear_plan_cache()
        clear_selection_cache()
        graph = build_model(model, batch_size=16)
        data, _ = make_synthetic_for(
            graph.node(graph.input_id).output_shape, num_samples=16, seed=0)
        executor = GraphExecutor(graph, BaselinePolicy(), seed=0,
                                 kernel_backend="blas-fat")
        return capture_digest(executor, [(data.images, data.labels)] * 3,
                              optimizer=SGD(lr=0.01, momentum=0.9)).steps

    plain = digests()
    head = plan_module._SharedBuffer.head

    def grown_poisoned(self, shape, dtype):
        before = self.buf
        view = head(self, shape, dtype)
        if self.buf is not before:
            self.buf.fill(0xFF)
        return view

    def first_block_poisoned(method, buffer):
        def poisoned(plan, first, n0, *rest, **kw):
            if n0 == 0:
                buffer.buf.fill(0xFF)
            return method(plan, first, n0, *rest, **kw)
        return poisoned

    monkeypatch.setattr(plan_module._SharedBuffer, "head", grown_poisoned)
    for name, buffer in (("_windows", plan_module._PAD),
                         ("_planes", plan_module._SLOTS)):
        method = getattr(plan_module.KernelPlan, name)
        monkeypatch.setattr(plan_module.KernelPlan, name,
                            first_block_poisoned(method, buffer))
    assert digests() == plain
    clear_plan_cache()
    clear_selection_cache()


@pytest.mark.parametrize("policy_cls", [BaselinePolicy, GistPolicy])
def test_executor_ab_bit_identical(policy_cls):
    """Plans on vs off: same losses and parameter gradients, to the bit."""
    rng = np.random.default_rng(1)
    images = rng.normal(0, 1, (4, 3, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 4, 4)
    results = []
    for use_plans in (True, False):
        graph = tiny_cnn(batch_size=4)
        policy = (policy_cls(graph) if policy_cls is GistPolicy
                  else policy_cls())
        ex = GraphExecutor(graph, policy=policy, seed=0,
                           use_kernel_plans=use_plans)
        steps = []
        for _ in range(2):
            loss = ex.forward(images, labels)
            grads = ex.backward()
            steps.append((loss, {k: v.copy() for k, v in grads.items()}))
        results.append(steps)
    on, off = results
    for (loss_on, grads_on), (loss_off, grads_off) in zip(on, off):
        assert loss_on == loss_off
        assert grads_on.keys() == grads_off.keys()
        for key in grads_on:
            assert np.array_equal(grads_on[key], grads_off[key]), key


class TestCodecFastPaths:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**31 - 1))
    def test_pack_bits_arena_matches_plain(self, n, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(n) > 0.5
        words = pack_bits(mask, arena=_PoisonedArena())
        assert np.array_equal(words, pack_bits(mask))
        assert np.array_equal(unpack_bits(words, mask.shape), mask)

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33])
    def test_poisoned_arena_packs_the_same_bytes(self, n):
        rng = np.random.default_rng(n)
        mask = rng.random(n) > 0.5
        x = rng.normal(0, 1, n).astype(np.float32)
        codec = BinarizeEncoding()
        plain = (pack_bits(mask, NULL_ARENA), codec.encode(x).words)
        poisoned = _PoisonedArena()
        codec.bind_arena(poisoned)
        for got, want in zip((pack_bits(mask, poisoned),
                              codec.encode(x).words), plain):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("value_dtype", [None, FP16],
                             ids=["plain", "fp16"])
    def test_csr_stash_holds_exactly_nbytes(self, value_dtype):
        """Memory honesty: a stash keeps alive what ``nbytes`` charges and
        nothing else (it once carried 8 B/nnz of uncounted int64
        positions), and decoding leaves it that way."""
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 97).astype(np.float32)
        x[x < 0.5] = 0.0
        enc = csr_encode(x, cols=16, value_dtype=value_dtype)

        def reachable(obj):
            if isinstance(obj, np.ndarray):
                return [obj]
            return [a for v in vars(obj).values()
                    if isinstance(v, np.ndarray) or is_dataclass(v)
                    for a in reachable(v)]

        arrays = reachable(enc)
        # Charge what each array keeps alive: its owning buffer, not the
        # (possibly smaller) window it views.
        owners = [a if a.base is None else a.base for a in arrays]
        assert sum(o.nbytes for o in owners) == enc.nbytes
        before = [a.copy() for a in arrays]
        np.testing.assert_array_equal(csr_positions(enc), np.flatnonzero(x))
        csr_decode(enc)
        after = reachable(enc)
        assert len(after) == len(before)
        assert all(a is b for a, b in zip(after, arrays))
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
