"""Every oracle leg fires on a planted fault: one row per leg.

A *leg* is one check inside an oracle: one ``Violation(`` / ``fire(``
call site under ``src/repro/verify``, or one detail string of
:func:`~repro.verify.execution.compare_runs`.  Each :class:`Row` names
the oracle, the leg (a fragment of the leg's own detail string), the
planted fault and the record or seed.  It plants the fault where such a
fault exists — in the planner, allocator, codec, ``unroll`` or replica
unit — else in a finished record, runs the entry point the battery
calls, and the leg must fire.

:func:`test_every_leg_has_a_row` walks the sources for every site, runs
every row with ``Violation.__init__`` wrapped to record its calling
line, and fails when a site has no row; :func:`test_no_row_is_spare`
fails when a row fires no leg that another row does not also fire, so
removing any one row fails the completeness test.  The keep rule: a leg
that no plausible fault can fire is deleted, and so is one whose every
planted fault a cheaper leg also fires.  A check is defined by the fault
it can tell apart.
"""

import ast
import copy
import dataclasses
import re
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Set, Tuple

import numpy as np
import pytest

import repro.core.schedule_builder as schedule_builder
import repro.distributed.replica as replica
import repro.distributed.shard as shard
import repro.encodings.binarize as binarize
import repro.encodings.dpr as dpr
import repro.encodings.ssdc as ssdc
import repro.layers.recurrent as recurrent
import repro.memory.hybrid as hybrid
import repro.memory.shared_concat as shared_concat
import repro.orchestrate.units as units
import repro.verify.differential as differential
import repro.verify.fuzzer as fuzzer
import repro.verify.runner as runner
from repro.core.policy import (
    STRATEGY_HYBRID,
    STRATEGY_RECOMPUTE,
    STRATEGY_SHARED_CONCAT,
    STRATEGY_SWAP,
    GistConfig,
    HybridPolicy,
)
from repro.core.schedule_builder import build_gist_plan
from repro.encodings.binarize import BinarizeEncoding
from repro.encodings.groupquant import GroupQuantEncoding
from repro.graph.builder import GraphBuilder
from repro.graph.liveness import ROLE_ENCODED, ROLE_FEATURE_MAP
from repro.kernels.backends import CONV_ARMS
from repro.layers import (
    Concat,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)
from repro.memory.allocator import AllocationGroup, StaticAllocator
from repro.memory.hybrid import build_hybrid_plan
from repro.memory.planner import build_memory_plan
from repro.models import build_model, scaled_vgg
from repro.rewrite import check_rewrite_equivalence
from repro.rewrite.base import RewritePass, clone_node, rebuild
from repro.tensor.spec import TensorSpec
from repro.verify import (
    ORACLE_ALLOCATOR_SAFETY,
    ORACLE_BACKEND_DIFFERENTIAL,
    ORACLE_DECISION_BYTES,
    ORACLE_DISTRIBUTED,
    ORACLE_HYBRID,
    ORACLE_LOSSLESS,
    ORACLE_PLAN_SAFETY,
    ORACLE_POLICY_BOUNDS,
    ORACLE_RECURRENT,
    ORACLE_ROUNDTRIP,
    ORACLE_SHARED_CONCAT,
    GraphFuzzer,
    Violation,
    check_allocator_safety,
    check_distributed,
    check_hybrid_plan,
    check_plan_safety,
    check_shared_concat,
    verify_backends,
    verify_encodings,
    verify_graph,
)
from repro.verify.oracles import ORACLE_REWRITE
from tests.verify.test_lossless_execution import dense_block, dropout_graph
from tests.verify.test_plan_battery import FAULTS

VERIFY = Path(runner.__file__).parent
Run = Callable[[pytest.MonkeyPatch], List[Violation]]


class Row(NamedTuple):
    oracle: str
    leg: str      # a fragment of the leg's own detail string
    fault: str    # the planted fault, and the record or seed
    run: Run      # plants the fault, runs the battery's entry point

    @property
    def id(self) -> str:
        return f"{self.oracle}: {self.leg}"


ROWS: List[Row] = []


def row(oracle: str, leg: str, fault: str):
    def register(run: Run) -> Run:
        ROWS.append(Row(oracle, leg, fault, run))
        return run
    return register


# ----------------------------------------------------------------------
# Graphs and records
# ----------------------------------------------------------------------
def relu_pool_graph():
    """Conv -> ReLU -> max-pool: Binarize stashes the ReLU map."""
    b = GraphBuilder("relu_pool", (2, 3, 8, 8))
    x = b.add(MaxPool2D(2), b.add(ReLU(), b.add(Conv2D(4, 3, pad=1),
                                                b.input)))
    x = b.add(Dense(5), b.add(Flatten(), x))
    b.mark_output(b.add(SoftmaxCrossEntropy(), x))
    return b.build()


def conv_relu_graph():
    b = GraphBuilder("conv_relu_graph", (2, 3, 8, 8))
    x = b.add(ReLU(), b.add(Conv2D(4, 3, pad=1), b.input))
    x = b.add(Dense(5), b.add(Flatten(), x))
    b.mark_output(b.add(SoftmaxCrossEntropy(), x))
    return b.build()


def small_densenet():
    """Two dense blocks of three links: two concat chains."""
    return build_model("densenet", batch_size=4, num_classes=4, image_size=8,
                       init_channels=4, growth=4, blocks=2, block_layers=3)


def reversed_block():
    """A dense block whose concats put the new map *first*: no link of
    it is a prefix of the next, so it holds no concat chain."""
    b = GraphBuilder("reversed_block", (2, 2, 4, 4))
    x = b.add(Conv2D(3, 3, pad=1), b.input)
    for _ in range(2):
        x = b.add(Concat(), [b.add(ReLU(), b.add(Conv2D(2, 3, pad=1), x)), x])
    x = b.add(GlobalAvgPool2D(), b.add(Conv2D(2, 1), x))
    b.mark_output(b.add(SoftmaxCrossEntropy(), b.add(Dense(3), x)))
    return b.build()


def vgg_gist():
    return build_gist_plan(scaled_vgg(batch_size=8), GistConfig())


def vgg_hybrid(strategy, **kwargs):
    return build_hybrid_plan(scaled_vgg(batch_size=8),
                             HybridPolicy(strategy=strategy, **kwargs))


def vgg_recompute():
    return vgg_hybrid(STRATEGY_RECOMPUTE, cost_budget_frac=0.3)


def chain_plan(graph=None):
    return build_hybrid_plan(graph or small_densenet(),
                             HybridPolicy(strategy=STRATEGY_SHARED_CONCAT))


def faulted(record, name):
    """``record`` with ``FAULTS[name]`` (the plan battery's) applied."""
    fault, _ = FAULTS[name]
    assert fault(record), name
    return record


# ----------------------------------------------------------------------
# Planted faults
# ----------------------------------------------------------------------
def allocate_shadow(patch, edit):
    """An allocator that groups a copy of the table ``edit`` rewrote in
    place, then hands the groups back over the caller's own tensors."""
    allocate = StaticAllocator.allocate

    def faulty(self, tensors):
        tensors = list(tensors)
        shadows = [copy.copy(t) for t in tensors]
        edit(shadows)
        own = {id(s): t for s, t in zip(shadows, tensors)}
        result = allocate(self, shadows)
        for group in result.groups:
            group.members = [own[id(m)] for m in group.members]
        return result

    patch.setattr(StaticAllocator, "allocate", faulty)


def skewed_uses(patch, edit):
    """The planners read a use table ``edit`` rewrote per map:
    ``edit(last_fwd, first_bwd, last_bwd)`` for every backward-read map."""
    def faulty(graph, schedule, pools_rewritten, real=hybrid.feature_map_uses):
        return {nid: use if use[1] is None else edit(*use)
                for nid, use in real(graph, schedule, pools_rewritten).items()}

    patch.setattr(hybrid, "feature_map_uses", faulty)
    patch.setattr(schedule_builder, "feature_map_uses", faulty)


def rewrite_plans(patch, edit):
    """``apply_decisions`` followed by ``edit(plan, decisions)``."""
    apply = hybrid.apply_decisions

    def faulty(plan, uses, decisions, cfg):
        pools = apply(plan, uses, decisions, cfg)
        edit(plan, decisions)
        return pools

    patch.setattr(hybrid, "apply_decisions", faulty)
    patch.setattr(schedule_builder, "apply_decisions", faulty)


def faulty_unroll(wire):
    """``unroll`` whose step ``t`` gets ``wire(t, states, seq_len) ->
    (label, state or None)``: its timestep label and state input."""
    def unroll(b, cell, seq_len):
        step = (recurrent.LSTMStep if isinstance(cell, recurrent.LSTMCell)
                else recurrent.RNNStep)
        states = []
        for t in range(seq_len):
            x_t = b.add(recurrent.TimeSlice(t, seq_len), b.input,
                        name=f"x{t}")
            label, state = wire(t, states, seq_len)
            inputs = [x_t] if state is None else [x_t, state]
            states.append(b.add(step(cell, label), inputs, name=f"step{t}"))
        if step is recurrent.LSTMStep:
            return b.add(recurrent.StateSlice(cell.hidden_size, "h"),
                         states[-1], name="hT")
        return states[-1]
    return unroll


def recurrent_seed(seed, patch=None, unroll=None):
    if unroll is not None:
        patch.setattr(fuzzer, "unroll", unroll)
    graph = GraphFuzzer(seed).graph(recurrent_shapes=True)
    return verify_graph(graph, seed)


class RenameConvPass(RewritePass):
    """Renames the first conv: its parameters change name, not value."""

    name = "bad-rename"

    def run(self, graph):
        conv = next((n for n in graph.nodes if n.kind == "conv"), None)
        if conv is None or conv.name.endswith("'"):
            return graph, 0
        nodes = {n.node_id: clone_node(n) for n in graph.nodes}
        nodes[conv.node_id].name = conv.name + "'"
        return rebuild(graph, nodes, graph.output_id), 1


class ReluBypassPass(RewritePass):
    """Deletes every ReLU, rewiring its consumers onto its input."""

    name = "bad-relu-bypass"

    def run(self, graph):
        doomed = {n.node_id: n.inputs[0] for n in graph.nodes
                  if n.kind == "relu"}
        if not doomed:
            return graph, 0
        nodes = {n.node_id: clone_node(n) for n in graph.nodes
                 if n.node_id not in doomed}
        for node in nodes.values():
            node.inputs = [doomed.get(i, i) for i in node.inputs]
        return rebuild(graph, nodes, graph.output_id), len(doomed)


# ----------------------------------------------------------------------
# allocator-safety
# ----------------------------------------------------------------------
@row(ORACLE_ALLOCATOR_SAFETY, "mixes alias labels",
     "allocator's aliased pass takes every tensor of a labelled node (its "
     "gradient map too); dense block, seed 0")
def _(patch):
    def by_node(table):
        labels = {t.node_id: t.alias_group for t in table if t.alias_group}
        for t in table:
            t.alias_group = labels.get(t.node_id)
    allocate_shadow(patch, by_node)
    return verify_graph(dense_block(), 0)


@row(ORACLE_ALLOCATOR_SAFETY, "aliases live tensors",
     "allocator's interval mask stops one step short of the death, so "
     "touching intervals share; fuzz seed 4")
def _(patch):
    def short(table):
        for t in table:
            t.death = max(t.birth, t.death - 1)
    allocate_shadow(patch, short)
    return verify_graph(GraphFuzzer(4).graph(), 4)


@row(ORACLE_ALLOCATOR_SAFETY, "placed in ordinary shared group",
     "allocator ignores alias labels; dense block, seed 0")
def _(patch):
    def unlabelled(table):
        for t in table:
            t.alias_group = None
    allocate_shadow(patch, unlabelled)
    return verify_graph(dense_block(), 0)


@row(ORACLE_ALLOCATOR_SAFETY, "non-shareable tensor",
     "allocator ignores `shareable`; scaled VGG's table with weights")
def _(patch):
    def shared(table):
        for t in table:
            t.shareable = True
    allocate_shadow(patch, shared)
    tensors = build_memory_plan(scaled_vgg(batch_size=8),
                                include_weights=True).tensors
    return check_allocator_safety(StaticAllocator().allocate(tensors),
                                  tensors)


@row(ORACLE_ALLOCATOR_SAFETY, "shares no bytes",
     "a group's region is priced as the sum of its members (sharing "
     "silently off); fuzz seed 0")
def _(patch):
    patch.setattr(AllocationGroup, "size_bytes", property(
        lambda g: sum(t.size_bytes for t in g.members)))
    return verify_graph(GraphFuzzer(0).graph(), 0)


@row(ORACLE_ALLOCATOR_SAFETY, "appears in 2 groups",
     "allocator's ordinary pass also places the aliased tensors; "
     "dense block, seed 0")
def _(patch):
    allocate = StaticAllocator.allocate

    def twice(self, tensors):
        result = allocate(self, tensors)
        result.groups += [AllocationGroup([t]) for g in list(result.groups)
                          if g.aliased for t in g.members]
        return result

    patch.setattr(StaticAllocator, "allocate", twice)
    return verify_graph(dense_block(), 0)


# ----------------------------------------------------------------------
# policy-bounds
# ----------------------------------------------------------------------
@row(ORACLE_POLICY_BOUNDS, "> first-fit total",
     "none: greedy-size's known loss to first-fit; fuzz seed 19, strict")
def _(patch):
    return verify_graph(GraphFuzzer(19).graph(), 19, strict=True)


@row(ORACLE_POLICY_BOUNDS, "> no-sharing total",
     "a group's region is priced max member x member count; fuzz seed 0")
def _(patch):
    patch.setattr(AllocationGroup, "size_bytes", property(
        lambda g: max(t.size_bytes for t in g.members) * len(g.members)))
    return verify_graph(GraphFuzzer(0).graph(), 0)


@row(ORACLE_POLICY_BOUNDS, "< dynamic peak",
     "a group's region is priced by its first member; fuzz seed 0")
def _(patch):
    patch.setattr(AllocationGroup, "size_bytes",
                  property(lambda g: g.members[0].size_bytes))
    return verify_graph(GraphFuzzer(0).graph(), 0)


@row(ORACLE_POLICY_BOUNDS, "< interval clique bound",
     "dynamic simulator frees a tensor at its death step, not after it; "
     "fuzz seed 0")
def _(patch):
    simulate = runner.simulate_dynamic

    def frees_early(tensors, horizon=0):
        shadows = [copy.copy(t) for t in tensors]
        for t in shadows:
            t.death -= 1
        return simulate(shadows, horizon)

    patch.setattr(runner, "simulate_dynamic", frees_early)
    return verify_graph(GraphFuzzer(0).graph(), 0)


# ----------------------------------------------------------------------
# plan-safety / hybrid-plan: the liveness walk and the footprint leg
# ----------------------------------------------------------------------
@row(ORACLE_HYBRID, "does not end at the target",
     "recompute-chain walk returns the chain without its target; "
     "scaled VGG, recompute arm")
def _(patch):
    find = hybrid.find_recompute_chain

    def headless(*args):
        found = find(*args)
        return found and (found[0], found[1][:-1])

    patch.setattr(hybrid, "find_recompute_chain", headless)
    return check_hybrid_plan(vgg_recompute())


@row(ORACLE_HYBRID, "replays would read inexact or missing values",
     "selector lets a recompute source take any choice; scaled VGG, "
     "hybrid mix at a 10 % budget")
def _(patch):
    patch.setattr(hybrid, "SOURCE_COMPATIBLE_CHOICES",
                  frozenset(hybrid.ALL_CHOICES))
    return check_hybrid_plan(vgg_hybrid(STRATEGY_HYBRID,
                                        cost_budget_frac=0.1))


@row(ORACLE_HYBRID, "expected [",
     "recompute-chain walk names the source's own input as the source; "
     "scaled VGG, recompute arm")
def _(patch):
    find = hybrid.find_recompute_chain

    def one_too_far(graph, uses, target_id, first_bwd):
        found = find(graph, uses, target_id, first_bwd)
        if found is None or not graph.node(found[0]).inputs:
            return found
        return graph.node(found[0]).inputs[0], found[1]

    patch.setattr(hybrid, "find_recompute_chain", one_too_far)
    return check_hybrid_plan(vgg_recompute())


@row(ORACLE_PLAN_SAFETY, "needs a scratch region",
     "plan drops a replay chain's `.rechain` scratch; scaled VGG, "
     "recompute arm")
def _(patch):
    return check_plan_safety(faulted(vgg_recompute(), "no-rechain"))


@row(ORACLE_PLAN_SAFETY, "is not live at the target's first backward read",
     "planner never stretches a source to its re-read "
     "(`source_read_time` -> None); fuzz seed 2 (sqrt(N) table)")
def _(patch):
    patch.setattr(hybrid, "source_read_time", lambda decision, uses: None)
    return verify_graph(GraphFuzzer(2).graph(), 2)


@row(ORACLE_PLAN_SAFETY, "targets the loss output",
     "a decision retargeted at the loss; scaled VGG, Table-I")
def _(patch):
    return check_plan_safety(faulted(vgg_gist(), "decision-on-loss"))


@row(ORACLE_PLAN_SAFETY, "missing from plan",
     "plan drops an undecided node's FP32 map; scaled VGG, Table-I")
def _(patch):
    record = vgg_gist()
    record.plan.tensors.remove(next(
        t for t in record.plan.tensors if t.role == ROLE_FEATURE_MAP
        and t.spec.name.endswith(".out")
        and t.node_id not in record.decisions))
    return check_plan_safety(record)


@row(ORACLE_PLAN_SAFETY, "before its last forward use",
     "a decided FP32 map dies before its birth; scaled VGG, Table-I")
def _(patch):
    return check_plan_safety(faulted(vgg_gist(), "fp32-forward-death"))


@row(ORACLE_PLAN_SAFETY, "undecided stash",
     "planner's use table takes a map's first backward read as its last; "
     "scaled VGG, recompute arm")
def _(patch):
    skewed_uses(patch, lambda last_fwd, first, last: (last_fwd, first, first))
    return check_plan_safety(vgg_recompute())


@row(ORACLE_PLAN_SAFETY, "has no replacement tensor",
     "plan drops a decision's replacement tensor; scaled VGG, Table-I")
def _(patch):
    return check_plan_safety(faulted(vgg_gist(), "no-replacement"))


@row(ORACLE_PLAN_SAFETY, "after the FP32 map's last forward use",
     "planner's use table puts each last forward use one step late; "
     "scaled VGG, Table-I")
def _(patch):
    skewed_uses(patch, lambda last_fwd, first, last: (last_fwd + 1, first,
                                                      last))
    return check_plan_safety(vgg_gist())


@row(ORACLE_PLAN_SAFETY, "resident bytes, plan carries",
     "plan's `.enc` tensor one byte short of the decision's price; "
     "scaled VGG, Table-I")
def _(patch):
    record = vgg_gist()
    enc = next(t for t in record.plan.tensors if t.role == ROLE_ENCODED
               and t.spec.name.endswith(".enc"))
    enc.spec = TensorSpec(enc.spec.name, (enc.size_bytes - 1,),
                          enc.spec.dtype, enc.spec.category)
    return check_plan_safety(record)


@row(ORACLE_HYBRID, "after the first backward use",
     "planner's use table takes a map's last backward read as its first; "
     "scaled VGG, swap arm")
def _(patch):
    skewed_uses(patch, lambda last_fwd, first, last: (last_fwd, last, last))
    return check_hybrid_plan(vgg_hybrid(STRATEGY_SWAP))


@row(ORACLE_PLAN_SAFETY, "before the last backward use",
     "an `.enc` stash dies before its birth; scaled VGG, Table-I")
def _(patch):
    return check_plan_safety(faulted(vgg_gist(), "enc-death"))


@row(ORACLE_PLAN_SAFETY, "larger than the FP32 map",
     "a gist decision priced one byte over its FP32 map; scaled VGG, "
     "Table-I")
def _(patch):
    return check_plan_safety(faulted(vgg_gist(), "inflated-resident-bytes"))


@row(ORACLE_PLAN_SAFETY, "prices a decoded buffer",
     "plan drops a priced `.dec` buffer; scaled VGG, Table-I")
def _(patch):
    return check_plan_safety(faulted(vgg_gist(), "no-dec"))


@row(ORACLE_PLAN_SAFETY, "does not cover backward uses",
     "planner's use table takes a map's last backward read as its first; "
     "scaled VGG, Table-I")
def _(patch):
    skewed_uses(patch, lambda last_fwd, first, last: (last_fwd, last, last))
    return check_plan_safety(vgg_gist())


@row(ORACLE_PLAN_SAFETY, "lossless Gist allocated",
     "planner keeps every FP32 map to the end of the step; fuzz seed 0")
def _(patch):
    def never_freed(plan, decisions):
        for t in plan.tensors:
            if t.role == ROLE_FEATURE_MAP and t.spec.name.endswith(".out"):
                t.death = plan.schedule.num_steps - 1
    rewrite_plans(patch, never_freed)
    return verify_graph(GraphFuzzer(0).graph(), 0)


# ----------------------------------------------------------------------
# decision-bytes
# ----------------------------------------------------------------------
@row(ORACLE_DECISION_BYTES, "measured encode is",
     "Binarize's size model counts one word more than the encode writes; "
     "conv-ReLU-pool graph, seed 0")
def _(patch):
    price = BinarizeEncoding.encoded_bytes
    patch.setattr(BinarizeEncoding, "encoded_bytes",
                  lambda self, n, **ctx: price(self, n, **ctx) + 4)
    return verify_graph(relu_pool_graph(), 0)


# ----------------------------------------------------------------------
# encoding-roundtrip
# ----------------------------------------------------------------------
@row(ORACLE_ROUNDTRIP, "crashed on shape",
     "group-quant encode reads the last value of an empty input; seed 0")
def _(patch):
    encode = GroupQuantEncoding.encode
    patch.setattr(GroupQuantEncoding, "encode",
                  lambda self, x: (np.ravel(x)[-1], encode(self, x))[1])
    return verify_encodings(0)


@row(ORACLE_ROUNDTRIP, "round-trip not bit-exact",
     "Binarize's mask counts zero as positive (>= 0); seed 0")
def _(patch):
    encode = BinarizeEncoding.encode
    patch.setattr(BinarizeEncoding, "encode",
                  lambda self, x: encode(self, np.where(x == 0, 1.0, x)))
    return verify_encodings(0)


@row(ORACLE_ROUNDTRIP, "decode shape",
     "group-quant decode keeps the last group's padding; seed 0")
def _(patch):
    decode = GroupQuantEncoding.decode

    def padded(self, encoded):
        out = decode(self, encoded).ravel()
        tail = encoded.scales.size * encoded.group_size - out.size
        return np.concatenate([out, np.zeros(tail, np.float32)])

    patch.setattr(GroupQuantEncoding, "decode", padded)
    return verify_encodings(0)


@row(ORACLE_ROUNDTRIP, "at dense-zero position",
     "CSR decode places every stored value one position late; seed 0")
def _(patch):
    positions = ssdc.csr_positions

    def late(enc):
        n = int(np.prod(enc.shape))
        return (positions(enc) + 1) % max(n, 1)

    patch.setattr(ssdc, "csr_positions", late)
    return verify_encodings(0)


@row(ORACLE_ROUNDTRIP, "static model says",
     "SSDC's size model prices one row pointer more than the encode "
     "stores; seed 0")
def _(patch):
    price = ssdc.csr_bytes
    patch.setattr(ssdc, "csr_bytes", lambda *a, **k: price(*a, **k) + 4)
    return verify_encodings(0)


@row(ORACLE_ROUNDTRIP, "exceeds bound",
     "DPR's encoder truncates instead of rounding to nearest; seed 0")
def _(patch):
    encode = dpr.encode_words
    patch.setattr(dpr, "encode_words",
                  lambda x, dtype, rounding="nearest":
                  encode(x, dtype, "truncate"))
    return verify_encodings(0)


@row(ORACLE_ROUNDTRIP, "span/levels bound",
     "group-quant pads the ragged last group with zeros (the original "
     "padding-skew bug); seed 0")
def _(patch):
    encode = GroupQuantEncoding.encode

    def zero_padded(self, x):
        flat = np.asarray(x, np.float32).ravel()
        tail = -flat.size % self.group_size
        enc = encode(self, np.concatenate([flat, np.zeros(tail, np.float32)]))
        words = -(-flat.size // (32 // self.bits))
        return dataclasses.replace(enc, words=enc.words[:words],
                                   shape=tuple(np.shape(x)))

    patch.setattr(GroupQuantEncoding, "encode", zero_padded)
    return verify_encodings(0)


# ----------------------------------------------------------------------
# backend-differential
# ----------------------------------------------------------------------
@row(ORACLE_BACKEND_DIFFERENTIAL, "shape/dtype",
     "pack_bits hands out its bytes, not uint32 words; seed 0")
def _(patch):
    pack = binarize.pack_bits
    patch.setattr(binarize, "pack_bits",
                  lambda mask, arena=None: pack(mask).view(np.uint8))
    return verify_backends(0)


@row(ORACLE_BACKEND_DIFFERENTIAL, "element(s) differ",
     "pack_bits packs each byte big-endian; seed 0")
def _(patch):
    def big_endian(mask, arena=None):
        flat = np.asarray(mask, bool).ravel()
        out = np.zeros(4 * ((flat.size + 31) // 32), np.uint8)
        packed = np.packbits(flat, bitorder="big")
        out[:packed.size] = packed
        return out.view(np.uint32)

    patch.setattr(binarize, "pack_bits", big_endian)
    return verify_backends(0)


def _blas_fat_forward(patch, edit):
    arm = type(CONV_ARMS["blas-fat"])
    forward = arm.forward

    def faulty(self, *args, **kwargs):
        y, saved = forward(self, *args, **kwargs)
        return edit(y.copy()), saved

    patch.setattr(arm, "forward", faulty)


@row(ORACLE_BACKEND_DIFFERENTIAL, "non-finite element(s) differ",
     "blas-fat leaves its first output unwritten (reads NaN); seed 0")
def _(patch):
    def unwritten(y):
        y.flat[0] = np.nan
        return y
    _blas_fat_forward(patch, unwritten)
    return verify_backends(0)


@row(ORACLE_BACKEND_DIFFERENTIAL, "exceeds the declared tolerance",
     "blas-fat scales its output by 1 + 1e-3; seed 0")
def _(patch):
    _blas_fat_forward(patch, lambda y: y * np.float32(1.001))
    return verify_backends(0)


@row(ORACLE_BACKEND_DIFFERENTIAL, "ground truth crashed",
     "the max-pool loop kernel refuses padded windows; seed 0")
def _(patch):
    reference = differential.maxpool_reference

    def unpadded(x, kh, kw, stride, pad):
        if pad:
            raise IndexError("window runs off the input")
        return reference(x, kh, kw, stride, pad)

    patch.setattr(differential, "maxpool_reference", unpadded)
    return verify_backends(0)


@row(ORACLE_BACKEND_DIFFERENTIAL, "crashed: ValueError",
     "blas-fat backward refuses stride 2; seed 0")
def _(patch):
    arm = type(CONV_ARMS["blas-fat"])
    backward = arm.backward

    def stride_one(self, x, w4, dy, stride, pad, *args, **kwargs):
        if stride != 1:
            raise ValueError(f"stride {stride} not supported")
        return backward(self, x, w4, dy, stride, pad, *args, **kwargs)

    patch.setattr(arm, "backward", stride_one)
    return verify_backends(0)


# ----------------------------------------------------------------------
# distributed-replica
# ----------------------------------------------------------------------
@row(ORACLE_DISTRIBUTED, "shard concat not byte-identical",
     "split hands the shards out last first; seed 0")
def _(patch):
    split = shard.split_batch
    patch.setattr(shard, "split_batch",
                  lambda *args: split(*args)[::-1])
    return check_distributed(0)


@row(ORACLE_DISTRIBUTED, "pool pipeline failed",
     "the replica unit crashes on its last shard; seed 0")
def _(patch):
    run = replica.run_replica_unit

    def crash_last(payload):
        if payload["shard"] == payload["num_shards"] - 1:
            raise RuntimeError("replica crashed")
        return run(payload)

    patch.setitem(units._KINDS, "replica-step", crash_last)
    return check_distributed(0)


@row(ORACLE_DISTRIBUTED, "pool-pipeline loss",
     "the merge averages shard losses without their sizes; seed 0")
def _(patch):
    merge = replica.merge_replica_results

    def unweighted(units, results):
        _, grads = merge(units, results)
        losses = [results[u.key].value["loss"] for u in units]
        return float(np.mean(np.float32(losses))), grads

    patch.setattr(replica, "merge_replica_results", unweighted)
    return check_distributed(0)


@row(ORACLE_DISTRIBUTED, "merge of",
     "the gradient merge weighs every shard alike; seed 0")
def _(patch):
    reduce = replica.tree_reduce_gradients
    patch.setattr(replica, "tree_reduce_gradients",
                  lambda grads, sizes: reduce(grads, [1] * len(sizes)))
    return check_distributed(0)


# ----------------------------------------------------------------------
# hybrid-plan's own legs
# ----------------------------------------------------------------------
@row(ORACLE_HYBRID, "exceeds budget",
     "selector spends against ten times the budget; scaled VGG, hybrid mix")
def _(patch):
    select = hybrid._select
    patch.setattr(hybrid, "_select", lambda options, budget, allowed:
                  select(options, 10 * budget, allowed))
    return check_hybrid_plan(build_hybrid_plan(scaled_vgg(batch_size=8)))


@row(ORACLE_HYBRID, "under the same budget",
     "the plan reports a footprint above its best pure arm (the argmin "
     "fallback skipped); scaled VGG, hybrid mix")
def _(patch):
    plan = build_hybrid_plan(scaled_vgg(batch_size=8))
    return check_hybrid_plan(dataclasses.replace(
        plan, allocated_bytes=min(plan.pure_footprints.values()) + 1))


@row(ORACLE_HYBRID, "non-replayable",
     "planner lets dropout into recompute chains; Conv-Tanh-Dropout-Conv, "
     "recompute arm")
def _(patch):
    patch.setattr(hybrid, "NON_RECOMPUTABLE_KINDS",
                  frozenset({"batchnorm", "input", "loss"}))
    return check_hybrid_plan(build_hybrid_plan(
        dropout_graph(), HybridPolicy(strategy=STRATEGY_RECOMPUTE)))


# ----------------------------------------------------------------------
# shared-concat
# ----------------------------------------------------------------------
@row(ORACLE_SHARED_CONCAT, "does not run from the member",
     "a chain's path stops short of its terminal; small densenet")
def _(patch):
    path = shared_concat.ConcatChain.path
    patch.setattr(shared_concat.ConcatChain, "path",
                  lambda self, member: path(self, member)[:-1])
    return check_shared_concat(chain_plan())


def _links_through(pick):
    """``_chain_links`` linking each concat through ``pick(graph, node)``
    (a node id or ``None``) instead of its first input."""
    def links(graph):
        succ, ambiguous = {}, set()
        for node in graph.nodes:
            first = pick(graph, node) if node.kind == "concat" else None
            if first is None:
                continue
            if first in succ or first in ambiguous:
                succ.pop(first, None)
                ambiguous.add(first)
                continue
            succ[first] = node.node_id
        return succ
    return links


@row(ORACLE_SHARED_CONCAT, "not a concat",
     "chain links skip the predecessor-kind test; small densenet")
def _(patch):
    patch.setattr(shared_concat, "_chain_links",
                  _links_through(lambda graph, node: node.inputs[0]))
    return check_shared_concat(chain_plan())


@row(ORACLE_SHARED_CONCAT, "not position 0",
     "chain links go through the first concat input at any position; "
     "a block that concatenates the new map first")
def _(patch):
    def any_position(graph, node):
        return next((i for i in node.inputs
                     if graph.node(i).kind == "concat"), None)
    patch.setattr(shared_concat, "_chain_links",
                  _links_through(any_position))
    return check_shared_concat(chain_plan(reversed_block()))


@row(ORACLE_SHARED_CONCAT, "must be an untouched FP32 keep",
     "selector lets a chain terminal take its own swap option; small "
     "densenet, hybrid mix")
def _(patch):
    select = hybrid._select

    def unpinned(options, budget, allowed):
        assigned, spent = select(options, budget, allowed)
        terminals = {d.source_id for d in assigned.values()
                     if d.choice == hybrid.CHOICE_SHARED_CONCAT}
        for option in options:
            if (option.node_id in terminals
                    and option.choice == hybrid.CHOICE_SWAP):
                assigned[option.node_id] = option
        return assigned, spent

    patch.setattr(hybrid, "_select", unpinned)
    return check_shared_concat(chain_plan())


@row(ORACLE_SHARED_CONCAT, "member or terminal feature map missing",
     "plan drops a chain terminal's FP32 map; small densenet")
def _(patch):
    plan = chain_plan()
    terminal = next(d.source_id for d in plan.decisions.values())
    plan.plan.tensors.remove(next(
        t for t in plan.plan.tensors
        if t.node_id == terminal and t.spec.name.endswith(".out")))
    return check_shared_concat(plan)


@row(ORACLE_SHARED_CONCAT, "before the member's last backward read",
     "planner never stretches a terminal to its members' re-reads "
     "(`source_read_time` -> None); small densenet")
def _(patch):
    patch.setattr(hybrid, "source_read_time", lambda decision, uses: None)
    return check_shared_concat(chain_plan())


@row(ORACLE_SHARED_CONCAT, "alias label",
     "planner labels each member's alias group by the member, not the "
     "terminal; small densenet")
def _(patch):
    def by_member(plan, decisions):
        for t in plan.tensors:
            decision = decisions.get(t.node_id)
            if (decision is not None and t.spec.name.endswith(".out")
                    and decision.choice == hybrid.CHOICE_SHARED_CONCAT):
                t.alias_group = f"concat:{t.node_id}"
    rewrite_plans(patch, by_member)
    return check_shared_concat(chain_plan())


# ----------------------------------------------------------------------
# recurrent-unroll
# ----------------------------------------------------------------------
@row(ORACLE_RECURRENT, "parameter owners",
     "a step owns the tied weights up to t=1 (off by one); recurrent "
     "fuzz seed 0")
def _(patch):
    patch.setattr(recurrent._UnrolledStep, "owns_params",
                  property(lambda self: self.t <= 1))
    return recurrent_seed(0)


@row(ORACLE_RECURRENT, "duplicate timestep",
     "unroll's last step re-runs the previous step's slot (its t and "
     "state); recurrent fuzz seed 0")
def _(patch):
    def wire(t, states, seq_len):
        if t == seq_len - 1:
            t -= 1
        return t, states[t - 1] if t else None
    return recurrent_seed(0, patch, faulty_unroll(wire))


@row(ORACLE_RECURRENT, "not the same cell's",
     "unroll wires step t's state from step t-2; recurrent fuzz seed 0")
def _(patch):
    return recurrent_seed(0, patch, faulty_unroll(
        lambda t, states, seq_len: (t, states[max(t - 2, 0)] if t
                                    else None)))


@row(ORACLE_RECURRENT, "untied",
     "the cell hands each step a copy of its arrays; recurrent fuzz seed 0")
def _(patch):
    params_for = recurrent._SharedCell.params_for
    patch.setattr(recurrent._SharedCell, "params_for", lambda self, rng: {
        k: v.copy() for k, v in params_for(self, rng).items()})
    return recurrent_seed(0)


# ----------------------------------------------------------------------
# compare_runs: lossless-execution and rewrite-equivalence
# ----------------------------------------------------------------------
@row(ORACLE_LOSSLESS, "not bit-identical",
     "Binarize's mask counts zero as positive (>= 0); conv-ReLU-pool "
     "graph, seed 0 (gist-lossless)")
def _(patch):
    encode = BinarizeEncoding.encode
    patch.setattr(BinarizeEncoding, "encode",
                  lambda self, x: encode(self, np.where(x == 0, 1.0, x)))
    return verify_graph(relu_pool_graph(), 0)


@row(ORACLE_REWRITE, "grew parameter",
     "a pass renames a conv; conv-ReLU graph")
def _(patch):
    return check_rewrite_equivalence(conv_relu_graph(),
                                     passes=[RenameConvPass()])


@row(ORACLE_REWRITE, "vanished",
     "a pass renames a conv; conv-ReLU graph")
def _(patch):
    return check_rewrite_equivalence(conv_relu_graph(),
                                     passes=[RenameConvPass()])


@row(ORACLE_REWRITE, "loss diverged",
     "a pass deletes the ReLUs; conv-ReLU graph")
def _(patch):
    return check_rewrite_equivalence(conv_relu_graph(),
                                     passes=[ReluBypassPass()])


# ----------------------------------------------------------------------
# The table's own tests
# ----------------------------------------------------------------------
Site = Tuple[str, int, int]  # file name, first and last line of the call


def _is_leg(call: ast.Call) -> bool:
    """A call that words a finding (a string literal among its
    arguments), as opposed to one that relabels a finished one."""
    return any(isinstance(n, (ast.JoinedStr, ast.Constant))
               and isinstance(getattr(n, "value", ""), str)
               for arg in call.args + [k.value for k in call.keywords]
               for n in ast.walk(arg))


def leg_sites() -> Dict[Site, str]:
    """Every ``Violation(`` / ``fire(`` call site under ``verify/`` that
    words a finding, and every detail string ``compare_runs`` appends:
    ``{site: kind}`` with kind ``"violation"`` or a regex of the detail."""
    sites: Dict[Site, str] = {}
    for path in sorted(VERIFY.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("Violation", "fire")
                    and _is_leg(node)):
                sites[path.name, node.lineno, node.end_lineno] = "violation"
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "compare_runs"):
                for call in ast.walk(node):
                    if (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr == "append"):
                        sites[path.name, call.lineno, call.end_lineno] = (
                            _detail_regex(call.args[0]))
    return sites


def _detail_regex(text: ast.JoinedStr) -> str:
    return "".join(re.escape(part.value) if isinstance(part, ast.Constant)
                   else ".*" for part in text.values)


class Fired(NamedTuple):
    returned: List[Violation]
    built: List[Tuple[Tuple[str, int], Violation]]  # (file, line), finding


@pytest.fixture(scope="module")
def fired() -> Dict[str, Fired]:
    """Every row run once, with ``Violation.__init__`` recording the line
    that words each finding (for ``fire``, the line that calls it)."""
    init = Violation.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        frame = sys._getframe(1)
        if frame.f_code.co_name == "fire":
            frame = frame.f_back
        built.append(((Path(frame.f_code.co_filename).name,
                       frame.f_lineno), self))

    out = {}
    for r in ROWS:
        built: List[Tuple[Tuple[str, int], Violation]] = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Violation, "__init__", recording)
            returned = r.run(patch)
        out[r.id] = Fired(returned, built)
    return out


def covered(r: Row, result: Fired, sites: Dict[Site, str]) -> Set[Site]:
    """The sites whose finding ``r`` fired, with its oracle and leg."""
    hits = set()
    for (name, line), v in result.built:
        if v.oracle != r.oracle or r.leg not in v.detail:
            continue
        for site, kind in sites.items():
            if kind != "violation":
                if re.search(kind, v.detail):
                    hits.add(site)
            elif site[0] == name and site[1] <= line <= site[2]:
                hits.add(site)
    return hits


def test_rows_have_unique_ids():
    ids = [r.id for r in ROWS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("r", ROWS, ids=lambda r: r.id)
def test_leg_fires(r, fired):
    found = fired[r.id].returned
    assert any(v.oracle == r.oracle and r.leg in v.detail for v in found), (
        r.fault, [str(v) for v in found])


def test_every_leg_has_a_row(fired):
    sites = leg_sites()
    hit = set()
    for r in ROWS:
        hit |= covered(r, fired[r.id], sites)
    assert sorted(set(sites) - hit) == []


def test_no_row_is_spare(fired):
    sites = leg_sites()
    cover = {r.id: covered(r, fired[r.id], sites) for r in ROWS}
    for r in ROWS:
        others = set().union(*(c for k, c in cover.items() if k != r.id))
        assert cover[r.id] - others, f"{r.id}: every site it fires has " \
            "another row"
