"""Gist's Schedule Builder (paper Section IV-B).

Given a training graph and a :class:`~repro.core.policy.GistConfig`, this
pass:

1. classifies every stashed feature map (ReLU-Pool / ReLU-Conv / Other);
2. selects the encoding Table I assigns to each class, builds its codec
   (:func:`gist_codec`) and sizes and prices the decision by asking that
   codec (:func:`select_table_i`, the *Table-I selector*, through
   :func:`_encoding_for` + :func:`_gist_option`), emitting one
   :class:`~repro.memory.hybrid.PlanDecision` per encoded map;
3. hands that decision table to
   :func:`repro.memory.hybrid.apply_decisions`, the repo's one liveness
   rewrite — the FP32 feature map now dies at its last *forward* use, a
   compact encoded tensor spans the forward-backward gap, (for SSDC/DPR)
   a decoded FP32 staging buffer lives only across the backward uses,
   and every max-pool stashes a 4-bit Y-to-X argmax map instead of its
   input and output maps (part of the Binarize technique);
4. merges inplace-eligible feature-map pairs.

The rewritten plan feeds the same CNTK-style allocator as the baseline —
which is the paper's central mechanism: encodings shorten FP32 lifetimes,
the allocator turns shortened lifetimes into shared memory.

The selector is unbudgeted and touches neither the allocator nor the
swap simulator, so a Gist plan stays an order of magnitude cheaper to
build than a priced hybrid plan (:func:`repro.memory.hybrid.
build_hybrid_plan`, which reuses steps 2-3 as its gist lever).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.sparsity import DEFAULT_SPARSITY_MODEL, SparsityModel
from repro.core.analysis import (
    STASH_RELU_CONV,
    STASH_RELU_POOL,
    classify_all_stashes,
)
from repro.core.policy import GistConfig
from repro.dtypes import DPR_FORMATS
from repro.encodings.base import Encoding
from repro.encodings.binarize import BinarizeEncoding
from repro.encodings.dpr import DPREncoding
from repro.encodings.groupquant import GroupQuantEncoding
from repro.encodings.inplace import inplace_eligible_edges
from repro.encodings.ssdc import NARROW_COLS, SSDCEncoding
from repro.graph.graph import Graph
from repro.graph.liveness import (
    ROLE_ENCODED,
    ROLE_FEATURE_MAP,
    feature_map_uses,
)
from repro.graph.node import OpNode
from repro.graph.schedule import TrainingSchedule, schedule_of
from repro.memory.hybrid import (
    CHOICE_GIST,
    PlanDecision,
    PlanRecord,
    apply_decisions,
)
from repro.memory.planner import (
    CLASS_ENCODED,
    CLASS_STASHED,
    build_memory_plan,
)

ENC_BINARIZE = "binarize"
ENC_SSDC = "ssdc"
ENC_DPR = "dpr"
#: Not a Table-I technique: ``groupquant-int<bits>/<group size>`` labels a
#: :class:`~repro.train.stash.GroupQuantPolicy` decision.
ENC_GROUPQUANT = "groupquant-int"

#: Streaming inefficiency of dense<->CSR conversion kernels relative to a
#: straight memory copy (scatter/gather plus index arithmetic).
SSDC_CONVERSION_FACTOR = 2.0


def gist_codec(encoding: str, config: GistConfig) -> Encoding:
    """The one codec behind a gist decision under ``config``.

    The selector sizes and prices the decision by asking this codec
    (:func:`_gist_option`) and the stash layer runs it
    (:mod:`repro.train.stash`), so planned bytes, modelled seconds and
    stashed bytes are three readings of one object.

    Raises:
        ValueError: ``encoding`` is neither a Table-I technique nor a
            group-quantisation label.
    """
    dpr_dtype = DPR_FORMATS[config.dpr_format]
    if encoding == ENC_BINARIZE:
        return BinarizeEncoding()
    if encoding == ENC_SSDC:
        # DPR compresses the CSR values array, never the meta arrays
        # (paper Section IV-A).
        return SSDCEncoding(NARROW_COLS, dpr_dtype if config.dpr else None)
    if encoding == ENC_DPR:
        return DPREncoding(dpr_dtype, config.rounding)
    if str(encoding).startswith(ENC_GROUPQUANT):
        bits, _, group_size = encoding[len(ENC_GROUPQUANT):].partition("/")
        if bits.isdigit() and group_size.isdigit():
            return GroupQuantEncoding(int(bits), int(group_size))
    raise ValueError(
        f"unknown gist encoding {encoding!r} (expected one of "
        f"{ENC_BINARIZE!r}, {ENC_SSDC!r}, {ENC_DPR!r}, "
        f"'{ENC_GROUPQUANT}<bits>/<group size>')"
    )


@dataclass
class GistPlan(PlanRecord):
    """A rewritten memory plan plus the decisions that produced it."""

    def raw_region_bytes(self) -> Dict[str, int]:
        """Raw bytes per Figure 10 region after the rewrite.

        Regions: ``ssdc`` (ReLU/Pool-Conv stashes), ``binarize``
        (ReLU-Pool stashes + argmax maps), ``other_stashed`` and
        ``immediate`` (everything short-lived, incl. decoded buffers,
        gradient maps and converted FP32 maps).
        """
        # Regions follow the *structural* classification, so the baseline
        # (no decisions) and every encoding arm bucket identically.
        class_of_node = {
            nid: info.stash_class
            for nid, info in classify_all_stashes(self.graph,
                                                  self.schedule).items()
        }
        regions = {"ssdc": 0, "binarize": 0, "other_stashed": 0, "immediate": 0}
        pool_ids = set(self.rewritten_pools)
        for t in self.plan.tensors:
            cls = self.plan.classify(t)
            if t.role == ROLE_ENCODED:
                if t.node_id in pool_ids and t.spec.name.endswith(".argmax"):
                    regions["binarize"] += t.size_bytes
                else:
                    regions[_region_of(class_of_node.get(t.node_id))] += t.size_bytes
            elif cls == CLASS_STASHED:
                regions[_region_of(class_of_node.get(t.node_id))] += t.size_bytes
            else:
                regions["immediate"] += t.size_bytes
        return regions


def _region_of(stash_class: Optional[str]) -> str:
    if stash_class == STASH_RELU_POOL:
        return "binarize"
    if stash_class == STASH_RELU_CONV:
        return "ssdc"
    return "other_stashed"


def _encoding_for(stash_class: str, config: GistConfig) -> Optional[str]:
    """Table I: class → technique, honouring disabled switches."""
    if stash_class == STASH_RELU_POOL and config.binarize:
        return ENC_BINARIZE
    if stash_class == STASH_RELU_CONV and config.ssdc:
        return ENC_SSDC
    if config.dpr:
        return ENC_DPR
    return None


def _gist_option(graph: Graph, node: OpNode, stash_class: str,
                 config: GistConfig, sparsity_model: SparsityModel,
                 cost) -> Optional[PlanDecision]:
    """Size and price the Table-I encoding of one stashed map.

    Returns ``None`` when the class has no enabled technique, or SSDC
    would expand the map and there is no lossy fallback.
    """
    encoding = _encoding_for(stash_class, config)
    if encoding is None:
        return None
    num_elements = math.prod(node.output_shape)
    fp32_bytes = 4 * num_elements
    sparsity = (sparsity_model.sparsity(graph, node.node_id)
                if encoding == ENC_SSDC else None)
    codec = gist_codec(encoding, config)
    enc_bytes = codec.encoded_bytes(num_elements, sparsity=sparsity)
    if encoding == ENC_SSDC and enc_bytes >= fp32_bytes:
        # Below the compression breakeven (paper: ~20% sparsity with
        # narrow indices) CSR would expand the stash; fall back to DPR
        # when lossy is on, else leave it untouched.
        if not config.dpr:
            return None
        encoding, sparsity = ENC_DPR, None
        codec = gist_codec(encoding, config)
        enc_bytes = codec.encoded_bytes(num_elements)
    # ReLU backward reads the Binarize mask directly; SSDC/DPR decode
    # into an FP32 staging buffer unless the kernels consume them encoded.
    decoded_bytes = (0 if encoding == ENC_BINARIZE or config.optimized_software
                     else fp32_bytes)
    # The step-time delta of the decision (Figures 9/11 sum it, the
    # budgeted planner ranks by it): one streaming pass to encode (read
    # FP32, write encoded) and, where a staging buffer exists, one to
    # decode, at the codec's streaming efficiency; Binarize is credited
    # the ReLU backward reading the mask instead of the FP32 map.
    cost_s = cost.copy_time(fp32_bytes + enc_bytes)
    if decoded_bytes:
        cost_s += cost.copy_time(enc_bytes + decoded_bytes)
    if encoding == ENC_SSDC:
        cost_s *= SSDC_CONVERSION_FACTOR
    elif encoding == ENC_BINARIZE:
        cost_s -= cost.copy_time(fp32_bytes - enc_bytes)
    return PlanDecision(
        node_id=node.node_id,
        node_name=node.name,
        stash_class=stash_class,
        choice=CHOICE_GIST,
        encoding=encoding,
        fp32_bytes=fp32_bytes,
        resident_bytes=enc_bytes,
        cost_s=cost_s,
        lossless=codec.lossless,
        sparsity=sparsity,
        decoded_bytes=decoded_bytes,
    )


def select_table_i(
    graph: Graph,
    config: GistConfig,
    sparsity_model: Optional[SparsityModel] = None,
    schedule: Optional[TrainingSchedule] = None,
) -> Dict[int, PlanDecision]:
    """The Table-I selector: every stashed map gets its class's encoding,
    with no budget.

    A map is only skipped when it is not stashed under the pool rewrite,
    stashed through a schedule artifact alone, or has no enabled
    technique.  :func:`build_gist_plan` rewrites its liveness table under
    this table; :func:`repro.perf.overhead.measure_overhead` prices the
    table alone.  Reads only the graph's memoized uses and stash classes
    (``schedule`` is built only when they are cold and none was given).
    """
    from repro.perf.cost import CostModel  # local: core<->perf cycle

    sparsity_model = sparsity_model or DEFAULT_SPARSITY_MODEL
    cost = CostModel()
    uses = feature_map_uses(graph, schedule, config.binarize)
    decisions: Dict[int, PlanDecision] = {}
    for nid, info in classify_all_stashes(graph, schedule).items():
        if uses[nid][1] is None:
            continue
        option = _gist_option(graph, graph.node(nid), info.stash_class,
                              config, sparsity_model, cost)
        if option is not None:
            decisions[nid] = option
    return decisions


def build_gist_plan(
    graph: Graph,
    config: Optional[GistConfig] = None,
    sparsity_model: Optional[SparsityModel] = None,
    schedule: Optional[TrainingSchedule] = None,
    investigation: bool = False,
    include_weights: bool = False,
) -> GistPlan:
    """Run the Schedule Builder and return the rewritten memory plan.

    Args:
        graph: Training execution graph.
        config: Technique switches (defaults to everything on, FP16 DPR).
        sparsity_model: Supplies per-layer sparsity for SSDC sizing.
        schedule: Precomputed schedule (built if omitted).
        investigation: Exclude stashed/encoded tensors from memory sharing
            (the paper's investigation baseline discipline).
        include_weights: Carry weights/weight-grads in the plan.
    """
    config = config or GistConfig()
    if schedule is None:
        schedule = schedule_of(graph)
    decisions = select_table_i(graph, config, sparsity_model, schedule)
    plan = build_memory_plan(graph, schedule,
                             include_weights=include_weights)
    rewritten_pools = apply_decisions(
        plan, feature_map_uses(graph, schedule, config.binarize), decisions,
        config)

    # Inplace merges: the consumer's buffer absorbs the producer's.
    if config.inplace:
        fm_by_node = {
            t.node_id: t for t in plan.tensors if t.role == ROLE_FEATURE_MAP
        }
        drop = set()
        for producer_id, consumer_id in inplace_eligible_edges(graph):
            producer_fm = fm_by_node[producer_id]
            consumer_fm = fm_by_node[consumer_id]
            if producer_fm.spec.name in drop:
                continue
            consumer_fm.birth = min(consumer_fm.birth, producer_fm.birth)
            drop.add(producer_fm.spec.name)
        plan.tensors = [t for t in plan.tensors if t.spec.name not in drop]

    if investigation:
        for t in plan.tensors:
            if plan.classify(t) in (CLASS_STASHED, CLASS_ENCODED):
                t.shareable = False

    return GistPlan(graph, schedule, plan, config, decisions,
                    rewritten_pools)
