"""The plan IR and the hybrid planner: encode x recompute x swap per tensor.

Every memory plan in this repo is one table — ``{node_id:
PlanDecision}`` — and one rewrite:

* a **selector** maps a graph to a decision table.  The Table-I selector
  (:func:`repro.core.schedule_builder.select_table_i`) gives every
  stashed map its class's encoding; the budgeted selector here
  (:func:`build_hybrid_plan`) prices up to four options per map and
  picks greedily;
* :func:`apply_decisions` maps a table to a
  :class:`~repro.memory.planner.MemoryPlan` — the only place encoded,
  decoded, prefetch and argmax tensors are constructed — which the
  static allocator prices;
* the executor runs the record (:meth:`repro.train.stash.StashPolicy.
  record`): it stashes what the table keeps, through each gist or swap
  decision's codec, rebuilds a ``recompute`` / ``shared_concat`` map
  from its decision's ``source_id`` and ``chain``, and frees every
  stash at the table's death (:meth:`PlanRecord.stash_deaths`).

The hybrid selector prices, for every stashed feature map, with the
roofline cost model —

* **Gist encoding** — the per-class choice (Binarize / SSDC / DPR);
  cost is the decision's step-time delta, the price Figures 9/11 sum
  (:func:`repro.core.schedule_builder._gist_option`);
* **recompute** — drop the map after its last forward use and re-execute
  the forward chain from the cheapest *value-exact* ancestor during the
  backward pass; cost is the chain's forward kernel time (what
  :func:`repro.memory.recompute.chain_forward_seconds` sums);
* **host swap** — offload over PCIe after the forward use, prefetch
  before the backward use; cost is the un-hidden fraction of the two
  transfers, calibrated per graph against the vDNN event simulation;
* **shared concat** — read the map back as a channel prefix of its
  concat chain's kept terminal (:mod:`repro.memory.shared_concat`); the
  backward reads are views of that buffer, so no tensor replaces the
  map —

then selects greedily by bytes-saved per second of overhead under a
step-time budget.

Strategy arms: ``build_hybrid_plan(graph, policy.with_(strategy=...))``
restricts the planner to one lever under the same budget and the same
base table; the hybrid arm adopts the best pure selection whenever
greedy mixing did not beat it, so ``hybrid footprint <= min(pure
footprints)`` holds structurally.  No arm merges inplace pairs (a
post-pass of ``build_gist_plan``), and one build hands its baseline
table to the swap calibration and every arm (:func:`apply_decisions`
copies only the entries an arm changes).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.dtypes import UINT8
from repro.graph.graph import Graph
from repro.graph.liveness import (
    LiveTensor,
    ROLE_DECODED,
    ROLE_ENCODED,
    ROLE_FEATURE_MAP,
    ROLE_WORKSPACE,
    feature_map_uses,
)
from repro.graph.schedule import TrainingSchedule, schedule_of
from repro.memory.allocator import StaticAllocator
from repro.memory.planner import MemoryPlan, build_memory_plan
from repro.tensor.categories import TensorCategory
from repro.tensor.spec import TensorSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sparsity import SparsityModel
    from repro.core.policy import GistConfig, HybridPolicy
    from repro.perf.cost import CostModel, StepTime

# Per-tensor decision labels.
CHOICE_KEEP = "keep"
CHOICE_GIST = "gist"
CHOICE_RECOMPUTE = "recompute"
CHOICE_SWAP = "swap"
#: The DenseNet shared-concat-buffer arm: the map is a bit-exact channel
#: prefix of a downstream concat chain's terminal, so its private stash
#: is dropped and the backward read re-slices the terminal's kept buffer.
CHOICE_SHARED_CONCAT = "shared_concat"
ALL_CHOICES = (CHOICE_KEEP, CHOICE_GIST, CHOICE_RECOMPUTE, CHOICE_SWAP,
               CHOICE_SHARED_CONCAT)
#: The choices whose map is not stashed at all: the backward pass
#: rebuilds it from the decision's source.
DROPPED_CHOICES = (CHOICE_RECOMPUTE, CHOICE_SHARED_CONCAT)

#: The suffix of the tensor that holds a decided map across the gap.
_STANDS_IN = {CHOICE_GIST: ".out.enc", CHOICE_SWAP: ".out.prefetch",
              CHOICE_RECOMPUTE: ".out.recomp"}

#: Layer kinds that can never appear *inside* a recompute chain:
#: re-running their forward pass is not deterministic and side-effect-free
#: (dropout draws from an RNG, batch norm updates running statistics), or
#: they are not ops at all (input) / must not re-run (loss).
NON_RECOMPUTABLE_KINDS = frozenset({"dropout", "batchnorm", "input", "loss"})

#: Choices a recompute *source* may carry.  The chain is re-executed from
#: the source's decoded stash, so that decode must reproduce the exact
#: forward values: an untouched FP32 stash (keep) or a host-swapped copy.
#: Binarize decodes to a mask and DPR rounds — both are value-destroying,
#: which is why a recompute decision can never sit downstream of a
#: lossy-encoded ancestor.
SOURCE_COMPATIBLE_CHOICES = frozenset({CHOICE_KEEP, CHOICE_SWAP})

#: Ancestor-walk depth limit; chains beyond this are never profitable
#: (the chain cost grows while the savings stay one feature map).
_MAX_CHAIN_LENGTH = 12


@dataclass(frozen=True)
class PlanDecision:
    """What a selector decided for one stashed feature map.

    The one decision record: candidate options, selected hybrid
    decisions and the Schedule Builder's Table-I decisions are all
    instances.
    """

    node_id: int
    node_name: str
    stash_class: str
    choice: str
    #: Gist codec name (``binarize``/``ssdc``/``dpr``, or a group-quant
    #: label) for gist choices.
    encoding: Optional[str]
    fp32_bytes: int
    #: Device bytes resident across the forward->backward gap.
    resident_bytes: int
    #: Modeled step-time cost of the choice, seconds.
    cost_s: float
    lossless: bool
    #: Recompute: the value-exact ancestor whose stash seeds the replay.
    #: Shared concat: the chain terminal whose kept stash is re-sliced.
    source_id: Optional[int] = None
    #: Recompute: node ids re-run in forward order, ending at this node.
    #: Shared concat: the concat path from this member to the terminal.
    chain: Tuple[int, ...] = ()
    sparsity: Optional[float] = None
    #: FP32 staging bytes live across the backward reads (0 when the
    #: backward kernel consumes the resident form directly).
    decoded_bytes: int = 0

    @property
    def savings_bytes(self) -> int:
        """Gap bytes freed relative to keeping the FP32 stash."""
        return self.fp32_bytes - self.resident_bytes


@dataclass
class PlanRecord:
    """What every selector returns: the decision table, the liveness
    table :func:`apply_decisions` rewrote under it, and what they were
    built from.  The plan oracles of :mod:`repro.verify` read only this.
    """

    graph: Graph
    schedule: TrainingSchedule
    plan: MemoryPlan
    #: The Gist switches the table was selected and rewritten under.
    config: "GistConfig"
    decisions: Dict[int, PlanDecision]
    #: Ids of the max-pools rewritten to stash an argmax map.
    rewritten_pools: Tuple[int, ...]

    def stash_deaths(self) -> Dict[int, int]:
        """``{node_id: death}`` of every map the table keeps into the
        backward pass: the last schedule time its stash may be read.

        An undecided map's stash is its FP32 ``.out`` tensor, a decided
        one's the tensor standing in for it across the gap; a
        shared-concat member is a view of its terminal's kept buffer and
        dies with it.  The loss output's backward op only seeds the pass.
        """
        graph = self.graph
        death_of = {t.spec.name: t.death for t in self.plan.tensors}
        forward_end = self.schedule.forward_end
        deaths: Dict[int, int] = {}
        for node in graph.nodes:
            decision = self.decisions.get(node.node_id)
            if decision is None:
                death = death_of.get(f"{node.name}.out", -1)
                if death >= forward_end and node.node_id != graph.output_id:
                    deaths[node.node_id] = death
            elif decision.choice == CHOICE_SHARED_CONCAT:
                terminal = graph.node(decision.source_id)
                deaths[node.node_id] = death_of[f"{terminal.name}.out"]
            else:
                deaths[node.node_id] = death_of[
                    node.name + _STANDS_IN[decision.choice]]
        return deaths


@dataclass
class HybridPlan(PlanRecord):
    """A rewritten memory plan plus the per-tensor decisions behind it."""

    policy: "HybridPolicy"
    baseline_step_s: float
    budget_s: float
    total_cost_s: float
    allocated_bytes: int
    baseline_allocated_bytes: int
    #: Allocated footprint of each pure arm under the same budget
    #: (populated when ``policy.strategy == "hybrid"``).
    pure_footprints: Dict[str, int] = field(default_factory=dict)
    #: Pure arm whose selection the hybrid adopted outright because greedy
    #: mixing did not beat it (``None`` when the mixed selection stood).
    fallback_strategy: Optional[str] = None

    @property
    def overhead_frac(self) -> float:
        """Selected decisions' cost as a fraction of the baseline step."""
        return self.total_cost_s / self.baseline_step_s

    @property
    def lossless(self) -> bool:
        """Whether every decision round-trips bit-exactly."""
        return all(d.lossless for d in self.decisions.values())

    @property
    def footprint_ratio(self) -> float:
        """Baseline allocated bytes over this plan's allocated bytes."""
        return self.baseline_allocated_bytes / self.allocated_bytes

    def bytes_by_choice(self) -> Dict[str, int]:
        """FP32 stash bytes governed by each choice (keep included)."""
        out = {c: 0 for c in ALL_CHOICES}
        for d in self.decisions.values():
            out[d.choice] += d.fp32_bytes
        return out


# ----------------------------------------------------------------------
# Recompute sources
# ----------------------------------------------------------------------
def find_recompute_chain(
    graph: Graph,
    uses: Dict[int, tuple],
    target_id: int,
    target_first_bwd: int,
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Walk toward the input for the nearest value-exact recompute source.

    ``uses`` is the :func:`~repro.graph.liveness.feature_map_uses` table
    the plan is rewritten under, so a source is a map the plan stashes,
    and the executor stashes what the plan does.

    Returns ``(source_id, chain)`` — the chain re-runs in order and ends
    at ``target_id`` — or ``None`` when no valid source exists.  A source
    must be stashed at runtime and its stash must still be live at the
    target's first backward read (so the re-execution reads within the
    source's modeled lifetime); every chain member must be a single-input,
    deterministic, side-effect-free op.
    """
    target = graph.node(target_id)
    if target.kind in NON_RECOMPUTABLE_KINDS or len(target.inputs) != 1:
        return None
    chain: List[int] = [target_id]
    current = target
    for _ in range(_MAX_CHAIN_LENGTH):
        parent = graph.node(current.inputs[0])
        parent_last_bwd = uses[parent.node_id][2]
        if parent_last_bwd is not None and parent_last_bwd >= target_first_bwd:
            return parent.node_id, tuple(chain)
        if (
            parent.kind in NON_RECOMPUTABLE_KINDS
            or len(parent.inputs) != 1
        ):
            return None
        chain.insert(0, parent.node_id)
        current = parent
    return None


def _swap_stall_fraction(cost: "CostModel", step: "StepTime",
                         baseline: MemoryPlan) -> float:
    """Un-hidden fraction of a PCIe transfer, calibrated per graph.

    The vDNN event simulation says how much of the graph's total transfer
    volume its one-deep DMA pipeline fails to hide behind compute; that
    ratio prices each individual offload+prefetch pair here.
    """
    from repro.perf.swap import _simulate, _stashed_transfers  # memory<->perf

    sim = _simulate(cost, step, baseline, _stashed_transfers(baseline))
    naive_extra = sim.naive_s - sim.baseline_s
    if naive_extra <= 0.0:
        # No offloadable stashes in the vDNN sim; assume half hides.
        return 0.5
    frac = (sim.vdnn_s - sim.baseline_s) / naive_extra
    return max(0.0, min(1.0, frac))


# ----------------------------------------------------------------------
# Option generation
# ----------------------------------------------------------------------
def _drop_option(node, stash_class, fp32_bytes, choice, cost_s,
                 source_id=None, chain=()) -> PlanDecision:
    """A non-codec lever: nothing stays on the device across the gap and
    the backward pass reads a full-size FP32 map (rebuilt, prefetched, or
    a view of a concat chain's terminal)."""
    return PlanDecision(
        node_id=node.node_id, node_name=node.name, stash_class=stash_class,
        choice=choice, encoding=None, fp32_bytes=fp32_bytes,
        resident_bytes=0, cost_s=cost_s, lossless=True,
        source_id=source_id, chain=chain, decoded_bytes=fp32_bytes,
    )


def _candidate_options(
    graph, schedule, stash_infos, uses, cfg, sparsity_model, cost, step,
    swap_stall, concat_index=None,
) -> List[PlanDecision]:
    from repro.core.schedule_builder import _gist_option

    concat_index = concat_index or {}
    options: List[PlanDecision] = []
    for node in graph.nodes:
        nid = node.node_id
        info = stash_infos.get(nid)
        if info is None or nid == graph.output_id:
            continue
        last_fwd, first_bwd, last_bwd = uses[nid]
        if first_bwd is None:
            continue  # not stashed under the effective (rewritten) needs
        fp32_bytes = 4 * math.prod(node.output_shape)

        gist = _gist_option(graph, node, info.stash_class, cfg,
                            sparsity_model, cost)
        if gist is not None:
            options.append(gist)

        found = find_recompute_chain(graph, uses, nid, first_bwd)
        if found is not None:
            source_id, chain = found
            # Priced as chain_forward_seconds does, from the step table.
            options.append(_drop_option(
                node, info.stash_class, fp32_bytes, CHOICE_RECOMPUTE,
                sum(step.per_node_forward[i] for i in chain),
                source_id, chain,
            ))

        # Host swap: offload after the last forward use, prefetch before
        # the first backward use.  Only the un-hidden fraction of the two
        # PCIe transfers costs step time; each DMA submission pays one
        # launch overhead.
        options.append(_drop_option(
            node, info.stash_class, fp32_bytes, CHOICE_SWAP,
            2.0 * cost.transfer_time(fp32_bytes) * swap_stall
            + 2.0 * cost.device.kernel_overhead,
        ))

        # Shared concat buffer: this map is a bit-exact channel prefix of
        # its chain terminal, so the private stash can be dropped and the
        # backward read is a view into the terminal's kept FP32 buffer.
        # Requires the terminal to be stashed at runtime.
        chain = concat_index.get(nid)
        if chain is not None:
            _, terminal_first_bwd, _ = uses[chain.terminal_id]
            if terminal_first_bwd is not None:
                options.append(_drop_option(
                    node, info.stash_class, fp32_bytes, CHOICE_SHARED_CONCAT,
                    # The view copies nothing, but the option keeps the
                    # price of one read + write pass: priced free, the
                    # budget it frees buys a larger swap whose prefetch
                    # buffer lands at the peak (densenet, batch 32: +1.4 %
                    # allocated), because swaps are not scored by where
                    # their buffers land.
                    cost.copy_time(2 * fp32_bytes)
                    + cost.device.kernel_overhead,
                    chain.terminal_id, chain.path(nid),
                ))
    return options


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def _select(
    options: List[PlanDecision], budget_s: float, allowed_choices
) -> Tuple[Dict[int, PlanDecision], float]:
    """Greedy budgeted selection: best bytes-per-second ratio first.

    At most one option per tensor; recompute sources are pinned to
    value-exact choices (the lossy-ancestor guard); shared-concat
    terminals are pinned to *keep* outright (their FP32 stash is the
    shared buffer every member re-slices); every accepted option must fit
    the remaining budget.  Ties break deterministically on
    (node id, choice).
    """
    eligible = [
        o for o in options
        if o.choice in allowed_choices and o.savings_bytes > 0
    ]
    eligible.sort(
        key=lambda o: (
            -(o.savings_bytes / max(o.cost_s, 1e-15)),
            o.node_id,
            o.choice,
        )
    )
    assigned: Dict[int, PlanDecision] = {}
    pinned: set = set()
    keep_pinned: set = set()
    spent = 0.0
    for option in eligible:
        if option.node_id in assigned or option.node_id in keep_pinned:
            continue
        if (option.node_id in pinned
                and option.choice not in SOURCE_COMPATIBLE_CHOICES):
            continue
        if option.choice == CHOICE_RECOMPUTE:
            source = assigned.get(option.source_id)
            if (source is not None
                    and source.choice not in SOURCE_COMPATIBLE_CHOICES):
                continue
        if option.choice == CHOICE_SHARED_CONCAT:
            # The terminal must remain an untouched FP32 keep: any prior
            # decision on it (even the value-exact swap, whose prefetch
            # window is modeled for the terminal's own backward reads,
            # not the members' earlier ones) forfeits the member option.
            if option.source_id in assigned:
                continue
        if spent + option.cost_s > budget_s + 1e-12:
            continue
        assigned[option.node_id] = option
        spent += option.cost_s
        if option.choice == CHOICE_RECOMPUTE:
            pinned.add(option.source_id)
        elif option.choice == CHOICE_SHARED_CONCAT:
            keep_pinned.add(option.source_id)
    return assigned, spent


# ----------------------------------------------------------------------
# Plan rewriting
# ----------------------------------------------------------------------
def source_read_time(decision: PlanDecision, uses) -> Optional[int]:
    """When ``decision`` reads its source's stash, or ``None``.

    A recompute target replays from its source at the target's first
    backward read; a shared-concat member is its terminal's prefix
    through the member's last backward read.  The planner prices this
    and the runtime liveness checker polices it; ``uses`` is the
    :func:`~repro.graph.liveness.feature_map_uses` table.
    """
    if decision.choice == CHOICE_RECOMPUTE:
        return uses[decision.node_id][1]
    if decision.choice == CHOICE_SHARED_CONCAT:
        return uses[decision.node_id][2]
    return None


def rewritten_pools(graph: Graph, cfg) -> Tuple[int, ...]:
    """Ids of the max-pools whose backward replays a 4-bit argmax map
    instead of reading their X and Y maps: every max-pool when
    ``cfg.binarize`` is on (only the graph input lacks a backward op, and
    it is no pool), none otherwise.

    The one definition: :func:`apply_decisions` carries these pools' maps
    and :func:`repro.perf.overhead.measure_overhead` credits their reads.
    """
    if not cfg.binarize:
        return ()
    return tuple(node.node_id for node in graph.nodes
                 if node.kind == "maxpool")


def apply_decisions(
    plan: MemoryPlan, uses, decisions: Dict[int, PlanDecision], cfg,
) -> Tuple[int, ...]:
    """Rewrite a baseline liveness table under a decision table.

    The one liveness rewrite every selector shares: the FP32 map dies at
    its last forward use whenever a decision replaces it across the gap;
    the replacement (encoded stash / rebuilt map / prefetch buffer) spans
    exactly the interval the backward pass reads.

    Copy-on-write: ``plan.tensors`` becomes a new list in which every
    entry the rewrite changes is a fresh copy and every other entry is
    the one it was given.  So one baseline table can seed any number of
    rewrites (the hybrid planner's arms) and is left as it was.

    Args:
        plan: A :func:`~repro.memory.planner.build_memory_plan` result for
            the graph, or a plan sharing one's tensor list.
        uses: ``{node_id: (last forward use, first backward use, last
            backward use)}`` under ``cfg``'s pool rewrite.
        decisions: The table; undecided stashes keep their FP32 lifetime.
        cfg: The :class:`~repro.core.policy.GistConfig` the table was
            selected under (pool argmax rewrite).

    Returns:
        Ids of the max-pools rewritten to stash an argmax map
        (:func:`rewritten_pools`).
    """
    graph, schedule = plan.graph, plan.schedule
    tensors = plan.tensors = list(plan.tensors)
    fm_index: Dict[int, int] = {
        t.node_id: i for i, t in enumerate(tensors)
        if t.role == ROLE_FEATURE_MAP
    }
    copied: set = set()

    def own(nid) -> LiveTensor:
        # The entry of ``nid``'s map, copied on its first write.
        i = fm_index[nid]
        if nid not in copied:
            copied.add(nid)
            tensors[i] = copy.copy(tensors[i])
        return tensors[i]

    new_tensors: List[LiveTensor] = []
    prefetch_by_node: Dict[int, LiveTensor] = {}

    def backward_copy(node, fm, suffix, first_bwd, last_bwd,
                      role=ROLE_DECODED) -> LiveTensor:
        # The full-size FP32 buffer the backward reads of a replaced
        # stash use: decoded, prefetched or recomputed.
        buffer = LiveTensor(
            TensorSpec(f"{node.name}.out.{suffix}", node.output_shape,
                       fm.spec.dtype, TensorCategory.FEATURE_MAP),
            birth=first_bwd, death=last_bwd, node_id=node.node_id, role=role,
        )
        new_tensors.append(buffer)
        return buffer

    for node in graph.nodes:
        nid = node.node_id
        fm = tensors[fm_index[nid]]
        last_fwd, first_bwd, last_bwd = uses[nid]
        if first_bwd is None:
            option, death = None, last_fwd
        else:
            option = decisions.get(nid)
            death = max(last_fwd, last_bwd) if option is None else last_fwd
        if fm.death != death:
            own(nid).death = death
        if option is None:
            continue

        if option.choice == CHOICE_GIST:
            # Whatever the codec: an opaque byte blob of the priced size.
            new_tensors.append(LiveTensor(
                TensorSpec(f"{node.name}.out.enc", (option.resident_bytes,),
                           UINT8, TensorCategory.ENCODED),
                birth=last_fwd, death=last_bwd, node_id=nid,
                role=ROLE_ENCODED,
            ))
            if option.decoded_bytes:
                backward_copy(node, fm, "dec", first_bwd, last_bwd)
        elif option.choice == CHOICE_SWAP:
            prefetch_by_node[nid] = backward_copy(node, fm, "prefetch",
                                                  first_bwd, last_bwd)
        elif option.choice == CHOICE_SHARED_CONCAT:
            # The member's map aliases the terminal's growing buffer for
            # its whole forward life, and its backward reads are views of
            # that buffer: no new space.
            own(nid).alias_group = f"concat:{option.source_id}"
        elif option.choice == CHOICE_RECOMPUTE:
            backward_copy(node, fm, "recomp", first_bwd, last_bwd,
                          role=ROLE_FEATURE_MAP)
            # Chain intermediates live only while the chain replays — a
            # transient scratch region sized to the largest one.
            intermediates = option.chain[:-1]
            if intermediates:
                scratch = max(
                    4 * math.prod(graph.node(i).output_shape)
                    for i in intermediates
                )
                new_tensors.append(
                    LiveTensor(
                        TensorSpec(f"{node.name}.out.rechain", (scratch,),
                                   UINT8, TensorCategory.WORKSPACE),
                        birth=first_bwd,
                        death=first_bwd,
                        node_id=nid,
                        role=ROLE_WORKSPACE,
                    )
                )

    # A source re-read (source_read_time) can fall outside the source's
    # own window: a recompute source is read before its backward window
    # (if it has one), so an FP32-kept source stays live until then and a
    # swapped one is prefetched for it.  A shared-concat terminal's buffer
    # is re-read by members that run backward after it: the kept stash
    # is extended and pulled into the members' aliasing group, so the
    # allocator prices the whole chain as one terminal-sized region.
    for option in decisions.values():
        read = source_read_time(option, uses)
        if read is None:
            continue
        source_option = decisions.get(option.source_id)
        if option.choice == CHOICE_SHARED_CONCAT or source_option is None:
            source_id = option.source_id
            if tensors[fm_index[source_id]].death < read:
                own(source_id).death = read
            if option.choice == CHOICE_SHARED_CONCAT:
                own(source_id).alias_group = f"concat:{source_id}"
        elif source_option.choice == CHOICE_SWAP:
            prefetch = prefetch_by_node[option.source_id]
            prefetch.birth = min(prefetch.birth, read)

    # Argmax maps for rewritten pools (the uses above were computed under
    # the rewrite, so the maps must be carried whether or not a binarize
    # choice was selected).
    pools = rewritten_pools(graph, cfg)
    for pool_id in pools:
        node = graph.node(pool_id)
        map_spec = node.layer.argmax_map_spec(node.output_shape)
        new_tensors.append(
            LiveTensor(
                TensorSpec(f"{node.name}.argmax", node.output_shape,
                           map_spec.dtype, TensorCategory.ENCODED),
                birth=schedule.forward_time(pool_id),
                death=schedule.backward_time(pool_id),
                node_id=pool_id,
                role=ROLE_ENCODED,
            )
        )

    tensors.extend(new_tensors)
    return pools


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
def build_hybrid_plan(
    graph: Graph,
    policy: "Optional[HybridPolicy]" = None,
    sparsity_model: "Optional[SparsityModel]" = None,
    schedule: Optional[TrainingSchedule] = None,
    cost: "Optional[CostModel]" = None,
) -> HybridPlan:
    """Price encode/recompute/swap per stashed tensor and select a mix.

    Args:
        graph: Training execution graph.
        policy: Strategy, budget and gist switches (defaults to the
            all-levers lossless :class:`~repro.core.policy.HybridPolicy`).
        sparsity_model: Supplies per-layer sparsity for SSDC sizing.
        schedule: Precomputed schedule (built if omitted).
        cost: Device cost model (Titan X roofline by default).

    Returns:
        A :class:`HybridPlan` whose ``plan`` feeds the static allocator
        and whose ``decisions`` drive
        :class:`repro.train.stash.HybridExecutionPolicy`.
    """
    from repro.analysis.sparsity import DEFAULT_SPARSITY_MODEL
    from repro.core.analysis import classify_all_stashes
    from repro.core.policy import (
        HybridPolicy,
        STRATEGY_GIST,
        STRATEGY_HYBRID,
        STRATEGY_RECOMPUTE,
        STRATEGY_SHARED_CONCAT,
        STRATEGY_SWAP,
    )
    from repro.memory.shared_concat import (
        find_concat_chains,
        member_to_terminal,
    )
    from repro.perf.cost import CostModel

    policy = policy or HybridPolicy()
    sparsity_model = sparsity_model or DEFAULT_SPARSITY_MODEL
    if schedule is None:
        schedule = schedule_of(graph)
    cost = cost or CostModel()
    cfg = policy.gist

    # The graph is static: its step timing and liveness table come from
    # the graph's memo, and this build hands them to everything below.
    step = cost.step_time(graph)
    baseline_step_s = step.total_s
    budget_s = policy.cost_budget_frac * baseline_step_s
    baseline = build_memory_plan(graph, schedule)
    baseline_allocated = StaticAllocator().allocate(
        baseline.tensors).total_bytes
    stash_infos = classify_all_stashes(graph, schedule)
    uses = feature_map_uses(graph, schedule, cfg.binarize)
    swap_stall = _swap_stall_fraction(cost, step, baseline)
    concat_index = member_to_terminal(find_concat_chains(graph))
    options = _candidate_options(graph, schedule, stash_infos, uses, cfg,
                                 sparsity_model, cost, step, swap_stall,
                                 concat_index)

    choices_of = {
        STRATEGY_GIST: {CHOICE_GIST},
        STRATEGY_RECOMPUTE: {CHOICE_RECOMPUTE},
        STRATEGY_SWAP: {CHOICE_SWAP},
        STRATEGY_SHARED_CONCAT: {CHOICE_SHARED_CONCAT},
        STRATEGY_HYBRID: {CHOICE_GIST, CHOICE_RECOMPUTE, CHOICE_SWAP,
                          CHOICE_SHARED_CONCAT},
    }

    def build_arm(allowed):
        assigned, spent = _select(options, budget_s, allowed)
        plan = MemoryPlan(graph, schedule, baseline.tensors)
        pools = apply_decisions(plan, uses, assigned, cfg)
        allocated = StaticAllocator().allocate(plan.tensors).total_bytes
        return assigned, spent, plan, pools, allocated

    pure_footprints: Dict[str, int] = {}
    fallback_strategy: Optional[str] = None
    if policy.strategy == STRATEGY_HYBRID:
        arms = {
            strategy: build_arm(choices_of[strategy])
            for strategy in (STRATEGY_GIST, STRATEGY_RECOMPUTE,
                             STRATEGY_SWAP, STRATEGY_SHARED_CONCAT)
        }
        pure_footprints = {s: arm[4] for s, arm in arms.items()}
        selected = build_arm(choices_of[STRATEGY_HYBRID])
        best_pure = min(sorted(pure_footprints),
                        key=lambda s: pure_footprints[s])
        if pure_footprints[best_pure] < selected[4]:
            # Greedy mixing lost to a pure arm; adopt that selection so
            # the hybrid is never worse than the best single strategy.
            selected = arms[best_pure]
            fallback_strategy = best_pure
    else:
        selected = build_arm(choices_of[policy.strategy])
    assigned, spent, plan, pools, allocated = selected

    return HybridPlan(
        graph=graph,
        schedule=schedule,
        plan=plan,
        config=cfg,
        decisions=dict(sorted(assigned.items())),
        rewritten_pools=pools,
        policy=policy,
        baseline_step_s=baseline_step_s,
        budget_s=budget_s,
        total_cost_s=spent,
        allocated_bytes=allocated,
        baseline_allocated_bytes=baseline_allocated,
        pure_footprints=pure_footprints,
        fallback_strategy=fallback_strategy,
    )
