"""Differential oracles for plans, allocators and encodings.

Each oracle is a pure function from finished artifacts (an
:class:`~repro.memory.allocator.AllocationResult`, a selector's
:class:`~repro.memory.hybrid.PlanRecord`, a codec plus input) to a
list of :class:`Violation`.  Keeping them artifact-level rather than
end-to-end is what makes the fault-injection tests possible: a test can
corrupt one group/death/codec and assert the matching oracle — and only
it — fires.

The checks are *differential* where it matters: plan deaths are compared
against an independent reimplementation of the last-use computation (not
against the Schedule Builder's own helpers) by one walker,
:func:`_check_liveness`, that every selector's table goes through —
``check_plan_safety`` and ``check_hybrid_plan`` differ in the label they
stamp and in the non-liveness legs each adds — allocator totals across
policies are compared against each other, and every policy's total is
compared against the dynamic simulator and an interval max-clique lower
bound that is recomputed here from raw ``[birth, death]`` intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.schedule_builder import ENC_BINARIZE, ENC_DPR, ENC_SSDC
from repro.encodings.base import Encoding
from repro.encodings.dpr import DPREncoding
from repro.encodings.floatsim import max_relative_error
from repro.encodings.groupquant import GroupQuantEncoding
from repro.encodings.ssdc import SSDCEncoding, csr_bytes
from repro.graph.liveness import (
    LiveTensor,
    ROLE_DECODED,
    ROLE_ENCODED,
    ROLE_FEATURE_MAP,
)
from repro.kernels.plan import bit_identical
from repro.memory.allocator import (
    POLICY_FIRST_FIT,
    POLICY_GREEDY_SIZE,
    AllocationResult,
)
from repro.memory.hybrid import (
    CHOICE_GIST,
    CHOICE_RECOMPUTE,
    CHOICE_SHARED_CONCAT,
    CHOICE_SWAP,
    NON_RECOMPUTABLE_KINDS,
    HybridPlan,
    PlanRecord,
)
from repro.train.stash import _make_codec

# Oracle identifiers (stable strings used in reports and tests).
ORACLE_ALLOCATOR_SAFETY = "allocator-safety"
ORACLE_POLICY_BOUNDS = "policy-bounds"
ORACLE_PLAN_SAFETY = "plan-safety"
ORACLE_DECISION_BYTES = "decision-bytes"
ORACLE_ROUNDTRIP = "encoding-roundtrip"
ORACLE_HYBRID = "hybrid-plan"
ORACLE_REWRITE = "rewrite-equivalence"
ORACLE_LOSSLESS = "lossless-execution"
ORACLE_SHARED_CONCAT = "shared-concat"
ORACLE_RECURRENT = "recurrent-unroll"


@dataclass(frozen=True)
class Violation:
    """One oracle failure, with enough context to reproduce it."""

    oracle: str
    detail: str
    seed: Optional[int] = None
    subject: str = ""

    def __str__(self) -> str:
        where = f" [{self.subject}]" if self.subject else ""
        seed = f" (seed {self.seed})" if self.seed is not None else ""
        return f"{self.oracle}{where}{seed}: {self.detail}"


# ----------------------------------------------------------------------
# (a) Allocator safety
# ----------------------------------------------------------------------
def check_allocator_safety(
    result: AllocationResult, tensors: Sequence[LiveTensor]
) -> List[Violation]:
    """No two live-overlapping tensors may share an AllocationGroup.

    Also checks coverage (every input tensor landed in exactly one group)
    and that non-shareable tensors received dedicated groups.  Groups
    marked ``aliased`` are exempt from the overlap check — their members
    are declared views of one buffer — but every member must then carry
    the group's single ``alias_group`` label, so a stray tensor can never
    ride along.

    Sharing must also happen.  When two positive-size, shareable,
    unlabelled tensors have disjoint lifetimes, a sharing policy's total
    is strictly below no sharing's (the sum of every tensor's bytes).
    Whichever of the two is placed later either fits the other's group,
    and so joins that or an earlier open group, or finds that group
    holding a second member.  Either way some group holds two of the open
    groups' members.  Under greedy-size those are never zero-size (the
    largest are placed first); under first-fit only a zero-size tensor
    could be one, so the leg skips first-fit on a table holding one.
    """
    violations: List[Violation] = []
    seen: Dict[str, int] = {}
    for gi, group in enumerate(result.groups):
        if getattr(group, "aliased", False):
            labels = {t.alias_group for t in group.members}
            if len(labels) != 1 or None in labels:
                violations.append(Violation(
                    ORACLE_ALLOCATOR_SAFETY,
                    f"aliased group {gi} ({result.policy}) mixes alias "
                    f"labels {sorted(map(str, labels))}",
                ))
            for t in group.members:
                seen[t.spec.name] = seen.get(t.spec.name, 0) + 1
            continue
        members = sorted(group.members, key=lambda t: (t.birth, t.death))
        for prev, cur in zip(members, members[1:]):
            if cur.birth <= prev.death:  # intervals are inclusive
                violations.append(Violation(
                    ORACLE_ALLOCATOR_SAFETY,
                    f"group {gi} ({result.policy}) aliases live tensors "
                    f"{prev.spec.name!r} [{prev.birth},{prev.death}] and "
                    f"{cur.spec.name!r} [{cur.birth},{cur.death}]",
                ))
        for t in group.members:
            if t.alias_group is not None and len(group.members) > 1:
                violations.append(Violation(
                    ORACLE_ALLOCATOR_SAFETY,
                    f"alias-labelled tensor {t.spec.name!r} placed in "
                    f"ordinary shared group {gi}",
                ))
            if not t.shareable and len(group.members) > 1:
                violations.append(Violation(
                    ORACLE_ALLOCATOR_SAFETY,
                    f"non-shareable tensor {t.spec.name!r} placed in "
                    f"group {gi} with {len(group.members) - 1} other(s)",
                ))
            seen[t.spec.name] = seen.get(t.spec.name, 0) + 1
    for t in tensors:
        count = seen.get(t.spec.name, 0)
        if count != 1:
            violations.append(Violation(
                ORACLE_ALLOCATOR_SAFETY,
                f"tensor {t.spec.name!r} appears in {count} groups "
                f"(expected exactly 1)",
            ))
    loose = [t for t in tensors if t.shareable and t.alias_group is None]
    sized = [t for t in loose if t.size_bytes > 0]
    if sized and (result.policy == POLICY_GREEDY_SIZE
                  or (result.policy == POLICY_FIRST_FIT
                      and len(sized) == len(loose))):
        # An inverted interval occupies its birth step (the allocator's
        # rule), so each tensor's last step is the later of the two.
        first = min(sized, key=lambda t: max(t.birth, t.death))
        last = max(sized, key=lambda t: t.birth)
        none = sum(t.size_bytes for t in tensors)
        if (max(first.birth, first.death) < last.birth
                and result.total_bytes >= none):
            violations.append(Violation(
                ORACLE_ALLOCATOR_SAFETY,
                f"{result.policy} total {result.total_bytes} shares no "
                f"bytes (no-sharing total {none}), though "
                f"{first.spec.name!r} dies before {last.spec.name!r} is "
                f"born",
            ))
    return violations


# ----------------------------------------------------------------------
# (b) Cross-model bounds
# ----------------------------------------------------------------------
def interval_clique_bound(tensors: Sequence[LiveTensor]) -> int:
    """Max-clique lower bound: peak sum of co-live sizes.

    For interval graphs the max clique is attained at some interval's
    birth point, so scanning births is exact — and independent of the
    sweep implementation in :mod:`repro.memory.dynamic`.  An inverted
    interval (a corrupted table; ``LiveTensor`` validates only at
    construction) occupies its birth step, as in the static allocator and
    :func:`~repro.memory.dynamic.simulate_dynamic`.
    """
    best = 0
    for t in tensors:
        at = t.birth
        total = sum(
            o.size_bytes for o in tensors
            if o.birth <= at <= o.death or o.birth == at
        )
        best = max(best, total)
    return best


def check_policy_bounds(
    totals_by_policy: Dict[str, int],
    dynamic_peak: int,
    clique_bound: int,
    strict: bool = False,
) -> List[Violation]:
    """Orderings a correct allocator stack must satisfy.

    Hard legs (theorems — a violation is always a bug):

    * every sharing policy ``<= none`` on total bytes (a group's region is
      its largest member, never the sum);
    * every policy's total ``>= dynamic peak >= max-clique bound`` (a
      static assignment can never beat the peak of live bytes, which in
      turn is an interval max clique).

    Strict leg (``strict=True``): ``greedy-size <= first-fit``.  This is
    NOT a theorem — a finding of this very fuzzer: on ~10% of fan-out
    graphs the insertion-order first-fit (close to the optimal left-edge
    packing, since the liveness table is roughly birth-sorted) beats the
    CNTK size-sorted heuristic by 1-10%.  On the paper's chain-dominated
    models greedy always wins, which is why hand-written tests never saw
    it.  ``tests/verify/test_fuzzer.py`` pins a counterexample seed.
    """
    violations: List[Violation] = []
    greedy = totals_by_policy.get("greedy-size")
    first_fit = totals_by_policy.get("first-fit")
    none = totals_by_policy.get("none")
    if (strict and greedy is not None and first_fit is not None
            and greedy > first_fit):
        violations.append(Violation(
            ORACLE_POLICY_BOUNDS,
            f"greedy-size total {greedy} > first-fit total {first_fit}",
        ))
    for policy in ("greedy-size", "first-fit"):
        total = totals_by_policy.get(policy)
        if total is not None and none is not None and total > none:
            violations.append(Violation(
                ORACLE_POLICY_BOUNDS,
                f"{policy} total {total} > no-sharing total {none}",
            ))
    for policy, total in sorted(totals_by_policy.items()):
        if total < dynamic_peak:
            violations.append(Violation(
                ORACLE_POLICY_BOUNDS,
                f"{policy} total {total} < dynamic peak {dynamic_peak}",
            ))
    if dynamic_peak < clique_bound:
        violations.append(Violation(
            ORACLE_POLICY_BOUNDS,
            f"dynamic peak {dynamic_peak} < interval clique bound "
            f"{clique_bound}",
        ))
    return violations


# ----------------------------------------------------------------------
# (c) Plan safety
# ----------------------------------------------------------------------
def _independent_uses(graph, schedule, node_id: int, pools_rewritten: bool):
    """(last_fwd, first_bwd, last_bwd) recomputed from first principles.

    Deliberately *not* shared with the Schedule Builder: this is the
    differential half of the plan oracle, derived directly from the
    schedule clock and each layer's backward-dependence flags (with the
    argmax rewrite wiping a max-pool's X/Y needs when Binarize is on).
    """
    node = graph.node(node_id)
    last_fwd = schedule.forward_time(node_id)
    bwd: List[int] = []
    for consumer in graph.consumers(node_id):
        last_fwd = max(last_fwd, schedule.forward_time(consumer.node_id))
        needs_in = consumer.layer.backward_needs_input
        if pools_rewritten and consumer.kind == "maxpool":
            needs_in = False
        if needs_in and schedule.has_backward(consumer.node_id):
            bwd.append(schedule.backward_time(consumer.node_id))
    needs_out = node.layer.backward_needs_output
    if pools_rewritten and node.kind == "maxpool":
        needs_out = False
    if needs_out and schedule.has_backward(node_id):
        bwd.append(schedule.backward_time(node_id))
    if node_id == graph.output_id and schedule.has_backward(node_id):
        bwd.append(schedule.backward_time(node_id))
    if not bwd:
        return last_fwd, None, None
    return last_fwd, min(bwd), max(bwd)


def _check_replay(record: PlanRecord, decision, first_bwd: Optional[int],
                  tensors, fire) -> None:
    """The recompute leg of :func:`_check_liveness`, for one decision."""
    graph, name, chain = record.graph, decision.node_name, decision.chain
    if not chain or chain[-1] != decision.node_id:
        fire(f"{name}: recompute chain {chain} does not end at the "
             f"target node {decision.node_id}")
        return
    source = record.decisions.get(decision.source_id)
    if source is not None and source.choice != CHOICE_SWAP:
        fire(f"{name}: recompute source {source.node_name!r} carries a "
             f"{source.choice}"
             + (f"/{source.encoding}" if source.encoding else "")
             + " decision — replays would read inexact or missing values")
    for prev, chain_id in zip((decision.source_id,) + chain, chain):
        member = graph.node(chain_id)
        if list(member.inputs) != [prev]:
            fire(f"{name}: chain member {member.name!r} has inputs "
                 f"{list(member.inputs)}, expected [{prev}]")
            return
    if first_bwd is None:
        return
    swapped = source is not None and source.choice == CHOICE_SWAP
    read = [("source tensor", tensors.get(
        (decision.source_id, ".prefetch" if swapped else "")))]
    if len(chain) > 1:
        scratch = tensors.get((decision.node_id, ".rechain"))
        if scratch is None:
            fire(f"{name}: replaying {len(chain)} ops needs a scratch "
                 f"region the plan does not carry")
        read.append(("replay scratch", scratch))
    for what, live in read:
        if live is not None and not live.birth <= first_bwd <= live.death:
            fire(f"{name}: {what} {live.spec.name!r} "
                 f"[{live.birth},{live.death}] is not live at the target's "
                 f"first backward read {first_bwd}")


#: The tensor the backward reads of a decided map come from, by choice,
#: as a suffix of an FP32 map's ``<node>.out`` name: the one
#: ``apply_decisions`` builds in the map's place, or for a shared-concat
#: member the chain terminal's own map, which its reads are views of.
_REPLACEMENT_SUFFIX = {
    CHOICE_GIST: ".enc",
    CHOICE_SWAP: ".prefetch",
    CHOICE_RECOMPUTE: ".recomp",
    CHOICE_SHARED_CONCAT: "",
}


def _check_liveness(record: PlanRecord, oracle: str) -> List[Violation]:
    """The liveness differential every selector's table goes through.

    ``record`` is any :class:`~repro.memory.hybrid.PlanRecord`; every
    finding is stamped ``oracle``.  Against :func:`_independent_uses`,
    per node:

    * the FP32 map is in the plan (or, under ``config.inplace``, the
      buffer that absorbed it is born by this node's forward step) and
      survives its last forward use; with no decision it also survives
      its last backward use;
    * a decided map has its choice's replacement tensor (a shared-concat
      member: its terminal's map), born no later than the last forward
      use (gist) / first backward use (the rest) and alive to the last
      backward use;
    * gist: the carried stash has exactly the priced ``resident_bytes``,
      which never exceed the FP32 map (SSDC falls back at its breakeven,
      Binarize is 1 bit, DPR sub-32-bit), and a priced decoded staging
      buffer exists and covers the backward reads;
    * recompute: the chain ends at its target and each link is the sole
      input of the next, starting from the source (which also makes it
      acyclic: a repeated node would need two distinct successors); the
      source carries no decision but the value-exact swap and its
      surviving tensor (FP32 map, or prefetch buffer) is live at the
      target's first backward read, where the replay happens — as is
      the scratch region a chain of two or more ops replays through;
    * no decision targets the loss output.
    """
    graph, schedule, config = record.graph, record.schedule, record.config
    violations: List[Violation] = []

    def fire(detail: str) -> None:
        violations.append(Violation(oracle, detail))

    tensors: Dict[tuple, LiveTensor] = {}
    for t in record.plan.tensors:
        _, out, suffix = t.spec.name.rpartition(".out")
        if out:
            tensors[t.node_id, suffix] = t

    if graph.output_id in record.decisions:
        fire(f"{record.decisions[graph.output_id].choice} decision targets "
             f"the loss output {graph.node(graph.output_id).name!r}")

    for node in graph.nodes:
        nid = node.node_id
        last_fwd, first_bwd, last_bwd = _independent_uses(
            graph, schedule, nid, config.binarize
        )
        decision = record.decisions.get(nid)
        t = tensors.get((nid, ""))
        if t is None:
            # Inplace-merged into its consumer (transitively): that
            # buffer must cover this node's forward production point.
            heir, consumers = None, graph.consumers(nid)
            while config.inplace and heir is None and len(consumers) == 1:
                heir = tensors.get((consumers[0].node_id, ""))
                consumers = graph.consumers(consumers[0].node_id)
            if heir is None or heir.birth > schedule.forward_time(nid):
                fire(f"feature map of node {node.name!r} missing from plan")
        else:
            if t.death < last_fwd:
                fire(f"{t.spec.name!r} dies at {t.death} before its last "
                     f"forward use at {last_fwd}")
            if (decision is None and last_bwd is not None
                    and t.death < last_bwd):
                fire(f"undecided stash {t.spec.name!r} dies at {t.death} "
                     f"before its last backward use at {last_bwd}")
        if decision is None:
            continue

        name = decision.node_name
        owner = (decision.source_id
                 if decision.choice == CHOICE_SHARED_CONCAT else nid)
        r = tensors.get((owner, _REPLACEMENT_SUFFIX.get(decision.choice)))
        if r is None:
            fire(f"{decision.choice} decision for {node.name!r} has no "
                 f"replacement tensor in the plan")
        else:
            if decision.choice == CHOICE_GIST:
                if r.birth > last_fwd:
                    fire(f"{r.spec.name!r} born at {r.birth}, after the FP32 "
                         f"map's last forward use at {last_fwd}")
                if r.size_bytes != decision.resident_bytes:
                    fire(f"{name}: decision prices {decision.resident_bytes} "
                         f"resident bytes, plan carries {r.size_bytes}")
            elif first_bwd is not None and r.birth > first_bwd:
                fire(f"{r.spec.name!r} born at {r.birth}, after the first "
                     f"backward use at {first_bwd}")
            if last_bwd is not None and r.death < last_bwd:
                fire(f"{r.spec.name!r} dies at {r.death} before the last "
                     f"backward use at {last_bwd}")

        if decision.choice == CHOICE_GIST:
            if decision.resident_bytes > decision.fp32_bytes:
                fire(f"{name}: encoded stash ({decision.resident_bytes} B, "
                     f"{decision.encoding}) larger than the FP32 map it "
                     f"replaces ({decision.fp32_bytes} B)")
            d = tensors.get((nid, ".dec"))
            if decision.decoded_bytes and d is None:
                fire(f"decision for {node.name!r} prices a decoded buffer "
                     f"but the plan carries none")
            if d is not None and last_bwd is not None and (
                    d.birth > first_bwd or d.death < last_bwd):
                fire(f"{d.spec.name!r} [{d.birth},{d.death}] does not cover "
                     f"backward uses [{first_bwd},{last_bwd}]")
        elif decision.choice == CHOICE_RECOMPUTE:
            _check_replay(record, decision, first_bwd, tensors, fire)
    return violations


def check_plan_safety(
    gist_plan: PlanRecord, baseline_allocated: Optional[int] = None,
    gist_allocated: Optional[int] = None,
) -> List[Violation]:
    """A selector's table must never kill a buffer before its last use.

    The liveness differential (:func:`_check_liveness`) on any
    :class:`~repro.memory.hybrid.PlanRecord` — a Table-I ``GistPlan`` or
    a sqrt(N) ``RecomputePlan`` alike.  Optionally also checks that
    lossless Gist never *increases* the allocated footprint over the
    baseline (pass both totals).
    """
    violations = _check_liveness(gist_plan, ORACLE_PLAN_SAFETY)
    if (baseline_allocated is not None and gist_allocated is not None
            and not gist_plan.config.dpr):
        # Lossless Gist must not inflate the shared footprint beyond the
        # bytes of the structures it *adds* (encoded stashes, argmax maps,
        # decoded staging).  The allocator is a greedy heuristic, so a few
        # added tensors can legally perturb grouping by up to their own
        # size; anything past that means a lifetime was rewritten wrong.
        added = sum(
            t.size_bytes for t in gist_plan.plan.tensors
            if t.role in (ROLE_ENCODED, ROLE_DECODED)
        )
        # Inplace pair merging *removes* the producer's buffer and extends
        # the consumer's lifetime across both ops — the mirror image of an
        # added tensor, with the same bounded grouping perturbation: up to
        # the merged buffer's size.
        if gist_plan.config.inplace:
            kept = {t.node_id for t in gist_plan.plan.tensors
                    if t.role == ROLE_FEATURE_MAP}
            added += sum(4 * math.prod(node.output_shape)
                         for node in gist_plan.graph.nodes
                         if node.node_id not in kept)
        if gist_allocated > baseline_allocated + added:
            violations.append(Violation(
                ORACLE_PLAN_SAFETY,
                f"lossless Gist allocated {gist_allocated} bytes > baseline "
                f"{baseline_allocated} + added structures {added}",
            ))
    return violations


def check_decision_bytes(gist_plan: PlanRecord, rng=None) -> List[Violation]:
    """Every gist decision's priced ``encoded_bytes`` — in a Table-I plan
    or a hybrid one — must match a measured ``encode()``.

    Synthesises realistic data per decision (normal activations; for SSDC,
    with exactly the nonzero count the sparsity model priced) and compares
    the static size against ``measure_bytes`` of a real encode.
    """
    rng = rng or np.random.default_rng(0)
    violations: List[Violation] = []
    for decision in gist_plan.decisions.values():
        node = gist_plan.graph.node(decision.node_id)
        n = 1
        for dim in node.output_shape:
            n *= dim
        if decision.encoding in (ENC_BINARIZE, ENC_DPR):
            x = rng.normal(0, 1, n).astype(np.float32)
        elif decision.encoding == ENC_SSDC:
            nnz = round(n * (1.0 - decision.sparsity))
            x = np.zeros(n, dtype=np.float32)
            if nnz:
                idx = rng.choice(n, size=nnz, replace=False)
                x[idx] = np.abs(rng.normal(1, 1, nnz)).astype(np.float32) + 0.1
        else:
            continue
        # Measure the very codec the runtime would stash this map through.
        codec = _make_codec(decision, gist_plan.config)
        measured = codec.measure_bytes(codec.encode(x))
        if measured != decision.resident_bytes:
            violations.append(Violation(
                ORACLE_DECISION_BYTES,
                f"{decision.node_name}: plan prices {decision.resident_bytes} "
                f"bytes for {decision.encoding}, measured encode is "
                f"{measured}",
            ))
    return violations


# ----------------------------------------------------------------------
# (d) Encoding round-trips
# ----------------------------------------------------------------------
def check_roundtrip(codec: Encoding, x: np.ndarray) -> List[Violation]:
    """One ``encode(x)``, checked two ways: the round trip and the size model.

    * lossless: ``decode(encode(x))`` has the bytes of
      ``expected_decode(x)`` (:func:`~repro.kernels.plan.bit_identical`:
      the sign of zero counts, a NaN equals the same NaN);
    * DPR (plain or composed over SSDC values): elementwise error within
      half-ULP of the format for in-range normals, with flush-to-zero
      below ``min_normal`` and clamping at ``max_finite``;
    * group quantisation: per-group max error within half a grid step of
      the group's *real-value* span (the padding-skew regression bound);
    * every codec: the static ``encoded_bytes`` model (given SSDC's
      sparsity) equals ``measure_bytes`` of the encode (a group-quant
      encode that stores the wrong number of groups fails this too).
    """
    try:
        encoded = codec.encode(x)
        measured = codec.measure_bytes(encoded)
        decoded = codec.decode(encoded)
    except Exception as exc:  # noqa: BLE001 — a crash IS the finding
        return [Violation(
            ORACLE_ROUNDTRIP,
            f"{codec.name} crashed on shape {x.shape}: "
            f"{type(exc).__name__}: {exc}",
        )]
    violations = _check_size_model(codec, x, measured)
    if codec.lossless:
        decoded = np.asarray(decoded)
        expected = np.asarray(codec.expected_decode(x))
        if not bit_identical(decoded, expected):
            violations.append(Violation(
                ORACLE_ROUNDTRIP,
                f"{codec.name} round-trip not bit-exact on shape {x.shape} "
                f"({_first_difference(decoded, expected)})",
            ))
        return violations
    if decoded.shape != x.shape:
        return [Violation(
            ORACLE_ROUNDTRIP,
            f"{codec.name} decode shape {decoded.shape} != input {x.shape}",
        )]
    if isinstance(codec, DPREncoding):
        violations += _check_dpr_bound(codec.name, codec.dtype, x, decoded)
    elif isinstance(codec, SSDCEncoding) and codec.value_dtype is not None:
        # Dense zeros must stay exactly zero (the meta arrays are never
        # lossy); stored nonzeros obey the DPR value bound, which itself
        # allows flush-to-zero below the format's min_normal.
        spurious = int(np.sum(np.asarray(decoded)[np.asarray(x) == 0] != 0))
        if spurious:
            violations.append(Violation(
                ORACLE_ROUNDTRIP,
                f"{codec.name} decoded {spurious} nonzero value(s) at "
                f"dense-zero position(s)",
            ))
        nz = x != 0
        violations += _check_dpr_bound(codec.name, codec.value_dtype,
                                       x[nz], np.asarray(decoded)[nz])
    elif isinstance(codec, GroupQuantEncoding):
        violations += _check_groupquant_bound(codec, x, decoded)
    return violations


def _check_size_model(codec: Encoding, x: np.ndarray,
                      measured: int) -> List[Violation]:
    """The static size model must match the measured runtime encode."""
    ctx = {}
    if isinstance(codec, SSDCEncoding):
        ctx["sparsity"] = (
            float(np.mean(np.asarray(x) == 0)) if x.size else 1.0
        )
    model = codec.encoded_bytes(int(np.asarray(x).size), **ctx)
    if measured != model:
        return [Violation(
            ORACLE_ROUNDTRIP,
            f"{codec.name} static model says {model} bytes, measured "
            f"encode is {measured} (shape {x.shape})",
        )]
    return []


def _first_difference(got: np.ndarray, want: np.ndarray) -> str:
    """Where two arrays stop being bit-identical: the dtype or shape, else
    the first element whose bytes differ (so ``-0.0`` vs ``0.0`` shows)."""
    if got.dtype != want.dtype or got.shape != want.shape:
        return (f"decoded {got.dtype}{got.shape}, expected "
                f"{want.dtype}{want.shape}")
    g, w = got.ravel(), want.ravel()
    bits = f"u{g.itemsize}"
    i = int(np.flatnonzero(g.view(bits) != w.view(bits))[0])
    return f"flat index {i}: decoded {g[i]}, expected {w[i]}"


def _check_dpr_bound(name, dtype, x, decoded) -> List[Violation]:
    if x.size == 0:
        return []
    x64 = np.asarray(x, dtype=np.float64).ravel()
    d64 = np.asarray(decoded, dtype=np.float64).ravel()
    clipped = np.clip(x64, -dtype.max_finite, dtype.max_finite)
    rel = max_relative_error(dtype)
    # In-range normals: half-ULP relative.  Below min_normal: flushed to
    # zero, so the error can reach the value itself.  The 1.0001 fudge
    # absorbs float32 arithmetic in the encoder itself.
    bound = np.maximum(np.abs(clipped) * rel * 1.0001, dtype.min_normal)
    err = np.abs(d64 - clipped)
    bad = ~(err <= bound)  # a NaN error is out of bound too
    if np.any(bad):
        i = int(np.argmax(err - bound))
        return [Violation(
            ORACLE_ROUNDTRIP,
            f"{name} error {err[i]:.3e} exceeds bound {bound[i]:.3e} at "
            f"flat index {i} (x={x64[i]:.6e}, decoded={d64[i]:.6e})",
        )]
    return []


def _check_groupquant_bound(codec: GroupQuantEncoding, x,
                            decoded) -> List[Violation]:
    if x.size == 0:
        return []
    flat = np.asarray(x, dtype=np.float64).ravel()
    dflat = np.asarray(decoded, dtype=np.float64).ravel()
    levels = (1 << codec.bits) - 1
    starts = np.arange(0, flat.size, codec.group_size)
    hi = np.maximum.reduceat(flat, starts)
    lo = np.minimum.reduceat(flat, starts)
    span = hi - lo
    # Half a grid step over each group's REAL values (padding must not
    # widen the grid), plus float32 slack on scale arithmetic.
    bound = span / levels * 0.51 + 1e-6 + 1e-5 * np.maximum(
        np.abs(hi), np.abs(lo))
    err = np.maximum.reduceat(np.abs(dflat - flat), starts)
    return [
        Violation(
            ORACLE_ROUNDTRIP,
            f"{codec.name} group {g} error {err[g]:.6f} exceeds "
            f"span/levels bound {bound[g]:.6f} (span {span[g]:.6f}) — "
            f"padding-skewed grid?",
        )
        for g in np.flatnonzero(~(err <= bound))  # NaN is out of bound
    ]


# ----------------------------------------------------------------------
# (e) Hybrid plan safety
# ----------------------------------------------------------------------
def check_hybrid_plan(hybrid_plan: HybridPlan) -> List[Violation]:
    """Safety of a hybrid (encode x recompute x swap) memory plan.

    Checks, on a :class:`~repro.memory.hybrid.HybridPlan`:

    * **budget** — total selected cost within the policy's step-time
      budget;
    * **dominance** — the hybrid arm's allocated footprint is <= every
      pure arm's under the same budget (the planner's argmin fallback
      makes this structural; a violation means the fallback broke);
    * **replayability** — no recompute chain member is an
      RNG/state-mutating kind the executor cannot re-run.  This is the
      one rule a hybrid table owes beyond liveness: it is *executed*,
      where a sqrt(N) table (whose trunk segments cross dropout) is only
      priced;
    * **liveness** — the differential every selector's table goes
      through (:func:`_check_liveness`).
    """
    violations: List[Violation] = []
    if hybrid_plan.total_cost_s > hybrid_plan.budget_s * (1 + 1e-9) + 1e-12:
        violations.append(Violation(
            ORACLE_HYBRID,
            f"selected cost {hybrid_plan.total_cost_s:.3e}s exceeds budget "
            f"{hybrid_plan.budget_s:.3e}s",
        ))
    for strategy, footprint in sorted(hybrid_plan.pure_footprints.items()):
        if hybrid_plan.allocated_bytes > footprint:
            violations.append(Violation(
                ORACLE_HYBRID,
                f"hybrid allocated {hybrid_plan.allocated_bytes} bytes > "
                f"pure-{strategy} {footprint} under the same budget",
            ))
    for decision in hybrid_plan.decisions.values():
        if decision.choice != CHOICE_RECOMPUTE:
            continue
        for chain_id in decision.chain:
            member = hybrid_plan.graph.node(chain_id)
            if member.kind in NON_RECOMPUTABLE_KINDS:
                violations.append(Violation(
                    ORACLE_HYBRID,
                    f"{decision.node_name}: chain member {member.name!r} is "
                    f"a non-replayable {member.kind!r} op",
                ))
    return violations + _check_liveness(hybrid_plan, ORACLE_HYBRID)


# ----------------------------------------------------------------------
# (f) Shared-concat chains
# ----------------------------------------------------------------------
def check_shared_concat(hybrid_plan: HybridPlan) -> List[Violation]:
    """Structural safety of shared-concat decisions in a hybrid plan.

    The runtime read is ``terminal_stash[:, :channels]``, so each
    decision is sound iff, per decision:

    * the recorded chain runs from the member to its terminal over
      axis-1 concats, each linked through the next concat's **first**
      input (the one-buffer prefix condition; ``Concat.infer_shape``
      already holds the non-channel dims equal, and every producer
      refuses a non-positive size, so each link adds channels);
    * the terminal carries **no** decision of its own (its FP32 stash is
      kept untouched — the buffer every member re-slices);
    * the terminal's feature map is live through the member's last
      backward read, and both maps carry the chain's alias-group label
      (what makes the allocator price the chain as one region).
    """
    graph, schedule = hybrid_plan.graph, hybrid_plan.schedule
    pools_rewritten = hybrid_plan.config.binarize
    violations: List[Violation] = []
    fm: Dict[int, LiveTensor] = {
        t.node_id: t for t in hybrid_plan.plan.tensors
        if t.role == ROLE_FEATURE_MAP and t.spec.name.endswith(".out")
    }

    for decision in hybrid_plan.decisions.values():
        if decision.choice != CHOICE_SHARED_CONCAT:
            continue
        name = decision.node_name
        chain = decision.chain
        if (not chain or chain[0] != decision.node_id
                or chain[-1] != decision.source_id):
            violations.append(Violation(
                ORACLE_SHARED_CONCAT,
                f"{name}: chain {chain} does not run from the member "
                f"{decision.node_id} to the terminal {decision.source_id}",
            ))
            continue
        ok = True
        for prev_id, cur_id in zip(chain, chain[1:]):
            prev, cur = graph.node(prev_id), graph.node(cur_id)
            for link in (prev, cur):
                if link.kind != "concat":
                    violations.append(Violation(
                        ORACLE_SHARED_CONCAT,
                        f"{name}: chain member {link.name!r} is a "
                        f"{link.kind!r} op, not a concat",
                    ))
                    ok = False
            if not ok:
                break
            if cur.inputs[0] != prev_id:
                violations.append(Violation(
                    ORACLE_SHARED_CONCAT,
                    f"{name}: {cur.name!r} extends {prev.name!r} at input "
                    f"position {list(cur.inputs).index(prev_id) if prev_id in cur.inputs else '?'}, "
                    f"not position 0 — the prefix-copy property does not hold",
                ))
                ok = False
                break
        if not ok:
            continue
        terminal = hybrid_plan.decisions.get(decision.source_id)
        if terminal is not None:
            violations.append(Violation(
                ORACLE_SHARED_CONCAT,
                f"{name}: terminal {terminal.node_name!r} carries a "
                f"{terminal.choice} decision — the shared buffer must be "
                f"an untouched FP32 keep",
            ))
        _, _, member_last_bwd = _independent_uses(
            graph, schedule, decision.node_id, pools_rewritten
        )
        terminal_fm = fm.get(decision.source_id)
        member_fm = fm.get(decision.node_id)
        if terminal_fm is None or member_fm is None:
            violations.append(Violation(
                ORACLE_SHARED_CONCAT,
                f"{name}: member or terminal feature map missing from plan",
            ))
            continue
        if member_last_bwd is not None and terminal_fm.death < member_last_bwd:
            violations.append(Violation(
                ORACLE_SHARED_CONCAT,
                f"{name}: terminal stash {terminal_fm.spec.name!r} dies at "
                f"{terminal_fm.death}, before the member's last backward "
                f"read at {member_last_bwd}",
            ))
        label = f"concat:{decision.source_id}"
        for t in (member_fm, terminal_fm):
            if t.alias_group != label:
                violations.append(Violation(
                    ORACLE_SHARED_CONCAT,
                    f"{name}: {t.spec.name!r} carries alias label "
                    f"{t.alias_group!r}, expected {label!r}",
                ))
    return violations


# ----------------------------------------------------------------------
# (g) Recurrent unrolling / weight tying
# ----------------------------------------------------------------------
def check_recurrent_unroll(graph, executor=None) -> List[Violation]:
    """Weight-tying and unrolling invariants of recurrent step columns.

    Step nodes sharing one cell object must form a well-ordered unrolled
    column: exactly one parameter owner at ``t == 0``, unique timesteps,
    and every ``t > 0`` step chained (via its state input) to the same
    cell's ``t - 1`` step.  (A step's input count and sizes are its own
    ``infer_shape``'s checks: a graph that breaks either does not build,
    or, for an RNN's hidden size, fails its first forward.)
    With an ``executor``, additionally verifies the tie is *physical*:
    each step's runtime parameter arrays must be the owner's very ndarray
    objects, not equal copies (copies would silently untie the weights
    after the first optimiser update).
    """
    violations: List[Violation] = []
    columns: Dict[int, List] = {}
    for node in graph.nodes:
        if node.kind not in ("lstm_step", "rnn_step"):
            continue
        columns.setdefault(id(node.layer.cell), []).append(node)

    for nodes in sorted(columns.values(), key=lambda ns: ns[0].node_id):
        cell = nodes[0].layer.cell
        label = f"cell of {nodes[0].name!r}"
        owners = [n for n in nodes if n.layer.owns_params]
        if len(owners) != 1:
            violations.append(Violation(
                ORACLE_RECURRENT,
                f"{label}: {len(owners)} parameter owners (expected "
                f"exactly one t=0 step)",
            ))
        steps = {}
        for n in nodes:
            t = n.layer.t
            if t in steps:
                violations.append(Violation(
                    ORACLE_RECURRENT,
                    f"{label}: duplicate timestep t={t} "
                    f"({steps[t].name!r} and {n.name!r})",
                ))
            steps[t] = n
            if n.layer.t == 0:
                continue
            state_producer = graph.node(n.inputs[1])
            prev_layer = state_producer.layer
            if (state_producer.kind not in ("lstm_step", "rnn_step")
                    or prev_layer.cell is not cell
                    or prev_layer.t != n.layer.t - 1):
                violations.append(Violation(
                    ORACLE_RECURRENT,
                    f"{n.name!r}: state input comes from "
                    f"{state_producer.name!r}, not the same cell's "
                    f"t={n.layer.t - 1} step",
                ))
        if executor is None or not owners:
            continue
        owner = owners[0]
        owner_params = executor.params[owner.node_id]
        for n in nodes:
            if n is owner:
                continue
            for pname, arr in executor.params[n.node_id].items():
                tied = owner_params.get(pname)
                if tied is None or arr is not tied:
                    violations.append(Violation(
                        ORACLE_RECURRENT,
                        f"{n.name!r}: parameter {pname!r} is not the "
                        f"owner's array object — the weights are untied",
                    ))
    return violations
