"""Differential fuzzing runner: seeds -> graphs -> oracles -> report.

One :func:`verify_seed` call runs the full oracle battery — the ordered
``(name, check)`` table of :func:`oracle_battery` — against the graph a
seed generates:

=====================  ==============================================
oracle                 property checked
=====================  ==============================================
allocator-safety       no two live-overlapping tensors share a group,
                       for all three policies, on baseline AND every
                       selector's rewritten plan
policy-bounds          every sharing policy <= none; every policy's
                       total >= dynamic peak >= clique bound;
                       greedy-size <= first-fit under ``strict``
plan-safety            no buffer's death precedes its true last use
                       (differential vs an independent last-use walk),
                       on the Table-I and sqrt(N) selectors' tables;
                       lossless Gist never allocates more than baseline
decision-bytes         every gist PlanDecision.resident_bytes, in a
                       Table-I or hybrid table, matches a measured
                       encode() on realistic data
encoding-roundtrip     one encode per (codec, adversarial input):
                       lossless codecs round-trip to the same bytes,
                       lossy codecs within declared bounds, plus the
                       size model equals the measured encode
hybrid-plan            the same last-use walk on the budgeted
                       selector's tables, plus budget, dominance
                       (hybrid footprint <= every pure arm) and
                       replayable recompute chains
shared-concat          every shared-concat decision re-slices a kept
                       concat terminal along a position-0-linked
                       concat chain that stays live and alias-labelled
lossless-execution     the graph as built trains two SGD steps under
                       baseline and under one lossless arm picked by
                       ``seed % len(arms)`` (gist-lossless,
                       hybrid-recompute, hybrid-swap, hybrid, and
                       hybrid-shared_concat on a concat chain): every
                       loss and gradient bit-identical, none grown or
                       vanished
recurrent-unroll       weight-tied step columns are well-ordered (one
                       t=0 owner, unique timesteps, each state from the
                       same cell's previous step, and physically shared
                       parameter arrays of the baseline run's executor)
backend-differential   every conv arm agrees with the reference arm on
                       shared inputs (exact arms bit-for-bit, tolerance
                       arms within their declared bound); max-pool,
                       Concat and the two codec packers (pack_bits,
                       csr_encode) bit-for-bit with the loop kernel
                       beside their one body
distributed-replica    replica shards reassemble the serial batch
                       byte-identically; a step through the pool
                       pipeline merges to the same bits as direct
                       execution, and so do its results handed to the
                       merge in reversed arrival order
=====================  ==============================================

Every leg of every oracle (one ``Violation`` site) fires on a planted
fault in ``tests/verify/test_every_leg_fires.py``, one row per leg; a
completeness test there fails when a site has no row.

Every selector's table goes through one loop in :func:`verify_graph`
(subjects ``lossless`` / ``full-fp16`` / ``full-fp8``, ``hybrid``,
``shared-concat-arm``, ``recompute``): checking a new selector is
appending one ``(label, plan)`` pair.  A lossless-execution violation's
subject is the arm it trained, by its policy label.  The
rewrite-equivalence oracle (:func:`repro.rewrite.check_rewrite_equivalence`)
is not in the battery: no executor runs the inplace marks it checks.

Violations carry the seed, so ``repro fuzz --seeds 1 --start-seed S``
replays any failure; :func:`minimize` then shrinks the graph by replaying
the same seed at smaller ``max_ops``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.policy import (
    STRATEGY_SHARED_CONCAT,
    GistConfig,
    HybridPolicy,
)
from repro.core.schedule_builder import GistPlan, build_gist_plan
from repro.dtypes import FP8, FP16
from repro.encodings.base import IdentityEncoding
from repro.encodings.binarize import BinarizeEncoding
from repro.encodings.dpr import dpr_encoding
from repro.encodings.groupquant import GroupQuantEncoding
from repro.encodings.ssdc import SSDCEncoding
from repro.graph.graph import Graph
from repro.graph.schedule import schedule_of
from repro.memory.allocator import (
    POLICY_FIRST_FIT,
    POLICY_GREEDY_SIZE,
    POLICY_NO_SHARING,
    StaticAllocator,
)
from repro.memory.dynamic import simulate_dynamic
from repro.memory.hybrid import HybridPlan, build_hybrid_plan
from repro.memory.planner import build_memory_plan
from repro.memory.recompute import build_recompute_plan
from repro.memory.shared_concat import find_concat_chains
from repro.verify.differential import verify_backends
from repro.verify.execution import (
    baseline_run,
    check_lossless_execution,
    lossless_arms,
)
from repro.verify.fuzzer import DEFAULT_MAX_OPS, GraphFuzzer
from repro.verify.oracles import (
    Violation,
    check_allocator_safety,
    check_decision_bytes,
    check_hybrid_plan,
    check_plan_safety,
    check_policy_bounds,
    check_recurrent_unroll,
    check_roundtrip,
    check_shared_concat,
    interval_clique_bound,
)

_ALL_POLICIES = (POLICY_GREEDY_SIZE, POLICY_FIRST_FIT, POLICY_NO_SHARING)

#: Gist configurations each fuzzed graph is planned under.
_PLAN_CONFIGS = (
    ("lossless", GistConfig.lossless()),
    ("full-fp16", GistConfig()),
    ("full-fp8", GistConfig.full("fp8")),
)


@dataclass
class FuzzReport:
    """Outcome of a fuzzing batch."""

    seeds_run: int = 0
    graphs_verified: int = 0
    violations: List[Violation] = field(default_factory=list)
    #: Work units that could not be verified at all (worker exception,
    #: crash or timeout), each carrying its payload for replay.
    failed_units: List[dict] = field(default_factory=list)
    #: Smallest failing graph found by the minimizer, if any seed failed.
    minimized: Optional[Graph] = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.failed_units

    def to_json(self) -> dict:
        """Stable JSON form; byte-identical for equivalent batches.

        ``json.dumps(report.to_json(), sort_keys=True)`` is the
        determinism oracle used by the orchestration gate: the bytes
        must not depend on worker count or completion order.
        """
        return {
            "seeds_run": self.seeds_run,
            "graphs_verified": self.graphs_verified,
            "violations": [asdict(v) for v in self.violations],
            "failed_units": self.failed_units,
            "minimized_summary": (self.minimized.summary()
                                  if self.minimized is not None else None),
            "ok": self.ok,
        }


def _codec_battery(rng):
    """The codecs the round-trip oracle exercises (fresh instances)."""
    return [
        IdentityEncoding(),
        BinarizeEncoding(),
        SSDCEncoding(),
        SSDCEncoding(value_dtype=FP16),
        SSDCEncoding(value_dtype=FP8),
        dpr_encoding("fp16"),
        dpr_encoding("fp10"),
        dpr_encoding("fp8"),
        GroupQuantEncoding(bits=int(rng.choice([1, 2, 4, 8])),
                           group_size=int(rng.choice([7, 32, 256]))),
        GroupQuantEncoding(bits=4, group_size=256),
    ]


def _adversarial_inputs(rng):
    """Inputs picked to break codecs: the paper's data never looks like
    this, which is exactly why hand-written tests missed the padding skew.
    """
    n_unaligned = int(rng.integers(1, 700))
    return [
        np.zeros((0,), np.float32),                       # empty
        np.zeros((int(rng.integers(1, 600)),), np.float32),   # all-zero
        np.full((int(rng.integers(1, 300)),), 1e-41, np.float32),  # denormal
        rng.normal(0, 1, n_unaligned).astype(np.float32),  # unaligned size
        np.linspace(5, 6, 300, dtype=np.float32),          # padding-skew repro
        np.full((65,), -3.75, np.float32),                 # constant negative
        rng.normal(0, 1e30, 50).astype(np.float32),        # clamp range
        np.where(rng.random(257) < 0.8, 0.0,
                 rng.normal(0, 2, 257)).astype(np.float32),  # sparse
    ]


#: The lossless codecs' extra, rng-free input: signed zeros, infinities
#: and a NaN among normals, tiled past one narrow CSR row.  Bytes, not
#: values, must survive (a lossy codec's bound check is NaN-blind).
_SPECIAL_VALUES = (0.0, -0.0, 1.5, float("nan"), -float("inf"), -0.0,
                   float("inf"), -2.25)


def verify_encodings(seed: int) -> List[Violation]:
    """Round-trip + size-model oracle over the codec battery: one
    :func:`check_roundtrip` (one encode) per (codec, input)."""
    rng = np.random.default_rng(seed + 0xE4C0DE)
    violations: List[Violation] = []
    inputs = _adversarial_inputs(rng)
    special = np.tile(np.array(_SPECIAL_VALUES, np.float32), 37)
    for codec in _codec_battery(rng):
        for x in inputs + [special] if codec.lossless else inputs:
            violations += check_roundtrip(codec, x)
    return _stamped(violations, seed, "encodings")


def _stamped(violations: List[Violation], seed: Optional[int],
             subject: str = "") -> List[Violation]:
    """``violations`` relabelled with the seed that replays them and,
    where an oracle named none, the ``subject`` it was checking."""
    return [Violation(v.oracle, v.detail, seed, v.subject or subject)
            for v in violations]


def verify_graph(
    graph: Graph, seed: Optional[int] = None, strict: bool = False
) -> List[Violation]:
    """Run the allocator/bounds/plan oracles and the lossless-execution
    oracle against one graph, as built.

    The graph trains under ``baseline`` and under the lossless arm that
    ``seed`` picks (:func:`repro.verify.execution.lossless_arms`, with the
    ``hybrid`` / ``shared-concat-arm`` plans built here); a recurrent
    graph's weight ties are checked on the baseline run's executor.
    ``strict`` additionally enforces the non-theorem ``greedy-size <=
    first-fit`` leg (see :func:`repro.verify.oracles.check_policy_bounds`).
    """
    violations: List[Violation] = []
    schedule = schedule_of(graph)
    baseline = build_memory_plan(graph, schedule)

    # (a) allocator safety + (b) cross-model bounds on the baseline table.
    totals = {}
    for policy in _ALL_POLICIES:
        result = StaticAllocator(policy).allocate(baseline.tensors)
        totals[policy] = result.total_bytes
        violations += check_allocator_safety(result, baseline.tensors)
    dynamic_peak = simulate_dynamic(baseline.tensors,
                                    schedule.num_steps).peak_bytes
    clique = interval_clique_bound(baseline.tensors)
    violations += check_policy_bounds(totals, dynamic_peak, clique,
                                      strict=strict)

    # (c) every selector's table — the Table-I selector under each Gist
    # configuration, the budgeted hybrid selector (and its pure
    # shared-concat arm when the graph has a concat chain at all: the arm
    # concentrates every chain decision in one plan, which is where a
    # prefix-linkage or alias-labelling bug would surface) and sqrt(N)
    # checkpointing — through one battery: the liveness differential,
    # decision-bytes on every gist decision, and allocator safety again
    # on the *rewritten* liveness table (shorter, denser intervals are
    # where a grouping bug would hide).
    plans = [(label, build_gist_plan(graph, config, schedule=schedule))
             for label, config in _PLAN_CONFIGS]
    hybrid = build_hybrid_plan(graph, schedule=schedule)
    plans.append(("hybrid", hybrid))
    shared_concat = None
    if find_concat_chains(graph):
        shared_concat = build_hybrid_plan(
            graph, HybridPolicy(strategy=STRATEGY_SHARED_CONCAT),
            schedule=schedule,
        )
        plans.append(("shared-concat-arm", shared_concat))
    plans.append(("recompute", build_recompute_plan(graph,
                                                    schedule=schedule)))
    rng = np.random.default_rng((seed or 0) + 0x91A7)
    for label, plan in plans:
        tensors = plan.plan.tensors
        results = [StaticAllocator(policy).allocate(tensors)
                   for policy in _ALL_POLICIES]
        if isinstance(plan, HybridPlan):
            found = check_hybrid_plan(plan) + check_shared_concat(plan)
        elif isinstance(plan, GistPlan):
            # Lossless Gist also owes the baseline its footprint.
            found = check_plan_safety(plan, totals[POLICY_GREEDY_SIZE],
                                      results[0].total_bytes)
        else:
            found = check_plan_safety(plan)
        found += check_decision_bytes(plan, rng)
        for result in results:
            found += check_allocator_safety(result, tensors)
        violations += _stamped(found, seed, label)

    # (d) lossless execution: the graph as built trains under baseline,
    # then under the lossless arm the seed picks, bit for bit alike.
    reference = baseline_run(graph, seed or 0)
    violations += check_lossless_execution(
        graph, seed or 0, reference,
        lossless_arms(graph, hybrid, shared_concat))

    # (e) recurrent unrolling: weight-tying structure, and — because a
    # tie that is merely value-equal would silently break on the first
    # optimiser step — the baseline executor's physical parameter sharing.
    if any(n.kind in ("lstm_step", "rnn_step") for n in graph.nodes):
        violations += _stamped(
            check_recurrent_unroll(graph, reference.executor),
            seed, "recurrent")
    return _stamped(violations, seed)


#: The battery entries that read the fuzzed graph (the rest read only the
#: seed), so the ones :func:`minimize` replays at smaller sizes.
_GRAPH_ORACLES = ("graph",)


def oracle_battery(
    graph: Graph, seed: int, strict: bool = False,
) -> List[Tuple[str, Callable[[], List[Violation]]]]:
    """One seed's oracle battery as an ordered ``(name, check)`` table.

    ``graph`` is the seed's fuzzed graph; each ``check()`` returns its
    violations.
    """
    from repro.verify.distributed import check_distributed

    return [
        ("graph", lambda: verify_graph(graph, seed, strict=strict)),
        ("encodings", lambda: verify_encodings(seed)),
        ("backends", lambda: verify_backends(seed)),
        ("distributed", lambda: check_distributed(seed)),
    ]


def verify_seed(
    seed: int, max_ops: int = DEFAULT_MAX_OPS, strict: bool = False,
    recurrent_shapes: bool = False,
) -> List[Violation]:
    """Full oracle battery for one seed: fuzzed graph (plans and one
    lossless arm's execution), codec round-trips, kernel-backend
    agreement on shared randomized inputs and the replica step.

    ``recurrent_shapes`` switches the fuzzer to its sequence genre
    (unrolled LSTM/RNN columns), which routes every seed through the
    recurrent-unroll oracle as well.
    """
    graph = GraphFuzzer(seed).graph(max_ops=max_ops,
                                    recurrent_shapes=recurrent_shapes)
    violations: List[Violation] = []
    for _, check in oracle_battery(graph, seed, strict):
        violations += check()
    return violations


def minimize(seed: int, max_ops: int = DEFAULT_MAX_OPS,
             strict: bool = False, recurrent_shapes: bool = False):
    """Smallest reproduction of a failing seed.

    Replays the same seed at growing ``max_ops`` (the fuzzer's decision
    stream makes each size a prefix of the next) and returns the first
    graph on which a graph-reading oracle still fires, with its
    violations.  Falls back to the full-size graph when only the
    graph-independent oracles fired.
    """
    for k in range(1, max_ops + 1):
        graph = GraphFuzzer(seed).graph(max_ops=k,
                                        recurrent_shapes=recurrent_shapes)
        violations: List[Violation] = []
        for name, check in oracle_battery(graph, seed, strict):
            if name in _GRAPH_ORACLES:
                violations += check()
        if violations:
            return graph, violations
    graph = GraphFuzzer(seed).graph(max_ops=max_ops,
                                    recurrent_shapes=recurrent_shapes)
    return graph, verify_seed(seed, max_ops, strict=strict,
                              recurrent_shapes=recurrent_shapes)


#: The keys of a ``fuzz-seed`` payload, as :func:`fuzz_work_units` writes
#: them.
_PAYLOAD_KEYS = frozenset({"seed", "max_ops", "strict", "recurrent_shapes"})


def fuzz_work_units(
    seed_list: Sequence[int],
    max_ops: int = DEFAULT_MAX_OPS,
    strict: bool = False,
    recurrent_shapes: bool = False,
) -> List["WorkUnit"]:
    """One payload-complete work unit per seed (kind ``fuzz-seed``)."""
    from repro.orchestrate import WorkUnit

    return [
        WorkUnit("fuzz-seed", f"seed:{seed}",
                 {"seed": int(seed), "max_ops": int(max_ops),
                  "strict": bool(strict),
                  "recurrent_shapes": bool(recurrent_shapes)})
        for seed in seed_list
    ]


def run_fuzz_unit(payload: dict) -> dict:
    """Work-unit executor for kind ``fuzz-seed`` (runs in any process).

    A payload key outside ``_PAYLOAD_KEYS`` is a ``ValueError`` naming
    it: a unit asking for a genre this runner lacks must not quietly run
    the default one.
    """
    unknown = sorted(set(payload) - _PAYLOAD_KEYS)
    if unknown:
        raise ValueError(
            f"fuzz-seed payload has unknown key(s) {unknown}; "
            f"known: {sorted(_PAYLOAD_KEYS)}"
        )
    violations = verify_seed(payload["seed"], payload["max_ops"],
                             strict=payload["strict"],
                             # .get: journals written before the genre
                             # existed replay as default-mode seeds.
                             recurrent_shapes=payload.get("recurrent_shapes",
                                                          False))
    return {"seed": payload["seed"],
            "violations": [asdict(v) for v in violations]}


def merge_fuzz_results(
    units: Sequence["WorkUnit"],
    results: Dict[str, "UnitResult"],
    stop_on_first: bool = True,
) -> FuzzReport:
    """Deterministic, order-independent aggregation of per-seed results.

    Walks units in seed order and reproduces the serial runner's
    semantics exactly: with ``stop_on_first`` the report covers seeds up
    to and including the first one that violated (or failed to verify);
    results for any later seeds that a parallel run happened to complete
    are ignored.  The output is therefore a pure function of the per-seed
    results, independent of worker count and completion order.
    """
    report = FuzzReport()
    for unit in units:
        result = results.get(unit.key)
        if result is None:  # never scheduled (early stop upstream)
            break
        report.seeds_run += 1
        if not result.ok:
            report.failed_units.append({
                "key": unit.key,
                "payload": unit.payload,
                "error": {"type": result.error["type"],
                          "message": result.error["message"]},
                "attempts": result.attempts,
            })
            if stop_on_first:
                break
            continue
        violations = [Violation(**v) for v in result.value["violations"]]
        if violations:
            report.violations += violations
            if stop_on_first:
                break
        else:
            report.graphs_verified += 1
    return report


def run_fuzz(
    num_seeds: int,
    start_seed: int = 0,
    max_ops: int = DEFAULT_MAX_OPS,
    stop_on_first: bool = True,
    strict: bool = False,
    workers: int = 1,
    journal: Union[None, str, "RunJournal"] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    recurrent_shapes: bool = False,
) -> FuzzReport:
    """Verify ``num_seeds`` consecutive seeds from ``start_seed``.

    Seeds are sharded as work units across ``workers`` processes (see
    :mod:`repro.orchestrate`); the merged report is byte-identical for
    any worker count.  A worker exception, crash or timeout is recorded
    in ``report.failed_units`` with its payload — it never aborts the
    batch.  With ``journal`` set, completed seeds stream to a JSONL run
    journal and a re-invocation resumes from it.
    """
    from repro.orchestrate import run_units

    units = fuzz_work_units(range(start_seed, start_seed + num_seeds),
                            max_ops, strict, recurrent_shapes)
    stop_when = None
    if stop_on_first:
        stop_when = lambda r: (not r.ok) or bool(r.value["violations"])
    results = run_units(units, workers=workers, timeout_s=timeout_s,
                        retries=retries, journal=journal,
                        stop_when=stop_when)
    report = merge_fuzz_results(units, results, stop_on_first)
    if stop_on_first and report.violations:
        report.minimized, _ = minimize(report.violations[0].seed, max_ops,
                                       strict=strict,
                                       recurrent_shapes=recurrent_shapes)
    return report
