"""Runtime stash policies: what actually gets stored between passes.

Every policy hands the executor one plan record
(:meth:`StashPolicy.record`), and the executor runs it: it stashes what
the record's table keeps into the backward pass, through the codec each
decision names (:func:`codec_table`), and frees each stash at the death
the allocator priced.

* :class:`BaselinePolicy` — FP32 references, no transformation (the CNTK
  baseline, and the exact-gradient path used by the gradient-check tests).
* :class:`GistPolicy` — the Table-I plan of
  :func:`~repro.core.schedule_builder.build_gist_plan` (Binarize for
  ReLU-Pool maps, SSDC for ReLU-Conv maps above the CSR breakeven, DPR
  for the rest); :class:`HybridExecutionPolicy` — a budgeted planner's.
  Lossless edges reconstruct exactly; DPR edges inject precisely the
  quantisation error the paper's Figure 12 accuracy study measures.
* :class:`UniformReductionPolicy` — the prior-work baseline: quantise
  every layer output *in the forward pass*, so error propagates through
  subsequent layers (at FP16, ``uniform-fp16``, the paper's All-FP16
  curve that diverges in Figure 12).
* :class:`GroupQuantPolicy` — follow-on work (ActNN): a decision table
  of per-group integer stashes.

A policy without a plan runs the baseline table; its ``encoding_for``
and ``transform_*`` hooks are compute numerics, not stash decisions.

:data:`POLICY_NAMES` is the one policy vocabulary — the ``describe()``
labels — and :func:`policy_from_name` its one parser.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.analysis import classify_all_stashes
from repro.core.policy import GistConfig
from repro.core.schedule_builder import build_gist_plan, gist_codec
from repro.dtypes import DPR_FORMATS, FP16
from repro.encodings.base import Encoding, HostSwapEncoding, IdentityEncoding
from repro.encodings.floatsim import quantize
from repro.encodings.groupquant import GROUPQUANT_BITS, GroupQuantEncoding
from repro.graph.graph import Graph
from repro.graph.liveness import feature_map_uses
from repro.graph.node import OpNode
from repro.graph.schedule import schedule_of
from repro.memory.hybrid import (
    CHOICE_GIST,
    CHOICE_SWAP,
    PlanDecision,
    PlanRecord,
    apply_decisions,
)
from repro.memory.planner import build_memory_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hybrid import HybridPlan


class StashPolicy:
    """A plan record (:meth:`record`) plus compute hooks."""

    #: The record a planned policy runs (built for one graph).
    plan: Optional[PlanRecord] = None

    def __init__(self):
        self._identity = IdentityEncoding()

    def record(self, graph: Graph) -> PlanRecord:
        """The plan the executor runs on ``graph``: the policy's
        :attr:`plan`, else the baseline liveness table, no decisions."""
        return self.plan if self.plan is not None else _table_record(graph, {})

    def encoding_for(self, graph: Graph, node_id: int) -> Encoding:
        """Encoding for ``node_id``'s stash where the record decides
        none: the FP32 identity unless a policy says otherwise."""
        return self._identity

    def describe(self) -> str:
        """Short policy label used in traces, digests and reports."""
        return type(self).__name__.lower()

    def transform_forward(self, y: np.ndarray, node: OpNode) -> np.ndarray:
        """Hook applied to every layer output before consumers see it."""
        return y

    def transform_gradient(self, dx: np.ndarray, node: OpNode) -> np.ndarray:
        """Hook applied to every gradient map a backward op produces."""
        return dx

    #: If set, the trainer re-quantises every weight to this format after
    #: each optimiser step (uniform-reduction baselines store weights in
    #: the reduced format too).
    param_dtype = None


class BaselinePolicy(StashPolicy):
    """FP32 stashes everywhere — the exact-arithmetic baseline."""

    def describe(self) -> str:
        """Label: ``"baseline"``."""
        return "baseline"


def _table_record(graph: Graph,
                  decisions: Dict[int, PlanDecision]) -> PlanRecord:
    """``build_memory_plan``'s table rewritten under ``decisions``, the
    max-pools reading their declared X and Y maps."""
    schedule = schedule_of(graph)
    plan = build_memory_plan(graph, schedule)
    config = GistConfig.disabled()
    pools = apply_decisions(plan, feature_map_uses(graph, schedule, False),
                            decisions, config)
    return PlanRecord(graph, schedule, plan, config, decisions, pools)


def _make_codec(decision: PlanDecision, cfg: GistConfig) -> Encoding:
    """The codec a gist or swap decision stashes through.

    Raises:
        ValueError: A gist decision names an encoding no codec has —
            silently substituting a lossy codec would corrupt training.
    """
    if decision.choice == CHOICE_SWAP:
        return HostSwapEncoding()
    try:
        return gist_codec(decision.encoding, cfg)
    except ValueError as err:
        raise ValueError(f"{decision.node_name}: {err}") from None


def codec_table(record: PlanRecord) -> Dict[int, Encoding]:
    """``{node_id: codec}`` of ``record``'s gist decisions (their codec)
    and swap decisions (:class:`HostSwapEncoding`, a bit-exact host copy
    standing in for the PCIe offload), one instance per distinct
    (choice, encoding).

    Raises:
        ValueError: A decision names an unknown encoding.
    """
    codecs: Dict[Tuple[str, Optional[str]], Encoding] = {}
    table: Dict[int, Encoding] = {}
    for node_id, decision in record.decisions.items():
        if decision.choice not in (CHOICE_GIST, CHOICE_SWAP):
            continue
        key = (decision.choice, decision.encoding)
        if key not in codecs:
            codecs[key] = _make_codec(decision, record.config)
        table[node_id] = codecs[key]
    return table


class GistPolicy(StashPolicy):
    """Layer-pair-aware encodings: runs the Schedule Builder's plan."""

    def __init__(self, graph: Graph, config: Optional[GistConfig] = None):
        super().__init__()
        self.config = config or GistConfig()
        self.plan = build_gist_plan(graph, self.config)

    def describe(self) -> str:
        """Label: ``"gist-lossless"`` or ``"gist-<dpr format>"``."""
        if not self.config.dpr:
            return "gist-lossless"
        return f"gist-{self.config.dpr_format}"


class UniformReductionPolicy(StashPolicy):
    """Prior-work uniform reduction: quantise outputs in the forward pass.

    Every layer's output is rounded to the reduced format immediately after
    computation, so the next layer consumes the error — the design choice
    the paper identifies as the cause of severe accuracy loss.  Comparing
    this policy at a given width against :class:`GistPolicy` with DPR at
    the *same* width isolates exactly the paper's delayed-reduction claim.
    """

    def __init__(self, dtype=FP16):
        super().__init__()
        self.dtype = dtype
        self.param_dtype = dtype

    def transform_forward(self, y: np.ndarray, node: OpNode) -> np.ndarray:
        if node.kind in ("loss", "input"):
            return y
        return quantize(y, self.dtype)

    def transform_gradient(self, dx: np.ndarray, node: OpNode) -> np.ndarray:
        return quantize(dx, self.dtype)

    def describe(self) -> str:
        """Label: ``"uniform-<format>"``."""
        return f"uniform-{self.dtype.name}"


class GradientOnlyReductionPolicy(StashPolicy):
    """Reduce precision of *gradient maps only* (paper Section III-B).

    The paper's stepping-stone observation: restricting reduction to the
    backward gradient maps leaves training accuracy intact (unlike uniform
    reduction), which motivates pushing further — DPR extends the idea to
    the stashed feature maps themselves.
    """

    def __init__(self, dtype=FP16):
        super().__init__()
        self.dtype = dtype

    def transform_gradient(self, dx: np.ndarray, node: OpNode) -> np.ndarray:
        return quantize(dx, self.dtype)

    def describe(self) -> str:
        """Label: ``"grad-only-<format>"``."""
        return f"grad-only-{self.dtype.name}"


class GroupQuantPolicy(StashPolicy):
    """ActNN-style follow-on work: group-quantise every stashed map but
    the raw input images (:class:`~repro.encodings.groupquant.
    GroupQuantEncoding`); the forward pass and gradients stay exact."""

    def __init__(self, bits: int = 4, group_size: int = 256):
        super().__init__()
        self._encoding = GroupQuantEncoding(bits, group_size)

    def record(self, graph: Graph) -> PlanRecord:
        """The baseline table, every stashed map but the input images
        group-quantised (sized by the codec's size model)."""
        codec = self._encoding
        decisions: Dict[int, PlanDecision] = {}
        for nid, info in classify_all_stashes(graph).items():
            if nid not in (graph.input_id, graph.output_id):
                node = graph.node(nid)
                n = math.prod(node.output_shape)
                decisions[nid] = PlanDecision(
                    nid, node.name, info.stash_class, CHOICE_GIST,
                    f"{codec.name}/{codec.group_size}", fp32_bytes=4 * n,
                    resident_bytes=codec.encoded_bytes(n), cost_s=0.0,
                    lossless=codec.lossless, decoded_bytes=4 * n)
        return _table_record(graph, decisions)

    def describe(self) -> str:
        """Label: ``"groupquant-int<bits>"``."""
        return self._encoding.name


class HybridExecutionPolicy(StashPolicy):
    """Runs a :class:`~repro.memory.hybrid.HybridPlan`.  A lossless plan
    (the default :class:`~repro.core.policy.HybridPolicy`'s) trains
    bit-identically to :class:`BaselinePolicy`, as golden digests pin."""

    def __init__(self, plan: "HybridPlan"):
        super().__init__()
        self.plan = plan

    def describe(self) -> str:
        """Label: the plan policy's (``"hybrid"`` / ``"hybrid-<arm>"``)."""
        return self.plan.policy.describe()


#: The policies whose backward inputs are bit-identical to FP32 stashes:
#: the arms pinned as goldens, run inside the ``replica-step`` unit and
#: by the rewrite-equivalence oracle.  The lossless-execution oracle
#: draws from these plus the hybrid arms, which no name constructs
#: (``repro.verify.execution.lossless_arms``).
LOSSLESS_POLICY_NAMES = ("baseline", "gist-lossless")

#: Every policy constructible from a name.  Hybrid policies are absent on
#: purpose: their label does not determine the budget or gist switches.
POLICY_NAMES = (
    LOSSLESS_POLICY_NAMES
    + tuple(f"{family}-{fmt}"
            for family in ("gist", "uniform", "grad-only")
            for fmt in DPR_FORMATS)
    + tuple(f"groupquant-int{bits}" for bits in GROUPQUANT_BITS)
)


def policy_from_name(name: str, graph: Graph) -> StashPolicy:
    """Build the policy a :data:`POLICY_NAMES` entry names.

    The inverse of ``describe()``: ``policy_from_name(n, g).describe() ==
    n`` for every name in the vocabulary.

    Raises:
        ValueError: ``name`` is not in :data:`POLICY_NAMES`.
    """
    if name not in POLICY_NAMES:
        raise ValueError(
            f"unknown stash policy {name!r}; known: {POLICY_NAMES}"
        )
    if name == "baseline":
        return BaselinePolicy()
    family, _, arm = name.rpartition("-")
    if family == "gist":
        return GistPolicy(graph, GistConfig.from_name(arm))
    if family == "uniform":
        return UniformReductionPolicy(DPR_FORMATS[arm])
    if family == "grad-only":
        return GradientOnlyReductionPolicy(DPR_FORMATS[arm])
    return GroupQuantPolicy(bits=int(arm[len("int"):]))
