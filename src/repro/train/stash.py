"""Runtime stash policies: what actually gets stored between passes.

The executor routes every stashed feature map through a policy:

* :class:`BaselinePolicy` — FP32 references, no transformation (the CNTK
  baseline, and the exact-gradient path used by the gradient-check tests).
* :class:`GistPolicy` and :class:`HybridExecutionPolicy` — two
  constructors over one table-driven policy (:class:`_TablePolicy`) and
  the selector's own codec factory
  (:func:`~repro.core.schedule_builder.gist_codec`).  Both hand it a
  selector's ``{node_id: PlanDecision}`` table — the very records the
  allocator was priced with: ``GistPolicy(graph, cfg)`` the Table-I table of
  :func:`~repro.core.schedule_builder.build_gist_plan` (Binarize for
  ReLU-Pool maps, SSDC for ReLU-Conv maps above the CSR breakeven, DPR
  for the rest), ``HybridExecutionPolicy(plan)`` a budgeted planner's.
  Lossless edges reconstruct exactly; DPR edges inject precisely the
  quantisation error the paper's Figure 12 accuracy study measures.
* :class:`UniformReductionPolicy` — the prior-work baseline: quantise
  every layer output *in the forward pass*, so error propagates through
  subsequent layers (at FP16, ``uniform-fp16``, the paper's All-FP16
  curve that diverges in Figure 12).
* :class:`GroupQuantPolicy` — follow-on work (ActNN): per-group integer
  stashes.

Every policy stashes the FP32 identity unless it says otherwise
(:meth:`StashPolicy.encoding_for`) and decides nothing but codecs unless
it is a table policy (:meth:`StashPolicy.decision_for`).

:data:`POLICY_NAMES` is the one policy vocabulary — the ``describe()``
labels — and :func:`policy_from_name` its one parser.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.policy import GistConfig
from repro.core.schedule_builder import build_gist_plan, gist_codec
from repro.dtypes import DPR_FORMATS, FP16
from repro.encodings.base import Encoding, HostSwapEncoding, IdentityEncoding
from repro.encodings.floatsim import quantize
from repro.encodings.groupquant import GROUPQUANT_BITS, GroupQuantEncoding
from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.memory.hybrid import CHOICE_GIST, CHOICE_SWAP, PlanDecision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hybrid import HybridPlan


class StashPolicy:
    """Chooses the stash encoding per feature-map edge."""

    def __init__(self):
        self._identity = IdentityEncoding()

    def encoding_for(self, graph: Graph, node_id: int) -> Encoding:
        """Encoding for the feature map produced by ``node_id``: the FP32
        identity unless a policy says otherwise."""
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

    def decision_for(self, node_id: int) -> Optional[PlanDecision]:
        """The plan's decision for ``node_id``'s stash, or ``None``.

        The executor does not stash a map whose decision is ``recompute``
        or ``shared_concat``; on the first backward read it replays the
        decision's ``chain`` from ``source_id``'s stash, or re-slices the
        leading channels of the concat terminal ``source_id`` (bit-exact
        because the chain runs in one buffer: the member *is* that
        prefix).  Only the table policies return decisions.
        """
        return None

    #: If set, the trainer re-quantises every weight to this format after
    #: each optimiser step (uniform-reduction baselines store weights in
    #: the reduced format too).
    param_dtype = None


class BaselinePolicy(StashPolicy):
    """FP32 stashes everywhere — the exact-arithmetic baseline."""

    def describe(self) -> str:
        """Label: ``"baseline"``."""
        return "baseline"


def _make_codec(decision: PlanDecision, cfg: GistConfig) -> Encoding:
    """The codec a gist or swap decision stashes through.

    Raises:
        ValueError: A gist decision names an encoding Table I does not
            have — silently substituting a lossy codec would corrupt
            training.
    """
    if decision.choice == CHOICE_SWAP:
        return HostSwapEncoding()
    try:
        return gist_codec(decision.encoding, cfg)
    except ValueError as err:
        raise ValueError(f"{decision.node_name}: {err}") from None


class _TablePolicy(StashPolicy):
    """Executes a ``{node_id: PlanDecision}`` table at the stash layer,
    with codecs parameterised by ``cfg``:

    * **gist** decisions stash through their codec (Binarize / SSDC /
      DPR);
    * **swap** decisions stash through :class:`HostSwapEncoding` — a
      bit-exact host-buffer copy standing in for the PCIe offload;
    * **recompute** and **shared_concat** decisions are *not stashed at
      all*: the executor reads them through :meth:`decision_for` and
      rebuilds the map on its first backward read;
    * nodes without a decision keep the FP32 identity baseline.
    """

    def __init__(self, cfg: GistConfig, decisions: Dict[int, PlanDecision]):
        super().__init__()
        self._decisions = decisions
        # One codec instance per distinct (choice, encoding) pair.
        codecs: Dict[Tuple[str, Optional[str]], Encoding] = {}
        self._table: Dict[int, Encoding] = {}
        for node_id, decision in decisions.items():
            if decision.choice not in (CHOICE_GIST, CHOICE_SWAP):
                continue
            key = (decision.choice, decision.encoding)
            if key not in codecs:
                codecs[key] = _make_codec(decision, cfg)
            self._table[node_id] = codecs[key]

    def encoding_for(self, graph: Graph, node_id: int) -> Encoding:
        return self._table.get(node_id, self._identity)

    def decision_for(self, node_id: int) -> Optional[PlanDecision]:
        return self._decisions.get(node_id)


class GistPolicy(_TablePolicy):
    """Layer-pair-aware encodings: executes the Schedule Builder's table."""

    def __init__(self, graph: Graph, config: Optional[GistConfig] = None):
        self.config = config or GistConfig()
        super().__init__(self.config,
                         build_gist_plan(graph, self.config).decisions)

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

    def encoding_for(self, graph: Graph, node_id: int) -> Encoding:
        if node_id == graph.input_id:
            return self._identity
        return self._encoding

    def describe(self) -> str:
        """Label: ``"groupquant-int<bits>"``."""
        return self._encoding.name


class HybridExecutionPolicy(_TablePolicy):
    """Executes a :class:`~repro.memory.hybrid.HybridPlan`'s decisions.

    With a lossless plan (the default :class:`~repro.core.policy.
    HybridPolicy` uses ``GistConfig.lossless()``) every path reproduces
    the baseline's backward inputs bit for bit, so losses and gradients
    are bit-identical to :class:`BaselinePolicy` — the property the
    hybrid-execution tests pin with golden digests.
    """

    def __init__(self, plan: "HybridPlan"):
        self.plan = plan
        super().__init__(plan.policy.gist, plan.decisions)

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
