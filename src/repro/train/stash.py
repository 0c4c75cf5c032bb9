"""Runtime stash policies: what actually gets stored between passes.

The executor routes every stashed feature map through a policy:

* :class:`BaselinePolicy` — FP32 references, no transformation (the CNTK
  baseline, and the exact-gradient path used by the gradient-check tests).
* :class:`GistPolicy` and :class:`HybridExecutionPolicy` — two
  constructors over one table-driven policy (:class:`_TablePolicy`) and
  one codec factory (:func:`_make_codec`).  ``GistPolicy(graph, cfg)``
  feeds it the bare Table-I class rule — Binarize for ReLU-Pool maps,
  SSDC for ReLU-Conv maps, DPR for the rest, with *no* sizing, so a map
  the planner prices below the SSDC breakeven is still SSDC-encoded at
  run time; ``HybridExecutionPolicy(plan)`` feeds it a planner's
  :class:`~repro.memory.hybrid.PlanDecision` table.  Lossless edges
  reconstruct exactly; DPR edges inject precisely the quantisation error
  the paper's Figure 12 accuracy study measures.
* :class:`AllFP16Policy` — the prior-work baseline: quantise every layer
  output *in the forward pass*, so error propagates through subsequent
  layers (the curve that diverges in Figure 12).
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.analysis import classify_all_stashes
from repro.core.policy import GistConfig
from repro.core.schedule_builder import (
    ENC_BINARIZE,
    ENC_DPR,
    ENC_SSDC,
    _encoding_for,
)
from repro.dtypes import DPR_FORMATS, FP16
from repro.encodings.base import Encoding, HostSwapEncoding, IdentityEncoding
from repro.encodings.binarize import BinarizeEncoding
from repro.encodings.dpr import DPREncoding
from repro.encodings.floatsim import quantize
from repro.encodings.ssdc import SSDCEncoding
from repro.graph.graph import Graph
from repro.graph.node import OpNode
from repro.memory.hybrid import CHOICE_GIST, CHOICE_SWAP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.hybrid import (
        HybridPlan,
        RecomputeDirective,
        SharedConcatDirective,
    )


class StashPolicy(abc.ABC):
    """Chooses the stash encoding per feature-map edge."""

    @abc.abstractmethod
    def encoding_for(self, graph: Graph, node_id: int) -> Encoding:
        """Encoding for the feature map produced by ``node_id``."""

    def describe(self) -> str:
        """Short policy label used in traces, digests and reports."""
        return type(self).__name__.lower()

    def transform_forward(self, y: np.ndarray, node: OpNode) -> np.ndarray:
        """Hook applied to every layer output before consumers see it."""
        return y

    def transform_gradient(self, dx: np.ndarray, node: OpNode) -> np.ndarray:
        """Hook applied to every gradient map a backward op produces."""
        return dx

    def recompute_directive(
        self, node_id: int
    ) -> "Optional[RecomputeDirective]":
        """Rebuild instruction for ``node_id``'s stash, or ``None``.

        When set, the executor skips stashing the node's output in the
        forward pass and re-executes the directive's chain on the first
        backward read instead.  Only :class:`HybridExecutionPolicy`
        returns directives.
        """
        return None

    def shared_concat_directive(
        self, node_id: int
    ) -> "Optional[SharedConcatDirective]":
        """Prefix-read instruction for ``node_id``'s stash, or ``None``.

        When set, the executor skips stashing the node's output and
        instead re-slices the leading channels of the directive's concat
        terminal on the first backward read (the DenseNet shared-buffer
        trick — bit-exact because ``np.concatenate`` copies its first
        argument to the front).  Only :class:`HybridExecutionPolicy`
        returns directives.
        """
        return None

    #: If set, the trainer re-quantises every weight to this format after
    #: each optimiser step (uniform-reduction baselines store weights in
    #: the reduced format too).
    param_dtype = None


class BaselinePolicy(StashPolicy):
    """FP32 stashes everywhere — the exact-arithmetic baseline."""

    def __init__(self):
        self._identity = IdentityEncoding()

    def encoding_for(self, graph: Graph, node_id: int) -> Encoding:
        return self._identity

    def describe(self) -> str:
        """Label: ``"baseline"``."""
        return "baseline"


def _make_codec(choice: str, encoding: Optional[str], cfg: GistConfig,
                node_name: str) -> Encoding:
    """The codec a ``(choice, encoding)`` table row stashes through.

    Raises:
        ValueError: A gist row names an encoding Table I does not have —
            silently substituting a lossy codec would corrupt training.
    """
    if choice == CHOICE_SWAP:
        return HostSwapEncoding()
    dpr_dtype = DPR_FORMATS[cfg.dpr_format]
    if encoding == ENC_BINARIZE:
        return BinarizeEncoding()
    if encoding == ENC_SSDC:
        return SSDCEncoding(
            cols=cfg.ssdc_cols,
            value_dtype=dpr_dtype if (cfg.dpr and cfg.dpr_over_ssdc) else None,
        )
    if encoding == ENC_DPR:
        return DPREncoding(dpr_dtype, cfg.rounding)
    raise ValueError(
        f"{node_name}: unknown gist encoding {encoding!r} (expected one of "
        f"{ENC_BINARIZE!r}, {ENC_SSDC!r}, {ENC_DPR!r})"
    )


class _TablePolicy(StashPolicy):
    """Executes ``(node_id, node_name, choice, encoding)`` rows at the
    stash layer, with codecs parameterised by ``cfg``:

    * **gist** rows stash through the row's codec (Binarize / SSDC / DPR);
    * **swap** rows stash through :class:`HostSwapEncoding` — a
      bit-exact host-buffer copy standing in for the PCIe offload;
    * **recompute** rows are *not stashed at all*: the executor
      queries :meth:`recompute_directive` and replays the forward chain
      from the directive's source on the first backward read;
    * **shared_concat** rows are not stashed either: the executor
      queries :meth:`shared_concat_directive` and re-slices the leading
      channels of the chain terminal's kept FP32 stash (bit-exact by the
      concat prefix-copy property);
    * nodes without a row keep the FP32 identity baseline.
    """

    def __init__(self, cfg: GistConfig,
                 rows: Iterable[Tuple[int, str, str, Optional[str]]],
                 recompute=None, shared_concat=None):
        self._identity = IdentityEncoding()
        self._directives = recompute or {}
        self._shared = shared_concat or {}
        #: ``{node_id: Table-I encoding name}`` of the gist rows — what
        #: plan-vs-runtime conformance compares against a plan's decisions.
        self.encodings: Dict[int, str] = {}
        # One codec instance per distinct (choice, encoding) pair.
        codecs: Dict[Tuple[str, Optional[str]], Encoding] = {}
        self._table: Dict[int, Encoding] = {}
        for node_id, node_name, choice, encoding in rows:
            if choice not in (CHOICE_GIST, CHOICE_SWAP):
                continue
            key = (choice, encoding)
            if key not in codecs:
                codecs[key] = _make_codec(choice, encoding, cfg, node_name)
            self._table[node_id] = codecs[key]
            if choice == CHOICE_GIST:
                self.encodings[node_id] = encoding

    def encoding_for(self, graph: Graph, node_id: int) -> Encoding:
        return self._table.get(node_id, self._identity)

    def recompute_directive(self, node_id: int):
        return self._directives.get(node_id)

    def shared_concat_directive(self, node_id: int):
        return self._shared.get(node_id)


class GistPolicy(_TablePolicy):
    """Layer-pair-aware encodings: the bare Table-I class rule."""

    def __init__(self, graph: Graph, config: Optional[GistConfig] = None):
        self.config = config or GistConfig()
        rows = []
        for node_id, info in classify_all_stashes(graph).items():
            encoding = _encoding_for(info.stash_class, self.config)
            if encoding is not None:
                rows.append((node_id, graph.node(node_id).name, CHOICE_GIST,
                             encoding))
        super().__init__(self.config, rows)

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

    def __init__(self, dtype=FP16, quantize_gradients: bool = True,
                 quantize_params: bool = True):
        self.dtype = dtype
        self._identity = IdentityEncoding()
        self.quantize_gradients = quantize_gradients
        self.param_dtype = dtype if quantize_params else None

    def encoding_for(self, graph: Graph, node_id: int) -> Encoding:
        return self._identity  # the stash is already quantised

    def transform_forward(self, y: np.ndarray, node: OpNode) -> np.ndarray:
        if node.kind in ("loss", "input"):
            return y
        return quantize(y, self.dtype)

    def transform_gradient(self, dx: np.ndarray, node: OpNode) -> np.ndarray:
        if not self.quantize_gradients:
            return dx
        return quantize(dx, self.dtype)

    def describe(self) -> str:
        """Label: ``"uniform-<format>"``."""
        return f"uniform-{self.dtype.name}"


class AllFP16Policy(UniformReductionPolicy):
    """The paper's "All-FP16" arm: uniform FP16 in the forward pass."""

    def __init__(self):
        super().__init__(FP16)


class GradientOnlyReductionPolicy(StashPolicy):
    """Reduce precision of *gradient maps only* (paper Section III-B).

    The paper's stepping-stone observation: restricting reduction to the
    backward gradient maps leaves training accuracy intact (unlike uniform
    reduction), which motivates pushing further — DPR extends the idea to
    the stashed feature maps themselves.
    """

    def __init__(self, dtype=FP16):
        self.dtype = dtype
        self._identity = IdentityEncoding()

    def encoding_for(self, graph: Graph, node_id: int) -> Encoding:
        return self._identity

    def transform_gradient(self, dx: np.ndarray, node: OpNode) -> np.ndarray:
        return quantize(dx, self.dtype)

    def describe(self) -> str:
        """Label: ``"grad-only-<format>"``."""
        return f"grad-only-{self.dtype.name}"


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
        super().__init__(
            plan.policy.gist,
            ((node_id, d.node_name, d.choice, d.encoding)
             for node_id, d in plan.decisions.items()),
            recompute=plan.recompute_directives(),
            shared_concat=plan.shared_concat_directives(),
        )

    def describe(self) -> str:
        """Label: the plan policy's (``"hybrid"`` / ``"hybrid-<arm>"``)."""
        return self.plan.policy.describe()
