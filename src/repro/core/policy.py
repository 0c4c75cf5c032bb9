"""Gist configuration: which encodings to apply and how.

Mirrors Table I of the paper.  Presets cover the paper's experiment arms:

* :meth:`GistConfig.lossless` — Binarize + SSDC + inplace (Figure 8's
  "Lossless" bar, Figure 10's isolation studies).
* :meth:`GistConfig.full` — lossless plus DPR (Figure 8's "Lossless +
  Lossy" bar; the DPR format is per-network, chosen as the smallest that
  trains without accuracy loss — Section V-D1).
* :meth:`GistConfig.dpr_only` — DPR on every stashed map (Figure 13).

:class:`HybridPolicy` extends the per-class encoding choice into a
per-tensor *strategy* choice — Gist encoding, recompute-from-ancestor or
host swap — priced by the cost model (see
:mod:`repro.memory.hybrid`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.dtypes import DPR_FORMATS

# Planner strategies accepted by `repro plan --strategy` and
# :func:`repro.memory.hybrid.build_hybrid_plan`.
STRATEGY_GIST = "gist"
STRATEGY_RECOMPUTE = "recompute"
STRATEGY_SWAP = "swap"
STRATEGY_SHARED_CONCAT = "shared_concat"
STRATEGY_HYBRID = "hybrid"
HYBRID_STRATEGIES = (
    STRATEGY_GIST,
    STRATEGY_RECOMPUTE,
    STRATEGY_SWAP,
    STRATEGY_SHARED_CONCAT,
    STRATEGY_HYBRID,
)

#: Smallest DPR format per network with no accuracy loss (paper §V-D1):
#: AlexNet and Overfeat train at FP8; Inception needs FP10; VGG16 needs
#: FP16.  Networks the paper does not call out keep the safe FP16 default.
PAPER_DPR_FORMATS = {
    "alexnet": "fp8",
    "overfeat": "fp8",
    "nin": "fp10",
    "inception": "fp10",
    "vgg16": "fp16",
    "resnet50": "fp10",
}

#: The one ``--config`` vocabulary (every CLI ``--config`` flag);
#: :meth:`GistConfig.from_name` is its parser.
CONFIG_ARMS = ("network", "lossless", "fp16", "fp10", "fp8")


@dataclass(frozen=True)
class GistConfig:
    """Switches for each Gist technique.

    Attributes:
        binarize: 1-bit ReLU-Pool encoding (+ pool argmax-map rewrite).
        ssdc: CSR encoding for ReLU-Conv / sparse Pool-Conv maps.
        dpr: Delayed precision reduction on remaining stashed maps.
        inplace: Inplace computation for read-once/write-once layers:
            the plan merges each eligible pair's allocations.  Priced
            only; the executor runs every layer out of place.
        dpr_format: ``"fp16"`` / ``"fp10"`` / ``"fp8"``.
        rounding: Minifloat rounding, ``"nearest"`` or ``"truncate"``.
        optimized_software: Drop the decoded-FP32 staging buffer, as if
            cuDNN consumed encoded data directly (Figure 17's rightmost
            bars).
    """

    binarize: bool = True
    ssdc: bool = True
    dpr: bool = True
    inplace: bool = True
    dpr_format: str = "fp16"
    rounding: str = "nearest"
    optimized_software: bool = False

    def __post_init__(self) -> None:
        if self.dpr_format not in DPR_FORMATS:
            raise ValueError(
                f"dpr_format must be one of {sorted(DPR_FORMATS)}, "
                f"got {self.dpr_format!r}"
            )
        if self.rounding not in ("nearest", "truncate"):
            raise ValueError(f"unknown rounding mode {self.rounding!r}")

    # ------------------------------------------------------------------
    @classmethod
    def lossless(cls, **overrides) -> "GistConfig":
        """Binarize + SSDC + inplace, no DPR."""
        return cls(dpr=False, **overrides)

    @classmethod
    def full(cls, dpr_format: str = "fp16", **overrides) -> "GistConfig":
        """All techniques; ``dpr_format`` selects the lossy width."""
        return cls(dpr_format=dpr_format, **overrides)

    @classmethod
    def for_network(cls, model_name: str, **overrides) -> "GistConfig":
        """All techniques with the paper's per-network DPR format."""
        fmt = PAPER_DPR_FORMATS.get(model_name, "fp16")
        return cls(dpr_format=fmt, **overrides)

    @classmethod
    def from_name(cls, arm: str, model: Optional[str] = None) -> "GistConfig":
        """The preset a :data:`CONFIG_ARMS` name selects: ``lossless`` ->
        :meth:`lossless`, ``network`` -> :meth:`for_network` of ``model``,
        a DPR format -> :meth:`full` at that width.

        Raises:
            ValueError: Unknown arm, or ``network`` without a model.
        """
        if arm not in CONFIG_ARMS:
            raise ValueError(
                f"unknown gist config arm {arm!r}; known: {CONFIG_ARMS}"
            )
        if arm == "lossless":
            return cls.lossless()
        if arm == "network":
            if model is None:
                raise ValueError("config arm 'network' needs a model name")
            return cls.for_network(model)
        return cls.full(arm)

    @classmethod
    def binarize_only(cls) -> "GistConfig":
        """Binarize in isolation (Figure 10)."""
        return cls(ssdc=False, dpr=False, inplace=False)

    @classmethod
    def ssdc_only(cls) -> "GistConfig":
        """SSDC in isolation (Figure 10)."""
        return cls(binarize=False, dpr=False, inplace=False)

    @classmethod
    def dpr_only(cls, dpr_format: str = "fp16") -> "GistConfig":
        """DPR on every stashed map, no lossless encodings (Figure 13)."""
        return cls(binarize=False, ssdc=False, inplace=False,
                   dpr_format=dpr_format)

    @classmethod
    def disabled(cls) -> "GistConfig":
        """No techniques at all — identical to the baseline plan."""
        return cls(binarize=False, ssdc=False, dpr=False, inplace=False)

    def with_(self, **overrides) -> "GistConfig":
        """Functional update."""
        return replace(self, **overrides)

    @property
    def any_encoding(self) -> bool:
        """Whether any stash-rewriting technique is enabled."""
        return self.binarize or self.ssdc or self.dpr


@dataclass(frozen=True)
class HybridPolicy:
    """Configuration of the hybrid memory planner.

    The planner prices three footprint levers per stashed feature map —
    Gist encoding, recompute-from-cheapest-ancestor and host swap — with
    the roofline cost model, then picks the cheapest mix that fits the
    overhead budget (:func:`repro.memory.hybrid.build_hybrid_plan`).

    Attributes:
        strategy: ``"hybrid"`` considers all levers per tensor;
            ``"gist"`` / ``"recompute"`` / ``"swap"`` /
            ``"shared_concat"`` restrict the planner to a single lever
            (the pure arms the hybrid must beat).
        cost_budget_frac: Step-time overhead budget as a fraction of the
            baseline step (all strategies select under the same budget,
            which is what makes their footprints comparable).
        gist: Encoding switches for the Gist lever.  The default is
            :meth:`GistConfig.lossless`, so every plan decision round-trips
            bit-exactly and hybrid execution matches the baseline's
            losses and gradients bit for bit.
    """

    strategy: str = STRATEGY_HYBRID
    cost_budget_frac: float = 0.15
    gist: GistConfig = GistConfig.lossless()

    def __post_init__(self) -> None:
        if self.strategy not in HYBRID_STRATEGIES:
            raise ValueError(
                f"strategy must be one of {HYBRID_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.cost_budget_frac < 0.0:
            raise ValueError(
                f"cost_budget_frac must be >= 0, got {self.cost_budget_frac}"
            )

    def with_(self, **overrides) -> "HybridPolicy":
        """Functional update."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """Label: ``"hybrid"`` or ``"hybrid-<pure strategy>"``."""
        if self.strategy == STRATEGY_HYBRID:
            return "hybrid"
        return f"hybrid-{self.strategy}"

    @property
    def lossless(self) -> bool:
        """Whether every decision the planner can emit is lossless."""
        return not self.gist.dpr
