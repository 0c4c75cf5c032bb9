"""Gist core: policy, stash classification, Schedule Builder, facade."""

from repro.core.analysis import (
    STASH_CLASSES,
    STASH_OTHER,
    STASH_RELU_CONV,
    STASH_RELU_POOL,
    StashInfo,
    classify_all_stashes,
    classify_stash,
    stash_bytes_by_class,
)
from repro.core.gist import Gist, MFRReport, footprint_bytes
from repro.core.policy import (
    CONFIG_ARMS,
    GistConfig,
    HYBRID_STRATEGIES,
    HybridPolicy,
    PAPER_DPR_FORMATS,
    STRATEGY_GIST,
    STRATEGY_HYBRID,
    STRATEGY_RECOMPUTE,
    STRATEGY_SWAP,
)
from repro.core.schedule_builder import (
    ENC_BINARIZE,
    ENC_DPR,
    ENC_SSDC,
    GistPlan,
    SSDC_CONVERSION_FACTOR,
    build_gist_plan,
    gist_codec,
)

__all__ = [
    "CONFIG_ARMS",
    "ENC_BINARIZE",
    "ENC_DPR",
    "ENC_SSDC",
    "Gist",
    "GistConfig",
    "GistPlan",
    "HYBRID_STRATEGIES",
    "HybridPolicy",
    "MFRReport",
    "PAPER_DPR_FORMATS",
    "SSDC_CONVERSION_FACTOR",
    "STASH_CLASSES",
    "STRATEGY_GIST",
    "STRATEGY_HYBRID",
    "STRATEGY_RECOMPUTE",
    "STRATEGY_SWAP",
    "STASH_OTHER",
    "STASH_RELU_CONV",
    "STASH_RELU_POOL",
    "StashInfo",
    "build_gist_plan",
    "classify_all_stashes",
    "classify_stash",
    "footprint_bytes",
    "gist_codec",
    "stash_bytes_by_class",
]
