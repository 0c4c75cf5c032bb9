"""NumPy training runtime: executor, stash policies, trainer, datasets."""

from repro.train.data import (
    Dataset,
    make_synthetic,
    make_synthetic_for,
    make_synthetic_sequences,
    minibatches,
)
from repro.train.executor import GraphExecutor
from repro.train.metrics import accuracy, accuracy_loss
from repro.train.optimizer import SGD
from repro.train.stash import (
    GradientOnlyReductionPolicy,
    BaselinePolicy,
    GistPolicy,
    GroupQuantPolicy,
    HybridExecutionPolicy,
    LOSSLESS_POLICY_NAMES,
    POLICY_NAMES,
    StashPolicy,
    UniformReductionPolicy,
    policy_from_name,
)
from repro.train.trainer import (
    SparsitySample,
    Trainer,
    TrainResult,
    feature_map_elements,
)

__all__ = [
    "BaselinePolicy",
    "Dataset",
    "GistPolicy",
    "GradientOnlyReductionPolicy",
    "GroupQuantPolicy",
    "GraphExecutor",
    "HybridExecutionPolicy",
    "LOSSLESS_POLICY_NAMES",
    "POLICY_NAMES",
    "SGD",
    "SparsitySample",
    "StashPolicy",
    "UniformReductionPolicy",
    "TrainResult",
    "Trainer",
    "accuracy",
    "accuracy_loss",
    "feature_map_elements",
    "make_synthetic",
    "make_synthetic_for",
    "make_synthetic_sequences",
    "minibatches",
    "policy_from_name",
]
