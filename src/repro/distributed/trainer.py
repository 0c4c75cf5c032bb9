"""Data-parallel training runs over the deterministic process pool.

:func:`train_distributed` is the driver: it holds the master parameters
and the optimiser state, issues one ``replica-step`` work unit per shard
per step, merges the wire-decoded gradients through the fixed pairwise
tree and applies a single SGD update.  The pool supplies elasticity and
fault tolerance — replicas are worker processes, so the replica count
can differ from the shard count (stragglers just serialise), a crashed
replica is respawned and its shard retried, and a run journal resumes a
killed run at the exact shard where it stopped (payload fingerprints
include the master parameters, so stale journal entries can never leak
into a different run).

The determinism contract: every field of :class:`DistRunResult` —
per-step losses, merged gradients, final parameters, the digest — is a
pure function of :class:`DistConfig`.  ``replicas`` is *not* part of the
result's inputs, which is the replicas-N ≡ serial guarantee the oracle
and the benchmark gate check.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.distributed.replica import (
    merge_replica_results,
    replica_work_units,
)
from repro.distributed.shard import shard_slices
from repro.distributed.wire import WIRE_CODECS
from repro.train.stash import LOSSLESS_POLICY_NAMES


@dataclass(frozen=True)
class DistConfig:
    """Everything that determines a data-parallel run's bits.

    ``replicas`` (worker processes) deliberately lives here too, but it
    only affects scheduling: any value yields identical results.
    ``num_shards`` is what defines the gradient semantics.
    """

    model: str = "tiny_cnn"
    batch_size: int = 16
    num_shards: int = 4
    replicas: int = 4
    steps: int = 4
    wire_codec: str = "auto"
    policy: str = "baseline"
    seed: int = 0
    lr: float = 0.05
    momentum: float = 0.9
    model_kwargs: dict = field(default_factory=dict)
    num_samples: int = 64
    noise: float = 0.6
    #: Work-unit kind executing each shard (tests substitute
    #: fault-injecting kinds wrapping the real executor).
    unit_kind: str = "replica-step"
    timeout_s: Optional[float] = None
    retries: int = 1

    def __post_init__(self) -> None:
        if self.wire_codec not in WIRE_CODECS:
            raise ValueError(
                f"unknown wire codec {self.wire_codec!r}; "
                f"known: {WIRE_CODECS}"
            )
        if self.policy not in LOSSLESS_POLICY_NAMES:
            raise ValueError(
                f"unknown replica policy {self.policy!r}; "
                f"known: {LOSSLESS_POLICY_NAMES}"
            )
        if self.steps <= 0:
            raise ValueError(f"steps must be positive, got {self.steps}")
        if self.replicas <= 0:
            raise ValueError(
                f"replicas must be positive, got {self.replicas}"
            )
        shard_slices(self.batch_size, self.num_shards)  # validates split

    def base_payload(self) -> dict:
        """The static (step-independent) part of every unit payload."""
        kwargs = dict(self.model_kwargs)
        return {
            "model": self.model,
            "model_kwargs": kwargs,
            "batch_size": int(self.batch_size),
            "num_shards": int(self.num_shards),
            "seed": int(self.seed),
            "wire_codec": self.wire_codec,
            "policy": self.policy,
            "data": {
                "num_samples": int(self.num_samples),
                "noise": float(self.noise),
                "data_seed": int(self.seed),
            },
        }


@dataclass(frozen=True)
class DistStepRecord:
    """Merged outcome of one training step."""

    step: int
    loss: float
    wire_bytes: int
    fp32_bytes: int
    comm_s: float
    shard_losses: List[float]
    shard_sizes: List[int]


@dataclass
class DistRunResult:
    """Outcome of a whole data-parallel run."""

    config: DistConfig
    records: List[DistStepRecord]
    params: Dict[str, np.ndarray]

    @property
    def losses(self) -> List[float]:
        return [r.loss for r in self.records]

    @property
    def total_wire_bytes(self) -> int:
        return sum(r.wire_bytes for r in self.records)

    @property
    def total_fp32_bytes(self) -> int:
        return sum(r.fp32_bytes for r in self.records)

    @property
    def wire_reduction(self) -> float:
        """Bytes-on-wire compression factor vs the fp32 wire."""
        if self.total_wire_bytes == 0:
            raise ValueError("run moved no bytes")
        return self.total_fp32_bytes / self.total_wire_bytes

    def digest(self) -> str:
        """SHA-256 over per-step losses and final parameters.

        Two runs with equal digests trained byte-identically; the
        benchmark pins the replicas-4 digest against the serial one.
        """
        h = hashlib.sha256()
        h.update(np.asarray(self.losses, dtype=np.float64).tobytes())
        for name in sorted(self.params):
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(self.params[name]).tobytes())
        return h.hexdigest()

    def to_json(self) -> dict:
        """JSON summary (no parameter payloads, just the digest)."""
        return {
            "config": asdict(self.config),
            "digest": self.digest(),
            "losses": self.losses,
            "total_wire_bytes": self.total_wire_bytes,
            "total_fp32_bytes": self.total_fp32_bytes,
            "wire_reduction": self.wire_reduction,
            "comm_s": sum(r.comm_s for r in self.records),
            "records": [asdict(r) for r in self.records],
        }


def master_parameters(config: DistConfig) -> Dict[str, np.ndarray]:
    """Initial master parameters for a run.

    Built from the full-batch graph so the initialisation is manifestly
    independent of the shard structure (parameter shapes never depend on
    the minibatch dimension).
    """
    from repro.models.registry import build_model
    from repro.train.executor import GraphExecutor

    graph = build_model(config.model, batch_size=config.batch_size,
                        **config.model_kwargs)
    return GraphExecutor(graph, seed=config.seed).parameters()


def train_distributed(
    config: DistConfig,
    journal: Union[None, str, "RunJournal"] = None,
    comm_model: Optional["CommModel"] = None,
) -> DistRunResult:
    """Run ``config.steps`` of data-parallel SGD over the process pool.

    Args:
        config: The run configuration (fully determines the result).
        journal: Optional run journal (or path): completed shard units
            replay on resume instead of re-running, and the merged run
            is byte-identical to an uninterrupted one.
        comm_model: Communication-time model for the per-step ``comm_s``
            estimate (defaults to :class:`~repro.perf.comm.CommModel`
            on the paper's device).
    """
    from repro.orchestrate import run_units
    from repro.perf.comm import CommModel
    from repro.train.optimizer import SGD

    if comm_model is None:
        comm_model = CommModel()
    params = master_parameters(config)
    optimizer = SGD(lr=config.lr, momentum=config.momentum)
    base = config.base_payload()
    records: List[DistStepRecord] = []
    for step in range(config.steps):
        units = replica_work_units(base, step, params,
                                   kind=config.unit_kind)
        results = run_units(
            units,
            workers=config.replicas,
            timeout_s=config.timeout_s,
            retries=config.retries,
            journal=journal,
        )
        loss, merged, stats = merge_replica_results(units, results)
        optimizer.step(params, merged)
        shard_wire = [
            int(results[unit.key].value["wire_bytes"]) for unit in units
        ]
        records.append(DistStepRecord(
            step=step,
            loss=loss,
            wire_bytes=int(stats["wire_bytes"]),
            fp32_bytes=int(stats["fp32_bytes"]),
            comm_s=comm_model.allreduce_s(shard_wire),
            shard_losses=[float(l) for l in stats["shard_losses"]],
            shard_sizes=[int(n) for n in stats["shard_sizes"]],
        ))
    return DistRunResult(config=config, records=records, params=params)
