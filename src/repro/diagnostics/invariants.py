"""Runtime invariant checkers for the training executor.

Gist's correctness claims become machine-checkable here.  An
:class:`InvariantSuite` binds to one
:class:`~repro.train.executor.GraphExecutor` (via
:meth:`~repro.train.executor.GraphExecutor.enable_invariants`) and
verifies, while training runs:

* **lossless-round-trip** — every lossless encoding's decode reproduces,
  bit for bit, the reference the paper promises (the stashed values for
  Identity/SSDC, the positivity mask for Binarize);
* **stash-liveness** — no encoded stash is read after its death point on
  the schedule clock, i.e. the shortened lifetimes the Schedule Builder
  sells to the allocator are honoured by the runtime.

Each checker *raises* :class:`InvariantViolation` at the faulty event, so
seeded-fault tests can assert the checkers actually fire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.diagnostics.digest import array_digest
from repro.graph.graph import Graph
from repro.graph.liveness import feature_map_uses
from repro.graph.node import OpNode
from repro.graph.schedule import TrainingSchedule
from repro.memory.hybrid import source_read_time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.train.executor import GraphExecutor

__all__ = ["InvariantSuite", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """A runtime invariant of the training executor was broken."""


class InvariantSuite:
    """Per-executor runtime invariant checkers.

    Built by :meth:`~repro.train.executor.GraphExecutor.enable_invariants`;
    the executor calls the ``on_*`` hooks at each event site.  Checkers are
    individually switchable so a test can isolate one invariant.

    Args:
        executor: The executor to bind to.
        round_trip: Verify lossless decode bit-exactness.
        liveness: Verify stash reads stay inside their lifetime window.
    """

    def __init__(self, executor: "GraphExecutor", round_trip: bool = True,
                 liveness: bool = True):
        self.executor = executor
        self.round_trip = round_trip
        self.liveness = liveness
        self.schedule = TrainingSchedule(executor.graph)
        self._death = self._death_table(executor.graph, self.schedule,
                                        executor.policy)
        self._clock = -1
        #: node_id -> digest of the expected lossless decode.
        self._expected: Dict[int, Tuple[str, str]] = {}

    @staticmethod
    def _death_table(graph: Graph, schedule: TrainingSchedule,
                     policy) -> Dict[int, int]:
        """Last legitimate read time of each node's stash, by the uses
        table the executor stashes by (pools rewritten), stretched where
        the plan re-reads a source, by the rule the planner prices
        (:func:`~repro.memory.hybrid.source_read_time`)."""
        uses = feature_map_uses(graph, schedule, True)
        death = {
            nid: last_fwd if last_bwd is None else max(last_fwd, last_bwd)
            for nid, (last_fwd, _, last_bwd) in uses.items()
        }
        for nid in uses:
            decision = policy.decision_for(nid)
            read = (None if decision is None
                    else source_read_time(decision, uses))
            if read is not None:
                source = decision.source_id
                death[source] = max(death.get(source, read), read)
        return death

    # -- executor hooks -------------------------------------------------
    def begin_step(self) -> None:
        """Reset per-step state (called at the top of ``forward``)."""
        self._clock = -1
        self._expected.clear()

    def on_forward(self, node: OpNode) -> None:
        """Advance the schedule clock to ``node``'s forward op."""
        self._clock = self.schedule.forward_time(node.node_id)

    def on_backward(self, node: OpNode) -> None:
        """Advance the schedule clock to ``node``'s backward op."""
        self._clock = self.schedule.backward_time(node.node_id)

    def end_step(self) -> None:
        """Move the clock past the schedule end (called after backward).

        Any stash read issued after this point is by definition outside
        every liveness window and will be reported.
        """
        self._clock = self.schedule.num_steps

    def on_stash_encoded(self, node: OpNode, y: np.ndarray,
                         encoding) -> None:
        """Record expectations for a freshly encoded stash."""
        if self.round_trip and encoding.lossless:
            self._expected[node.node_id] = (
                array_digest(encoding.expected_decode(y)), encoding.name
            )

    def on_stash_read(self, node_id: int) -> None:
        """Check a stash read against the liveness table."""
        if not self.liveness:
            return
        death = self._death.get(node_id)
        if death is not None and self._clock > death:
            name = self.executor.graph.node(node_id).name
            raise InvariantViolation(
                f"stash-liveness: stash of {name!r} read at schedule time "
                f"{self._clock}, after its death point {death}"
            )

    def on_decoded(self, node_id: int, encoding, value: np.ndarray) -> None:
        """Check a decode result against the recorded expectation."""
        if not self.round_trip:
            return
        expected = self._expected.get(node_id)
        if expected is None:
            return
        digest, enc_name = expected
        if array_digest(value) != digest:
            name = self.executor.graph.node(node_id).name
            raise InvariantViolation(
                f"lossless-round-trip: {enc_name} decode of {name!r} is not "
                f"bit-identical to the encoded reference"
            )
