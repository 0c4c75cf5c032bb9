"""Runtime invariant checkers for the training executor.

Gist's correctness claims become machine-checkable here.  An
:class:`InvariantSuite` binds to one
:class:`~repro.train.executor.GraphExecutor` (via
:meth:`~repro.train.executor.GraphExecutor.enable_invariants`) and
verifies, while training runs:

* **lossless-round-trip** — every lossless encoding's decode reproduces,
  bit for bit, the reference the paper promises (the stashed values for
  Identity/SSDC, the positivity mask for Binarize).

The checker *raises* :class:`InvariantViolation` at the faulty event, so
seeded-fault tests can assert it actually fires.  Stash liveness is not
a suite's: every executor frees each stash at its death point and raises
:class:`InvariantViolation` on a read after it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.diagnostics.digest import array_digest
from repro.graph.node import OpNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.train.executor import GraphExecutor

__all__ = ["InvariantSuite", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """A runtime invariant of the training executor was broken."""


class InvariantSuite:
    """Per-executor runtime invariant checker.

    Built by :meth:`~repro.train.executor.GraphExecutor.enable_invariants`;
    the executor calls the ``on_*`` hooks at each event site.

    Args:
        executor: The executor to bind to.
    """

    def __init__(self, executor: "GraphExecutor"):
        self.executor = executor
        #: node_id -> digest of the expected lossless decode.
        self._expected: Dict[int, Tuple[str, str]] = {}

    # -- executor hooks -------------------------------------------------
    def on_stash_encoded(self, node: OpNode, y: np.ndarray,
                         encoding) -> None:
        """Record expectations for a freshly encoded stash."""
        if encoding.lossless:
            self._expected[node.node_id] = (
                array_digest(encoding.expected_decode(y)), encoding.name
            )

    def on_decoded(self, node_id: int, encoding, value: np.ndarray) -> None:
        """Check a decode result against the recorded expectation."""
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
