"""NumPy training executor with encoding-aware stashing.

Runs a training graph forward and backward under the plan record its
:class:`~repro.train.stash.StashPolicy` hands it: the maps the record's
table keeps into the backward pass are stashed through the codec each
decision names, and each is freed at the death the allocator priced.
With the baseline policy this computes exact FP32 gradients (verified by
the numerical gradient-check tests); with a Gist policy the backward
pass reads decoded representations — bit-identical for Binarize/SSDC,
rounded for DPR — exactly as the paper's modified CNTK does.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.encodings.base import Encoding
from repro.graph.graph import Graph
from repro.graph.node import OpNode

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.diagnostics.invariants import InvariantSuite
    from repro.diagnostics.tracer import StepTracer
from repro.kernels import NULL_ARENA, WorkspaceArena
from repro.kernels.backends import CONV_ARMS, REFERENCE
from repro.layers.base import OpContext
from repro.layers.loss import SoftmaxCrossEntropy
from repro.memory.hybrid import CHOICE_RECOMPUTE, DROPPED_CHOICES, PlanDecision
from repro.memory.shared_concat import find_concat_chains
from repro.train.stash import BaselinePolicy, StashPolicy, codec_table

#: Node kinds whose outputs are sparsity-tracked each forward pass.
_SPARSITY_KINDS = {"relu", "maxpool"}


class _Context(OpContext):
    """Per-node bridge wired to the executor's stash store."""

    def __init__(self, executor: "GraphExecutor", node: OpNode):
        self._executor = executor
        self._node = node
        self._state: Dict[str, np.ndarray] = {}

    def save_state(self, key: str, value: np.ndarray) -> None:
        self._state[key] = value

    def get_state(self, key: str) -> np.ndarray:
        try:
            return self._state[key]
        except KeyError:
            raise KeyError(
                f"{self._node.name}: no saved state {key!r}; was forward run?"
            ) from None

    def stashed_input(self, index: int = 0) -> np.ndarray:
        return self._executor.stashed_value(self._node.inputs[index])

    def stashed_output(self) -> np.ndarray:
        return self._executor.stashed_value(self._node.node_id)

    def stashed_input_lossless(self, index: int = 0) -> bool:
        entry = self._executor._stash.get(self._node.inputs[index])
        return entry is not None and entry[0].lossless

    def input_needs_gradient(self, index: int = 0) -> bool:
        return self._node.inputs[index] != self._executor.graph.input_id

    def output_buffer(self, shape, dtype) -> np.ndarray:
        return self._executor._output_buffer(self._node.node_id, shape,
                                             dtype)

    @property
    def arena(self) -> WorkspaceArena:
        """The executor's workspace arena."""
        return self._executor.arena

    @property
    def kernel_backend(self) -> Optional[str]:
        """The conv arm this executor forces (``None``: the chooser's)."""
        return self._executor.kernel_backend


class GraphExecutor:
    """Forward/backward engine over a training graph.

    Args:
        graph: The execution graph (must end in a loss node).
        policy: Stash policy (defaults to the FP32 baseline).
        seed: Parameter-initialisation seed.
        use_kernel_plans: ``False`` is the A/B shorthand for
            ``kernel_backend="reference"``: the original per-call loop
            conv kernels.
        tracer: Optional :class:`~repro.diagnostics.tracer.StepTracer`
            observing this executor.  A traced step runs the same layer
            and codec calls as an untraced one: each site only reads the
            clock before and reports after when ``tracer is not None``.
        kernel_backend: Force a conv arm of
            :data:`~repro.kernels.backends.CONV_ARMS` by name for every
            conv this executor dispatches (e.g. ``"reference"`` or
            ``"blas-fat"``) instead of the chooser's pick — the one way
            to force an arm; max-pool and the codecs run their one body
            under any name.

    Raises:
        ValueError: If ``kernel_backend`` names no conv arm, or the
            policy's plan record was built for another graph object.
    """

    def __init__(self, graph: Graph, policy: Optional[StashPolicy] = None,
                 seed: int = 0, use_kernel_plans: Optional[bool] = None,
                 tracer: Optional["StepTracer"] = None,
                 kernel_backend: Optional[str] = None):
        self.graph = graph
        self.policy = policy or BaselinePolicy()
        self.tracer = tracer
        self._invariants = None
        if (use_kernel_plans is not None and not use_kernel_plans
                and kernel_backend is None):
            kernel_backend = REFERENCE
        if kernel_backend is not None and kernel_backend not in CONV_ARMS:
            raise ValueError(
                f"kernel_backend={kernel_backend!r} names no conv arm "
                f"(arms: {', '.join(sorted(CONV_ARMS))})")
        self.kernel_backend = kernel_backend
        # Every rent site reads this attribute, so a test can assign a
        # poisoned arena after construction.
        self.arena: WorkspaceArena = NULL_ARENA
        rng = np.random.default_rng(seed)
        self.params: Dict[int, Dict[str, np.ndarray]] = {}
        for node in graph.nodes:
            self.params[node.node_id] = node.layer.init_params(
                node.input_shapes(graph), rng
            )
        self._loss_node = graph.node(graph.output_id)
        if not isinstance(self._loss_node.layer, SoftmaxCrossEntropy):
            raise ValueError(
                f"graph output must be a SoftmaxCrossEntropy loss, "
                f"got {self._loss_node.kind!r}"
            )
        # The plan this executor runs: the table the allocator priced.
        record = self.policy.record(graph)
        if record.graph is not graph:
            raise ValueError(
                f"{self.policy.describe()} was planned for graph "
                f"{record.graph.name!r} at {id(record.graph):#x}, not for "
                f"graph {graph.name!r} at {id(graph):#x}")
        self._schedule = schedule = record.schedule
        # A read past a stash's death is a stash-liveness violation.
        self._death: Dict[int, int] = record.stash_deaths()
        # Not stashed: the backward pass rebuilds them (_rebuild).
        self._dropped: Dict[int, PlanDecision] = {
            nid: d for nid, d in record.decisions.items()
            if d.choice in DROPPED_CHOICES}
        codecs = codec_table(record)
        self._encodings: Dict[int, Encoding] = {
            nid: codecs[nid] if nid in codecs
            else self.policy.encoding_for(graph, nid)
            for nid in self._death if nid not in self._dropped}
        # Schedule time -> what dies after the op at that time: a forward
        # value after its last forward reader (nodes run in graph order,
        # so the last to read a value sets its time; the logits stay for
        # last_logits), a stash and its decoded map at their death.
        last_read: Dict[int, int] = {}
        for node in graph.nodes:
            for nid in (node.node_id, *node.inputs):
                last_read[nid] = schedule.forward_time(node.node_id)
        del last_read[self._loss_node.inputs[0]]
        self._frees: Dict[int, List[int]] = {}
        for nid, last_fwd in last_read.items():
            self._frees.setdefault(last_fwd, []).append(nid)
        for nid, death in self._death.items():
            self._frees.setdefault(death, []).append(nid)
        # The schedule time of the op running or last run: -1 before the
        # first forward, num_steps once a backward has finished.
        self._clock = -1
        # Each concat chain runs in one terminal-sized buffer: every link
        # writes its new channels behind its predecessor's, so a member
        # *is* the terminal's channel prefix.  Concat id -> (chain head,
        # terminal channels); the head rents the buffer each forward.
        self._chain_links: Dict[int, Tuple[int, int]] = {}
        for chain in find_concat_chains(graph):
            channels = graph.node(chain.terminal_id).output_shape[1]
            for nid in chain.members + (chain.terminal_id,):
                self._chain_links[nid] = (chain.members[0], channels)
        self._chain_buffers: Dict[int, np.ndarray] = {}
        self._stash: Dict[int, Tuple[Encoding, object]] = {}
        self._decoded: Dict[int, np.ndarray] = {}
        self._ctx: Dict[int, _Context] = {}
        self.last_logits: Optional[np.ndarray] = None
        self.last_sparsity: Dict[str, float] = {}
        # Layers carry mutable state (Dropout's mask RNG) that outlives an
        # executor when graphs are reused.  Rewinding here makes a second
        # executor on the same graph byte-identical to the first, instead
        # of silently resuming the previous executor's streams.
        self.reset_layer_state()

    # ------------------------------------------------------------------
    def reset_layer_state(
        self, seed_sequence: Optional[np.random.SeedSequence] = None
    ) -> None:
        """Reset every layer's mutable state (RNG streams).

        With ``seed_sequence=None`` each stateful layer rewinds to its
        construction seed.  With a :class:`~numpy.random.SeedSequence`,
        one child is spawned per graph node (in graph order, so the split
        is independent of which layers happen to be stateful) and handed
        to that node's layer — this is how data-parallel replicas install
        per-(step, shard) mask streams.
        """
        children = (
            [None] * len(self.graph.nodes) if seed_sequence is None
            else seed_sequence.spawn(len(self.graph.nodes))
        )
        for node, child in zip(self.graph.nodes, children):
            rng = None if child is None else np.random.default_rng(child)
            node.layer.reset_state(rng)

    # ------------------------------------------------------------------
    def parameters(self) -> Dict[str, np.ndarray]:
        """Flat view of all learnable parameters, keyed ``node.param``."""
        flat: Dict[str, np.ndarray] = {}
        for node in self.graph.nodes:
            for pname, arr in self.params[node.node_id].items():
                flat[f"{node.name}.{pname}"] = arr
        return flat

    def stashed_value(self, node_id: int) -> np.ndarray:
        """Decode (with caching) the stashed feature map of ``node_id``.

        Raises:
            InvariantViolation: The schedule clock is past the map's death
                (its entry is freed; a read here is a scheduling bug).
        """
        death = self._death.get(node_id)
        if death is not None and self._clock > death:
            from repro.diagnostics.invariants import InvariantViolation

            name = self.graph.node(node_id).name
            raise InvariantViolation(
                f"stash-liveness: stash of {name!r} read at schedule time "
                f"{self._clock}, after its death point {death}")
        if node_id in self._decoded:
            return self._decoded[node_id]
        try:
            encoding, encoded = self._stash[node_id]
        except KeyError:
            decision = self._dropped.get(node_id)
            if decision is not None:
                return self._rebuild(node_id, decision)
            name = self.graph.node(node_id).name
            raise KeyError(f"feature map of {name!r} was not stashed") from None
        tracer = self.tracer
        t0 = perf_counter() if tracer is not None else 0.0
        value = encoding.decode(encoded)
        if tracer is not None:
            tracer.record_decode(self.graph.node(node_id).name, encoding.name,
                                 value.nbytes, perf_counter() - t0)
        checks = self._invariants
        if checks is not None:
            checks.on_decoded(node_id, encoding, value)
        self._decoded[node_id] = value
        return value

    def stashed_node_ids(self) -> List[int]:
        """Node ids with a live stash entry: every stash after a training
        forward, none once ``backward`` has freed each at its death."""
        return list(self._stash)

    def enable_invariants(self) -> "InvariantSuite":
        """Attach the lossless round-trip checker to this executor.

        Builds an :class:`~repro.diagnostics.invariants.InvariantSuite`
        bound to this executor (replacing any previous suite) and returns
        it.  It raises
        :class:`~repro.diagnostics.invariants.InvariantViolation` at the
        faulty decode.  Stash liveness needs no suite: every executor
        polices it in :meth:`stashed_value`.
        """
        from repro.diagnostics.invariants import InvariantSuite

        self._invariants = InvariantSuite(self)
        return self._invariants

    def stash_bytes(self) -> Dict[str, int]:
        """Measured stash footprint per node after a forward pass."""
        out: Dict[str, int] = {}
        for node_id, (encoding, encoded) in self._stash.items():
            out[self.graph.node(node_id).name] = encoding.measure_bytes(encoded)
        return out

    # ------------------------------------------------------------------
    def forward(self, images: np.ndarray, labels: np.ndarray,
                train: bool = True) -> float:
        """Run the forward pass; returns the scalar loss.

        Each value is dropped after its last forward reader.  With
        ``train=False`` nothing is stashed and no backward may follow.
        """
        expected = self.graph.node(self.graph.input_id).output_shape
        if tuple(images.shape) != tuple(expected):
            raise ValueError(
                f"input shape {images.shape} does not match graph input "
                f"{expected}"
            )
        self._stash.clear()
        self._decoded.clear()
        self._ctx.clear()
        # An inference forward is not a training step: it opens no
        # tracer step record and times nothing.
        tracer = self.tracer if train else None
        if tracer is not None:
            tracer.begin_step()
        self.last_sparsity = {}
        self._loss_node.layer.set_labels(labels)

        values: Dict[int, np.ndarray] = {
            self.graph.input_id: images.astype(np.float32, copy=False)
        }
        if train:
            self._maybe_stash(self.graph.node(self.graph.input_id),
                              values[self.graph.input_id])
        loss = 0.0
        for node in self.graph.nodes:
            if node.node_id == self.graph.input_id:
                continue
            ctx = _Context(self, node)
            self._ctx[node.node_id] = ctx
            xs = [values[i] for i in node.inputs]
            self._clock = self._schedule.forward_time(node.node_id)
            t0 = perf_counter() if tracer is not None else 0.0
            y = node.layer.forward(xs, self.params[node.node_id], ctx, train)
            if tracer is not None:
                tracer.record_node(node.name, "forward",
                                   perf_counter() - t0)
            y = self.policy.transform_forward(y, node)
            values[node.node_id] = y
            if node.kind in _SPARSITY_KINDS:
                # Compare into a rented bool map, then count the bools:
                # several times cheaper than count_nonzero's float scan,
                # same predicate (NaN counts, +-0 does not).  Reading in
                # memory order keeps an NHWC-strided map one flat pass.
                nonzero = self.arena.rent(y.shape, np.bool_)
                np.not_equal(y.ravel(order="K"), 0, out=nonzero.reshape(-1))
                self.last_sparsity[node.name] = (
                    1.0 - np.count_nonzero(nonzero) / y.size
                )
            if node.node_id == self.graph.output_id:
                loss = float(y[0])
            elif train:
                self._maybe_stash(node, y)
            if node.inputs == [self.graph.output_id]:
                raise AssertionError("loss output consumed by another op")
            for nid in self._frees.get(self._clock, ()):
                values.pop(nid, None)
        # Keep the logits (the loss node's input) for accuracy metrics.
        self.last_logits = values[self._loss_node.inputs[0]]
        # Every link has written; a stashed member holds its own view.
        self._chain_buffers.clear()
        if not train:
            self._clock = self._schedule.num_steps
        if tracer is not None:
            tracer.record_loss(loss)
        return loss

    def _rebuild(self, node_id: int, decision: PlanDecision) -> np.ndarray:
        """Rebuild a map its decision dropped, from the source's stash.

        * **recompute**: replay the decision's forward chain with
          throwaway per-node contexts (the original forward contexts —
          saved argmax maps, masks — stay untouched for the chain
          members' own backward ops).  Parameters have not changed since
          the forward pass, and chains exclude RNG/state-mutating layers,
          so the rebuilt value is bit-identical to the dropped one.
        * **shared concat**: every link of an ``inputs[0]``-linked concat
          chain writes into one buffer behind its predecessor, so the
          terminal's leading channels *are* the member's output, bit for
          bit: the prefix view is the member, not a copy of it.

        Cached in the decoded store, so each map is rebuilt at most once
        per backward pass.
        """
        x = self.stashed_value(decision.source_id)
        tracer = self.tracer
        t0 = perf_counter() if tracer is not None else 0.0
        if decision.choice == CHOICE_RECOMPUTE:
            label = "recompute"
            for chain_id in decision.chain:
                node = self.graph.node(chain_id)
                ctx = _Context(self, node)
                x = node.layer.forward([x], self.params[chain_id], ctx, True)
                x = self.policy.transform_forward(x, node)
        else:
            label = "shared-concat"
            x = x[:, :self.graph.node(node_id).output_shape[1]]
        if tracer is not None:
            tracer.record_decode(self.graph.node(node_id).name, label,
                                 x.nbytes, perf_counter() - t0)
        self._decoded[node_id] = x
        return x

    def _output_buffer(self, node_id: int, shape, dtype) -> np.ndarray:
        """Where ``node_id`` writes its output: its channel prefix of its
        concat chain's buffer, else an exact-size arena rent."""
        link = self._chain_links.get(node_id)
        if link is None:
            return self.arena.rent(shape, dtype)
        head, channels = link
        buf = self._chain_buffers.get(head)
        if buf is None:
            buf = self.arena.rent((shape[0], channels) + tuple(shape[2:]),
                                  dtype)
            self._chain_buffers[head] = buf
        if buf.dtype != dtype:
            return self.arena.rent(shape, dtype)
        return buf[:, :shape[1]]

    def _maybe_stash(self, node: OpNode, y: np.ndarray) -> None:
        encoding = self._encodings.get(node.node_id)
        if encoding is None:
            return
        encoding.bind_arena(self.arena)
        tracer = self.tracer
        t0 = perf_counter() if tracer is not None else 0.0
        encoded = encoding.encode(y)
        if tracer is not None:
            tracer.record_encode(node.name, encoding.name, y.nbytes,
                                 encoding.measure_bytes(encoded),
                                 perf_counter() - t0)
        if self._invariants is not None:
            self._invariants.on_stash_encoded(node, y, encoding)
        self._stash[node.node_id] = (encoding, encoded)

    def backward(self) -> Dict[str, np.ndarray]:
        """Run the backward pass; returns flat parameter gradients."""
        if self.last_logits is None:
            raise RuntimeError("backward() called before forward()")
        if self._clock == self._schedule.num_steps:
            raise RuntimeError(
                "backward() called with no forward(train=True) since the "
                "last backward()")
        grads_out: Dict[int, np.ndarray] = {
            self.graph.output_id: np.ones(1, dtype=np.float32)
        }
        # Node ids whose grads_out entry is an executor-owned accumulation
        # buffer, safe to add into in place.  Layer-returned gradients may
        # be views (or shared between fan-out edges), so the first fan-in
        # join copies into an owned buffer and later joins reuse it.
        owned: set = set()
        param_grads: Dict[str, np.ndarray] = {}
        self._decoded.clear()
        tracer = self.tracer
        for node in reversed(self.graph.nodes):
            if node.node_id == self.graph.input_id:
                continue
            dy = grads_out.pop(node.node_id, None)
            if dy is None:
                # Node not on the loss path (cannot happen for our models,
                # but a disconnected diagnostics op would land here).
                continue
            self._clock = self._schedule.backward_time(node.node_id)
            t0 = perf_counter() if tracer is not None else 0.0
            # The context's saved state has no reader after this op.
            dxs, dparams = node.layer.backward(
                dy, self.params[node.node_id], self._ctx.pop(node.node_id)
            )
            if tracer is not None:
                tracer.record_node(node.name, "backward",
                                   perf_counter() - t0)
            if len(dxs) != len(node.inputs):
                raise RuntimeError(
                    f"{node.name}: backward returned {len(dxs)} gradients "
                    f"for {len(node.inputs)} inputs"
                )
            for input_id, dx in zip(node.inputs, dxs):
                if dx is None:  # input_needs_gradient() said nobody reads it
                    continue
                dx = self.policy.transform_gradient(dx, node)
                prev = grads_out.get(input_id)
                if prev is None:
                    grads_out[input_id] = dx
                elif input_id in owned:
                    np.add(prev, dx, out=prev)
                else:
                    acc = self.arena.rent(
                        prev.shape, np.result_type(prev.dtype, dx.dtype)
                    )
                    np.add(prev, dx, out=acc)
                    grads_out[input_id] = acc
                    owned.add(input_id)
            for pname, grad in dparams.items():
                param_grads[f"{node.name}.{pname}"] = grad
            for nid in self._frees.get(self._clock, ()):
                self._stash.pop(nid, None)
                self._decoded.pop(nid, None)
        self._clock = self._schedule.num_steps
        if tracer is not None:
            tracer.end_step()
        return param_grads

    # ------------------------------------------------------------------
    def predict(self, images: np.ndarray) -> np.ndarray:
        """Inference logits for a batch matching the graph's input shape."""
        dummy = np.zeros(images.shape[0], dtype=np.int64)
        self.forward(images, dummy, train=False)
        assert self.last_logits is not None
        return self.last_logits

