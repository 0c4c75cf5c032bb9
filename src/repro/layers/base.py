"""Layer abstraction shared by the static analyser and the runtime executor.

A :class:`Layer` plays two roles:

1. **Static metadata provider** for the memory planner and performance
   model: output-shape inference, parameter shapes, FLOP counts, workspace
   size, and — crucially for Gist — a declaration of which of its forward
   tensors the backward pass reads (``backward_needs_input`` /
   ``backward_needs_output`` / ``saved_state_specs``).  This is the
   information in Figure 4 of the paper: ReLU's backward needs only its
   output ``Y``; convolution's backward needs its input ``X``; max-pool's
   backward can be rewritten to need only a compact argmax map.

2. **Runtime kernel** for the NumPy executor: ``forward``/``backward``
   implementations used by the training experiments (Figures 12 and 14).

Keeping both roles on one object guarantees the graph the allocator reasons
about is exactly the graph the executor runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dtypes import DType

Shape = Tuple[int, ...]


@dataclass(frozen=True)
class StateSpec:
    """A small per-layer tensor saved from forward for backward.

    Examples: batch-norm batch statistics, dropout masks, max-pool argmax
    maps.  These are *not* feature maps (no Gist encoding applies), but they
    occupy memory between the forward and backward pass and so must appear
    in the liveness table.
    """

    key: str
    shape: Shape
    dtype: DType


class OpContext(abc.ABC):
    """Per-op bridge between a layer's forward and backward executions.

    The executor provides the concrete implementation; stashed feature maps
    routed through :meth:`stashed_input` / :meth:`stashed_output` pass
    through the active Gist encoding (encode after forward, decode on
    access), which is how lossy DPR error reaches the backward pass in the
    accuracy experiments.
    """

    @abc.abstractmethod
    def save_state(self, key: str, value: np.ndarray) -> None:
        """Save a small non-feature-map tensor for the backward pass."""

    @abc.abstractmethod
    def get_state(self, key: str) -> np.ndarray:
        """Retrieve a tensor saved with :meth:`save_state`."""

    @abc.abstractmethod
    def stashed_input(self, index: int = 0) -> np.ndarray:
        """The layer's forward input, decoded from its stashed encoding."""

    @abc.abstractmethod
    def stashed_output(self) -> np.ndarray:
        """The layer's forward output, decoded from its stashed encoding."""

    def stashed_input_lossless(self, index: int = 0) -> bool:
        """Whether the stashed input decodes bit-exactly.

        Layers may use this to reuse forward-pass intermediates in the
        backward pass (e.g. conv's im2col columns): when the stash round
        trip is exact, recomputing from the decoded stash would reproduce
        the same bits, so the cached copy is equivalent.  The default is
        conservative — contexts that don't track encodings report False.
        """
        return False

    def output_buffer(self, shape: Shape, dtype) -> np.ndarray:
        """An uninitialised array for the layer to write its output into.

        Standalone contexts get a fresh array; the executor's hand a
        concat chain link its channel prefix of the chain's one buffer
        and every other caller an arena rent.
        """
        return np.empty(shape, dtype)

    def input_needs_gradient(self, index: int = 0) -> bool:
        """Whether anything reads the gradient of input ``index``.

        The executor answers ``False`` for the graph's data input, and a
        layer may then return ``None`` in that slot instead of computing
        it; standalone contexts want every gradient.
        """
        return True


class Layer(abc.ABC):
    """Base class for all operators in the execution graph."""

    #: Short operator kind used by the Gist schedule builder to classify
    #: layer pairs, e.g. ``"conv"``, ``"relu"``, ``"maxpool"``.
    kind: str = "op"

    #: Whether the backward pass reads the layer's forward *input* X.
    backward_needs_input: bool = False
    #: Whether the backward pass reads the layer's forward *output* Y.
    backward_needs_output: bool = False

    # ------------------------------------------------------------------
    # Static metadata
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        """Output shape given input shapes (NCHW for spatial tensors)."""

    def param_shapes(self, input_shapes: Sequence[Shape]) -> Dict[str, Shape]:
        """Learnable parameter shapes, keyed by parameter name."""
        return {}

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        """Forward-pass floating point operations (multiply-adds count 2)."""
        return 0

    def saved_state_specs(
        self, input_shapes: Sequence[Shape], output_shape: Shape
    ) -> List[StateSpec]:
        """Small saved tensors beyond the input/output feature maps."""
        return []

    def workspace_bytes(
        self, input_shapes: Sequence[Shape], output_shape: Shape
    ) -> int:
        """Scratch bytes the op needs while executing (cuDNN 'workspace')."""
        return 0

    def reset_state(
        self, rng: Optional["np.random.Generator"] = None
    ) -> None:
        """Reset mutable per-run layer state (RNG streams and the like).

        Most layers are pure functions of ``(inputs, params)`` and ignore
        this.  Stateful layers (Dropout's mask stream) must override it:
        with ``rng=None`` they restart from their construction seed, so a
        fresh executor on an already-used graph behaves exactly like one
        on a freshly built graph; with a generator they adopt it, which is
        how data-parallel replicas install independent
        ``SeedSequence``-derived streams per (step, shard).
        """

    #: Layers with a read-once/write-once element mapping could compute
    #: their output in the input's buffer (the paper's inplace
    #: optimisation).  The plan prices that: ``GistConfig.inplace`` merges
    #: the pair's allocations.  The executor always runs :meth:`forward`.
    supports_inplace: bool = False

    # ------------------------------------------------------------------
    # Runtime kernels
    # ------------------------------------------------------------------
    def init_params(
        self, input_shapes: Sequence[Shape], rng: np.random.Generator
    ) -> Dict[str, np.ndarray]:
        """Initialise learnable parameters (He/Glorot as appropriate)."""
        return {}

    @abc.abstractmethod
    def forward(
        self,
        xs: Sequence[np.ndarray],
        params: Dict[str, np.ndarray],
        ctx: Optional[OpContext],
        train: bool = True,
    ) -> np.ndarray:
        """Compute the forward pass.

        Args:
            xs: Input arrays (most layers take exactly one).
            params: Learnable parameters from :meth:`init_params`.
            ctx: Stash context, or ``None`` for stateless inference.
            train: Whether we are in training mode (affects dropout, BN).
        """

    def backward(
        self,
        dy: np.ndarray,
        params: Dict[str, np.ndarray],
        ctx: OpContext,
    ) -> Tuple[List[np.ndarray], Dict[str, np.ndarray]]:
        """Compute input gradients and parameter gradients.

        Args:
            dy: Gradient of the loss with respect to this layer's output.
            params: Learnable parameters.
            ctx: The context populated during :meth:`forward`.

        Returns:
            ``(dxs, dparams)`` — one gradient per input (``None`` is
            allowed where ``ctx.input_needs_gradient`` is false), and a
            dict of parameter gradients matching :meth:`param_shapes`.
        """
        raise NotImplementedError(f"{type(self).__name__} has no backward pass")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(kind={self.kind!r})"


class InputLayer(Layer):
    """Placeholder op that sources the minibatch into the graph."""

    kind = "input"

    def __init__(self, shape: Shape):
        if any(d <= 0 for d in shape):
            raise ValueError(f"input shape must be positive, got {shape}")
        self.shape = tuple(shape)

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        if input_shapes:
            raise ValueError("InputLayer takes no inputs")
        return self.shape

    def forward(self, xs, params, ctx, train=True):
        raise RuntimeError("InputLayer is fed by the executor, not executed")
