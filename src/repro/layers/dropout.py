"""Inverted dropout.

The saved mask must survive until the backward pass; CNTK stores it as a
full-precision scale array, which is what the baseline memory model
charges.  (A 1-bit mask would itself be a Binarize-style optimisation; see
the ablation benches.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dtypes import FP32
from repro.layers.base import Layer, OpContext, Shape, StateSpec


class Dropout(Layer):
    """Randomly zeroes elements with probability ``p`` during training."""

    kind = "dropout"
    supports_inplace = True

    def __init__(self, p: float = 0.5, seed: int = 0):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        # With p == 0 forward returns its input array unchanged, so the
        # output aliases the producer's buffer exactly like a view.
        self.aliases_input = p == 0.0

    def reset_state(self, rng: Optional[np.random.Generator] = None) -> None:
        """Restart the mask stream, or adopt an externally split ``rng``."""
        if rng is None:
            self._rng = np.random.default_rng(self._seed)
        else:
            self._rng = rng

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        return shape

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        return int(np.prod(output_shape))

    def saved_state_specs(self, input_shapes, output_shape):
        return [StateSpec("mask", tuple(output_shape), FP32)]

    def forward(
        self,
        xs: Sequence[np.ndarray],
        params: Dict[str, np.ndarray],
        ctx: Optional[OpContext],
        train: bool = True,
    ) -> np.ndarray:
        (x,) = xs
        if not train or self.p == 0.0:
            if ctx is not None:
                ctx.save_state("mask", np.ones((1,), dtype=np.float32))
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float32) / keep
        if ctx is not None:
            ctx.save_state("mask", mask)
        return x * mask

    def backward(
        self,
        dy: np.ndarray,
        params: Dict[str, np.ndarray],
        ctx: OpContext,
    ) -> Tuple[List[np.ndarray], Dict[str, np.ndarray]]:
        mask = ctx.get_state("mask")
        if mask.shape == (1,):
            return [dy * mask[0]], {}
        return [dy * mask], {}
