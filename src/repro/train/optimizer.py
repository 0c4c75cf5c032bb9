"""Optimisers for the NumPy training runtime."""

from __future__ import annotations

from typing import Dict

import numpy as np


class SGD:
    """Stochastic gradient descent with momentum.

    Updates parameters *in place* so that long-lived references (e.g.
    batch-norm running-statistics keys) remain valid across steps.
    """

    def __init__(self, lr: float = 0.05, momentum: float = 0.9):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity: Dict[str, np.ndarray] = {}

    def step(self, params: Dict[str, np.ndarray],
             grads: Dict[str, np.ndarray]) -> None:
        """Apply one update; ``grads`` keys must match ``params`` keys."""
        for name, grad in grads.items():
            if name not in params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            p = params[name]
            g = grad
            if self.momentum:
                v = self._velocity.get(name)
                if v is None:
                    v = np.zeros_like(p)
                    self._velocity[name] = v
                v *= self.momentum
                v += g
                g = v
            p -= self.lr * g
