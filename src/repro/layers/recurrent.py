"""Recurrent cells unrolled into the static training graph.

Gist's planner, stash classifier and rewrite passes all operate on a
static DAG, so recurrence is expressed the way Echo (PAPERS.md) treats
it: the cell is *unrolled* by :func:`unroll` — one
:class:`LSTMStep`/:class:`RNNStep` node per timestep — and every step
node shares one weight holder
(:class:`LSTMCell`/:class:`RNNCell`).  The unrolled graph then gets
per-timestep feature maps the existing machinery prices for free:

* each step stashes its inputs (``x_t`` and the previous state), which
  classify as ``STASH_OTHER`` — identity under lossless policies, so
  recurrent training is bit-identical to the baseline there;
* step outputs form long single-consumer chains, exactly the shape on
  which recomputation-based footprint reduction pays off most (Echo's
  headline result);
* weight sharing is physical: every step's ``init_params`` returns the
  *same* ndarrays, so the optimiser's sequential in-place updates on the
  tied arrays sum to the single tied update (momentum is linear), and
  replica parameter installs (which write through ``params[name][...]``)
  keep the tie intact.

Sharing discipline: only the ``t == 0`` step *owns* the parameters for
static accounting (``param_shapes`` of later steps is empty, so liveness
and MFR count the weights once), but every step's runtime ``params``
dict aliases the owner's arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.layers.activation import sigmoid
from repro.layers.base import Layer, Shape

if TYPE_CHECKING:
    from repro.graph.builder import GraphBuilder, NodeRef


class _SharedCell:
    """Weight holder shared by every step node of one unrolled column.

    ``params_for`` caches the drawn arrays keyed on the *identity* of the
    initialisation generator: the executor threads a single generator
    through all nodes' ``init_params`` in topological order, so the
    ``t == 0`` owner draws and every later step receives the same ndarray
    objects (physical tying).  A different executor passes a different
    generator object, which misses the cache and redraws — the cell keeps
    a strong reference to the cached generator, so its identity can never
    be recycled while the cache is alive.
    """

    def __init__(self, input_size: int, hidden_size: int):
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError(
                f"cell sizes must be positive, got input_size={input_size}, "
                f"hidden_size={hidden_size}"
            )
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self._rng: Optional[np.random.Generator] = None
        self._params: Optional[Dict[str, np.ndarray]] = None

    def param_shapes(self) -> Dict[str, Shape]:
        raise NotImplementedError

    def _draw(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def params_for(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """The tied parameter arrays for one executor's init pass."""
        if self._rng is not rng or self._params is None:
            self._params = self._draw(rng)
            self._rng = rng
        return dict(self._params)


class LSTMCell(_SharedCell):
    """Shared LSTM weights: one gate-stacked ``(Wx, Wh, b)`` triple.

    Gate layout along the last axis is ``[i, f, g, o]`` (input, forget,
    cell candidate, output).  The forget-gate bias initialises to 1.0 —
    the standard trick that keeps early gradients flowing through the
    cell state.
    """

    def param_shapes(self) -> Dict[str, Shape]:
        """Gate-stacked shapes: ``Wx (F,4H)``, ``Wh (H,4H)``, ``b (4H,)``."""
        f, h = self.input_size, self.hidden_size
        return {"Wx": (f, 4 * h), "Wh": (h, 4 * h), "b": (4 * h,)}

    def _draw(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        f, h = self.input_size, self.hidden_size
        wx = rng.normal(0.0, 1.0 / np.sqrt(f), (f, 4 * h))
        wh = rng.normal(0.0, 1.0 / np.sqrt(h), (h, 4 * h))
        b = np.zeros(4 * h, dtype=np.float32)
        b[h:2 * h] = 1.0  # forget-gate bias
        return {
            "Wx": wx.astype(np.float32),
            "Wh": wh.astype(np.float32),
            "b": b,
        }


class RNNCell(_SharedCell):
    """Shared vanilla-RNN weights for a ``tanh`` cell."""

    def param_shapes(self) -> Dict[str, Shape]:
        """Single-gate shapes: ``Wx (F,H)``, ``Wh (H,H)``, ``b (H,)``."""
        f, h = self.input_size, self.hidden_size
        return {"Wx": (f, h), "Wh": (h, h), "b": (h,)}

    def _draw(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        f, h = self.input_size, self.hidden_size
        wx = rng.normal(0.0, 1.0 / np.sqrt(f), (f, h))
        wh = rng.normal(0.0, 1.0 / np.sqrt(h), (h, h))
        return {
            "Wx": wx.astype(np.float32),
            "Wh": wh.astype(np.float32),
            "b": np.zeros(h, dtype=np.float32),
        }


class TimeSlice(Layer):
    """Extract timestep ``t`` of a ``(batch, seq_len, features)`` sequence.

    The slice is materialised as a contiguous copy (not a view), so the
    per-timestep map is an ordinary feature map the planner can price
    independently of the full sequence buffer.
    """

    kind = "time_slice"

    def __init__(self, t: int, seq_len: int):
        if not 0 <= t < seq_len:
            raise ValueError(f"t={t} outside sequence of length {seq_len}")
        self.t = int(t)
        self.seq_len = int(seq_len)

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        if len(shape) != 3:
            raise ValueError(
                f"TimeSlice expects (batch, seq_len, features), got {shape}"
            )
        if shape[1] != self.seq_len:
            raise ValueError(
                f"TimeSlice built for seq_len={self.seq_len}, input has "
                f"{shape[1]} timesteps"
            )
        return (shape[0], shape[2])

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        return 0

    def forward(self, xs, params, ctx, train=True):
        (x,) = xs
        return np.ascontiguousarray(x[:, self.t, :])

    def backward(self, dy, params, ctx):
        batch, features = dy.shape
        dx = np.zeros((batch, self.seq_len, features), dtype=dy.dtype)
        dx[:, self.t, :] = dy
        return [dx], {}


class StateSlice(Layer):
    """Extract ``h`` (or ``c``) from an LSTM step's ``[h, c]`` state.

    Step nodes emit the concatenated ``(batch, 2*hidden)`` state so each
    timestep stays a single-output graph node; the head of the network
    reads the hidden half through this op.
    """

    kind = "state_slice"

    def __init__(self, hidden_size: int, part: str = "h"):
        if part not in ("h", "c"):
            raise ValueError(f"part must be 'h' or 'c', got {part!r}")
        self.hidden_size = int(hidden_size)
        self.part = part

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        (shape,) = input_shapes
        if len(shape) != 2 or shape[1] != 2 * self.hidden_size:
            raise ValueError(
                f"StateSlice expects (batch, {2 * self.hidden_size}), "
                f"got {shape}"
            )
        return (shape[0], self.hidden_size)

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        return 0

    def _bounds(self) -> Tuple[int, int]:
        h = self.hidden_size
        return (0, h) if self.part == "h" else (h, 2 * h)

    def forward(self, xs, params, ctx, train=True):
        (state,) = xs
        lo, hi = self._bounds()
        return np.ascontiguousarray(state[:, lo:hi])

    def backward(self, dy, params, ctx):
        lo, hi = self._bounds()
        dstate = np.zeros((dy.shape[0], 2 * self.hidden_size), dtype=dy.dtype)
        dstate[:, lo:hi] = dy
        return [dstate], {}


class _UnrolledStep(Layer):
    """One unrolled timestep over a shared cell: the tie and shape scaffold.

    Inputs: ``[x_t]`` for ``t == 0`` (the initial state is zero), else
    ``[x_t, state_{t-1}]``.  Output: the state the next step reads,
    ``(batch, _state_parts * hidden)``.
    """

    backward_needs_input = True
    _state_parts = 1  # the state's width in multiples of hidden_size

    def __init__(self, cell: _SharedCell, t: int):
        if t < 0:
            raise ValueError(f"{self.kind} timestep must be >= 0, got {t}")
        self._cell = cell
        self.t = int(t)
        self.input_size = cell.input_size
        self.hidden_size = cell.hidden_size

    @property
    def cell(self) -> _SharedCell:
        """The shared weight holder (identity defines the tie group)."""
        return self._cell

    @property
    def owns_params(self) -> bool:
        """Whether this step statically accounts for the tied weights."""
        return self.t == 0

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        expect = 1 if self.t == 0 else 2
        if len(input_shapes) != expect:
            raise ValueError(
                f"{self.kind} t={self.t} expects {expect} input(s), "
                f"got {len(input_shapes)}"
            )
        x = input_shapes[0]
        if len(x) != 2 or x[1] != self.input_size:
            raise ValueError(
                f"{self.kind} input must be (batch, {self.input_size}), "
                f"got {x}"
            )
        state = (x[0], self._state_parts * self.hidden_size)
        if self.t > 0 and input_shapes[1] != state:
            raise ValueError(
                f"{self.kind} state must be {state}, got {input_shapes[1]}"
            )
        return state

    def param_shapes(self, input_shapes: Sequence[Shape]) -> Dict[str, Shape]:
        # Later steps alias the t=0 owner's arrays at runtime; reporting
        # empty shapes here is what makes liveness/MFR count tied weights
        # exactly once.
        return self._cell.param_shapes() if self.owns_params else {}

    def init_params(self, input_shapes, rng) -> Dict[str, np.ndarray]:
        return self._cell.params_for(rng)


class LSTMStep(_UnrolledStep):
    """One unrolled LSTM timestep over a shared :class:`LSTMCell`.

    The state is ``[h_t, c_t]``, ``(batch, 2*hidden)``.  The backward
    pass recomputes the gates from the stashed *inputs* (Echo-style), so
    no gate activations are stashed — per-timestep memory is exactly
    ``x_t`` plus the previous state.
    """

    kind = "lstm_step"
    backward_needs_output = False
    _state_parts = 2

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        batch = output_shape[0]
        f, h = self.input_size, self.hidden_size
        return 2 * batch * 4 * h * (f + h) + 10 * batch * h

    def _split_state(self, state: Optional[np.ndarray], batch: int):
        h = self.hidden_size
        if state is None:
            zeros = np.zeros((batch, h), dtype=np.float32)
            return zeros, zeros
        return state[:, :h], state[:, h:]

    def _gates(self, x, h_prev, params):
        h = self.hidden_size
        z = x @ params["Wx"] + h_prev @ params["Wh"] + params["b"]
        i = sigmoid(z[:, :h])
        f = sigmoid(z[:, h:2 * h])
        g = np.tanh(z[:, 2 * h:3 * h])
        o = sigmoid(z[:, 3 * h:])
        return i, f, g, o

    def forward(self, xs, params, ctx, train=True):
        x = xs[0]
        state = xs[1] if self.t > 0 else None
        h_prev, c_prev = self._split_state(state, x.shape[0])
        i, f, g, o = self._gates(x, h_prev, params)
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        return np.concatenate([h, c], axis=1)

    def backward(self, dy, params, ctx):
        x = ctx.stashed_input(0)
        state = ctx.stashed_input(1) if self.t > 0 else None
        h_prev, c_prev = self._split_state(state, x.shape[0])
        # Recompute the gates from the stashed inputs: the same numpy ops
        # as forward, so the replay is bit-identical.
        i, f, g, o = self._gates(x, h_prev, params)
        c = f * c_prev + i * g
        tc = np.tanh(c)

        hsz = self.hidden_size
        dh, dc_out = dy[:, :hsz], dy[:, hsz:]
        do = dh * tc
        dc = dc_out + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dx = dz @ params["Wx"].T
        dparams = {
            "Wx": x.T @ dz,
            "Wh": h_prev.T @ dz,
            "b": dz.sum(axis=0),
        }
        if self.t == 0:
            return [dx], dparams
        dstate = np.concatenate([dz @ params["Wh"].T, dc * f], axis=1)
        return [dx, dstate], dparams


class RNNStep(_UnrolledStep):
    """One unrolled ``tanh`` RNN timestep over a shared :class:`RNNCell`.

    The state is just ``h_t`` (shape ``(batch, hidden)``), and the
    backward pass reads the stashed output for the ``tanh`` derivative
    plus the stashed inputs for the matmuls.
    """

    kind = "rnn_step"
    backward_needs_output = True

    def flops(self, input_shapes: Sequence[Shape], output_shape: Shape) -> int:
        batch = output_shape[0]
        f, h = self.input_size, self.hidden_size
        return 2 * batch * h * (f + h) + 4 * batch * h

    def forward(self, xs, params, ctx, train=True):
        x = xs[0]
        z = x @ params["Wx"] + params["b"]
        if self.t > 0:
            z = z + xs[1] @ params["Wh"]
        return np.tanh(z)

    def backward(self, dy, params, ctx):
        x = ctx.stashed_input(0)
        y = ctx.stashed_output()
        dz = dy * (1.0 - y * y)
        dx = dz @ params["Wx"].T
        dparams = {
            "Wx": x.T @ dz,
            "Wh": (
                ctx.stashed_input(1).T @ dz if self.t > 0
                else np.zeros_like(params["Wh"])
            ),
            "b": dz.sum(axis=0),
        }
        if self.t == 0:
            return [dx], dparams
        dstate = dz @ params["Wh"].T
        return [dx, dstate], dparams


def unroll(b: "GraphBuilder", cell: _SharedCell, seq_len: int) -> "NodeRef":
    """Unroll ``cell`` over the builder's ``(batch, seq_len, F)`` input.

    Adds ``x{t}`` (:class:`TimeSlice`) and ``step{t}`` (the cell's step
    class) per timestep, then, for an :class:`LSTMCell`, the ``hT``
    :class:`StateSlice`.  Returns the final hidden state.
    """
    step = LSTMStep if isinstance(cell, LSTMCell) else RNNStep
    state = None
    for t in range(seq_len):
        x_t = b.add(TimeSlice(t, seq_len), b.input, name=f"x{t}")
        inputs = [x_t] if state is None else [x_t, state]
        state = b.add(step(cell, t), inputs, name=f"step{t}")
    if step is LSTMStep:
        state = b.add(StateSlice(cell.hidden_size, "h"), state, name="hT")
    return state
