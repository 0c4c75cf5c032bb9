"""Unrolled LSTM/RNN sequence classifiers.

The recurrence is unrolled at build time (see ``layers/recurrent.py``):
the rank-3 input ``(batch, seq_len, input_size)`` is split into
per-timestep slices, each fed through a step node sharing one weight
cell, and the final hidden state drives a dense softmax head.  Every
node is an ordinary static-graph op, so stash classification, the
hybrid planner, and the rewrite passes all apply unchanged.
"""

from __future__ import annotations

from repro.graph import Graph, GraphBuilder
from repro.layers import Dense, LSTMCell, RNNCell, SoftmaxCrossEntropy, unroll


def _classifier(name: str, cell_type, batch_size: int, num_classes: int,
                seq_len: int, input_size: int, hidden_size: int) -> Graph:
    """An unrolled ``cell_type`` column whose last hidden state feeds a
    dense softmax head."""
    b = GraphBuilder(name, (batch_size, seq_len, input_size))
    h = unroll(b, cell_type(input_size, hidden_size), seq_len)
    x = b.add(Dense(num_classes), h, name="fc")
    x = b.add(SoftmaxCrossEntropy(), x, name="loss")
    b.mark_output(x)
    return b.build()


def lstm(batch_size: int = 64, num_classes: int = 10, seq_len: int = 12,
         input_size: int = 32, hidden_size: int = 64) -> Graph:
    """Single-layer unrolled LSTM classifier over the last hidden state."""
    return _classifier("lstm", LSTMCell, batch_size, num_classes, seq_len,
                       input_size, hidden_size)


def rnn(batch_size: int = 64, num_classes: int = 10, seq_len: int = 12,
        input_size: int = 32, hidden_size: int = 64) -> Graph:
    """Single-layer unrolled tanh-RNN classifier over the last state."""
    return _classifier("rnn", RNNCell, batch_size, num_classes, seq_len,
                       input_size, hidden_size)
