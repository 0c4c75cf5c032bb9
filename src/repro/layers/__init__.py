"""NumPy layer library: the cuDNN substitute.

Every operator carries both static metadata (shapes, FLOPs, which forward
tensors its backward pass reads — the paper's Figure 4) and runtime
forward/backward kernels used by the training experiments.
"""

from repro.layers.activation import ReLU, Sigmoid, Tanh
from repro.layers.base import InputLayer, Layer, OpContext, StateSpec
from repro.layers.conv import Conv2D
from repro.layers.dense import Dense
from repro.layers.dropout import Dropout
from repro.layers.loss import SoftmaxCrossEntropy
from repro.layers.merge import Add, Concat
from repro.layers.norm import BatchNorm2D, LocalResponseNorm
from repro.layers.pool import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from repro.layers.recurrent import (
    LSTMCell,
    LSTMStep,
    RNNCell,
    RNNStep,
    StateSlice,
    TimeSlice,
    unroll,
)
from repro.layers.reshape import Flatten

__all__ = [
    "Add",
    "AvgPool2D",
    "BatchNorm2D",
    "Concat",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2D",
    "InputLayer",
    "LSTMCell",
    "LSTMStep",
    "Layer",
    "LocalResponseNorm",
    "MaxPool2D",
    "OpContext",
    "ReLU",
    "RNNCell",
    "RNNStep",
    "Sigmoid",
    "SoftmaxCrossEntropy",
    "StateSlice",
    "StateSpec",
    "Tanh",
    "TimeSlice",
    "unroll",
]
