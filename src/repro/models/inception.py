"""GoogLeNet / Inception-v1 (Szegedy et al., 2015).

Nine inception modules with 1x1 / 3x3 / 5x5 / pool-projection branches.
Auxiliary classifier heads are omitted: they exist only to inject extra
gradient signal and contribute a negligible fraction of feature-map
footprint, which is what this reproduction accounts for.
"""

from __future__ import annotations

from repro.graph import Graph, GraphBuilder
from repro.layers import (
    AvgPool2D,
    Concat,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    SoftmaxCrossEntropy,
)

# Per-module branch channels: (1x1, 3x3 reduce, 3x3, 5x5 reduce, 5x5, pool proj)
_MODULES = {
    "3a": (64, 96, 128, 16, 32, 32),
    "3b": (128, 128, 192, 32, 96, 64),
    "4a": (192, 96, 208, 16, 48, 64),
    "4b": (160, 112, 224, 24, 64, 64),
    "4c": (128, 128, 256, 24, 64, 64),
    "4d": (112, 144, 288, 32, 64, 64),
    "4e": (256, 160, 320, 32, 128, 128),
    "5a": (256, 160, 320, 32, 128, 128),
    "5b": (384, 192, 384, 48, 128, 128),
}


def inception(batch_size: int = 64, num_classes: int = 1000,
              image_size: int = 224) -> Graph:
    """Build GoogLeNet (Inception-v1) for ``image_size`` RGB inputs."""
    b = GraphBuilder("inception", (batch_size, 3, image_size, image_size))

    def conv_block(x, channels, kernel, name, stride=1, pad=0):
        x = b.add(Conv2D(channels, kernel, stride=stride, pad=pad), x,
                  name=f"{name}")
        return b.add(ReLU(), x, name=f"{name}_relu")

    def module(x, name, cfg):
        c1, c3r, c3, c5r, c5, cp = cfg
        b1 = conv_block(x, c1, 1, f"inc{name}_1x1")
        b3 = conv_block(x, c3r, 1, f"inc{name}_3x3r")
        b3 = conv_block(b3, c3, 3, f"inc{name}_3x3", pad=1)
        b5 = conv_block(x, c5r, 1, f"inc{name}_5x5r")
        b5 = conv_block(b5, c5, 5, f"inc{name}_5x5", pad=2)
        bp = b.add(MaxPool2D(3, 1, pad=1), x, name=f"inc{name}_pool")
        bp = conv_block(bp, cp, 1, f"inc{name}_proj")
        return b.add(Concat(), [b1, b3, b5, bp], name=f"inc{name}_out")

    x = conv_block(b.input, 64, 7, "conv1", stride=2, pad=3)
    x = b.add(MaxPool2D(3, 2, pad=1), x, name="pool1")
    x = b.add(LocalResponseNorm(5), x, name="norm1")
    x = conv_block(x, 64, 1, "conv2r")
    x = conv_block(x, 192, 3, "conv2", pad=1)
    x = b.add(LocalResponseNorm(5), x, name="norm2")
    x = b.add(MaxPool2D(3, 2, pad=1), x, name="pool2")
    x = module(x, "3a", _MODULES["3a"])
    x = module(x, "3b", _MODULES["3b"])
    x = b.add(MaxPool2D(3, 2, pad=1), x, name="pool3")
    for name in ("4a", "4b", "4c", "4d", "4e"):
        x = module(x, name, _MODULES[name])
    x = b.add(MaxPool2D(3, 2, pad=1), x, name="pool4")
    x = module(x, "5a", _MODULES["5a"])
    x = module(x, "5b", _MODULES["5b"])
    x = b.add(AvgPool2D(7, 1), x, name="pool5")
    x = b.add(Dropout(0.4), x, name="drop")
    x = b.add(Flatten(), x, name="flatten")
    x = b.add(Dense(num_classes), x, name="fc")
    x = b.add(SoftmaxCrossEntropy(), x, name="loss")
    b.mark_output(x)
    return b.build()
