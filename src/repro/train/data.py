"""Synthetic classification datasets (images and sequences).

Substitution record (DESIGN.md §2): the paper trains on ImageNet; NumPy on
CPU cannot.  The accuracy phenomena Figure 12 demonstrates — forward-pass
quantisation error compounding across layers versus backward-only DPR
error being absorbed by SGD — depend on backprop through deep conv stacks,
not on the dataset.  We use a deterministic synthetic task: each class is
a smooth random template; samples are the template plus noise.  It is
learnable (baseline reaches high accuracy in a few epochs) yet non-trivial
(noise forces real feature learning), and fully reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Inputs (N, C, H, W) images or (N, T, F) sequences, float32, plus
    integer labels (N,).

    ``num_classes`` is stored explicitly: inferring it from
    ``labels.max() + 1`` underreports whenever a split happens to miss
    the top class (easy with small random test splits).  When omitted it
    falls back to the inferred value for hand-built datasets.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.num_classes is None:
            inferred = int(self.labels.max()) + 1 if self.labels.size else 0
            object.__setattr__(self, "num_classes", inferred)
        elif self.labels.size and int(self.labels.max()) >= self.num_classes:
            raise ValueError(
                f"label {int(self.labels.max())} out of range for "
                f"{self.num_classes} classes"
            )

    @property
    def num_samples(self) -> int:
        return self.images.shape[0]


#: Coarse noise points per upsampled template axis.
_GRID = 4


def _lerp(coarse: np.ndarray, axis: int, size: int) -> np.ndarray:
    """Upsample ``coarse`` to ``size`` points along ``axis`` (negative)
    by linear interpolation between its grid points."""
    grid = coarse.shape[axis]
    src = np.linspace(0, grid - 1, size)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, grid - 1)
    w = (src - i0).reshape((-1,) + (1,) * (-1 - axis))
    return (np.take(coarse, i0, axis) * (1 - w)
            + np.take(coarse, i1, axis) * w)


def _template_splits(num_samples: int, noise: float, seed: int,
                     coarse_shape: Tuple[int, ...],
                     smooth: Callable[[np.ndarray], np.ndarray],
                     ) -> Tuple[Dataset, Dataset]:
    """(train, test) splits of class template plus Gaussian noise.

    All templates are ``smooth`` of one normal draw of ``coarse_shape``
    (classes first).  Templates, train and test draw from independent
    child streams of ``seed``: drawing the test split from the tail of
    one shared stream made the test data a function of num_samples, so
    "same seed, bigger training set" silently changed the evaluation
    data.  The test split is a quarter of ``num_samples``.
    """
    num_classes = coarse_shape[0]
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    template_seq, train_seq, test_seq = np.random.SeedSequence(seed).spawn(3)
    coarse = np.random.default_rng(template_seq).normal(0.0, 1.0,
                                                         coarse_shape)
    templates = smooth(coarse).astype(np.float32)

    def split(n: int, seq: np.random.SeedSequence) -> Dataset:
        rng = np.random.default_rng(seq)
        # Every class appears at least once (a permutation of all
        # classes, then uniform draws, shuffled together), so the split
        # is usable for num_classes-way evaluation at any size >= classes.
        labels = np.concatenate([
            rng.permutation(num_classes),
            rng.integers(0, num_classes, n - num_classes),
        ])
        labels = rng.permutation(labels)
        samples = templates[labels]
        samples += rng.normal(0.0, noise, samples.shape).astype(np.float32)
        return Dataset(samples, labels.astype(np.int64),
                       num_classes=num_classes)

    return (split(num_samples, train_seq),
            split(max(num_samples // 4, num_classes), test_seq))


def make_synthetic(
    num_samples: int = 512,
    num_classes: int = 4,
    image_size: int = 32,
    channels: int = 3,
    noise: float = 0.6,
    seed: int = 0,
) -> Tuple[Dataset, Dataset]:
    """Build (train, test) splits of the synthetic classification task.

    Each class is a smooth random pattern: coarse noise upsampled
    bilinearly.

    Args:
        num_samples: Training set size; the test split is a quarter of it.
        num_classes: Number of template classes.
        image_size: Square image side.
        channels: Image channels.
        noise: Per-pixel Gaussian noise sigma added to the class template.
        seed: Master seed — everything is deterministic given it.
    """
    return _template_splits(
        num_samples, noise, seed, (num_classes, channels, _GRID, _GRID),
        lambda c: _lerp(_lerp(c, -2, image_size), -1, image_size))


def make_synthetic_sequences(
    num_samples: int = 512,
    num_classes: int = 4,
    seq_len: int = 12,
    input_size: int = 32,
    noise: float = 0.6,
    seed: int = 0,
) -> Tuple[Dataset, Dataset]:
    """Build (train, test) splits of a synthetic sequence task.

    The recurrent analogue of :func:`make_synthetic`: each class is a
    smooth random (T, F) template (coarse noise linearly upsampled along
    time, so class identity is spread across the *whole* sequence and a
    recurrent model must integrate over timesteps), and samples are
    template plus per-element Gaussian noise.  Same child-stream
    discipline: templates/train/test draw from independent streams, so
    the test data does not depend on ``num_samples``.
    """
    return _template_splits(
        num_samples, noise, seed, (num_classes, _GRID, input_size),
        lambda c: _lerp(c, -2, seq_len))


def make_synthetic_for(
    input_shape: Tuple[int, ...],
    num_samples: int = 512,
    num_classes: int = 4,
    noise: float = 0.6,
    seed: int = 0,
) -> Tuple[Dataset, Dataset]:
    """Dispatch on a graph input shape: images for rank 4, sequences for
    rank 3.

    Passes identical arguments through, so rank-4 shapes produce
    byte-identical data to calling :func:`make_synthetic` directly (the
    invariant that keeps pre-existing golden digests stable).
    """
    if len(input_shape) == 4:
        _, channels, size, size_w = input_shape
        if size != size_w:
            raise ValueError(f"non-square image input {input_shape}")
        return make_synthetic(num_samples=num_samples,
                              num_classes=num_classes, image_size=size,
                              channels=channels, noise=noise, seed=seed)
    if len(input_shape) == 3:
        _, seq_len, input_size = input_shape
        return make_synthetic_sequences(num_samples=num_samples,
                                        num_classes=num_classes,
                                        seq_len=seq_len,
                                        input_size=input_size,
                                        noise=noise, seed=seed)
    raise ValueError(f"no synthetic task for rank-{len(input_shape)} "
                     f"input {input_shape}")


def minibatches(
    dataset: Dataset,
    batch_size: int,
    rng: np.random.Generator,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Shuffled minibatch iterator over one epoch; the last, partial
    batch is dropped."""
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if batch_size > dataset.num_samples:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size "
                         f"{dataset.num_samples}")
    order = rng.permutation(dataset.num_samples)
    for start in range(0, dataset.num_samples - batch_size + 1, batch_size):
        idx = order[start : start + batch_size]
        yield dataset.images[idx], dataset.labels[idx]
