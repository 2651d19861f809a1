"""Task generators, dataset plumbing and the tasks a run trains on.

Synthetic tasks produce batches in the (tau, d, B) column-per-sample layout
the networks consume. Image datasets are read from the classic big-endian
IDX pair (images + labels) and kept as the file's bytes; a batch is sliced
into pixel sequences of k pixels per step, optionally through a fixed
permutation, and only its pixels are scaled to [0, 1]. A run trains on a
:class:`SyntheticTask` or a :class:`PixelTask`, which scores held-out data.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .rnn import MSE, SOFTMAX_CE, LabelMismatch

TEMPORAL_ORDER = "temporal-order"
ADDING = "adding"

# Symbol layout for the temporal-order alphabet: four distractors, then the
# two special symbols X_SYM and X_SYM + 1 whose order determines the class.
N_SYMBOLS = 6
X_SYM = 4

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class BadMagic(ValueError):
    """File does not start with the expected IDX magic number."""


class TruncatedFile(ValueError):
    """File ended before the announced payload was read."""


class CountMismatch(ValueError):
    """Image and label files disagree on the number of records."""


class IndivisibleChunk(ValueError):
    """Pixels per step does not divide the image size."""


class BadHeader(ValueError):
    """IDX header announces a non-positive record count or image size."""


@dataclass
class Batch:
    inputs: np.ndarray   # (tau, d, B) float64
    labels: np.ndarray   # (B,) int64 class ids, or (B,) float64 targets


@dataclass
class ImageDataset:
    """Images as the IDX file stores them, one uint8 per pixel (a quarter of
    a float32 copy); :func:`image_batch` scales the pixels of each batch."""

    images: np.ndarray  # (N, H, W) uint8
    labels: np.ndarray  # (N,) int64

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def pixels(self) -> int:
        return self.images.shape[1] * self.images.shape[2]


def gen_temporal_order(T: int, batch: int, rng: np.random.Generator) -> Batch:
    """Order-of-symbols task: two special symbols hide in a noise string.

    Each sample is a length-T string over {a, b, c, d, X, Y}, one-hot in 6
    dims. Positions t1 and t2 (1-based steps, drawn uniformly from
    [T//10, 2T//10] and [4T//10, 5T//10], endpoints included) carry X or Y,
    replacing the noise symbol there; everything else is uniform over the
    four distractors. The class in {0..3} encodes the ordered pair, first
    symbol in the high bit (X then Y gives 1, Y then X gives 2).
    """
    if T < 10:
        raise ValueError(f"need T >= 10, got {T}")
    xs = np.zeros((T, N_SYMBOLS, batch))
    sym = rng.integers(0, 4, size=(T, batch))
    cols = np.arange(batch)
    xs[np.arange(T)[:, None], sym, cols[None, :]] = 1.0
    t1 = rng.integers(T // 10, 2 * T // 10 + 1, size=batch)
    t2 = rng.integers(4 * T // 10, 5 * T // 10 + 1, size=batch)
    first = rng.integers(0, 2, size=batch)
    second = rng.integers(0, 2, size=batch)
    for pos, which in ((t1, first), (t2, second)):
        xs[pos - 1, :, cols] = 0.0
        xs[pos - 1, X_SYM + which, cols] = 1.0
    labels = (2 * first + second).astype(np.int64)
    return Batch(inputs=xs, labels=labels)


def gen_adding(T: int, batch: int, rng: np.random.Generator) -> Batch:
    """Add two marked numbers from a random stream.

    Channel 0 holds T uniform [0, 1) values, channel 1 is zero except for
    ones at the two marker steps t1 (1-based, uniform on [1, T//10]) and t2
    (uniform on [T//10, T//2], resampled while it collides with t1). The
    target is the mean of the two marked values.
    """
    if T < 10:
        raise ValueError(f"need T >= 10, got {T}")
    vals = rng.random((T, batch))
    t1 = rng.integers(1, T // 10 + 1, size=batch)
    t2 = rng.integers(T // 10, T // 2 + 1, size=batch)
    clash = t2 == t1
    while np.any(clash):
        t2[clash] = rng.integers(T // 10, T // 2 + 1, size=int(clash.sum()))
        clash = t2 == t1
    xs = np.zeros((T, 2, batch))
    xs[:, 0, :] = vals
    cols = np.arange(batch)
    xs[t1 - 1, 1, cols] = 1.0
    xs[t2 - 1, 1, cols] = 1.0
    labels = 0.5 * (vals[t1 - 1, cols] + vals[t2 - 1, cols])
    return Batch(inputs=xs, labels=labels)


def classification_accuracy(y_hat: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of columns whose argmax matches the label."""
    return float(np.mean(np.argmax(y_hat, axis=0) == labels))


def adding_accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of predictions with squared error strictly below 0.04."""
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    return float(np.mean((predictions - targets) ** 2 < 0.04))


def _read_exact(f, nbytes: int, path) -> bytes:
    """The next nbytes of f, checked against the file's size before a read
    is sized by them: a header claiming more than the file holds raises
    TruncatedFile, not MemoryError."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left < nbytes:
        raise TruncatedFile(f"{path}: wanted {nbytes} bytes, got {left}")
    return f.read(nbytes)


def _read_header(f, path, fmt: str) -> tuple[int, ...]:
    """The header's magic and its sizes, each of which must be positive."""
    magic, *sizes = struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), path))
    if min(sizes) < 1:
        raise BadHeader(f"{path}: header sizes {sizes} must all be positive")
    return magic, *sizes


def load_labels(path) -> np.ndarray:
    """The class ids in an IDX labels file, as int64."""
    with open(path, "rb") as f:
        magic, n = _read_header(f, path, ">ii")
        if magic != LABELS_MAGIC:
            raise BadMagic(f"{path}: magic {magic:#010x}, expected {LABELS_MAGIC:#010x}")
        raw = _read_exact(f, n, path)
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_idx(images_path, labels) -> ImageDataset:
    """Read an IDX image/label pair; the images are a read-only uint8 view
    of the file's pixel bytes, with no float copy. ``labels`` is the labels
    file, or the ids :func:`load_labels` already read from it."""
    with open(images_path, "rb") as f:
        magic, n, h, w = _read_header(f, images_path, ">iiii")
        if magic != IMAGES_MAGIC:
            raise BadMagic(f"{images_path}: magic {magic:#010x}, expected {IMAGES_MAGIC:#010x}")
        raw = _read_exact(f, n * h * w, images_path)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, h, w)
    if not isinstance(labels, np.ndarray):
        labels = load_labels(labels)
    if n != labels.size:
        raise CountMismatch(f"{n} images but {labels.size} labels")
    return ImageDataset(images=images, labels=labels)


def fixed_permutation(seed: int, n: int = 784) -> np.ndarray:
    """Deterministic Fisher-Yates shuffle of range(n)."""
    rng = np.random.default_rng(seed)
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    assert np.array_equal(np.sort(perm), np.arange(n)), "permutation not bijective"
    return perm


# Pixel value v scales to float32(v) / 255, correctly rounded in float32, then
# widened: the bits of a batch taken from a float32 image store.
_PIXEL_SCALE = (np.arange(256, dtype=np.float32) / np.float32(255)).astype(np.float64)


def image_batch(
    dataset: ImageDataset,
    indices: np.ndarray,
    k: int,
    permutation: np.ndarray | None = None,
) -> Batch:
    """Assemble a (tau, k, B) batch of pixel sequences for the given rows.

    Column b is the row-major pixel scan of image indices[b], reordered by
    the permutation when one is given, chunked into tau = H*W / k steps of
    k pixels. One gather takes the pixels in sequence order, the
    permutation as its column index, and one table lookup scales them to
    float64 in [0, 1]."""
    indices = np.asarray(indices)
    npix = dataset.pixels
    if npix % k != 0:
        raise IndivisibleChunk(f"{k} pixels per step does not divide {npix}")
    order = np.arange(npix) if permutation is None else np.asarray(permutation)
    pixels = dataset.images.reshape(dataset.n, npix)[indices[None, :], order[:, None]]
    inputs = _PIXEL_SCALE[pixels].reshape(npix // k, k, len(indices))
    return Batch(inputs=inputs, labels=dataset.labels[indices])


class SyntheticTask:
    """Temporal order or adding at length T: every batch, held-out ones
    too, is drawn fresh from the rng it is given."""

    has_test_split = False

    def __init__(self, name: str, T: int, batch: int):
        if name not in (TEMPORAL_ORDER, ADDING):
            raise ValueError(f"unknown task {name!r}, expected {TEMPORAL_ORDER!r} or {ADDING!r}")
        self.name, self.T, self.batch = name, T, batch
        self.d, self.n_out, self.output_kind = (
            (N_SYMBOLS, 4, SOFTMAX_CE) if name == TEMPORAL_ORDER else (2, 1, MSE))

    def sample(self, rng) -> Batch:
        gen = gen_temporal_order if self.name == TEMPORAL_ORDER else gen_adding
        return gen(self.T, self.batch, rng)

    def accuracy(self, y_hat, labels) -> float:
        score = classification_accuracy if self.name == TEMPORAL_ORDER else adding_accuracy
        return score(y_hat, labels)

    def held_out_accuracy(self, predict, n_batches: int, rng) -> float:
        """Mean accuracy of ``predict(inputs) -> y_hat`` over n_batches
        fresh batches from ``rng``, one for n_batches = 0."""
        batches = (self.sample(rng) for _ in range(n_batches or 1))
        return float(np.mean([self.accuracy(predict(b.inputs), b.labels) for b in batches]))


class PixelTask:
    """Training images in epochs: ``_order`` is the epoch's shuffle of the
    rows and ``_cursor`` the first row not yet taken. :meth:`sample` draws
    the next shuffle from its rng when less than a batch is left over."""

    has_test_split = True

    def __init__(self, train: ImageDataset, test_paths, batch: int, k: int,
                 permutation: np.ndarray | None = None):
        self.train, self._test_paths = train, tuple(test_paths)
        self.batch, self.d, self.permutation = batch, k, permutation
        self.n_out = int(train.labels.max()) + 1
        self.output_kind = SOFTMAX_CE
        self._order, self._cursor = np.arange(0), 0  # no epoch drawn yet
        # checked at build, before a run spends iterations on a split it cannot score
        self._test_labels = load_labels(self._test_paths[1])
        if self._test_labels.max(initial=0) >= self.n_out:
            raise LabelMismatch(f"{self._test_paths[1]}: label {self._test_labels.max()} "
                                f"outside the training split's {self.n_out} classes")

    @functools.cached_property
    def test(self) -> ImageDataset:
        """The t10k split; its images are read on first use, so a run that
        never evaluates never holds them."""
        return load_idx(self._test_paths[0], self._test_labels)

    def sample(self, rng) -> Batch:
        if self._cursor + self.batch > self._order.size:
            self._order, self._cursor = rng.permutation(self.train.n), 0
        rows = self._order[self._cursor:self._cursor + self.batch]
        self._cursor += self.batch
        return image_batch(self.train, rows, self.d, self.permutation)

    accuracy = staticmethod(classification_accuracy)

    def held_out_accuracy(self, predict, n_batches: int, rng=None) -> float:
        """Accuracy of ``predict(inputs) -> y_hat`` on the test split, in
        slices of 250 images: the first n_batches, or all of it for
        n_batches = 0. ``rng`` is unread."""
        n = self.test.n if n_batches == 0 else min(self.test.n, 250 * n_batches)
        correct = 0
        for start in range(0, n, 250):
            b = image_batch(self.test, np.arange(start, min(start + 250, n)), self.d,
                            self.permutation)
            correct += int(np.sum(np.argmax(predict(b.inputs), axis=0) == b.labels))
        return correct / n
