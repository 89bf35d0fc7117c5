"""Datasets: synthetic two-Gaussian task, Iris on two principal
components, IDX binary reader/writer, z-scoring, feature corruption,
and deterministic shuffled minibatches.

The two-Gaussian task's exact oracle is
``metrics.MixtureOracle([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import iris_table
from .distributions import SeededRng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# the noise sd by severity (index 0 = identity)
GAUSSIAN_NOISE_SD = (0.0, 0.25, 0.5, 1.0, 1.5, 2.5)

CORRUPTION_KINDS = ("gaussian-noise",)


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # (N, D)
    labels: np.ndarray    # (N,)
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features/labels shape mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of [0, K)")

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind: {self.kind}")
        if not 0 <= self.severity <= 5:
            raise ValueError(f"severity must be in 0..5, got {self.severity}")


# ---------------------------------------------------------------------------
# generators / loaders


def gen_two_gaussians(n_per_class: int, rng: SeededRng) -> LabeledDataset:
    """1-D two-class task: N(-1, 1) vs N(+1, 1), equal priors."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    x0 = rng.normal(size=n_per_class) - 1.0
    x1 = rng.normal(size=n_per_class) + 1.0
    feats = np.concatenate([x0, x1])[:, None]
    labels = np.concatenate([np.zeros(n_per_class, int), np.ones(n_per_class, int)])
    return LabeledDataset(feats, labels, num_classes=2)


def _iris_arrays():
    rows = iris_table.IRIS_ROWS
    feats = np.array([r[:4] for r in rows], dtype=np.float64)
    labels = np.array([r[4] for r in rows], dtype=np.int64)
    blob = feats.astype(">f8").tobytes() + labels.astype(np.uint8).tobytes()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != iris_table.IRIS_SHA256:
        raise ValueError(f"embedded Iris table checksum mismatch: {digest}")
    return feats, labels


def load_iris_pca2() -> LabeledDataset:
    """Iris projected onto its top-2 principal components.

    Mean-centered; eigenvectors of the sample covariance, each flipped so
    its largest-magnitude component is positive (deterministic sign).
    """
    feats, labels = _iris_arrays()
    centered = feats - feats.mean(axis=0)
    cov = centered.T @ centered / (len(feats) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    basis = eigvecs[:, order]
    for j in range(basis.shape[1]):
        lead = np.argmax(np.abs(basis[:, j]))
        if basis[lead, j] < 0:
            basis[:, j] = -basis[:, j]
    projected = centered @ basis
    return LabeledDataset(projected, labels, num_classes=3)


def read_idx(images_path, labels_path, num_classes: int = 10) -> LabeledDataset:
    """Parse a paired big-endian IDX image/label file set.

    Pixel bytes are scaled to [0, 1]; image and label counts must agree,
    and the set must hold at least one image of at least one pixel.
    """
    with open(images_path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise ValueError(f"truncated IDX image header at byte {len(blob)}")
    magic, n, rows, cols = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise ValueError(f"bad image magic 0x{magic:08x} at byte 0")
    if n == 0 or rows * cols == 0:
        raise ValueError(f"IDX image file holds {n} images of {rows}x{cols} pixels, "
                         f"no data to read")
    expected = 16 + n * rows * cols
    if len(blob) != expected:
        raise ValueError(f"truncated image payload: have {len(blob)} bytes, want {expected}")
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16).reshape(n, rows * cols)

    with open(labels_path, "rb") as f:
        lblob = f.read()
    if len(lblob) < 8:
        raise ValueError(f"truncated IDX label header at byte {len(lblob)}")
    lmagic, ln = struct.unpack(">II", lblob[:8])
    if lmagic != IDX_LABELS_MAGIC:
        raise ValueError(f"bad label magic 0x{lmagic:08x} at byte 0")
    if len(lblob) != 8 + ln:
        raise ValueError(f"truncated label payload: have {len(lblob)} bytes, want {8 + ln}")
    labels = np.frombuffer(lblob, dtype=np.uint8, offset=8).astype(np.int64)
    if n != ln:
        raise ValueError(f"image/label count mismatch: {n} vs {ln}")
    if len(labels) and labels.max() >= num_classes:
        raise ValueError(f"label {labels.max()} outside [0, {num_classes})")
    return LabeledDataset(np.divide(pixels, 255.0, dtype=np.float64), labels, num_classes)


def write_idx(ds: LabeledDataset, images_path, labels_path, rows: int, cols: int):
    """Inverse of read_idx; features must be in [0, 1] on a rows*cols grid."""
    n = len(ds)
    if ds.features.shape[1] != rows * cols:
        raise ValueError("feature dimension does not match rows*cols")
    pixels = np.round(ds.features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(ds.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# transforms


def zscore(train: LabeledDataset, others=()):
    """Normalize with train statistics only; zero-variance features get sd 1.
    Returns the normalized datasets, train first.

    The sd is ``np.std``'s arithmetic on the centred train copy, which is
    then divided in place into the train output; each other split takes one
    new array. Outputs equal ``(x - mean) / sd`` bit for bit."""
    if len(train) == 0:
        raise ValueError("empty training set")
    mean = train.features.mean(axis=0)
    centred = train.features - mean
    sd = np.sqrt(np.add.reduce(np.square(centred), axis=0) / len(train))
    sd[sd == 0.0] = 1.0

    def apply(ds):
        out = ds.features - mean
        out /= sd
        return replace(ds, features=out)

    centred /= sd
    return [replace(train, features=centred)] + [apply(ds) for ds in others]


def corrupt(ds: LabeledDataset, spec: CorruptionSpec, rng: SeededRng) -> LabeledDataset:
    """Add Gaussian feature noise of the severity's sd (``GAUSSIAN_NOISE_SD``);
    severity 0 draws nothing and copies. Labels untouched."""
    x, s = ds.features, spec.severity
    out = x + GAUSSIAN_NOISE_SD[s] * rng.normal(size=x.shape) if s else x.copy()
    return LabeledDataset(out, ds.labels.copy(), ds.num_classes)


def batch_iterator(ds: LabeledDataset, batch_size: int, rng: SeededRng, epoch: int):
    """Per-epoch reshuffled minibatches from an epoch-indexed RNG stream."""
    n = len(ds)
    if batch_size > n:
        batch_size = n  # single full batch
    epoch_rng = SeededRng(seed=rng.seed, stream=1_000_000 + rng.stream * 100003 + epoch)
    perm = epoch_rng.permutation(n)
    for lo in range(0, n, batch_size):
        idx = perm[lo : lo + batch_size]
        yield ds.features[idx], ds.labels[idx]
