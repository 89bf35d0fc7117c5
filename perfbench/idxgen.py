"""Seeded synthetic 28x28, 10-class image set in the IDX layout that the
``fmnist-vs-mnist`` task reads.

Each in-domain class is a blocky prototype (a 7x7 grid of grey levels
upsampled to 28x28) plus clipped pixel noise, so the classes are
separable. The OOD split is shifted: each of its prototypes lies halfway
between an in-domain prototype and a fresh random one, so an entropy
score separates it from the in-domain test split only partly and AUROC
stays informative (roughly 75-95 % after two epochs). Files are written
only through ``etproc.data.write_idx``.
"""

from __future__ import annotations

import os

import numpy as np

SIDE = 28
BLOCK = 4
NUM_CLASSES = 10
NOISE_SD = 1.0


def _prototypes(rng):
    grid = rng.uniform(0.0, 1.0, size=(NUM_CLASSES, SIDE // BLOCK, SIDE // BLOCK))
    return np.stack([np.kron(g, np.ones((BLOCK, BLOCK))) for g in grid]).reshape(
        NUM_CLASSES, SIDE * SIDE)


def _images(rng, protos, n):
    labels = rng.integers(0, NUM_CLASSES, size=n)
    pixels = protos[labels] + NOISE_SD * rng.normal(size=(n, SIDE * SIDE))
    return np.clip(pixels, 0.0, 1.0), labels


def write_idx_set(data_dir, seed, n, data_mod, paths):
    """Write in-domain train/test and OOD test splits of ``n`` images each.

    ``paths`` maps the task's file keys (``harness.fmnist_mnist_paths``)
    to file names under ``data_dir``.
    """
    rng = np.random.default_rng([seed, 28])
    in_protos = _prototypes(rng)
    ood_protos = 0.5 * (in_protos + _prototypes(rng))
    splits = {
        "fmnist_train": _images(rng, in_protos, n),
        "fmnist_test": _images(rng, in_protos, n),
        "mnist_test": _images(rng, ood_protos, n),
    }
    for sub in ("fmnist", "mnist"):
        os.makedirs(os.path.join(data_dir, sub), exist_ok=True)
    for key, (pixels, labels) in splits.items():
        ds = data_mod.LabeledDataset(pixels, labels, NUM_CLASSES)
        data_mod.write_idx(ds, paths[f"{key}_images"], paths[f"{key}_labels"], SIDE, SIDE)
