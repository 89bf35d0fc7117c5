"""Tests for dataset generators, the embedded Iris-2D task, the IDX
reader/writer, normalization, corruption, and batching."""

import struct

import numpy as np
import pytest
from scipy.stats import norm

from etproc import data as data_mod
from etproc import iris_table
from etproc.data import (
    GAUSSIAN_NOISE_SD,
    CorruptionSpec,
    LabeledDataset,
    batch_iterator,
    corrupt,
    gen_two_gaussians,
    load_iris_pca2,
    read_idx,
    write_idx,
    zscore,
)
from etproc.distributions import SeededRng
from etproc.metrics import MixtureOracle


class TestLabeledDataset:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)

    def test_label_range(self):
        with pytest.raises(ValueError, match="labels"):
            LabeledDataset(np.zeros((2, 1)), np.array([0, 5]), 2)


class TestTwoGaussians:
    def test_counts(self):
        ds = gen_two_gaussians(20, SeededRng(seed=0, stream=1))
        assert len(ds) == 40
        assert int((ds.labels == 0).sum()) == 20
        assert int((ds.labels == 1).sum()) == 20

    def test_class_means_large_sample(self):
        ds = gen_two_gaussians(10**5, SeededRng(seed=1, stream=1))
        assert ds.features[ds.labels == 0].mean() == pytest.approx(-1.0, abs=0.01)
        assert ds.features[ds.labels == 1].mean() == pytest.approx(1.0, abs=0.01)

    def test_threshold_classifier_matches_bayes_error(self):
        ds = gen_two_gaussians(5 * 10**4, SeededRng(seed=2, stream=1))
        pred = (ds.features[:, 0] > 0.0).astype(int)
        err = np.mean(pred != ds.labels)
        oracle = MixtureOracle([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        assert abs(err - oracle.bayes_error()) <= 0.01

    def test_n_per_class_validated(self):
        with pytest.raises(ValueError):
            gen_two_gaussians(0, SeededRng(seed=0))


def jacobi_eigh(a, sweeps=50):
    """Brute-force Jacobi rotations for a small symmetric matrix."""
    a = a.copy()
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < 1e-14:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-16:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return np.diag(a), v


class TestIrisPca2:
    def test_shape_and_class_counts(self):
        ds = load_iris_pca2()
        assert ds.features.shape == (150, 2)
        for cls in range(3):
            assert int((ds.labels == cls).sum()) == 50

    def test_zero_column_means(self):
        ds = load_iris_pca2()
        np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-9)

    def test_explained_variance_vs_jacobi_oracle(self):
        ds = load_iris_pca2()
        feats = np.array([r[:4] for r in iris_table.IRIS_ROWS])
        centered = feats - feats.mean(axis=0)
        cov = centered.T @ centered / (len(feats) - 1)
        eigvals, _ = jacobi_eigh(cov)
        top2 = np.sort(eigvals)[::-1][:2]
        projected_var = ds.features.var(axis=0, ddof=1)
        np.testing.assert_allclose(np.sort(projected_var)[::-1], top2, atol=1e-8)

    def test_projection_contracts_distances(self):
        ds = load_iris_pca2()
        feats = np.array([r[:4] for r in iris_table.IRIS_ROWS])
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 150, size=(200, 2))
        orig = np.linalg.norm(feats[idx[:, 0]] - feats[idx[:, 1]], axis=1)
        proj = np.linalg.norm(ds.features[idx[:, 0]] - ds.features[idx[:, 1]], axis=1)
        assert np.all(proj <= orig + 1e-9)

    def test_deterministic(self):
        a = load_iris_pca2()
        b = load_iris_pca2()
        assert np.array_equal(a.features, b.features)

    def test_checksum_guard(self, monkeypatch):
        monkeypatch.setattr(iris_table, "IRIS_SHA256", "0" * 64)
        with pytest.raises(ValueError, match="checksum"):
            load_iris_pca2()


def make_idx_pair(tmp_path, pixels, labels, rows, cols):
    img_path = tmp_path / "images-idx3-ubyte"
    lbl_path = tmp_path / "labels-idx1-ubyte"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, len(labels), rows, cols))
        f.write(bytes(pixels))
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(bytes(labels))
    return img_path, lbl_path


class TestIdx:
    def test_hand_assembled_bytes(self, tmp_path):
        pixels = list(range(9)) + [255 - i for i in range(9)]
        img, lbl = make_idx_pair(tmp_path, pixels, [3, 7], 3, 3)
        ds = read_idx(img, lbl)
        assert ds.features.shape == (2, 9)
        np.testing.assert_allclose(ds.features[0], np.arange(9) / 255.0)
        np.testing.assert_allclose(ds.features[1], (255 - np.arange(9)) / 255.0)
        np.testing.assert_array_equal(ds.labels, [3, 7])

    def test_every_pixel_value_scales_as_float_division(self, tmp_path):
        img, lbl = make_idx_pair(tmp_path, list(range(256)), [0, 1], 16, 8)
        want = np.arange(256, dtype=np.uint8).astype(np.float64).reshape(2, 128) / 255.0
        assert read_idx(img, lbl).features.tobytes() == want.tobytes()

    def test_empty_payload(self, tmp_path):
        img, lbl = make_idx_pair(tmp_path, [], [], 3, 3)
        with pytest.raises(ValueError, match="0 images of 3x3 pixels"):
            read_idx(img, lbl)

    def test_no_pixels(self, tmp_path):
        img, lbl = make_idx_pair(tmp_path, [], [1, 2], 0, 0)
        with pytest.raises(ValueError, match="2 images of 0x0 pixels"):
            read_idx(img, lbl)

    def test_label_out_of_class_range(self, tmp_path):
        img, lbl = make_idx_pair(tmp_path, [0], [255], 1, 1)
        with pytest.raises(ValueError, match="label"):
            read_idx(img, lbl)

    def test_bad_magic_reports_offset(self, tmp_path):
        img, lbl = make_idx_pair(tmp_path, [0], [1], 1, 1)
        blob = bytearray(img.read_bytes())
        blob[0] = 0xFF
        img.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="byte 0"):
            read_idx(img, lbl)

    def test_truncated_payload(self, tmp_path):
        img, lbl = make_idx_pair(tmp_path, [0] * 9, [1], 3, 3)
        img.write_bytes(img.read_bytes()[:-2])
        with pytest.raises(ValueError, match="truncated"):
            read_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        img, _ = make_idx_pair(tmp_path, [0], [1], 1, 1)
        sub = tmp_path / "other"
        sub.mkdir()
        _, lbl = make_idx_pair(sub, [0, 0], [1, 2], 1, 1)
        with pytest.raises(ValueError, match="mismatch"):
            read_idx(img, lbl)

    def test_write_read_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(5, 16)).astype(np.float64) / 255.0
        ds = LabeledDataset(pixels, rng.integers(0, 10, size=5), 10)
        img = tmp_path / "imgs"
        lbl = tmp_path / "lbls"
        write_idx(ds, img, lbl, rows=4, cols=4)
        back = read_idx(img, lbl)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        # writing the reread dataset reproduces the same bytes
        img2 = tmp_path / "imgs2"
        lbl2 = tmp_path / "lbls2"
        write_idx(back, img2, lbl2, rows=4, cols=4)
        assert img.read_bytes() == img2.read_bytes()
        assert lbl.read_bytes() == lbl2.read_bytes()


class TestZscore:
    def test_train_statistics(self):
        rng = np.random.default_rng(2)
        train = LabeledDataset(rng.normal(3.0, 2.0, size=(100, 4)),
                               rng.integers(0, 2, size=100), 2)
        (normed,) = zscore(train)
        np.testing.assert_allclose(normed.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(normed.features.std(axis=0), 1.0, atol=1e-9)

    def test_others_use_train_statistics(self):
        train = LabeledDataset(np.array([[0.0], [2.0]]), np.array([0, 1]), 2)
        other = LabeledDataset(np.array([[4.0]]), np.array([0]), 2)
        normed_train, normed_other = zscore(train, [other])
        np.testing.assert_allclose(normed_train.features[:, 0], [-1.0, 1.0])
        assert normed_other.features[0, 0] == pytest.approx((4.0 - 1.0) / 1.0)

    def test_constant_feature(self):
        train = LabeledDataset(np.array([[5.0, 1.0], [5.0, 3.0]]), np.array([0, 1]), 2)
        (normed,) = zscore(train)
        # the zero-variance column: every entry +0.0, its zero deviation divided by sd 1
        assert normed.features[:, 0].tobytes() == np.zeros(2).tobytes()
        np.testing.assert_allclose(normed.features[:, 1], [-1.0, 1.0])

    def test_empty_train_rejected(self):
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            zscore(empty)

    @pytest.mark.parametrize("n", [1, 2, 7, 1500])
    def test_matches_numpy_expression(self, n):
        """Every output equals ``(x - mean) / where(sd == 0, 1, std)`` of the
        train statistics byte for byte, with constant, all-zero and signed-zero
        columns among the features; the inputs are left as they were."""
        rng = np.random.default_rng(3)
        feats = rng.normal(2.0, 3.0, size=(n, 12))
        feats[:, 0] = 5.0
        feats[:, 1] = 0.0
        feats[:, 2] = -0.0
        feats[::2, 3] = -0.0
        train = LabeledDataset(feats, np.zeros(n, dtype=int), 2)
        others = [LabeledDataset(rng.normal(size=(m, 12)), np.zeros(m, dtype=int), 2)
                  for m in (1, 5)]
        before = [ds.features.copy() for ds in (train, *others)]
        normed = zscore(train, others)
        mean, sd = feats.mean(axis=0), feats.std(axis=0)
        sd = np.where(sd == 0.0, 1.0, sd)
        for ds, out, orig in zip((train, *others), normed, before):
            assert out.features.tobytes() == ((orig - mean) / sd).tobytes()
            assert ds.features.tobytes() == orig.tobytes()


class TestCorrupt:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.ds = LabeledDataset(rng.uniform(0.0, 1.0, size=(500, 16)),
                                 rng.integers(0, 3, size=500), 3)

    def test_severity_zero_identity(self):
        for kind in data_mod.CORRUPTION_KINDS:
            out = corrupt(self.ds, CorruptionSpec(kind, 0), SeededRng(seed=0))
            assert np.array_equal(out.features, self.ds.features)

    def test_gaussian_noise_sd_matches_table(self):
        for s in range(1, 6):
            out = corrupt(self.ds, CorruptionSpec("gaussian-noise", s), SeededRng(seed=s))
            noise = out.features - self.ds.features
            assert noise.std() == pytest.approx(GAUSSIAN_NOISE_SD[s], rel=0.05)

    def test_nondegenerate_at_positive_severity(self):
        for kind in data_mod.CORRUPTION_KINDS:
            for s in range(1, 6):
                out = corrupt(self.ds, CorruptionSpec(kind, s), SeededRng(seed=s))
                assert not np.array_equal(out.features, self.ds.features), (kind, s)

    def test_labels_untouched(self):
        out = corrupt(self.ds, CorruptionSpec("gaussian-noise", 2), SeededRng(seed=0))
        assert np.array_equal(out.labels, self.ds.labels)

    def test_unknown_kind_rejected(self):
        for kind in ("salt", "impulse-noise", "box-blur", "contrast"):
            with pytest.raises(ValueError, match="unknown corruption"):
                CorruptionSpec(kind, 1)

    def test_severity_range(self):
        with pytest.raises(ValueError, match="severity"):
            CorruptionSpec("gaussian-noise", 6)


class TestSplitsAndBatches:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.ds = LabeledDataset(rng.normal(size=(100, 3)),
                                 rng.integers(0, 2, size=100), 2)

    def test_union_is_original_multiset(self):
        batches = list(batch_iterator(self.ds, 32, SeededRng(seed=1, stream=1), epoch=0))
        merged = np.concatenate([xb for xb, _ in batches])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, self.ds.features))
        assert [len(yb) for _, yb in batches] == [32, 32, 32, 4]

    def test_batch_order_deterministic(self):
        def collect():
            return [xb.copy() for xb, _ in
                    batch_iterator(self.ds, 32, SeededRng(seed=3, stream=4), epoch=2)]

        a, b = collect(), collect()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_epochs_reshuffle(self):
        rng = SeededRng(seed=3, stream=4)
        a = next(iter(batch_iterator(self.ds, 32, rng, epoch=0)))[0]
        b = next(iter(batch_iterator(self.ds, 32, rng, epoch=1)))[0]
        assert not np.array_equal(a, b)

    def test_oversized_batch_collapses_to_full(self):
        batches = list(batch_iterator(self.ds, 500, SeededRng(seed=0, stream=1), epoch=0))
        assert len(batches) == 1
        assert len(batches[0][0]) == 100
