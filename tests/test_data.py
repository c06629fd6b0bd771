import struct

import numpy as np
import pytest

from gradgate import storage
from gradgate.data import (
    Dataset,
    IdxCountError,
    IdxDimensionError,
    IdxMagicError,
    gen_glyphs,
    gen_ood,
    load_dataset,
    load_idx,
    save_dataset,
    split,
)


class TestGlyphs:
    def test_deterministic(self):
        a = gen_glyphs(100, seed=5)
        b = gen_glyphs(100, seed=5)
        assert a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_class_balance(self):
        ds = gen_glyphs(1000, seed=1)
        counts = np.bincount(ds.labels, minlength=10)
        assert np.array_equal(counts, np.full(10, 100))

    def test_pixel_range(self):
        ds = gen_glyphs(200, seed=2)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_shape_and_tag(self):
        ds = gen_glyphs(30, seed=3)
        assert ds.images.shape == (30, 1, 16, 16)
        assert ds.source_tag == "glyphs"

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            gen_glyphs(0, seed=0)

    def test_classes_are_visually_distinct(self):
        # mean images of different classes should differ substantially
        ds = gen_glyphs(500, seed=4)
        means = np.stack([ds.images[ds.labels == c, 0].mean(axis=0) for c in range(10)])
        for a in range(10):
            for b in range(a + 1, 10):
                assert np.abs(means[a] - means[b]).sum() > 2.0


class TestOod:
    def test_uniform_mean_near_half(self):
        ds = gen_ood("uniform-noise", 40, seed=0)
        assert abs(ds.images.mean() - 0.5) < 0.02

    def test_labels_are_sentinel(self):
        for kind in ("uniform-noise", "gaussian-noise", "textures"):
            ds = gen_ood(kind, 10, seed=1)
            assert np.all(ds.labels == -1)

    def test_textures_deterministic(self):
        a = gen_ood("textures", 25, seed=7)
        b = gen_ood("textures", 25, seed=7)
        assert a.images.tobytes() == b.images.tobytes()

    def test_gaussian_clipped(self):
        ds = gen_ood("gaussian-noise", 50, seed=3)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_ood("lava-lamps", 5, seed=0)


def write_idx_fixture(tmp_path, pixels, labels):
    """Build IDX bytes by hand from the big-endian layout."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img_path = tmp_path / "images.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(pixels.tobytes())
    lbl_path = tmp_path / "labels.idx"
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return img_path, lbl_path


class TestIdx:
    def test_two_image_fixture(self, tmp_path):
        pixels = np.zeros((2, 3, 2), dtype=np.uint8)
        pixels[0, 0, 0] = 255
        pixels[1, 2, 1] = 128
        img, lbl = write_idx_fixture(tmp_path, pixels, [7, 1])
        ds = load_idx(img, lbl)
        assert ds.images.shape == (2, 1, 3, 2)
        assert np.array_equal(ds.labels, [7, 1])
        assert ds.images[0, 0, 0, 0] == 1.0  # 255 scales to exactly 1.0
        assert ds.images[1, 0, 2, 1] == 128 / 255

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        blob = bytearray(img.read_bytes())
        blob[3] = 0x99
        img.write_bytes(bytes(blob))
        with pytest.raises(IdxMagicError):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        with open(lbl, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 1))
            fh.write(bytes([0]))
        with pytest.raises(IdxCountError):
            load_idx(img, lbl)

    def test_dimension_mismatch(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(IdxDimensionError):
            load_idx(img, lbl)


class TestSplit:
    def test_40_40_20_sizes(self):
        ds = gen_glyphs(100, seed=0)
        parts = split(ds, (0.4, 0.4, 0.2), seed=1)
        assert [len(p) for p in parts] == [40, 40, 20]

    def test_union_is_original_multiset(self):
        ds = gen_glyphs(97, seed=2)
        parts = split(ds, (0.4, 0.4, 0.2), seed=3)
        merged = np.concatenate([p.images.reshape(len(p), -1) for p in parts])
        original = ds.images.reshape(len(ds), -1)
        assert sorted(map(tuple, merged)) == sorted(map(tuple, original))
        assert sum(len(p) for p in parts) == 97

    def test_stratification_within_one_sample(self):
        ds = gen_glyphs(130, seed=4)
        parts = split(ds, (0.4, 0.4, 0.2), seed=5)
        for frac, part in zip((0.4, 0.4, 0.2), parts):
            for c in range(10):
                share = (part.labels == c).sum()
                assert abs(share - frac * 13) < 1.0 + 1e-9

    def test_deterministic(self):
        ds = gen_glyphs(60, seed=6)
        a = split(ds, (0.5, 0.5), seed=7)
        b = split(ds, (0.5, 0.5), seed=7)
        for pa, pb in zip(a, b):
            assert pa.images.tobytes() == pb.images.tobytes()

    def test_bad_fractions(self):
        ds = gen_glyphs(10, seed=0)
        with pytest.raises(ValueError):
            split(ds, (0.5, 0.4), seed=0)

    def test_empty_part_rejected(self):
        ds = gen_glyphs(3, seed=0)
        with pytest.raises(ValueError):
            split(ds, (0.98, 0.01, 0.01), seed=0)

    def test_ood_split_works_without_classes(self):
        ds = gen_ood("uniform-noise", 20, seed=1)
        a, b = split(ds, (0.6, 0.4), seed=2)
        assert len(a) == 12 and len(b) == 8


class TestDatasetContainer:
    def test_round_trip(self, tmp_path):
        ds = gen_glyphs(15, seed=8)
        path = tmp_path / "set.gdata"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.images.tobytes() == ds.images.tobytes()
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.source_tag == ds.source_tag
        assert loaded.seed == ds.seed

    def test_wrong_magic_rejected(self, tmp_path):
        ds = gen_glyphs(5, seed=9)
        path = tmp_path / "set.gdata"
        save_dataset(ds, path)
        with pytest.raises(storage.BadMagicError):
            storage.read_container(path, b"GGATE")

    def test_labels_preserved_for_ood(self, tmp_path):
        ds = gen_ood("textures", 8, seed=10)
        path = tmp_path / "ood.gdata"
        save_dataset(ds, path)
        assert np.all(load_dataset(path).labels == -1)


class TestAtomicWrite:
    def test_container_write_cut_short_leaves_no_file(self, tmp_path):
        path = tmp_path / "set.gdata"
        with pytest.raises(ValueError):  # the second record is not numeric
            storage.write_container(path, b"GDATA", {},
                                    [("images", np.ones(3)), ("labels", ["x"])])
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "set.gdata"
        save_dataset(gen_glyphs(5, seed=9), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with storage.atomic_open(path, "wb") as fh:
                fh.write(b"GDATA partial")
                raise RuntimeError("killed mid-write")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["set.gdata"]


class TestDatasetPixelCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25, 1.5])
    def test_pixel_outside_unit_interval_rejected(self, tmp_path, bad):
        ds = gen_glyphs(6, seed=11)
        ds.images[2, 0, 4, 4] = bad
        path = tmp_path / "bad.gdata"
        save_dataset(ds, path)
        with pytest.raises(storage.RecordError, match="pixels"):
            load_dataset(path)

    def test_interval_ends_and_negative_zero_accepted(self, tmp_path):
        ds = gen_glyphs(4, seed=12)
        ds.images[0, 0, :3, 0] = [0.0, -0.0, 1.0]
        path = tmp_path / "ends.gdata"
        save_dataset(ds, path)
        assert load_dataset(path).images.tobytes() == ds.images.tobytes()


class TestDatasetLabelCheck:
    @pytest.mark.parametrize("bad", [0.5, -2.0, -1.5, np.nan, np.inf, -np.inf])
    def test_bad_label_rejected(self, tmp_path, bad):
        ds = gen_glyphs(6, seed=13)
        labels = ds.labels.astype(np.float64)
        labels[3] = bad
        path = tmp_path / "bad.gdata"
        storage.write_container(path, b"GDATA", {}, [("images", ds.images), ("labels", labels)])
        with pytest.raises(storage.RecordError, match="labels"):
            load_dataset(path)

    def test_unlabeled_and_class_labels_accepted(self, tmp_path):
        ds = gen_glyphs(6, seed=14)
        ds.labels[:2] = -1
        path = tmp_path / "ok.gdata"
        save_dataset(ds, path)
        assert load_dataset(path).labels.tobytes() == ds.labels.tobytes()
