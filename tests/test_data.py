import json

import numpy as np
import pytest

from gbmpatch.data import (CLASS_CODES, DEFAULT_PROFILE, DatasetManifest,
                           IMAGENET_STD, class_index, generate_synthetic,
                           load_ppm, load_preprocessed, normalize,
                           parse_json_object, preprocess, resize_bilinear,
                           save_ppm, to_tensor)
from gbmpatch.errors import DataError, DimensionError, PpmParseError


def random_patch(rng, w, h):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def bilinear_oracle(pixels, width, height):
    """Naive per-pixel resample used as an independent check."""
    src = pixels.astype(np.float64)
    sh, sw = src.shape[:2]
    out = np.zeros((height, width, 3))
    for y in range(height):
        sy = min(max((y + 0.5) * sh / height - 0.5, 0.0), sh - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, sh - 1)
        fy = sy - y0
        for x in range(width):
            sx = min(max((x + 0.5) * sw / width - 0.5, 0.0), sw - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, sw - 1)
            fx = sx - x0
            out[y, x] = (src[y0, x0] * (1 - fy) * (1 - fx)
                         + src[y0, x1] * (1 - fy) * fx
                         + src[y1, x0] * fy * (1 - fx)
                         + src[y1, x1] * fy * fx)
    return out


class TestPpm:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        img = random_patch(rng, 17, 9)
        path = tmp_path / "x.ppm"
        save_ppm(img, path)
        back = load_ppm(path)
        assert back.shape == (9, 17, 3) and back.dtype == np.uint8
        assert np.array_equal(back, img)

    def test_file_round_trip_preserves_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        img = random_patch(rng, 8, 8)
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        save_ppm(img, p1)
        save_ppm(load_ppm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_comments_are_skipped(self, tmp_path):
        raster = bytes(range(12))
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# made by hand\n2 2\n# maxval next\n255\n" + raster)
        img = load_ppm(path)
        assert img.shape == (2, 2, 3)
        assert img.tobytes() == raster

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(PpmParseError, match="byte 0"):
            load_ppm(path)

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "wide.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
        with pytest.raises(PpmParseError, match="65535"):
            load_ppm(path)

    def test_truncated_raster_reports_offset(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(7))
        with pytest.raises(PpmParseError, match="byte 18"):
            load_ppm(path)

    def test_non_numeric_header(self, tmp_path):
        path = tmp_path / "junk.ppm"
        path.write_bytes(b"P6\ntwo 2\n255\n")
        with pytest.raises(PpmParseError, match="width"):
            load_ppm(path)

    @pytest.mark.parametrize("pixels", [
        np.zeros((4, 4, 3), np.float32),       # not bytes
        np.zeros((4, 4), np.uint8),            # no channel axis
        np.zeros((4, 4, 4), np.uint8),         # four channels
    ], ids=["float", "2d", "rgba"])
    def test_save_rejects_non_rgb_bytes(self, tmp_path, pixels):
        path = tmp_path / "x.ppm"
        with pytest.raises(DimensionError):
            save_ppm(pixels, path)
        assert not path.exists()

    def test_failed_save_leaves_existing_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        path = tmp_path / "x.ppm"
        save_ppm(random_patch(rng, 4, 4), path)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_ppm(random_patch(rng, 4, 4), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ppm"]


class TestResize:
    def test_same_size_is_identity_copy(self):
        rng = np.random.default_rng(2)
        img = random_patch(rng, 12, 12)
        out = resize_bilinear(img, 12, 12)
        assert np.array_equal(out, img)
        assert out is not img

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(3)
        img = random_patch(rng, 29, 13)
        out = resize_bilinear(img, 16, 10)
        want = bilinear_oracle(img, 16, 10)
        diff = np.abs(out.astype(np.float64) - want)
        assert diff.max() <= 1.0

    def test_checkerboard_halving_averages_to_midgray(self):
        tile = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        board = np.tile(tile, (224, 224))[:, :, None].repeat(3, axis=2)
        out = resize_bilinear(board, 224, 224)
        assert np.all(out == 128)

    def test_constant_image_stays_constant(self):
        img = np.full((5, 7, 3), 77, dtype=np.uint8)
        out = resize_bilinear(img, 224, 224)
        assert np.all(out == 77)

    def test_upsample_shape(self):
        rng = np.random.default_rng(4)
        out = resize_bilinear(random_patch(rng, 3, 3), 224, 224)
        assert out.shape == (224, 224, 3) and out.dtype == np.uint8


class TestToTensor:
    def test_layout_and_range(self):
        rng = np.random.default_rng(5)
        img = random_patch(rng, 224, 224)
        t = to_tensor(img)
        assert t.shape == (3, 224, 224)
        assert t.dtype == np.float32
        assert t.min() >= 0.0 and t.max() <= 1.0
        # channel-major layout: t[c, y, x] mirrors pixels[y, x, c]
        assert t[1, 3, 7] == pytest.approx(img[3, 7, 1] / 255.0)

    def test_wrong_size_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DimensionError):
            to_tensor(random_patch(rng, 100, 224))


class TestNormalize:
    def test_white_pixel_channel2(self):
        t = np.ones((3, 4, 4), dtype=np.float32)
        out = normalize(t)
        assert out[2, 0, 0] == pytest.approx((1.0 - 0.406) / 0.225, abs=1e-6)
        assert out[2, 0, 0] == pytest.approx(2.64, abs=1e-6)

    def test_near_mean_gray_is_near_zero(self):
        out = preprocess(np.full((224, 224, 3), 124, dtype=np.uint8))
        assert out[0, 0, 0] == pytest.approx((124 / 255 - 0.485) / 0.229, abs=1e-6)
        assert abs(out[0, 0, 0]) < 0.006

    def test_wrong_rank_rejected(self):
        with pytest.raises(DimensionError):
            normalize(np.zeros((224, 224, 3), dtype=np.float32))


class TestPreprocess:
    def test_equals_stated_composition(self):
        rng = np.random.default_rng(8)
        img = random_patch(rng, 300, 180)
        want = normalize(to_tensor(resize_bilinear(img, 224, 224)))
        assert np.array_equal(preprocess(img), want)

    def test_order_matters_at_byte_precision(self):
        # Resizing the already-normalized float image skips the uint8
        # rounding step, so swapping the order shifts values slightly.
        rng = np.random.default_rng(9)
        img = random_patch(rng, 448, 448)
        swapped = bilinear_oracle(
            normalize(to_tensor(img, 448)).transpose(1, 2, 0), 224, 224
        ).transpose(2, 0, 1)
        ours = preprocess(img)
        assert not np.array_equal(ours, swapped)
        assert np.abs(ours - swapped).max() < 0.5 / 255 / min(IMAGENET_STD) + 1e-6

    def test_small_size_path(self):
        rng = np.random.default_rng(10)
        out = preprocess(random_patch(rng, 64, 64), size=56)
        assert out.shape == (3, 56, 56)


class TestGenerator:
    def test_counts_and_manifest(self, tmp_path):
        counts = [5, 3, 2, 4, 1, 2, 1, 1, 1]
        manifest = generate_synthetic(tmp_path, counts, seed=11, size=16)
        assert manifest.class_counts().tolist() == counts
        assert len(manifest.entries) == sum(counts)
        reloaded = DatasetManifest.load(tmp_path)
        assert reloaded.entries == manifest.entries
        assert reloaded.seed == 11
        for rel, label in reloaded.entries:
            assert load_ppm(tmp_path / rel).shape == (16, 16, 3)
            assert rel.startswith(CLASS_CODES[label] + "/")

    def test_same_seed_is_bit_identical(self, tmp_path):
        counts = [2, 1, 1, 1, 1, 1, 1, 1, 1]
        a = generate_synthetic(tmp_path / "a", counts, seed=5, size=16)
        b = generate_synthetic(tmp_path / "b", counts, seed=5, size=16)
        for (rel, _), _ in zip(a.entries, b.entries):
            assert ((tmp_path / "a" / rel).read_bytes()
                    == (tmp_path / "b" / rel).read_bytes())

    def test_different_seed_differs(self, tmp_path):
        counts = [1, 0, 0, 0, 0, 0, 0, 0, 0]
        generate_synthetic(tmp_path / "a", counts, seed=1, size=16)
        generate_synthetic(tmp_path / "b", counts, seed=2, size=16)
        assert ((tmp_path / "a" / "CT/0000.ppm").read_bytes()
                != (tmp_path / "b" / "CT/0000.ppm").read_bytes())

    def test_classes_are_visually_distinct(self, tmp_path):
        manifest = generate_synthetic(tmp_path, [3] * 9, seed=3, size=24)
        means = np.zeros((9, 3))
        for rel, label in manifest.entries:
            means[label] += load_ppm(tmp_path / rel).mean(axis=(0, 1)) / 3
        # every pair of class mean colors is well separated
        for i in range(9):
            for j in range(i + 1, 9):
                assert np.linalg.norm(means[i] - means[j]) > 12.0

    def test_samples_within_class_vary(self, tmp_path):
        generate_synthetic(tmp_path, [2, 0, 0, 0, 0, 0, 0, 0, 0], seed=4, size=16)
        a = (tmp_path / "CT/0000.ppm").read_bytes()
        b = (tmp_path / "CT/0001.ppm").read_bytes()
        assert a != b

    def test_default_profile_shape(self):
        assert len(DEFAULT_PROFILE) == 9
        order = np.argsort(DEFAULT_PROFILE)
        # head classes CT and NC dominate, LI/DM/PL sit in the tail
        assert set(order[-2:]) == {class_index("CT"), class_index("NC")}
        assert set(order[:3]) == {class_index("LI"), class_index("DM"),
                                  class_index("PL")}

    def test_bad_counts_rejected(self, tmp_path):
        with pytest.raises(DataError):
            generate_synthetic(tmp_path, [1, 2, 3], seed=0, size=16)
        with pytest.raises(DataError):
            generate_synthetic(tmp_path, [-1] + [1] * 8, seed=0, size=16)
        with pytest.raises(DataError):
            generate_synthetic(tmp_path, [0] * 9, seed=0, size=16)
        assert not (tmp_path / "manifest.json").exists()

    def test_missing_file_fails_load(self, tmp_path):
        generate_synthetic(tmp_path, [1, 1, 0, 0, 0, 0, 0, 0, 0], seed=0, size=16)
        (tmp_path / "PN/0000.ppm").unlink()
        with pytest.raises(DataError, match="missing"):
            DatasetManifest.load(tmp_path)

    @pytest.mark.parametrize("payload", [
        [], "entries", 3, None,
        {"entries": {"path": "CT/0000.ppm", "label": "CT"}},
        {"entries": "CT/0000.ppm"},
        {"entries": ["CT/0000.ppm"]},
        {"entries": [None]},
        {"entries": [{"label": "CT"}]},
        {"entries": [{"path": "CT/0000.ppm"}]},
        {"entries": [{"path": 7, "label": "CT"}]},
        {"entries": [{"path": ["CT/0000.ppm"], "label": "CT"}]},
        {"entries": [{"path": "CT/0000.ppm", "label": ["CT"]}]},
        {"entries": [{"path": "a" * 300, "label": "CT"}]},   # name too long
    ])
    def test_malformed_manifest_is_data_error(self, tmp_path, payload):
        generate_synthetic(tmp_path, [1] + [0] * 8, seed=0, size=8)
        (tmp_path / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(DataError):
            DatasetManifest.load(tmp_path)

    @pytest.mark.parametrize("escape", ["absolute", "dotdot"])
    def test_entry_outside_root_is_data_error(self, tmp_path, escape):
        # the named file exists, so only the path's form can reject it
        root = tmp_path / "data"
        generate_synthetic(root, [1] + [0] * 8, seed=0, size=8)
        rel = {"absolute": str(root / "CT/0000.ppm"),
               "dotdot": "CT/../../data/CT/0000.ppm"}[escape]
        (root / "manifest.json").write_text(
            json.dumps({"entries": [{"path": rel, "label": "CT"}]}))
        with pytest.raises(DataError, match="leaves the dataset root"):
            DatasetManifest.load(root)

    def test_non_utf8_manifest_is_data_error(self, tmp_path):
        (tmp_path / "manifest.json").write_bytes(b'{"entries": ["\xff"]}')
        with pytest.raises(DataError):
            DatasetManifest.load(tmp_path)


class TestLoadPreprocessed:
    def test_shapes_and_labels(self, tmp_path):
        counts = [2, 1, 0, 1, 0, 0, 0, 0, 0]
        manifest = generate_synthetic(tmp_path, counts, seed=6, size=16)
        images, labels = load_preprocessed(manifest, size=16)
        assert images.shape == (4, 3, 16, 16)
        assert images.dtype == np.float32
        assert labels.tolist() == [0, 0, 1, 3]

    def test_empty_manifest_is_data_error(self, tmp_path):
        manifest = DatasetManifest(root=tmp_path, entries=[], seed=0)
        manifest.save()
        with pytest.raises(DataError, match="no patches"):
            load_preprocessed(DatasetManifest.load(tmp_path), size=16)


class TestParseJsonObject:
    def test_object_from_text_or_bytes(self):
        assert parse_json_object('{"a": [1]}', "x") == {"a": [1]}
        assert parse_json_object(b'{"a": [1]}', "x") == {"a": [1]}

    @pytest.mark.parametrize("raw", [
        b'{"a": "\xff"}',                           # not UTF-8
        b"[1, 2]",                                  # a list, not an object
        b"[" * 100_000 + b"]" * 100_000,            # past the recursion limit
    ], ids=["non_utf8", "list", "deep"])
    def test_bad_input_is_data_error(self, raw):
        with pytest.raises(DataError, match="where"):
            parse_json_object(raw, "where")
