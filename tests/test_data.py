import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from gbmpatch import data, tensor
from gbmpatch.data import (_BASE_COLORS, _BLOB_COUNTS, _STRIPE_FREQS,
                           CLASS_CODES, DEFAULT_PROFILE, MANIFEST_NAME,
                           DatasetManifest, IMAGENET_STD, _render_patch,
                           class_index, generate_synthetic, load_ppm,
                           load_preprocessed, normalize, parse_json_object,
                           preprocess, resize_bilinear, save_ppm, to_tensor,
                           write_atomic)
from gbmpatch.encoder import EncoderConfig
from gbmpatch.errors import (DataError, DimensionError, ParameterError,
                             PpmParseError)
from gbmpatch.head import HeadConfig
from gbmpatch.model import PatchClassifier

SRC = Path(__file__).resolve().parents[1] / "src"


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


def resize_four_term(pixels, width, height):
    """The plain float64 resize: four corner terms over the (H, W, 3) image.

    ``resize_bilinear`` must match it byte for byte.
    """
    src_h, src_w = pixels.shape[:2]
    if (src_w, src_h) == (width, height):
        return pixels.copy()
    xs = np.clip((np.arange(width) + 0.5) * (src_w / width) - 0.5,
                 0.0, src_w - 1.0)
    ys = np.clip((np.arange(height) + 0.5) * (src_h / height) - 0.5,
                 0.0, src_h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, src_w - 1)
    y1 = np.minimum(y0 + 1, src_h - 1)
    fx = (xs - x0)[None, :, None]
    fy = (ys - y0)[:, None, None]
    top, bottom = pixels[y0], pixels[y1]
    out = (top[:, x0].astype(np.float64) * (1 - fy) * (1 - fx)
           + top[:, x1].astype(np.float64) * (1 - fy) * fx
           + bottom[:, x0].astype(np.float64) * fy * (1 - fx)
           + bottom[:, x1].astype(np.float64) * fy * fx)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def every_byte_image(side):
    """A (side, side, 3) image; each channel holds every byte value."""
    rng = np.random.default_rng(side)
    values = np.resize(np.arange(256, dtype=np.uint8), side * side)
    return np.stack([rng.permutation(values).reshape(side, side)
                     for _ in range(3)], axis=2)


def render_patch_full_canvas(label, rng, size):
    """Reference renderer: every blob's mask spans the whole canvas."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    color = _BASE_COLORS[label] + rng.normal(0.0, 8.0, size=3)
    canvas = np.tile(color, (size, size, 1))

    freq = _STRIPE_FREQS[label]
    if freq > 0:
        theta = rng.uniform(0, np.pi)
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(2 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta))
                      + phase)
        canvas += wave[:, :, None] * rng.uniform(10.0, 25.0)

    blob_color = _BASE_COLORS[label] * 0.55 + rng.normal(0.0, 10.0, size=3)
    for _ in range(_BLOB_COUNTS[label]):
        cy, cx = rng.uniform(0, 1, size=2)
        radius = rng.uniform(0.02, 0.08)
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 < radius ** 2
        canvas[mask] = blob_color

    canvas += rng.normal(0.0, 6.0, size=canvas.shape)
    return np.clip(np.rint(canvas), 0, 255).astype(np.uint8)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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

    def test_loaded_array_is_its_own_writable_image(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "x.ppm"
        save_ppm(random_patch(rng, 5, 4), path)
        before = path.read_bytes()
        a, b = load_ppm(path), load_ppm(path)
        for img in (a, b):
            assert img.shape == (4, 5, 3) and img.dtype == np.uint8
            assert img.flags.writeable and img.flags.c_contiguous
        assert not np.shares_memory(a, b)
        kept = b.copy()
        a[...] = 255 - a
        assert np.array_equal(b, kept)
        assert path.read_bytes() == before

    def test_bytes_after_raster_are_ignored(self, tmp_path):
        raster = bytes(range(12))
        path = tmp_path / "tail.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + raster + b"trailing junk")
        assert load_ppm(path).tobytes() == raster

    def test_header_at_end_of_file_is_truncated_raster(self, tmp_path):
        path = tmp_path / "bare.ppm"
        path.write_bytes(b"P6\n2 2\n255")
        with pytest.raises(PpmParseError, match=re.escape(
                "raster truncated at byte 11, expected 12 bytes from byte 11")):
            load_ppm(path)

    def test_reads_a_stream_without_a_size(self):
        raster = bytes(range(12))
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"P6\n2 2\n255\n" + raster)
            os.close(write_end)
            assert load_ppm(f"/dev/fd/{read_end}").tobytes() == raster
        finally:
            os.close(read_end)

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
        with pytest.raises(PpmParseError, match=re.escape(
                "raster truncated at byte 18, expected 12 bytes from byte 11")):
            load_ppm(path)

    @pytest.mark.parametrize("header", [b"0 2", b"2 0", b"0 0"],
                             ids=["width", "height", "both"])
    def test_zero_sized_header_rejected(self, tmp_path, header):
        path = tmp_path / "empty.ppm"
        path.write_bytes(b"P6\n" + header + b"\n255\n" + bytes(12))
        with pytest.raises(PpmParseError, match="zero-sized image"):
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
        np.zeros((0, 4, 3), np.uint8),         # no rows
    ], ids=["float", "2d", "rgba", "empty"])
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

    @pytest.mark.parametrize("src_w, src_h, width, height, digest", [
        (224, 224, 56, 56,
         "53c82e8e4fc505f31296e3d16e56e53f89fc44ac5e3667ab7df33cb315316b30"),
        (29, 13, 16, 10,
         "2541d4ef34036756fce24c17f2ea2e11c4578a624fa1a1f35e73bd8ffff9cc64"),
        (3, 3, 224, 224,
         "cc3cd8dde06280768579a966a5552516fc1243e5f71dbf30ff78917559b13de0"),
        (1, 1, 7, 5,
         "3d6ba30a85e58ce6908171276545c69c9fc0932a65499ef90d4c37428ea6138f"),
        (300, 180, 224, 224,
         "e7f4d35db1c29f116be580337658ad84f84ef319d974cc221134e42ebd041ddd"),
    ])
    def test_output_bytes_are_pinned(self, src_w, src_h, width, height, digest):
        rng = np.random.default_rng(src_w * 1000 + src_h)
        out = resize_bilinear(random_patch(rng, src_w, src_h), width, height)
        assert out.shape == (height, width, 3)
        assert sha256(out.tobytes()) == digest

    @pytest.mark.parametrize("src_w, src_h, width, height", [
        (224, 224, 56, 56), (56, 56, 224, 224), (30, 17, 11, 29),
        (1, 1, 7, 5), (9, 1, 4, 3), (1, 6, 5, 2), (8, 5, 1, 1),
        (13, 7, 1, 4), (5, 11, 3, 1), (2, 2, 3, 3),
    ])
    def test_matches_four_term_reference(self, src_w, src_h, width, height):
        rng = np.random.default_rng(src_w * 31 + src_h)
        img = random_patch(rng, src_w, src_h)
        assert np.array_equal(resize_bilinear(img, width, height),
                              resize_four_term(img, width, height))

    def test_matches_four_term_reference_on_random_geometries(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            src_h, src_w, height, width = rng.integers(1, 70, size=4)
            img = random_patch(rng, src_w, src_h)
            want = resize_four_term(img, width, height)
            # the first call makes the plan, the second reuses it
            for _ in range(2):
                assert np.array_equal(resize_bilinear(img, width, height), want)

    def test_reads_a_strided_view(self):
        rng = np.random.default_rng(13)
        img = random_patch(rng, 40, 30)
        view = img[::2, ::-3]
        assert np.array_equal(resize_bilinear(view, 9, 8),
                              resize_four_term(view.copy(), 9, 8))

    @pytest.mark.parametrize("pixels", [
        np.zeros((10, 10), np.uint8),             # no channel axis
        np.full((4, 4, 3), 300.7),                # not bytes
        np.zeros((4, 4, 4), np.uint8),            # four channels
        np.zeros((0, 4, 3), np.uint8),            # no rows
    ], ids=["2d", "float", "rgba", "empty"])
    def test_rejects_non_rgb_bytes(self, pixels):
        with pytest.raises(DimensionError, match="uint8"):
            resize_bilinear(pixels, 5, 5)

    @pytest.mark.parametrize("width, height", [(0, 5), (-3, 5), (5, 0)])
    def test_rejects_empty_target(self, width, height):
        img = random_patch(np.random.default_rng(14), 10, 10)
        with pytest.raises(ParameterError, match="resize (width|height) must be >= 1"):
            resize_bilinear(img, width, height)

    @pytest.mark.parametrize("width, height", [(5.5, 5), (5, "5"), (True, True)])
    def test_rejects_non_integer_target(self, width, height):
        img = random_patch(np.random.default_rng(14), 10, 10)
        with pytest.raises(ParameterError, match="must be an integer"):
            resize_bilinear(img, width, height)

    def test_numpy_integer_target_is_a_size(self):
        img = random_patch(np.random.default_rng(14), 10, 10)
        assert np.array_equal(resize_bilinear(img, np.int64(5), np.int32(4)),
                              resize_bilinear(img, 5, 4))


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

    @pytest.mark.parametrize("side, size", [(16, 16), (32, 16), (16, 40)])
    def test_every_byte_value_matches_the_chain(self, side, size):
        img = every_byte_image(side)
        want = normalize(to_tensor(resize_bilinear(img, size, size), size))
        got = preprocess(img, size)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pixels", [
        np.zeros((8, 8), np.uint8),
        np.full((8, 8, 3), 300.7),
    ], ids=["2d", "float"])
    def test_same_size_rejects_non_rgb_bytes(self, pixels):
        with pytest.raises(DimensionError, match="uint8"):
            preprocess(pixels, size=8)

    def test_rejects_empty_size(self):
        with pytest.raises(ParameterError):
            preprocess(random_patch(np.random.default_rng(15), 8, 8), size=0)

    @pytest.mark.parametrize("size", [5.5, "5", True])
    def test_rejects_non_integer_size(self, size):
        with pytest.raises(ParameterError, match="must be an integer"):
            preprocess(random_patch(np.random.default_rng(15), 8, 8), size=size)

    def test_numpy_integer_size_is_a_size(self):
        img = random_patch(np.random.default_rng(15), 8, 8)
        want = preprocess(img, size=5)
        assert preprocess(img, size=np.int64(5)).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("size, digest", [
        (1, "3747918fde7067e6cff39a448a01ee565bc177e581d51cdf84c08aee6b46d87a"),
        (2, "535a50c51e4b6c4dae880b114962a211a893c47642d14a6564ad52f76cf8ceb5"),
        (3, "ccd45ed87341042cd0a8e7b6f96aa921f13b0dd785b475e0ea1381eb23b9636a"),
        (16, "b2c596e4066b3d60c0cc4e73aa943bab0fc234d820fd35e0315d7cc5a5445136"),
        (57, "61f1f73fb156ac5e9a12b23067a47035edc024e3ff023abf9ec51ef9ee87ed04"),
        (224, "90a115793048b582b9f3481e2c844919da0a99b0f80d6531855024230b99ff8f"),
    ])
    def test_output_bytes_are_pinned(self, tmp_path, size, digest):
        # one patch of every class; the digest covers the manifest, then
        # each entry's path and PPM bytes in manifest order
        manifest = generate_synthetic(tmp_path, [1] * 9, seed=7, size=size)
        h = hashlib.sha256((tmp_path / MANIFEST_NAME).read_bytes())
        for rel, _ in manifest.entries:
            h.update(rel.encode())
            h.update((tmp_path / rel).read_bytes())
        assert h.hexdigest() == digest

    def test_windowed_blobs_match_full_canvas_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(label=st.integers(0, len(CLASS_CODES) - 1),
                          seed=st.integers(0, 2 ** 32 - 1),
                          size=st.integers(1, 96))
        def check(label, seed, size):
            want = render_patch_full_canvas(
                label, np.random.default_rng(seed), size)
            got = _render_patch(label, np.random.default_rng(seed), size)
            assert got.dtype == np.uint8 and np.array_equal(got, want)

        check()

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

    @pytest.mark.parametrize("kwargs", [
        dict(size=2.5), dict(size=True), dict(seed=1.5), dict(seed=True),
        dict(counts=[1.5] + [1] * 8), dict(counts=[True] + [1] * 8),
    ], ids=["float-size", "bool-size", "float-seed", "bool-seed",
            "float-count", "bool-count"])
    def test_non_integer_argument_is_parameter_error(self, tmp_path, kwargs):
        # floats once died in numpy with a bare TypeError, and a bool
        # seed or count was taken as 1
        args = dict(counts=[1] * 9, seed=0, size=8)
        with pytest.raises(ParameterError, match="must be an integer"):
            generate_synthetic(tmp_path, **{**args, **kwargs})
        assert not (tmp_path / "manifest.json").exists()

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


def tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestGeneratorPool:
    def test_pool_output_is_byte_identical(self, tmp_path, monkeypatch, pools):
        # uneven counts, 62 patches of 136 px: 1.15 M pixels, over the floor
        counts = [20, 5, 3, 15, 8, 7, 2, 1, 1]
        assert sum(counts) * 136 * 136 >= data._POOL_MIN_PIXELS
        trees = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            generate_synthetic(tmp_path / "d", counts, seed=9, size=136)
            trees.append(tree_bytes(tmp_path / "d"))
            shutil.rmtree(tmp_path / "d")
        assert pools == ["fork"]   # one CPU ran in-process, two forked
        assert len(trees[0]) == sum(counts) + 1
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                       ParameterError("bad patch")],
                             ids=["os_error", "parameter_error"])
    def test_worker_error_reaches_caller_unchanged(self, tmp_path, monkeypatch,
                                                   pools, error):
        monkeypatch.setattr(data, "_POOL_MIN_PIXELS", 0)
        real_save = data.save_ppm

        def save(pixels, path):
            if path.relative_to(tmp_path).as_posix() == "NC/0002.ppm":
                raise error
            real_save(pixels, path)

        monkeypatch.setattr(data, "save_ppm", save)
        seen = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            with pytest.raises(Exception) as info:
                generate_synthetic(tmp_path, [4] * 9, seed=0, size=8)
            seen.append((type(info.value), str(info.value)))
        assert pools == ["fork"]
        assert seen[0] == seen[1]
        assert seen[0][0] is (DataError if isinstance(error, OSError)
                              else ParameterError)

    def test_no_engine_thread_alive_at_a_fork_after_a_spread_predict(
            self, tmp_path, monkeypatch, pooled):
        # a 224/14 predict spreads embed's and attention's block loops over
        # two pinned threads, which the engine's fork hook joins: the fork
        # that starts the process pool leaves no engine thread alive. The
        # hook runs inside os.fork, so the parent counts them once it returns
        monkeypatch.setattr(tensor, "_BLAS_ONE_THREAD", True)
        ran, cut = set(), tensor._cut

        def spy(*args):
            ran.add(threading.current_thread().name)
            return cut(*args)

        monkeypatch.setattr(tensor, "_cut", spy)
        cfg = EncoderConfig(image_size=224, tile_size=14, dim=8, depth=1,
                            heads=2, registers=1, mlp_ratio=2)
        model = PatchClassifier(cfg, HeadConfig(bottleneck=4), seed=0)
        model.predict(np.zeros((8, 3, 224, 224), np.float32))
        assert ran == {"gbmpatch-cpu0", "gbmpatch-cpu1"}
        alive, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                alive.append([t.name for t in threading.enumerate()
                              if t.name.startswith("gbmpatch-")])
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        manifest = generate_synthetic(tmp_path, [2] * 9, seed=0, size=16)
        assert pooled == ["fork"] and len(manifest.entries) == 18
        assert alive and not any(alive)


class TestLoadPreprocessed:
    def test_shapes_and_labels(self, tmp_path):
        counts = [2, 1, 0, 1, 0, 0, 0, 0, 0]
        manifest = generate_synthetic(tmp_path, counts, seed=6, size=16)
        images, labels = load_preprocessed(manifest, size=16)
        assert images.shape == (4, 3, 16, 16)
        assert images.dtype == np.float32
        assert labels.tolist() == [0, 0, 1, 3]

    def test_tensor_bytes_are_pinned(self, tmp_path, settled):
        manifest = generate_synthetic(tmp_path, [2, 1, 1, 1, 1, 1, 1, 1, 1],
                                      seed=3, size=40)
        for _ in range(2):   # the first load writes the cache, the second reads it
            images, labels = load_preprocessed(manifest, size=28)
            assert images.shape == (10, 3, 28, 28)
            assert labels.tolist() == [0, 0, 1, 2, 3, 4, 5, 6, 7, 8]
            assert sha256(images.tobytes()) == (
                "8f87fe0dfadde7164f018ff75bbb6932757924a3018ea4ffb41047663eb031cf")
        assert (tmp_path / ".pixels-28.cache").is_file()

    @pytest.mark.parametrize("entry", ["missing", "directory", "nul",
                                       "long_name"])
    def test_missing_file_fails_load(self, tmp_path, entry):
        # the manifest is a valid document; only the loader's stat of the
        # entry can reject it
        manifest = generate_synthetic(tmp_path, [1, 1, 0, 0, 0, 0, 0, 0, 0],
                                      seed=0, size=16)
        if entry in ("missing", "directory"):
            (tmp_path / "PN/0000.ppm").unlink()
            if entry == "directory":
                (tmp_path / "PN/0000.ppm").mkdir()
        else:
            manifest.entries[1] = {"nul": "PN/0\x00.ppm",
                                   "long_name": "a" * 300}[entry], 1
            manifest.save()
        manifest = DatasetManifest.load(tmp_path)
        with pytest.raises(DataError, match="missing"):
            load_preprocessed(manifest, size=8)

    def test_empty_manifest_is_data_error(self, tmp_path):
        manifest = DatasetManifest(root=tmp_path, entries=[], seed=0)
        manifest.save()
        with pytest.raises(DataError, match="no patches"):
            load_preprocessed(DatasetManifest.load(tmp_path), size=16)

    @pytest.mark.parametrize("size", [0, -3])
    def test_empty_size_is_parameter_error(self, tmp_path, size):
        manifest = generate_synthetic(tmp_path, [1] * 9, seed=0, size=8)
        with pytest.raises(ParameterError, match="image size must be >= 1"):
            load_preprocessed(manifest, size=size)

    @pytest.mark.parametrize("size", [5.5, "5", True])
    def test_non_integer_size_is_parameter_error(self, tmp_path, size):
        manifest = generate_synthetic(tmp_path, [1] * 9, seed=0, size=8)
        with pytest.raises(ParameterError, match="must be an integer"):
            load_preprocessed(manifest, size=size)

    def test_numpy_integer_size_is_a_size(self, tmp_path):
        manifest = generate_synthetic(tmp_path, [1] * 9, seed=0, size=8)
        got, labels = load_preprocessed(manifest, size=np.int64(5))
        want, _ = load_preprocessed(manifest, size=5)
        assert got.shape == (9, 3, 5, 5) and got.tobytes() == want.tobytes()

    def test_calls_load_and_resize_once_per_entry(self, tmp_path, monkeypatch):
        # a tracer times these two by patching them in the module
        manifest = generate_synthetic(tmp_path, [2, 1, 1, 0, 0, 0, 0, 0, 1],
                                      seed=4, size=12)
        calls = {"load_ppm": 0, "resize_bilinear": 0}

        def counting(name):
            inner = getattr(data, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(data, name, counting(name))
        for size in (12, 8):
            load_preprocessed(manifest, size=size)
        n = len(manifest.entries)
        assert calls == {"load_ppm": 2 * n, "resize_bilinear": 2 * n}


def counting_calls(monkeypatch):
    """Calls of ``load_ppm``, ``resize_bilinear`` and ``_scale_normalize``,
    counted through the module as a tracer would."""
    calls = {"load_ppm": 0, "resize_bilinear": 0, "_scale_normalize": 0}
    for name in calls:
        inner = getattr(data, name)

        def wrapper(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(data, name, wrapper)
    return calls


def fresh_load(manifest, size):
    """Every entry preprocessed on its own, without the loader or its cache."""
    root = manifest.root
    return np.stack([preprocess(load_ppm(root / rel), size)
                     for rel, _ in manifest.entries])


class TestPixelCache:
    COUNTS = [2, 1, 1, 0, 0, 1, 0, 0, 1]

    @pytest.fixture
    def dataset(self, tmp_path, settled):
        return generate_synthetic(tmp_path, self.COUNTS, seed=8, size=20)

    def cache(self, manifest, size=12):
        return manifest.root / f".pixels-{size}.cache"

    def test_hit_matches_miss_without_decoding(self, dataset, monkeypatch):
        # a hit reads the finished images: it neither decodes, resizes nor
        # normalizes
        calls = counting_calls(monkeypatch)
        miss, _ = load_preprocessed(dataset, size=12)
        n = len(dataset.entries)
        every = {"load_ppm": n, "resize_bilinear": n, "_scale_normalize": n}
        assert calls == every
        assert sorted(p.name for p in dataset.root.iterdir()
                      if p.is_file()) == [".pixels-12.cache", MANIFEST_NAME]
        hit, labels = load_preprocessed(dataset, size=12)
        assert calls == every
        assert hit.tobytes() == miss.tobytes()
        assert hit.tobytes() == fresh_load(dataset, 12).tobytes()
        assert labels.tolist() == dataset.labels.tolist()

    def test_one_cache_per_size(self, dataset):
        for size in (12, 8, 12, 8):
            got, _ = load_preprocessed(dataset, size=size)
            assert got.tobytes() == fresh_load(dataset, size).tobytes()
        assert self.cache(dataset, 8).is_file() and self.cache(dataset).is_file()

    def check_miss(self, manifest, monkeypatch):
        """A load of ``manifest`` decodes every entry, returns a fresh
        load's bytes, and leaves a cache the next load hits."""
        calls = counting_calls(monkeypatch)
        images, labels = load_preprocessed(manifest, size=12)
        assert calls["load_ppm"] == len(manifest.entries)
        assert images.tobytes() == fresh_load(manifest, 12).tobytes()
        assert labels.tolist() == manifest.labels.tolist()
        again, _ = load_preprocessed(manifest, size=12)
        assert calls["load_ppm"] == len(manifest.entries)
        assert again.tobytes() == images.tobytes()

    def test_rewritten_entry_is_a_miss(self, dataset, monkeypatch):
        load_preprocessed(dataset, size=12)
        rel = dataset.entries[2][0]
        pixels = load_ppm(dataset.root / rel)
        save_ppm(255 - pixels, dataset.root / rel)
        self.check_miss(dataset, monkeypatch)

    def test_new_normalization_is_a_miss(self, dataset, monkeypatch):
        # the header holds the crc32 of the byte table, so other
        # normalized values need no format bump
        load_preprocessed(dataset, size=12)
        monkeypatch.setattr(data, "_BYTE_TABLE", -data._BYTE_TABLE)
        self.check_miss(dataset, monkeypatch)

    @pytest.mark.parametrize("edit", ["add", "drop"])
    def test_manifest_edit_is_a_miss(self, dataset, monkeypatch, edit):
        load_preprocessed(dataset, size=12)
        if edit == "add":
            rel = dataset.entries[1][0]
            save_ppm(255 - load_ppm(dataset.root / rel), dataset.root / "extra.ppm")
            dataset.entries.append(("extra.ppm", 4))
        else:
            del dataset.entries[3]
        dataset.save()
        self.check_miss(DatasetManifest.load(dataset.root), monkeypatch)

    def test_relabel_is_a_hit(self, dataset, monkeypatch):
        # labels come from the manifest, never from the cache, so a new
        # label decodes nothing and rewrites no cache
        before, _ = load_preprocessed(dataset, size=12)
        stamp = os.stat(self.cache(dataset)).st_mtime_ns
        rel, label = dataset.entries[1]
        dataset.entries[1] = (rel, (label + 1) % len(CLASS_CODES))
        dataset.save()
        relabelled = DatasetManifest.load(dataset.root)
        calls = counting_calls(monkeypatch)
        images, labels = load_preprocessed(relabelled, size=12)
        assert calls == {"load_ppm": 0, "resize_bilinear": 0,
                         "_scale_normalize": 0}
        assert images.tobytes() == before.tobytes()
        assert labels.tolist() == relabelled.labels.tolist()
        assert labels[1] == (label + 1) % len(CLASS_CODES)
        assert os.stat(self.cache(dataset)).st_mtime_ns == stamp

    @pytest.mark.parametrize("damage", ["truncate", "flip", "header"])
    def test_damaged_cache_is_a_miss_and_rewritten(self, dataset, monkeypatch,
                                                   damage):
        load_preprocessed(dataset, size=12)
        path = self.cache(dataset)
        good = path.read_bytes()
        raw = bytearray(good)
        if damage == "truncate":
            del raw[100:]
        elif damage == "flip":
            raw[-100] ^= 1   # a payload byte: only the crc32 notices
        else:
            raw[:10] = b"garbage!!!"
        path.write_bytes(bytes(raw))
        self.check_miss(dataset, monkeypatch)
        assert path.read_bytes() == good

    @pytest.mark.parametrize("step", ["open", "write", "replace"])
    def test_unwritable_cache_is_skipped(self, dataset, monkeypatch, step):
        # root ignores file modes, so each step of the write fails by patch
        denied = PermissionError(13, "Permission denied")
        real_open = open

        class FailingWrites:
            def __init__(self, f):
                self.f = f

            def write(self, content):
                raise OSError(28, "No space left on device")

            def close(self):
                self.f.close()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

        def guarded_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            if "w" not in mode:
                return f
            if step == "open":
                f.close()
                raise denied
            return FailingWrites(f) if step == "write" else f

        def failing_replace(src, dst):
            raise denied

        monkeypatch.setattr(data, "open", guarded_open, raising=False)
        if step == "replace":
            monkeypatch.setattr(os, "replace", failing_replace)
        before = sorted(dataset.root.rglob("*"))
        images, _ = load_preprocessed(dataset, size=12)
        assert images.tobytes() == fresh_load(dataset, 12).tobytes()
        assert sorted(dataset.root.rglob("*")) == before

    def test_no_resize_writes_no_cache(self, dataset):
        images, _ = load_preprocessed(dataset, size=20)
        assert images.tobytes() == fresh_load(dataset, 20).tobytes()
        assert not list(dataset.root.glob(".pixels-*"))

    def test_fresh_entry_writes_no_cache(self, tmp_path, monkeypatch):
        # a 1 s margin in place of 2 s: one entry rewritten just now
        # blocks the write until it is older than the margin
        monkeypatch.setattr(data, "_SETTLE_NS", 1_000_000_000)
        manifest = generate_synthetic(tmp_path, self.COUNTS, seed=8, size=20)
        time.sleep(1.1)
        rel = manifest.entries[0][0]
        save_ppm(255 - load_ppm(tmp_path / rel), tmp_path / rel)
        images, _ = load_preprocessed(manifest, size=12)
        assert images.tobytes() == fresh_load(manifest, 12).tobytes()
        assert not self.cache(manifest).exists()
        time.sleep(1.1)
        load_preprocessed(manifest, size=12)
        assert self.cache(manifest).is_file()

    def test_held_manifest_reads_a_rewritten_entry(self, dataset, monkeypatch):
        # a manifest loaded before the rewrite still gets the new pixels:
        # the cache is keyed by stats taken at each load
        manifest = DatasetManifest.load(dataset.root)
        load_preprocessed(manifest, size=12)
        assert self.cache(dataset).is_file()
        rel = dataset.entries[2][0]
        save_ppm(255 - load_ppm(dataset.root / rel), dataset.root / rel)
        self.check_miss(manifest, monkeypatch)

    @pytest.mark.parametrize("made", ["loaded", "generated"])
    def test_each_load_stats_each_entry_once(self, dataset, monkeypatch, made):
        # DatasetManifest.load stats no entry; a miss and a hit each stat
        # every entry once
        paths = sorted(str(dataset.root / rel) for rel, _ in dataset.entries)
        seen, real_stat = [], os.stat

        def counting_stat(path, *args, **kwargs):
            seen.append(str(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        manifest = {"loaded": DatasetManifest.load(dataset.root),
                    "generated": dataset}[made]
        assert not set(seen) & set(paths)
        for _ in range(2):
            seen.clear()
            load_preprocessed(manifest, size=12)
            assert sorted(p for p in seen if p in paths) == paths
            assert self.cache(dataset).is_file()

    def test_write_replaces_a_killed_writers_temp_file(self, dataset):
        # a killed load leaves <cache>.tmp; the next write of that cache
        # takes the name over and swaps it into place
        (dataset.root / ".pixels-12.cache.tmp").write_bytes(b"partial")
        load_preprocessed(dataset, size=12)
        assert self.cache(dataset).is_file()
        assert not list(dataset.root.glob("*.tmp"))

    def test_real_margin_skips_a_just_written_dataset(self, tmp_path):
        manifest = generate_synthetic(tmp_path, self.COUNTS, seed=8, size=20)
        load_preprocessed(manifest, size=12)
        assert not self.cache(manifest).exists()


class TestWriteAtomic:
    def test_parts_are_written_in_order(self, tmp_path):
        path = write_atomic(tmp_path / "f", "ab", b"cd",
                            np.arange(2, dtype=np.uint8))
        assert path.read_bytes() == b"abcd\x00\x01"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_keeps_a_temp_file_made_after_its_swap(self, tmp_path,
                                                   monkeypatch):
        # another writer of the same path opens <name>.tmp right after
        # this one's swap; a finished writer leaves that file alone
        real_replace = os.replace

        def replace_then_another_writer_opens(src, dst):
            real_replace(src, dst)
            (tmp_path / "f.tmp").write_bytes(b"another")

        monkeypatch.setattr(os, "replace", replace_then_another_writer_opens)
        write_atomic(tmp_path / "f", b"mine")
        assert (tmp_path / "f").read_bytes() == b"mine"
        assert (tmp_path / "f.tmp").read_bytes() == b"another"


WRITER = """
import sys, time
from gbmpatch.data import write_atomic
path, letter = sys.argv[1], sys.argv[2].encode()
print("ready", flush=True)
sys.stdin.readline()
end = time.monotonic() + float(sys.argv[3])
while time.monotonic() < end:
    write_atomic(path, *[letter * 4096] * 16)
"""


@pytest.mark.skipif(os.name != "posix", reason="flock is POSIX-only")
class TestConcurrentWriters:
    SIZE = 16 * 4096

    def test_two_processes_writing_one_path_take_turns(self, tmp_path):
        # each writer publishes 64 KiB of its own letter in 16 parts, over
        # and over for a second; neither may fail, and every read of the
        # path must be one writer's complete file
        target = tmp_path / "f"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        writers = [subprocess.Popen(
            [sys.executable, "-c", WRITER, str(target), letter, "1.0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, text=True) for letter in "ab"]
        try:
            for w in writers:
                assert w.stdout.readline() == "ready\n"
            for w in writers:
                w.stdin.write("go\n")
                w.stdin.flush()
            reads, torn = 0, []
            deadline = time.monotonic() + 60
            while (any(w.poll() is None for w in writers)
                   and time.monotonic() < deadline):
                try:
                    got = target.read_bytes()
                except FileNotFoundError:   # before the first swap
                    continue
                reads += 1
                if got not in (b"a" * self.SIZE, b"b" * self.SIZE):
                    torn.append((len(got), sorted(set(got))))
            errors = [w.stderr.read() for w in writers]
        finally:
            for w in writers:
                w.kill()
                w.wait()
        assert [w.returncode for w in writers] == [0, 0], errors
        assert reads and not torn, torn[:5]
        assert sorted(tmp_path.iterdir()) == [target]

    def test_waits_for_a_writer_until_it_is_killed(self, tmp_path):
        # a writer killed while it holds the temp file's lock leaves the
        # file behind; the next writer waits for the lock, which the
        # kernel drops with the killed process, and takes the file over
        target, tmp = tmp_path / "f", tmp_path / "f.tmp"
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import fcntl, sys, time\n"
             "f = open(sys.argv[1], 'wb')\n"
             "f.write(b'partial')\n"
             "f.flush()\n"
             "fcntl.flock(f, fcntl.LOCK_EX)\n"
             "print('locked', flush=True)\n"
             "time.sleep(60)\n", str(tmp)],
            stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "locked\n"
            writer = threading.Thread(target=write_atomic, args=(target, b"whole"),
                                      daemon=True)
            writer.start()
            writer.join(0.3)
            assert writer.is_alive() and not target.exists()
        finally:
            holder.kill()
            holder.wait()
        writer.join(10)
        assert not writer.is_alive()
        assert target.read_bytes() == b"whole"
        assert sorted(tmp_path.iterdir()) == [target]


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
