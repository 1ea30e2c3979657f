"""Image ingestion, preprocessing, and the synthetic 9-class patch generator.

Images are binary PPM (P6, maxval 255): dependency-free and bit-exact,
which keeps round-trip and determinism contracts testable. In memory an
image is its pixels, an (H, W, 3) uint8 array; its size is the array's
shape. The preprocessing chain is resize (bilinear, half-pixel centers) ->
scale to [0, 1] channel-major -> per-channel normalization with ImageNet
statistics. ``parse_json_object`` is the one parser of untrusted JSON
(manifests here, run manifests and checkpoint metadata).

The synthetic generator renders each class with its own texture family
(base hue, blob density, stripe frequency) so a dataset with a long-tailed
class profile can stand in for real histology patches.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DataError, DimensionError, ParameterError, PpmParseError

CLASS_CODES = ("CT", "PN", "MP", "NC", "IC", "WM", "LI", "DM", "PL")
N_CLASSES = len(CLASS_CODES)

# invented long-tailed profile: CT/NC head, LI/DM/PL tail; configurable
DEFAULT_PROFILE = (600, 150, 100, 450, 250, 200, 40, 25, 15)

MANIFEST_NAME = "manifest.json"


def class_index(code: str) -> int:
    try:
        return CLASS_CODES.index(code)
    except ValueError:
        raise DataError(f"unknown class code {code!r}; expected one of {CLASS_CODES}")


# per-channel mean/std applied after the [0, 1] rescale
IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)
CHANNELS = len(IMAGENET_MEAN)


# ----------------------------------------------------------------------
# PPM (P6) round trip

_WHITESPACE = b" \t\r\n\v\f"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        if data[pos:pos + 1] in (b"#",):
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        elif data[pos:pos + 1] in _WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos:pos + 1] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise PpmParseError(f"expected header token at byte {start}, found end of file")
    return data[start:pos], pos


def load_ppm(path) -> np.ndarray:
    """Parse a binary P6 PPM with maxval 255 into an (H, W, 3) uint8 array."""
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic != b"P6":
        raise PpmParseError(f"bad magic {magic!r} at byte 0, expected P6")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        if not token.isdigit():
            raise PpmParseError(
                f"non-numeric {name} {token!r} at byte {pos - len(token)}")
        fields.append(int(token))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PpmParseError(f"zero-sized image {width}x{height} in header")
    if maxval != 255:
        raise PpmParseError(
            f"unsupported maxval {maxval} at byte {pos - len(str(maxval))}, "
            "only 255 is handled")
    pos += 1  # single whitespace byte separates header from raster
    expected = width * height * 3
    raster = data[pos:pos + expected]
    if len(raster) != expected:
        raise PpmParseError(
            f"raster truncated at byte {pos + len(raster)}, "
            f"expected {expected} bytes from byte {pos}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()


def save_ppm(pixels: np.ndarray, path):
    """Write an (H, W, 3) uint8 array as a binary P6 PPM."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise DimensionError(
            f"expected an (H, W, 3) uint8 array, got {pixels.dtype} {pixels.shape}")
    height, width, _ = pixels.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    write_atomic(path, header + pixels.tobytes())


# ----------------------------------------------------------------------
# preprocessing chain


def resize_bilinear(pixels: np.ndarray, width: int = 224,
                    height: int = 224) -> np.ndarray:
    """Bilinear resample with half-pixel-centered sampling.

    A same-size call returns an identical copy, so the resize is a no-op
    on already-conforming inputs.
    """
    src_h, src_w = pixels.shape[:2]
    if src_w < 1 or src_h < 1:
        raise DimensionError("source image must be at least 1x1")
    if (src_w, src_h) == (width, height):
        return pixels.copy()

    src = pixels.astype(np.float64)
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

    out = (src[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
           + src[np.ix_(y0, x1)] * (1 - fy) * fx
           + src[np.ix_(y1, x0)] * fy * (1 - fx)
           + src[np.ix_(y1, x1)] * fy * fx)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def to_tensor(pixels: np.ndarray, size: int = 224) -> np.ndarray:
    """Bytes to float32 in [0, 1], rearranged channel-major (3, size, size)."""
    if pixels.shape[:2] != (size, size):
        raise DimensionError(
            f"expected a {size}x{size} image, got shape {pixels.shape}")
    return (pixels.astype(np.float32) / 255.0).transpose(2, 0, 1)


def normalize(t: np.ndarray) -> np.ndarray:
    """Per-channel (t - mean) / std with the ImageNet statistics."""
    if t.ndim != 3 or t.shape[0] != CHANNELS:
        raise DimensionError(f"expected a ({CHANNELS}, H, W) tensor, got {t.shape}")
    mean = np.asarray(IMAGENET_MEAN, dtype=t.dtype).reshape(CHANNELS, 1, 1)
    std = np.asarray(IMAGENET_STD, dtype=t.dtype).reshape(CHANNELS, 1, 1)
    return (t - mean) / std


def preprocess(pixels: np.ndarray, size: int = 224) -> np.ndarray:
    """resize -> to_tensor -> normalize, in that order."""
    return normalize(to_tensor(resize_bilinear(pixels, size, size), size))


# ----------------------------------------------------------------------
# dataset manifest


def write_atomic(path, content) -> Path:
    """Write text or bytes to a sibling temp file, then swap it into place.

    Readers see either the old file or the complete new one, never a
    partial write; the temp file is removed if the write or swap fails.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(content, str):
        content = content.encode("utf-8")
    try:
        tmp.write_bytes(content)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def parse_json_object(text, where: str) -> dict:
    """Parse untrusted JSON text or bytes that must hold an object.

    Undecodable bytes, malformed or too deeply nested JSON, and any other
    top-level value raise ``DataError`` naming ``where``.
    """
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:   # incl. UnicodeDecodeError
        raise DataError(f"{where} is not valid JSON: {exc}")
    if not isinstance(value, dict):
        raise DataError(f"{where} is not a JSON object")
    return value


@dataclass
class DatasetManifest:
    """On-disk description of a labeled patch dataset."""

    root: Path
    entries: list = field(default_factory=list)   # (relative path, class index)
    seed: Optional[int] = None

    @property
    def labels(self) -> np.ndarray:
        return np.asarray([label for _, label in self.entries], dtype=np.int64)

    def class_counts(self) -> np.ndarray:
        counts = np.zeros(N_CLASSES, dtype=np.int64)
        for _, label in self.entries:
            counts[label] += 1
        return counts

    def save(self):
        payload = {
            "seed": self.seed,
            "entries": [{"path": rel, "label": CLASS_CODES[label]}
                        for rel, label in self.entries],
        }
        # written last and swapped in atomically: a half-finished dataset
        # never carries a valid-looking manifest
        return write_atomic(Path(self.root) / MANIFEST_NAME,
                            json.dumps(payload, indent=1) + "\n")

    @classmethod
    def load(cls, root) -> "DatasetManifest":
        root = Path(root)
        path = root / MANIFEST_NAME
        if not path.is_file():
            raise DataError(f"no {MANIFEST_NAME} under {root}")
        payload = parse_json_object(path.read_bytes(), f"manifest {path}")
        items = payload.get("entries", [])
        if not isinstance(items, list):
            raise DataError(f"manifest {path}: entries is not a list")
        entries = []
        for item in items:
            if not (isinstance(item, dict) and isinstance(item.get("path"), str)
                    and "label" in item):
                raise DataError(
                    f"manifest {path}: entry {item!r} needs a string path "
                    "and a label")
            rel = item["path"]
            if Path(rel).is_absolute() or ".." in Path(rel).parts:   # lexical
                raise DataError(f"manifest {path}: {rel!r} leaves the dataset root")
            label = class_index(item["label"])
            try:
                present = (root / rel).is_file()
            except OSError:   # e.g. a name too long for the file system
                present = False
            if not present:
                raise DataError(f"manifest lists missing file {root / rel}")
            entries.append((rel, label))
        return cls(root=root, entries=entries, seed=payload.get("seed"))


def load_preprocessed(manifest: DatasetManifest, size: int = 224):
    """Load every manifest entry into (N, 3, size, size) float32 + labels."""
    if not manifest.entries:
        raise DataError(f"dataset {manifest.root} holds no patches")
    images = np.empty((len(manifest.entries), 3, size, size), dtype=np.float32)
    for i, (rel, _) in enumerate(manifest.entries):
        images[i] = preprocess(load_ppm(Path(manifest.root) / rel), size)
    return images, manifest.labels


# ----------------------------------------------------------------------
# synthetic long-tailed generator

# base hue per class, chosen well apart so classes are linearly separable
_BASE_COLORS = np.array([
    [196, 120, 160],   # CT
    [120, 60, 130],    # PN
    [200, 60, 60],     # MP
    [240, 200, 190],   # NC
    [140, 170, 210],   # IC
    [230, 230, 215],   # WM
    [90, 140, 90],     # LI
    [160, 110, 60],    # DM
    [70, 80, 170],     # PL
], dtype=np.float64)

_BLOB_COUNTS = (18, 10, 26, 4, 12, 6, 20, 30, 14)
_STRIPE_FREQS = (0.0, 6.0, 2.5, 0.0, 4.0, 1.5, 8.0, 3.0, 10.0)


def _render_patch(label: int, rng: np.random.Generator, size: int) -> np.ndarray:
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


def generate_synthetic(root, counts: Sequence[int] = DEFAULT_PROFILE,
                       seed: int = 0, size: int = 224) -> DatasetManifest:
    """Write a labeled synthetic dataset under root/<class_code>/<seq>.ppm.

    Each class draws from its own texture family; per-sample jitter comes
    from a generator seeded by (seed, class, index), so the same seed
    reproduces every file bit for bit.
    """
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    if size < 1:
        raise ParameterError(f"patch size must be at least 1, got {size}")
    counts = list(counts)
    if len(counts) != N_CLASSES:
        raise DataError(f"need {N_CLASSES} class counts, got {len(counts)}")
    if any(c < 0 for c in counts) or not any(counts):
        raise DataError(
            f"counts must be nonnegative and not all zero, got {counts}")
    root = Path(root)
    manifest = DatasetManifest(root=root, entries=[], seed=seed)
    for label, count in enumerate(counts):
        class_dir = root / CLASS_CODES[label]
        if count > 0:
            class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            rng = np.random.default_rng([seed, label, i])
            try:
                rel = f"{CLASS_CODES[label]}/{i:04d}.ppm"
                save_ppm(_render_patch(label, rng, size), root / rel)
            except OSError as exc:
                raise DataError(f"failed writing {root / rel}: {exc}")
            manifest.entries.append((rel, label))
    root.mkdir(parents=True, exist_ok=True)
    manifest.save()
    return manifest
