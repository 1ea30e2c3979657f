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

import contextlib
import functools
import json
import math
import os
import re
import stat
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

try:
    import fcntl
except ImportError:   # not POSIX: writers of one path are not serialised
    fcntl = None

import numpy as np

from .errors import DataError, DimensionError, PpmParseError, as_int

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


def _next_token(data: bytearray, pos: int) -> tuple[bytes, int]:
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
    return bytes(data[start:pos]), pos


def load_ppm(path) -> np.ndarray:
    """Parse a binary P6 PPM with maxval 255 into an (H, W, 3) uint8 array.

    The array is a writable view of a buffer of its own, so the raster is
    copied once, from the file.
    """
    with open(path, "rb") as f:
        data = bytearray(os.fstat(f.fileno()).st_size)
        del data[f.readinto(data):]
        data += f.read()   # a pipe has no size; a file may have grown
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
    present = max(len(data) - pos, 0)
    if present < expected:
        raise PpmParseError(
            f"raster truncated at byte {pos + present}, "
            f"expected {expected} bytes from byte {pos}")
    return np.frombuffer(data, np.uint8, expected, pos).reshape(height, width, 3)


def _check_pixels(pixels: np.ndarray):
    """Raise ``DimensionError`` unless ``pixels`` is an (H, W, 3) uint8 image."""
    if (pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3
            or 0 in pixels.shape):
        raise DimensionError(
            f"expected an (H, W, 3) uint8 array, got {pixels.dtype} {pixels.shape}")


def save_ppm(pixels: np.ndarray, path):
    """Write an (H, W, 3) uint8 array as a binary P6 PPM."""
    _check_pixels(pixels)
    height, width, _ = pixels.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    write_atomic(path, header + pixels.tobytes())


# ----------------------------------------------------------------------
# preprocessing chain


@functools.lru_cache(maxsize=16)
def _resize_plan(src_h: int, src_w: int, height: int, width: int) -> tuple:
    """Source rows, byte columns and weights of one resample geometry.

    Columns index the (src_h, src_w * 3) row view of the pixels, where
    pixel x, channel c is byte 3x + c. Every call of a geometry shares the
    arrays, so they are read-only.
    """
    xs = np.clip((np.arange(width) + 0.5) * (src_w / width) - 0.5,
                 0.0, src_w - 1.0)
    ys = np.clip((np.arange(height) + 0.5) * (src_h / height) - 0.5,
                 0.0, src_h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, src_w - 1)
    y1 = np.minimum(y0 + 1, src_h - 1)
    fx = xs - x0
    fy = ys - y0
    channel = np.arange(CHANNELS)
    plan = (y0, y1,
            (x0[:, None] * CHANNELS + channel).ravel(),
            (x1[:, None] * CHANNELS + channel).ravel(),
            (1 - fy)[:, None], fy[:, None],
            np.repeat(1 - fx, CHANNELS)[None, :], np.repeat(fx, CHANNELS)[None, :])
    for array in plan:
        array.setflags(write=False)
    return plan


def resize_bilinear(pixels: np.ndarray, width: int = 224,
                    height: int = 224) -> np.ndarray:
    """Bilinear resample of an (H, W, 3) uint8 image, half-pixel centered.

    A same-size call returns an identical copy, so the resize is a no-op
    on already-conforming inputs.
    """
    _check_pixels(pixels)
    width = as_int(width, "resize width", 1)
    height = as_int(height, "resize height", 1)
    src_h, src_w, _ = pixels.shape
    if (src_w, src_h) == (width, height):
        return pixels.copy()

    y0, y1, cols0, cols1, wy0, wy1, wx0, wx1 = _resize_plan(
        src_h, src_w, height, width)
    rows = pixels.reshape(src_h, src_w * CHANNELS)
    top, bottom = rows.take(y0, axis=0), rows.take(y1, axis=0)

    def term(block, cols, wy, wx):
        # (corner · y weight) · x weight in float64; the uint8 corner
        # converts exactly
        t = np.multiply(block.take(cols, axis=1), wy)
        t *= wx
        return t

    # the four terms add left to right, as in the plain formula
    out = term(top, cols0, wy0, wx0)
    out += term(top, cols1, wy0, wx1)
    out += term(bottom, cols0, wy1, wx0)
    out += term(bottom, cols1, wy1, wx1)
    np.rint(out, out=out)
    np.clip(out, 0, 255, out=out)
    return out.astype(np.uint8).reshape(height, width, CHANNELS)


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


# normalize(to_tensor(pixels))[c, y, x] is a function of the channel c and
# the byte pixels[y, x, c] alone, so the chain is run once, on a 16x16
# image holding every byte value in every channel: row c, column v is the
# float32 value of byte v in channel c
_BYTE_TABLE = normalize(to_tensor(np.repeat(
    np.arange(256, dtype=np.uint8).reshape(16, 16, 1), CHANNELS, axis=2),
    16)).reshape(CHANNELS, 256)
_BYTE_TABLE.setflags(write=False)


def _scale_normalize(pixels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``normalize(to_tensor(pixels))`` bit for bit, written into ``out``."""
    for c in range(CHANNELS):
        # a byte is always a valid index, so "clip" never acts; unlike the
        # default mode it lets take write into out without a buffer
        np.take(_BYTE_TABLE[c], pixels[..., c], out=out[c], mode="clip")
    return out


def preprocess(pixels: np.ndarray, size: int = 224) -> np.ndarray:
    """resize -> to_tensor -> normalize, in that order, bit for bit."""
    pixels = resize_bilinear(pixels, size, size)
    return _scale_normalize(pixels, np.empty((CHANNELS, size, size), np.float32))


# ----------------------------------------------------------------------
# dataset manifest


def _lock_temp(tmp: Path) -> int:
    """A descriptor that holds an exclusive ``flock`` on the file named
    ``tmp``, made if missing.

    Writers of one path share that name. The lock makes a second writer
    wait until the first has renamed its file into place or died (the
    kernel drops a killed writer's lock), and the inode check makes it
    lock again when the file it waited on is no longer the one named
    ``tmp``.
    """
    while True:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            if os.path.samestat(os.fstat(fd), os.stat(tmp)):
                return fd
        except FileNotFoundError:   # renamed or removed while we waited
            pass
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)


def write_atomic(path, *parts) -> Path:
    """Write text or bytes-like parts, in order, to ``<name>.tmp``, then
    swap it into place.

    Readers see either the old file or the complete new one, never a
    partial write. Concurrent writers of one path take turns on the temp
    file under ``_lock_temp`` (POSIX only; elsewhere they are not
    serialised). The temp file is removed only if the write or swap fails,
    while this writer holds it, so a finished writer never deletes one
    that another writer of the same path has opened since.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    lock = None if fcntl is None else _lock_temp(tmp)
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)   # under the lock: a waiting writer locks again
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    finally:
        if lock is not None:
            os.close(lock)
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
    """On-disk description of a labeled patch dataset. ``load`` checks the
    document only (its JSON shape, its labels, paths inside ``root``);
    ``load_preprocessed`` checks that each entry is a regular file."""

    root: Path
    entries: list = field(default_factory=list)   # (relative path, class index)
    seed: Optional[int] = None

    @property
    def labels(self) -> np.ndarray:
        return np.asarray([label for _, label in self.entries], dtype=np.int64)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=N_CLASSES)

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
            entries.append((rel, class_index(item["label"])))
        return cls(root=root, entries=entries, seed=payload.get("seed"))


# the first line of an image cache; bump it whenever load_ppm or
# resize_bilinear would return other pixels for the same file (the size
# line names the dtype and the crc32 of _BYTE_TABLE, so a change of the
# normalization is a miss without a bump)
_CACHE_FORMAT = b"gbmpatch image cache 2\n"
# a file whose inode changed this recently may change again within the same
# timestamp tick without its stat showing it (git's "racy" files)
_SETTLE_NS = 2_000_000_000


def load_preprocessed(manifest: DatasetManifest, size: int = 224):
    """Load every manifest entry into (N, 3, size, size) float32 + labels.

    Each entry is stat'ed once, here; one that is not a regular file raises
    ``DataError``. The finished images are kept in
    ``<root>/.pixels-<size>.cache``, keyed by their dtype, the
    normalization table and each entry's path and stat, so a later load of
    the same files reads them back in one read, without decoding, resizing
    or normalizing, and gets the same bytes. The labels always come from
    the manifest, so a relabel is still a hit. The cache is written only
    when the first entry needed a resize and every entry's inode changed
    more than ``_SETTLE_NS`` before the clock read taken just before the
    stats, so a rewrite within one timestamp tick is never served stale;
    an unwritable cache is skipped silently.
    """
    size = as_int(size, "image size", 1)
    if not manifest.entries:
        raise DataError(f"dataset {manifest.root} holds no patches")
    images = np.empty((len(manifest.entries), CHANNELS, size, size),
                      dtype=np.float32)
    root = Path(manifest.root)
    start = time.time_ns()
    stats = [_stat_entry(root / rel) for rel, _ in manifest.entries]
    header = _CACHE_FORMAT + (
        f"size {size} {images.dtype.str} "
        f"{zlib.crc32(_BYTE_TABLE.tobytes()):08x}\n" + "".join(
            f"{ascii(rel)} {st.st_size} {st.st_ino} "
            f"{st.st_mtime_ns} {st.st_ctime_ns}\n"
            for (rel, _), st in zip(manifest.entries, stats))).encode()
    cache = root / f".pixels-{size}.cache"
    if _read_cache(cache, header, images):
        return images, manifest.labels
    for i, (rel, _) in enumerate(manifest.entries):
        # load_ppm and resize_bilinear are looked up in the module on
        # every call, so a patched one sees each
        raw = load_ppm(root / rel)
        pixels = resize_bilinear(raw, size, size)
        _scale_normalize(pixels, images[i])
        if i == 0:
            resized = pixels.shape != raw.shape
    if resized and all(st.st_ctime_ns < start - _SETTLE_NS for st in stats):
        with contextlib.suppress(OSError):   # a read-only root or a full disk
            write_atomic(cache, header, images,
                         zlib.crc32(images).to_bytes(4, "big"))
    return images, manifest.labels


def _stat_entry(path: Path) -> os.stat_result:
    """``os.stat(path)``; ``DataError`` unless it is a regular file."""
    with contextlib.suppress(OSError, ValueError):   # e.g. a long name, a NUL
        st = os.stat(path)
        if stat.S_ISREG(st.st_mode):
            return st
    raise DataError(f"manifest lists missing file {path}")


def _read_cache(path: Path, header: bytes, images: np.ndarray) -> bool:
    """Fill ``images`` from a cache holding ``header``, then the bytes of
    ``images`` and their big-endian crc32.

    False on any mismatch or read error; ``images`` then holds garbage.
    """
    try:
        with open(path, "rb") as f:
            return (os.fstat(f.fileno()).st_size
                    == len(header) + images.nbytes + 4
                    and f.read(len(header)) == header
                    and f.readinto(images) == images.nbytes
                    and f.read() == zlib.crc32(images).to_bytes(4, "big"))
    except OSError:
        return False


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


def _blob_span(centre: float, radius: float, size: int) -> slice:
    """Pixel rows (or columns) a blob can cover, padded by one on each side.

    Every pixel outside the span is over a pixel from the disc's edge, far
    beyond rounding, so the blob mask is false there.
    """
    return slice(max(math.floor((centre - radius) * size) - 1, 0),
                 min(math.ceil((centre + radius) * size) + 2, size))


def _render_patch(label: int, rng: np.random.Generator, size: int) -> np.ndarray:
    color = _BASE_COLORS[label] + rng.normal(0.0, 8.0, size=3)
    canvas = np.empty((size, size, 3))   # first, so a huge size fails at once
    canvas[...] = color
    # pixel (i, j) sits at (ramp[i], ramp[j]); rows and columns broadcast
    ramp = np.arange(size, dtype=np.float64) / size

    freq = _STRIPE_FREQS[label]
    if freq > 0:
        theta = rng.uniform(0, np.pi)
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(2 * np.pi * freq * (ramp[None, :] * np.cos(theta)
                                          + ramp[:, None] * np.sin(theta))
                      + phase)
        canvas += wave[:, :, None] * rng.uniform(10.0, 25.0)

    blob_color = _BASE_COLORS[label] * 0.55 + rng.normal(0.0, 10.0, size=3)
    for _ in range(_BLOB_COUNTS[label]):
        cy, cx = rng.uniform(0, 1, size=2)
        radius = rng.uniform(0.02, 0.08)
        rows, cols = _blob_span(cy, radius, size), _blob_span(cx, radius, size)
        mask = ((ramp[rows, None] - cy) ** 2 + (ramp[None, cols] - cx) ** 2
                < radius ** 2)
        canvas[rows, cols][mask] = blob_color

    canvas += rng.normal(0.0, 6.0, size=canvas.shape)
    np.rint(canvas, out=canvas)
    np.clip(canvas, 0, 255, out=canvas)
    return canvas.astype(np.uint8)


def _make_dirs(path: Path) -> list:
    """``mkdir -p`` that returns the directories it made, outermost first."""
    missing = [p for p in (path, *path.parents) if not p.exists()][::-1]
    path.mkdir(parents=True, exist_ok=True)
    return missing


def _write_patch(root: Path, seed: int, size: int, task: tuple) -> tuple:
    """Render and save patch ``task = (label, i)``; its manifest entry."""
    label, i = task
    rng = np.random.default_rng([seed, label, i])
    rel = f"{CLASS_CODES[label]}/{i:04d}.ppm"
    try:
        save_ppm(_render_patch(label, rng, size), root / rel)
    except OSError as exc:
        raise DataError(f"failed writing {root / rel}: {exc}")
    return rel, label


def _remove_patch_files(root: Path, pattern: str, keep=frozenset()):
    """Delete root/<class>/<name> files whose name matches ``pattern``.

    Entries in ``keep`` (manifest-relative paths) and every file whose
    name does not match stay untouched.
    """
    for code in CLASS_CODES:
        folder = root / code
        if not folder.is_dir():
            continue
        for path in folder.iterdir():
            if (re.fullmatch(pattern, path.name) and path.is_file()
                    and f"{code}/{path.name}" not in keep):
                path.unlink()


# Datasets with fewer patch pixels than this render in-process. Only the
# rendering speeds up in a pool, not the file writes, and a pool takes ~11
# ms to start and join. 2-core VM, OpenBLAS on one thread, medians of 11
# runs, in-process against 2 workers: 18 patches of 224 px (0.9 M pixels)
# 133 against 168 ms, 27 of 224 px (1.35 M) 214 against 149 ms, 216 of
# 64 px (0.88 M) 409 against 280 ms, 63 of 16 px 84 against 138 ms.
_POOL_MIN_PIXELS = 1 << 20
_POOL_CHUNK = 4   # patches per task sent to a worker


def generate_synthetic(root, counts: Sequence[int] = DEFAULT_PROFILE,
                       seed: int = 0, size: int = 224) -> DatasetManifest:
    """Write a labeled synthetic dataset under root/<class_code>/<seq>.ppm.

    Each class draws from its own texture family; per-sample jitter comes
    from a generator seeded by (seed, class, index), so the same seed
    reproduces every file bit for bit. Patches are rendered on every CPU
    the process may run on, or in-process where ``os`` cannot list them
    (macOS, Windows), and the output is the same whatever their number.
    Generator-named files (<class_code>/<digits>.ppm) that the new
    manifest does not list, left by an earlier dataset, are removed.
    """
    seed, size = as_int(seed, "seed", 0), as_int(size, "patch size", 1)
    counts = [as_int(count, "class count") for count in counts]
    if len(counts) != N_CLASSES:
        raise DataError(f"need {N_CLASSES} class counts, got {len(counts)}")
    if any(c < 0 for c in counts) or not any(counts):
        raise DataError(
            f"counts must be nonnegative and not all zero, got {counts}")
    root = Path(root)
    manifest = DatasetManifest(root=root, entries=[], seed=seed)
    write = functools.partial(_write_patch, root, seed, size)
    tasks = [(label, i) for label, count in enumerate(counts)
             for i in range(count)]
    workers = (min(len(os.sched_getaffinity(0)), len(tasks))
               if hasattr(os, "sched_getaffinity") else 1)
    created = []   # directories this call made, outermost first
    try:
        for label, count in enumerate(counts):
            if count > 0:
                created += _make_dirs(root / CLASS_CODES[label])
        if workers > 1 and len(tasks) * size * size >= _POOL_MIN_PIXELS:
            # Fork is named because Python 3.14 makes another start method
            # the Linux default; unlike spawn, its workers start without
            # importing numpy again. Forking is safe here: a child only
            # draws random numbers, runs elementwise numpy and writes
            # files, and never calls into BLAS, whose threads do not
            # survive a fork. Imported here, as cv and eval never fork.
            import multiprocessing
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                manifest.entries = list(pool.imap(write, tasks, _POOL_CHUNK))
        else:
            manifest.entries = list(map(write, tasks))
        manifest.save()
        _remove_patch_files(root, r"[0-9]+\.ppm",
                            keep={rel for rel, _ in manifest.entries})
    except BaseException:
        # a failed run leaves no temp file (a terminated worker may die
        # mid-write) and no empty directory to block its retry
        with contextlib.suppress(OSError):
            _remove_patch_files(root, r"[0-9]+\.ppm\.tmp")
        for path in reversed(created):
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    return manifest
