"""Self-describing checkpoint format with a bit-exact round trip.

Layout: a text header (magic line, one JSON metadata line, a parameter
count, then one ``name<TAB>(shape)`` line per parameter, a ``DATA``
sentinel) followed by every parameter as raw little-endian float32,
concatenated in listing order. The listing alone fixes the blob: each
parameter starts where the one before it ends, the sizes it lists must
add up to the blob's length exactly, and no name may appear twice.
Everything needed to rebuild the model lives in the metadata line, so a
file is loadable without knowing the configuration that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .data import parse_json_object, write_atomic
from .encoder import EncoderConfig
from .errors import ContractError, DataError
from .head import HeadConfig
from .model import PatchClassifier, parameter_shapes

MAGIC = b"GBMPATCH-CKPT-2"
BLOB_DTYPE = "<f4"


def save_checkpoint(path, params: Dict[str, "np.ndarray"], meta: dict):
    """Write named arrays plus a JSON metadata dict; names are UTF-8 text
    without the tab or newline that delimit the listing."""
    lines = [MAGIC, json.dumps(meta, sort_keys=True).encode("utf-8"),
             str(len(params)).encode("ascii")]
    blobs = []
    for name, value in params.items():
        if "\t" in name or "\n" in name:
            raise ContractError(f"parameter name {name!r} holds a tab or newline")
        arr = np.asarray(value).astype(BLOB_DTYPE, copy=False)
        shape = ",".join(str(n) for n in arr.shape)
        lines.append(f"{name}\t({shape})".encode("utf-8"))
        blobs.append(arr.tobytes())
    lines.append(b"DATA")
    write_atomic(path, b"\n".join(lines) + b"\n" + b"".join(blobs))


def _parse_entry(entry: bytes, path) -> tuple:
    """One ``name<TAB>(shape)`` listing line -> (name, shape)."""
    try:
        name, text = entry.decode("utf-8").split("\t")
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(text)
        inner = text[1:-1]
        shape = tuple(int(n) for n in inner.split(",")) if inner else ()
    except ValueError:
        raise DataError(f"malformed listing line {entry!r} in {path}")
    if any(n < 0 for n in shape):
        raise DataError(f"negative dimension in listing line {entry!r} in {path}")
    return name, shape


def load_checkpoint(path) -> Tuple[Dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    head, sep, blob = raw.partition(b"\nDATA\n")
    if not sep:
        raise DataError(f"{path} has no DATA sentinel; not a checkpoint")
    lines = head.split(b"\n")
    if lines[0] != MAGIC:
        raise DataError(f"{path} has magic {lines[0][:20]!r}, expected {MAGIC!r}")
    if len(lines) < 3:
        raise DataError(f"{path} header stops before the parameter count")
    meta = parse_json_object(lines[1], f"{path} metadata")
    try:
        count = int(lines[2])
    except ValueError:
        raise DataError(f"{path} parameter count line is unreadable")
    listing = [_parse_entry(entry, path) for entry in lines[3:]]
    if len(listing) != count:
        raise DataError(
            f"{path} lists {len(listing)} parameters, header promised {count}")
    sizes = [math.prod(shape) for _, shape in listing]
    listed = sum(sizes) * np.dtype(BLOB_DTYPE).itemsize
    if listed != len(blob):
        raise DataError(
            f"{path}: listing covers {listed} bytes but blob holds {len(blob)}")

    params: Dict[str, np.ndarray] = {}
    pieces = np.split(np.frombuffer(blob, dtype=BLOB_DTYPE), np.cumsum(sizes)[:-1])
    for (name, shape), piece in zip(listing, pieces):
        if name in params:
            raise DataError(f"{path} lists parameter {name!r} twice")
        try:
            params[name] = piece.reshape(shape).copy()
        except ValueError as exc:   # more axes or a longer axis than numpy allows
            raise DataError(f"{path}: parameter {name} shape {shape}: {exc}")
    return params, meta


def save_model(path, model: PatchClassifier, extra_meta: Optional[dict] = None):
    meta = {
        "encoder": asdict(model.enc_cfg),
        "head": asdict(model.head_cfg),
    }
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, {k: v.data for k, v in model.parameters().items()},
                    meta)


def load_model(path) -> Tuple[PatchClassifier, dict]:
    """Rebuild a classifier from a checkpoint; weights load bit for bit.
    The listing is checked against the metadata's shapes before any model
    exists, so a load allocates no parameter and draws nothing."""
    params, meta = load_checkpoint(path)
    # ValueError: a config's ParameterError, or the size check below
    try:
        enc_cfg = EncoderConfig(**meta["encoder"])
        head_cfg = HeadConfig(**meta["head"])
        # a float size would pass the shape check and break the forward,
        # and a depth past the listing's length would only grow the table
        sizes = (*astuple(enc_cfg), head_cfg.bottleneck)
        if any(type(n) is not int for n in sizes) or enc_cfg.depth > len(params):
            raise ValueError(f"sizes {sizes} are not integers that fit "
                             f"{len(params)} listed parameters")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} metadata does not describe a model: {exc}")
    shapes = parameter_shapes(enc_cfg, head_cfg)
    missing = sorted(set(shapes) - set(params))
    extra = sorted(set(params) - set(shapes))
    if missing or extra:
        raise DataError(
            f"{path} parameter names do not match the model "
            f"(missing {missing[:3]}, extra {extra[:3]})")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise DataError(
                f"{path} metadata does not describe a model: {name} has "
                f"shape {params[name].shape}, the metadata gives {shape}")
    return PatchClassifier.from_arrays(enc_cfg, head_cfg, params), meta
