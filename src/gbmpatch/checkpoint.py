"""Self-describing checkpoint format with a bit-exact round trip.

Layout: a text header (magic line, one JSON metadata line, a parameter
count, then one ``name<TAB>shape<TAB>byte-offset`` line per parameter, a
``DATA`` sentinel) followed by every parameter as raw little-endian
float32, concatenated in listing order. Everything needed to rebuild the
model lives in the metadata line, so a file is loadable without knowing
the configuration that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .data import write_atomic
from .encoder import EncoderConfig
from .errors import ContractError, DataError
from .head import HeadConfig
from .model import PatchClassifier

MAGIC = b"GBMPATCH-CKPT-1"
BLOB_DTYPE = "<f4"


def save_checkpoint(path, params: Dict[str, "np.ndarray"], meta: dict):
    """Write named arrays plus a JSON metadata dict; names are UTF-8 text
    without the tab or newline that delimit the listing."""
    lines = [MAGIC, json.dumps(meta, sort_keys=True).encode("utf-8"),
             str(len(params)).encode("ascii")]
    blobs = []
    offset = 0
    for name, value in params.items():
        if "\t" in name or "\n" in name:
            raise ContractError(f"parameter name {name!r} holds a tab or newline")
        arr = np.asarray(value).astype(BLOB_DTYPE, copy=False)
        shape = ",".join(str(n) for n in arr.shape)
        lines.append(f"{name}\t({shape})\t{offset}".encode("utf-8"))
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    lines.append(b"DATA")
    write_atomic(path, b"\n".join(lines) + b"\n" + b"".join(blobs))


def _parse_shape(text: str, path) -> tuple:
    if not (text.startswith("(") and text.endswith(")")):
        raise DataError(f"bad shape field {text!r} in {path}")
    inner = text[1:-1]
    if not inner:
        return ()
    try:
        shape = tuple(int(n) for n in inner.split(","))
    except ValueError:
        raise DataError(f"bad shape field {text!r} in {path}")
    if any(n < 0 for n in shape):
        raise DataError(f"negative dimension in shape field {text!r} in {path}")
    return shape


def load_checkpoint(path) -> Tuple[Dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    head, sep, _ = raw.partition(b"\nDATA\n")
    if not sep:
        raise DataError(f"{path} has no DATA sentinel; not a checkpoint")
    blob = raw[len(head) + len(sep):]
    lines = head.split(b"\n")
    if lines[0] != MAGIC:
        raise DataError(f"{path} has magic {lines[0][:20]!r}, expected {MAGIC!r}")
    try:
        meta = json.loads(lines[1].decode("utf-8"))
    except (IndexError, ValueError, RecursionError) as exc:
        raise DataError(f"{path} metadata line is unreadable: {exc}")
    if not isinstance(meta, dict):
        raise DataError(f"{path} metadata is not a JSON object")
    try:
        count = int(lines[2])
    except (IndexError, ValueError):
        raise DataError(f"{path} parameter count line is unreadable")
    entries = lines[3:]
    if len(entries) != count:
        raise DataError(
            f"{path} lists {len(entries)} parameters, header promised {count}")

    params: Dict[str, np.ndarray] = {}
    itemsize = np.dtype(BLOB_DTYPE).itemsize
    for entry in entries:
        try:
            name, shape_text, offset_text = entry.decode("utf-8").split("\t")
            offset = int(offset_text)
        except ValueError:
            raise DataError(f"malformed listing line {entry!r} in {path}")
        if offset < 0:
            raise DataError(f"negative offset in listing line {entry!r} in {path}")
        shape = _parse_shape(shape_text, path)
        nbytes = math.prod(shape) * itemsize
        if offset + nbytes > len(blob):
            raise DataError(
                f"{path}: parameter {name} needs bytes [{offset}, "
                f"{offset + nbytes}) but blob holds {len(blob)}")
        try:
            params[name] = np.frombuffer(
                blob[offset:offset + nbytes], dtype=BLOB_DTYPE).reshape(shape).copy()
        except ValueError as exc:
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
    """Rebuild a classifier from a checkpoint; weights load bit for bit."""
    params, meta = load_checkpoint(path)
    # ValueError: a config's ParameterError, or a shape numpy cannot allocate
    try:
        model = PatchClassifier(EncoderConfig(**meta["encoder"]),
                                HeadConfig(**meta["head"]), seed=0)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} metadata does not describe a model: {exc}")
    expected = model.parameters()
    missing = sorted(set(expected) - set(params))
    extra = sorted(set(params) - set(expected))
    if missing or extra:
        raise DataError(
            f"{path} parameter names do not match the model "
            f"(missing {missing[:3]}, extra {extra[:3]})")
    for name, tensor in expected.items():
        if params[name].shape != tensor.shape:
            raise DataError(
                f"{path}: {name} has shape {params[name].shape}, "
                f"model expects {tensor.shape}")
        tensor.data[...] = params[name]
    return model, meta
