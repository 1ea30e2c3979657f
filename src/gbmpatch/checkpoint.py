"""The model checkpoint: its configs and its weights, bit for bit.

Layout: a magic line ``GBMPATCH-CKPT-3 <crc32>``, one JSON line of the
configs plus any extra metadata, then every weight as little-endian
float32 in ``model.parameter_shapes`` order. The configs fix each name,
shape and size, so the file lists none; the crc32 of the ``name<TAB>shape``
table they give keeps a file saved under another table out of the wrong
weights.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .data import parse_json_object, write_atomic
from .encoder import EncoderConfig, encoder_table
from .errors import DataError
from .head import HeadConfig
from .model import PatchClassifier, parameter_shapes

MAGIC = b"GBMPATCH-CKPT-3"
BLOB_DTYPE = "<f4"


def _table_crc(shapes: dict) -> bytes:
    """The crc32 of the ``name<TAB>shape`` table, as 8 hex digits."""
    table = "".join(f"{name}\t{shape}\n" for name, shape in shapes.items())
    return b"%08x" % zlib.crc32(table.encode("utf-8"))


def save_model(path, model: PatchClassifier, extra_meta: Optional[dict] = None):
    meta = {"encoder": asdict(model.enc_cfg), "head": asdict(model.head_cfg)}
    if extra_meta:
        meta.update(extra_meta)
    shapes = parameter_shapes(model.enc_cfg, model.head_cfg)
    header = (MAGIC + b" " + _table_crc(shapes) + b"\n"
              + json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
    params = model.parameters()
    write_atomic(path, header, *(np.ascontiguousarray(params[n].data, BLOB_DTYPE)
                                 for n in shapes))


def load_model(path) -> Tuple[PatchClassifier, dict]:
    """Rebuild a classifier from a checkpoint; weights load bit for bit.
    The configs are checked against the file before any model exists, so
    a load allocates no parameter and draws nothing."""
    first, _, rest = Path(path).read_bytes().partition(b"\n")
    magic, _, crc = first.partition(b" ")
    if magic != MAGIC:
        raise DataError(f"{path} has magic line {first[:40]!r}, expected {MAGIC!r}")
    line, _, blob = rest.partition(b"\n")
    meta = parse_json_object(line, f"{path} metadata")
    item = np.dtype(BLOB_DTYPE).itemsize
    # ValueError: a config's ParameterError, or one of the checks below
    try:
        enc_cfg = EncoderConfig(**meta["encoder"])
        head_cfg = HeadConfig(**meta["head"])
        # one block's floats (the depth-1 table minus the depth-0 one) bound depth
        tables = (encoder_table(replace(enc_cfg, depth=d)) for d in (1, 0))
        one, none = (sum(map(math.prod, table.values())) for table in tables)
        if item * enc_cfg.depth * (one - none) > len(blob):
            raise ValueError(f"depth {enc_cfg.depth} at dim {enc_cfg.dim} "
                             f"exceeds the blob's {len(blob)} bytes")
        shapes = parameter_shapes(enc_cfg, head_cfg)
        if crc != _table_crc(shapes):
            raise ValueError(f"parameter table crc {crc[:20]!r} does not match")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} metadata does not describe a model: {exc}")
    # the crc vouches for the table, so a size mismatch is the blob's own
    sizes = [math.prod(shape) for shape in shapes.values()]
    if item * sum(sizes) != len(blob):
        raise DataError(f"{path} weights section is damaged: the blob holds "
                        f"{len(blob)} bytes, not {item * sum(sizes)}")
    pieces = np.split(np.frombuffer(blob, BLOB_DTYPE).copy(), np.cumsum(sizes)[:-1])
    arrays = {name: piece.reshape(shape)
              for (name, shape), piece in zip(shapes.items(), pieces)}
    return PatchClassifier.from_arrays(enc_cfg, head_cfg, arrays), meta
