#!/usr/bin/env python3
# Save a model, reload it, and show the reloaded copy scores the exact
# same logits. The file is two text lines (the magic with the crc32 of
# the parameter table, then the JSON configs) over a float32 blob, so
# `head -2 model.ckpt` tells you what you are holding.

import tempfile
from pathlib import Path

import numpy as np

from gbmpatch import EncoderConfig, HeadConfig, PatchClassifier
from gbmpatch.checkpoint import load_model, save_model

enc_cfg = EncoderConfig(image_size=28, tile_size=14, dim=16, depth=1,
                        heads=2, registers=2, mlp_ratio=2)
head_cfg = HeadConfig(bottleneck=8)
model = PatchClassifier(enc_cfg, head_cfg, seed=42)

rng = np.random.default_rng(0)
images = rng.normal(size=(4, 3, 28, 28)).astype(np.float32)
before = model.logits(images).data

path = Path(tempfile.mkdtemp()) / "model.ckpt"
save_model(path, model, extra_meta={"note": "demo"})
print(f"wrote {path.stat().st_size} bytes")

# the header is two plain text lines; the configs fix every weight's shape
with open(path, "rb") as fh:
    for _ in range(2):
        print(" ", fh.readline().decode().rstrip()[:76])

clone, meta = load_model(path)
after = clone.logits(images).data
print("\nmeta note:", meta["note"])
print("reloaded logits bit-identical:", np.array_equal(before, after))

# a damaged file is rejected loudly, not loaded partially
crippled = path.with_suffix(".bad")
crippled.write_bytes(path.read_bytes()[:-64])
try:
    load_model(crippled)
except Exception as exc:
    print(f"\ntruncated blob rejected: {type(exc).__name__}: {exc}")
