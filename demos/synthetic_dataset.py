#!/usr/bin/env python3
# Generate the long-tailed synthetic corpus and poke at the files it makes.

import collections
import tempfile
from pathlib import Path

import numpy as np

from gbmpatch import (CLASS_CODES, DEFAULT_PROFILE, DatasetManifest, load_ppm,
                      load_preprocessed, preprocess, save_ppm)
from gbmpatch.data import generate_synthetic

print("default class profile (patches per class):")
for code, n in zip(CLASS_CODES, DEFAULT_PROFILE):
    print(f"  {code}: {n:4d}  {'#' * (n // 20)}")
print("total:", sum(DEFAULT_PROFILE))

root = Path(tempfile.mkdtemp(prefix="gbm-demo-"))

# a scaled-down profile so the demo finishes in seconds
counts = tuple(max(3, n // 50) for n in DEFAULT_PROFILE)
manifest = generate_synthetic(root, counts=counts, seed=7, size=64)
print(f"\nwrote {len(manifest.entries)} patches under {root}")

by_class = collections.Counter(lbl for _, lbl in manifest.entries)
print("on disk:", {CLASS_CODES[k]: v for k, v in sorted(by_class.items())})

# the manifest is plain JSON next to the images and reloads by itself
again = DatasetManifest.load(root)
assert again.entries == manifest.entries

# PPM round trip is bitwise
rel, label = manifest.entries[0]
img = load_ppm(root / rel)
print(f"\nfirst entry: {rel} label={CLASS_CODES[label]} shape={img.shape}")
save_ppm(img, root / "copy.ppm")
assert (root / "copy.ppm").read_bytes() == (root / rel).read_bytes()
print("save(load(x)) reproduced the file byte for byte")

# preprocessing: resize to the model grid, scale to [0,1], normalize
x = preprocess(img, size=224)
print(f"preprocessed: {x.shape} {x.dtype}, mean {x.mean():+.3f}")

# or load the whole manifest as one batch at a chosen resolution
images, labels = load_preprocessed(manifest, size=32)
print(f"batch: {images.shape}, labels {labels.shape}, "
      f"{np.bincount(labels, minlength=9).tolist()}")
