#!/usr/bin/env python3
"""Token geometry of the encoder, from pixels to the aggregate feature.

A 224x224 RGB patch is cut into 14x14 tiles (256 of them), each flattened
channel-major, projected to the model width and given its tile's position
embedding. One class token and four register tokens are then prepended, so
the sequence the blocks see has 1 + 4 + 256 = 261 slots. The classification
head never looks at the registers: it concatenates the mean of the 256 patch
tokens with the class token, giving a 2*dim feature.
"""

import numpy as np

from gbmpatch import (EncoderConfig, aggregate_features, encode_batch,
                      init_encoder, split_tokens, tile_image)

## full-size geometry, small width so it runs fast

cfg = EncoderConfig(dim=32, depth=2, heads=4)
print("tiles per side :", cfg.tiles_per_side)
print("patch tokens   :", cfg.n_patches)
print("sequence length:", cfg.seq_len)
print("patch dim      :", cfg.patch_dim, "(= 3*14*14)")

rng = np.random.default_rng(1)
images = rng.normal(size=(2, 3, 224, 224)).astype(np.float32)

tiles = tile_image(images, cfg.tile_size)
print("tiled          :", tiles.shape)  # (2, 256, 588)

weights = init_encoder(cfg, seed=0)
seq = encode_batch(images, weights, cfg)
print("encoded        :", seq.data.shape)  # (2, 261, 32)

cls, patches = split_tokens(seq, cfg)
print("class token    :", cls.data.shape)
print("registers      :", seq.data[:, 1:1 + cfg.registers].shape)
print("patch tokens   :", patches.data.shape)

feats = aggregate_features(seq, cfg)
print("aggregate      :", feats.data.shape, "(= 2*dim)")

## the full-scale width, checked without training anything

big = EncoderConfig(dim=1280, depth=2, heads=16)
w = init_encoder(big, seed=0)
n_params = sum(v.data.size for v in w.values())
print(f"\nwidth-1280 encoder: {n_params/1e6:.1f}M parameters")
print("qkv weight      :", w["blk0.attn.wq"].data.shape)
print("mlp hidden      :", w["blk0.mlp.w1"].data.shape)
print("aggregate width :", 2 * big.dim)

## positional embeddings are the only thing tying a token to its tile;
## zero them out and the patch tokens become order-equivariant

cfg_tiny = EncoderConfig(image_size=28, tile_size=14, dim=16, depth=1, heads=2)
w = init_encoder(cfg_tiny, seed=3)
w["pos"].data[:] = 0
img = rng.normal(size=(1, 3, 28, 28)).astype(np.float32)
rolled = np.roll(img, cfg_tiny.tile_size, axis=3)  # swap the two tile columns
out = encode_batch(img, w, cfg_tiny)
out2 = encode_batch(rolled, w, cfg_tiny)
_, p1 = split_tokens(out, cfg_tiny)
_, p2 = split_tokens(out2, cfg_tiny)
print("\nwithout pos, swapping tile columns permutes patch tokens:",
      np.allclose(p1.data[0, 1], p2.data[0, 0], atol=1e-5))
