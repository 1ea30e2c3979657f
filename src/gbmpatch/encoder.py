"""Toy vision-transformer encoder over non-overlapping image tiles.

The token sequence is [class token; register tokens; patch tokens].
Learned position embeddings go on the patch slots only, and the class and
register tokens are inserted after them (Darcet et al., arXiv 2309.16588).
Blocks are pre-norm: x + attention(norm(x)) followed by x + mlp(norm(x)),
and a final norm is applied to the whole sequence. Register tokens take
part in attention but carry no classification signal downstream; callers
slice them off.

Defaults are desk scale (dim 32, depth 2) so the whole pipeline trains in
seconds on a CPU; the geometry (224 input, 14 tile) matches the full-scale
configuration, which only changes dim/depth/heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .data import CHANNELS
from .errors import DimensionError, ParameterError
from .tensor import (Tensor, attention, broadcast_to, concat, layer_norm,
                     narrow, reshape, silu, transpose)

EncoderWeights = Dict[str, Tensor]


@dataclass(frozen=True)
class EncoderConfig:
    image_size: int = 224
    tile_size: int = 14
    dim: int = 32
    depth: int = 2
    heads: int = 4
    registers: int = 4
    mlp_ratio: int = 4

    def __post_init__(self):
        if self.image_size <= 0 or self.tile_size <= 0:
            raise ParameterError("image_size and tile_size must be positive")
        if self.image_size % self.tile_size != 0:
            raise ParameterError(
                f"tile size {self.tile_size} does not divide "
                f"image size {self.image_size}")
        if self.dim < 1 or self.heads < 1:
            raise ParameterError("dim and heads must be positive")
        if self.dim % self.heads != 0:
            raise ParameterError(
                f"heads {self.heads} does not divide dim {self.dim}")
        if self.depth < 0 or self.registers < 0:
            raise ParameterError("depth and registers must be nonnegative")
        if self.mlp_ratio < 1:
            raise ParameterError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")

    @property
    def tiles_per_side(self) -> int:
        return self.image_size // self.tile_size

    @property
    def n_patches(self) -> int:
        return self.tiles_per_side ** 2

    @property
    def seq_len(self) -> int:
        # 1 class slot + registers + patches
        return 1 + self.registers + self.n_patches

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def patch_dim(self) -> int:
        return CHANNELS * self.tile_size ** 2


def init_params(table: list, seed: int, dtype) -> Dict[str, Tensor]:
    """Weights for a (name, shape, init) table, drawn in table order:
    Normal(0, 0.02) for "normal", and constant "zeros" or "ones"."""
    rng = np.random.default_rng(seed)
    draw = {"normal": lambda shape: rng.normal(0.0, 0.02, shape).astype(dtype),
            "zeros": lambda shape: np.zeros(shape, dtype),
            "ones": lambda shape: np.ones(shape, dtype)}
    return {name: Tensor(draw[init](shape), requires_grad=True)
            for name, shape, init in table}


def encoder_table(cfg: EncoderConfig) -> list:
    """(name, shape, init) of every encoder weight, in draw order."""
    d, hidden = cfg.dim, cfg.mlp_ratio * cfg.dim
    # no key bias: softmax cancels the constant it adds to a score row
    block = [("ln1.g", (d,), "ones"), ("ln1.b", (d,), "zeros"),
             *[(f"attn.{m}", (d, d), "normal") for m in ("wq", "wk", "wv", "wo")],
             *[(f"attn.{b}", (d,), "zeros") for b in ("bq", "bv", "bo")],
             ("ln2.g", (d,), "ones"), ("ln2.b", (d,), "zeros"),
             ("mlp.w1", (d, hidden), "normal"), ("mlp.b1", (hidden,), "zeros"),
             ("mlp.w2", (hidden, d), "normal"), ("mlp.b2", (d,), "zeros")]
    return ([("patch.w", (cfg.patch_dim, d), "normal"), ("patch.b", (d,), "zeros"),
             ("cls", (1, d), "normal"), ("reg", (cfg.registers, d), "normal"),
             ("pos", (cfg.n_patches, d), "normal")]
            + [(f"blk{i}.{name}", shape, init)
               for i in range(cfg.depth) for name, shape, init in block]
            + [("final.g", (d,), "ones"), ("final.b", (d,), "zeros")])


def init_encoder(cfg: EncoderConfig, seed: int = 0,
                 dtype=np.float32) -> EncoderWeights:
    """Fresh weights for every row of ``encoder_table``."""
    return init_params(encoder_table(cfg), seed, dtype)


def tile_image(images: np.ndarray, tile: int) -> np.ndarray:
    """Cut (B, C, H, W) images into (B, tiles, patch_dim) flat tile rows.

    Each row is one tile flattened channel-major: all of channel 0's
    tile pixels, then channel 1's, then channel 2's. Tiles are ordered
    left to right, top to bottom.
    """
    img = np.asarray(images)
    if img.ndim != 4:
        raise DimensionError(f"expected (B, C, H, W), got shape {img.shape}")
    b, c, h, wdt = img.shape
    if h % tile or wdt % tile:
        raise DimensionError(
            f"tile {tile} does not divide image {h}x{wdt}")
    ny, nx = h // tile, wdt // tile
    return (img.reshape(b, c, ny, tile, nx, tile)
               .transpose(0, 2, 4, 1, 3, 5)
               .reshape(b, ny * nx, c * tile * tile))


def embed(tiles: np.ndarray, w: EncoderWeights, cfg: EncoderConfig) -> Tensor:
    """Project (B, tiles, patch_dim) rows to tokens, add their positions,
    then prepend the class and register slots -> (B, seq_len, dim)."""
    if tiles.ndim != 3:
        raise DimensionError(
            f"expected (B, tiles, patch_dim), got shape {tiles.shape}")
    b, t, p = tiles.shape
    if t != cfg.n_patches or p != cfg.patch_dim:
        raise DimensionError(
            f"tiles {tiles.shape[1:]} do not match config "
            f"({cfg.n_patches}, {cfg.patch_dim})")
    tokens = Tensor(tiles) @ w["patch.w"] + w["patch.b"] + w["pos"]
    cls = broadcast_to(reshape(w["cls"], (1, 1, cfg.dim)), (b, 1, cfg.dim))
    reg = broadcast_to(reshape(w["reg"], (1, cfg.registers, cfg.dim)),
                       (b, cfg.registers, cfg.dim))
    return concat([cls, reg, tokens], axis=1)


def _attention(x: Tensor, w: EncoderWeights, p: str, cfg: EncoderConfig) -> Tensor:
    b, n, d = x.shape
    h, dh = cfg.heads, cfg.head_dim

    def heads(t):
        return transpose(reshape(t, (b, n, h, dh)), (0, 2, 1, 3))

    q = heads(x @ w[f"{p}.wq"] + w[f"{p}.bq"])
    k = heads(x @ w[f"{p}.wk"])
    v = heads(x @ w[f"{p}.wv"] + w[f"{p}.bv"])
    ctx = attention(q, k, v, 1.0 / math.sqrt(dh))
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (b, n, d))
    return ctx @ w[f"{p}.wo"] + w[f"{p}.bo"]


def _mlp(x: Tensor, w: EncoderWeights, p: str) -> Tensor:
    return silu(x @ w[f"{p}.w1"] + w[f"{p}.b1"]) @ w[f"{p}.w2"] + w[f"{p}.b2"]


def encode_batch(images: np.ndarray, w: EncoderWeights,
                 cfg: EncoderConfig) -> Tensor:
    """Full encoder pass over (B, C, H, W) images -> (B, seq_len, dim)."""
    images = np.asarray(images)
    if images.ndim != 4:
        raise DimensionError(f"expected (B, C, H, W), got {images.shape}")
    if images.shape[1:] != (CHANNELS, cfg.image_size, cfg.image_size):
        raise DimensionError(
            f"images {images.shape[1:]} do not match config "
            f"({CHANNELS}, {cfg.image_size}, {cfg.image_size})")
    x = embed(tile_image(images, cfg.tile_size), w, cfg)
    for i in range(cfg.depth):
        p = f"blk{i}"
        x = x + _attention(layer_norm(x, w[f"{p}.ln1.g"], w[f"{p}.ln1.b"]),
                           w, f"{p}.attn", cfg)
        x = x + _mlp(layer_norm(x, w[f"{p}.ln2.g"], w[f"{p}.ln2.b"]),
                     w, f"{p}.mlp")
    return layer_norm(x, w["final.g"], w["final.b"])


def split_tokens(seq: Tensor, cfg: EncoderConfig):
    """(class_token, patch_tokens) views of a (B, seq_len, dim) sequence;
    the class token keeps a length-1 sequence axis so shapes stay uniform.
    """
    return (narrow(seq, 1, 0, 1),
            narrow(seq, 1, 1 + cfg.registers, cfg.n_patches))
