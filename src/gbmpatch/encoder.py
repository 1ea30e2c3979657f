"""Toy vision-transformer encoder over non-overlapping image tiles.

The token sequence is [class token; register tokens; patch tokens].
Learned position embeddings go on the patch slots only, and the class and
register tokens are inserted after them (Darcet et al., arXiv 2309.16588).
Blocks are pre-norm: x + attention(norm(x)) followed by x + mlp(norm(x)),
and a final norm is applied to the whole sequence. Register tokens take
part in attention only: ``readout`` gives them weight 0 in the head's input.

No weight is one the others can absorb. Norms have no gain or bias: the
linear map after each (for the final norm, the head's first layer) takes
them into its weight rows and bias. Tiles have no bias, since ``pos`` is
added to the same slots. Attention has no key bias, which softmax cancels,
nor a value bias, which ``bo`` takes because attention rows sum to 1. Every
weight left is a matrix, drawn from Normal(0, 0.02), or a bias at zeros.

Every projection is one ``linear`` node on (B, tokens, dim) rows, the
MLP's first projection and its SiLU are one ``linear_silu`` node, and
``attention`` takes the (B, tokens, dim) q, k and v and splits the heads
itself, so a block records 11 nodes: two norms, five linears, one
linear_silu, attention and two residual adds. The tile projection is one
``tile_linear`` node over the images, which keeps them, not their tiles:
its forward cuts and projects a cache-sized block of images at a time
into one reused buffer, and its backward cuts all the tiles once.

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
from .errors import DimensionError, ParameterError, as_int, settle
# tile_image is the engine's; the package exports it from here
from .tensor import (Tensor, attention, broadcast_to, concat, layer_norm,
                     linear, linear_silu, tile_image, tile_linear)

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
        settle(self, {"image_size": 1, "tile_size": 1, "dim": 1, "depth": 0,
                      "heads": 1, "registers": 0, "mlp_ratio": 1})
        if self.image_size % self.tile_size != 0:
            raise ParameterError(
                f"tile size {self.tile_size} does not divide "
                f"image size {self.image_size}")
        if self.dim % self.heads != 0:
            raise ParameterError(
                f"heads {self.heads} does not divide dim {self.dim}")

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


def init_params(table: Dict[str, tuple], seed: int, dtype) -> Dict[str, Tensor]:
    """Weights for a {name: shape} table, drawn in table order: a matrix
    from Normal(0, 0.02), a vector (a bias) at zeros."""
    rng = np.random.default_rng(as_int(seed, "seed", 0))
    return {name: Tensor(rng.normal(0.0, 0.02, shape).astype(dtype)
                         if len(shape) == 2 else np.zeros(shape, dtype),
                         requires_grad=True)
            for name, shape in table.items()}


def encoder_table(cfg: EncoderConfig) -> Dict[str, tuple]:
    """{name: shape} of every encoder weight, in draw order."""
    d, hidden = cfg.dim, cfg.mlp_ratio * cfg.dim
    block = {**{f"attn.{m}": (d, d) for m in ("wq", "wk", "wv", "wo")},
             "attn.bq": (d,), "attn.bo": (d,), "mlp.w1": (d, hidden),
             "mlp.b1": (hidden,), "mlp.w2": (hidden, d), "mlp.b2": (d,)}
    return {"patch.w": (cfg.patch_dim, d), "cls": (1, d),
            "reg": (cfg.registers, d), "pos": (cfg.n_patches, d),
            **{f"blk{i}.{name}": shape
               for i in range(cfg.depth) for name, shape in block.items()}}


def init_encoder(cfg: EncoderConfig, seed: int = 0,
                 dtype=np.float32) -> EncoderWeights:
    """Fresh weights for every row of ``encoder_table``."""
    return init_params(encoder_table(cfg), seed, dtype)


def embed(images: np.ndarray, w: EncoderWeights, cfg: EncoderConfig) -> Tensor:
    """Project each (B, C, H, W) image's ``tile_image`` rows to tokens, add
    their positions, then prepend the class and register slots ->
    (B, seq_len, dim). The graph keeps the images, not their tiles."""
    images = np.asarray(images)
    if images.shape[1:] != (CHANNELS, cfg.image_size, cfg.image_size):
        raise DimensionError(
            f"images {images.shape[1:]} do not match config "
            f"({CHANNELS}, {cfg.image_size}, {cfg.image_size})")
    b = images.shape[0]
    tokens = tile_linear(images, cfg.tile_size, w["patch.w"], w["pos"])
    cls = broadcast_to(w["cls"], (b, 1, cfg.dim))
    reg = broadcast_to(w["reg"], (b, cfg.registers, cfg.dim))
    return concat([cls, reg, tokens], axis=1)


def _attention(x: Tensor, w: EncoderWeights, p: str, cfg: EncoderConfig) -> Tensor:
    q = linear(x, w[f"{p}.wq"], w[f"{p}.bq"])
    k = linear(x, w[f"{p}.wk"])
    v = linear(x, w[f"{p}.wv"])
    ctx = attention(q, k, v, cfg.heads, 1.0 / math.sqrt(cfg.head_dim))
    return linear(ctx, w[f"{p}.wo"], w[f"{p}.bo"])


def _mlp(x: Tensor, w: EncoderWeights, p: str) -> Tensor:
    return linear(linear_silu(x, w[f"{p}.w1"], w[f"{p}.b1"]),
                  w[f"{p}.w2"], w[f"{p}.b2"])


def encode_batch(images: np.ndarray, w: EncoderWeights,
                 cfg: EncoderConfig) -> Tensor:
    """Full encoder pass over (B, C, H, W) images -> (B, seq_len, dim)."""
    x = embed(images, w, cfg)
    for i in range(cfg.depth):
        p = f"blk{i}"
        x = x + _attention(layer_norm(x), w, f"{p}.attn", cfg)
        x = x + _mlp(layer_norm(x), w, f"{p}.mlp")
    return layer_norm(x)


def readout(cfg: EncoderConfig, dtype=np.float32) -> np.ndarray:
    """(2, seq_len) slot weights: patch-token mean, class token; registers 0."""
    weights = np.zeros((2, cfg.seq_len), dtype)
    weights[0, 1 + cfg.registers:] = 1.0 / cfg.n_patches
    weights[1, 0] = 1.0
    return weights
