"""Classification head over a dual image representation.

``encoder.readout`` collapses the sequence to [mean of patch tokens ; class
token], a 2*dim vector per image, in one product that weights registers 0.
A bottleneck layer with SiLU and dropout feeds the 9-way linear output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .data import N_CLASSES
from .encoder import EncoderConfig, init_params, readout
from .errors import DimensionError, ParameterError, settle
from .tensor import Tensor, dropout, linear, linear_silu, matmul, reshape

HeadWeights = Dict[str, Tensor]


@dataclass(frozen=True)
class HeadConfig:
    bottleneck: int = 16
    dropout: float = 0.5

    def __post_init__(self):
        settle(self, {"bottleneck": 1}, ("dropout",))
        if not 0.0 <= self.dropout < 1.0:
            raise ParameterError(f"dropout must be in [0, 1), got {self.dropout}")


def head_table(cfg: HeadConfig, dim: int) -> Dict[str, tuple]:
    """{name: shape} of every head weight, in draw order."""
    return {"w1": (2 * dim, cfg.bottleneck), "b1": (cfg.bottleneck,),
            "w2": (cfg.bottleneck, N_CLASSES), "b2": (N_CLASSES,)}


def init_head(cfg: HeadConfig, dim: int, seed: int = 0,
              dtype=np.float32) -> HeadWeights:
    """Fresh weights for every row of ``head_table``."""
    return init_params(head_table(cfg, dim), seed, dtype)


def aggregate_features(seq: Tensor, enc_cfg: EncoderConfig) -> Tensor:
    """(B, seq_len, dim) -> (B, 2*dim): [patch-token mean ; class token]."""
    if seq.ndim != 3 or seq.shape[1:] != (enc_cfg.seq_len, enc_cfg.dim):
        raise DimensionError(f"expected (B, {enc_cfg.seq_len}, {enc_cfg.dim})"
                             f" sequence, got {seq.shape}")
    rows = matmul(Tensor(readout(enc_cfg, seq.dtype)), seq)
    return reshape(rows, (seq.shape[0], 2 * enc_cfg.dim))


def head_forward(features: Tensor, w: HeadWeights, cfg: HeadConfig,
                 train: bool = False, dropout_seed: int = 0) -> Tensor:
    """Bottleneck -> SiLU -> dropout (train only) -> class logits."""
    if features.ndim != 2 or features.shape[1] != w["w1"].shape[0]:
        raise DimensionError(
            f"features {features.shape} do not match w1 {w['w1'].shape}")
    h = linear_silu(features, w["w1"], w["b1"])
    h = dropout(h, cfg.dropout if train else 0.0, seed=dropout_seed)
    return linear(h, w["w2"], w["b2"])


def predict(logits: Tensor) -> np.ndarray:
    """Argmax class per row; ties go to the lowest class index."""
    if logits.ndim != 2:
        raise DimensionError(f"expected (B, n_classes) logits, got {logits.shape}")
    return np.argmax(logits.data, axis=1).astype(np.int64)
