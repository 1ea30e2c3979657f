"""Encoder + head composed into one trainable patch classifier."""

from __future__ import annotations

from typing import Dict

import numpy as np

from .encoder import EncoderConfig, encode_batch, init_encoder
from .head import (HeadConfig, HeadWeights, aggregate_features, head_forward,
                   init_head, predict)
from .tensor import Tensor, cross_entropy


class PatchClassifier:
    """Tiled-image transformer encoder with a dual-representation head.

    Weights live in two flat name -> Tensor dicts; ``parameters`` exposes
    them under ``enc.`` / ``head.`` prefixes for the optimizer and the
    checkpoint writer.
    """

    def __init__(self, enc_cfg: EncoderConfig, head_cfg: HeadConfig,
                 seed: int = 0):
        self.enc_cfg = enc_cfg
        self.head_cfg = head_cfg
        self.encoder = init_encoder(self.enc_cfg, seed=seed)
        self.head = init_head(self.head_cfg, self.enc_cfg.dim, seed=seed + 1)

    def parameters(self) -> Dict[str, Tensor]:
        """Every named parameter, encoder first."""
        params = {f"enc.{k}": v for k, v in self.encoder.items()}
        params.update({f"head.{k}": v for k, v in self.head.items()})
        return params

    def zero_grad(self):
        for p in self.parameters().values():
            p.zero_grad()

    def logits(self, images: np.ndarray, train: bool = False,
               dropout_seed: int = 0) -> Tensor:
        seq = encode_batch(images, self.encoder, self.enc_cfg)
        feats = aggregate_features(seq, self.enc_cfg)
        return head_forward(feats, self.head, self.head_cfg,
                            train=train, dropout_seed=dropout_seed)

    def loss(self, images: np.ndarray, labels, train: bool = True,
             dropout_seed: int = 0) -> Tensor:
        return cross_entropy(self.logits(images, train, dropout_seed), labels)

    def predict(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Eval-mode argmax labels, computed in chunks to bound memory.

        No graph is recorded: every parameter's ``requires_grad`` is off
        for the call and restored afterwards, also when the forward raises.
        """
        images = np.asarray(images)
        out = np.empty(images.shape[0], dtype=np.int64)
        params = list(self.parameters().values())
        flags = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            for start in range(0, images.shape[0], batch_size):
                chunk = images[start:start + batch_size]
                out[start:start + len(chunk)] = predict(self.logits(chunk))
        finally:
            for p, flag in zip(params, flags):
                p.requires_grad = flag
        return out
