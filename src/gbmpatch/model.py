"""Encoder + head composed into one trainable patch classifier."""

from __future__ import annotations

from typing import Dict

import numpy as np

from .encoder import EncoderConfig, encode_batch, encoder_table, init_encoder
from .head import (HeadConfig, aggregate_features, head_forward, head_table,
                   init_head, predict)
from .tensor import Tensor, cross_entropy


def parameter_shapes(enc_cfg: EncoderConfig,
                     head_cfg: HeadConfig) -> Dict[str, tuple]:
    """Every parameter's shape under its ``parameters()`` name, in order,
    from the configs alone: nothing is allocated."""
    shapes = {f"enc.{n}": s for n, s, _ in encoder_table(enc_cfg)}
    shapes.update({f"head.{n}": s for n, s, _ in head_table(head_cfg, enc_cfg.dim)})
    return shapes


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

    @classmethod
    def from_arrays(cls, enc_cfg: EncoderConfig, head_cfg: HeadConfig,
                    arrays: Dict[str, np.ndarray]) -> "PatchClassifier":
        """A classifier holding ``arrays``, named and shaped as
        ``parameter_shapes`` gives; nothing is drawn."""
        model = cls.__new__(cls)
        model.enc_cfg, model.head_cfg = enc_cfg, head_cfg
        model.encoder = {n: Tensor(arrays[f"enc.{n}"], requires_grad=True)
                         for n, _, _ in encoder_table(enc_cfg)}
        model.head = {n: Tensor(arrays[f"head.{n}"], requires_grad=True)
                      for n, _, _ in head_table(head_cfg, enc_cfg.dim)}
        return model

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
