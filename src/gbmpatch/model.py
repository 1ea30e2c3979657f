"""Encoder + head composed into one trainable patch classifier."""

from __future__ import annotations

from typing import Dict

import numpy as np

from .encoder import EncoderConfig, encode_batch, encoder_table, init_encoder
from .head import (HeadConfig, aggregate_features, head_forward, head_table,
                   init_head, predict)
from .errors import as_int
from .tensor import Tensor, cross_entropy

PREDICT_CHUNK = 64   # images per eval forward in predict


def parameter_shapes(enc_cfg: EncoderConfig,
                     head_cfg: HeadConfig) -> Dict[str, tuple]:
    """Every parameter's shape under its ``parameters()`` name, in order,
    from the configs alone: nothing is allocated."""
    return {**{f"enc.{n}": s for n, s in encoder_table(enc_cfg).items()},
            **{f"head.{n}": s for n, s in head_table(head_cfg, enc_cfg.dim).items()}}


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
                         for n in encoder_table(enc_cfg)}
        model.head = {n: Tensor(arrays[f"head.{n}"], requires_grad=True)
                      for n in head_table(head_cfg, enc_cfg.dim)}
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

    def predict(self, images: np.ndarray, batch_size: int = PREDICT_CHUNK,
                *, rows=None) -> np.ndarray:
        """Eval-mode argmax labels of ``images[rows]`` (of every image when
        ``rows`` is None), gathered and scored one chunk at a time.

        The forward runs on a shallow twin whose weights are constant
        tensors over the same arrays, so no graph is recorded and no
        parameter's ``requires_grad`` is touched.
        """
        images = np.asarray(images)
        total = images.shape[0] if rows is None else len(rows)
        out = np.empty(total, dtype=np.int64)
        # built field by field: copy.copy would cache __slotnames__ on the class
        frozen = type(self).__new__(type(self))
        frozen.enc_cfg, frozen.head_cfg = self.enc_cfg, self.head_cfg
        frozen.encoder = {n: Tensor(p.data) for n, p in self.encoder.items()}
        frozen.head = {n: Tensor(p.data) for n, p in self.head.items()}
        for start in range(0, total, as_int(batch_size, "batch_size", 1)):
            chunk = (images[start:start + batch_size] if rows is None
                     else images[rows[start:start + batch_size]])
            out[start:start + len(chunk)] = predict(frozen.logits(chunk))
        return out
