#!/usr/bin/env python3
"""Full cross-validated training at toy scale, end to end in seconds.

Same machinery the CLI drives: generate a small imbalanced dataset,
stratify it into five folds, train the encoder+head on each fold with
AdamW under the warmup+cosine schedule, then pool the five held-out
confusion matrices into one report. Shrinking the images to 28px and the
width to 16 keeps the flop count tiny; nothing else changes.
"""

import tempfile
from pathlib import Path

import numpy as np

from gbmpatch import (EncoderConfig, HeadConfig, TrainConfig,
                      load_preprocessed, lr_at, run_folds, stratified_kfold,
                      summarize)
from gbmpatch.cli import format_report
from gbmpatch.data import generate_synthetic

root = Path(tempfile.mkdtemp(prefix="gbm-train-"))
counts = (15, 12, 10, 10, 8, 8, 6, 5, 5)
manifest = generate_synthetic(root, counts=counts, seed=3, size=28)
images, labels = load_preprocessed(manifest, size=28)
print(f"dataset: {images.shape[0]} patches, "
      f"{np.bincount(labels, minlength=9).tolist()}")

# five stratified folds; every class is spread within +-1 across folds
folds = stratified_kfold(labels, folds=5, seed=0)
for a in folds[:2]:
    val = np.bincount(labels[a.val_idx], minlength=9)
    print(f"fold {a.fold}: train={len(a.train_idx)} val={len(a.val_idx)} "
          f"per-class val={val.tolist()}")
print("...")

enc_cfg = EncoderConfig(image_size=28, tile_size=14, dim=16, depth=1,
                        heads=2, registers=2, mlp_ratio=2)
head_cfg = HeadConfig(bottleneck=8)
train_cfg = TrainConfig(folds=5, epochs=12, warmup_epochs=2, batch_size=16,
                        lr_max=1e-2, lr_min=1e-3, seed=0)

# the schedule: linear warmup into a cosine decay
steps_per_epoch = -(-len(labels) * 4 // 5 // train_cfg.batch_size)
total = steps_per_epoch * train_cfg.epochs
warm = steps_per_epoch * train_cfg.warmup_epochs
marks = [0, warm // 2, warm, (warm + total - 1) // 2, total - 1]
print("\nlr at steps", marks, ":",
      [f"{lr_at(s, total, warm, 1e-2, 1e-3):.2e}" for s in marks])

# run_folds trains one fold per request; summarize pools the held-out counts
result = summarize(r for r, _ in
                   run_folds(images, labels, enc_cfg, head_cfg, train_cfg))

losses = result.fold_results[0].epoch_losses
print(f"\nfold 0 loss: {losses[0]:.3f} (epoch 0) -> "
      f"{losses[-1]:.3f} (last)")
for r in result.fold_results:
    print(f"fold {r.fold}: held-out acc {r.micro.accuracy:.3f} "
          f"f1 {r.micro.f1:.3f} mcc {r.micro.mcc:.3f} "
          f"({len(r.epoch_losses)} epochs)")

print(f"\npooled confusion total = {result.confusion.total} "
      f"(= dataset size {len(labels)})")
print()
print(format_report([b.as_dict() for b in result.per_class],
                    result.micro.as_dict()))
