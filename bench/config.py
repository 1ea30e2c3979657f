"""Pinned workload settings shared by the runner and the worker.

Pure Python, no numpy: the runner imports this before it has pinned the
BLAS thread count for the worker's environment.
"""

from __future__ import annotations

# OpenBLAS / OpenMP threads in every process the benchmark starts. One
# thread is at most nproc on any box and gave the steadier step times.
BLAS_THREADS = 1

# the model shared by every workload (only the image size differs)
MODEL = {"tile_size": 14, "dim": 32, "depth": 2, "heads": 4,
         "registers": 4, "mlp_ratio": 4}
MODEL_SEED = 0

BATCH = 32          # images per train step
CHUNK = 64          # images per predict chunk
LR = 3e-2           # AdamW, constant rate, default weight decay
SIGNAL = 3.0        # class offset of the synthetic tensors, in noise stds
MIN_REPEATS = 2     # the replay checks need two repeats of one seed

# Step workloads: one repeat = fresh model, ``steps`` train steps cycling
# over ``batches`` distinct batches, then predict over ``eval_images``.
# ``cli`` workload: gen-data (set-up), then per repeat one cv and ``evals``
# evals of its checkpoint. One call varies by ~10% on a shared host, so a
# run makes at least ``min_repeats`` repeats and reports medians over them.
WORKLOADS = {
    "paper224": {"kind": "steps", "image_size": 224, "batches": 4,
                 "steps": 16, "eval_images": 256},
    "desk56": {"kind": "steps", "image_size": 56, "batches": 8,
               "steps": 40, "eval_images": 512},
    "cv_e2e": {"kind": "cli", "data_size": 224, "counts": None,
               "image_size": 56, "folds": 3, "epochs": 1, "evals": 1,
               "min_repeats": 3, "lr_max": 3e-2, "lr_min": 1e-3,
               "cv_seed": 0},
}

# --smoke: every workload on a tiny geometry and a tiny dataset
SMOKE = {
    "paper224": {"image_size": 28, "batches": 2, "steps": 4,
                 "eval_images": 128},
    "desk56": {"image_size": 28, "batches": 2, "steps": 4,
               "eval_images": 128},
    "cv_e2e": {"data_size": 56, "counts": [6] * 9, "image_size": 28},
}

# fresh processes that only set up, timed for the median set-up time; the
# cli workload's set-up is a ~25 s gen-data, so it is timed once
SETUP_PROBES = {"steps": 2, "cli": 0}


def workload_config(name: str, smoke: bool = False) -> dict:
    cfg = dict(WORKLOADS[name])
    if smoke:
        cfg.update(SMOKE[name])
    return cfg
