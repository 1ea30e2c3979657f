"""Desk-scale 9-class tissue-patch classification pipeline.

Everything runs on numpy: a small reverse-mode tensor engine, a toy
vision-transformer encoder with class and register tokens, a
dual-representation classification head, a six-metric evaluation suite,
stratified k-fold cross-validation with warmup+cosine AdamW, a synthetic
long-tailed patch generator, and a CLI (``gbmpatch``).
"""

from .checkpoint import (load_checkpoint, load_model, save_checkpoint,
                         save_model)
from .cv import (AdamState, CVResult, FoldAssignment, FoldResult,
                 TrainConfig, adam_step, lr_at, run_folds, stratified_kfold,
                 summarize, train_fold)
from .data import (CLASS_CODES, DEFAULT_PROFILE, DatasetManifest,
                   generate_synthetic, load_ppm, load_preprocessed, normalize,
                   preprocess, resize_bilinear, save_ppm, to_tensor)
from .encoder import (EncoderConfig, embed, encode_batch, init_encoder,
                      split_tokens, tile_image)
from .errors import (ContractError, DataError, DimensionError, GbmPatchError,
                     NumericError, ParameterError, PpmParseError,
                     StratificationError)
from .head import (HeadConfig, aggregate_features, head_forward, init_head,
                   predict)
from .metrics import (BinaryCounts, ConfusionMatrix, METRIC_NAMES,
                      MetricBundle, basic_metrics, confusion_text,
                      mcc_multiclass, metrics_csv, micro_average, one_vs_rest,
                      score)
from .model import PatchClassifier
from .tensor import Tensor, cross_entropy, finite_diff_check

__version__ = "0.1.0"
