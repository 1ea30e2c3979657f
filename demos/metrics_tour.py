#!/usr/bin/env python3
"""Confusion matrix bookkeeping and the six scores, per class and pooled."""

import numpy as np

from gbmpatch import (CLASS_CODES, ConfusionMatrix, basic_metrics,
                      confusion_text, mcc_multiclass, metrics_csv,
                      micro_average, one_vs_rest, score)

rng = np.random.default_rng(5)

# fake a 9-class classifier that is right ~70% of the time
labels = rng.integers(0, 9, size=400)
preds = np.where(rng.random(400) < 0.7, labels, rng.integers(0, 9, size=400))

cm = ConfusionMatrix(9)
cm.add(preds, labels)
print(confusion_text(cm, CLASS_CODES))

# one-vs-rest reduction for a single class
b = one_vs_rest(cm, 0)
print(f"\n{CLASS_CODES[0]} vs rest: tp={b.tp} fp={b.fp} fn={b.fn} tn={b.tn}")
bundle = basic_metrics(b)
print(f"precision {bundle.precision:.4f}  recall {bundle.recall:.4f}  "
      f"f1 {bundle.f1:.4f}  mcc {bundle.mcc:.4f}")

# pooling the per-class counts collapses precision, recall and F1 onto
# plain accuracy for single-label data; the equality is exact, not approx
micro = micro_average(cm)
acc = cm.trace / cm.total
print(f"\nmicro precision == recall == f1 == trace/total: "
      f"{micro.precision == micro.recall == micro.f1 == acc}")
print(f"value: {acc:.6f}")

# the multiclass mcc is the K-category correlation; on a 2x2 matrix it
# reduces to the familiar binary formula
cm2 = ConfusionMatrix(2, np.array([[50, 5], [10, 40]]))
print(f"\nbinary mcc  {basic_metrics(one_vs_rest(cm2, 1)).mcc:.12f}")
print(f"K-category  {mcc_multiclass(cm2):.12f}")

# degenerate denominators are flagged, not crashed
b0 = basic_metrics(one_vs_rest(ConfusionMatrix(3, np.diag([7, 3, 0])), 2))
print(f"\nempty class: f1={b0.f1}, flagged undefined: {sorted(b0.undefined)}")

print("\ncsv form:")
per_class, micro = score(cm)
print(metrics_csv(per_class, micro, CLASS_CODES))
