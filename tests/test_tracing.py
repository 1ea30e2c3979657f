"""Guard for the engine internals the benchmark's tracer reads.

``bench/tracing.py`` discovers the tensor ops, wraps them and reads
``_parents`` and ``ComputationRecord.trace(...).nodes`` to count graph
nodes. It is loaded here by path, read only, so a change to the engine
that breaks it fails the main test suite, not only the benchmark's smoke
test.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import gbmpatch
from gbmpatch import tensor as T
from gbmpatch.cv import AdamState, TrainConfig, adam_step
from gbmpatch.encoder import EncoderConfig
from gbmpatch.head import HeadConfig
from gbmpatch.model import PatchClassifier

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of the gbmpatch modules and of the classes the
    tracer patches, by identity."""
    owners = [m for name, m in sys.modules.items()
              if name == "gbmpatch" or name.startswith("gbmpatch.")]
    owners += [T.Tensor, PatchClassifier, gbmpatch.ConfusionMatrix]
    return {(id(owner), key): value for owner in owners
            for key, value in vars(owner).items()}


def test_tracer_reads_the_engine(tracing):
    public = sorted(name for name, fn in vars(T).items()
                    if inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == T.__name__)
    before = _bindings()
    tracer = tracing.Tracer()
    ops = tracing.install(tracer)
    try:
        cfg = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1,
                            heads=2, registers=1, mlp_ratio=2)
        model = PatchClassifier(cfg, HeadConfig(bottleneck=4), seed=0)
        rng = np.random.default_rng(0)
        images = rng.normal(size=(4, 3, 28, 28)).astype(np.float32)
        params = model.parameters()
        model.loss(images, [0, 1, 2, 3], train=True).backward()
        adam_step(params, AdamState(params), 1e-3, TrainConfig())
        model.predict(images, batch_size=2)
    finally:
        tracer.uninstall()

    # every public function but the gradient checker and the tile cutter
    # is an op, and returns a Tensor
    assert ops == [name for name in public
                   if name not in ("finite_diff_check", "tile_image")]
    metrics, repeats = tracing.layer_metrics([tracer.spans], ops)
    assert metrics["tensor.graph_nodes"][0] > 0
    assert metrics["tensor.fwd_calls"][0] > 0
    assert repeats.values["tensor.predict_graph_nodes"] == [0]

    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved, f"{len(moved)} bindings not restored by uninstall"
