"""PatchClassifier.predict: argmax labels from a forward that records no
graph and leaves every parameter's ``requires_grad`` as it found it."""

import numpy as np
import pytest

from gbmpatch.encoder import EncoderConfig
from gbmpatch.errors import DimensionError
from gbmpatch.head import HeadConfig
from gbmpatch.model import PatchClassifier

TINY = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1, heads=2,
                     registers=2, mlp_ratio=2)


@pytest.fixture
def model():
    return PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=3)


@pytest.fixture
def images():
    return np.random.default_rng(4).normal(
        size=(7, 3, 28, 28)).astype(np.float32)


def flags(model):
    return {name: p.requires_grad for name, p in model.parameters().items()}


def test_predictions_are_argmax_of_logits(model, images):
    preds = model.predict(images, batch_size=3)
    np.testing.assert_array_equal(
        preds, np.argmax(model.logits(images).data, axis=1))


def test_flags_restored_including_frozen_encoder(model, images):
    for p in model.encoder.values():
        p.requires_grad = False
    before = flags(model)
    model.predict(images, batch_size=3)
    assert flags(model) == before
    assert set(before.values()) == {True, False}


def test_flags_restored_when_forward_raises(model):
    before = flags(model)
    with pytest.raises(DimensionError):
        model.predict(np.zeros((2, 3, 27, 27), dtype=np.float32))
    assert flags(model) == before


def test_builds_no_graph(model, images, monkeypatch):
    built = []
    logits = PatchClassifier.logits

    def recording(self, *args, **kwargs):
        out = logits(self, *args, **kwargs)
        built.append(out)
        return out

    monkeypatch.setattr(PatchClassifier, "logits", recording)
    model.predict(images, batch_size=3)
    assert len(built) == 3
    assert all(out._parents == () and not out.requires_grad for out in built)
    assert all(p.grad is None for p in model.parameters().values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_parameter_is_inert(images, seed):
    # a weight the math cancels (a key bias under softmax) gets a gradient
    # of rounding noise only, some 1e-13 of the largest
    model = PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=seed)
    model.loss(images, [0, 1, 2, 3, 4, 5, 6], train=True,
               dropout_seed=seed).backward()
    peaks = {name: float(np.abs(p.grad).max())
             for name, p in model.parameters().items() if p.data.size}
    top = max(peaks.values())
    inert = {name: peak / top for name, peak in peaks.items()
             if peak < 1e-9 * top}
    assert not inert, inert
