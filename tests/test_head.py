import numpy as np
import pytest

from gbmpatch.encoder import EncoderConfig
from gbmpatch.errors import DimensionError, ParameterError
from gbmpatch.head import (HeadConfig, aggregate_features, head_forward,
                           init_head, predict)
from gbmpatch.tensor import Tensor

CFG = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1, heads=2,
                    registers=2)


def rand_seq(rng, batch):
    return Tensor(rng.normal(size=(batch, CFG.seq_len, CFG.dim))
                  .astype(np.float32), requires_grad=True)


class TestAggregate:
    def test_layout_and_values(self):
        rng = np.random.default_rng(0)
        seq = rand_seq(rng, 3)
        feats = aggregate_features(seq, CFG)
        assert feats.shape == (3, 2 * CFG.dim)
        patches = seq.data[:, 1 + CFG.registers:, :]
        assert np.allclose(feats.data[:, :CFG.dim], patches.mean(axis=1),
                           atol=1e-6)
        assert np.allclose(feats.data[:, CFG.dim:], seq.data[:, 0, :],
                           atol=1e-6)

    def test_registers_do_not_leak(self):
        rng = np.random.default_rng(1)
        seq = rand_seq(rng, 2)
        altered = seq.data.copy()
        altered[:, 1:1 + CFG.registers, :] += 100.0
        a = aggregate_features(seq, CFG).data
        b = aggregate_features(Tensor(altered), CFG).data
        assert np.array_equal(a, b)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            aggregate_features(Tensor(np.zeros((2, 5, CFG.dim))), CFG)


class TestHeadForward:
    def test_shapes(self):
        rng = np.random.default_rng(2)
        hcfg = HeadConfig()
        w = init_head(hcfg, CFG.dim, seed=0)
        assert w["w1"].shape == (2 * CFG.dim, hcfg.bottleneck)
        assert w["w2"].shape == (hcfg.bottleneck, 9)
        feats = Tensor(rng.normal(size=(4, 2 * CFG.dim)).astype(np.float32))
        logits = head_forward(feats, w, hcfg)
        assert logits.shape == (4, 9)

    def test_eval_ignores_dropout(self):
        rng = np.random.default_rng(3)
        hcfg = HeadConfig(dropout=0.5)
        w = init_head(hcfg, CFG.dim, seed=1)
        feats = Tensor(rng.normal(size=(4, 2 * CFG.dim)).astype(np.float32))
        a = head_forward(feats, w, hcfg, train=False, dropout_seed=1).data
        b = head_forward(feats, w, hcfg, train=False, dropout_seed=2).data
        assert np.array_equal(a, b)

    def test_train_dropout_seeded(self):
        rng = np.random.default_rng(4)
        hcfg = HeadConfig(dropout=0.5)
        w = init_head(hcfg, CFG.dim, seed=2)
        feats = Tensor(rng.normal(size=(8, 2 * CFG.dim)).astype(np.float32))
        a = head_forward(feats, w, hcfg, train=True, dropout_seed=7).data
        b = head_forward(feats, w, hcfg, train=True, dropout_seed=7).data
        c = head_forward(feats, w, hcfg, train=True, dropout_seed=8).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_gradients_reach_all_params(self):
        rng = np.random.default_rng(5)
        hcfg = HeadConfig()
        w = init_head(hcfg, CFG.dim, seed=3)
        feats = Tensor(rng.normal(size=(4, 2 * CFG.dim)).astype(np.float32),
                       requires_grad=True)
        head_forward(feats, w, hcfg, train=True, dropout_seed=0).sum().backward()
        for name, p in w.items():
            assert p.grad is not None, name
        assert feats.grad is not None

    def test_directional_derivative(self):
        rng = np.random.default_rng(6)
        hcfg = HeadConfig(dropout=0.5)
        w = init_head(hcfg, CFG.dim, seed=4, dtype=np.float64)
        feats = rng.normal(size=(4, 2 * CFG.dim))
        probe = rng.normal(size=(4, 9))

        def loss_with(params):
            out = head_forward(Tensor(feats), params, hcfg, train=True,
                               dropout_seed=5)
            return (out * Tensor(probe)).sum()

        loss_with(w).backward()
        for name in ("w1", "b1", "w2", "b2"):
            d = rng.normal(size=w[name].shape)
            analytic = float((w[name].grad * d).sum())
            eps = 1e-6
            probe_w = dict(w)
            probe_w[name] = Tensor(w[name].data + eps * d)
            plus = loss_with(probe_w).item()
            probe_w[name] = Tensor(w[name].data - eps * d)
            minus = loss_with(probe_w).item()
            numeric = (plus - minus) / (2 * eps)
            denom = max(abs(analytic), abs(numeric), 1e-8)
            assert abs(analytic - numeric) / denom < 1e-6, name


class TestPredict:
    def test_argmax(self):
        logits = Tensor([[0.1, 2.0, -1.0], [3.0, 1.0, 0.0]])
        assert predict(logits).tolist() == [1, 0]

    def test_tie_goes_to_lowest_index(self):
        logits = Tensor([[1.0, 3.0, 3.0], [2.0, 2.0, 2.0]])
        assert predict(logits).tolist() == [1, 0]

    def test_tensor_input(self):
        assert predict(Tensor([[0.0, 1.0]])).tolist() == [1]

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            HeadConfig(dropout=1.0)
        with pytest.raises(ParameterError):
            HeadConfig(bottleneck=0)
