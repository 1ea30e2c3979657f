import numpy as np
import pytest

from gbmpatch.encoder import EncoderConfig
from gbmpatch.errors import DimensionError, ParameterError
from gbmpatch.head import (HeadConfig, aggregate_features, head_forward,
                           init_head, predict)
from gbmpatch.tensor import Tensor, concat, narrow, reshape, tensor_mean

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
        # a sequence of the right length but another width names both
        with pytest.raises(DimensionError, match=rf"{CFG.dim}\).*, 6\)"):
            aggregate_features(Tensor(np.zeros((2, CFG.seq_len, 6))), CFG)

    @pytest.mark.parametrize("image_size", [28, 42, 56])
    def test_matches_the_sliced_composite(self, image_size):
        """Against the readout built from slices: the class token exact,
        the patch mean (4, 9 or 16 patches) to float32 rounding, since the
        order of its sum is the matrix kernel's; likewise the gradients."""
        cfg = EncoderConfig(image_size=image_size, tile_size=14, dim=8,
                            depth=1, heads=2, registers=2)
        rng = np.random.default_rng(image_size)
        data = rng.normal(size=(3, cfg.seq_len, cfg.dim)).astype(np.float32)
        probe = Tensor(rng.normal(size=(3, 2 * cfg.dim)).astype(np.float32))

        def composite(seq):
            cls = reshape(narrow(seq, 1, 0, 1), (3, cfg.dim))
            patches = narrow(seq, 1, 1 + cfg.registers, cfg.n_patches)
            return concat([tensor_mean(patches, axis=1), cls], axis=1)

        def run(f):
            seq = Tensor(data, requires_grad=True)
            out = f(seq)
            (out * probe).sum().backward()
            return out.data, seq.grad

        got, got_grad = run(lambda seq: aggregate_features(seq, cfg))
        want, want_grad = run(composite)
        d, first = cfg.dim, 1 + cfg.registers
        assert np.array_equal(got[:, d:], want[:, d:])
        # a mean of zero-mean tokens can cancel to near 0, where only an
        # error on the scale of the tokens themselves is meaningful
        np.testing.assert_allclose(got[:, :d], want[:, :d], rtol=1e-6,
                                   atol=1e-6 * np.abs(data).max())
        assert np.array_equal(got_grad[:, :first], want_grad[:, :first])
        np.testing.assert_allclose(got_grad[:, first:], want_grad[:, first:],
                                   rtol=1e-6)


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

    @pytest.mark.parametrize("shape", [(4, 2 * CFG.dim + 1), (2 * CFG.dim,),
                                       (1, 4, 2 * CFG.dim)],
                             ids=["wide", "rank1", "rank3"])
    def test_features_must_match_w1(self, shape):
        w = init_head(HeadConfig(), CFG.dim, seed=0)
        with pytest.raises(DimensionError, match="do not match w1"):
            head_forward(Tensor(np.zeros(shape, np.float32)), w, HeadConfig())

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

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4), ()],
                             ids=["rank1", "rank3", "scalar"])
    def test_logits_must_be_rank_two(self, shape):
        with pytest.raises(DimensionError, match="n_classes"):
            predict(Tensor(np.zeros(shape)))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            HeadConfig(dropout=1.0)
        with pytest.raises(ParameterError):
            HeadConfig(bottleneck=0)

    @pytest.mark.parametrize("bad", [16.0, True, np.float64(16), "16"],
                             ids=["float", "bool", "numpy", "str"])
    def test_bottleneck_must_be_an_int(self, bad):
        # a float bottleneck once reached numpy and died there
        with pytest.raises(ParameterError, match="bottleneck must be an integer"):
            HeadConfig(bottleneck=bad)

    @pytest.mark.parametrize("bad", ["0.5", None, False],
                             ids=["str", "none", "bool"])
    def test_dropout_must_be_a_real_number(self, bad):
        # a string once died in a comparison with a bare TypeError
        with pytest.raises(ParameterError, match="dropout must be a real number"):
            HeadConfig(dropout=bad)

    def test_numpy_settings_are_stored_as_python_numbers(self):
        # a numpy float32 dropout once built a model that save_model
        # could not write
        cfg = HeadConfig(bottleneck=np.int64(8), dropout=np.float32(0.5))
        assert cfg == HeadConfig(bottleneck=8, dropout=0.5)
        assert type(cfg.bottleneck) is int and type(cfg.dropout) is float
