import numpy as np
import pytest

from gbmpatch.encoder import (EncoderConfig, embed, encode_batch,
                              init_encoder, split_tokens, tile_image)
from gbmpatch.errors import DimensionError, ParameterError
from gbmpatch.tensor import Tensor, finite_diff_check

TINY = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1, heads=2,
                     registers=2, mlp_ratio=2)


def rand_image(rng, cfg, batch=None):
    shape = (3, cfg.image_size, cfg.image_size)
    if batch is not None:
        shape = (batch,) + shape
    return rng.normal(0, 1, size=shape).astype(np.float32)


def untile_image(tiles, cfg):
    """Inverse of tile_image for a (B, T, patch_dim) block."""
    b, n, t = tiles.shape[0], cfg.tiles_per_side, cfg.tile_size
    return (tiles.reshape(b, n, n, 3, t, t)
                 .transpose(0, 3, 1, 4, 2, 5)
                 .reshape(b, 3, cfg.image_size, cfg.image_size))


class TestConfig:
    def test_default_token_count(self):
        cfg = EncoderConfig()
        assert cfg.n_patches == 256
        assert cfg.seq_len == 261
        assert cfg.patch_dim == 14 * 14 * 3

    def test_tile_must_divide(self):
        with pytest.raises(ParameterError):
            EncoderConfig(image_size=224, tile_size=15)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ParameterError):
            EncoderConfig(dim=32, heads=5)

    @pytest.mark.parametrize("kw", [{"heads": 0}, {"heads": -4}, {"dim": 0}])
    def test_nonpositive_dim_or_heads_rejected(self, kw):
        with pytest.raises(ParameterError, match="positive"):
            EncoderConfig(**kw)


class TestTiling:
    def test_channel_major_flatten(self):
        cfg = EncoderConfig(image_size=4, tile_size=2, dim=4, depth=0, heads=1)
        img = np.arange(3 * 4 * 4, dtype=np.float32).reshape(3, 4, 4)
        tiles = tile_image(img[None], 2)[0]
        assert tiles.shape == (4, 12)
        # first tile: rows 0-1, cols 0-1 of each channel in channel order
        want = np.concatenate([img[c, 0:2, 0:2].reshape(-1) for c in range(3)])
        assert np.array_equal(tiles[0], want)
        # tiles run left to right, then top to bottom
        want_t1 = np.concatenate([img[c, 0:2, 2:4].reshape(-1) for c in range(3)])
        want_t2 = np.concatenate([img[c, 2:4, 0:2].reshape(-1) for c in range(3)])
        assert np.array_equal(tiles[1], want_t1)
        assert np.array_equal(tiles[2], want_t2)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        img = rand_image(rng, TINY, batch=2)
        assert np.array_equal(untile_image(tile_image(img, 14), TINY), img)

    def test_indivisible_rejected(self):
        with pytest.raises(DimensionError):
            tile_image(np.zeros((1, 3, 30, 30), dtype=np.float32), 14)

    @pytest.mark.parametrize("shape", [(3, 28, 28), (1, 1, 3, 28, 28)])
    def test_unbatched_rank_rejected(self, shape):
        with pytest.raises(DimensionError):
            tile_image(np.zeros(shape, dtype=np.float32), 14)


class TestEmbed:
    def test_sequence_layout(self):
        rng = np.random.default_rng(2)
        w = init_encoder(TINY, seed=0)
        tiles = tile_image(rand_image(rng, TINY, batch=1), 14)
        seq = embed(tiles, w, TINY)
        assert seq.shape == (1, TINY.seq_len, TINY.dim)
        # class slot = cls, register slots = reg, then patches + positions
        assert np.array_equal(seq.data[0, 0], w["cls"].data[0])
        assert np.array_equal(seq.data[0, 1:1 + TINY.registers], w["reg"].data)
        first = tiles[0, 0] @ w["patch.w"].data + w["patch.b"].data
        assert np.allclose(seq.data[0, 1 + TINY.registers],
                           first + w["pos"].data[0], atol=1e-6)

    def test_wrong_tile_block_rejected(self):
        w = init_encoder(TINY, seed=0)
        with pytest.raises(DimensionError):
            embed(np.zeros((1, 5, TINY.patch_dim), dtype=np.float32), w, TINY)

    def test_unbatched_rank_rejected(self):
        w = init_encoder(TINY, seed=0)
        with pytest.raises(DimensionError):
            embed(np.zeros((TINY.n_patches, TINY.patch_dim), dtype=np.float32),
                  w, TINY)


class TestEncode:
    def test_shapes_across_dims(self):
        rng = np.random.default_rng(3)
        for dim, heads in ((8, 2), (32, 4)):
            cfg = EncoderConfig(image_size=28, tile_size=14, dim=dim,
                                depth=2, heads=heads)
            w = init_encoder(cfg, seed=1)
            seq = encode_batch(rand_image(rng, cfg, batch=2), w, cfg)
            assert seq.shape == (2, cfg.seq_len, dim)

    def test_single_equals_batch_row(self):
        rng = np.random.default_rng(4)
        w = init_encoder(TINY, seed=2)
        imgs = rand_image(rng, TINY, batch=3)
        batched = encode_batch(imgs, w, TINY)
        single = encode_batch(imgs[1:2], w, TINY)
        assert np.allclose(batched.data[1], single.data[0], atol=1e-6)

    def test_eval_is_deterministic(self):
        rng = np.random.default_rng(5)
        w = init_encoder(TINY, seed=3)
        img = rand_image(rng, TINY, batch=1)
        a = encode_batch(img, w, TINY).data
        b = encode_batch(img, w, TINY).data
        assert np.array_equal(a, b)

    def test_depth_zero_is_normed_embedding(self):
        cfg = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=0, heads=2)
        rng = np.random.default_rng(6)
        w = init_encoder(cfg, seed=4)
        seq = encode_batch(rand_image(rng, cfg, batch=1), w, cfg)
        assert seq.shape == (1, cfg.seq_len, 8)
        # final norm leaves each token standardized around the unit gain
        centered = seq.data - seq.data.mean(axis=-1, keepdims=True)
        assert np.allclose(centered, seq.data, atol=1e-5)

    def test_permuting_tiles_permutes_patch_tokens(self):
        # with position embeddings zeroed the blocks treat patch tokens
        # as a set, so tile order must only reorder their outputs
        rng = np.random.default_rng(7)
        w = init_encoder(TINY, seed=5)
        w["pos"] = Tensor(np.zeros_like(w["pos"].data), requires_grad=True)
        img = rand_image(rng, TINY, batch=1)
        perm = np.array([2, 0, 3, 1])
        img_perm = untile_image(tile_image(img, 14)[:, perm], TINY)

        base = encode_batch(img, w, TINY)
        moved = encode_batch(img_perm, w, TINY)
        _, patches_base = split_tokens(base, TINY)
        _, patches_moved = split_tokens(moved, TINY)
        assert np.allclose(patches_moved.data, patches_base.data[:, perm],
                           atol=1e-4)
        cls_base, _ = split_tokens(base, TINY)
        cls_moved, _ = split_tokens(moved, TINY)
        assert np.allclose(cls_moved.data, cls_base.data, atol=1e-4)

    def test_position_embeddings_break_the_symmetry(self):
        rng = np.random.default_rng(8)
        w = init_encoder(TINY, seed=6)
        img = rand_image(rng, TINY, batch=1)
        perm = np.array([1, 0, 2, 3])
        img_perm = untile_image(tile_image(img, 14)[:, perm], TINY)
        _, p_base = split_tokens(encode_batch(img, w, TINY), TINY)
        _, p_moved = split_tokens(encode_batch(img_perm, w, TINY), TINY)
        assert not np.allclose(p_moved.data, p_base.data[:, perm], atol=1e-4)

    def test_split_tokens_partition(self):
        rng = np.random.default_rng(9)
        w = init_encoder(TINY, seed=7)
        seq = encode_batch(rand_image(rng, TINY, batch=2), w, TINY)
        cls, patches = split_tokens(seq, TINY)
        assert cls.shape == (2, 1, TINY.dim)
        assert patches.shape == (2, TINY.n_patches, TINY.dim)
        regs = seq.data[:, 1:1 + TINY.registers]
        rebuilt = np.concatenate([cls.data, regs, patches.data], axis=1)
        assert np.array_equal(rebuilt, seq.data)

    def test_wrong_image_shape_rejected(self):
        w = init_encoder(TINY, seed=8)
        with pytest.raises(DimensionError):
            encode_batch(np.zeros((2, 3, 28, 30), dtype=np.float32), w, TINY)


class TestGradients:
    def test_every_parameter_receives_grad(self):
        rng = np.random.default_rng(10)
        w = init_encoder(TINY, seed=9)
        out = encode_batch(rand_image(rng, TINY, batch=2), w, TINY)
        (out * Tensor(rng.normal(size=out.shape).astype(np.float32))).sum().backward()
        for name, param in w.items():
            assert param.grad is not None, f"no grad reached {name}"
        for name in ("patch.w", "blk0.attn.wq", "blk0.mlp.w1", "reg", "pos",
                     "cls", "final.g"):
            assert np.abs(w[name].grad).max() > 0, f"zero grad at {name}"

    @pytest.mark.parametrize("name", ["patch.w", "blk0.attn.wq",
                                      "blk0.attn.wo", "blk0.mlp.w2",
                                      "blk0.ln1.g", "pos", "reg"])
    def test_directional_derivative(self, name):
        # float64 end-to-end check of one parameter via a random direction
        rng = np.random.default_rng(hash(name) % 2 ** 31)
        w = init_encoder(TINY, seed=11, dtype=np.float64)
        imgs = rand_image(rng, TINY, batch=2).astype(np.float64)
        probe = rng.normal(size=(2, TINY.seq_len, TINY.dim))

        def loss_with(params):
            out = encode_batch(imgs, params, TINY)
            return (out * Tensor(probe)).sum()

        loss = loss_with(w)
        loss.backward()
        direction = rng.normal(size=w[name].shape)
        analytic = float((w[name].grad * direction).sum())

        eps = 1e-6
        shifted = dict(w)
        shifted[name] = Tensor(w[name].data + eps * direction)
        plus = loss_with(shifted).item()
        shifted[name] = Tensor(w[name].data - eps * direction)
        minus = loss_with(shifted).item()
        numeric = (plus - minus) / (2 * eps)
        denom = max(abs(analytic), abs(numeric), 1e-8)
        assert abs(analytic - numeric) / denom < 1e-5

    def test_registerless_encoder(self):
        # registers=0 runs the same path with an empty register block
        cfg = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1,
                            heads=2, registers=0, mlp_ratio=2)
        rng = np.random.default_rng(12)
        w = init_encoder(cfg, seed=13, dtype=np.float64)
        imgs = rand_image(rng, cfg, batch=2).astype(np.float64)
        probe = Tensor(rng.normal(size=(2, cfg.seq_len, cfg.dim)))
        out = encode_batch(imgs, w, cfg)
        assert out.shape == (2, 1 + cfg.n_patches, cfg.dim)
        (out * probe).sum().backward()
        assert w["reg"].grad.shape == (0, cfg.dim)
        assert all(np.abs(w[k].grad).max() > 0 for k in ("cls", "pos", "patch.w"))

        def loss_of(pos):
            return (encode_batch(imgs, dict(w, pos=pos), cfg) * probe).sum()

        assert finite_diff_check(loss_of, w["pos"], step=1e-5) < 1e-5
