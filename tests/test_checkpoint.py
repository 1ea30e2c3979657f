import json
import zlib
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from gbmpatch import checkpoint as checkpoint_module
from gbmpatch import model as model_module
from gbmpatch.checkpoint import MAGIC, load_model, save_model
from gbmpatch.cli import main
from gbmpatch.data import N_CLASSES
from gbmpatch.encoder import EncoderConfig, encoder_table, init_encoder
from gbmpatch.errors import DataError
from gbmpatch.head import HeadConfig, head_table, init_head
from gbmpatch.model import PatchClassifier, parameter_shapes

TINY = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1, heads=2,
                     registers=2)
HEAD = HeadConfig(bottleneck=4)
IMAGES = np.random.default_rng(1).normal(size=(2, 3, 28, 28)).astype(np.float32)


def tiny_model(seed=0):
    return PatchClassifier(TINY, HEAD, seed=seed)


@pytest.fixture
def saved(tmp_path):
    """A tiny model and the path it was saved to."""
    model = tiny_model(seed=3)
    path = tmp_path / "model.ckpt"
    save_model(path, model, {"tag": "unit"})
    return model, path


def eval_exit(path, tmp_path, capsys):
    """``eval``'s exit code on ``path`` and its one stderr line."""
    code = main(["eval", "--checkpoint", str(path), "--data", str(tmp_path)])
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return code, err


def table_crc(shapes):
    """The magic line's crc, as the format describes it: crc32 of one
    ``name<TAB>shape`` line per weight, as 8 hex digits."""
    table = "".join(f"{name}\t{shape}\n" for name, shape in shapes.items())
    return b"%08x" % zlib.crc32(table.encode())


def write_file(path, meta, arrays):
    """A checkpoint by hand: ``arrays`` in order under their own table."""
    shapes = {name: a.shape for name, a in arrays.items()}
    path.write_bytes(MAGIC + b" " + table_crc(shapes) + b"\n"
                     + json.dumps(meta).encode() + b"\n"
                     + b"".join(a.astype("<f4").tobytes()
                                for a in arrays.values()))


def configs_meta(enc_cfg=TINY, head_cfg=HEAD):
    return {"encoder": asdict(enc_cfg), "head": asdict(head_cfg)}


class TestRawFormat:
    def test_header_is_readable_text(self, saved):
        model, path = saved
        first, meta, blob = path.read_bytes().split(b"\n", 2)
        assert first == MAGIC + b" " + table_crc(parameter_shapes(TINY, HEAD))
        assert MAGIC == b"GBMPATCH-CKPT-3"
        assert json.loads(meta) == {**configs_meta(), "tag": "unit"}
        params = model.parameters()
        assert blob == b"".join(params[n].data.astype("<f4").tobytes()
                                for n in parameter_shapes(TINY, HEAD))

    def test_numpy_settings_round_trip(self, tmp_path):
        # configs given numpy numbers store Python ones, so their model
        # saves, and loads back under equal configs
        enc = EncoderConfig(**{k: np.int64(v) for k, v in asdict(TINY).items()})
        head = HeadConfig(bottleneck=np.int32(4), dropout=np.float32(0.25))
        model = PatchClassifier(enc, head, seed=2)
        save_model(tmp_path / "np.ckpt", model)
        restored, _ = load_model(tmp_path / "np.ckpt")
        assert (restored.enc_cfg, restored.head_cfg) == (TINY, replace(HEAD, dropout=0.25))
        for name, param in model.parameters().items():
            assert restored.parameters()[name].data.tobytes() == param.data.tobytes()

    def test_round_trip_bits(self, saved):
        model, path = saved
        restored, _ = load_model(path)
        loaded = restored.parameters()
        assert list(loaded) == list(model.parameters())
        for name, param in model.parameters().items():
            assert loaded[name].data.dtype == np.float32
            assert loaded[name].data.shape == param.data.shape
            assert loaded[name].data.tobytes() == param.data.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DataError, match="magic line b'not a checkpoint'"):
            load_model(path)

    def test_failed_save_leaves_existing_file(self, saved, monkeypatch):
        _, path = saved
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_model(path, tiny_model(seed=4))
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["model.ckpt"]

    def test_truncated_blob(self, saved, tmp_path, capsys):
        _, path = saved
        path.write_bytes(path.read_bytes()[:-4])   # one float short
        with pytest.raises(DataError, match="blob holds"):
            load_model(path)
        code, err = eval_exit(path, tmp_path, capsys)
        assert code == 3 and "weights section is damaged" in err

    def test_trailing_bytes_rejected(self, saved, tmp_path, capsys):
        _, path = saved
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataError, match="blob holds"):
            load_model(path)
        code, err = eval_exit(path, tmp_path, capsys)
        assert code == 3 and "weights section is damaged" in err

    @pytest.mark.parametrize("edit", [lambda data: data[:-1],
                                      lambda data: data + b"\0"],
                             ids=["one_byte_short", "one_byte_long"])
    def test_damaged_blob_is_not_blamed_on_the_metadata(self, saved, tmp_path,
                                                        capsys, edit):
        _, path = saved
        size = len(path.read_bytes().split(b"\n", 2)[2])
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataError, match="weights section is damaged") as exc:
            load_model(path)
        assert "metadata" not in str(exc.value)
        assert f"not {size}" in str(exc.value)
        code, err = eval_exit(path, tmp_path, capsys)
        assert code == 3 and "weights section is damaged" in err


def rename(table):
    return {"blk0.attn.wz" if n == "blk0.attn.wq" else n: s
            for n, s in table.items()}


def swap(table):
    names = list(table)
    a, b = names.index("blk0.attn.wq"), names.index("blk0.attn.wk")
    names[a], names[b] = names[b], names[a]
    return {n: table[n] for n in names}


def transpose(table):
    return {n: s[::-1] if n == "blk0.mlp.w1" else s for n, s in table.items()}


class TestListingValidation:
    """The configs imply the parameter table; the file only holds its crc."""

    def test_hand_built_file_loads(self, tmp_path):
        shapes = parameter_shapes(TINY, HEAD)
        path = tmp_path / "w.ckpt"
        write_file(path, configs_meta(),
                   {n: np.full(s, 0.5, np.float32) for n, s in shapes.items()})
        model, meta = load_model(path)
        assert meta == configs_meta()
        assert all((p.data == 0.5).all() for p in model.parameters().values())

    @pytest.mark.parametrize("edit", [rename, swap, transpose])
    def test_file_saved_under_another_table_is_refused(self, saved,
                                                       monkeypatch, edit):
        # the same total size, so only the crc tells the tables apart
        _, path = saved
        monkeypatch.setattr(model_module, "encoder_table",
                            lambda cfg: edit(encoder_table(cfg)))
        with pytest.raises(DataError, match="describe a model: parameter table"):
            load_model(path)

    @pytest.mark.parametrize("depth", [lambda blob: 10 ** 12, len],
                             ids=["10**12", "blob_length"])
    def test_huge_depth_builds_no_table(self, saved, monkeypatch, depth):
        _, path = saved
        first, meta, blob = path.read_bytes().split(b"\n", 2)
        doc = json.loads(meta)
        doc["encoder"]["depth"] = depth(blob)
        path.write_bytes(b"\n".join([first, json.dumps(doc).encode(), blob]))

        def refuse(cfg):
            raise AssertionError("the table was built")

        monkeypatch.setattr(model_module, "encoder_table", refuse)
        with pytest.raises(DataError, match="at dim 8 exceeds the blob"):
            load_model(path)

    def test_depth_bound_is_one_blocks_floats(self, saved, tmp_path, capsys,
                                              monkeypatch):
        # at dim 1 the old bound (4·depth·dim² bytes) let a depth of a
        # quarter of the blob through, to build a table of that many blocks
        _, path = saved
        first, meta, blob = path.read_bytes().split(b"\n", 2)
        doc = json.loads(meta)
        depth = len(blob) // 4
        doc["encoder"].update(dim=1, heads=1, depth=depth)
        path.write_bytes(b"\n".join([first, json.dumps(doc).encode(), blob]))
        depths, shapes_calls = [], []

        def encoder_spy(cfg):
            depths.append(cfg.depth)
            return encoder_table(cfg)

        def shapes_spy(enc_cfg, head_cfg):
            shapes_calls.append(enc_cfg.depth)
            return parameter_shapes(enc_cfg, head_cfg)

        monkeypatch.setattr(checkpoint_module, "encoder_table", encoder_spy)
        monkeypatch.setattr(checkpoint_module, "parameter_shapes", shapes_spy)
        with pytest.raises(DataError, match=f"depth {depth} at dim 1 exceeds"):
            load_model(path)
        assert sorted(depths) == [0, 1] and shapes_calls == []
        code, err = eval_exit(path, tmp_path, capsys)
        assert code == 3 and "describe a model" in err
        assert sorted(depths) == [0, 0, 1, 1] and shapes_calls == []

    @pytest.mark.parametrize("meta", [b"[]", b'"text"', b"3", b"null",
                                      b"\xff", b"{"])
    def test_metadata_must_be_an_object(self, saved, meta):
        _, path = saved
        first, _, blob = path.read_bytes().split(b"\n", 2)
        path.write_bytes(first + b"\n" + meta + b"\n" + blob)
        with pytest.raises(DataError, match="metadata"):
            load_model(path)

    def test_earlier_format_is_rejected_by_magic(self, tmp_path, capsys):
        # the listing layout those formats had, over a 2-float blob
        path = tmp_path / "w.ckpt"
        for old in ("GBMPATCH-CKPT-2", "GBMPATCH-CKPT-1"):
            path.write_bytes(old.encode() + b'\n{"encoder": {}}\n1\n'
                             b"x\t(2)\nDATA\n" + bytes(8))
            with pytest.raises(DataError, match=old):
                load_model(path)
            code, err = eval_exit(path, tmp_path, capsys)
            assert code == 3 and "magic" in err and old in err


class TestModelRoundTrip:
    def test_logits_bit_identical_after_reload(self, saved):
        model, path = saved
        restored, meta = load_model(path)
        assert meta["tag"] == "unit"
        assert (restored.logits(IMAGES).data.tobytes()
                == model.logits(IMAGES).data.tobytes())

    @pytest.mark.parametrize("change", [{"registers": 0}, {"depth": 0}],
                             ids=["registers0", "depth0"])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch,
                                          change):
        enc_cfg = replace(TINY, **change)
        model = PatchClassifier(enc_cfg, HEAD, seed=3)
        path = tmp_path / "model.ckpt"
        save_model(path, model)

        def shapes(weights):
            return [(name, t.shape) for name, t in weights.items()]

        # the tables the file's layout rests on are the ones init draws
        assert shapes(init_encoder(enc_cfg)) == list(encoder_table(enc_cfg).items())
        assert (shapes(init_head(HEAD, enc_cfg.dim))
                == list(head_table(HEAD, enc_cfg.dim).items()))
        assert shapes(model.parameters()) == list(
            parameter_shapes(enc_cfg, HEAD).items())
        before = model.logits(IMAGES).data

        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        restored, _ = load_model(path)
        assert restored.logits(IMAGES).data.tobytes() == before.tobytes()

    def test_configs_restored(self, saved):
        model, path = saved
        restored, _ = load_model(path)
        assert restored.enc_cfg == TINY
        assert restored.head_cfg == model.head_cfg

    def arrays(self, model):
        return {n: p.data for n, p in model.parameters().items()}

    def test_shape_mismatch_rejected(self, tmp_path):
        arrays = self.arrays(tiny_model())
        arrays["enc.patch.w"] = arrays["enc.patch.w"][:, :4]
        path = tmp_path / "m.ckpt"
        write_file(path, configs_meta(), arrays)
        with pytest.raises(DataError, match="describe a model: parameter table"):
            load_model(path)

    def test_missing_parameter_rejected(self, tmp_path):
        arrays = self.arrays(tiny_model())
        arrays.pop("head.w2")
        path = tmp_path / "m.ckpt"
        write_file(path, configs_meta(), arrays)
        with pytest.raises(DataError, match="describe a model: parameter table"):
            load_model(path)

    def test_checkpoint_with_folded_away_weights_rejected(self, tmp_path,
                                                          capsys):
        # the table that still had layer-norm affines, a tile bias and
        # value biases, written in this format: eval exits 3
        arrays = self.arrays(tiny_model())
        for name in ("patch.b", "blk0.ln1.g", "blk0.ln1.b", "blk0.attn.bv",
                     "blk0.ln2.g", "blk0.ln2.b", "final.g", "final.b"):
            arrays[f"enc.{name}"] = np.zeros(TINY.dim, np.float32)
        path = tmp_path / "m.ckpt"
        write_file(path, configs_meta(), arrays)
        code, err = eval_exit(path, tmp_path, capsys)
        assert code == 3 and "parameter table" in err

    def test_meta_without_configs_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_file(path, {"foo": 1}, {"x": np.zeros(1, np.float32)})
        with pytest.raises(DataError, match="describe a model"):
            load_model(path)


# a GBMPATCH-CKPT-3 file save_model wrote for FIXTURE_* at seed 7, before
# the weight tables became {name: shape} maps with one init rule
FIXTURE = Path(__file__).parent / "data" / "ckpt3-seed7.ckpt"
FIXTURE_ENC = EncoderConfig(image_size=28, tile_size=7, dim=16, depth=1,
                            heads=2, registers=2, mlp_ratio=2)
FIXTURE_HEAD = HeadConfig(bottleneck=8)


def reference_tables(enc_cfg, head_cfg):
    """The (name, shape, init) rows the encoder and head tables once
    spelled out, each row with its own init."""
    d, hidden = enc_cfg.dim, enc_cfg.mlp_ratio * enc_cfg.dim
    block = [*[(f"attn.{m}", (d, d), "normal") for m in ("wq", "wk", "wv", "wo")],
             *[(f"attn.{b}", (d,), "zeros") for b in ("bq", "bo")],
             ("mlp.w1", (d, hidden), "normal"), ("mlp.b1", (hidden,), "zeros"),
             ("mlp.w2", (hidden, d), "normal"), ("mlp.b2", (d,), "zeros")]
    encoder = ([("patch.w", (enc_cfg.patch_dim, d), "normal"),
                ("cls", (1, d), "normal"),
                ("reg", (enc_cfg.registers, d), "normal"),
                ("pos", (enc_cfg.n_patches, d), "normal")]
               + [(f"blk{i}.{name}", shape, init)
                  for i in range(enc_cfg.depth) for name, shape, init in block])
    head = [("w1", (2 * d, head_cfg.bottleneck), "normal"),
            ("b1", (head_cfg.bottleneck,), "zeros"),
            ("w2", (head_cfg.bottleneck, N_CLASSES), "normal"),
            ("b2", (N_CLASSES,), "zeros")]
    return encoder, head


def reference_weights(enc_cfg, head_cfg, seed):
    """Fresh weights as the reference tables drew them: the encoder's
    from ``seed``, the head's from ``seed + 1``, each in row order."""
    weights = {}
    encoder, head = reference_tables(enc_cfg, head_cfg)
    for prefix, table, stream in (("enc", encoder, seed), ("head", head, seed + 1)):
        rng = np.random.default_rng(stream)
        for name, shape, init in table:
            weights[f"{prefix}.{name}"] = (
                rng.normal(0.0, 0.02, shape).astype(np.float32)
                if init == "normal" else np.zeros(shape, np.float32))
    return weights


def assert_same_bits(params, arrays):
    assert list(params) == list(arrays)
    for name, want in arrays.items():
        got = params[name].data
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


class TestBitsAcrossVersions:
    def test_fixture_holds_a_fresh_models_weights(self, tmp_path):
        restored, meta = load_model(FIXTURE)
        assert (restored.enc_cfg, restored.head_cfg) == (FIXTURE_ENC, FIXTURE_HEAD)
        fresh = PatchClassifier(FIXTURE_ENC, FIXTURE_HEAD, seed=7)
        assert_same_bits(fresh.parameters(),
                         {n: p.data for n, p in restored.parameters().items()})
        # and this version writes that model as the same bytes
        save_model(tmp_path / "again.ckpt", fresh)
        assert (tmp_path / "again.ckpt").read_bytes() == FIXTURE.read_bytes()

    @pytest.mark.parametrize("enc_cfg", [
        replace(TINY, registers=0), replace(TINY, depth=0), EncoderConfig(),
        FIXTURE_ENC], ids=["registers0", "depth0", "paper224", "fixture"])
    def test_fresh_weights_match_the_reference_tables(self, enc_cfg):
        model = PatchClassifier(enc_cfg, HEAD, seed=5)
        assert_same_bits(model.parameters(), reference_weights(enc_cfg, HEAD, 5))
