import numpy as np
import pytest

from gbmpatch.checkpoint import (MAGIC, load_checkpoint, load_model,
                                 save_checkpoint, save_model)
from gbmpatch.cli import main
from gbmpatch.encoder import EncoderConfig
from gbmpatch.errors import ContractError, DataError
from gbmpatch.head import HeadConfig
from gbmpatch.model import PatchClassifier

TINY = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1, heads=2,
                     registers=2)


def tiny_model(seed=0):
    return PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=seed)


class TestRawFormat:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "a": rng.normal(size=(3, 4)).astype(np.float32),
            "b.c": rng.normal(size=(5,)).astype(np.float32),
            "scalarish": np.float32(2.5).reshape(()),
            "é": np.zeros((2,), np.float32),           # names are UTF-8
        }
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, params, {"note": "x"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "x"}
        assert list(loaded) == list(params)
        for name in params:
            assert loaded[name].dtype == np.float32
            assert loaded[name].shape == params[name].shape
            assert loaded[name].tobytes() == params[name].tobytes()

    def test_header_is_readable_text(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"x": np.zeros((2, 2), np.float32)}, {"k": 1})
        head = path.read_bytes().split(b"\nDATA\n")[0].decode("utf-8")
        assert head.splitlines()[0] == "GBMPATCH-CKPT-2"
        assert '"k": 1' in head
        assert head.splitlines()[-1] == "x\t(2,2)"

    @pytest.mark.parametrize("name", ["a\tb", "x\ny"])
    def test_name_with_listing_delimiter_rejected(self, tmp_path, name):
        path = tmp_path / "w.ckpt"
        with pytest.raises(ContractError, match="tab or newline"):
            save_checkpoint(path, {name: np.zeros(2, np.float32)}, {})
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a checkpoint\nDATA\n")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_missing_sentinel(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(MAGIC + b"\n{}\n0\n")
        with pytest.raises(DataError, match="DATA"):
            load_checkpoint(path)

    def test_failed_save_leaves_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"x": np.zeros(8, np.float32)}, {"v": 1})
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"x": np.ones(8, np.float32)}, {"v": 2})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"x": np.zeros(8, np.float32)}, {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(DataError, match="blob"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # the listing must account for every byte after DATA
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"x": np.zeros(3, np.float32),
                               "y": np.zeros(2, np.float32)}, {})
        path.write_bytes(path.read_bytes() + bytes(20))
        with pytest.raises(DataError, match="covers 20 bytes"):
            load_checkpoint(path)


def raw_checkpoint(meta=b"{}", listing=b"x\t(8)", blob=bytes(32)):
    """A hand-built checkpoint file whose count matches its listing."""
    count = b"%d" % (listing.count(b"\n") + 1)
    return (MAGIC + b"\n" + meta + b"\n" + count + b"\n" + listing
            + b"\nDATA\n" + blob)


class TestListingValidation:
    def test_hand_built_file_loads(self, tmp_path):
        path = tmp_path / "w.ckpt"
        path.write_bytes(raw_checkpoint())
        params, meta = load_checkpoint(path)
        assert meta == {} and params["x"].shape == (8,)

    @pytest.mark.parametrize("listing", [
        b"x\t(-4)",                         # negative dimension
        b"x\t(2,-4)",
        b"\xff\t(8)",                       # name not UTF-8
        b"x",                               # too few fields
        b"x\t(8)\t0",                       # a byte offset: too many fields
        b"x\t(8)\t0\t0",
        b"x\t8",                            # shape without parentheses
        b"x\t(2,,4)",
        b"x\t(" + b",".join([b"1"] * 65) + b")",   # more axes than numpy has
        b"x\t(0,99999999999999999999)",     # dimension past numpy's limit
        b"x\t(4)\nx\t(4)",                  # one name listed twice
    ])
    def test_bad_listing_is_data_error(self, tmp_path, listing):
        path = tmp_path / "w.ckpt"
        path.write_bytes(raw_checkpoint(listing=listing))
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta", [b"[]", b'"text"', b"3", b"null",
                                      b"\xff", b"{"])
    def test_metadata_must_be_an_object(self, tmp_path, meta):
        path = tmp_path / "w.ckpt"
        path.write_bytes(raw_checkpoint(meta=meta))
        with pytest.raises(DataError, match="metadata"):
            load_checkpoint(path)

    def test_earlier_format_is_rejected_by_magic(self, tmp_path, capsys):
        path = tmp_path / "w.ckpt"
        raw = raw_checkpoint(listing=b"x\t(8)\t0")
        path.write_bytes(raw.replace(MAGIC, b"GBMPATCH-CKPT-1", 1))
        with pytest.raises(DataError, match="GBMPATCH-CKPT-1"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path),
                     "--data", str(tmp_path)]) == 3
        assert "magic" in capsys.readouterr().err


class TestModelRoundTrip:
    def test_logits_bit_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(1)
        model = tiny_model(seed=3)
        imgs = rng.normal(size=(2, 3, 28, 28)).astype(np.float32)
        before = model.logits(imgs).data

        path = tmp_path / "model.ckpt"
        save_model(path, model, {"tag": "unit"})
        restored, meta = load_model(path)
        assert meta["tag"] == "unit"
        after = restored.logits(imgs).data
        assert before.tobytes() == after.tobytes()

    def test_configs_restored(self, tmp_path):
        model = tiny_model()
        save_model(tmp_path / "m.ckpt", model)
        restored, _ = load_model(tmp_path / "m.ckpt")
        assert restored.enc_cfg == TINY
        assert restored.head_cfg == model.head_cfg

    def test_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        params, meta = load_checkpoint(path)
        params["enc.patch.w"] = params["enc.patch.w"][:, :4]
        save_checkpoint(path, params, meta)
        with pytest.raises(DataError, match="shape"):
            load_model(path)

    def test_missing_parameter_rejected(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        params, meta = load_checkpoint(path)
        params.pop("head.w2")
        save_checkpoint(path, params, meta)
        with pytest.raises(DataError, match="names"):
            load_model(path)

    def test_meta_without_configs_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"x": np.zeros(1, np.float32)}, {"foo": 1})
        with pytest.raises(DataError, match="describe a model"):
            load_model(path)
