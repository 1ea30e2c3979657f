"""Property tests for the on-disk formats: checkpoints, manifests, PPM
and the run manifest ``report`` reads; and for the ``cv`` setting flags.

Any bytes must either load into a valid object or raise a GbmPatchError,
and save -> load must be the identity; any flag values must either build
valid configs or raise a GbmPatchError. Example counts are bounded so the
file runs in a few seconds.
"""

import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gbmpatch.checkpoint import load_model, save_model
from gbmpatch.cli import CV_CONFIGS, _build_configs, build_parser, main
from gbmpatch.data import (CLASS_CODES, MANIFEST_NAME, DatasetManifest,
                           generate_synthetic, load_ppm, save_ppm)
from gbmpatch.encoder import EncoderConfig
from gbmpatch.errors import GbmPatchError
from gbmpatch.head import HeadConfig
from gbmpatch.metrics import METRIC_NAMES
from gbmpatch.model import PatchClassifier, parameter_shapes

BOUNDED = settings(max_examples=40, deadline=None, database=None,
                   suppress_health_check=[HealthCheck.too_slow])
# nested past the JSON decoder's recursion limit: json.loads raises
# RecursionError, which is not a ValueError
DEEP = b"[" * 100_000 + b"]" * 100_000

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)


def loads_or_rejects(load, path):
    try:
        load(path)
    except GbmPatchError:
        pass


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


@pytest.fixture(scope="module")
def model_file(ckpt_dir):
    """The bytes of a saved tiny model."""
    path = ckpt_dir / "saved.ckpt"
    save_model(path, PatchClassifier(
        EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1, heads=2,
                      registers=2, mlp_ratio=2), HeadConfig(bottleneck=4)))
    return path.read_bytes()


@st.composite
def models(draw):
    """A small classifier whose weights are any float32 bit patterns."""
    heads = draw(st.sampled_from([1, 2]))
    enc_cfg = EncoderConfig(
        image_size=draw(st.sampled_from([7, 14])), tile_size=7,
        dim=heads * draw(st.integers(1, 3)), depth=draw(st.integers(0, 2)),
        heads=heads, registers=draw(st.integers(0, 2)),
        mlp_ratio=draw(st.integers(1, 2)))
    head_cfg = HeadConfig(bottleneck=draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arrays = {name: rng.integers(0, 256, 4 * math.prod(shape), np.uint8)
              .view("<f4").reshape(shape)
              for name, shape in parameter_shapes(enc_cfg, head_cfg).items()}
    return PatchClassifier.from_arrays(enc_cfg, head_cfg, arrays)


class TestCheckpoint:
    @BOUNDED
    @given(models(), st.dictionaries(st.text(max_size=6), JSON, max_size=3))
    def test_save_load_is_identity(self, ckpt_dir, model, extra):
        extra = {k: v for k, v in extra.items() if k not in ("encoder", "head")}
        path = ckpt_dir / "w.ckpt"
        save_model(path, model, extra)
        restored, meta = load_model(path)
        assert meta == {"encoder": asdict(model.enc_cfg),
                        "head": asdict(model.head_cfg), **extra}
        loaded = restored.parameters()
        assert list(loaded) == list(model.parameters())
        for name, param in model.parameters().items():
            assert loaded[name].data.shape == param.data.shape
            assert loaded[name].data.tobytes() == param.data.tobytes()

    @BOUNDED
    @given(st.binary(max_size=16).filter(lambda b: b"\n" not in b))
    @example(DEEP)
    def test_any_meta_line(self, ckpt_dir, model_file, line):
        lines = model_file.split(b"\n", 2)
        lines[1] = line
        path = ckpt_dir / "w.ckpt"
        path.write_bytes(b"\n".join(lines))
        loads_or_rejects(load_model, path)

    @BOUNDED
    @given(st.data())
    def test_mutated_meta(self, ckpt_dir, model_file, data):
        first, line, blob = model_file.split(b"\n", 2)
        meta = json.loads(line)
        section = data.draw(st.sampled_from(["encoder", "head", None]))
        value = data.draw(JSON)
        if section is None:   # any JSON value for the whole line
            meta = value
        else:
            key = data.draw(st.sampled_from(sorted(meta[section]) + ["junk"]))
            meta[section][key] = value
        path = ckpt_dir / "w.ckpt"
        path.write_bytes(first + b"\n" + json.dumps(meta).encode() + b"\n"
                         + blob)
        loads_or_rejects(load_model, path)

    @BOUNDED
    @given(st.data())
    def test_mutated_bytes(self, ckpt_dir, model_file, data):
        raw = bytearray(model_file)
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(raw)))
            if data.draw(st.booleans()) and pos < len(raw):
                raw[pos] = data.draw(st.integers(0, 255))
            else:
                del raw[pos:]
        path = ckpt_dir / "w.ckpt"
        path.write_bytes(bytes(raw))
        loads_or_rejects(load_model, path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    manifest = generate_synthetic(root, [2, 1] + [0] * 7, seed=0, size=8)
    return root, [rel for rel, _ in manifest.entries]


def escaping_paths(root, files):
    """Paths to real dataset files that leave the root on the way there."""
    return ([str(root / rel) for rel in files]
            + [f"../{root.name}/{rel}" for rel in files]
            + [f"{rel.split('/')[0]}/../{rel}" for rel in files])


class TestManifest:
    @BOUNDED
    @given(st.data())
    def test_save_load_is_identity(self, dataset, data):
        root, files = dataset
        entries = data.draw(st.lists(st.tuples(
            st.sampled_from(files), st.integers(0, len(CLASS_CODES) - 1)),
            max_size=5))
        seed = data.draw(st.none() | st.integers(-10**6, 10**6))
        DatasetManifest(root=root, entries=entries, seed=seed).save()
        loaded = DatasetManifest.load(root)
        assert loaded.entries == entries
        assert loaded.seed == seed

    @BOUNDED
    @given(st.data())
    def test_mutated_payload(self, dataset, data):
        root, files = dataset
        payload = {"seed": 0, "entries": [{"path": rel, "label": "CT"}
                                          for rel in files]}
        kind = data.draw(st.sampled_from(
            ["payload", "entries", "item", "drop_key", "key_value"]))
        item = payload["entries"][data.draw(st.integers(0, len(files) - 1))]
        key = data.draw(st.sampled_from(["path", "label"]))
        if kind == "payload":
            payload = data.draw(JSON)
        elif kind == "entries":
            payload["entries"] = data.draw(JSON)
        elif kind == "item":
            payload["entries"][0] = data.draw(JSON)
        elif kind == "drop_key":
            del item[key]
        else:
            item[key] = data.draw(JSON | st.text(min_size=250, max_size=300)
                                  | st.sampled_from(files + list(CLASS_CODES))
                                  | st.sampled_from(escaping_paths(root, files)))
        (root / MANIFEST_NAME).write_text(json.dumps(payload))
        loads_or_rejects(DatasetManifest.load, root)

    @BOUNDED
    @given(st.data())
    def test_mutated_bytes(self, dataset, data):
        root, files = dataset
        DatasetManifest(root=root, entries=[(files[0], 0)], seed=1).save()
        raw = bytearray((root / MANIFEST_NAME).read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1))
        raw[pos] = data.draw(st.integers(0, 255))
        (root / MANIFEST_NAME).write_bytes(bytes(raw))
        loads_or_rejects(DatasetManifest.load, root)


    @BOUNDED
    @given(st.binary(max_size=64))
    @example(DEEP)
    def test_any_bytes(self, dataset, raw):
        root, _ = dataset
        (root / MANIFEST_NAME).write_bytes(raw)
        loads_or_rejects(DatasetManifest.load, root)


class TestPpm:
    @BOUNDED
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_save_load_is_identity(self, ckpt_dir, width, height, data):
        blob = data.draw(st.binary(min_size=width * height * 3,
                                   max_size=width * height * 3))
        img = np.frombuffer(blob, np.uint8).reshape(height, width, 3)
        path = ckpt_dir / "x.ppm"
        save_ppm(img, path)
        back = load_ppm(path)
        assert back.shape == (height, width, 3)
        assert back.tobytes() == blob

    @BOUNDED
    @given(st.binary(max_size=64))
    def test_any_bytes(self, ckpt_dir, raw):
        path = ckpt_dir / "x.ppm"
        path.write_bytes(raw)
        loads_or_rejects(load_ppm, path)


SETTING_TYPES = {f.name: type(f.default) for config in CV_CONFIGS
                 for f in fields(config)}


def setting_flag(key):
    """``--key=value`` with a value of the setting's type, in or out of
    range (floats include nan and the infinities)."""
    values = (st.integers(-2, 64) if SETTING_TYPES[key] is int
              else st.floats())
    return values.map(lambda v: f"--{key.replace('_', '-')}={v}")


class TestCvFlags:
    @BOUNDED
    @given(st.lists(st.sampled_from(sorted(SETTING_TYPES))
                    .flatmap(setting_flag), max_size=3))
    @example(["--dim=0"])
    @example(["--heads=0"])
    @example(["--heads=-4"])
    def test_builds_valid_configs_or_rejects(self, flags):
        args = build_parser().parse_args(["cv", "--data", "d"] + flags)
        try:
            _, enc_cfg, _ = _build_configs(args)
        except GbmPatchError:
            return
        # a config that builds splits dim into heads of positive width
        assert enc_cfg.head_dim >= 1 and enc_cfg.n_patches >= 1


def run_payload():
    """The fields ``report`` reads, shaped as ``cv`` writes them."""
    bundle = {name: 0.5 for name in METRIC_NAMES}
    return {"data": "d", "created": "t", "load_s": 0.5,
            "confusion": np.eye(len(CLASS_CODES), dtype=int).tolist(),
            "fold_average": dict(bundle),
            "folds": [{"fold": 0, "epochs_run": 1, "final_loss": 0.1,
                       "wall_s": 0.2, "micro": dict(bundle)}]}


class TestRunManifest:
    @BOUNDED
    @given(st.sampled_from(sorted(run_payload()) + [None]),
           st.sampled_from(["fold", "final_loss", "wall_s", "micro", "f1",
                            None]),
           JSON | st.integers(10 ** 300, 10 ** 400))
    @example("fold_average", "f1", 10 ** 400)
    @example("confusion", "f1", 10 ** 400)
    def test_report_renders_or_rejects(self, ckpt_dir, key, inner, value):
        """Replace the payload, a field, or a field inside one; ``report``
        must render it or exit 3."""
        payload = run_payload()
        if key is None:
            payload = value
        elif inner is None or not isinstance(payload[key], (dict, list)):
            payload[key] = value
        else:
            target = payload[key]
            target = target[0] if isinstance(target, list) else target
            # a confusion row takes the value as its first cell
            target[0 if isinstance(target, list) else inner] = value
        (ckpt_dir / "run.json").write_text(json.dumps(payload))
        assert main(["report", "--run", str(ckpt_dir)]) in (0, 3)

    @BOUNDED
    @given(st.binary(max_size=64))
    @example(DEEP)
    def test_any_bytes(self, ckpt_dir, raw):
        (ckpt_dir / "run.json").write_bytes(raw)
        assert main(["report", "--run", str(ckpt_dir)]) in (0, 3)
