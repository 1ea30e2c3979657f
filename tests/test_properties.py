"""Property tests for the on-disk formats: checkpoints, manifests, PPM,
the ``cv`` config file and the run manifest ``report`` reads.

Any bytes must either load into a valid object or raise a GbmPatchError,
and save -> load must be the identity. Example counts are bounded so the
file runs in a few seconds.
"""

import argparse
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gbmpatch.checkpoint import load_checkpoint, save_checkpoint
from gbmpatch.cli import (_build_configs, _default_settings,
                          _resolve_settings, main)
from gbmpatch.data import (CLASS_CODES, MANIFEST_NAME, DatasetManifest,
                           generate_synthetic, load_ppm, save_ppm)
from gbmpatch.errors import GbmPatchError
from gbmpatch.metrics import METRIC_NAMES

BOUNDED = settings(max_examples=40, deadline=None, database=None,
                   suppress_health_check=[HealthCheck.too_slow])
# nested past the JSON decoder's recursion limit: json.loads raises
# RecursionError, which is not a ValueError
DEEP = b"[" * 100_000 + b"]" * 100_000

# any text but the listing's tab and newline delimiters
NAMES = st.text(max_size=10).filter(lambda s: "\t" not in s and "\n" not in s)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)
# listing-field replacements: numbers, shapes, text and raw bytes
FIELD_JUNK = st.one_of(
    st.integers(-10**6, 10**6).map(lambda n: str(n).encode()),
    st.lists(st.integers(-3, 10**4), max_size=4).map(
        lambda dims: ("(" + ",".join(map(str, dims)) + ")").encode()),
    st.sampled_from([b"", b"zz", b"()", b"(,)", b"(1,)", b"(2,,3)",
                     b"(" + b",".join([b"1"] * 65) + b")",
                     b"(0,99999999999999999999)", b"\xff\xfe"]),
    st.text(max_size=6).map(str.encode),
    st.binary(max_size=6))


@st.composite
def checkpoints(draw):
    shapes = draw(st.dictionaries(
        NAMES, st.lists(st.integers(0, 4), max_size=3).map(tuple), max_size=4))
    params = {}
    for name, shape in shapes.items():
        nbytes = 4 * math.prod(shape)
        blob = draw(st.binary(min_size=nbytes, max_size=nbytes))
        params[name] = np.frombuffer(blob, dtype="<f4").reshape(shape)
    meta = draw(st.dictionaries(st.text(max_size=6), JSON, max_size=3))
    return params, meta


def loads_or_rejects(load, path):
    try:
        load(path)
    except GbmPatchError:
        pass


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


class TestCheckpoint:
    @BOUNDED
    @given(checkpoints())
    def test_save_load_is_identity(self, ckpt_dir, case):
        params, meta = case
        path = ckpt_dir / "w.ckpt"
        save_checkpoint(path, params, meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        assert list(loaded) == list(params)
        for name, arr in params.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    @BOUNDED
    @given(checkpoints(), st.data())
    def test_mutated_listing_or_meta(self, ckpt_dir, case, data):
        path = ckpt_dir / "w.ckpt"
        save_checkpoint(path, *case)
        head, _, blob = path.read_bytes().partition(b"\nDATA\n")
        lines = head.split(b"\n")
        kind = data.draw(st.sampled_from(["field", "meta", "count"]))
        if kind == "field" and len(lines) > 3:
            i = data.draw(st.integers(3, len(lines) - 1))
            fields = lines[i].split(b"\t")
            j = data.draw(st.integers(0, len(fields) - 1))
            fields[j] = data.draw(FIELD_JUNK)
            lines[i] = b"\t".join(fields)
        elif kind == "meta":
            lines[1] = data.draw(st.one_of(
                JSON.map(lambda v: json.dumps(v).encode()), st.binary(max_size=8)))
        else:
            lines[2] = data.draw(FIELD_JUNK)
        path.write_bytes(b"\n".join(lines) + b"\nDATA\n" + blob)
        loads_or_rejects(load_checkpoint, path)

    @BOUNDED
    @given(st.binary(max_size=16).filter(lambda b: b"\n" not in b))
    @example(DEEP)
    def test_any_meta_line(self, ckpt_dir, line):
        path = ckpt_dir / "w.ckpt"
        save_checkpoint(path, {"w": np.zeros(2, np.float32)}, {})
        lines = path.read_bytes().split(b"\n")
        lines[1] = line
        path.write_bytes(b"\n".join(lines))
        loads_or_rejects(load_checkpoint, path)

    @BOUNDED
    @given(checkpoints(), st.data())
    def test_mutated_bytes(self, ckpt_dir, case, data):
        path = ckpt_dir / "w.ckpt"
        save_checkpoint(path, *case)
        raw = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(raw)))
            if data.draw(st.booleans()) and pos < len(raw):
                raw[pos] = data.draw(st.integers(0, 255))
            else:
                del raw[pos:]
        path.write_bytes(bytes(raw))
        loads_or_rejects(load_checkpoint, path)


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


SETTING_KEYS = sorted(_default_settings())


class TestConfigFile:
    @BOUNDED
    @given(st.binary(max_size=64)
           | st.dictionaries(st.sampled_from(SETTING_KEYS),
                             st.integers(-2, 2) | JSON, max_size=3)
           .map(lambda d: json.dumps(d).encode()))
    @example(b'{"dim": 0}')
    @example(b'{"heads": 0}')
    @example(b'{"heads": -4}')
    @example(DEEP)
    def test_builds_valid_configs_or_rejects(self, ckpt_dir, raw):
        path = ckpt_dir / "cfg.json"
        path.write_bytes(raw)
        try:
            _, enc_cfg, _ = _build_configs(
                _resolve_settings(argparse.Namespace(config=str(path))))
        except GbmPatchError:
            return
        # a config that builds splits dim into heads of positive width
        assert enc_cfg.head_dim >= 1 and enc_cfg.n_patches >= 1


def run_payload():
    """The fields ``report`` reads, shaped as ``cv`` writes them."""
    bundle = {name: 0.5 for name in METRIC_NAMES}
    return {"data": "d", "created": "t",
            "per_class": [dict(bundle) for _ in CLASS_CODES],
            "micro": dict(bundle), "fold_average": dict(bundle),
            "folds": [{"fold": 0, "epochs_run": 1, "final_loss": 0.1,
                       "micro": dict(bundle)}]}


class TestRunManifest:
    @BOUNDED
    @given(st.sampled_from(sorted(run_payload()) + [None]),
           st.sampled_from(["fold", "final_loss", "micro", "f1", None]),
           JSON | st.integers(10 ** 300, 10 ** 400))
    @example("micro", "f1", 10 ** 400)
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
            target[inner] = value
        (ckpt_dir / "run.json").write_text(json.dumps(payload))
        assert main(["report", "--run", str(ckpt_dir)]) in (0, 3)

    @BOUNDED
    @given(st.binary(max_size=64))
    @example(DEEP)
    def test_any_bytes(self, ckpt_dir, raw):
        (ckpt_dir / "run.json").write_bytes(raw)
        assert main(["report", "--run", str(ckpt_dir)]) in (0, 3)
