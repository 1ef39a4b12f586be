"""Checkpoint format: byte-stable round trips and corruption detection."""

import json
import re
import struct

import numpy as np
import pytest

from nutsearch.checkpoint import VERSION, load_checkpoint, save_checkpoint
from nutsearch.errors import InputFileError
from nutsearch.gradcore import Tensor
from nutsearch.models import ARAEModel, ScoringLM, VictimClassifier


@pytest.fixture()
def lstm2_model(sentiment_data):
    _, vocab = sentiment_data
    return VictimClassifier(vocab, kind="lstm2", n_classes=2, seed=5)


def _replace_header(buf: bytes, make) -> bytes:
    """Parse out the JSON header, replace it by `make(header)`, and
    reassemble the file."""
    hlen = struct.unpack("<I", buf[12:16])[0]
    header = make(json.loads(buf[16:16 + hlen].decode("utf-8")))
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return buf[:12] + struct.pack("<I", len(blob)) + blob + buf[16 + hlen:]


def _rewrite_header(buf: bytes, mutate) -> bytes:
    """Parse out the JSON header, apply `mutate` in place, and reassemble
    the file."""
    def make(header):
        mutate(header)
        return header
    return _replace_header(buf, make)


def _tensor_blocks(buf: bytes) -> list[tuple[int, int]]:
    """The (start, end) byte span of each tensor block, in file order."""
    pos = 16 + struct.unpack("<I", buf[12:16])[0]
    spans = []
    while pos < len(buf):
        start = pos
        pos += 2 + struct.unpack("<H", buf[pos:pos + 2])[0]
        rank = buf[pos]
        dims = struct.unpack(f"<{rank}I", buf[pos + 1:pos + 1 + 4 * rank])
        pos += 1 + 4 * rank + 4 * int(np.prod(dims))
        spans.append((start, pos))
    return spans


def _rejects(path, match: str = ""):
    """load_checkpoint raises InputFileError whose message is the path, then
    text matching the regex `match`."""
    with pytest.raises(InputFileError) as exc:
        load_checkpoint(path)
    assert re.match(re.escape(f"{path}: ") + match, str(exc.value)), exc.value


# headers that parse as JSON but not as a checkpoint header
MALFORMED_HEADERS = {
    "number": lambda h: 7,
    "string-naming-every-key": lambda h: " ".join(h),
    "kind-not-a-string": lambda h: dict(h, kind=[h["kind"]]),
    "tensors-not-a-list": lambda h: dict(h, tensors=5),
}


class TestRoundTrip:
    @pytest.mark.parametrize("build", [
        lambda v: VictimClassifier(v, kind="lstm2", n_classes=2, seed=1),
        lambda v: VictimClassifier(v, kind="bag", n_classes=2, seed=2),
        lambda v: VictimClassifier(v, kind="pair", n_classes=3, seed=3),
        lambda v: ScoringLM(v, seed=4),
        lambda v: ARAEModel(v, seed=5, latent_scale=3.0),
    ], ids=["lstm2", "bag", "pair", "lm", "arae"])
    def test_save_load_save_is_byte_identical(self, sentiment_data, tmp_path,
                                              build):
        _, vocab = sentiment_data
        model = build(vocab)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1, seed=7, config_hash="cafe")
        loaded, header = load_checkpoint(p1)
        assert header["kind"] == model.kind
        assert header["seed"] == 7
        assert header["config_hash"] == "cafe"
        assert header["hyperparams"] == model.hyperparams()
        save_checkpoint(loaded, p2, seed=7, config_hash="cafe")
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_weights_are_widened_float32(self, lstm2_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(lstm2_model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.weights.keys() == lstm2_model.weights.keys()
        for k, t in lstm2_model.weights.items():
            expect = t.data.astype("<f4").astype(np.float64)
            assert np.array_equal(loaded.weights[k].data, expect), k
            assert loaded.weights[k].data.dtype == np.float64

    def test_loaded_weights_survive_second_trip_bit_identically(
            self, lstm2_model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(lstm2_model, p1)
        m1, _ = load_checkpoint(p1)
        save_checkpoint(m1, p2)
        m2, _ = load_checkpoint(p2)
        for k in m1.weights:
            assert np.array_equal(m1.weights[k].data, m2.weights[k].data), k

    def test_same_model_saves_identical_bytes(self, lstm2_model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(lstm2_model, p1, seed=1)
        save_checkpoint(lstm2_model, p2, seed=1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_classifier_predicts_like_original(self, sentiment_data,
                                                      lstm2_model, tmp_path):
        split, _ = sentiment_data
        path = tmp_path / "m.ckpt"
        save_checkpoint(lstm2_model, path)
        loaded, _ = load_checkpoint(path)
        texts = [ex.text for ex in split.dev[:8]]
        a = lstm2_model.logits_batch(texts)
        b = loaded.logits_batch(texts)
        assert np.allclose(a, b, atol=1e-4)


class TestCorruption:
    """Each corruption raises InputFileError, and every message starts with
    the path (`_rejects`)."""

    @pytest.fixture()
    def saved(self, lstm2_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(lstm2_model, path)
        return path, path.read_bytes()

    def test_bad_magic(self, saved):
        path, buf = saved
        path.write_bytes(b"X" + buf[1:])
        _rejects(path, "not a checkpoint file")

    def test_unsupported_version(self, saved):
        path, buf = saved
        path.write_bytes(buf[:8] + struct.pack("<I", VERSION + 9) + buf[12:])
        _rejects(path, f"format version {VERSION + 9}, supported: ")

    def test_truncated_tensor_block(self, saved):
        path, buf = saved
        path.write_bytes(buf[:-10])
        _rejects(path, "file ended inside tensor data for ")

    def test_truncated_header(self, saved):
        path, buf = saved
        path.write_bytes(buf[:20])
        _rejects(path, "file ended inside header ")

    def test_trailing_bytes(self, saved):
        path, buf = saved
        path.write_bytes(buf + b"xx")
        _rejects(path, "2 trailing bytes after last tensor")

    def test_missing_header_key(self, saved):
        path, buf = saved
        path.write_bytes(_rewrite_header(buf, lambda h: h.pop("seed")))
        _rejects(path, "header lacks 'seed'")

    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_malformed_header_names_path(self, saved, case):
        path, buf = saved
        path.write_bytes(_replace_header(buf, MALFORMED_HEADERS[case]))
        _rejects(path)

    def test_unknown_kind(self, saved):
        path, buf = saved
        def mutate(h):
            h["kind"] = "transformer"
        path.write_bytes(_rewrite_header(buf, mutate))
        _rejects(path, "unknown model kind 'transformer'")

    def test_header_kind_must_be_the_hyperparams_kind(self, sentiment_data,
                                                       tmp_path):
        _, vocab = sentiment_data
        path = tmp_path / "bag.ckpt"
        save_checkpoint(VictimClassifier(vocab, kind="bag", n_classes=2,
                                         seed=2), path)
        def mutate(h):
            h["kind"] = "lstm2"
        path.write_bytes(_rewrite_header(path.read_bytes(), mutate))
        _rejects(path, "header kind 'lstm2' but hyperparams kind 'bag'")

    def test_vocab_size_mismatch(self, saved, lstm2_model):
        """The embedding's rows are sized from the vocabulary, so the shape
        check rejects a vocabulary of another size."""
        path, buf = saved
        rows, dim = lstm2_model.weights["emb"].data.shape
        def mutate(h):  # drop the last three tokens and their counts
            for t in h["vocab"]["tokens"][-3:]:
                h["vocab"]["freq"].pop(t)
            h["vocab"]["tokens"] = h["vocab"]["tokens"][:-3]
        path.write_bytes(_rewrite_header(buf, mutate))
        _rejects(path, re.escape(f"tensor 'emb' has shape ({rows}, {dim}), "
                                 f"expected ({rows - 3}, {dim})"))

    @pytest.mark.parametrize("freq", [
        lambda f: dict(f, the="often"),  # a count that is not an integer
        lambda f: sorted(f),             # a list, not a token -> count map
        lambda f: dict(f, the=-5),
        lambda f: dict(f, the=1.7),
        lambda f: dict(f, the="3"),      # JSON text, however numeric
        lambda f: dict(f, the=True),     # a bool is not a count
        lambda f: dict(f, zzzz=1000000),  # a token the vocabulary lacks
    ], ids=["count-not-int", "freq-a-list", "count-negative", "count-float",
            "count-numeric-string", "count-bool", "count-for-a-non-token"])
    def test_bad_vocab_counts_name_path(self, saved, freq):
        path, buf = saved
        def mutate(h):
            h["vocab"]["freq"] = freq(h["vocab"]["freq"])
        path.write_bytes(_rewrite_header(buf, mutate))
        _rejects(path, "bad vocab payload")

    @pytest.mark.parametrize("change,name", [
        (lambda w: w.pop("l1.b"), "l1.b"),
        (lambda w: w.update({"l3.b": w["l2.b"]}), "l3.b"),
    ], ids=["missing", "extra"])
    def test_tensor_names_must_be_the_kinds(self, saved, lstm2_model,
                                            change, name):
        path, _ = saved
        change(lstm2_model.weights)
        save_checkpoint(lstm2_model, path)
        _rejects(path, f"header tensors are not a lstm2 model's sorted "
                       f"list: .*'{name}'")

    def test_embedding_of_rank_zero_names_path(self, saved, lstm2_model):
        path, _ = saved
        want = lstm2_model.weights["emb"].data.shape
        lstm2_model.weights["emb"] = Tensor(np.asarray(1.0))
        save_checkpoint(lstm2_model, path)
        _rejects(path, re.escape(f"tensor 'emb' has shape (), expected {want}"))

    def test_tensor_of_wrong_shape_names_path_and_shapes(self, saved,
                                                         lstm2_model):
        path, _ = saved
        want = lstm2_model.weights["l1.ih"].data.shape
        lstm2_model.weights["l1.ih"] = Tensor(np.zeros((5, 12)))
        save_checkpoint(lstm2_model, path)
        _rejects(path, re.escape(f"tensor 'l1.ih' has shape (5, 12), "
                                 f"expected {want}"))

    @pytest.mark.parametrize("size", [lambda d: 10 ** 12, float],
                             ids=["huge", "float-of-the-right-size"])
    def test_header_sizes_must_be_the_tensors(self, saved, size):
        path, buf = saved
        def mutate(h):
            h["hyperparams"]["hidden_dim"] = size(h["hyperparams"]["hidden_dim"])
        path.write_bytes(_rewrite_header(buf, mutate))
        _rejects(path, "tensor ")

    def test_tensor_order_mismatch(self, saved):
        """A header whose tensor list is not the declared, sorted one."""
        path, buf = saved
        def mutate(h):
            h["tensors"][0], h["tensors"][1] = h["tensors"][1], h["tensors"][0]
        path.write_bytes(_rewrite_header(buf, mutate))
        _rejects(path, re.escape("header tensors are not a lstm2 model's "
                                 "sorted list: missing [], unexpected []"))

    def test_tensor_blocks_out_of_declared_order(self, saved):
        """The header is intact, but the file's first two tensor blocks are
        swapped."""
        path, buf = saved
        (a, b), (_, c) = _tensor_blocks(buf)[:2]
        path.write_bytes(buf[:a] + buf[b:c] + buf[a:b] + buf[c:])
        _rejects(path, "tensor order mismatch: header says 'emb', file has "
                       "'head.b'")

    def test_tensor_name_not_utf8_names_path(self, saved):
        path, buf = saved
        hlen = struct.unpack("<I", buf[12:16])[0]
        first = 16 + hlen + 2  # the first tensor name's first byte
        path.write_bytes(buf[:first] + b"\xff" + buf[first + 1:])
        _rejects(path, "tensor order mismatch: ")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_weight_names_path_and_tensor(self, saved, lstm2_model,
                                                    value):
        path, buf = saved
        # the last value of the last tensor in the file
        path.write_bytes(buf[:-4] + np.asarray(value, dtype="<f4").tobytes())
        last = sorted(lstm2_model.weights)[-1]
        _rejects(path, re.escape(f"tensor {last!r} holds a non-finite value"))
