"""Binary model checkpoints.

Layout, all integers little-endian:

    8-byte ASCII magic "NUTSCKPT"
    uint32 format version (currently 1)
    uint32 header byte length, then that many bytes of UTF-8 JSON
    per tensor, in sorted name order (the header's list):
        uint16 name byte length, then the UTF-8 name
        uint8 rank, then rank x uint32 dims
        row-major IEEE-754 float32 data

The JSON header records the model kind, its hyperparameters, the full
vocabulary, the creation seed, the resolved config hash, and the tensor
name list. Weights are stored at 32-bit and widened to 64-bit on load, so
saving a freshly loaded model reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContractViolation, InputFileError, NumericError
from .gradcore import Tensor
from .models import MODEL_KINDS, model_from_parts
from .textdata import Vocab

MAGIC = b"NUTSCKPT"
VERSION = 1


def save_checkpoint(model, path, seed: int = 0, config_hash: str = "") -> None:
    """Write `model` to `path` in the binary format above."""
    names = sorted(model.weights)
    header = {
        "kind": model.kind,
        "hyperparams": model.hyperparams(),
        "vocab": model.vocab.to_jsonable(),
        "seed": int(seed),
        "config_hash": config_hash,
        "tensors": names,
    }
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(blob))
    out += blob
    for name in names:
        data = model.weights[name].data
        enc = name.encode("utf-8")
        out += struct.pack("<H", len(enc))
        out += enc
        out += struct.pack("<B", data.ndim)
        for d in data.shape:
            out += struct.pack("<I", d)
        out += np.ascontiguousarray(data, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(out))


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf, self.path = buf, path
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise InputFileError(
                f"{self.path}: file ended inside {what} ({self.pos + n} "
                f"bytes needed, {len(self.buf)} present)")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return struct.unpack("<B", self.take(1, what))[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path):
    """Read a checkpoint and rebuild the model it describes: the header
    declares the model, then each tensor is read against its declared name
    and shape. Returns (model, header) where header is the parsed JSON
    dict. A file that is not such a checkpoint raises InputFileError, its
    message starting with the path."""
    buf = Path(path).read_bytes()
    r = _Reader(buf, path)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise InputFileError(f"{path}: not a checkpoint file")
    version = r.u32("version")
    if version != VERSION:
        raise InputFileError(
            f"{path}: format version {version}, supported: {VERSION}")
    hlen = r.u32("header length")
    try:
        header = json.loads(r.take(hlen, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise InputFileError(f"{path}: bad header: {err}") from err
    if not isinstance(header, dict):
        raise InputFileError(f"{path}: header is not a JSON object")
    for key in ("kind", "hyperparams", "vocab", "seed", "config_hash",
                "tensors"):
        if key not in header:
            raise InputFileError(f"{path}: header lacks '{key}'")
    kind, names = header["kind"], header["tensors"]
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise InputFileError(f"{path}: unknown model kind {kind!r}")
    if not isinstance(names, list):
        raise InputFileError(f"{path}: header 'tensors' is not a list")

    try:
        vocab = Vocab.from_jsonable(header["vocab"])
    except (AttributeError, KeyError, TypeError, ValueError,
            ContractViolation) as err:
        raise InputFileError(f"{path}: bad vocab payload: {err}") from err
    try:  # the declaration alone: no weights drawn
        model = model_from_parts(kind, header["hyperparams"], vocab, {})
        shapes = model.weight_shapes()
    except (AttributeError, TypeError, ValueError, ContractViolation) as err:
        raise InputFileError(f"{path}: cannot rebuild model: {err}") from err
    if model.kind != kind:  # a victim's kind is also in its hyperparams
        raise InputFileError(
            f"{path}: header kind {kind!r} but hyperparams kind "
            f"{model.kind!r}")
    declared = sorted(shapes)
    if names != declared:
        raise InputFileError(
            f"{path}: header tensors are not a {kind} model's sorted list: "
            f"missing {[n for n in declared if n not in names]}, "
            f"unexpected {[n for n in names if n not in declared]}")

    for expect in names:
        nlen = r.u16("tensor name length")
        # a name that is not UTF-8 decodes to one that no model has
        name = r.take(nlen, "tensor name").decode("utf-8", "replace")
        if name != expect:
            raise InputFileError(
                f"{path}: tensor order mismatch: header says {expect!r}, "
                f"file has {name!r}")
        rank = r.u8("tensor rank")
        dims = tuple(r.u32("tensor dims") for _ in range(rank))
        shape = shapes[name]
        # a float or bool size would compare equal to an int one
        if dims != shape or any(type(d) is not int for d in shape):
            raise InputFileError(f"{path}: tensor {name!r} has shape {dims}, "
                                 f"expected {shape}")
        raw = r.take(4 * math.prod(dims), f"tensor data for {name!r}")
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float64)
        try:
            model.weights[name] = Tensor(arr)
        except NumericError:
            raise InputFileError(
                f"{path}: tensor {name!r} holds a non-finite value") from None
    if r.pos != len(buf):
        raise InputFileError(
            f"{path}: {len(buf) - r.pos} trailing bytes after last tensor")
    return model, header
