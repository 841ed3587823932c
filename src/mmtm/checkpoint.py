"""Checkpoint files: a JSON header plus a raw little-endian float payload.

Layout: 4-byte magic, 8-byte little-endian header length, UTF-8 JSON header,
then the parameter arena (`ParamStore.flat`: every tensor back to back in
sorted-name order) as one buffer. The header embeds the config, the tasks,
both vocabularies and their hashes and the tensor manifest. `load` accepts
only the header `save` would write for that config, tasks and vocabularies,
and a payload of exactly the manifest's length; else it raises CheckpointError.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import RESERVED, DatasetError, Vocab
from .expr import TraversalVariant
from .model import Arena, ModelConfig, ModelError, ParamStore, param_shapes

MAGIC = b"MMTM"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    pass


class CheckpointMismatch(CheckpointError):
    """Vocab hash in the manifest disagrees with the embedded vocabulary."""


def vocab_hash(tokens: list[str]) -> str:
    return hashlib.sha256("\x00".join(tokens).encode("utf-8")).hexdigest()


@dataclass
class TrainedModel:
    params: ParamStore
    vocab: Vocab

    @property
    def config(self) -> ModelConfig:
        return self.params.config


def _header(config: ModelConfig, tasks, vocab: Vocab,
            shapes: dict[str, tuple[int, ...]]) -> dict:
    """The header `save` writes; the manifest lays the tensors out back to back."""
    dtype = np.dtype("<f8" if config.dtype == "float64" else "<f4")
    manifest, offset = [], 0
    for name in sorted(shapes):
        manifest.append({"name": name, "shape": list(shapes[name]), "offset": offset})
        offset += math.prod(shapes[name]) * dtype.itemsize
    return {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "tasks": [task.value for task in tasks],
        "src_vocab": vocab.src_itos,
        "tgt_vocab": vocab.tgt_itos,
        "src_vocab_hash": vocab_hash(vocab.src_itos),
        "tgt_vocab_hash": vocab_hash(vocab.tgt_itos),
        "payload_dtype": dtype.str,
        "manifest": manifest,
    }


def save(path: str | Path, params: ParamStore, vocab: Vocab) -> None:
    """Write the header, then the parameter arena as one buffer."""
    header = _header(params.config, params.tasks, vocab,
                     {n: v.shape for n, v in params.tensors.items()})
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(params.flat.astype(header["payload_dtype"], copy=False).data)


def load(path: str | Path) -> TrainedModel:
    """Read and validate a checkpoint; the payload is read into the arena at once."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        file_size = os.fstat(fh.fileno()).st_size
        try:
            (hlen,) = struct.unpack("<Q", fh.read(8))
            if hlen > file_size - 12:  # checked before reading: a bad length is huge
                raise CheckpointError(f"{path}: header length {hlen} runs past the "
                                      f"end of the file")
            header = json.loads(fh.read(hlen).decode("utf-8"))
            vocab = Vocab(header["src_vocab"][len(RESERVED):],
                          header["tgt_vocab"][len(RESERVED):])
            config = ModelConfig(**header["config"])
            tasks = tuple(TraversalVariant(t) for t in header["tasks"])
            shapes = param_shapes(config, tasks)
            expected = _header(config, tasks, vocab, shapes)
            wrong = sorted(k for k in expected.keys() | header.keys()
                           if header.get(k) != expected.get(k))
            if wrong:  # a vocabulary that does not match its hash is a mismatch
                mismatch = {"src_vocab_hash", "tgt_vocab_hash"} & set(wrong)
                raise (CheckpointMismatch if mismatch else CheckpointError)(
                    f"{path}: header differs from the one its config, tasks and "
                    f"vocabularies give, in {', '.join(wrong)}")
            flat = np.empty(sum(map(math.prod, shapes.values())),
                            dtype=expected["payload_dtype"])
            size = file_size - fh.tell()
            if size != flat.nbytes:
                raise CheckpointError(f"{path}: payload is {size} bytes, the manifest "
                                      f"needs {flat.nbytes}")
            fh.readinto(flat)
            params = ParamStore(config, Arena(flat, shapes), tasks)
        except (struct.error, KeyError, TypeError, ValueError, RecursionError,
                ModelError, DatasetError) as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    return TrainedModel(params=params, vocab=vocab)
