import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmtm import checkpoint, dataset, model


def old_save(path, params, vocab):
    """The per-tensor v1 writer that wrote checkpoints before the arena."""
    manifest, offset = [], 0
    for name in sorted(params.tensors):
        shape = list(params.tensors[name].shape)
        manifest.append({"name": name, "shape": shape, "offset": offset})
        offset += int(np.prod(shape)) * 8
    header = {
        "format_version": 1, "config": params.config.to_dict(),
        "tasks": [t.value for t in params.tasks],
        "src_vocab": vocab.src_itos, "tgt_vocab": vocab.tgt_itos,
        "src_vocab_hash": checkpoint.vocab_hash(vocab.src_itos),
        "tgt_vocab_hash": checkpoint.vocab_hash(vocab.tgt_itos),
        "payload_dtype": "<f8", "manifest": manifest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(checkpoint.MAGIC + struct.pack("<Q", len(blob)) + blob)
        for entry in manifest:
            fh.write(np.ascontiguousarray(params.tensors[entry["name"]],
                                          dtype="<f8").tobytes())


def rewrite(src, dst, edit_header=None, edit_payload=None):
    """Copy a checkpoint, passing its header dict and payload bytes through edits."""
    blob = src.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[4:12])
    header, payload = json.loads(blob[12:12 + hlen]), blob[12 + hlen:]
    if edit_header:
        edit_header(header)
    if edit_payload:
        payload = edit_payload(payload)
    new = json.dumps(header, sort_keys=True).encode()
    dst.write_bytes(blob[:4] + struct.pack("<Q", len(new)) + new + payload)
    return dst


def small_store():
    vocab = dataset.Vocab(["cat", "sat"], ["+", "number0", "number1"])
    cfg = model.ModelConfig(src_vocab_size=vocab.src_size,
                            tgt_vocab_size=vocab.tgt_size, d_model=8, n_heads=2,
                            seed=13)
    return model.init_params(cfg), vocab


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        params, vocab = small_store()
        path = tmp_path / "m.mmtm"
        checkpoint.save(path, params, vocab)
        loaded = checkpoint.load(path)
        assert loaded.vocab.src_itos == vocab.src_itos
        assert loaded.vocab.tgt_itos == vocab.tgt_itos
        assert loaded.config == params.config
        assert loaded.params.tasks == params.tasks
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.params.tensors[name],
                                          params.tensors[name])

    def test_save_is_deterministic(self, tmp_path):
        params, vocab = small_store()
        checkpoint.save(tmp_path / "a", params, vocab)
        checkpoint.save(tmp_path / "b", params, vocab)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_header_is_json_with_manifest(self, tmp_path):
        params, vocab = small_store()
        path = tmp_path / "m.mmtm"
        checkpoint.save(path, params, vocab)
        blob = path.read_bytes()
        assert blob[:4] == checkpoint.MAGIC
        (hlen,) = struct.unpack("<Q", blob[4:12])
        header = json.loads(blob[12:12 + hlen])
        names = [e["name"] for e in header["manifest"]]
        assert names == sorted(params.tensors)
        payload = blob[12 + hlen:]
        assert len(payload) == params.flat.size * 8  # float64


class TestMismatch:
    def test_tampered_vocab_hash_rejected(self, tmp_path):
        params, vocab = small_store()
        path = tmp_path / "m.mmtm"
        checkpoint.save(path, params, vocab)
        blob = bytearray(path.read_bytes())
        (hlen,) = struct.unpack("<Q", bytes(blob[4:12]))
        header = json.loads(bytes(blob[12:12 + hlen]))
        header["src_vocab"][-1] = "tampered"
        new_header = json.dumps(header, sort_keys=True).encode()
        out = (bytes(blob[:4]) + struct.pack("<Q", len(new_header)) + new_header
               + bytes(blob[12 + hlen:]))
        bad = tmp_path / "bad.mmtm"
        bad.write_bytes(out)
        with pytest.raises(checkpoint.CheckpointMismatch):
            checkpoint.load(bad)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world")
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load(path)


class TestArena:
    def test_tensors_are_views_of_flat(self):
        params, _ = small_store()
        assert params.flat.ndim == 1 and params.flat.flags.c_contiguous
        for name, view in params.tensors.items():
            assert np.shares_memory(view, params.flat), name
        copy = params.copy()
        assert not np.shares_memory(copy.flat, params.flat)
        for name, view in copy.tensors.items():
            assert np.shares_memory(view, copy.flat)
            assert not np.shares_memory(view, params.flat), name
        np.testing.assert_array_equal(copy.flat, params.flat)

    def test_assignment_writes_into_the_arena(self):
        params, _ = small_store()
        view = params.tensors["src_embed"]
        params.tensors["src_embed"] = 2.5
        assert params.tensors["src_embed"] is view
        assert (view == 2.5).all()
        with pytest.raises(KeyError):  # names are fixed
            params.tensors["new"] = 1.0

    def test_old_writer_file_loads_bit_identical(self, tmp_path):
        params, vocab = small_store()
        old_save(tmp_path / "old.mmtm", params, vocab)
        checkpoint.save(tmp_path / "new.mmtm", params, vocab)
        assert (tmp_path / "old.mmtm").read_bytes() == (tmp_path / "new.mmtm").read_bytes()
        loaded = checkpoint.load(tmp_path / "old.mmtm")
        assert loaded.params.flat.tobytes() == params.flat.tobytes()
        for name in params.tensors:
            assert (loaded.params.tensors[name].tobytes()
                    == params.tensors[name].tobytes())

    def test_save_load_save_byte_identical(self, tmp_path):
        params, vocab = small_store()
        checkpoint.save(tmp_path / "a", params, vocab)
        loaded = checkpoint.load(tmp_path / "a")
        checkpoint.save(tmp_path / "b", loaded.params, loaded.vocab)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def _swap_first_two(header):
    header["manifest"][:2] = header["manifest"][1::-1]


class TestValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        params, vocab = small_store()
        checkpoint.save(tmp_path / "m.mmtm", params, vocab)
        return tmp_path / "m.mmtm"

    @pytest.mark.parametrize("edit_header, edit_payload", [
        (lambda h: h.pop("payload_dtype"), None),  # a required key is missing
        (lambda h: h.pop("manifest"), None),
        (_swap_first_two, None),  # manifest not in sorted order
        (lambda h: h["manifest"][3].update(offset=h["manifest"][3]["offset"] + 8),
         None),  # manifest not contiguous
        (None, lambda p: p[:-100]),  # truncated payload
        (None, lambda p: p + b"\0" * 8),  # trailing bytes
        (lambda h: h.update(tasks=["pre", "in"]), None),  # dec.post.* not in tasks
        (lambda h: h.update(tasks=["pre", "in", "post", "sideways"]), None),
        (lambda h: h["config"].update(d_model=9), None),  # config cannot be built
        (lambda h: h["config"].update(colour="red"), None),
    ], ids=["no-dtype", "no-manifest", "unsorted", "gap", "truncated", "trailing",
            "missing-task", "unknown-task", "bad-config", "unknown-config-key"])
    def test_inconsistent_file_rejected(self, saved, tmp_path, edit_header,
                                        edit_payload):
        bad = rewrite(saved, tmp_path / "bad.mmtm", edit_header, edit_payload)
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load(bad)


@pytest.fixture(scope="module")
def saved_blob(tmp_path_factory):
    params, vocab = small_store()
    path = tmp_path_factory.mktemp("ckpt") / "m.mmtm"
    checkpoint.save(path, params, vocab)
    return path.read_bytes()


@pytest.fixture(scope="module")
def corrupt_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt") / "bad.mmtm"


class TestCorruptFile:
    @pytest.mark.parametrize("hlen", [2**62, 2**64 - 1, None],
                             ids=["2^62", "2^64-1", "file-size-minus-11"])
    def test_header_length_past_the_end_rejected(self, saved_blob, tmp_path, hlen):
        """A length of 2^62 once raised MemoryError from reading the header."""
        hlen = len(saved_blob) - 11 if hlen is None else hlen
        bad = tmp_path / "bad.mmtm"
        bad.write_bytes(saved_blob[:4] + struct.pack("<Q", hlen) + saved_blob[12:])
        with pytest.raises(checkpoint.CheckpointError, match="runs past the end"):
            checkpoint.load(bad)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_flips_and_truncations_raise_only_checkpoint_error(
            self, saved_blob, corrupt_path, data):
        """Flip 1-3 bits of the magic, the length or the header, or cut the
        file short: load raises CheckpointError or nothing. A flip may leave a
        header that save could have written (another seed, say), which loads;
        a truncated file never does."""
        blob = bytearray(saved_blob)
        header_end = 12 + struct.unpack("<Q", saved_blob[4:12])[0]
        truncate = data.draw(st.booleans(), label="truncate")
        if truncate:
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            # half the flips land in the 12 bytes of magic and length
            where = st.integers(0, 11) | st.integers(12, header_end - 1)
            flips = data.draw(st.lists(st.tuples(where, st.integers(0, 7)),
                                       min_size=1, max_size=3, unique=True),
                              label="flips")
            for pos, bit in flips:
                blob[pos] ^= 1 << bit
        corrupt_path.write_bytes(blob)
        try:
            checkpoint.load(corrupt_path)
        except checkpoint.CheckpointError:
            return
        assert not truncate, "a truncated checkpoint loaded"
