"""Shared-encoder / multi-decoder transformer with explicit forward and backward.

One encoder stack is shared by three task-specific decoder stacks (one per
traversal order). Everything is plain numpy with hand-written gradients so
training runs bit-identically under a fixed seed in 64-bit mode and the
backward pass can be checked against finite differences.

Parameter naming:
    src_embed
    enc.{i}.ln1.g|b  enc.{i}.attn.wq|wk|wv|wo
    enc.{i}.ln2.g|b  enc.{i}.ffn.w1|b1|w2|b2
    enc.ln_f.g|b
    dec.{task}.tgt_embed
    dec.{task}.{i}.ln1.g|b      dec.{task}.{i}.self_attn.wq|wk|wv|wo
    dec.{task}.{i}.ln2.g|b      dec.{task}.{i}.cross_attn.wq|wk|wv|wo
    dec.{task}.{i}.ln3.g|b      dec.{task}.{i}.ffn.w1|b1|w2|b2
    dec.{task}.ln_f.g|b         dec.{task}.out.w|b      ({task}: pre, in or post)

All parameters live in one contiguous 1-D arena, `ParamStore.flat`, in
sorted-name order: dec.in.* | dec.post.* | dec.pre.* | enc.*, src_embed.
`ParamStore.tensors` maps each name to a reshaped view of it. Training on one
task updates the shared encoder plus that task's decoder: one span of `flat`
for pre-order, two for in-order or post-order (`ParamStore.spans`). Gradients
go to an arena of the same layout (`zero_grads`) or, in training, to one of
only those tensors, whose flat is the task's spans end to end (`task_grads`).

Batches are packed: every position-wise op (embedding, LayerNorm, Q/K/V/O
projections, FFN, dropout, output projection, loss, and their backward) runs
on (N, d) rows, one per non-PAD position of the padded source and of the
BOS-prefixed target input. The attention core (scores, softmax, context) runs
on cache-sized blocks of consecutive batch rows, each padded only to its own
longest row (`_layout` gives `Block`s of a query and a key `Side`). Per
sublayer the tape keeps the LayerNorm's `xhat` and scale, bool dropout masks,
and the attention weights and blocks (plus cross-attention's encoder states,
one array for every decoder layer) or the FFN's ReLU output. Backward rebuilds
each LayerNorm output and each attention's queries, keys, values and context
with the forward's own expressions, so bit for bit, and empties each tape entry
as it runs, so a tape is used once. PAD gets no embedding gradient. The decoder
stack, `_decoder_stack`, is written once: training runs it on a packed batch,
and greedy decoding on one row per source and step, against cached attention
keys and values.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dataset import PAD, BOS, EOS
from .expr import TraversalVariant

_LN_EPS = 1e-5
_NEG = -1e30
# Sources per greedy-decode batch. It bounds the encoder activations and K/V
# caches held at once; 32 rows decode as fast as 64 at a lower peak RSS.
DECODE_CHUNK = 32
# Score entries (rows x heads x query rows x key rows) per attention block:
# 512 KiB of float64 scores, so a block's scores and weights stay in L2.
ATTN_BLOCK = 1 << 16


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds; does nothing off glibc.

    By default glibc raises its mmap threshold to the largest mapped block
    freed so far, so whether a step's temporaries over 128 KiB are mapped
    (and page-faulted in) afresh on every step depends on what the process
    freed before. Setting either threshold turns that off, so both are set:
    blocks under 32 MiB come from the heap, and up to 1 GiB of free heap is
    kept rather than returned to the system."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    libc = ctypes.CDLL(None)  # the loaded libc, with no ldconfig lookup
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()


class ModelError(Exception):
    pass


class ShapeMismatch(ModelError):
    pass


class SequenceTooLong(ModelError):
    pass


class IdOutOfRange(ModelError):
    pass


class UnknownTask(ModelError):
    pass


class EmptyInput(ModelError):
    pass


class EmptyTarget(ModelError):
    pass


@dataclass
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    d_model: int = 64
    n_enc_layers: int = 1
    n_dec_layers: int = 1
    n_heads: int = 4
    d_ffn: int = 0  # 0 means 4 * d_model
    max_src_len: int = 128
    max_tgt_len: int = 48
    dropout: float = 0.1
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.d_ffn == 0:
            self.d_ffn = 4 * self.d_model
        for name in ("src_vocab_size", "tgt_vocab_size", "d_model", "n_enc_layers",
                     "n_dec_layers", "n_heads", "d_ffn", "max_src_len", "max_tgt_len"):
            if getattr(self, name) < 1:
                raise ShapeMismatch(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:  # after the range checks: n_heads >= 1
            raise ShapeMismatch(f"d_model={self.d_model} not divisible by "
                                f"n_heads={self.n_heads}")
        if self.dtype not in ("float64", "float32"):
            raise ShapeMismatch(f"unsupported dtype {self.dtype!r}")
        if not 0 <= self.dropout < 1:  # NaN fails too
            raise ShapeMismatch(f"dropout must be in [0, 1), got {self.dropout}")

    def to_dict(self) -> dict:
        return asdict(self)


class Arena(Mapping):
    """Name -> array mapping whose values are reshaped views of one 1-D array,
    `flat`, in sorted-name order. Assigning to a name writes into `flat`; the
    names are fixed."""

    def __init__(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        self.flat, self.shapes = flat, shapes
        names = sorted(shapes)
        pieces = np.split(flat, np.cumsum([math.prod(shapes[n]) for n in names])[:-1])
        self._views = {n: piece.reshape(shapes[n]) for n, piece in zip(names, pieces)}

    def __getitem__(self, name: str):
        return self._views[name]

    def __setitem__(self, name: str, value):
        self._views[name][...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def _trains(name: str, task: TraversalVariant) -> bool:
    """Whether training on `task` updates tensor `name`: the shared encoder
    and the task's own decoder."""
    return not name.startswith("dec.") or name.startswith(f"dec.{task.value}.")


@dataclass
class ParamStore:
    config: ModelConfig
    tensors: Arena
    tasks: tuple[TraversalVariant, ...] = tuple(TraversalVariant)

    @property
    def flat(self) -> np.ndarray:
        return self.tensors.flat

    def copy(self) -> "ParamStore":
        return replace(self, tensors=Arena(self.flat.copy(), self.tensors.shapes))

    def spans(self, task: TraversalVariant) -> tuple[tuple[int, int], ...]:
        """(start, stop) spans of `flat` that training on `task` updates: the
        shared encoder and that task's decoder, adjacent spans merged."""
        spans: list[tuple[int, int]] = []
        stop = 0
        for name, view in self.tensors.items():
            start, stop = stop, stop + view.size
            if _trains(name, task):
                if spans and spans[-1][1] == start:
                    start = spans.pop()[0]
                spans.append((start, stop))
        return tuple(spans)


def param_count(config: ModelConfig, tasks: Sequence = tuple(TraversalVariant)) -> int:
    """Closed-form parameter count; must equal the size of init_params' arena."""
    d, f = config.d_model, config.d_ffn
    attn = 4 * d * d
    ffn = d * f + f + f * d + d
    ln = 2 * d
    enc = config.src_vocab_size * d + config.n_enc_layers * (2 * ln + attn + ffn) + ln
    vt = config.tgt_vocab_size
    dec = vt * d + config.n_dec_layers * (3 * ln + 2 * attn + ffn) + ln + d * vt + vt
    return enc + len(tasks) * dec


def param_shapes(config: ModelConfig, tasks: Sequence[TraversalVariant]
                 ) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape, in the order init_params draws them."""
    d, f, vt = config.d_model, config.d_ffn, config.tgt_vocab_size
    ln = {"g": (d,), "b": (d,)}
    attn = {w: (d, d) for w in ("wq", "wk", "wv", "wo")}
    parts = {"ln1": ln, "ln2": ln, "ln3": ln, "ln_f": ln,
             "attn": attn, "self_attn": attn, "cross_attn": attn,
             "ffn": {"w1": (d, f), "b1": (f,), "w2": (f, d), "b2": (d,)},
             "out": {"w": (d, vt), "b": (vt,)}}
    shapes = {"src_embed": (config.src_vocab_size, d)}

    def add(prefix, *names):
        shapes.update({f"{prefix}.{n}.{k}": shape
                       for n in names for k, shape in parts[n].items()})

    for i in range(config.n_enc_layers):
        add(f"enc.{i}", "ln1", "attn", "ln2", "ffn")
    add("enc", "ln_f")
    for task in tasks:
        shapes[f"dec.{task.value}.tgt_embed"] = (vt, d)
        for i in range(config.n_dec_layers):
            add(f"dec.{task.value}.{i}", "ln1", "self_attn", "ln2", "cross_attn", "ln3",
                "ffn")
        add(f"dec.{task.value}", "ln_f", "out")
    return shapes


def zero_arena(config: ModelConfig, tasks: Sequence[TraversalVariant]) -> Arena:
    """A zeroed parameter arena; ShapeMismatch if it cannot be allocated."""
    shapes = param_shapes(config, tasks)
    size = sum(map(math.prod, shapes.values()))
    try:
        flat = np.zeros(size, dtype=config.dtype)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        gib = size * np.dtype(config.dtype).itemsize / 2**30
        raise ShapeMismatch(f"a parameter arena of {size} values ({gib:.1f} GiB) "
                            "cannot be allocated") from None
    return Arena(flat, shapes)


def init_params(config: ModelConfig, embedding_init: Optional[np.ndarray] = None,
                tasks: Sequence = tuple(TraversalVariant)) -> ParamStore:
    """Xavier-uniform weights from the config seed, drawn straight into the
    arena; the source embedding table may be supplied (e.g. PCA-projected
    pretrained vectors). LayerNorm gains start at 1 and biases at 0."""
    params = ParamStore(config, zero_arena(config, tasks), tuple(tasks))
    rng = np.random.default_rng(config.seed)
    t, shapes = params.tensors, params.tensors.shapes
    if embedding_init is not None and embedding_init.shape != shapes["src_embed"]:
        raise ShapeMismatch(
            f"embedding_init {embedding_init.shape}, expected {shapes['src_embed']}")
    for name, shape in shapes.items():
        if name == "src_embed" and embedding_init is not None:
            t[name] = embedding_init
        elif name.endswith("_embed"):
            t[name] = rng.normal(0.0, 1.0 / math.sqrt(config.d_model), shape)
        elif name.endswith(".g"):
            t[name] = 1.0
        elif len(shape) == 2:  # Xavier-uniform over (fan_in, fan_out)
            limit = math.sqrt(6.0 / sum(shape))
            t[name] = rng.uniform(-limit, limit, shape)
    return params


def positional_encoding(length: int, d_model: int, dtype) -> np.ndarray:
    """Sinusoidal position rows (length, d_model), read-only. A row depends
    only on its position, so this is the head of a cached table whose length
    is the next power of two."""
    size = 1 << max(length - 1, 0).bit_length()
    return _sinusoid_table(size, d_model, np.dtype(dtype))[:length]


@functools.lru_cache(maxsize=None)
def _sinusoid_table(length: int, d_model: int, dtype: np.dtype) -> np.ndarray:
    pos = np.arange(length)[:, None].astype(np.float64)
    dim = np.arange(d_model // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * dim / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe = pe.astype(dtype)
    pe.flags.writeable = False
    return pe


# --- primitive forward/backward pairs on packed (N, d) rows (caches are dicts) ---


def _ln_fwd(x, g, b):
    # np.add.reduce(...) / d is what .mean does, without its Python wrapper.
    d = x.shape[-1]
    xc = x - np.add.reduce(x, -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, -1, keepdims=True) / d + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, {"xhat": xhat, "inv": inv}


def _ln_bwd(dout, cache, params, grads, name):
    xhat, inv = cache.pop("xhat"), cache.pop("inv")
    grads[f"{name}.g"] += (dout * xhat).sum(0)
    grads[f"{name}.b"] += dout.sum(0)
    dxhat = dout * params.tensors[f"{name}.g"]
    d = dxhat.shape[-1]
    m1 = np.add.reduce(dxhat, -1, keepdims=True) / d
    m2 = np.add.reduce(dxhat * xhat, -1, keepdims=True) / d
    return inv * (dxhat - m1 - xhat * m2)


def _dropout_fwd(x, p, rng):
    """Inverted dropout; returns the output and the bool keep mask (or None)."""
    if rng is None or p <= 0.0:
        return x, None
    keep = rng.random(x.shape) >= p
    return _dropout(x, keep, p), keep


def _dropout(x, keep, p):
    """x * keep / (1 - p), the scale rounded once in x's dtype (both passes)."""
    return x if keep is None else x * keep * (x.dtype.type(1) / (1.0 - p))


# A (B, T) mask's packed layout: the flat indices of its True positions (one
# packed row each, in order), its shape, per row the token count, and offsets:
# row r packs to offs[r]:offs[r + 1].
Pack = namedtuple("Pack", "rows shape lens offs")
# One side of an attention block: packed rows start:stop, `n` batch rows padded
# to `length`, and the real rows' (row, position) indices (or None).
Side = namedtuple("Side", "start stop n length idx")
# An attention block: its query and key sides and additive score mask (or None).
Block = namedtuple("Block", "q k mask")


def _pack(mask):
    lens = np.add.reduce(mask, 1)
    return Pack(np.flatnonzero(mask), mask.shape, lens.tolist(),
                [0, *lens.cumsum().tolist()])


def _embed(table, ids, pack):
    """Packed embedding rows plus sinusoidal position rows, and the packed ids."""
    packed = ids.ravel()[pack.rows]
    pe = positional_encoding(pack.shape[1], table.shape[1], table.dtype)
    return table[packed] + pe[pack.rows % len(pe)], packed


def _layout(pack_q, pack_k, h, dtype, causal=False, limit=None):
    """Attention blocks: runs of consecutive batch rows with rows * h * Lq * Lk
    <= `limit` (ATTN_BLOCK), Lq and Lk their longest query and key rows (a
    larger row is a block alone)."""
    lq, lk, blocks, r0 = pack_q.lens, pack_k.lens, [], 0
    for r1 in range(1, len(lq) + 1):
        size = (r1 + 1 - r0) * h * max(lq[r0:r1 + 1]) * max(lk[r0:r1 + 1])
        if r1 < len(lq) and size <= (ATTN_BLOCK if limit is None else limit):
            continue
        sides = []
        for pack in (pack_q, pack_k):
            run = pack.lens[r0:r1]
            length, valid = max(max(run), 1), None
            if min(run) < length:
                valid = np.arange(length) < np.array(run)[:, None]
            sides.append(Side(pack.offs[r0], pack.offs[r1], r1 - r0, length,
                              None if valid is None else np.nonzero(valid)))
        (q, k), mask, r0 = sides, None, r1
        if causal:
            mask = np.triu(np.full((q.length, k.length), _NEG, dtype=dtype), 1)
        elif k.idx is not None:  # valid is the key side's
            mask = np.where(valid, 0.0, _NEG).astype(dtype)[:, None, None, :]
        blocks.append(Block(q, k, mask))
    return blocks


def _split(x, side, h):
    """A block side's packed rows of x as heads (rows, h, L, d/h), zero at
    padded positions: a view of x when no row is short."""
    rows = x[side.start:side.stop]
    if side.idx is not None:
        rows = np.zeros((side.n, side.length, x.shape[1]), dtype=x.dtype)
        rows[side.idx] = x[side.start:side.stop]
    return rows.reshape(side.n, side.length, h, -1).transpose(0, 2, 1, 3)


def _merge(heads, side):
    """Heads (rows, h, L, d/h) -> the side's real packed rows, in one copy."""
    merged = heads.transpose(0, 2, 1, 3)
    merged = merged if side.idx is None else merged[side.idx]
    return merged.reshape(-1, heads.shape[1] * heads.shape[3])


def _attention(q, k, v, blocks, h):
    """Softmax attention of packed query rows over packed key and value rows
    (or over heads (B, h, L, d/h) that decoding caches, as one block), block
    by block. Returns the packed context and each block's weights."""
    scale, pieces, weights = 1.0 / math.sqrt(q.shape[1] // h), [], []
    for q_side, k_side, mask in blocks:
        kb, vb = (k, v) if k.ndim == 4 else (_split(k, k_side, h), _split(v, k_side, h))
        attn = np.matmul(_split(q, q_side, h), kb.transpose(0, 1, 3, 2))
        attn *= scale  # scores, softmaxed in place
        if mask is not None:
            attn += mask
        attn -= np.maximum.reduce(attn, -1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= np.add.reduce(attn, -1, keepdims=True)
        pieces.append(_merge(np.matmul(attn, vb), q_side))
        weights.append(attn)
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces), weights


def _mha_fwd(params, name, x_q, x_kv, blocks, rng, past=None):
    """Multi-head attention on packed rows, its core run on `blocks`; `past` is
    split-head keys and values (with `x_kv` None) or cache views whose last slot
    takes those of `x_kv`. The tape keeps weights, dropout mask, blocks and,
    for cross-attention, `x_kv`; backward rebuilds the rest."""
    t, cfg = params.tensors, params.config
    q = x_q @ t[f"{name}.wq"]
    if x_kv is None:
        k, v = past
    else:
        k, v = x_kv @ t[f"{name}.wk"], x_kv @ t[f"{name}.wv"]
        if past is not None:
            past[0][..., -1:, :] = _split(k, blocks[0].q, cfg.n_heads)  # a key each
            past[1][..., -1:, :] = _split(v, blocks[0].q, cfg.n_heads)
            k, v = past
    ctx, attn = _attention(q, k, v, blocks, cfg.n_heads)
    out, keep = _dropout_fwd(ctx @ t[f"{name}.wo"], cfg.dropout, rng)
    states = {} if x_kv is x_q else {"x_kv": x_kv}  # cross-attention's
    return out, {"name": name, "attn": attn, "keep": keep, "blocks": blocks, **states}


def _mha_bwd(dout, cache, x_q, params, grads):
    """`x_q` is the forward's query input, rebuilt by the caller. Queries, keys
    and values (of `x_q` or the tape's `x_kv`) and the context are rebuilt with
    the forward's own expressions. Empties `cache`; frees each temporary early."""
    t, h = params.tensors, params.config.n_heads
    name, x_kv = cache.pop("name"), cache.pop("x_kv", x_q)
    wq, wk, wv, wo = (t[f"{name}.{w}"] for w in ("wq", "wk", "wv", "wo"))
    q, k, v = x_q @ wq, x_kv @ wk, x_kv @ wv
    dout = _dropout(dout, cache.pop("keep"), params.config.dropout)
    dctx = dout @ wo.T
    ctx, dq, dk, dv = map(np.empty_like, (q, q, k, v))
    scale = 1.0 / math.sqrt(q.shape[1] // h)
    for (qs, ks, _), attn in zip(cache.pop("blocks"), cache.pop("attn")):
        vb, dctxb = _split(v, ks, h), _split(dctx, qs, h)
        ctx[qs.start:qs.stop] = _merge(np.matmul(attn, vb), qs)
        dscores = np.matmul(dctxb, vb.transpose(0, 1, 3, 2))  # d attn, to d scores
        del vb
        dscores -= (dscores * attn).sum(-1, keepdims=True)
        dscores *= attn
        dscores *= scale
        dq[qs.start:qs.stop] = _merge(np.matmul(dscores, _split(k, ks, h)), qs)
        dk[ks.start:ks.stop] = _merge(
            np.matmul(dscores.transpose(0, 1, 3, 2), _split(q, qs, h)), ks)
        del dscores
        dv[ks.start:ks.stop] = _merge(np.matmul(attn.transpose(0, 1, 3, 2), dctxb), ks)
    grads[f"{name}.wo"] += ctx.T @ dout
    del q, k, v, ctx, dout, dctx, attn, dctxb
    grads[f"{name}.wq"] += x_q.T @ dq
    grads[f"{name}.wk"] += x_kv.T @ dk
    grads[f"{name}.wv"] += x_kv.T @ dv
    return dq @ wq.T, dk @ wk.T + dv @ wv.T


def _ffn_fwd(params, name, x, rng):
    """ReLU FFN; the tape keeps the ReLU output, whose sign backward reads."""
    t = params.tensors
    hid = x @ t[f"{name}.w1"]
    hid += t[f"{name}.b1"]
    np.maximum(hid, 0.0, out=hid)
    out = hid @ t[f"{name}.w2"]
    out += t[f"{name}.b2"]
    out, keep = _dropout_fwd(out, params.config.dropout, rng)
    return out, {"name": name, "hid": hid, "keep": keep}


def _ffn_bwd(dout, cache, x, params, grads):
    """`x` is the forward's input, rebuilt by the caller. Empties `cache`."""
    t, name, hid = params.tensors, cache.pop("name"), cache.pop("hid")
    dout = _dropout(dout, cache.pop("keep"), params.config.dropout)
    grads[f"{name}.w2"] += hid.T @ dout
    grads[f"{name}.b2"] += dout.sum(0)
    dhid = dout @ t[f"{name}.w2"].T
    dhid *= hid > 0
    del dout, hid
    grads[f"{name}.w1"] += x.T @ dhid
    grads[f"{name}.b1"] += dhid.sum(0)
    return dhid @ t[f"{name}.w1"].T


def _sublayer_fwd(params, kind, name, ln, x, caches, rng, blocks=None, kv=None,
                  past=None):
    """Pre-LN residual x + sublayer(LN(x)) on packed rows. `kind` is attn
    (self-attention), cross (attention over `kv`) or ffn. `blocks` (the
    attention layout) and `past` go to _mha_fwd; `caches` collects the tape."""
    normed, ln_cache = _ln_fwd(x, params.tensors[f"{ln}.g"], params.tensors[f"{ln}.b"])
    if kind == "ffn":
        out, sub_cache = _ffn_fwd(params, name, normed, rng)
    else:
        x_kv = normed if kind == "attn" else kv
        out, sub_cache = _mha_fwd(params, name, normed, x_kv, blocks, rng, past)
    if caches is not None:
        caches.append((kind, ln, ln_cache, sub_cache))
    return x + out


# --- encoder / decoder forward with tape, the loss, and the mirrored backward ---


def _check_ids(ids, vocab_size, max_len, what):
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ShapeMismatch(f"{what} ids must be 2-d, got {ids.shape}")
    if ids.shape[1] > max_len:
        raise SequenceTooLong(f"{what} length {ids.shape[1]} > max {max_len}")
    if ids.shape[1] == 0:
        raise EmptyInput(f"empty {what} sequence")
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise IdOutOfRange(f"{what} id outside [0, {vocab_size})")
    return ids


def _decoder_key(params: ParamStore, task: TraversalVariant) -> str:
    if task not in params.tasks:  # a string or any other value too
        raise UnknownTask(f"no decoder for task {task!r} in this ParamStore")
    return task.value


def encode_batch(params: ParamStore, src_ids, rng=None, keep_caches: bool = True):
    """Forward the shared encoder over a padded (B, S) batch of source ids.
    Returns the packed states, one row per non-PAD position (row-major), and
    the tape. Without `keep_caches` the tape holds no sublayer caches, so
    encode_bwd cannot run on it, but the activations are freed as it goes."""
    cfg, t = params.config, params.tensors
    src_ids = _check_ids(src_ids, cfg.src_vocab_size, cfg.max_src_len, "source")
    pack = _pack(src_ids != PAD)
    if 0 in pack.lens:
        raise EmptyInput("all-PAD source row")
    x, ids = _embed(t["src_embed"], src_ids, pack)
    blocks = _layout(pack, pack, cfg.n_heads, cfg.dtype)
    caches = [] if keep_caches else None
    for i in range(cfg.n_enc_layers):
        x = _sublayer_fwd(params, "attn", f"enc.{i}.attn", f"enc.{i}.ln1", x, caches,
                          rng, blocks)
        x = _sublayer_fwd(params, "ffn", f"enc.{i}.ffn", f"enc.{i}.ln2", x, caches, rng)
    states, lnf_cache = _ln_fwd(x, t["enc.ln_f.g"], t["enc.ln_f.b"])
    tape = {"ids": ids, "pack": pack, "caches": caches, "lnf": lnf_cache}
    return states, tape


def decode_batch(params: ParamStore, task, states, src_pack, tgt_ids, rng=None):
    """Forward one task decoder over a padded (B, T) batch of target prefixes
    against packed encoder states laid out as `src_pack`, the encoder tape's
    "pack". Returns packed logits, one per non-PAD target position, and the tape."""
    cfg = params.config
    key = _decoder_key(params, task)
    tgt_ids = _check_ids(tgt_ids, cfg.tgt_vocab_size, cfg.max_tgt_len, "target")
    pack = _pack(tgt_ids != PAD)
    if len(states) != src_pack.offs[-1]:
        raise ShapeMismatch(f"{len(states)} state rows for {src_pack.offs[-1]} sources")
    x, ids = _embed(params.tensors[f"dec.{key}.tgt_embed"], tgt_ids, pack)
    self_blocks = _layout(pack, pack, cfg.n_heads, cfg.dtype, causal=True)
    cross_blocks = _layout(pack, src_pack, cfg.n_heads, cfg.dtype)
    logits, tape = _decoder_stack(params, key, x, [], rng, self_blocks, cross_blocks,
                                  states)
    return logits, {"task": key, "ids": ids, **tape}


def _decoder_stack(params, key, x, caches, rng, self_blocks, cross_blocks, states,
                   pasts=None):
    """Decoder `key`'s layers (self-attention, cross-attention over `states`,
    FFN), final LayerNorm and output projection on packed rows x; returns the
    logits and the tape. Greedy decoding passes `states` None and `pasts`:
    per layer, a (self, cross) pair of cached split-head keys and values."""
    layers = [(None, None)] * params.config.n_dec_layers if pasts is None else pasts
    for i, (self_past, cross_past) in enumerate(layers):
        name = f"dec.{key}.{i}"
        x = _sublayer_fwd(params, "attn", f"{name}.self_attn", f"{name}.ln1", x, caches,
                          rng, self_blocks, past=self_past)
        x = _sublayer_fwd(params, "cross", f"{name}.cross_attn", f"{name}.ln2", x,
                          caches, rng, cross_blocks, states, cross_past)
        x = _sublayer_fwd(params, "ffn", f"{name}.ffn", f"{name}.ln3", x, caches, rng)
    t = params.tensors
    normed, lnf_cache = _ln_fwd(x, t[f"dec.{key}.ln_f.g"], t[f"dec.{key}.ln_f.b"])
    logits = normed @ t[f"dec.{key}.out.w"] + t[f"dec.{key}.out.b"]
    return logits, {"caches": caches, "lnf": lnf_cache, "normed": normed}


def zero_grads(params: ParamStore) -> Arena:
    """A zeroed gradient arena with the parameters' layout."""
    return Arena(np.zeros_like(params.flat), params.tensors.shapes)


def task_grads(params: ParamStore) -> dict[TraversalVariant, Arena]:
    """Per task, a gradient arena of only the tensors training on it updates,
    so its flat is `params.spans(task)` end to end. Every task's arena is a
    view of one zeroed buffer, which each step must leave zeroed (as
    train.Adam.step does)."""
    shapes = params.tensors.shapes
    own = {task: {n: s for n, s in shapes.items() if _trains(n, task)}
           for task in params.tasks}
    flat = np.zeros(sum(map(math.prod, own[params.tasks[0]].values())),
                    dtype=params.flat.dtype)
    return {task: Arena(flat, own[task]) for task in params.tasks}


def _tape_bwd(dx, caches, params, grads):
    """Pop sublayer caches from the end, so each is freed once its backward
    has run; returns (dx, d_states_accum), both summed in place. Each LayerNorm
    output is rebuilt with the forward's own expression, so bit for bit."""
    t, dstates = params.tensors, None
    while caches:
        kind, name_ln, ln_cache, sub_cache = caches.pop()
        normed = t[f"{name_ln}.g"] * ln_cache["xhat"] + t[f"{name_ln}.b"]
        if kind == "ffn":
            dsub = _ffn_bwd(dx, sub_cache, normed, params, grads)
        else:
            dsub, dkv = _mha_bwd(dx, sub_cache, normed, params, grads)
            if kind == "attn":
                dsub += dkv
            else:  # cross: keys and values came from the encoder states
                dstates = dkv if dstates is None else np.add(dstates, dkv, out=dstates)
        dx += _ln_bwd(dsub, ln_cache, params, grads, name_ln)
    return dx, dstates


def decode_bwd(dlogits, dec_tape, params, grads):
    """Backprop the decoder; returns the gradient w.r.t. the packed states.
    Empties the tape's sublayer caches as it goes, so a tape is used once."""
    key = dec_tape["task"]
    grads[f"dec.{key}.out.w"] += dec_tape["normed"].T @ dlogits
    grads[f"dec.{key}.out.b"] += dlogits.sum(0)
    dx = dlogits @ params.tensors[f"dec.{key}.out.w"].T
    dx = _ln_bwd(dx, dec_tape["lnf"], params, grads, f"dec.{key}.ln_f")
    dx, dstates = _tape_bwd(dx, dec_tape["caches"], params, grads)
    np.add.at(grads[f"dec.{key}.tgt_embed"], dec_tape["ids"], dx)
    return dstates


def encode_bwd(dstates, enc_tape, params, grads):
    """Backprop the encoder. Empties the tape's sublayer caches as it goes, so a
    tape is used once."""
    dx = _ln_bwd(dstates, enc_tape["lnf"], params, grads, "enc.ln_f")
    dx, _ = _tape_bwd(dx, enc_tape["caches"], params, grads)
    np.add.at(grads["src_embed"], enc_tape["ids"], dx)


def loss_batch(logits, gold_full):
    """Token-averaged cross entropy. gold_full: (B, T+1) ids, PAD-padded;
    logits: (N, V), one row per non-PAD position of the BOS-prefixed input
    gold_full[:, :-1] as decode_batch packs it, the row of input position t
    scoring gold token t+1. Returns (loss, dlogits)."""
    gold_full = np.asarray(gold_full)
    gold = gold_full[:, 1:][gold_full[:, :-1] != PAD]
    counted = gold != PAD
    n = int(counted.sum())
    if n == 0:
        raise EmptyTarget("no non-PAD gold tokens")
    if logits.shape[0] != gold.shape[0]:
        raise ShapeMismatch(f"logits {logits.shape} vs {gold.shape[0]} input positions")
    logp = logits - logits.max(-1, keepdims=True)  # log-softmax
    logp -= np.log(np.exp(logp).sum(-1, keepdims=True))
    rows = np.flatnonzero(counted)
    value = -logp[rows, gold[rows]].sum() / n
    dlogits = np.exp(logp)
    dlogits[rows, gold[rows]] -= 1.0
    dlogits *= counted[:, None]
    dlogits /= n
    return float(value), dlogits


def loss_and_grads_batch(params: ParamStore, task, src_ids, tgt_full, rng=None,
                         grads=None):
    """Forward + backward over a homogeneous-task padded batch."""
    if grads is None:
        grads = zero_grads(params)
    states, enc_tape = encode_batch(params, src_ids, rng=rng)
    logits, dec_tape = decode_batch(params, task, states, enc_tape["pack"],
                                    np.asarray(tgt_full)[:, :-1], rng=rng)
    value, dlogits = loss_batch(logits, tgt_full)
    del logits
    dstates = decode_bwd(dlogits, dec_tape, params, grads)
    del dlogits, dec_tape, states  # free them before the encoder's backward
    encode_bwd(dstates, enc_tape, params, grads)
    return value, grads


def greedy_decode(params: ParamStore, task, sources: Sequence[Sequence[int]],
                  cross_trace: list | None = None) -> list[list[int]]:
    """Greedy argmax decode of every source; returns one id list per source.

    Ties break to the lowest id, PAD (which the decoder drops from its input)
    is never emitted and EOS is not returned. A row stops when it emits EOS
    or after max_tgt_len - 2 tokens, so BOS, its tokens and EOS fit.
    Sources are sorted by length and decoded DECODE_CHUNK at a time, so
    chunks carry little padding: each chunk is encoded once, cross-attention
    keys and values are computed once per layer, and each step runs the
    decoder for one new position against a self-attention key/value cache.

    With `cross_trace`, appends per source an array (layers, heads, steps,
    source length) of cross-attention weights, one step for BOS and each
    returned token: the position after the last token is scored too.
    """
    key = _decoder_key(params, task)
    limit = max(0, params.config.max_tgt_len - 2)
    order = sorted(range(len(sources)), key=lambda i: len(sources[i]))
    rows: list = [None] * len(sources)
    for start in range(0, len(sources), DECODE_CHUNK):
        chunk = order[start:start + DECODE_CHUNK]
        decoded = _greedy_chunk(params, key, [sources[i] for i in chunk], limit,
                                cross_trace is not None)
        for i, row in zip(chunk, decoded):
            rows[i] = row
    if cross_trace is not None:
        cross_trace += [cross for _, cross in rows]
    return [ids for ids, _ in rows]


def _greedy_chunk(params, key, sources, limit, with_trace):
    """(ids, cross-attention or None) per source of one chunk. Each step runs
    the decoder sublayers on one (b, d) row per source."""
    cfg, t = params.config, params.tensors
    dt, h, b = cfg.dtype, cfg.n_heads, len(sources)
    src = np.full((b, max(map(len, sources))), PAD, dtype=np.int64)
    for row, ids in enumerate(sources):
        src[row, :len(ids)] = ids
    states, enc_tape = encode_batch(params, src, keep_caches=False)
    step = Pack(rows=np.arange(b), shape=(b, 1), lens=[1] * b,
                offs=list(range(b + 1)))  # a query per source
    self_blocks = _layout(step, step, h, dt, limit=math.inf)  # one block per chunk
    cross_blocks = _layout(step, enc_tape["pack"], h, dt, limit=math.inf)
    cross_kv = [[_split(states @ t[f"dec.{key}.{i}.cross_attn.{w}"],
                        cross_blocks[0].k, h)
                 for w in ("wk", "wv")] for i in range(cfg.n_dec_layers)]
    n_pos = limit + with_trace
    self_kv = np.empty((cfg.n_dec_layers, 2, b, h, n_pos, cfg.d_model // h), dtype=dt)
    pe = positional_encoding(n_pos, cfg.d_model, dt)
    cross: list = []
    out: list[list[int]] = [[] for _ in range(b)]
    tokens = np.full(b, BOS)
    running = np.ones(b, dtype=bool)
    for pos in range(n_pos):
        x = t[f"dec.{key}.tgt_embed"][tokens] + pe[pos]
        pasts = zip(self_kv[..., :pos + 1, :], cross_kv)  # per layer
        logits, tape = _decoder_stack(params, key, x, [] if with_trace else None, None,
                                      self_blocks, cross_blocks, None, pasts)
        if with_trace:
            cross.append([sub["attn"][0][:, :, 0]
                          for kind, _, _, sub in tape["caches"] if kind == "cross"])
        if pos == limit:
            break
        logits[:, PAD] = -np.inf
        tokens = logits.argmax(-1)
        running &= tokens != EOS
        if not running.any():
            break
        for row in np.flatnonzero(running):
            out[row].append(int(tokens[row]))
    if not with_trace:
        return [(ids, None) for ids in out]
    stacked = np.stack([np.stack(steps, axis=2) for steps in zip(*cross)])
    return [(ids, stacked[:, row, :, :len(ids) + 1, :len(sources[row])])
            for row, ids in enumerate(out)]
