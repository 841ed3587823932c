import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmtm import dataset, evaluate, model, train
from mmtm.dataset import BOS, EOS, PAD, TaskExample
from mmtm.expr import TraversalVariant

PRE, IN, POST = TraversalVariant


def tiny_config(**kv):
    base = dict(src_vocab_size=12, tgt_vocab_size=12, d_model=8, n_heads=2,
                n_enc_layers=1, n_dec_layers=1, dropout=0.0, seed=7,
                max_src_len=16, max_tgt_len=16)
    base.update(kv)
    return model.ModelConfig(**base)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(model.ShapeMismatch):
            tiny_config(d_model=10, n_heads=4)

    def test_default_ffn_width(self):
        assert tiny_config().d_ffn == 32

    def test_dim62_needs_two_heads(self):
        assert tiny_config(d_model=62, n_heads=2).d_model == 62

    @pytest.mark.parametrize("field", ["n_heads", "d_model", "n_enc_layers",
                                       "n_dec_layers", "max_tgt_len"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_shape_below_one_is_a_shape_mismatch(self, field, value):
        """n_heads=0 once raised ZeroDivisionError from the divisibility check."""
        with pytest.raises(model.ShapeMismatch, match=f"{field} must be >= 1"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("value", [1.5, 1.0, -1, -0.01, float("nan")])
    def test_dropout_outside_unit_interval_rejected(self, value):
        """1.5 once zeroed every sublayer output and -1 turned dropout off,
        both without a word; 1.0 made the first loss NaN, a numeric fault."""
        with pytest.raises(model.ShapeMismatch, match=r"dropout must be in \[0, 1\)"):
            tiny_config(dropout=value)


class TestInitParams:
    @pytest.mark.parametrize("d_model, size", [(10**6, r"60000\d{9}"),
                                               (10**10, r"60000\d{17}")])
    def test_arena_past_the_address_space_is_a_shape_mismatch(self, d_model, size):
        """d_model 10^6 asks for a 437 TiB arena, more than the 128 TiB a
        process can address, so nothing is allocated; numpy raised
        _ArrayMemoryError for it. At 10^10 numpy raised ValueError: the
        arena has more values than an array can."""
        with pytest.raises(model.ShapeMismatch,
                           match=rf"arena of {size} values \(\d+\.\d GiB\)"):
            model.init_params(tiny_config(d_model=d_model, n_heads=1))

    def test_same_seed_identical(self):
        a = model.init_params(tiny_config())
        b = model.init_params(tiny_config())
        assert a.tensors.keys() == b.tensors.keys()
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_embedding_init_copied_verbatim(self):
        emb = np.arange(12 * 8, dtype=np.float64).reshape(12, 8)
        params = model.init_params(tiny_config(), embedding_init=emb)
        np.testing.assert_array_equal(params.tensors["src_embed"], emb)

    def test_embedding_shape_mismatch(self):
        with pytest.raises(model.ShapeMismatch):
            model.init_params(tiny_config(), embedding_init=np.zeros((12, 9)))

    def test_three_decoders_one_encoder(self):
        params = model.init_params(tiny_config())
        for task in ("pre", "in", "post"):
            assert f"dec.{task}.tgt_embed" in params.tensors
        enc = [n for n in params.tensors if n.startswith("enc.")]
        assert len(enc) == len(set(enc))

    def test_param_count_closed_form(self):
        for kv in ({}, {"n_enc_layers": 2, "n_dec_layers": 2},
                   {"d_model": 16, "n_heads": 4}):
            cfg = tiny_config(**kv)
            params = model.init_params(cfg)
            assert params.flat.size == model.param_count(cfg)

    def test_subset_tasks(self):
        params = model.init_params(tiny_config(), tasks=(PRE,))
        assert not any(n.startswith("dec.in.") for n in params.tensors)
        assert not any(n.startswith("dec.post.") for n in params.tensors)
        assert params.flat.size == model.param_count(tiny_config(), tasks=(PRE,))


class TestEncode:
    def test_single_token_shape(self):
        params = model.init_params(tiny_config())
        states, _ = model.encode_batch(params, np.asarray([5])[None])
        assert states.shape == (1, 8)

    def test_all_pad_rejected(self):
        params = model.init_params(tiny_config())
        with pytest.raises(model.EmptyInput):
            model.encode_batch(params, np.asarray([PAD, PAD])[None])

    def test_sequence_too_long(self):
        params = model.init_params(tiny_config())
        with pytest.raises(model.SequenceTooLong):
            model.encode_batch(params, np.asarray([4] * 17)[None])

    def test_id_out_of_range(self):
        params = model.init_params(tiny_config())
        with pytest.raises(model.IdOutOfRange):
            model.encode_batch(params, np.asarray([12])[None])

    def test_positional_sensitivity(self):
        params = model.init_params(tiny_config())
        a, _ = model.encode_batch(params, np.asarray([4, 5, 6])[None])
        b, _ = model.encode_batch(params, np.asarray([4, 6, 5])[None])
        assert np.abs(a - b).max() > 1e-9


    def test_without_caches_same_states(self):
        params = model.init_params(tiny_config())
        src = np.asarray([[4, 5, 6], [7, 8, PAD]])
        kept, tape = model.encode_batch(params, src)
        bare, bare_tape = model.encode_batch(params, src, keep_caches=False)
        np.testing.assert_array_equal(kept, bare)
        for field, bare_field in zip(tape["pack"], bare_tape["pack"]):
            np.testing.assert_array_equal(field, bare_field)
        assert tape["caches"] and bare_tape["caches"] is None


class TestDecodeStep:
    def test_bos_only_prefix_one_row(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4, 5])[None])
        logits, _ = model.decode_batch(params, PRE, states, tape["pack"],
                                       np.asarray([BOS])[None])
        assert logits.shape == (1, 12)

    def test_tasks_give_different_logits(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4, 5])[None])
        out = {t: model.decode_batch(params, t, states, tape["pack"],
                                     np.asarray([BOS, 4])[None])[0]
               for t in TraversalVariant}
        assert np.abs(out[PRE] - out[IN]).max() > 1e-9
        assert np.abs(out[IN] - out[POST]).max() > 1e-9

    def test_unknown_task(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4])[None])
        with pytest.raises(model.UnknownTask):
            model.decode_batch(params, "sideways", states, tape["pack"],
                               np.asarray([BOS])[None])

    def test_task_name_string_refused(self):
        """A task is a TraversalVariant: its value "pre" was once taken too."""
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4])[None])
        with pytest.raises(model.UnknownTask, match="'pre'"):
            model.decode_batch(params, "pre", states, tape["pack"],
                               np.asarray([BOS])[None])
        with pytest.raises(model.UnknownTask, match="'pre'"):
            model.greedy_decode(params, "pre", [[4, 5]])

    def test_causality_future_token_cannot_leak(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4, 5, 6])[None])
        a, _ = model.decode_batch(params, PRE, states, tape["pack"],
                                  np.asarray([BOS, 4, 5, 6])[None])
        b, _ = model.decode_batch(params, PRE, states, tape["pack"],
                                  np.asarray([BOS, 4, 7, 6])[None])
        # rows before the perturbed position are bit-identical
        np.testing.assert_array_equal(a[:2], b[:2])
        assert np.abs(a[2:] - b[2:]).max() > 0


def attention(tape, kind):
    """The first row's (n_heads, n_queries, n_keys) attention weights of every
    `kind` sublayer (attn or cross) on a forward tape, in layer order."""
    return [sub["attn"][0][0] for k, _, _, sub in tape["caches"] if k == kind]


class TestAttention:
    def test_rows_sum_to_one(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4, 5, 6, 7])[None])
        _, dec_tape = model.decode_batch(params, PRE, states, tape["pack"],
                                         np.asarray([BOS, 4, 5])[None])
        for mats in (attention(tape, "attn"), attention(dec_tape, "attn"),
                     attention(dec_tape, "cross")):
            for mat in mats:
                np.testing.assert_allclose(mat.sum(axis=-1), 1.0, atol=1e-6)
                assert mat.min() >= 0 and mat.max() <= 1

    def test_causal_mask_zeroes_future(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4, 5])[None])
        _, dec_tape = model.decode_batch(params, PRE, states, tape["pack"],
                                         np.asarray([BOS, 4, 5])[None])
        for mat in attention(dec_tape, "attn"):
            future = np.triu(np.ones(mat.shape[-2:], dtype=bool), k=1)
            assert np.abs(mat[:, future]).max() == 0.0


def loss(logits, gold):
    return model.loss_batch(logits, np.asarray(gold)[None])[0]


class TestLoss:
    """Single sequences through loss_batch as one-row batches."""

    def test_uniform_logits_give_log_v(self):
        logits = np.zeros((3, 12))
        gold = [BOS, 4, 5, EOS]
        assert loss(logits, gold) == pytest.approx(np.log(12))

    def test_confident_correct_logits_near_zero(self):
        gold = [BOS, 4, 5, EOS]
        logits = np.full((3, 12), -100.0)
        for t, g in enumerate(gold[1:]):
            logits[t, g] = 100.0
        assert loss(logits, gold) < 1e-8

    def test_pad_positions_excluded(self):
        gold = [BOS, 4, EOS, PAD]
        logits = np.zeros((3, 12))
        logits[2] = np.random.default_rng(0).normal(size=12) * 50
        assert loss(logits, gold) == pytest.approx(np.log(12))

    def test_all_pad_target_raises(self):
        with pytest.raises(model.EmptyTarget):
            loss(np.zeros((2, 12)), [BOS, PAD, PAD])


def backward(params, example):
    """Loss and gradient arena for one example, as a one-row batch."""
    return model.loss_and_grads_batch(params, example.task,
                                      np.asarray(example.source_ids)[None],
                                      np.asarray(example.target_ids)[None])


class TestBackward:
    def _example(self, task=TraversalVariant.PRE_ORDER):
        return TaskExample((4, 5, 6), (BOS, 4, 5, EOS), task, "x")

    def test_unused_decoder_grads_exactly_zero(self):
        params = model.init_params(tiny_config())
        _, grads = backward(params, self._example())
        for name in params.tensors:
            if name.startswith(("dec.in.", "dec.post.")):
                assert np.abs(grads[name]).max() == 0.0

    def test_encoder_grads_nonzero(self):
        params = model.init_params(tiny_config())
        _, grads = backward(params, self._example())
        assert any(np.abs(grads[n]).max() > 0
                   for n in params.tensors if n.startswith("enc."))
        assert np.abs(grads["src_embed"]).max() > 0

    def test_deterministic_without_dropout(self):
        params = model.init_params(tiny_config())
        l1, g1 = backward(params, self._example())
        l2, g2 = backward(params, self._example())
        assert l1 == l2
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])


class TestGreedyDecode:
    def test_terminates_untrained(self):
        params = model.init_params(tiny_config(max_tgt_len=12))
        [out] = model.greedy_decode(params, PRE, [[4, 5]])
        assert len(out) <= 10

    def test_max_len_one(self):
        """max_tgt_len 3 holds BOS, one token and EOS: a budget of one."""
        params = model.init_params(tiny_config(max_tgt_len=3))
        [out] = model.greedy_decode(params, PRE, [[4, 5]])
        assert len(out) <= 1

    def test_memorized_model_reproduces_gold(self, memorized, corpus12):
        vocab = memorized.vocab
        examples = dataset.augment_corpus(corpus12, vocab)
        e = examples[TraversalVariant.PRE_ORDER][0]
        [out] = model.greedy_decode(memorized.params, PRE, [list(e.source_ids)])
        assert out == list(e.target_ids)[1:-1]


# ---------------------------------------------------------------------------
# the batched, cached decoder against the full-prefix path it replaced
# ---------------------------------------------------------------------------


def reference_decode(params, task, source):
    """Greedy decode of one source that re-runs decode_batch over the whole
    prefix at every step (ties break to the lowest id; PAD, which is padding
    and not a token, is never chosen), for at most max_tgt_len - 2 tokens."""
    states, tape = model.encode_batch(params, np.asarray(source)[None])
    prefix, out = [BOS], []
    for _ in range(params.config.max_tgt_len - 2):
        logits, _ = model.decode_batch(params, task, states, tape["pack"],
                                       np.asarray(prefix)[None])
        scores = logits[-1].copy()
        scores[PAD] = -np.inf
        nxt = int(np.argmax(scores))
        if nxt == EOS:
            break
        out.append(nxt)
        prefix.append(nxt)
    return out


def reference_cross(params, task, source, ids):
    """Cross-attention (layers, heads, steps, src) from one full-prefix pass
    over BOS plus the decoded ids, as attention export used to compute it."""
    states, tape = model.encode_batch(params, np.asarray(source)[None])
    _, dec_tape = model.decode_batch(params, task, states, tape["pack"],
                                     np.asarray([BOS] + ids)[None])
    return np.stack(attention(dec_tape, "cross"))


def parity_params(seed=4, **kv):
    return model.init_params(tiny_config(d_model=16, n_heads=4, n_enc_layers=2,
                                         n_dec_layers=2, seed=seed, **kv))


def mixed_sources(n, seed=4):
    rng = np.random.default_rng(seed)
    return [[int(v) for v in rng.integers(4, 12, rng.integers(1, 17))]
            for _ in range(n)]


def assert_matches_reference(params, sources):
    got = model.greedy_decode(params, PRE, sources)
    assert got == [reference_decode(params, PRE, s) for s in sources]
    return got


class TestBatchedDecodeParity:
    def test_mixed_source_lengths_in_one_chunk(self):
        params = parity_params()
        got = assert_matches_reference(params, mixed_sources(12))
        assert len({len(ids) for ids in got}) > 1  # rows stopped at different steps

    def test_batch_larger_than_one_chunk(self):
        sources = mixed_sources(model.DECODE_CHUNK + 9, seed=5)
        assert_matches_reference(parity_params(), sources)

    def test_argmax_tie_breaks_to_lowest_id(self):
        params = parity_params(max_tgt_len=14)
        # Zero columns make logits 5 and 9 both exactly the bias, whatever
        # order a matrix product sums in; copied nonzero columns need not tie
        # once the product kernel handles the two columns in different panels.
        params.tensors["dec.pre.out.w"][:, [5, 9]] = 0.0
        params.tensors["dec.pre.out.b"][[5, 9]] = 3.0  # the tied pair wins some steps
        got = assert_matches_reference(params, mixed_sources(12))
        emitted = [tok for ids in got for tok in ids]
        assert 5 in emitted and 9 not in emitted
        assert set(emitted) - {5}

    def test_truncated_row_without_eos(self):
        sources = mixed_sources(5)
        for max_tgt_len in (6, 16):  # BOS and EOS take two places of max_tgt_len
            params = parity_params(max_tgt_len=max_tgt_len)
            params.tensors["dec.pre.out.b"][EOS] = -1e9
            got = assert_matches_reference(params, sources)
            assert all(len(ids) == max_tgt_len - 2 for ids in got)

    def test_row_alone_equals_row_in_padded_batch(self):
        params = parity_params()
        sources = mixed_sources(10)
        batched = model.greedy_decode(params, PRE, sources)
        assert batched == [model.greedy_decode(params, PRE, [s])[0]
                           for s in sources]

    @pytest.mark.parametrize("eos_bias", [0.0, -1e9])
    def test_cross_trace_matches_full_prefix_pass(self, eos_bias):
        params = parity_params()
        params.tensors["dec.pre.out.b"][EOS] += eos_bias
        sources = mixed_sources(12)
        trace = []
        got = model.greedy_decode(params, PRE, sources, cross_trace=trace)
        assert got == assert_matches_reference(params, sources)  # tracing is inert
        assert len(trace) == len(sources)
        for source, ids, cross in zip(sources, got, trace):
            expected = reference_cross(params, PRE, source, ids)
            assert cross.shape == expected.shape == (2, 4, len(ids) + 1, len(source))
            np.testing.assert_allclose(cross, expected, rtol=0, atol=1e-12)


class TestExportAttentionParity:
    @pytest.mark.parametrize("eos_bias", [0.0, -1e9])
    def test_matches_two_pass_export(self, memorized, corpus12, eos_bias):
        params = memorized.params.copy()
        params.tensors["dec.pre.out.b"][EOS] += eos_bias
        trained = dataclasses.replace(memorized, params=params)
        vocab = memorized.vocab
        for record in corpus12[:4]:
            report = evaluate.export_attention(trained, record)
            source = vocab.encode_src(record.tokens)
            ids = reference_decode(params, PRE, source)
            cross = reference_cross(params, PRE, source, ids)
            assert report["predicted_label"] == vocab.decode_tgt([BOS] + ids)
            assert report["decode_steps"] == len(ids) + 1
            np.testing.assert_allclose(report["weights"],
                                       cross.mean(axis=(0, 1)).sum(axis=0),
                                       rtol=0, atol=1e-12)
            if eos_bias:
                assert len(ids) == trained.config.max_tgt_len - 2


# ---------------------------------------------------------------------------
# packed training against the padded path it replaced
# ---------------------------------------------------------------------------


def padded_loss_and_grads(params, task, src, tgt_full):
    """Loss and gradient arena of the padded path that packed training
    replaced: every (B, T) position is computed, PAD included, and weight
    gradients contract over both batch axes (dropout off)."""
    cfg, t = params.config, params.tensors
    grads = model.zero_grads(params)
    h, scale = cfg.n_heads, 1.0 / np.sqrt(cfg.d_model // cfg.n_heads)

    def heads(x):
        b, n, d = x.shape
        return x.reshape(b, n, h, d // h).transpose(0, 2, 1, 3)

    def merge(x):
        b, _, n, dk = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, n, h * dk)

    def linear(x, name):
        def bwd(d):
            grads[name] += np.tensordot(x, d, axes=([0, 1], [0, 1]))
            return d @ t[name].T
        return x @ t[name], bwd

    def norm(x, name):
        xc = x - x.mean(-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + 1e-5)
        xhat, g = xc * inv, t[f"{name}.g"]

        def bwd(d):
            grads[f"{name}.g"] += (d * xhat).sum(axis=(0, 1))
            grads[f"{name}.b"] += d.sum(axis=(0, 1))
            dxh = d * g
            return inv * (dxh - dxh.mean(-1, keepdims=True)
                          - xhat * (dxh * xhat).mean(-1, keepdims=True))
        return g * xhat + t[f"{name}.b"], bwd

    def mha(x, kv, name, mask):
        (q, bq), (k, bk), (v, bv) = (linear(a, f"{name}.{w}") for a, w in
                                     ((x, "wq"), (kv, "wk"), (kv, "wv")))
        q, k, v = heads(q), heads(k), heads(v)
        s = q @ k.transpose(0, 1, 3, 2) * scale + mask
        a = np.exp(s - s.max(-1, keepdims=True))
        a /= a.sum(-1, keepdims=True)
        out, bo = linear(merge(a @ v), f"{name}.wo")

        def bwd(d):
            dctx = heads(bo(d))
            da = dctx @ v.transpose(0, 1, 3, 2)
            ds = a * (da - (da * a).sum(-1, keepdims=True)) * scale
            return (bq(merge(ds @ k)), bk(merge(ds.transpose(0, 1, 3, 2) @ q))
                    + bv(merge(a.transpose(0, 1, 3, 2) @ dctx)))
        return out, bwd

    def ffn(x, name):
        pre, b1 = linear(x, f"{name}.w1")
        pre = pre + t[f"{name}.b1"]
        out, b2 = linear(np.maximum(pre, 0.0), f"{name}.w2")

        def bwd(d):
            grads[f"{name}.b2"] += d.sum(axis=(0, 1))
            dpre = b2(d) * (pre > 0)
            grads[f"{name}.b1"] += dpre.sum(axis=(0, 1))
            return b1(dpre)
        return out + t[f"{name}.b2"], bwd

    def block(x, tape, ln, kind, name, mask=None, kv=None):
        normed, ln_bwd = norm(x, ln)
        if kind == "ffn":
            out, sub_bwd = ffn(normed, name)
        else:
            out, sub_bwd = mha(normed, normed if kv is None else kv, name, mask)
        tape.append((kind, ln_bwd, sub_bwd))
        return x + out

    def walk(d, tape):
        dstates = 0.0
        for kind, ln_bwd, sub_bwd in reversed(tape):
            if kind == "ffn":
                dsub = sub_bwd(d)
            else:
                dsub, dkv = sub_bwd(d)
                if kind == "attn":
                    dsub = dsub + dkv
                else:
                    dstates = dstates + dkv
            d = d + ln_bwd(dsub)
        return d, dstates

    src, tgt_full = np.asarray(src), np.asarray(tgt_full)
    tgt, gold = tgt_full[:, :-1], tgt_full[:, 1:]
    key_mask = np.where(src != PAD, 0.0, -1e30)[:, None, None, :]
    n_tgt = tgt.shape[1]
    causal = np.where(np.tril(np.ones((n_tgt, n_tgt), dtype=bool)), 0.0, -1e30)
    enc, dec, dec_key = [], [], f"dec.{task.value}"
    x = t["src_embed"][src] + model.positional_encoding(src.shape[1], cfg.d_model,
                                                        np.float64)
    for i in range(cfg.n_enc_layers):
        x = block(x, enc, f"enc.{i}.ln1", "attn", f"enc.{i}.attn", key_mask)
        x = block(x, enc, f"enc.{i}.ln2", "ffn", f"enc.{i}.ffn")
    states, enc_ln_bwd = norm(x, "enc.ln_f")
    y = t[f"{dec_key}.tgt_embed"][tgt] + model.positional_encoding(
        n_tgt, cfg.d_model, np.float64)
    for i in range(cfg.n_dec_layers):
        name = f"{dec_key}.{i}"
        y = block(y, dec, f"{name}.ln1", "attn", f"{name}.self_attn", causal)
        y = block(y, dec, f"{name}.ln2", "cross", f"{name}.cross_attn", key_mask,
                  states)
        y = block(y, dec, f"{name}.ln3", "ffn", f"{name}.ffn")
    normed, dec_ln_bwd = norm(y, f"{dec_key}.ln_f")
    logits, out_bwd = linear(normed, f"{dec_key}.out.w")
    logits = logits + t[f"{dec_key}.out.b"]
    counted = gold != PAD
    n = counted.sum()
    logp = logits - logits.max(-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(-1, keepdims=True))
    onehot = np.eye(cfg.tgt_vocab_size)[gold]
    value = -(logp * onehot).sum(-1)[counted].sum() / n
    dlogits = (np.exp(logp) - onehot) * counted[:, :, None] / n
    grads[f"{dec_key}.out.b"] += dlogits.sum(axis=(0, 1))
    dy, dstates = walk(dec_ln_bwd(out_bwd(dlogits)), dec)
    np.add.at(grads[f"{dec_key}.tgt_embed"], tgt, dy)
    dx, _ = walk(enc_ln_bwd(dstates), enc)
    np.add.at(grads["src_embed"], src, dx)
    return value, grads


def random_batch(rng, lengths, vocab=12):
    """Right-padded (src, tgt_full) with the given (source, target) lengths;
    targets are BOS ... EOS."""
    src = np.full((len(lengths), max(s for s, _ in lengths)), PAD)
    tgt = np.full((len(lengths), max(t for _, t in lengths)), PAD)
    for row, (s_len, t_len) in enumerate(lengths):
        src[row, :s_len] = rng.integers(4, vocab, s_len)
        tgt[row, :t_len] = [BOS, *rng.integers(4, vocab, t_len - 2), EOS]
    return src, tgt


BATCHES = {
    "mixed": [(9, 7), (2, 3), (14, 12), (5, 4)],
    "no-padding": [(6, 5), (6, 5), (6, 5)],
    "one-row": [(7, 6)],
}


class TestPackedTrainingParity:
    @pytest.mark.parametrize("layers,d_model", [(1, 16), (2, 32)])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("task", TraversalVariant, ids=lambda t: t.value)
    def test_loss_and_grads_match_padded_path(self, layers, d_model, batch, task):
        params = model.init_params(tiny_config(d_model=d_model, n_heads=4,
                                               n_enc_layers=layers,
                                               n_dec_layers=layers, seed=11))
        src, tgt = random_batch(np.random.default_rng(layers), BATCHES[batch])
        value, grads = model.loss_and_grads_batch(params, task, src, tgt)
        ref_value, ref_grads = padded_loss_and_grads(params, task, src, tgt)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
        for name in params.tensors:
            scale = np.abs(ref_grads[name]).max()
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12,
                                       atol=1e-12 * scale, err_msg=name)


class TestPaddingInvariance:
    @pytest.mark.parametrize("task", TraversalVariant, ids=lambda t: t.value)
    def test_batch_is_token_weighted_sum_of_rows(self, task):
        params = model.init_params(tiny_config(d_model=16, n_heads=4, seed=12))
        src, tgt = random_batch(np.random.default_rng(5), [(2, 3), (15, 14)])
        value, grads = model.loss_and_grads_batch(params, task, src, tgt)
        counts = (tgt[:, 1:] != PAD).sum(axis=1)
        want_value, want = 0.0, np.zeros_like(params.flat)
        for row, n in enumerate(counts):
            keep = src[row] != PAD
            row_value, row_grads = model.loss_and_grads_batch(
                params, task, src[row:row + 1, keep], tgt[row:row + 1, :1 + n])
            want_value += n * row_value / counts.sum()
            want += n * row_grads.flat / counts.sum()
        assert value == pytest.approx(want_value, rel=1e-12, abs=0)
        np.testing.assert_allclose(grads.flat, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_pad_embedding_rows_get_no_gradient_and_stay_put(self):
        params = model.init_params(tiny_config(d_model=16, n_heads=4, dropout=0.1,
                                               seed=13))
        before = params.copy()
        tables = ["src_embed"] + [f"dec.{t}.tgt_embed" for t in ("pre", "in", "post")]
        opt, rng = train.Adam(), np.random.default_rng(6)
        for step, task in enumerate([PRE, IN, POST, PRE]):
            src, tgt = random_batch(np.random.default_rng(step), BATCHES["mixed"])
            grads = model.loss_and_grads_batch(params, task, src, tgt, rng=rng)[1]
            assert (grads["src_embed"].any()
                    and grads[f"dec.{task.value}.tgt_embed"].any())
            for name in tables:
                assert not grads[name][PAD].any(), name
            opt.step(params, grads, 1e-2, params.spans(task))
        for name in tables:
            now, then = params.tensors[name], before.tensors[name]
            assert now[PAD].tobytes() == then[PAD].tobytes(), name
            assert now.tobytes() != then.tobytes(), name


# ---------------------------------------------------------------------------
# the attention core's row blocks and the training tape
# ---------------------------------------------------------------------------


BLOCK_PARAMS = model.init_params(tiny_config(d_model=16, n_heads=4, n_enc_layers=2,
                                             n_dec_layers=2, max_src_len=20, seed=14))


class TestAttentionBlocks:
    @settings(max_examples=60)
    @given(lengths=st.lists(st.tuples(st.integers(1, 20), st.integers(2, 10)),
                            min_size=1, max_size=6),
           task=st.sampled_from(TraversalVariant),
           block=st.sampled_from([1, 64, model.ATTN_BLOCK]),
           seed=st.integers(0, 2**16))
    def test_any_partition_matches_padded_path(self, lengths, task, block, seed):
        src, tgt = random_batch(np.random.default_rng(seed), lengths)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "ATTN_BLOCK", block)
            value, grads = model.loss_and_grads_batch(BLOCK_PARAMS, task, src, tgt)
        ref_value, ref_grads = padded_loss_and_grads(BLOCK_PARAMS, task, src, tgt)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0)
        for name in BLOCK_PARAMS.tensors:
            scale = np.abs(ref_grads[name]).max()
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12,
                                       atol=1e-12 * scale, err_msg=name)

    def test_blocks_cover_rows_within_the_bound(self):
        rng = np.random.default_rng(3)
        lengths = [(int(s), 6) for s in rng.integers(1, 17, 9)]
        src, _ = random_batch(rng, lengths)
        pack = model._pack(src != PAD)
        for bound in (1, 300, 2000, model.ATTN_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model, "ATTN_BLOCK", bound)
                blocks = model._layout(pack, pack, 4, np.float64)
            stops = [q[1] for q, _, _ in blocks]  # consecutive runs of packed rows
            assert [q[0] for q, _, _ in blocks] == [0] + stops[:-1]
            assert stops[-1] == len(pack[0])
            for q, k, mask in blocks:
                assert q[2] == 1 or q[2] * 4 * q[3] * k[3] <= bound
                assert (mask is None) == (k[4] is None)


class TestTapeMemory:
    def test_step_peak_and_tape_contents(self):
        """One d128, 2+2-layer step with dropout on 16 sources of 40-128
        tokens. The padded attention core, FFN pre-activations and float
        dropout masks made this peak at 128 MB (numpy 2.4.6); keeping each
        sublayer's LayerNorm output and attention context, and the whole tape
        until the step ended, made it 79.6 MB; keeping cross-attention's keys
        and values, 59.0 MB; keeping every attention's queries and
        self-attention's keys and values, 56.1 MB."""
        params = model.init_params(model.ModelConfig(
            src_vocab_size=30, tgt_vocab_size=30, d_model=128, n_heads=4,
            n_enc_layers=2, n_dec_layers=2, dropout=0.1, seed=1))
        grads = model.zero_grads(params)
        rng = np.random.default_rng(0)
        lengths = list(zip(rng.integers(40, 129, 16), rng.integers(5, 21, 16)))
        src, tgt = random_batch(rng, lengths, vocab=30)
        tracemalloc.start()
        try:
            model.loss_and_grads_batch(params, PRE, src, tgt,
                                       rng=np.random.default_rng(1), grads=grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50e6, f"step peak {peak / 1e6:.1f} MB"
        states, enc_tape = model.encode_batch(params, src, rng=np.random.default_rng(1))
        logits, dec_tape = model.decode_batch(params, PRE, states, enc_tape["pack"],
                                              tgt[:, :-1], rng=np.random.default_rng(2))
        entries = [entry for tape in (enc_tape, dec_tape) for entry in tape["caches"]]
        caches = [sub for _, _, _, sub in entries]
        ffn = [sub for sub in caches if "hid" in sub]
        assert len(ffn) == 4 and not any("pre" in sub for sub in ffn)
        assert all(sub["keep"].dtype == np.bool_ for sub in caches)
        # LayerNorm outputs and attention contexts are rebuilt in backward.
        assert not any(key in sub for sub in caches for key in ("x_q", "x", "ctx"))
        assert not any("x_kv" in sub for kind, _, _, sub in entries if kind == "attn")
        cross = [sub for kind, _, _, sub in entries if kind == "cross"]
        assert len(cross) == 2 and all(sub["x_kv"] is states for sub in cross)
        # Every attention's queries, keys and values are rebuilt, so self- and
        # cross-attention tape the same keys apart from the states.
        attention = [sub for kind, _, _, sub in entries if kind != "ffn"]
        assert not any(key in sub for sub in attention for key in ("q", "k", "v"))
        assert len({frozenset(sub) - {"x_kv"} for sub in attention}) == 1
        # Backward frees the tape as it walks it.
        _, dlogits = model.loss_batch(logits, tgt)
        dstates = model.decode_bwd(dlogits, dec_tape, params, grads)
        assert dec_tape["caches"] == []
        model.encode_bwd(dstates, enc_tape, params, grads)
        assert enc_tape["caches"] == []


def whole_tape_grads(params, enc_tape, dec_tape, dlogits):
    """The simple form of decode_bwd then encode_bwd: every LayerNorm output,
    query, key and value the tapes imply is made before the backward starts,
    nothing is freed early, and every sum is out of place."""
    t, h, p = params.tensors, params.config.n_heads, params.config.dropout
    grads = model.zero_grads(params)
    states = next(sub["x_kv"] for kind, _, _, sub in dec_tape["caches"]
                  if kind == "cross")

    def whole(tape):
        entries = []
        for kind, ln, ln_cache, sub in tape["caches"]:
            e = dict(sub, kind=kind, ln=ln, **ln_cache)
            e["x"] = t[f"{ln}.g"] * e["xhat"] + t[f"{ln}.b"]
            if kind != "ffn":
                e["x_kv"] = e["x"] if kind == "attn" else states
                e.update(q=e["x"] @ t[f"{e['name']}.wq"],
                         k=e["x_kv"] @ t[f"{e['name']}.wk"],
                         v=e["x_kv"] @ t[f"{e['name']}.wv"])
            entries.append(e)
        return entries, dict(tape["lnf"])

    def ln_bwd(d, e, name):
        grads[f"{name}.g"] += (d * e["xhat"]).sum(0)
        grads[f"{name}.b"] += d.sum(0)
        dxhat = d * t[f"{name}.g"]
        m1 = np.add.reduce(dxhat, -1, keepdims=True) / dxhat.shape[-1]
        m2 = np.add.reduce(dxhat * e["xhat"], -1, keepdims=True) / dxhat.shape[-1]
        return e["inv"] * (dxhat - m1 - e["xhat"] * m2)

    def mha_bwd(d, e):
        w = {k: t[f"{e['name']}.{k}"] for k in ("wq", "wk", "wv", "wo")}
        d = model._dropout(d, e["keep"], p)
        q, k, v, dctx = e["q"], e["k"], e["v"], d @ w["wo"].T
        ctx, dq, dk, dv = (np.empty_like(a) for a in (q, q, k, v))
        scale = 1.0 / np.sqrt(q.shape[1] // h)
        for (qs, ks, _), a in zip(e["blocks"], e["attn"]):
            qb, kb, vb, dcb = (model._split(x, side, h) for x, side in
                               ((q, qs), (k, ks), (v, ks), (dctx, qs)))
            ctx[qs.start:qs.stop] = model._merge(a @ vb, qs)
            da = dcb @ vb.transpose(0, 1, 3, 2)
            ds = (da - (da * a).sum(-1, keepdims=True)) * a * scale
            dq[qs.start:qs.stop] = model._merge(ds @ kb, qs)
            dk[ks.start:ks.stop] = model._merge(ds.transpose(0, 1, 3, 2) @ qb, ks)
            dv[ks.start:ks.stop] = model._merge(a.transpose(0, 1, 3, 2) @ dcb, ks)
        for name, x, dw in (("wo", ctx, d), ("wq", e["x"], dq), ("wk", e["x_kv"], dk),
                            ("wv", e["x_kv"], dv)):
            grads[f"{e['name']}.{name}"] += x.T @ dw
        return dq @ w["wq"].T, dk @ w["wk"].T + dv @ w["wv"].T

    def ffn_bwd(d, e):
        d = model._dropout(d, e["keep"], p)
        grads[f"{e['name']}.w2"] += e["hid"].T @ d
        grads[f"{e['name']}.b2"] += d.sum(0)
        dhid = (d @ t[f"{e['name']}.w2"].T) * (e["hid"] > 0)
        grads[f"{e['name']}.w1"] += e["x"].T @ dhid
        grads[f"{e['name']}.b1"] += dhid.sum(0)
        return dhid @ t[f"{e['name']}.w1"].T

    def walk(d, entries):
        dstates = None
        for e in reversed(entries):
            if e["kind"] == "ffn":
                dsub = ffn_bwd(d, e)
            else:
                dsub, dkv = mha_bwd(d, e)
                if e["kind"] == "attn":
                    dsub = dsub + dkv
                else:
                    dstates = dkv if dstates is None else dstates + dkv
            d = d + ln_bwd(dsub, e, e["ln"])
        return d, dstates

    (dec, dec_lnf), (enc, enc_lnf) = whole(dec_tape), whole(enc_tape)
    key = dec_tape["task"]
    grads[f"dec.{key}.out.w"] += dec_tape["normed"].T @ dlogits
    grads[f"dec.{key}.out.b"] += dlogits.sum(0)
    d = ln_bwd(dlogits @ t[f"dec.{key}.out.w"].T, dec_lnf, f"dec.{key}.ln_f")
    d, dstates = walk(d, dec)
    np.add.at(grads[f"dec.{key}.tgt_embed"], dec_tape["ids"], d)
    d, _ = walk(ln_bwd(dstates, enc_lnf, "enc.ln_f"), enc)
    np.add.at(grads["src_embed"], enc_tape["ids"], d)
    return grads


class TestLeanBackward:
    @pytest.mark.parametrize("block", [64, model.ATTN_BLOCK])
    def test_tape_emptied_and_grads_bit_equal_to_whole_tape(self, block):
        """Backward rebuilds queries, keys, values and contexts, sums in place
        and frees temporaries early; none of that may change a bit."""
        params = model.init_params(tiny_config(d_model=24, n_heads=4, n_enc_layers=2,
                                               n_dec_layers=2, dropout=0.1, seed=15))
        src, tgt = random_batch(np.random.default_rng(8), BATCHES["mixed"])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "ATTN_BLOCK", block)
            states, enc_tape = model.encode_batch(params, src,
                                                  rng=np.random.default_rng(1))
            logits, dec_tape = model.decode_batch(
                params, POST, states, enc_tape["pack"], tgt[:, :-1],
                rng=np.random.default_rng(2))
        _, dlogits = model.loss_batch(logits, tgt)
        want = whole_tape_grads(params, enc_tape, dec_tape, dlogits)
        entries = [cache for tape in (enc_tape, dec_tape) for _, _, ln_cache, sub in
                   tape["caches"] for cache in (ln_cache, sub)]
        entries += [enc_tape["lnf"], dec_tape["lnf"]]
        assert all(entries)
        grads = model.zero_grads(params)
        dstates = model.decode_bwd(dlogits, dec_tape, params, grads)
        model.encode_bwd(dstates, enc_tape, params, grads)
        assert enc_tape["caches"] == dec_tape["caches"] == []
        assert all(cache == {} for cache in entries)
        assert want.flat.any()
        for name in params.tensors:
            assert grads[name].tobytes() == want[name].tobytes(), name
