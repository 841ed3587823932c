import dataclasses

import numpy as np
import pytest

from mmtm import dataset, evaluate, model
from mmtm.dataset import BOS, EOS, PAD, TaskExample
from mmtm.expr import TraversalVariant


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


class TestInitParams:
    def test_same_seed_identical(self):
        a = model.init_params(tiny_config())
        b = model.init_params(tiny_config())
        assert a.tensors.keys() == b.tensors.keys()
        for name in a.tensors:
            np.testing.assert_array_equal(a[name], b[name])

    def test_embedding_init_copied_verbatim(self):
        emb = np.arange(12 * 8, dtype=np.float64).reshape(12, 8)
        params = model.init_params(tiny_config(), embedding_init=emb)
        np.testing.assert_array_equal(params["src_embed"], emb)

    def test_embedding_shape_mismatch(self):
        with pytest.raises(model.ShapeMismatch):
            model.init_params(tiny_config(), embedding_init=np.zeros((12, 9)))

    def test_three_decoders_one_encoder(self):
        params = model.init_params(tiny_config())
        for task in ("pre", "in", "post"):
            assert f"dec.{task}.tgt_embed" in params.tensors
        assert len(params.names("enc.")) == len(set(params.names("enc.")))

    def test_param_count_closed_form(self):
        for kv in ({}, {"n_enc_layers": 2, "n_dec_layers": 2},
                   {"d_model": 16, "n_heads": 4}):
            cfg = tiny_config(**kv)
            params = model.init_params(cfg)
            assert params.size() == model.param_count(cfg)

    def test_subset_tasks(self):
        params = model.init_params(tiny_config(), tasks=("pre",))
        assert not params.names("dec.in.")
        assert not params.names("dec.post.")
        assert params.size() == model.param_count(tiny_config(), tasks=("pre",))


class TestEncode:
    def test_single_token_shape(self):
        params = model.init_params(tiny_config())
        states, _ = model.encode_batch(params, np.asarray([5])[None])
        assert states[0].shape == (1, 8)

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
        assert np.abs(a[0] - b[0]).max() > 1e-9


    def test_without_caches_same_states(self):
        params = model.init_params(tiny_config())
        src = np.asarray([[4, 5, 6], [7, 8, PAD]])
        kept, tape = model.encode_batch(params, src)
        bare, bare_tape = model.encode_batch(params, src, keep_caches=False)
        np.testing.assert_array_equal(kept, bare)
        np.testing.assert_array_equal(tape["mask"], bare_tape["mask"])
        assert tape["caches"] and bare_tape["caches"] is None


class TestDecodeStep:
    def test_bos_only_prefix_one_row(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4, 5])[None])
        logits, _ = model.decode_batch(params, "pre", states, tape["mask"],
                                       np.asarray([BOS])[None])
        assert logits[0].shape == (1, 12)

    def test_tasks_give_different_logits(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4, 5])[None])
        out = {t: model.decode_batch(params, t, states, tape["mask"],
                                     np.asarray([BOS, 4])[None])[0][0]
               for t in ("pre", "in", "post")}
        assert np.abs(out["pre"] - out["in"]).max() > 1e-9
        assert np.abs(out["in"] - out["post"]).max() > 1e-9

    def test_unknown_task(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4])[None])
        with pytest.raises(model.UnknownTask):
            model.decode_batch(params, "sideways", states, tape["mask"],
                               np.asarray([BOS])[None])

    def test_causality_future_token_cannot_leak(self):
        params = model.init_params(tiny_config())
        states, tape = model.encode_batch(params, np.asarray([4, 5, 6])[None])
        a, _ = model.decode_batch(params, "pre", states, tape["mask"],
                                  np.asarray([BOS, 4, 5, 6])[None])
        b, _ = model.decode_batch(params, "pre", states, tape["mask"],
                                  np.asarray([BOS, 4, 7, 6])[None])
        a, b = a[0], b[0]
        # rows before the perturbed position are bit-identical
        np.testing.assert_array_equal(a[:2], b[:2])
        assert np.abs(a[2:] - b[2:]).max() > 0


class TestAttention:
    def test_rows_sum_to_one(self):
        params = model.init_params(tiny_config())
        enc_trace, dec_trace = model.AttentionTrace(), model.AttentionTrace()
        states, tape = model.encode_batch(params, np.asarray([4, 5, 6, 7])[None],
                                          trace=enc_trace)
        model.decode_batch(params, "pre", states, tape["mask"],
                           np.asarray([BOS, 4, 5])[None], trace=dec_trace)
        for mats in (enc_trace.enc_self, dec_trace.dec_self, dec_trace.cross):
            for mat in mats:
                np.testing.assert_allclose(mat.sum(axis=-1), 1.0, atol=1e-6)
                assert mat.min() >= 0 and mat.max() <= 1

    def test_causal_mask_zeroes_future(self):
        params = model.init_params(tiny_config())
        trace = model.AttentionTrace()
        states, tape = model.encode_batch(params, np.asarray([4, 5])[None])
        model.decode_batch(params, "pre", states, tape["mask"],
                           np.asarray([BOS, 4, 5])[None], trace=trace)
        for mat in trace.dec_self:
            future = np.triu(np.ones(mat.shape[-2:], dtype=bool), k=1)
            assert np.abs(mat[:, future]).max() == 0.0


def loss(logits, gold):
    return model.loss_batch(logits[None], np.asarray(gold)[None])[0]


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


class TestBackward:
    def _example(self, task=TraversalVariant.PRE_ORDER):
        return TaskExample((4, 5, 6), (BOS, 4, 5, EOS), task, "x")

    def test_unused_decoder_grads_exactly_zero(self):
        params = model.init_params(tiny_config())
        _, grads = model.backward(params, self._example())
        for name in params.names("dec.in.") + params.names("dec.post."):
            assert np.abs(grads[name]).max() == 0.0

    def test_encoder_grads_nonzero(self):
        params = model.init_params(tiny_config())
        _, grads = model.backward(params, self._example())
        assert any(np.abs(grads[n]).max() > 0 for n in params.names("enc."))
        assert np.abs(grads["src_embed"]).max() > 0

    def test_deterministic_without_dropout(self):
        params = model.init_params(tiny_config())
        l1, g1 = model.backward(params, self._example())
        l2, g2 = model.backward(params, self._example())
        assert l1 == l2
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])


class TestGreedyDecode:
    def test_terminates_untrained(self):
        params = model.init_params(tiny_config())
        [out] = model.greedy_decode(params, "pre", [[4, 5]], max_len=10)
        assert len(out) <= 10

    def test_max_len_one(self):
        params = model.init_params(tiny_config())
        [out] = model.greedy_decode(params, "pre", [[4, 5]], max_len=1)
        assert len(out) <= 1

    def test_memorized_model_reproduces_gold(self, memorized, corpus12):
        vocab = memorized.vocab
        examples = dataset.augment_corpus(corpus12, vocab)
        e = examples[TraversalVariant.PRE_ORDER][0]
        [out] = model.greedy_decode(memorized.params, "pre", [list(e.source_ids)],
                                    max_len=16)
        assert out == list(e.target_ids)[1:-1]


# ---------------------------------------------------------------------------
# the batched, cached decoder against the full-prefix path it replaced
# ---------------------------------------------------------------------------


def reference_decode(params, task, source, max_len):
    """Greedy decode of one source that re-runs decode_batch over the whole
    prefix at every step (ties break to the lowest id)."""
    states, tape = model.encode_batch(params, np.asarray(source)[None])
    prefix, out = [BOS], []
    for _ in range(max_len):
        logits, _ = model.decode_batch(params, task, states, tape["mask"],
                                       np.asarray(prefix)[None])
        nxt = int(np.argmax(logits[0, -1]))
        if nxt == EOS:
            break
        out.append(nxt)
        prefix.append(nxt)
        if len(prefix) >= params.config.max_tgt_len:
            break
    return out


def reference_cross(params, task, source, ids):
    """Cross-attention (layers, heads, steps, src) from one full-prefix pass
    over BOS plus the decoded ids, as attention export used to compute it."""
    trace = model.AttentionTrace()
    states, tape = model.encode_batch(params, np.asarray(source)[None])
    model.decode_batch(params, task, states, tape["mask"],
                       np.asarray([BOS] + ids)[None], trace=trace)
    return np.stack(trace.cross)


def parity_params(seed=4, **kv):
    return model.init_params(tiny_config(d_model=16, n_heads=4, n_enc_layers=2,
                                         n_dec_layers=2, seed=seed, **kv))


def mixed_sources(n, seed=4):
    rng = np.random.default_rng(seed)
    return [[int(v) for v in rng.integers(4, 12, rng.integers(1, 17))]
            for _ in range(n)]


def assert_matches_reference(params, sources, max_len):
    got = model.greedy_decode(params, "pre", sources, max_len)
    assert got == [reference_decode(params, "pre", s, max_len) for s in sources]
    return got


class TestBatchedDecodeParity:
    def test_mixed_source_lengths_in_one_chunk(self):
        params = parity_params()
        got = assert_matches_reference(params, mixed_sources(12), max_len=20)
        assert len({len(ids) for ids in got}) > 1  # rows stopped at different steps

    def test_batch_larger_than_one_chunk(self):
        sources = mixed_sources(model.DECODE_CHUNK + 9, seed=5)
        assert_matches_reference(parity_params(), sources, max_len=20)

    def test_argmax_tie_breaks_to_lowest_id(self):
        params = parity_params()
        # Zero columns make logits 5 and 9 both exactly the bias, whatever
        # order a matrix product sums in; copied nonzero columns need not tie
        # once the product kernel handles the two columns in different panels.
        params["dec.pre.out.w"][:, [5, 9]] = 0.0
        params["dec.pre.out.b"][[5, 9]] = 3.0  # the tied pair wins some steps
        got = assert_matches_reference(params, mixed_sources(12), max_len=12)
        emitted = [tok for ids in got for tok in ids]
        assert 5 in emitted and 9 not in emitted
        assert set(emitted) - {5}

    def test_truncated_row_without_eos(self):
        params = parity_params()
        params["dec.pre.out.b"][EOS] = -1e9
        sources = mixed_sources(5)
        for max_len in (4, 40):  # max_len, then max_tgt_len, sets the limit
            got = assert_matches_reference(params, sources, max_len)
            limit = min(max_len, params.config.max_tgt_len - 1)
            assert all(len(ids) == limit for ids in got)

    def test_row_alone_equals_row_in_padded_batch(self):
        params = parity_params()
        sources = mixed_sources(10)
        batched = model.greedy_decode(params, "pre", sources, 20)
        assert batched == [model.greedy_decode(params, "pre", [s], 20)[0]
                           for s in sources]

    @pytest.mark.parametrize("eos_bias", [0.0, -1e9])
    def test_cross_trace_matches_full_prefix_pass(self, eos_bias):
        params = parity_params()
        params["dec.pre.out.b"][EOS] += eos_bias
        sources = mixed_sources(12)
        trace = []
        got = model.greedy_decode(params, "pre", sources, 20, cross_trace=trace)
        assert len(trace) == len(sources)
        for source, ids, cross in zip(sources, got, trace):
            expected = reference_cross(params, "pre", source, ids)
            assert cross.shape == expected.shape == (2, 4, len(ids) + 1, len(source))
            np.testing.assert_allclose(cross, expected, rtol=0, atol=1e-12)


class TestExportAttentionParity:
    @pytest.mark.parametrize("eos_bias", [0.0, -1e9])
    def test_matches_two_pass_export(self, memorized, corpus12, eos_bias):
        params = memorized.params.copy()
        params["dec.pre.out.b"][EOS] += eos_bias
        trained = dataclasses.replace(memorized, params=params)
        vocab = memorized.vocab
        for record in corpus12[:4]:
            report = evaluate.export_attention(trained, record)
            source = vocab.encode_src(dataset.tokenize(record.masked_question))
            ids = reference_decode(params, "pre", source,
                                   trained.config.max_tgt_len - 2)
            cross = reference_cross(params, "pre", source, ids)
            assert report["predicted_label"] == vocab.decode_tgt([BOS] + ids)
            assert report["decode_steps"] == len(ids) + 1
            np.testing.assert_allclose(report["weights"],
                                       cross.mean(axis=(0, 1)).sum(axis=0),
                                       rtol=0, atol=1e-12)
            if eos_bias:
                assert len(ids) == trained.config.max_tgt_len - 2
