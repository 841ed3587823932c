import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmtm
import synth
from mmtm import dataset, expr, model, train
from mmtm.dataset import BOS
from mmtm.expr import TraversalVariant
from conftest import long_question_row, make_records, run_ablation


def checksum(params, prefix):
    h = hashlib.sha256()
    for name in sorted(n for n in params.tensors if n.startswith(prefix)):
        h.update(params.tensors[name].tobytes())
    return h.hexdigest()


def small_setup(n_records=12, seed=2, d_model=16, dropout=0.1):
    records = make_records(n_records, seed=seed)
    vocab = dataset.build_vocab(records)
    cfg = model.ModelConfig(src_vocab_size=vocab.src_size,
                            tgt_vocab_size=vocab.tgt_size, d_model=d_model,
                            n_heads=4, dropout=dropout, seed=seed)
    examples = dataset.augment_corpus(records, vocab)
    return records, vocab, cfg, examples


class TestPlan:
    def test_defaults_match_stated_schedule(self):
        plan = train.TrainPlan()
        assert plan.pretrain_epochs == 1
        assert plan.finetune_epochs == 3
        assert plan.pretrain_lr == 1e-5
        assert plan.finetune_lr == 1e-4
        assert plan.pretrain_lr < plan.finetune_lr

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(train.TrainError):
            train.TrainPlan(pretrain_lr=0.0)

    @pytest.mark.parametrize("field,value,message", [
        ("pretrain_lr", float("nan"), "pretrain_lr must be finite and positive"),
        ("finetune_lr", float("inf"), "finetune_lr must be finite and positive"),
        pytest.param("finetune_lr", 10**400, "finetune_lr must be finite and positive",
                     id="finetune_lr-int-past-float"),
        ("pretrain_epochs", -3, "must be >= 0"),
        ("finetune_epochs", -1, "must be >= 0"),
    ])
    def test_rejects_out_of_range_field(self, field, value, message):
        with pytest.raises(train.TrainError, match=message):
            train.TrainPlan(**{field: value})

    def test_one_stage_may_have_no_epoch_but_not_both(self):
        train.TrainPlan(pretrain_epochs=0)
        train.TrainPlan(finetune_epochs=0)
        with pytest.raises(train.TrainError, match="both 0"):
            train.TrainPlan(pretrain_epochs=0, finetune_epochs=0)


class TestPretrain:
    def test_round_robin_step_counts(self):
        records, _, cfg, examples = small_setup(n_records=10)
        params = model.init_params(cfg)
        plan = train.TrainPlan(pretrain_epochs=1, batch_size=5, seed=1)
        _, log = train.pretrain_multitask(params, examples, plan)
        # 3 tasks x 10 examples, batch 5 -> 6 steps, 2 per task, interleaved
        assert len(log.steps) == 6
        tasks = [s["task"] for s in log.steps]
        assert tasks == ["pre", "in", "post", "pre", "in", "post"]

    def test_all_decoders_move_from_init(self):
        _, _, cfg, examples = small_setup()
        params = model.init_params(cfg)
        before = {t: checksum(params, f"dec.{t}.") for t in ("pre", "in", "post")}
        plan = train.TrainPlan(pretrain_epochs=1, batch_size=4,
                               pretrain_lr=1e-3, seed=1)
        train.pretrain_multitask(params, examples, plan)
        for task in ("pre", "in", "post"):
            assert checksum(params, f"dec.{task}.") != before[task]

    def test_missing_task_dataset_raises(self):
        _, _, cfg, examples = small_setup()
        examples[TraversalVariant.IN_ORDER] = []
        params = model.init_params(cfg)
        with pytest.raises(train.EmptyTaskDataset):
            train.pretrain_multitask(params, examples, train.TrainPlan())

    def test_nonfinite_loss_detected(self):
        _, _, cfg, examples = small_setup(dropout=0.0)
        params = model.init_params(cfg)
        params.tensors["src_embed"][:] = np.nan
        with pytest.raises(train.NonFiniteLoss):
            train.pretrain_multitask(params, examples, train.TrainPlan())


class TestFinetune:
    def test_frozen_decoders_bit_identical(self):
        _, _, cfg, examples = small_setup()
        params = model.init_params(cfg)
        plan = train.TrainPlan(finetune_epochs=3, finetune_lr=1e-3, batch_size=4,
                               seed=3)
        before_in = checksum(params, "dec.in.")
        before_post = checksum(params, "dec.post.")
        train.finetune(params, examples[TraversalVariant.PRE_ORDER], plan)
        assert checksum(params, "dec.in.") == before_in
        assert checksum(params, "dec.post.") == before_post
        assert checksum(params, "dec.pre.") != checksum(params, "dec.in.")

    def test_shared_encoder_moves_inorder_probe(self):
        _, _, cfg, examples = small_setup(dropout=0.0)
        params = model.init_params(cfg)
        probe_src = list(examples[TraversalVariant.PRE_ORDER][0].source_ids)

        def probe():
            states, tape = model.encode_batch(params, np.asarray(probe_src)[None])
            logits, _ = model.decode_batch(params, TraversalVariant.IN_ORDER, states,
                                           tape["pack"], np.asarray([BOS])[None])
            return logits[0].copy()

        before_logits = probe()
        before_in = checksum(params, "dec.in.")
        plan = train.TrainPlan(finetune_epochs=2, finetune_lr=1e-3, batch_size=4,
                               seed=4)
        train.finetune(params, examples[TraversalVariant.PRE_ORDER], plan)
        assert checksum(params, "dec.in.") == before_in
        assert np.abs(probe() - before_logits).max() > 1e-9

    def test_loss_decreases_on_smoke_corpus(self):
        _, _, cfg, examples = small_setup(n_records=50, seed=5, dropout=0.0)
        params = model.init_params(cfg)
        plan = train.TrainPlan(finetune_epochs=3, finetune_lr=1e-3, batch_size=16,
                               seed=5)
        _, log = train.finetune(params, examples[TraversalVariant.PRE_ORDER], plan)
        means = [e["mean_loss"] for e in log.epochs]
        drops = sum(b < a for a, b in zip(means, means[1:]))
        assert drops >= 1  # monotone in >= 2 of 3 epochs means both transitions drop
        assert means[-1] < means[0]

    def test_no_examples_names_the_task(self):
        """The fine-tuning stage once had a check of its own, which read
        'no pre-order examples'."""
        _, _, cfg, _ = small_setup()
        with pytest.raises(train.EmptyTaskDataset, match="no examples for task 'pre'"):
            train.finetune(model.init_params(cfg), [], train.TrainPlan())


class ReferenceAdam:
    """Per-tensor Adam over a name list, the update the arena Adam replaces,
    at `train`'s constants as they read at each step."""

    def __init__(self):
        self.m, self.v, self.t = {}, {}, 0

    def step(self, tensors, grads, lr, names):
        b1, b2, clip_norm = train.BETA1, train.BETA2, train.CLIP_NORM
        norm = sum(float((grads[n] * grads[n]).sum()) for n in names) ** 0.5
        scale = clip_norm / norm if norm > clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for n in names:
            g = grads[n] * scale
            m = self.m.get(n, np.zeros_like(g))
            v = self.v.get(n, np.zeros_like(g))
            self.m[n] = b1 * m + (1 - b1) * g
            self.v[n] = b2 * v + (1 - b2) * g * g
            mhat = self.m[n] / bc1
            vhat = self.v[n] / bc2
            tensors[n] -= lr * mhat / (np.sqrt(vhat) + train.EPS)


class TestAdamParity:
    def _run(self, monkeypatch, clip_norm):
        monkeypatch.setattr(train, "CLIP_NORM", clip_norm)
        _, _, cfg, examples = small_setup(dropout=0.0)
        arena, ref = model.init_params(cfg), model.init_params(cfg)
        opt, ref_opt = train.Adam(), ReferenceAdam()
        grads = model.zero_grads(arena)
        clipped = 0
        for step in range(9):
            task = list(TraversalVariant)[step % 3]
            src, tgt = train.pad_batch(examples[task][4 * (step // 3):][:4])
            model.loss_and_grads_batch(arena, task, src, tgt, grads=grads)
            opt.step(arena, grads, 1e-2, arena.spans(task))
            _, ref_grads = model.loss_and_grads_batch(ref, task, src, tgt)
            names = [n for n in ref.tensors if not n.startswith("dec.")
                     or n.startswith(f"dec.{task.value}.")]
            ref_opt.step(ref.tensors, ref_grads, 1e-2, names)
            clipped += sum(float((ref_grads[n] ** 2).sum()) for n in names) > clip_norm ** 2
            assert not grads.flat.any()  # the step leaves the gradient arena zeroed
        return arena, ref, clipped

    def test_bit_identical_without_clipping(self, monkeypatch):
        arena, ref, clipped = self._run(monkeypatch, clip_norm=1e9)
        assert clipped == 0
        assert arena.flat.tobytes() == ref.flat.tobytes()

    def test_close_with_clipping(self, monkeypatch):
        arena, ref, clipped = self._run(monkeypatch, clip_norm=0.5)
        assert clipped == 9
        np.testing.assert_allclose(arena.flat, ref.flat, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("clip_norm", [1e9, 0.5])
    def test_chunked_update_bit_identical_to_one_pass(self, monkeypatch, clip_norm):
        one_pass, _, _ = self._run(monkeypatch, clip_norm)
        monkeypatch.setattr(train, "ADAM_CHUNK", 997)  # many chunks, a ragged last one
        chunked, _, _ = self._run(monkeypatch, clip_norm)
        assert chunked.flat.tobytes() == one_pass.flat.tobytes()

    def test_spans_cover_shared_and_own_decoder(self):
        _, _, cfg, _ = small_setup()
        params = model.init_params(cfg)
        for task in TraversalVariant:
            covered = np.zeros(params.flat.size, dtype=bool)
            for start, stop in params.spans(task):
                covered[start:stop] = True
            assert len(params.spans(task)) == (1 if task.value == "pre" else 2)
            for name, view in params.tensors.items():
                trainable = not name.startswith("dec.") or \
                    name.startswith(f"dec.{task.value}.")
                offset = (view.__array_interface__["data"][0]
                          - params.flat.__array_interface__["data"][0]) // 8
                assert covered[offset:offset + view.size].all() == trainable
                assert covered[offset:offset + view.size].any() == trainable


def reference_stages(params, examples, plan):
    """pretrain_multitask then finetune as one plain loop: a whole-model
    gradient arena and arena-sized moments for each stage."""
    rng = np.random.default_rng(plan.seed)
    pretrain = []
    for _ in range(plan.pretrain_epochs):
        per_task = [train._batches(examples[v], plan.batch_size, rng)
                    for v in TraversalVariant]
        pretrain += [b for row in itertools.zip_longest(*per_task)
                     for b in row if b is not None]
    rng = np.random.default_rng(plan.seed + 2)
    finetune = [b for _ in range(plan.finetune_epochs) for b in
                train._batches(examples[TraversalVariant.PRE_ORDER], plan.batch_size,
                               rng)]
    for lr, batches, drop_seed in ((plan.pretrain_lr, pretrain, plan.seed + 1),
                                   (plan.finetune_lr, finetune, plan.seed + 3)):
        opt, grads = train.Adam(), model.zero_grads(params)
        drop_rng = np.random.default_rng(drop_seed)
        for batch in batches:
            src, tgt = train.pad_batch(batch)
            model.loss_and_grads_batch(params, batch[0].task, src, tgt, rng=drop_rng,
                                       grads=grads)
            opt.step(params, grads, lr, params.spans(batch[0].task))


class TestStageState:
    """Each stage holds one task's gradients, and fine-tuning holds moments for
    the pre-order decoder and the encoder only."""

    def test_state_is_sized_to_the_trained_spans(self, monkeypatch):
        """Per step: the gradient buffer's values, the spans and the moments'
        sizes. Both stages once kept a whole-model gradient arena, and
        fine-tuning arena-sized moments."""
        step, seen = train.Adam.step, []

        def spy(opt, params, grads, lr, spans):
            step(opt, params, grads, lr, spans)
            seen.append((grads.flat, spans, opt.m.size, opt.v.size))

        monkeypatch.setattr(train.Adam, "step", spy)
        _, _, cfg, examples = small_setup()
        params = model.init_params(cfg)
        plan = train.TrainPlan(batch_size=4, finetune_epochs=1, seed=1)
        train.pretrain_multitask(params, examples, plan)
        assert {spans for _, spans, _, _ in seen} == set(map(params.spans,
                                                             TraversalVariant))
        for grads, spans, m, v in seen:
            assert grads.size == sum(stop - start for start, stop in spans)
            assert np.shares_memory(grads, seen[0][0])  # one buffer for every task
            assert m == v == params.flat.size  # every decoder trains
        del seen[:]
        train.finetune(params, examples[TraversalVariant.PRE_ORDER], plan)
        [(start, stop)] = params.spans(TraversalVariant.PRE_ORDER)
        assert stop == params.flat.size  # the arena's tail
        assert seen and all(spans == ((start, stop),) and grads.size == m == v
                            == stop - start for grads, spans, m, v in seen)
        with pytest.raises(train.TrainError, match="starts before the moments"):
            train.Adam(start).step(params, model.zero_grads(params), 1e-3,
                                   params.spans(TraversalVariant.IN_ORDER))

    @pytest.mark.parametrize("clip_norm", [1e9, 1e-3], ids=["unclipped", "clipped"])
    def test_stages_bit_identical_to_whole_arena_loop(self, monkeypatch, clip_norm):
        monkeypatch.setattr(train, "CLIP_NORM", clip_norm)
        _, _, cfg, examples = small_setup(dropout=0.1)
        plan = train.TrainPlan(pretrain_epochs=2, finetune_epochs=2, batch_size=4,
                               pretrain_lr=1e-3, finetune_lr=1e-3, seed=3)
        params, ref = model.init_params(cfg), model.init_params(cfg)
        train.pretrain_multitask(params, examples, plan)
        train.finetune(params, examples[TraversalVariant.PRE_ORDER], plan)
        reference_stages(ref, examples, plan)
        assert params.flat.tobytes() == ref.flat.tobytes()
        unclipped = model.init_params(cfg)  # clipping engaged: the result moved
        monkeypatch.setattr(train, "CLIP_NORM", 1e9)
        reference_stages(unclipped, examples, plan)
        assert (unclipped.flat.tobytes() == ref.flat.tobytes()) == (clip_norm == 1e9)


class TestLengthQuarantine:
    def test_overlength_record_quarantined(self):
        records = make_records(40, seed=8)
        records.append(dataset.make_record(long_question_row("long-q", 254)))
        cfg = model.ModelConfig(src_vocab_size=8, tgt_vocab_size=8, d_model=16,
                                n_heads=4, seed=8)
        plan = train.TrainPlan(pretrain_epochs=1, finetune_epochs=1,
                               batch_size=16, seed=8)
        result = train.train_pipeline(records, cfg, plan, dataset.build_vocab(records))
        assert [q["id"] for q in result.quarantined] == ["long-q"]
        assert "source length 254 > max_src_len 128" in result.quarantined[0]["reason"]
        assert len(result.finetune_log.steps) == 3  # 40 kept records, batch 16

    def test_overlength_target_quarantined(self):
        records = make_records(6, seed=8)
        records.append(dataset.make_record({
            "id": "long-t", "question": "Add 1 and 2 and 3 and 4 and 5 .",
            "equation": "number0 + number1 + number2 + number3 + number4",
            "answer": 15}))
        cfg = model.ModelConfig(src_vocab_size=8, tgt_vocab_size=8, d_model=16,
                                n_heads=4, seed=8, max_tgt_len=10)
        kept, quarantined = train.split_by_length(records, cfg)
        assert kept == records[:-1]
        assert quarantined == [{"id": "long-t",
                                "reason": "target length 11 > max_tgt_len 10"}]


class TestDeterminism:
    def test_identical_seeds_identical_params_and_logs(self):
        def run():
            records, vocab, cfg, _ = small_setup(seed=6)
            plan = train.TrainPlan(pretrain_epochs=1, finetune_epochs=2,
                                   batch_size=4, seed=6)
            res = train.train_pipeline(records, cfg, plan, vocab=vocab)
            return res

        a, b = run(), run()
        for name in a.trained.params.tensors:
            np.testing.assert_array_equal(a.trained.params.tensors[name],
                                          b.trained.params.tensors[name])
        assert a.finetune_log.to_jsonl() == b.finetune_log.to_jsonl()
        assert a.pretrain_log.to_jsonl() == b.pretrain_log.to_jsonl()


class TestAblation:
    def test_no_pretrain_has_single_decoder(self):
        records = make_records(8, seed=7)
        cfg = model.ModelConfig(src_vocab_size=8, tgt_vocab_size=8, d_model=16,
                                n_heads=2, seed=7)
        plan = train.TrainPlan(pretrain_epochs=1, finetune_epochs=1, batch_size=8,
                               seed=7)
        out = run_ablation("no_pretrain", records, records, cfg, plan)
        assert out["pretrained"] is False
        assert out["report"].total == 8
        params = out["model"].params
        assert not any(n.startswith(("dec.in.", "dec.post.")) for n in params.tensors)
        assert any(n.startswith("dec.pre.") for n in params.tensors)

    def test_no_pretrain_with_no_finetune_epoch_refused(self):
        """The arm once returned an untrained model without an error."""
        records = make_records(8, seed=7)
        cfg = model.ModelConfig(src_vocab_size=8, tgt_vocab_size=8, d_model=16,
                                n_heads=2, seed=7)
        plan = train.TrainPlan(pretrain_epochs=1, finetune_epochs=0, batch_size=8)
        with pytest.raises(train.TrainError, match="nothing would train"):
            run_ablation("no_pretrain", records, records, cfg, plan)


class TestParseOnce:
    def test_one_parse_per_accepted_record(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        synth.write_corpus(path, synth.generate_raw(30, seed=4))
        calls = []
        parse = expr.parse_infix

        def counting_parse(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(expr, "parse_infix", counting_parse)
        records = dataset.load_corpus(path).records
        vocab = dataset.build_vocab(records)
        dataset.augment_corpus(records, vocab)
        cfg = model.ModelConfig(src_vocab_size=vocab.src_size,
                                tgt_vocab_size=vocab.tgt_size, d_model=16, n_heads=4)
        kept, _ = train.split_by_length(records, cfg)
        assert len(records) == len(kept) == 30
        assert len(calls) == len(records)


def _has_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Two runs of one small d64 fine-tuning stage; prints the minor faults of each.
_STAGE_TWICE = """
import resource
import synth
from mmtm import dataset, model, train
from mmtm.expr import TraversalVariant
records = [dataset.make_record(raw) for raw in synth.generate_raw(48, seed=3)]
vocab = dataset.build_vocab(records)
cfg = model.ModelConfig(src_vocab_size=vocab.src_size, tgt_vocab_size=vocab.tgt_size,
                        d_model=64, n_heads=4, seed=3)
examples = dataset.augment_corpus(records, vocab)[TraversalVariant.PRE_ORDER]
plan = train.TrainPlan(finetune_epochs=1, batch_size=16, seed=3)
params0 = model.init_params(cfg)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train.finetune(params0.copy(), examples, plan)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_glibc(), reason="malloc thresholds are pinned on glibc only")
class TestAllocator:
    def test_repeated_stage_reuses_heap(self):
        # A fresh process, so nothing freed earlier in the session has raised
        # glibc's dynamic mmap threshold. Per-step temporaries over 128 KiB
        # must come from the heap the first run left, not from new mappings.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(mmtm.__file__).parents[1]), str(Path(__file__).parent)])}
        proc = subprocess.run([sys.executable, "-c", _STAGE_TWICE], env=env,
                              capture_output=True, text=True, check=True)
        faults = [int(line) for line in proc.stdout.split()]
        assert len(faults) == 2 and faults[1] < 1000, faults
