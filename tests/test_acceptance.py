"""End-to-end acceptance suite. One test per criterion; the conftest hook
prints a PASS/FAIL line per criterion at the end of each run."""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import synth
from mmtm import checkpoint, cli, dataset, evaluate, expr, model, pca_init, train
from mmtm.dataset import BOS, TaskExample
from mmtm.expr import Constant, Leaf, Node, Placeholder, TraversalVariant
from mmtm.pca_init import PretrainedEmbeddings
from conftest import make_records, random_tree, run_ablation, write_embeddings_tsv


# -- criterion 1: traversal round-trip ---------------------------------------

def test_c01_traversal_round_trip():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    for _ in range(1000):
        tree = random_tree(rng, max_depth=6)
        pre = expr.traverse(tree, TraversalVariant.PRE_ORDER)
        post = expr.traverse(tree, TraversalVariant.POST_ORDER)
        assert expr.tree_from_preorder(pre) == tree
        assert expr.tree_from_postorder(post) == tree
    assert time.monotonic() - started < 1.0


# -- criterion 2: evaluation oracle ------------------------------------------

def _shapes(n_ops):
    if n_ops == 0:
        return ["leaf"]
    out = []
    for left_ops in range(n_ops):
        for left in _shapes(left_ops):
            for right in _shapes(n_ops - 1 - left_ops):
                out.append((left, right))
    return out


def _instantiate(shape, ops, counter):
    if shape == "leaf":
        leaf = Leaf(Placeholder(counter[0]))
        counter[0] += 1
        return leaf
    op = ops[counter[1]]
    counter[1] += 1
    return Node(op, _instantiate(shape[0], ops, counter),
                _instantiate(shape[1], ops, counter))


def _enumerate_trees(max_ops):
    for k in range(max_ops + 1):
        for shape in _shapes(k):
            for ops in itertools.product(expr.OPERATORS, repeat=k):
                yield _instantiate(shape, ops, [0, 0])


def to_infix(tree) -> str:
    """Fully parenthesized infix rendering."""
    if isinstance(tree, Leaf):
        return tree.operand.token
    return f"( {to_infix(tree.left)} {tree.op} {to_infix(tree.right)} )"


def _oracle_eval(infix_text, quantities):
    """Independent recursive-descent evaluator over parenthesized infix."""
    tokens = infix_text.split()
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            left = parse()
            op = tokens[pos]
            pos += 1
            right = parse()
            assert tokens[pos] == ")"
            pos += 1
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            return left / right
        if tok.startswith("number"):
            return quantities[int(tok[6:])]
        return Fraction(tok)

    value = parse()
    assert pos == len(tokens)
    return value


def test_c02_evaluation_matches_independent_oracle():
    rng = np.random.default_rng(202)
    started = time.monotonic()
    checked = skipped = 0
    for tree in _enumerate_trees(3):
        n_leaves = sum(1 for _ in expr.iter_leaves(tree))
        infix = to_infix(tree)
        for _ in range(20):
            q = [Fraction(int(v)) for v in rng.integers(-4, 10, size=n_leaves)]
            try:
                expected = _oracle_eval(infix, q)
            except ZeroDivisionError:
                with pytest.raises(expr.DivisionByZero):
                    expr.evaluate(tree, q)
                skipped += 1
                continue
            assert expr.evaluate(tree, q) == expected
            checked += 1
    assert checked > 5000
    assert skipped > 0  # zero-divisor cases occurred and were counted
    assert time.monotonic() - started < 10.0


# -- criterion 3: gradient check ---------------------------------------------

def _loss_only(params, examples):
    total = 0.0
    for e in examples:
        src = np.asarray(e.source_ids)[None]
        tgt = np.asarray(e.target_ids)[None]
        states, enc_tape = model.encode_batch(params, src)
        logits, _ = model.decode_batch(params, e.task, states,
                                       enc_tape["mask"], tgt[:, :-1])
        total += model.loss_batch(logits, tgt)[0]
    return total


def test_c03_gradient_check_against_finite_differences():
    started = time.monotonic()
    cfg = model.ModelConfig(src_vocab_size=12, tgt_vocab_size=12, d_model=8,
                            n_heads=2, n_enc_layers=1, n_dec_layers=1,
                            dropout=0.0, seed=303, dtype="float64",
                            max_src_len=8, max_tgt_len=8)
    params = model.init_params(cfg)
    examples = [
        TaskExample((5, 6, 7, 4), (1, 4, 5, 6, 2), TraversalVariant.PRE_ORDER, "a"),
        TaskExample((8, 9, 4, 10, 11), (1, 7, 8, 9, 2), TraversalVariant.IN_ORDER, "b"),
        TaskExample((4, 5), (1, 10, 11, 2), TraversalVariant.POST_ORDER, "c"),
    ]
    analytic = model.zero_grads(params)
    for e in examples:
        _, g = model.loss_and_grads_batch(params, e.task,
                                          np.asarray(e.source_ids)[None],
                                          np.asarray(e.target_ids)[None])
        for name in analytic:
            analytic[name] += g[name]
    eps = 1e-5
    worst = 0.0
    for name, tensor in params.tensors.items():
        numeric = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = tensor[ix]
            tensor[ix] = orig + eps
            up = _loss_only(params, examples)
            tensor[ix] = orig - eps
            down = _loss_only(params, examples)
            tensor[ix] = orig
            numeric[ix] = (up - down) / (2 * eps)
        denom = np.maximum(1e-6, np.maximum(np.abs(analytic[name]),
                                            np.abs(numeric)))
        err = float((np.abs(analytic[name] - numeric) / denom).max())
        assert err < 1e-4, f"{name}: max relative error {err}"
        worst = max(worst, err)
    assert time.monotonic() - started < 60.0


# -- criterion 4: causality and attention row sums ---------------------------

def test_c04_causality_and_attention_stochasticity():
    cfg = model.ModelConfig(src_vocab_size=12, tgt_vocab_size=12, d_model=16,
                            n_heads=4, dropout=0.0, seed=404)
    params = model.init_params(cfg)
    states, tape = model.encode_batch(params, np.asarray([4, 5, 6, 7])[None])
    pre = TraversalVariant.PRE_ORDER
    a, dec_tape = model.decode_batch(params, pre, states, tape["mask"],
                                     np.asarray([BOS, 4, 5, 6])[None])
    b, _ = model.decode_batch(params, pre, states, tape["mask"],
                              np.asarray([BOS, 4, 5, 7])[None])
    np.testing.assert_array_equal(a[:2], b[:2])  # bit-identical earlier rows

    def weights(tape, kind):  # first row's attention, per layer, from the tape
        return [sub["attn"][0][0] for k, _, _, sub in tape["caches"] if k == kind]

    for mats in (weights(tape, "attn"), weights(dec_tape, "attn"),
                 weights(dec_tape, "cross")):
        for mat in mats:
            np.testing.assert_allclose(mat.sum(axis=-1), 1.0, atol=1e-6)
    for mat in weights(dec_tape, "attn"):
        future = np.triu(np.ones(mat.shape[-2:], dtype=bool), k=1)
        assert np.abs(mat[:, future]).max() == 0.0


# -- criterion 5: multi-task contract ----------------------------------------

def test_c05_multitask_contract():
    records = make_records(30, seed=505)
    vocab = dataset.build_vocab(records)
    cfg = model.ModelConfig(src_vocab_size=vocab.src_size,
                            tgt_vocab_size=vocab.tgt_size, d_model=16,
                            n_heads=4, dropout=0.1, seed=505)
    examples = dataset.augment_corpus(records, vocab)
    params = model.init_params(cfg)
    init_copy = params.copy()
    plan = train.TrainPlan(pretrain_epochs=1, pretrain_lr=1e-4, batch_size=8,
                           finetune_epochs=2, finetune_lr=1e-3, seed=505)
    train.pretrain_multitask(params, examples, plan)
    # (a) every decoder moved from init
    for task in ("pre", "in", "post"):
        moved = any(
            not np.array_equal(params.tensors[n], init_copy.tensors[n])
            for n in params.tensors if n.startswith(f"dec.{task}."))
        assert moved, f"{task} decoder did not change during pretraining"

    probe_src = list(examples[TraversalVariant.PRE_ORDER][0].source_ids)

    def in_probe():
        states, tape = model.encode_batch(params, np.asarray(probe_src)[None])
        logits, _ = model.decode_batch(params, TraversalVariant.IN_ORDER, states,
                                       tape["mask"], np.asarray([BOS])[None])
        return logits[0].copy()

    before_probe = in_probe()
    frozen = {n: t.copy() for n, t in params.tensors.items()
              if n.startswith(("dec.in.", "dec.post."))}
    train.finetune(params, examples[TraversalVariant.PRE_ORDER], plan)
    # (b) non-pre decoders bit-identical
    for name, tensor in frozen.items():
        np.testing.assert_array_equal(params.tensors[name], tensor)
    # (c) shared encoder moved the in-order probe
    assert np.abs(in_probe() - before_probe).max() > 1e-12


# -- criterion 6: augmentation cardinality -----------------------------------

def test_c06_augmentation_cardinality_and_label_validity():
    records = make_records(37, seed=606)
    vocab = dataset.build_vocab(records)
    examples = dataset.augment_corpus(records, vocab)
    assert sum(len(v) for v in examples.values()) == 3 * len(records)
    by_id = {r.id: r for r in records}
    for e in examples[TraversalVariant.PRE_ORDER]:
        rec = by_id[e.record_id]
        tree = expr.tree_from_preorder(vocab.decode_tgt(e.target_ids))
        assert expr.evaluate(tree, list(rec.quantities)) == rec.answer


# -- criterion 7: PCA oracle --------------------------------------------------

def test_c07_pca_matches_covariance_eigendecomposition():
    rng = np.random.default_rng(707)
    matrix = rng.normal(size=(10, 5))
    projected, components, variance = pca_init.pca_project(matrix, 5)
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / 9
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    np.testing.assert_allclose(variance, evals, atol=1e-8)
    for j in range(5):
        assert abs(components[:, j] @ evecs[:, j]) > 1 - 1e-8
    assert all(a >= b - 1e-12 for a, b in zip(variance, variance[1:]))
    recon = projected @ components.T + matrix.mean(axis=0)
    assert np.abs(recon - matrix).max() < 1e-8


# -- criterion 8: overfit smoke test -----------------------------------------

def test_c08_overfit_smoke():
    started = time.monotonic()
    records = make_records(50, seed=808)
    vocab = dataset.build_vocab(records)
    cfg = model.ModelConfig(src_vocab_size=vocab.src_size,
                            tgt_vocab_size=vocab.tgt_size, d_model=64,
                            n_heads=4, dropout=0.1, seed=808)
    plan = train.TrainPlan(pretrain_epochs=1, finetune_epochs=250,
                           finetune_lr=1e-3, batch_size=16, seed=808)
    result = train.train_pipeline(records, cfg, plan, vocab=vocab)
    trained = result.trained
    examples = dataset.augment_corpus(records, vocab)
    pre = examples[TraversalVariant.PRE_ORDER]
    outs = model.greedy_decode(trained.params, TraversalVariant.PRE_ORDER,
                               [list(e.source_ids) for e in pre], 16)
    exact = 0
    for e, out in zip(pre, outs):
        exact += out == list(e.target_ids)[1:-1]
    assert exact / len(records) >= 0.98
    report = evaluate.score(trained, records)
    assert report.accuracy == 1.0
    assert time.monotonic() - started < 300.0


# -- criterion 9: determinism -------------------------------------------------

def test_c09_determinism_byte_identical(tmp_path):
    def run(tag):
        records = make_records(12, seed=909)
        vocab = dataset.build_vocab(records)
        cfg = model.ModelConfig(src_vocab_size=vocab.src_size,
                                tgt_vocab_size=vocab.tgt_size, d_model=16,
                                n_heads=4, dropout=0.1, seed=909,
                                dtype="float64")
        plan = train.TrainPlan(pretrain_epochs=1, finetune_epochs=2,
                               batch_size=4, seed=909)
        result = train.train_pipeline(records, cfg, plan, vocab=vocab)
        path = tmp_path / f"{tag}.mmtm"
        checkpoint.save(path, result.trained.params, result.trained.vocab)
        logs = result.pretrain_log.to_jsonl() + result.finetune_log.to_jsonl()
        return path.read_bytes(), logs

    (bytes_a, logs_a), (bytes_b, logs_b) = run("a"), run("b")
    assert bytes_a == bytes_b
    assert logs_a == logs_b


# -- criterion 10: report shape and ablation arms ----------------------------

def test_c10_report_rows_and_ablation_arms():
    records = make_records(8, seed=1010)
    cfg = model.ModelConfig(src_vocab_size=8, tgt_vocab_size=8, d_model=16,
                            n_heads=4, dropout=0.1, seed=1010)
    plan = train.TrainPlan(pretrain_epochs=1, finetune_epochs=1, batch_size=8,
                           seed=1010)
    rng = np.random.default_rng(1010)
    words = set()
    for rec in records:
        words.update(dataset.tokenize(rec.masked_question))
    embeddings = PretrainedEmbeddings(
        {w: rng.normal(size=32) for w in sorted(words)}, 32)

    reports = {}
    for arm in ("no_pretrain", "dim768", "scratch_embeddings"):
        # 768 exceeds the toy embedding width, so that arm trains from scratch
        arm_emb = None if arm == "dim768" else embeddings
        out = run_ablation(arm, records, records, cfg, plan,
                           embeddings=arm_emb)
        reports[arm] = out["report"]
        table = out["report"].render_table()
        for row in evaluate.COHORT_ROWS:
            assert row in table
    assert all(r.total == 8 for r in reports.values())


def test_c10_arm_toggles_exactly_one_factor():
    records = make_records(6, seed=1011)
    cfg = model.ModelConfig(src_vocab_size=8, tgt_vocab_size=8, d_model=16,
                            n_heads=4, dropout=0.0, seed=1011)
    plan = train.TrainPlan(pretrain_epochs=1, finetune_epochs=1, batch_size=8,
                           seed=1011)
    out = run_ablation("dim768", records, records, cfg, plan)
    assert out["d_model"] == 768
    assert out["pretrained"] is True
    out = run_ablation("scratch_embeddings", records, records, cfg, plan)
    assert out["embedding_init"] == "random"
    assert out["d_model"] == 16


# -- criterion 11 (informational): real-data-format end-to-end ---------------

def test_c11_informational_real_format_pipeline(tmp_path, capsys):
    """Stands in for user-supplied MAWPS/ASDiv-A-style training data, a
    challenge-set-format test file, and a pretrained embedding TSV; checks the
    pipeline runs end-to-end, enforcing no accuracy target."""
    train_path = tmp_path / "train.jsonl"
    test_path = tmp_path / "test.jsonl"
    synth.write_corpus(train_path, synth.generate_raw(20, seed=1111))
    synth.write_corpus(test_path, synth.generate_raw(5, seed=1112))
    rng = np.random.default_rng(1111)
    words = set()
    for line in train_path.read_text().splitlines():
        words.update(dataset.tokenize(json.loads(line)["question"].lower()))
    emb_path = tmp_path / "roberta_like.tsv"
    write_embeddings_tsv(emb_path, PretrainedEmbeddings(
        {w: rng.normal(size=48) for w in sorted(words)}, 48))

    out_dir = tmp_path / "run"
    rc = cli.main(["train", "--corpus", str(train_path), "--embeddings",
                   str(emb_path), "--dim", "16", "--out", str(out_dir),
                   "--seed", "4", "--batch-size", "8", "--pretrain-epochs",
                   "1", "--finetune-epochs", "2"])
    assert rc == 0
    report_path = tmp_path / "report.json"
    rc = cli.main(["eval", "--checkpoint",
                   str(out_dir / "checkpoint_final.mmtm"), "--test",
                   str(test_path), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert set(report["cohorts"]) == set(evaluate.COHORT_ROWS)
    out = capsys.readouterr().out
    assert "Full Set" in out
