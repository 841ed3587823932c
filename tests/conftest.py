from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

import synth
from mmtm import dataset, evaluate, model, train
from mmtm.expr import Constant, Leaf, Node, OPERATORS, Placeholder


# Property tests draw the same examples on every run, and store none.
settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        status = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {status}")


def random_tree(rng: np.random.Generator, max_depth: int, n_placeholders: int = 4,
                allow_constants: bool = True):
    """Random binary expression tree of depth <= max_depth."""
    if max_depth <= 1 or rng.random() < 0.3:
        if allow_constants and rng.random() < 0.2:
            return Leaf(Constant(Fraction(int(rng.integers(1, 20)))))
        return Leaf(Placeholder(int(rng.integers(n_placeholders))))
    op = OPERATORS[int(rng.integers(4))]
    return Node(op, random_tree(rng, max_depth - 1, n_placeholders, allow_constants),
                random_tree(rng, max_depth - 1, n_placeholders, allow_constants))


def make_records(n: int, seed: int = 0):
    rows = synth.generate_raw(n, seed=seed)
    return [dataset.make_record(raw) for raw in rows]


def write_embeddings_tsv(path, pretrained):
    """Write `pretrained` in the TSV format `pca_init.load_embeddings_tsv` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"D={pretrained.width}\n")
        for token, vec in pretrained.vectors.items():
            fh.write(token + "\t" + "\t".join(repr(float(v)) for v in vec) + "\n")


ABLATION_ARMS = ("full", "no_pretrain", "dim768", "scratch_embeddings")


def run_ablation(arm, train_records, test_records, config, plan, embeddings=None):
    """Train and score one ablation arm: toggle exactly one factor relative to
    the full configuration, as `mmtm train`'s --no-pretrain, --dim 768 and a
    run without --embeddings do."""
    if arm not in ABLATION_ARMS:
        raise train.TrainError(f"unknown ablation arm {arm!r}")
    arm_embeddings = None if arm == "scratch_embeddings" else embeddings
    if arm == "dim768":
        config = replace(config, d_model=768, d_ffn=4 * 768)
    if arm == "no_pretrain":
        plan = replace(plan, pretrain_epochs=0)
    result = train.train_pipeline(train_records, config, plan,
                                  embeddings=arm_embeddings)
    report = evaluate.score(result.trained, test_records)
    return {
        "arm": arm,
        "d_model": result.trained.config.d_model,
        "pretrained": result.pretrain_log is not None,
        "embedding_init": "pca" if arm_embeddings is not None else "random",
        "report": report,
        "model": result.trained,
    }


def long_question_row(rid: str, n_tokens: int) -> dict:
    """A valid raw corpus row whose question tokenizes to n_tokens tokens."""
    filler = " really" * (n_tokens - 9)
    row = {"id": rid, "question": f"Dan had 5 pens and bought 3 more{filler}?",
           "equation": "number0 + number1", "answer": 8}
    assert len(dataset.tokenize(dataset.extract_numbers(row["question"])[0])) == n_tokens
    return row


def oversized_equation_row(rid: str, shape: str) -> dict:
    """A raw corpus row whose equation is past expr.MAX_EQUATION_TOKENS:
    nested 331 parentheses deep ("nested") or a 1000-term + chain ("chain").
    Either one raised RecursionError from make_record before the bound."""
    if shape == "nested":
        equation, answer = "(" * 331 + "5 + 3" + ")" * 331, 8
    else:
        equation, answer = " + ".join(["1"] * 1000), 1000
    return {"id": rid, "question": "Dan had 5 pens , 3 cups and 1 hat .",
            "equation": equation, "answer": answer}


@pytest.fixture(scope="session")
def corpus12():
    return make_records(12, seed=21)


@pytest.fixture(scope="session")
def memorized(corpus12):
    """A small model fine-tuned to memorize corpus12 (used by eval tests)."""
    vocab = dataset.build_vocab(corpus12)
    cfg = model.ModelConfig(src_vocab_size=vocab.src_size,
                            tgt_vocab_size=vocab.tgt_size,
                            d_model=32, n_heads=4, dropout=0.1, seed=9)
    plan = train.TrainPlan(pretrain_epochs=1, finetune_epochs=120,
                           finetune_lr=1e-3, batch_size=8, seed=9)
    return train.train_pipeline(corpus12, cfg, plan, vocab=vocab).trained
