"""The benchmark's workloads: set-up, timed rounds, and the checks on outputs.

Every workload drives the public API the way ``mmtm train`` and
``mmtm eval`` do: load the corpus and embeddings, build the vocabulary,
PCA-initialise, augment, pre-train, fine-tune, save and load checkpoints,
score held-out problems and export attention. A run repeats whole rounds of
the same operations until its time is up and reports medians over them.
"""

from __future__ import annotations

import itertools
import math
import re
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
import tracing
from mmtm import checkpoint, dataset, evaluate, model, pca_init, train
from mmtm.expr import TraversalVariant

PRE = TraversalVariant.PRE_ORDER
FROZEN_PREFIXES = ("dec.in.", "dec.post.")
ANSWER_RTOL = Fraction(1, 10000)  # the documented tolerance of a correct answer
MIN_ACCURACY = 0.95  # held-out accuracy the decoded model must reach
N_WRONG = 3          # planted wrong-answer rows in every training corpus


@dataclass(frozen=True)
class Spec:
    problems: str                  # "short" or "long"
    n_train: int                   # valid training records
    n_unrelated: int               # embedding rows outside the vocabulary
    n_heldout: int = 0             # records scored per round
    n_attention: int = 0           # attention exports per round
    d_model: int = 64
    layers: int = 1
    finetune_epochs: int = 3
    finetune_lr: float = 1e-4
    train_in_setup: bool = False   # train once in set-up; rounds only decode
    overlong: bool = False         # score questions longer than max_src_len
    n_checkpoint_calls: int = 20   # saves and loads per round
    setup_repeats: int = 5


# The `mmtm train` defaults: d64, 1+1 layers, 4 heads, batch 16, dropout 0.1,
# float64, 1 pre-training epoch at lr 1e-5 and 3 fine-tuning epochs at 1e-4.
SPECS = {
    # Small steps: per-call Python overhead and Adam's per-tensor loop dominate.
    "train_short": Spec("short", n_train=300, n_unrelated=100),
    # d128, 2+2 layers, long questions of mixed length: matmul, attention and
    # padding dominate; set-up reads a large embedding table.
    "train_long": Spec("long", n_train=32, n_unrelated=2000, d_model=128, layers=2),
    # Trained in set-up until held-out problems decode correctly, so decode
    # lengths follow the gold labels; rounds time loading, scoring and export.
    "eval_decode": Spec("short", n_train=200, n_unrelated=100, n_heldout=400,
                        n_attention=200, finetune_epochs=10, finetune_lr=1e-3,
                        train_in_setup=True, overlong=True),
}

# Sizes for the smoke test: the same phases and checks, in a few seconds.
TINY = {
    "train_short": replace(SPECS["train_short"], n_train=32, n_unrelated=10,
                           n_checkpoint_calls=3, setup_repeats=1),
    "train_long": replace(SPECS["train_long"], n_unrelated=20, d_model=32,
                          n_checkpoint_calls=3, setup_repeats=1),
    "eval_decode": replace(SPECS["eval_decode"], n_heldout=20, n_attention=2,
                           n_checkpoint_calls=3, setup_repeats=1),
}

END_TO_END = {
    "setup_s": "s",
    "pretrain_examples_per_s": "1/s",
    "finetune_examples_per_s": "1/s",
    "checkpoint_save_ms": "ms",
    "checkpoint_load_ms": "ms",
    "eval_records_per_s": "1/s",
    "eval_tokens_per_s": "1/s",
    "attention_records_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Checks:
    """Collects every failed property instead of stopping at the first."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok, message: str) -> None:
        if not ok and len(self.failures) < 50:
            self.failures.append(message)


@dataclass
class Inputs:
    corpus: Path
    heldout: Path
    embeddings: Path
    wrong_ids: set[str]
    words: set[str]               # tokens the embedding table covers
    rows: dict[str, dict]         # held-out and over-length rows by id


def make_inputs(spec: Spec, seed: int, work: Path) -> Inputs:
    problems = gen.short_problems if spec.problems == "short" else gen.long_problems
    train_rows = problems(spec.n_train + N_WRONG, seed, "tr")
    wrong = gen.plant_wrong_answers(train_rows, N_WRONG, seed)
    heldout_rows = problems(spec.n_heldout, seed + 1_000_003, "ho")
    over_rows = gen.overlong_problems() if spec.overlong else []
    words = gen.source_words(train_rows + heldout_rows)
    return Inputs(
        corpus=gen.write_jsonl(work / "corpus.jsonl", train_rows),
        heldout=gen.write_jsonl(work / "heldout.jsonl", heldout_rows + over_rows),
        embeddings=gen.write_embeddings(work / "embeddings.tsv", words,
                                        spec.n_unrelated, seed),
        wrong_ids=wrong,
        words=set(words),
        rows={r["id"]: r for r in heldout_rows + over_rows},
    )


@dataclass
class State:
    vocab: dataset.Vocab
    plan: train.TrainPlan
    params0: model.ParamStore
    examples: dict
    heldout: list
    overlong: list
    pca_rows: np.ndarray
    quarantined: list
    trained: model.ParamStore | None = None
    train_logs: tuple | None = None
    stage_s: tuple[float, float] | None = None


def setup(spec: Spec, inputs: Inputs, seed: int, work: Path) -> State:
    """Program work before the first timed phase (``mmtm train`` order)."""
    load = dataset.load_corpus(inputs.corpus)
    test = dataset.load_corpus(inputs.heldout)
    pretrained = pca_init.load_embeddings_tsv(inputs.embeddings)
    vocab = dataset.build_vocab(load.records)
    config = model.ModelConfig(
        src_vocab_size=vocab.src_size, tgt_vocab_size=vocab.tgt_size,
        d_model=spec.d_model, n_enc_layers=spec.layers, n_dec_layers=spec.layers,
        n_heads=4, dropout=0.1, dtype="float64", max_src_len=128, max_tgt_len=48,
        seed=seed)
    plan = train.TrainPlan(finetune_epochs=spec.finetune_epochs,
                           finetune_lr=spec.finetune_lr, seed=seed)
    pca_rows = pca_init.init_vocab_embeddings(vocab, pretrained, config.d_model,
                                              seed=config.seed)
    params0 = model.init_params(config, embedding_init=pca_rows)
    examples = dataset.augment_corpus(load.records, vocab)
    state = State(vocab, plan, params0, examples,
                  heldout=[r for r in test.records if not r.id.startswith("over")],
                  overlong=[r for r in test.records if r.id.startswith("over")],
                  pca_rows=pca_rows, quarantined=load.quarantined)
    if spec.train_in_setup:
        state.trained, pre_s, ft_s, state.train_logs = train_once(state)
        state.stage_s = (pre_s, ft_s)
        checkpoint.save(work / "checkpoint_final.mmtm", state.trained, vocab)
    return state


def _pretrain_examples(state: State) -> int:
    return sum(len(v) for v in state.examples.values()) * state.plan.pretrain_epochs


def _finetune_examples(state: State) -> int:
    return len(state.examples[PRE]) * state.plan.finetune_epochs


def train_once(state: State):
    """Both stages from the initial parameters, as ``train_pipeline`` runs
    them; returns (params, pretrain s, finetune s, (pre_log, ft_log, frozen))."""
    params = state.params0.copy()
    t0 = time.perf_counter()
    params, pre_log = train.pretrain_multitask(params, state.examples, state.plan)
    t1 = time.perf_counter()
    frozen = {n: v.copy() for n, v in params.tensors.items()
              if n.startswith(FROZEN_PREFIXES)}
    t2 = time.perf_counter()
    params, ft_log = train.finetune(params, state.examples[PRE], state.plan)
    t3 = time.perf_counter()
    return params, t1 - t0, t3 - t2, (pre_log, ft_log, frozen)


# ---------------------------------------------------------------------------
# checks: independent computations and properties of the method
# ---------------------------------------------------------------------------


def check_setup(spec: Spec, inputs: Inputs, state: State, checks: Checks) -> None:
    got = {q["id"] for q in state.quarantined}
    checks.expect(got == inputs.wrong_ids,
                  f"quarantined {sorted(got)}, planted {sorted(inputs.wrong_ids)}")
    n_over = len(gen.OVERLONG_FILLERS) if spec.overlong else 0
    checks.expect(len(state.heldout) == spec.n_heldout and len(state.overlong) == n_over,
                  "held-out records lost in loading")
    check_pca(inputs, state, checks)


def check_pca(inputs: Inputs, state: State, checks: Checks) -> None:
    """Projected rows: zero-mean, uncorrelated columns with non-increasing
    variance; unmatched rows carry the matched rows' mean norm."""
    rows = state.pca_rows
    matched = np.array([t in inputs.words for t in state.vocab.src_itos])
    proj = rows[matched]
    scale = float(np.abs(proj).max())
    checks.expect(np.abs(proj.mean(axis=0)).max() <= 1e-9 * scale,
                  "PCA columns are not zero-mean")
    cov = proj.T @ proj / (len(proj) - 1)
    var = np.diag(cov).copy()
    off = cov - np.diag(var)
    checks.expect(np.abs(off).max() <= 1e-9 * var.max(), "PCA columns are correlated")
    checks.expect(np.all(np.diff(var) <= 1e-9 * var.max()),
                  "PCA column variances increase")
    target = np.linalg.norm(proj, axis=1).mean()
    norms = np.linalg.norm(rows[~matched], axis=1)
    checks.expect(len(norms) > 0 and np.allclose(norms, target, rtol=1e-9, atol=0),
                  "unmatched embedding rows do not have the matched mean norm")


def check_training(spec: Spec, state: State, logs, params, checks: Checks) -> None:
    pre_log, ft_log, frozen = logs
    batches = math.ceil(spec.n_train / state.plan.batch_size)
    checks.expect(len(pre_log.steps) == 3 * batches * state.plan.pretrain_epochs,
                  f"pretrain ran {len(pre_log.steps)} steps")
    checks.expect(len(ft_log.steps) == batches * state.plan.finetune_epochs,
                  f"finetune ran {len(ft_log.steps)} steps")
    losses = [s["loss"] for s in pre_log.steps + ft_log.steps]
    checks.expect(all(math.isfinite(v) for v in losses), "non-finite training loss")
    epochs = [e["mean_loss"] for e in ft_log.epochs]
    checks.expect(epochs[-1] < epochs[0],
                  f"fine-tuning loss did not fall: {epochs[0]} -> {epochs[-1]}")
    checks.expect(frozen and all(params.tensors[n].tobytes() == v.tobytes()
                                 for n, v in frozen.items()),
                  "fine-tuning changed an in-order or post-order decoder tensor")


def param_total(config: model.ModelConfig) -> int:
    """Parameters of the shared encoder and the three decoders."""
    d, f = config.d_model, config.d_ffn
    attn, ffn, ln = 4 * d * d, 2 * d * f + f + d, 2 * d
    enc = config.src_vocab_size * d + config.n_enc_layers * (2 * ln + attn + ffn) + ln
    vt = config.tgt_vocab_size
    dec = vt * d + config.n_dec_layers * (3 * ln + 2 * attn + ffn) + ln + d * vt + vt
    return enc + 3 * dec


def check_checkpoint(path: Path, params, vocab, loaded, checks: Checks) -> None:
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[4:12], "little")
    expected = 12 + header_len + param_total(params.config) * 8
    checks.expect(len(blob) == expected,
                  f"checkpoint is {len(blob)} bytes, expected {expected}")
    checks.expect(set(loaded.params.tensors) == set(params.tensors)
                  and all(loaded.params.tensors[n].tobytes() == v.tobytes()
                          for n, v in params.tensors.items()),
                  "checkpoint tensors do not read back bit-identical")
    checks.expect(loaded.vocab.src_itos == vocab.src_itos
                  and loaded.vocab.tgt_itos == vocab.tgt_itos,
                  "checkpoint vocabulary differs")


_CONSTANT = re.compile(r"^\d+(?:\.\d+)?$")


def eval_preorder(tokens: list[str], quantities: list[Fraction]) -> Fraction:
    """The benchmark's own evaluator for a pre-order label."""
    pos = 0

    def node() -> Fraction:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("label ends inside an operator")
        tok = tokens[pos]
        pos += 1
        if tok in ("+", "-", "*", "/"):
            left, right = node(), node()
            if tok == "+":
                return left + right
            if tok == "-":
                return left - right
            if tok == "*":
                return left * right
            if right == 0:
                raise ValueError("division by zero")
            return left / right
        if tok.startswith("number") and tok[6:].isdigit():
            k = int(tok[6:])
            if k >= len(quantities):
                raise ValueError(f"{tok} out of range")
            return quantities[k]
        if _CONSTANT.match(tok):
            return Fraction(tok)
        raise ValueError(f"unknown token {tok!r}")

    value = node()
    if pos != len(tokens):
        raise ValueError("tokens left after a complete tree")
    return value


def check_report(spec: Spec, inputs: Inputs, report, checks: Checks) -> None:
    checks.expect(report.total == spec.n_heldout == len(report.verdicts),
                  "score did not return one verdict per record")
    for v in report.verdicts:
        row = inputs.rows[v.record_id]
        quantities = [Fraction(t) for t in row["question"].split() if t.isdigit()]
        gold = Fraction(row["answer"])
        try:
            mine = eval_preorder(v.predicted_tokens, quantities)
        except ValueError:
            checks.expect(v.predicted_answer is None and not v.correct,
                          f"{v.record_id}: invalid label {v.predicted_tokens} scored")
            continue
        ok = abs(mine - gold) <= ANSWER_RTOL * max(Fraction(1), abs(gold))
        checks.expect(v.predicted_answer is not None
                      and Fraction(v.predicted_answer) == mine and v.correct == ok,
                      f"{v.record_id}: {v.predicted_tokens} gives {mine}, "
                      f"reported {v.predicted_answer} correct={v.correct}")
    checks.expect(report.accuracy >= MIN_ACCURACY,
                  f"held-out accuracy {report.accuracy} < {MIN_ACCURACY}")


def check_attention(inputs: Inputs, record, exported: dict, verdict, checks: Checks) -> None:
    n_tokens = gen.token_count(inputs.rows[record.id]["question"])
    weights = exported["weights"]
    checks.expect(len(weights) == n_tokens,
                  f"{record.id}: {len(weights)} attention weights for {n_tokens} tokens")
    checks.expect(math.isclose(sum(weights), exported["decode_steps"], rel_tol=1e-9),
                  f"{record.id}: attention sums to {sum(weights)}, "
                  f"not {exported['decode_steps']}")
    checks.expect(exported["predicted_label"] == verdict.predicted_tokens,
                  f"{record.id}: attention label differs from the scored label")


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])


def run_round(spec: Spec, state: State, decoder: tuple, work: Path,
              tally: Tally, checks: Checks, reference: dict) -> None:
    """One round of the workload's timed phases. `decoder` is the
    (spec, inputs, state) whose trained model is decoded."""
    if spec.train_in_setup:
        params = state.trained
    else:
        params, pre_s, ft_s, logs = train_once(state)
        check_training(spec, state, logs, params, checks)
        tally.add("pretrain_examples_per_s", _pretrain_examples(state) / pre_s)
        tally.add("finetune_examples_per_s", _finetune_examples(state) / ft_s)
        tally.attempted += len(logs[0].steps) + len(logs[1].steps)

    path = work / "checkpoint_final.mmtm"
    for _ in range(spec.n_checkpoint_calls):
        # Each save makes a new file, as a training run does. Truncating and
        # rewriting one file also timed the file system's work on the old
        # blocks, which doubled the time and moved it from run to run.
        path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        checkpoint.save(path, params, state.vocab)
        tally.add("checkpoint_save_ms", (time.perf_counter() - t0) * 1e3)
    blob = path.read_bytes()
    checks.expect(reference.setdefault("checkpoint", blob) == blob,
                  "rounds trained from the same seed saved different checkpoints")
    for _ in range(spec.n_checkpoint_calls):
        t0 = time.perf_counter()
        loaded = checkpoint.load(path)
        tally.add("checkpoint_load_ms", (time.perf_counter() - t0) * 1e3)
    check_checkpoint(path, params, state.vocab, loaded, checks)
    tally.attempted += 2 * spec.n_checkpoint_calls

    dspec, dinputs, dstate = decoder
    trained = checkpoint.TrainedModel(params=dstate.trained, vocab=dstate.vocab)
    t0 = time.perf_counter()
    report = evaluate.score(trained, dstate.heldout)
    elapsed = time.perf_counter() - t0
    check_report(dspec, dinputs, report, checks)
    tally.add("eval_records_per_s", len(dstate.heldout) / elapsed)
    tally.add("eval_tokens_per_s", tracing.decoded_tokens(report, trained.config) / elapsed)
    tally.attempted += len(dstate.heldout)

    verdicts = {v.record_id: v for v in report.verdicts}
    att_dir = work / "attention"
    att_dir.mkdir(exist_ok=True)
    elapsed = 0.0
    for record in dstate.heldout[:dspec.n_attention]:
        out = att_dir / f"{record.id}.json"
        out.unlink(missing_ok=True)  # a new file, as for checkpoints
        t0 = time.perf_counter()
        exported = evaluate.export_attention(trained, record, path=out)
        elapsed += time.perf_counter() - t0
        check_attention(dinputs, record, exported, verdicts[record.id], checks)
    tally.add("attention_records_per_s", dspec.n_attention / elapsed)
    tally.attempted += dspec.n_attention

    # Named fault: an over-length question makes score raise SequenceTooLong
    # from model._check_ids instead of giving that record a verdict.
    for record in dstate.overlong:
        tally.attempted += 1
        try:
            over = evaluate.score(trained, [record])
        except model.SequenceTooLong:
            tally.failed += 1
            continue
        checks.expect(over.total == 1, f"{record.id}: no verdict for an over-length record")


def reference_decoder(seed: int, work: Path, tiny: bool, checks: Checks) -> tuple:
    """The eval_decode model and inputs, built untimed for a train workload.

    The result line carries every end-to-end metric, decode speed included,
    but a train workload's own under-trained model stops decoding at lengths
    that move with the seed (12.9 to 46.4 tokens a record on train_long), so
    it decodes this model instead, whose decode lengths follow the gold labels.
    """
    dspec = replace((TINY if tiny else SPECS)["eval_decode"], overlong=False)
    dwork = work / "decoder"
    dwork.mkdir()
    dinputs = make_inputs(dspec, seed, dwork)
    dstate = setup(dspec, dinputs, seed, dwork)
    check_setup(dspec, dinputs, dstate, checks)
    check_training(dspec, dstate, dstate.train_logs, dstate.trained, checks)
    return dspec, dinputs, dstate


def warm_up(state: State, decoder: tuple, work: Path) -> None:
    """One untimed pass over each phase on a small slice, so caches fill and
    lazy set-up finishes before timing."""
    small = replace(state, examples={v: ex[:state.plan.batch_size]
                                     for v, ex in state.examples.items()},
                    plan=replace(state.plan, finetune_epochs=1))
    path = work / "warmup.mmtm"
    checkpoint.save(path, state.trained or train_once(small)[0], state.vocab)
    checkpoint.load(path)
    _, _, dstate = decoder
    trained = checkpoint.TrainedModel(params=dstate.trained, vocab=dstate.vocab)
    evaluate.score(trained, dstate.heldout[:4])
    evaluate.export_attention(trained, dstate.heldout[0], path=work / "warmup.json")


def rounds_for(seconds: float, one_round, at_least: int = 1) -> None:
    """Whole rounds until `seconds` have passed and `at_least` have run."""
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        if k >= at_least and time.perf_counter() >= deadline:
            return
        one_round(k)


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool,
        work: Path, out_dir: Path) -> dict:
    spec = (TINY if tiny else SPECS)[name]
    checks = Checks()
    tally = Tally()
    inputs = make_inputs(spec, seed, work)
    for _ in range(spec.setup_repeats):
        t0 = time.perf_counter()
        state = setup(spec, inputs, seed, work)
        tally.add("setup_s", time.perf_counter() - t0)
        if spec.train_in_setup:
            # The rounds do not train, so the stage rates come from set-up.
            tally.add("pretrain_examples_per_s", _pretrain_examples(state) / state.stage_s[0])
            tally.add("finetune_examples_per_s", _finetune_examples(state) / state.stage_s[1])
    check_setup(spec, inputs, state, checks)
    if spec.train_in_setup:
        check_training(spec, state, state.train_logs, state.trained, checks)
        decoder = (spec, inputs, state)
    else:
        decoder = reference_decoder(seed, work, tiny, checks)
    warm_up(state, decoder, work)

    reference: dict = {}
    if not traced:
        rounds_for(seconds, lambda k: run_round(spec, state, decoder, work, tally,
                                                checks, reference))
        tally.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = {m: (tally.median(m), unit) for m, unit in END_TO_END.items()}
    else:
        tracer = tracing.Tracer()
        with tracer:
            tracer.run_id = f"{name}-{seed}-setup"
            state = setup(spec, inputs, seed, work)
        if spec.train_in_setup:
            decoder = (spec, inputs, state)
        # Traced and untraced rounds alternate, so that both see the same
        # machine and their ratio is the tracing overhead.
        round_s: dict[bool, list[float]] = {False: [], True: []}

        def one_round(k):
            t0 = time.perf_counter()
            if k % 2:
                tracer.run_id = f"{name}-{seed}-round{k}"
                with tracer:
                    run_round(spec, state, decoder, work, tally, checks, reference)
            else:
                run_round(spec, state, decoder, work, tally, checks, reference)
            round_s[bool(k % 2)].append(time.perf_counter() - t0)

        rounds_for(seconds, one_round, at_least=2)
        layers = tracing.Layers(tracer)
        metrics = tracing.layer_metrics(layers)
        metrics["trace.overhead_ratio"] = (
            statistics.median(round_s[True]) / statistics.median(round_s[False]), "ratio")
        tracer.write_spans(out_dir / f"spans_{name}.jsonl")
        table = [layers.table(), ""] + [f"{m:46} {v:14.6g} {u}"
                                       for m, (v, u) in metrics.items()]
        table += [f"untraced round s: {round_s[False]}", f"traced round s: {round_s[True]}"]
        if tracer.absent:
            table.append("absent: " + ", ".join(tracer.absent))
        (out_dir / f"layers_{name}.txt").write_text("\n".join(table) + "\n",
                                                  encoding="utf-8")
    return {"correct": not checks.failures, "attempted": tally.attempted,
            "failed": tally.failed, "failures": checks.failures,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
