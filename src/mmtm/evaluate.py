"""Answer-accuracy evaluation with cohort breakdowns, and attention export.

A prediction is correct when the greedily decoded pre-order label rebuilds
into a tree whose evaluation matches the gold answer within a relative
tolerance of 1e-4 (floored at absolute 1e-4). Decoding is batched and cached:
`score` hands every record to one `model.greedy_decode` call, which encodes
`model.DECODE_CHUNK` questions at a time and grows each label one position
per step against cached attention keys and values. Given a `cross_trace`,
that pass also keeps the cross-attention that `--attention-out` writes.

Every miss carries a failure reason: `input_too_long` (the question exceeds
the model's `max_src_len` and is never decoded), `decode_malformed` (the
label does not rebuild into a tree), `eval_error` (the tree cannot be
evaluated, e.g. division by zero), `wrong_answer`, or `malformed_record` (the
test line was quarantined at load, so there is nothing to decode). Misses
never abort a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import expr, model
from .checkpoint import TrainedModel
from .dataset import BOS, MwpRecord
from .expr import TraversalVariant

ANSWER_RTOL = Fraction(1, 10000)

COHORT_ROWS = ("Full Set", "One-Op", "Two-Op", "ADD", "SUB", "MUL", "DIV")
_OP_COHORTS = {"ADD": "+", "SUB": "-", "MUL": "*", "DIV": "/"}


@dataclass
class Verdict:
    record_id: str
    predicted_tokens: list[str]
    reconstructed_ok: bool
    predicted_answer: Optional[str]  # None if not evaluated or past 4300 digits
    correct: bool
    # input_too_long | decode_malformed | eval_error | wrong_answer | malformed_record
    failure_reason: Optional[str]


@dataclass
class EvalReport:
    total: int
    correct: int
    cohorts: dict[str, dict]
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "cohorts": self.cohorts,
            "op_cohort_membership": "inclusion over all operators used",
            "verdicts": [vars(v) for v in self.verdicts],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_table(self) -> str:
        width = max(len(r) for r in COHORT_ROWS)
        lines = [f"{'Cohort'.ljust(width)}  Correct/Total  Accuracy"]
        for row in COHORT_ROWS:
            c = self.cohorts[row]
            acc = "n/a" if c["count"] == 0 else f"{c['correct'] / c['count']:.4f}"
            lines.append(f"{row.ljust(width)}  {c['correct']}/{c['count']}  {acc}")
        return "\n".join(lines)


def answers_match(predicted: Fraction, gold: Fraction) -> bool:
    tol = ANSWER_RTOL * max(Fraction(1), abs(gold))
    return abs(predicted - gold) <= tol


def _judge(vocab, record: MwpRecord, ids: list[int]) -> Verdict:
    """Rebuild and evaluate one decoded pre-order label."""
    tokens = vocab.decode_tgt([BOS] + ids)
    try:
        tree = expr.tree_from_preorder(tokens)
    except expr.ExprError:
        return Verdict(record.id, tokens, False, None, False, "decode_malformed")
    try:
        answer = expr.evaluate(tree, list(record.quantities))
    except expr.ExprError:
        return Verdict(record.id, tokens, True, None, False, "eval_error")
    ok = answers_match(answer, record.answer)
    try:
        shown = expr.format_number(answer)
    except expr.NumberTooLong:  # too many digits to write; `ok` judged the value
        shown = None
    return Verdict(record.id, tokens, True, shown, ok, None if ok else "wrong_answer")


def _predict(trained: TrainedModel, records: list[MwpRecord],
             cross_trace: Optional[list] = None) -> list[Verdict]:
    """One verdict per record, in order, and in `cross_trace` its decode trace.
    A question over max_src_len is not decoded: input_too_long, trace None."""
    vocab, cfg = trained.vocab, trained.config
    sources = [vocab.encode_src(r.tokens) for r in records]
    fits = [i for i, src in enumerate(sources) if len(src) <= cfg.max_src_len]
    trace = None if cross_trace is None else []
    decoded = dict(zip(fits, model.greedy_decode(
        trained.params, TraversalVariant.PRE_ORDER, [sources[i] for i in fits],
        cross_trace=trace)))
    if trace is not None:
        cross_trace += map(dict(zip(fits, trace)).get, range(len(records)))
    return [_judge(vocab, record, decoded[i]) if i in decoded
            else Verdict(record.id, [], False, None, False, "input_too_long")
            for i, record in enumerate(records)]


def score(trained: TrainedModel, records: list[MwpRecord],
          cross_trace: Optional[list] = None,
          quarantined: Sequence[dict] = ()) -> EvalReport:
    """Answer accuracy over records plus one-op/two-op and operator cohorts.

    `quarantined` takes `dataset.load_corpus`'s quarantine entries. Each gets
    a `malformed_record` verdict after the records' verdicts, named by its id
    or else `line <n>`, and counts in `total` and the Full Set only."""
    verdicts = _predict(trained, records, cross_trace)
    cohorts = {row: {"count": 0, "correct": 0} for row in COHORT_ROWS}
    for record, verdict in zip(records, verdicts):
        rows = ["Full Set"]
        if record.op_count == 1:
            rows.append("One-Op")
        elif record.op_count == 2:
            rows.append("Two-Op")
        rows += [name for name, op in _OP_COHORTS.items() if op in record.op_types]
        for row in rows:
            cohorts[row]["count"] += 1
            cohorts[row]["correct"] += int(verdict.correct)
    verdicts += [Verdict(f"line {q['line']}" if q["id"] is None else str(q["id"]),
                         [], False, None, False, "malformed_record")
                 for q in quarantined]
    cohorts["Full Set"]["count"] += len(quarantined)
    for c in cohorts.values():
        c["accuracy"] = c["correct"] / c["count"] if c["count"] else "n/a"
    return EvalReport(
        total=len(verdicts),
        correct=sum(v.correct for v in verdicts),
        cohorts=cohorts,
        verdicts=verdicts,
    )


def attention_report(record: MwpRecord, verdict: Verdict, cross: np.ndarray,
                     path: Optional[str | Path] = None) -> dict:
    """One record's attention export, written to `path` if given: the mass each
    source token got in `cross` (layers, heads, steps, source), mean over layers
    and heads, summed over the steps: BOS and every predicted token."""
    report = {
        "record_id": record.id,
        "tokens": list(record.tokens),
        "weights": [float(w) for w in cross.mean(axis=(0, 1)).sum(axis=0)],
        "decode_steps": cross.shape[2],
        "predicted_label": verdict.predicted_tokens,
    }
    if path is not None:
        Path(path).write_text(json.dumps(report, indent=2, sort_keys=True),
                              encoding="utf-8")
    return report


def export_attention(trained: TrainedModel, record: MwpRecord,
                     path: Optional[str | Path] = None) -> dict:
    """`attention_report` of this record decoded alone; SequenceTooLong if too long."""
    trace: list = []
    [verdict] = _predict(trained, [record], trace)
    if trace[0] is None:
        raise model.SequenceTooLong(f"{record.id}: question over max_src_len")
    return attention_report(record, verdict, trace[0], path)
