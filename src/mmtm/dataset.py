"""Corpus ingestion, placeholder normalization, vocabulary, and task augmentation.

A corpus is JSONL with {"id", "question", "equation", "answer"} per line.
Quantities in the question are replaced left-to-right by "number0",
"number1", ... and the gold equation is aligned to those placeholders.
Each accepted record yields one training example per traversal order,
tripling the corpus.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from . import expr
from .expr import ExprTree, TraversalVariant

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")

# Digits glued to a letter (as in "number0") are never re-masked.
_NUMBER_IN_TEXT_RE = re.compile(r"(?<![A-Za-z0-9.])\d+(?:,\d{3})*(?:\.\d+)?")
_PUNCT_RE = re.compile(r"([.,?!])")
# The decimal exponent of an answer string, as Fraction reads it ("2.5e-3").
_EXPONENT_RE = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# Past this exponent no value has a decimal form Python writes (4300 digits),
# and Fraction would first build the 10**exponent it names.
MAX_ANSWER_EXPONENT = 4300


class DatasetError(Exception):
    pass


class MalformedRecord(DatasetError):
    pass


class AnswerMismatch(DatasetError):
    pass


@dataclass(frozen=True)
class MwpRecord:
    id: str
    question: str
    masked_question: str
    equation: str  # infix over placeholders
    answer: Fraction
    quantities: tuple[Fraction, ...]
    op_count: int
    op_types: frozenset[str]
    # The tree `make_record` parsed while validating; trees are immutable.
    tree: ExprTree = field(compare=False, repr=False)


@dataclass(frozen=True)
class TaskExample:
    source_ids: tuple[int, ...]
    target_ids: tuple[int, ...]  # BOS ... EOS
    task: TraversalVariant
    record_id: str


def extract_numbers(text: str) -> tuple[str, list[Fraction]]:
    """Replace numeric literals left-to-right with indexed placeholders."""
    quantities: list[Fraction] = []

    def repl(m: re.Match) -> str:
        quantities.append(expr.parse_number(m.group()))
        return f"number{len(quantities) - 1}"

    return _NUMBER_IN_TEXT_RE.sub(repl, text), quantities


def tokenize(masked_text: str) -> list[str]:
    """Lowercase, split on whitespace, and split .,?! into standalone tokens."""
    return _PUNCT_RE.sub(r" \1 ", masked_text.lower()).split()


def _align_equation(equation: str, quantities: list[Fraction]) -> str:
    """Rewrite raw numbers in an equation as placeholders by value match.

    Literals matching a question quantity become that quantity's placeholder
    (first unused position wins on duplicates); non-matching literals stay
    constants.
    """
    used: set[int] = set()

    def repl(m: re.Match) -> str:
        value = expr.parse_number(m.group())
        positions = [i for i, q in enumerate(quantities) if q == value]
        if not positions:
            return m.group().replace(",", "")
        pick = next((i for i in positions if i not in used), positions[0])
        used.add(pick)
        return f"number{pick}"

    return _NUMBER_IN_TEXT_RE.sub(repl, equation)


def _shown(value: Fraction) -> str:
    try:
        return expr.format_number(value)
    except expr.NumberTooLong as e:
        return str(e)


def make_record(raw: dict, line_no: int = 0) -> MwpRecord:
    """Validate one raw corpus object; raises MalformedRecord/AnswerMismatch."""
    try:
        rid = str(raw["id"])
        question = str(raw["question"])
        equation = str(raw["equation"])
        answer = raw["answer"]
    except (KeyError, TypeError) as e:
        raise MalformedRecord(f"line {line_no}: missing field {e}") from e
    if isinstance(answer, bool) or not isinstance(answer, (int, float, str)):
        raise MalformedRecord(f"line {line_no}: answer must be a number")
    try:
        exponent = _EXPONENT_RE.search(str(answer))
        if exponent and abs(int(exponent[1])) > MAX_ANSWER_EXPONENT:
            raise MalformedRecord(f"line {line_no}: answer exponent {exponent[1]} "
                                  f"past {MAX_ANSWER_EXPONENT}")
        answer = Fraction(str(answer))
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedRecord(f"line {line_no}: bad answer {answer!r}") from e

    try:
        masked, quantities = extract_numbers(question)
    except expr.ExprError as e:
        raise MalformedRecord(f"line {line_no} ({rid}): bad question: {e}") from e
    if not tokenize(masked):
        raise MalformedRecord(f"line {line_no} ({rid}): question has no tokens")
    try:
        aligned = _align_equation(equation, quantities)
        tree = expr.parse_infix(aligned, len(quantities))
        computed = expr.evaluate(tree, quantities)
    except expr.ExprError as e:
        raise MalformedRecord(f"line {line_no} ({rid}): bad equation: {e}") from e
    if computed != answer:
        raise AnswerMismatch(
            f"{rid}: equation evaluates to {_shown(computed)}, "
            f"gold answer is {_shown(answer)}"
        )
    ops = expr.operators_of(tree)
    return MwpRecord(
        id=rid,
        question=question,
        masked_question=masked,
        equation=aligned,
        answer=answer,
        quantities=tuple(quantities),
        op_count=len(ops),
        op_types=frozenset(ops),
        tree=tree,
    )


@dataclass
class CorpusLoad:
    records: list[MwpRecord]
    quarantined: list[dict] = field(default_factory=list)


def load_corpus(path: str | Path) -> CorpusLoad:
    """Load a JSONL corpus; invalid records go to the quarantine list."""
    out = CorpusLoad(records=[])
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:  # ValueError: not JSON, or an int past Python's 4300-digit limit
                raw = json.loads(line)
            except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
                out.quarantined.append(
                    {"line": line_no, "id": None, "reason": f"bad json: {e}"}
                )
                continue
            try:
                out.records.append(make_record(raw, line_no))
            except DatasetError as e:
                rid = raw.get("id") if isinstance(raw, dict) else None
                out.quarantined.append({"line": line_no, "id": rid, "reason": str(e)})
    return out


class Vocab:
    """Separate source/target token tables with shared reserved ids 0..3."""

    def __init__(self, src_tokens: Iterable[str], tgt_tokens: Iterable[str]):
        self.src_itos = list(RESERVED) + list(src_tokens)
        self.tgt_itos = list(RESERVED) + list(tgt_tokens)
        if len(set(self.src_itos)) != len(self.src_itos):
            raise DatasetError("duplicate source vocab tokens")
        if len(set(self.tgt_itos)) != len(self.tgt_itos):
            raise DatasetError("duplicate target vocab tokens")
        self.src_stoi = {t: i for i, t in enumerate(self.src_itos)}
        self.tgt_stoi = {t: i for i, t in enumerate(self.tgt_itos)}

    @property
    def src_size(self) -> int:
        return len(self.src_itos)

    @property
    def tgt_size(self) -> int:
        return len(self.tgt_itos)

    def encode_src(self, tokens: list[str]) -> list[int]:
        return [self.src_stoi.get(t, UNK) for t in tokens]

    def encode_tgt(self, tokens: list[str]) -> list[int]:
        return [BOS] + [self.tgt_stoi.get(t, UNK) for t in tokens] + [EOS]

    def decode_tgt(self, ids: Iterable[int]) -> list[str]:
        out = []
        for i in ids:
            if i in (PAD, BOS):
                continue
            if i == EOS:
                break
            out.append(self.tgt_itos[i] if 0 <= i < len(self.tgt_itos) else "<unk>")
        return out


def build_vocab(records: list[MwpRecord]) -> Vocab:
    """Source vocab: every question token seen, sorted; target vocab is
    operators + placeholders + constants seen in gold equations."""
    src = sorted({t for rec in records for t in tokenize(rec.masked_question)})

    max_ph = 0
    constants: set[str] = set()
    seen_ops: set[str] = set()
    for rec in records:
        max_ph = max(max_ph, len(rec.quantities))
        seen_ops |= rec.op_types
        for leaf in expr.iter_leaves(rec.tree):
            if isinstance(leaf.operand, expr.Constant):
                constants.add(leaf.operand.token)
    tgt = ([op for op in expr.OPERATORS if op in seen_ops]
           + [f"number{i}" for i in range(max_ph)] + sorted(constants))
    return Vocab(src, tgt)


def augment_tokens(records: list[MwpRecord]) -> dict[TraversalVariant, list[dict]]:
    """Token-level task rows, one per record per traversal order."""
    out: dict[TraversalVariant, list[dict]] = {v: [] for v in TraversalVariant}
    for rec in records:
        source = tokenize(rec.masked_question)
        for variant in TraversalVariant:
            out[variant].append(
                {
                    "record_id": rec.id,
                    "task": variant.value,
                    "source": source,
                    "target": expr.traverse(rec.tree, variant),
                }
            )
    return out


def augment_corpus(
    records: list[MwpRecord], vocab: Vocab
) -> dict[TraversalVariant, list[TaskExample]]:
    """Encode the three traversal-specific datasets; 3x the record count."""
    rows = augment_tokens(records)
    return {
        variant: [
            TaskExample(
                source_ids=tuple(vocab.encode_src(row["source"])),
                target_ids=tuple(vocab.encode_tgt(row["target"])),
                task=variant,
                record_id=row["record_id"],
            )
            for row in rows[variant]
        ]
        for variant in TraversalVariant
    }


def write_task_files(
    rows: dict[TraversalVariant, list[dict]], out_dir: str | Path
) -> dict[TraversalVariant, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for variant, variant_rows in rows.items():
        path = out_dir / f"task_{variant.value}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for row in variant_rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        paths[variant] = path
    return paths
