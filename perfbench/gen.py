"""Benchmark inputs, generated from a seed and owned by the benchmark.

Nothing here imports mmtm: a change to the program cannot change a
workload's inputs. Gold answers come from this module's own Fraction
arithmetic, and questions are written already spaced so that a token is a
whitespace-separated word.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

NAMES = ("alex", "bea", "carlos", "dina", "emil", "fatima", "goran", "hana",
         "ivan", "june", "kofi", "lucia")
ITEMS = ("apples", "pencils", "stamps", "shells", "cards", "beads", "nuts",
         "ribbons", "cookies", "bottles")

# (question template, equation over placeholders, gold-answer function,
#  quantity sampler).  Quantities appear in the question in the order a, b, c.
SHORT_TEMPLATES = (
    ("{n} has {a} {i} and gets {b} more . how many {i} does {n} have ?",
     "number0 + number1", lambda a, b: a + b, "pair"),
    ("{n} had {a} {i} and lost {b} of them . how many {i} are left ?",
     "number0 - number1", lambda a, b: a - b, "pair_desc"),
    ("each bag holds {a} {i} . how many {i} are in {b} bags ?",
     "number0 * number1", lambda a, b: a * b, "pair_small"),
    ("{n} splits {a} {i} evenly into {b} boxes . how many {i} go in each box ?",
     "number0 / number1", lambda a, b: a / b, "divisible"),
    ("{n} has {a} {i} , finds {b} more and gives {c} away . how many {i} now ?",
     "number0 + number1 - number2", lambda a, b, c: a + b - c, "triple"),
    ("{n} buys {a} packs of {b} {i} and {c} single {i} . how many {i} in total ?",
     "number0 * number1 + number2", lambda a, b, c: a * b + c, "triple_small"),
    ("{n} had {a} {i} , used {b} , and shared the rest among {c} friends . "
     "how many {i} does each friend get ?",
     "( number0 - number1 ) / number2", lambda a, b, c: (a - b) / c,
     "rest_divisible"),
    ("{n} collects {a} {i} on monday and {b} on tuesday , then packs them "
     "into {c} equal rows . how many {i} per row ?",
     "( number0 + number1 ) / number2", lambda a, b, c: (a + b) / c,
     "sum_divisible"),
)

# One step of a long problem: it applies an operator to the running total.
LONG_STEPS = {
    "+": "then {n} gets {q} more {i} .",
    "-": "then {n} gives away {q} {i} .",
    "*": "then the pile grows {q} times bigger .",
    "/": "then {n} splits the pile into {q} equal parts and keeps one part .",
}

# Clauses without numbers, so they add tokens but no quantities.
FILLERS = (
    "the sun was bright and the birds were singing in the park .",
    "{n} wore a green hat that morning .",
    "it had rained all night , so the streets were still wet .",
    "a small dog followed {n} along the road for a while .",
    "the shop near the station sells many kinds of things .",
    "everyone in the family likes to count things together .",
    "later that week the teacher asked the whole class about it .",
    "{n} wrote everything down in a blue notebook .",
    "the bus was late again , which happens quite often in winter .",
    "nobody remembered exactly when the old market first opened .",
    "there was music playing somewhere down the hall .",
    "the neighbours waved from their garden as {n} walked by .",
)

MAX_SRC_LEN = 128  # the model's default max_src_len, which training must not exceed


def _quantities(rng: random.Random, kind: str) -> list[int]:
    if kind == "pair":
        return [rng.randint(2, 60), rng.randint(2, 60)]
    if kind == "pair_desc":
        b = rng.randint(2, 40)
        return [b + rng.randint(1, 40), b]
    if kind == "pair_small":
        return [rng.randint(2, 15), rng.randint(2, 12)]
    if kind == "divisible":
        b = rng.randint(2, 9)
        return [b * rng.randint(2, 12), b]
    if kind == "triple":
        a, b = rng.randint(5, 40), rng.randint(2, 30)
        return [a, b, rng.randint(1, a + b - 1)]
    if kind == "triple_small":
        return [rng.randint(2, 9), rng.randint(2, 12), rng.randint(1, 20)]
    if kind == "rest_divisible":
        c, b = rng.randint(2, 6), rng.randint(1, 20)
        return [b + c * rng.randint(2, 10), b, c]
    if kind == "sum_divisible":
        c = rng.randint(2, 6)
        total = c * rng.randint(3, 15)
        a = rng.randint(1, total - 1)
        return [a, total - a, c]
    raise ValueError(kind)


def _row(rid: str, question: str, equation: str, answer: Fraction) -> dict:
    return {"id": rid, "question": question, "equation": equation,
            "answer": str(answer)}


def short_problems(n: int, seed: int, prefix: str = "s") -> list[dict]:
    """One- and two-operator problems, about 12 to 25 tokens each."""
    rng = random.Random(seed)
    rows = []
    for k in range(n):
        text, equation, gold, kind = SHORT_TEMPLATES[rng.randrange(len(SHORT_TEMPLATES))]
        qs = _quantities(rng, kind)
        slots = dict(zip("abc", qs), n=rng.choice(NAMES), i=rng.choice(ITEMS))
        answer = gold(*[Fraction(q) for q in qs])
        rows.append(_row(f"{prefix}{k:05d}", text.format(**slots), equation, answer))
    return rows


def _long_problem(rng: random.Random, rid: str, n_ops: int, n_fillers: int) -> dict:
    name, item = rng.choice(NAMES), rng.choice(ITEMS)
    total = Fraction(rng.randint(10, 90))
    clauses = [f"{name} starts with {total} {item} ."]
    equation = "number0"
    for k in range(1, n_ops + 1):
        op = rng.choice("+-*/")
        q = rng.randint(2, 9) if op in "*/" else rng.randint(2, 60)
        clauses.append(LONG_STEPS[op].format(n=name, q=q, i=item))
        equation = f"( {equation} {op} number{k} )" if k < n_ops else f"{equation} {op} number{k}"
        total = {"+": total + q, "-": total - q, "*": total * q, "/": total / q}[op]
    for _ in range(n_fillers):
        clauses.insert(rng.randint(1, len(clauses)), rng.choice(FILLERS).format(n=name))
    clauses.append(f"how many {item} does {name} have at the end ?")
    return _row(rid, " ".join(clauses), equation, total)


def long_problems(n: int, seed: int, prefix: str = "l") -> list[dict]:
    """Three- to six-operator problems padded with 0 to 8 filler clauses, so
    question lengths spread from about 30 to 128 tokens."""
    rng = random.Random(seed)
    rows = []
    for k in range(n):
        n_ops, n_fillers = rng.randint(3, 6), rng.randint(0, 8)
        row = _long_problem(rng, f"{prefix}{k:05d}", n_ops, n_fillers)
        while token_count(row["question"]) > MAX_SRC_LEN:
            n_fillers -= 1
            row = _long_problem(random.Random(f"{seed}/{k}/{n_fillers}"),
                                f"{prefix}{k:05d}", n_ops, n_fillers)
        rows.append(row)
    return rows


# Fixed, not drawn from the workload seed: these rows fail every time, so the
# share of failed operations must not depend on the seed.
OVERLONG_SEED = 20220602
OVERLONG_FILLERS = (14, 18, 22)


def overlong_problems() -> list[dict]:
    """Valid problems whose questions are longer than the model's
    max_src_len (190, 254 and 310 tokens)."""
    rng = random.Random(OVERLONG_SEED)
    rows = [_long_problem(rng, f"over{k}", 4, fillers)
            for k, fillers in enumerate(OVERLONG_FILLERS)]
    if min(token_count(r["question"]) for r in rows) <= MAX_SRC_LEN:
        raise ValueError("an over-length question is not over the limit")
    return rows


def plant_wrong_answers(rows: list[dict], count: int, seed: int) -> set[str]:
    """Make `count` rows state a wrong answer (gold + 1); returns their ids."""
    rng = random.Random(seed + 7)
    picked = rng.sample(range(len(rows)), count)
    for k in picked:
        rows[k]["answer"] = str(Fraction(rows[k]["answer"]) + 1)
        rows[k]["id"] = "wrong-" + rows[k]["id"]
    return {rows[k]["id"] for k in picked}


def token_count(question: str) -> int:
    return len(question.split())


def masked_tokens(question: str) -> list[str]:
    """Question tokens with each number replaced by number0, number1, ..."""
    out, k = [], 0
    for tok in question.split():
        if tok.isdigit():
            out.append(f"number{k}")
            k += 1
        else:
            out.append(tok)
    return out


def source_words(rows: list[dict]) -> list[str]:
    return sorted({t for r in rows for t in masked_tokens(r["question"])})


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def write_embeddings(path: Path, words: list[str], n_unrelated: int, seed: int,
                     width: int = 768, rank: int = 96) -> Path:
    """A width-wide embedding TSV: one row per word plus unrelated rows.

    Rows are low-rank plus noise, so their principal directions have clearly
    different variances."""
    rng = np.random.default_rng(seed)
    tokens = list(words) + [f"unrelated{k:05d}" for k in range(n_unrelated)]
    basis = rng.standard_normal((rank, width)) * np.linspace(1.0, 0.05, rank)[:, None]
    vectors = rng.standard_normal((len(tokens), rank)) @ basis
    vectors += 0.01 * rng.standard_normal(vectors.shape)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"D={width}\n")
        for token, vec in zip(tokens, vectors):
            fh.write(token + "\t" + "\t".join(f"{v:.6f}" for v in vec) + "\n")
    return path
