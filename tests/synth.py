"""Deterministic synthetic word-problem corpora for the tests."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from mmtm import expr

_NAMES = ("john", "mary", "sam", "rita", "omar", "lena", "chen", "ana")
_ITEMS = ("apples", "pencils", "books", "marbles", "coins", "stickers")

_ONE_OP = (
    ("{name} has {q0} {item} and buys {q1} more . how many {item} does {name} "
     "have now ?", "number0 + number1"),
    ("{name} had {q0} {item} and gave away {q1} . how many {item} are left ?",
     "number0 - number1"),
    ("there are {q0} boxes with {q1} {item} in each box . how many {item} are "
     "there in total ?", "number0 * number1"),
    ("{name} shares {q0} {item} equally among {q1} friends . how many {item} "
     "does each friend get ?", "number0 / number1"),
)

_TWO_OP = (
    ("{name} has {q0} {item} , buys {q1} more and then gives away {q2} . how "
     "many {item} remain ?", "number0 + number1 - number2"),
    ("{name} packs {q0} boxes with {q1} {item} each and adds {q2} loose {item} "
     ". how many {item} in all ?", "number0 * number1 + number2"),
    ("a shop had {q0} {item} , sold {q1} of them and split the rest into {q2} "
     "equal piles . how many {item} per pile ?",
     "( number0 - number1 ) / number2"),
    ("{name} removes {q0} {item} from a pile of {q1} and doubles what is left "
     "{q2} times over . how many {item} now ?",
     "( number1 - number0 ) * number2"),
)


def generate_raw(n: int, seed: int = 0) -> list[dict]:
    """n raw corpus rows ({id, question, equation, answer}) with clean answers."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        two = rng.random() < 0.5
        templates = _TWO_OP if two else _ONE_OP
        text, equation = templates[int(rng.integers(len(templates)))]
        name = _NAMES[int(rng.integers(len(_NAMES)))]
        item = _ITEMS[int(rng.integers(len(_ITEMS)))]
        if "number0 / number1" in equation:
            q1 = int(rng.integers(2, 9))
            q0 = q1 * int(rng.integers(2, 12))
            qs = [q0, q1]
        elif "/ number2" in equation:
            q2 = int(rng.integers(2, 6))
            q1 = int(rng.integers(2, 20))
            q0 = q1 + q2 * int(rng.integers(2, 10))
            qs = [q0, q1, q2]
        elif "number1 - number0" in equation:
            q0 = int(rng.integers(2, 10))
            q1 = q0 + int(rng.integers(2, 20))
            q2 = int(rng.integers(2, 6))
            qs = [q0, q1, q2]
        else:
            hi = 30 if two else 60
            count = 3 if two else 2
            qs = sorted((int(v) for v in rng.integers(2, hi, size=count)),
                        reverse=True)
        question = text.format(name=name, item=item,
                               **{f"q{j}": q for j, q in enumerate(qs)})
        answer = _eval_equation(equation, qs)
        rows.append({"id": f"synth{i:04d}", "question": question,
                     "equation": equation, "answer": answer})
    return rows


def _eval_equation(equation: str, quantities: list[int]):
    value = expr.evaluate(expr.parse_infix(equation, len(quantities)),
                          [Fraction(q) for q in quantities])
    return int(value) if value.denominator == 1 else float(value)


def write_corpus(path: str | Path, rows: list[dict]) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path
