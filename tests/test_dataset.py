import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import synth
from mmtm import dataset, expr
from mmtm.dataset import PAD, BOS, EOS, UNK
from mmtm.expr import TraversalVariant
from conftest import make_records, oversized_equation_row


class TestExtractNumbers:
    def test_positional_replacement(self):
        masked, q = dataset.extract_numbers("John has 5 apples and buys 3 more")
        assert masked == "John has number0 apples and buys number1 more"
        assert q == [Fraction(5), Fraction(3)]

    def test_decimals(self):
        masked, q = dataset.extract_numbers("2.5 kg costs 10 dollars")
        assert masked == "number0 kg costs number1 dollars"
        assert q == [Fraction(5, 2), Fraction(10)]

    def test_no_numbers(self):
        assert dataset.extract_numbers("no numbers here") == ("no numbers here", [])

    def test_comma_grouping(self):
        masked, q = dataset.extract_numbers("paid 1,000 dollars")
        assert masked == "paid number0 dollars"
        assert q == [Fraction(1000)]

    def test_masking_idempotent(self):
        masked, _ = dataset.extract_numbers("2 cats chased 3.5 mice, twice.")
        again, q = dataset.extract_numbers(masked)
        assert again == masked
        assert q == []


class TestTokenize:
    def test_punctuation_split(self):
        assert dataset.tokenize("How many apples?") == ["how", "many", "apples", "?"]

    def test_placeholder_preserved(self):
        assert dataset.tokenize("number0 more") == ["number0", "more"]

    def test_empty(self):
        assert dataset.tokenize("") == []

    def test_commas_and_periods(self):
        assert dataset.tokenize("yes, really.") == ["yes", ",", "really", "."]


class TestLoadCorpus:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(json.dumps(l) for l in lines), encoding="utf-8")
        return path

    def test_loads_valid_records(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "a", "question": "had 5 and got 3 more", "equation":
                "number0 + number1", "answer": 8},
            {"id": "b", "question": "9 minus 4", "equation": "number0 - number1",
                "answer": 5},
            {"id": "c", "question": "2 times 3", "equation": "number0 * number1",
                "answer": 6},
        ])
        load = dataset.load_corpus(path)
        assert [r.id for r in load.records] == ["a", "b", "c"]
        assert not load.quarantined

    def test_answer_mismatch_quarantined(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "bad", "question": "had 5 and got 3", "equation":
                "number0 + number1", "answer": 9},
        ])
        load = dataset.load_corpus(path)
        assert not load.records
        assert load.quarantined[0]["id"] == "bad"
        assert "evaluates to 8" in load.quarantined[0]["reason"]

    def test_empty_question_quarantined(self, tmp_path):
        empty = {"id": "e", "question": "", "equation": "1 + 2", "answer": 3}
        with pytest.raises(dataset.MalformedRecord):
            dataset.make_record(empty)
        path = self._write(tmp_path, [
            empty,
            {"id": "a", "question": "had 5 and got 3 more", "equation":
                "number0 + number1", "answer": 8},
        ])
        load = dataset.load_corpus(path)
        assert [r.id for r in load.records] == ["a"]
        assert load.quarantined[0]["id"] == "e"
        assert "no tokens" in load.quarantined[0]["reason"]

    def test_missing_field_quarantined(self, tmp_path):
        path = self._write(tmp_path, [{"id": "x", "question": "5 and 3"}])
        load = dataset.load_corpus(path)
        assert not load.records
        assert "missing field" in load.quarantined[0]["reason"]

    def test_raw_number_equation_aligned(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "r", "question": "had 7 apples and ate 2",
             "equation": "7 - 2", "answer": 5},
        ])
        load = dataset.load_corpus(path)
        assert load.records[0].equation == "number0 - number1"

    def test_duplicate_values_align_by_position(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "d", "question": "3 bags with 3 toys each",
             "equation": "3 * 3", "answer": 9},
        ])
        rec = dataset.load_corpus(path).records[0]
        assert rec.equation == "number0 * number1"

    def test_equation_constant_kept(self, tmp_path):
        path = self._write(tmp_path, [
            {"id": "k", "question": "6 socks make how many pairs ?",
             "equation": "number0 / 2", "answer": 3},
        ])
        rec = dataset.load_corpus(path).records[0]
        assert rec.equation == "number0 / 2"


class TestVocab:
    def test_reserved_ids(self):
        vocab = dataset.Vocab(["a"], ["+"])
        assert vocab.src_stoi["<pad>"] == PAD
        assert vocab.src_stoi["<bos>"] == BOS
        assert vocab.src_stoi["<eos>"] == EOS
        assert vocab.src_stoi["<unk>"] == UNK

    def test_bijective(self):
        records = make_records(20, seed=3)
        vocab = dataset.build_vocab(records)
        for i, tok in enumerate(vocab.src_itos):
            assert vocab.src_stoi[tok] == i
        for i, tok in enumerate(vocab.tgt_itos):
            assert vocab.tgt_stoi[tok] == i

    def test_target_vocab_exact_contents(self, tmp_path):
        # corpus using only + and -: reserved + 2 ops + max placeholders
        lines = [
            {"id": "1", "question": "had 5 and got 3", "equation":
                "number0 + number1", "answer": 8},
            {"id": "2", "question": "had 9 lost 4", "equation":
                "number0 - number1", "answer": 5},
        ]
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(json.dumps(l) for l in lines), encoding="utf-8")
        vocab = dataset.build_vocab(dataset.load_corpus(path).records)
        assert vocab.tgt_itos == list(dataset.RESERVED) + ["+", "-",
                                                           "number0", "number1"]

    def test_gold_labels_never_unk(self):
        records = make_records(25, seed=6)
        vocab = dataset.build_vocab(records)
        examples = dataset.augment_corpus(records, vocab)
        for variant_examples in examples.values():
            for e in variant_examples:
                assert UNK not in e.target_ids


class TestAugment:
    def test_single_record_targets(self, tmp_path):
        line = {"id": "s", "question": "had 5 lost 3", "equation":
                "number0 - number1", "answer": 2}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(line), encoding="utf-8")
        records = dataset.load_corpus(path).records
        rows = dataset.augment_tokens(records)
        assert rows[TraversalVariant.PRE_ORDER][0]["target"] == [
            "-", "number0", "number1"]
        assert rows[TraversalVariant.IN_ORDER][0]["target"] == [
            "number0", "-", "number1"]
        assert rows[TraversalVariant.POST_ORDER][0]["target"] == [
            "number0", "number1", "-"]

    def test_cardinality_triples(self):
        records = make_records(100, seed=8)
        rows = dataset.augment_tokens(records)
        assert all(len(rows[v]) == 100 for v in TraversalVariant)
        assert sum(len(rows[v]) for v in TraversalVariant) == 300

    def test_empty_corpus(self):
        rows = dataset.augment_tokens([])
        assert all(rows[v] == [] for v in TraversalVariant)

    def test_preorder_targets_reconstruct_to_gold_answer(self):
        records = make_records(40, seed=9)
        vocab = dataset.build_vocab(records)
        examples = dataset.augment_corpus(records, vocab)
        by_id = {r.id: r for r in records}
        for e in examples[TraversalVariant.PRE_ORDER]:
            rec = by_id[e.record_id]
            tokens = vocab.decode_tgt(e.target_ids)
            tree = expr.tree_from_preorder(tokens)
            assert expr.evaluate(tree, list(rec.quantities)) == rec.answer

    def test_deterministic_serialization(self, tmp_path):
        records = make_records(15, seed=10)
        a = dataset.write_task_files(dataset.augment_tokens(records),
                                     tmp_path / "a")
        b = dataset.write_task_files(dataset.augment_tokens(records),
                                     tmp_path / "b")
        for variant in TraversalVariant:
            assert a[variant].read_bytes() == b[variant].read_bytes()


class TestOversizedInput:
    @pytest.mark.parametrize("shape", ["nested", "chain"])
    def test_oversized_equation_is_malformed(self, shape):
        with pytest.raises(dataset.MalformedRecord,
                           match=r"bad equation: \d+ tokens, at most 255"):
            dataset.make_record(oversized_equation_row("big", shape))

    def test_corpus_loads_around_oversized_equations(self, tmp_path):
        path = tmp_path / "c.jsonl"
        synth.write_corpus(path, synth.generate_raw(18, seed=3)
                           + [oversized_equation_row("nested", "nested"),
                              oversized_equation_row("chain", "chain")])
        load = dataset.load_corpus(path)
        assert len(load.records) == 18
        assert [q["id"] for q in load.quarantined] == ["nested", "chain"]
        assert all("at most 255" in q["reason"] for q in load.quarantined)

    @pytest.mark.parametrize("field, where", [("question", "bad question"),
                                              ("equation", "bad equation")])
    def test_number_past_the_int_digit_limit_is_malformed(self, field, where):
        """Python converts at most 4300 digits to an int; one more digit in a
        record once raised ValueError out of load_corpus."""
        raw = {"id": "big", "question": "had 5 pens and 3 more",
               "equation": "number0 + number1", "answer": 8}
        raw[field] += " + " + "1" * 5000
        with pytest.raises(dataset.MalformedRecord,
                           match=f"{where}: a number of 5000 characters"):
            dataset.make_record(raw)

    def test_computed_value_past_the_int_digit_limit_is_quarantined(self, tmp_path):
        """( 9...9 ) * ( 9...9 ) of two 3000-digit constants is 6000 digits,
        more than Python writes. Building the AnswerMismatch message raised
        ValueError, and load_corpus lost every record."""
        nines = "9" * 3000
        raw = {"id": "huge", "question": "had 5 pens and 3 more",
               "equation": f"( {nines} ) * ( {nines} )", "answer": 1}
        with pytest.raises(dataset.AnswerMismatch,
                           match="evaluates to a number of more than 4300 digits, "
                                 "gold answer is 1$"):
            dataset.make_record(raw)
        path = tmp_path / "c.jsonl"
        synth.write_corpus(path, synth.generate_raw(3, seed=4) + [raw])
        load = dataset.load_corpus(path)
        assert len(load.records) == 3
        assert [q["id"] for q in load.quarantined] == ["huge"]

    @pytest.mark.parametrize("answer", ["1e1000000", "1E-4301", "2e+99_999"])
    def test_answer_exponent_past_the_bound_is_malformed(self, answer):
        """Fraction("1e1000000") builds 10**1000000 first: 0.35 s before the
        record was quarantined as an AnswerMismatch."""
        raw = {"id": "exp", "question": "A jug holds 1 liter and fills 400 cups .",
               "equation": "1 / 400", "answer": answer}
        with pytest.raises(dataset.MalformedRecord,
                           match="answer exponent .* past 4300"):
            dataset.make_record(raw)

    @pytest.mark.parametrize("answer", ["2.5e-3", "25E-4", "0.0025e0", 0.0025])
    def test_answer_with_a_small_exponent_loads(self, answer):
        raw = {"id": "exp", "question": "A jug holds 1 liter and fills 400 cups .",
               "equation": "1 / 400", "answer": answer}
        assert dataset.make_record(raw).answer == Fraction(1, 400)

    def test_non_object_deep_and_huge_int_lines_quarantined(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = synth.generate_raw(1, seed=4)[0]
        path.write_text("[1, 2]\n\"text\"\n7\n" + "[" * 100_000 + "]" * 100_000
                        + '\n{"id": "x", "answer": ' + "1" * 5000 + "}\n"
                        + json.dumps(good) + "\n", encoding="utf-8")
        load = dataset.load_corpus(path)
        assert [r.id for r in load.records] == [good["id"]]
        assert [(q["line"], q["id"]) for q in load.quarantined] == \
            [(1, None), (2, None), (3, None), (4, None), (5, None)]


def _record_line(**fields) -> str:
    raw = {"id": "junk", "question": "Dan had 5 pens and 3 more .",
           "equation": "number0 + number1", "answer": 8}
    return json.dumps({**raw, **fields})


_JUNK_LINES = st.one_of(
    # JSON that is not an object
    st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
              st.text(max_size=20), st.lists(st.integers(), max_size=5)
              ).map(json.dumps),
    # text that is not JSON
    st.text(st.characters(exclude_characters="\r\n"), min_size=1, max_size=40)
    .filter(lambda s: s.strip()),
    # JSON nested past the parser's recursion limit, bare or inside a record
    st.builds(lambda n, wrap: wrap.replace("X", "[" * n + "]" * n),
              st.integers(1_000, 20_000),
              st.sampled_from(["X", '{"id": "deep", "question": X}'])),
    # equations past expr.MAX_EQUATION_TOKENS: long chains and deep parentheses
    st.integers(129, 2_000).map(
        lambda k: _record_line(equation=" + ".join(["1"] * k), answer=k)),
    st.integers(128, 1_000).map(
        lambda k: _record_line(equation="(" * k + "5 + 3" + ")" * k)),
    # ints past Python's 4300-digit limit: a JSON answer, a question number, a
    # constant, and a computed value
    st.integers(4_301, 6_000).map(lambda k: '{"id": "i", "answer": ' + "1" * k + "}"),
    st.integers(4_301, 6_000).map(
        lambda k: _record_line(question=f"Dan had {'7' * k} pens and 3 more .")),
    st.integers(4_301, 6_000).map(
        lambda k: _record_line(equation=f"number0 + {'7' * k}")),
    st.integers(2_200, 4_000).map(
        lambda k: _record_line(equation=f"( {'9' * k} ) * ( {'9' * k} )", answer=1)),
)


class TestJunkLines:
    GOOD = synth.generate_raw(3, seed=5)

    @settings(max_examples=150)
    @given(junk=st.lists(_JUNK_LINES, min_size=1, max_size=4), data=st.data())
    def test_every_junk_line_is_quarantined(self, tmp_path_factory, junk, data):
        """Whatever the bad lines are, load_corpus keeps every good record and
        quarantines each bad line by its line number, without raising."""
        good = [json.dumps(row) for row in self.GOOD]
        lines = data.draw(st.permutations(good + junk))
        path = tmp_path_factory.mktemp("junk") / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        load = dataset.load_corpus(path)
        assert [r.id for r in load.records] == \
            [json.loads(line)["id"] for line in lines if line in good]
        assert [q["line"] for q in load.quarantined] == \
            [no for no, line in enumerate(lines, 1) if line not in good]
