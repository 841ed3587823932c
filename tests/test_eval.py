from fractions import Fraction

import pytest

import synth
from mmtm import dataset, evaluate, expr, model
from mmtm.evaluate import Verdict
from conftest import long_question_row


class TestAnswersMatch:
    def test_exact(self):
        assert evaluate.answers_match(Fraction(5), Fraction(5))

    def test_relative_tolerance(self):
        gold = Fraction(100000)
        assert evaluate.answers_match(gold + Fraction(1), gold)
        assert not evaluate.answers_match(gold + Fraction(11), gold)

    def test_absolute_floor_near_zero(self):
        assert evaluate.answers_match(Fraction(1, 100000), Fraction(0))
        assert not evaluate.answers_match(Fraction(1, 100), Fraction(0))


class TestPredictAnswer:
    def test_memorized_record_returns_gold(self, memorized, corpus12):
        verdict = evaluate.score(memorized, [corpus12[0]]).verdicts[0]
        assert verdict.correct
        assert Fraction(verdict.predicted_answer) == corpus12[0].answer

    def test_malformed_decode_counts_incorrect(self):
        tokens = ["+", "number0"]
        with pytest.raises(expr.ExprError):
            expr.tree_from_preorder(tokens)

    def test_eval_error_counts_incorrect(self, memorized, corpus12):
        # force a division by zero through a record whose quantities break it
        rec = corpus12[0]
        broken = dataset.MwpRecord(
            id=rec.id, question=rec.question, masked_question=rec.masked_question,
            equation=rec.equation, answer=rec.answer,
            quantities=tuple(), op_count=rec.op_count, op_types=rec.op_types,
            tree=rec.tree)
        verdict = evaluate.score(memorized, [broken]).verdicts[0]
        assert not verdict.correct
        assert verdict.failure_reason in ("eval_error", "decode_malformed")


    def test_prediction_past_the_int_digit_limit_gets_a_verdict(self):
        """number0 * number0 of a 3000-digit quantity is 6000 digits, more than
        Python writes: the verdict has no answer text, where judging raised
        ValueError before."""
        big = int("9" * 3000)
        record = dataset.make_record({"id": "huge", "question": f"had {big} pens",
                                      "equation": "number0 * 3", "answer": 3 * big})
        vocab = dataset.build_vocab([record])
        ids = [vocab.tgt_stoi[t] for t in ("*", "number0", "number0")]
        verdict = evaluate._judge(vocab, record, ids)
        assert verdict == Verdict("huge", ["*", "number0", "number0"], True, None,
                                  False, "wrong_answer")


class TestScore:
    def test_all_correct_toy_set(self, memorized, corpus12):
        report = evaluate.score(memorized, corpus12)
        assert report.accuracy == 1.0
        for row in evaluate.COHORT_ROWS:
            c = report.cohorts[row]
            assert c["accuracy"] in (1.0, "n/a")

    def test_cohort_partition(self, memorized, corpus12):
        report = evaluate.score(memorized, corpus12)
        one = report.cohorts["One-Op"]["count"]
        two = report.cohorts["Two-Op"]["count"]
        assert one + two == report.total  # synthetic corpus has no 3-op records

    def test_overlength_record_gets_verdict(self, memorized, corpus12):
        long_record = dataset.make_record(long_question_row("long-q", 225))
        report = evaluate.score(memorized, corpus12[:3] + [long_record])
        assert report.total == 4 and report.correct == 3
        assert report.cohorts["Full Set"]["count"] == 4
        verdict = report.verdicts[-1]
        assert verdict.record_id == "long-q" and not verdict.correct
        assert verdict.failure_reason == "input_too_long"
        assert verdict.predicted_tokens == [] and verdict.predicted_answer is None

    def test_empty_question_line_quarantined_not_scored(self, memorized, tmp_path):
        path = tmp_path / "test.jsonl"
        rows = synth.generate_raw(4, seed=21)
        synth.write_corpus(path, rows + [{"id": "empty", "question": "",
                                          "equation": "1 + 2", "answer": 3}])
        load = dataset.load_corpus(path)
        assert [q["id"] for q in load.quarantined] == ["empty"]
        report = evaluate.score(memorized, load.records)
        assert [v.record_id for v in report.verdicts] == [r["id"] for r in rows]

    def test_quarantined_lines_count_as_malformed_records(self, memorized, corpus12):
        quarantined = [{"line": 4, "id": "bad-eq", "reason": "bad equation"},
                       {"line": 7, "id": None, "reason": "bad json"}]
        alone = evaluate.score(memorized, corpus12[:3])
        report = evaluate.score(memorized, corpus12[:3], quarantined=quarantined)
        assert report.verdicts[:3] == alone.verdicts
        assert [v.record_id for v in report.verdicts[3:]] == ["bad-eq", "line 7"]
        assert all(not v.correct and v.failure_reason == "malformed_record"
                   for v in report.verdicts[3:])
        assert (report.total, report.correct) == (5, alone.correct)
        full = report.cohorts["Full Set"]
        assert (full["count"], full["correct"], full["accuracy"]) == (
            5, alone.correct, alone.correct / 5)
        for row in evaluate.COHORT_ROWS[1:]:
            assert report.cohorts[row] == alone.cohorts[row]

    def test_op_cohorts_by_inclusion(self, memorized, corpus12):
        report = evaluate.score(memorized, corpus12)
        op_total = sum(report.cohorts[k]["count"]
                       for k in ("ADD", "SUB", "MUL", "DIV"))
        ops_in_records = sum(len(r.op_types) for r in corpus12)
        assert op_total == ops_in_records

    def test_single_wrong_one_op_record(self, memorized, corpus12):
        rec = next(r for r in corpus12 if r.op_count == 1)
        wrong = dataset.MwpRecord(
            id=rec.id, question=rec.question, masked_question=rec.masked_question,
            equation=rec.equation, answer=rec.answer + 1,
            quantities=rec.quantities, op_count=rec.op_count,
            op_types=rec.op_types, tree=rec.tree)
        report = evaluate.score(memorized, [wrong])
        assert report.accuracy == 0.0
        assert report.cohorts["Full Set"]["accuracy"] == 0.0
        assert report.cohorts["One-Op"]["accuracy"] == 0.0
        name = {"+": "ADD", "-": "SUB", "*": "MUL", "/": "DIV"}[
            next(iter(rec.op_types))]
        assert report.cohorts[name]["accuracy"] == 0.0
        absent = next(n for n in ("ADD", "SUB", "MUL", "DIV") if n != name)
        assert report.cohorts[absent]["accuracy"] == "n/a"

    def test_order_invariant(self, memorized, corpus12):
        a = evaluate.score(memorized, corpus12)
        b = evaluate.score(memorized, list(reversed(corpus12)))
        assert a.accuracy == b.accuracy
        assert a.cohorts == b.cohorts

    def test_render_table_rows(self, memorized, corpus12):
        table = evaluate.score(memorized, corpus12).render_table()
        for row in evaluate.COHORT_ROWS:
            assert row in table


class TestExportAttention:
    def test_weights_sum_to_step_count(self, memorized, corpus12, tmp_path):
        report = evaluate.export_attention(memorized, corpus12[0],
                                           path=tmp_path / "att.json")
        assert (tmp_path / "att.json").exists()
        assert sum(report["weights"]) == pytest.approx(report["decode_steps"],
                                                       abs=1e-6)

    def test_token_order_matches_source(self, memorized, corpus12):
        report = evaluate.export_attention(memorized, corpus12[0])
        assert report["tokens"] == dataset.tokenize(
            corpus12[0].masked_question)
        assert len(report["weights"]) == len(report["tokens"])

    def test_overlength_record_raises(self, memorized):
        long_record = dataset.make_record(long_question_row("long-q", 225))
        with pytest.raises(model.SequenceTooLong, match="long-q"):
            evaluate.export_attention(memorized, long_record)

    def test_predicted_label_is_token_list(self, memorized, corpus12):
        report = evaluate.export_attention(memorized, corpus12[0])
        assert isinstance(report["predicted_label"], list)
        assert all(isinstance(t, str) for t in report["predicted_label"])
