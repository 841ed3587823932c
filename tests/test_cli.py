import dataclasses
import json
import math
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth
from mmtm import checkpoint, cli, dataset, evaluate, model, train
from mmtm.pca_init import PretrainedEmbeddings
from conftest import long_question_row, oversized_equation_row, write_embeddings_tsv


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.jsonl"
    synth.write_corpus(path, synth.generate_raw(12, seed=31))
    return path


@pytest.fixture(scope="module")
def test_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "test.jsonl"
    synth.write_corpus(path, synth.generate_raw(6, seed=32))
    return path


def fast_train_flags(out_dir, seed=5):
    return ["--out", str(out_dir), "--dim", "16", "--seed", str(seed),
            "--batch-size", "8", "--pretrain-epochs", "1",
            "--finetune-epochs", "2", "--finetune-lr", "1e-3"]


def write_embeddings(path, corpus_path, width, shared=True):
    """An embedding table over the corpus's question words, or (not `shared`)
    over none of them."""
    words = set()
    for line in corpus_path.read_text().splitlines():
        words.update(json.loads(line)["question"].split())
    rng = np.random.default_rng(0)
    write_embeddings_tsv(path, PretrainedEmbeddings(
        {w if shared else f"zz{w}": rng.normal(size=width) for w in sorted(words)},
        width))
    return path


class TestAugment:
    def test_happy_path(self, corpus_path, tmp_path, capsys):
        rc = cli.main(["augment", "--corpus", str(corpus_path),
                       "--out", str(tmp_path)])
        assert rc == 0
        for task in ("pre", "in", "post"):
            lines = (tmp_path / f"task_{task}.jsonl").read_text().splitlines()
            assert len(lines) == 12
        assert (tmp_path / "manifest.json").exists()

    def test_corrupt_line_quarantined_exit_zero(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(
            json.dumps({"id": "ok", "question": "had 5 got 3",
                        "equation": "number0 + number1", "answer": 8})
            + "\nnot json at all\n", encoding="utf-8")
        rc = cli.main(["augment", "--corpus", str(corpus),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        q = (tmp_path / "out" / "quarantine.jsonl").read_text().splitlines()
        assert len(q) == 1
        assert "warning" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        rc = cli.main(["augment", "--corpus", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path)])
        assert rc == 2


class TestTrain:
    def test_default_run_emits_two_checkpoints(self, corpus_path, tmp_path):
        rc = cli.main(["train", "--corpus", str(corpus_path)]
                      + fast_train_flags(tmp_path))
        assert rc == 0
        assert (tmp_path / "checkpoint_pretrain.mmtm").exists()
        assert (tmp_path / "checkpoint_final.mmtm").exists()
        assert (tmp_path / "trainlog_pretrain.jsonl").exists()
        assert (tmp_path / "trainlog_finetune.jsonl").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert "sha256" in manifest["inputs"]["corpus"]

    def test_no_pretrain_arm(self, corpus_path, tmp_path):
        rc = cli.main(["train", "--corpus", str(corpus_path), "--no-pretrain"]
                      + fast_train_flags(tmp_path))
        assert rc == 0
        assert not (tmp_path / "checkpoint_pretrain.mmtm").exists()
        assert (tmp_path / "checkpoint_final.mmtm").exists()

    def test_zero_pretrain_epochs_is_the_no_pretrain_arm(self, corpus_path, tmp_path):
        """--pretrain-epochs 0 once kept the two untrained decoders in the final
        checkpoint and wrote a pre-training checkpoint of the initial weights."""
        for sub, extra in (("zero", ["--pretrain-epochs", "0"]),
                           ("none", ["--no-pretrain"])):
            argv = ["train", "--corpus", str(corpus_path)]
            assert cli.main(argv + fast_train_flags(tmp_path / sub) + extra) == 0
        zero, none = tmp_path / "zero", tmp_path / "none"
        for name in ("checkpoint_final.mmtm", "trainlog_finetune.jsonl"):
            assert (zero / name).read_bytes() == (none / name).read_bytes()
        assert sorted(p.name for p in zero.iterdir()) == [
            "checkpoint_final.mmtm", "manifest.json", "trainlog_finetune.jsonl"]
        for out in (zero, none):
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["plan"]["pretrain_epochs"] == 0
            assert manifest["artifacts"] == ["checkpoint_final.mmtm",
                                             "trainlog_finetune.jsonl"]

    def test_idempotent_given_same_seed(self, corpus_path, tmp_path):
        for sub in ("a", "b"):
            rc = cli.main(["train", "--corpus", str(corpus_path)]
                          + fast_train_flags(tmp_path / sub))
            assert rc == 0
        assert ((tmp_path / "a" / "checkpoint_final.mmtm").read_bytes()
                == (tmp_path / "b" / "checkpoint_final.mmtm").read_bytes())
        assert ((tmp_path / "a" / "trainlog_finetune.jsonl").read_bytes()
                == (tmp_path / "b" / "trainlog_finetune.jsonl").read_bytes())

    def test_env_seed_fallback(self, corpus_path, tmp_path, monkeypatch):
        monkeypatch.setenv("MMTM_SEED", "99")
        rc = cli.main(["train", "--corpus", str(corpus_path), "--out",
                       str(tmp_path), "--dim", "16", "--batch-size", "8",
                       "--pretrain-epochs", "1", "--finetune-epochs", "1"])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_non_integer_env_seed_exit_2(self, corpus_path, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("MMTM_SEED", "abc")
        rc = cli.main(["train", "--corpus", str(corpus_path), "--out",
                       str(tmp_path)])
        assert rc == 2
        assert "MMTM_SEED" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_config_file_flags_win(self, corpus_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_model": 8, "finetune_epochs": 1}))
        rc = cli.main(["train", "--corpus", str(corpus_path), "--config",
                       str(cfg), "--dim", "16", "--out", str(tmp_path / "o"),
                       "--batch-size", "8", "--pretrain-epochs", "1"])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["d_model"] == 16  # flag beat the config file
        assert manifest["plan"]["finetune_epochs"] == 1  # file value kept

    def test_shape_defaults_are_model_config_defaults(self, corpus_path, tmp_path):
        rc = cli.main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path),
                       "--no-pretrain", "--finetune-epochs", "1"])
        assert rc == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        defaults = {f.name: f.default for f in dataclasses.fields(model.ModelConfig)}
        keys = ("d_model", "n_enc_layers", "n_dec_layers", "n_heads", "dropout",
                "dtype", "max_src_len", "max_tgt_len")
        assert {k: config[k] for k in keys} == {k: defaults[k] for k in keys}

    def test_overlength_record_quarantined(self, tmp_path, capsys):
        corpus = tmp_path / "train.jsonl"
        synth.write_corpus(corpus, synth.generate_raw(40, seed=33)
                           + [long_question_row("long-q", 254)])
        rc = cli.main(["train", "--corpus", str(corpus), "--no-pretrain"]
                      + fast_train_flags(tmp_path / "o"))
        assert rc == 0
        captured = capsys.readouterr()
        assert "0 record(s) quarantined at load, 1 over the model length limits" \
            in captured.err
        assert "trained on 40 records" in captured.out

    def test_dim_not_divisible_by_heads_exit_2(self, corpus_path, tmp_path, capsys):
        rc = cli.main(["train", "--corpus", str(corpus_path), "--out", str(tmp_path),
                       "--dim", "30"])
        assert rc == 2
        assert "not divisible by n_heads=4" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [
        ("--dim", "d_model"), ("--layers", "n_enc_layers"), ("--heads", "n_heads")])
    def test_zero_shape_flag_exit_2(self, corpus_path, tmp_path, capsys, flag, field):
        """A zero flag was once dropped as falsy, so the run trained the default."""
        rc = cli.main(["train", "--corpus", str(corpus_path)]
                      + fast_train_flags(tmp_path) + [flag, "0"])
        assert rc == 2
        assert f"{field} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint_final.mmtm").exists()

    def test_zero_heads_in_config_file_exit_2(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_heads": 0}))
        rc = cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "n_heads must be >= 1" in capsys.readouterr().err

    def test_deeply_nested_config_file_exit_2(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        rc = cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nests too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", ["nested", "chain"])
    def test_oversized_equation_quarantined(self, tmp_path, capsys, shape):
        """One oversized equation in a 20-record corpus: augment, train and
        eval exit 0 and report it, where load once raised RecursionError."""
        corpus = tmp_path / "c.jsonl"
        synth.write_corpus(corpus, synth.generate_raw(19, seed=34)
                           + [oversized_equation_row("big", shape)])
        assert cli.main(["augment", "--corpus", str(corpus),
                         "--out", str(tmp_path / "aug")]) == 0
        quarantine = (tmp_path / "aug" / "quarantine.jsonl").read_text().splitlines()
        assert [json.loads(line)["id"] for line in quarantine] == ["big"]
        assert "1 record(s) quarantined" in capsys.readouterr().err
        assert cli.main(["train", "--corpus", str(corpus), "--no-pretrain"]
                        + fast_train_flags(tmp_path / "o")) == 0
        captured = capsys.readouterr()
        assert "1 record(s) quarantined at load" in captured.err
        assert "trained on 19 records" in captured.out
        assert cli.main(["eval", "--checkpoint",
                         str(tmp_path / "o" / "checkpoint_final.mmtm"),
                         "--test", str(corpus)]) == 0
        assert "1 test record(s) quarantined at load" in capsys.readouterr().err

    def test_arena_past_the_address_space_exit_2(self, corpus_path, tmp_path, capsys):
        """A 437 TiB parameter arena once ended in numpy's _ArrayMemoryError,
        then was refused only after manifest.json was written."""
        rc = cli.main(["train", "--corpus", str(corpus_path), "--dim", "1000000",
                       "--heads", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "GiB) cannot be allocated" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_step_is_one_numeric_error(self, corpus_path, tmp_path,
                                                   capsys):
        """{"pretrain_lr": 1e300} once printed six numpy RuntimeWarnings before
        "pretrain step 1: loss=nan"; here any warning would raise."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pretrain_lr": 1e300}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg),
                           "--dim", "8", "--heads", "2", "--out", str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: pretrain step 1: overflow encountered in ")
        assert err.count("\n") == 1

    def test_zero_batch_size_exit_2(self, corpus_path, tmp_path, capsys):
        rc = cli.main(["train", "--corpus", str(corpus_path)]
                      + fast_train_flags(tmp_path) + ["--batch-size", "0"])
        assert rc == 2
        assert "batch_size must be >= 1" in capsys.readouterr().err

    def test_corpus_directory_exit_2(self, tmp_path, capsys):
        rc = cli.main(["train", "--corpus", str(tmp_path)]
                      + fast_train_flags(tmp_path / "o"))
        assert rc == 2
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        ({"d_model": "64"}, "'d_model' must be int, got '64'"),
        ({"batch_size": True}, "'batch_size' must be int, got True"),
        ({"finetune_lr": "1e-3"}, "'finetune_lr' must be float, got '1e-3'"),
        (["d_model"], "must hold a JSON object"),
    ])
    def test_config_value_of_wrong_type_exit_2(self, corpus_path, tmp_path, capsys,
                                               content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        rc = cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        ({"dropout": 1.5}, "dropout must be in [0, 1), got 1.5"),
        ({"dropout": -1}, "dropout must be in [0, 1), got -1"),
        ({"dropout": 1.0}, "dropout must be in [0, 1), got 1.0"),
        ({"pretrain_epochs": -3}, "pretrain_epochs and finetune_epochs must be >= 0"),
        ({"pretrain_epochs": 0, "finetune_epochs": 0}, "are both 0"),
        ({"pretrain_lr": math.nan}, "pretrain_lr must be finite and positive, got nan"),
        ({"finetune_lr": math.inf}, "finetune_lr must be finite and positive, got inf"),
        ({"clip_norm": -1}, "unknown key(s) 'clip_norm'"),
        ({"beta1": 1.5}, "unknown key(s) 'beta1'"),
        ({"d_modle": 8, "seed": 3}, "unknown key(s) 'd_modle', 'seed'"),
    ])
    def test_config_value_out_of_range_exit_2(self, corpus_path, tmp_path, capsys,
                                              content, message):
        """Each once trained anyway (exit 0), or failed as a numeric fault
        (exit 4: dropout 1.0, a NaN or infinite lr). A key outside the option
        table was dropped, so {"d_modle": 8} trained at the default width."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))  # writes NaN and Infinity, as json reads
        rc = cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg),
                       "--dim", "8", "--heads", "2", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_int_past_digit_limit_exit_2(self, corpus_path, tmp_path, capsys):
        """json.loads raised a ValueError that ended in a traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"batch_size": 1' + "0" * 5000 + "}", encoding="utf-8")
        rc = cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config file {cfg}: Exceeds the limit (4300 digits)" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_finetune_epochs_says_so(self, corpus_path, tmp_path, capsys):
        """{"finetune_epochs": 0} once trained no fine-tuning step without a word."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"finetune_epochs": 0}))
        args = ["train", "--corpus", str(corpus_path), "--config", str(cfg), "--dim",
                "8", "--heads", "2", "--batch-size", "8", "--out", str(tmp_path / "o")]
        assert cli.main(args) == 0
        assert "warning: finetune_epochs is 0" in capsys.readouterr().err
        final = checkpoint.load(tmp_path / "o" / "checkpoint_final.mmtm")
        pretrained = checkpoint.load(tmp_path / "o" / "checkpoint_pretrain.mmtm")
        assert final.params.flat.tobytes() == pretrained.params.flat.tobytes()
        assert cli.main(args[:-1] + [str(tmp_path / "np"), "--no-pretrain"]) == 2
        assert "nothing would train" in capsys.readouterr().err
        assert not (tmp_path / "np").exists()

    def test_embeddings_header_not_a_width_exit_2(self, corpus_path, tmp_path,
                                                  capsys):
        emb = tmp_path / "emb.tsv"
        emb.write_text("D=x\nhad\t1.0\n", encoding="utf-8")
        rc = cli.main(["train", "--corpus", str(corpus_path), "--embeddings",
                       str(emb)] + fast_train_flags(tmp_path / "o"))
        assert rc == 2
        assert "first line must be D=<positive width>" in capsys.readouterr().err

    def test_embeddings_non_numeric_vocab_row_exit_2(self, corpus_path, tmp_path,
                                                     capsys):
        words = dataset.build_vocab(
            dataset.load_corpus(corpus_path).records).src_itos
        emb = tmp_path / "emb.tsv"
        rng = np.random.default_rng(1)
        rows = [[w] + [repr(float(v)) for v in rng.normal(size=16)] for w in words]
        rows[-1][5] = "abc"
        emb.write_text("D=16\n" + "".join("\t".join(r) + "\n" for r in rows),
                       encoding="utf-8")
        rc = cli.main(["train", "--corpus", str(corpus_path), "--embeddings",
                       str(emb)] + fast_train_flags(tmp_path / "o"))
        assert rc == 2
        assert f"row for {words[-1]!r} has a non-numeric value" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--corpus", "--embeddings"])
    def test_input_not_utf8_exit_2(self, corpus_path, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"D=2\n\xff\xfe\t1\t2\n")
        inputs = {"--corpus": str(corpus_path), flag: str(bad)}
        argv = ["train"] + [arg for item in inputs.items() for arg in item]
        rc = cli.main(argv + fast_train_flags(tmp_path / "o"))
        assert rc == 2
        assert "can't decode byte 0xff" in capsys.readouterr().err

    def test_only_overlength_record_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "train.jsonl"
        synth.write_corpus(corpus, [long_question_row("long-q", 200)])
        rc = cli.main(["train", "--corpus", str(corpus)]
                      + fast_train_flags(tmp_path / "o"))
        assert rc == 2
        assert "no examples for task 'pre'" in capsys.readouterr().err

    def test_no_record_within_length_limits_refused_before_writing(
            self, corpus_path, tmp_path, capsys):
        """{"max_src_len": 1} once wrote manifest.json, then exited 2 with "no
        examples for task 'pre'"."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_src_len": 1}))
        rc = cli.main(["train", "--corpus", str(corpus_path), "--config", str(cfg)]
                      + fast_train_flags(tmp_path / "o"))
        assert rc == 2
        assert ("no examples for task 'pre': all 12 record(s) are over the model "
                "length limits") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("width,shared,message", [
        (8, True, "d=16 exceeds pretrained width 8"),
        (24, False, "only 0 vocabulary tokens found in the pretrained table"),
    ], ids=["narrower-than-dim", "no-shared-token"])
    def test_embeddings_that_cannot_init_refused_before_writing(
            self, corpus_path, tmp_path, capsys, width, shared, message):
        """Each once wrote manifest.json, then exited 2."""
        emb = write_embeddings(tmp_path / "emb.tsv", corpus_path, width, shared)
        rc = cli.main(["train", "--corpus", str(corpus_path), "--embeddings",
                       str(emb)] + fast_train_flags(tmp_path / "o"))
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def trained_dir(corpus_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert cli.main(["train", "--corpus", str(corpus_path)]
                    + fast_train_flags(out)) == 0
    return out


class TestEval:
    def test_table_and_report(self, trained_dir, test_path, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = cli.main(["eval", "--checkpoint",
                       str(trained_dir / "checkpoint_final.mmtm"),
                       "--test", str(test_path), "--report", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        for row in ("Full Set", "One-Op", "Two-Op", "ADD", "SUB", "MUL", "DIV"):
            assert row in out
        report = json.loads(report_path.read_text())
        assert report["total"] == 6

    def test_attention_out_one_json_per_record(self, trained_dir, test_path,
                                               tmp_path):
        att = tmp_path / "att"
        rc = cli.main(["eval", "--checkpoint",
                       str(trained_dir / "checkpoint_final.mmtm"),
                       "--test", str(test_path), "--attention-out", str(att)])
        assert rc == 0
        assert len(list(att.glob("*.json"))) == 6

    @pytest.mark.parametrize("ids", [
        ["../escaped"], ["ABSOLUTE"], [""], ["."], [".."], ["a/b"], ["nul\0id"],
        ["dup", "dup"]], ids=["parent", "absolute", "empty", "dot", "dotdot",
                              "slash", "nul", "shared"])
    def test_attention_out_refuses_ids_that_are_not_one_file_each(
            self, trained_dir, test_path, tmp_path, capsys, ids):
        """Record ids once chose where attention files went: `../escaped` was
        written next to the directory, an absolute id at its own path, and
        two records with one id to one file."""
        ids = [str(tmp_path / "absolute") if i == "ABSOLUTE" else i for i in ids]
        rows = [json.loads(line) for line in test_path.read_text().splitlines()]
        for row, rid in zip(rows, ids):
            row["id"] = rid
        test = tmp_path / "test.jsonl"
        test.write_text("".join(json.dumps(row) + "\n" for row in rows))
        report_path, att = tmp_path / "report.json", tmp_path / "att"
        checkpoint_path = str(trained_dir / "checkpoint_final.mmtm")
        rc = cli.main(["eval", "--checkpoint", checkpoint_path, "--test", str(test),
                       "--report", str(report_path), "--attention-out", str(att)])
        assert rc == 2
        assert f"--attention-out: record id {ids[0]!r} is not" in \
            capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["test.jsonl"]
        assert cli.main(["eval", "--checkpoint", checkpoint_path, "--test",
                         str(test), "--report", str(report_path)]) == 0

    @pytest.mark.parametrize("rid", ["x" * 300, "é" * 126],
                             ids=["300-chars", "257-bytes"])
    def test_attention_out_refuses_an_id_too_long_for_a_file_name(
            self, trained_dir, test_path, tmp_path, capsys, rid):
        """`<id>.json` may be at most 255 bytes of UTF-8. A 300-character id
        once got report.json and the attention directory written before its
        own file failed with "File name too long"; 250 characters still fit."""
        rows = [json.loads(line) for line in test_path.read_text().splitlines()]
        test = tmp_path / "test.jsonl"
        report_path, att = tmp_path / "report.json", tmp_path / "att"
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint_final.mmtm"),
                "--test", str(test), "--report", str(report_path),
                "--attention-out", str(att)]
        for first_id, rc in ((rid, 2), ("x" * 250, 0)):
            rows[0]["id"] = first_id
            test.write_text("".join(json.dumps(row) + "\n" for row in rows))
            assert cli.main(argv) == rc
            if rc:
                assert f"record id {rid!r} is too long" in capsys.readouterr().err
                assert sorted(p.name for p in tmp_path.iterdir()) == ["test.jsonl"]
        assert (att / ("x" * 250 + ".json")).exists()

    def test_report_into_a_missing_directory(self, trained_dir, test_path, tmp_path):
        report_path = tmp_path / "C2" / "report.json"
        rc = cli.main(["eval", "--checkpoint",
                       str(trained_dir / "checkpoint_final.mmtm"),
                       "--test", str(test_path), "--report", str(report_path)])
        assert rc == 0
        assert json.loads(report_path.read_text())["total"] == 6

    def test_report_through_a_file_exit_2_before_decoding(
            self, trained_dir, test_path, tmp_path, capsys, monkeypatch):
        """The report's directory is made before decoding: a report path
        through a regular file once failed only after the whole decode."""
        (tmp_path / "C2").write_text("")
        decode, calls = model.greedy_decode, []

        def spy(*args, **kwargs):
            calls.append(args)
            return decode(*args, **kwargs)

        monkeypatch.setattr(model, "greedy_decode", spy)
        rc = cli.main(["eval", "--checkpoint",
                       str(trained_dir / "checkpoint_final.mmtm"), "--test",
                       str(test_path), "--report", str(tmp_path / "C2" / "report.json")])
        assert rc == 2
        assert "C2" in capsys.readouterr().err
        assert calls == []

    def test_overlength_question_reported_wrong(self, trained_dir, test_path,
                                                tmp_path):
        test = tmp_path / "test.jsonl"
        test.write_text(test_path.read_text()
                        + json.dumps(long_question_row("long-q", 225)) + "\n")
        report_path, att = tmp_path / "report.json", tmp_path / "att"
        rc = cli.main(["eval", "--checkpoint",
                       str(trained_dir / "checkpoint_final.mmtm"),
                       "--test", str(test), "--report", str(report_path),
                       "--attention-out", str(att)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["total"] == 7
        verdict = report["verdicts"][-1]
        assert verdict["record_id"] == "long-q" and verdict["correct"] is False
        assert verdict["failure_reason"] == "input_too_long"
        assert sorted(p.stem for p in att.glob("*.json")) == \
            sorted(v["record_id"] for v in report["verdicts"][:-1])

    def test_quarantined_record_counted(self, trained_dir, tmp_path, capsys):
        """The oversized-equation corpus: the quarantined record once left
        `total` at 19."""
        test = tmp_path / "test.jsonl"
        synth.write_corpus(test, synth.generate_raw(19, seed=34)
                           + [oversized_equation_row("big", "nested")])
        report_path = tmp_path / "report.json"
        rc = cli.main(["eval", "--checkpoint",
                       str(trained_dir / "checkpoint_final.mmtm"),
                       "--test", str(test), "--report", str(report_path)])
        assert rc == 0
        assert "1 test record(s) quarantined at load" in capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert report["total"] == 20 == report["cohorts"]["Full Set"]["count"]
        assert report["accuracy"] == report["correct"] / 20
        verdict = report["verdicts"][-1]
        assert verdict["record_id"] == "big" and verdict["correct"] is False
        assert verdict["failure_reason"] == "malformed_record"

    def test_checkpoint_directory_exit_2(self, test_path, tmp_path, capsys):
        rc = cli.main(["eval", "--checkpoint", str(tmp_path), "--test",
                       str(test_path)])
        assert rc == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_test_directory_exit_2(self, trained_dir, tmp_path, capsys):
        rc = cli.main(["eval", "--checkpoint",
                       str(trained_dir / "checkpoint_final.mmtm"),
                       "--test", str(tmp_path)])
        assert rc == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_corrupt_checkpoint_exit_3(self, test_path, tmp_path):
        bad = tmp_path / "bad.mmtm"
        bad.write_bytes(b"MMTMgarbage")
        rc = cli.main(["eval", "--checkpoint", str(bad), "--test",
                       str(test_path)])
        assert rc == 3

    def test_truncated_checkpoint_exit_3(self, trained_dir, test_path, tmp_path,
                                         capsys):
        bad = tmp_path / "truncated.mmtm"
        blob = (trained_dir / "checkpoint_final.mmtm").read_bytes()
        bad.write_bytes(blob[:-100])
        rc = cli.main(["eval", "--checkpoint", str(bad), "--test",
                       str(test_path)])
        assert rc == 3
        assert "payload is" in capsys.readouterr().err


@pytest.fixture(scope="module")
def single_pass_eval(trained_dir, tmp_path_factory):
    """`mmtm eval --report --attention-out` on 40 records and one question
    over max_src_len, with its `model.encode_batch` calls counted."""
    out = tmp_path_factory.mktemp("single_pass")
    test = out / "test.jsonl"
    synth.write_corpus(test, synth.generate_raw(40, seed=33)
                       + [long_question_row("long-q", 225)])
    encode, calls = model.encode_batch, []

    def counted(*args, **kwargs):
        calls.append(args)
        return encode(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "encode_batch", counted)
        rc = cli.main(["eval", "--checkpoint",
                       str(trained_dir / "checkpoint_final.mmtm"),
                       "--test", str(test), "--report", str(out / "report.json"),
                       "--attention-out", str(out / "att")])
    assert rc == 0
    trained = checkpoint.load(trained_dir / "checkpoint_final.mmtm")
    return trained, dataset.load_corpus(test).records, out, len(calls)


class TestEvalSinglePass:
    """`mmtm eval` decodes once: the report and every attention file come
    from one scoring pass."""

    def test_report_is_byte_identical_to_score(self, single_pass_eval):
        trained, records, out, _ = single_pass_eval
        assert (out / "report.json").read_text(encoding="utf-8") == \
            evaluate.score(trained, records).to_json()

    def test_attention_files_match_export_attention(self, single_pass_eval):
        trained, records, out, _ = single_pass_eval
        for record in records[:-1]:
            written = json.loads((out / "att" / f"{record.id}.json").read_text())
            alone = evaluate.export_attention(trained, record)
            for key in ("record_id", "predicted_label", "decode_steps", "tokens"):
                assert written[key] == alone[key]
            np.testing.assert_allclose(written["weights"], alone["weights"],
                                       rtol=0, atol=1e-12)

    def test_overlength_record_no_file_and_one_encode_per_chunk(self, single_pass_eval):
        trained, records, out, encode_calls = single_pass_eval
        assert records[-1].id == "long-q" and len(records) == 41
        assert sorted(p.stem for p in (out / "att").glob("*.json")) == \
            sorted(r.id for r in records[:-1])
        assert encode_calls == math.ceil(40 / model.DECODE_CHUNK) == 2


class TestSweep:
    @pytest.mark.parametrize("flag", ["--dims", "--layers"])
    @pytest.mark.parametrize("value", ["16,x", "", "1,,2", "0", "8,-1"])
    def test_bad_list_exit_2(self, corpus_path, test_path, tmp_path, capsys, flag,
                             value):
        args = ["sweep", "--corpus", str(corpus_path), "--test", str(test_path),
                "--out", str(tmp_path / "sweep"), flag, value]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_zero_heads_exit_2(self, corpus_path, test_path, tmp_path, capsys):
        rc = cli.main(["sweep", "--corpus", str(corpus_path), "--test", str(test_path),
                       "--out", str(tmp_path / "sweep"), "--dims", "8",
                       "--heads", "0", "--finetune-epochs", "1"])
        assert rc == 2
        assert "n_heads must be >= 1" in capsys.readouterr().err

    def test_grid_and_resume(self, corpus_path, test_path, tmp_path):
        emb_path = tmp_path / "emb.tsv"
        rng = np.random.default_rng(0)
        words = set()
        for line in corpus_path.read_text().splitlines():
            words.update(json.loads(line)["question"].split())
        write_embeddings_tsv(emb_path, PretrainedEmbeddings(
            {w: rng.normal(size=24) for w in sorted(words)}, 24))
        args = ["sweep", "--corpus", str(corpus_path), "--test", str(test_path),
                "--dims", "8,16", "--layers", "1", "--embeddings", str(emb_path),
                "--out", str(tmp_path / "sweep"), "--seed", "3",
                "--batch-size", "8", "--pretrain-epochs", "1",
                "--finetune-epochs", "1"]
        assert cli.main(args) == 0
        csv_lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert csv_lines[0] == "dim,layers,init,accuracy"
        assert len(csv_lines) == 1 + 2 * 1 * 2  # dims x layers x (scratch, pca)
        # resume: nothing left to do, rows unchanged
        assert cli.main(args) == 0
        assert (tmp_path / "sweep" / "sweep.csv").read_text().splitlines() == \
            csv_lines


class TestEntryDecisions:
    """Each entry-layer question (options, vocabulary, missing inputs) has one
    answer, whichever command or function asks it."""

    @staticmethod
    def option_value(field, which):
        """A value for `field` other than its default: which=1 for a config
        file, which=2 for a flag."""
        defaults = {f.name: f.default for cls in (model.ModelConfig, train.TrainPlan)
                    for f in dataclasses.fields(cls)}
        if isinstance(defaults[field], str):
            return ("float32", "float64")[which - 1]
        return defaults[field] + which

    def test_option_precedence_over_the_whole_table(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        file_values = {field: self.option_value(field, 1) for field in cli.OPTIONS}
        cfg_file.write_text(json.dumps(file_values))
        flags = {flag: self.option_value(field, 2)
                 for field, flag in cli.OPTIONS.items() if flag}
        base = ["train", "--corpus", "c.jsonl", "--out", "o"]

        def resolve(argv):
            cfg, plan = cli._resolve_config_plan(
                cli.build_parser().parse_args(base + argv), seed=7)
            assert cfg.pop("seed") == plan.pop("seed") == 7
            return cfg, plan

        cfg, plan = resolve([])
        defaults = {f.name: f.default for f in dataclasses.fields(model.ModelConfig)}
        assert cfg == {f: defaults[f] for f in cli.OPTIONS if f in defaults}
        assert plan == {}
        cfg, plan = resolve(["--config", str(cfg_file)])
        assert {**cfg, **plan} == file_values  # every file value is kept
        argv = [arg for flag, value in flags.items() for arg in (flag, str(value))]
        cfg, plan = resolve(["--config", str(cfg_file)] + argv)
        assert {**cfg, **plan} == {  # a flag beats the file
            field: flags[flag] if flag else file_values[field]
            for field, flag in cli.OPTIONS.items()}
        assert cfg["n_enc_layers"] == cfg["n_dec_layers"] == flags["--layers"]

    def test_readme_flag_table_names_every_option(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme[readme.index("| Flag | Config-file key |"):].split("\n\n")[0]
        rows = [[cell.strip().strip("`") for cell in line.split("|")[1:3]]
                for line in table.splitlines()[2:]]
        assert {key for _, key in rows} - {"—"} == set(cli.OPTIONS)
        assert {flag for flag, _ in rows} - {"—"} == set(cli.OPTIONS.values()) - {None}
        assert all(cli.OPTIONS[key] == flag for flag, key in rows if "—" not in (flag, key))

    def test_pipeline_vocab_and_arena_match_cli_train(self, tmp_path):
        """30 records and one question over max_src_len: train_pipeline once
        built its vocabulary from the 30 kept records only (78 source tokens)."""
        corpus = synth.write_corpus(tmp_path / "train.jsonl",
                                    synth.generate_raw(30, seed=33)
                                    + [long_question_row("long-q", 254)])
        assert cli.main(["train", "--corpus", str(corpus)]
                        + fast_train_flags(tmp_path / "o")) == 0
        written = checkpoint.load(tmp_path / "o" / "checkpoint_final.mmtm")
        cfg = model.ModelConfig(src_vocab_size=1, tgt_vocab_size=1, d_model=16, seed=5)
        plan = train.TrainPlan(batch_size=8, pretrain_epochs=1, finetune_epochs=2,
                               finetune_lr=1e-3, seed=5)
        result = train.train_pipeline(dataset.load_corpus(corpus).records, cfg, plan)
        assert [q["id"] for q in result.quarantined] == ["long-q"]
        assert result.trained.vocab.src_size == written.vocab.src_size == 82
        for side in ("src_itos", "tgt_itos"):
            assert getattr(result.trained.vocab, side) == getattr(written.vocab, side)
        assert result.trained.params.flat.tobytes() == written.params.flat.tobytes()

    @pytest.mark.parametrize("command,missing", [
        ("train", "--corpus"), ("train", "--embeddings"), ("sweep", "--corpus"),
        ("sweep", "--test"), ("sweep", "--embeddings"), ("eval", "--checkpoint"),
        ("eval", "--test"), ("augment", "--corpus")])
    def test_missing_input_exit_2_names_the_path(self, trained_dir, corpus_path,
                                                 test_path, tmp_path, capsys,
                                                 command, missing):
        inputs = {"--corpus": str(corpus_path), "--test": str(test_path),
                  "--checkpoint": str(trained_dir / "checkpoint_final.mmtm")}
        argv = {"train": ["--corpus"], "sweep": ["--corpus", "--test"],
                "eval": ["--checkpoint", "--test"], "augment": ["--corpus"]}[command]
        args = {flag: inputs[flag] for flag in argv}
        args[missing] = str(tmp_path / "absent.file")
        rc = cli.main([command, *[a for item in args.items() for a in item]]
                      + ([] if command == "eval" else ["--out", str(tmp_path / "o")]))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"No such file or directory: '{tmp_path / 'absent.file'}'" in err

    def test_corpus_with_no_valid_record_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("not json\n{\"id\": \"x\"}\n", encoding="utf-8")
        rc = cli.main(["train", "--corpus", str(corpus)]
                      + fast_train_flags(tmp_path / "o"))
        assert rc == 2
        assert "corpus has no valid records" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_float32_train_then_eval(self, corpus_path, test_path, tmp_path):
        assert cli.main(["train", "--corpus", str(corpus_path), "--dtype", "float32"]
                        + fast_train_flags(tmp_path / "o")) == 0
        path = tmp_path / "o" / "checkpoint_final.mmtm"
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<Q", blob[4:12])
        header = json.loads(blob[12:12 + hlen])
        assert header["payload_dtype"] == "<f4"
        assert header["config"]["dtype"] == "float32"
        assert checkpoint.load(path).params.flat.dtype == np.float32
        assert cli.main(["eval", "--checkpoint", str(path), "--test",
                         str(test_path)]) == 0


HUGE_INT = object()  # written as a 5001-digit integer, past json's 4300-digit limit


def _finite_positive(v):
    return 0 < v <= sys.float_info.max


# Each option's documented range (README's flag table), and a few values in it
# that keep a run small; huge ones only where they cost nothing.
OPTION_RANGES = {
    "d_model": (lambda v: v >= 1, [4, 8, 16]),
    "n_enc_layers": (lambda v: v >= 1, [1, 2]),
    "n_dec_layers": (lambda v: v >= 1, [1, 2]),
    "n_heads": (lambda v: v >= 1, [1, 2, 4, 3]),
    "dtype": (lambda v: v in ("float64", "float32"), ["float64", "float32"]),
    "dropout": (lambda v: 0 <= v < 1, [0, 0.0, 0.1, 0.9]),
    "max_src_len": (lambda v: v >= 1, [128, 64, 10**40, 1]),
    "max_tgt_len": (lambda v: v >= 1, [48, 24, 10**40, 3]),
    "batch_size": (lambda v: v >= 1, [1, 8, 10**40]),
    "pretrain_epochs": (lambda v: v >= 0, [1, 0]),
    "finetune_epochs": (lambda v: v >= 0, [1, 0]),
    "pretrain_lr": (_finite_positive, [1e-5, 1e-3, 1e300]),
    "finetune_lr": (_finite_positive, [1e-4, 1, 10**40]),
}
OTHER_VALUES = [True, False, None, "8", "float16", [], {"d_model": 8}, 0, -1, 1.5,
                -0.0, 10**40, -10**40, math.nan, math.inf, -math.inf, HUGE_INT]


def documented(field, value) -> bool:
    """Whether `value` is of the field's type and in its documented range."""
    kind = type(cli._DEFAULTS[field])
    if value is HUGE_INT or isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        return False
    return OPTION_RANGES[field][0](value)


@st.composite
def config_files(draw):
    """Every option at a value in range; then in most files one to three of
    them set to any other value."""
    cfg = {f: draw(st.sampled_from(OPTION_RANGES[f][1])) for f in cli.OPTIONS}
    n = draw(st.sampled_from([0, 0, 1, 2, 3]))
    for field in draw(st.lists(st.sampled_from(list(cli.OPTIONS)), min_size=n,
                               max_size=n)):
        cfg[field] = draw(st.sampled_from(OTHER_VALUES).filter(
            lambda v, f=field: not documented(f, v)))
    return cfg


class TestConfigFileProperty:
    def test_option_table_is_covered(self):
        assert set(OPTION_RANGES) == set(cli.OPTIONS)

    @settings(max_examples=100)
    @given(cfg=config_files())
    def test_any_config_file_exits_0_2_or_4(self, corpus_path, cfg):
        """Every config file ends in a documented exit code, never a traceback;
        a value outside its range, or a run outside the joint ranges (width a
        multiple of the heads, some epoch trained), exits 2; and every exit 2
        comes before anything is written."""
        text = json.dumps(cfg, default=lambda _: "__huge__").replace(
            '"__huge__"', "1" + "0" * 5000)
        outside = (not all(documented(f, v) for f, v in cfg.items())
                   or cfg["d_model"] % cfg["n_heads"] != 0
                   or cfg["pretrain_epochs"] == cfg["finetune_epochs"] == 0)
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "cfg.json"), Path(tmp, "o")
            path.write_text(text, encoding="utf-8")
            with np.errstate(over="ignore", invalid="ignore"):  # a huge lr overflows
                rc = cli.main(["train", "--corpus", str(corpus_path), "--config",
                               str(path), "--out", str(out)])
            if outside:
                assert rc == 2
            assert rc in (0, 2, 4)
            assert out.exists() == (rc != 2)


class TestSweepInputs:
    def sweep(self, corpus_path, test, out, *extra):
        return cli.main(["sweep", "--corpus", str(corpus_path), "--test", str(test),
                         "--out", str(out), "--dims", "8", "--batch-size", "8",
                         "--pretrain-epochs", "1", "--finetune-epochs", "1", *extra])

    def test_quarantined_test_lines_counted(self, corpus_path, test_path, tmp_path,
                                            capsys, monkeypatch):
        """sweep once scored only the test records that loaded."""
        test = tmp_path / "test.jsonl"
        test.write_text(test_path.read_text() + "not json at all\n", encoding="utf-8")
        score, totals = evaluate.score, []

        def spy(*args, **kwargs):
            report = score(*args, **kwargs)
            totals.append((report.total, report.correct, report.accuracy))
            return report

        monkeypatch.setattr(evaluate, "score", spy)
        assert self.sweep(corpus_path, test, tmp_path / "s") == 0
        assert "1 test record(s) quarantined at load" in capsys.readouterr().err
        loaded = len(dataset.load_corpus(test).records)
        [(total, correct, accuracy)] = totals
        assert total == loaded + 1 == 7
        assert accuracy == correct / 7
        row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1]
        assert row == f"8,1,scratch,{accuracy:.6f}"

    @pytest.mark.parametrize("dims", ["6", "8,6"])
    def test_width_not_a_multiple_of_the_heads_refused_before_writing(
            self, corpus_path, test_path, tmp_path, capsys, dims):
        """--dims 6 with the default 4 heads once trained that cell with 2
        heads, exited 0 and recorded n_heads 4 in the manifest."""
        assert self.sweep(corpus_path, test_path, tmp_path / "s", "--dims", dims) == 2
        assert "error: d_model=6 not divisible by n_heads=4" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_repeated_grid_value_runs_once(self, corpus_path, test_path, tmp_path,
                                           monkeypatch):
        """--dims 8,8 once trained the (8, 1, scratch) cell twice and wrote two
        identical rows."""
        pipeline, trained = train.train_pipeline, []

        def spy(records, config, *args, **kwargs):
            trained.append((config.d_model, config.n_enc_layers))
            return pipeline(records, config, *args, **kwargs)

        monkeypatch.setattr(train, "train_pipeline", spy)
        out = tmp_path / "s"
        assert self.sweep(corpus_path, test_path, out, "--dims", "8,4,8",
                          "--layers", "1,1") == 0
        assert trained == [(8, 1), (4, 1)]
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[0] for row in rows] == ["8,1,scratch", "4,1,scratch"]
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["dims"], config["layers"]) == ([8, 4], [1])

    @pytest.mark.parametrize("content,message", [
        ({"d_model": "x"}, "'d_model' must be int, got 'x'"),
        ({"dropout": 1.5}, "dropout must be in [0, 1), got 1.5"),
        ({"finetune_lr": -1}, "finetune_lr must be finite and positive"),
        ({"d_modle": 8}, "unknown key(s) 'd_modle'"),
    ])
    def test_rejected_rerun_keeps_the_manifest(self, corpus_path, test_path, tmp_path,
                                               capsys, content, message):
        """A rerun that exits 2 once replaced the manifest of the run whose
        rows sweep.csv holds."""
        out, cfg = tmp_path / "s", tmp_path / "cfg.json"
        assert self.sweep(corpus_path, test_path, out, "--seed", "4") == 0
        manifest, rows = (out / "manifest.json").read_bytes(), \
            (out / "sweep.csv").read_bytes()
        cfg.write_text(json.dumps(content))
        assert self.sweep(corpus_path, test_path, out, "--seed", "9",
                          "--config", str(cfg)) == 2
        assert message in capsys.readouterr().err
        assert (out / "manifest.json").read_bytes() == manifest
        assert (out / "sweep.csv").read_bytes() == rows

    @pytest.mark.parametrize("content,message", [
        ("dim,layers,init,accuracy\nx,1,scratch,0.5\n",
         "invalid literal for int() with base 10: 'x'"),
        ("layers,init,accuracy\n1,scratch,0.5\n",
         "a row's columns are not dim,layers,init,accuracy"),
    ], ids=["non-integer-dim", "no-dim-column"])
    def test_corrupt_csv_exit_2(self, corpus_path, test_path, tmp_path, capsys,
                                content, message):
        """Resuming from either file once ended in a traceback (exit 1)."""
        out = tmp_path / "s"
        out.mkdir()
        (out / "sweep.csv").write_text(content, encoding="utf-8")
        assert self.sweep(corpus_path, test_path, out) == 2
        err = capsys.readouterr().err
        assert f"cannot resume from {out / 'sweep.csv'}: {message}" in err
        assert (out / "sweep.csv").read_text(encoding="utf-8") == content

    def test_corpus_without_valid_record_refused_before_writing(
            self, corpus_path, test_path, tmp_path, capsys):
        """sweep once rewrote the manifest, then exited 2 with "no examples for
        task 'pre'"."""
        out, bad = tmp_path / "s", tmp_path / "bad.jsonl"
        assert self.sweep(corpus_path, test_path, out) == 0
        manifest, rows = (out / "manifest.json").read_bytes(), \
            (out / "sweep.csv").read_bytes()
        bad.write_text("not json at all\n", encoding="utf-8")
        assert self.sweep(bad, test_path, out, "--seed", "9") == 2
        assert "error: corpus has no valid records" in capsys.readouterr().err
        assert (out / "manifest.json").read_bytes() == manifest
        assert (out / "sweep.csv").read_bytes() == rows

    def test_no_record_within_length_limits_refused_before_writing(
            self, corpus_path, test_path, tmp_path, capsys):
        """{"max_src_len": 1} once wrote manifest.json, then exited 2 with "no
        examples for task 'pre'"."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_src_len": 1}))
        assert self.sweep(corpus_path, test_path, tmp_path / "s",
                          "--config", str(cfg)) == 2
        assert "no examples for task 'pre'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_arena_past_the_address_space_refused_before_writing(
            self, corpus_path, test_path, tmp_path, capsys):
        """A sweep once trained its 8-wide cells, wrote manifest.json and
        sweep.csv, and then exited 2 at the 437 TiB cell."""
        assert self.sweep(corpus_path, test_path, tmp_path / "s", "--dims",
                          "8,1000000") == 2
        assert "GiB) cannot be allocated" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_pca_width_past_the_table_refused_before_writing(
            self, corpus_path, test_path, tmp_path, capsys):
        """A --dims 4,16 rerun with an 8-wide table once trained the cells
        before the 16-wide pca one, with the manifest already replaced, and
        then exited 2 there."""
        emb = write_embeddings(tmp_path / "emb.tsv", corpus_path, 8)
        out = tmp_path / "s"
        assert self.sweep(corpus_path, test_path, out, "--dims", "4",
                          "--embeddings", str(emb)) == 0
        manifest, rows = (out / "manifest.json").read_bytes(), \
            (out / "sweep.csv").read_bytes()
        assert self.sweep(corpus_path, test_path, out, "--dims", "4,16",
                          "--embeddings", str(emb)) == 2
        assert "d=16 exceeds pretrained width 8" in capsys.readouterr().err
        assert (out / "manifest.json").read_bytes() == manifest
        assert (out / "sweep.csv").read_bytes() == rows

    def test_rerun_resumes_only_under_the_manifest_settings(
            self, corpus_path, test_path, tmp_path, capsys):
        """A rerun with another plan and seed once skipped the cell in
        sweep.csv, exited 0 and recorded its own plan and seed over that row's."""
        out, other_test = tmp_path / "s", tmp_path / "test.jsonl"
        other_test.write_text(test_path.read_text() + "\n", encoding="utf-8")
        assert self.sweep(corpus_path, test_path, out, "--seed", "4") == 0
        manifest, rows = (out / "manifest.json").read_bytes(), \
            (out / "sweep.csv").read_bytes()
        for test, extra, keys in [
                (test_path, ["--pretrain-epochs", "3", "--finetune-epochs", "2",
                             "--seed", "9"], "finetune_epochs, pretrain_epochs, seed"),
                (test_path, ["--seed", "4", "--heads", "2"], "n_heads"),
                (other_test, ["--seed", "4"], "test sha256")]:
            assert self.sweep(corpus_path, test, out, *extra) == 2
            assert (f"cannot resume from {out / 'sweep.csv'}: its manifest records "
                    f"other settings for {keys}\n") in capsys.readouterr().err
            assert (out / "manifest.json").read_bytes() == manifest
            assert (out / "sweep.csv").read_bytes() == rows
        assert self.sweep(corpus_path, test_path, out, "--seed", "4",
                          "--dims", "8,16") == 0  # the grid may grow
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[:2] == rows.decode().splitlines() and len(lines) == 3
        (out / "manifest.json").unlink()
        assert self.sweep(corpus_path, test_path, out, "--seed", "4") == 2
        assert "no readable sweep manifest" in capsys.readouterr().err

    def test_manifest_records_plan_and_options(self, corpus_path, test_path, tmp_path):
        """The manifest once held the grid alone, and an empty plan."""
        out = tmp_path / "s"
        assert self.sweep(corpus_path, test_path, out, "--heads", "2",
                          "--pretrain-epochs", "2", "--seed", "5") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["plan"] == {"batch_size": 8, "pretrain_epochs": 2,
                                    "finetune_epochs": 1, "seed": 5}
        defaults = {f.name: f.default for f in dataclasses.fields(model.ModelConfig)}
        assert manifest["config"] == {
            "dims": [8], "layers": [1], "inits": ["scratch"], "n_heads": 2,
            "seed": 5, **{f: defaults[f] for f in ("dtype", "dropout", "max_src_len",
                                                   "max_tgt_len")}}
