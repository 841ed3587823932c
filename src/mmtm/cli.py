"""Command-line entry point: augment / train / eval / sweep subcommands.

Exit codes: 0 success, 2 input error (including an input path that cannot
be read or is not UTF-8 text), 3 checkpoint/config mismatch, 4 numeric
failure (non-finite loss). A run manifest is written into the output
directory before any long computation starts; `train` and `sweep` check
their inputs, the length limits and any PCA initialisation first, so what
those checks refuse writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__, checkpoint, dataset, evaluate, model, pca_init, train
from .expr import TraversalVariant

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_NUMERIC = 4
NAME_MAX = 255  # Linux's longest file name, in bytes; the directory may not exist yet


class CliInputError(Exception):
    pass


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _seed(args) -> int:
    """`--seed`, else the MMTM_SEED environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("MMTM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise CliInputError(f"MMTM_SEED must be an integer, got {text!r}") from None


def _positive_ints(text: str) -> list[int]:
    """argparse type for a comma list of integers >= 1, such as 32,64,128."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"every value must be >= 1, got {text!r}")
    return list(dict.fromkeys(values))  # a repeated value keeps its first place


def _manifest(command: str, seed: int, inputs: dict, config: dict, plan: dict,
              artifacts: list[str]) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "inputs": {
            name: {"path": str(p), "sha256": _sha256(Path(p))}
            for name, p in inputs.items() if p
        },
        "config": config,
        "plan": plan,
        "artifacts": artifacts,
    }


def _write_manifest(out_dir: Path, manifest: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


# Train and sweep options: each ModelConfig or TrainPlan field a config file
# may set, keyed by its name, and the flag that sets it (None: none; --layers
# sets both layer counts). A file value beats the default; a flag beats both.
OPTIONS = {
    "d_model": "--dim", "n_enc_layers": "--layers", "n_dec_layers": "--layers",
    "n_heads": "--heads", "dtype": "--dtype", "dropout": None,
    "max_src_len": None, "max_tgt_len": None,
    "batch_size": "--batch-size", "pretrain_epochs": "--pretrain-epochs",
    "finetune_epochs": "--finetune-epochs", "pretrain_lr": "--pretrain-lr",
    "finetune_lr": "--finetune-lr",
}
GRID_FLAGS = ("--dim", "--layers")  # sweep sets their fields from its grid
_DEFAULTS = {f.name: f.default for cls in (train.TrainPlan, model.ModelConfig)
             for f in dataclasses.fields(cls)}


def _read_config_file(path: str) -> dict:
    """The config file's values: OPTIONS fields only, each of the field's
    default type (an int is accepted where the default is a float)."""
    try:
        file_cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise CliInputError(f"config file {path} nests too deeply") from None
    except ValueError as e:  # not UTF-8, not JSON, or an int past 4300 digits
        raise CliInputError(f"config file {path}: {e}") from None
    if not isinstance(file_cfg, dict):
        raise CliInputError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(file_cfg) - set(OPTIONS))
    if unknown:
        raise CliInputError(f"config file {path}: unknown key(s) "
                            f"{', '.join(map(repr, unknown))}")
    for key, value in file_cfg.items():
        kind = type(_DEFAULTS[key])
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise CliInputError(f"config file {path}: {key!r} must be "
                                f"{kind.__name__}, got {value!r}")
    return file_cfg


def _resolve_config_plan(args, seed: int):
    """(ModelConfig fields, TrainPlan fields), each with the seed: every
    ModelConfig field in OPTIONS, and the TrainPlan fields a file or flag sets;
    `--no-pretrain` sets pretrain_epochs to 0."""
    cfg = {f.name: f.default for f in dataclasses.fields(model.ModelConfig)
           if f.name in OPTIONS}
    plan = {}
    file_values = _read_config_file(args.config) if args.config else {}
    for field, flag in OPTIONS.items():
        value = vars(args).get(flag[2:].replace("-", "_")) if flag else None
        value = file_values.get(field) if value is None else value
        if value is not None:
            (cfg if field in cfg else plan)[field] = value
    if vars(args).get("no_pretrain"):  # the no-pre-training arm
        plan["pretrain_epochs"] = 0
    cfg["seed"] = plan["seed"] = seed
    return cfg, plan


def _prepare_run(args):
    """What `train` and `sweep` decide before they write anything: (seed,
    corpus load, embeddings, ModelConfig fields, TrainPlan fields, plan,
    vocabulary). A corpus with no valid record is refused."""
    seed = _seed(args)
    load = dataset.load_corpus(args.corpus)
    if not load.records:
        raise CliInputError("corpus has no valid records")
    embeddings = (pca_init.load_embeddings_tsv(args.embeddings)
                  if args.embeddings else None)
    cfg_kv, plan_kv = _resolve_config_plan(args, seed)
    plan = train.TrainPlan(**plan_kv)
    if not plan.finetune_epochs:
        print("warning: finetune_epochs is 0: that stage trains no step",
              file=sys.stderr)
    return (seed, load, embeddings, cfg_kv, plan_kv, plan,
            dataset.build_vocab(load.records))


def _refuse_untrainable(records: list, vocab: dataset.Vocab,
                        configs: list[model.ModelConfig], plan: train.TrainPlan,
                        embeddings, pca_widths):
    """Refuse, before anything is written, a run that would fail once it
    starts: no record within the model length limits (which every cell of a
    sweep shares), a parameter arena of one of `configs` that cannot be
    allocated, or embeddings that cannot initialise one of `pca_widths`."""
    if not train.split_by_length(records, configs[0])[0]:
        raise train.EmptyTaskDataset(
            f"no examples for task 'pre': all {len(records)} record(s) are over "
            "the model length limits")
    for config in configs:
        model.zero_arena(config, plan.tasks)
    if embeddings is not None:
        for width in sorted(set(pca_widths)):
            pca_init.init_vocab_embeddings(vocab, embeddings, width,
                                           seed=configs[0].seed)


def _load_test(path: str) -> dataset.CorpusLoad:
    """A test corpus for `eval` and `sweep`; warns when lines were quarantined."""
    test = dataset.load_corpus(path)
    if test.quarantined:
        print(f"warning: {len(test.quarantined)} test record(s) quarantined at load",
              file=sys.stderr)
    return test


def cmd_augment(args) -> int:
    seed = _seed(args)
    load = dataset.load_corpus(args.corpus)
    out_dir = Path(args.out)
    _write_manifest(out_dir, _manifest(
        "augment", seed, {"corpus": args.corpus}, config={}, plan={},
        artifacts=[f"task_{v.value}.jsonl" for v in TraversalVariant]
        + ["quarantine.jsonl"]))
    rows = dataset.augment_tokens(load.records)
    dataset.write_task_files(rows, out_dir)
    with open(out_dir / "quarantine.jsonl", "w", encoding="utf-8") as fh:
        for entry in load.quarantined:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    if load.quarantined:
        print(f"warning: {len(load.quarantined)} record(s) quarantined",
              file=sys.stderr)
    print(f"augmented {len(load.records)} records -> "
          f"{3 * len(load.records)} examples in {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    seed, load, embeddings, cfg_kv, plan_kv, plan, vocab = _prepare_run(args)
    config = model.ModelConfig(src_vocab_size=vocab.src_size,
                               tgt_vocab_size=vocab.tgt_size, **cfg_kv)
    _refuse_untrainable(load.records, vocab, [config], plan, embeddings,
                        [config.d_model])
    out_dir = Path(args.out)
    artifacts = ["checkpoint_final.mmtm", "trainlog_finetune.jsonl"]
    if plan.pretrain_epochs:
        artifacts = ["checkpoint_pretrain.mmtm",
                     "trainlog_pretrain.jsonl"] + artifacts
    _write_manifest(out_dir, _manifest(
        "train", seed, {"corpus": args.corpus, "embeddings": args.embeddings},
        config=cfg_kv, plan=plan_kv, artifacts=artifacts))
    result = train.train_pipeline(load.records, config, plan, vocab=vocab,
                                  embeddings=embeddings)
    if result.pretrain_params is not None:
        checkpoint.save(out_dir / "checkpoint_pretrain.mmtm",
                        result.pretrain_params, result.trained.vocab)
        (out_dir / "trainlog_pretrain.jsonl").write_text(
            result.pretrain_log.to_jsonl(), encoding="utf-8")
    checkpoint.save(out_dir / "checkpoint_final.mmtm",
                    result.trained.params, result.trained.vocab)
    (out_dir / "trainlog_finetune.jsonl").write_text(
        result.finetune_log.to_jsonl(), encoding="utf-8")
    if load.quarantined or result.quarantined:
        print(f"warning: {len(load.quarantined)} record(s) quarantined at load, "
              f"{len(result.quarantined)} over the model length limits",
              file=sys.stderr)
    print(f"trained on {len(load.records) - len(result.quarantined)} records; "
          f"artifacts in {out_dir}")
    return EXIT_OK


def _refuse_attention_ids(records: list):
    """`--attention-out` writes `<id>.json` per record: refuse an id that is
    not a plain file name of at most NAME_MAX bytes, or that another shares."""
    seen = set()
    for rid in (record.id for record in records):
        long = len(f"{rid}.json".encode(errors="surrogatepass")) > NAME_MAX
        if rid in ("", ".", "..") or "/" in rid or "\0" in rid or long or rid in seen:
            raise CliInputError(f"--attention-out: record id {rid!r} is " + (
                "not unique" if rid in seen else "too long for a file name" if long
                else "not a plain file name"))
        seen.add(rid)


def cmd_eval(args) -> int:
    trained = checkpoint.load(args.checkpoint)
    load = _load_test(args.test)
    if args.attention_out:
        _refuse_attention_ids(load.records)
    if args.report:  # before decoding, so a path that cannot be written fails first
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
    trace = [] if args.attention_out else None
    report = evaluate.score(trained, load.records, cross_trace=trace,
                            quarantined=load.quarantined)
    if args.report:
        Path(args.report).write_text(report.to_json(), encoding="utf-8")
    if args.attention_out:
        Path(args.attention_out).mkdir(parents=True, exist_ok=True)
        for record, verdict, cross in zip(load.records, report.verdicts, trace):
            if cross is not None:  # None: too long to decode
                path = Path(args.attention_out, f"{record.id}.json")
                evaluate.attention_report(record, verdict, cross, path)
    print(report.render_table())
    return EXIT_OK


def cmd_sweep(args) -> int:
    seed, load, embeddings, cfg_kv, plan_kv, plan, vocab = _prepare_run(args)
    test = _load_test(args.test)
    inits = ["scratch"] + (["pca"] if embeddings is not None else [])
    out_dir = Path(args.out)
    csv_path = out_dir / "sweep.csv"
    rows, done = _read_sweep_csv(csv_path)
    cells = []  # every cell's config is built, so checked, before a file is written
    for dim, layers, init_kind in itertools.product(args.dims, args.layer_list, inits):
        cfg = dict(cfg_kv, d_model=dim, n_enc_layers=layers, n_dec_layers=layers)
        cells.append((dim, layers, init_kind, model.ModelConfig(
            src_vocab_size=vocab.src_size, tgt_vocab_size=vocab.tgt_size, **cfg)))
    _refuse_untrainable(load.records, vocab, [cfg for *_, cfg in cells], plan,
                        embeddings, [dim for dim, _, kind, _ in cells if kind == "pca"])
    options = {k: v for k, v in cfg_kv.items() if OPTIONS.get(k) not in GRID_FLAGS}
    manifest = _manifest(
        "sweep", seed,
        {"corpus": args.corpus, "test": args.test, "embeddings": args.embeddings},
        config={"dims": args.dims, "layers": args.layer_list, "inits": inits,
                **options},
        plan=plan_kv, artifacts=["sweep.csv"])
    if rows:
        _refuse_other_settings(csv_path, out_dir / "manifest.json", manifest)
    _write_manifest(out_dir, manifest)
    for dim, layers, init_kind, config in cells:
        if (dim, layers, init_kind) in done:
            continue
        result = train.train_pipeline(
            load.records, config, plan, vocab=vocab,
            embeddings=embeddings if init_kind == "pca" else None)
        report = evaluate.score(result.trained, test.records,
                                quarantined=test.quarantined)
        rows.append({"dim": dim, "layers": layers, "init": init_kind,
                     "accuracy": f"{report.accuracy:.6f}"})
        _write_sweep_csv(csv_path, rows)
    print(f"sweep complete: {len(rows)} rows in {csv_path}")
    return EXIT_OK


SWEEP_COLUMNS = ["dim", "layers", "init", "accuracy"]


def _read_sweep_csv(path: Path) -> tuple[list[dict], set]:
    """An earlier run's rows (none if it wrote no file) and the cells they hold."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if any(row.keys() != set(SWEEP_COLUMNS) or None in row.values()
               for row in rows):
            raise ValueError(f"a row's columns are not {','.join(SWEEP_COLUMNS)}")
        return rows, {(int(r["dim"]), int(r["layers"]), r["init"]) for r in rows}
    except FileNotFoundError:
        return [], set()
    except (csv.Error, ValueError) as e:  # UnicodeDecodeError is a ValueError
        raise CliInputError(f"cannot resume from {path}: {e}") from None


def _resume_settings(manifest: dict) -> dict:
    """What a sweep rerun shares with the run whose rows it resumes: seed,
    plan and options other than the grid's (each unset one at its default),
    and each input's sha256."""
    return {**_DEFAULTS, **{k: v for k, v in manifest["config"].items()
                            if k not in ("dims", "layers", "inits")},
            **manifest["plan"], "seed": manifest["seed"],
            **{f"{name} sha256": entry["sha256"]
               for name, entry in manifest["inputs"].items()}}


def _refuse_other_settings(csv_path: Path, manifest_path: Path, manifest: dict):
    """A rerun may grow the grid of the rows in `csv_path`, but not change
    the settings its manifest records for them."""
    try:
        old = _resume_settings(json.loads(manifest_path.read_text(encoding="utf-8")))
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        raise CliInputError(f"cannot resume from {csv_path}: no readable sweep "
                            f"manifest: {e}") from None
    new = _resume_settings(manifest)
    differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    if differ:
        raise CliInputError(f"cannot resume from {csv_path}: its manifest records "
                            f"other settings for {', '.join(differ)}")


def _write_sweep_csv(path: Path, rows: list[dict]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmtm",
        description="Multi-task multi-decoder transformer for math word problems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_options(p, grid_flags=()):
        """--config, --seed and the OPTIONS flags, less the sweep grid's."""
        p.add_argument("--config", help="JSON config file (flags win)")
        p.add_argument("--seed", type=int)
        for flag in dict.fromkeys(OPTIONS.values()):
            if flag and flag not in grid_flags:
                fields = [field for field, f in OPTIONS.items() if f == flag]
                kind = type(_DEFAULTS[fields[0]])
                p.add_argument(flag, type=kind, help=f"sets {' and '.join(fields)}",
                               choices=("float64", "float32") if kind is str else None)

    p = sub.add_parser("augment", help="emit the three traversal task datasets")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="pretrain + finetune, write checkpoints")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", help="pretrained embedding TSV for PCA init")
    p.add_argument("--no-pretrain", action="store_true",
                   help="pretrain_epochs 0, whatever else sets it (ablation arm)")
    p.add_argument("--out", required=True)
    add_train_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a test corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--report", help="write the EvalReport JSON here")
    p.add_argument("--attention-out", dest="attention_out",
                   help="directory for per-record attention JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy grid over (dim, layers, init)")
    p.add_argument("--corpus", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--dims", type=_positive_ints, default="32,64,128",
                   help="comma list of widths")
    p.add_argument("--layers", dest="layer_list", type=_positive_ints, default="1",
                   help="comma list, e.g. 1,2")
    p.add_argument("--embeddings")
    p.add_argument("--out", required=True)
    add_train_options(p, grid_flags=GRID_FLAGS)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except train.NonFiniteLoss as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CliInputError, dataset.DatasetError, pca_init.PcaError, model.ModelError,
            train.TrainError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except checkpoint.CheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
