"""Spans around mmtm's public functions, and the per-layer metrics built from them.

The tracer replaces module attributes such as ``mmtm.model.encode_batch``
with timing wrappers, so calls the program makes to those functions from
inside other modules are caught too. Spans are kept in memory and written
out once, when the run ends. A wrapped function that the program no longer
has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

PAD = 0

# Stage spans: every model span under one of them is training work.
TRAIN_STAGES = ("train.pretrain_multitask", "train.finetune")
EVAL_CALLS = ("evaluate.score", "evaluate.export_attention")


def _pad_use(args, kwargs, result):
    src, tgt = result
    return {"real": int((src != PAD).sum() + (tgt != PAD).sum()),
            "slots": int(src.size + tgt.size)}


def _adam_tensors(args, kwargs, result):
    grads = args[2] if len(args) > 2 else kwargs["grads"]
    names = args[4] if len(args) > 4 else kwargs.get("names")
    names = grads if names is None else names
    return {"tensors": sum(1 for n in names if n in grads)}


def _decode_positions(args, kwargs, result):
    tgt = args[4] if len(args) > 4 else kwargs["tgt_ids"]
    rows, cols = getattr(tgt, "shape", (1, len(tgt)))
    return {"positions": rows * cols}


def decoded_tokens(report, config) -> int:
    """Tokens emitted by greedy decoding, with the ending EOS of every decode
    that stopped on one rather than at the length limit."""
    limit = config.max_tgt_len - 2
    return sum(len(v.predicted_tokens) + (len(v.predicted_tokens) < limit)
               for v in report.verdicts)


def _scored(args, kwargs, result):
    trained = args[0] if args else kwargs["trained"]
    records = args[1] if len(args) > 1 else kwargs["records"]
    return {"records": len(records), "tokens": decoded_tokens(result, trained.config)}


def _records_loaded(args, kwargs, result):
    return {"records": len(result.records)}


def _checkpoint_size(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    return {"bytes": os.path.getsize(path), "tensors": len(params.tensors)}


# (module, attribute, work-count hook run on the call's arguments and result)
TARGETS = (
    ("dataset", "load_corpus", _records_loaded),
    ("dataset", "augment_corpus", None),
    ("pca_init", "load_embeddings_tsv", None),
    ("pca_init", "init_vocab_embeddings", None),
    ("model", "encode_batch", None),
    ("model", "decode_batch", _decode_positions),
    ("model", "loss_batch", None),
    ("model", "decode_bwd", None),
    ("model", "encode_bwd", None),
    ("model", "loss_and_grads_batch", None),
    ("model", "greedy_decode", None),
    ("train", "pretrain_multitask", None),
    ("train", "finetune", None),
    ("train", "pad_batch", _pad_use),
    ("train", "Adam.step", _adam_tensors),
    ("evaluate", "score", _scored),
    ("evaluate", "export_attention", None),
    ("expr", "tree_from_preorder", None),
    ("expr", "evaluate", None),
    ("checkpoint", "save", _checkpoint_size),
    ("checkpoint", "load", None),
)

# Recursive functions: only the outermost call gets a span.
RECURSIVE = ("expr.evaluate",)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        # One entry per span in each list; flat lists of scalars keep the
        # garbage collector from walking every span as the run grows.
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.run: list[str] = []
        self.error: list[bool] = []
        self.work: dict[int, dict] = {}
        self.run_id = ""
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self):
        self.absent = []
        for module_name, attr, hook in TARGETS:
            owner = importlib.import_module(f"mmtm.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, f"{module_name}.{attr}", hook))
            self._restore.append((owner, leaf, original))
        return self

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()
        return False

    def _wrap(self, fn, name, hook):
        names, starts, ends, error = self.name, self.start, self.end, self.error
        stack, work = self._stack, self.work
        recursive = name in RECURSIVE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recursive and stack and names[stack[-1]] == name:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(name)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            error.append(False)
            ends.append(0)
            stack.append(sid)
            starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error[sid] = True
                raise
            finally:
                ends[sid] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                work[sid] = hook(args, kwargs, result)
            return result

        return wrapper

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.name):
                row = {"id": sid, "name": name, "start_ns": self.start[sid],
                       "end_ns": self.end[sid], "parent": self.parent[sid],
                       "run": self.run[sid], "error": self.error[sid]}
                row.update(self.work.get(sid, {}))
                fh.write(json.dumps(row) + "\n")


class Layers:
    """Self time, call counts and work counts per function, split by context."""

    def __init__(self, tracer: Tracer):
        self.name, self.error, self.work = tracer.name, tracer.error, tracer.work
        self.total_ns = [e - s for s, e in zip(tracer.start, tracer.end)]
        child_ns = [0] * len(self.name)
        context = [-1] * len(self.name)  # nearest enclosing stage or eval call
        for sid, (name, parent) in enumerate(zip(self.name, tracer.parent)):
            if parent >= 0:
                child_ns[parent] += self.total_ns[sid]
                context[sid] = context[parent]
            if name in TRAIN_STAGES or name in EVAL_CALLS:
                context[sid] = sid
        self.context = context
        self.self_ns = [t - c for t, c in zip(self.total_ns, child_ns)]

    def select(self, name: str, within: tuple[str, ...] | None = None) -> list[int]:
        """Spans of `name` inside a stage or eval call that did not raise; with
        `within`, only inside calls of those names. A call that raised, such
        as score on an over-length question, is left out with its children."""
        out = []
        for sid, span_name in enumerate(self.name):
            if span_name != name:
                continue
            ctx = self.context[sid]
            if ctx >= 0 and self.error[ctx]:
                continue
            if within is not None and (ctx < 0 or self.name[ctx] not in within):
                continue
            out.append(sid)
        return out

    def self_ms(self, sids) -> float:
        return sum(self.self_ns[s] for s in sids) / 1e6

    def total_ms(self, sids) -> float:
        return sum(self.total_ns[s] for s in sids) / 1e6

    def work_sum(self, sids, key) -> int:
        return sum(self.work.get(s, {}).get(key, 0) for s in sids)

    def table(self) -> str:
        rows = defaultdict(lambda: [0, 0, 0])
        for sid, name in enumerate(self.name):
            row = rows[name]
            row[0] += 1
            row[1] += self.total_ns[sid]
            row[2] += self.self_ns[sid]
        lines = [f"{'function':34} {'calls':>8} {'total_ms':>11} {'self_ms':>11}"]
        for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:34} {calls:8d} {total / 1e6:11.2f} {own / 1e6:11.2f}")
        return "\n".join(lines)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: Layers) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in the benchmark, as (value, unit)."""
    sel, self_ms = layers.select, layers.self_ms
    out: dict[str, tuple[float, str]] = {}

    load = sel("dataset.load_corpus")
    out["dataset.load_corpus_s"] = (self_ms(load) / 1e3, "s")
    out["dataset.augment_corpus_s"] = (self_ms(sel("dataset.augment_corpus")) / 1e3, "s")
    out["dataset.records_loaded"] = (layers.work_sum(load, "records"), "count")
    out["pca_init.load_embeddings_tsv_s"] = (
        self_ms(sel("pca_init.load_embeddings_tsv")) / 1e3, "s")
    out["pca_init.init_vocab_embeddings_s"] = (
        self_ms(sel("pca_init.init_vocab_embeddings")) / 1e3, "s")

    def per_call(name, within):
        sids = sel(name, within)
        return _ratio(self_ms(sids), len(sids))

    for name, metric in (("model.encode_batch", "model.encode_batch.train_ms"),
                         ("model.decode_batch", "model.decode_batch.train_ms"),
                         ("model.loss_batch", "model.loss_batch_ms"),
                         ("model.decode_bwd", "model.decode_bwd_ms"),
                         ("model.encode_bwd", "model.encode_bwd_ms"),
                         ("train.Adam.step", "train.adam_step_ms"),
                         ("train.pad_batch", "train.pad_batch_ms")):
        out[metric] = (per_call(name, TRAIN_STAGES), "ms/call")
    adam = sel("train.Adam.step", TRAIN_STAGES)
    out["train.adam_tensors_per_step"] = (
        _ratio(layers.work_sum(adam, "tensors"), len(adam)), "count")
    pads = sel("train.pad_batch", TRAIN_STAGES)
    out["train.pad_token_use"] = (
        _ratio(layers.work_sum(pads, "real"), layers.work_sum(pads, "slots")), "ratio")
    steps = sel("model.loss_and_grads_batch", TRAIN_STAGES)
    stages = [s for name in TRAIN_STAGES for s in sel(name)]
    out["train.stage_self_ms_per_step"] = (_ratio(self_ms(stages), len(steps)), "ms")

    score = ("evaluate.score",)
    attention = ("evaluate.export_attention",)
    scored = sel("evaluate.score")
    records = layers.work_sum(scored, "records")
    tokens = layers.work_sum(scored, "tokens")
    greedy = sel("model.greedy_decode", score)
    out["model.greedy_decode_ms"] = (_ratio(layers.total_ms(greedy), len(greedy)), "ms/call")
    out["model.encode_batch.eval_ms"] = (per_call("model.encode_batch", EVAL_CALLS), "ms/call")
    out["model.decode_batch.eval_ms"] = (per_call("model.decode_batch", EVAL_CALLS), "ms/call")
    decodes = sel("model.decode_batch", score)
    out["model.decode_calls_per_record"] = (_ratio(len(decodes), records), "count")
    out["model.decoded_positions_per_token"] = (
        _ratio(layers.work_sum(decodes, "positions"), tokens), "ratio")
    exports = sel("evaluate.export_attention")
    out["model.encode_calls_per_attention_record"] = (
        _ratio(len(sel("model.encode_batch", attention)), len(exports)), "count")
    out["evaluate.score_self_ms_per_record"] = (_ratio(self_ms(scored), records), "ms")
    out["evaluate.export_attention_self_ms_per_record"] = (
        _ratio(self_ms(exports), len(exports)), "ms")
    out["expr.tree_from_preorder_us"] = (
        _ratio(self_ms(sel("expr.tree_from_preorder", score)) * 1e3, records), "us/record")
    out["expr.evaluate_us"] = (
        _ratio(self_ms(sel("expr.evaluate", score)) * 1e3, records), "us/record")

    saves = sel("checkpoint.save")
    out["checkpoint.bytes"] = (
        statistics.median(layers.work[s]["bytes"] for s in saves) if saves else 0, "bytes")
    out["checkpoint.tensors"] = (
        statistics.median(layers.work[s]["tensors"] for s in saves) if saves else 0, "count")
    return out
