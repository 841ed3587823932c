"""Two-stage training: multi-task pre-training, then pre-order fine-tuning.

Pre-training draws homogeneous batches round-robin over the three traversal
tasks; every batch updates the shared encoder plus that task's decoder only.
Fine-tuning drops the in-order/post-order decoders: their tensors are never
touched, which tests assert by checksum.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import checkpoint, dataset, evaluate, expr, model, pca_init
from .dataset import MwpRecord, TaskExample, Vocab
from .expr import TraversalVariant
from .model import ModelConfig, ParamStore

TASK_ORDER = (TraversalVariant.PRE_ORDER, TraversalVariant.IN_ORDER,
              TraversalVariant.POST_ORDER)


class TrainError(Exception):
    pass


class EmptyTaskDataset(TrainError):
    pass


class NonFiniteLoss(TrainError):
    pass


@dataclass
class TrainPlan:
    pretrain_epochs: int = 1
    finetune_epochs: int = 3
    pretrain_lr: float = 1e-5
    finetune_lr: float = 1e-4
    batch_size: int = 16
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.pretrain_lr <= 0 or self.finetune_lr <= 0:
            raise TrainError("learning rates must be positive")
        if self.batch_size < 1:
            raise TrainError("batch_size must be >= 1")


@dataclass
class TrainLog:
    steps: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    wall_clock_s: float = 0.0

    def add_step(self, **kv):
        self.steps.append(kv)

    def add_epoch(self, **kv):
        self.epochs.append(kv)

    def to_jsonl(self) -> str:
        # wall clock is reported separately so logs stay run-to-run identical
        lines = [json.dumps({"kind": "step", **s}, sort_keys=True) for s in self.steps]
        lines += [json.dumps({"kind": "epoch", **e}, sort_keys=True)
                  for e in self.epochs]
        return "\n".join(lines) + "\n"


class Adam:
    """Per-tensor Adam with global-norm gradient clipping."""

    def __init__(self, plan: TrainPlan):
        self.plan = plan
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: ParamStore, grads: dict[str, np.ndarray], lr: float,
             names: Optional[Sequence[str]] = None):
        plan = self.plan
        names = [n for n in (names if names is not None else grads) if n in grads]
        total = 0.0
        for n in names:
            total += float((grads[n] * grads[n]).sum())
        norm = total ** 0.5
        scale = plan.clip_norm / norm if norm > plan.clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - plan.beta1 ** self.t
        bc2 = 1.0 - plan.beta2 ** self.t
        for n in names:
            g = grads[n] * scale
            if n not in self.m:
                self.m[n] = np.zeros_like(g)
                self.v[n] = np.zeros_like(g)
            self.m[n] = plan.beta1 * self.m[n] + (1 - plan.beta1) * g
            self.v[n] = plan.beta2 * self.v[n] + (1 - plan.beta2) * g * g
            mhat = self.m[n] / bc1
            vhat = self.v[n] / bc2
            params.tensors[n] -= lr * mhat / (np.sqrt(vhat) + plan.eps)


def pad_batch(examples: Sequence[TaskExample]):
    """Right-pad sources and targets; returns (src (B,S), tgt_full (B,T+1))."""
    s = max(len(e.source_ids) for e in examples)
    t = max(len(e.target_ids) for e in examples)
    src = np.full((len(examples), s), dataset.PAD, dtype=np.int64)
    tgt = np.full((len(examples), t), dataset.PAD, dtype=np.int64)
    for i, e in enumerate(examples):
        src[i, : len(e.source_ids)] = e.source_ids
        tgt[i, : len(e.target_ids)] = e.target_ids
    return src, tgt


def _batches(examples: list[TaskExample], batch_size: int, rng: np.random.Generator):
    order = rng.permutation(len(examples))
    return [
        [examples[j] for j in order[i : i + batch_size]]
        for i in range(0, len(examples), batch_size)
    ]


def _trainable_names(params: ParamStore, task_k: str) -> list[str]:
    return [n for n in params.tensors
            if not n.startswith("dec.") or n.startswith(f"dec.{task_k}.")]


def _grad_buffers(params: ParamStore, names: Sequence[str]):
    return {n: np.zeros_like(params.tensors[n]) for n in names}


def _train_step(params, opt, batch, lr, rng, log, stage, epoch, step):
    task_k = model.task_key(batch[0].task)
    names = _trainable_names(params, task_k)
    src, tgt = pad_batch(batch)
    value, grads = model.loss_and_grads_batch(
        params, batch[0].task, src, tgt, rng=rng, grads=_grad_buffers(params, names)
    )
    if not np.isfinite(value):
        raise NonFiniteLoss(f"{stage} step {step}: loss={value}")
    opt.step(params, grads, lr, names)
    log.add_step(stage=stage, epoch=epoch, step=step, task=task_k, loss=value)
    return value


def pretrain_multitask(
    params: ParamStore,
    datasets: dict[TraversalVariant, list[TaskExample]],
    plan: TrainPlan,
    opt: Optional[Adam] = None,
) -> tuple[ParamStore, TrainLog]:
    """Round-robin homogeneous-task batches through the three decoders."""
    for variant in TASK_ORDER:
        if not datasets.get(variant):
            raise EmptyTaskDataset(f"no examples for task {variant.value!r}")
    opt = opt or Adam(plan)
    rng = np.random.default_rng(plan.seed)
    drop_rng = np.random.default_rng(plan.seed + 1) if params.config.dropout > 0 else None
    log = TrainLog()
    started = time.monotonic()
    step = 0
    for epoch in range(plan.pretrain_epochs):
        per_task = {v: _batches(datasets[v], plan.batch_size, rng) for v in TASK_ORDER}
        losses = []
        for i in range(max(len(b) for b in per_task.values())):
            for variant in TASK_ORDER:
                if i < len(per_task[variant]):
                    losses.append(_train_step(
                        params, opt, per_task[variant][i], plan.pretrain_lr,
                        drop_rng, log, "pretrain", epoch, step))
                    step += 1
        log.add_epoch(stage="pretrain", epoch=epoch,
                      mean_loss=float(np.mean(losses)))
    log.wall_clock_s = time.monotonic() - started
    return params, log


def finetune(
    params: ParamStore,
    preorder_dataset: list[TaskExample],
    plan: TrainPlan,
    opt: Optional[Adam] = None,
) -> tuple[ParamStore, TrainLog]:
    """Update the encoder and pre-order decoder only."""
    if not preorder_dataset:
        raise EmptyTaskDataset("no pre-order examples")
    opt = opt or Adam(plan)
    rng = np.random.default_rng(plan.seed + 2)
    drop_rng = np.random.default_rng(plan.seed + 3) if params.config.dropout > 0 else None
    log = TrainLog()
    started = time.monotonic()
    step = 0
    for epoch in range(plan.finetune_epochs):
        losses = []
        for batch in _batches(preorder_dataset, plan.batch_size, rng):
            losses.append(_train_step(params, opt, batch, plan.finetune_lr,
                                      drop_rng, log, "finetune", epoch, step))
            step += 1
        log.add_epoch(stage="finetune", epoch=epoch, mean_loss=float(np.mean(losses)))
    log.wall_clock_s = time.monotonic() - started
    return params, log


@dataclass
class PipelineResult:
    trained: checkpoint.TrainedModel
    pretrain_log: Optional[TrainLog]
    finetune_log: TrainLog
    pretrain_params: Optional[ParamStore] = None
    quarantined: list[dict] = field(default_factory=list)  # {"id", "reason"}


def split_by_length(records: list[MwpRecord], config: ModelConfig):
    """(kept, quarantined): a record is quarantined when its question is longer
    than max_src_len tokens or its BOS/EOS-wrapped label than max_tgt_len.
    Every traversal of a tree has the same length, so pre-order stands for all."""
    kept, quarantined = [], []
    for rec in records:
        src_len = len(dataset.tokenize(rec.masked_question))
        tgt_len = len(expr.traverse(rec.tree(), TraversalVariant.PRE_ORDER)) + 2
        if src_len > config.max_src_len:
            reason = f"source length {src_len} > max_src_len {config.max_src_len}"
        elif tgt_len > config.max_tgt_len:
            reason = f"target length {tgt_len} > max_tgt_len {config.max_tgt_len}"
        else:
            kept.append(rec)
            continue
        quarantined.append({"id": rec.id, "reason": reason})
    return kept, quarantined


def train_pipeline(
    records: list[MwpRecord],
    config: ModelConfig,
    plan: TrainPlan,
    vocab: Optional[Vocab] = None,
    embeddings: Optional[pca_init.PretrainedEmbeddings] = None,
    pretrain: bool = True,
) -> PipelineResult:
    """Quarantine over-length records, build vocab, init (optionally from PCA
    of pretrained embeddings), pretrain over all three tasks, then fine-tune
    on pre-order."""
    records, quarantined = split_by_length(records, config)
    vocab = vocab or dataset.build_vocab(records)
    config = replace(config, src_vocab_size=vocab.src_size,
                     tgt_vocab_size=vocab.tgt_size)
    embedding_init = None
    if embeddings is not None:
        embedding_init = pca_init.init_vocab_embeddings(
            vocab, embeddings, config.d_model, seed=config.seed)
    tasks = model.TASKS if pretrain else ("pre",)
    params = model.init_params(config, embedding_init=embedding_init, tasks=tasks)
    examples = dataset.augment_corpus(records, vocab)
    pre_log = None
    pre_snapshot = None
    if pretrain:
        params, pre_log = pretrain_multitask(params, examples, plan)
        pre_snapshot = params.copy()
    params, ft_log = finetune(params, examples[TraversalVariant.PRE_ORDER], plan)
    return PipelineResult(
        trained=checkpoint.TrainedModel(params=params, vocab=vocab),
        pretrain_log=pre_log,
        finetune_log=ft_log,
        pretrain_params=pre_snapshot,
        quarantined=quarantined,
    )


ABLATION_ARMS = ("full", "no_pretrain", "dim768", "scratch_embeddings")


def run_ablation(
    arm: str,
    train_records: list[MwpRecord],
    test_records: list[MwpRecord],
    config: ModelConfig,
    plan: TrainPlan,
    embeddings: Optional[pca_init.PretrainedEmbeddings] = None,
) -> dict:
    """Toggle exactly one factor relative to the full configuration."""
    if arm not in ABLATION_ARMS:
        raise TrainError(f"unknown ablation arm {arm!r}")
    pretrain = arm != "no_pretrain"
    arm_embeddings = None if arm == "scratch_embeddings" else embeddings
    if arm == "dim768":
        config = replace(config, d_model=768, d_ffn=4 * 768)
    result = train_pipeline(train_records, config, plan,
                            embeddings=arm_embeddings, pretrain=pretrain)
    report = evaluate.score(result.trained, test_records)
    return {
        "arm": arm,
        "d_model": result.trained.config.d_model,
        "pretrained": pretrain,
        "embedding_init": "pca" if arm_embeddings is not None else "random",
        "report": report,
        "model": result.trained,
    }
