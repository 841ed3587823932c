"""Two-stage training: multi-task pre-training, then pre-order fine-tuning.

Both stages are one loop, `_run_stage`, over the stage's tasks: all three
traversals, taken round-robin in homogeneous batches, to pre-train; pre-order
alone to fine-tune. Every batch updates the shared encoder plus that task's
decoder only, so fine-tuning never touches the in-order/post-order decoders'
arena spans, which tests assert by checksum. A plan with `pretrain_epochs` 0
is the no-pre-training arm: its model has the pre-order decoder only. The
width and scratch-embedding ablations are `d_model` and no `embeddings`.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import checkpoint, dataset, expr, model, pca_init
from .dataset import MwpRecord, TaskExample, Vocab
from .expr import TraversalVariant
from .model import ModelConfig, ParamStore


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
    seed: int = 0

    def __post_init__(self):
        for name in ("pretrain_lr", "finetune_lr"):
            value = getattr(self, name)
            if not 0 < value <= sys.float_info.max:  # NaN and a huge int fail too
                raise TrainError(f"{name} must be finite and positive, got {value}")
        if self.batch_size < 1:
            raise TrainError("batch_size must be >= 1")
        if min(self.pretrain_epochs, self.finetune_epochs) < 0:
            raise TrainError("pretrain_epochs and finetune_epochs must be >= 0")
        if self.pretrain_epochs == self.finetune_epochs == 0:
            raise TrainError("pretrain_epochs and finetune_epochs are both 0: "
                             "nothing would train")

    @property
    def tasks(self) -> tuple[TraversalVariant, ...]:
        """The decoders a run builds: all three, or with `pretrain_epochs` 0
        (the no-pre-training arm) the pre-order one only."""
        return tuple(TraversalVariant) if self.pretrain_epochs else (
            TraversalVariant.PRE_ORDER,)


@dataclass
class TrainLog:
    steps: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = [json.dumps({"kind": "step", **s}, sort_keys=True) for s in self.steps]
        lines += [json.dumps({"kind": "epoch", **e}, sort_keys=True)
                  for e in self.epochs]
        return "\n".join(lines) + "\n"


# Elements per pass of Adam's in-place update: the chunk's slices of the
# gradients, moments, parameters and scratch stay in cache between the ops.
ADAM_CHUNK = 1 << 16
# Adam's settings. Each is fixed because no command or config file sets it.
BETA1 = 0.9  # first-moment decay: Adam's published default
BETA2 = 0.999  # second-moment decay: Adam's published default
EPS = 1e-8  # Adam's published default; keeps a step finite where v is 0
CLIP_NORM = 1.0  # global gradient-norm bound; no batch's step can blow up


class Adam:
    """Adam with global-norm gradient clipping over spans of the parameter
    arena, at the constants above. Its moments cover the arena from `start`
    to the end, so every span the steps update must start at or after it."""

    def __init__(self, start: int = 0):
        self.start = start
        self.m = self.v = None  # made at the first step
        self.t = 0

    def step(self, params: ParamStore, grads: model.Arena, lr: float,
             spans: Sequence[tuple[int, int]]):
        """Update the `spans` of params.flat, (start, stop) offsets, from their
        gradients: at the same offsets of a whole-model gradient arena
        (`model.zero_grads`), or end to end in a one-task one
        (`model.task_grads`). Leaves those gradients zeroed."""
        flat, base = params.flat, self.start
        if self.m is None:
            self.m = np.zeros(flat.size - base, dtype=flat.dtype)
            self.v = np.zeros_like(self.m)
        if spans[0][0] < base:
            raise TrainError(f"span {spans[0]} starts before the moments at {base}")
        whole, at, parts = grads.flat.size == flat.size, 0, []
        for start, stop in spans:  # (params, grads, m, v) views of each span
            at = start if whole else at
            parts.append((flat[start:stop], grads.flat[at:at + stop - start],
                          self.m[start - base:stop - base],
                          self.v[start - base:stop - base]))
            at += stop - start
        tmp = np.empty(max(p.size for p, *_ in parts), dtype=flat.dtype)
        norm = sum(float(np.square(g, out=tmp[:g.size]).sum())
                   for _, g, _, _ in parts) ** 0.5
        scale = CLIP_NORM / norm if norm > CLIP_NORM else 1.0
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        # Per element, in this order: m = b1*m + (1-b1)*g;
        # v = b2*v + (1-b2)*g*g; p -= lr*(m/bc1) / (sqrt(v/bc2) + eps).
        for p_span, g_span, m_span, v_span in parts:
            for lo in range(0, p_span.size, ADAM_CHUNK):
                hi = lo + ADAM_CHUNK
                p, g, m, v = p_span[lo:hi], g_span[lo:hi], m_span[lo:hi], v_span[lo:hi]
                t = tmp[:g.size]
                g *= scale
                m *= BETA1
                m += np.multiply(g, 1 - BETA1, out=t)
                v *= BETA2
                v += np.multiply(np.multiply(g, 1 - BETA2, out=t), g, out=t)
                np.sqrt(np.divide(v, bc2, out=g), out=g)
                g += EPS
                np.multiply(np.divide(m, bc1, out=t), lr, out=t)
                p -= np.divide(t, g, out=t)
                g.fill(0.0)


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


def _run_stage(params: ParamStore, plan: TrainPlan, stage: str,
               tasks: Sequence[TraversalVariant],
               examples: dict[TraversalVariant, list[TaskExample]],
               epochs: int, lr: float, seed: int) -> TrainLog:
    """A stage: `epochs` passes over each task's examples, in batches drawn
    from `seed` and taken round-robin over `tasks`; dropout draws from
    `seed + 1`. A batch updates the shared encoder and its task's decoder,
    fixed arena spans, so its gradients go to a buffer of those spans only,
    one buffer for every task, and Adam's moments start at the first span
    any of `tasks` trains."""
    for task in tasks:
        if not examples.get(task):
            raise EmptyTaskDataset(f"no examples for task {task.value!r}")
    rng = np.random.default_rng(seed)
    drop_rng = np.random.default_rng(seed + 1) if params.config.dropout > 0 else None
    grads = model.task_grads(params)
    spans = {task: params.spans(task) for task in tasks}
    opt = Adam(min(s[0][0] for s in spans.values()))
    log = TrainLog()
    for epoch in range(epochs):
        per_task = [_batches(examples[task], plan.batch_size, rng) for task in tasks]
        losses = []
        for batch in [batch for row in itertools.zip_longest(*per_task)
                      for batch in row if batch is not None]:
            task = batch[0].task
            src, tgt = pad_batch(batch)
            try:  # underflow stays quiet: softmax over the -1e30 mask needs it
                with np.errstate(over="raise", invalid="raise"):
                    value, _ = model.loss_and_grads_batch(
                        params, task, src, tgt, rng=drop_rng, grads=grads[task])
                    if not np.isfinite(value):
                        raise NonFiniteLoss(f"{stage} step {len(log.steps)}: "
                                            f"loss={value}")
                    opt.step(params, grads[task], lr, spans[task])
            except FloatingPointError as e:
                raise NonFiniteLoss(f"{stage} step {len(log.steps)}: {e}") from None
            log.steps.append(dict(stage=stage, epoch=epoch, step=len(log.steps),
                                  task=task.value, loss=value))
            losses.append(value)
        log.epochs.append(dict(stage=stage, epoch=epoch,
                               mean_loss=float(np.mean(losses))))
    return log


def pretrain_multitask(
    params: ParamStore,
    datasets: dict[TraversalVariant, list[TaskExample]],
    plan: TrainPlan,
) -> tuple[ParamStore, TrainLog]:
    """Round-robin homogeneous-task batches through the three decoders."""
    return params, _run_stage(params, plan, "pretrain", tuple(TraversalVariant),
                              datasets, plan.pretrain_epochs, plan.pretrain_lr,
                              plan.seed)


def finetune(
    params: ParamStore,
    preorder_dataset: list[TaskExample],
    plan: TrainPlan,
) -> tuple[ParamStore, TrainLog]:
    """Update the encoder and pre-order decoder only."""
    pre = TraversalVariant.PRE_ORDER
    return params, _run_stage(params, plan, "finetune", (pre,),
                              {pre: preorder_dataset}, plan.finetune_epochs,
                              plan.finetune_lr, plan.seed + 2)


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
        tgt_len = len(expr.traverse(rec.tree, TraversalVariant.PRE_ORDER)) + 2
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
) -> PipelineResult:
    """Build the vocabulary from every record given (unless `vocab` is), then
    quarantine over-length records, init (optionally from PCA of pretrained
    embeddings), pretrain over all three tasks and fine-tune on pre-order.
    With `plan.pretrain_epochs` 0 the model has the pre-order decoder only,
    and nothing pre-trains."""
    vocab = vocab or dataset.build_vocab(records)
    records, quarantined = split_by_length(records, config)
    config = replace(config, src_vocab_size=vocab.src_size,
                     tgt_vocab_size=vocab.tgt_size)
    embedding_init = None
    if embeddings is not None:
        embedding_init = pca_init.init_vocab_embeddings(
            vocab, embeddings, config.d_model, seed=config.seed)
    params = model.init_params(config, embedding_init=embedding_init, tasks=plan.tasks)
    examples = dataset.augment_corpus(records, vocab)
    pre_log = pre_snapshot = None
    if plan.pretrain_epochs:
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
