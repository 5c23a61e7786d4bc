"""Optimizers and the two-phase training schedule (Adadelta for the first
phase, a fresh Nadam for the rest), fitting a variant's stages and k-fold
cross-validation.  Runs are fully determined by (seed, config, dataset)."""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, TagLevel, split_folds, validate_against_vocab
from .evaluation import average_reports, score
from .numerics import Tensor, backward
from .tagger import (
    DEFAULT_DROPOUT,
    DEFAULT_HIDDEN,
    DEFAULT_WEIGHTS,
    DBTaggerModel,
    Example,
    MaskStream,
    TaskWeights,
    chunks,
    decode,
    prepare_queries,
    total_loss,
)
from .variants import build_vocabs, make_variant


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    dropout: float = DEFAULT_DROPOUT
    hidden: int = DEFAULT_HIDDEN
    weights: tuple[float, float, float] = DEFAULT_WEIGHTS
    switch_epoch: int = 50     # last Adadelta epoch
    epochs: int = 150
    seed: int = 13
    patience: int | None = None
    stop_at_accuracy: float | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.hidden < 1:
            raise ValueError(f"hidden size must be >= 1, got {self.hidden}")
        if not 0 < self.switch_epoch <= self.epochs:
            raise ValueError(
                f"switch epoch {self.switch_epoch} must lie in 1..{self.epochs}"
            )
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        TaskWeights(*self.weights)  # validates non-negativity and the sum

    def task_weights(self) -> TaskWeights:
        return TaskWeights(*self.weights)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    phase: str
    mean_loss: float
    val_accuracy: float


def history_lines(history: list[EpochRecord]) -> str:
    out = ["epoch,phase,mean_loss,val_accuracy"]
    for rec in history:
        out.append(f"{rec.epoch},{rec.phase},{rec.mean_loss!r},{rec.val_accuracy!r}")
    return "\n".join(out) + "\n"


ADADELTA_RHO, ADADELTA_EPS = 0.95, 1e-6
NADAM_ALPHA, NADAM_BETA1, NADAM_BETA2, NADAM_EPS = 0.002, 0.9, 0.999, 1e-8


class AdadeltaState:
    """Per-parameter accumulators of squared gradients and squared updates."""

    def __init__(self, params: list[Tensor]):
        self.acc_grad = [np.zeros(p.shape) for p in params]
        self.acc_update = [np.zeros(p.shape) for p in params]


def adadelta_step(state: AdadeltaState, params: list[Tensor], grads: list[np.ndarray]) -> None:
    """One in-place Adadelta update."""
    rho, eps = ADADELTA_RHO, ADADELTA_EPS
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        state.acc_grad[i] = rho * state.acc_grad[i] + (1.0 - rho) * g * g
        delta = -(np.sqrt(state.acc_update[i] + eps) / np.sqrt(state.acc_grad[i] + eps)) * g
        state.acc_update[i] = rho * state.acc_update[i] + (1.0 - rho) * delta * delta
        p.data = p.data + delta


class NadamState:
    """Adam moments with a Nesterov-corrected update direction."""

    def __init__(self, params: list[Tensor]):
        self.step_count = 0
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]


def nadam_step(state: NadamState, params: list[Tensor], grads: list[np.ndarray]) -> None:
    """One in-place Nadam update."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = NADAM_BETA1, NADAM_BETA2
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / (1.0 - b1 ** (t + 1))
        v_hat = state.v[i] / (1.0 - b2**t)
        direction = b1 * m_hat + (1.0 - b1) * g / (1.0 - b1**t)
        p.data = p.data - NADAM_ALPHA * direction / (np.sqrt(v_hat) + NADAM_EPS)


def token_accuracy(model: DBTaggerModel, examples: list[Example]) -> float:
    """Fraction of the prepared queries' tokens tagged right at the last head's level."""
    level, symbols = model.heads[-1].level, model.tag_vocab.symbols
    correct = total = 0
    predictions = decode(model, [e.inputs for e in examples], (level,))[level]
    for example, predicted in zip(examples, predictions):
        gold = example.gold[-1]
        correct += sum(1 for p, g in zip(predicted, gold) if p == symbols[g])
        total += len(gold)
    return correct / total if total else 1.0


def _gradients(params: list[Tensor]) -> list[np.ndarray]:
    return [p.grad if p.grad is not None else np.zeros(p.shape) for p in params]


def _backward_pass(model: DBTaggerModel, chunk, mask_stream, epoch: int) -> list[float]:
    """One packed pass over a chunk of queries: add its gradients into the
    grad slots and return each query's loss.  The tape dies on return,
    before the next chunk's forward pass."""
    loss, values, tape = total_loss(model, chunk, mask_stream)
    losses = values.tolist()
    for example, value in zip(chunk, losses):
        if not np.isfinite(value):
            words = " ".join(example.query.words)
            raise TrainingError(f"non-finite loss {value} at epoch {epoch} on query {words!r}")
    backward(tape, loss)
    return losses


def train(
    model: DBTaggerModel,
    dataset: Dataset,
    config: TrainConfig,
    val: Dataset | None = None,
) -> list[EpochRecord]:
    """Fit in place and return the per-epoch history.

    The queries are prepared once per fit.  Epochs 1..switch use Adadelta,
    the rest Nadam (fresh state at the switch).  Each epoch shuffles queries
    with the seeded stream, batches them, sums the query losses over a batch
    (one packed pass per chunk of it) and applies one optimizer step per
    batch.  Dropout masks are drawn at the model's own rate.  ``val_accuracy``
    is measured on ``val`` when given, else on the training set.
    """
    params = [t for _, t in model.parameters()]
    shuffle_rng = random.Random(config.seed)
    mask_stream = MaskStream(model.dropout_rate, np.random.default_rng([config.seed, 0xD0]))
    adadelta: AdadeltaState | None = AdadeltaState(params)
    nadam: NadamState | None = None
    train_set = prepare_queries(model, dataset.queries)
    eval_set = train_set if val is None else prepare_queries(model, val.queries)
    history: list[EpochRecord] = []
    best_acc = -1.0
    stale = 0

    for epoch in range(1, config.epochs + 1):
        if epoch <= config.switch_epoch:
            phase = "adadelta"
        else:
            phase = "nadam"
            if nadam is None:
                adadelta = None  # release its accumulators before Nadam allocates
                nadam = NadamState(params)
        order = list(train_set)
        shuffle_rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            for p in params:
                p.zero_grad()
            for chunk in chunks(order[start : start + config.batch_size]):
                for value in _backward_pass(model, chunk, mask_stream, epoch):
                    epoch_loss += value
            # the gradient list dies with the call, so that the next batch's
            # passes do not hold this batch's gradients
            if phase == "adadelta":
                adadelta_step(adadelta, params, _gradients(params))
            else:
                nadam_step(nadam, params, _gradients(params))
        mean_loss = epoch_loss / len(order)
        val_acc = token_accuracy(model, eval_set)
        history.append(EpochRecord(epoch=epoch, phase=phase, mean_loss=mean_loss, val_accuracy=val_acc))
        if config.stop_at_accuracy is not None and val_acc >= config.stop_at_accuracy:
            break
        if config.patience is not None:
            if val_acc > best_acc:
                best_acc = val_acc
                stale = 0
            else:
                stale += 1
                if stale > config.patience:
                    break
    return history


def fit_variant(name, train_ds: Dataset, full_ds: Dataset, schema, embeddings, config, val=None):
    """Build a variant and train its stages in order, each scored on
    ``val``; returns the last stage, which tags, and its history.

    The vocabularies come from the full dataset plus the schema, so fold
    splits cannot strand tags, and a corpus whose schema tags the schema
    cannot derive is refused with a CorpusError before anything is built.
    """
    vocabs = build_vocabs(full_ds, schema)
    validate_against_vocab(full_ds, vocabs[TagLevel.SCHEMA])
    for stage in make_variant(name, vocabs, embeddings, config):
        history = train(stage, train_ds, config, val=val)
    return stage, history


def thread_count() -> int:
    raw = os.environ.get("DBTAG_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"DBTAG_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def cross_validate(
    dataset: Dataset,
    schema,
    embeddings,
    config: TrainConfig,
    k: int,
    variant: str,
):
    """Train on k-1 folds and score the held-out fold, k times.

    Returns (per-fold MetricsReport list, averaged MetricsReport).  Folds
    share nothing mutable, so they may run in parallel (DBTAG_THREADS).
    """
    folds = split_folds(dataset, k, config.seed)
    jobs = [
        (variant, train_ds, test_ds, dataset, schema, embeddings, config)
        for train_ds, test_ds in folds
    ]
    workers = min(thread_count(), k)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_fold, jobs))
    else:
        reports = [_run_fold(job) for job in jobs]
    return reports, average_reports(reports)


def _run_fold(job):
    variant, train_ds, test_ds, full_ds, schema, embeddings, config = job
    predictor, _ = fit_variant(variant, train_ds, full_ds, schema, embeddings, config)
    return score(predictor.predict_tags([q.words for q in test_ds.queries]), test_ds)
