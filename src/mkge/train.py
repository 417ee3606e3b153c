"""Regularized 1-vs-all training: the batch gradient, Adagrad, and the epoch
loop.

Every candidate tail t' contributes log(1 + exp(-y * f(h, t'))) with y = +1
for the true tail and y = -1 otherwise; the batch loss is the mean over
triples of that inner sum plus the triple's regularization share
lambda * (l1 * G_p(h) + l2 * G_p(r) + l3 * G_p(t)). The variant's score
kernel (`model.cosine_kernel` or `model.distance_kernel`) owns the logistic
term and its gradients on the transformed heads and the combined entities.
This module adds the regularizer and the closed-form reverse mode through the
head transform, `combine` and the unit parameterizations (phase angles and
the quaternion exponential map).

The whole-table entity work runs per block of entity rows
(`model.rows_per_block`) on the process's one thread pool (`mkge.map_blocks`;
one worker per usable core, at most MKGE_THREADS). Forward,
`model.combined_embeddings` builds the combined entities from each block's
`model.entity_inputs`; the score kernel then runs on the whole combined table
and the regularizer scatters its terms into that table's gradient. The head
transform's gradient is pulled back first, through each factor pair (scalar
part, scaling) and (vector part, rotation): the relation part is pulled
through its group and scattered in batch order into the relation gradient,
and the head rows' entity part is kept as element planes (w, B, k). One pass
over the entity rows follows. Each block rebuilds its `model.entity_inputs`
(cheaper than keeping them for the whole table), pulls its rows of the
combined-table gradient through `combine`, adds in batch order the head parts
of the batch rows whose head lies in the block, and pulls each part's sum
through its group once, into a block of the entity gradient (column blocks
as in `ParameterStore.entity_parts`) that it hands to `update(rows, grad)`.
`fit`'s update is `adagrad_step` on the block's rows, so a step reads the
entity table twice (forward, then backward and update) and holds no
table-sized entity gradient; without an update the blocks fill a dense
gradient table, the reference the tests compare against. Blocks write
disjoint rows, so no result depends on the pool size or block size.

Layouts: the reverse mode computes on component planes (w, ..., k), as
`algebra` does. Each block's parameter and element planes, its rows of the
combined-table gradient, and the head-side elements and their gradients are
planes. The combined table and its gradient (E, k, w) and the transformed
heads passed to the kernel (B, k, w) keep the kernels' element-last layout;
the parameter and gradient tables keep their column blocks, written through
planes views.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra, data, map_blocks, model, ranking
from .errors import NonFiniteLoss, ShapeMismatch

ADAGRAD_EPS = 1e-10


@dataclass(frozen=True)
class LossConfig:
    p: int = 3
    lam: float = 0.0
    lambda1: float = 2.0
    lambda2: float = 0.5
    lambda3: float = 2.0

    def __post_init__(self):
        data.check_integers(p=self.p)
        data.check_reals(lam=self.lam, lambda1=self.lambda1, lambda2=self.lambda2,
                         lambda3=self.lambda3)
        if self.p not in (2, 3):
            raise ValueError("norm exponent p must be 2 or 3")
        rates = (self.lam, self.lambda1, self.lambda2, self.lambda3)
        if not all(rate >= 0 and math.isfinite(rate) for rate in rates):
            raise ValueError(f"regularization rates must be finite and >= 0, got {rates}")


@dataclass
class OptimizerState:
    """Adagrad accumulators, one per free parameter table."""

    acc_entity: np.ndarray
    acc_relation: np.ndarray
    lr: float = 0.1

    @classmethod
    def for_store(cls, store, lr=0.1):
        return cls(
            acc_entity=np.zeros_like(store.entity),
            acc_relation=np.zeros_like(store.relation),
            lr=lr,
        )


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    lr: float
    valid_mrr: float | None
    seconds: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)


def _gp_pieces(norms, p):
    """Given per-dimension field norms (..., k): G_p value (...,) and the
    coefficient such that dG_p/dx_i = coeff_i * 2 * x_i."""
    total = np.sum(norms**p, axis=-1)
    gp = total ** (1.0 / p)
    safe = np.where(total > 0.0, total, 1.0)
    coeff = np.where(total > 0.0, safe ** ((1.0 - p) / p), 0.0)[..., None] * norms ** (p - 1)
    return gp, coeff


def batch_loss_and_grads(store, triples, cfg, update=None):
    """Mean 1-vs-all loss of a batch plus exact gradients.

    Returns (loss, grad_entity, grad_relation) with gradient tables shaped
    like the parameter tables. The entity gradient is handed over per row
    block, as update(rows, grad_rows) with `rows` a slice of entity rows and
    `grad_rows` their gradient, shaped like `store.entity[rows]`. Without
    `update` those calls fill a dense table (`grad_entity.__setitem__`);
    given one, the call returns (loss, None, grad_relation) and allocates no
    table-sized gradient. `update` runs on the thread pool after its block
    has read its parameters, and may write those rows of `store.entity`.
    The loss's regularizer share takes G_p of the combined
    head, the materialized scaling and the combined tail alike, whatever
    their groups. A loss that is not finite raises NonFiniteLoss before any
    block runs, with or without `update`, so nothing is updated and no
    gradient is returned. A batch that is not a nonempty (n, 3) id array
    raises ShapeMismatch, and an id outside the parameter tables IndexError.
    """
    triples = data.check_triples(triples, store.n_entities, store.n_relations, "batch")
    variant = store.variant
    b = len(triples)
    heads, rels, tails = triples.T

    # the head transform's four factors, in the order of `model.head_inputs`
    groups = (variant.scalar, variant.vector, variant.scaling, variant.rotation)
    params, elems = model.head_inputs(store, heads, rels)  # planes (w, B, k)
    s2, v2, h_prime = model.head_forward(*elems)
    c_all = model.combined_embeddings(store)  # (E, k, w)
    data_loss, grad_h_prime, grad_c = variant.kernel(model.element_last(h_prime), c_all, tails)

    # the regularizer, one rule for all three terms: G_p and dG_p/dx = 2 x * coeff
    # of the combined heads and tails and of the materialized scalings. For a
    # unit scaling group that gives k^(1/p) and a zero gradient, up to rounding.
    scale = cfg.lam / b
    c_h, c_t, g_s = c_all[heads], c_all[tails], elems[2]
    gp_h, coeff_h = _gp_pieces(np.sum(c_h * c_h, axis=-1), cfg.p)
    gp_t, coeff_t = _gp_pieces(np.sum(c_t * c_t, axis=-1), cfg.p)
    gp_r, coeff_r = _gp_pieces(algebra.field_norm(g_s), cfg.p)
    reg_loss = cfg.lam * np.sum(
        cfg.lambda1 * gp_h + cfg.lambda2 * gp_r + cfg.lambda3 * gp_t
    )
    loss = float((data_loss + reg_loss) / b)
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss {loss}")

    reg_r = scale * cfg.lambda2 * 2.0 * g_s * coeff_r
    np.add.at(grad_c, heads, scale * cfg.lambda1 * 2.0 * c_h * coeff_h[..., None])
    np.add.at(grad_c, tails, scale * cfg.lambda3 * 2.0 * c_t * coeff_t[..., None])

    # head transform backward, one pass per factor pair: (scalar part,
    # scaling), then (vector part, rotation). Each scatters the relation
    # group's parameter gradient in batch order into the relation gradient
    # and keeps the heads' entity part as element planes (w, B, k).
    grad_relation = np.zeros_like(store.relation)
    grad_head = []
    for part, (grad_out, reg) in enumerate(
        zip(algebra.elem_mul_backward(model.planes(grad_h_prime), s2, v2), (reg_r, 0.0))
    ):
        act = part + 2  # the relation factor acting on this entity part
        grad_part, grad_act = algebra.elem_mul_backward(grad_out, elems[part], elems[act])
        grad_head.append(grad_part)
        np.add.at(store.relation_parts(grad_relation)[part], rels,
                  np.moveaxis(groups[act].param_backward(params[act], elems[act],
                                                         grad_act + reg), 0, -1))

    # entity backward, per row block: the mirror of the forward of
    # `model.combined_embeddings`, pulling the block's rows of grad_c through
    # combine, adding in batch order the head parts of the batch rows whose
    # head lies in the block, and pulling the sum through each group
    grad_entity = np.empty_like(store.entity) if update is None else None
    update = grad_entity.__setitem__ if update is None else update

    def backward(rows):
        block_params, block_elems = model.entity_inputs(store, rows)
        grad = np.empty_like(store.entity[rows])
        in_block = np.flatnonzero((heads >= rows.start) & (heads < rows.stop))
        for group, param, elem, grad_elem, grad_part, head_part in zip(
            groups[:2], block_params, block_elems,
            algebra.elem_mul_backward(model.planes(grad_c[rows]), *block_elems),
            store.entity_parts(grad), grad_head,
        ):
            np.add.at(grad_elem, (slice(None), heads[in_block] - rows.start),
                      head_part[:, in_block])
            np.moveaxis(grad_part, -1, 0)[...] = group.param_backward(param, elem, grad_elem)
        update(rows, grad)

    for _ in map_blocks(backward, store.n_entities, model.rows_per_block(store)):
        pass
    return loss, grad_entity, grad_relation


def adagrad_step(table, acc, grad, lr):
    """In-place Adagrad update of a parameter table or row block and its
    accumulator: acc += g^2; p -= lr * g / (sqrt(acc) + eps)."""
    if not table.shape == acc.shape == grad.shape:
        raise ShapeMismatch(f"Adagrad shapes differ: table {table.shape}, "
                            f"accumulator {acc.shape}, gradient {grad.shape}")
    acc += grad**2
    table -= lr * grad / (np.sqrt(acc) + ADAGRAD_EPS)


@dataclass(frozen=True)
class FitConfig:
    epochs: int = 100
    batch_size: int = 100
    lr: float = 0.1
    schedule: str = "constant"
    seed: int = 0
    eval_interval: int = 5
    patience: int = 10
    loss: LossConfig = LossConfig()

    def __post_init__(self):
        data.check_integers(epochs=self.epochs, batch_size=self.batch_size, seed=self.seed,
                            eval_interval=self.eval_interval, patience=self.patience)
        data.check_reals(lr=self.lr)
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch size >= 1")
        if self.schedule not in ("constant", "exp"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.eval_interval < 1 or self.patience < 1:
            raise ValueError("eval interval and patience must be >= 1")

    def lr_at(self, epoch):
        """`lr`, or under "exp" `lr * 0.1 ** (epoch / epochs)`: the factor 0.1 is
        reached at epoch `epochs`, one past the last epoch trained, which trains
        at `lr * 0.1 ** ((epochs - 1) / epochs)`. With no epochs, `lr`."""
        if self.schedule == "exp" and self.epochs > 0:
            return self.lr * 0.1 ** (epoch / self.epochs)
        return self.lr


def fit(store, train_triples, cfg, valid_triples=None, filter_index=None, opt_state=None,
        start_epoch=0, stop_epoch=None, callback=None):
    """Train in place over seeded shuffled mini-batches.

    Validation MRR (filtered, both directions) is computed every
    eval_interval epochs when a validation split and filter index are given;
    training stops early after `patience` evaluations without improvement.
    Both splits are checked before the first batch, so a bad one changes
    nothing: a train split that is not a nonempty (n, 3) id array raises
    ShapeMismatch, and one with an entity id outside [0, E) or a relation id
    outside [0, R) IndexError; a validation split that will be evaluated is
    checked as `ranking.evaluate` checks it, relations in [0, R / 2).
    """
    train_triples = data.check_triples(train_triples, store.n_entities, store.n_relations,
                                       "train split")
    validates = valid_triples is not None and len(valid_triples) > 0 and filter_index is not None
    if validates:
        data.check_triples(valid_triples, store.n_entities, store.n_relations // 2,
                           "validation split")
    if opt_state is None:
        opt_state = OptimizerState.for_store(store, lr=cfg.lr)
    report = TrainReport()
    best_mrr, stale = -np.inf, 0
    for epoch in range(start_epoch, cfg.epochs if stop_epoch is None else stop_epoch):
        t0 = time.perf_counter()
        lr = cfg.lr_at(epoch)
        # keyed by (seed, epoch) so a resumed run replays the same shuffles
        order = np.random.default_rng((cfg.seed, epoch)).permutation(len(train_triples))
        total, n_batches = 0.0, 0

        def update(rows, grad):  # Adagrad on each entity row block of the step
            adagrad_step(store.entity[rows], opt_state.acc_entity[rows], grad, lr)

        for start in range(0, len(order), cfg.batch_size):
            batch = train_triples[order[start : start + cfg.batch_size]]
            try:
                loss, _, g_r = batch_loss_and_grads(store, batch, cfg.loss, update)
            except NonFiniteLoss as err:
                raise NonFiniteLoss(f"{err} at epoch {epoch}") from None
            adagrad_step(store.relation, opt_state.acc_relation, g_r, lr)
            total += loss
            n_batches += 1
        valid_mrr = None
        if validates and (epoch + 1) % cfg.eval_interval == 0:
            valid_mrr = ranking.evaluate(valid_triples, store, filter_index).mrr
            if valid_mrr > best_mrr + 1e-12:
                best_mrr, stale = valid_mrr, 0
            else:
                stale += 1
        rec = EpochRecord(epoch, total / max(1, n_batches), lr, valid_mrr,
                          time.perf_counter() - t0)
        report.epochs.append(rec)
        if callback is not None:
            callback(rec, store)
        if valid_mrr is not None and stale >= cfg.patience:
            break
    return report, opt_state
