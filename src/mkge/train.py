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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra, model
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
        if self.p not in (2, 3):
            raise ValueError("norm exponent p must be 2 or 3")
        if min(self.lam, self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("regularization rates must be nonnegative")


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

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss,lr,valid_mrr,seconds\n")
            for rec in self.epochs:
                mrr = "" if rec.valid_mrr is None else f"{rec.valid_mrr:.6f}"
                fh.write(f"{rec.epoch},{rec.loss:.10f},{rec.lr:.10f},{mrr},{rec.seconds:.3f}\n")


def lr_at(epoch, schedule, lr0, total_epochs):
    """Constant schedule, or geometric decay reaching a total factor of 0.1
    at the final epoch."""
    if schedule == "constant":
        return lr0
    if schedule == "exp":
        if total_epochs <= 0:
            return lr0
        return lr0 * 0.1 ** (epoch / total_epochs)
    raise ValueError(f"unknown schedule {schedule!r}")


def _gp_pieces(norms, p):
    """Given per-dimension field norms (..., k): G_p value (...,) and the
    coefficient such that dG_p/dx_i = coeff_i * 2 * x_i."""
    total = np.sum(norms**p, axis=-1)
    gp = total ** (1.0 / p)
    safe = np.where(total > 0.0, total, 1.0)
    coeff = np.where(total > 0.0, safe ** ((1.0 - p) / p), 0.0)[..., None] * norms ** (p - 1)
    return gp, coeff


def regularizer(store, h_id, r_id, t_id, cfg):
    """lambda * (l1*G_p(h) + l2*G_p(r) + l3*G_p(t)) with h, t the combined
    entity tuples and r the materialized scaling tuple."""
    c = model.combined_embeddings(store, np.array([h_id, t_id]))
    gp_h = algebra.g_p_norm(c[0], cfg.p)
    gp_t = algebra.g_p_norm(c[1], cfg.p)
    rs, _ = store.relation_parts()
    g_s = store.variant.scaling.materialize(rs[np.array([r_id])])
    gp_r = algebra.g_p_norm(g_s[0], cfg.p)
    return float(cfg.lam * (cfg.lambda1 * gp_h + cfg.lambda2 * gp_r + cfg.lambda3 * gp_t))


def batch_loss_and_grads(store, triples, cfg):
    """Mean 1-vs-all loss of a batch plus exact gradients.

    Returns (loss, grad_entity, grad_relation) with gradient tables shaped
    like the parameter tables; frozen ablation columns receive zero gradient.
    An id outside the parameter tables raises IndexError.
    """
    triples = np.asarray(triples, dtype=np.int64)
    if triples.ndim != 2 or triples.shape[1] != 3 or len(triples) == 0:
        raise ShapeMismatch("batch must be a nonempty (n, 3) id array")
    variant = store.variant
    b = len(triples)
    heads, rels, tails = triples[:, 0], triples[:, 1], triples[:, 2]
    groups = (variant.scaling, variant.rotation)
    n_ent, k = store.n_entities, store.k
    if (triples.min() < 0 or max(heads.max(), tails.max()) >= n_ent
            or rels.max() >= store.n_relations):
        raise IndexError("triple id out of range")

    # forward
    es, ev = store.entity_parts()
    vec_all = model.materialize_vector(ev, variant)
    c_all = model.combine(es, vec_all)  # (E, k, w)
    parts = (es[heads], vec_all[heads])
    params = [p[rels] for p in store.relation_parts()]
    elems = [g.materialize(p) for g, p in zip(groups, params)]
    s2, v2, h_prime = model.head_forward(*parts, *elems)  # h_prime: (B, k, w)
    data_loss, grad_h_prime, grad_c = variant.kernel(h_prime, c_all, tails)

    scale = cfg.lam / b
    norms_c = np.sum(c_all * c_all, axis=-1)  # (E, k)
    gp_h, coeff_h = _gp_pieces(norms_c[heads], cfg.p)
    gp_t, coeff_t = _gp_pieces(norms_c[tails], cfg.p)
    if variant.scaling.unit:
        # G_p(r) of unit (or fixed) scaling elements is the constant k^(1/p).
        # Adding its zero gradient can only flip the sign of a zero, which the
        # scatter into the zeroed gradient table below drops.
        gp_r, reg_r = np.full(b, float(k) ** (1.0 / cfg.p)), 0.0
    else:
        g_s = elems[0]
        gp_r, coeff_r = _gp_pieces(np.sum(g_s * g_s, axis=-1), cfg.p)
        reg_r = scale * cfg.lambda2 * 2.0 * g_s * coeff_r[..., None]
    reg_loss = cfg.lam * np.sum(
        cfg.lambda1 * gp_h + cfg.lambda2 * gp_r + cfg.lambda3 * gp_t
    )
    loss = (data_loss + reg_loss) / b

    # regularizer contributions: dG_p/dx = 2 x * coeff
    np.add.at(grad_c, heads, scale * cfg.lambda1 * 2.0 * c_all[heads] * coeff_h[..., None])
    np.add.at(grad_c, tails, scale * cfg.lambda3 * 2.0 * c_all[tails] * coeff_t[..., None])

    # head transform backward, one pass per group: (scaling, rotation)
    grad_relation = np.zeros_like(store.relation)
    grad_heads = []
    for group, part, elem, param, grad_out, reg, grad_block in zip(
        groups, parts, elems, params,
        model.product_backward(grad_h_prime, s2, v2), (reg_r, 0.0),
        store.relation_parts(grad_relation),
    ):
        grad_part, grad_elem = model.product_backward(grad_out, part, elem)
        grad_heads.append(grad_part)
        np.add.at(grad_block, rels, group.param_backward(param, elem, grad_elem + reg))

    # entity-side backward through combine and the unit parameterization
    grad_s_all, grad_v_all = model.product_backward(grad_c, es, vec_all)
    np.add.at(grad_s_all, heads, grad_heads[0])
    np.add.at(grad_v_all, heads, grad_heads[1])
    grad_ev = variant.vector.param_backward(ev, vec_all, grad_v_all)
    grad_entity = np.concatenate(
        [grad_s_all.reshape(n_ent, -1), grad_ev.reshape(n_ent, -1)], axis=1
    )

    ent_mask, rel_mask = store.free_masks()
    grad_entity *= ent_mask
    grad_relation *= rel_mask
    return float(loss), grad_entity, grad_relation


def triple_loss(store, h_id, r_id, t_id, cfg):
    """Loss contribution of one triple (its 1-vs-all sum plus its Phi share)."""
    loss, _, _ = batch_loss_and_grads(store, np.array([[h_id, r_id, t_id]]), cfg)
    return loss


def adagrad_step(store, state, grad_entity, grad_relation, lr=None):
    """In-place Adagrad update: acc += g^2; p -= lr * g / (sqrt(acc) + eps)."""
    if grad_entity.shape != store.entity.shape or grad_relation.shape != store.relation.shape:
        raise ShapeMismatch("gradient tables do not match parameter tables")
    lr = state.lr if lr is None else lr
    state.acc_entity += grad_entity**2
    state.acc_relation += grad_relation**2
    store.entity -= lr * grad_entity / (np.sqrt(state.acc_entity) + ADAGRAD_EPS)
    store.relation -= lr * grad_relation / (np.sqrt(state.acc_relation) + ADAGRAD_EPS)


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


def fit(store, train_triples, cfg, valid_triples=None, filter_index=None, opt_state=None,
        start_epoch=0, stop_epoch=None, callback=None):
    """Train in place over seeded shuffled mini-batches.

    Validation MRR (filtered, both directions) is computed every
    eval_interval epochs when a validation split and filter index are given;
    training stops early after `patience` evaluations without improvement.
    """
    from . import ranking  # deferred: ranking imports model only

    train_triples = np.asarray(train_triples, dtype=np.int64)
    if opt_state is None:
        opt_state = OptimizerState.for_store(store, lr=cfg.lr)
    report = TrainReport()
    best_mrr, stale = -np.inf, 0
    for epoch in range(start_epoch, cfg.epochs if stop_epoch is None else stop_epoch):
        t0 = time.perf_counter()
        lr = lr_at(epoch, cfg.schedule, cfg.lr, cfg.epochs)
        # keyed by (seed, epoch) so a resumed run replays the same shuffles
        order = np.random.default_rng((cfg.seed, epoch)).permutation(len(train_triples))
        total, n_batches = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = train_triples[order[start : start + cfg.batch_size]]
            loss, g_e, g_r = batch_loss_and_grads(store, batch, cfg.loss)
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"loss {loss} at epoch {epoch}")
            adagrad_step(store, opt_state, g_e, g_r, lr=lr)
            total += loss
            n_batches += 1
        valid_mrr = None
        if (
            valid_triples is not None
            and len(valid_triples)
            and filter_index is not None
            and (epoch + 1) % cfg.eval_interval == 0
        ):
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
