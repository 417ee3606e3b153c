"""Filtered link-prediction evaluation with pessimistic (true-last) ties.

Head prediction reuses the tail-scoring kernel through reciprocal relations:
the rank of h in (?, r, t) is the rank of h among tails of (t, r + |R|, ?).
Raw ranking passes filter_index=None.

A query's rank depends only on its (head, relation) key and its true
candidate, so `evaluate` walks the queries sorted by key, in blocks of
EVAL_BLOCK_ELEMENTS scores, and scores and masks each distinct key of a block
once. The first query of a key ranks on the key's row, and its later queries
on rows gathered by key; the ranks come back in query order.

`MetricsReport.ranks` is a record array of the queries, with fields h_id,
r_id, t_id, direction and rank: row 2i is split triple i's tail query and row
2i + 1 its head query, both holding the triple's (h, r, t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import data, model
from .errors import ShapeMismatch

# scores of one block of evaluate's queries, 16 MB of float64: 144 queries
# at E = 14,541, and every query of a desk-scale KG in one block. It bounds a
# block's memory whatever E is, and splits work only; no rank depends on it.
EVAL_BLOCK_ELEMENTS = 2**21


@dataclass(frozen=True)
class RankMetrics:
    mrr: float
    hits1: float
    hits3: float
    hits10: float

    @classmethod
    def of(cls, ranks):
        """MRR and Hits@1/3/10 of an array of ranks."""
        return cls(float(np.mean(1.0 / ranks)),
                   *(float(np.mean(ranks <= n)) for n in (1, 3, 10)))


@dataclass(frozen=True)
class MetricsReport(RankMetrics):  # the metrics of both directions, and their breakdowns
    per_relation: dict  # base relation id -> (mrr, count)
    tail: RankMetrics  # tail queries (h, r, ?) alone
    head: RankMetrics  # head queries (?, r, t) alone
    # a record per query, as the module docstring says; out of ==, as an array
    # has no truth value: compare per-query ranks as `ranks.rank`
    ranks: np.recarray = field(compare=False)

    def format_table(self):
        rows = [("MRR", self.mrr), ("Hits@1", self.hits1), ("Hits@3", self.hits3),
                ("Hits@10", self.hits10)]
        return "\n".join(f"{name:<8} {value:.4f}" for name, value in rows)


def bottom_rank(scores, true_idx, filtered=None):
    """Ranks of true_idx (...) among the scores (..., E) not masked by the bool
    array `filtered`; the true candidate counts even where the mask lists it.
    It goes last among exact score ties (pessimistic, never inflates); masked
    scores drop out of the count, so a -inf true score ties with no masked -inf.
    A candidate counts unless it scores below the true one, so a NaN true score
    ranks last among the unmasked and a NaN candidate counts against it. The
    ranks are np.intp, shaped like true_idx; a true_idx that is not integer
    ids raises ShapeMismatch, and one outside [0, E) IndexError (`data.as_ids`).
    A mask that is not bool or not of the scores' shape raises ShapeMismatch,
    where numpy would broadcast a row mask over every row."""
    scores = np.asarray(scores, dtype=np.float64)
    true_idx = data.as_ids(true_idx, "true index", scores.shape[-1], ndim=scores.ndim - 1)
    at_true = true_idx[..., None]
    # the candidates that drop out: those beaten by the true score, and the
    # masked ones other than the true candidate; a NaN is never beaten
    out = scores < np.take_along_axis(scores, at_true, axis=-1)
    if filtered is not None:
        filtered = np.asarray(filtered)
        if filtered.dtype != bool or filtered.shape != scores.shape:
            raise ShapeMismatch(f"filter mask must be a bool array of shape {scores.shape}, "
                                f"got a {filtered.dtype} array of shape {filtered.shape}")
        out |= filtered
        np.put_along_axis(out, at_true, False, axis=-1)
    # summing the mask's bytes into int32 counts it about twice as fast as
    # count_nonzero, whose intp result the cast keeps
    dropped = np.add.reduce(out.view(np.int8), axis=-1, dtype=np.int32).astype(np.intp)
    return scores.shape[-1] - dropped


def evaluate(split, store, filter_index):
    """Filtered MRR / Hits@K over both directions of every triple.

    The metrics average the tail-direction and head-direction (reciprocal)
    ranks, and `tail` and `head` hold each direction's own; per-relation MRR
    aggregates both directions under the base relation id. filter_index is
    None for raw ranking. A split that is not a nonempty (n, 3) id array, or
    a filter index built for other entity or relation counts, raises
    ShapeMismatch; an entity id outside [0, E) or a relation id outside
    [0, R / 2) raises IndexError.
    """
    n_base = store.n_relations // 2
    split = data.check_triples(split, store.n_entities, n_base, "split")
    if filter_index is not None and (filter_index.n_entities, filter_index.n_relations) != (
            store.n_entities, store.n_relations):
        raise ShapeMismatch("filter index was built for other entity or relation counts")
    c_all = model.combined_embeddings(store)

    # row 2i is the tail query (h, r, t) of triple i, row 2i + 1 its head query (t, r + |R|, h)
    queries = np.stack([split, split[:, ::-1] + [0, n_base, 0]], axis=1).reshape(-1, 3)
    keys = queries[:, 0] * store.n_relations + queries[:, 1]
    order = np.argsort(keys, kind="stable")
    ranks = np.empty(len(queries), dtype=np.intp)  # bottom_rank's dtype
    step = max(1, EVAL_BLOCK_ELEMENTS // store.n_entities)
    for start in range(0, len(order), step):
        block = order[start : start + step]
        heads, rels, trues = queries[block].T
        block_keys = keys[block]
        new = np.concatenate(([True], block_keys[1:] != block_keys[:-1]))  # a key's first query
        scores = model.score_all_tails(store, heads[new], rels[new], tails_combined=c_all)
        filtered = None if filter_index is None else filter_index.mask(heads[new], rels[new])
        ranks[block[new]] = bottom_rank(scores, trues[new], filtered)
        row = np.cumsum(new)[~new] - 1  # the key row of each later query
        ranks[block[~new]] = bottom_rank(
            scores[row], trues[~new], None if filtered is None else filtered[row])
        # free the block's scores and mask before the next block allocates
        # its own; holding two blocks at once raised peak RSS by 7%
        del scores, filtered

    inverse = 1.0 / ranks
    # bincount adds in query order, as a running sum per relation does
    sums = np.bincount(np.repeat(split[:, 1], 2), weights=inverse).tolist()
    counts = np.bincount(split[:, 1]).tolist()  # triples; mrr still averages both directions
    return MetricsReport(
        **vars(RankMetrics.of(ranks)),
        per_relation={rid: (sums[rid] / (2 * c), c) for rid, c in enumerate(counts) if c},
        tail=RankMetrics.of(ranks[0::2]),
        head=RankMetrics.of(ranks[1::2]),
        ranks=np.rec.fromarrays([*np.repeat(split, 2, axis=0).T,
                                 np.tile(["tail", "head"], len(split)), ranks],
                                names="h_id,r_id,t_id,direction,rank"),
    )


def per_relation_table(report, vocab):
    """Rows (relation name, mrr, direction count) sorted by count descending."""
    rows = [(vocab.relation_name(rid), mrr, count)
            for rid, (mrr, count) in report.per_relation.items()]
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows
