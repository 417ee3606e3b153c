"""Filtered link-prediction evaluation with pessimistic (true-last) ties.

Head prediction reuses the tail-scoring kernel through reciprocal relations:
the rank of h in (?, r, t) is the rank of h among tails of (t, r + |R|, ?).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import ShapeMismatch

# queries scored per score_all_tails call
EVAL_CHUNK_QUERIES = 64


@dataclass(frozen=True)
class RankRecord:
    h_id: int
    r_id: int
    t_id: int
    direction: str  # 'tail' | 'head'
    rank: int


@dataclass
class MetricsReport:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    per_relation: dict  # base relation id -> (mrr, count)
    ranks: list = field(default_factory=list)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("mrr,hits1,hits3,hits10\n")
            fh.write(f"{self.mrr:.6f},{self.hits1:.6f},{self.hits3:.6f},{self.hits10:.6f}\n")

    def format_table(self):
        rows = [("MRR", self.mrr), ("Hits@1", self.hits1), ("Hits@3", self.hits3),
                ("Hits@10", self.hits10)]
        return "\n".join(f"{name:<8} {value:.4f}" for name, value in rows)


def bottom_rank(scores, true_idx, filtered_out=()):
    """Rank of true_idx among unfiltered candidates, true placed last among
    score ties. Ties use exact float equality (pessimistic, never inflates)."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= true_idx < len(scores):
        raise IndexError(f"true index {true_idx} out of range")
    keep = np.ones(len(scores), dtype=bool)
    if filtered_out:
        keep[np.fromiter(filtered_out, dtype=np.int64)] = False
    keep[true_idx] = True
    s_true = scores[true_idx]
    kept = scores[keep]
    return int(np.sum(kept > s_true) + np.sum(kept == s_true))


def evaluate(split, store, filter_index):
    """Filtered MRR / Hits@K over both directions of every triple.

    The metrics average the tail-direction and head-direction (reciprocal)
    ranks; per-relation MRR aggregates both directions under the base
    relation id. A split that is not a nonempty (n, 3) id array raises
    ShapeMismatch; an entity id outside [0, E) or a relation id outside
    [0, R / 2) raises IndexError.
    """
    split = np.asarray(split, dtype=np.int64)
    if split.ndim != 2 or split.shape[1] != 3 or len(split) == 0:
        raise ShapeMismatch("split must be a nonempty (n, 3) id array")
    n_base = store.n_relations // 2
    if (split.min() < 0 or max(split[:, 0].max(), split[:, 2].max()) >= store.n_entities
            or split[:, 1].max() >= n_base):
        raise IndexError("triple id out of range")
    c_all = model.combined_embeddings(store)

    queries = []  # (scored_head, scored_rel, true_entity, direction, base_rel, triple)
    for h, r, t in split:
        queries.append((int(h), int(r), int(t), "tail", int(r), (int(h), int(r), int(t))))
        queries.append((int(t), int(r) + n_base, int(h), "head", int(r), (int(h), int(r), int(t))))

    ranks = []
    records = []
    per_rel = {}
    for start in range(0, len(queries), EVAL_CHUNK_QUERIES):
        batch = queries[start : start + EVAL_CHUNK_QUERIES]
        hs = np.array([q[0] for q in batch])
        rs = np.array([q[1] for q in batch])
        scores = model.score_all_tails(store, hs, rs, tails_combined=c_all)
        for row, (sh, sr, true_e, direction, base_rel, triple) in zip(scores, batch):
            # bottom_rank keeps true_e even when the filter lists it
            filtered = filter_index.get((sh, sr), ()) if filter_index else ()
            rank = bottom_rank(row, true_e, filtered)
            ranks.append(rank)
            records.append(RankRecord(triple[0], triple[1], triple[2], direction, rank))
            acc = per_rel.setdefault(base_rel, [0.0, 0])
            acc[0] += 1.0 / rank
            if direction == "tail":
                acc[1] += 1  # count each triple once; mrr still averages both directions

    ranks = np.array(ranks, dtype=np.float64)
    per_relation = {rid: (s / (2 * c), c) for rid, (s, c) in per_rel.items()}
    return MetricsReport(
        mrr=float(np.mean(1.0 / ranks)),
        hits1=float(np.mean(ranks <= 1)),
        hits3=float(np.mean(ranks <= 3)),
        hits10=float(np.mean(ranks <= 10)),
        per_relation=per_relation,
        ranks=records,
    )


def per_relation_table(report, vocab=None):
    """Rows (relation name, mrr, direction count) sorted by count descending."""
    rows = []
    for rid, (mrr, count) in report.per_relation.items():
        name = vocab.relation_name(rid) if vocab is not None else str(rid)
        rows.append((name, mrr, count))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def per_relation_csv(report, path, vocab=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("relation,mrr,count\n")
        for name, mrr, count in per_relation_table(report, vocab):
            fh.write(f"{name},{mrr:.6f},{count}\n")
