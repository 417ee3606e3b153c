"""Seeded generator of a knowledge graph with the shape of FB15k-237.

Entities and relations are drawn with Zipf-skewed frequencies, so a few
(head, relation) keys collect long filter lists while most hold one or two
tails. Every entity and every relation occurs at least once, no triple repeats
across the three splits, and no triple is a self-loop. The graph is written as
the TSV files that `mkge.data.build_dataset` reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KGShape:
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    entity_exponent: float = 0.8
    relation_exponent: float = 1.0


FB15K237 = KGShape(14541, 237, 272115, 17535, 20466)
TINY = KGShape(300, 12, 3000, 150, 150)


def _zipf(n, exponent):
    p = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return p / p.sum()


def generate(seed, shape):
    """Return (train, valid, test) as (n, 3) int64 arrays of ids.

    Entity ids are 0..E-1 and relation ids 0..R-1; the split arrays are the
    benchmark's own record of the graph and are independent of the ids the
    program assigns when it parses the TSV files.
    """
    rng = np.random.default_rng(seed)
    n_ent, n_rel = shape.n_entities, shape.n_relations
    total = shape.n_train + shape.n_valid + shape.n_test
    ent_rank = rng.permutation(n_ent)  # popularity rank -> entity id
    rel_rank = rng.permutation(n_rel)

    # coverage triples: a cycle through all entities, and every relation used
    cycle = rng.permutation(n_ent)
    cov_r = rel_rank[rng.integers(0, n_rel, n_ent)]
    cov_r[:n_rel] = rel_rank
    coverage = np.stack([cycle, cov_r, np.roll(cycle, -1)], axis=1)

    m = int(total * 1.3)  # oversample; self-loops and repeats are dropped below
    pe, pr = _zipf(n_ent, shape.entity_exponent), _zipf(n_rel, shape.relation_exponent)
    drawn = np.stack(
        [ent_rank[rng.choice(n_ent, m, p=pe)], rel_rank[rng.choice(n_rel, m, p=pr)],
         ent_rank[rng.choice(n_ent, m, p=pe)]],
        axis=1,
    )
    triples = np.concatenate([coverage, drawn])
    triples = triples[triples[:, 0] != triples[:, 2]]
    key = (triples[:, 0] * n_rel + triples[:, 1]) * n_ent + triples[:, 2]
    _, first = np.unique(key, return_index=True)
    triples = triples[np.sort(first)][:total]
    if len(triples) != total:
        raise RuntimeError("generator drew too few distinct triples")

    # coverage triples survive deduplication in front and all go to train
    rest = triples[n_ent:][rng.permutation(total - n_ent)]
    n_extra = shape.n_train - n_ent
    train = np.concatenate([triples[:n_ent], rest[:n_extra]])
    train = train[rng.permutation(len(train))]
    valid = rest[n_extra : n_extra + shape.n_valid]
    test = rest[n_extra + shape.n_valid :]
    return train, valid, test


def write_tsv(directory, splits):
    """Write train/valid/test as head<TAB>relation<TAB>tail name files."""
    os.makedirs(directory, exist_ok=True)
    for name, arr in zip(("train.txt", "valid.txt", "test.txt"), splits):
        lines = [f"/m/e{h}\t/r/{r}\t/m/e{t}\n" for h, r, t in arr.tolist()]
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def filter_stats(splits, n_relations):
    """Key count and size profile of the filtered-evaluation index, computed
    from the raw triples of all splits in both directions."""
    allt = np.concatenate(splits)
    recip = np.stack([allt[:, 2], allt[:, 1] + n_relations, allt[:, 0]], axis=1)
    aug = np.concatenate([allt, recip])
    _, counts = np.unique(aug[:, 0] * (2 * n_relations) + aug[:, 1], return_counts=True)
    return {
        "filter_keys": int(len(counts)),
        "filter_max": int(counts.max()),
        "filter_p99": float(np.percentile(counts, 99)),
    }
