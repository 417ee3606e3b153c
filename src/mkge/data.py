"""Benchmark TSV ingestion, vocabularies, reciprocal relations, filter index,
and the deterministic synthetic KG used by desk-scale tests."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateTriple, MissingFile, ParseError

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")


@dataclass
class Vocab:
    """String<->id dictionaries. Reciprocal relation ids live in
    [n_base_relations, 2*n_base_relations)."""

    entity_to_id: dict = field(default_factory=dict)
    id_to_entity: list = field(default_factory=list)
    relation_to_id: dict = field(default_factory=dict)
    id_to_relation: list = field(default_factory=list)

    @property
    def n_entities(self):
        return len(self.id_to_entity)

    @property
    def n_base_relations(self):
        return len(self.id_to_relation)

    @property
    def n_relations(self):
        """Total relation count including reciprocals."""
        return 2 * len(self.id_to_relation)

    def reciprocal_id(self, rid):
        return rid + self.n_base_relations

    def relation_name(self, rid):
        base = self.n_base_relations
        if rid < base:
            return self.id_to_relation[rid]
        return self.id_to_relation[rid - base] + "_reciprocal"

    def _intern_entity(self, name):
        eid = self.entity_to_id.get(name)
        if eid is None:
            eid = len(self.id_to_entity)
            self.entity_to_id[name] = eid
            self.id_to_entity.append(name)
        return eid

    def _intern_relation(self, name):
        rid = self.relation_to_id.get(name)
        if rid is None:
            rid = len(self.id_to_relation)
            self.relation_to_id[name] = rid
            self.id_to_relation.append(name)
        return rid


@dataclass
class TripleStore:
    """Integer-id triples per split, shape (n, 3) int64 arrays."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def splits(self):
        return {"train": self.train, "valid": self.valid, "test": self.test}


def load_split(path):
    """Parse one TSV split into a list of (head, relation, tail) strings. A
    leading UTF-8 byte-order mark is dropped. A malformed line, or one that
    is not valid UTF-8, raises ParseError."""
    try:
        # undecodable bytes become lone surrogates, which fail to encode below
        fh = open(path, encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:  # missing, a directory, unreadable
        raise MissingFile(f"cannot read split file {path}: {exc.strerror}") from exc
    triples = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"{path}:{lineno}: not valid UTF-8") from None
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = [p.strip() for p in line.split("\t")]
            if len(parts) != 3 or not all(parts):
                raise ParseError(f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
            triples.append(tuple(parts))
    return triples


def _index_split(raw, vocab, name):
    seen = set()
    out = np.empty((len(raw), 3), dtype=np.int64)
    for i, (h, r, t) in enumerate(raw):
        if (h, r, t) in seen:
            raise DuplicateTriple(f"duplicate triple in {name} split: {(h, r, t)}")
        seen.add((h, r, t))
        out[i, 0] = vocab._intern_entity(h)
        out[i, 1] = vocab._intern_relation(r)
        out[i, 2] = vocab._intern_entity(t)
    return out


def build_dataset(directory):
    """Load train/valid/test from a directory; vocab spans all three splits,
    ids assigned in first-appearance order."""
    raws = [load_split(os.path.join(directory, f)) for f in SPLIT_FILES]
    vocab = Vocab()
    arrays = [_index_split(raw, vocab, name) for raw, name in zip(raws, ("train", "valid", "test"))]
    return vocab, TripleStore(*arrays)


def write_split(path, triples, vocab):
    """Serialize id triples back to the TSV format of load_split."""
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write(f"{vocab.id_to_entity[h]}\t{vocab.relation_name(r)}\t{vocab.id_to_entity[t]}\n")


def write_dataset(directory, vocab, store):
    os.makedirs(directory, exist_ok=True)
    for name, arr in zip(SPLIT_FILES, (store.train, store.valid, store.test)):
        write_split(os.path.join(directory, name), arr, vocab)


def augment_reciprocal(triples, vocab):
    """For each (h, r, t) also emit (t, r + |R|, h); output is 2x the input."""
    triples = np.asarray(triples, dtype=np.int64)
    recip = np.stack(
        [triples[:, 2], triples[:, 1] + vocab.n_base_relations, triples[:, 0]], axis=1
    )
    return np.concatenate([triples, recip], axis=0)


@dataclass(frozen=True)
class FilterIndex:
    """Known triples of every split in both directions, for filtered
    evaluation: the sorted unique keys (h * n_relations + r) * n_entities + t."""

    keys: np.ndarray
    n_entities: int
    n_relations: int

    def mask(self, heads, rels):
        """(B, E) bool array, True at every known tail of each (head, rel) query."""
        first = (np.asarray(heads, dtype=np.int64) * self.n_relations + rels) * self.n_entities
        lo, hi = np.searchsorted(self.keys, [first, first + self.n_entities])
        rows = np.repeat(np.arange(len(first)), hi - lo)  # the query of each known tail
        at = np.arange(len(rows)) + (hi - np.cumsum(hi - lo))[rows]  # the tail's key
        out = np.zeros((len(first), self.n_entities), dtype=bool)
        out[rows, self.keys[at] % self.n_entities] = True
        return out


def build_filter_index(store, vocab):
    """FilterIndex of train+valid+test and their reciprocal triples."""
    n_ent, n_rel = vocab.n_entities, vocab.n_relations
    known = augment_reciprocal(np.concatenate([store.train, store.valid, store.test]), vocab)
    keys = np.unique((known[:, 0] * n_rel + known[:, 1]) * n_ent + known[:, 2])
    return FilterIndex(keys, n_ent, n_rel)


@dataclass(frozen=True)
class SyntheticSpec:
    """Requested fact counts for the generated KG: one symmetric relation, one
    anti-symmetric ordering relation, and a mutually inverse pair. Counts are
    clamped to what n_entities can support without reusing an entity within a
    relation, so every (entity, relation) query has a unique answer."""

    symmetric_pairs: int = 120
    ordering_edges: int = 80
    inverse_pairs: int = 120


def generate_synthetic_kg(seed, n_entities, relation_spec=None):
    """Deterministic, consistent toy KG with a 90/5/5 split.

    Relations: 'linked' (a matching, closed under symmetry), 'precedes'
    (successor edges of a hidden total order, hence anti-symmetric), and the
    inverse pair 'contains' / 'inside' (another matching). Each entity appears
    at most once per role per relation, so raw ranking has a unique correct
    answer for every query and the fact set is fully memorizable.
    """
    if n_entities < 10:
        raise ValueError("need at least 10 entities")
    spec = relation_spec or SyntheticSpec()
    rng = np.random.default_rng(seed)

    vocab = Vocab()
    for i in range(n_entities):
        vocab._intern_entity(f"e{i:03d}")
    r_sym = vocab._intern_relation("linked")
    r_ord = vocab._intern_relation("precedes")
    r_fwd = vocab._intern_relation("contains")
    r_inv = vocab._intern_relation("inside")

    facts = set()
    order = rng.permutation(n_entities)

    n_sym = min(spec.symmetric_pairs, n_entities // 2)
    perm = rng.permutation(n_entities)
    for i in range(n_sym):
        a, b = int(perm[2 * i]), int(perm[2 * i + 1])
        facts.add((a, r_sym, b))
        facts.add((b, r_sym, a))

    n_ord = min(spec.ordering_edges, n_entities - 1)
    starts = rng.choice(n_entities - 1, size=n_ord, replace=False)
    for i in starts:
        facts.add((int(order[i]), r_ord, int(order[i + 1])))

    n_inv = min(spec.inverse_pairs, n_entities // 2)
    perm = rng.permutation(n_entities)
    for i in range(n_inv):
        a, b = int(perm[2 * i]), int(perm[2 * i + 1])
        facts.add((a, r_fwd, b))
        facts.add((b, r_inv, a))

    triples = np.array(sorted(facts), dtype=np.int64)
    perm = rng.permutation(len(triples))
    triples = triples[perm]
    n = len(triples)
    n_valid = max(1, n // 20)
    n_test = max(1, n // 20)
    n_train = n - n_valid - n_test
    store = TripleStore(
        train=triples[:n_train],
        valid=triples[n_train : n_train + n_valid],
        test=triples[n_train + n_valid :],
    )
    return vocab, store
