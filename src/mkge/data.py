"""Benchmark TSV ingestion, vocabularies, reciprocal relations, filter index,
and the deterministic synthetic KG used by desk-scale tests.

A Vocab is built from its two name lists, entities and relations, indexed by
id: the TSV reader lists the names in first-appearance order, and the
synthetic KG names its entities e000, e001, ... in id order.

Ids are defined here, and so are the gates of the id arrays the library
takes: `as_ids` casts them to int64 and checks their dtype, axes and range,
and `check_triples` and `as_queries` check (n, 3) triple arrays and (head,
relation) query pairs with it. No other code casts ids or checks their shapes.
`check_integers` is the gate of the integer settings: counts, sizes and seeds."""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateTriple, MissingFile, ParseError, ShapeMismatch

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")
ID_DTYPE = np.int64  # of every id array the library makes or hands on


@dataclass
class Vocab:
    """Entity and relation names, indexed by id. `entity_to_id` and
    `relation_to_id` are built from the two lists once, at construction.
    Reciprocal relation ids live in [n_base_relations, 2*n_base_relations)."""

    id_to_entity: list
    id_to_relation: list

    def __post_init__(self):
        self.entity_to_id = {name: i for i, name in enumerate(self.id_to_entity)}
        self.relation_to_id = {name: i for i, name in enumerate(self.id_to_relation)}

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

    def relation_name(self, rid):
        base = self.n_base_relations
        if rid < base:
            return self.id_to_relation[rid]
        return self.id_to_relation[rid - base] + "_reciprocal"


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


def build_dataset(directory):
    """Load train/valid/test from a directory. All three files are parsed
    before anything else is checked, so a bad line anywhere wins over a
    duplicate triple, which raises DuplicateTriple naming its split. The
    vocab spans all three splits: names take ids in first-appearance order,
    per triple the head, then the tail, over train, then valid, then test."""
    raws = [load_split(os.path.join(directory, f)) for f in SPLIT_FILES]
    for name, raw in zip(("train", "valid", "test"), raws):
        if len(set(raw)) < len(raw):
            seen = set()
            for triple in raw:
                if triple in seen:
                    raise DuplicateTriple(f"duplicate triple in {name} split: {triple}")
                seen.add(triple)
    every = [triple for raw in raws for triple in raw]
    vocab = Vocab(list(dict.fromkeys(name for h, _, t in every for name in (h, t))),
                  list(dict.fromkeys(r for _, r, _ in every)))
    ent, rel = vocab.entity_to_id, vocab.relation_to_id
    arrays = [np.array([(ent[h], rel[r], ent[t]) for h, r, t in raw], dtype=ID_DTYPE).reshape(-1, 3)
              for raw in raws]
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


def check_integers(**values):
    """ValueError naming the first of `values` that is not an integer (numpy
    integers are, bool is not), where numpy would raise TypeError later."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def as_ids(ids, name, bound=None, ndim=1):
    """`ids` as an int64 array, int64 input itself, uncopied. Not integer ids
    (bool is not), or more than `ndim` axes: ShapeMismatch naming `name`, as a
    cast would truncate 0.5 to id 0; an empty array is empty ids whatever its
    dtype, as numpy reads `[]` as float64. Given a `bound`, an id outside
    [0, bound): IndexError naming `name` and the bound, as numpy would wrap -1
    silently."""
    ids = np.asarray(ids)
    if (ids.dtype.kind not in "iu" and ids.size) or ids.ndim > ndim:
        raise ShapeMismatch(f"{name} must be integer ids with at most {ndim} axes, "
                            f"got a {ids.ndim}-axis {ids.dtype} array")
    if bound is not None and ids.size and (ids.min() < 0 or ids.max() >= bound):
        raise IndexError(f"{name} out of range [0, {bound})")
    return ids.astype(ID_DTYPE, copy=False)


def check_triples(triples, n_entities, n_relations, name):
    """`triples` (`as_ids`) checked to be a nonempty (n, 3) array of (head,
    relation, tail) rows, entity ids in [0, n_entities) and relation ids in
    [0, n_relations); otherwise ShapeMismatch or IndexError naming `name`."""
    triples = as_ids(triples, name, ndim=2)
    if triples.ndim != 2 or triples.shape[1] != 3 or len(triples) == 0:
        raise ShapeMismatch(f"{name} must be a nonempty (n, 3) id array")
    as_ids(triples[:, 0::2], f"{name} entity id", n_entities, ndim=2)
    as_ids(triples[:, 1], f"{name} relation id", n_relations)
    return triples


def as_queries(heads, rels, n_entities, n_relations):
    """(heads, rels) as id arrays (`as_ids`) of at least one axis, heads in
    [0, n_entities) and relations in [0, n_relations); arrays of two shapes,
    which numpy would broadcast into other queries, raise ShapeMismatch."""
    heads = np.atleast_1d(as_ids(heads, "head ids", n_entities))
    rels = np.atleast_1d(as_ids(rels, "relation ids", n_relations))
    if heads.shape != rels.shape:
        raise ShapeMismatch(f"head and relation id arrays differ in shape: "
                            f"{heads.shape} vs {rels.shape}")
    return heads, rels


def augment_reciprocal(triples, vocab):
    """For each (h, r, t) also emit (t, r + |R|, h), 2x the input; ids pass `as_ids`."""
    triples = as_ids(triples, "triples", ndim=2)
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
        """(B, E) bool, True at each known tail of each (head, rel) query; ids pass `as_queries`."""
        heads, rels = as_queries(heads, rels, self.n_entities, self.n_relations)
        first = (heads * self.n_relations + rels) * self.n_entities
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


def generate_synthetic_kg(seed, n_entities):
    """Deterministic, consistent toy KG with a 90/5/5 split.

    Relations: 'linked' (a matching, closed under symmetry), 'precedes'
    (successor edges of a hidden total order, hence anti-symmetric), and the
    inverse pair 'contains' / 'inside' (another matching). Each entity appears
    at most once per role per relation, so raw ranking has a unique correct
    answer for every query and the fact set is fully memorizable. The fact
    counts are 120 symmetric pairs, 80 ordering edges and 120 inverse pairs,
    each clamped to what n_entities supports without reusing an entity
    within a relation.
    """
    if n_entities < 10:
        raise ValueError("need at least 10 entities")
    rng = np.random.default_rng(seed)

    vocab = Vocab([f"e{i:03d}" for i in range(n_entities)],
                  ["linked", "precedes", "contains", "inside"])
    order = rng.permutation(n_entities)
    n_sym = min(120, n_entities // 2)
    a, b = rng.permutation(n_entities)[: 2 * n_sym].reshape(n_sym, 2).T
    n_ord = min(80, n_entities - 1)
    starts = rng.choice(n_entities - 1, size=n_ord, replace=False)
    n_inv = min(120, n_entities // 2)
    c, d = rng.permutation(n_entities)[: 2 * n_inv].reshape(n_inv, 2).T
    # (heads, relation id, tails): linked both ways, precedes, contains, inside
    parts = [(a, 0, b), (b, 0, a), (order[starts], 1, order[starts + 1]), (c, 2, d), (d, 3, c)]
    # no fact repeats; np.unique sorts the rows lexicographically, so the
    # shuffle below permutes a fixed order
    triples = np.unique(np.concatenate(
        [np.stack([h, np.full_like(h, r), t], axis=1) for h, r, t in parts]), axis=0)
    triples = triples[rng.permutation(len(triples))]
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
