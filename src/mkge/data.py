"""Benchmark TSV ingestion, vocabularies, reciprocal relations, filter index,
and the deterministic synthetic KG used by desk-scale tests.

A Vocab is built from its two name lists, entities and relations, indexed by
id: the TSV reader lists the names in first-appearance order, and the
synthetic KG names its entities e000, e001, ... in id order.

Ids are defined here, and so are the gates of the id arrays the library
takes: `as_ids` casts them to int64 and checks their dtype, axes and range,
and `check_triples` and `as_queries` check (n, 3) triple arrays and (head,
relation) query pairs with it. No other code casts ids or checks their shapes.
`check_integers` is the gate of the integer settings (counts, sizes and
seeds), and `check_reals` of the real-valued ones (rates)."""

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
        """The name of relation id `rid`, which passes `as_ids` in [0,
        n_relations); a reciprocal id adds "_reciprocal" to its base name."""
        rid = int(as_ids(rid, f"relation id {rid}", self.n_relations, ndim=0))
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
    """Parse one TSV split into three name columns, (heads, relations, tails).
    The file is UTF-8, with a byte-order mark dropped at its start only; "\\n",
    "\\r\\n" and a lone "\\r" each end a line. Fields are stripped, and blank or
    whitespace-only lines are skipped. The first bad line raises ParseError:
    one not valid UTF-8, or one without three nonempty fields."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:  # missing, a directory, unreadable
        raise MissingFile(f"cannot read split file {path}: {exc.strerror}") from exc
    try:
        return _columns(path, _lines(raw.decode("utf-8-sig")))
    except UnicodeDecodeError as exc:
        # under utf-8-sig, exc.object and exc.start count from after the BOM;
        # the lines before the undecodable one are parsed first, so a bad
        # line there wins
        lines = _lines(exc.object[:exc.start].decode("utf-8"))
        _columns(path, lines[:-1])
        raise ParseError(f"{path}:{len(lines)}: not valid UTF-8") from None


def _lines(text):
    """`text` split at "\\n", "\\r\\n" and "\\r" only, as text mode reads it:
    str.splitlines would also split at form feeds and U+2028."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _columns(path, lines):
    """The stripped (heads, relations, tails) of `lines`, blank ones skipped."""
    heads, rels, tails = [], [], []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("\t")
        if len(parts) == 3:
            h, r, t = parts[0].strip(), parts[1].strip(), parts[2].strip()
            if h and r and t:
                heads.append(h)
                rels.append(r)
                tails.append(t)
                continue
        if line.strip():
            raise ParseError(f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
    return heads, rels, tails


def build_dataset(directory):
    """Load train/valid/test from a directory. All three files are parsed
    before anything else is checked, so a bad line anywhere wins over a
    duplicate triple, which raises DuplicateTriple naming its split and the
    first repeat in file order. The vocab spans all three splits: names take
    ids in first-appearance order, per triple the head, then the tail, over
    train, then valid, then test."""
    columns = [load_split(os.path.join(directory, f)) for f in SPLIT_FILES]
    entities, relations = {}, {}
    for heads, rels, tails in columns:
        both = [None] * (2 * len(heads))  # head, tail, head, tail, ...
        both[0::2], both[1::2] = heads, tails
        entities.update(dict.fromkeys(both))
        relations.update(dict.fromkeys(rels))
    vocab = Vocab(_compact(entities), _compact(relations))
    ent, rel = vocab.entity_to_id.__getitem__, vocab.relation_to_id.__getitem__
    arrays = [np.stack([np.fromiter(map(ids, names), ID_DTYPE, len(names))
                        for ids, names in zip((ent, rel, ent), cols)], axis=1)
              for cols in columns]
    for name, cols, triples in zip(("train", "valid", "test"), columns, arrays):
        keys = _keys(triples, vocab.n_base_relations, vocab.n_entities)
        order = np.argsort(keys, kind="stable")  # equal keys stay in file order
        repeats = order[1:][np.diff(keys[order]) == 0]
        if len(repeats):
            i = repeats.min()
            raise DuplicateTriple(f"duplicate triple in {name} split: "
                                  f"{(cols[0][i], cols[1][i], cols[2][i])}")
    return vocab, TripleStore(*arrays)


def _compact(names):
    """New strings equal to `names`, which hold no tab, made together: the
    few names a vocab keeps would otherwise pin the memory pages of the
    many parsed fields they were picked from after those are freed."""
    return "\t".join(names).split("\t") if names else []


def write_split(path, triples, vocab):
    """Serialize id triples back to the TSV format of load_split. A nonempty
    split passes `check_triples` before the file is opened, so an id outside
    the vocab raises IndexError, as numpy would wrap -1 to the last name."""
    rows = []
    if len(triples):
        rows = check_triples(triples, vocab.n_entities, vocab.n_relations, "triples").tolist()
    ents = vocab.id_to_entity
    rels = [vocab.relation_name(r) for r in range(vocab.n_relations)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{ents[h]}\t{rels[r]}\t{ents[t]}\n" for h, r, t in rows)


def write_dataset(directory, vocab, store):
    os.makedirs(directory, exist_ok=True)
    for name, arr in zip(SPLIT_FILES, (store.train, store.valid, store.test)):
        write_split(os.path.join(directory, name), arr, vocab)


def check_integers(**values):
    """ValueError naming the first of `values` that is not an integer (numpy
    integers are, bool is not), where numpy would raise TypeError later."""
    _check_numbers(values, numbers.Integral, "an integer")


def check_nonnegative(**values):
    """`check_integers`, then ValueError naming the first of `values` below 0,
    where numpy would raise on a negative seed or dimension, or struct on a
    negative unsigned field."""
    check_integers(**values)
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_reals(**values):
    """ValueError naming the first of `values` that is not a real number
    (numpy floats and integers are, bool is not): True would train as 1.0,
    and a string fails a comparison with TypeError."""
    _check_numbers(values, numbers.Real, "a real number")


def _check_numbers(values, kind, label):
    for name, value in values.items():
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{name} must be {label}, got {value!r}")


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


def _keys(triples, n_relations, n_entities):
    """The int64 key (h * n_relations + r) * n_entities + t of each (h, r, t)
    row, which orders the rows as they sort lexicographically."""
    return (triples[:, 0] * n_relations + triples[:, 1]) * n_entities + triples[:, 2]


def build_filter_index(store, vocab):
    """FilterIndex of train+valid+test and their reciprocal triples."""
    n_ent, n_rel = vocab.n_entities, vocab.n_relations
    known = augment_reciprocal(np.concatenate([store.train, store.valid, store.test]), vocab)
    keys = np.sort(_keys(known, n_rel, n_ent))
    first = np.ones(len(keys), dtype=bool)  # each key unlike its predecessor
    first[1:] = keys[1:] != keys[:-1]
    return FilterIndex(keys[first], n_ent, n_rel)


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
