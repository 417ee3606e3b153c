import hashlib
import random

import numpy as np
import pytest

from mkge import data
from mkge.errors import DuplicateTriple, MissingFile, ParseError, ShapeMismatch


def write_toy_dataset(directory, train, valid, test):
    directory.mkdir(parents=True, exist_ok=True)
    for name, triples in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        (directory / name).write_text(
            "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples), encoding="utf-8"
        )


class TestLoadSplit:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("")
        assert data.load_split(path) == ([], [], [])

    def test_single_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a\tr\tb\n")
        assert data.load_split(path) == (["a"], ["r"], ["b"])

    def test_crlf_and_whitespace(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a \tr\t b\r\n\n", encoding="utf-8")
        assert data.load_split(path) == (["a"], ["r"], ["b"])

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a\tr\tb\nbad\tline\n")
        with pytest.raises(ParseError, match=":2:"):
            data.load_split(path)

    def test_non_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\tr\tb\nc\tr\t\xffd\n")
        with pytest.raises(ParseError, match=r"t\.txt:2: not valid UTF-8"):
            data.load_split(path)

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"\xef\xbb\xbfa\tr\tb\nb\tr\ta\n")
        assert data.load_split(path) == (["a", "b"], ["r", "r"], ["b", "a"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            data.load_split(tmp_path / "nope.txt")

    # "\n", "\r\n" and a lone "\r" each end one line, and the first bad line
    # wins whatever its kind; a leading BOM moves the decoder's offsets, not
    # the line count
    @pytest.mark.parametrize("content,error", [
        (b"a\tr\tb\rc\tr\td\rbad\n", ":3: expected"),
        (b"a\tr\tb\r\n\r\nbad\r\n", ":3: expected"),
        (b"bad\nc\tr\t\xff\n", ":1: expected"),
        (b"c\tr\t\xff\nbad\n", ":1: not valid UTF-8"),
        (b"\xef\xbb\xbfa\tr\tb\n\xff\tr\tb\n", ":2: not valid UTF-8"),
        (b"a\tr\tb\rc\tr\td\r\xff\tr\tb\n", ":3: not valid UTF-8"),
    ])
    def test_first_bad_line_named(self, tmp_path, content, error):
        path = tmp_path / "t.txt"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=error):
            data.load_split(path)


def train_split_kg(tmp_path, content):
    """build_dataset of a KG whose train file holds `content` (bytes) and
    whose valid and test files are empty."""
    write_toy_dataset(tmp_path / "kg", [], [], [])
    (tmp_path / "kg" / "train.txt").write_bytes(content)
    return data.build_dataset(tmp_path / "kg")


class TestSplitText:
    """What the reader keeps, seen through build_dataset."""

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        vocab, store = train_split_kg(tmp_path, b"\t\t\n  \t \t \na\tr\tb\n")
        assert vocab.id_to_entity == ["a", "b"] and store.train.tolist() == [[0, 0, 1]]

    def test_only_line_ends_split_lines(self, tmp_path):
        # U+2028, a form feed and a BOM past the file's start are name characters
        content = "a\u2028x\tr\x0cs\tb\n\ufeffc\tr\td\n".encode()
        vocab, store = train_split_kg(tmp_path, content)
        assert vocab.id_to_entity == ["a\u2028x", "b", "\ufeffc", "d"]
        assert vocab.id_to_relation == ["r\x0cs", "r"] and len(store.train) == 2

    def test_matches_text_mode_reference(self, tmp_path):
        """Random line ends, padding and blank lines read as Python's text mode
        reads them, line by line."""
        rng = random.Random(3)
        pad = ["", " ", "\x0c", "\u2028", "\u00a0"]
        rows = {(f"e{rng.randrange(30)}", f"r{rng.randrange(4)}", f"e{rng.randrange(30)}")
                for _ in range(300)}
        text = "".join(
            rng.choice(["", " \t \n"]) + "\t".join(rng.choice(pad) + name + rng.choice(pad)
                                                   for name in row)
            + rng.choice(["\n", "\r\n", "\r"]) for row in sorted(rows))
        vocab, store = train_split_kg(tmp_path, text.encode())
        with open(tmp_path / "kg" / "train.txt", encoding="utf-8") as fh:
            want = [tuple(part.strip() for part in line.split("\t")) for line in fh if line.strip()]
        assert vocab.id_to_entity == list(dict.fromkeys(n for h, _, t in want for n in (h, t)))
        assert [(vocab.id_to_entity[h], vocab.id_to_relation[r], vocab.id_to_entity[t])
                for h, r, t in store.train.tolist()] == want


class TestBuildDataset:
    def test_toy_counts(self, tmp_path):
        write_toy_dataset(tmp_path / "kg", [("a", "r", "b"), ("b", "r", "c")],
                          [("a", "r", "c")], [("c", "s", "a")])
        vocab, store = data.build_dataset(tmp_path / "kg")
        assert vocab.n_entities == 3
        assert vocab.n_base_relations == 2
        assert vocab.n_relations == 4
        assert len(store.train) == 2 and len(store.valid) == 1 and len(store.test) == 1

    def test_first_appearance_ids(self, tmp_path):
        write_toy_dataset(tmp_path / "kg", [("x", "r", "y")], [("y", "r", "x")], [("z", "r", "x")])
        vocab, _ = data.build_dataset(tmp_path / "kg")
        assert vocab.entity_to_id == {"x": 0, "y": 1, "z": 2}
        # a new relation, new heads and new tails first appear in valid and test
        write_toy_dataset(tmp_path / "kg2", [("x", "r", "y")], [("w", "p", "x")], [("z", "r", "v")])
        vocab, store = data.build_dataset(tmp_path / "kg2")
        assert vocab.entity_to_id == {"x": 0, "y": 1, "w": 2, "z": 3, "v": 4}
        assert vocab.relation_to_id == {"r": 0, "p": 1}
        assert vocab.id_to_entity == ["x", "y", "w", "z", "v"]
        assert vocab.id_to_relation == ["r", "p"]
        assert store.valid.tolist() == [[2, 1, 0]] and store.test.tolist() == [[3, 0, 4]]

    def test_unseen_test_entity_accepted(self, tmp_path):
        write_toy_dataset(tmp_path / "kg", [("a", "r", "b")], [("a", "r", "b")],
                          [("new", "r", "a")])
        vocab, store = data.build_dataset(tmp_path / "kg")
        assert "new" in vocab.entity_to_id
        assert store.test[0, 0] == vocab.entity_to_id["new"]

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_duplicate_rejected(self, split, tmp_path):
        splits = {"train": [("c", "s", "d")], "valid": [], "test": []}
        splits[split] = [("a", "r", "b"), ("c", "r", "d"), ("a", "r", "b")]
        write_toy_dataset(tmp_path / "kg", splits["train"], splits["valid"], splits["test"])
        with pytest.raises(DuplicateTriple) as exc:
            data.build_dataset(tmp_path / "kg")
        assert str(exc.value) == f"duplicate triple in {split} split: ('a', 'r', 'b')"

    def test_first_repeat_in_file_order_reported(self, tmp_path):
        a, b = ("a", "r", "b"), ("b", "r", "a")
        write_toy_dataset(tmp_path / "kg", [a, b, b, a], [], [])
        with pytest.raises(DuplicateTriple, match=r"train split: \('b', 'r', 'a'\)$"):
            data.build_dataset(tmp_path / "kg")

    def test_missing_split_file(self, tmp_path):
        (tmp_path / "kg").mkdir()
        (tmp_path / "kg" / "train.txt").write_text("a\tr\tb\n")
        with pytest.raises(MissingFile):
            data.build_dataset(tmp_path / "kg")

    def test_round_trip(self, tmp_path):
        vocab, store = data.generate_synthetic_kg(seed=4, n_entities=15)
        data.write_dataset(tmp_path / "out", vocab, store)
        vocab2, store2 = data.build_dataset(tmp_path / "out")
        # same strings reload to the same id-level triples under the new vocab
        for split, split2 in zip(store.splits().values(), store2.splits().values()):
            orig = {(vocab.id_to_entity[h], vocab.relation_name(r), vocab.id_to_entity[t])
                    for h, r, t in split}
            back = {(vocab2.id_to_entity[h], vocab2.relation_name(r), vocab2.id_to_entity[t])
                    for h, r, t in split2}
            assert orig == back

    def test_vocab_deterministic(self, tmp_path):
        write_toy_dataset(tmp_path / "kg", [("a", "r", "b"), ("c", "s", "a")], [], [])
        ids = [data.build_dataset(tmp_path / "kg")[0].entity_to_id for _ in range(2)]
        assert ids[0] == ids[1]


class TestWriter:
    def test_relation_names(self):
        vocab = data.Vocab(["a", "b"], ["r", "s"])
        assert [vocab.relation_name(r) for r in range(4)] == ["r", "s", "r_reciprocal",
                                                             "s_reciprocal"]
        assert vocab.relation_name(np.int64(3)) == "s_reciprocal"

    @pytest.mark.parametrize("rid", [-1, 4])
    def test_relation_id_out_of_range(self, rid):
        with pytest.raises(IndexError, match=rf"relation id {rid} out of range \[0, 4\)"):
            data.Vocab(["a", "b"], ["r", "s"]).relation_name(rid)

    @pytest.mark.parametrize("row,name", [([-1, 0, 1], "entity id"), ([0, 0, 2], "entity id"),
                                          ([0, -1, 1], "relation id"), ([0, 4, 1], "relation id")])
    def test_write_split_rejects_ids_before_opening(self, tmp_path, row, name):
        vocab = data.Vocab(["a", "b"], ["r", "s"])
        path = tmp_path / "t.txt"
        with pytest.raises(IndexError, match=rf"{name} out of range \[0, [24]\)"):
            data.write_split(path, np.array([[0, 0, 1], row]), vocab)
        assert not path.exists()

    def test_write_split_round_trip_and_empty(self, tmp_path):
        vocab = data.Vocab(["a", "b"], ["r", "s"])
        data.write_split(tmp_path / "t.txt", np.array([[0, 3, 1], [1, 0, 0]]), vocab)
        assert (tmp_path / "t.txt").read_text() == "a\ts_reciprocal\tb\nb\tr\ta\n"
        for empty in ([], np.zeros((0, 3), dtype=np.int64)):
            data.write_split(tmp_path / "e.txt", empty, vocab)
            assert (tmp_path / "e.txt").read_bytes() == b""


class TestReciprocal:
    def test_doubles_length(self):
        vocab, store = data.generate_synthetic_kg(seed=0, n_entities=12)
        aug = data.augment_reciprocal(store.train, vocab)
        assert len(aug) == 2 * len(store.train)

    def test_involution(self):
        vocab, store = data.generate_synthetic_kg(seed=0, n_entities=12)
        aug = data.augment_reciprocal(store.train, vocab)
        recip = aug[len(store.train):]
        back = np.stack([recip[:, 2], recip[:, 1] - vocab.n_base_relations, recip[:, 0]], axis=1)
        assert np.array_equal(back, store.train)

    def test_id_bound(self):
        vocab, store = data.generate_synthetic_kg(seed=1, n_entities=12)
        aug = data.augment_reciprocal(store.train, vocab)
        assert aug[:, 1].max() == vocab.n_relations - 1


def known_tails(index, h, r):
    """The tail ids the index's mask lists for the query (h, r)."""
    return set(np.flatnonzero(index.mask([h], [r])[0]).tolist())


class TestFilterIndex:
    def test_grouped_tails(self):
        vocab = data.Vocab(["a", "b", "c"], ["r"])
        store = data.TripleStore(
            train=np.array([[0, 0, 1], [0, 0, 2]]),
            valid=np.zeros((0, 3), dtype=np.int64),
            test=np.zeros((0, 3), dtype=np.int64),
        )
        index = data.build_filter_index(store, vocab)
        assert known_tails(index, 0, 0) == {1, 2}
        assert known_tails(index, 1, 1) == {0} and known_tails(index, 2, 1) == {0}
        assert np.array_equal(index.mask(0, 0), index.mask([0], [0]))  # a scalar pair is one query

    def test_fact_in_two_splits_keyed_once(self):
        vocab = data.Vocab(["a", "b", "c"], ["r", "s"])
        train = np.array([[0, 0, 1], [1, 1, 2], [2, 0, 0]])
        empty = np.zeros((0, 3), dtype=np.int64)
        index = data.build_filter_index(data.TripleStore(train, empty, train[:2]), vocab)
        once = data.build_filter_index(data.TripleStore(train, empty, empty), vocab)
        assert np.all(np.diff(index.keys) > 0)
        assert len(index.keys) == len(data.augment_reciprocal(train, vocab)) == 6
        heads, rels = np.divmod(np.arange(vocab.n_entities * vocab.n_relations), vocab.n_relations)
        assert np.array_equal(index.mask(heads, rels), once.mask(heads, rels))

    def test_every_test_tail_member(self):
        vocab, store = data.generate_synthetic_kg(seed=6, n_entities=20)
        index = data.build_filter_index(store, vocab)
        for h, r, t in store.test:
            assert int(t) in known_tails(index, h, r)
            assert int(h) in known_tails(index, t, r + vocab.n_base_relations)

    def test_mask_rows_match_augmented_tails(self):
        # random triples, so many (h, r) pairs hold several tails spread over splits
        vocab = data.Vocab([f"e{i}" for i in range(12)], [f"r{i}" for i in range(3)])
        rng = np.random.default_rng(6)
        triples = np.unique(rng.integers(0, [12, 3, 12], size=(80, 3)), axis=0)
        store = data.TripleStore(*np.array_split(rng.permutation(triples), 3))
        index = data.build_filter_index(store, vocab)
        want = np.zeros((vocab.n_entities, vocab.n_relations, vocab.n_entities), dtype=bool)
        for split in store.splits().values():
            for h, r, t in data.augment_reciprocal(split, vocab):
                want[h, r, t] = True
        # every (h, r) query in one mask, the pairs with no known tail included
        heads, rels = np.divmod(np.arange(vocab.n_entities * vocab.n_relations), vocab.n_relations)
        assert np.array_equal(index.mask(heads, rels), want.reshape(len(heads), -1))

    # the synthetic KG's 20 entities and 8 relations: heads -1 and E, relations R and 0.5,
    # and id arrays of two shapes
    @pytest.mark.parametrize("head,rel,name", [(-1, 0, "head ids"), (20, 0, "head ids"),
                                               (0, 8, "relation ids"), (0, 0.5, "relation ids"),
                                               pytest.param([0, 1], [0], "differ in shape",
                                                            id="two_heads_one_rel"),
                                               pytest.param([0], [0, 1], "differ in shape",
                                                            id="one_head_two_rels")])
    def test_mask_rejects_bad_ids(self, head, rel, name):
        vocab, store = data.generate_synthetic_kg(seed=0, n_entities=20)
        index = data.build_filter_index(store, vocab)
        with pytest.raises((IndexError, ShapeMismatch), match=name):
            index.mask(np.reshape(head, -1), np.reshape(rel, -1))


class TestSyntheticKG:
    def test_deterministic(self):
        a = data.generate_synthetic_kg(seed=9, n_entities=30)
        b = data.generate_synthetic_kg(seed=9, n_entities=30)
        for sa, sb in zip(a[1].splits().values(), b[1].splits().values()):
            assert np.array_equal(sa, sb)

    def full_facts(self, store):
        return {tuple(map(int, t)) for split in store.splits().values() for t in split}

    def test_symmetric_closure(self):
        vocab, store = data.generate_synthetic_kg(seed=3, n_entities=25)
        facts = self.full_facts(store)
        sym = vocab.relation_to_id["linked"]
        for h, r, t in facts:
            if r == sym:
                assert (t, r, h) in facts

    def test_inverse_pairing(self):
        vocab, store = data.generate_synthetic_kg(seed=3, n_entities=25)
        facts = self.full_facts(store)
        fwd, inv = vocab.relation_to_id["contains"], vocab.relation_to_id["inside"]
        for h, r, t in facts:
            if r == fwd:
                assert (t, inv, h) in facts
            if r == inv:
                assert (t, fwd, h) in facts

    def test_ordering_antisymmetric(self):
        vocab, store = data.generate_synthetic_kg(seed=3, n_entities=25)
        facts = self.full_facts(store)
        order = vocab.relation_to_id["precedes"]
        for h, r, t in facts:
            if r == order:
                assert (t, r, h) not in facts

    def test_split_fractions(self):
        _, store = data.generate_synthetic_kg(seed=0, n_entities=50)
        n = sum(len(s) for s in store.splits().values())
        assert len(store.valid) == max(1, n // 20)
        assert len(store.test) == max(1, n // 20)

    @pytest.mark.parametrize("seed,n,want", [
        (0, 50, "484b614a935c021ec3e99da6c455f70a9b37d7cb7eb8994af95d1357af250975"),
        (3, 11, "7318c733cd2e062a8878a3d140b954cfa70e0ecbf08b85f109dee0e8b4ea8db5"),
        # the default spec clamps every relation's fact count at 10 entities
        (5, 10, "923ed446ed0f7597c071545ec5332131f9b5e5a2450e566f4f309ff1657bf569"),
    ])
    def test_pinned_output(self, seed, n, want):
        """The exact KG: sha256 of the name lists, then of each split's shape
        and int64 rows. Most desk-scale tests train on this generator."""
        vocab, store = data.generate_synthetic_kg(seed=seed, n_entities=n)
        h = hashlib.sha256("\n".join(vocab.id_to_entity + vocab.id_to_relation).encode())
        for split in store.splits().values():
            assert split.dtype == np.int64
            h.update(np.array(split.shape, dtype=np.int64).tobytes() + split.tobytes())
        assert h.hexdigest() == want

    def test_too_few_entities(self):
        with pytest.raises(ValueError):
            data.generate_synthetic_kg(seed=0, n_entities=5)
