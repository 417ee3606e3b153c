import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mkge import data, model, ranking
from mkge.errors import ShapeMismatch
from oracles import brute_force_rank


def as_mask(n, ids):
    """The bool filter mask over n candidates that lists ids."""
    mask = np.zeros(n, dtype=bool)
    mask[list(ids)] = True
    return mask


class TestBottomRank:
    def test_tie_block(self):
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        assert ranking.bottom_rank(scores, 1) == 3

    def test_unique_max(self):
        assert ranking.bottom_rank(np.array([0.1, 0.9, 0.3]), 1) == 1

    def test_all_equal_worst_case(self):
        n = 7
        assert ranking.bottom_rank(np.zeros(n), 4) == n

    def test_filtering_removes_competitors(self):
        scores = np.array([0.9, 0.5, 0.8, 0.1])
        assert ranking.bottom_rank(scores, 1, as_mask(4, {0, 2})) == 1

    def test_true_idx_never_filtered(self):
        scores = np.array([0.9, 0.5])
        assert ranking.bottom_rank(scores, 1, as_mask(2, {1})) == 2

    @pytest.mark.parametrize("mask", [np.zeros((3, 3), bool), np.zeros((2, 4), bool),
                                      np.zeros((2, 3), int), np.zeros(3, bool)],
                             ids=["rows", "columns", "int", "one_row"])
    def test_bad_mask_raises(self, mask):
        """A mask that is not bool of the scores' shape raises ShapeMismatch,
        where numpy raised ValueError or UFuncTypeError, or broadcast a row."""
        with pytest.raises(ShapeMismatch, match="filter mask"):
            ranking.bottom_rank(np.zeros((2, 3)), [0, 1], mask)

    def test_invalid_index(self):
        with pytest.raises(IndexError, match=r"true index out of range \[0, 3\)"):
            ranking.bottom_rank(np.zeros(3), 5)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(3, 25))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)  # deliberate ties
            true_idx = int(rng.integers(n))
            others = [i for i in range(n) if i != true_idx]
            filtered = set(rng.choice(others, size=min(len(others), int(rng.integers(0, n))),
                                      replace=False).tolist())
            assert ranking.bottom_rank(scores, true_idx, as_mask(n, filtered)) == (
                brute_force_rank(scores, true_idx, filtered))

    def test_bottom_is_most_pessimistic(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            scores = rng.choice([0.0, 0.5, 1.0], size=10)
            true_idx = int(rng.integers(10))
            bottom = ranking.bottom_rank(scores, true_idx)
            top = 1 + int(np.sum(scores > scores[true_idx]))
            ties = int(np.sum(scores == scores[true_idx])) - 1
            average = top + ties / 2
            assert bottom >= average >= top

    def test_filtering_never_increases_rank(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores = rng.normal(size=15)
            true_idx = int(rng.integers(15))
            filtered = {int(i) for i in rng.choice(15, size=5, replace=False)} - {true_idx}
            assert ranking.bottom_rank(scores, true_idx, as_mask(15, filtered)) <= (
                ranking.bottom_rank(scores, true_idx))


    @pytest.mark.parametrize("filtered, want", [(set(), 5), ({2}, 4), ({2, 3}, 3),
                                                 ({0}, 5), ({0, 2, 3}, 3)])
    def test_neg_inf_true_score(self, filtered, want):
        # -inf candidates tie with a -inf true score unless the mask drops them
        scores = np.array([-np.inf, 0.5, -np.inf, -np.inf, 0.2])
        assert ranking.bottom_rank(scores, 0, as_mask(5, filtered)) == want
        assert brute_force_rank(scores, 0, filtered) == want

    def test_nan_true_score_ranks_last(self):
        assert ranking.bottom_rank(np.array([np.nan, 1.0, 0.5]), 0) == 3
        assert ranking.bottom_rank(np.array([np.nan, 1.0, 0.5]), 0, as_mask(3, {1})) == 2

    def test_nan_candidate_counts_against_true(self):
        assert ranking.bottom_rank(np.array([0.2, np.nan, 0.5]), 0) == 3
        assert ranking.bottom_rank(np.array([0.2, np.nan, 0.5]), 0, as_mask(3, {1})) == 2

    def test_chunk_with_ragged_filter_rows(self):
        # one call ranks every row of a 1-D, 2-D or 3-D score array, with ties,
        # -inf and NaN scores, a -inf row and a NaN row; the rows' filter lists
        # differ in length, the first is empty and the last lists every
        # candidate, the true one included; 300 candidates count past any byte
        rng = np.random.default_rng(3)
        for shape in [(6, 12), (300,), (6, 40), (2, 3, 300)]:
            n = shape[-1]
            scores = rng.choice([-np.inf, 0.0, 0.5, 1.0, np.nan], p=[0.1, 0.3, 0.3, 0.2, 0.1],
                                size=shape)
            rows = scores.reshape(-1, n)
            if len(rows) > 2:
                rows[1], rows[2] = -np.inf, np.nan
            true_idx = rng.integers(n, size=shape[:-1])
            share = np.linspace(0.0, 1.0, len(rows)).reshape(shape[:-1] + (1,))
            masks = rng.random(shape) < share
            for filtered in (None, masks):
                got = ranking.bottom_rank(scores, true_idx, filtered)
                assert np.shape(got) == shape[:-1] and np.result_type(got) == np.intp
                want = [brute_force_rank(row, int(t), set() if filtered is None else
                                         set(np.flatnonzero(mask).tolist()))
                        for row, t, mask in zip(rows, true_idx.reshape(-1), masks.reshape(-1, n))]
                assert np.reshape(got, -1).tolist() == want, shape


def reference_evaluate(split, store, known=None):
    """Independent evaluator built on the brute-force sorter; the filter sets
    come from the raw splits of the TripleStore `known`, or are empty."""
    n_base = store.n_relations // 2
    tails = {}
    for h, r, t in (() if known is None else np.concatenate(list(known.splits().values()))):
        tails.setdefault((int(h), int(r)), set()).add(int(t))
        tails.setdefault((int(t), int(r) + n_base), set()).add(int(h))
    ranks, by_direction = [], {"tail": [], "head": []}
    for h, r, t in split:
        for direction, (sh, sr, true_e) in zip(by_direction, (
                (int(h), int(r), int(t)), (int(t), int(r) + n_base, int(h)))):
            scores = model.score_all_tails(store, sh, sr)[0]
            filtered = tails.get((sh, sr), set()) - {true_e}
            ranks.append(brute_force_rank(scores, true_e, filtered))
            by_direction[direction].append(ranks[-1])
    ranks = np.array(ranks, dtype=float)
    return {"ranks": ranks, **summarize(ranks),
            **{d: summarize(np.array(rs, dtype=float)) for d, rs in by_direction.items()}}


def summarize(ranks):
    return {
        "mrr": float(np.mean(1.0 / ranks)),
        "hits1": float(np.mean(ranks <= 1)),
        "hits3": float(np.mean(ranks <= 3)),
        "hits10": float(np.mean(ranks <= 10)),
    }


class TestEvaluate:
    def make_setup(self, seed=0, n_entities=20):
        vocab, store_data = data.generate_synthetic_kg(seed=seed, n_entities=n_entities)
        store = model.init_model("module_rc", 3, vocab.n_entities, vocab.n_relations, seed=seed)
        index = data.build_filter_index(store_data, vocab)
        return vocab, store_data, store, index

    def test_matches_reference_evaluator(self):
        vocab, store_data, store, index = self.make_setup()
        report = ranking.evaluate(store_data.test, store, index)
        ref = reference_evaluate(store_data.test, store, store_data)
        assert report.mrr == pytest.approx(ref["mrr"], abs=1e-12)
        assert report.hits1 == ref["hits1"]
        assert report.hits3 == ref["hits3"]
        assert report.hits10 == ref["hits10"]

    @pytest.mark.parametrize("variant", ["module_rc", "rotate"])
    def test_direction_metrics_match_reference(self, variant):
        vocab, store_data = data.generate_synthetic_kg(seed=0, n_entities=50)
        store = model.init_model(variant, 3, vocab.n_entities, vocab.n_relations, seed=4)
        index = data.build_filter_index(store_data, vocab)
        split = store_data.train  # the largest split
        report = ranking.evaluate(split, store, index)
        ref = reference_evaluate(split, store, store_data)
        for direction in ("tail", "head"):
            got, want = getattr(report, direction), ref[direction]
            assert got.mrr == pytest.approx(want["mrr"], abs=1e-12)
            assert (got.hits1, got.hits3, got.hits10) == (
                want["hits1"], want["hits3"], want["hits10"])
        assert report.tail != report.head  # the two directions rank differently here
        assert (report.tail.mrr + report.head.mrr) / 2 == pytest.approx(report.mrr, abs=1e-12)

    @pytest.mark.parametrize("variant", ["module_rc", "rotate"])
    def test_multi_chunk_ranks_match_reference(self, variant, monkeypatch):
        monkeypatch.setattr(ranking, "EVAL_BLOCK_ELEMENTS", 64 * 50)  # 64 queries per block
        vocab, store_data = data.generate_synthetic_kg(seed=0, n_entities=50)
        store = model.init_model(variant, 3, vocab.n_entities, vocab.n_relations, seed=4)
        index = data.build_filter_index(store_data, vocab)
        split = store_data.train
        per_block = ranking.EVAL_BLOCK_ELEMENTS // store.n_entities
        assert 2 * len(split) > 2 * per_block  # at least 3 blocks
        report = ranking.evaluate(split, store, index)
        ref = reference_evaluate(split, store, store_data)
        assert [rec.rank for rec in report.ranks] == ref["ranks"].tolist()
        assert report.mrr == pytest.approx(ref["mrr"], abs=1e-12)

    @pytest.mark.parametrize("variant", ["rotate", "module_hh", "module_rc"])
    def test_ranks_equal_across_pools(self, variant, monkeypatch, pool_runs):
        # one-row blocks of the entity forward; blocks of three queries of k=2
        # over the 20 entities, whose keys differ, so the 20 candidates of each
        # rotate call fall into distance chunks [0, 7), [7, 14) and [14, 20)
        monkeypatch.setattr(model, "ROW_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(ranking, "EVAL_BLOCK_ELEMENTS", 3 * 20)
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", 42)
        vocab, store_data, _, index = self.make_setup()
        store = model.init_model(variant, 2, vocab.n_entities, vocab.n_relations, seed=4)

        def run():
            return (np.array([rec.rank for rec in ranking.evaluate(store_data.test, store,
                                                                   index).ranks]),)

        one, *pooled = pool_runs(run)
        assert pooled == [one, one]

    def test_raw_multi_chunk_ranks_match_reference(self):
        vocab, store_data = data.generate_synthetic_kg(seed=0, n_entities=50)
        store = model.init_model("module_hh", 2, vocab.n_entities, vocab.n_relations, seed=4)
        report = ranking.evaluate(store_data.train, store, None)
        ref = reference_evaluate(store_data.train, store)
        assert [rec.rank for rec in report.ranks] == ref["ranks"].tolist()

    @pytest.mark.parametrize("variant", ["module_rc", "rotate"])
    def test_nan_entity_row_gives_finite_mrr(self, variant):
        vocab, store_data = data.generate_synthetic_kg(seed=0, n_entities=20)
        store = model.init_model(variant, 2, vocab.n_entities, vocab.n_relations, seed=4)
        store.entity[store_data.test[0, 0]] = np.nan  # every score of this head is NaN
        index = data.build_filter_index(store_data, vocab)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = ranking.evaluate(store_data.test, store, index)
        assert 0.0 < report.mrr < 1.0
        # the NaN head's tail query ranks last among its unfiltered candidates
        assert report.ranks[0].rank == store.n_entities - np.count_nonzero(
            index.mask(store_data.test[:1, 0], store_data.test[:1, 1])) + 1

    @pytest.mark.parametrize("count", ["n_entities", "n_relations"])
    def test_index_for_other_counts_raises(self, count):
        _, store_data, store, index = self.make_setup()
        other = replace(index, **{count: getattr(index, count) + 2})
        with pytest.raises(ShapeMismatch):
            ranking.evaluate(store_data.test, store, other)

    @pytest.mark.parametrize("split", [np.empty((0, 3)), np.array([0, 0, 1]),
                                       np.array([[0, 0, 1, 2]]), np.array([[0, 0]])])
    def test_bad_split_shape_raises(self, split):
        _, _, store, index = self.make_setup()
        with pytest.raises(ShapeMismatch):
            ranking.evaluate(split, store, index)

    @pytest.mark.parametrize("triple", [(-1, 0, 2), (0, -1, 2), (0, 0, -1), (20, 0, 2),
                                        (0, 0, 20), (0, "n_base", 2)])
    def test_out_of_range_ids_raise(self, triple):
        vocab, _, store, index = self.make_setup()
        assert store.n_entities == 20
        split = np.array([[vocab.n_base_relations if x == "n_base" else x for x in triple]])
        with pytest.raises(IndexError):
            ranking.evaluate(split, store, index)

    def test_known_rank_pair(self):
        # MRR and Hits for ranks {1, 4} computed from the definition
        ranks = np.array([1.0, 4.0])
        assert float(np.mean(1.0 / ranks)) == 0.625

    def test_metric_orderings(self):
        _, store_data, store, index = self.make_setup(seed=3)
        report = ranking.evaluate(store_data.test, store, index)
        assert report.hits1 <= report.hits3 <= report.hits10
        assert report.mrr >= report.hits1
        assert 0 < report.mrr <= 1

    def test_mrr_consistent_with_records(self):
        _, store_data, store, index = self.make_setup(seed=5)
        report = ranking.evaluate(store_data.test, store, index)
        from_records = np.mean([1.0 / rec.rank for rec in report.ranks])
        assert report.mrr == pytest.approx(from_records, abs=1e-12)
        assert all(1 <= rec.rank <= store.n_entities for rec in report.ranks)

    def test_ranks_are_records_in_query_order(self):
        """`ranks` is a record array of (h_id, r_id, t_id, direction, rank),
        ranks as bottom_rank's np.intp; rows 2i and 2i + 1 are split row i's
        tail and head queries, and each record's fields compare equal to the
        Python ints and str of its query."""
        _, store_data, store, index = self.make_setup(seed=9)
        ranks = ranking.evaluate(store_data.test, store, index).ranks
        assert ranks.dtype.names == ("h_id", "r_id", "t_id", "direction", "rank")
        assert ranks.rank.dtype == np.intp
        assert len(ranks) == 2 * len(store_data.test)
        for i, (h, r, t) in enumerate(store_data.test.tolist()):
            for rec, direction in zip(ranks[2 * i : 2 * i + 2], ("tail", "head")):
                assert (rec.h_id, rec.r_id, rec.t_id, rec.direction) == (h, r, t, direction)

    def test_two_evaluations_compare_equal(self):
        _, store_data, store, index = self.make_setup(seed=9)
        a, b = (ranking.evaluate(store_data.test, store, index) for _ in range(2))
        assert a == b
        assert a.ranks.rank.tobytes() == b.ranks.rank.tobytes()

    def test_order_independent(self):
        _, store_data, store, index = self.make_setup(seed=7)
        a = ranking.evaluate(store_data.test, store, index)
        b = ranking.evaluate(store_data.test[::-1], store, index)
        assert a.mrr == pytest.approx(b.mrr, abs=1e-12)

    def test_perfect_single_triple(self):
        vocab, _ = data.generate_synthetic_kg(seed=0, n_entities=10)
        store = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=0)
        split = np.array([[0, 0, 1]])
        full = ranking.evaluate(split, store, None)
        tail_scores = model.score_all_tails(store, 0, 0)[0]
        head_scores = model.score_all_tails(store, 1, vocab.n_base_relations)[0]
        if tail_scores.argmax() == 1 and head_scores.argmax() == 0:
            assert full.mrr == 1.0  # only meaningful when the random store agrees


def ranks_of(report):
    return np.array([rec.rank for rec in report.ranks])


def query_keys(split, n_relations):
    """The (head, relation) key of each query of evaluate, in its query order."""
    split = np.asarray(split)
    n_base = n_relations // 2
    heads = np.stack([split[:, 0], split[:, 2]], axis=1).ravel()
    rels = np.stack([split[:, 1], split[:, 1] + n_base], axis=1).ravel()
    return heads * n_relations + rels


class TestRepeatedKeys:
    """Queries that share a (head, relation) key share its score row."""

    def make_setup(self, variant="module_rc"):
        """A test split whose queries repeat keys: 7 tails of (0, precedes)
        and 6 heads of (contains, 3), shuffled among the synthetic test
        triples, and the TripleStore it belongs to."""
        vocab, store_data = data.generate_synthetic_kg(seed=0, n_entities=20)
        fan_out = [(0, 1, t) for t in range(2, 9)]
        fan_in = [(h, 2, 3) for h in range(10, 16)]
        test = np.concatenate([store_data.test, fan_out, fan_in])
        test = test[np.random.default_rng(0).permutation(len(test))]
        known = data.TripleStore(store_data.train, store_data.valid, test)
        store = model.init_model(variant, 3, vocab.n_entities, vocab.n_relations, seed=4)
        _, counts = np.unique(query_keys(test, store.n_relations), return_counts=True)
        assert counts.max() >= 7 and np.count_nonzero(counts >= 6) >= 2
        return vocab, known, store

    @pytest.mark.parametrize("variant", ["module_rc", "rotate"])
    @pytest.mark.parametrize("filtered", [True, False])
    def test_match_reference(self, variant, filtered):
        vocab, known, store = self.make_setup(variant)
        index = data.build_filter_index(known, vocab) if filtered else None
        report = ranking.evaluate(known.test, store, index)
        ref = reference_evaluate(known.test, store, known if filtered else None)
        assert ranks_of(report).tolist() == ref["ranks"].tolist()
        assert report.mrr == pytest.approx(ref["mrr"], abs=1e-12)

    def test_key_across_block_boundary(self, monkeypatch):
        # sorted by key, the 7 queries of (0, precedes) fill more than two
        # 3-query blocks, so the key's row is scored in each of them
        vocab, known, store = self.make_setup()
        index = data.build_filter_index(known, vocab)
        monkeypatch.setattr(ranking, "EVAL_BLOCK_ELEMENTS", 3 * store.n_entities)
        three = ranks_of(ranking.evaluate(known.test, store, index))
        monkeypatch.setattr(ranking, "EVAL_BLOCK_ELEMENTS", 1)  # one query per block
        one = ranks_of(ranking.evaluate(known.test, store, index))
        assert three.tolist() == one.tolist()

    def test_shuffled_split_permutes_ranks(self):
        vocab, known, store = self.make_setup()
        index = data.build_filter_index(known, vocab)
        perm = np.random.default_rng(1).permutation(len(known.test))
        ranks = ranks_of(ranking.evaluate(known.test, store, index)).reshape(-1, 2)
        shuffled = ranks_of(ranking.evaluate(known.test[perm], store, index)).reshape(-1, 2)
        assert shuffled.tolist() == ranks[perm].tolist()

    @pytest.mark.parametrize("per_block", [3, None])
    def test_score_rows_number_distinct_keys(self, per_block, monkeypatch):
        # each key is scored once per block it spans: the distinct keys, plus
        # at most one row per boundary between blocks
        vocab, known, store = self.make_setup()
        index = data.build_filter_index(known, vocab)
        if per_block is not None:
            monkeypatch.setattr(ranking, "EVAL_BLOCK_ELEMENTS", per_block * store.n_entities)
        rows, score = [], model.score_all_tails

        def counting(store, h_ids, r_ids, tails_combined=None):
            rows.append(len(h_ids))
            return score(store, h_ids, r_ids, tails_combined=tails_combined)

        monkeypatch.setattr(model, "score_all_tails", counting)
        ranking.evaluate(known.test, store, index)
        n_queries = 2 * len(known.test)
        distinct = len(np.unique(query_keys(known.test, store.n_relations)))
        assert distinct < n_queries
        assert len(rows) == -(-n_queries // (per_block or n_queries))
        assert distinct <= sum(rows) <= distinct + len(rows) - 1

    def test_block_memory_with_one_large_key(self, monkeypatch):
        # 400 tail queries of one key: a block holds 16 queries whatever their
        # keys, so no block gathers the key's 400 score and mask rows
        vocab, store_data = data.generate_synthetic_kg(seed=0, n_entities=4000)
        test = np.array([(0, 1, t) for t in range(1, 401)])
        known = data.TripleStore(store_data.train, store_data.valid, test)
        index = data.build_filter_index(known, vocab)
        store = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=0)
        monkeypatch.setattr(ranking, "EVAL_BLOCK_ELEMENTS", 16 * store.n_entities)
        c_all = model.combined_embeddings(store)
        ranking.evaluate(test[:8], store, index)  # warm the pool
        tracemalloc.start()
        try:
            ranking.evaluate(test, store, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < c_all.nbytes + 4 * ranking.EVAL_BLOCK_ELEMENTS * 8


class TestPerRelation:
    def test_counts_sum_to_split_size(self):
        vocab, store_data = data.generate_synthetic_kg(seed=2, n_entities=25)
        store = model.init_model("module_rh", 2, vocab.n_entities, vocab.n_relations, seed=1)
        index = data.build_filter_index(store_data, vocab)
        report = ranking.evaluate(store_data.test, store, index)
        rows = ranking.per_relation_table(report, vocab)
        assert sum(count for _, _, count in rows) == len(store_data.test)
        counts = [count for _, _, count in rows]
        assert counts == sorted(counts, reverse=True)

    def test_absent_relation_has_no_row(self):
        vocab, store_data = data.generate_synthetic_kg(seed=2, n_entities=25)
        store = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=1)
        index = data.build_filter_index(store_data, vocab)
        present = {int(r) for r in store_data.test[:, 1]}
        report = ranking.evaluate(store_data.test, store, index)
        assert set(report.per_relation) == present

    def test_single_relation_single_row(self):
        vocab, _ = data.generate_synthetic_kg(seed=0, n_entities=10)
        store = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=0)
        split = np.array([[0, 1, 2], [3, 1, 4]])
        report = ranking.evaluate(split, store, None)
        rows = ranking.per_relation_table(report, vocab)
        assert len(rows) == 1
        assert rows[0][0] == vocab.relation_name(1)

    def test_mrr_sums_records_in_query_order(self):
        vocab, store_data = data.generate_synthetic_kg(seed=0, n_entities=50)
        store = model.init_model("module_rh", 2, vocab.n_entities, vocab.n_relations, seed=2)
        index = data.build_filter_index(store_data, vocab)
        report = ranking.evaluate(store_data.train, store, index)
        sums = {}
        for rec in report.ranks:
            acc = sums.setdefault(rec.r_id, [0.0, 0])
            acc[0] += 1.0 / rec.rank
            acc[1] += rec.direction == "tail"
        assert report.per_relation == {rid: (s / (2 * c), c) for rid, (s, c) in sums.items()}
