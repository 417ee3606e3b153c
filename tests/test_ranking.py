import numpy as np
import pytest

from mkge import data, model, ranking
from mkge.errors import ShapeMismatch


def brute_force_rank(scores, true_idx, filtered_out):
    """Reference: materialize candidates, stable-sort descending with the true
    triple ordered last among equal scores, report its 1-based position."""
    candidates = [i for i in range(len(scores)) if i == true_idx or i not in filtered_out]
    ordered = sorted(candidates, key=lambda i: (-scores[i], i == true_idx))
    return ordered.index(true_idx) + 1


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
        assert ranking.bottom_rank(scores, 1, filtered_out={0, 2}) == 1

    def test_true_idx_never_filtered(self):
        scores = np.array([0.9, 0.5])
        assert ranking.bottom_rank(scores, 1, filtered_out={1}) == 2

    def test_invalid_index(self):
        with pytest.raises(IndexError):
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
            assert ranking.bottom_rank(scores, true_idx, filtered) == brute_force_rank(
                scores, true_idx, filtered
            )

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
            assert ranking.bottom_rank(scores, true_idx, filtered) <= ranking.bottom_rank(
                scores, true_idx
            )


def reference_evaluate(split, store, filter_index):
    """Independent evaluator built on the brute-force sorter."""
    n_base = store.n_relations // 2
    ranks = []
    for h, r, t in split:
        for sh, sr, true_e in (((int(h)), int(r), int(t)), (int(t), int(r) + n_base, int(h))):
            scores = model.score_all_tails(store, sh, sr)[0]
            filtered = set(filter_index.get((sh, sr), set())) - {true_e}
            ranks.append(brute_force_rank(scores, true_e, filtered))
    ranks = np.array(ranks, dtype=float)
    return {
        "ranks": ranks,
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
        ref = reference_evaluate(store_data.test, store, index)
        assert report.mrr == pytest.approx(ref["mrr"], abs=1e-12)
        assert report.hits1 == ref["hits1"]
        assert report.hits3 == ref["hits3"]
        assert report.hits10 == ref["hits10"]

    @pytest.mark.parametrize("variant", ["module_rc", "rotate"])
    def test_multi_chunk_ranks_match_reference(self, variant):
        vocab, store_data = data.generate_synthetic_kg(seed=0, n_entities=50)
        store = model.init_model(variant, 3, vocab.n_entities, vocab.n_relations, seed=4)
        index = data.build_filter_index(store_data, vocab)
        split = store_data.train
        assert 2 * len(split) > 2 * ranking.EVAL_CHUNK_QUERIES  # at least 3 chunks
        report = ranking.evaluate(split, store, index)
        ref = reference_evaluate(split, store, index)
        assert [rec.rank for rec in report.ranks] == ref["ranks"].tolist()
        assert report.mrr == pytest.approx(ref["mrr"], abs=1e-12)

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

    def test_order_independent(self):
        _, store_data, store, index = self.make_setup(seed=7)
        a = ranking.evaluate(store_data.test, store, index)
        b = ranking.evaluate(store_data.test[::-1], store, index)
        assert a.mrr == pytest.approx(b.mrr, abs=1e-12)

    def test_perfect_single_triple(self):
        vocab, _ = data.generate_synthetic_kg(seed=0, n_entities=10)
        store = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=0)
        split = np.array([[0, 0, 1]])
        index = {}
        full = ranking.evaluate(split, store, index)
        tail_scores = model.score_all_tails(store, 0, 0)[0]
        head_scores = model.score_all_tails(store, 1, vocab.n_base_relations)[0]
        if tail_scores.argmax() == 1 and head_scores.argmax() == 0:
            assert full.mrr == 1.0  # only meaningful when the random store agrees


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
        report = ranking.evaluate(split, store, {})
        rows = ranking.per_relation_table(report, vocab)
        assert len(rows) == 1
        assert rows[0][0] == vocab.relation_name(1)
