"""Release gate: one test per acceptance criterion, each printing a PASS line
at its stated tolerance. Criteria 6 and 7 need externally supplied benchmark
datasets and are skipped unless the corresponding env vars are set."""

import os

import numpy as np
import pytest

from mkge import algebra, data, model, ranking, train
from oracles import brute_force_rank, conj, finite_difference_grads, oracle_score

N_ALGEBRA_PAIRS = 100_000


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


class TestCriterion1Algebra:
    def test_algebra_property_suite(self):
        rng = np.random.default_rng(11)
        # element planes (4, N): the draws of (N, 4) arrays, transposed
        p = rng.uniform(-2.0, 2.0, size=(N_ALGEBRA_PAIRS, 4)).T
        q = rng.uniform(-2.0, 2.0, size=(N_ALGEBRA_PAIRS, 4)).T

        pq = algebra.elem_mul(p, q)
        lhs = algebra.field_norm(pq)
        rhs = algebra.field_norm(p) * algebra.field_norm(q)
        rel = np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)
        assert rel.max() <= 1e-9

        units = algebra.exp_map(rng.uniform(-3.0, 3.0, size=(N_ALGEBRA_PAIRS, 3)).T)
        rotated = algebra.elem_mul(p, units)
        rel = np.abs(algebra.field_norm(rotated) - algebra.field_norm(p))
        rel /= np.maximum(algebra.field_norm(p), 1e-300)
        assert rel.max() <= 1e-9

        anti = conj(pq) - algebra.elem_mul(conj(q), conj(p))
        assert np.abs(anti).max() <= 1e-12

        scales = np.concatenate([[0.0, 1e-14, 1e-12, 1e-8], np.geomspace(1e-6, 10.0, 60)])
        omega = rng.standard_normal((len(scales), 64, 3))
        omega *= (scales / np.maximum(np.linalg.norm(omega, axis=-1), 1e-300))[..., None]
        err = np.abs(algebra.field_norm(algebra.exp_map(np.moveaxis(omega, -1, 0))) - 1.0)
        assert err.max() <= 1e-12

        report(1, f"{N_ALGEBRA_PAIRS} operand pairs, worst-case within tolerance")


GRAD_VARIANTS = ["module_rc", "module_rh", "module_hh"]
ABLATIONS = ["both", "scalar", "vector"]
GRAD_LOSS = train.LossConfig(p=3, lam=0.05, lambda1=2.0, lambda2=0.5, lambda3=2.0)


def grad_instance(name, ablation, seed=17):
    store = model.init_model(name, 2, 4, 2, seed=seed, ablation=ablation)
    rng = np.random.default_rng(3)
    batch = np.stack([rng.integers(4, size=3), rng.integers(2, size=3),
                      rng.integers(4, size=3)], axis=1)
    return store, batch


def gradient_artifact():
    """Analytic gradients for every variant x ablation, as one byte string."""
    chunks = []
    for name in GRAD_VARIANTS:
        for ablation in ABLATIONS:
            store, batch = grad_instance(name, ablation)
            loss, g_e, g_r = train.batch_loss_and_grads(store, batch, GRAD_LOSS)
            chunks.append(np.float64(loss).tobytes())
            chunks.append(g_e.tobytes())
            chunks.append(g_r.tobytes())
    return b"".join(chunks)


class TestCriterion2Gradients:
    def test_analytic_matches_central_differences(self):
        checked = 0
        for name in GRAD_VARIANTS:
            for ablation in ABLATIONS:
                store, batch = grad_instance(name, ablation)
                _, g_e, g_r = train.batch_loss_and_grads(store, batch, GRAD_LOSS)
                fd_e, fd_r = finite_difference_grads(store, batch, GRAD_LOSS)
                for analytic, fd in ((g_e, fd_e), (g_r, fd_r)):
                    denom = np.maximum(np.abs(analytic), np.abs(fd))
                    assert np.all(np.abs(analytic - fd) <= 1e-4 * denom + 1e-8)
                    checked += analytic.size
        report(2, f"{checked} free parameters across {len(GRAD_VARIANTS)}x{len(ABLATIONS)} cases")


class TestCriterion3Degeneration:
    def test_scalar_only_rc_equals_distmult(self):
        n_entities, n_relations, k = 30, 6, 8
        store = model.init_model("module_rc", k, n_entities, n_relations,
                                 seed=23, ablation="scalar")
        ent = store.entity[:, :k]
        rel = store.relation[:, :k]
        c_all = model.combined_embeddings(store)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            h, t = rng.integers(n_entities, size=2)
            r = int(rng.integers(n_relations))
            direct = float(np.sum(ent[h] * rel[r] * ent[t]))
            got = model.score_all_tails(store, h, r, c_all)[0, t]
            worst = max(worst, abs(got - direct), abs(got - oracle_score(store, h, r, t)))
        assert worst <= 1e-12
        report(3, f"1000 triples, max |score difference| = {worst:.2e}")


def ranking_artifact():
    """Ranks from bottom_rank on 1000 seeded tie-heavy instances, as bytes."""
    rng = np.random.default_rng(29)
    ranks = []
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
        true_idx = int(rng.integers(n))
        others = [i for i in range(n) if i != true_idx]
        filtered = set(rng.choice(others, size=min(len(others), int(rng.integers(0, n))),
                                  replace=False).tolist())
        mask = np.zeros(n, dtype=bool)
        mask[list(filtered)] = True
        ranks.append((ranking.bottom_rank(scores, true_idx, mask),
                      brute_force_rank(scores, true_idx, filtered)))
    return np.array(ranks, dtype=np.int64).tobytes(), ranks


class TestCriterion4RankingOracle:
    def test_matches_brute_force_exactly(self):
        _, ranks = ranking_artifact()
        assert all(got == want for got, want in ranks)

        vocab, store_data = data.generate_synthetic_kg(seed=31, n_entities=20)
        store = model.init_model("module_rh", 3, vocab.n_entities, vocab.n_relations, seed=31)
        index = data.build_filter_index(store_data, vocab)
        got = ranking.evaluate(store_data.test, store, index)
        n_base = vocab.n_base_relations
        facts = np.concatenate(list(store_data.splits().values())).tolist()
        want = []
        for h, r, t in store_data.test:
            for sh, sr, true_e in ((int(h), int(r), int(t)), (int(t), int(r) + n_base, int(h))):
                scores = model.score_all_tails(store, sh, sr)[0]
                # filter sets from the raw splits, both directions
                filtered = ({b for a, q, b in facts if (a, q) == (sh, sr)}
                            | {a for a, q, b in facts if (b, q + n_base) == (sh, sr)}) - {true_e}
                want.append(brute_force_rank(scores, true_e, filtered))
        assert [rec.rank for rec in got.ranks] == want
        report(4, "1000 tied instances + full evaluate pass, exact agreement")


def desk_scale_run():
    """The 50-entity memorization run; returns metrics and a bytes artifact."""
    vocab, triples = data.generate_synthetic_kg(seed=0, n_entities=50)
    aug = data.augment_reciprocal(triples.train, vocab)
    index = data.build_filter_index(triples, vocab)
    store = model.init_model("module_hh", 16, vocab.n_entities, vocab.n_relations, seed=0)
    cfg = train.FitConfig(epochs=200, batch_size=256, lr=0.1, seed=0,
                          loss=train.LossConfig(p=3, lam=0.01))
    train.fit(store, aug, cfg)
    raw = ranking.evaluate(triples.train, store, None)
    test = ranking.evaluate(triples.test, store, index)
    artifact = b"".join([store.entity.tobytes(), store.relation.tobytes(),
                         np.float64([raw.mrr, test.mrr]).tobytes()])
    return raw.mrr, test.mrr, vocab.n_entities, artifact


class TestCriterion5DeskScale:
    def test_memorization_and_generalization(self):
        raw_mrr, test_mrr, n_entities, _ = desk_scale_run()
        baseline = 1.0 / n_entities
        assert raw_mrr >= 0.95
        assert test_mrr >= 10 * baseline
        report(5, f"raw train MRR {raw_mrr:.3f}, filtered test MRR {test_mrr:.3f} "
                  f"vs 10x baseline {10 * baseline:.3f}")


@pytest.mark.skipif("MKGE_RUN_PAPER_REPRO" not in os.environ,
                    reason="multi-hour benchmark reproduction; set MKGE_RUN_PAPER_REPRO "
                           "and MKGE_WN18RR_DIR / MKGE_FB15K237_DIR to enable")
class TestCriterion6BenchmarkReproduction:
    """Full-dataset reproduction with the published-table presets.

    Targets: WN18RR MRR 0.492, FB15k-237 MRR 0.361, each within 0.01, and the
    WN18RR run reaching 95% of its final MRR by epoch 30.
    """

    def run_preset(self, preset, dataset_dir, out):
        from mkge import cli

        assert cli.main(["train", "--preset", preset, "--dataset", dataset_dir,
                         "--out", out, "--eval-interval", "5"]) == 0
        with open(os.path.join(out, "metrics.csv")) as fh:
            header, row = fh.read().splitlines()
        return dict(zip(header.split(","), map(float, row.split(","))))

    def test_wn18rr(self, tmp_path):
        dataset = os.environ.get("MKGE_WN18RR_DIR")
        if not dataset:
            pytest.skip("MKGE_WN18RR_DIR not set")
        metrics = self.run_preset("wn18rr", dataset, str(tmp_path / "wn18rr"))
        assert abs(metrics["mrr"] - 0.492) <= 0.01
        with open(str(tmp_path / "wn18rr" / "train_report.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        curve = [(int(r[0]), float(r[3])) for r in rows if r[3]]
        final = curve[-1][1]
        by_30 = max(mrr for epoch, mrr in curve if epoch <= 30)
        assert by_30 >= 0.95 * final
        report(6, f"WN18RR MRR {metrics['mrr']:.3f}")

    def test_fb15k237(self, tmp_path):
        dataset = os.environ.get("MKGE_FB15K237_DIR")
        if not dataset:
            pytest.skip("MKGE_FB15K237_DIR not set")
        metrics = self.run_preset("fb15k237", dataset, str(tmp_path / "fb15k237"))
        assert abs(metrics["mrr"] - 0.361) <= 0.01
        report(6, f"FB15k-237 MRR {metrics['mrr']:.3f}")


@pytest.mark.skipif("MKGE_WN18RR_DIR" not in os.environ,
                    reason="needs the published WN18RR files; set MKGE_WN18RR_DIR")
class TestCriterion7DataFidelity:
    # counts taken directly from the published WN18RR split files
    EXPECTED = dict(n_entities=40943, n_relations=11,
                    n_train=86835, n_valid=3034, n_test=3134)

    def test_wn18rr_counts_and_filter_index(self):
        vocab, store = data.build_dataset(os.environ["MKGE_WN18RR_DIR"])
        assert vocab.n_entities == self.EXPECTED["n_entities"]
        assert vocab.n_base_relations == self.EXPECTED["n_relations"]
        assert len(store.train) == self.EXPECTED["n_train"]
        assert len(store.valid) == self.EXPECTED["n_valid"]
        assert len(store.test) == self.EXPECTED["n_test"]
        index = data.build_filter_index(store, vocab)
        for h, r, t in store.test:
            assert index.mask([h], [r])[0, t]
            assert index.mask([t], [r + vocab.n_base_relations])[0, h]
        report(7, "WN18RR counts and filter-index self-membership verified")


class TestCriterion8Determinism:
    def two_runs(self, tmp_path, name, make_bytes):
        paths = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}_{tag}.bin"
            path.write_bytes(make_bytes())
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_gradient_run_byte_identical(self, tmp_path):
        self.two_runs(tmp_path, "gradients", gradient_artifact)
        report(8, "criterion 2 artifact byte-identical across runs")

    def test_ranking_run_byte_identical(self, tmp_path):
        self.two_runs(tmp_path, "ranking", lambda: ranking_artifact()[0])
        report(8, "criterion 4 artifact byte-identical across runs")

    def test_desk_scale_run_byte_identical(self, tmp_path):
        self.two_runs(tmp_path, "desk_scale", lambda: desk_scale_run()[3])
        report(8, "criterion 5 artifact byte-identical across runs")
