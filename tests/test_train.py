import dataclasses
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import mkge
from mkge import algebra, checkpoint, data, model, ranking, train
from mkge.errors import NonFiniteLoss, ShapeMismatch
from oracles import finite_difference_grads, oracle_regularizer, oracle_score


def assert_grads_close(analytic, fd, rel=1e-4, atol=1e-8):
    denom = np.maximum(np.abs(analytic), np.abs(fd))
    assert np.all(np.abs(analytic - fd) <= rel * denom + atol)


SMALL = dict(k=2, n_entities=4, n_relations=2)
LOSS = train.LossConfig(p=3, lam=0.05, lambda1=2.0, lambda2=0.5, lambda3=2.0)


def dense_step(store, state, grad_entity, grad_relation):
    """The dense reference step: `adagrad_step` on each whole table."""
    train.adagrad_step(store.entity, state.acc_entity, grad_entity, state.lr)
    train.adagrad_step(store.relation, state.acc_relation, grad_relation, state.lr)


def small_batch(seed=0):
    rng = np.random.default_rng(seed)
    h = rng.integers(SMALL["n_entities"], size=3)
    r = rng.integers(SMALL["n_relations"], size=3)
    t = rng.integers(SMALL["n_entities"], size=3)
    return np.stack([h, r, t], axis=1)


# heads 1, 4 and 7 and every relation repeat; tails 1, 3, 4 and 7 are also heads
REPEATED_BATCH = np.array([[1, 0, 4], [4, 2, 1], [1, 0, 7], [3, 1, 1], [4, 0, 9], [1, 2, 3],
                           [7, 1, 0], [4, 0, 4], [2, 2, 8], [1, 1, 5], [3, 0, 2], [7, 2, 6]])


class TestGradients:
    @pytest.mark.parametrize("name", ["module_rc", "module_rh", "module_hh", "distmult", "rotate"])
    @pytest.mark.parametrize("ablation", ["both", "scalar", "vector"])
    def test_matches_finite_differences(self, name, ablation):
        store = model.init_model(name, SMALL["k"], SMALL["n_entities"], SMALL["n_relations"],
                                 seed=17, ablation=ablation)
        batch = small_batch(seed=3)
        _, g_e, g_r = train.batch_loss_and_grads(store, batch, LOSS)
        fd_e, fd_r = finite_difference_grads(store, batch, LOSS)
        assert_grads_close(g_e, fd_e)
        assert_grads_close(g_r, fd_r)

    @pytest.mark.parametrize("name", sorted(model.VARIANTS))
    @pytest.mark.parametrize("ablation", model.ABLATION_MODES)
    def test_repeated_ids_add_as_mean_of_single_triples(self, name, ablation):
        """The batch gradient is the mean of its triples' gradients, also when
        heads and relations repeat and a tail is also a head: each repeated id
        adds its terms (a `+=` on a fancy index would keep only one). A table
        of an ablation can have no columns (distmult's for "vector")."""
        store = model.init_model(name, 2, 10, 3, seed=21, ablation=ablation)
        _, g_e, g_r = train.batch_loss_and_grads(store, REPEATED_BATCH, LOSS)
        singles = [train.batch_loss_and_grads(store, triple[None], LOSS)[1:]
                   for triple in REPEATED_BATCH]
        for got, tables in zip((g_e, g_r), zip(*singles)):
            want = np.mean(tables, axis=0)
            assert got.shape == want.shape
            scale = np.max(np.abs(want), initial=0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale

    def test_regularizer_gradient_isolated(self):
        store = model.init_model("module_rc", **SMALL, seed=5)
        cfg = train.LossConfig(p=2, lam=1.0, lambda1=1.0, lambda2=1.0, lambda3=1.0)
        batch = small_batch(seed=1)

        def reg_only(s):
            return np.mean([oracle_regularizer(s, *tr, cfg) for tr in batch])

        # isolate Phi by differencing against a lam=0 run
        zero = train.LossConfig(p=2, lam=0.0, lambda1=1.0, lambda2=1.0, lambda3=1.0)
        _, g_e, g_r = train.batch_loss_and_grads(store, batch, cfg)
        _, g_e0, g_r0 = train.batch_loss_and_grads(store, batch, zero)
        step = 1e-6
        flat = store.entity.ravel()
        analytic = (g_e - g_e0).ravel()
        rng = np.random.default_rng(0)
        for i in rng.choice(flat.size, size=6, replace=False):
            orig = flat[i]
            flat[i] = orig + step
            up = reg_only(store)
            flat[i] = orig - step
            dn = reg_only(store)
            flat[i] = orig
            fd = (up - dn) / (2 * step)
            assert analytic[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


# Three heads of k=2 make a (3, C, 2) distance plane; 42 elements give chunks
# of C=7 candidates, so 20 entities split into [0, 7), [7, 14) and [14, 20).
MULTI_CHUNK_ELEMENTS = 42
ROTATE20 = dict(k=2, n_entities=20, n_relations=2)
# true tails in the first and the last chunk
ROTATE20_BATCH = np.array([[3, 0, 2], [11, 1, 19], [5, 1, 9]])


def n_distance_chunks(b, k, n):
    chunk = max(1, model.DISTANCE_CHUNK_ELEMENTS // (b * k))
    return -(-n // chunk)


class TestDistanceKernel:
    def test_chunks_match_one_chunk(self, monkeypatch):
        store = model.init_model("rotate", **ROTATE20, seed=11)
        assert n_distance_chunks(3, 2, 20) == 1
        loss1, g_e1, g_r1 = train.batch_loss_and_grads(store, ROTATE20_BATCH, LOSS)
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", MULTI_CHUNK_ELEMENTS)
        assert n_distance_chunks(3, 2, 20) == 3
        loss3, g_e3, g_r3 = train.batch_loss_and_grads(store, ROTATE20_BATCH, LOSS)
        assert loss3 == pytest.approx(loss1, rel=1e-12)
        np.testing.assert_allclose(g_e3, g_e1, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(g_r3, g_r1, rtol=1e-12, atol=1e-15)

    def test_multi_chunk_matches_finite_differences(self, monkeypatch):
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", MULTI_CHUNK_ELEMENTS)
        store = model.init_model("rotate", **ROTATE20, seed=11)
        _, g_e, g_r = train.batch_loss_and_grads(store, ROTATE20_BATCH, LOSS)
        fd_e, fd_r = finite_difference_grads(store, ROTATE20_BATCH, LOSS)
        assert_grads_close(g_e, fd_e)
        assert_grads_close(g_r, fd_r)

    def test_zero_distance_pair_has_zero_subgradient(self):
        store = model.init_model("rotate", 2, 6, 1, seed=3)
        store.relation[:] = 0.0  # identity rotation
        store.entity[4] = store.entity[1]  # tail 4 sits exactly on head 1's transform
        assert model.score_all_tails(store, 1, 0)[0, 4] == 0.0
        loss, g_e, g_r = train.batch_loss_and_grads(
            store, np.array([[1, 0, 4]]), train.LossConfig(p=2, lam=0.0))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(g_e)) and np.all(np.isfinite(g_r))
        # entity 4 enters only through the zero-distance pair
        assert np.all(g_e[4] == 0.0)

    def test_zero_distance_candidate_adds_nothing_to_head_gradient(self):
        rng = np.random.default_rng(5)
        h, c = rng.normal(size=(2, 1, 3)), rng.normal(size=(2, 6, 3))
        c[:, 2] = h[:, 0]  # every dimension at distance 0
        c[:, 3, 1] = h[:, 0, 1]  # one dimension at distance 0
        tails = np.array([0])

        def kernel(c):  # component planes (w, n, k) in and out
            _, g_h, g_c = model.distance_kernel(np.moveaxis(h, 0, -1), np.moveaxis(c, 0, -1), tails)
            return np.moveaxis(g_h, -1, 0), np.moveaxis(g_c, -1, 0)

        grad_h, grad_c = kernel(c)
        assert np.all(grad_c[:, 2] == 0.0) and np.all(grad_c[:, 3, 1] == 0.0)
        assert np.all(grad_c[:, 3, [0, 2]] != 0.0)
        grad_h_without, _ = kernel(np.delete(c, 2, axis=1))
        np.testing.assert_allclose(grad_h, grad_h_without, rtol=1e-14)

    @pytest.mark.parametrize("offset", [0.0, 1e-170])  # 1e-170 squared underflows to 0
    def test_zero_distance_in_one_chunk(self, offset, monkeypatch, pool_runs):
        """Candidate 9, in the middle one of three chunks, sits at distance 0
        from every head in dimension 1: its coordinates equal the heads', or
        differ by 1e-170, whose square underflows. That dimension gets an
        exact-zero gradient, and the results match one chunk and every pool."""
        rng = np.random.default_rng(14)
        h, c = rng.normal(size=(3, 2, 2)), rng.normal(size=(20, 2, 2))
        h[:, 1] = 0.0
        c[9, 1] = [offset, -offset]
        tails = ROTATE20_BATCH[:, 2]

        def run():
            loss, grad_h, grad_c = model.distance_kernel(h, c, tails)
            return np.float64(loss), grad_h, grad_c

        loss1, grad_h1, grad_c1 = run()
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", MULTI_CHUNK_ELEMENTS)
        assert n_distance_chunks(3, 2, 20) == 3
        loss, grad_h, grad_c = run()
        assert np.isfinite(loss) and np.all(np.isfinite(grad_h)) and np.all(np.isfinite(grad_c))
        assert np.all(grad_c[9, 1] == 0.0) and np.all(grad_c[9, 0] != 0.0)
        assert loss == pytest.approx(loss1, rel=1e-12)
        np.testing.assert_allclose(grad_h, grad_h1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(grad_c, grad_c1, rtol=1e-12, atol=0)
        one, *pooled = pool_runs(run)
        assert pooled == [one, one]

    def test_peak_memory(self, monkeypatch, thread_pools):
        """A call holds, per running chunk, the (w, B, C, k) differences, the
        (B, C, k) distances, its candidates' (w, C, k) planes and a few (B, C)
        score arrays, with C * B * k <= DISTANCE_CHUNK_ELEMENTS, besides its
        (w, B, k) copy of the heads and its result: grad_c and grad_h in
        training, the (B, E) scores otherwise. At n = 40,000 c takes 10 MB, so
        a copy of the whole of c breaks either bound, as would a weight plane
        of d_s / dist next to the chunk's planes."""
        b, k, w, n = 32, 16, 2, 40_000
        assert n_distance_chunks(b, k, n) > 2  # chunks to overlap on two workers
        rng = np.random.default_rng(15)
        h, c = rng.normal(size=(b, k, w)), rng.normal(size=(n, k, w))
        # w + 1 planes, and below half a plane of (B, C) arrays at k = 16
        per_worker = (w + 1.5) * model.DISTANCE_CHUNK_ELEMENTS * 8
        for tails, held in ((rng.integers(n, size=b), 2 * h.nbytes + 1.5 * c.nbytes),
                            (None, h.nbytes + b * n * 8 + 0.5 * c.nbytes)):  # heads, scores
            for workers in (1, 2):
                monkeypatch.setattr(mkge, "_pool", thread_pools[workers])
                model.distance_kernel(h, c, tails)  # start the pool's threads
                tracemalloc.start()
                try:
                    model.distance_kernel(h, c, tails)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < per_worker * workers + held

    def test_squared_distances_round_as_separate_products(self, monkeypatch):
        """The scores, in several chunks, are the bytes of the squared
        distances written out as separate numpy calls, d0 * d0 + d1 * d1: each
        product rounded on its own, then added in coordinate order, as
        `algebra.field_norm` adds them. Pair (0, 3) sits at distance 0
        in dimension 1, and pair (1, 5) differs by 1e-170 in dimension 2,
        whose square underflows to 0. A numpy whose einsum fuses the
        multiply-add (rounding once) fails here; the digests' golden file
        would then change too."""
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", MULTI_CHUNK_ELEMENTS)
        rng = np.random.default_rng(16)
        h, c = rng.normal(size=(3, 4, 2)), rng.normal(size=(20, 4, 2))
        c[3, 1] = h[0, 1]
        h[1, 2], c[5, 2] = 0.0, [1e-170, -1e-170]
        assert n_distance_chunks(3, 4, 20) > 2
        d0, d1 = (np.subtract(h[:, None, :, j], c[None, :, :, j]) for j in (0, 1))
        squared = np.add(np.multiply(d0, d0), np.multiply(d1, d1))
        want = -np.sum(np.sqrt(squared), axis=-1)
        assert squared[0, 3, 1] == 0.0 and squared[1, 5, 2] == 0.0
        assert model.distance_kernel(h, c).tobytes() == want.tobytes()

    def test_pool_size_bit_identical(self, monkeypatch, pool_runs):
        """Three chunks on pools of 1, 2 and 8 workers: the chunk losses and
        head gradients fold in chunk order, so loss, gradients and scores are
        the same bytes."""
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", MULTI_CHUNK_ELEMENTS)
        assert n_distance_chunks(3, 2, 20) == 3
        rng = np.random.default_rng(8)
        h, c = rng.normal(size=(3, 2, 2)), rng.normal(size=(20, 2, 2))
        tails = ROTATE20_BATCH[:, 2]

        def run():
            loss, grad_h, grad_c = model.distance_kernel(h, c, tails)
            return np.float64(loss), grad_h, grad_c, model.distance_kernel(h, c)

        one, *pooled = pool_runs(run)
        assert pooled == [one, one]

    def test_fit_pool_size_bit_identical(self, monkeypatch, pool_runs):
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", MULTI_CHUNK_ELEMENTS)
        vocab, kg = data.generate_synthetic_kg(seed=3, n_entities=20)
        triples = data.augment_reciprocal(kg.train, vocab)
        cfg = train.FitConfig(epochs=3, batch_size=3, seed=4, loss=LOSS)

        def run():
            store = model.init_model("rotate", 2, vocab.n_entities, vocab.n_relations, seed=1)
            report, opt = train.fit(store, triples, cfg)
            return (store.entity, store.relation, opt.acc_entity, opt.acc_relation,
                    np.array([rec.loss for rec in report.epochs]))

        one, *pooled = pool_runs(run)
        assert pooled == [one, one]


class TestCosineKernel:
    @pytest.mark.parametrize("rows", [1, 4])  # one-row blocks; 4-row blocks split 11 rows 4/4/3
    def test_pool_size_bit_identical(self, rows, monkeypatch, pool_runs):
        """Score-row blocks on pools of 1, 2 and 8 workers give the bytes of
        the objective over the whole score matrix in one block."""
        rng = np.random.default_rng(9)
        h, c = rng.normal(size=(11, 2, 4)), rng.normal(size=(20, 2, 4))
        tails = BLOCK_BATCH[:, 2]
        h_flat, c_flat = h.reshape(11, -1), c.reshape(20, -1)
        x = h_flat @ c_flat.T
        d_s = model.logistic_terms(x, (np.arange(11), tails), 11)
        loss = float(np.sum(x))
        whole = b"".join(a.tobytes() for a in (np.float64(loss), d_s @ c_flat, d_s.T @ h_flat))

        def run():
            loss, grad_h, grad_c = model.cosine_kernel(h, c, tails)
            return np.float64(loss), grad_h, grad_c

        monkeypatch.setattr(model, "ROW_BLOCK_ELEMENTS", rows * 20)
        assert pool_runs(run) == [whole] * 3


def two_branch_sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestLoss:
    def test_sigmoid_bits_match_two_branch_formula(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.normal(scale=30.0, size=2000),
                            [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 5e-324, -5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model._sigmoid_of(x, np.exp(-np.abs(x)))
            x_nan = np.array([np.nan, 1.0])
            nan = model._sigmoid_of(x_nan, np.exp(-np.abs(x_nan)))
        assert got.tobytes() == two_branch_sigmoid(x).tobytes()
        assert np.isnan(nan[0]) and nan[1] == two_branch_sigmoid(np.array([1.0]))[0]

    def test_logistic_loss_matches_direct_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.normal(scale=8.0, size=(5, 9))
        x[0, 0], x[1, 1], x[2, 8] = 40.0, -40.0, 0.0
        pos = (np.arange(5), np.array([0, 1, 8, 3, 3]))
        y = -np.ones_like(x)
        y[pos] = 1.0
        terms = x.copy()
        d_s = model.logistic_terms(terms, pos, 5)
        loss = float(np.sum(terms))
        assert loss == pytest.approx(np.sum(np.logaddexp(0.0, -y * x)), rel=1e-14)
        # d log(1 + exp(-y s)) / ds = -y / (1 + exp(y s))
        np.testing.assert_allclose(d_s, -y / (1.0 + np.exp(y * x)) / 5, rtol=1e-14, atol=0)

    def test_single_entity_softplus(self):
        store = model.init_model("module_rc", 2, 1, 1, seed=0)
        cfg = train.LossConfig(p=2, lam=0.0)
        s = model.score_all_tails(store, 0, 0)[0, 0]
        loss = train.batch_loss_and_grads(store, np.array([[0, 0, 0]]), cfg)[0]
        assert loss == pytest.approx(np.logaddexp(0, -s))

    def test_all_zero_scores(self):
        store = model.init_model("module_rc", 2, 5, 1, seed=0)
        store.entity[:, :2] = 0.0  # zero scalars kill every cosine score
        cfg = train.LossConfig(p=2, lam=0.0)
        loss = train.batch_loss_and_grads(store, np.array([[0, 0, 1]]), cfg)[0]
        assert loss == pytest.approx(5 * np.log(2.0))

    def test_matches_direct_summation_oracle(self):
        store = model.init_model("module_hh", 2, 3, 2, seed=2)
        cfg = train.LossConfig(p=2, lam=0.03, lambda1=1.5, lambda2=0.5, lambda3=1.0)
        h, r, t = 1, 0, 2
        direct = 0.0
        for t2 in range(3):
            y = 1.0 if t2 == t else -1.0
            direct += np.logaddexp(0.0, -y * oracle_score(store, h, r, t2))
        direct += oracle_regularizer(store, h, r, t, cfg)
        loss = train.batch_loss_and_grads(store, np.array([[h, r, t]]), cfg)[0]
        assert loss == pytest.approx(direct, abs=1e-12)

    def test_batch_permutation_invariance(self):
        store = model.init_model("module_rh", 2, 5, 2, seed=4)
        batch = small_batch(seed=9) % [5, 2, 5]
        a, _, _ = train.batch_loss_and_grads(store, batch, LOSS)
        b, _, _ = train.batch_loss_and_grads(store, batch[::-1], LOSS)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("name", ["module_rc", "rotate"])
    @pytest.mark.parametrize("triple", [[0, 0, -1], [0, 0, 4], [-1, 0, 0], [0, 2, 0]])
    def test_out_of_range_ids(self, name, triple):
        store = model.init_model(name, 2, 4, 2, seed=0)
        with pytest.raises(IndexError):
            train.batch_loss_and_grads(store, np.array([triple]), LOSS)

    def test_large_scores_no_overflow(self):
        store = model.init_model("module_rc", 2, 3, 1, seed=0)
        store.entity[:, :2] = 40.0  # cosine scores of magnitude ~1e3
        cfg = train.LossConfig(p=2, lam=0.0)
        assert np.isfinite(train.batch_loss_and_grads(store, np.array([[0, 0, 1]]), cfg)[0])


def regularizer_share(store, triple, cfg):
    """The regularizer's share of the loss of a one-triple batch: the loss
    at `cfg` minus the loss with every regularization rate 0."""
    batch = np.array([triple])
    zero = train.LossConfig(p=cfg.p, lam=0.0, lambda1=0.0, lambda2=0.0, lambda3=0.0)
    return (train.batch_loss_and_grads(store, batch, cfg)[0]
            - train.batch_loss_and_grads(store, batch, zero)[0])


class TestRegularizer:
    def test_zero_lambda(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        cfg = train.LossConfig(p=2, lam=0.0)
        assert regularizer_share(store, (0, 0, 1), cfg) == 0.0

    def test_unit_quaternion_combined_value(self):
        store = model.init_model("module_hh", 1, 2, 1, seed=0)
        store.entity[0, :4] = [1.0, 1.0, 1.0, 1.0]
        cfg = train.LossConfig(p=2, lam=1.0, lambda1=1.0, lambda2=0.0, lambda3=0.0)
        # N(combined) = N(scalar) = 4 for unit vector part; G_2 = (4^2)^(1/2)
        assert regularizer_share(store, (0, 0, 1), cfg) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("name,ablation", [("module_hh", "both"), ("module_hh", "scalar"),
                                               ("module_rc", "both")])
    def test_unit_scalings_get_no_regularizer_gradient(self, name, ablation):
        """G_p of unit scalings is the constant k^(1/p), so the regularizer
        moves their gradient by rounding only. Free `gl1` scalings
        (`module_rc`) are the control, whose gradient it moves."""
        store = model.init_model(name, 4, 10, 3, seed=6, ablation=ablation)
        g_r, g_r0 = (train.batch_loss_and_grads(store, REPEATED_BATCH,
                                                train.LossConfig(p=3, lam=lam))[2]
                     for lam in (0.5, 0.0))
        diff = np.max(np.abs(store.relation_parts(g_r)[0] - store.relation_parts(g_r0)[0]))
        bound = 1e-12 * np.max(np.abs(g_r))
        assert diff < bound if name == "module_hh" else diff > bound

    def test_linearity_in_lambda(self):
        store = model.init_model("module_rh", 2, 3, 2, seed=1)
        one = train.LossConfig(p=3, lam=0.5, lambda1=1.0, lambda2=1.0, lambda3=1.0)
        two = train.LossConfig(p=3, lam=1.0, lambda1=1.0, lambda2=1.0, lambda3=1.0)
        assert regularizer_share(store, (0, 1, 2), two) == pytest.approx(
            2 * regularizer_share(store, (0, 1, 2), one)
        )


class TestAdagrad:
    def test_zero_gradient_noop(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        state = train.OptimizerState.for_store(store)
        before = store.entity.copy()
        dense_step(store, state, np.zeros_like(store.entity), np.zeros_like(store.relation))
        assert np.array_equal(store.entity, before)
        assert np.all(state.acc_entity == 0.0)

    def test_first_step_magnitude(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        state = train.OptimizerState.for_store(store, lr=0.1)
        before = store.entity[0, 0]
        g_e = np.zeros_like(store.entity)
        g_e[0, 0] = 1.0
        dense_step(store, state, g_e, np.zeros_like(store.relation))
        assert before - store.entity[0, 0] == pytest.approx(0.1 / (1.0 + 1e-10))

    def test_second_step_shrinks(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        state = train.OptimizerState.for_store(store, lr=0.1)
        g_e = np.ones_like(store.entity)
        g_r = np.zeros_like(store.relation)
        p0 = store.entity[0, 0]
        dense_step(store, state, g_e, g_r)
        p1 = store.entity[0, 0]
        dense_step(store, state, g_e, g_r)
        p2 = store.entity[0, 0]
        assert abs(p2 - p1) < abs(p1 - p0)

    def test_shape_mismatch(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        state = train.OptimizerState.for_store(store)
        with pytest.raises(ShapeMismatch):
            dense_step(store, state, np.zeros((1, 1)), np.zeros_like(store.relation))
        with pytest.raises(ShapeMismatch):  # a row block's accumulator from other rows
            train.adagrad_step(store.entity[:2], state.acc_entity[:1],
                               np.ones_like(store.entity[:2]), 0.1)
        assert not state.acc_entity.any()


class TestSchedule:
    def test_epoch_zero(self):
        assert train.FitConfig(epochs=200, schedule="exp").lr_at(0) == pytest.approx(0.1)

    def test_final_epoch_decade(self):
        cfg = train.FitConfig(epochs=200, schedule="exp")
        assert cfg.lr_at(200) == pytest.approx(0.01, abs=1e-12)

    def test_constant(self):
        for epoch in (0, 7, 199):
            assert train.FitConfig(epochs=200).lr_at(epoch) == 0.1

    def test_zero_epochs_keeps_lr(self):
        """With no epochs the exp schedule is flat: an epoch trained past the
        end, through `stop_epoch`, trains at `lr`."""
        cfg = train.FitConfig(epochs=0, lr=0.2, batch_size=16, schedule="exp")
        assert cfg.lr_at(0) == 0.2
        vocab, kg = data.generate_synthetic_kg(seed=3, n_entities=20)
        store = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=0)
        report, _ = train.fit(store, data.augment_reciprocal(kg.train, vocab), cfg,
                              stop_epoch=1)
        assert [(rec.epoch, rec.lr) for rec in report.epochs] == [(0, 0.2)]


class TestFitConfig:
    @pytest.mark.parametrize("field,value", [
        ("epochs", -1), ("batch_size", 0), ("schedule", "cosine"),
        ("eval_interval", 0), ("patience", 0),
        ("lr", 0.0), ("lr", -0.1), ("lr", float("nan")), ("lr", float("inf")),
        ("epochs", 2.5), ("batch_size", 2.5), ("seed", 1.5), ("patience", True),
        ("eval_interval", "5"),
    ])
    def test_bad_value_raises(self, field, value):
        with pytest.raises(ValueError):
            train.FitConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_lr_not_real_named(self, value):
        with pytest.raises(ValueError, match="lr must be a real number"):
            train.FitConfig(lr=value)

    def test_defaults_and_edges_accepted(self):
        train.FitConfig()
        train.FitConfig(epochs=0, batch_size=1, schedule="exp", eval_interval=1, patience=1,
                        lr=1e-300)
        train.FitConfig(lr=np.float32(0.5))
        train.FitConfig(lr=1)


class TestLossConfig:
    @pytest.mark.parametrize("field", ["lam", "lambda1", "lambda2", "lambda3"])
    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf"), float("-inf")])
    def test_bad_rate_raises(self, field, value):
        with pytest.raises(ValueError, match="regularization rates"):
            train.LossConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lam", "lambda1", "lambda2", "lambda3"])
    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_rate_not_real_raises(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            train.LossConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.0, True])
    def test_p_not_integer_raises(self, value):
        with pytest.raises(ValueError, match="p must be an integer"):
            train.LossConfig(p=value)

    def test_edges_accepted(self):
        train.LossConfig(p=2, lam=0.0, lambda1=0.0, lambda2=0.0, lambda3=0.0)
        train.LossConfig(lam=1e300, lambda1=5e-324)
        train.LossConfig(lam=np.float64(0.5), lambda2=0)


class TestFit:
    def test_zero_epochs(self):
        store = model.init_model("module_rc", 2, 4, 2, seed=0)
        before = store.entity.copy()
        cfg = train.FitConfig(epochs=0, batch_size=2, loss=train.LossConfig(p=2, lam=0.0))
        report, _ = train.fit(store, small_batch(), cfg)
        assert report.epochs == []
        assert np.array_equal(store.entity, before)

    def test_deterministic(self):
        cfg = train.FitConfig(epochs=3, batch_size=2, seed=5, loss=train.LossConfig(p=2, lam=0.01))
        losses = []
        for _ in range(2):
            store = model.init_model("module_rc", 2, 4, 2, seed=0)
            report, _ = train.fit(store, small_batch(), cfg)
            losses.append([rec.loss for rec in report.epochs])
        assert losses[0] == losses[1]

    def test_single_triple_score_increases(self):
        store = model.init_model("module_rc", 2, 1, 1, seed=0)
        cfg = train.LossConfig(p=2, lam=0.0)
        state = train.OptimizerState.for_store(store, lr=0.1)
        scores = [model.score_all_tails(store, 0, 0)[0, 0]]
        for _ in range(10):
            _, g_e, g_r = train.batch_loss_and_grads(store, np.array([[0, 0, 0]]), cfg)
            dense_step(store, state, g_e, g_r)
            scores.append(model.score_all_tails(store, 0, 0)[0, 0])
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_rotate_rerun_byte_identical(self, monkeypatch):
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", MULTI_CHUNK_ELEMENTS)
        vocab, kg = data.generate_synthetic_kg(seed=3, n_entities=20)
        triples = data.augment_reciprocal(kg.train, vocab)
        cfg = train.FitConfig(epochs=2, batch_size=3, seed=4, loss=train.LossConfig(p=3, lam=0.05))
        runs = []
        for _ in range(2):
            store = model.init_model("rotate", 2, vocab.n_entities, vocab.n_relations, seed=1)
            _, opt = train.fit(store, triples, cfg)
            runs.append(b"".join(t.tobytes() for t in (
                store.entity, store.relation, opt.acc_entity, opt.acc_relation)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("split", [np.empty((0, 3), np.int64), np.zeros((4, 2), np.int64),
                                       np.zeros(3, np.int64)], ids=["empty", "two_columns", "flat"])
    def test_bad_train_split_raises(self, split):
        store = model.init_model("module_rc", 2, 4, 2, seed=0)
        with pytest.raises(ShapeMismatch, match="train split"):
            train.fit(store, split, train.FitConfig(epochs=1))

    @pytest.mark.parametrize("split, column, value", [
        ("train", 2, "n_entities"), ("train", 1, "n_relations"),
        ("validation", 2, "n_entities"), ("validation", 1, "n_base_relations"),
    ])
    def test_bad_id_raises_before_any_update(self, split, column, value):
        """An id out of range in the last row of the train split, or of the
        validation split (whose relations are base relations), raises before
        the first batch: the tables and accumulators keep their bytes."""
        vocab, kg = data.generate_synthetic_kg(seed=1, n_entities=30)
        triples, valid = data.augment_reciprocal(kg.train, vocab), kg.valid.copy()
        (triples if split == "train" else valid)[-1, column] = getattr(vocab, value)
        store = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=0)
        opt = train.OptimizerState.for_store(store)
        state = (store.entity, store.relation, opt.acc_entity, opt.acc_relation)
        before = [a.tobytes() for a in state]
        cfg = train.FitConfig(epochs=1, batch_size=8, eval_interval=1)
        with pytest.raises(IndexError, match=f"{split} split"):
            train.fit(store, triples, cfg, valid_triples=valid,
                      filter_index=data.build_filter_index(kg, vocab), opt_state=opt)
        assert [a.tobytes() for a in state] == before

    @pytest.mark.parametrize("bounds, message", [
        ({"start_epoch": -2}, "start_epoch must be >= 0, got -2"),
        ({"start_epoch": 1.5}, "start_epoch must be an integer, got 1.5"),
        ({"stop_epoch": 2.5}, "stop_epoch must be an integer, got 2.5"),
    ])
    def test_bad_epoch_bound_raises_before_any_update(self, bounds, message):
        """Where numpy's default_rng or range raised, an epoch bound that is
        not an integer >= 0 raises ValueError naming it before the first
        batch: the tables and accumulators keep their bytes."""
        store = model.init_model("module_rc", 2, 4, 2, seed=0)
        opt = train.OptimizerState.for_store(store)
        state = (store.entity, store.relation, opt.acc_entity, opt.acc_relation)
        before = [a.tobytes() for a in state]
        with pytest.raises(ValueError, match=message):
            train.fit(store, small_batch(), train.FitConfig(epochs=3, batch_size=2),
                      opt_state=opt, **bounds)
        assert [a.tobytes() for a in state] == before

    @pytest.mark.parametrize("name", ["module_rc", "module_rh", "module_hh", "rotate"])
    def test_first_epoch_decreases_objective(self, name):
        vocab, store_data = data.generate_synthetic_kg(seed=1, n_entities=20)
        triples = data.augment_reciprocal(store_data.train, vocab)
        store = model.init_model(name, 4, vocab.n_entities, vocab.n_relations, seed=2)
        cfg = train.LossConfig(p=2, lam=0.01)
        before, _, _ = train.batch_loss_and_grads(store, triples, cfg)
        fit_cfg = train.FitConfig(epochs=1, batch_size=64, seed=0, loss=cfg)
        train.fit(store, triples, fit_cfg)
        after, _, _ = train.batch_loss_and_grads(store, triples, cfg)
        assert after < before

    def test_early_stopping(self):
        """Validated every epoch with patience 3, the run stops at the epoch
        its own MRR sequence gives, well before `epochs`, and a rerun is the
        same bytes. The toy KG is memorized, so its MRR rises, then stalls."""
        vocab, kg = data.generate_synthetic_kg(seed=2, n_entities=40)
        triples = data.augment_reciprocal(kg.train, vocab)
        index = data.build_filter_index(kg, vocab)
        cfg = train.FitConfig(epochs=60, batch_size=32, lr=0.2, seed=3, eval_interval=1,
                              patience=3, loss=train.LossConfig(p=3, lam=0.01))
        runs = []
        for _ in range(2):
            store = model.init_model("module_rc", 8, vocab.n_entities, vocab.n_relations, seed=1)
            report, _ = train.fit(store, triples, cfg, valid_triples=kg.valid,
                                  filter_index=index)
            mrrs = [rec.valid_mrr for rec in report.epochs]
            runs.append(b"".join(np.asarray(a).tobytes() for a in (
                store.entity, store.relation, [rec.loss for rec in report.epochs], mrrs)))
        # the first epoch whose last `patience` MRRs all fail to beat the best before them
        stop = next(i for i in range(cfg.patience + 1, len(mrrs) + 1)
                    if max(mrrs[i - cfg.patience:i]) <= max(mrrs[:i - cfg.patience]) + 1e-12)
        assert len(mrrs) == stop < cfg.epochs
        assert max(mrrs) > 2 * mrrs[0]  # it learned before it stalled
        assert runs[0] == runs[1]

    def test_callback_sees_each_epoch_that_runs(self):
        """`fit` calls back once per epoch that runs, in order, with that
        epoch's record and the store as the epoch left it, which is the store
        a run stopped after that epoch returns. The epoch that stops the run
        early is called back too."""
        vocab, kg = data.generate_synthetic_kg(seed=2, n_entities=40)
        triples = data.augment_reciprocal(kg.train, vocab)
        index = data.build_filter_index(kg, vocab)
        cfg = train.FitConfig(epochs=20, batch_size=32, lr=0.2, seed=0, eval_interval=1,
                              patience=1, loss=train.LossConfig(p=3, lam=0.01))

        def run(**kwargs):
            store = model.init_model("module_rc", 8, vocab.n_entities, vocab.n_relations, seed=1)
            seen = []

            def callback(rec, got):
                assert got is store
                seen.append((rec, store.entity.tobytes() + store.relation.tobytes()))

            report, _ = train.fit(store, triples, cfg, valid_triples=kg.valid,
                                  filter_index=index, callback=callback, **kwargs)
            return report, seen, store

        report, seen, _ = run()
        assert len(seen) == len(report.epochs)
        assert all(rec is kept for (rec, _), kept in zip(seen, report.epochs))
        assert [rec.epoch for rec in report.epochs] == list(range(len(seen)))
        assert 3 <= len(seen) < cfg.epochs  # the last epoch called back stopped the run
        _, _, stopped = run(stop_epoch=2)
        assert seen[1][1] == stopped.entity.tobytes() + stopped.relation.tobytes()

    def test_all_trivial_model_runs_end_to_end(self, tmp_path):
        """distmult with ablation "vector" freezes all four parts, so both its
        tables have no columns: an epoch of `fit`, a checkpoint round trip
        and a filtered evaluation still run."""
        vocab, kg = data.generate_synthetic_kg(seed=3, n_entities=20)
        triples = data.augment_reciprocal(kg.train, vocab)
        store = model.init_model("distmult", 4, vocab.n_entities, vocab.n_relations, seed=1,
                                 ablation="vector")
        assert store.entity.shape == (vocab.n_entities, 0)
        assert store.relation.shape == (vocab.n_relations, 0)
        cfg = train.FitConfig(epochs=1, batch_size=32, seed=2, loss=LOSS)
        report, opt = train.fit(store, triples, cfg)
        assert len(report.epochs) == 1 and np.isfinite(report.epochs[0].loss)
        path = tmp_path / "trivial.mkge"
        checkpoint.save_checkpoint(path, store, opt_state=opt, epoch=1)
        loaded = checkpoint.load_checkpoint(path)
        assert loaded.store.variant == store.variant and loaded.store.ablation == "vector"
        for a, b in ((loaded.store.entity, store.entity), (loaded.store.relation, store.relation),
                     (loaded.opt_state.acc_entity, opt.acc_entity)):
            assert a.shape == b.shape
        metrics = ranking.evaluate(kg.test, loaded.store, data.build_filter_index(kg, vocab))
        assert len(metrics.ranks) > 0 and 0.0 < metrics.mrr <= 1.0

    @pytest.mark.parametrize("name", ["module_rc", "rotate"])
    def test_nonfinite_aborts(self, name):
        """The loss is checked before any row block updates, so the tables
        and the accumulators keep their bytes. The dense gradient call, with
        no update, raises as well instead of returning NaN tables."""
        store = model.init_model(name, 2, 4, 2, seed=0)
        store.entity[0, 0] = np.nan
        rng = np.random.default_rng(2)
        opt = train.OptimizerState(rng.uniform(size=store.entity.shape),
                                   rng.uniform(size=store.relation.shape))
        state = (store.entity, store.relation, opt.acc_entity, opt.acc_relation)
        before = [a.tobytes() for a in state]
        cfg = train.FitConfig(epochs=1, batch_size=4, loss=train.LossConfig(p=2, lam=0.0))
        # a NaN score raises no floating-point warning: a RuntimeWarning
        # would escape as an error instead of NonFiniteLoss
        with warnings.catch_warnings(), pytest.raises(NonFiniteLoss, match="at epoch 0$"):
            warnings.simplefilter("error", RuntimeWarning)
            train.fit(store, small_batch(), cfg, opt_state=opt)
        assert [a.tobytes() for a in state] == before
        with warnings.catch_warnings(), pytest.raises(NonFiniteLoss, match="^loss nan$"):
            warnings.simplefilter("error", RuntimeWarning)
            train.batch_loss_and_grads(store, small_batch(), cfg.loss)


BLOCK_K = 2
# heads 2, 3, 5, 6 and 19 repeat, on both sides of the boundaries of 3-row blocks
BLOCK_BATCH = np.array([[2, 0, 7], [3, 1, 2], [2, 2, 19], [5, 3, 6], [6, 0, 5], [3, 2, 2],
                        [6, 1, 0], [19, 3, 18], [0, 0, 3], [19, 1, 19], [2, 3, 11]])


def _block_runs(monkeypatch, variant, run, configs):
    """run() once per (rows per block, pool) of configs, on stores of the
    (ablated) `variant`; returns the byte strings of the results."""
    width = BLOCK_K * variant.width  # combined elements per row
    results = []
    for rows, pool in configs:
        monkeypatch.setattr(model, "ROW_BLOCK_ELEMENTS", rows * width)
        monkeypatch.setattr(mkge, "_pool", pool)
        results.append(b"".join(np.ascontiguousarray(a).tobytes() for a in run()))
    return results


def _configs(pools, n_entities):
    """One block on one worker, then 3-row blocks on one and on two workers."""
    return [(n_entities, pools[1]), (3, pools[1]), (3, pools[2])]


class TestRowBlocks:
    """The entity chain and Adagrad run per row block on a thread pool; the
    blocks write disjoint rows, so results are bit-identical for any block
    size and pool size."""

    @pytest.mark.parametrize("name", sorted(model.VARIANTS))
    @pytest.mark.parametrize("ablation", model.ABLATION_MODES)
    def test_gradients_bit_identical(self, name, ablation, monkeypatch, thread_pools):
        store = model.init_model(name, BLOCK_K, 20, 4, seed=6, ablation=ablation)

        def run():
            loss, g_e, g_r = train.batch_loss_and_grads(store, BLOCK_BATCH, LOSS)
            return np.float64(loss), g_e, g_r

        one, *blocked = _block_runs(monkeypatch, store.variant, run, _configs(thread_pools, 20))
        assert blocked == [one, one]

    @pytest.mark.parametrize("name", sorted(model.VARIANTS))
    @pytest.mark.parametrize("ablation", model.ABLATION_MODES)
    def test_fit_bit_identical(self, name, ablation, monkeypatch, thread_pools):
        vocab, kg = data.generate_synthetic_kg(seed=3, n_entities=20)
        triples = data.augment_reciprocal(kg.train, vocab)
        cfg = train.FitConfig(epochs=3, batch_size=16, seed=2, loss=LOSS)

        def run():
            store = model.init_model(name, BLOCK_K, vocab.n_entities, vocab.n_relations, seed=1,
                                     ablation=ablation)
            report, opt = train.fit(store, triples, cfg)
            return (store.entity, store.relation, opt.acc_entity, opt.acc_relation,
                    np.array([rec.loss for rec in report.epochs]))

        variant = model.ablated(model.VARIANTS[name], ablation)
        one, *blocked = _block_runs(monkeypatch, variant, run,
                                    _configs(thread_pools, vocab.n_entities))
        assert blocked == [one, one]

    @pytest.mark.parametrize("name", sorted(model.VARIANTS))
    @pytest.mark.parametrize("ablation", model.ABLATION_MODES)
    def test_fit_step_equals_dense_step(self, name, ablation, monkeypatch, thread_pools):
        """One `fit` step, which updates each row block as soon as its
        gradient is complete, leaves the bytes of the dense gradient tables
        followed by `adagrad_step` on each whole table, from the same nonzero
        accumulators."""
        cfg = train.FitConfig(epochs=1, batch_size=len(BLOCK_BATCH), lr=0.3, seed=5, loss=LOSS)
        # the one batch of epoch 0, in fit's shuffled order
        batch = BLOCK_BATCH[np.random.default_rng((cfg.seed, 0)).permutation(len(BLOCK_BATCH))]

        def run():
            tables = []
            for fused in (True, False):
                store = model.init_model(name, BLOCK_K, 20, 4, seed=6, ablation=ablation)
                rng = np.random.default_rng(3)
                opt = train.OptimizerState(rng.uniform(size=store.entity.shape),
                                           rng.uniform(size=store.relation.shape), cfg.lr)
                if fused:
                    train.fit(store, BLOCK_BATCH, cfg, opt_state=opt)
                else:
                    _, g_e, g_r = train.batch_loss_and_grads(store, batch, LOSS)
                    dense_step(store, opt, g_e, g_r)
                tables.append(b"".join(a.tobytes() for a in (
                    store.entity, store.relation, opt.acc_entity, opt.acc_relation)))
            assert tables[0] == tables[1]
            return tables[:1]

        variant = model.ablated(model.VARIANTS[name], ablation)
        one, *blocked = _block_runs(monkeypatch, variant, run, _configs(thread_pools, 20))
        assert blocked == [one, one]

    @pytest.mark.parametrize("name", sorted(model.VARIANTS))
    @pytest.mark.parametrize("ablation", model.ABLATION_MODES)
    @pytest.mark.parametrize("rows", [3, 20])
    def test_entity_groups_pull_each_row_back_once(self, name, ablation, rows, monkeypatch,
                                                   thread_pools):
        """The head rows' gradients join their blocks' element gradients, so
        each entity group's `param_backward` sees every table row once."""
        store = model.init_model(name, BLOCK_K, 20, 4, seed=6, ablation=ablation)
        width = BLOCK_K * store.variant.width  # combined elements per row
        monkeypatch.setattr(model, "ROW_BLOCK_ELEMENTS", rows * width)
        monkeypatch.setattr(mkge, "_pool", thread_pools[2])
        seen = {"scalar": [], "vector": []}

        def counted(part):
            group = getattr(store.variant, part)

            def param_backward(params, elems, grad):
                seen[part].append(elems.shape[1])
                return group.param_backward(params, elems, grad)

            return dataclasses.replace(group, param_backward=param_backward)

        store.variant = dataclasses.replace(store.variant, scalar=counted("scalar"),
                                            vector=counted("vector"))
        train.batch_loss_and_grads(store, BLOCK_BATCH, LOSS)
        assert {part: sum(n) for part, n in seen.items()} == {"scalar": 20, "vector": 20}

    @pytest.mark.parametrize("rows", [3, 20])
    def test_fit_step_runs_adagrad_step_per_block(self, rows, monkeypatch, thread_pools):
        """`fit` updates through `train.adagrad_step` looked up by name, as a
        wrapper set on the module sees it: once per entity row block, then
        once for the relation table."""
        store = model.init_model("module_hh", BLOCK_K, 20, 4, seed=6)
        width = BLOCK_K * store.variant.width
        monkeypatch.setattr(model, "ROW_BLOCK_ELEMENTS", rows * width)
        monkeypatch.setattr(mkge, "_pool", thread_pools[2])
        calls, step = [], train.adagrad_step

        def counted(table, acc, grad, lr):
            calls.append(len(table) if np.shares_memory(table, store.entity) else "relation")
            step(table, acc, grad, lr)

        monkeypatch.setattr(train, "adagrad_step", counted)
        cfg = train.FitConfig(epochs=1, batch_size=len(BLOCK_BATCH), loss=LOSS)
        train.fit(store, BLOCK_BATCH, cfg)
        blocks = [min(rows, 20 - start) for start in range(0, 20, rows)]
        assert sorted(calls[:-1]) == sorted(blocks) and calls[-1] == "relation"

    def test_fit_step_peak_memory(self, monkeypatch, thread_pools):
        """A `fit` step holds the combined entities and their gradient, and
        per running block its parameter, element and gradient planes; no
        gradient the size of the entity table."""
        store = model.init_model("module_hh", 32, 20_000, 4, seed=0)
        rng = np.random.default_rng(4)
        batch = np.stack([rng.integers(20_000, size=8), rng.integers(4, size=8),
                          rng.integers(20_000, size=8)], axis=1)
        cfg = train.FitConfig(epochs=1, batch_size=8, loss=LOSS)
        opt = train.OptimizerState.for_store(store)
        c_all_bytes = 20_000 * 32 * 4 * 8
        per_worker = 16 * model.ROW_BLOCK_ELEMENTS * 8
        for workers in (1, 2):
            monkeypatch.setattr(mkge, "_pool", thread_pools[workers])
            train.fit(store, batch, cfg, opt_state=opt)  # start the pool's threads
            tracemalloc.start()
            try:
                train.fit(store, batch, cfg, opt_state=opt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * c_all_bytes + per_worker * workers

    def test_more_workers_than_cores_one_row_blocks(self, monkeypatch, thread_pools):
        """Eight workers on one-row blocks with a short switch interval: a lost
        or misplaced row update would change the bytes."""
        vocab, kg = data.generate_synthetic_kg(seed=3, n_entities=20)
        triples = data.augment_reciprocal(kg.train, vocab)
        cfg = train.FitConfig(epochs=2, batch_size=8, seed=2, loss=LOSS)

        def run():
            store = model.init_model("module_hh", BLOCK_K, vocab.n_entities,
                                     vocab.n_relations, seed=1)
            _, opt = train.fit(store, triples, cfg)
            return store.entity, store.relation, opt.acc_entity, opt.acc_relation

        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            one, many = _block_runs(monkeypatch, model.VARIANTS["module_hh"], run,
                                    [(vocab.n_entities, thread_pools[1]), (1, thread_pools[8])])
        finally:
            sys.setswitchinterval(interval)
        assert many == one

    @pytest.mark.parametrize("n, bounds", [(0, []), (1, [(0, 1)]), (3, [(0, 3)]),
                                           (4, [(0, 3), (3, 4)]),
                                           (10, [(0, 3), (3, 6), (6, 9), (9, 10)])])
    def test_map_blocks_covers_range_once_in_order(self, n, bounds, pool_runs):
        def run():
            calls = np.zeros(n, dtype=np.int64)

            def block(rows):
                calls[rows] += 1
                return rows.start, rows.stop

            return np.array(list(mkge.map_blocks(block, n, 3)), dtype=np.int64), calls

        want = np.array(bounds, dtype=np.int64).tobytes() + np.ones(n, np.int64).tobytes()
        assert pool_runs(run) == [want] * 3

    def test_map_blocks_reraises_block_error(self, pool_runs):
        def block(rows):
            if rows.start == 3:
                raise KeyError(rows.start)
            return rows.start

        def run():
            results = mkge.map_blocks(block, 8, 3)
            assert next(results) == 0
            with pytest.raises(KeyError):
                next(results)
            return ()

        pool_runs(run)

    def test_pool_capped_by_mkge_threads(self, monkeypatch):
        monkeypatch.setenv("MKGE_THREADS", "1")
        monkeypatch.setattr(mkge, "_pool", None)
        pool = mkge.thread_pool()
        try:
            assert pool._max_workers == 1
            assert mkge.thread_pool() is pool  # started once per process
        finally:
            pool.shutdown()
