import numpy as np
import pytest

from mkge import algebra, data, model, ranking, train
from mkge.errors import NonFiniteLoss, ShapeMismatch


def finite_difference_grads(store, triples, cfg, step=1e-5):
    """Central differences of the mean batch loss over every parameter."""
    fd_e = np.zeros_like(store.entity)
    fd_r = np.zeros_like(store.relation)
    for table, fd in ((store.entity, fd_e), (store.relation, fd_r)):
        flat = table.ravel()
        out = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up, _, _ = train.batch_loss_and_grads(store, triples, cfg)
            flat[i] = orig - step
            dn, _, _ = train.batch_loss_and_grads(store, triples, cfg)
            flat[i] = orig
            out[i] = (up - dn) / (2 * step)
    return fd_e, fd_r


def assert_grads_close(analytic, fd, rel=1e-4, atol=1e-8):
    denom = np.maximum(np.abs(analytic), np.abs(fd))
    assert np.all(np.abs(analytic - fd) <= rel * denom + atol)


SMALL = dict(k=2, n_entities=4, n_relations=2)
LOSS = train.LossConfig(p=3, lam=0.05, lambda1=2.0, lambda2=0.5, lambda3=2.0)


def small_batch(seed=0):
    rng = np.random.default_rng(seed)
    h = rng.integers(SMALL["n_entities"], size=3)
    r = rng.integers(SMALL["n_relations"], size=3)
    t = rng.integers(SMALL["n_entities"], size=3)
    return np.stack([h, r, t], axis=1)


class TestGradients:
    @pytest.mark.parametrize("name", ["module_rc", "module_rh", "module_hh", "distmult", "rotate"])
    @pytest.mark.parametrize("ablation", ["both", "scalar", "vector"])
    def test_matches_finite_differences(self, name, ablation):
        store = model.init_model(name, SMALL["k"], SMALL["n_entities"], SMALL["n_relations"],
                                 seed=17, ablation=ablation)
        batch = small_batch(seed=3)
        _, g_e, g_r = train.batch_loss_and_grads(store, batch, LOSS)
        fd_e, fd_r = finite_difference_grads(store, batch, LOSS)
        ent_mask, rel_mask = store.free_masks()
        assert_grads_close(g_e[:, ent_mask], fd_e[:, ent_mask])
        if rel_mask.any():
            assert_grads_close(g_r[:, rel_mask], fd_r[:, rel_mask])
        # frozen parameters get exactly zero gradient
        assert np.all(g_e[:, ~ent_mask] == 0.0)
        assert np.all(g_r[:, ~rel_mask] == 0.0)

    def test_regularizer_gradient_isolated(self):
        store = model.init_model("module_rc", **SMALL, seed=5)
        cfg = train.LossConfig(p=2, lam=1.0, lambda1=1.0, lambda2=1.0, lambda3=1.0)
        batch = small_batch(seed=1)

        def reg_only(s):
            return np.mean([train.regularizer(s, *map(int, tr), cfg) for tr in batch])

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
        assert model.score(store, 1, 0, 4) == 0.0
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


class TestLoss:
    def test_single_entity_softplus(self):
        store = model.init_model("module_rc", 2, 1, 1, seed=0)
        cfg = train.LossConfig(p=2, lam=0.0)
        s = model.score(store, 0, 0, 0)
        assert train.triple_loss(store, 0, 0, 0, cfg) == pytest.approx(np.logaddexp(0, -s))

    def test_all_zero_scores(self):
        store = model.init_model("module_rc", 2, 5, 1, seed=0)
        store.entity[:, :2] = 0.0  # zero scalars kill every cosine score
        cfg = train.LossConfig(p=2, lam=0.0)
        assert train.triple_loss(store, 0, 0, 1, cfg) == pytest.approx(5 * np.log(2.0))

    def test_matches_direct_summation_oracle(self):
        store = model.init_model("module_hh", 2, 3, 2, seed=2)
        cfg = train.LossConfig(p=2, lam=0.03, lambda1=1.5, lambda2=0.5, lambda3=1.0)
        h, r, t = 1, 0, 2
        direct = 0.0
        for t2 in range(3):
            y = 1.0 if t2 == t else -1.0
            direct += np.logaddexp(0.0, -y * model.score(store, h, r, t2))
        direct += train.regularizer(store, h, r, t, cfg)
        assert train.triple_loss(store, h, r, t, cfg) == pytest.approx(direct, abs=1e-12)

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
        assert np.isfinite(train.triple_loss(store, 0, 0, 1, cfg))


class TestRegularizer:
    def test_zero_lambda(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        cfg = train.LossConfig(p=2, lam=0.0)
        assert train.regularizer(store, 0, 0, 1, cfg) == 0.0

    def test_unit_quaternion_combined_value(self):
        store = model.init_model("module_hh", 1, 2, 1, seed=0)
        store.entity[0, :4] = [1.0, 1.0, 1.0, 1.0]
        cfg = train.LossConfig(p=2, lam=1.0, lambda1=1.0, lambda2=0.0, lambda3=0.0)
        # N(combined) = N(scalar) = 4 for unit vector part; G_2 = (4^2)^(1/2)
        assert train.regularizer(store, 0, 0, 1, cfg) == pytest.approx(4.0, rel=1e-12)

    def test_linearity_in_lambda(self):
        store = model.init_model("module_rh", 2, 3, 2, seed=1)
        one = train.LossConfig(p=3, lam=0.5, lambda1=1.0, lambda2=1.0, lambda3=1.0)
        two = train.LossConfig(p=3, lam=1.0, lambda1=1.0, lambda2=1.0, lambda3=1.0)
        assert train.regularizer(store, 0, 1, 2, two) == pytest.approx(
            2 * train.regularizer(store, 0, 1, 2, one)
        )


class TestAdagrad:
    def test_zero_gradient_noop(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        state = train.OptimizerState.for_store(store)
        before = store.entity.copy()
        train.adagrad_step(store, state, np.zeros_like(store.entity), np.zeros_like(store.relation))
        assert np.array_equal(store.entity, before)
        assert np.all(state.acc_entity == 0.0)

    def test_first_step_magnitude(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        state = train.OptimizerState.for_store(store, lr=0.1)
        before = store.entity[0, 0]
        g_e = np.zeros_like(store.entity)
        g_e[0, 0] = 1.0
        train.adagrad_step(store, state, g_e, np.zeros_like(store.relation))
        assert before - store.entity[0, 0] == pytest.approx(0.1 / (1.0 + 1e-10))

    def test_second_step_shrinks(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        state = train.OptimizerState.for_store(store, lr=0.1)
        g_e = np.ones_like(store.entity)
        g_r = np.zeros_like(store.relation)
        p0 = store.entity[0, 0]
        train.adagrad_step(store, state, g_e, g_r)
        p1 = store.entity[0, 0]
        train.adagrad_step(store, state, g_e, g_r)
        p2 = store.entity[0, 0]
        assert abs(p2 - p1) < abs(p1 - p0)

    def test_shape_mismatch(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        state = train.OptimizerState.for_store(store)
        with pytest.raises(ShapeMismatch):
            train.adagrad_step(store, state, np.zeros((1, 1)), np.zeros_like(store.relation))


class TestSchedule:
    def test_epoch_zero(self):
        assert train.lr_at(0, "exp", 0.1, 200) == pytest.approx(0.1)

    def test_final_epoch_decade(self):
        assert train.lr_at(200, "exp", 0.1, 200) == pytest.approx(0.01, abs=1e-12)

    def test_constant(self):
        for epoch in (0, 7, 199):
            assert train.lr_at(epoch, "constant", 0.1, 200) == 0.1


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
        scores = [model.score(store, 0, 0, 0)]
        for _ in range(10):
            _, g_e, g_r = train.batch_loss_and_grads(store, np.array([[0, 0, 0]]), cfg)
            train.adagrad_step(store, state, g_e, g_r)
            scores.append(model.score(store, 0, 0, 0))
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

    @pytest.mark.parametrize("name", ["module_rc", "rotate"])
    def test_nonfinite_aborts(self, name):
        store = model.init_model(name, 2, 4, 2, seed=0)
        store.entity[0, 0] = np.nan
        cfg = train.FitConfig(epochs=1, batch_size=4, loss=train.LossConfig(p=2, lam=0.0))
        # the NaN score is the one intended floating-point warning
        with pytest.raises(NonFiniteLoss), pytest.warns(RuntimeWarning, match="logaddexp"):
            train.fit(store, small_batch(), cfg)
