import numpy as np
import pytest

from mkge import algebra, model


class TestVariantTable:
    def test_module_hh_row(self):
        v = model.VARIANTS["module_hh"]
        assert v.scalar_group == "quaternion" and v.vector_group == "quaternion"
        assert v.scaling_group == model.GROUP_UQ and v.rotation_group == model.GROUP_UQ
        assert v.score_kind == "cosine"

    def test_rotate_row(self):
        v = model.VARIANTS["rotate"]
        assert v.vector_group == "complex" and v.rotation_group == model.GROUP_U1
        assert v.scaling_group == model.GROUP_FIXED and v.score_kind == "distance"

    def test_param_accounting_module_hh(self):
        v = model.VARIANTS["module_hh"]
        # 4 scalar + 3 vector parameters per dimension; 3 + 3 per relation dim
        assert v.entity_row_width(1) == 7
        assert v.relation_row_width(1) == 6

    def test_param_accounting_others(self):
        assert model.VARIANTS["module_rc"].entity_row_width(1) == 2
        assert model.VARIANTS["module_rh"].entity_row_width(1) == 4
        assert model.VARIANTS["distmult"].entity_row_width(1) == 1
        assert model.VARIANTS["rotate"].relation_row_width(1) == 1


class TestInit:
    def test_deterministic(self):
        a = model.init_model("module_hh", 4, 5, 6, seed=11)
        b = model.init_model("module_hh", 4, 5, 6, seed=11)
        assert np.array_equal(a.entity, b.entity)
        assert np.array_equal(a.relation, b.relation)

    def test_shapes(self):
        store = model.init_model("module_hh", 1, 2, 1, seed=0)
        assert store.entity.shape == (2, 7)
        assert store.relation.shape == (1, 6)

    def test_materialized_vectors_unit(self):
        store = model.init_model("module_rh", 8, 10, 4, seed=3)
        _, ev = store.entity_parts()
        norms = algebra.field_norm(model.materialize_vector(ev, store.variant))
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_ablation_freezes_identity(self):
        store = model.init_model("module_hh", 2, 3, 2, seed=0, ablation="scalar")
        _, ev = store.entity_parts()
        assert np.all(ev == 0.0)
        store_v = model.init_model("module_rc", 2, 3, 2, seed=0, ablation="vector")
        es, _ = store_v.entity_parts()
        assert np.all(es == 1.0)
        rs, _ = store_v.relation_parts()
        assert np.all(rs == 1.0)

    def test_partition_of_free_parameters(self):
        for name in ("module_rc", "module_rh", "module_hh"):
            both = model.init_model(name, 3, 4, 2, seed=0, ablation="both")
            n_free = {}
            for mode in ("scalar", "vector", "both"):
                both.ablation = mode
                ent, rel = both.free_masks()
                n_free[mode] = int(ent.sum()) * 4 + int(rel.sum()) * 2
            assert n_free["scalar"] + n_free["vector"] == n_free["both"]


class TestCombineTransform:
    def test_combine_with_unit_scalars(self):
        store = model.init_model("module_rc", 4, 3, 2, seed=1)
        _, ev = store.entity_parts()
        vec = model.materialize_vector(ev, store.variant)
        out = model.combine(np.ones((3, 4, 1)), vec)
        assert np.allclose(out, vec)

    def test_combine_complex_value(self):
        s = np.array([[[2.0]]])
        v = algebra.angle_to_complex(np.array([[np.pi / 2]]))
        out = model.combine(s, v)
        assert np.allclose(out, [[[0.0, 2.0]]], atol=1e-12)

    def test_combine_norm_multiplicative_hh(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(4, 3, 4))
        v = algebra.exp_map(rng.normal(size=(4, 3, 3)))
        out = model.combine(s, v)
        assert np.allclose(algebra.field_norm(out), algebra.field_norm(s), rtol=1e-9)

    def test_identity_relation_is_noop(self):
        store = model.init_model("module_hh", 3, 4, 1, seed=2)
        store.relation[:] = 0.0  # zero rotation vectors materialize to identity
        h_prime = model.transformed_heads(store, np.array([1]), np.array([0]))
        assert np.allclose(h_prime, model.combined_embeddings(store, np.array([1])), atol=1e-12)

    def test_rc_scale_and_half_turn(self):
        s_h = np.array([[[1.0]]])
        v_h = algebra.angle_to_complex(np.array([[0.0]]))
        g_s = np.array([[[3.0]]])
        g_v = algebra.angle_to_complex(np.array([[np.pi]]))
        out = model.head_forward(s_h, v_h, g_s, g_v)[2]
        assert np.allclose(out, [[[-3.0, 0.0]]], atol=1e-12)

    def test_hh_relation_inverse_recovers(self):
        store = model.init_model("module_hh", 3, 4, 1, seed=9)
        es, ev = store.entity_parts()
        rs, rv = store.relation_parts()
        variant = store.variant
        s_h, v_h = es[[2]], model.materialize_vector(ev[[2]], variant)
        g_s = variant.scaling.materialize(rs[[0]])
        g_v = variant.rotation.materialize(rv[[0]])
        fwd_s = algebra.quat_mul(s_h, g_s)
        fwd_v = algebra.quat_mul(v_h, g_v)
        back_s = algebra.quat_mul(fwd_s, algebra.quat_conj(g_s))
        back_v = algebra.quat_mul(fwd_v, algebra.quat_conj(g_v))
        recovered = model.combine(back_s, back_v)
        assert np.allclose(recovered, model.combine(s_h, v_h), atol=1e-9)


class TestScore:
    def test_cosine_self_score_is_norm_sum(self):
        store = model.init_model("module_hh", 4, 5, 2, seed=0)
        c = model.combined_embeddings(store)
        t = c[3]
        expected = float(np.sum(algebra.field_norm(t)))
        got = float(np.sum(t * t))
        assert got == pytest.approx(expected)

    def test_distance_self_score_zero(self):
        t = np.random.default_rng(0).normal(size=(1, 4, 2))
        assert model._pair_scores(t, t, "distance") == pytest.approx(0.0)

    def test_score_all_tails_consistency(self):
        rng = np.random.default_rng(12)
        for name in ("module_rc", "module_hh", "rotate", "distmult"):
            store = model.init_model(name, 3, 20, 4, seed=4)
            h, r = 5, 2
            vec = model.score_all_tails(store, h, r)[0]
            for t in rng.choice(20, size=10, replace=False):
                assert vec[t] == pytest.approx(model.score(store, h, r, int(t)), abs=1e-12)

    def test_score_all_tails_multi_chunk(self, monkeypatch):
        # three heads of k=2 in 42-element planes: chunks of 7 of the 20 candidates
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", 42)
        store = model.init_model("rotate", 2, 20, 2, seed=4)
        hs, rs = np.array([3, 11, 19]), np.array([0, 1, 1])
        scores = model.score_all_tails(store, hs, rs)
        for row, (h, r) in enumerate(zip(hs, rs)):
            for t in range(20):
                assert scores[row, t] == model.score(store, int(h), int(r), t)

    def test_single_entity(self):
        store = model.init_model("module_rc", 2, 1, 1, seed=0)
        vec = model.score_all_tails(store, 0, 0)
        assert vec.shape == (1, 1)
        assert vec[0, 0] == pytest.approx(model.score(store, 0, 0, 0))

    def test_entity_permutation_equivariance(self):
        store = model.init_model("module_rh", 2, 6, 2, seed=8)
        perm = np.random.default_rng(1).permutation(6)
        permuted = model.ParameterStore(
            store.variant, store.k, store.entity[perm].copy(), store.relation.copy()
        )
        base = model.score_all_tails(store, 0, 1)[0]
        # head id 0 of the original sits at position perm^-1(0) in the permuted table
        inv = np.empty(6, dtype=int)
        inv[perm] = np.arange(6)
        new = model.score_all_tails(permuted, int(inv[0]), 1)[0]
        assert np.allclose(new, base[perm])

    def test_rotation_invariance_of_inner_product(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=4), rng.normal(size=4)
        g = algebra.normalize(rng.normal(size=4))
        lhs = algebra.inner_product(algebra.apply_rotation(x, g), algebra.apply_rotation(y, g))
        assert lhs == pytest.approx(algebra.inner_product(x, y), abs=1e-9)

    def test_out_of_range(self):
        store = model.init_model("module_rc", 2, 3, 2, seed=0)
        with pytest.raises(IndexError):
            model.score(store, 99, 0, 0)


class TestDegenerations:
    def test_scalar_only_rc_equals_distmult(self):
        """Scalar-only module_rc shares its random draws with distmult and
        reduces to the same trilinear score."""
        k, n_e, n_r, seed = 4, 12, 6, 21
        rc = model.init_model("module_rc", k, n_e, n_r, seed=seed, ablation="scalar")
        dm = model.init_model("distmult", k, n_e, n_r, seed=seed)
        es_rc, _ = rc.entity_parts()
        es_dm, _ = dm.entity_parts()
        assert np.array_equal(es_rc, es_dm)
        rng = np.random.default_rng(0)
        for _ in range(50):
            h, t = rng.integers(n_e, size=2)
            r = rng.integers(n_r)
            assert model.score(rc, int(h), int(r), int(t)) == pytest.approx(
                model.score(dm, int(h), int(r), int(t)), abs=1e-12
            )

    def test_vector_only_rh_matches_quaternion_rotation_reference(self):
        """Vector-only module_rh equals a direct v_h (x) q_r dot v_t model."""
        k, n_e, n_r, seed = 3, 8, 4, 13
        store = model.init_model("module_rh", k, n_e, n_r, seed=seed, ablation="vector")
        _, ev = store.entity_parts()
        _, rv = store.relation_parts()
        rng = np.random.default_rng(1)
        for _ in range(30):
            h, t = rng.integers(n_e, size=2)
            r = rng.integers(n_r)
            vh = algebra.exp_map(ev[h])
            vt = algebra.exp_map(ev[t])
            qr = algebra.exp_map(rv[r])
            ref = float(np.sum(algebra.quat_mul(vh, qr) * vt))
            assert model.score(store, int(h), int(r), int(t)) == pytest.approx(ref, abs=1e-12)


def central_difference(f, x, step=1e-6):
    """Central differences of the scalar function f at every coordinate of x."""
    out = np.zeros_like(x)
    flat, grad = x.reshape(-1), out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f(x)
        flat[i] = orig - step
        grad[i] = (up - f(x)) / (2 * step)
        flat[i] = orig
    return out


class TestGroupTable:
    """Every entry of model.GROUPS, which also serves the entity unit vectors."""

    def test_vector_groups_are_table_entries(self):
        assert set(model.VECTOR_GROUPS.values()) <= set(model.GROUPS)

    @pytest.mark.parametrize("name", sorted(model.GROUPS))
    def test_identity_params_materialize_to_identity(self, name):
        group = model.GROUPS[name]
        params = np.tile(group.identity, (2, 3, 1))
        elems = group.materialize(params)
        assert elems.shape == (2, 3, group.width)
        assert np.array_equal(elems, np.broadcast_to(np.eye(1, group.width), elems.shape))

    @pytest.mark.parametrize("name", sorted(model.GROUPS))
    def test_param_backward_matches_central_differences(self, name):
        group = model.GROUPS[name]
        rng = np.random.default_rng(4)
        params = rng.uniform(-2.0, 2.0, size=(3, 2, group.param_width))
        grad = rng.normal(size=(3, 2, group.width))
        analytic = group.param_backward(params, group.materialize(params), grad)
        assert analytic.shape == params.shape
        fd = central_difference(lambda p: np.sum(grad * group.materialize(p)), params)
        assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("widths", [(1, 1), (1, 2), (1, 4), (2, 2), (4, 4)])
    def test_product_backward_matches_central_differences(self, widths):
        rng = np.random.default_rng(sum(widths))
        x = rng.normal(size=(3, 2, widths[0]))
        y = rng.normal(size=(3, 2, widths[1]))
        grad = rng.normal(size=(3, 2, widths[1]))
        grad_x, grad_y = model.product_backward(grad, x, y)
        fd_x = central_difference(lambda a: np.sum(grad * model.product(a, y)), x)
        fd_y = central_difference(lambda a: np.sum(grad * model.product(x, a)), y)
        assert np.allclose(grad_x, fd_x, rtol=1e-6, atol=1e-8)
        assert np.allclose(grad_y, fd_y, rtol=1e-6, atol=1e-8)
