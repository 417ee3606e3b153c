import tracemalloc

import numpy as np
import pytest

from mkge import algebra, data, model, ranking, train
from mkge.errors import ShapeMismatch
from oracles import conj, oracle_score


class TestVariantTable:
    def test_module_hh_row(self):
        v, groups = model.VARIANTS["module_hh"], model.GROUPS
        assert v.scalar == groups["quaternion"] and v.vector == groups["unit_quaternion"]
        assert v.scaling == groups["unit_quaternion"] and v.rotation == groups["unit_quaternion"]
        assert v.score_kind == "cosine"

    def test_rotate_row(self):
        v, groups = model.VARIANTS["rotate"], model.GROUPS
        assert v.vector == groups["u1"] and v.rotation == groups["u1"]
        assert v.scaling == groups["fixed"] and v.score_kind == "distance"

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


# Per variant, the parameter width per dimension and the kind of the entity
# scalar, entity vector, relation scaling and relation rotation blocks: "ring"
# for free ring coordinates, "unit" for the parameters of a unit group.
INIT_BLOCKS = {
    "distmult": ((1, "ring"), (0, "unit"), (1, "ring"), (0, "unit")),
    "rotate": ((1, "ring"), (1, "unit"), (0, "unit"), (1, "unit")),
    "module_rc": ((1, "ring"), (1, "unit"), (1, "ring"), (1, "unit")),
    "module_rh": ((1, "ring"), (3, "unit"), (1, "ring"), (3, "unit")),
    "module_hh": ((4, "ring"), (3, "unit"), (3, "unit"), (3, "unit")),
}


class TestInit:
    @pytest.mark.parametrize("name", sorted(INIT_BLOCKS))
    @pytest.mark.parametrize("ablation", model.ABLATION_MODES)
    def test_documented_draw_order(self, name, ablation):
        """The tables are the blocks drawn in row order from one generator:
        free ring coordinates uniform(+-0.5/sqrt(k)), unit group parameters
        uniform(+-pi); a part the ablation freezes has no block and draws
        nothing."""
        k, n_ent, n_rel, seed = 3, 5, 4, 19
        rng = np.random.default_rng(seed)
        free = (ablation != "vector", ablation != "scalar") * 2
        blocks = []
        for (width, kind), is_free, n in zip(INIT_BLOCKS[name], free,
                                             (n_ent, n_ent, n_rel, n_rel)):
            half = 0.5 / np.sqrt(k) if kind == "ring" else np.pi
            blocks.append(rng.uniform(-half, half, size=(n, k * width)) if is_free
                          else np.empty((n, 0)))
        store = model.init_model(name, k, n_ent, n_rel, seed, ablation)
        for table, want in ((store.entity, np.hstack(blocks[:2])),
                            (store.relation, np.hstack(blocks[2:]))):
            assert table.shape == want.shape and table.tobytes() == want.tobytes()

    def test_deterministic(self):
        a = model.init_model("module_hh", 4, 5, 6, seed=11)
        b = model.init_model("module_hh", 4, 5, 6, seed=11)
        assert np.array_equal(a.entity, b.entity)
        assert np.array_equal(a.relation, b.relation)

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError, match="unknown model 'nope'"):
            model.init_model("nope", 2, 3, 2, seed=0)

    @pytest.mark.parametrize("field,value", [("k", 2.5), ("n_entities", 20.0),
                                             ("n_relations", True), ("seed", 0.5)])
    def test_non_integer_count_raises(self, field, value):
        """Where numpy raised TypeError, a count or seed that is not an integer
        raises ValueError naming it; numpy integers are accepted."""
        counts = dict(k=2, n_entities=20, n_relations=8, seed=0)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            model.init_model("module_rc", **{**counts, field: value})
        assert model.init_model("module_rc", np.int64(2), np.int32(20), np.uint8(8),
                                np.int64(0)).entity.shape == (20, 4)

    def test_shapes(self):
        store = model.init_model("module_hh", 1, 2, 1, seed=0)
        assert store.entity.shape == (2, 7)
        assert store.relation.shape == (1, 6)

    def test_materialized_vectors_unit(self):
        store = model.init_model("module_rh", 8, 10, 4, seed=3)
        _, ev = store.entity_parts()
        norms = algebra.field_norm(model.materialize_vector(model.planes(ev), store.variant))
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_ablation_freezes_identity(self):
        """The parts an ablation freezes (the vectors and rotations for
        "scalar", the scalars and scalings for "vector") are the one trivial
        group: they hold no parameters and materialize to the real one; the
        other parts keep their groups."""
        for name, full in model.VARIANTS.items():
            groups = (full.scalar, full.vector, full.scaling, full.rotation)
            for ablation, frozen in (("scalar", (1, 3)), ("vector", (0, 2))):
                store = model.init_model(name, 2, 3, 2, seed=0, ablation=ablation)
                v = store.variant
                assert v.name == name and v.score_kind == full.score_kind
                params, elems = model.head_inputs(store, np.arange(3), np.array([0, 1, 1]))
                for i, (group, part, param, elem) in enumerate(
                    zip(groups, (v.scalar, v.vector, v.scaling, v.rotation), params, elems)
                ):
                    if i in frozen:
                        assert part is model.TRIVIAL
                        assert param.shape == (0, 3, 2)
                        assert elem.tobytes() == np.ones((1, 3, 2)).tobytes()
                    else:
                        assert part is group

    def test_partition_of_free_parameters(self):
        """The scalar-only and the vector-only tables split the full ones."""
        for name in ("module_rc", "module_rh", "module_hh"):
            sizes = {}
            for mode in ("scalar", "vector", "both"):
                store = model.init_model(name, 3, 4, 2, seed=0, ablation=mode)
                sizes[mode] = np.array([store.entity.size, store.relation.size])
            assert np.all(sizes["scalar"] > 0) and np.all(sizes["vector"] > 0)
            assert np.array_equal(sizes["scalar"] + sizes["vector"], sizes["both"])


class TestEntityForward:
    @pytest.mark.parametrize("name", sorted(model.VARIANTS))
    @pytest.mark.parametrize("ablation", model.ABLATION_MODES)
    @pytest.mark.parametrize("rows", [1, 17], ids=["one_row_blocks", "one_block"])
    def test_whole_table_equals_gather(self, name, ablation, rows, monkeypatch, pool_runs):
        """The row-blocked whole-table forward gives the bytes of one
        `combine` of the whole table's inputs, for any block size and pool
        size."""
        store = model.init_model(name, 3, 17, 2, seed=5, ablation=ablation)
        monkeypatch.setattr(model, "ROW_BLOCK_ELEMENTS", rows * 3 * store.variant.width)
        inputs = model.entity_inputs(store, np.arange(store.n_entities))[1]
        want = model.element_last(model.combine(*inputs)).tobytes()
        assert pool_runs(lambda: (model.combined_embeddings(store),)) == [want] * 3

    @pytest.mark.parametrize("name", sorted(model.VARIANTS))
    def test_whole_table_peak_memory(self, name):
        """The whole-table forward allocates its result and per-block
        temporaries only: no second whole-table array."""
        store = model.init_model(name, 32, 20_000, 2, seed=0)
        model.combined_embeddings(store)  # warm the pool
        tracemalloc.start()
        try:
            c_all = model.combined_embeddings(store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * c_all.nbytes


class TestCombineTransform:
    def test_combine_with_unit_scalars(self):
        store = model.init_model("module_rc", 4, 3, 2, seed=1)
        _, ev = store.entity_parts()
        vec = model.materialize_vector(model.planes(ev), store.variant)
        out = model.combine(model.planes(np.ones((3, 4, 1))), vec)
        assert np.allclose(out, vec)

    def test_combine_complex_value(self):
        s = np.array([[[2.0]]])
        v = algebra.angle_to_complex(np.array([[np.pi / 2]]))
        out = model.combine(s, v)
        assert np.allclose(out, model.planes(np.array([[[0.0, 2.0]]])), atol=1e-12)

    def test_combine_norm_multiplicative_hh(self):
        rng = np.random.default_rng(5)
        s = model.planes(rng.normal(size=(4, 3, 4)))
        v = algebra.exp_map(model.planes(rng.normal(size=(4, 3, 3))))
        out = model.combine(s, v)
        assert np.allclose(algebra.field_norm(out), algebra.field_norm(s), rtol=1e-9)

    def test_combine_length_mismatch(self):
        s = model.planes(np.ones((2, 3, 4)))  # k=3 quaternions
        v = algebra.exp_map(model.planes(np.zeros((2, 4, 3))))  # k=4 unit quaternions
        with pytest.raises(ShapeMismatch):
            model.combine(s, v)

    def test_identity_relation_is_noop(self):
        store = model.init_model("module_hh", 3, 4, 1, seed=2)
        store.relation[:] = 0.0  # zero rotation vectors materialize to identity
        h_prime = model.transformed_heads(store, np.array([1]), np.array([0]))
        assert np.allclose(h_prime, model.combined_embeddings(store)[[1]], atol=1e-12)

    def test_rc_scale_and_half_turn(self):
        s_h = np.array([[[1.0]]])
        v_h = algebra.angle_to_complex(np.array([[0.0]]))
        g_s = np.array([[[3.0]]])
        g_v = algebra.angle_to_complex(np.array([[np.pi]]))
        out = model.head_forward(s_h, v_h, g_s, g_v)[2]
        assert np.allclose(out, model.planes(np.array([[[-3.0, 0.0]]])), atol=1e-12)

    def test_hh_relation_inverse_recovers(self):
        store = model.init_model("module_hh", 3, 4, 1, seed=9)
        es, ev = store.entity_parts()
        rs, rv = store.relation_parts()
        variant = store.variant
        s_h, v_h = model.planes(es[[2]]), model.materialize_vector(model.planes(ev[[2]]), variant)
        g_s = variant.scaling.materialize(model.planes(rs[[0]]))
        g_v = variant.rotation.materialize(model.planes(rv[[0]]))
        fwd_s = algebra.quat_mul(s_h, g_s)
        fwd_v = algebra.quat_mul(v_h, g_v)
        back_s = algebra.quat_mul(fwd_s, conj(g_s))
        back_v = algebra.quat_mul(fwd_v, conj(g_v))
        recovered = model.combine(back_s, back_v)
        assert np.allclose(recovered, model.combine(s_h, v_h), atol=1e-9)


class TestScore:
    def test_cosine_self_score_is_norm_sum(self):
        store = model.init_model("module_hh", 4, 5, 2, seed=0)
        c = model.combined_embeddings(store)
        t = c[3]
        expected = float(np.sum(algebra.field_norm(t.T)))
        got = float(np.sum(t * t))
        assert got == pytest.approx(expected)

    def test_distance_self_score_zero(self):
        t = np.random.default_rng(0).normal(size=(1, 4, 2))
        assert model.distance_kernel(t, t) == pytest.approx(0.0)

    def test_score_all_tails_consistency(self):
        rng = np.random.default_rng(12)
        for name in ("module_rc", "module_hh", "rotate", "distmult"):
            store = model.init_model(name, 3, 20, 4, seed=4)
            h, r = 5, 2
            vec = model.score_all_tails(store, h, r)[0]
            for t in rng.choice(20, size=10, replace=False):
                assert vec[t] == pytest.approx(oracle_score(store, h, r, int(t)), abs=1e-12)

    def test_score_all_tails_multi_chunk(self, monkeypatch):
        """Chunked scores have the bytes of one chunk's and match the oracle."""
        store = model.init_model("rotate", 2, 20, 2, seed=4)
        hs, rs = np.array([3, 11, 19]), np.array([0, 1, 1])
        one_chunk = model.score_all_tails(store, hs, rs)
        # three heads of k=2 in 42-element planes: chunks of 7 of the 20 candidates
        monkeypatch.setattr(model, "DISTANCE_CHUNK_ELEMENTS", 42)
        scores = model.score_all_tails(store, hs, rs)
        assert scores.tobytes() == one_chunk.tobytes()
        for row, (h, r) in enumerate(zip(hs, rs)):
            for t in range(20):
                assert scores[row, t] == pytest.approx(oracle_score(store, h, r, t), abs=1e-12)

    def test_single_entity(self):
        store = model.init_model("module_rc", 2, 1, 1, seed=0)
        vec = model.score_all_tails(store, 0, 0)
        assert vec.shape == (1, 1)
        assert vec[0, 0] == pytest.approx(oracle_score(store, 0, 0, 0), abs=1e-12)

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
        g = rng.normal(size=4)
        g = g / np.sqrt(np.sum(g * g))
        lhs = np.sum(algebra.elem_mul(x, g) * algebra.elem_mul(y, g))
        assert lhs == pytest.approx(np.sum(x * y), abs=1e-9)

    # 20 entities and 4 relations: heads -1 and E, relations -1 and R
    @pytest.mark.parametrize("h,r", [(-1, 0), (20, 0), (0, -1), (0, 4)])
    def test_out_of_range_head_or_relation(self, h, r):
        store = model.init_model("module_rc", 2, 20, 4, seed=0)
        with pytest.raises(IndexError):
            model.score_all_tails(store, [0, h], [0, r])
        with pytest.raises(IndexError):
            model.transformed_heads(store, np.array([h]), np.array([r]))


class TestIdArrays:
    """Every id array passes `data.as_ids`: ids that are not of an integer
    dtype, or have too many axes, raise ShapeMismatch naming the array, where
    a cast to int64 truncated 0.5 to id 0. (head, relation) pairs also pass
    `data.as_queries`, so arrays of two shapes raise ShapeMismatch, where
    numpy broadcast them into other queries."""

    def make_case(self):
        vocab, kg = data.generate_synthetic_kg(seed=0, n_entities=20)
        store = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=0)
        return vocab, kg, store

    @pytest.mark.parametrize("bad", [0.5, 0.0, "bool"], ids=["half", "whole_float", "bool"])
    def test_non_integer_triples_raise(self, bad):
        vocab, kg, store = self.make_case()
        aug = data.augment_reciprocal(kg.train, vocab)

        def spoil(triples):
            return triples.astype(bool) if bad == "bool" else triples + bad

        with pytest.raises(ShapeMismatch, match="split must be integer ids"):
            ranking.evaluate(spoil(kg.test), store, data.build_filter_index(kg, vocab))
        with pytest.raises(ShapeMismatch, match="batch must be integer ids"):
            train.batch_loss_and_grads(store, spoil(aug[:4]), train.LossConfig())
        with pytest.raises(ShapeMismatch, match="train split must be integer ids"):
            train.fit(store, spoil(aug), train.FitConfig(epochs=1))
        with pytest.raises(ShapeMismatch, match="triples must be integer ids"):
            data.augment_reciprocal(spoil(aug), vocab)

    def test_score_all_tails_ids(self):
        _, _, store = self.make_case()
        with pytest.raises(ShapeMismatch, match="head ids must be integer ids with at most 1"):
            model.score_all_tails(store, np.zeros((2, 2), np.int64), np.zeros((2, 2), np.int64))
        with pytest.raises(ShapeMismatch, match="relation ids"):
            model.score_all_tails(store, [0, 1], [0.0, 1.0])
        with pytest.raises(ShapeMismatch, match="head ids"):
            model.score_all_tails(store, True, 0)
        for heads, rels in (([0, 1], [0]), ([0, 1, 2], [0, 1])):  # two shapes
            for scorer in (model.transformed_heads, model.score_all_tails):
                with pytest.raises(ShapeMismatch, match="differ in shape"):
                    scorer(store, heads, rels)

    def test_empty_ids_of_any_dtype(self):
        """numpy reads `[]` as float64; an empty list is still empty ids."""
        vocab, kg, store = self.make_case()
        index = data.build_filter_index(kg, vocab)
        for heads, rels in (([], []), (np.array([], int), np.array([], int))):
            assert model.score_all_tails(store, heads, rels).shape == (0, vocab.n_entities)
            assert len(model.transformed_heads(store, heads, rels)) == 0
            assert index.mask(heads, rels).shape == (0, vocab.n_entities)
        assert data.as_ids(np.zeros((0, 3)), "ids", ndim=2).dtype == np.int64
        with pytest.raises(ShapeMismatch, match="at most 1 axes"):
            data.as_ids(np.zeros((0, 3)), "ids")
        with pytest.raises(ShapeMismatch, match=r"nonempty \(n, 3\)"):
            data.check_triples([], 20, 8, "split")

    def test_bottom_rank_true_index(self):
        with pytest.raises(ShapeMismatch, match="true index"):
            ranking.bottom_rank(np.zeros(3), 1.0)
        with pytest.raises(ShapeMismatch, match="true index"):  # one axis more than the scores'
            ranking.bottom_rank(np.zeros((2, 3)), np.zeros((2, 1), np.int64))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64])
    def test_any_integer_dtype_ranks_as_int64(self, dtype):
        vocab, kg, store = self.make_case()
        index = data.build_filter_index(kg, vocab)
        want = ranking.evaluate(kg.test, store, index)
        got = ranking.evaluate(kg.test.astype(dtype), store, index)
        assert [rec.rank for rec in got.ranks] == [rec.rank for rec in want.ranks]
        ids = np.arange(4, dtype=dtype)
        assert data.as_ids(ids, "ids").dtype == np.int64
        assert (data.as_ids(ids, "ids") is ids) == (dtype == np.int64)  # int64 is not copied


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
            assert model.score_all_tails(rc, h, r)[0, t] == pytest.approx(
                oracle_score(dm, h, r, t), abs=1e-12
            )

    def test_scalar_only_rc_has_distmult_tables(self):
        """A scalar-only module_rc store holds exactly the tables of a
        distmult store of the same seed, k and sizes."""
        rc = model.init_model("module_rc", 4, 12, 6, seed=21, ablation="scalar")
        dm = model.init_model("distmult", 4, 12, 6, seed=21)
        for a, b in ((rc.entity, dm.entity), (rc.relation, dm.relation)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["module_rc", "module_rh"])
    def test_scalar_only_is_distmult_byte_for_byte(self, name):
        """Scalar-only module_rc and module_rh are distmult's groups, so a
        store of either computes distmult's bytes: scores, the loss and both
        gradients of a step, and the tables after a `fit`."""
        ablated = model.ablated(model.VARIANTS[name], "scalar")
        distmult = model.VARIANTS["distmult"]
        for part in ("scalar", "vector", "scaling", "rotation"):
            assert getattr(ablated, part) is getattr(distmult, part)
        assert ablated.score_kind == distmult.score_kind
        vocab, kg = data.generate_synthetic_kg(seed=4, n_entities=16)
        triples = data.augment_reciprocal(kg.train, vocab)
        stores = [model.init_model(variant, 4, vocab.n_entities, vocab.n_relations, seed=21,
                                   ablation=ablation)
                  for variant, ablation in ((name, "scalar"), ("distmult", "both"))]
        rows = np.arange(vocab.n_relations) % vocab.n_entities, np.arange(vocab.n_relations)
        scores = [model.score_all_tails(store, *rows) for store in stores]
        assert scores[0].tobytes() == scores[1].tobytes()
        for (h, r), row in zip(zip(*rows), scores[0]):
            for t in (0, vocab.n_entities - 1):
                assert row[t] == pytest.approx(oracle_score(stores[1], h, r, t), abs=1e-12)
        cfg = train.FitConfig(epochs=2, batch_size=16, seed=3,
                              loss=train.LossConfig(lam=0.05))
        steps = [train.batch_loss_and_grads(store, triples[:16], cfg.loss) for store in stores]
        assert steps[0][0].hex() == steps[1][0].hex()
        for a, b in zip(steps[0][1:], steps[1][1:]):
            assert a.tobytes() == b.tobytes()
        for store in stores:
            train.fit(store, triples, cfg)
        for a, b in ((stores[0].entity, stores[1].entity),
                     (stores[0].relation, stores[1].relation)):
            assert a.tobytes() == b.tobytes()

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
            vh = algebra.exp_map(ev[h].T)
            vt = algebra.exp_map(ev[t].T)
            qr = algebra.exp_map(rv[r].T)
            ref = float(np.sum(algebra.quat_mul(vh, qr) * vt))
            got = model.score_all_tails(store, h, r)[0, t]
            assert got == pytest.approx(ref, abs=1e-12)
            assert got == pytest.approx(oracle_score(store, h, r, t), abs=1e-12)


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
    """Every entry of model.GROUPS, which also serves the entity scalars and
    unit vectors."""

    def test_vector_groups_are_table_entries(self):
        for v in model.VARIANTS.values():
            for group in (v.scalar, v.vector, v.scaling, v.rotation):
                assert any(group is entry for entry in model.GROUPS.values())

    @pytest.mark.parametrize("name", sorted(model.GROUPS))
    def test_identity_params_materialize_to_identity(self, name):
        """The trivial group that stands in for a frozen part of this group
        has no parameters, materializes to the real one, passes a zero
        gradient back, and leaves this group's elements as they are when it
        multiplies them on either side."""
        group, trivial = model.GROUPS[name], model.TRIVIAL
        assert trivial.param_width == 0 and trivial.width == 1
        params = np.empty((0, 2, 3))
        elems = trivial.materialize(params)
        assert elems.tobytes() == np.ones((1, 2, 3)).tobytes()
        grad = trivial.param_backward(params, elems, np.ones_like(elems))
        assert grad.shape == params.shape and not np.any(grad)
        rng = np.random.default_rng(2)
        x = group.materialize(model.planes(rng.normal(size=(2, 3, group.param_width))))
        if group is trivial:
            x = model.planes(rng.normal(size=(2, 3, 1)))  # a free real to scale
        assert algebra.elem_mul(elems, x).tobytes() == x.tobytes()
        assert algebra.elem_mul(x, elems).tobytes() == x.tobytes()

    @pytest.mark.parametrize("name", sorted(model.GROUPS))
    def test_param_backward_matches_central_differences(self, name):
        group = model.GROUPS[name]
        rng = np.random.default_rng(4)
        params = model.planes(rng.uniform(-2.0, 2.0, size=(3, 2, group.param_width)))
        grad = model.planes(rng.normal(size=(3, 2, group.width)))
        analytic = group.param_backward(params, group.materialize(params), grad)
        assert analytic.shape == params.shape
        fd = central_difference(lambda p: np.sum(grad * group.materialize(p)), params)
        assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("widths", [(1, 1), (1, 2), (1, 4), (2, 2), (4, 4), (2, 1), (4, 1)])
    def test_product_backward_matches_central_differences(self, widths):
        rng = np.random.default_rng(sum(widths))
        x = model.planes(rng.normal(size=(3, 2, widths[0])))
        y = model.planes(rng.normal(size=(3, 2, widths[1])))
        grad = model.planes(rng.normal(size=(3, 2, max(widths))))
        grad_x, grad_y = algebra.elem_mul_backward(grad, x, y)
        fd_x = central_difference(lambda a: np.sum(grad * algebra.elem_mul(a, y)), x)
        fd_y = central_difference(lambda a: np.sum(grad * algebra.elem_mul(x, a)), y)
        assert np.allclose(grad_x, fd_x, rtol=1e-6, atol=1e-8)
        assert np.allclose(grad_y, fd_y, rtol=1e-6, atol=1e-8)
