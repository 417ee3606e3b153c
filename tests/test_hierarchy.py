"""The paper's generality claim at equal k: module_hh contains module_rc.

`oracles.rc_to_hh` maps a module_rc store to a module_hh store of the same k
whose every score is the module_rc score divided by m, the largest |scaling|
of the relation table:

- an entity scalar s becomes the real quaternion (s, 0, 0, 0);
- a phase theta, of an entity vector or of a relation rotation, becomes the
  rotation vector (theta, 0, 0), the unit quaternion cos theta + i sin theta,
  which is the complex e^(i theta);
- a scaling r becomes the rotation vector (0, phi, 0) with phi = arccos(r / m),
  the unit quaternion cos phi + j sin phi.

Per dimension, the transformed head is (s cos phi + s sin phi j)(v q), with the
rotated vector v q in span{1, i}. Its first term, s cos phi (v q), is the
module_rc head s r (v q) divided by m. The j-part of the scaling moves the
second term into span{j, k}, as j (a + b i) = a j - b k. The tails s_t v_t lie
in span{1, i}, so the span{j, k} part adds nothing to the coordinate dot
product, and the score is the module_rc score divided by m. Every ranking of a
module_rc store is therefore one of a module_hh store, and a trained module_hh
that ranks below module_rc at the same k is an optimization result, not a
capacity one. The loss is not preserved, as the scores shrink by m.

No map from module_rh to module_hh is known: module_rh's vectors use all four
quaternion coordinates, so the j-rotation of the scaling has no free plane to
rotate into. This module does not test that none exists.
"""

import numpy as np
import pytest

from mkge import data, model, ranking, train
from oracles import rc_to_hh

K = 16
# scores are equal up to rounding, not bit for bit: the unit quaternions
# come from exp_map, the complex units from cos and sin
SCORE_RTOL = 1e-12


def rc_setup(seed, epochs):
    """A module_rc store on a 60-entity synthetic KG, trained for `epochs`."""
    vocab, kg = data.generate_synthetic_kg(seed=seed, n_entities=60)
    store = model.init_model("module_rc", K, vocab.n_entities, vocab.n_relations, seed=seed)
    if epochs:
        cfg = train.FitConfig(epochs=epochs, batch_size=64, seed=seed,
                              loss=train.LossConfig(p=2, lam=0.01))
        train.fit(store, data.augment_reciprocal(kg.train, vocab), cfg)
    return kg, store, data.build_filter_index(kg, vocab)


@pytest.mark.parametrize("seed, epochs", [(0, 0), (1, 0), (2, 20)],
                         ids=["random0", "random1", "trained"])
class TestRcToHh:
    def test_scores_scale_by_m(self, seed, epochs):
        """Every (head, relation) query's scores over all tails, relations
        and their reciprocals alike: m times the module_hh scores match the
        module_rc scores to SCORE_RTOL of the largest score."""
        _, store, _ = rc_setup(seed, epochs)
        hh, m = rc_to_hh(store)
        heads = np.repeat(np.arange(store.n_entities), store.n_relations)
        rels = np.tile(np.arange(store.n_relations), store.n_entities)
        want = model.score_all_tails(store, heads, rels)
        got = m * model.score_all_tails(hh, heads, rels)
        assert np.max(np.abs(got - want)) <= SCORE_RTOL * np.max(np.abs(want))

    def test_filtered_ranks_equal(self, seed, epochs):
        kg, store, index = rc_setup(seed, epochs)
        want = ranking.evaluate(kg.test, store, index)
        got = ranking.evaluate(kg.test, rc_to_hh(store)[0], index)
        assert got.ranks.rank.tolist() == want.ranks.rank.tolist()
        assert got.mrr == want.mrr
