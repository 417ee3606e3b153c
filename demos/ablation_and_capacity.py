"""Two quick experiments on the synthetic KG: freezing the scalar or vector
half of the embeddings, and varying the embedding size k."""

import numpy as np

from mkge import data, model, ranking, train

vocab, triples = data.generate_synthetic_kg(seed=1, n_entities=40)
aug = data.augment_reciprocal(triples.train, vocab)
index = data.build_filter_index(triples, vocab)


def run(name, k, ablation="both", epochs=150):
    store = model.init_model(name, k, vocab.n_entities, vocab.n_relations,
                             seed=7, ablation=ablation)
    cfg = train.FitConfig(epochs=epochs, batch_size=256, lr=0.1, seed=7,
                          loss=train.LossConfig(p=3, lam=0.01))
    train.fit(store, aug, cfg)
    return ranking.evaluate(triples.test, store, index)


# ablation: "scalar" keeps only the modulus half (module_rc is then
# DistMult), "vector" keeps only the rotation half
print("module_rc ablations (k=8, filtered test MRR):")
for mode in ("scalar", "vector", "both"):
    rep = run("module_rc", 8, ablation=mode)
    print(f"  {mode:6s} MRR {rep.mrr:.3f}  Hits@1 {rep.hits1:.3f}")

# a scalar-only module_rc store has distmult's groups and, with the same
# seed, distmult's tables, so the two score rows are the same bytes
a = model.init_model("module_rc", 4, vocab.n_entities, vocab.n_relations,
                     seed=0, ablation="scalar")
b = model.init_model("distmult", 4, vocab.n_entities, vocab.n_relations, seed=0)
print("\nscalar-only module_rc vs distmult, largest score gap over the tails of (0, 0):",
      np.max(np.abs(model.score_all_tails(a, 0, 0) - model.score_all_tails(b, 0, 0))))

# capacity: on a fully learnable 50-entity KG a larger k closes the gap to
# perfect memorization and lifts test MRR with it
vocab, triples = data.generate_synthetic_kg(seed=0, n_entities=50)
aug = data.augment_reciprocal(triples.train, vocab)
index = data.build_filter_index(triples, vocab)
print("\nmodule_hh embedding-size sweep:")
for k in (4, 16):
    store = model.init_model("module_hh", k, vocab.n_entities, vocab.n_relations,
                             seed=7)
    cfg = train.FitConfig(epochs=200, batch_size=256, lr=0.1, seed=7,
                          loss=train.LossConfig(p=3, lam=0.01))
    train.fit(store, aug, cfg)
    raw = ranking.evaluate(triples.train, store, None)
    test = ranking.evaluate(triples.test, store, index)
    print(f"  k={k:<3d} raw train MRR {raw.mrr:.3f}  filtered test MRR {test.mrr:.3f}")
