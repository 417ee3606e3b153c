"""End-to-end training on the built-in synthetic knowledge graph: generate a
deterministic 50-entity KG, fit the quaternion-scalar quaternion-vector model
with the 1-vs-all logistic loss, and evaluate with the filtered protocol."""

import numpy as np

from mkge import data, model, ranking, train

# a consistent toy KG: one symmetric relation, one ordering relation,
# and a mutually inverse pair, split 90/5/5
vocab, triples = data.generate_synthetic_kg(seed=0, n_entities=50)
print("entities:", vocab.n_entities, "relations:", vocab.n_base_relations)
print({name: len(split) for name, split in triples.splits().items()})

# head prediction is trained through reciprocal relations, so the training
# stream carries both directions of every fact
aug = data.augment_reciprocal(triples.train, vocab)

store = model.init_model("module_hh", k=16, n_entities=vocab.n_entities,
                         n_relations=vocab.n_relations, seed=0)
cfg = train.FitConfig(epochs=200, batch_size=256, lr=0.1, seed=0,
                      loss=train.LossConfig(p=3, lam=0.01))
report, _ = train.fit(store, aug, cfg)
print(f"epoch 0 loss {report.epochs[0].loss:.3f} -> "
      f"epoch {report.epochs[-1].epoch} loss {report.epochs[-1].loss:.3f}")

# raw ranking on the training split measures pure memorization
raw = ranking.evaluate(triples.train, store, None)
print(f"raw train MRR {raw.mrr:.3f}  Hits@1 {raw.hits1:.3f}")

# the filtered protocol removes all known true triples from the candidates
index = data.build_filter_index(triples, vocab)
test = ranking.evaluate(triples.test, store, index)
print(f"filtered test MRR {test.mrr:.3f}  Hits@10 {test.hits10:.3f}")

# per-relation breakdown shows which relation patterns generalize
for name, mrr, count in ranking.per_relation_table(test, vocab):
    print(f"  {name:10s} MRR {mrr:.3f}  ({count} test triples)")
