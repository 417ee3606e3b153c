"""What the ranking protocol actually computes: pessimistic (bottom) tie
handling, filtering of known true triples, and how the two combine into the
reported MRR and Hits@K."""

import numpy as np

from mkge import data, model, ranking

# bottom protocol: among equal scores the true candidate counts as ranked
# last, so ties are never flattered
scores = np.array([0.9, 0.5, 0.5, 0.5, 0.1])
print("scores:", scores)
print("rank of candidate 2 (three-way tie at 0.5):",
      ranking.bottom_rank(scores, 2))

# filtering removes other known-true candidates, marked in a bool mask, from
# the competition; the true candidate itself is always kept
print("same query, candidates 0 and 1 filtered:",
      ranking.bottom_rank(scores, 2, np.isin(np.arange(5), [0, 1])))
print("the true candidate is never filtered away:",
      ranking.bottom_rank(scores, 2, np.arange(5) == 2))

# full evaluation on a small KG with an untrained model: ranks should hover
# around the midpoint of the candidate list
vocab, triples = data.generate_synthetic_kg(seed=3, n_entities=30)
store = model.init_model("module_rc", k=4, n_entities=vocab.n_entities,
                         n_relations=vocab.n_relations, seed=3)
index = data.build_filter_index(triples, vocab)
report = ranking.evaluate(triples.test, store, index)
ranks = report.ranks.rank
print(f"\nuntrained model on {len(triples.test)} test triples "
      f"(both directions -> {len(ranks)} queries)")
print(f"mean rank {np.mean(ranks):.1f} of {vocab.n_entities} candidates, "
      f"MRR {report.mrr:.3f}")

# every query contributes one rank per direction; head prediction runs
# through the reciprocal relation id r + |R|
rec = report.ranks[0]
print("first record", report.ranks.dtype.names, "=", rec)
reciprocal = vocab.n_base_relations + 0
print("reciprocal of relation 0 is id", reciprocal, "named", vocab.relation_name(reciprocal))
