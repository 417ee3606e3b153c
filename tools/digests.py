"""Bit-identity digests of the model and the trainer: a first `env` line that
names the build the bits were computed on, then one line per variant x
ablation, one `data` line for the data layer and one `cli` line for the
command line.

The `env` line names numpy's version, its BLAS library and version, numpy's
SIMD baseline and the extensions it found on this CPU, and the machine
architecture. Two runs whose `env` lines match are expected to print the same
digests; where they differ, a float result may round otherwise (a BLAS
kernel, or a fused multiply-add), so the other lines need not match.

Each model line hashes, for one case on a small synthetic KG: the initial
parameter tables (an ablation's hold its free parameters only), the
whole-table combined entities of those tables (`combined_embeddings`), the
scores of a batch's (head, relation) rows against every entity, one
training step on that batch (its loss as a float hex, both gradient tables,
both tables after Adagrad), a 3-epoch `fit` (its epoch losses and final
tables), and the filtered test MRR and ranks array of the fitted tables. The
fields up to `loss` are computed by the forward alone, from the initial
tables, so a change to the backward or to Adagrad leaves them as they are.
`fit=` runs the training step that updates each entity row block as its
gradient is complete; `grads=` and `adagrad=` run the dense path, the whole
gradient tables of `batch_loss_and_grads` and then `adagrad_step` on each
whole table.
Row blocks, distance chunks and evaluation blocks are set small, so the
entity work, the distance kernel and the ranking run in several blocks, as
they do at full scale.

The `data` line hashes the entity and relation name lists and the three id
arrays that `build_dataset` reads back from `write_dataset` of the synthetic
KG, so a change to parsing or to id assignment shows there. Its last three
fields hash what the data layer computes from those arrays:
`augment_reciprocal` of the train split, the keys of `build_filter_index`,
and the filter mask of the test split's (head, relation) rows.

The `cli` line runs `mkge train` (`module_rc`, k=2, 2 epochs) on that KG,
then `mkge eval` of its checkpoint with the four eval flags and a 2-point
`mkge grid --set seed=0,1` (1 epoch, the same settings), and hashes the
`checkpoint.mkge`, `train_report.csv` (without its `seconds` column),
`metrics.csv`, `per_relation.csv` and `grid.csv` they write, so a change to
the command line's settings or outputs shows there.

Two trees give the same output exactly when they compute the same bits, so a
refactor is checked by diffing the output of the parent and of the change:

    PYTHONPATH=src python tools/digests.py > after.txt
    MKGE_THREADS=1 PYTHONPATH=src python tools/digests.py > after_1.txt

`tests/digests.golden` holds the output of the tree as committed, and
`tests/test_smoke.py` compares both runs with it.
"""

import contextlib
import hashlib
import io
import os
import platform
import tempfile

import numpy as np

from mkge import cli, data, model, ranking, train

K, SEED, N_ENTITIES = 3, 7, 30
LOSS = train.LossConfig(p=3, lam=0.05)
FIT = train.FitConfig(epochs=3, batch_size=64, lr=0.1, seed=SEED, loss=LOSS)

model.ROW_BLOCK_ELEMENTS = 8 * K * 4  # 8-row blocks of quaternion elements
model.DISTANCE_CHUNK_ELEMENTS = 128
ranking.EVAL_BLOCK_ELEMENTS = 4 * N_ENTITIES  # 4-query blocks


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def env_line():
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return " ".join([
        "env", f"numpy={np.__version__}", f"blas={blas['name']}/{blas['version']}",
        f"simd={'+'.join(simd['baseline'])}:{'+'.join(simd['found'])}",
        f"machine={platform.machine()}"])


def case(name, ablation, vocab, triples, aug, index):
    store = model.init_model(name, K, vocab.n_entities, vocab.n_relations, SEED, ablation)
    fields = [f"init={digest(store.entity, store.relation)}",
              f"combined={digest(model.combined_embeddings(store))}"]
    batch = aug[:48]
    fields.append(f"scores={digest(model.score_all_tails(store, batch[:, 0], batch[:, 1]))}")
    loss, g_e, g_r = train.batch_loss_and_grads(store, batch, LOSS)
    fields += [f"loss={float(loss).hex()}", f"grads={digest(g_e, g_r)}"]
    state = train.OptimizerState.for_store(store)
    train.adagrad_step(store.entity, state.acc_entity, g_e, state.lr)
    train.adagrad_step(store.relation, state.acc_relation, g_r, state.lr)
    fields.append(f"adagrad={digest(store.entity, store.relation)}")

    store = model.init_model(name, K, vocab.n_entities, vocab.n_relations, SEED, ablation)
    report, _ = train.fit(store, aug, FIT)
    losses = np.array([rec.loss for rec in report.epochs])
    fields.append(f"fit={digest(losses, store.entity, store.relation)}")
    report = ranking.evaluate(triples.test, store, index)
    fields.append(f"mrr={report.mrr.hex()}")
    fields.append(f"ranks={digest(report.ranks.rank)}")
    return " ".join([f"{name}/{ablation}"] + fields)


def data_line(vocab, triples):
    with tempfile.TemporaryDirectory() as tmp:
        data.write_dataset(tmp, vocab, triples)
        vocab, triples = data.build_dataset(tmp)
    names = digest(np.array(vocab.id_to_entity), np.array(vocab.id_to_relation))
    index = data.build_filter_index(triples, vocab)
    return " ".join([
        f"data names={names} triples={digest(*triples.splits().values())}",
        f"aug={digest(data.augment_reciprocal(triples.train, vocab))}",
        f"keys={digest(index.keys)}",
        f"mask={digest(index.mask(triples.test[:, 0], triples.test[:, 1]))}"])


def cli_line(vocab, triples):
    with tempfile.TemporaryDirectory() as tmp:
        kg, trained, evaluated, grid = (os.path.join(tmp, name) for name in ("kg", "t", "e", "g"))
        data.write_dataset(kg, vocab, triples)
        toy = ["--dataset", kg, "--model", "rc", "--k", "2", "--batch-size", "32",
               "--eval-interval", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", *toy, "--epochs", "2", "--seed", "1", "--out", trained]) == 0
            assert cli.main(["eval", "--dataset", kg, "--split", "test", "--out", evaluated,
                             "--checkpoint", os.path.join(trained, "checkpoint.mkge")]) == 0
            assert cli.main(["grid", *toy, "--epochs", "1", "--out", grid,
                             "--set", "seed=0,1"]) == 0
        outputs = {}
        for name, directory in (("checkpoint.mkge", trained), ("train_report.csv", trained),
                                ("metrics.csv", evaluated), ("per_relation.csv", evaluated),
                                ("grid.csv", grid)):
            with open(os.path.join(directory, name), "rb") as fh:
                outputs[name] = fh.read()
    # the seconds column, last in each row, is wall time
    outputs["train_report.csv"] = b"\n".join(
        line.rpartition(b",")[0] for line in outputs["train_report.csv"].splitlines())
    return " ".join(["cli"] + [f"{name.partition('.')[0]}={hashlib.sha256(blob).hexdigest()[:16]}"
                               for name, blob in outputs.items()])


def main():
    vocab, triples = data.generate_synthetic_kg(seed=SEED, n_entities=N_ENTITIES)
    aug = data.augment_reciprocal(triples.train, vocab)
    index = data.build_filter_index(triples, vocab)
    print(env_line())
    for name in sorted(model.VARIANTS):
        for ablation in model.ABLATION_MODES:
            print(case(name, ablation, vocab, triples, aug, index))
    print(data_line(vocab, triples))
    print(cli_line(vocab, triples))


if __name__ == "__main__":
    main()
