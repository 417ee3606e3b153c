"""One benchmark workload, run in a fresh process started by run.py.

The process generates its knowledge graph from the seed, then drives mkge only
through the public calls a user makes: `data.build_dataset`,
`data.augment_reciprocal`, `model.init_model`, `train.fit`,
`checkpoint.save_checkpoint` / `load_checkpoint`, `data.build_filter_index`
and `ranking.evaluate`. It checks the outputs and writes one JSON result file.

Mode `timed` measures for `--seconds` seconds after an untimed warm-up. Mode
`traced` installs the span tracer and does a fixed amount of work (the same
set-up, warm-up and check phases, then `TRACE_OPS` timed operations), so its
per-layer totals and call counts compare across commits.

Usage (normally through run.py):
    python3 perfbench/workload.py --workload train_hh --seed 0 --seconds 15 \
        --mode timed --scale full --work DIR --out result.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import kg  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from mkge import checkpoint, data, model, ranking, train  # noqa: E402
from mkge.errors import MkgeError  # noqa: E402

# model variant per training workload; eval_filtered scores a module_hh checkpoint
VARIANTS = {"train_hh": "module_hh", "train_rotate": "rotate", "eval_filtered": "module_hh"}

# the fb15k237 preset of `mkge train --preset fb15k237`
PRESET_LOSS = dict(p=3, lam=0.045, lambda1=2.0, lambda2=0.5, lambda3=2.0)
LR = 0.1

SCALES = {
    "full": dict(kg=kg.FB15K237, k=128, batch={"train_hh": 300, "train_rotate": 32},
                 warm_triples=32, sample_queries=512),
    "tiny": dict(kg=kg.TINY, k=8, batch={"train_hh": 64, "train_rotate": 16},
                 warm_triples=8, sample_queries=64),
}

SETUP_REPEATS = 3
TRACE_OPS = {"train_hh": 2, "train_rotate": 1, "eval_filtered": 1}

# losses of the first training steps, per workload and seed, at full scale
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_losses.json")
LOSS_RTOL = 1e-12  # float reordering moves a loss by ~1e-16; a 0.1% change of one loss weight by ~1e-10

clock = time.perf_counter


class Run:
    """Counters, phase timings and info a workload fills in."""

    def __init__(self, args):
        self.args = args
        self.scale = SCALES[args.scale]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.phases = {"setup_s": [], "warmup_s": 0.0, "op_s": [], "finish_s": 0.0}
        self.info = {}
        self.metrics = {}
        self.tracer = None

    def fail(self, message, count=1):
        self.failed += count
        self.errors.append(message)

    def phase(self, run_id):
        if self.tracer is not None:
            self.tracer.run_id = run_id

    def timed_loop(self, op, first):
        """Call op(i) for i = first, first+1, ...: in timed mode until --seconds
        have passed (and at least TRACE_OPS ops ran), in traced mode exactly
        TRACE_OPS times. Returns (wall seconds, CPU seconds)."""
        target = TRACE_OPS[self.args.workload]
        traced = self.args.mode == "traced"
        wall0, cpu0 = clock(), time.process_time()
        i = first
        while True:
            self.phase(f"op{i}")
            t0 = clock()
            if not op(i):
                break
            self.phases["op_s"].append(clock() - t0)
            i += 1
            n = len(self.phases["op_s"])
            if n >= target and (traced or clock() - wall0 >= self.args.seconds):
                break
        return clock() - wall0, time.process_time() - cpu0


def _same(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


def _table_digest(*tables):
    h = hashlib.sha256()
    for t in tables:
        h.update(memoryview(np.ascontiguousarray(t)).cast("B"))
    return h.hexdigest()


def _check_shape(run, vocab, triples, shape):
    got = (vocab.n_entities, vocab.n_base_relations, len(triples.train), len(triples.valid),
           len(triples.test))
    want = (shape.n_entities, shape.n_relations, shape.n_train, shape.n_valid, shape.n_test)
    if got != want:
        run.fail(f"dataset shape {got} != generated {want}")


def _reference_losses(workload, seed, scale):
    if scale != "full" or not os.path.exists(REFERENCE_FILE):
        return []
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), [])


def run_train(run, kg_dir):
    args, scale = run.args, run.scale
    variant, k = VARIANTS[args.workload], scale["k"]
    batch = scale["batch"][args.workload]

    for rep in range(SETUP_REPEATS):
        store = vocab = triples = aug = None  # free the previous repeat first
        run.phase(f"setup{rep}")
        t0 = clock()
        vocab, triples = data.build_dataset(kg_dir)
        aug = data.augment_reciprocal(triples.train, vocab)
        store = model.init_model(variant, k, vocab.n_entities, vocab.n_relations, seed=args.seed)
        run.phases["setup_s"].append(clock() - t0)
    _check_shape(run, vocab, triples, scale["kg"])
    run.info.update(k=k, batch_size=batch, entity_table_bytes=int(store.entity.nbytes))

    order = np.random.default_rng(args.seed).permutation(len(aug))
    fit_cfg = train.FitConfig(epochs=1, batch_size=batch, lr=LR, seed=args.seed,
                              loss=train.LossConfig(**PRESET_LOSS))
    expected = _reference_losses(args.workload, args.seed, args.scale)
    losses = []
    state = {"opt": None}

    def step(i):
        """One 1-vs-all Adagrad step through train.fit; False stops the loop."""
        run.attempted += 1
        rows = aug[order[np.arange(i * batch, (i + 1) * batch) % len(aug)]]
        try:
            report, state["opt"] = train.fit(store, rows, fit_cfg, opt_state=state["opt"],
                                             start_epoch=i, stop_epoch=i + 1)
        except MkgeError as exc:
            run.fail(f"step {i}: {exc}")
            return False
        loss = report.epochs[-1].loss
        losses.append(loss)
        if not math.isfinite(loss):
            run.fail(f"step {i}: non-finite loss {loss}")
            return False
        if i < len(expected) and not math.isclose(loss, expected[i], rel_tol=LOSS_RTOL):
            run.fail(f"step {i}: loss {loss!r} != reference {expected[i]!r}")
        return True

    run.phase("warmup")
    t0 = clock()
    ok = step(0)
    run.phases["warmup_s"] = clock() - t0
    wall = cpu = 0.0
    if ok:
        wall, cpu = run.timed_loop(step, 1)
    run.info.update(losses=losses, reference_steps=min(len(expected), len(losses)))
    if run.phases["op_s"]:
        run.metrics["throughput_per_s"] = batch / statistics.median(run.phases["op_s"])
    if wall > 0:
        run.metrics["proc.cpu_util"] = cpu / wall

    # checkpoint round trip: tables and Adagrad state must reload bit-exact
    if state["opt"] is None:
        return
    run.attempted += 1
    path = os.path.join(args.work, "train.mkge")
    digest = checkpoint.config_digest(variant, k, "both", vocab.n_entities, vocab.n_relations)
    run.phase("finish")
    t0 = clock()
    try:
        checkpoint.save_checkpoint(path, store, opt_state=state["opt"], epoch=len(losses),
                                   digest=digest)
        loaded = checkpoint.load_checkpoint(path)
    except MkgeError as exc:
        run.fail(f"checkpoint round trip: {exc}")
        return
    finally:
        run.phases["finish_s"] = clock() - t0
        run.metrics["peak_rss_mb"] = peak_rss_mb()
    run.metrics["checkpoint.bytes"] = os.path.getsize(path)
    os.remove(path)
    opt = state["opt"]
    exact = (
        _same(loaded.store.entity, store.entity)
        and _same(loaded.store.relation, store.relation)
        and loaded.opt_state is not None
        and _same(loaded.opt_state.acc_entity, opt.acc_entity)
        and _same(loaded.opt_state.acc_relation, opt.acc_relation)
        and loaded.opt_state.lr == opt.lr
        and loaded.epoch == len(losses)
        and loaded.digest == digest
    )
    if not exact:
        run.fail("checkpoint did not reload bit-exact")


def _make_eval_checkpoint(run, path):
    """Benchmark-side preparation, untimed: a module_hh checkpoint with Adagrad
    state, as `mkge train` writes it. Returns (config digest, table digest)."""
    shape, k = run.scale["kg"], run.scale["k"]
    variant, n_rel = VARIANTS["eval_filtered"], 2 * shape.n_relations
    store = model.init_model(variant, k, shape.n_entities, n_rel, seed=run.args.seed)
    opt = train.OptimizerState.for_store(store, lr=LR)
    digest = checkpoint.config_digest(variant, k, "both", shape.n_entities, n_rel)
    checkpoint.save_checkpoint(path, store, opt_state=opt, epoch=0, digest=digest)
    return digest, _table_digest(store.entity, store.relation)


def run_eval(run, kg_dir, ckpt_path, ckpt_digest, table_digest):
    args, scale = run.args, run.scale
    k = scale["k"]
    for rep in range(SETUP_REPEATS):
        vocab = triples = loaded = index = None  # free the previous repeat first
        run.phase(f"setup{rep}")
        t0 = clock()
        vocab, triples = data.build_dataset(kg_dir)
        loaded = checkpoint.load_checkpoint(ckpt_path)
        loaded.verify_digest(ckpt_digest)
        index = data.build_filter_index(triples, vocab)
        run.phases["setup_s"].append(clock() - t0)
    _check_shape(run, vocab, triples, scale["kg"])
    store = loaded.store
    run.info.update(k=k, entity_table_bytes=int(store.entity.nbytes))

    run.attempted += 1  # checkpoint round trip: tables as the benchmark saved them
    if _table_digest(store.entity, store.relation) != table_digest:
        run.fail("checkpoint tables differ from the saved ones")

    test = triples.test
    run.phase("warmup")
    t0 = clock()
    ranking.evaluate(test[: scale["warm_triples"]], store, index)
    run.phases["warmup_s"] = clock() - t0
    run.attempted += 2 * scale["warm_triples"]
    reports = []

    def eval_pass(_):
        reports.append(ranking.evaluate(test, store, index))
        run.attempted += 2 * len(test)
        return True

    wall, cpu = run.timed_loop(eval_pass, 1)
    run.metrics["peak_rss_mb"] = peak_rss_mb()  # before the checks allocate their own tables
    run.metrics["throughput_per_s"] = 2 * len(test) / statistics.median(run.phases["op_s"])
    run.metrics["proc.cpu_util"] = cpu / wall

    ranks = [rec.rank for rec in reports[-1].ranks]
    if len(ranks) != 2 * len(test):
        run.fail(f"{len(ranks)} ranks for {2 * len(test)} queries", 2 * len(test))
        return
    for other in reports[:-1]:
        if [rec.rank for rec in other.ranks] != ranks:
            run.fail("ranks differ between passes")

    # brute-force filtered ranks of a seeded sample of queries
    rng = np.random.default_rng(args.seed)
    picks = np.sort(rng.choice(2 * len(test), size=min(scale["sample_queries"], 2 * len(test)),
                               replace=False))
    queries = []
    for q in picks.tolist():
        h, r, t = (int(x) for x in test[q // 2])
        direction = "tail" if q % 2 == 0 else "head"
        rec = reports[-1].ranks[q]
        if (rec.h_id, rec.r_id, rec.t_id, rec.direction) != (h, r, t, direction):
            run.fail(f"query {q} reported as {rec}")
        queries.append((h, r, t, direction))
    all_triples = np.concatenate([triples.train, triples.valid, triples.test])
    combined, head = reference.hh_tables(store.entity, store.relation, k)
    expected = reference.filtered_ranks(queries, all_triples, vocab.n_base_relations,
                                        combined, head)
    bad = sum(ranks[q] != e for q, e in zip(picks.tolist(), expected))
    if bad:
        run.fail(f"{bad} of {len(picks)} sampled ranks differ from brute force", bad)
    run.info["checked_queries"] = len(picks)


def _blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def peak_rss_mb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(VARIANTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("timed", "traced"), required=True)
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    p.add_argument("--work", required=True, help="scratch directory for inputs")
    p.add_argument("--out", required=True, help="result JSON path")
    args = p.parse_args(argv)

    run = Run(args)
    run.info.update(numpy=np.__version__, blas=_blas_version(),
                    blas_threads_env=os.environ.get("OPENBLAS_NUM_THREADS"))
    shape = run.scale["kg"]
    splits = kg.generate(args.seed, shape)
    kg_dir = os.path.join(args.work, "kg")
    kg.write_tsv(kg_dir, splits)
    run.info.update(n_entities=shape.n_entities, n_base_relations=shape.n_relations,
                    splits=[len(s) for s in splits], **kg.filter_stats(splits, shape.n_relations))
    del splits
    if args.workload == "eval_filtered":
        ckpt_path = os.path.join(args.work, "eval.mkge")
        ckpt_digest, table_digest = _make_eval_checkpoint(run, ckpt_path)

    if args.mode == "traced":
        run.tracer = tracing.Tracer()
        run.tracer.install()
    try:
        if args.workload == "eval_filtered":
            run_eval(run, kg_dir, ckpt_path, ckpt_digest, table_digest)
        else:
            run_train(run, kg_dir)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()

    run.metrics["setup_s"] = statistics.median(run.phases["setup_s"])
    run.metrics.setdefault("peak_rss_mb", peak_rss_mb())
    if run.tracer is not None:
        spans = run.tracer.spans
        run.metrics.update(tracing.summarize(spans))
        trace_path = os.path.splitext(args.out)[0] + ".spans.jsonl"
        run.tracer.write(trace_path)
        run.info["spans_file"] = trace_path
    result = {"attempted": run.attempted, "failed": run.failed, "errors": run.errors,
              "phases": run.phases, "metrics": run.metrics, "info": run.info}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
