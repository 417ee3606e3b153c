"""Experiment harness: train / eval / grid subcommands.

`train` and `grid` take one flag per run setting. Settings resolve as
defaults < preset < config file < flags < a grid point's `--set` values; the
resolved key=value form, written next to the outputs before training,
reparses to an equal config. `eval` takes only `--dataset`, `--checkpoint`,
`--split` and `--out`: the checkpoint fixes the variant, k and ablation. A
bad value of any flag exits 1 with one `error:` line. `_csv` writes every
CSV output, header row first and each row flushed: `train_report.csv`
gains a row as each epoch ends, and an unwritable one fails before training.

The trainer's defaults come from `train.FitConfig` and `train.LossConfig`,
and the metric columns from `ranking.RankMetrics`: cli declares neither.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from dataclasses import dataclass, fields, replace

from . import checkpoint as ckpt
from . import data, model, ranking, thread_cap, train
from .errors import DigestMismatch, MissingFile, MkgeError, ParseError

PRESETS = {
    # best published settings per benchmark for the quaternion-module model
    "fb15k237": dict(model="module_hh", epochs=200, batch_size=300, k=128, p=3,
                     lam=0.045, lambda1=2.0, lambda2=0.5, lambda3=2.0, lr=0.1,
                     schedule="constant"),
    "wn18rr": dict(model="module_hh", epochs=200, batch_size=500, k=128, p=3,
                   lam=0.08, lambda1=2.0, lambda2=0.5, lambda3=2.0, lr=0.1,
                   schedule="exp"),
    "yago3-10": dict(model="module_hh", epochs=200, batch_size=1000, k=128, p=3,
                     lam=0.005, lambda1=2.0, lambda2=0.5, lambda3=2.0, lr=0.1,
                     schedule="constant"),
}

METRICS = tuple(f.name for f in fields(ranking.RankMetrics))  # metrics.csv and grid.csv columns
MODEL_ALIASES = {"rc": "module_rc", "rh": "module_rh", "hh": "module_hh"}
_CASTS = {"int": int, "float": float, "str": str}  # by field type, for every setting value


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    model: str = "module_hh"
    k: int = 32
    p: int = train.LossConfig.p
    lam: float = train.LossConfig.lam
    lambda1: float = train.LossConfig.lambda1
    lambda2: float = train.LossConfig.lambda2
    lambda3: float = train.LossConfig.lambda3
    epochs: int = train.FitConfig.epochs
    batch_size: int = train.FitConfig.batch_size
    lr: float = train.FitConfig.lr
    schedule: str = train.FitConfig.schedule
    seed: int = train.FitConfig.seed
    ablation: str = "both"
    eval_interval: int = train.FitConfig.eval_interval
    patience: int = train.FitConfig.patience
    out: str = "runs/run"

    def validate(self):
        # the two owners check the settings: `model.init_model` (an empty store), the fit configs
        model.init_model(self.model, self.k, 0, 0, 0, self.ablation)
        _fit_config(self)
        return self

    def to_text(self):
        lines = []
        for f in fields(self):
            lines.append(f"{f.name}={getattr(self, f.name)}")
        return "\n".join(lines) + "\n"


def parse_config_text(text, base=None, path=None):
    """Apply the key=value lines of a config text to `base` (default: the
    defaults). A bad line raises ParseError naming `<path>:<line>`, or
    `config line <line>` when no path is given."""
    cfg = base or ExperimentConfig()
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"config line {lineno}" if path is None else f"{path}:{lineno}"
        if "=" not in line:
            raise ParseError(f"{where}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        updates[key] = _cast_setting(key, value, where)
    return replace(cfg, **updates)


def _cast_setting(key, value, where):
    """`value` cast to the type of setting `key`; ParseError names `where`."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    if key not in types:
        raise ParseError(f"{where}: unknown key {key!r}")
    try:
        return _CASTS[types[key]](value)
    except ValueError as exc:
        raise ParseError(f"{where}: bad value {value!r} for key {key!r}") from exc


def load_config_file(path, base=None):
    """`parse_config_text` of a UTF-8 file, without a leading byte-order mark."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MissingFile(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config file {path}: not valid UTF-8 at byte {exc.start}") from None
    # decoded as plain UTF-8, so a byte-order mark counts in the byte offset above
    return parse_config_text(text.removeprefix("\ufeff"), base=base, path=path)


def resolve_config(args):
    cfg = ExperimentConfig()
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}")
        cfg = replace(cfg, **PRESETS[args.preset])
    if args.config is not None:
        cfg = load_config_file(args.config, base=cfg)
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    cfg = replace(cfg, **{name: _cast_setting(name, value, _flag(name))
                          for name, value in flags.items() if value is not None})
    return replace(cfg, model=MODEL_ALIASES.get(cfg.model, cfg.model)).validate()


def _fit_config(cfg):
    """The trainer's configs, from the settings of the same names."""
    def settings(cls):
        return {f.name: getattr(cfg, f.name) for f in fields(cls) if f.name != "loss"}

    return train.FitConfig(**settings(train.FitConfig),
                           loss=train.LossConfig(**settings(train.LossConfig)))


def _prepare(dataset, split):
    """The dataset's vocab, triples and filter index; a missing `dataset` or
    an unknown or empty `split`, the one to be ranked, fails before any work."""
    if not dataset:
        raise ValueError("--dataset is required")
    if split not in ("train", "valid", "test"):
        raise ValueError(f"unknown split {split!r}")
    vocab, triples = data.build_dataset(dataset)
    if len(triples.splits()[split]) == 0:
        raise ValueError(f"{split} split of {dataset} is empty: nothing to rank")
    return vocab, triples, data.build_filter_index(triples, vocab)


def _make_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise MissingFile(f"cannot create output directory {path!r}: {exc.strerror}") from exc


def _earlier_rows(path, header, start_epoch):
    """The rows of the report at `path` if it has `header` and exactly the
    epochs 0 ... start_epoch - 1, in order, as a run that is resumed at
    start_epoch into its own output directory left it; else none."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError):  # no report there: a fresh one
        return []
    rows = [line.split(",") for line in lines[1:]]
    epochs = [row[0] for row in rows]
    if lines[:1] != [",".join(header)] or epochs != [str(e) for e in range(start_epoch)]:
        return []
    return rows


@contextlib.contextmanager
def _csv(path, header):
    """Open `path`, write the `header` row and yield write(row), which writes
    one row of cells and flushes it, so a later failure keeps it."""
    with open(path, "w", encoding="utf-8") as fh:
        def write(row):
            fh.write(",".join(map(str, row)) + "\n")
            fh.flush()
        write(header)
        yield write


def _evaluate(split, store, index, vocab, out_dir):
    """Rank `split` and write metrics.csv and per_relation.csv to out_dir."""
    metrics = ranking.evaluate(split, store, index)
    with _csv(os.path.join(out_dir, "metrics.csv"), METRICS) as write:
        write([f"{getattr(metrics, name):.6f}" for name in METRICS])
    with _csv(os.path.join(out_dir, "per_relation.csv"), ["relation", "mrr", "count"]) as write:
        for name, mrr, count in ranking.per_relation_table(metrics, vocab):
            write([name, f"{mrr:.6f}", count])
    return metrics


def run_training(cfg, prepared, resume=None):
    """Shared train pipeline into cfg.out, on `prepared`, the `_prepare` of
    cfg.dataset for the test split; returns (report, metrics)."""
    vocab, triples, index = prepared
    train_aug = data.augment_reciprocal(triples.train, vocab)
    _make_dir(cfg.out)
    digest = ckpt.config_digest(cfg.model, cfg.k, cfg.ablation,
                                vocab.n_entities, vocab.n_relations)
    start_epoch, opt_state = 0, None
    if resume is not None:
        loaded = ckpt.load_checkpoint(resume)
        loaded.verify_digest(digest)
        store, opt_state, start_epoch = loaded.store, loaded.opt_state, loaded.epoch
        if opt_state is not None and opt_state.lr != cfg.lr:
            raise DigestMismatch(f"checkpoint was trained at lr {opt_state.lr!r}, not {cfg.lr!r}")
    else:
        store = model.init_model(cfg.model, cfg.k, vocab.n_entities, vocab.n_relations,
                                 seed=cfg.seed, ablation=cfg.ablation)
    report_path = os.path.join(cfg.out, "train_report.csv")
    header = ["epoch", "loss", "lr", "valid_mrr", "seconds"]
    kept = [] if resume is None else _earlier_rows(report_path, header, start_epoch)
    with _csv(report_path, header) as write:
        with open(os.path.join(cfg.out, "resolved_config.cfg"), "w", encoding="utf-8") as fh:
            fh.write(cfg.to_text())
        for row in kept:  # the resumed run's earlier epochs, verbatim
            write(row)

        def epoch_row(rec, _):  # fit's callback, as each epoch ends
            mrr = "" if rec.valid_mrr is None else f"{rec.valid_mrr:.6f}"
            write([rec.epoch, f"{rec.loss:.10f}", f"{rec.lr:.10f}", mrr, f"{rec.seconds:.3f}"])
        report, opt_state = train.fit(store, train_aug, _fit_config(cfg), callback=epoch_row,
                                      valid_triples=triples.valid, filter_index=index,
                                      opt_state=opt_state, start_epoch=start_epoch)
    final_epoch = report.epochs[-1].epoch + 1 if report.epochs else start_epoch
    ckpt.save_checkpoint(os.path.join(cfg.out, "checkpoint.mkge"), store,
                         opt_state=opt_state, epoch=final_epoch, digest=digest)
    return report, _evaluate(triples.test, store, index, vocab, cfg.out)


def cmd_train(args):
    cfg = resolve_config(args)
    _, metrics = run_training(cfg, _prepare(cfg.dataset, "test"), resume=args.resume)
    print(metrics.format_table())
    return 0


def cmd_eval(args):
    """Rank `--split` with the checkpoint's model, whose variant, k and
    ablation are bound to the dataset's sizes by the checkpoint digest."""
    vocab, triples, index = _prepare(args.dataset, args.split)
    _make_dir(args.out)
    loaded = ckpt.load_checkpoint(args.checkpoint)
    store = loaded.store
    loaded.verify_digest(ckpt.config_digest(store.variant.name, store.k, store.ablation,
                                            vocab.n_entities, vocab.n_relations))
    del loaded  # its Adagrad accumulators, as large as the tables, are not needed to rank
    metrics = _evaluate(triples.splits()[args.split], store, index, vocab, args.out)
    print(metrics.format_table())
    return 0


def cmd_grid(args):
    """Train each point of the `--set` product, last key fastest, into
    `<out>/<key>=<value>,...`, after resolving every point as `train` does.
    The dataset, which no point can change, is read and indexed once."""
    axes = {}
    for item in args.set:
        key, _, values = item.partition("=")
        if key in axes or key in ("dataset", "out"):
            raise ParseError(f"--set {item}: each grid key must be new, not dataset or out")
        axes[key] = [_cast_setting(key, value, f"--set {item}") for value in values.split(",")]
    cfgs = [resolve_config(argparse.Namespace(**{**vars(args), **dict(zip(axes, values))}))
            for values in itertools.product(*axes.values())]
    root = cfgs[0].out
    points = [replace(cfg, out=os.path.join(root, ",".join(
        f"{key}={getattr(cfg, key)}" for key in axes))) for cfg in cfgs]
    seen = set()
    for cfg in points:
        if cfg.out in seen:
            raise ParseError(f"--set: grid point {cfg.out!r} is repeated")
        seen.add(cfg.out)
    prepared = _prepare(cfgs[0].dataset, "test")
    _make_dir(root)
    header = [*axes, "valid_mrr", "valid_epoch", *METRICS]
    with _csv(os.path.join(root, "grid.csv"), header) as write:
        for cfg in points:
            report, m = run_training(cfg, prepared)
            best = max((rec for rec in report.epochs if rec.valid_mrr is not None),
                       key=lambda rec: rec.valid_mrr, default=None)  # first epoch at the best
            valid = ["", ""] if best is None else [f"{best.valid_mrr:.6f}", best.epoch]
            write([getattr(cfg, key) for key in axes] + valid
                  + [f"{getattr(m, name):.6f}" for name in METRICS])
            print(f"{os.path.basename(cfg.out)} mrr={m.mrr:.4f} h@1={m.hits1:.4f}")
    return 0


_HELP = {"dataset": "directory with train.txt/valid.txt/test.txt", "out": "output directory"}


def _flag(name):
    """The command-line flag of setting `name`."""
    return "--lambda" if name == "lam" else "--" + name.replace("_", "-")


def _add_common_flags(parser):
    """One flag per ExperimentConfig field; `resolve_config` casts and checks
    its value as it does a config file's, so a bad one exits 1 with an
    `error:` line."""
    for f in fields(ExperimentConfig):
        parser.add_argument(_flag(f.name), dest=f.name, help=_HELP.get(f.name))
    parser.add_argument("--preset", help="tuned settings: " + ", ".join(sorted(PRESETS)))
    parser.add_argument("--config", help="key=value config file; flags override it")


def build_parser():
    parser = argparse.ArgumentParser(prog="mkge",
                                     description="Knowledge graph embeddings over modules")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and evaluate the test split")
    _add_common_flags(p_train)
    p_train.add_argument("--resume", help="checkpoint to continue training from")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--dataset", help=_HELP["dataset"])
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", default="test", help="train, valid or test")
    p_eval.add_argument("--out", default=ExperimentConfig.out, help=_HELP["out"])
    p_eval.set_defaults(func=cmd_eval)

    p_grid = sub.add_parser("grid", help="train every point of a settings grid")
    _add_common_flags(p_grid)
    p_grid.add_argument("--set", action="append", required=True, metavar="KEY=V1,V2,...",
                        help="grid values of one setting; repeat for more keys")
    p_grid.set_defaults(func=cmd_grid)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        thread_cap()  # a bad MKGE_THREADS fails before any file is read
        return args.func(args)
    except (MkgeError, ValueError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
