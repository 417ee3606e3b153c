"""Experiment harness: train / eval / ablate / sweep subcommands.

Configuration is resolved as defaults < preset < config file < command-line
flags; the resolved key=value form is written next to the outputs and
reparses to an equal config. All outputs are CSV with a header row.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields, replace

from . import thread_cap
from .errors import MissingFile, MkgeError, ParseError

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

MODEL_ALIASES = {"rc": "module_rc", "rh": "module_rh", "hh": "module_hh"}
_CASTS = {"int": int, "float": float, "str": str}  # by field type, for config lines and flags


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    model: str = "module_hh"
    k: int = 32
    p: int = 3
    lam: float = 0.0
    lambda1: float = 2.0
    lambda2: float = 0.5
    lambda3: float = 2.0
    epochs: int = 100
    batch_size: int = 100
    lr: float = 0.1
    schedule: str = "constant"
    seed: int = 0
    ablation: str = "both"
    eval_interval: int = 5
    patience: int = 10
    out: str = "runs/run"

    def validate(self):
        from . import model as model_mod

        if not self.dataset:
            raise ValueError("--dataset is required")
        if self.model not in model_mod.VARIANTS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.ablation not in model_mod.ABLATION_MODES:
            raise ValueError(f"unknown ablation mode {self.ablation!r}")
        _fit_config(self)  # the training and loss configs check their own fields
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
    types = {f.name: f.type for f in fields(ExperimentConfig)}
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
        if key not in types:
            raise ParseError(f"{where}: unknown key {key!r}")
        try:
            updates[key] = _CASTS[types[key]](value)
        except ValueError as exc:
            raise ParseError(f"{where}: bad value {value!r} for key {key!r}") from exc
    return replace(cfg, **updates)


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
    if getattr(args, "preset", None):
        cfg = replace(cfg, **PRESETS[args.preset])
    if getattr(args, "config", None):
        cfg = load_config_file(args.config, base=cfg)
    flags = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    cfg = replace(cfg, **{name: value for name, value in flags.items() if value is not None})
    return replace(cfg, model=MODEL_ALIASES.get(cfg.model, cfg.model)).validate()


def _fit_config(cfg):
    """The trainer's configs, from the settings of the same names."""
    from .train import FitConfig, LossConfig

    def settings(cls):
        return {f.name: getattr(cfg, f.name) for f in fields(cls) if f.name != "loss"}

    return FitConfig(**settings(FitConfig), loss=LossConfig(**settings(LossConfig)))


def _prepare(cfg):
    from . import data

    vocab, triples = data.build_dataset(cfg.dataset)
    index = data.build_filter_index(triples, vocab)
    train_aug = data.augment_reciprocal(triples.train, vocab)
    return vocab, triples, index, train_aug


def _digest(cfg, vocab):
    from .checkpoint import config_digest

    return config_digest(cfg.model, cfg.k, cfg.ablation,
                         vocab.n_entities, vocab.n_relations)


def _evaluate(split, store, index, vocab, out_dir):
    """Rank `split` and write metrics.csv and per_relation.csv to out_dir."""
    from . import ranking

    metrics = ranking.evaluate(split, store, index)
    os.makedirs(out_dir, exist_ok=True)
    metrics.to_csv(os.path.join(out_dir, "metrics.csv"))
    ranking.per_relation_csv(metrics, os.path.join(out_dir, "per_relation.csv"), vocab)
    return metrics


def run_training(cfg, out_dir=None, resume=None):
    """Shared train pipeline; returns (store, report, metrics)."""
    from . import checkpoint as ckpt
    from . import model, train

    out_dir = out_dir or cfg.out
    vocab, triples, index, train_aug = _prepare(cfg)
    digest = _digest(cfg, vocab)
    start_epoch, opt_state = 0, None
    if resume:
        loaded = ckpt.load_checkpoint(resume)
        loaded.verify_digest(digest)
        store, opt_state, start_epoch = loaded.store, loaded.opt_state, loaded.epoch
    else:
        store = model.init_model(cfg.model, cfg.k, vocab.n_entities, vocab.n_relations,
                                 seed=cfg.seed, ablation=cfg.ablation)
    report, opt_state = train.fit(store, train_aug, _fit_config(cfg),
                                  valid_triples=triples.valid, filter_index=index,
                                  opt_state=opt_state, start_epoch=start_epoch)
    os.makedirs(out_dir, exist_ok=True)
    final_epoch = report.epochs[-1].epoch + 1 if report.epochs else start_epoch
    ckpt.save_checkpoint(os.path.join(out_dir, "checkpoint.mkge"), store,
                         opt_state=opt_state, epoch=final_epoch, digest=digest)
    with open(os.path.join(out_dir, "resolved_config.cfg"), "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())
    report.to_csv(os.path.join(out_dir, "train_report.csv"))
    return store, report, _evaluate(triples.test, store, index, vocab, out_dir)


def cmd_train(args):
    cfg = resolve_config(args)
    _, _, metrics = run_training(cfg, resume=getattr(args, "resume", None))
    print(metrics.format_table())
    return 0


def cmd_eval(args):
    from . import checkpoint as ckpt

    cfg = resolve_config(args)
    vocab, triples, index, _ = _prepare(cfg)
    loaded = ckpt.load_checkpoint(args.checkpoint)
    store = loaded.store
    loaded.verify_digest(_digest(replace(cfg, model=store.variant.name, k=store.k,
                                         ablation=store.ablation), vocab))
    metrics = _evaluate(triples.splits()[args.split], store, index, vocab, cfg.out)
    print(metrics.format_table())
    return 0


def cmd_ablate(args):
    from .model import ABLATION_MODES

    cfg = resolve_config(args)
    rows = []
    for mode in ABLATION_MODES:
        mode_cfg = replace(cfg, ablation=mode)
        out_dir = os.path.join(cfg.out, mode)
        _, _, metrics = run_training(mode_cfg, out_dir=out_dir)
        rows.append((mode, metrics))
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "ablation.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mode,mrr,hits1,hits3,hits10\n")
        for mode, m in rows:
            fh.write(f"{mode},{m.mrr:.6f},{m.hits1:.6f},{m.hits3:.6f},{m.hits10:.6f}\n")
    for mode, m in rows:
        print(f"{mode:<7} mrr={m.mrr:.4f} h@1={m.hits1:.4f}")
    return 0


def cmd_sweep(args):
    cfg = resolve_config(args)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,mrr,hits1,hits3,hits10,seconds\n")
        for k in args.k_list:
            t0 = time.perf_counter()
            k_cfg = replace(cfg, k=k)
            _, _, metrics = run_training(k_cfg, out_dir=os.path.join(cfg.out, f"k{k}"))
            seconds = time.perf_counter() - t0
            fh.write(f"{k},{metrics.mrr:.6f},{metrics.hits1:.6f},{metrics.hits3:.6f},"
                     f"{metrics.hits10:.6f},{seconds:.3f}\n")
            print(f"k={k} mrr={metrics.mrr:.4f} ({seconds:.1f}s)")
    return 0


_HELP = {"dataset": "directory with train.txt/valid.txt/test.txt", "out": "output directory"}


def _add_common_flags(parser):
    """One flag per ExperimentConfig field, `--lambda` for lam; values are
    checked by ExperimentConfig.validate, as those of config files are."""
    for f in fields(ExperimentConfig):
        flag = "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, type=_CASTS[f.type], help=_HELP.get(f.name))
    parser.add_argument("--preset", choices=sorted(PRESETS))
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
    _add_common_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="train scalar/vector/both with one seed")
    _add_common_flags(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_sweep = sub.add_parser("sweep", help="train and evaluate for several k")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--k-list", dest="k_list", type=int, nargs="+", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _apply_thread_cap():
    cap = thread_cap()
    if cap is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(cap))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_cap()  # before a layer module loads numpy and its BLAS threads
        return args.func(args)
    except (MkgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
