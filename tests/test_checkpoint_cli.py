import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from mkge import checkpoint as ckpt
from mkge import cli, data, model, train
from mkge.errors import BadMagic, DigestMismatch, VersionUnsupported


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("kg") / "toy"
    vocab, store = data.generate_synthetic_kg(
        seed=0, n_entities=20, relation_spec=data.SyntheticSpec(30, 20, 30)
    )
    data.write_dataset(directory, vocab, store)
    return str(directory)


def small_args(toy_dataset, out, extra=()):
    return ["--dataset", toy_dataset, "--model", "rc", "--k", "2", "--epochs", "2",
            "--batch-size", "32", "--seed", "1", "--lambda", "0.01", "--out", out, *extra]


class TestCheckpoint:
    def make_store(self):
        store = model.init_model("module_hh", 3, 5, 4, seed=8)
        state = train.OptimizerState.for_store(store, lr=0.05)
        state.acc_entity += 0.25
        return store, state

    def test_bit_exact_round_trip(self, tmp_path):
        store, state = self.make_store()
        digest = ckpt.config_digest("module_hh", 3, "both", 5, 4)
        path = tmp_path / "a.mkge"
        ckpt.save_checkpoint(path, store, opt_state=state, epoch=7, digest=digest)
        loaded = ckpt.load_checkpoint(path)
        assert loaded.epoch == 7
        assert np.array_equal(loaded.store.entity, store.entity)
        assert np.array_equal(loaded.store.relation, store.relation)
        assert np.array_equal(loaded.opt_state.acc_entity, state.acc_entity)
        assert loaded.opt_state.lr == state.lr
        path2 = tmp_path / "b.mkge"
        ckpt.save_checkpoint(path2, loaded.store, opt_state=loaded.opt_state,
                             epoch=loaded.epoch, digest=loaded.digest)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file(self, tmp_path):
        store, state = self.make_store()
        path = tmp_path / "c.mkge"
        ckpt.save_checkpoint(path, store, opt_state=state)
        blob = path.read_bytes()
        for cut in (0, 2, 10, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(BadMagic):
                ckpt.load_checkpoint(path)

    @pytest.mark.parametrize("forgery", ["ablation_code", "n_entities", "variant_name",
                                         "trailing_byte"])
    def test_forged_header(self, forgery, toy_dataset, tmp_path):
        store, state = self.make_store()
        path = tmp_path / "g.mkge"
        ckpt.save_checkpoint(path, store, opt_state=state)
        blob = path.read_bytes()
        shape_at = 12 + len(b"module_hh")  # magic, version, name length, name
        blob = {
            "ablation_code": blob[:shape_at + 4] + struct.pack("<I", 7) + blob[shape_at + 8:],
            "n_entities": blob[:shape_at + 8] + struct.pack("<Q", 2**62) + blob[shape_at + 16:],
            "variant_name": blob[:12] + b"\xff" * 9 + blob[shape_at:],
            "trailing_byte": blob + b"\x00",
        }[forgery]
        path.write_bytes(blob)
        with pytest.raises(BadMagic):
            ckpt.load_checkpoint(path)
        code = cli.main(["eval", "--dataset", toy_dataset, "--checkpoint", str(path),
                         "--out", str(tmp_path / "eval")])
        assert code == 1

    def test_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "d.mkge"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            ckpt.load_checkpoint(path)
        store, _ = self.make_store()
        path2 = tmp_path / "e.mkge"
        ckpt.save_checkpoint(path2, store)
        blob = bytearray(path2.read_bytes())
        blob[4] = 99
        path2.write_bytes(bytes(blob))
        with pytest.raises(VersionUnsupported):
            ckpt.load_checkpoint(path2)

    def test_digest_mismatch(self, tmp_path):
        store, _ = self.make_store()
        path = tmp_path / "f.mkge"
        ckpt.save_checkpoint(path, store, digest=ckpt.config_digest("module_hh", 3, "both", 5, 4))
        loaded = ckpt.load_checkpoint(path)
        with pytest.raises(DigestMismatch):
            loaded.verify_digest(ckpt.config_digest("module_hh", 3, "both", 6, 4))


class TestConfig:
    def test_round_trip(self):
        cfg = cli.ExperimentConfig(dataset="/d", model="module_rh", k=16, lam=0.03,
                                   schedule="exp", seed=4)
        assert cli.parse_config_text(cfg.to_text()) == cfg

    def test_preset_expansion(self):
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--preset", "wn18rr", "--dataset", "/d"])
        cfg = cli.resolve_config(args)
        assert (cfg.epochs, cfg.batch_size, cfg.k, cfg.p) == (200, 500, 128, 3)
        assert (cfg.lam, cfg.lambda1, cfg.lambda2, cfg.lambda3) == (0.08, 2.0, 0.5, 2.0)
        assert cfg.schedule == "exp" and cfg.model == "module_hh"

    def test_flags_override_preset(self):
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--preset", "wn18rr", "--dataset", "/d",
                                  "--k", "8", "--model", "rc"])
        cfg = cli.resolve_config(args)
        assert cfg.k == 8 and cfg.model == "module_rc"

    def test_validation(self):
        with pytest.raises(ValueError):
            cli.ExperimentConfig(k=0).validate()
        with pytest.raises(ValueError):
            cli.ExperimentConfig(p=4).validate()
        with pytest.raises(ValueError):
            cli.ExperimentConfig(lam=-1.0).validate()


class TestCmdTrain:
    def test_outputs_and_determinism(self, toy_dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(["train", *small_args(toy_dataset, out)]) == 0
            outs.append(out)
        for fname in ("checkpoint.mkge", "train_report.csv", "metrics.csv",
                      "per_relation.csv", "resolved_config.cfg"):
            assert os.path.exists(os.path.join(outs[0], fname))
        with open(os.path.join(outs[0], "metrics.csv"), "rb") as fa, \
                open(os.path.join(outs[1], "metrics.csv"), "rb") as fb:
            assert fa.read() == fb.read()

    def test_resolved_config_reparses(self, toy_dataset, tmp_path):
        out = str(tmp_path / "run")
        cli.main(["train", *small_args(toy_dataset, out)])
        cfg = cli.load_config_file(os.path.join(out, "resolved_config.cfg"))
        assert cfg.model == "module_rc" and cfg.k == 2 and cfg.out == out

    def test_zero_epochs_checkpoints_init(self, toy_dataset, tmp_path):
        out = str(tmp_path / "zero")
        assert cli.main(["train", *small_args(toy_dataset, out, ["--epochs", "0"])]) == 0
        loaded = ckpt.load_checkpoint(os.path.join(out, "checkpoint.mkge"))
        assert loaded.epoch == 0
        with open(os.path.join(out, "train_report.csv")) as fh:
            assert len(fh.read().splitlines()) == 1  # header only

    def test_interrupted_fit_resumes_exactly(self, toy_dataset, tmp_path):
        from mkge import ranking  # noqa: F401  (fit's deferred import path)

        vocab, triples = data.build_dataset(toy_dataset)
        aug = data.augment_reciprocal(triples.train, vocab)
        cfg = train.FitConfig(epochs=4, batch_size=32, schedule="exp", seed=3,
                              loss=train.LossConfig(p=2, lam=0.01))

        full = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=1)
        full_report, _ = train.fit(full, aug, cfg)

        part = model.init_model("module_rc", 2, vocab.n_entities, vocab.n_relations, seed=1)
        _, opt = train.fit(part, aug, cfg, stop_epoch=2)
        path = tmp_path / "mid.mkge"
        ckpt.save_checkpoint(path, part, opt_state=opt, epoch=2)
        loaded = ckpt.load_checkpoint(path)
        resumed_report, _ = train.fit(loaded.store, aug, cfg, opt_state=loaded.opt_state,
                                      start_epoch=loaded.epoch)
        assert np.array_equal(loaded.store.entity, full.entity)
        assert np.array_equal(loaded.store.relation, full.relation)
        tail = [(r.epoch, r.loss, r.lr) for r in full_report.epochs[2:]]
        assert [(r.epoch, r.loss, r.lr) for r in resumed_report.epochs] == tail

    def test_cli_resume_continues_schedule(self, toy_dataset, tmp_path):
        full_out = str(tmp_path / "full")
        cli.main(["train", *small_args(toy_dataset, full_out, ["--epochs", "4"])])
        part_out = str(tmp_path / "part")
        cli.main(["train", *small_args(toy_dataset, part_out, ["--epochs", "2"])])
        resumed_out = str(tmp_path / "resumed")
        cli.main(["train", *small_args(toy_dataset, resumed_out,
                                       ["--epochs", "4", "--resume",
                                        os.path.join(part_out, "checkpoint.mkge")])])
        full = ckpt.load_checkpoint(os.path.join(full_out, "checkpoint.mkge"))
        resumed = ckpt.load_checkpoint(os.path.join(resumed_out, "checkpoint.mkge"))
        assert resumed.epoch == 4 and full.epoch == 4
        # constant schedule: the two-epoch prefix coincides, so resumption
        # must land on the identical parameters
        assert np.array_equal(resumed.store.entity, full.store.entity)
        assert np.array_equal(resumed.store.relation, full.store.relation)

    def test_missing_dataset_errors(self, tmp_path):
        code = cli.main(["train", "--dataset", str(tmp_path / "nope"), "--out",
                         str(tmp_path / "o")])
        assert code == 1


class TestCmdEval:
    def test_eval_checkpoint(self, toy_dataset, tmp_path):
        out = str(tmp_path / "trained")
        cli.main(["train", *small_args(toy_dataset, out)])
        eval_out = str(tmp_path / "evaluated")
        code = cli.main(["eval", "--dataset", toy_dataset, "--checkpoint",
                         os.path.join(out, "checkpoint.mkge"), "--split", "test",
                         "--out", eval_out])
        assert code == 0
        with open(os.path.join(out, "metrics.csv")) as fa, \
                open(os.path.join(eval_out, "metrics.csv")) as fb:
            assert fa.read() == fb.read()

    def test_eval_twice_identical(self, toy_dataset, tmp_path):
        out = str(tmp_path / "trained2")
        cli.main(["train", *small_args(toy_dataset, out)])
        contents = []
        for name in ("e1", "e2"):
            eval_out = str(tmp_path / name)
            cli.main(["eval", "--dataset", toy_dataset, "--checkpoint",
                      os.path.join(out, "checkpoint.mkge"), "--out", eval_out])
            with open(os.path.join(eval_out, "per_relation.csv"), "rb") as fh:
                contents.append(fh.read())
        assert contents[0] == contents[1]

    def test_digest_mismatch_on_wrong_dataset(self, toy_dataset, tmp_path):
        out = str(tmp_path / "trained3")
        cli.main(["train", *small_args(toy_dataset, out)])
        other = tmp_path / "other_kg"
        vocab, store = data.generate_synthetic_kg(seed=5, n_entities=25)
        data.write_dataset(other, vocab, store)
        code = cli.main(["eval", "--dataset", str(other), "--checkpoint",
                         os.path.join(out, "checkpoint.mkge"), "--out", str(tmp_path / "x")])
        assert code == 1


    def test_empty_split_errors_after_checkpoint(self, toy_dataset, tmp_path, capsys):
        empty = tmp_path / "empty_test"
        vocab, triples = data.build_dataset(toy_dataset)
        data.write_dataset(empty, vocab, replace(triples, test=np.empty((0, 3), np.int64)))
        out = str(tmp_path / "trained_empty")
        assert cli.main(["train", *small_args(str(empty), out)]) == 1
        # training finished and was saved before the final evaluation failed
        assert ckpt.load_checkpoint(os.path.join(out, "checkpoint.mkge")).epoch == 2
        capsys.readouterr()
        code = cli.main(["eval", "--dataset", str(empty), "--checkpoint",
                         os.path.join(out, "checkpoint.mkge"), "--out", str(tmp_path / "e")])
        assert code == 1
        assert "error: split must be a nonempty (n, 3) id array" in capsys.readouterr().err


class TestCmdAblate:
    def test_rows_and_distmult_agreement(self, toy_dataset, tmp_path):
        out = str(tmp_path / "ablate")
        assert cli.main(["ablate", *small_args(toy_dataset, out)]) == 0
        with open(os.path.join(out, "ablation.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "mode,mrr,hits1,hits3,hits10"
        assert [line.split(",")[0] for line in lines[1:]] == ["scalar", "vector", "both"]

        # scalar-only module_rc reproduces a distmult run with the same seed
        dm_out = str(tmp_path / "distmult")
        cli.main(["train", *small_args(toy_dataset, dm_out, ["--model", "distmult"])])
        with open(os.path.join(out, "scalar", "metrics.csv")) as fa, \
                open(os.path.join(dm_out, "metrics.csv")) as fb:
            assert fa.read() == fb.read()


class TestCmdSweep:
    def test_rows_in_requested_order(self, toy_dataset, tmp_path):
        out = str(tmp_path / "sweep")
        assert cli.main(["sweep", *small_args(toy_dataset, out),
                         "--k-list", "3", "2"]) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "k,mrr,hits1,hits3,hits10,seconds"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "2"]
