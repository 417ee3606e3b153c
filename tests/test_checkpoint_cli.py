import argparse
import errno
import gc
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from mkge import checkpoint as ckpt
from mkge import cli, data, model, ranking, train
from mkge.errors import (BadMagic, DigestMismatch, MissingFile, MkgeError, ParseError,
                         ShapeMismatch, VersionUnsupported)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("kg") / "toy"
    vocab, store = data.generate_synthetic_kg(seed=0, n_entities=20)
    data.write_dataset(directory, vocab, store)
    return str(directory)


def small_args(toy_dataset, out, extra=()):
    return ["--dataset", toy_dataset, "--model", "rc", "--k", "2", "--epochs", "2",
            "--batch-size", "32", "--seed", "1", "--lambda", "0.01", "--out", out, *extra]


def never(*args, **kwargs):
    raise AssertionError("the work started before the failing check")


def v1_file(store, opt_state, epoch, digest):
    """The documented v1 layout written out field by field: magic, version,
    name length, name, k, ablation code, entity and relation counts, digest,
    epoch, Adagrad flag, then the tables as little-endian float64 in row
    order, with Adagrad state its lr and then the two accumulators."""
    name = store.variant.name.encode()
    code = {"scalar": 0, "vector": 1, "both": 2}[store.ablation]
    parts = [b"MKGE", struct.pack("<I", 1), struct.pack("<I", len(name)), name,
             struct.pack("<I", store.k), struct.pack("<I", code),
             struct.pack("<Q", store.entity.shape[0]), struct.pack("<Q", store.relation.shape[0]),
             digest, struct.pack("<Q", epoch), struct.pack("<B", opt_state is not None),
             np.asarray(store.entity, dtype="<f8").tobytes(),
             np.asarray(store.relation, dtype="<f8").tobytes()]
    if opt_state is not None:
        parts += [struct.pack("<d", opt_state.lr),
                  np.asarray(opt_state.acc_entity, dtype="<f8").tobytes(),
                  np.asarray(opt_state.acc_relation, dtype="<f8").tobytes()]
    return b"".join(parts)


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

    def v1_case(self, with_opt):
        """A small module_hh store, its Adagrad state or None, its digest and
        its v1 file at epoch 9."""
        store = model.init_model("module_hh", 2, 3, 2, seed=5)
        state = None
        if with_opt:
            state = train.OptimizerState.for_store(store, lr=0.0375)
            state.acc_entity += np.arange(state.acc_entity.size).reshape(state.acc_entity.shape)
            state.acc_relation += 0.5
        digest = ckpt.config_digest("module_hh", 2, "both", 3, 2)
        return store, state, digest, v1_file(store, state, 9, digest)

    @pytest.mark.parametrize("with_opt", [False, True])
    def test_writes_and_reads_documented_v1_bytes(self, with_opt, tmp_path):
        store, state, digest, blob = self.v1_case(with_opt)
        path = tmp_path / "v1.mkge"
        ckpt.save_checkpoint(path, store, opt_state=state, epoch=9, digest=digest)
        assert path.read_bytes() == blob
        path.write_bytes(blob)
        loaded = ckpt.load_checkpoint(path)
        assert (loaded.epoch, loaded.digest) == (9, digest)
        assert loaded.store.variant == store.variant and loaded.store.ablation == "both"
        assert loaded.store.entity.tobytes() == store.entity.tobytes()
        assert loaded.store.relation.tobytes() == store.relation.tobytes()
        if with_opt:
            assert loaded.opt_state.lr == state.lr
            assert loaded.opt_state.acc_entity.tobytes() == state.acc_entity.tobytes()
            assert loaded.opt_state.acc_relation.tobytes() == state.acc_relation.tobytes()
        else:
            assert loaded.opt_state is None

    @pytest.mark.parametrize("with_opt", [False, True])
    def test_damaged_v1_file_raises_or_loads_declared_shapes(self, with_opt, tmp_path):
        """Each byte of the 86-byte header set to 0x00, to 0xFF and flipped in
        its lowest and its highest bit, and the file cut at every length:
        each load raises an MkgeError or returns the tables its header
        declares, filled from the bytes that follow the header."""
        *_, blob = self.v1_case(with_opt)
        header_len = 12 + len(b"module_hh") + 65
        damaged = [blob[:cut] for cut in range(len(blob))]
        for at in range(header_len):
            for byte in (0x00, 0xFF, blob[at] ^ 0x01, blob[at] ^ 0x80):
                damaged.append(blob[:at] + bytes([byte]) + blob[at + 1:])
        path = tmp_path / "damaged.mkge"
        loads = 0
        for forged in damaged:
            path.write_bytes(forged)
            try:
                loaded = ckpt.load_checkpoint(path)
            except MkgeError:
                continue
            loads += 1
            (name_len,) = struct.unpack_from("<I", forged, 8)
            at = 12 + name_len
            k, code, n_ent, n_rel = struct.unpack_from("<IIQQ", forged, at)
            (has_opt,) = struct.unpack_from("<B", forged, at + 64)
            variant = model.ablated(model.VARIANTS[forged[12:at].decode()],
                                    ("scalar", "vector", "both")[code])
            ew, rw = variant.entity_row_width(k), variant.relation_row_width(k)
            tables = [loaded.store.entity, loaded.store.relation]
            shapes = [(n_ent, ew), (n_rel, rw)]
            if has_opt:
                opt = loaded.opt_state
                tables += [np.array([[opt.lr]]), opt.acc_entity, opt.acc_relation]
                shapes += [(1, 1), (n_ent, ew), (n_rel, rw)]
            else:
                assert loaded.opt_state is None
            assert [t.shape for t in tables] == shapes
            assert b"".join(t.tobytes() for t in tables) == forged[at + 65:]
        assert loads > 0  # the digest and epoch bytes hold any value

    @pytest.mark.parametrize("length", [0, 3, 31, 33])
    def test_digest_of_wrong_length_raises_before_writing(self, length, tmp_path):
        store, state = self.make_store()
        path = tmp_path / "n.mkge"
        with pytest.raises(ValueError, match=f"32 bytes, got {length}"):
            ckpt.save_checkpoint(path, store, opt_state=state, digest=b"\x01" * length)
        assert not path.exists() and not (tmp_path / "n.mkge.tmp").exists()

    @pytest.mark.parametrize("epoch, message", [
        (-1, "epoch must be >= 0, got -1"), (2**64, r"epoch must be < 2\*\*64"),
        (1.5, "epoch must be an integer, got 1.5")])
    def test_epoch_outside_header_field_raises_before_writing(self, epoch, message, tmp_path):
        """An epoch the header's uint64 cannot hold raises ValueError naming
        it, where struct raised struct.error, and no file is written."""
        store, state = self.make_store()
        path = tmp_path / "e.mkge"
        with pytest.raises(ValueError, match=message):
            ckpt.save_checkpoint(path, store, opt_state=state, epoch=epoch)
        assert not path.exists() and not (tmp_path / "e.mkge.tmp").exists()

    def test_largest_epoch_round_trips(self, tmp_path):
        store, _ = self.make_store()
        path = tmp_path / "e.mkge"
        ckpt.save_checkpoint(path, store, epoch=np.uint64(2**64 - 1))
        assert ckpt.load_checkpoint(path).epoch == 2**64 - 1

    @pytest.mark.parametrize("table", ["entity table", "entity accumulators",
                                       "relation accumulators"])
    def test_table_of_other_shape_raises_before_writing(self, table, tmp_path):
        """A table whose shape is not the one the reader derives from the
        header raises ShapeMismatch naming it, before any file is opened;
        such a file was written and then rejected by its own reader."""
        store = model.init_model("module_hh", 3, 10, 4, seed=0)
        state = train.OptimizerState.for_store(store)
        if table == "entity table":  # rows of another width, without Adagrad state
            store, state = replace(store, entity=np.zeros((10, 5))), None
        elif table == "entity accumulators":  # Adagrad state of an 11-entity store
            state.acc_entity = np.zeros((11, store.entity.shape[1]))
        else:
            state.acc_relation = np.zeros((4, 5))
        path = tmp_path / "s.mkge"
        with pytest.raises(ShapeMismatch, match=f"checkpoint {table} is "):
            ckpt.save_checkpoint(path, store, opt_state=state)
        assert not path.exists() and not (tmp_path / "s.mkge.tmp").exists()

    def test_loaded_tables_are_native_and_writable(self, tmp_path):
        store, state = self.make_store()
        path = tmp_path / "w.mkge"
        ckpt.save_checkpoint(path, store, opt_state=state)
        loaded = ckpt.load_checkpoint(path)
        for table in (loaded.store.entity, loaded.store.relation, loaded.opt_state.acc_entity,
                      loaded.opt_state.acc_relation):
            assert table.dtype == np.float64 and table.flags.writeable  # resumed in place

    def test_empty_relation_table_round_trip(self, tmp_path):
        store = model.init_model("module_rc", 2, 3, 0, seed=1)
        path = tmp_path / "z.mkge"
        ckpt.save_checkpoint(path, store, opt_state=train.OptimizerState.for_store(store))
        loaded = ckpt.load_checkpoint(path)
        assert loaded.store.relation.shape == (0, store.relation.shape[1])
        assert np.array_equal(loaded.store.entity, store.entity)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        store, state = self.make_store()
        path = tmp_path / "h.mkge"
        ckpt.save_checkpoint(path, store, opt_state=state, epoch=3)
        before = path.read_bytes()

        class FullDisk:
            """A file that takes `room` bytes, then fails as a full disk does."""

            def __init__(self, fh, room):
                self.fh, self.room = fh, room

            def write(self, buf):
                if len(buf) > self.room:
                    self.fh.write(buf[: self.room])
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                self.room -= len(buf)
                return self.fh.write(buf)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        room = len(before) // 2  # inside the entity table
        monkeypatch.setattr(ckpt, "open", lambda *a, **kw: FullDisk(open(*a, **kw), room),
                            raising=False)
        store.entity += 1.0
        with pytest.raises(OSError):
            ckpt.save_checkpoint(path, store, opt_state=state, epoch=4)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert ckpt.load_checkpoint(path).epoch == 3
        assert sorted(os.listdir(tmp_path)) == ["h.mkge"]

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
                                         "trailing_byte", "name_length", "opt_flag",
                                         "ablation_layout"])
    def test_forged_header(self, forgery, toy_dataset, tmp_path, monkeypatch):
        """A forged header fails with BadMagic, and no read asks for more
        bytes than the file holds (a 4 GiB name length would allocate 4 GiB).
        A full-width file declared "scalar" is the layout of scalar-only
        checkpoints that held their frozen columns; its payload size does not
        match the header."""
        store, state = self.make_store()
        path = tmp_path / "g.mkge"
        ckpt.save_checkpoint(path, store, opt_state=state)
        blob = path.read_bytes()
        shape_at = 12 + len(b"module_hh")  # magic, version, name length, name
        blob = {
            "ablation_code": blob[:shape_at + 4] + struct.pack("<I", 3) + blob[shape_at + 8:],
            "n_entities": blob[:shape_at + 8] + struct.pack("<Q", 2**62) + blob[shape_at + 16:],
            "variant_name": blob[:12] + b"\xff" * 9 + blob[shape_at:],
            "trailing_byte": blob + b"\x00",
            "name_length": blob[:8] + struct.pack("<I", 0xFFFFFFFF) + blob[12:],
            # shape, digest and epoch precede the optimizer-state flag byte
            "opt_flag": blob[:shape_at + 64] + b"\x07" + blob[shape_at + 65:],
            "ablation_layout": blob[:shape_at + 4] + struct.pack("<I", 0) + blob[shape_at + 8:],
        }[forgery]
        path.write_bytes(blob)
        read_exact = ckpt._read_exact
        requests = []

        def spy(fh, n, what):
            requests.append(n)
            return read_exact(fh, n, what)

        monkeypatch.setattr(ckpt, "_read_exact", spy)
        with pytest.raises(BadMagic, match="payload" if forgery == "ablation_layout" else None):
            ckpt.load_checkpoint(path)
        code = cli.main(["eval", "--dataset", toy_dataset, "--checkpoint", str(path),
                         "--out", str(tmp_path / "eval")])
        assert code == 1
        assert requests and max(requests) <= len(blob)

    def test_ablation_codes(self, tmp_path):
        """The header stores an ablation by its position in ABLATION_MODES:
        scalar 0, vector 1, both 2."""
        shape_at = 12 + len(b"module_rc")
        path = tmp_path / "a.mkge"
        for code, ablation in enumerate(("scalar", "vector", "both")):
            store = model.init_model("module_rc", 2, 3, 2, seed=0, ablation=ablation)
            ckpt.save_checkpoint(path, store)
            blob = path.read_bytes()
            assert struct.unpack("<I", blob[shape_at + 4:shape_at + 8]) == (code,)
            loaded = ckpt.load_checkpoint(path).store
            assert loaded.variant == store.variant and loaded.ablation == ablation
            assert loaded.entity.tobytes() == store.entity.tobytes()

    def test_zero_dimension_header(self, toy_dataset, tmp_path, capsys):
        """A k = 0 store saved with the dataset's digest: loading it would
        reach a division by zero in evaluation's row blocks."""
        vocab, _ = data.build_dataset(toy_dataset)
        n_ent, n_rel = vocab.n_entities, vocab.n_relations
        store = model.ParameterStore(model.VARIANTS["module_rc"], 0,
                                     np.empty((n_ent, 0)), np.empty((n_rel, 0)))
        path = tmp_path / "k0.mkge"
        ckpt.save_checkpoint(path, store,
                             digest=ckpt.config_digest("module_rc", 0, "both", n_ent, n_rel))
        with pytest.raises(BadMagic, match="k = 0"):
            ckpt.load_checkpoint(path)
        capsys.readouterr()
        code = cli.main(["eval", "--dataset", toy_dataset, "--checkpoint", str(path),
                         "--out", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfseed=7\nk=16\n")
        cfg = cli.load_config_file(str(path))
        assert (cfg.seed, cfg.k) == (7, 16)

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

    def test_config_file_overrides_preset_and_flags_override_both(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k=4\n")
        parser = cli.build_parser()
        base = ["train", "--preset", "wn18rr", "--dataset", "/d"]
        assert cli.resolve_config(parser.parse_args(base)).k == 128
        cfg = cli.resolve_config(parser.parse_args([*base, "--config", str(path)]))
        assert cfg.k == 4 and cfg.batch_size == 500  # the file's key wins, the preset's rest stays
        cfg = cli.resolve_config(parser.parse_args([*base, "--config", str(path), "--k", "8"]))
        assert cfg.k == 8

    def test_flags_are_the_config_fields(self):
        """Each setting flag of `train` and `grid` is derived from its
        ExperimentConfig field. `eval` takes only the flags it reads, as the
        checkpoint fixes the model. Every value is cast and checked by mkge,
        not argparse, so no flag has a type or lists choices."""
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        settings = {f.name for f in fields(cli.ExperimentConfig)} | {"preset", "config"}
        flags = {"train": settings | {"resume"}, "grid": settings | {"set"},
                 "eval": {"dataset", "checkpoint", "split", "out"}}
        assert set(subparsers.choices) == set(flags)
        for command, names in flags.items():
            actions = {a.dest: a for a in subparsers.choices[command]._actions
                       if a.dest != "help"}
            assert set(actions) == names
            for action in actions.values():
                assert action.type is None and action.choices is None

    def test_fit_defaults_agree(self):
        """The settings' defaults that `ExperimentConfig` takes from the
        trainer's configs build those configs' own defaults."""
        assert cli._fit_config(cli.ExperimentConfig()) == train.FitConfig()

    def test_validation(self):
        """Each bad setting raises its owner's message, with no dataset given:
        `_prepare` checks the dataset, not `validate`."""
        cases = [({"k": 0}, "k must be >= 1"), ({"p": 4}, "norm exponent p must be 2 or 3"),
                 ({"lam": -1.0}, "regularization rates"), ({"model": "nope"}, "unknown model"),
                 ({"ablation": "x"}, "unknown ablation mode"),
                 ({"schedule": "x"}, "unknown schedule")]
        for settings, message in cases:
            with pytest.raises(ValueError, match=message):
                cli.ExperimentConfig(**settings).validate()

    def test_comments_and_blank_lines_skipped(self):
        text = "# a run\n\n  k=3\n   # seed=9\n\t\nseed = 2\n"
        assert cli.parse_config_text(text) == cli.ExperimentConfig(k=3, seed=2)

    def test_line_without_equals(self, tmp_path):
        with pytest.raises(ParseError, match="^config line 2: expected key=value$"):
            cli.parse_config_text("k=3\nseed\n")
        path = tmp_path / "run.cfg"
        path.write_text("k=3\nseed\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: expected key=value$"):
            cli.load_config_file(str(path))


class TestBadInput:
    """Bad command-line input exits 1 with an `error:` line, not a traceback."""

    def run(self, capsys, argv):
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_config_line_without_equals(self, toy_dataset, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("k=3\nseed\n")
        out = tmp_path / "o"
        err = self.run(capsys, ["train", *small_args(toy_dataset, str(out)),
                                "--config", str(path)])
        assert err == f"error: {path}:2: expected key=value\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config(self, kind, toy_dataset, tmp_path, capsys):
        path = tmp_path / "cfg"
        if kind == "directory":
            path.mkdir()
        err = self.run(capsys, ["train", *small_args(toy_dataset, str(tmp_path / "o")),
                                "--config", str(path)])
        assert "config file" in err

    @pytest.mark.parametrize("command,flag", [("train", "--config"), ("grid", "--config"),
                                              ("train", "--resume")],
                             ids=["train_config", "grid_config", "train_resume"])
    def test_empty_path(self, command, flag, toy_dataset, tmp_path, capsys, monkeypatch):
        """An empty config or checkpoint path is read like any other path, so
        it fails with one `error:` line instead of being ignored."""
        monkeypatch.setattr(train, "fit", never)
        own = {"train": [], "grid": ["--set", "seed=0,1"]}[command]
        err = self.run(capsys, [command, *small_args(toy_dataset, str(tmp_path / "o"), [flag, ""]),
                                *own])
        assert len(err.splitlines()) == 1
        assert ("config file" if flag == "--config" else "No such file") in err

    def test_config_value_fails_cast(self, toy_dataset, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("seed=1\nk=abc\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: bad value 'abc' for key 'k'")):
            cli.load_config_file(str(path))
        err = self.run(capsys, ["train", *small_args(toy_dataset, str(tmp_path / "o")),
                                "--config", str(path)])
        assert f"{path}:2:" in err

    def test_checkpoint_is_directory(self, toy_dataset, tmp_path, capsys):
        self.run(capsys, ["eval", "--dataset", toy_dataset, "--checkpoint", str(tmp_path),
                          "--out", str(tmp_path / "e")])
        with pytest.raises(MissingFile):
            ckpt.load_checkpoint(str(tmp_path))

    def test_split_file_is_directory(self, toy_dataset, tmp_path, capsys):
        broken = tmp_path / "kg"
        shutil.copytree(toy_dataset, broken)
        (broken / "train.txt").unlink()
        (broken / "train.txt").mkdir()
        err = self.run(capsys, ["train", *small_args(str(broken), str(tmp_path / "o"))])
        assert "train.txt" in err

    def test_non_utf8_config(self, toy_dataset, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seed=1\n# \xff\n")
        with pytest.raises(ParseError, match=r"bad\.cfg: not valid UTF-8 at byte 9"):
            cli.load_config_file(str(path))
        err = self.run(capsys, ["train", *small_args(toy_dataset, str(tmp_path / "o")),
                                "--config", str(path)])
        assert "bad.cfg" in err

    def test_non_utf8_split(self, toy_dataset, tmp_path, capsys):
        broken = tmp_path / "kg"
        shutil.copytree(toy_dataset, broken)
        split = broken / "train.txt"
        split.write_bytes(b"\xff" + split.read_bytes())
        err = self.run(capsys, ["train", *small_args(str(broken), str(tmp_path / "o"))])
        assert "train.txt:1: not valid UTF-8" in err

    def test_empty_train_split(self, toy_dataset, tmp_path, capsys):
        broken = tmp_path / "kg"
        shutil.copytree(toy_dataset, broken)
        (broken / "train.txt").write_text("")
        out = tmp_path / "o"
        err = self.run(capsys, ["train", *small_args(str(broken), str(out))])
        assert "train split must be a nonempty" in err
        assert not (out / "checkpoint.mkge").exists()

    def test_nonpositive_lr(self, toy_dataset, tmp_path, capsys):
        err = self.run(capsys, ["train", *small_args(toy_dataset, str(tmp_path / "o"),
                                                     ["--lr", "0"])])
        assert "learning rate" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed(self, source, toy_dataset, tmp_path, capsys):
        out = tmp_path / "o"
        argv = small_args(toy_dataset, str(out))
        if source == "config":  # a flag would override the file's seed
            del argv[argv.index("--seed"):argv.index("--seed") + 2]
            path = tmp_path / "seed.cfg"
            path.write_text("seed=-1\n")
            argv += ["--config", str(path)]
        else:
            argv += ["--seed", "-1"]  # the last flag wins
        err = self.run(capsys, ["train", *argv])
        assert "seed must be >= 0, got -1" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--p", "4", "norm exponent p must be 2 or 3"),
        ("--schedule", "x", "unknown schedule 'x'"),
        ("--ablation", "x", "unknown ablation mode 'x'"),
        ("--model", "foo", "unknown model 'foo'"),
    ], ids=["p", "schedule", "ablation", "model"])
    def test_bad_setting_value(self, flag, value, message, toy_dataset, tmp_path, capsys):
        """A flag's value is checked where a config file's is, so a bad one
        ends with one `error:` line and exit 1, not argparse's usage and exit 2."""
        out = tmp_path / "o"
        err = self.run(capsys, ["train", *small_args(toy_dataset, str(out), [flag, value])])
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_unknown_preset(self, command, toy_dataset, tmp_path, capsys, monkeypatch):
        """A preset name is checked like a setting value: one `error:` line
        and exit 1, not argparse's usage and exit 2."""
        monkeypatch.setattr(train, "fit", never)
        out = tmp_path / "o"
        own = {"train": [], "grid": ["--set", "seed=0,1"]}[command]
        for name in ("nope", ""):
            err = self.run(capsys, [command, *small_args(toy_dataset, str(out), ["--preset", name]),
                                    *own])
            assert err == f"error: unknown preset {name!r}\n"
            assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "grid"])
    @pytest.mark.parametrize("flag,value,key", [("--k", "abc", "k"), ("--lr", "x", "lr"),
                                                ("--lambda", "abc", "lam"),
                                                ("--epochs", "1.5", "epochs")],
                             ids=["k", "lr", "lambda", "epochs"])
    def test_flag_value_fails_cast(self, command, flag, value, key, toy_dataset, tmp_path,
                                   capsys, monkeypatch):
        """A flag's value is cast where a config line's is, so one that does
        not parse exits 1 with one `error:` line naming the flag."""
        monkeypatch.setattr(train, "fit", never)
        out = tmp_path / "o"
        own = {"train": [], "grid": ["--set", "seed=0,1"]}[command]
        err = self.run(capsys, [command, *small_args(toy_dataset, str(out), [flag, value]),
                                *own])
        assert err == f"error: {flag}: bad value {value!r} for key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--lambda", "nan"), ("--lambda2", "inf"),
                                            ("--lambda3", "-1")])
    def test_bad_regularization_rate(self, flag, value, toy_dataset, tmp_path, capsys):
        out = tmp_path / "o"
        err = self.run(capsys, ["train", *small_args(toy_dataset, str(out), [flag, value])])
        assert "regularization rates" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "grid"])
    @pytest.mark.parametrize("where", ["under_file", "empty"])
    def test_output_directory_not_creatable(self, command, where, toy_dataset, tmp_path,
                                            capsys, monkeypatch):
        """The output directory is made before training or ranking starts."""
        trained = str(tmp_path / "trained")
        assert cli.main(["train", *small_args(toy_dataset, trained)]) == 0
        monkeypatch.setattr(train, "fit", never)
        monkeypatch.setattr(ranking, "evaluate", never)
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "run") if where == "under_file" else ""
        argv = {"train": small_args(toy_dataset, out),
                "grid": [*small_args(toy_dataset, out), "--set", "k=2,3"],
                "eval": ["--dataset", toy_dataset, "--out", out,
                         "--checkpoint", os.path.join(trained, "checkpoint.mkge")]}[command]
        err = self.run(capsys, [command, *argv])
        assert err.startswith(f"error: cannot create output directory {out!r}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["checkpoint.mkge", "metrics.csv"])
    def test_output_file_is_directory(self, name, toy_dataset, tmp_path, capsys):
        """An output that cannot be written fails in one line naming it, and
        the checkpoint save leaves no temp file; outputs written before it
        stay usable."""
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        err = self.run(capsys, ["train", *small_args(toy_dataset, str(out))])
        assert err.count("\n") == 1 and str(out / name) in err
        assert (out / name).is_dir() and not (out / "checkpoint.mkge.tmp").exists()
        if name == "metrics.csv":
            assert ckpt.load_checkpoint(str(out / "checkpoint.mkge")).epoch == 2

    @pytest.mark.parametrize("sets", [["k=3,0"], ["foo=1"], ["k=2", "k=3"], ["out=x"],
                                      ["seed=0,00"], ["model=hh,module_hh"]],
                             ids=["invalid_value", "unknown_key", "repeated_key", "out_key",
                                  "repeated_seed", "repeated_model"])
    def test_bad_grid(self, sets, toy_dataset, tmp_path, capsys, monkeypatch):
        """Every grid point is checked before the first one trains."""
        monkeypatch.setattr(train, "fit", never)
        out = tmp_path / "grid"
        argv = ["grid", *small_args(toy_dataset, str(out))]
        for item in sets:
            argv += ["--set", item]
        assert self.run(capsys, argv).count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", ["grid.csv", "train_report.csv", "resolved_config.cfg"])
    def test_csv_opened_before_training(self, name, toy_dataset, tmp_path, capsys,
                                        monkeypatch):
        """`grid.csv` is opened before the first point trains, and
        `train_report.csv`, then `resolved_config.cfg`, before the first epoch."""
        monkeypatch.setattr(train, "fit", never)
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        train_argv = ["train", *small_args(toy_dataset, str(out))]
        argv = {"grid.csv": ["grid", *small_args(toy_dataset, str(out)), "--set", "seed=0,1"],
                "train_report.csv": train_argv, "resolved_config.cfg": train_argv}[name]
        err = self.run(capsys, argv)
        assert err.count("\n") == 1 and str(out / name) in err
        # the report, opened first, is all that a settings file that failed leaves
        opened_first = {"resolved_config.cfg": ["train_report.csv"]}.get(name, [])
        assert sorted(os.listdir(out)) == sorted([name, *opened_first])

    @pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
    def test_bad_thread_cap(self, value, toy_dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MKGE_THREADS", value)
        err = self.run(capsys, ["train", *small_args(toy_dataset, str(tmp_path / "o"))])
        assert "MKGE_THREADS" in err


def _run_mkge(argv, threads):
    """`python -m mkge.cli argv` in a fresh interpreter whose BLAS and row-pool
    threads are set by MKGE_THREADS alone (unset when threads is None)."""
    env = {key: value for key, value in os.environ.items() if key not in (
        "MKGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    if threads is not None:
        env["MKGE_THREADS"] = threads
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=300)


class TestThreadCap:
    def test_import_caps_blas_threads(self):
        """`import mkge` loads no numpy and sets the BLAS thread variables to
        MKGE_THREADS, so a matmul after `import mkge.cli` runs on one thread."""
        code = ("import os, sys, mkge; print('numpy' in sys.modules, *(os.environ[var] for var "
                "in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))")
        proc = _run_mkge(["-c", code], "1")
        assert proc.returncode == 0 and proc.stdout.split() == ["False", "1", "1", "1"], (
            proc.stderr)
        if os.path.isdir("/proc/self/task"):  # where the process's threads can be counted
            code = ("import os, mkge.cli, numpy as np; a = np.ones((600, 600)); a @ a; "
                    "print(len(os.listdir('/proc/self/task')))")
            proc = _run_mkge(["-c", code], "1")
            assert proc.returncode == 0 and proc.stdout.strip() == "1", proc.stderr

    def test_one_thread_trains_byte_identical(self, toy_dataset, tmp_path):
        runs = []
        for threads in (None, "1"):
            out = tmp_path / f"threads{threads}"
            proc = _run_mkge(["-m", "mkge.cli", "train",
                              *small_args(toy_dataset, str(out), ["--epochs", "3"])], threads)
            assert proc.returncode == 0, proc.stderr
            with open(out / "train_report.csv", encoding="utf-8") as fh:
                losses = [line.split(",")[1] for line in fh.read().splitlines()[1:]]
            runs.append(((out / "checkpoint.mkge").read_bytes(), losses))
        assert len(runs[0][1]) == 3
        assert runs[0] == runs[1]


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

    def test_config_file_model_alias(self, toy_dataset, tmp_path):
        """`model=hh` in a config file trains like `--model hh`."""
        path = tmp_path / "hh.cfg"
        path.write_text("model=hh\n")
        runs = []
        for source in ("flag", "config"):
            out = tmp_path / source
            argv = small_args(toy_dataset, str(out))
            del argv[argv.index("--model"):argv.index("--model") + 2]
            argv += ["--model", "hh"] if source == "flag" else ["--config", str(path)]
            assert cli.main(["train", *argv]) == 0
            assert cli.load_config_file(str(out / "resolved_config.cfg")).model == "module_hh"
            runs.append([(out / name).read_bytes() for name in
                         ("checkpoint.mkge", "metrics.csv", "per_relation.csv")])
        assert runs[0] == runs[1]

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

    def test_cli_resume_into_own_out_keeps_report_rows(self, toy_dataset, tmp_path):
        """Resumed into its own --out, a run keeps the report rows of the epochs
        before the resume; resumed into another --out it reports its own only."""
        own, other = str(tmp_path / "own"), str(tmp_path / "other")
        assert cli.main(["train", *small_args(toy_dataset, own)]) == 0
        with open(os.path.join(own, "train_report.csv"), "rb") as fh:
            first = fh.read().splitlines()
        checkpoint = os.path.join(own, "checkpoint.mkge")
        for out in (other, own):  # `own` last: its resume overwrites the checkpoint
            resume = ["--epochs", "4", "--resume", checkpoint]
            assert cli.main(["train", *small_args(toy_dataset, out, resume)]) == 0
        reports = {}
        for out in (own, other):
            with open(os.path.join(out, "train_report.csv"), "rb") as fh:
                reports[out] = fh.read().splitlines()
        assert [row.split(b",")[0] for row in reports[own][1:]] == [b"0", b"1", b"2", b"3"]
        assert reports[own][:3] == first  # header and rows 0-1 byte for byte
        assert [row.split(b",")[0] for row in reports[other][1:]] == [b"2", b"3"]
        assert reports[own][0] == reports[other][0]

    @pytest.mark.parametrize("report", ["cut", "header"])
    def test_cli_resume_into_own_out_with_other_report(self, report, toy_dataset, tmp_path):
        """Resumed into its own --out whose report does not hold exactly the
        epochs before the resume under the same header (`cut`: only epoch 0
        is left; `header`: a column is renamed), a run starts a fresh report
        at the resumed epoch."""
        out = str(tmp_path / "own")
        assert cli.main(["train", *small_args(toy_dataset, out)]) == 0
        path = os.path.join(out, "train_report.csv")
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        header = lines[0]
        lines = lines[:2] if report == "cut" else [header.replace(b"loss", b"cost"), *lines[1:]]
        with open(path, "wb") as fh:
            fh.write(b"".join(line + b"\n" for line in lines))
        resume = ["--epochs", "4", "--resume", os.path.join(out, "checkpoint.mkge")]
        assert cli.main(["train", *small_args(toy_dataset, out, resume)]) == 0
        with open(path, "rb") as fh:
            rows = fh.read().splitlines()
        assert rows[0] == header
        assert [row.split(b",")[0] for row in rows[1:]] == [b"2", b"3"]

    def test_cli_resume_rejects_changed_lr(self, toy_dataset, tmp_path, capsys, monkeypatch):
        part_out = str(tmp_path / "part")
        assert cli.main(["train", *small_args(toy_dataset, part_out, ["--lr", "0.1"])]) == 0
        monkeypatch.setattr(train, "fit", never)
        capsys.readouterr()
        code = cli.main(["train", *small_args(toy_dataset, str(tmp_path / "resumed"),
                                              ["--epochs", "4", "--lr", "0.5", "--resume",
                                               os.path.join(part_out, "checkpoint.mkge")])])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "0.1" in err and "0.5" in err

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

    def test_eval_ranks_without_optimizer_state(self, toy_dataset, tmp_path, monkeypatch):
        """The checkpoint's Adagrad accumulators, as large as the tables, are
        dropped before the ranking starts."""
        out = str(tmp_path / "trained_opt")
        cli.main(["train", *small_args(toy_dataset, out)])
        path = os.path.join(out, "checkpoint.mkge")
        assert ckpt.load_checkpoint(path).opt_state is not None

        def states():
            gc.collect()
            return {id(obj) for obj in gc.get_objects() if isinstance(obj, train.OptimizerState)}

        before, during = states(), []
        evaluate = cli._evaluate

        def checked(*args):
            during.append(states() - before)
            return evaluate(*args)

        monkeypatch.setattr(cli, "_evaluate", checked)
        assert cli.main(["eval", "--dataset", toy_dataset, "--checkpoint", path,
                         "--out", str(tmp_path / "e")]) == 0
        assert during == [set()]

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


    def test_empty_split_errors_after_checkpoint(self, toy_dataset, tmp_path, capsys,
                                                 monkeypatch):
        """An empty split that would be ranked fails in one line naming the
        split and the dataset, before any command makes its output directory,
        before `train` or `grid` trains and before `eval` loads its
        checkpoint; an empty valid split only skips validation."""
        trained = str(tmp_path / "trained")
        assert cli.main(["train", *small_args(toy_dataset, trained)]) == 0
        checkpoint = os.path.join(trained, "checkpoint.mkge")
        vocab, triples = data.build_dataset(toy_dataset)
        no_valid = tmp_path / "no_valid"
        data.write_dataset(no_valid, vocab, replace(triples, valid=np.empty((0, 3), np.int64)))
        assert cli.main(["train", *small_args(str(no_valid), str(tmp_path / "v"),
                                              ["--eval-interval", "1"])]) == 0
        empty = tmp_path / "empty_test"
        data.write_dataset(empty, vocab, replace(triples, test=np.empty((0, 3), np.int64)))
        monkeypatch.setattr(train, "fit", never)
        monkeypatch.setattr(ckpt, "load_checkpoint", never)
        message = f"error: test split of {empty} is empty: nothing to rank\n"
        for command, own in (("train", []), ("grid", ["--set", "seed=0,1"])):
            out = tmp_path / command
            capsys.readouterr()
            assert cli.main([command, *small_args(str(empty), str(out)), *own]) == 1
            assert capsys.readouterr().err == message
            assert not out.exists()
        out = tmp_path / "e"
        code = cli.main(["eval", "--dataset", str(empty), "--checkpoint", checkpoint,
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--model", "rotate"), ("--k", "64"),
                                            ("--preset", "fb15k237"), ("--config", "x.cfg")],
                             ids=["model", "k", "preset", "config"])
    def test_training_flags_rejected(self, flag, value, toy_dataset, tmp_path, capsys,
                                     monkeypatch):
        """`eval` takes no training setting: the checkpoint fixes the model,
        so such a flag is argparse's usage error, before any work."""
        monkeypatch.setattr(ckpt, "load_checkpoint", never)
        monkeypatch.setattr(ranking, "evaluate", never)
        out = tmp_path / "e"
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--dataset", toy_dataset, "--checkpoint", str(tmp_path / "c.mkge"),
                      "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--dataset", "kg", "--split", "nope"], "unknown split 'nope'"),
        ([], "--dataset is required"),
    ], ids=["unknown_split", "no_dataset"])
    def test_bad_split_or_no_dataset(self, argv, message, tmp_path, capsys, monkeypatch):
        """A bad `--split` or a missing `--dataset` exits 1 with one `error:`
        line, before any file is read."""
        monkeypatch.setattr(data, "build_dataset", never)
        monkeypatch.setattr(ckpt, "load_checkpoint", never)
        out = tmp_path / "e"
        capsys.readouterr()
        code = cli.main(["eval", *argv, "--checkpoint", "c.mkge", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def grid_rows(out):
    with open(os.path.join(out, "grid.csv")) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestCmdGrid:
    def test_ablation_rows_and_distmult_agreement(self, toy_dataset, tmp_path):
        out = str(tmp_path / "ablate")
        assert cli.main(["grid", *small_args(toy_dataset, out),
                         "--set", "ablation=scalar,vector,both"]) == 0
        header, rows = grid_rows(out)
        assert header == ["ablation", "valid_mrr", "valid_epoch", "mrr", "hits1", "hits3",
                          "hits10"]
        assert [row[0] for row in rows] == ["scalar", "vector", "both"]

        # scalar-only module_rc reproduces a distmult run with the same seed
        dm_out = str(tmp_path / "distmult")
        cli.main(["train", *small_args(toy_dataset, dm_out, ["--model", "distmult"])])
        with open(os.path.join(out, "ablation=scalar", "metrics.csv")) as fa, \
                open(os.path.join(dm_out, "metrics.csv")) as fb:
            assert fa.read() == fb.read()

    def test_dataset_read_once(self, toy_dataset, tmp_path, monkeypatch):
        """The points of a grid share one read of the dataset and one filter
        index: no point can change the dataset."""
        calls = dict.fromkeys(("build_dataset", "build_filter_index"), 0)
        for name, fn in [(name, getattr(data, name)) for name in calls]:
            def counted(*args, name=name, fn=fn):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(data, name, counted)
        assert cli.main(["grid", *small_args(toy_dataset, str(tmp_path / "g")),
                         "--set", "seed=0,1,2"]) == 0
        assert calls == {"build_dataset": 1, "build_filter_index": 1}

    def test_k_rows_in_requested_order(self, toy_dataset, tmp_path):
        out = str(tmp_path / "sweep")
        assert cli.main(["grid", *small_args(toy_dataset, out), "--set", "k=3,2"]) == 0
        header, rows = grid_rows(out)
        assert header == ["k", "valid_mrr", "valid_epoch", "mrr", "hits1", "hits3", "hits10"]
        assert [row[0] for row in rows] == ["3", "2"]

    def test_points_in_product_order_equal_train_runs(self, toy_dataset, tmp_path):
        out = tmp_path / "grid"
        assert cli.main(["grid", *small_args(toy_dataset, str(out)),
                         "--set", "model=rc,hh", "--set", "seed=0,1"]) == 0
        points = [("module_rc", "0"), ("module_rc", "1"), ("module_hh", "0"),
                  ("module_hh", "1")]
        _, rows = grid_rows(str(out))
        assert [tuple(row[:2]) for row in rows] == points
        assert sorted(os.listdir(out)) == sorted(
            ["grid.csv", *(f"model={name},seed={seed}" for name, seed in points)])
        for (name, seed), row in zip(points, rows):
            trained = tmp_path / f"train-{name}-{seed}"
            assert cli.main(["train", *small_args(toy_dataset, str(trained),
                                                  ["--model", name, "--seed", seed])]) == 0
            for fname in ("checkpoint.mkge", "metrics.csv", "per_relation.csv"):
                point = out / f"model={name},seed={seed}" / fname
                assert point.read_bytes() == (trained / fname).read_bytes()
            assert row[-4:] == (trained / "metrics.csv").read_text().splitlines()[1].split(",")

    def test_failed_point_keeps_finished_rows(self, toy_dataset, tmp_path, capsys,
                                              monkeypatch):
        """Each point's row is on disk as soon as the point finishes: a failure
        in the second point leaves the header and the first point's row."""
        out = tmp_path / "grid"
        fit, seen = train.fit, []

        def fit_once(*args, **kwargs):
            if seen:
                seen.append((out / "grid.csv").read_text())
                raise ValueError("second point failed")
            seen.append(None)
            return fit(*args, **kwargs)

        monkeypatch.setattr(train, "fit", fit_once)
        assert cli.main(["grid", *small_args(toy_dataset, str(out)), "--set", "seed=0,1"]) == 1
        assert capsys.readouterr().err == "error: second point failed\n"
        header, rows = grid_rows(str(out))
        assert header[0] == "seed" and [row[0] for row in rows] == ["0"]
        assert seen[1] == (out / "grid.csv").read_text()

    def test_valid_columns_are_the_best_report_row(self, toy_dataset, tmp_path):
        out = tmp_path / "grid"
        assert cli.main(["grid", *small_args(toy_dataset, str(out),
                                             ["--epochs", "4", "--eval-interval", "1"]),
                         "--set", "seed=0,1,2"]) == 0
        _, rows = grid_rows(str(out))
        assert len(rows) == 3
        for row in rows:
            with open(out / f"seed={row[0]}" / "train_report.csv") as fh:
                records = [line.split(",") for line in fh.read().splitlines()[1:]]
            best = max(records, key=lambda rec: float(rec[3]))  # the first of equal maxima
            assert row[1:3] == [best[3], best[0]]

        # a flat validation curve selects its first epoch
        out = tmp_path / "flat"
        assert cli.main(["grid", *small_args(toy_dataset, str(out), ["--epochs", "3",
                                             "--eval-interval", "1", "--lr", "1e-12"]),
                         "--set", "seed=0"]) == 0
        with open(out / "seed=0" / "train_report.csv") as fh:
            assert len({line.split(",")[3] for line in fh.read().splitlines()[1:]}) == 1
        (row,) = grid_rows(str(out))[1]
        assert row[2] == "0"

        # no validation ran: both columns are empty
        out = tmp_path / "unvalidated"
        assert cli.main(["grid", *small_args(toy_dataset, str(out)), "--set", "seed=0"]) == 0
        (row,) = grid_rows(str(out))[1]
        assert row[:3] == ["0", "", ""]


def after_each_epoch(monkeypatch, hook):
    """Make `train.fit` call `hook(rec)` after the callback it was given has
    seen each epoch's record `rec`."""
    fit = train.fit

    def watched(*args, callback, **kwargs):
        def wrapped(rec, store):
            callback(rec, store)
            hook(rec)

        return fit(*args, callback=wrapped, **kwargs)

    monkeypatch.setattr(train, "fit", watched)


class TestCsvOutputs:
    """Every CSV output: its header row, the format of each column, and
    `train_report.csv` written row by row as the epochs end."""

    def test_headers_and_column_formats(self, toy_dataset, tmp_path):
        out = tmp_path / "grid"
        assert cli.main(["grid", *small_args(toy_dataset, str(out), ["--eval-interval", "2"]),
                         "--set", "seed=0,1"]) == 0
        cells = r"\d\.\d{6},\d\.\d{6},\d\.\d{6},\d\.\d{6}"
        vocab, triples = data.build_dataset(toy_dataset)
        files = {
            "grid.csv": ("seed,valid_mrr,valid_epoch,mrr,hits1,hits3,hits10",
                         rf"[01],(\d\.\d{{6}},\d+|,),{cells}", 2),
            "seed=0/train_report.csv": (
                "epoch,loss,lr,valid_mrr,seconds",
                r"\d+,-?\d+\.\d{10},\d+\.\d{10},(\d\.\d{6})?,\d+\.\d{3}", 2),
            "seed=0/metrics.csv": ("mrr,hits1,hits3,hits10", cells, 1),
            "seed=0/per_relation.csv": ("relation,mrr,count", r"[^,]+,\d\.\d{6},[1-9]\d*",
                                        len(set(triples.test[:, 1].tolist()))),
        }
        for name, (header, row, count) in files.items():
            lines = (out / name).read_text(encoding="utf-8").split("\n")
            assert lines[0] == header and lines[-1] == "", name  # each row ends in a newline
            assert len(lines) == count + 2, name
            for line in lines[1:-1]:
                assert re.fullmatch(row, line), (name, line)
        report = (out / "seed=0/train_report.csv").read_text().splitlines()
        assert [line.split(",")[3] != "" for line in report[1:]] == [False, True]
        relations = [line.split(",")[0] for line in
                     (out / "seed=0/per_relation.csv").read_text().splitlines()[1:]]
        assert set(relations) <= set(vocab.id_to_relation)

    def test_train_report_grows_per_epoch(self, toy_dataset, tmp_path, monkeypatch):
        """While `fit` runs, `train_report.csv` holds one row per finished
        epoch, so a crash keeps the rows of the epochs it finished."""
        out = tmp_path / "o"
        seen = []
        after_each_epoch(monkeypatch, lambda rec: seen.append(
            (out / "train_report.csv").read_text(encoding="utf-8").splitlines()))
        assert cli.main(["train", *small_args(toy_dataset, str(out), ["--epochs", "3"])]) == 0
        final = (out / "train_report.csv").read_text(encoding="utf-8").splitlines()
        assert seen == [final[:2], final[:3], final[:4]]
        assert [line.split(",")[0] for line in final[1:]] == ["0", "1", "2"]

    def test_crash_keeps_finished_epochs(self, toy_dataset, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"

        def crash(rec):
            if rec.epoch == 1:
                raise ValueError("crashed after epoch 1")

        after_each_epoch(monkeypatch, crash)
        assert cli.main(["train", *small_args(toy_dataset, str(out), ["--epochs", "3"])]) == 1
        assert capsys.readouterr().err == "error: crashed after epoch 1\n"
        lines = (out / "train_report.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
        assert sorted(os.listdir(out)) == ["resolved_config.cfg", "train_report.csv"]
