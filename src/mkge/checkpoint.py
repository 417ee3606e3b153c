"""Binary checkpoint files: little-endian, magic "MKGE", versioned header,
then the parameter tables (and optionally Adagrad state) as float64 in index
order. An ablation's tables hold only its free parameters (`model.ablated`).
Round trips are bit-exact."""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import model, train
from .errors import BadMagic, DigestMismatch, MissingFile, VersionUnsupported

MAGIC = b"MKGE"
FORMAT_VERSION = 1


def config_digest(variant_name, k, ablation, n_entities, n_relations):
    """Digest binding a checkpoint to its model shape and dataset sizes."""
    text = f"{variant_name},{k},{ablation},{n_entities},{n_relations}"
    return hashlib.sha256(text.encode()).digest()


@dataclass
class Checkpoint:
    store: model.ParameterStore
    opt_state: train.OptimizerState | None
    epoch: int
    digest: bytes

    def verify_digest(self, expected):
        if self.digest != expected:
            raise DigestMismatch("checkpoint does not match the current config/dataset")


def _table_bytes(table):
    """A table as 1-D little-endian float64 bytes whose len() counts bytes:
    a view, with no copy, of a table already C-contiguous in that layout."""
    return np.ascontiguousarray(table, dtype="<f8").reshape(-1).view(np.uint8)


def save_checkpoint(path, store, opt_state=None, epoch=0, digest=b"\x00" * 32):
    variant = store.variant
    name = variant.name.encode()
    tmp = f"{path}.tmp"  # renamed over path once complete, so a failed save keeps the old file
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<IIQQ", store.k, model.ABLATION_MODES.index(store.ablation),
                                 store.n_entities, store.n_relations))
            fh.write(digest)
            fh.write(struct.pack("<Q", epoch))
            fh.write(struct.pack("<B", 1 if opt_state is not None else 0))
            fh.write(_table_bytes(store.entity))
            fh.write(_table_bytes(store.relation))
            if opt_state is not None:
                fh.write(struct.pack("<d", opt_state.lr))
                fh.write(_table_bytes(opt_state.acc_entity))
                fh.write(_table_bytes(opt_state.acc_relation))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the save failed before the rename
            os.remove(tmp)


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise BadMagic(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path):
    try:
        fh = open(path, "rb")
    except OSError as exc:  # missing, a directory, unreadable
        raise MissingFile(str(exc)) from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise BadMagic("not a MKGE checkpoint")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != FORMAT_VERSION:
            raise VersionUnsupported(f"checkpoint format version {version}")
        (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "variant"))
        if name_len > size - fh.tell():  # checked before the read allocates it
            raise BadMagic(f"checkpoint header declares a {name_len}-byte variant name, "
                           f"the file holds {size - fh.tell()} more bytes")
        raw_name = _read_exact(fh, name_len, "variant")
        try:
            name = raw_name.decode()
        except UnicodeDecodeError:
            raise BadMagic(f"variant name {raw_name[:32]!r} is not UTF-8") from None
        if name not in model.VARIANTS:
            raise BadMagic(f"unknown model variant {name!r}")
        k, ablation_code, n_ent, n_rel = struct.unpack("<IIQQ", _read_exact(fh, 24, "shape"))
        if k < 1:
            raise BadMagic(f"checkpoint header declares k = {k}; k must be >= 1")
        if ablation_code >= len(model.ABLATION_MODES):
            raise BadMagic(f"unknown ablation code {ablation_code}")
        digest = _read_exact(fh, 32, "digest")
        (epoch,) = struct.unpack("<Q", _read_exact(fh, 8, "epoch"))
        (has_opt,) = struct.unpack("<B", _read_exact(fh, 1, "flags"))
        if has_opt not in (0, 1):
            raise BadMagic(f"checkpoint optimizer-state flag is {has_opt}; it must be 0 or 1")
        ablation = model.ABLATION_MODES[ablation_code]
        variant = model.ablated(model.VARIANTS[name], ablation)
        ew, rw = variant.entity_row_width(k), variant.relation_row_width(k)
        # check the declared payload against the file before allocating it
        table_bytes = (n_ent * ew + n_rel * rw) * 8
        payload = table_bytes + (8 + table_bytes if has_opt else 0)
        remaining = size - fh.tell()
        if payload != remaining:
            raise BadMagic(f"checkpoint header declares {payload} payload bytes, "
                           f"the file holds {remaining}")

        def read_table(rows, cols, what):
            table = np.empty((rows, cols), dtype="<f8")  # filled in place, no byte copy
            if fh.readinto(_table_bytes(table)) != table.nbytes:
                raise BadMagic(f"truncated checkpoint while reading {what}")
            return table

        entity = read_table(n_ent, ew, "entity table")
        relation = read_table(n_rel, rw, "relation table")
        store = model.ParameterStore(variant, k, entity, relation, ablation)
        opt_state = None
        if has_opt:
            (lr,) = struct.unpack("<d", _read_exact(fh, 8, "lr"))
            opt_state = train.OptimizerState(
                acc_entity=read_table(n_ent, ew, "entity accumulators"),
                acc_relation=read_table(n_rel, rw, "relation accumulators"),
                lr=lr,
            )
    return Checkpoint(store, opt_state, epoch, digest)
