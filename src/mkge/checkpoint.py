"""Binary checkpoint files, little-endian and bit-exact on a round trip.

Format v1 is `_PREFIX`, the UTF-8 variant name, `_HEADER`, then `_layout`'s
float64 tables in row order: the entity and relation tables and, with Adagrad
state, its lr as a 1x1 table and the entity and relation accumulators. An
ablation's tables hold only its free parameters (`model.ablated`)."""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import model, train
from .errors import BadMagic, DigestMismatch, MissingFile, ShapeMismatch, VersionUnsupported

MAGIC = b"MKGE"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sII")  # magic, format version, variant-name length
# k, ablation code, entity and relation counts, config digest, epoch, Adagrad flag (0 or 1)
_HEADER = struct.Struct("<IIQQ32sQB")


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


def _layout(variant, k, n_ent, n_rel, has_opt):
    """The (rows, cols, name) of each v1 table, in file order."""
    ew, rw = variant.entity_row_width(k), variant.relation_row_width(k)
    shapes = [(n_ent, ew, "entity table"), (n_rel, rw, "relation table")]
    if has_opt:
        shapes += [(1, 1, "lr"), (n_ent, ew, "entity accumulators"),
                   (n_rel, rw, "relation accumulators")]
    return shapes


def save_checkpoint(path, store, opt_state=None, epoch=0, digest=b"\x00" * 32):
    if len(digest) != 32:
        raise ValueError(f"checkpoint digest must be 32 bytes, got {len(digest)}")
    name = store.variant.name.encode()
    header = (_PREFIX.pack(MAGIC, FORMAT_VERSION, len(name)) + name
              + _HEADER.pack(store.k, model.ABLATION_MODES.index(store.ablation),
                             store.n_entities, store.n_relations, digest, epoch,
                             opt_state is not None))
    tables = [store.entity, store.relation]
    if opt_state is not None:
        tables += [np.full((1, 1), opt_state.lr), opt_state.acc_entity, opt_state.acc_relation]
    for table, (rows, cols, what) in zip(tables, _layout(
            store.variant, store.k, store.n_entities, store.n_relations, opt_state is not None)):
        if table.shape != (rows, cols):  # the reader would reject the file
            raise ShapeMismatch(f"checkpoint {what} is {table.shape}, not {(rows, cols)}")
    tmp = f"{path}.tmp"  # renamed over path once complete, so a failed save keeps the old file
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for table in tables:
                fh.write(_table_bytes(table))
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
        magic, version, name_len = _PREFIX.unpack(_read_exact(fh, _PREFIX.size, "header"))
        if magic != MAGIC:
            raise BadMagic("not a MKGE checkpoint")
        if version != FORMAT_VERSION:
            raise VersionUnsupported(f"checkpoint format version {version}")
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
        k, ablation_code, n_ent, n_rel, digest, epoch, has_opt = _HEADER.unpack(
            _read_exact(fh, _HEADER.size, "header"))
        if k < 1:
            raise BadMagic(f"checkpoint header declares k = {k}; k must be >= 1")
        if ablation_code >= len(model.ABLATION_MODES):
            raise BadMagic(f"unknown ablation code {ablation_code}")
        if has_opt not in (0, 1):
            raise BadMagic(f"checkpoint optimizer-state flag is {has_opt}; it must be 0 or 1")
        ablation = model.ABLATION_MODES[ablation_code]
        variant = model.ablated(model.VARIANTS[name], ablation)
        shapes = _layout(variant, k, n_ent, n_rel, has_opt)
        # check the declared payload against the file before allocating it
        payload = 8 * sum(rows * cols for rows, cols, _ in shapes)
        remaining = size - fh.tell()
        if payload != remaining:
            raise BadMagic(f"checkpoint header declares {payload} payload bytes, "
                           f"the file holds {remaining}")
        tables = []
        for rows, cols, what in shapes:
            table = np.empty((rows, cols), dtype="<f8")  # filled in place, no byte copy
            if fh.readinto(_table_bytes(table)) != table.nbytes:
                raise BadMagic(f"truncated checkpoint while reading {what}")
            tables.append(table)
    store = model.ParameterStore(variant, k, tables[0], tables[1], ablation)
    opt_state = None
    if has_opt:
        lr, acc_entity, acc_relation = tables[2:]
        opt_state = train.OptimizerState(acc_entity, acc_relation, float(lr[0, 0]))
    return Checkpoint(store, opt_state, epoch, digest)
