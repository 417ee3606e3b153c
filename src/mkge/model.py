"""Model variants, parameter storage, the combine/transform pipeline, and
the 1-vs-all score kernels.

A variant is four entries of the group table `GROUPS`: the groups of the
entity scalars, the entity unit vectors, the relation scalings (acting on the
scalars) and the relation rotations (acting on the vectors). Entity scalars
are free ring elements, real (`gl1`, whose ops are those of a free real) or
quaternion (`quaternion`). Every action, and the combination s_i * v_i of an
entity's two parts, is the one ring product `algebra.elem_mul`, whose reverse
mode is `algebra.elem_mul_backward`.

A new group entry must provide its parameter and element widths, the
half-width of its uniform init draw, `materialize` from free parameters to
elements and `param_backward`, which pulls a gradient on elements back to the
parameters given both.

An ablation is a choice of groups (`ablated`): each part it freezes becomes
the one `TRIVIAL` group, which has no parameters and one element, the real
one, so a frozen part holds no columns, no coordinates and no gradient, and
e.g. scalar-only module_rc and module_rh are distmult's groups.

Both parameter tables have one layout: a row holds two column blocks of k
group parameters each, the first group's then the second's (entity rows:
scalars, vectors; relation rows: scalings, rotations). Unit group elements
are stored by their free parameters (a phase angle for U(1), a 3-vector
rotation parameter for unit quaternions) and materialized on use, so
unitarity holds by construction.

Two layouts of element arrays meet here. The ring arithmetic (`combine`,
`head_forward`, each group's `materialize` and `param_backward`) works on
component planes (w, ..., k), the element axis first, as `algebra` does; the
score kernels read element-last arrays (..., k, w), which `planes` and
`element_last` convert from and to. The parameter tables keep their column
blocks, so checkpoints and init draws do not depend on the compute layout.

Entity inputs have one path, `entity_inputs`: it copies the given entity rows
(an id array or a slice) to contiguous parameter planes once and materializes
both parts. The whole-table forward, `combined_embeddings(store)`, runs it per
block of entity rows (`rows_per_block`) on the process's thread pool and keeps
only the combined entities s_e * v_e, in the kernels' layout (E, k, w). The
training backward rebuilds each block's inputs with it, and `head_inputs` adds
the relation factors to the head rows' inputs for `head_forward`. Its ids
pass the query gate `data.as_queries`, which so checks every (head,
relation) pair of `transformed_heads`, `score_all_tails` and training.

Each score kind has one kernel, `variant.kernel(h, c, tails=None)`, over
transformed heads h (B, k, w) and combined entities c (E, k, w). It returns
the scores (B, E), or, given the true tail of each head row, the 1-vs-all
logistic loss and its gradients on h and c. The objective is written once,
in `logistic_terms`: `cosine_kernel` applies it to row blocks of its one
score matmul and sums the terms once, `distance_kernel` applies it to each
chunk of its pass over component planes and sums each chunk's terms. A
distance chunk is sized by the memory its planes take (w planes of
differences and one of distances); in training it turns the differences into
unit directions in place, from which each gradient is one contraction with
the score gradient. Both kernels run their blocks on the process's thread
pool, and neither result depends on the pool size: the cosine kernel's blocks
write disjoint rows, and the distance kernel folds its chunks' losses and head
gradients in chunk order. Neither kernel may be called from a task on that
pool, which would deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import algebra, data, map_blocks
from .errors import ShapeMismatch

# the ModelVariant parts each ablation freezes; its position here is its checkpoint code
FROZEN_PARTS = {"scalar": ("vector", "rotation"), "vector": ("scalar", "scaling"), "both": ()}
ABLATION_MODES = tuple(FROZEN_PARTS)

# elements of one (B, C, k) float64 plane of the distance kernel (~2.4 MB),
# which sets its chunk of C candidates. A running chunk holds w + 1 planes.
# The scores do not depend on it, the loss and the head gradients only by the
# rounding of their chunk sums.
DISTANCE_CHUNK_ELEMENTS = 300_000

# elements of one row block's combined entities (rows, k, w), 0.5 MB of
# float64 (one 128 KB plane per quaternion coordinate at k = 128), which sets
# the rows per block of the entity forward, the entity backward and Adagrad,
# and of one row block of the cosine kernel's scores. It splits work only; no
# result depends on it.
ROW_BLOCK_ELEMENTS = 65_536


def _coordinate_half_width(k):
    """Init half-width of free ring coordinates (real and quaternion scalars, GL(1))."""
    return 0.5 / np.sqrt(k)


@dataclass(frozen=True)
class Group:
    """Ops of one group whose elements act on a module part by `algebra.elem_mul`."""

    param_width: int  # free parameters per dimension
    width: int  # coordinates per element
    half_width: Callable  # k -> half-width of the uniform init draw
    materialize: Callable  # param planes (param_width, ..., k) -> element planes (width, ..., k)
    param_backward: Callable  # (params, elements, grad on elements) -> grad on params, as planes


# the trivial group: no parameters and one element, the real one, which
# `algebra.elem_mul` applies on either side as a scalar of any ring
TRIVIAL = Group(0, 1, lambda k: 0.0, lambda p: np.ones((1,) + p.shape[1:]),
                lambda p, z, g: np.zeros_like(p))

# The algebra calls go through the module so that wrappers installed on it
# (the benchmark's tracer) see them.
GROUPS = {
    "fixed": TRIVIAL,
    "gl1": Group(1, 1, _coordinate_half_width, lambda p: p, lambda p, z, g: g),
    "quaternion": Group(4, 4, _coordinate_half_width, lambda p: p, lambda p, z, g: g),
    "u1": Group(1, 2, lambda k: np.pi,
                lambda p: algebra.angle_to_complex(p[0]),
                lambda p, z, g: algebra.angle_backward(z, g)[None]),
    "unit_quaternion": Group(3, 4, lambda k: np.pi,
                             lambda p: algebra.exp_map(p),
                             lambda p, z, g: algebra.exp_map_backward(p, z, g)),
}


@dataclass(frozen=True)
class ModelVariant:
    name: str
    scalar: Group  # entity scalars
    vector: Group  # entity unit vectors
    scaling: Group  # relation action on the scalars
    rotation: Group  # relation action on the vectors
    score_kind: str  # 'cosine' | 'distance'

    @property
    def kernel(self):
        return SCORE_KERNELS[self.score_kind]

    @property
    def width(self):
        """Coordinates per element of the combined entities and transformed heads."""
        return max(self.scalar.width, self.vector.width)

    def entity_row_width(self, k):
        return k * (self.scalar.param_width + self.vector.param_width)

    def relation_row_width(self, k):
        return k * (self.scaling.param_width + self.rotation.param_width)


VARIANTS = {
    name: ModelVariant(name, *(GROUPS[group] for group in groups), kind)
    for name, *groups, kind in (
        # name, then the groups of the entity scalars, the entity vectors, the
        # relation scalings and the relation rotations, then the score kind
        ("distmult", "gl1", "fixed", "gl1", "fixed", "cosine"),
        ("rotate", "gl1", "u1", "fixed", "u1", "distance"),
        ("module_rc", "gl1", "u1", "gl1", "u1", "cosine"),
        ("module_rh", "gl1", "unit_quaternion", "gl1", "unit_quaternion", "cosine"),
        ("module_hh", "quaternion", "unit_quaternion", "unit_quaternion", "unit_quaternion",
         "cosine"),
    )
}


def ablated(variant, ablation):
    """The variant an `ablation` trains: `variant`, named as before, with the
    trivial group in place of each part it freezes."""
    if ablation not in FROZEN_PARTS:
        raise ValueError(f"unknown ablation mode {ablation!r}")
    return replace(variant, **{part: TRIVIAL for part in FROZEN_PARTS[ablation]})


def _blocks(table, k, first, second):
    """Views (n, k, first.param_width) and (n, k, second.param_width) of the
    two column blocks of a table whose rows hold k parameters of group
    `first`, then k of group `second`."""
    n, split = table.shape[0], k * first.param_width
    return (table[:, :split].reshape(n, k, first.param_width),
            table[:, split:].reshape(n, k, second.param_width))


@dataclass
class ParameterStore:
    variant: ModelVariant
    k: int
    entity: np.ndarray  # (n_entities, entity_row_width)
    relation: np.ndarray  # (n_relations, relation_row_width)
    ablation: str = "both"  # a key of FROZEN_PARTS; `variant` is already ablated

    @property
    def n_entities(self):
        return self.entity.shape[0]

    @property
    def n_relations(self):
        return self.relation.shape[0]

    def entity_parts(self, table=None):
        """Views (E, k, scalar.param_width) and (E, k, vector.param_width) of
        the entity table, or of a table shaped like it."""
        v = self.variant
        table = self.entity if table is None else table
        return _blocks(table, self.k, v.scalar, v.vector)

    def relation_parts(self, table=None):
        """Views (R, k, scaling.param_width) and (R, k, rotation.param_width)
        of the relation table, or of a table shaped like it."""
        v = self.variant
        table = self.relation if table is None else table
        return _blocks(table, self.k, v.scaling, v.rotation)


def _draw_table(rng, n, k, groups):
    """Parameter table of one column block per group, k parameters wide each,
    drawn uniform(-h, h), h the group's half-width; a trivial group draws none."""
    return np.concatenate([
        rng.uniform(-group.half_width(k), group.half_width(k), size=(n, k * group.param_width))
        for group in groups
    ], axis=1)


def init_model(variant, k, n_entities, n_relations, seed, ablation="both"):
    """Seed-deterministic initialization of a store of
    `ablated(VARIANTS[variant], ablation)`, `variant` a model name.

    Free ring coordinates (real and quaternion scalars, GL(1) scalings) are
    drawn uniform(-0.5/sqrt(k), 0.5/sqrt(k)), the parameters of unit groups
    uniform(-pi, pi): each group's half-width. Blocks are drawn in row order,
    entity scalars, entity vectors, relation scalings, relation rotations.
    The trivial groups of frozen parts hold no parameters and consume no
    random draws, so e.g. a scalar-only module_rc store has the tables of a
    distmult store of the same seed.
    """
    data.check_integers(k=k, n_entities=n_entities, n_relations=n_relations, seed=seed)
    if k < 1:
        raise ValueError("k must be >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"unknown model {variant!r}")
    variant = ablated(VARIANTS[variant], ablation)
    rng = np.random.default_rng(seed)
    entity = _draw_table(rng, n_entities, k, (variant.scalar, variant.vector))
    relation = _draw_table(rng, n_relations, k, (variant.scaling, variant.rotation))
    return ParameterStore(variant, k, entity, relation, ablation)


def planes(a):
    """Contiguous component planes (w, ...) of an element-last array (..., w)."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def element_last(x):
    """The contiguous element-last array (..., w) of component planes (w, ...),
    the layout the score kernels read."""
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def materialize_vector(ev, variant):
    """Free vector param planes (vpw, ..., k) -> unit element planes
    (vector.width, ..., k)."""
    return variant.vector.materialize(ev)


def combine(scalar, vector):
    """Element-wise scalar multiplication s_i * v_i of element planes (w, ..., k)
    (Hamilton product when the scalar ring is the quaternions). The operand
    widths select the product; a width-1 operand, a real scalar or the real
    one of a frozen part, scales the other, so the result is `variant.width`
    wide."""
    scalar = np.asarray(scalar, dtype=np.float64)
    vector = np.asarray(vector, dtype=np.float64)
    if scalar.shape[-1] != vector.shape[-1]:
        raise ShapeMismatch("scalar and vector tuples differ in length")
    return algebra.elem_mul(scalar, vector)


def rows_per_block(store):
    """Entity rows per block of the whole-table entity work, so that a block's
    combined entities hold about ROW_BLOCK_ELEMENTS floats."""
    return max(1, ROW_BLOCK_ELEMENTS // (store.k * store.variant.width))


def entity_inputs(store, ids):
    """(params, elems): the scalar and vector parameter planes (w, n, k) of the
    entity rows `ids` (an id array or a slice) and their elements,
    `scalar.materialize` and `materialize_vector` of those planes. The ids are
    not checked here."""
    variant = store.variant
    scalar, vector = (planes(part[ids]) for part in store.entity_parts())
    return (scalar, vector), (variant.scalar.materialize(scalar),
                              materialize_vector(vector, variant))


def combined_embeddings(store):
    """Combined tuples s_e * v_e of the whole entity table, in the kernels'
    layout (E, k, w). The table is built from `entity_inputs` per row block
    on the process's thread pool, so it must not be called from a task on
    that pool; its bytes do not depend on the pool size or the block size."""
    c_all = np.empty((store.n_entities, store.k, store.variant.width))

    def forward(rows):
        c_all[rows] = np.moveaxis(combine(*entity_inputs(store, rows)[1]), 0, -1)

    for _ in map_blocks(forward, store.n_entities, rows_per_block(store)):
        pass
    return c_all


def head_forward(s_h, v_h, g_s, g_v):
    """Head transform of element planes with its intermediates:
    (s_h * g_s, v_h * g_v, h') where h' combines the two."""
    s2, v2 = algebra.elem_mul(s_h, g_s), algebra.elem_mul(v_h, g_v)
    return s2, v2, algebra.elem_mul(s2, v2)


def head_inputs(store, h_ids, r_ids):
    """(params, elems): parameters and elements, as planes (w, B, k), of the
    head transform's four factors for id arrays: head scalars, head unit
    vectors (`entity_inputs`), relation scalings, relation rotations. The ids
    pass `data.as_queries`: a head id outside [0, E) or a relation id outside
    [0, R) raises IndexError, and arrays that are not integer ids of at most
    one axis, or are of two shapes, ShapeMismatch."""
    h_ids, r_ids = data.as_queries(h_ids, r_ids, store.n_entities, store.n_relations)
    variant = store.variant
    params, elems = entity_inputs(store, h_ids)
    scaling, rotation = (planes(part[r_ids]) for part in store.relation_parts())
    return (params + (scaling, rotation),
            elems + (variant.scaling.materialize(scaling), variant.rotation.materialize(rotation)))


def transformed_heads(store, h_ids, r_ids):
    """Transformed head embeddings T_s(s_h) * T_v(v_h) for id arrays, in the
    kernels' layout (B, k, variant.width): a frozen part, the trivial group,
    adds no coordinate. The ids are checked as in `head_inputs`."""
    return element_last(head_forward(*head_inputs(store, h_ids, r_ids)[1])[2])


def _sigmoid_of(x, e):
    """The logistic function 1 / (1 + exp(-x)) given e = exp(-|x|), which
    cannot overflow: 1 / (1 + e) for x >= 0 and e / (1 + e) below."""
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def logistic_terms(x, pos, b):
    """Elementwise 1-vs-all logistic objective of a block of scores x (rows,
    candidates).

    Every candidate contributes log(1 + exp(-y * score)) with y = +1 at the
    true tails, indexed by `pos`, and y = -1 elsewhere. x is overwritten with
    those terms; the return value is d (term / b) / d score. One exp per
    score serves both: with e = exp(-|x|), the term is max(x, 0) + log1p(e).
    """
    x[pos] = -x[pos]
    e = np.exp(-np.abs(x))
    d_s = _sigmoid_of(x, e) / b  # -y * sigmoid(x) / b
    d_s[pos] = -d_s[pos]
    np.maximum(x, 0.0, out=x)
    x += np.log1p(e, out=e)
    return d_s


def cosine_kernel(h, c, tails=None):
    """Inner-product scores of heads h (B, k, w) against every entity
    c (E, k, w): one matmul to the scores (B, E). Given the true tail id of
    each head row it returns instead (loss, grad_h, grad_c), the summed
    logistic loss and the gradients of loss / B, by two more matmuls.

    The objective runs between the matmuls, per block of score rows (about
    ROW_BLOCK_ELEMENTS scores each) on the process's thread pool: a block
    turns its scores into loss terms in place and writes its rows of the
    score gradient. The loss is one sum over all terms, so no result depends
    on the pool size or the block size. The caller waits on the pool, so the
    kernel must not be called from a task on that pool.
    """
    b, k, w = h.shape
    h_flat, c_flat = h.reshape(b, k * w), c.reshape(-1, k * w)
    scores = h_flat @ c_flat.T
    if tails is None:
        return scores
    d_s = np.empty_like(scores)

    def objective(rows):
        block = scores[rows]
        d_s[rows] = logistic_terms(block, (np.arange(len(block)), tails[rows]), b)

    for _ in map_blocks(objective, b, max(1, ROW_BLOCK_ELEMENTS // scores.shape[1])):
        pass
    loss = float(np.sum(scores))
    del scores  # free the (B, E) loss terms before the gradient matmuls
    return loss, (d_s @ c_flat).reshape(h.shape), (d_s.T @ h_flat).reshape(c.shape)


def distance_kernel(h, c, tails=None):
    """Distance scores of heads h (B, k, w) against every entity c (E, k, w),
    walked in chunks of candidates over component planes (w, B, k), (w, E, k).

    The score of (b, e) is -sum_i |h_bi - c_ei|, the Euclidean distance of
    each dimension's w coordinates. Without `tails` the kernel returns the
    scores (B, E). Given the true tail id in [0, E) of each head row it
    returns instead (loss, grad_h, grad_c): the 1-vs-all logistic loss
    summed over rows and candidates, and the gradients of loss / B shaped
    like h and c. A dimension at distance 0 contributes a zero subgradient.

    Chunks hold C = DISTANCE_CHUNK_ELEMENTS // (B * k) candidates. The
    budget is set by memory, not by cache: a running chunk holds w planes of
    differences d and one of distances, each (B, C, k), and fewer, larger
    chunks spend less of the kernel on per-call overhead. The differences and
    distances of a chunk serve the scores, the loss and the gradients. In
    training the chunk then divides d by the distances in place, giving unit
    directions u_j = d_j / dist, and each gradient is one contraction of the
    score gradient with u: sum_b d_s u_j for the candidates and
    -sum_e d_s u_j for the heads. Where a distance is 0 (or its square
    underflows to 0), the chunk divides by an infinite distance instead, so u
    is 0 there, the zero subgradient. No (B, E, k) array and, in training, no
    (B, E) array is built.

    The chunks run as blocks of `mkge.map_blocks` on the process's thread
    pool. A chunk writes only its own columns of the scores or its own rows of
    grad_c. Its loss and its head-gradient terms are returned instead, and
    the caller folds them in chunk order, the order of a serial loop, so the
    results are bit-identical for any pool size. The caller waits on the
    pool, so the kernel must not be called from a task on that pool: with
    every worker waiting, nothing would run the chunks.
    """
    h, c = planes(h), planes(c)
    w, b, k = h.shape
    n = c.shape[1]
    if tails is None:
        scores = np.empty((b, n))
    else:
        grad_c = np.empty_like(c)

    def run_chunk(cols):
        d = h[:, :, None, :] - c[:, None, cols, :]  # (w, B, C, k)
        # squared distances, coordinates added in order as `algebra.field_norm`
        # adds them; the later coordinates are squared in place, so the sum
        # takes no plane beyond its own
        dist = d[0] * d[0]
        for j in range(1, w):
            dist += np.multiply(d[j], d[j], out=d[j])
        np.sqrt(dist, out=dist)
        x = -np.sum(dist, axis=-1)  # (B, C) scores
        if tails is None:
            scores[:, cols] = x
            return None
        hit = np.flatnonzero((tails >= cols.start) & (tails < cols.stop))
        d_s = logistic_terms(x, (hit, tails[hit] - cols.start), b)
        # rebuild the differences squared above, then turn d into the unit directions
        # u_j = d_j / dist in place; then
        # d (loss / B) / d h_j = -sum_e d_s u_j and d (loss / B) / d c_j = sum_b d_s u_j.
        # A distance of 0 (d_j 0, or so small that its square underflowed) is
        # made infinite first, so that its u_j is 0, the zero subgradient.
        for j in range(1, w):
            np.subtract(h[j, :, None, :], c[j, None, cols, :], out=d[j])
        dist[dist == 0.0] = np.inf
        np.divide(d, dist, out=d)
        for j in range(w):
            np.einsum("bc,bck->ck", d_s, d[j], out=grad_c[j, cols])
        return float(np.sum(x)), [np.einsum("bc,bck->bk", d_s, d[j]) for j in range(w)]

    # chunk results are folded as they arrive, so at most a few are held
    results = map_blocks(run_chunk, n, max(1, DISTANCE_CHUNK_ELEMENTS // (b * k)))
    if tails is None:
        for _ in results:
            pass
        return scores
    loss, grad_h = 0.0, np.zeros_like(h)
    for chunk_loss, part in results:
        loss += chunk_loss
        for j in range(w):
            grad_h[j] -= part[j]
    return loss, np.moveaxis(grad_h, 0, -1), np.moveaxis(grad_c, 0, -1)


# Resolved through the module globals at call time, so that wrappers installed
# on the module (the benchmark's tracer) see each kernel.
SCORE_KERNELS = {
    "cosine": lambda h, c, tails=None: cosine_kernel(h, c, tails),
    "distance": lambda h, c, tails=None: distance_kernel(h, c, tails),
}


def score_all_tails(store, h_ids, r_ids, tails_combined=None):
    """Scores of (h, r) against every entity: (B, n_entities).

    The transformed head is computed once per (h, r) row and reused across
    candidates; pass a precomputed combined-entity table to amortize it. The
    ids are checked as in `head_inputs`, before the whole-table forward.
    """
    heads = transformed_heads(store, h_ids, r_ids)
    c_all = tails_combined if tails_combined is not None else combined_embeddings(store)
    return store.variant.kernel(heads, c_all)
