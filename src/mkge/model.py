"""Model variants, parameter storage, the combine/transform pipeline, and
the 1-vs-all score kernels.

A variant is a pair of entries of the group table `GROUPS`: a scaling group
acting on the entity scalars and a rotation group acting on the entity unit
vectors. The unit vector parts are themselves elements of a table entry
(`VECTOR_GROUPS`: real -> fixed, complex -> U(1), quaternion -> unit
quaternion). Every action, and the combination s_i * v_i of an entity's two
parts, is the one ring product `product`, whose reverse mode is
`product_backward`.

A new group entry must provide its parameter and element widths, the
parameters of its identity element (held by frozen ablation blocks), whether
its elements are unit (their G_p norm is then constant), the half-width of its
uniform init draw, `materialize` from free parameters to elements and
`param_backward`, which pulls a gradient on elements back to the parameters
given both.

Entity row layout: [scalar params (k * scalar_width), vector free params
(k * vector.param_width)]. Relation row layout: [scaling params
(k * scaling.param_width), rotation params (k * rotation.param_width)].
Unit group elements are stored by their free parameters (a phase angle for
U(1), a 3-vector rotation parameter for unit quaternions) and materialized on
use, so unitarity holds by construction.

Each score kind has one kernel, `variant.kernel(h, c, tails=None)`, over
transformed heads h (B, k, w) and combined entities c (E, k, w). It returns
the scores (B, E), or, given the true tail of each head row, the 1-vs-all
logistic loss and its gradients on h and c. Both kernels apply the objective
through `logistic_loss`: `cosine_kernel` to its one score matmul and
`distance_kernel` to each chunk of its pass over component planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra
from .errors import LengthMismatch, ShapeMismatch

ABLATION_MODES = ("scalar", "vector", "both")

GROUP_FIXED = "fixed"
GROUP_GL1 = "gl1"
GROUP_U1 = "u1"
GROUP_UQ = "unit_quaternion"

# elements of one (B, C, k) float64 plane of the distance kernel (~0.8 MB),
# which sets its chunk of C candidates
DISTANCE_CHUNK_ELEMENTS = 100_000


def _coordinate_half_width(k):
    """Init half-width of free ring coordinates (entity scalars, GL(1))."""
    return 0.5 / np.sqrt(k)


@dataclass(frozen=True)
class Group:
    """Ops of one group whose elements act on a module part by `product`."""

    param_width: int  # free parameters per dimension
    width: int  # coordinates per element
    identity: tuple  # parameters of the identity element
    unit: bool  # every element has field norm 1
    half_width: Callable  # k -> half-width of the uniform init draw
    materialize: Callable  # params (..., k, param_width) -> elements (..., k, width)
    param_backward: Callable  # (params, elements, grad on elements) -> grad on params


# The algebra calls go through the module so that wrappers installed on it
# (the benchmark's tracer) see them.
GROUPS = {
    GROUP_FIXED: Group(0, 1, (), True, lambda k: 0.0,
                       lambda p: np.ones(p.shape[:-1] + (1,)), lambda p, z, g: np.zeros_like(p)),
    GROUP_GL1: Group(1, 1, (1.0,), False, _coordinate_half_width,
                     lambda p: p, lambda p, z, g: g),
    GROUP_U1: Group(1, 2, (0.0,), True, lambda k: np.pi,
                    lambda p: algebra.angle_to_complex(p[..., 0]),
                    lambda p, z, g: algebra.angle_backward(z, g)[..., None]),
    GROUP_UQ: Group(3, 4, (0.0, 0.0, 0.0), True, lambda k: np.pi,
                    lambda p: algebra.exp_map(p),
                    lambda p, z, g: algebra.exp_map_backward(p, g)),
}

# group whose unit elements are the entity vector parts of each space
VECTOR_GROUPS = {"real": GROUP_FIXED, "complex": GROUP_U1, "quaternion": GROUP_UQ}
SCALAR_WIDTHS = {"real": 1, "quaternion": 4}


@dataclass(frozen=True)
class ModelVariant:
    name: str
    scalar_group: str  # ring housing entity scalars: 'real' | 'quaternion'
    vector_group: str  # space housing entity vectors: 'real' | 'complex' | 'quaternion'
    scaling_group: str  # GROUP_GL1 | GROUP_UQ | GROUP_FIXED
    rotation_group: str  # GROUP_U1 | GROUP_UQ | GROUP_FIXED
    score_kind: str  # 'cosine' | 'distance'

    @property
    def scaling(self):
        return GROUPS[self.scaling_group]

    @property
    def rotation(self):
        return GROUPS[self.rotation_group]

    @property
    def vector(self):
        return GROUPS[VECTOR_GROUPS[self.vector_group]]

    @property
    def scalar_width(self):
        return SCALAR_WIDTHS[self.scalar_group]

    @property
    def kernel(self):
        return SCORE_KERNELS[self.score_kind]

    def entity_row_width(self, k):
        return k * (self.scalar_width + self.vector.param_width)

    def relation_row_width(self, k):
        return k * (self.scaling.param_width + self.rotation.param_width)


VARIANTS = {
    "distmult": ModelVariant("distmult", "real", "real", GROUP_GL1, GROUP_FIXED, "cosine"),
    "rotate": ModelVariant("rotate", "real", "complex", GROUP_FIXED, GROUP_U1, "distance"),
    "module_rc": ModelVariant("module_rc", "real", "complex", GROUP_GL1, GROUP_U1, "cosine"),
    "module_rh": ModelVariant("module_rh", "real", "quaternion", GROUP_GL1, GROUP_UQ, "cosine"),
    "module_hh": ModelVariant(
        "module_hh", "quaternion", "quaternion", GROUP_UQ, GROUP_UQ, "cosine"
    ),
}


def _blocks(table, k, first_width, second_width):
    """Views (n, k, first_width) and (n, k, second_width) of a table's two
    column blocks."""
    n, split = table.shape[0], k * first_width
    return (table[:, :split].reshape(n, k, first_width),
            table[:, split:].reshape(n, k, second_width))


@dataclass
class ParameterStore:
    variant: ModelVariant
    k: int
    entity: np.ndarray  # (n_entities, entity_row_width)
    relation: np.ndarray  # (n_relations, relation_row_width)
    ablation: str = "both"

    @property
    def n_entities(self):
        return self.entity.shape[0]

    @property
    def n_relations(self):
        return self.relation.shape[0]

    def entity_parts(self):
        """Views (E, k, scalar_width) and (E, k, vector.param_width)."""
        v = self.variant
        return _blocks(self.entity, self.k, v.scalar_width, v.vector.param_width)

    def relation_parts(self, table=None):
        """Views (R, k, scaling.param_width) and (R, k, rotation.param_width)
        of the relation table, or of a table shaped like it."""
        v = self.variant
        table = self.relation if table is None else table
        return _blocks(table, self.k, v.scaling.param_width, v.rotation.param_width)

    def free_masks(self):
        """Boolean masks over entity/relation row columns; frozen ablation
        blocks are False."""
        v = self.variant
        ent = np.ones(v.entity_row_width(self.k), dtype=bool)
        rel = np.ones(v.relation_row_width(self.k), dtype=bool)
        es_w = self.k * v.scalar_width
        rs_w = self.k * v.scaling.param_width
        if self.ablation == "scalar":
            ent[es_w:] = False
            rel[rs_w:] = False
        elif self.ablation == "vector":
            ent[:es_w] = False
            rel[:rs_w] = False
        return ent, rel


def _draw_table(rng, n, k, blocks):
    """Parameter table of consecutive column blocks, each given as
    (param_width, half_width, identity params, free). A free block draws
    uniform(-half_width, half_width); a frozen block holds the identity and
    draws nothing."""
    return np.concatenate([
        rng.uniform(-half, half, size=(n, k * width)) if free else np.tile(identity, (n, k))
        for width, half, identity, free in blocks
    ], axis=1)


def init_model(variant, k, n_entities, n_relations, seed, ablation="both"):
    """Seed-deterministic initialization.

    Real scalar coordinates are drawn uniform(-0.5/sqrt(k), 0.5/sqrt(k));
    group parameters uniform(-h, h) with h the group's half-width (the same
    bound for GL(1), pi for unit groups). Blocks are drawn in row order,
    entity scalars, entity vectors, relation scalings, relation rotations.
    Frozen ablation blocks are set to the group identity and consume no
    random draws, so e.g. a scalar-only module_rc run shares its scalar draws
    with a distmult run of the same seed.
    """
    if isinstance(variant, str):
        variant = VARIANTS[variant]
    if k < 1:
        raise ValueError("k must be >= 1")
    if ablation not in ABLATION_MODES:
        raise ValueError(f"unknown ablation mode {ablation!r}")
    rng = np.random.default_rng(seed)
    scalar_free, vector_free = ablation != "vector", ablation != "scalar"
    sw, vector = variant.scalar_width, variant.vector
    entity = _draw_table(rng, n_entities, k, [
        (sw, _coordinate_half_width(k), np.eye(1, sw), scalar_free),  # ring identity 1
        (vector.param_width, vector.half_width(k), vector.identity, vector_free),
    ])
    relation = _draw_table(rng, n_relations, k, [
        (group.param_width, group.half_width(k), group.identity, free)
        for group, free in ((variant.scaling, scalar_free), (variant.rotation, vector_free))
    ])
    return ParameterStore(variant, k, entity, relation, ablation)


def materialize_vector(ev, variant):
    """Free vector params (..., k, vpw) -> unit elements (..., k, vector.width)."""
    return variant.vector.materialize(ev)


def product(x, y):
    """Ring product x * y of element arrays (..., w): real, complex or
    Hamilton. A width-1 left operand is a real scalar and broadcasts."""
    if x.shape[-1] == 1:
        return x * y
    return algebra.elem_mul(x, y)


def product_backward(grad, x, y):
    """Gradients (grad * conj(y), conj(x) * grad) of product(x, y); for a
    width-1 left operand the first is summed over the broadcast axis."""
    grad_y = product(algebra.elem_conj(x), grad)
    if x.shape[-1] == 1:
        return np.sum(grad * y, axis=-1, keepdims=True), grad_y
    return algebra.elem_mul(grad, algebra.elem_conj(y)), grad_y


def combine(scalar, vector):
    """Element-wise scalar multiplication s_i * v_i (Hamilton product when the
    scalar ring is the quaternions). The operand widths select the product."""
    scalar = np.asarray(scalar, dtype=np.float64)
    vector = np.asarray(vector, dtype=np.float64)
    if scalar.shape[-2] != vector.shape[-2]:
        raise LengthMismatch("scalar and vector tuples differ in length")
    return product(scalar, vector)


def combined_embeddings(store, ids=None):
    """Combined tuples s_e * v_e for all (or selected) entities: (N, k, w)."""
    es, ev = store.entity_parts()
    if ids is not None:
        es, ev = es[ids], ev[ids]
    return combine(es, materialize_vector(ev, store.variant))


def head_forward(s_h, v_h, g_s, g_v):
    """Head transform with its intermediates: (s_h * g_s, v_h * g_v, h')
    where h' combines the two."""
    s2, v2 = product(s_h, g_s), product(v_h, g_v)
    return s2, v2, product(s2, v2)


def transformed_heads(store, h_ids, r_ids):
    """Transformed head embeddings T_s(s_h) * T_v(v_h) for id arrays:
    (B, k, vector.width)."""
    variant = store.variant
    es, ev = store.entity_parts()
    rs, rv = store.relation_parts()
    return head_forward(es[h_ids], materialize_vector(ev[h_ids], variant),
                        variant.scaling.materialize(rs[r_ids]),
                        variant.rotation.materialize(rv[r_ids]))[2]


def _pair_scores(h_prime, tails, kind):
    """Score transformed heads (B, k, w) against tails (B, k, w)."""
    if kind == "cosine":
        return np.sum(h_prime * tails, axis=(-2, -1))
    diff = h_prime - tails
    return -np.sum(np.sqrt(np.sum(diff * diff, axis=-1)), axis=-1)


def score(store, h_id, r_id, t_id):
    """Score of one triple; higher is more plausible for both score kinds."""
    for idx, bound in ((h_id, store.n_entities), (r_id, store.n_relations), (t_id, store.n_entities)):
        if not 0 <= idx < bound:
            raise IndexError(f"id {idx} out of range")
    h_prime = transformed_heads(store, np.array([h_id]), np.array([r_id]))
    t = combined_embeddings(store, np.array([t_id]))
    return float(_pair_scores(h_prime, t, store.variant.score_kind)[0])


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), without overflow for large |x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logistic_loss(x, pos, b):
    """1-vs-all logistic loss of a block of scores x (rows, candidates).

    Every candidate contributes log(1 + exp(-y * score)) with y = +1 at the
    true tails, indexed by `pos`, and y = -1 elsewhere. Returns the block's
    summed loss and d (loss / b) / d score; x is overwritten with -y * score.
    """
    x[pos] = -x[pos]
    loss = float(np.sum(np.logaddexp(0.0, x)))
    d_s = sigmoid(x) / b  # -y * sigmoid(x) / b
    d_s[pos] = -d_s[pos]
    return loss, d_s


def cosine_kernel(h, c, tails=None):
    """Inner-product scores of heads h (B, k, w) against every entity
    c (E, k, w): one matmul to the scores (B, E). Given the true tail id of
    each head row it returns instead (loss, grad_h, grad_c), the summed
    logistic loss and the gradients of loss / B, by two more matmuls."""
    b, k, w = h.shape
    h_flat, c_flat = h.reshape(b, k * w), c.reshape(-1, k * w)
    scores = h_flat @ c_flat.T
    if tails is None:
        return scores
    loss, d_s = logistic_loss(scores, (np.arange(b), tails), b)
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

    Chunks hold C = DISTANCE_CHUNK_ELEMENTS // (B * k) candidates, so each
    (B, C, k) plane stays in cache; the differences and distances of a chunk
    are built once and serve the scores, the loss and the gradients. No
    (B, E, k) array and, in training, no (B, E) array is built.
    """
    h, c = (np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (h, c))
    w, b, k = h.shape
    n = c.shape[1]
    chunk = max(1, DISTANCE_CHUNK_ELEMENTS // (b * k))
    # per-chunk buffers, reused so that the chunk's planes stay in cache
    d = np.empty((w, b, chunk, k))
    dist, aux = np.empty((b, chunk, k)), np.empty((b, chunk, k))
    starts = range(0, n, chunk)
    if tails is None:
        scores = np.empty((b, n))
    else:
        loss, grad_h, grad_c = 0.0, np.zeros_like(h), np.empty_like(c)
        # head rows ordered by true tail, and where each chunk's tails start
        rows = np.argsort(tails, kind="stable")
        cuts = np.searchsorted(tails[rows], [*starts, n]).tolist()
    for i, start in enumerate(starts):
        stop = min(n, start + chunk)
        m = stop - start
        d_c, dist_c, aux_c = d[:, :, :m], dist[:, :m], aux[:, :m]
        for j in range(w):
            np.subtract(h[j][:, None, :], c[j][None, start:stop], out=d_c[j])
        # the coordinates' squares add in order, as np.sum over a last axis does
        np.multiply(d_c[0], d_c[0], out=dist_c)
        for j in range(1, w):
            dist_c += np.multiply(d_c[j], d_c[j], out=aux_c)
        np.sqrt(dist_c, out=dist_c)
        x = -np.sum(dist_c, axis=-1)  # (B, m) scores
        if tails is None:
            scores[:, start:stop] = x
            continue
        hit = rows[cuts[i] : cuts[i + 1]]  # rows whose true tail is in this chunk
        chunk_loss, d_s = logistic_loss(x, (hit, tails[hit] - start), b)
        loss += chunk_loss
        # weight W = d_s / dist, 0 where dist == 0; then d (loss / B) / d h_j
        # = -sum_e W d_j and d (loss / B) / d c_j = sum_b W d_j
        weight = aux_c
        weight.fill(0.0)
        np.divide(d_s[..., None], dist_c, out=weight, where=dist_c > 0.0)
        for j in range(w):
            grad_h[j] -= np.einsum("bck,bck->bk", weight, d_c[j])
            np.einsum("bck,bck->ck", weight, d_c[j], out=grad_c[j, start:stop])
    if tails is None:
        return scores
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
    candidates; pass a precomputed combined-entity table to amortize it.
    """
    h_ids = np.atleast_1d(np.asarray(h_ids, dtype=np.int64))
    r_ids = np.atleast_1d(np.asarray(r_ids, dtype=np.int64))
    if h_ids.shape != r_ids.shape:
        raise ShapeMismatch("head and relation id arrays differ in shape")
    c_all = tails_combined if tails_combined is not None else combined_embeddings(store)
    return store.variant.kernel(transformed_heads(store, h_ids, r_ids), c_all)
