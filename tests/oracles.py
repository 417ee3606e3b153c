"""Reference computations that several test modules check the program against.

The score and regularizer references share no arithmetic with `mkge.algebra`,
the head transform or the score kernels: they read the raw parameter blocks
and work one dimension at a time on coordinate lists, with the unit
parameterizations and the ring products written out."""

import math

import numpy as np

from mkge import train


def finite_difference_grads(store, triples, cfg, step=1e-5):
    """Central differences of the mean batch loss over every parameter."""
    fd_e = np.zeros_like(store.entity)
    fd_r = np.zeros_like(store.relation)
    for table, fd in ((store.entity, fd_e), (store.relation, fd_r)):
        flat = table.ravel()
        out = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up, _, _ = train.batch_loss_and_grads(store, triples, cfg)
            flat[i] = orig - step
            dn, _, _ = train.batch_loss_and_grads(store, triples, cfg)
            flat[i] = orig
            out[i] = (up - dn) / (2 * step)
    return fd_e, fd_r


def brute_force_rank(scores, true_idx, filtered_out):
    """Reference: materialize candidates, stable-sort descending with the true
    triple ordered last among equal scores, report its 1-based position. A
    NaN orders against nothing, so it counts as a tie: NaN candidates sort
    first and a NaN true score last."""

    def key(i):
        if np.isnan(scores[i]):
            return (2,) if i == true_idx else (0,)
        return (1, -scores[i], i == true_idx)

    candidates = [i for i in range(len(scores)) if i == true_idx or i not in filtered_out]
    return sorted(candidates, key=key).index(true_idx) + 1


def conj(x):
    """Conjugate of elements (w, ...): the real coordinate kept, the others negated."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x[:1], -x[1:]])


def _element(group, params):
    """Coordinates of the element of `group` at the free parameters of one
    dimension: the real one for the trivial group, the parameters themselves
    for free ring coordinates, (cos t, sin t) for a U(1) phase t, and the
    exponential map (cos |w|, sin |w| * w / |w|) for a unit quaternion's
    rotation vector w."""
    p = [float(v) for v in params]
    if group.param_width == 0:
        return [1.0]
    if group.param_width == group.width:
        return p
    if group.width == 2:
        return [math.cos(p[0]), math.sin(p[0])]
    theta = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    if theta == 0.0:
        return [1.0, 0.0, 0.0, 0.0]
    return [math.cos(theta)] + [math.sin(theta) * w / theta for w in p]


def _mul(x, y):
    """Ring product of two coordinate lists: a real x scales every coordinate
    of y, and a real y every coordinate of x; otherwise the complex or the
    Hamilton product, written out."""
    if len(x) == 1:
        return [x[0] * c for c in y]
    if len(y) == 1:
        return [c * y[0] for c in x]
    if len(x) == 2:
        (a, b), (c, d) = x, y
        return [a * c - b * d, a * d + b * c]
    (a1, b1, c1, d1), (a2, b2, c2, d2) = x, y
    return [a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2]


def _combined(store, e):
    """The k combined elements s_i * v_i of entity e."""
    v = store.variant
    scalars, vectors = store.entity_parts()
    return [_mul(_element(v.scalar, scalars[e, i]), _element(v.vector, vectors[e, i]))
            for i in range(store.k)]


def _transformed_head(store, h, r):
    """The k transformed head elements (s_i * g_i) * (v_i * q_i) of head h
    under relation r, with scalings g and rotations q."""
    v = store.variant
    scalars, vectors = store.entity_parts()
    scalings, rotations = store.relation_parts()
    return [_mul(_mul(_element(v.scalar, scalars[h, i]), _element(v.scaling, scalings[r, i])),
                 _mul(_element(v.vector, vectors[h, i]), _element(v.rotation, rotations[r, i])))
            for i in range(store.k)]


def oracle_score(store, h, r, t):
    """f(h, r, t): the coordinate dot product of the transformed head and the
    combined tail for the cosine variants, minus the sum over dimensions of
    their Euclidean distances for the distance variants."""
    head, tail = _transformed_head(store, h, r), _combined(store, t)
    if store.variant.score_kind == "cosine":
        return sum(x * y for a, b in zip(head, tail) for x, y in zip(a, b))
    return -sum(math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b))) for a, b in zip(head, tail))


def _g_p(elements, p):
    """(sum_i N(x_i)^p)^(1/p), N the sum of an element's squared coordinates."""
    return sum(sum(c * c for c in x) ** p for x in elements) ** (1.0 / p)


def oracle_regularizer(store, h, r, t, cfg):
    """lam * (lambda1 G_p(h) + lambda2 G_p(r) + lambda3 G_p(t)) of one triple,
    with h and t the combined entities and r the relation's scalings."""
    scalings, _ = store.relation_parts()
    g = [_element(store.variant.scaling, scalings[r, i]) for i in range(store.k)]
    return cfg.lam * (cfg.lambda1 * _g_p(_combined(store, h), cfg.p)
                      + cfg.lambda2 * _g_p(g, cfg.p)
                      + cfg.lambda3 * _g_p(_combined(store, t), cfg.p))
