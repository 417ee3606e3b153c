"""Independent references the benchmark checks the program against.

The filtered-rank reference scores `module_hh` with its own quaternion
arithmetic (a structure-constant tensor rather than the program's Hamilton
product), builds each query's filter from the raw triples, and ranks by a plain
count with pessimistic ties. It uses neither `data.build_filter_index` nor
`ranking.bottom_rank`.
"""

from __future__ import annotations

import numpy as np

# _HAMILTON[i, j, m]: coefficient of basis m in e_i * e_j for basis 1, i, j, k
_HAMILTON = np.zeros((4, 4, 4))
for _i, _j, _m, _sign in [
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
    (1, 0, 1, 1), (1, 1, 0, -1), (1, 2, 3, 1), (1, 3, 2, -1),
    (2, 0, 2, 1), (2, 1, 3, -1), (2, 2, 0, -1), (2, 3, 1, 1),
    (3, 0, 3, 1), (3, 1, 2, 1), (3, 2, 1, -1), (3, 3, 0, -1),
]:
    _HAMILTON[_i, _j, _m] = _sign


def _qmul(p, q):
    return np.einsum("...i,...j,ijm->...m", p, q, _HAMILTON)


def _unit(omega):
    """Rotation vector (..., 3) -> unit quaternion via the exponential map."""
    theta = np.linalg.norm(omega, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        axis = np.where(theta > 0, omega / theta, 0.0)
    return np.concatenate([np.cos(theta), np.sin(theta) * axis], axis=-1)


def hh_tables(entity, relation, k):
    """Combined entity tuples (E, k*4) and a closure giving transformed heads,
    from the raw `module_hh` parameter rows [scalar k*4 | vector k*3] and
    [scaling k*3 | rotation k*3]."""
    n_ent, n_rel = entity.shape[0], relation.shape[0]
    s = entity[:, : 4 * k].reshape(n_ent, k, 4)
    v = _unit(entity[:, 4 * k :].reshape(n_ent, k, 3))
    g_s = _unit(relation[:, : 3 * k].reshape(n_rel, k, 3))
    g_v = _unit(relation[:, 3 * k :].reshape(n_rel, k, 3))
    combined = _qmul(s, v).reshape(n_ent, 4 * k)

    def head(h, r):
        return _qmul(_qmul(s[h], g_s[r]), _qmul(v[h], g_v[r])).reshape(4 * k)

    return combined, head


def filtered_ranks(queries, all_triples, n_base, combined, head):
    """Pessimistic filtered rank of each (h, r, t, direction) query.

    `all_triples` holds the program's id triples of every split; head queries
    are scored as (t, r + n_base, ?) like the program's reciprocal scoring.
    """
    out = []
    for h, r, t, direction in queries:
        if direction == "tail":
            q_h, q_r, true = h, r, t
            known = all_triples[(all_triples[:, 0] == h) & (all_triples[:, 1] == r), 2]
        else:
            q_h, q_r, true = t, r + n_base, h
            known = all_triples[(all_triples[:, 2] == t) & (all_triples[:, 1] == r), 0]
        scores = combined @ head(q_h, q_r)
        keep = np.ones(len(scores), dtype=bool)
        keep[known] = False
        keep[true] = True
        kept = scores[keep]
        out.append(int(np.count_nonzero(kept > scores[true]) + np.count_nonzero(kept == scores[true])))
    return out
