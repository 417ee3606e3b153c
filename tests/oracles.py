"""Reference computations that several test modules check the program against."""

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
