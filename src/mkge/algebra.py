"""The ring layer: real, complex and quaternion arithmetic on coordinate arrays.

Module elements are numpy arrays whose first axis holds the real coordinates
of the element: width 1 for reals, 2 for complex numbers (re, im), 4 for
quaternions (a, b, c, d) in the basis 1, i, j, k. An array (w, ...) is thus
w component planes, one per coordinate, and a 1-D array of length w is one
element. All functions broadcast over the axes after the first, so the same
code serves scalar sanity checks and the vectorized model hot path, where
each plane is a contiguous (rows, k) block.

Products write each coordinate into one preallocated output, adding their
terms in a fixed order, so a result has the same bits whether its operands
are contiguous planes or strided views of element-last arrays.

Every group action of the model (GL(1) scaling, U(1) and unit-quaternion
rotation) and the combination s * v of an entity's two parts is the one ring
product `elem_mul`, whose reverse mode is `elem_mul_backward`; `complex_mul`
and `quat_mul` are its width-2 and width-4 kernels. The unit groups'
parameterizations (`angle_to_complex`, `exp_map`) and their backward passes
live here too.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

REAL, COMPLEX, QUAT = 1, 2, 4

# Products by their terms: coordinate i of x * y is the sum of sign * x_j * y_l
# over the terms (sign, j, l) of row i, added in this order.
_PRODUCT_TERMS = {
    COMPLEX: (((1, 0, 0), (-1, 1, 1)),
              ((1, 0, 1), (1, 1, 0))),
    QUAT: (((1, 0, 0), (-1, 1, 1), (-1, 2, 2), (-1, 3, 3)),
           ((1, 0, 1), (1, 1, 0), (1, 2, 3), (-1, 3, 2)),
           ((1, 0, 2), (-1, 1, 3), (1, 2, 0), (1, 3, 1)),
           ((1, 0, 3), (1, 1, 2), (-1, 2, 1), (1, 3, 0))),
}


def _conjugated(terms, side):
    """Terms of the product with its left (side 0) or right (side 1) operand
    conjugated: a term's sign flips where that operand's coordinate is not
    the real one. Negation is exact, so the folded product has the bits of
    the product of the conjugate."""
    return tuple(tuple((sign * (-1 if (j, l)[side] else 1), j, l) for sign, j, l in row)
                 for row in terms)


# the products (conj(x) * y, x * conj(y)) of elem_mul_backward, per width
_BACKWARD_TERMS = {w: (_conjugated(terms, 0), _conjugated(terms, 1))
                   for w, terms in _PRODUCT_TERMS.items()}


def _coords(x):
    """Views x[0], x[1], ... of the coordinates of an element array (w, ...);
    each is an array, also when x is one element."""
    return [x[i, ...] for i in range(x.shape[0])]


def _bilinear(terms, x, y):
    """Sum of signed coordinate products by a term table (see _PRODUCT_TERMS),
    written coordinate by coordinate into one output (len(terms), ...)."""
    xs, ys = _coords(x), _coords(y)
    out = np.empty((len(terms),) + np.broadcast_shapes(xs[0].shape, ys[0].shape))
    tmp = np.empty(out.shape[1:])
    for acc, ((sign, j, l), *rest) in zip(_coords(out), terms):
        np.multiply(xs[j], ys[l], out=acc)
        if sign < 0:
            np.negative(acc, out=acc)
        for sign, j, l in rest:
            np.multiply(xs[j], ys[l], out=tmp)
            (np.add if sign > 0 else np.subtract)(acc, tmp, out=acc)
    return out


def _coordinate_sum(x, y):
    """sum_i x_i * y_i over the coordinate axis, added in coordinate order."""
    total = x[0] * y[0]
    for i in range(1, x.shape[0]):
        total += x[i] * y[i]
    return total


def quat_mul(p, q):
    """Hamilton product of quaternion arrays (4, ...). Non-commutative."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return _bilinear(_PRODUCT_TERMS[QUAT], p, q)


def complex_mul(x, y):
    """Product of complex arrays (2, ...)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _bilinear(_PRODUCT_TERMS[COMPLEX], x, y)


def _check_widths(x, y):
    """The common width of two element arrays of a non-real product."""
    w = x.shape[0]
    if w != y.shape[0]:
        raise ShapeMismatch(f"element widths differ: {w} vs {y.shape[0]}")
    if w not in _PRODUCT_TERMS:
        raise ShapeMismatch(f"unsupported element width {w}")
    return w


def elem_mul(x, y):
    """Ring product x * y of element arrays (w, ...): real, complex or
    Hamilton, dispatched on the element width. A width-1 operand on either
    side is a real scalar and broadcasts over the coordinates of the other;
    the reals are central in C and H, so x * r = r * x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if REAL in (x.shape[0], y.shape[0]):
        return x * y
    if _check_widths(x, y) == COMPLEX:
        return complex_mul(x, y)
    return quat_mul(x, y)


def elem_mul_backward(grad, x, y):
    """Gradients (grad * conj(y), conj(x) * grad) of elem_mul(x, y); the
    gradient on a width-1 operand is summed over the broadcast coordinate
    axis, (sum_i grad_i y_i, x * grad) for a real left operand and
    (grad * y, sum_i grad_i x_i) for a real right one. The conjugates are
    folded into the products' term signs."""
    grad = np.asarray(grad, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == REAL:
        return _coordinate_sum(grad, y)[None], x * grad
    if y.shape[0] == REAL:
        return grad * y, _coordinate_sum(grad, x)[None]
    conj_left, conj_right = _BACKWARD_TERMS[_check_widths(x, y)]
    return _bilinear(conj_right, grad, y), _bilinear(conj_left, x, grad)


def field_norm(x):
    """Squared-modulus norm: r^2 for reals, a^2+b^2 for complex, sum of four
    squares for quaternions. Multiplicative over elem_mul."""
    x = np.asarray(x, dtype=np.float64)
    return _coordinate_sum(x, x)


# sin(theta)/theta and its related Jacobian coefficient switch to series
# below this angle; both are accurate to ~1e-16 there.
_SMALL_ANGLE = 1e-4


def _sinc(theta):
    """sin(theta) / theta, by its series 1 - theta^2/6 + theta^4/120 below
    _SMALL_ANGLE."""
    small = theta < _SMALL_ANGLE
    t2 = theta * theta
    safe = np.where(small, 1.0, theta)
    return np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(safe) / safe)


def exp_map(omega):
    """Rotation-vector (3, ...) to unit quaternion (cos|w|, sin|w| * w/|w|),
    shape (4, ...).

    Smooth at |w| = 0 where it returns the identity quaternion.
    """
    omega = np.asarray(omega, dtype=np.float64)
    theta = np.sqrt(_coordinate_sum(omega, omega))
    out = np.empty((4,) + omega.shape[1:])
    np.cos(theta, out=out[0, ...])
    np.multiply(_sinc(theta), omega, out=out[1:])
    return out


def exp_map_backward(omega, q, grad_q):
    """Pull a gradient on q = exp_map(omega) back to a gradient on omega.

    q and grad_q have shape (4, ...); the result has shape (3, ...). q must
    be exp_map(omega): cos|w| = q_0 and sinc|w| = (q_v . w) / |w|^2 are read
    from it, so no transcendental is evaluated. Below _SMALL_ANGLE, sinc and
    the Jacobian coefficient c2 take their series instead.
    """
    omega = np.asarray(omega, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    grad_q = np.asarray(grad_q, dtype=np.float64)
    t2 = _coordinate_sum(omega, omega)  # theta^2
    small = t2 < _SMALL_ANGLE * _SMALL_ANGLE
    safe = np.where(small, 1.0, t2)
    s = _coordinate_sum(q[1:], omega) / safe
    # c2 = d(sinc)/dtheta / theta = (cos - sinc) / theta^2
    c2 = (q[0] - s) / safe
    if np.any(small):  # rare at random init
        s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, s)
        c2 = np.where(small, -1.0 / 3.0 + t2 / 30.0 - t2 * t2 / 840.0, c2)
    gv = grad_q[1:]
    # d cos|w| / dw = -sinc * w ; d (sinc * w_a) / dw_b = sinc d_ab + c2 w_a w_b
    out = (c2 * _coordinate_sum(gv, omega) - grad_q[0] * s) * omega
    out += s * gv
    return out


def angle_to_complex(theta):
    """Phase angle (...) to the unit complex number (cos t, sin t), shape (2, ...)."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty((2,) + theta.shape)
    np.cos(theta, out=out[0, ...])
    np.sin(theta, out=out[1, ...])
    return out


def angle_backward(z, grad_z):
    """Gradient of angle_to_complex at the phase t of its output
    z = (cos t, sin t): grad . (-sin t, cos t)."""
    z = np.asarray(z, dtype=np.float64)
    grad_z = np.asarray(grad_z, dtype=np.float64)
    return -grad_z[0] * z[1] + grad_z[1] * z[0]
