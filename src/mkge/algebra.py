"""The ring layer: real, complex and quaternion arithmetic on coordinate arrays.

Module elements are numpy arrays whose last axis holds the real coordinates
of the element: width 1 for reals, 2 for complex numbers (re, im), 4 for
quaternions (a, b, c, d) in the basis 1, i, j, k. All functions broadcast
over leading axes, so the same code serves scalar sanity checks and the
vectorized model hot path.

Every group action of the model (GL(1) scaling, U(1) and unit-quaternion
rotation) and the combination s * v of an entity's two parts is the one ring
product `elem_mul`, whose reverse mode is `elem_mul_backward`; `complex_mul`
and `quat_mul` are its width-2 and width-4 kernels. The unit groups'
parameterizations (`angle_to_complex`, `exp_map`) and their backward passes
live here too.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyTuple, TagMismatch

REAL, COMPLEX, QUAT = 1, 2, 4

# coordinate signs of the conjugate, per non-real element width
_CONJ_SIGNS = {COMPLEX: np.array([1.0, -1.0]), QUAT: np.array([1.0, -1.0, -1.0, -1.0])}


def quat_mul(p, q):
    """Hamilton product of quaternion arrays (..., 4). Non-commutative."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    a1, b1, c1, d1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    a2, b2, c2, d2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ],
        axis=-1,
    )


def complex_mul(x, y):
    """Product of complex arrays (..., 2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    re = x[..., 0] * y[..., 0] - x[..., 1] * y[..., 1]
    im = x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0]
    return np.stack([re, im], axis=-1)


def elem_conj(x):
    """Conjugate of elements of any width: (a, -b) for complex, (a, -b, -c, -d)
    for quaternions; a real element is returned as it is. An
    anti-homomorphism over elem_mul: conj(x * y) = conj(y) * conj(x)."""
    x = np.asarray(x, dtype=np.float64)
    w = x.shape[-1]
    if w == REAL:
        return x
    if w not in _CONJ_SIGNS:
        raise TagMismatch(f"unsupported element width {w}")
    return x * _CONJ_SIGNS[w]


def elem_mul(x, y):
    """Ring product x * y of element arrays (..., w): real, complex or
    Hamilton, dispatched on the element width. A width-1 left operand is a
    real scalar and broadcasts over the coordinates of y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = x.shape[-1]
    if w == REAL:
        return x * y
    if w != y.shape[-1]:
        raise TagMismatch(f"element widths differ: {w} vs {y.shape[-1]}")
    if w == COMPLEX:
        return complex_mul(x, y)
    if w == QUAT:
        return quat_mul(x, y)
    raise TagMismatch(f"unsupported element width {w}")


def elem_mul_backward(grad, x, y):
    """Gradients (grad * conj(y), conj(x) * grad) of elem_mul(x, y); for a
    width-1 left operand the first is summed over the broadcast axis."""
    grad_y = elem_mul(elem_conj(x), grad)
    if x.shape[-1] == REAL:
        return np.sum(grad * y, axis=-1, keepdims=True), grad_y
    return elem_mul(grad, elem_conj(y)), grad_y


def field_norm(x):
    """Squared-modulus norm: r^2 for reals, a^2+b^2 for complex, sum of four
    squares for quaternions. Multiplicative over elem_mul."""
    x = np.asarray(x, dtype=np.float64)
    return np.sum(x * x, axis=-1)


# sin(theta)/theta and its related Jacobian coefficient switch to series
# below this angle; both are accurate to ~1e-16 there.
_SMALL_ANGLE = 1e-4


def _sinc(theta):
    """sin(theta) / theta, by its series below _SMALL_ANGLE, with the terms
    the exp_map backward reuses: (sinc, small, theta^2, safe, sin(safe)),
    where safe is theta, or 1 where the series is used."""
    small = theta < _SMALL_ANGLE
    t2 = theta * theta
    series = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    safe = np.where(small, 1.0, theta)
    sin = np.sin(safe)
    return np.where(small, series, sin / safe), small, t2, safe, sin


def exp_map(omega):
    """Rotation-vector (..., 3) to unit quaternion (cos|w|, sin|w| * w/|w|).

    Smooth at |w| = 0 where it returns the identity quaternion.
    """
    omega = np.asarray(omega, dtype=np.float64)
    theta = np.sqrt(np.sum(omega * omega, axis=-1))
    s = _sinc(theta)[0]
    return np.concatenate([np.cos(theta)[..., None], s[..., None] * omega], axis=-1)


def exp_map_backward(omega, q, grad_q):
    """Pull a gradient on q = exp_map(omega) back to a gradient on omega.

    q and grad_q have shape (..., 4); the result has shape (..., 3). cos|w|
    is read from q, so one sine is the only transcendental evaluated.
    """
    omega = np.asarray(omega, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    grad_q = np.asarray(grad_q, dtype=np.float64)
    theta = np.sqrt(np.sum(omega * omega, axis=-1))
    s, small, t2, safe, sin = _sinc(theta)
    # c2 = d(sinc)/dtheta / theta = (theta cos - sin) / theta^3
    series = -1.0 / 3.0 + t2 / 30.0 - t2 * t2 / 840.0
    c2 = np.where(small, series, (safe * q[..., 0] - sin) / safe**3)
    g0 = grad_q[..., 0]
    gv = grad_q[..., 1:]
    # d cos|w| / dw = -sinc * w ; d (sinc * w_a) / dw_b = sinc d_ab + c2 w_a w_b
    dot = np.sum(gv * omega, axis=-1)
    return (-g0 * s + c2 * dot)[..., None] * omega + s[..., None] * gv


def angle_to_complex(theta):
    """Phase angle to the unit complex number (cos t, sin t)."""
    theta = np.asarray(theta, dtype=np.float64)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def angle_backward(z, grad_z):
    """Gradient of angle_to_complex at the phase t of its output
    z = (cos t, sin t): grad . (-sin t, cos t)."""
    z = np.asarray(z, dtype=np.float64)
    grad_z = np.asarray(grad_z, dtype=np.float64)
    return -grad_z[..., 0] * z[..., 1] + grad_z[..., 1] * z[..., 0]


def g_p_norm(xs, p):
    """General tuple norm (sum_i field_norm(x_i)^p)^(1/p) over xs of shape (n, w)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim < 2 or xs.shape[-2] == 0:
        raise EmptyTuple("g_p_norm needs at least one element")
    if p < 1 or int(p) != p:
        raise ValueError(f"p must be a positive integer, got {p}")
    return np.sum(field_norm(xs) ** p, axis=-1) ** (1.0 / p)

