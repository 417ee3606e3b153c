"""Complex and quaternion arithmetic on coordinate arrays.

Module elements are numpy arrays whose last axis holds the real coordinates
of the element: width 1 for reals, 2 for complex numbers (re, im), 4 for
quaternions (a, b, c, d) in the basis 1, i, j, k. All functions broadcast
over leading axes, so the same code serves scalar sanity checks and the
vectorized model hot path.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateElement, EmptyTuple, NotUnit, TagMismatch, ZeroScaling

REAL, COMPLEX, QUAT = 1, 2, 4

# Unit-norm precondition tolerance for group elements.
UNIT_TOL = 1e-6

# Below this squared norm an element cannot be normalized meaningfully.
DEGENERATE_EPS = 1e-24


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


def quat_conj(q):
    """Conjugate (a, -b, -c, -d); anti-homomorphism over quat_mul."""
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def complex_mul(x, y):
    """Product of complex arrays (..., 2)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    re = x[..., 0] * y[..., 0] - x[..., 1] * y[..., 1]
    im = x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0]
    return np.stack([re, im], axis=-1)


def elem_conj(x):
    """Conjugate for any element width; identity on reals."""
    x = np.asarray(x, dtype=np.float64)
    w = x.shape[-1]
    if w == REAL:
        return x
    if w == COMPLEX:
        return x * np.array([1.0, -1.0])
    if w == QUAT:
        return quat_conj(x)
    raise TagMismatch(f"unsupported element width {w}")


def elem_mul(x, y):
    """Ring product dispatched on element width (real / complex / Hamilton)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1] != y.shape[-1]:
        raise TagMismatch(f"element widths differ: {x.shape[-1]} vs {y.shape[-1]}")
    w = x.shape[-1]
    if w == REAL:
        return x * y
    if w == COMPLEX:
        return complex_mul(x, y)
    if w == QUAT:
        return quat_mul(x, y)
    raise TagMismatch(f"unsupported element width {w}")


def field_norm(x):
    """Squared-modulus norm: r^2 for reals, a^2+b^2 for complex, sum of four
    squares for quaternions. Multiplicative over elem_mul."""
    x = np.asarray(x, dtype=np.float64)
    return np.sum(x * x, axis=-1)


def inner_product(x, y):
    """Real dot product of the coordinate tuples; <x, x> equals field_norm(x)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[-1] != y.shape[-1]:
        raise TagMismatch(f"element widths differ: {x.shape[-1]} vs {y.shape[-1]}")
    return np.sum(x * y, axis=-1)


def normalize(q):
    """Scale an element to unit norm; rejects degenerate input."""
    q = np.asarray(q, dtype=np.float64)
    n = field_norm(q)
    if np.any(n <= DEGENERATE_EPS):
        raise DegenerateElement(f"cannot normalize element with squared norm {np.min(n)}")
    return q / np.sqrt(n)[..., None]


def is_unit(g, tol=UNIT_TOL):
    return bool(np.all(np.abs(field_norm(g) - 1.0) <= tol))


# sin(theta)/theta and its related Jacobian coefficient switch to series
# below this angle; both are accurate to ~1e-16 there.
_SMALL_ANGLE = 1e-4


def _sinc(theta):
    small = theta < _SMALL_ANGLE
    t2 = theta * theta
    series = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    safe = np.where(small, 1.0, theta)
    return np.where(small, series, np.sin(safe) / safe)


def exp_map(omega):
    """Rotation-vector (..., 3) to unit quaternion (cos|w|, sin|w| * w/|w|).

    Smooth at |w| = 0 where it returns the identity quaternion.
    """
    omega = np.asarray(omega, dtype=np.float64)
    theta = np.sqrt(np.sum(omega * omega, axis=-1))
    s = _sinc(theta)
    return np.concatenate([np.cos(theta)[..., None], s[..., None] * omega], axis=-1)


def exp_map_backward(omega, grad_q):
    """Pull a gradient on exp_map(omega) back to a gradient on omega.

    grad_q has shape (..., 4); the result has shape (..., 3).
    """
    omega = np.asarray(omega, dtype=np.float64)
    grad_q = np.asarray(grad_q, dtype=np.float64)
    theta = np.sqrt(np.sum(omega * omega, axis=-1))
    s = _sinc(theta)
    # c2 = d(sinc)/dtheta / theta = (theta cos - sin) / theta^3
    small = theta < _SMALL_ANGLE
    t2 = theta * theta
    series = -1.0 / 3.0 + t2 / 30.0 - t2 * t2 / 840.0
    safe = np.where(small, 1.0, theta)
    c2 = np.where(small, series, (safe * np.cos(safe) - np.sin(safe)) / safe**3)
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


def apply_rotation(v, g):
    """Rotate v by the unit group element g (complex or quaternion product)."""
    g = np.asarray(g, dtype=np.float64)
    if not is_unit(g):
        raise NotUnit("rotation element must have unit field norm")
    return elem_mul(v, g)


def apply_scaling(s, g, group):
    """Scale s by a group element: real product for 'gl1', Hamilton product
    for 'unit_quaternion'."""
    s = np.asarray(s, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if group == "gl1":
        if np.any(g == 0.0):
            raise ZeroScaling("GL(1) element must be nonzero")
        return s * g
    if group == "unit_quaternion":
        if not is_unit(g):
            raise NotUnit("scaling quaternion must have unit field norm")
        return quat_mul(s, g)
    raise ValueError(f"unknown scaling group {group!r}")
