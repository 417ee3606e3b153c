import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkge import algebra
from mkge.errors import ShapeMismatch
from oracles import conj

RNG = np.random.default_rng(7)

finite_reals = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
quats = st.tuples(finite_reals, finite_reals, finite_reals, finite_reals).map(np.array)


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.sqrt(np.sum(q * q))


class TestQuatMul:
    def test_basis_table_i_times_j(self):
        i = np.array([0.0, 1.0, 0.0, 0.0])
        j = np.array([0.0, 0.0, 1.0, 0.0])
        k = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.allclose(algebra.quat_mul(i, j), k)
        assert np.allclose(algebra.quat_mul(j, i), -k)

    def test_identity(self):
        p = RNG.normal(size=4)
        one = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(algebra.quat_mul(p, one), p)
        assert np.allclose(algebra.quat_mul(one, p), p)

    def test_hand_expanded_product(self):
        # (1+2i+3j+4k)(5+6i+7j+8k) expanded by the basis table
        p = np.array([1.0, 2.0, 3.0, 4.0])
        q = np.array([5.0, 6.0, 7.0, 8.0])
        assert np.allclose(algebra.quat_mul(p, q), [-60.0, 12.0, 30.0, 24.0])

    @given(quats, quats)
    @settings(max_examples=200)
    def test_norm_multiplicative(self, p, q):
        lhs = algebra.field_norm(algebra.quat_mul(p, q))
        rhs = algebra.field_norm(p) * algebra.field_norm(q)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_associative_not_commutative(self):
        p, q, r = (random_unit_quat(RNG) for _ in range(3))
        assert np.allclose(
            algebra.quat_mul(algebra.quat_mul(p, q), r),
            algebra.quat_mul(p, algebra.quat_mul(q, r)),
            atol=1e-12,
        )


class TestConjugate:
    @given(quats, quats)
    @settings(max_examples=200)
    def test_anti_homomorphism(self, p, q):
        lhs = conj(algebra.quat_mul(p, q))
        rhs = algebra.quat_mul(conj(q), conj(p))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


class TestRingProduct:
    def test_width_one_operand_broadcasts(self):
        """A width-1 operand on either side is a real scalar, central in C
        and H: s * y and y * s have the bytes of the broadcast products."""
        s = RNG.normal(size=(3, 1)).T
        for w in (1, 2, 4):
            y = RNG.normal(size=(3, w)).T
            assert np.array_equal(algebra.elem_mul(s, y), s * y)
            assert algebra.elem_mul(y, s).tobytes() == (y * s).tobytes()

    def test_width_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            algebra.elem_mul(np.zeros(2), np.zeros(4))

    def test_unsupported_width_raises(self):
        with pytest.raises(ShapeMismatch):
            algebra.elem_mul(np.zeros(3), np.zeros(3))


class TestFieldNorm:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (np.array([3.0, 4.0]), 25.0),
            (np.array([1.0, 0.0, 0.0, 0.0]), 1.0),
            (np.array([1.0, 1.0, 1.0, 1.0]), 4.0),
            (np.array([-3.0]), 9.0),
        ],
    )
    def test_values(self, x, expected):
        assert algebra.field_norm(x) == pytest.approx(expected)

    def test_complex_multiplicative(self):
        x, y = RNG.normal(size=2), RNG.normal(size=2)
        assert algebra.field_norm(algebra.complex_mul(x, y)) == pytest.approx(
            algebra.field_norm(x) * algebra.field_norm(y)
        )


class TestExpMap:
    def test_identity(self):
        assert np.allclose(algebra.exp_map([0.0, 0.0, 0.0]), [1, 0, 0, 0])

    def test_quarter_turn(self):
        assert np.allclose(algebra.exp_map([np.pi / 2, 0, 0]), [0, 1, 0, 0], atol=1e-12)

    def test_half_turn(self):
        assert np.allclose(algebra.exp_map([np.pi, 0, 0]), [-1, 0, 0, 0], atol=1e-12)

    def test_unit_including_tiny_angles(self):
        omegas = np.concatenate(
            [RNG.normal(size=(100, 3)), RNG.normal(size=(100, 3)) * 1e-13]
        ).T
        norms = algebra.field_norm(algebra.exp_map(omegas))
        assert np.max(np.abs(norms - 1.0)) <= 1e-9


class TestRotationScaling:
    def test_rotate_identity_quat(self):
        v = np.array([1.0, 0, 0, 0])
        g = np.array([0.0, 1, 0, 0])
        assert np.allclose(algebra.elem_mul(v, g), g)

    def test_rotate_complex_phase(self):
        assert np.allclose(algebra.elem_mul([1.0, 0.0], [0.0, 1.0]), [0.0, 1.0])

    def test_rotation_preserves_norm(self):
        for _ in range(20):
            v = RNG.normal(size=4)
            g = random_unit_quat(RNG)
            out = algebra.elem_mul(v, g)
            assert algebra.field_norm(out) == pytest.approx(algebra.field_norm(v), rel=1e-9)

    def test_rotation_inverse_recovers(self):
        v = RNG.normal(size=4)
        g = random_unit_quat(RNG)
        back = algebra.elem_mul(algebra.elem_mul(v, g), conj(g))
        assert np.allclose(back, v, atol=1e-9)

    def test_scaling_gl1(self):
        assert algebra.elem_mul(np.array([2.0]), np.array([3.0])) == pytest.approx(6.0)

    def test_scaling_unit_quaternion(self):
        g = random_unit_quat(RNG)
        one = np.array([1.0, 0, 0, 0])
        assert np.allclose(algebra.elem_mul(one, g), g)
        s = RNG.normal(size=4)
        out = algebra.elem_mul(s, g)
        assert algebra.field_norm(out) == pytest.approx(algebra.field_norm(s), rel=1e-9)


class TestBackwardHelpers:
    def test_exp_map_backward_finite_difference(self):
        """Central differences of exp_map at |w| near 0, on both sides of the
        series switch at _SMALL_ANGLE, near 1.6, at pi (sinc ~ 0) and in
        (pi, pi sqrt 3] (sin < 0); then a planes input (3, n, k) of those
        angles, which gives the bytes of per-element calls."""
        rng = np.random.default_rng(3)
        omegas, eps = [], 1e-5
        for scale, norm in ((1.0, None), (1e-6, None), (1.0, 5e-5), (1.0, 2e-4),
                            (1.0, np.pi), (1.0, 4.2), (1.0, np.pi * np.sqrt(3))):
            omega = rng.normal(size=3) * scale
            if norm is not None:
                omega *= norm / np.linalg.norm(omega)
            omegas.append(omega)
            grad_q = rng.normal(size=4)
            analytic = algebra.exp_map_backward(omega, algebra.exp_map(omega), grad_q)
            fd = np.empty(3)
            for i in range(3):
                up, dn = omega.copy(), omega.copy()
                up[i] += eps
                dn[i] -= eps
                fd[i] = grad_q @ (algebra.exp_map(up) - algebra.exp_map(dn)) / (2 * eps)
            # rounding leaves about 1e-10; the c2 term at |w| = 2e-4 is about 1e-8
            assert np.allclose(analytic, fd, rtol=0.0, atol=1e-9), np.linalg.norm(omega)

        omega = np.stack(omegas + [np.zeros(3)], axis=1).reshape(3, 2, 4)
        q, grad_q = algebra.exp_map(omega), rng.normal(size=(4, 2, 4))
        planes = algebra.exp_map_backward(omega, q, grad_q)
        for i, j in np.ndindex(2, 4):
            element = algebra.exp_map_backward(omega[:, i, j], q[:, i, j], grad_q[:, i, j])
            assert planes[:, i, j].tobytes() == element.tobytes()

    def test_angle_backward_finite_difference(self):
        theta, grad = 0.7, np.array([0.3, -1.1])
        eps = 1e-7
        fd = grad @ (algebra.angle_to_complex(theta + eps) - algebra.angle_to_complex(theta - eps)) / (2 * eps)
        z = algebra.angle_to_complex(theta)
        assert algebra.angle_backward(z, grad) == pytest.approx(fd, rel=1e-6)


def _operand(width, seed=0, n=6, m=3):
    """An element-last array (n, m, width), or (n, m) angles for width None:
    random values, with rows of +0.0, of -0.0 and of mixed signed zeros, and
    rows of magnitude ~1e-5 and ~1e-3, on both sides of the exp map's series
    switch at _SMALL_ANGLE."""
    rng = np.random.default_rng((seed, width or 0))
    shape = (n, m) if width is None else (n, m, width)
    a = rng.normal(size=shape)
    a[0], a[1] = 0.0, -0.0
    a[2] = np.where(np.arange(shape[-1]) % 2, -0.0, 0.0)
    a[3] *= 1e-5
    a[4] *= 1e-3
    return a


def _byte_strings(result):
    return [np.ascontiguousarray(r).tobytes()
            for r in (result if isinstance(result, tuple) else (result,))]


# case number -> (function, operand widths, None for angles). A case's number
# is part of its test id, so it stays fixed when other cases come or go.
LAYOUT_CASES = {
    0: ("quat_mul", (4, 4)), 1: ("complex_mul", (2, 2)),
    5: ("elem_mul", (1, 1)), 6: ("elem_mul", (1, 2)), 7: ("elem_mul", (1, 4)),
    8: ("elem_mul", (2, 2)), 9: ("elem_mul", (4, 4)),
    10: ("elem_mul_backward", (1, 1, 1)), 11: ("elem_mul_backward", (2, 1, 2)),
    12: ("elem_mul_backward", (4, 1, 4)), 13: ("elem_mul_backward", (2, 2, 2)),
    14: ("elem_mul_backward", (4, 4, 4)),
    22: ("elem_mul", (2, 1)), 23: ("elem_mul", (4, 1)),
    24: ("elem_mul_backward", (2, 2, 1)), 25: ("elem_mul_backward", (4, 4, 1)),
    15: ("field_norm", (1,)), 16: ("field_norm", (2,)), 17: ("field_norm", (4,)),
    18: ("exp_map", (3,)), 19: ("exp_map_backward", (3, 4, 4)),
    20: ("angle_to_complex", (None,)), 21: ("angle_backward", (2, 2)),
}


class TestPlanesLayout:
    """Every function gives the same bytes on contiguous component planes, on
    strided planes views of element-last arrays, and element by element."""

    @pytest.mark.parametrize("name,widths", LAYOUT_CASES.values(),
                             ids=[f"{name}-widths{n}" for n, (name, _) in LAYOUT_CASES.items()])
    def test_planes_views_and_elements_agree(self, name, widths):
        fn = getattr(algebra, name)
        lasts = [_operand(w, seed) for seed, w in enumerate(widths)]
        views = [a if w is None else np.moveaxis(a, -1, 0) for a, w in zip(lasts, widths)]
        if widths == (None,):
            views = [np.asfortranarray(lasts[0])]  # strided angles
        # a width-1 view is contiguous: one plane has no coordinate stride
        assert not any(v.flags.c_contiguous for v, w in zip(views, widths) if w != 1)
        want = fn(*(np.ascontiguousarray(v) for v in views))
        assert _byte_strings(fn(*views)) == _byte_strings(want)
        wants = want if isinstance(want, tuple) else (want,)
        n, m = lasts[0].shape[:2]
        for i in range(n):
            for j in range(m):
                got = fn(*(a[i, j] for a in lasts))
                assert _byte_strings(got) == _byte_strings(tuple(r[..., i, j] for r in wants))

    def test_exp_map_operands_straddle_series_switch(self):
        theta = np.sqrt(np.sum(_operand(3) ** 2, axis=-1))
        assert np.any((theta > 0) & (theta < algebra._SMALL_ANGLE))
        assert np.any(theta > algebra._SMALL_ANGLE)

    def test_products_match_written_out_formulas(self):
        """The term order of the products is that of the expanded formulas
        below, evaluated left to right; another order changes the bits."""
        (a1, b1, c1, d1), (a2, b2, c2, d2) = (np.moveaxis(_operand(4, seed), -1, 0)
                                              for seed in (0, 1))
        want = np.stack([a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                         a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                         a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                         a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2])
        got = algebra.quat_mul(np.stack([a1, b1, c1, d1]), np.stack([a2, b2, c2, d2]))
        assert got.tobytes() == want.tobytes()
        want = np.stack([a1 * a2 - b1 * b2, a1 * b2 + b1 * a2])
        got = algebra.complex_mul(np.stack([a1, b1]), np.stack([a2, b2]))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_folded_backward_equals_products_of_conjugates(self, width):
        """elem_mul_backward folds the conjugates into its products' term
        signs; it must give the bytes of the products of the conjugates, which
        only the exact term order of elem_mul does."""
        grad, x, y = (np.moveaxis(_operand(width, seed), -1, 0) for seed in range(3))
        grad_x, grad_y = algebra.elem_mul_backward(grad, x, y)
        assert grad_y.tobytes() == algebra.elem_mul(conj(x), grad).tobytes()
        if width > 1:
            assert grad_x.tobytes() == algebra.elem_mul(grad, conj(y)).tobytes()
