import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkge import algebra
from mkge.errors import DegenerateElement, EmptyTuple, NotUnit, TagMismatch, ZeroScaling

RNG = np.random.default_rng(7)

finite_reals = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
quats = st.tuples(finite_reals, finite_reals, finite_reals, finite_reals).map(np.array)


def random_unit_quat(rng):
    return algebra.normalize(rng.normal(size=4))


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
    def test_fixed_points(self):
        assert np.allclose(algebra.quat_conj([1.0, 0, 0, 0]), [1, 0, 0, 0])
        assert np.allclose(algebra.quat_conj([0.0, 1, 0, 0]), [0, -1, 0, 0])

    @given(quats, quats)
    @settings(max_examples=200)
    def test_anti_homomorphism(self, p, q):
        lhs = algebra.quat_conj(algebra.quat_mul(p, q))
        rhs = algebra.quat_mul(algebra.quat_conj(q), algebra.quat_conj(p))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


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


class TestNormalize:
    def test_simple(self):
        assert np.allclose(algebra.normalize([2.0, 0, 0, 0]), [1, 0, 0, 0])
        assert np.allclose(algebra.normalize([0.0, 0, 0, 5]), [0, 0, 0, 1])
        assert np.allclose(algebra.normalize([1.0, 1, 1, 1]), [0.5, 0.5, 0.5, 0.5])

    def test_degenerate(self):
        with pytest.raises(DegenerateElement):
            algebra.normalize([0.0, 0.0, 0.0, 1e-13])


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
        )
        norms = algebra.field_norm(algebra.exp_map(omegas))
        assert np.max(np.abs(norms - 1.0)) <= 1e-9


class TestInnerProduct:
    def test_basic(self):
        e0 = np.array([1.0, 0, 0, 0])
        e1 = np.array([0.0, 1, 0, 0])
        assert algebra.inner_product(e0, e0) == 1.0
        assert algebra.inner_product(e1, e0) == 0.0
        assert algebra.inner_product(np.array([1.0, 2, 3, 4]), np.array([4.0, 3, 2, 1])) == 20.0

    def test_self_equals_field_norm(self):
        x = RNG.normal(size=(50, 4))
        assert np.array_equal(algebra.inner_product(x, x), algebra.field_norm(x))

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatch):
            algebra.inner_product(np.zeros(2), np.zeros(4))


class TestGpNorm:
    def test_quaternion_units_p2(self):
        xs = np.tile([1.0, 0, 0, 0], (4, 1))
        assert algebra.g_p_norm(xs, 2) == pytest.approx(2.0)

    def test_single_element_any_p(self):
        x = RNG.normal(size=(1, 4))
        for p in (1, 2, 3):
            assert algebra.g_p_norm(x, p) == pytest.approx(float(algebra.field_norm(x[0])))

    def test_complex_p1(self):
        xs = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert algebra.g_p_norm(xs, 1) == pytest.approx(25.0)

    def test_real_p2_against_direct_sum(self):
        xs = RNG.normal(size=(6, 1))
        direct = sum(float(v[0]) ** 4 for v in xs) ** 0.5
        assert algebra.g_p_norm(xs, 2) == pytest.approx(direct, rel=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyTuple):
            algebra.g_p_norm(np.zeros((0, 4)), 2)


class TestRotationScaling:
    def test_rotate_identity_quat(self):
        v = np.array([1.0, 0, 0, 0])
        g = np.array([0.0, 1, 0, 0])
        assert np.allclose(algebra.apply_rotation(v, g), g)

    def test_rotate_complex_phase(self):
        assert np.allclose(algebra.apply_rotation([1.0, 0.0], [0.0, 1.0]), [0.0, 1.0])

    def test_rotation_preserves_norm(self):
        for _ in range(20):
            v = RNG.normal(size=4)
            g = random_unit_quat(RNG)
            out = algebra.apply_rotation(v, g)
            assert algebra.field_norm(out) == pytest.approx(algebra.field_norm(v), rel=1e-9)

    def test_rotation_inverse_recovers(self):
        v = RNG.normal(size=4)
        g = random_unit_quat(RNG)
        back = algebra.apply_rotation(algebra.apply_rotation(v, g), algebra.quat_conj(g))
        assert np.allclose(back, v, atol=1e-9)

    def test_rotate_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            algebra.apply_rotation(np.ones(4), np.array([2.0, 0, 0, 0]))

    def test_scaling_gl1(self):
        assert algebra.apply_scaling(np.array([2.0]), np.array([3.0]), "gl1") == pytest.approx(6.0)
        with pytest.raises(ZeroScaling):
            algebra.apply_scaling(np.array([2.0]), np.array([0.0]), "gl1")

    def test_scaling_unit_quaternion(self):
        g = random_unit_quat(RNG)
        one = np.array([1.0, 0, 0, 0])
        assert np.allclose(algebra.apply_scaling(one, g, "unit_quaternion"), g)
        s = RNG.normal(size=4)
        out = algebra.apply_scaling(s, g, "unit_quaternion")
        assert algebra.field_norm(out) == pytest.approx(algebra.field_norm(s), rel=1e-9)
        with pytest.raises(NotUnit):
            algebra.apply_scaling(s, s * 3.0, "unit_quaternion")


class TestBackwardHelpers:
    def test_exp_map_backward_finite_difference(self):
        rng = np.random.default_rng(3)
        for scale in (1.0, 1e-6):
            omega = rng.normal(size=3) * scale
            grad_q = rng.normal(size=4)
            analytic = algebra.exp_map_backward(omega, grad_q)
            eps = 1e-6
            fd = np.empty(3)
            for i in range(3):
                up, dn = omega.copy(), omega.copy()
                up[i] += eps
                dn[i] -= eps
                fd[i] = grad_q @ (algebra.exp_map(up) - algebra.exp_map(dn)) / (2 * eps)
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_angle_backward_finite_difference(self):
        theta, grad = 0.7, np.array([0.3, -1.1])
        eps = 1e-7
        fd = grad @ (algebra.angle_to_complex(theta + eps) - algebra.angle_to_complex(theta - eps)) / (2 * eps)
        z = algebra.angle_to_complex(theta)
        assert algebra.angle_backward(z, grad) == pytest.approx(fd, rel=1e-6)
