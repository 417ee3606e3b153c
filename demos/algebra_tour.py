"""A tour of the ring layer: real, complex, and quaternion elements all
live in numpy arrays whose first axis is the coordinate width (1, 2, or 4),
so an array (w, n) holds n elements as w component planes, and one product,
`elem_mul`, dispatches on that width."""

import numpy as np

from mkge import algebra

rng = np.random.default_rng(0)

# Hamilton product of two quaternions; note it is not commutative
p = np.array([1.0, 2.0, 3.0, 4.0])
q = np.array([5.0, 6.0, 7.0, 8.0])
print("p  x q =", algebra.elem_mul(p, q))
print("q  x p =", algebra.elem_mul(q, p))

# the field norm (squared modulus) is multiplicative over the product
print("N(pq)      =", algebra.field_norm(algebra.elem_mul(p, q)))
print("N(p) N(q)  =", algebra.field_norm(p) * algebra.field_norm(q))

# unit quaternions come from a 3-vector through the exponential map,
# so unitarity holds by construction, even for tiny rotation vectors
for scale in (2.0, 1e-3, 1e-13):
    omega = scale * rng.standard_normal(3)
    u = algebra.exp_map(omega)
    print(f"|omega| ~ {scale:g}: exp_map norm = {algebra.field_norm(u):.15f}")

# rotating by a unit element preserves the norm of what it multiplies
u = algebra.exp_map(rng.standard_normal(3))
x = rng.standard_normal(4)
print("N(x)  =", algebra.field_norm(x))
print("N(xu) =", algebra.field_norm(algebra.elem_mul(x, u)))

# the same machinery covers complex numbers (width 2): U(1) elements are
# stored as a phase angle
z = algebra.angle_to_complex(np.pi / 3)
w = algebra.angle_to_complex(np.pi / 6)
print("unit complex product:", algebra.elem_mul(z, w), "(expect cos/sin of pi/2)")

# tuple norms generalize the N3 regularizer: G_p(xs) = (sum_i N(x_i)^p)^(1/p)
# over a tuple of elements, here 5 quaternions as planes (4, 5)
xs = rng.standard_normal((5, 4)).T
for p_exp in (1, 2, 3):
    print(f"G_{p_exp}(xs) =", np.sum(algebra.field_norm(xs) ** p_exp) ** (1.0 / p_exp))
