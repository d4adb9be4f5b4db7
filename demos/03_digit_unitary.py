"""The mixed-radix digit expansion and the cell permutation it induces.

Run with:  python3 demos/03_digit_unitary.py
"""

from fractions import Fraction

import numpy as np

from finop import (
    GridVector,
    apply_unitary,
    apply_unitary_inverse,
    bphi,
    build_permutation,
    expand_digits,
)

# Every x in [0, 1/M) has an expansion x = x1/M + sum_i x_i / (M (i!)^N)
# with x1 < M and x_i < i^N. With exact rationals the digits are exact and
# the residual after depth d is below 1/(M (d!)^N).
for x in (Fraction(3, 4), Fraction(5, 8), Fraction(1, 3)):
    exp = expand_digits(x, N=1, M=2, depth=4)
    print(f"x={x}: x1={exp.x1} digits={exp.digits} residual={exp.residual}")

# In N dimensions each digit x_i picks one of i^N subcells; bphi resolves
# the digit string back into a point of the N-torus.
print("bphi(3/4) in 2D:", bphi(Fraction(3, 4), N=2, M=1, depth=4))

# Truncating at level n gives a bijection between the M*(n!)^N interval
# cells and the (N, M, n!) grid cells: a permutation, hence a unitary.
P = build_permutation(N=2, M=1, level=2)
print("level 2, N=2: size", P.size, "forward", P.forward)
print("source grid", P.source_grid, " target grid", P.target_grid)
U = np.zeros((P.size, P.size))
U[P.forward, np.arange(P.size)] = 1.0  # (U u)[forward[k]] = u[k]
print("U is a permutation matrix:",
      bool(np.array_equal(U @ U.T, np.eye(P.size))))

# Applying the unitary reshuffles coordinates and preserves the norm
# exactly; it is the bridge used by pde_to_ode in demo 04.
u = GridVector(P.source_grid, np.arange(P.size, dtype=float))
v = apply_unitary(P, u)
print("u:", u.values.real, "-> v:", v.values.real)
print("norms equal:", np.linalg.norm(u.values) == np.linalg.norm(v.values))
back = apply_unitary_inverse(P, v)
print("round-trip exact:", bool(np.array_equal(back.values, u.values)))
