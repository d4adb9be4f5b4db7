"""Reducing a 2D matrix-valued operator to a 1D scalar one.

The digit-expansion unitary of demo 03 conjugates the matrix representation
of any finite N-dimensional operator into the representation of a scalar
operator on a single interval: same spectrum, same dynamics.

Run with:  python3 demos/04_pde_to_ode.py
"""

from fractions import Fraction

import numpy as np

from finop import (
    FiniteOperator,
    GridSpec,
    GridVector,
    build_pde,
    evolve_compare,
    pde_to_ode,
)

np.set_printoptions(precision=4, suppress=True)

# A discrete heat operator on the 2-torus, -adj(D1)*D1 - adj(D2)*D2 with
# step 1/2 (demos/heat2d.fop): self-adjoint, eigenvalues 0, -16, -16, -32.
grid = GridSpec(N=2, M=1, p=2)
D1 = FiniteOperator.derivative(grid, axis=1, h=Fraction(1, 2))
D2 = FiniteOperator.derivative(grid, axis=2, h=Fraction(1, 2))
A = (-1.0) * build_pde([[D1.adjoint(), D1], [D2.adjoint(), D2]])
print("2D operator: K =", grid.dim, " shifts:", sorted(A.terms))

# Conjugate down to one dimension at factorial level n=3 (K = (3!)^2 = 36);
# at level 2 with N=2 the digit permutation is the identity.
# The operator lives on p=2, so the least level with p | n! is n0=2: the 1D
# operator is conjugated at K0=4 and embedded onto K=36, and the certificate
# checks it against A conjugated at level 3, entry for entry.
result = pde_to_ode(A, level=3)
print("1D operator: p =", result.ode.grid.p, " shifts:", sorted(result.ode.terms))
print(f"{result.path} from K0={result.K0} to K={result.K}; certificate "
      f"{'PASS' if result.certified else f'FAIL at {result.first_mismatch}'}")
rep = result.spectral_report
print(f"spectra agree to {rep.max_deviation:.2e} (tol {rep.tolerance:.2e}; "
      f"{rep.far_pairs} far pairs, eps {rep.epsilon:.2e}) -> {'PASS' if rep.passed else 'FAIL'}")

# The reduction also transports dynamics: evolving under exp(tA) upstairs
# and exp(tB) downstairs gives the same trajectory through the unitary.
rng = np.random.default_rng(7)
fine = GridSpec(2, 1, 6)
u0 = GridVector(fine, rng.standard_normal(fine.dim))
report = evolve_compare(A, u0, times=[0.1, 0.5, 1.0, 2.0], level=3)
for t, d in report.rows():
    print(f"t={t}: evolution discrepancy {d:.2e}")
print("evolution check:", "PASS" if report.passed else "FAIL")
