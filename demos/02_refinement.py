"""Refinement embeddings: the same operator seen on finer and finer grids.

Run with:  python3 demos/02_refinement.py
"""

from fractions import Fraction

import numpy as np

from finop import (
    FiniteOperator,
    GridSpec,
    Ladder,
    Spectrum,
    common_refine,
    embed,
    spectrum,
    to_matrix,
)

np.set_printoptions(precision=3, suppress=True)

# The forward difference with step 1/2 lives naturally on p = 2, but it can
# be embedded in any p = 2k grid: coefficients are copied to subcells and
# the one-cell shift becomes a k-cell shift.
D = FiniteOperator.derivative(GridSpec(1, 1, 2), axis=1, h=Fraction(1, 2))
for q in (2, 4, 8):
    E = embed(D, q)
    print(f"p={q}: shifts {sorted(E.terms)}  K={E.grid.dim}")

# The embedding preserves the spectrum as a SET and multiplies every
# multiplicity by q/p (here by 4).
coarse = spectrum(to_matrix(D))
fine = spectrum(to_matrix(embed(D, 8)))
print("eigenvalues at p=2:", coarse.eigenvalues)
print("eigenvalues at p=8:", fine.eigenvalues)
print("deviation from 4x-repeated coarse spectrum:",
      fine.max_deviation(Spectrum(np.repeat(coarse.eigenvalues, 4))))

# Operators on incompatible grids meet on the lcm grid; that is how sums of
# derivatives with different steps are formed.
D3 = FiniteOperator.derivative(GridSpec(1, 1, 3), axis=1, h=Fraction(1, 3))
A, B = common_refine(D, D3)
print("common grid for steps 1/2 and 1/3: p =", A.grid.p)
S = A + B
print("sum has shifts", sorted(S.terms))

# Grid ladders describe which refinements are taken at each level. The
# factorial ladder is the one whose union reaches every step size.
for spec in ("factorial", "2^n", "custom:2,6,12"):
    lad = Ladder.parse(spec)
    print(f"{spec:>14}: levels 1..4 ->",
          [lad.level(n) for n in range(1, 5 if lad.kind != "custom" else 4)])
