import math
from fractions import Fraction

import numpy as np
import pytest

from finop import GridSpec, RepMatrix, flatten_cell, unflatten_cell
from finop.sampling import random_operator, random_step_function, random_vector

# the text of perfbench/inputs/heat2d.fop, D1 D1 + D2 D2 with step 1/2: the
# anti-diffusive heat operator (eigenvalues 0, 16, 32), so exp(tA) grows like
# e^(32 t) and t = 10 tests evolution far from the identity
ANTI_DIFFUSIVE_HEAT2D = """\
# discrete heat operator on the 2-torus
N = 2
M = 1
operator { D(1,1/2) * D(1,1/2) + D(2,1/2) * D(2,1/2) }
"""


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_op(rng, N, M, p, num_terms=3):
    return random_operator(rng, GridSpec(N, M, p), num_terms)


def rand_step(rng, N, M, p):
    return random_step_function(rng, GridSpec(N, M, p))


def rand_vec(rng, N, M, p):
    return random_vector(rng, GridSpec(N, M, p))


def perm_matrix(P):
    """Dense K x K 0/1 oracle of a CellPermutation: (Pm u)[forward[k]] = u[k]."""
    Pm = np.zeros((P.size, P.size))
    Pm[P.forward, np.arange(P.size)] = 1.0
    return Pm


def matrix_exp(B, t=1.0):
    """Dense K x K oracle of exp(t B) for a RepMatrix, by scipy's Pade expm."""
    import scipy.linalg

    return RepMatrix(B.grid, scipy.linalg.expm(t * B.entries))


def digits_oracle(x, N, M, depth):
    """(x1, (x_2..x_depth), residual) of x in [0, 1) by the Fraction recurrence
    x_i = floor((x - partial sum) M (i!)^N): an oracle independent of the
    integer digit kernel."""
    x = Fraction(x)
    x1 = int(x * M)
    partial = Fraction(x1, M)
    digits = []
    for i in range(2, depth + 1):
        scale = M * math.factorial(i) ** N
        xi = int((x - partial) * scale)
        digits.append(xi)
        partial += Fraction(xi, scale)
    return x1, tuple(digits), x - partial


def forward_oracle(N, M, level):
    """forward[k] of the level-n permutation from digits_oracle(k/K): digit x_i
    adds n!/i! times the coordinates of its {0..i-1}^N cell to the n!-grid cell."""
    pf = math.factorial(level)
    K = M * pf**N
    forward = []
    for k in range(K):
        x1, digits, _ = digits_oracle(Fraction(k, K), N, M, level)
        coords = [0] * N
        for i, xi in enumerate(digits, start=2):
            for a, c in enumerate(unflatten_cell(xi, i, N)):
                coords[a] += c * (pf // math.factorial(i))
        forward.append(flatten_cell(coords, pf) * M + x1)
    return np.array(forward)
