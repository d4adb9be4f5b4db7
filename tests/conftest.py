import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from finop import (FiniteOperator, GridSpec, RepMatrix, StepFunction, flatten_cell, from_matrix,
                   lower_fop, parse_fop, to_matrix, unflatten_cell)
from finop.grid import shift_index
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


def assignment_deviation(source, target):
    """Oracle of Spectrum.max_deviation: the largest pair distance of a
    minimal-sum matching from scipy's linear_sum_assignment on the K x K
    cost matrix."""
    import scipy.optimize

    if len(source) != len(target):
        raise ValueError("spectra have different sizes")
    cost = np.abs(source.eigenvalues[:, None] - target.eigenvalues[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def from_matrix_oracle(B):
    """Oracle of from_matrix: gather block(r, r + j) for every one of the p^N
    shifts j in itertools.product order, and keep those with a nonzero."""
    grid = B.grid
    p, N, M = grid.p, grid.N, grid.M
    nc = grid.num_cells
    blocks = B.entries.reshape(nc, M, nc, M).transpose(0, 2, 1, 3)
    rows = np.arange(nc)
    terms = {}
    for j in itertools.product(range(p), repeat=N):
        vals = blocks[rows, shift_index(p, N, j)]
        if np.any(vals != 0):
            terms[j] = StepFunction(grid, vals)
    return FiniteOperator(grid, terms)


def all_cell_coords(p, N):
    """(p^N, N) integer array of cell coordinates in flat order."""
    idx = np.arange(p**N)
    coords = np.empty((p**N, N), dtype=np.int64)
    for a in range(N - 1, -1, -1):
        coords[:, a] = idx % p
        idx //= p
    return coords


def cell_of_point(point, p):
    """Cell containing a point of T^N with exact rational coordinates."""
    return tuple(int(Fraction(x) % 1 * p) for x in point)  # floor: x in [c/p, (c+1)/p)


def value_at(f, point):
    """Sample a StepFunction at an exact rational point of T^N."""
    return f.values[flatten_cell(cell_of_point(point, f.grid.p), f.grid.p)]


def supnorm(f):
    """Max over cells of a StepFunction's matrix operator (spectral) norm."""
    return float(np.max(np.linalg.norm(f.values, ord=2, axis=(1, 2))))


def partial_sum(exp):
    """x1/M + sum_i x_i / (M (i!)^N) of a DigitExpansion, exactly."""
    total = Fraction(exp.x1, exp.M)
    for i, xi in enumerate(exp.digits, start=2):
        total += Fraction(xi, exp.M * math.factorial(i) ** exp.N)
    return total


def jordan_operator(rng, N, M, p):
    """2I plus a weighted shift along axis 1 whose weight is zero on the cells
    with first coordinate 0, so once per cycle: its matrix has Jordan blocks
    of size p.  Conjugated by a dense random similarity, which the exact
    matrix bijection keeps inside the algebra."""
    grid = GridSpec(N, M, p)
    weight = rng.standard_normal(grid.num_cells) + 1.0
    weight[all_cell_coords(p, N)[:, 0] == 0] = 0.0
    J = FiniteOperator(grid, {
        (0,) * N: StepFunction.constant(grid, 2.0),
        (1,) + (0,) * (N - 1): StepFunction(grid, weight[:, None, None] * np.eye(M)),
    })
    S = rng.standard_normal((grid.dim, grid.dim)) + 1j * rng.standard_normal((grid.dim, grid.dim))
    return from_matrix(RepMatrix(grid, S @ to_matrix(J).entries @ np.linalg.inv(S)))


def generated_fop_text(rng, N, M, p):
    """Random .fop text M(A) * D(1,1/p) + D(N,-1/p) * M(B) + c I, with four
    random boxes per coefficient, A painted and B summed: zero cells of A
    make the operator defective."""
    def literal(z):
        return f"{z.real:.3f}{z.imag:+.3f}i"

    lines = [f"N = {N}", f"M = {M}"]
    for name, mode in (("A", ""), ("B", "sum ")):
        lines.append(f"coeff {mode}{name} {{")
        for _ in range(4):
            box = " x ".join(f"[{Fraction(int(lo), p)},{Fraction(int(hi), p)})" for lo, hi in
                             (sorted(rng.choice(p + 1, size=2, replace=False)) for _ in range(N)))
            z = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
            rows = ", ".join("[" + ", ".join(literal(v) for v in row) + "]" for row in z)
            lines.append(f"    box {box} = [{rows}]")
        lines.append("}")
    c = literal(complex(*rng.standard_normal(2)))
    lines.append(f"operator {{ M(A) * D(1,1/{p}) + D({N},-1/{p}) * M(B) + ({c}) * I }}")
    return "\n".join(lines) + "\n"


def generated_fop(rng, N, M, p):
    """The lowered operator of generated_fop_text."""
    return lower_fop(parse_fop(generated_fop_text(rng, N, M, p)))[0]
