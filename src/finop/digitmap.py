"""Mixed-radix digit expansion and the level-n cell permutations.

Every x in [0,1) expands as x = x_1/M + x_2/(M (2!)^N) + x_3/(M (3!)^N) + ...
with x_1 in {0..M-1} and x_i in {0..i^N - 1}.  At depth n the digits of x
are those of the integer k = floor(x K), K = M (n!)^N, in the radices
M, 2^N, ..., n^N; one integer kernel (_digits) computes them, and Fraction
appears only where a rational comes in or a residual goes out.  Digit x_i
names a cell of the {0..i-1}^N lattice; summing their scaled coordinates
identifies 1D intervals with (component, n!-grid cell) pairs.  At each
finite depth this identification is a bijection, realized here as an
explicit permutation between the two normalized-indicator bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GridMismatchError, check_size
from .grid import GridSpec, flatten_cell, unflatten_cell
from .operators import GridVector


@dataclass(frozen=True)
class DigitExpansion:
    """Truncated expansion of a rational x: leading digit x1 plus x_2..x_n."""

    x1: int
    digits: tuple
    depth: int
    N: int
    M: int
    residual: Fraction


def _digits(k: int, N: int, depth: int):
    """x1, (x_2..x_depth) and the depth!-grid cell coordinates of the integer
    k in [0, M (depth!)^N).

    k = x1 (depth!)^N + sum_i x_i (depth!/i!)^N.  The cell of digit x_i adds
    depth!/i! times its coordinates (Horner in the radices 2, 3, ..., depth).
    """
    digits = []
    for i in range(depth, 1, -1):
        k, d = divmod(k, i**N)
        digits.append(d)
    digits.reverse()
    coords = [0] * N
    for i, xi in enumerate(digits, start=2):
        coords = [c * i + ci for c, ci in zip(coords, unflatten_cell(xi, i, N))]
    return k, tuple(digits), coords


def expand_digits(x, N: int, M: int, depth: int) -> DigitExpansion:
    """Digits of an exact rational x in [0,1), truncated at the given depth:
    the digits of floor(x K), K = M (depth!)^N, with residual x - floor(x K)/K."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"x={x} outside [0, 1)")
    if N < 1 or M < 1 or depth < 0:
        raise ValueError(f"digits need N, M >= 1 and depth >= 0, got N={N} M={M} depth={depth}")
    K = M * math.factorial(depth) ** N
    k = math.floor(x * K)
    x1, digits, _ = _digits(k, N, depth)
    return DigitExpansion(x1, digits, depth, N, M, x - Fraction(k, K))


def bphi(x, N: int, M: int, depth: int):
    """Truncated digit-to-point map on [0, 1/M): sum of unflatten_cell(x_i, i, N)/i!."""
    x = Fraction(x)
    if not 0 <= x < Fraction(1, M):
        raise ValueError(f"x={x} outside [0, 1/{M})")
    pf = math.factorial(depth)
    _, _, coords = _digits(math.floor(x * M * pf**N), N, depth)
    return tuple(Fraction(c, pf) for c in coords)


@dataclass(frozen=True)
class CellPermutation:
    """Level-n bijection: 1D interval k <-> (component m, cell of the n!-grid).

    forward[k] is the target index cell_flat * M + m in the (N, M, p=n!)
    grid-vector ordering; inverse is the inverse array.
    """

    level: int
    N: int
    M: int
    forward: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.forward)

    @property
    def source_grid(self) -> GridSpec:
        return GridSpec(1, 1, self.size)

    @property
    def target_grid(self) -> GridSpec:
        return GridSpec(self.N, self.M, math.factorial(self.level))


def build_permutation(N: int, M: int, level: int) -> CellPermutation:
    """Materialize the digit unitary at a finite level as a permutation."""
    if level < 1:
        raise ValueError("level must be >= 1")
    pf = math.factorial(level)
    K = M * pf**N
    check_size(K, "permutation")
    forward = np.empty(K, dtype=np.int64)
    for k in range(K):
        x1, _, coords = _digits(k, N, level)
        forward[k] = flatten_cell(coords, pf) * M + x1
    inverse = np.empty(K, dtype=np.int64)
    inverse[forward] = np.arange(K)
    if not np.array_equal(np.sort(forward), np.arange(K)):  # pragma: no cover
        raise AssertionError("permutation construction produced a non-bijection")
    return CellPermutation(level, N, M, forward, inverse)


def apply_unitary(P: CellPermutation, u: GridVector) -> GridVector:
    """Map a 1D scalar grid vector to the (N, M) side; exact isometry."""
    if u.grid != P.source_grid:
        raise GridMismatchError(f"vector grid {u.grid} != expected {P.source_grid}")
    return GridVector(P.target_grid, u.values[P.inverse])


def apply_unitary_inverse(P: CellPermutation, v: GridVector) -> GridVector:
    """Inverse direction: (N, M) side back to the 1D interval basis."""
    if v.grid != P.target_grid:
        raise GridMismatchError(f"vector grid {v.grid} != expected {P.target_grid}")
    return GridVector(P.source_grid, v.values[P.forward])
