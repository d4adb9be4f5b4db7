"""Mixed-radix digit expansion and the level-n cell permutations.

Every x in [0,1) expands as x = x_1/M + x_2/(M (2!)^N) + x_3/(M (3!)^N) + ...
with x_1 in {0..M-1} and x_i in {0..i^N - 1}.  The digit-to-cell maps turn
each x_i into a point of the {0..i-1}^N lattice; summing their scaled
contributions identifies 1D intervals with (component, N-cube cell) pairs.
At each finite depth this identification is a bijection, realized here as an
explicit permutation between the two normalized-indicator bases.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GridMismatchError, SizeLimitError
from .grid import GridSpec, flatten_cell, unflatten_cell
from .operators import GridVector

DEFAULT_MAX_K = 2000


def _max_k() -> int:
    raw = os.environ.get("FINOP_MAX_K", str(DEFAULT_MAX_K))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FINOP_MAX_K must be an integer, got {raw!r}") from None


def _check_size(K: int, what: str):
    limit = _max_k()
    if K > limit:
        raise SizeLimitError(f"{what} too large (set FINOP_MAX_K to raise the cap)",
                             requested=K, limit=limit)


@dataclass(frozen=True)
class DigitExpansion:
    """Truncated expansion of a rational x: leading digit x1 plus x_2..x_n."""

    x1: int
    digits: tuple
    depth: int
    N: int
    M: int
    residual: Fraction

    def partial_sum(self) -> Fraction:
        total = Fraction(self.x1, self.M)
        for i, xi in enumerate(self.digits, start=2):
            total += Fraction(xi, self.M * math.factorial(i) ** self.N)
        return total


def expand_digits(x, N: int, M: int, depth: int) -> DigitExpansion:
    """Digits of an exact rational x in [0,1), truncated at the given depth."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"x={x} outside [0, 1)")
    x1 = int(x * M)  # floor, x >= 0
    partial = Fraction(x1, M)
    digits = []
    for i in range(2, depth + 1):
        scale = M * math.factorial(i) ** N
        xi = int((x - partial) * scale)
        digits.append(xi)
        partial += Fraction(xi, scale)
    return DigitExpansion(x1, tuple(digits), depth, N, M, x - partial)


def bphi(x, N: int, M: int, depth: int):
    """Truncated digit-to-point map on [0, 1/M): sum of unflatten_cell(x_i, i, N)/i!."""
    x = Fraction(x)
    if not 0 <= x < Fraction(1, M):
        raise ValueError(f"x={x} outside [0, 1/{M})")
    exp = expand_digits(x, N, M, depth)
    point = [Fraction(0)] * N
    for i, xi in enumerate(exp.digits, start=2):
        cell = unflatten_cell(xi, i, N)
        for a in range(N):
            point[a] += Fraction(cell[a], math.factorial(i))
    return tuple(point)


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
    _check_size(K, "permutation")
    forward = np.empty(K, dtype=np.int64)
    for k in range(K):
        exp = expand_digits(Fraction(k, K), N, M, level)
        coords = [0] * N
        for i, xi in enumerate(exp.digits, start=2):
            cell = unflatten_cell(xi, i, N)
            w = pf // math.factorial(i)
            for a in range(N):
                coords[a] += cell[a] * w
        forward[k] = flatten_cell(coords, pf) * M + exp.x1
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
