"""Exact rational grid geometry and matrix-valued step functions on the torus.

The torus T^N is split into p^N half-open cells of side 1/p.  Cell indices
are N-tuples with axis 0 most significant in the flat (lexicographic) order.
All cell-index arithmetic lives here: other modules obtain flat indices from
flatten_cell/unflatten_cell (one cell) or shift_index/parent_index/box_index
(many cells at once) and never flatten coordinates themselves.
Step functions are matrix valued and constant on each cell; geometry is kept
in exact rationals while matrix entries are complex doubles, written out as
[re, im] pairs by complex_pairs and read back by from_complex_pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GridMismatchError


@dataclass(frozen=True)
class GridSpec:
    """Common frame: torus dimension N, matrix size M, cells per axis p."""

    N: int
    M: int
    p: int

    def __post_init__(self):
        if self.N < 1 or self.M < 1 or self.p < 1:
            raise ValueError(f"GridSpec needs N, M, p >= 1, got {self}")

    @property
    def h(self) -> Fraction:
        return Fraction(1, self.p)

    @property
    def num_cells(self) -> int:
        return self.p**self.N

    @property
    def dim(self) -> int:
        """Total basis dimension K = M * p^N."""
        return self.M * self.p**self.N

    def to_json_dict(self):
        return {"N": self.N, "M": self.M, "p": self.p}

    @staticmethod
    def from_json_dict(d) -> "GridSpec":
        return GridSpec(int(d["N"]), int(d["M"]), int(d["p"]))


def flatten_cell(coords, p: int) -> int:
    """Lexicographic flat index of a cell, axis 0 most significant."""
    flat = 0
    for c in coords:
        if not 0 <= c < p:
            raise ValueError(f"cell coordinate {c} outside 0..{p - 1}")
        flat = flat * p + c
    return flat


def unflatten_cell(flat: int, p: int, N: int):
    """Inverse of flatten_cell."""
    if not 0 <= flat < p**N:
        raise ValueError(f"flat index {flat} outside 0..{p ** N - 1}")
    coords = [0] * N
    for a in range(N - 1, -1, -1):
        coords[a] = flat % p
        flat //= p
    return tuple(coords)


def all_cell_coords(p: int, N: int) -> np.ndarray:
    """(p^N, N) integer array of cell coordinates in flat order."""
    idx = np.arange(p**N)
    coords = np.empty((p**N, N), dtype=np.int64)
    for a in range(N - 1, -1, -1):
        coords[:, a] = idx % p
        idx //= p
    return coords


def _flat_index(axis_coords, p: int) -> np.ndarray:
    """Flat indices of the product of per-axis coordinate arrays, axis 0 first."""
    flat = np.zeros(1, dtype=np.int64)
    for coords in axis_coords:
        flat = np.add.outer(flat * p, coords).ravel()
    return flat


def shift_index(p: int, N: int, shift) -> np.ndarray:
    """Flat index of cell r + shift (mod p), for every cell r in flat order."""
    if len(shift) != N:
        raise ValueError(f"shift {tuple(shift)} has wrong arity for N={N}")
    axis = np.arange(p, dtype=np.int64)
    return _flat_index([(axis + int(s)) % p for s in shift], p)


def parent_index(p: int, q: int, N: int) -> np.ndarray:
    """Flat index of the p-cell containing each q-cell (p must divide q)."""
    if q % p != 0:
        raise GridMismatchError(f"p={p} does not divide q={q}")
    return _flat_index([np.arange(q, dtype=np.int64) // (q // p)] * N, p)


def box_index(p: int, intervals) -> np.ndarray:
    """Flat indices of the cells whose midpoint (2c+1)/(2p) lies in the box,
    one half-open interval [lo, hi) per axis.

    lo <= (2c+1)/(2p) < hi  exactly when  ceil(lo p - 1/2) <= c < ceil(hi p - 1/2).
    """
    half = Fraction(1, 2)
    return _flat_index([np.arange(max(math.ceil(Fraction(lo) * p - half), 0),
                                  min(math.ceil(Fraction(hi) * p - half), p), dtype=np.int64)
                        for lo, hi in intervals], p)


def cell_of_point(point, p: int):
    """Cell containing a point of T^N with exact rational coordinates."""
    coords = []
    for x in point:
        x = Fraction(x) % 1
        coords.append(int(x * p))  # floor: x in [c/p, (c+1)/p)
    return tuple(coords)


def complex_pairs(a) -> list:
    """Nested lists shaped like a complex array, each entry as [re, im]: the one
    wire format of complex data, read through a float view, without a copy."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


def from_complex_pairs(pairs) -> np.ndarray:
    """Exact inverse of complex_pairs, read through a float view so that
    signed zeros survive."""
    arr = np.array(pairs, dtype=np.float64)
    if arr.shape[-1:] != (2,):
        raise ValueError(f"expected [re, im] pairs, got shape {arr.shape}")
    return arr.view(np.complex128)[..., 0]


@dataclass(frozen=True)
class StepFunction:
    """Matrix-valued function on T^N constant on each cell of the 1/p grid.

    values has shape (p^N, M, M), cells in flat order.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        expected = (self.grid.num_cells, self.grid.M, self.grid.M)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(grid: GridSpec, matrix) -> "StepFunction":
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape == ():
            matrix = matrix * np.eye(grid.M)
        return StepFunction(grid, np.broadcast_to(matrix, (grid.num_cells, grid.M, grid.M)).copy())

    @staticmethod
    def zero(grid: GridSpec) -> "StepFunction":
        return StepFunction(grid, np.zeros((grid.num_cells, grid.M, grid.M)))

    @staticmethod
    def identity(grid: GridSpec) -> "StepFunction":
        return StepFunction.constant(grid, np.eye(grid.M))

    @staticmethod
    def from_cells(grid: GridSpec, cell_values) -> "StepFunction":
        """Build from a sequence of per-cell values (scalars allowed if M=1)."""
        vals = np.asarray(cell_values, dtype=np.complex128)
        if vals.ndim == 1:
            vals = vals[:, None, None]
        return StepFunction(grid, vals)

    # -- pointwise algebra -------------------------------------------------

    def _check_same_grid(self, other: "StepFunction"):
        if self.grid != other.grid:
            raise GridMismatchError(f"step functions on {self.grid} vs {other.grid}")

    def __add__(self, other: "StepFunction") -> "StepFunction":
        self._check_same_grid(other)
        return StepFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        self._check_same_grid(other)
        return StepFunction(self.grid, self.values - other.values)

    def __mul__(self, other):
        """Pointwise matrix product f*g (order preserved) or scalar scaling."""
        if isinstance(other, StepFunction):
            self._check_same_grid(other)
            return StepFunction(self.grid, self.values @ other.values)
        return StepFunction(self.grid, self.values * complex(other))

    def __rmul__(self, scalar):
        return StepFunction(self.grid, complex(scalar) * self.values)

    def adjoint(self) -> "StepFunction":
        """Cellwise conjugate transpose."""
        return StepFunction(self.grid, np.conj(np.swapaxes(self.values, 1, 2)))

    def supnorm(self) -> float:
        """Max over cells of the matrix operator (spectral) norm."""
        if self.grid.M == 1:
            return float(np.max(np.abs(self.values)))
        return float(np.max(np.linalg.norm(self.values, ord=2, axis=(1, 2))))

    # -- representation changes -------------------------------------------

    def refine(self, q: int) -> "StepFunction":
        """Re-express on the q-grid (p must divide q); same function on T^N."""
        if q == self.grid.p:
            return self
        parent = parent_index(self.grid.p, q, self.grid.N)
        return StepFunction(GridSpec(self.grid.N, self.grid.M, q), self.values[parent])

    def translate(self, shift) -> "StepFunction":
        """S(x + h*j) for an integer cell shift j (tuple of length N)."""
        return StepFunction(self.grid, self.values[shift_index(self.grid.p, self.grid.N, shift)])

    def value_at(self, point) -> np.ndarray:
        """Sample the function at an exact rational point of T^N."""
        cell = cell_of_point(point, self.grid.p)
        return self.values[flatten_cell(cell, self.grid.p)]

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {**self.grid.to_json_dict(), "values": complex_pairs(self.values)}

    @staticmethod
    def from_json_dict(d) -> "StepFunction":
        return StepFunction(GridSpec.from_json_dict(d), from_complex_pairs(d["values"]))
