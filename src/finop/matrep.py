"""Exact matrix representation of the finite operator algebra.

For a grid with K = M p^N, every shift-coefficient operator A corresponds to
one K x K complex matrix built from M x M blocks indexed by cell residues
(r, j):  block(r, j) = A_{j-r mod p} evaluated on cell r.  The map is a
*-isomorphism, and it is inverted exactly: block(r, r+j mod p) recovers the
coefficient A_j on cell r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import FinopError
from .grid import GridSpec, StepFunction, complex_pairs, shift_index
from .operators import FiniteOperator


@dataclass(frozen=True)
class RepMatrix:
    """K x K matrix with the block structure of the representation."""

    grid: GridSpec
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        K = self.grid.dim
        ent = np.ascontiguousarray(np.asarray(self.entries, dtype=np.complex128))
        if ent.shape != (K, K):
            raise ValueError(f"matrix shape {ent.shape} != ({K}, {K}) for {self.grid}")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries, ord=2))

    def to_json_dict(self):
        return {"grid": self.grid.to_json_dict(), "entries": complex_pairs(self.entries)}

    def to_csv(self) -> str:
        """Interleaved re/im columns, one matrix row per line."""
        return "".join(",".join(map(repr, itertools.chain.from_iterable(complex_pairs(row))))
                       + "\n" for row in self.entries)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset, sorted by (re, im) for comparison."""

    eigenvalues: np.ndarray = field(repr=False)

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=np.complex128)
        order = np.lexsort((eig.imag, eig.real))
        eig = np.ascontiguousarray(eig[order])
        eig.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)

    def __len__(self):
        return len(self.eigenvalues)

    def max_deviation(self, other: "Spectrum") -> float:
        """Max pairwise distance under the best multiset matching.

        Plain sorted comparison mis-pairs conjugate eigenvalue pairs whose
        real parts tie up to rounding noise, so pair by minimal assignment.
        """
        import scipy.optimize  # imported here: loading scipy dominates CLI startup

        if len(self) != len(other):
            raise ValueError("spectra have different sizes")
        cost = np.abs(self.eigenvalues[:, None] - other.eigenvalues[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        return float(cost[rows, cols].max())


def to_matrix(A: FiniteOperator) -> RepMatrix:
    """Assemble the block matrix: block(r, j) = A_{j-r}(cell r)."""
    grid = A.grid
    p, N, M = grid.p, grid.N, grid.M
    nc = grid.num_cells
    blocks = np.zeros((nc, nc, M, M), dtype=np.complex128)
    rows = np.arange(nc)
    for j, coeff in A.terms.items():
        blocks[rows, shift_index(p, N, j)] += coeff.values
    entries = blocks.transpose(0, 2, 1, 3).reshape(grid.dim, grid.dim)
    return RepMatrix(grid, entries)


def from_matrix(B: RepMatrix) -> FiniteOperator:
    """Recover the unique shift-coefficient operator with this matrix."""
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


def spectrum(B: RepMatrix) -> Spectrum:
    """Eigenvalues of the representation matrix (dense solver)."""
    try:
        eig = np.linalg.eigvals(B.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise FinopError(f"eigensolver failed: {exc}") from exc
    return Spectrum(eig)


def matrix_exp(B: RepMatrix, t: float = 1.0) -> RepMatrix:
    """exp(t B) via scaling-and-squaring with Pade approximant."""
    import scipy.linalg

    ent = scipy.linalg.expm(t * B.entries)
    if not np.all(np.isfinite(ent)):
        raise FinopError(f"matrix exponential overflowed at t={t}")
    return RepMatrix(B.grid, ent)
