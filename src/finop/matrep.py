"""Exact matrix representation of the finite operator algebra.

For a grid with K = M p^N, every shift-coefficient operator A corresponds to
one K x K complex matrix built from M x M blocks indexed by cell residues
(r, j):  block(r, j) = A_{j-r mod p} evaluated on cell r.  The map is a
*-isomorphism, and it is inverted exactly: block(r, r+j mod p) recovers the
coefficient A_j on cell r.  A row of the matrix has T*M nonzeros for T shift
terms (shift_rows); the action exp(tA)u is computed on those rows alone.
"""

from __future__ import annotations

import itertools
import math
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


def shift_rows(A: FiniteOperator) -> tuple[np.ndarray, np.ndarray]:
    """Row form of to_matrix(A): row k holds vals[k, i] at column cols[k, i].

    Both arrays are (K, T*M) for T shift terms.  Row (r, a) of term j holds
    coefficient row A_j(r)[a, :] at the M columns of cell r + j, so the
    columns of one row are distinct.
    """
    grid = A.grid
    p, N, M = grid.p, grid.N, grid.M
    T = len(A.terms)
    cols = np.empty((grid.num_cells, M, T, M), dtype=np.int64)
    vals = np.empty((grid.num_cells, M, T, M), dtype=np.complex128)
    for t, (j, coeff) in enumerate(A.terms.items()):
        cols[:, :, t] = (shift_index(p, N, j) * M)[:, None, None] + np.arange(M)
        vals[:, :, t] = coeff.values
    return cols.reshape(grid.dim, T * M), vals.reshape(grid.dim, T * M)


def to_matrix(A: FiniteOperator) -> RepMatrix:
    """Assemble the block matrix block(r, j) = A_{j-r}(cell r) from the row form."""
    cols, vals = shift_rows(A)
    K = A.grid.dim
    entries = np.zeros((K, K), dtype=np.complex128)
    entries[np.arange(K)[:, None], cols] += vals  # adds into +0.0: no negative zeros
    return RepMatrix(A.grid, entries)


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


# theta_m of Al-Mohy & Higham (2011), Table 3.1, for unit roundoff 2^-53:
# m Taylor terms evolve exp(X) to that backward error whenever ||X||_1 <= theta_m
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.4e-4, 5: 2.4e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.0e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.0e-1,
    13: 4.0e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53


def taylor_plan(cols: np.ndarray, vals: np.ndarray, t: float) -> tuple[int, int, complex]:
    """(m, s, mu) for exp(tA) on A's row form, as in Al-Mohy & Higham (2011),
    Alg. 3.2: shift by mu = trace(A)/K, then take the least m*s with
    |t| ||A - mu I||_1 <= s theta_m.  A permutation similarity keeps all three."""
    K = len(cols)
    diag = np.where(cols == np.arange(K)[:, None], vals, 0).sum(axis=1)
    mu = complex(diag.sum()) / K
    colsum = np.bincount(cols.ravel(), np.abs(vals).ravel(), minlength=K)
    norm = abs(t) * float(np.max(colsum - np.abs(diag) + np.abs(diag - mu)))
    if norm == 0:
        return 0, 1, mu
    s = {m: math.ceil(norm / theta) for m, theta in _THETA.items()}
    m = min(s, key=lambda m: m * s[m])
    return m, s[m], mu


def expm_action(cols: np.ndarray, vals: np.ndarray, u: np.ndarray, t: float,
                plan: tuple[int, int, complex]) -> np.ndarray:
    """exp(tA) u on A's row form, by the taylor_plan of (cols, vals, t),
    without forming any K x K matrix.

    Al-Mohy & Higham (2011), Alg. 3.2: s steps, each a Taylor series of at
    most m terms that stops once two terms fall below unit roundoff.  Each
    product costs O(K T M), and every operation acts row by row, so rows
    gathered by a permutation (with u gathered alike) give the gathered
    result bit for bit under the same plan.
    """
    m, s, mu = plan
    F = b = np.array(u, dtype=np.complex128)
    eta = np.exp(t * mu / s)
    for _ in range(s):
        c1 = np.abs(b).max()
        for j in range(m):
            b = (t / (s * (j + 1))) * ((vals * b[cols]).sum(axis=1) - mu * b)
            c2 = np.abs(b).max()
            F = F + b
            if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(F).max():
                break
            c1 = c2
        if eta != 1:
            F = eta * F
        b = F
    if not np.all(np.isfinite(F)):
        raise FinopError(f"matrix exponential overflowed at t={t}")
    return F
