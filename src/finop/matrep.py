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
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import FinopError, check_size
from .grid import (GridSpec, StepFunction, complex_pairs, shift_between, shift_index,
                   unflatten_cell)
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

    def matched(self, other: "Spectrum") -> np.ndarray:
        """self's eigenvalue paired with each of other's under a best multiset
        matching.

        Plain sorted comparison mis-pairs conjugate eigenvalue pairs whose
        real parts tie up to rounding noise, so pair by minimal assignment.
        Each of other's eigenvalues first gets its nearest distinct value of
        self.  If that uses every value as often as self holds it, it is a
        matching, and no matching pays less at any eigenvalue, so every
        min-sum matching pays exactly these distances.  Only a clustered
        spectrum, where it is not, solves the K x K assignment.
        """
        if len(self) != len(other):
            raise ValueError("spectra have different sizes")
        values, counts = np.unique(self.eigenvalues, return_counts=True)
        dist = np.abs(values[:, None] - other.eigenvalues[None, :])
        nearest = dist.argmin(axis=0)
        if (np.isfinite(dist).all()
                and np.array_equal(np.bincount(nearest, minlength=len(values)), counts)):
            return values[nearest]
        import scipy.optimize  # imported here: loading scipy dominates CLI startup

        cost = np.abs(self.eigenvalues[:, None] - other.eigenvalues[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        pairs = np.empty_like(other.eigenvalues)
        pairs[cols] = self.eigenvalues[rows]
        return pairs

    def max_deviation(self, other: "Spectrum") -> float:
        """Max pairwise distance under the best multiset matching (matched)."""
        return float(np.abs(self.matched(other) - other.eigenvalues).max())


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
    K = A.grid.dim
    check_size(K, "matrix")
    cols, vals = shift_rows(A)
    entries = np.zeros((K, K), dtype=np.complex128)
    entries[np.arange(K)[:, None], cols] += vals  # adds into +0.0: no negative zeros
    return RepMatrix(A.grid, entries)


def from_matrix(B: RepMatrix) -> FiniteOperator:
    """Recover the unique shift-coefficient operator with this matrix.

    Only the shifts of the nonzero entries' (row cell, column cell) pairs
    are gathered, in flat shift order, which is itertools.product order.
    """
    grid = B.grid
    p, N, M = grid.p, grid.N, grid.M
    nc = grid.num_cells
    blocks = B.entries.reshape(nc, M, nc, M).transpose(0, 2, 1, 3)
    nz_rows, nz_cols = np.nonzero(B.entries)  # -0.0 is zero here, as in a term's values
    rows = np.arange(nc)
    terms = {}
    for flat in np.unique(shift_between(p, N, nz_rows // M, nz_cols // M)):
        j = unflatten_cell(int(flat), p, N)
        terms[j] = StepFunction(grid, blocks[rows, shift_index(p, N, j)])
    return FiniteOperator(grid, terms)


def spectrum(B: RepMatrix) -> Spectrum:
    """Eigenvalues of the representation matrix (dense solver)."""
    try:
        eig = np.linalg.eigvals(B.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise FinopError(f"eigensolver failed: {exc}") from exc
    return Spectrum(eig)


# entries of the shifted copies of a matrix that one batched SVD call holds
_SVD_BATCH_ENTRIES = 1 << 18


def smallest_singular_values(B: RepMatrix, z) -> np.ndarray:
    """sigma_min(B - z I) for each z, by batched SVDs of at most
    _SVD_BATCH_ENTRIES entries, so memory stays bounded for any number of z."""
    z = np.asarray(z, dtype=np.complex128)
    K = B.grid.dim
    chunk = max(1, _SVD_BATCH_ENTRIES // (K * K))
    eye = np.eye(K)
    out = np.empty(len(z))
    for start in range(0, len(z), chunk):
        zs = z[start:start + chunk]
        shifted = B.entries - zs[:, None, None] * eye
        out[start:start + chunk] = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    return out


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
# most products of A with a vector one evolution may plan: a run time bound
MAX_PRODUCTS = 10**7


def taylor_plan(cols: np.ndarray, vals: np.ndarray, t: float) -> tuple[int, int, complex]:
    """(m, s, mu) for exp(tA) on A's row form, as in Al-Mohy & Higham (2011),
    Alg. 3.2: shift by mu = trace(A)/K, then take the least m*s with
    |t| ||A - mu I||_1 <= s theta_m.  A permutation similarity keeps all three.
    A plan of more than MAX_PRODUCTS products is refused before any step."""
    K = len(cols)
    diag = np.where(cols == np.arange(K)[:, None], vals, 0).sum(axis=1)
    mu = complex(diag.sum()) / K
    colsum = np.bincount(cols.ravel(), np.abs(vals).ravel(), minlength=K)
    norm = abs(t) * float(np.max(colsum - np.abs(diag) + np.abs(diag - mu)))
    if not math.isfinite(norm / _THETA[1]):  # else every step count below is a finite float
        raise ValueError(f"cannot evolve to t={t}: t * ||A - mu I||_1 = {norm:.6g} "
                         f"is not finite or above {sys.float_info.max * _THETA[1]:.3g}")
    if norm == 0:
        return 0, 1, mu
    s = {m: math.ceil(norm / theta) for m, theta in _THETA.items()}
    m = min(s, key=lambda m: m * s[m])
    if m * s[m] > MAX_PRODUCTS:
        raise ValueError(f"cannot evolve to t={t}: the plan needs {m * s[m]} products "
                         f"of A with a vector, above the ceiling of {MAX_PRODUCTS}")
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
