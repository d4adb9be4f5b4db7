"""Conjugating N-dimensional matrix operators into 1D scalar operators.

The level-n cell permutation is the finite truncation of the unitary that
identifies L^2 on the interval with L^2 of vector functions on the N-torus.
Conjugating a representation matrix by it yields a spectrally identical
operator on the (N=1, M=1, p = M (n!)^N) grid, which the exact matrix
bijection converts back to shift-coefficient form.

Each entry point builds the level's permutation first: that checks the
level and the FINOP_MAX_K cap before anything of size K exists, and the
permutation's source and target grids are the level's two frames.
pde_to_ode conjugates at the least level whose grid holds the operator and
embeds the result; an exact certificate checks it at the requested level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digitmap import CellPermutation, build_permutation
from .errors import GridMismatchError, RefinementHintError
from .grid import complex_pairs
from .matrep import (RepMatrix, Spectrum, expm_action, from_matrix, shift_rows,
                     smallest_singular_values, spectrum, taylor_plan, to_matrix)
from .operators import FiniteOperator, GridVector
from .refinement import embed

SPECTRUM_RTOL = 1e-8
EVOLUTION_RTOL = 1e-8
# the QR algorithm's backward error on a d x d matrix A is about d u ||A||_2,
# for unit roundoff u = 2^-53; epsilon takes ten times that
QR_BACKWARD_ERROR = 10 * 2.0**-53


@dataclass(frozen=True)
class SpectralReport:
    """Paired sorted spectra, their max pointwise deviation, and the
    conditioning test of the pairs farther apart than the tolerance.

    A far pair (s, t) is accounted for by eigenvalue conditioning when
    sigma_min(A - z I) <= epsilon at both z = t and z = (s + t) / 2: t is
    then an eigenvalue of a matrix within the eigensolver's backward error
    of A, and so is the midpoint, so the pair does not join two separated
    eigenvalues, which would break their multiplicities.  max_residual is
    the largest of those sigma_min, 0 with no far pair.
    """

    source: Spectrum
    target: Spectrum
    max_deviation: float
    scale: float
    epsilon: float
    far_pairs: int
    max_residual: float

    @property
    def tolerance(self) -> float:
        return SPECTRUM_RTOL * max(self.scale, 1.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance or self.max_residual <= self.epsilon

    def to_json_dict(self):
        return {
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "far_pairs": self.far_pairs,
            "max_residual": self.max_residual,
            "epsilon": self.epsilon,
            "passed": self.passed,
            "source_spectrum": complex_pairs(self.source.eigenvalues),
            "target_spectrum": complex_pairs(self.target.eigenvalues),
        }


@dataclass(frozen=True)
class ConjugationResult:
    """The 1D operator, its reports, and how it was built: conjugated at the
    minimal level's size K0 and embedded, or conjugated at K directly.

    first_mismatch is the first (row, col), in row-major order, where the
    1D operator's matrix differs from A's conjugated by the permutation;
    None certifies the result exactly.
    """

    ode: FiniteOperator
    level: int
    permutation: CellPermutation
    spectral_report: SpectralReport
    K0: int
    first_mismatch: tuple | None

    @property
    def K(self) -> int:
        return self.ode.grid.p

    @property
    def path(self) -> str:
        return "lift" if self.K0 < self.K else "direct"

    @property
    def certified(self) -> bool:
        return self.first_mismatch is None

    def to_json_dict(self):
        return {
            "level": self.level,
            "K": self.K,
            "K0": self.K0,
            "path": self.path,
            "certificate": {"passed": self.certified, "first_mismatch": self.first_mismatch},
            "ode": self.ode.to_json_dict(),
            "spectral_report": self.spectral_report.to_json_dict(),
        }


def _min_level(p: int) -> int:
    """The least level n with p | n!."""
    n = 1
    while math.factorial(n) % p != 0:
        n += 1
    return n


def _on_level_grid(A: FiniteOperator, P: CellPermutation) -> FiniteOperator:
    """A embedded on the n!-grid of the level-n permutation P."""
    p, pf = A.grid.p, P.target_grid.p
    if pf % p != 0:
        n = _min_level(p)
        raise RefinementHintError(
            f"grid p={p} does not divide {P.level}! = {pf}; use level >= {n}",
            required_p=math.factorial(n),
        )
    return embed(A, pf)


def _sorted_entries(cols: np.ndarray, vals: np.ndarray, index: np.ndarray, K: int):
    """Flat keys index[row] * K + index[col] of the nonzero row-form entries,
    sorted, with their values: the (row, col, value) triples in
    lexicographic order, since a row's columns are distinct."""
    nz = vals != 0  # -0.0 is zero here, as in from_matrix
    rows = np.broadcast_to(np.arange(len(cols))[:, None], cols.shape)[nz]
    keys = index[rows] * K + index[cols[nz]]
    order = np.argsort(keys)
    return keys[order], vals[nz][order]


def _first_mismatch(A_n: FiniteOperator, P: CellPermutation, ode: FiniteOperator):
    """Certificate: the first (row, col) where ode's matrix differs from A_n's
    (A on the level's n!-grid) conjugated by P, or None.

    Entry (r, c) of A_n is entry (inverse[r], inverse[c]) of the 1D matrix.
    Both sides are read through shift_rows, the 1D side through the returned
    operator's own terms, and compared as sorted triples in O(nnz log nnz).
    """
    K = P.size
    keys, vals = _sorted_entries(*shift_rows(A_n), P.inverse, K)
    ode_keys, ode_vals = _sorted_entries(*shift_rows(ode), np.arange(K), K)
    if np.array_equal(keys, ode_keys) and np.array_equal(vals, ode_vals):
        return None
    n = min(len(keys), len(ode_keys))
    differ = np.flatnonzero((keys[:n] != ode_keys[:n]) | (vals[:n] != ode_vals[:n]))
    if len(differ):  # the smaller key is the entry missing or changed on the other side
        key = min(keys[differ[0]], ode_keys[differ[0]])
    else:
        key = (keys if len(keys) > n else ode_keys)[n]
    return divmod(int(key), K)


def _spectral_report(A_mat: RepMatrix, Bode: RepMatrix, K: int) -> SpectralReport:
    """Compare A's spectrum (on its own grid, size d) with the 1D matrix's at
    size K0, the source repeated K0/d times; report both lifted to size K."""
    d, K0 = A_mat.grid.dim, Bode.grid.dim
    src = spectrum(A_mat).eigenvalues
    tgt = spectrum(Bode)
    pairs = Spectrum(np.repeat(src, K0 // d)).matched(tgt)
    dist = np.abs(pairs - tgt.eigenvalues)
    scale = A_mat.norm()
    far = dist > SPECTRUM_RTOL * max(scale, 1.0)
    t = tgt.eigenvalues[far]
    residuals = smallest_singular_values(A_mat, np.concatenate([t, (pairs[far] + t) / 2]))
    return SpectralReport(Spectrum(np.repeat(src, K // d)),
                          Spectrum(np.repeat(tgt.eigenvalues, K // K0)),
                          float(dist.max()), scale, QR_BACKWARD_ERROR * d * scale,
                          int(far.sum()), float(residuals.max(initial=0.0)))


def pde_to_ode(A: FiniteOperator, level: int) -> ConjugationResult:
    """Turn an (N, M) operator into a 1D scalar operator with the same spectrum.

    The level-n result is the conjugate at the minimal level n0 (the least
    with p | n0!), of size K0 = M (n0!)^N, embedded onto the K-grid:
    Phi_n(A) = embed(Phi_n0(A), K), as the n!-grid algebras form an
    inductive limit.  No eigensolve or dense matrix of size K is made when
    K0 < K.  The certificate then checks the returned operator against A
    conjugated at level n, exactly.

    The source spectrum and norm are computed on A's own grid p: embedding
    into the n!-grid is x -> x (x) 1, which keeps the 2-norm and multiplies
    each eigenvalue's multiplicity by (n!/p)^N.  The target spectrum is the
    dense one of the K0 x K0 1D matrix, so the report compares two
    eigensolver runs on different matrices.
    """
    N, M = A.grid.N, A.grid.M
    P = build_permutation(N, M, level)
    A_n = _on_level_grid(A, P)
    n0 = _min_level(A.grid.p)
    P0 = P if n0 == level else build_permutation(N, M, n0)
    B = to_matrix(embed(A, math.factorial(n0)))
    Bode = RepMatrix(P0.source_grid, B.entries[np.ix_(P0.forward, P0.forward)])
    ode = embed(from_matrix(Bode), P.size)
    A_mat = B if B.grid.dim == A.grid.dim else to_matrix(A)  # embed(A, p) is A itself
    report = _spectral_report(A_mat, Bode, P.size)
    return ConjugationResult(ode, level, P, report, P0.size, _first_mismatch(A_n, P, ode))


def ode_to_pde(B_op: FiniteOperator, N: int, M: int, level: int) -> FiniteOperator:
    """Inverse direction: a 1D scalar operator back to the (N, M) frame."""
    P = build_permutation(N, M, level)
    if B_op.grid != P.source_grid:
        raise GridMismatchError(f"1D operator grid {B_op.grid} != expected {P.source_grid}")
    B = to_matrix(B_op).entries
    return from_matrix(RepMatrix(P.target_grid, B[np.ix_(P.inverse, P.inverse)]))


@dataclass(frozen=True)
class EvolutionReport:
    times: tuple
    discrepancies: tuple
    tolerance: float

    @property
    def verdicts(self) -> tuple:
        return tuple(d <= self.tolerance for d in self.discrepancies)

    @property
    def passed(self) -> bool:
        return all(self.verdicts)

    def rows(self):
        return list(zip(self.times, self.discrepancies))


def evolve_compare(A: FiniteOperator, u0: GridVector, times, level: int) -> EvolutionReport:
    """Compare evolution downstairs vs. conjugated evolution upstairs.

    Checks || P^-1 exp(t B_A) u0  -  exp(t B_ode) P^-1 u0 || <= EVOLUTION_RTOL * ||u0||
    for each requested time.  Both sides are the action exp(tX)u on the rows
    of the embedded operator (matrep.expm_action); the 1D rows are those rows
    conjugated by two gathers, vals[fwd] and inverse[cols[fwd]].  With one
    plan for both sides they do the same floating-point work row for row, so
    a consistent conjugation gives a discrepancy of exactly 0.
    """
    P = build_permutation(A.grid.N, A.grid.M, level)
    if u0.grid != P.target_grid:
        raise GridMismatchError(f"u0 grid {u0.grid} incompatible with level {level}")
    cols, vals = shift_rows(_on_level_grid(A, P))
    fwd = P.forward
    ode_cols, ode_vals = P.inverse[cols[fwd]], vals[fwd]
    u = u0.values
    discrepancies = []
    for t in times:
        plan = taylor_plan(cols, vals, t)
        lhs = expm_action(cols, vals, u, t, plan)[fwd]
        rhs = expm_action(ode_cols, ode_vals, u[fwd], t, plan)
        discrepancies.append(float(np.linalg.norm(lhs - rhs)))
    return EvolutionReport(tuple(times), tuple(discrepancies), EVOLUTION_RTOL * u0.norm())
