"""Conjugating N-dimensional matrix operators into 1D scalar operators.

The level-n cell permutation is the finite truncation of the unitary that
identifies L^2 on the interval with L^2 of vector functions on the N-torus.
Conjugating a representation matrix by it yields a spectrally identical
operator on the (N=1, M=1, p = M (n!)^N) grid, which the exact matrix
bijection converts back to shift-coefficient form.

Each entry point builds the level's permutation first: that checks the
level and the FINOP_MAX_K cap before anything of size K exists, and the
permutation's source and target grids are the level's two frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digitmap import CellPermutation, build_permutation
from .errors import GridMismatchError, RefinementHintError
from .grid import complex_pairs
from .matrep import (RepMatrix, Spectrum, expm_action, from_matrix, shift_rows, spectrum,
                     taylor_plan, to_matrix)
from .operators import FiniteOperator, GridVector
from .refinement import embed

SPECTRUM_RTOL = 1e-8
EVOLUTION_RTOL = 1e-8


@dataclass(frozen=True)
class SpectralReport:
    """Paired sorted spectra and their max pointwise deviation."""

    source: Spectrum
    target: Spectrum
    max_deviation: float
    scale: float

    @property
    def tolerance(self) -> float:
        return SPECTRUM_RTOL * max(self.scale, 1.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_json_dict(self):
        return {
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "source_spectrum": complex_pairs(self.source.eigenvalues),
            "target_spectrum": complex_pairs(self.target.eigenvalues),
        }


@dataclass(frozen=True)
class ConjugationResult:
    ode: FiniteOperator
    level: int
    permutation: CellPermutation
    spectral_report: SpectralReport

    @property
    def K(self) -> int:
        return self.ode.grid.p

    def to_json_dict(self):
        return {
            "level": self.level,
            "K": self.K,
            "ode": self.ode.to_json_dict(),
            "spectral_report": self.spectral_report.to_json_dict(),
        }


def _on_level_grid(A: FiniteOperator, P: CellPermutation) -> FiniteOperator:
    """A embedded on the n!-grid of the level-n permutation P."""
    p, pf = A.grid.p, P.target_grid.p
    if pf % p != 0:
        n = P.level
        while math.factorial(n) % p != 0:
            n += 1
        raise RefinementHintError(
            f"grid p={p} does not divide {P.level}! = {pf}; use level >= {n}",
            required_p=math.factorial(n),
        )
    return embed(A, pf)


def pde_to_ode(A: FiniteOperator, level: int) -> ConjugationResult:
    """Turn an (N, M) operator into a 1D scalar operator with the same spectrum.

    The source spectrum and norm are computed on A's own grid p: embedding
    into the n!-grid is x -> x (x) 1, which keeps the 2-norm and multiplies
    each eigenvalue's multiplicity by (n!/p)^N.  The target spectrum is the
    dense one of the K x K 1D matrix, so the report compares two eigensolver
    runs on different matrices.
    """
    P = build_permutation(A.grid.N, A.grid.M, level)
    B = to_matrix(_on_level_grid(A, P))
    Bode = RepMatrix(P.source_grid, B.entries[np.ix_(P.forward, P.forward)])
    copies = B.grid.dim // A.grid.dim  # (n!/p)^N
    A_mat = B if copies == 1 else to_matrix(A)  # embed(A, p) is A itself
    sp_src = Spectrum(np.repeat(spectrum(A_mat).eigenvalues, copies))
    sp_tgt = spectrum(Bode)
    report = SpectralReport(sp_src, sp_tgt, sp_src.max_deviation(sp_tgt), A_mat.norm())
    return ConjugationResult(from_matrix(Bode), level, P, report)


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
