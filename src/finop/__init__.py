"""Finite difference operators on the torus, their exact matrix
representations, refinement embeddings, the digit-expansion unitary that
reduces N-dimensional matrix operators to 1-dimensional scalar ones, and
supernatural-number bookkeeping for the surrounding UHF algebras."""

from .errors import (
    FinopError,
    GridMismatchError,
    ParseError,
    RefinementHintError,
    SizeLimitError,
)
from .grid import GridSpec, StepFunction, flatten_cell, unflatten_cell
from .operators import FiniteOperator, GridVector, build_pde
from .matrep import RepMatrix, Spectrum, from_matrix, spectrum, to_matrix
from .refinement import Ladder, common_refine, embed
from .digitmap import (
    CellPermutation,
    DigitExpansion,
    apply_unitary,
    apply_unitary_inverse,
    bphi,
    build_permutation,
    expand_digits,
)
from .isomorphism import (
    ConjugationResult,
    EvolutionReport,
    SpectralReport,
    evolve_compare,
    ode_to_pde,
    pde_to_ode,
)
from .uhf import SupernaturalNumber, classify, factorial_sn, is_car
from .dsl import lower, lower_fop, parse_expression, parse_fop, print_expression

__version__ = "0.1.0"

__all__ = [
    "FinopError", "GridMismatchError", "ParseError", "RefinementHintError",
    "SizeLimitError", "GridSpec", "StepFunction", "flatten_cell",
    "unflatten_cell", "FiniteOperator", "GridVector", "build_pde",
    "RepMatrix", "Spectrum", "from_matrix", "spectrum", "to_matrix",
    "Ladder", "common_refine", "embed",
    "CellPermutation", "DigitExpansion", "apply_unitary",
    "apply_unitary_inverse", "bphi", "build_permutation", "expand_digits",
    "ConjugationResult", "EvolutionReport", "SpectralReport", "evolve_compare",
    "ode_to_pde", "pde_to_ode", "SupernaturalNumber", "classify", "factorial_sn",
    "is_car", "lower", "lower_fop", "parse_expression", "parse_fop",
    "print_expression",
]
