"""Random instances for self-checks and property tests."""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, StepFunction, unflatten_cell
from .operators import FiniteOperator, GridVector


def random_step_function(rng: np.random.Generator, grid: GridSpec,
                         scale: float = 1.0) -> StepFunction:
    shape = (grid.num_cells, grid.M, grid.M)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return StepFunction(grid, scale * vals)


def random_operator(rng: np.random.Generator, grid: GridSpec,
                    num_terms: int = 3) -> FiniteOperator:
    """Operator with a few random shifts and random step coefficients."""
    terms = {}
    num_terms = min(num_terms, grid.num_cells)
    shifts = rng.choice(grid.num_cells, size=num_terms, replace=False)
    for flat in shifts:
        terms[unflatten_cell(int(flat), grid.p, grid.N)] = random_step_function(rng, grid)
    return FiniteOperator(grid, terms)


def random_vector(rng: np.random.Generator, grid: GridSpec) -> GridVector:
    vals = rng.standard_normal(grid.dim) + 1j * rng.standard_normal(grid.dim)
    return GridVector(grid, vals)
