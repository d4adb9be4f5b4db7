"""The finite operator algebra in canonical shift-coefficient form.

An operator acts on grid vectors by  (A u)(x) = sum_j A_j(x) u(x + h j),
with the shifts j running over Z_p^N and every coefficient A_j a step
function on the same grid.  Coefficients are stored as functions of the
unshifted argument, so compositions translate coefficients explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import GridMismatchError, RefinementHintError
from .grid import GridSpec, StepFunction, parent_index, shift_index


def _norm_shift(shift, grid: GridSpec):
    shift = tuple(int(s) % grid.p for s in shift)
    if len(shift) != grid.N:
        raise ValueError(f"shift {shift} has wrong arity for N={grid.N}")
    return shift


@dataclass(frozen=True)
class GridVector:
    """Discretized function u in L^2: M components per cell, cell-major.

    Entry index is cell_flat * M + component, in the normalized-indicator
    basis (each basis function is a cell indicator scaled to unit L^2 norm).
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.complex128))
        if vals.shape != (self.grid.dim,):
            raise ValueError(f"vector length {vals.shape} != ({self.grid.dim},)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def refine(self, q: int) -> "GridVector":
        """Same L^2 function expressed on the q-grid; norm preserved."""
        p = self.grid.p
        if q == p:
            return self
        parent = parent_index(p, q, self.grid.N)
        fine = GridSpec(self.grid.N, self.grid.M, q)
        cells = self.values.reshape(self.grid.num_cells, self.grid.M)
        scale = (1.0 / (q // p)) ** (self.grid.N / 2.0)  # indicator renormalization
        return GridVector(fine, (cells[parent] * scale).reshape(-1))


@dataclass(frozen=True)
class FiniteOperator:
    """Sparse map shift -> coefficient step function (canonical form)."""

    grid: GridSpec
    terms: dict = field(repr=False)

    def __post_init__(self):
        clean = {}
        for shift, coeff in self.terms.items():
            if coeff.grid != self.grid:
                raise GridMismatchError(f"coefficient grid {coeff.grid} != {self.grid}")
            shift = _norm_shift(shift, self.grid)
            if shift in clean:
                coeff = clean[shift] + coeff
            clean[shift] = coeff
        clean = {s: c for s, c in clean.items() if np.any(c.values != 0)}
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(grid: GridSpec) -> "FiniteOperator":
        return FiniteOperator(grid, {(0,) * grid.N: StepFunction.identity(grid)})

    @staticmethod
    def zero(grid: GridSpec) -> "FiniteOperator":
        return FiniteOperator(grid, {})

    @staticmethod
    def multiplication(S: StepFunction) -> "FiniteOperator":
        """Operator of pointwise multiplication by the step function S."""
        return FiniteOperator(S.grid, {(0,) * S.grid.N: S})

    @staticmethod
    def derivative(grid: GridSpec, axis: int, h: Fraction) -> "FiniteOperator":
        """Finite derivative along an axis: u -> (u(x + h e_axis) - u(x)) / h.

        axis is 1-based.  h must be representable as c/p on this grid;
        otherwise a RefinementHintError carries the grid that would work.
        """
        h = Fraction(h)
        if h == 0:
            raise ValueError("derivative step h must be nonzero")
        if not 1 <= axis <= grid.N:
            raise ValueError(f"axis {axis} outside 1..{grid.N}")
        c = h * grid.p
        if c.denominator != 1:
            raise RefinementHintError(
                f"step {h} is not representable on the p={grid.p} grid",
                required_p=lcm(grid.p, h.denominator),
            )
        shift = [0] * grid.N
        shift[axis - 1] = int(c)
        inv_h = 1.0 / float(h)
        return FiniteOperator(grid, {
            (0,) * grid.N: StepFunction.constant(grid, -inv_h * np.eye(grid.M)),
            tuple(shift): StepFunction.constant(grid, inv_h * np.eye(grid.M)),
        })

    # -- algebra -----------------------------------------------------------

    def _check_same_grid(self, other: "FiniteOperator"):
        if self.grid != other.grid:
            raise GridMismatchError(
                f"operators on {self.grid} vs {other.grid}; use common_refine first"
            )

    def __add__(self, other: "FiniteOperator") -> "FiniteOperator":
        self._check_same_grid(other)
        terms = dict(self.terms)
        for shift, coeff in other.terms.items():
            terms[shift] = terms[shift] + coeff if shift in terms else coeff
        return FiniteOperator(self.grid, terms)

    def __sub__(self, other: "FiniteOperator") -> "FiniteOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "FiniteOperator":
        return FiniteOperator(
            self.grid, {s: complex(scalar) * c for s, c in self.terms.items()}
        )

    def compose(self, other: "FiniteOperator") -> "FiniteOperator":
        """(A o B)_k(x) = sum_j A_j(x) B_{k-j}(x + h j), shifts mod p."""
        self._check_same_grid(other)
        p = self.grid.p
        terms = {}
        for j, Aj in self.terms.items():
            for j2, Bj2 in other.terms.items():
                k = tuple((a + b) % p for a, b in zip(j, j2))
                contrib = Aj * Bj2.translate(j)
                terms[k] = terms[k] + contrib if k in terms else contrib
        return FiniteOperator(self.grid, terms)

    __matmul__ = compose

    def adjoint(self) -> "FiniteOperator":
        """(A*)_j(x) = A_{-j}(x + h j)^*  (validated against the matrix oracle)."""
        p = self.grid.p
        terms = {}
        for j0, coeff in self.terms.items():
            j = tuple((-a) % p for a in j0)
            terms[j] = coeff.translate(j).adjoint()
        return FiniteOperator(self.grid, terms)

    def apply(self, u: GridVector) -> GridVector:
        """Act on a grid vector: out(r) = sum_j A_j(cell r) u(r + j mod p)."""
        if u.grid != self.grid:
            raise GridMismatchError(f"vector on {u.grid}, operator on {self.grid}")
        p, N = self.grid.p, self.grid.N
        cells = u.values.reshape(self.grid.num_cells, self.grid.M)
        out = np.zeros_like(cells)
        for j, coeff in self.terms.items():
            out += np.einsum("cij,cj->ci", coeff.values, cells[shift_index(p, N, j)])
        return GridVector(self.grid, out.reshape(-1))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "grid": self.grid.to_json_dict(),
            "terms": [
                {"shift": list(shift), "coeff": coeff.to_json_dict()}
                for shift, coeff in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json_dict(d) -> "FiniteOperator":
        grid = GridSpec.from_json_dict(d["grid"])
        terms = {
            tuple(t["shift"]): StepFunction.from_json_dict(t["coeff"])
            for t in d["terms"]
        }
        return FiniteOperator(grid, terms)


def build_pde(products, constant=None, grid: GridSpec | None = None) -> FiniteOperator:
    """Assemble sum_n (prod_j F_{jn}) + constant-term over a common grid.

    products is a list of factor lists (each factor a FiniteOperator, possibly
    on different grids); constant is an optional multiplication operator or
    StepFunction.  Everything is embedded on the lcm grid first.
    """
    from .refinement import embed  # local import to avoid a cycle

    factors = [f for prod in products for f in prod]
    if isinstance(constant, StepFunction):
        constant = FiniteOperator.multiplication(constant)
    if constant is not None:
        factors.append(constant)
    if not factors:
        if grid is None:
            raise ValueError("empty build_pde needs an explicit grid")
        return FiniteOperator.zero(grid)
    NMs = {(f.grid.N, f.grid.M) for f in factors}
    if len(NMs) != 1:
        raise GridMismatchError(f"mixed (N, M) among factors: {NMs}")
    p = 1
    for f in factors:
        p = lcm(p, f.grid.p)
    target = GridSpec(factors[0].grid.N, factors[0].grid.M, p)
    total = FiniteOperator.zero(target)
    for prod in products:
        if not prod:
            continue
        acc = embed(prod[0], p)
        for f in prod[1:]:
            acc = acc.compose(embed(f, p))
        total = total + acc
    if constant is not None:
        total = total + embed(constant, p)
    return total
