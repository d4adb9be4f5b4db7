"""Refinement embeddings between grid levels and ladder bookkeeping.

The p-grid algebra embeds into the q-grid algebra whenever p | q: the
embedded operator is literally the same operator on L^2, re-expressed with
finer coefficients and rescaled shifts.  Ladders are divisibility chains of
grid sizes (factorial for the universal algebra, q^n for prime-power ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GridMismatchError
from .grid import GridSpec
from .operators import FiniteOperator


def embed(A: FiniteOperator, q: int) -> FiniteOperator:
    """Natural embedding onto the q-grid (p | q): identical action on L^2."""
    p = A.grid.p
    if q % p != 0:
        raise GridMismatchError(f"cannot embed p={p} into q={q}: p does not divide q")
    if q == p:
        return A
    f = q // p
    fine = GridSpec(A.grid.N, A.grid.M, q)
    terms = {
        tuple(f * s for s in shift): coeff.refine(q)
        for shift, coeff in A.terms.items()
    }
    return FiniteOperator(fine, terms)


def common_refine(A: FiniteOperator, B: FiniteOperator):
    """Embed both operators on the lcm grid; requires matching N, M."""
    if (A.grid.N, A.grid.M) != (B.grid.N, B.grid.M):
        raise GridMismatchError(
            f"(N, M) mismatch: {(A.grid.N, A.grid.M)} vs {(B.grid.N, B.grid.M)}"
        )
    p = math.lcm(A.grid.p, B.grid.p)
    return embed(A, p), embed(B, p)


@dataclass(frozen=True)
class Ladder:
    """Divisibility chain p_1 | p_2 | ... of grid sizes."""

    kind: str  # "factorial", "prime_power", or "custom"
    base: int | None = None  # prime q for prime_power ladders
    levels: tuple | None = None  # explicit chain for custom ladders

    def __post_init__(self):
        if self.kind == "prime_power":
            if self.base is None or self.base < 2:
                raise ValueError("prime_power ladder needs a base >= 2")
        elif self.kind == "custom":
            if not self.levels:
                raise ValueError("custom ladder needs explicit levels")
            levels = tuple(int(v) for v in self.levels)
            prev = None
            for v in levels:
                if v < 1 or (prev is not None and (v <= prev or v % prev != 0)):
                    raise ValueError(f"custom levels must form a divisibility chain: {levels}")
                prev = v
            object.__setattr__(self, "levels", levels)
        elif self.kind != "factorial":
            raise ValueError(f"unknown ladder kind {self.kind!r}")

    def level(self, n: int) -> int:
        """Grid size at ladder position n >= 1."""
        if n < 1:
            raise ValueError("ladder level index starts at 1")
        if self.kind == "factorial":
            return math.factorial(n)
        if self.kind == "prime_power":
            return self.base**n
        if n > len(self.levels):
            raise ValueError(f"custom ladder has only {len(self.levels)} levels")
        return self.levels[n - 1]

    @staticmethod
    def factorial() -> "Ladder":
        return Ladder("factorial")

    @staticmethod
    def prime_power(q: int) -> "Ladder":
        return Ladder("prime_power", base=q)

    @staticmethod
    def custom(levels) -> "Ladder":
        return Ladder("custom", levels=tuple(levels))

    @staticmethod
    def parse(text: str) -> "Ladder":
        """CLI syntax: 'factorial' | '2^n' | 'q^n' | 'custom:2,6,12'."""
        text = text.strip()
        if text == "factorial":
            return Ladder.factorial()
        if text.endswith("^n"):
            return Ladder.prime_power(int(text[:-2]))
        if text.startswith("custom:"):
            return Ladder.custom(int(v) for v in text[len("custom:"):].split(","))
        raise ValueError(f"cannot parse ladder spec {text!r}")
