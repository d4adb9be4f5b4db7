"""Supernatural numbers and UHF-algebra classification.

A supernatural number is a formal product of primes with exponents in
N ∪ {inf}; the universal one has every prime infinitely often and is kept
as a distinct symbolic value (it cannot be stored extensionally).
"""

from __future__ import annotations

from dataclasses import dataclass, field

INF = float("inf")


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# from_int trial-divides by d <= this bound only
_TRIAL_DIVISION_LIMIT = 10**6


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError where it is not exact."""
    if q < 2:
        return False
    if q >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot decide whether {q} is prime: "
                         f"primality is exact only below {_MR_EXACT_BELOW}")
    for a in _MR_BASES:
        if q % a == 0:
            return q == a
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SupernaturalNumber:
    """Either the symbolic universal value or an explicit prime -> exponent map."""

    universal: bool = False
    exponents: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.universal:
            object.__setattr__(self, "exponents", {})
            return
        clean = {}
        for q, e in self.exponents.items():
            if not _is_prime(q):
                raise ValueError(f"{q} is not prime")
            if e == INF:
                clean[q] = INF
            elif int(e) >= 1:
                clean[q] = int(e)
            elif e != 0:
                raise ValueError(f"bad exponent {e} for prime {q}")
        object.__setattr__(self, "exponents", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one() -> "SupernaturalNumber":
        return SupernaturalNumber()

    @staticmethod
    def from_int(n: int) -> "SupernaturalNumber":
        """Prime factorization of a positive integer.

        Trial division runs only up to _TRIAL_DIVISION_LIMIT; the cofactor
        left after it must be 1 or prime, or n is refused.
        """
        if n < 1:
            raise ValueError("from_int needs n >= 1")
        exps = {}
        m, d = n, 2
        while d <= _TRIAL_DIVISION_LIMIT and d * d <= m:
            while m % d == 0:
                exps[d] = exps.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            try:
                prime = _is_prime(m)
            except ValueError as exc:
                raise ValueError(f"cannot factor {n}: {exc}") from None
            if not prime:
                raise ValueError(f"cannot factor {n}: the cofactor {m} has no prime "
                                 f"factor up to {_TRIAL_DIVISION_LIMIT} and is not prime")
            exps[m] = 1
        return SupernaturalNumber(exponents=exps)

    @staticmethod
    def parse(text: str) -> "SupernaturalNumber":
        """Parse '2^inf * 3^1', 'universal', or a plain integer."""
        text = text.strip().lower()
        if text in ("universal", "u"):
            return SupernaturalNumber(universal=True)
        if text == "1":
            return SupernaturalNumber.one()
        exps = {}
        for part in text.replace(" ", "").split("*"):
            if "^" in part:
                base, exp = part.split("^")
                e = INF if exp in ("inf", "infinity", "oo") else int(exp)
            else:
                base, e = part, 1
            q = int(base)
            if e == INF or exps.get(q) == INF:
                exps[q] = INF
            else:
                exps[q] = exps.get(q, 0) + e
        return SupernaturalNumber(exponents=exps)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        if self.universal or other.universal:
            return SupernaturalNumber(universal=True)
        exps = dict(self.exponents)
        for q, e in other.exponents.items():
            cur = exps.get(q, 0)
            exps[q] = INF if INF in (cur, e) else cur + e
        return SupernaturalNumber(exponents=exps)

    def __pow__(self, n: int) -> "SupernaturalNumber":
        if n < 1:
            raise ValueError("power must be >= 1")
        if self.universal:
            return self
        return SupernaturalNumber(
            exponents={q: (INF if e == INF else e * n) for q, e in self.exponents.items()}
        )

    def divides(self, other: "SupernaturalNumber") -> bool:
        """Exponentwise <= with infinity on top; everything divides universal."""
        if other.universal:
            return True
        if self.universal:
            return False
        return all(e <= other.exponents.get(q, 0) for q, e in self.exponents.items())

    def __str__(self) -> str:
        if self.universal:
            return "universal"
        if not self.exponents:
            return "1"
        parts = []
        for q in sorted(self.exponents):
            e = self.exponents[q]
            parts.append(f"{q}^inf" if e == INF else f"{q}^{e}")
        return " * ".join(parts)


def classify(N: int, M: int, base: SupernaturalNumber) -> SupernaturalNumber:
    """Supernatural number of the (N, M) algebra over a base: M * base^N."""
    if N < 1 or M < 1:
        raise ValueError("classify needs N, M >= 1")
    return SupernaturalNumber.from_int(M) * base**N

def is_car(N: int, M: int, base: SupernaturalNumber) -> bool:
    """CAR algebra iff the base is exactly 2^inf and M is a power of two."""
    if base.universal or base.exponents != {2: INF}:
        return False
    return M & (M - 1) == 0  # power of two (M >= 1)


def factorial_sn(n: int) -> SupernaturalNumber:
    """Exact factorization of n! (Legendre: exponent of q is sum floor(n/q^i))."""
    if n < 1:
        raise ValueError("factorial_sn needs n >= 1")
    exps = {}
    for q in range(2, n + 1):
        if not _is_prime(q):
            continue
        e, power = 0, q
        while power <= n:
            e += n // power
            power *= q
        if e:
            exps[q] = e
    return SupernaturalNumber(exponents=exps)
