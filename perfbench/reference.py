"""Reference results the benchmark checks finop against.

Nothing here imports finop: each function recomputes a result from the
definitions in the package README, by a different method where one exists,
so that an error in the code under test cannot also hide in its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

INF = float("inf")


def digit_forward(N: int, M: int, level: int) -> np.ndarray:
    """forward[k] of the level-n cell permutation, by mixed-radix divmod.

    With K = M (n!)^N, k/K = x1/M + sum_i x_i / (M (i!)^N) means
    k = x1 (n!)^N + sum_i x_i (n!/i!)^N, so x1, x2, ..., xn are the digits of
    k in the radices M, 2^N, ..., n^N, most significant first.  Digit x_i
    names a cell of the {0..i-1}^N lattice in lexicographic order, and adds
    n!/i! times that cell's coordinates to the n!-grid cell.  forward[k] is
    that cell's flat index times M, plus x1.
    """
    pf = math.factorial(level)
    K = M * pf**N
    rest = np.arange(K, dtype=np.int64)
    coords = np.zeros((K, N), dtype=np.int64)
    for i in range(level, 1, -1):
        rest, digit = np.divmod(rest, i**N)
        weight = pf // math.factorial(i)
        for a in range(N - 1, -1, -1):
            digit, c = np.divmod(digit, i)
            coords[:, a] += c * weight
    flat = np.zeros(K, dtype=np.int64)
    for a in range(N):
        flat = flat * pf + coords[:, a]
    return flat * M + rest


def _cell_coords(p: int, N: int) -> np.ndarray:
    """(p^N, N) cell coordinates in flat order, axis 0 most significant."""
    return np.stack(np.unravel_index(np.arange(p**N), (p,) * N), axis=1)


def _flat(coords: np.ndarray, p: int) -> np.ndarray:
    return np.ravel_multi_index(tuple(coords.T), (p,) * coords.shape[1])


def dense_matrix(N: int, M: int, p: int, terms: dict, q: int) -> np.ndarray:
    """K x K matrix, K = M q^N, of u -> sum_j C_j(x) u(x + j/p) on the q-grid.

    terms maps distinct integer shifts j (mod p) to (p^N, M, M) coefficient
    arrays on the p-grid; p must divide q.  Row block r holds C_j(cell r) in
    column block r + j q/p (mod q), and a grid vector is indexed
    cell * M + component.
    """
    f = q // p
    fine = _cell_coords(q, N)
    parent = _flat(fine // f, p)
    nc = q**N
    blocks = np.zeros((nc, nc, M, M), dtype=np.complex128)
    rows = np.arange(nc)
    for shift, values in terms.items():
        cols = _flat((fine + f * np.asarray(shift)) % q, q)
        blocks[rows, cols] = values[parent]
    return blocks.transpose(0, 2, 1, 3).reshape(M * nc, M * nc)


def digits(x: Fraction, N: int, M: int, depth: int):
    """(x1, (x2..x_depth), residual) of x in [0, 1), by integer divmod."""
    scale = M * math.factorial(depth) ** N
    k = math.floor(x * scale)
    out = []
    rest = k
    for i in range(depth, 1, -1):
        rest, d = divmod(rest, i**N)
        out.append(d)
    return rest, tuple(reversed(out)), x - Fraction(k, scale)


def _factor(n: int) -> dict:
    exps, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            exps[d] = exps.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        exps[n] = exps.get(n, 0) + 1
    return exps


def supernatural(N: int, M: int, base: dict) -> dict:
    """Prime -> exponent map of M * base^N, with INF for infinite exponents."""
    out = {q: e * N for q, e in base.items()}
    for q, e in _factor(M).items():
        out[q] = out.get(q, 0) + e
    return out


def parse_supernatural(text: str) -> dict:
    """Read '2^inf * 3^2' (as finop prints it) into a prime -> exponent map."""
    out = {}
    if text.strip() == "1":
        return out
    for part in text.replace(" ", "").split("*"):
        q, e = part.split("^")
        out[int(q)] = INF if e == "inf" else int(e)
    return out
