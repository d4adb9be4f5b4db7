import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from finop import (
    GridSpec,
    GridVector,
    apply_unitary,
    apply_unitary_inverse,
    bphi,
    build_permutation,
    expand_digits,
    flatten_cell,
    unflatten_cell,
)


def test_digits_zero():
    exp = expand_digits(Fraction(0), 2, 3, 4)
    assert exp.x1 == 0 and all(d == 0 for d in exp.digits)
    assert exp.residual == 0


def test_digits_examples():
    exp = expand_digits(Fraction(3, 4), 1, 2, 3)
    assert (exp.x1, exp.digits) == (1, (1, 0))
    assert exp.residual == 0
    exp = expand_digits(Fraction(5, 8), 2, 1, 3)
    assert (exp.x1, exp.digits) == (0, (2, 4))
    assert exp.residual == Fraction(1, 72)


def test_digits_rejects_out_of_range():
    with pytest.raises(ValueError):
        expand_digits(Fraction(1), 1, 1, 2)
    with pytest.raises(ValueError):
        expand_digits(Fraction(-1, 2), 1, 1, 2)


@given(
    st.integers(0, 10**6),
    st.integers(1, 10**6),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(2, 4),
)
def test_digits_residual_bound_and_reconstruction(num, den, N, M, depth):
    x = Fraction(num % den, den)
    exp = expand_digits(x, N, M, depth)
    assert 0 <= exp.x1 < M
    for i, d in enumerate(exp.digits, start=2):
        assert 0 <= d < i**N
    bound = Fraction(1, M * math.factorial(depth) ** N)
    assert 0 <= exp.residual < bound
    assert exp.partial_sum() + exp.residual == x


def test_digits_grid_points_terminate_exactly():
    N, M, n = 2, 2, 3
    K = M * math.factorial(n) ** N
    for k in range(0, K, 7):
        assert expand_digits(Fraction(k, K), N, M, n).residual == 0


def test_cell_map_examples():
    # the digit x_i names a cell of {0..i-1}^N through the grid's flat order
    assert [unflatten_cell(d, 2, 2) for d in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert unflatten_cell(2, 3, 1) == (2,)
    for i in range(2, 6):
        for N in range(1, 4):
            for d in range(i**N):
                assert flatten_cell(unflatten_cell(d, i, N), i) == d
    with pytest.raises(ValueError):
        unflatten_cell(4, 2, 2)


def test_bphi():
    assert bphi(Fraction(0), 2, 1, 3) == (Fraction(0), Fraction(0))
    assert bphi(Fraction(3, 4), 2, 1, 2) == (Fraction(1, 2), Fraction(1, 2))
    # coordinates stay inside [0,1): the tail sum telescopes below 1
    for num in range(8):
        pt = bphi(Fraction(num, 8), 2, 1, 4)
        assert all(0 <= c < 1 for c in pt)


def test_build_permutation_level_one():
    P = build_permutation(2, 3, 1)
    assert P.size == 3
    assert np.array_equal(P.forward, [0, 1, 2])  # component k, single cell


def test_build_permutation_fig1_level_two():
    P = build_permutation(2, 1, 2)
    # intervals k=0..3 land in cells (0,0),(0,1),(1,0),(1,1) of the p=2 grid
    assert np.array_equal(P.forward, [0, 1, 2, 3])


def test_permutation_bijectivity():
    for (N, M, n) in ((1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 2), (3, 1, 2)):
        P = build_permutation(N, M, n)
        assert np.array_equal(P.inverse[P.forward], np.arange(P.size))
        assert np.array_equal(P.forward[P.inverse], np.arange(P.size))


@pytest.mark.parametrize("N,M,n", [(1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2), (1, 1, 3), (2, 1, 3)])
def test_level_consistency_aggregation(N, M, n):
    # level n+1 permutation, block-aggregated, reproduces level n
    Pn = build_permutation(N, M, n)
    Pf = build_permutation(N, M, n + 1)
    pf_coarse = math.factorial(n)
    pf_fine = math.factorial(n + 1)
    for kf in range(Pf.size):
        target = Pf.forward[kf]
        cell_f, m = divmod(int(target), M)
        coords_f = []
        rest = cell_f
        for _ in range(N):
            coords_f.append(rest % pf_fine)
            rest //= pf_fine
        coords_c = [c // (n + 1) for c in reversed(coords_f)]
        flat_c = 0
        for c in coords_c:
            flat_c = flat_c * pf_coarse + c
        kc = kf // (n + 1) ** N
        assert Pn.forward[kc] == flat_c * M + m


def test_apply_unitary(rng):
    P = build_permutation(2, 2, 2)
    src = GridSpec(1, 1, P.size)
    zero = GridVector(src, np.zeros(P.size))
    assert np.all(apply_unitary(P, zero).values == 0)
    const = GridVector(src, np.ones(P.size))
    assert np.all(apply_unitary(P, const).values == 1.0)
    u = GridVector(src, rng.standard_normal(P.size) + 1j * rng.standard_normal(P.size))
    v = apply_unitary(P, u)
    # exact isometry: coordinates are permuted bit-for-bit
    assert np.array_equal(np.sort_complex(v.values), np.sort_complex(u.values))
    assert v.norm() == pytest.approx(u.norm(), rel=1e-15)
    back = apply_unitary_inverse(P, v)
    assert np.array_equal(back.values, u.values)
    basis = GridVector(src, np.eye(P.size)[3])
    image = apply_unitary(P, basis).values
    assert sorted(np.abs(image)) == [0.0] * (P.size - 1) + [1.0]


def test_apply_unitary_dimension_mismatch(rng):
    P = build_permutation(2, 1, 2)
    with pytest.raises(Exception):
        apply_unitary(P, GridVector(GridSpec(1, 1, 3), np.zeros(3)))


def test_size_cap(monkeypatch):
    monkeypatch.setenv("FINOP_MAX_K", "10")
    from finop.errors import SizeLimitError

    with pytest.raises(SizeLimitError) as exc:
        build_permutation(2, 1, 3)
    assert "FINOP_MAX_K" in str(exc.value)
