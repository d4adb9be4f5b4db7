import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from finop import GridSpec, GridMismatchError, StepFunction, flatten_cell, unflatten_cell
from finop.grid import box_index, complex_pairs, from_complex_pairs, parent_index, shift_index

from conftest import rand_step


def chi_half(first_half=True):
    """Indicator of [0,1/2) (or [1/2,1)) on the p=2, N=1, M=1 grid."""
    g = GridSpec(1, 1, 2)
    vals = [1, 0] if first_half else [0, 1]
    return StepFunction.from_cells(g, vals)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 1, 1)
    g = GridSpec(2, 3, 4)
    assert g.num_cells == 16
    assert g.dim == 48
    assert g.h == Fraction(1, 4)


@given(st.integers(1, 8), st.integers(1, 3), st.data())
def test_flat_index_roundtrip(p, N, data):
    flat = data.draw(st.integers(0, p**N - 1))
    assert flatten_cell(unflatten_cell(flat, p, N), p) == flat


@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_shift_index_matches_scalar_oracle(p, N, data):
    shift = data.draw(st.lists(st.integers(-2 * p - 3, 2 * p + 3), min_size=N, max_size=N))
    expected = [
        flatten_cell([(c + s) % p for c, s in zip(unflatten_cell(r, p, N), shift)], p)
        for r in range(p**N)
    ]
    assert shift_index(p, N, shift).tolist() == expected


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
def test_parent_index_matches_scalar_oracle(p, f, N):
    q = p * f
    expected = [flatten_cell([c // f for c in unflatten_cell(r, q, N)], p) for r in range(q**N)]
    assert parent_index(p, q, N).tolist() == expected


def test_box_index_examples():
    # midpoints 1/8, 3/8, 5/8, 7/8: [1/3, 1) holds the last three
    assert box_index(4, [(Fraction(1, 3), Fraction(1))]).tolist() == [1, 2, 3]
    # [1/3, 2/5) holds neither midpoint 1/4 nor 3/4
    assert box_index(2, [(Fraction(1, 3), Fraction(2, 5))]).tolist() == []
    # axis 0 midpoints 1/6, 1/2, 5/6: the half-open [0, 1/2) keeps only the first
    half = (Fraction(0), Fraction(1, 2))
    assert box_index(3, [half, (Fraction(1, 2), Fraction(1))]).tolist() == [1, 2]
    assert box_index(3, [(Fraction(1, 2), Fraction(1, 2)), half]).tolist() == []


def test_index_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        shift_index(3, 2, (1,))
    with pytest.raises(GridMismatchError):
        parent_index(2, 3, 1)


def test_add_identity_and_partition_of_unity():
    f = chi_half()
    zero = StepFunction.zero(f.grid)
    assert np.array_equal((f + zero).values, f.values)
    total = chi_half(True) + chi_half(False)
    assert np.array_equal(total.values, StepFunction.identity(f.grid).values)
    cancel = f + (-1.0) * f
    assert np.all(cancel.values == 0)


def test_mul_identity_and_disjoint_supports():
    f = chi_half()
    assert np.array_equal((f * StepFunction.identity(f.grid)).values, f.values)
    assert np.all((chi_half(True) * chi_half(False)).values == 0)


def test_mul_matches_midpoint_sampling_oracle(rng):
    f = rand_step(rng, 1, 2, 4)
    g = rand_step(rng, 1, 2, 4)
    prod = f * g
    for c in range(4):
        mid = (Fraction(2 * c + 1, 8),)
        expected = f.value_at(mid) @ g.value_at(mid)
        assert np.allclose(prod.value_at(mid), expected, rtol=1e-13)


def test_mul_grid_mismatch_rejected(rng):
    with pytest.raises(GridMismatchError):
        rand_step(rng, 1, 1, 2) * rand_step(rng, 1, 1, 3)


def test_adjoint():
    g = GridSpec(1, 2, 2)
    nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
    f = StepFunction(g, np.stack([nilpotent, np.zeros((2, 2))]))
    fstar = f.adjoint()
    assert np.array_equal(fstar.values[0], nilpotent.conj().T)
    assert np.array_equal(fstar.adjoint().values, f.values)


def test_adjoint_antihomomorphism(rng):
    f = rand_step(rng, 2, 2, 2)
    g = rand_step(rng, 2, 2, 2)
    lhs = (f * g).adjoint()
    rhs = g.adjoint() * f.adjoint()
    assert np.allclose(lhs.values, rhs.values, rtol=1e-13)


def test_associativity_and_distributivity(rng):
    f, g, h = (rand_step(rng, 1, 2, 3) for _ in range(3))
    assert np.allclose(((f * g) * h).values, (f * (g * h)).values, rtol=1e-13)
    assert np.allclose((f * (g + h)).values, (f * g + f * h).values, rtol=1e-13)


def test_refine_identity_and_constant():
    f = chi_half()
    assert f.refine(2) is f
    const = StepFunction.constant(GridSpec(1, 1, 1), 3.0)
    fine = const.refine(2)
    assert np.all(fine.values == 3.0)


def test_refine_midpoint_oracle(rng):
    f = rand_step(rng, 2, 1, 2)
    fine = f.refine(6)
    for c0 in range(6):
        for c1 in range(6):
            mid = (Fraction(2 * c0 + 1, 12), Fraction(2 * c1 + 1, 12))
            assert np.array_equal(fine.value_at(mid), f.value_at(mid))


def test_refine_rejects_non_multiple():
    with pytest.raises(GridMismatchError):
        chi_half().refine(3)


def test_refine_is_star_homomorphism(rng):
    f = rand_step(rng, 2, 2, 2)
    g = rand_step(rng, 2, 2, 2)
    assert np.allclose((f * g).refine(4).values, (f.refine(4) * g.refine(4)).values)
    assert np.array_equal(f.adjoint().refine(4).values, f.refine(4).adjoint().values)
    assert f.refine(4).supnorm() == f.supnorm()


def test_supnorm():
    g = GridSpec(1, 1, 2)
    assert StepFunction.zero(g).supnorm() == 0.0
    assert StepFunction.identity(GridSpec(1, 3, 2)).supnorm() == 1.0
    g2 = GridSpec(1, 2, 2)
    vals = np.zeros((2, 2, 2), dtype=complex)
    vals[0] = [[0, 2], [0, 0]]
    assert StepFunction(g2, vals).supnorm() == pytest.approx(2.0)


def test_json_roundtrip(rng):
    f = rand_step(rng, 2, 2, 2)
    vals = f.values.copy()
    vals[0, 0, 0] = complex(-0.0, -0.0)
    vals[0, 0, 1] = complex(-0.0, 1.5)
    vals[3, 1, 0] = complex(2.5, -0.0)
    for g in (f, StepFunction(f.grid, vals)):
        back = StepFunction.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
        assert back.grid == g.grid
        assert back.values.tobytes() == g.values.tobytes()


def test_complex_pairs_codec():
    a = np.array([[1 + 2j, -0.0 - 0.0j], [3.5, -1j]])
    assert complex_pairs(a) == [[[1.0, 2.0], [-0.0, -0.0]], [[3.5, 0.0], [0.0, -1.0]]]
    for x in (a, a[0], a.reshape(1, 2, 2, 1)):
        back = from_complex_pairs(complex_pairs(x))
        assert back.shape == x.shape and back.tobytes() == x.tobytes()
    with pytest.raises(ValueError):
        from_complex_pairs([[1.0, 2.0, 3.0]])
