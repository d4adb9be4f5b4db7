from fractions import Fraction

import numpy as np
import pytest

from finop import (
    FiniteOperator,
    GridMismatchError,
    GridSpec,
    Ladder,
    common_refine,
    embed,
    spectrum,
    to_matrix,
)

from conftest import rand_op, rand_vec


def test_embed_identity_level():
    g = GridSpec(1, 1, 2)
    D = FiniteOperator.derivative(g, 1, Fraction(1, 2))
    assert embed(D, 2) is D


def test_embed_derivative_shift_scaling():
    D = FiniteOperator.derivative(GridSpec(1, 1, 2), 1, Fraction(1, 2))
    E = embed(D, 4)
    assert set(E.terms) == {(0,), (2,)}
    assert np.all(E.terms[(2,)].values == 2.0)
    sp = spectrum(to_matrix(E))
    assert np.allclose(sp.eigenvalues, [-4.0, -4.0, 0.0, 0.0], atol=1e-12)


def test_embed_rejects_non_multiple(rng):
    with pytest.raises(GridMismatchError):
        embed(rand_op(rng, 1, 1, 2), 3)


def test_embed_action_equality(rng):
    A = rand_op(rng, 2, 2, 2)
    u = rand_vec(rng, 2, 2, 2)
    lhs = embed(A, 6).apply(u.refine(6)).values
    rhs = A.apply(u).refine(6).values
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_embed_is_unital_star_homomorphism(rng):
    A = rand_op(rng, 2, 1, 2)
    B = rand_op(rng, 2, 1, 2)
    lhs = to_matrix(embed(A.compose(B), 4)).entries
    rhs = to_matrix(embed(A, 4).compose(embed(B, 4))).entries
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)
    assert np.array_equal(
        to_matrix(embed(A.adjoint(), 4)).entries,
        to_matrix(embed(A, 4).adjoint()).entries,
    )
    ident = FiniteOperator.identity(A.grid)
    assert embed(ident, 4).to_json_dict() == FiniteOperator.identity(
        GridSpec(2, 1, 4)
    ).to_json_dict()


def test_embed_functoriality(rng):
    A = rand_op(rng, 1, 2, 2)
    assert embed(embed(A, 4), 8).to_json_dict() == embed(A, 8).to_json_dict()


def test_embed_spectrum_set_preserved_multiplicity_scaled(rng):
    for (N, p, q) in ((1, 2, 4), (2, 2, 6), (1, 3, 6)):
        A = rand_op(rng, N, 1, p)
        from finop import Spectrum

        eig = spectrum(to_matrix(A)).eigenvalues
        sp_fine = spectrum(to_matrix(embed(A, q)))
        f = (q // p) ** N
        expected = Spectrum(np.repeat(eig, f))
        tol = 1e-8 * max(np.linalg.norm(to_matrix(A).entries), 1.0)
        assert sp_fine.max_deviation(expected) <= tol


def test_embed_preserves_invertibility(rng):
    A = rand_op(rng, 1, 2, 2) + FiniteOperator.identity(GridSpec(1, 2, 2))
    s_coarse = np.linalg.svd(to_matrix(A).entries, compute_uv=False)
    s_fine = np.linalg.svd(to_matrix(embed(A, 4)).entries, compute_uv=False)
    assert (s_coarse[-1] > 1e-10) == (s_fine[-1] > 1e-10)
    assert s_fine[-1] == pytest.approx(s_coarse[-1], rel=1e-9)


def test_common_refine():
    D2 = FiniteOperator.derivative(GridSpec(1, 1, 2), 1, Fraction(1, 2))
    D3 = FiniteOperator.derivative(GridSpec(1, 1, 3), 1, Fraction(1, 3))
    A, B = common_refine(D2, D3)
    assert A.grid.p == B.grid.p == 6
    A2, B2 = common_refine(D2, D2)
    assert A2 is D2 and B2 is D2
    with pytest.raises(GridMismatchError):
        common_refine(D2, FiniteOperator.derivative(GridSpec(2, 1, 2), 1, Fraction(1, 2)))


def test_common_refine_sum_matches_oracle(rng):
    A = rand_op(rng, 1, 1, 2)
    B = rand_op(rng, 1, 1, 3)
    Ar, Br = common_refine(A, B)
    lhs = to_matrix(Ar + Br).entries
    rhs = to_matrix(Ar).entries + to_matrix(Br).entries
    assert np.array_equal(lhs, rhs)


def test_ladders():
    assert Ladder.factorial().level(3) == 6
    assert Ladder.prime_power(2).level(4) == 16
    assert Ladder.custom([2, 6, 12]).level(2) == 6
    with pytest.raises(ValueError):
        Ladder.custom([2, 6, 12]).level(4)
    with pytest.raises(ValueError):
        Ladder.custom([2, 5])  # 2 does not divide 5
    assert Ladder.parse("factorial").kind == "factorial"
    assert Ladder.parse("2^n").level(3) == 8
    assert Ladder.parse("custom:2,6,12").level(3) == 12
