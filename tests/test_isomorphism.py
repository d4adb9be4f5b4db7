import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import finop.isomorphism
import finop.matrep
from finop import (
    FiniteOperator,
    GridSpec,
    GridVector,
    RefinementHintError,
    SizeLimitError,
    embed,
    evolve_compare,
    ode_to_pde,
    pde_to_ode,
    spectrum,
    to_matrix,
)

from conftest import perm_matrix, rand_op, rand_vec


def test_identity_conjugates_to_identity():
    A = FiniteOperator.identity(GridSpec(2, 2, 2))
    res = pde_to_ode(A, 2)
    assert res.K == 8
    expected = FiniteOperator.identity(GridSpec(1, 1, 8))
    assert res.ode.to_json_dict() == expected.to_json_dict()
    assert res.spectral_report.max_deviation == 0.0


def test_1d_scalar_case_is_relabeling():
    D = FiniteOperator.derivative(GridSpec(1, 1, 2), 1, Fraction(1, 2))
    res = pde_to_ode(D, 2)
    assert res.ode.to_json_dict() == D.to_json_dict()


def test_2d_derivative_spectrum():
    D = FiniteOperator.derivative(GridSpec(2, 1, 2), 1, Fraction(1, 2))
    res = pde_to_ode(D, 2)
    assert res.ode.grid == GridSpec(1, 1, 4)
    assert np.allclose(
        res.spectral_report.target.eigenvalues, [-4, -4, 0, 0], atol=1e-10
    )
    assert res.spectral_report.passed


def test_grid_incompatibility_hint():
    D = FiniteOperator.derivative(GridSpec(1, 1, 5), 1, Fraction(1, 5))
    with pytest.raises(RefinementHintError) as exc:
        pde_to_ode(D, 2)
    assert exc.value.required_p == math.factorial(5)


# (N, M, level) frames whose digit permutation is not the identity
FRAMES = [(2, 2, 2), (1, 2, 3), (2, 1, 3)]


@pytest.mark.parametrize("N,M,level", FRAMES)
def test_permutation_similarity_is_definitional(rng, N, M, level):
    A = rand_op(rng, N, M, 2)
    res = pde_to_ode(A, level)
    P = res.permutation
    assert not np.array_equal(P.forward, np.arange(P.size))
    Pm = perm_matrix(P)  # dense 0/1 oracle for the index gathers
    B = to_matrix(embed(A, math.factorial(level))).entries
    Bode = to_matrix(res.ode).entries
    assert np.array_equal(Bode, Pm.T @ B @ Pm)
    back = to_matrix(ode_to_pde(res.ode, N, M, level)).entries
    assert np.array_equal(back, Pm @ Bode @ Pm.T)


@pytest.mark.parametrize("N,M,level", FRAMES)
def test_round_trip_equals_embedding(rng, N, M, level):
    A = rand_op(rng, N, M, 2)
    res = pde_to_ode(A, level)
    back = ode_to_pde(res.ode, N, M, level)
    ref = embed(A, math.factorial(level))
    assert set(back.terms) == set(ref.terms)
    for s in ref.terms:
        assert np.array_equal(back.terms[s].values, ref.terms[s].values)


@pytest.mark.parametrize("N,M,level", FRAMES)
def test_source_spectrum_and_scale_come_from_own_grid(rng, N, M, level):
    A = rand_op(rng, N, M, 2)
    rep = pde_to_ode(A, level).spectral_report
    copies = (math.factorial(level) // 2) ** N
    lifted = np.repeat(spectrum(to_matrix(A)).eigenvalues, copies)
    assert np.array_equal(rep.source.eigenvalues, lifted)
    # the scale equals the embedded operator's norm, so the tolerance is not looser
    embedded = to_matrix(embed(A, math.factorial(level)))
    assert rep.scale == pytest.approx(embedded.norm(), rel=1e-12)
    assert rep.passed


@pytest.mark.parametrize("N,M,level", FRAMES)
def test_pde_to_ode_one_k_by_k_eigensolve_and_no_k_by_k_svd(rng, monkeypatch, N, M, level):
    A = rand_op(rng, N, M, 2)
    eig_sizes, norm_sizes = [], []
    eigvals, norm = np.linalg.eigvals, finop.matrep.RepMatrix.norm

    def counted_eigvals(a):
        eig_sizes.append(len(a))
        return eigvals(a)

    def counted_norm(B):
        norm_sizes.append(B.grid.dim)
        return norm(B)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(finop.matrep.RepMatrix, "norm", counted_norm)
    res = pde_to_ode(A, level)
    assert sorted(eig_sizes) == [A.grid.dim, res.K]
    assert norm_sizes == [A.grid.dim]


def test_evolve_compare_does_no_spectral_work(rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("spectral work in evolve_compare")

    monkeypatch.setattr(finop.isomorphism, "spectrum", forbidden)
    monkeypatch.setattr(finop.matrep.RepMatrix, "norm", forbidden)
    monkeypatch.setattr(finop.matrep.Spectrum, "max_deviation", forbidden)
    A = rand_op(rng, 2, 1, 2)
    rep = evolve_compare(A, rand_vec(rng, 2, 1, 6), [0.1, 1.0], 3)
    assert len(rep.discrepancies) == 2


def test_size_cap_is_checked_before_any_matrix_is_built(rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("K-sized work started over the size cap")

    monkeypatch.setattr(finop.isomorphism, "to_matrix", forbidden)
    monkeypatch.setattr(finop.isomorphism, "shift_rows", forbidden)
    monkeypatch.setenv("FINOP_MAX_K", "100")
    A = rand_op(rng, 2, 1, 2)
    with pytest.raises(SizeLimitError):
        evolve_compare(A, rand_vec(rng, 2, 1, 24), [0.1], 4)  # K = 576
    with pytest.raises(SizeLimitError):
        pde_to_ode(A, 4)


def test_random_1d_operator_back_to_pde_keeps_spectrum(rng):
    B = rand_op(rng, 1, 1, 4)  # fits the (N=2, M=1, n=2) frame
    A = ode_to_pde(B, 2, 1, 2)
    sp_a = spectrum(to_matrix(A))
    sp_b = spectrum(to_matrix(B))
    assert sp_a.max_deviation(sp_b) <= 1e-10


def test_verify_spectrum_reports(rng):
    ident = FiniteOperator.identity(GridSpec(2, 1, 2))
    rep = pde_to_ode(ident, 2).spectral_report
    assert rep.max_deviation == 0.0 and rep.passed
    A = rand_op(rng, 2, 2, 2)
    rep = pde_to_ode(A, 2).spectral_report
    assert rep.passed
    assert rep.to_json_dict()["tolerance"] == rep.tolerance
    # self-adjoint positive case: all eigenvalues real nonnegative on both sides
    P = A.adjoint().compose(A)
    rep = pde_to_ode(P, 2).spectral_report
    assert rep.passed
    for sp in (rep.source, rep.target):
        assert np.all(sp.eigenvalues.real >= -1e-9)
        assert np.all(np.abs(sp.eigenvalues.imag) <= 1e-9)


def test_algebra_transport(rng):
    A = rand_op(rng, 2, 1, 2)
    B = rand_op(rng, 2, 1, 2)
    ode = lambda X: to_matrix(pde_to_ode(X, 2).ode).entries
    assert np.allclose(ode(A.compose(B)), ode(A) @ ode(B), rtol=1e-11)
    assert np.allclose(ode(A + B), ode(A) + ode(B), rtol=1e-13)
    assert np.allclose(ode(A.adjoint()), ode(A).conj().T, rtol=1e-13)


def test_invertibility_transport(rng):
    A = rand_op(rng, 2, 1, 2) + FiniteOperator.identity(GridSpec(2, 1, 2))
    res = pde_to_ode(A, 2)
    s_pde = np.linalg.svd(to_matrix(embed(A, 2)).entries, compute_uv=False)
    s_ode = np.linalg.svd(to_matrix(res.ode).entries, compute_uv=False)
    assert s_pde[-1] == pytest.approx(s_ode[-1], rel=1e-10)


def test_evolve_zero_time_and_kernel():
    g = GridSpec(2, 1, 2)
    D = FiniteOperator.derivative(g, 1, Fraction(1, 2))
    Dm = FiniteOperator.derivative(g, 1, Fraction(-1, 2))
    lap = (-1.0) * Dm.compose(D)  # discrete Laplacian; constants in kernel
    const = GridVector(g, np.ones(g.dim))
    rep = evolve_compare(lap, const, [0.0, 0.5], 2)
    assert rep.passed
    assert rep.discrepancies[0] == 0.0
    assert np.all(lap.apply(const).values == 0)


def _dense(cols, vals):
    K = len(cols)
    out = np.zeros((K, K), dtype=np.complex128)
    out[np.arange(K)[:, None], cols] += vals
    return out


def test_evolve_compare_matches_dense_oracle(rng, monkeypatch):
    # the rows evolve_compare evolves are B and Pm^T B Pm bit for bit, and both
    # sides do the same floating-point work, so the discrepancy is exactly 0
    evolved = []
    action = finop.isomorphism.expm_action

    def recorded(cols, vals, u, t, plan):
        evolved.append((cols, vals))
        return action(cols, vals, u, t, plan)

    monkeypatch.setattr(finop.isomorphism, "expm_action", recorded)
    for N, M, level in FRAMES:
        A = rand_op(rng, N, M, 2)
        evolved.clear()
        rep = evolve_compare(A, rand_vec(rng, N, M, math.factorial(level)), [0.1, 1.0], level)
        res = pde_to_ode(A, level)
        Pm = perm_matrix(res.permutation)
        B = to_matrix(embed(A, math.factorial(level))).entries
        ode = to_matrix(res.ode).entries
        assert np.array_equal(ode, Pm.T @ B @ Pm)
        assert len(evolved) == 4
        for k, (cols, vals) in enumerate(evolved):
            assert np.array_equal(_dense(cols, vals), B if k % 2 == 0 else ode)
        assert rep.discrepancies == (0.0, 0.0)


@pytest.mark.parametrize("N,M,level", FRAMES)
def test_evolve_compare_fails_an_inconsistent_conjugation(rng, monkeypatch, N, M, level):
    build = finop.isomorphism.build_permutation

    def swapped(*args):
        P = build(*args)
        inverse = P.inverse.copy()
        inverse[[0, 1]] = inverse[[1, 0]]
        return dataclasses.replace(P, inverse=inverse)

    monkeypatch.setattr(finop.isomorphism, "build_permutation", swapped)
    A = rand_op(rng, N, M, 2)
    rep = evolve_compare(A, rand_vec(rng, N, M, math.factorial(level)), [0.1, 1.0], level)
    assert not rep.passed
    assert all(d > rep.tolerance for d in rep.discrepancies)


def test_evolve_random(rng):
    A = rand_op(rng, 2, 1, 2)
    u0 = rand_vec(rng, 2, 1, 2)
    rep = evolve_compare(A, u0, [0.1, 1.0], 2)
    assert rep.passed
    assert all(d <= 1e-8 * u0.norm() for d in rep.discrepancies)
