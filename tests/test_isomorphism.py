import dataclasses
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finop.cli
import finop.grid
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

from conftest import (assignment_deviation, generated_fop, jordan_operator, perm_matrix, rand_op,
                      rand_vec, swap_rows_in_from_matrix)


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
    # the one 1D eigensolve is at the minimal level's K0 = M (2!)^N, and no
    # matrix of size K is assembled when K0 < K
    A = rand_op(rng, N, M, 2)
    eig_sizes, norm_sizes, matrix_sizes = [], [], []
    eigvals, norm, to_matrix_ = np.linalg.eigvals, finop.matrep.RepMatrix.norm, finop.isomorphism.to_matrix

    def counted_eigvals(a):
        eig_sizes.append(len(a))
        return eigvals(a)

    def counted_norm(B):
        norm_sizes.append(B.grid.dim)
        return norm(B)

    def counted_to_matrix(op):
        matrix_sizes.append(op.grid.dim)
        return to_matrix_(op)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(finop.matrep.RepMatrix, "norm", counted_norm)
    monkeypatch.setattr(finop.isomorphism, "to_matrix", counted_to_matrix)
    res = pde_to_ode(A, level)
    K0 = M * 2**N
    assert res.K0 == K0 and res.path == ("direct" if K0 == res.K else "lift")
    assert sorted(eig_sizes) == [A.grid.dim, K0]
    assert norm_sizes == [A.grid.dim]
    assert max(matrix_sizes) == K0
    assert res.certified


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


@pytest.mark.parametrize("t", [math.inf, 1e308, math.nan])
def test_evolve_compare_rejects_a_time_that_overflows_the_plan(rng, t):
    A = rand_op(rng, 1, 1, 2)
    with pytest.raises(ValueError, match=re.escape(f"t={t}:")):
        evolve_compare(A, rand_vec(rng, 1, 1, 6), [t], 3)


def test_evolve_random(rng):
    A = rand_op(rng, 2, 1, 2)
    u0 = rand_vec(rng, 2, 1, 2)
    rep = evolve_compare(A, u0, [0.1, 1.0], 2)
    assert rep.passed
    assert all(d <= 1e-8 * u0.norm() for d in rep.discrepancies)


# (name, N, M, p, level): the frames of the benchmark's reduce cycle, the
# generated .fop operator of its cli cycle, and Jordan-block operators, whose
# clustered spectra take the assignment fallback
DEVIATION_CASES = [
    ("random", 2, 2, 2, 3), ("random", 2, 1, 2, 4), ("random", 3, 1, 3, 3),
    ("random", 3, 1, 2, 3), ("fop", 1, 1, 4, 5), ("fop", 2, 2, 6, 3),
    ("jordan", 1, 2, 4, 4), ("jordan", 2, 1, 4, 4), ("jordan", 2, 2, 2, 3),
]


@pytest.mark.parametrize("kind,N,M,p,level", DEVIATION_CASES)
def test_pde_to_ode_deviation_equals_the_assignment(kind, N, M, p, level, monkeypatch, capsys):
    # every case is an exact conjugation, so the certificate and the spectral
    # verdict pass and `conjugate` exits 0, Jordan blocks included
    rng = np.random.default_rng([N, M, p, level])
    A = {"random": rand_op, "fop": generated_fop, "jordan": jordan_operator}[kind](rng, N, M, p)
    results = []
    monkeypatch.setattr(finop.cli, "_load_operator", lambda path: (A, A.grid))
    monkeypatch.setattr(finop.cli, "pde_to_ode", lambda *args: results.append(pde_to_ode(*args))
                        or results[-1])
    assert finop.cli.main(["conjugate", "operator.fop", "--level", str(level)]) == 0
    capsys.readouterr()
    res, = results
    rep = res.spectral_report
    assert res.certified and rep.passed
    want = assignment_deviation(rep.source, rep.target)
    assert np.float64(rep.max_deviation).tobytes() == np.float64(want).tobytes()


# (N, M, p, level) frames of the *-isomorphism laws, K <= 72
LAW_FRAMES = [(1, 2, 2, 3), (2, 1, 2, 3), (2, 2, 2, 3), (1, 1, 4, 4), (3, 1, 2, 2), (1, 3, 3, 3)]


def phi(A, level):
    return pde_to_ode(A, level).ode


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(LAW_FRAMES), st.integers(0, 2**32 - 1))
def test_star_isomorphism_laws(frame, seed):
    N, M, p, level = frame
    rng = np.random.default_rng(seed)
    A, B = rand_op(rng, N, M, p), rand_op(rng, N, M, p)
    PA, PB = phi(A, level), phi(B, level)
    assert np.array_equal(to_matrix(phi(A.adjoint(), level)).entries, to_matrix(PA.adjoint()).entries)
    assert np.array_equal(to_matrix(phi(A + B, level)).entries, to_matrix(PA + PB).entries)
    lhs, rhs = to_matrix(phi(A.compose(B), level)).entries, to_matrix(PA.compose(PB)).entries
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)


# (N, M, p, level): frames whose minimal level n0 is below the level (a lift)
# or equal to it (direct), K from 72 to 576
LIFT_CASES = [(2, 2, 2, 3), (1, 2, 3, 4), (3, 1, 2, 3), (2, 1, 3, 4), (2, 1, 4, 4), (1, 1, 5, 5)]


def direct_gather(A, level):
    """The level-n 1D matrix by the dense gather B[fwd][:, fwd] at size K."""
    fwd = finop.isomorphism.build_permutation(A.grid.N, A.grid.M, level).forward
    return to_matrix(embed(A, math.factorial(level))).entries[np.ix_(fwd, fwd)]


@pytest.mark.parametrize("N,M,p,level", LIFT_CASES)
@pytest.mark.parametrize("draw", range(3))
def test_lift_equals_the_direct_gather(N, M, p, level, draw):
    A = rand_op(np.random.default_rng([N, M, p, level, draw]), N, M, p)
    res = pde_to_ode(A, level)
    assert res.K0 == M * math.factorial(finop.isomorphism._min_level(p)) ** N
    assert res.path == ("lift" if res.K0 < res.K else "direct")
    assert np.array_equal(to_matrix(res.ode).entries, direct_gather(A, level))
    assert res.certified


def heat2d_operator():
    """demos/heat2d.fop: -adj(D1) D1 - adj(D2) D2 on p = 2."""
    g = GridSpec(2, 1, 2)
    D1 = FiniteOperator.derivative(g, 1, Fraction(1, 2))
    D2 = FiniteOperator.derivative(g, 2, Fraction(1, 2))
    return (-1.0) * (D1.adjoint().compose(D1) + D2.adjoint().compose(D2))


@pytest.mark.parametrize("level", [3, 4])
def test_heat2d_lifts_from_k0_4(level):
    A = heat2d_operator()
    res = pde_to_ode(A, level)
    assert (res.K0, res.path, res.K) == (4, "lift", math.factorial(level) ** 2)
    assert np.array_equal(to_matrix(res.ode).entries, direct_gather(A, level))
    assert res.certified and res.spectral_report.passed
    assert len(res.spectral_report.source) == len(res.spectral_report.target) == res.K


# every (N, M, p, level) with K <= 576 and p | level!
SMALL_FRAMES = [(N, M, p, level) for N in (1, 2, 3) for M in (1, 2, 3) for level in range(1, 6)
                if M * math.factorial(level) ** N <= 576
                for p in range(1, math.factorial(level) + 1) if math.factorial(level) % p == 0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_FRAMES), st.integers(0, 2**32 - 1))
def test_lift_equals_the_direct_gather_on_any_small_frame(frame, seed):
    N, M, p, level = frame
    A = rand_op(np.random.default_rng(seed), N, M, p)
    res = pde_to_ode(A, level)
    assert np.array_equal(to_matrix(res.ode).entries, direct_gather(A, level))
    assert res.certified


@pytest.mark.parametrize("N,M,p,level", [(2, 1, 2, 3), (2, 2, 2, 2), (1, 2, 3, 4)])
def test_certificate_names_the_first_mismatch_of_a_swapped_row(rng, monkeypatch, capsys,
                                                                 N, M, p, level):
    A = rand_op(rng, N, M, p)
    want = direct_gather(A, level)
    swap_rows_in_from_matrix(monkeypatch)
    res = pde_to_ode(A, level)  # does not raise
    got = to_matrix(res.ode).entries
    assert not res.certified
    assert res.first_mismatch == tuple(int(k) for k in np.argwhere(got != want)[0])
    assert res.spectral_report.passed  # the spectra do not see the swap
    monkeypatch.setattr(finop.cli, "_load_operator", lambda path: (A, A.grid))
    assert finop.cli.main(["conjugate", "operator.fop", "--level", str(level),
                           "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] == {"passed": False, "first_mismatch": list(res.first_mismatch)}


def test_certificate_sees_a_dropped_and_an_added_entry(rng):
    A = rand_op(rng, 2, 1, 2)
    res = pde_to_ode(A, 3)
    A3 = embed(A, 6)
    P = res.permutation
    dropped = dict(res.ode.terms)
    shift = max(dropped)
    values = np.array(dropped[shift].values)
    k = int(np.flatnonzero(values.ravel())[-1])  # the last nonzero cell of the largest shift
    values.ravel()[k] = 0
    dropped[shift] = finop.grid.StepFunction(res.ode.grid, values)
    ode = FiniteOperator(res.ode.grid, dropped)
    want = tuple(int(x) for x in np.argwhere(to_matrix(ode).entries != direct_gather(A, 3))[0])
    assert finop.isomorphism._first_mismatch(A3, P, ode) == want
    added = res.ode + FiniteOperator(
        res.ode.grid, {(res.K - 1,): finop.grid.StepFunction.constant(res.ode.grid, 1e-300)})
    want = tuple(int(x) for x in np.argwhere(to_matrix(added).entries != direct_gather(A, 3))[0])
    assert finop.isomorphism._first_mismatch(A3, P, added) == want


def test_far_pair_rule_checks_multiplicities():
    # A = diag(0, 1) is well conditioned.  A duplicated row gives the target
    # spectrum {0, 0}: 0 is an eigenvalue of A, so t alone would pass, but
    # the midpoint 1/2 of the pair (1, 0) is far from A's spectrum.
    g = GridSpec(1, 2, 1)
    A = finop.matrep.RepMatrix(g, np.diag([0.0, 1.0]))
    rep = finop.isomorphism._spectral_report(A, finop.matrep.RepMatrix(g, np.zeros((2, 2))), 2)
    assert rep.far_pairs == 1 and rep.max_residual == pytest.approx(0.5)
    assert not rep.passed
    exact = finop.isomorphism._spectral_report(A, A, 4)
    assert (exact.far_pairs, exact.max_residual, exact.passed) == (0, 0.0, True)
    assert exact.epsilon == 10 * 2 * 2.0**-53 * 1.0
    assert len(exact.source) == len(exact.target) == 4
    assert {"epsilon", "far_pairs", "max_residual"} <= set(exact.to_json_dict())


@pytest.mark.parametrize("N,M,p,level", [(1, 2, 4, 4), (1, 1, 3, 3), (1, 3, 3, 3)])
def test_defective_conjugation_passes_by_conditioning_not_by_tolerance(N, M, p, level):
    A = jordan_operator(np.random.default_rng([N, M, p, level]), N, M, p)
    rep = pde_to_ode(A, level).spectral_report
    assert rep.max_deviation > rep.tolerance and rep.far_pairs > 0
    assert 0 < rep.max_residual <= rep.epsilon and rep.passed


def test_corrupted_1d_matrices_fail_the_spectral_verdict(rng):
    # row swap, row duplicate and a 1e-3 diagonal change of a random operator's
    # 1D matrix, on a frame with K0 = K
    A = rand_op(rng, 2, 2, 2)
    B = to_matrix(A)
    fwd = finop.isomorphism.build_permutation(2, 2, 2).forward
    Bode = B.entries[np.ix_(fwd, fwd)]
    for i, j in ((0, 1), (2, 5), (7, 3)):
        for corrupt in ("swap", "dup", "diag"):
            E = np.array(Bode)
            if corrupt == "swap":
                E[[i, j]] = E[[j, i]]
            elif corrupt == "dup":
                E[i] = E[j]
            else:
                E[i, i] += 1e-3
            rep = finop.isomorphism._spectral_report(B, finop.matrep.RepMatrix(B.grid, E), 8)
            assert not rep.passed, (corrupt, i, j)
