import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, strategies as st

from finop import (
    FiniteOperator,
    GridSpec,
    RepMatrix,
    SizeLimitError,
    StepFunction,
    embed,
    from_matrix,
    lower_fop,
    parse_fop,
    spectrum,
    to_matrix,
)

from conftest import (ANTI_DIFFUSIVE_HEAT2D, assignment_deviation, from_matrix_oracle, matrix_exp,
                      rand_op)
from finop.matrep import Spectrum, expm_action, shift_rows, taylor_plan


def deriv(p, axis=1, h=None, N=1, M=1):
    return FiniteOperator.derivative(GridSpec(N, M, p), axis, h or Fraction(1, p))


def test_to_matrix_examples():
    B = to_matrix(deriv(2))
    assert np.array_equal(B.entries.real, [[-2, 2], [2, -2]])
    g = GridSpec(1, 1, 2)
    chi = StepFunction.from_cells(g, [1, 0])
    assert np.array_equal(
        to_matrix(FiniteOperator.multiplication(chi)).entries, np.diag([1.0, 0.0])
    )
    for grid in (GridSpec(1, 1, 3), GridSpec(2, 2, 2)):
        ident = to_matrix(FiniteOperator.identity(grid))
        assert np.array_equal(ident.entries, np.eye(grid.dim))


def test_from_matrix_examples():
    g = GridSpec(1, 1, 2)
    A = from_matrix(RepMatrix(g, np.eye(2)))
    assert A.to_json_dict() == FiniteOperator.identity(g).to_json_dict()
    D = from_matrix(RepMatrix(g, np.array([[-2.0, 2.0], [2.0, -2.0]])))
    assert D.to_json_dict() == deriv(2).to_json_dict()


def test_from_matrix_rejects_bad_dimension():
    with pytest.raises(ValueError):
        RepMatrix(GridSpec(1, 3, 4), np.eye(11))


def test_random_roundtrips_bit_exact(rng):
    g = GridSpec(1, 3, 4)  # K = 12
    R = RepMatrix(g, rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    assert np.array_equal(to_matrix(from_matrix(R)).entries, R.entries)
    for grid in (GridSpec(1, 1, 8), GridSpec(2, 2, 3), GridSpec(3, 1, 2)):
        A = rand_op(rng, grid.N, grid.M, grid.p)
        back = from_matrix(to_matrix(A))
        assert back.to_json_dict() == A.to_json_dict()


def test_homomorphism_laws(rng):
    A = rand_op(rng, 2, 2, 3)
    B = rand_op(rng, 2, 2, 3)
    BA, BB = to_matrix(A).entries, to_matrix(B).entries
    alpha, beta = 1.5 - 0.5j, -2.0 + 1.0j
    lin = to_matrix(alpha * A + beta * B).entries
    assert np.array_equal(lin, alpha * BA + beta * BB)
    prod = to_matrix(A.compose(B)).entries
    scale = np.linalg.norm(BA, 2) * np.linalg.norm(BB, 2)
    assert np.linalg.norm(prod - BA @ BB) <= 1e-12 * scale
    assert np.array_equal(to_matrix(A.adjoint()).entries, BA.conj().T)


def test_spectrum_examples():
    sp = spectrum(to_matrix(deriv(2, h=Fraction(1, 2))))
    assert np.allclose(sp.eigenvalues, [-4.0, 0.0], atol=1e-12)
    ident = FiniteOperator.identity(GridSpec(2, 2, 2))
    sp = spectrum(to_matrix(ident))
    assert np.allclose(sp.eigenvalues, np.ones(8))


@pytest.mark.parametrize("p", range(2, 13))
def test_circulant_spectrum_dft_oracle(p):
    # D_{1,1/p} is circulant; the DFT diagonalizes it with values p(w^k - 1)
    from finop import Spectrum

    sp = spectrum(to_matrix(deriv(p)))
    expected = Spectrum([p * (np.exp(2j * np.pi * k / p) - 1) for k in range(p)])
    assert sp.max_deviation(expected) <= 1e-10


def test_positivity_of_a_star_a(rng):
    A = rand_op(rng, 2, 2, 2)
    sp = spectrum(to_matrix(A.adjoint().compose(A)))
    assert np.all(sp.eigenvalues.real >= -1e-10)
    assert np.all(np.abs(sp.eigenvalues.imag) <= 1e-10)


def test_matrix_exp():
    g = GridSpec(1, 1, 2)
    B = to_matrix(deriv(2))
    assert np.allclose(matrix_exp(B, 0.0).entries, np.eye(2), atol=1e-14)
    Bd = RepMatrix(g, np.diag([1.0, 0.0]))
    assert np.allclose(matrix_exp(Bd, 1.0).entries, np.diag([np.e, 1.0]), rtol=1e-12)
    for t in (0.3, 1.0, 5.0):
        e = np.exp(-4.0 * t)
        expected = 0.5 * np.array([[1 + e, 1 - e], [1 - e, 1 + e]])
        assert np.allclose(matrix_exp(B, t).entries, expected, rtol=1e-10)


def action(A, u, t):
    cols, vals = shift_rows(A)
    return expm_action(cols, vals, u, t, taylor_plan(cols, vals, t))


def assert_action_matches_oracle(A, u, t):
    got = action(A, u, t)
    want = matrix_exp(to_matrix(A), t).entries @ u
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("N,M,level", [(2, 1, 3), (1, 2, 3), (2, 2, 2)])
@pytest.mark.parametrize("t", [0.1, 1.0])
def test_expm_action_matches_dense_oracle(rng, N, M, level, t):
    A = embed(rand_op(rng, N, M, 2), math.factorial(level))
    u = rng.standard_normal(A.grid.dim) + 1j * rng.standard_normal(A.grid.dim)
    assert_action_matches_oracle(A, u, t)


@pytest.mark.parametrize("source", ["demo", "anti-diffusive"])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_expm_action_on_heat2d_matches_dense_oracle(rng, source, t):
    text = (Path(__file__).resolve().parents[1] / "demos" / "heat2d.fop").read_text() \
        if source == "demo" else ANTI_DIFFUSIVE_HEAT2D
    op, _ = lower_fop(parse_fop(text))
    A = embed(op, 24)  # level 4, K = 576
    assert_action_matches_oracle(A, rng.standard_normal(A.grid.dim), t)


def test_expm_action_at_zero_time_and_without_terms(rng):
    A = rand_op(rng, 2, 2, 3)
    u = rng.standard_normal(A.grid.dim) + 1j * rng.standard_normal(A.grid.dim)
    u[0] = -0.0
    assert action(A, u, 0.0).tobytes() == u.tobytes()
    zero = FiniteOperator.zero(GridSpec(2, 2, 3))
    cols, vals = shift_rows(zero)
    assert cols.shape == vals.shape == (zero.grid.dim, 0)
    assert np.array_equal(action(zero, u, 1.0), u)


def test_csv_and_json_export():
    B = to_matrix(deriv(2))
    csv = B.to_csv()
    assert csv.splitlines()[0] == "-2.0,0.0,2.0,0.0"
    d = B.to_json_dict()
    assert d["entries"][0][0] == [-2.0, 0.0]
    assert d["grid"] == {"N": 1, "M": 1, "p": 2}


def test_import_does_not_load_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import finop

    env = {**os.environ, "PYTHONPATH": str(Path(finop.__file__).parents[1])}
    code = "import finop, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_to_matrix_over_the_cap_raises(monkeypatch):
    A = FiniteOperator.identity(GridSpec(2, 1, 4))  # K = 16
    monkeypatch.setenv("FINOP_MAX_K", "15")
    with pytest.raises(SizeLimitError) as exc:
        to_matrix(A)
    assert "FINOP_MAX_K" in str(exc.value) and exc.value.requested == 16


def assert_same_deviation(source, target):
    """max_deviation and the assignment oracle agree bit for bit, or raise alike."""
    try:
        want = assignment_deviation(source, target)
    except ValueError as exc:
        with pytest.raises(type(exc)):
            source.max_deviation(target)
        return
    got = source.max_deviation(target)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


@st.composite
def repeated_spectra(draw):
    """(source, target): well separated values on a quarter grid, some as
    conjugate pairs with tied real parts, each repeated 1-4 times; the target
    is the source perturbed at a scale from 1e-15 to 1e-6, in shuffled order."""
    points = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(0, 12), st.booleans()),
                           min_size=1, max_size=6, unique_by=lambda t: t[:2]))
    values = []
    for re, im, paired in points:
        z = complex(re, im) / 4
        values.extend([z, z.conjugate()] if paired and im else [z])
    source = np.repeat(values, draw(st.lists(st.integers(1, 4), min_size=len(values),
                                             max_size=len(values))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-15, -6))
    noise = scale * (rng.standard_normal(len(source)) + 1j * rng.standard_normal(len(source)))
    return Spectrum(source), Spectrum(rng.permutation(source + noise))


@given(repeated_spectra())
def test_max_deviation_equals_assignment_on_repeated_spectra(spectra):
    assert_same_deviation(*spectra)


@given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 1e-6, 1e-3]))
def test_max_deviation_equals_assignment_on_clustered_spectra(K, seed, spread):
    rng = np.random.default_rng(seed)
    source = 1 + spread * (rng.standard_normal(K) + 1j * rng.standard_normal(K))
    target = source + spread * (rng.standard_normal(K) + 1j * rng.standard_normal(K))
    assert_same_deviation(Spectrum(source), Spectrum(target))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(st.lists(st.sampled_from([0.0, 1.0, 2j, -1.5, np.inf, -np.inf, complex(np.inf, 1),
                                 np.nan, complex(0, np.nan)]), min_size=2, max_size=6),
       st.integers(0, 2**32 - 1))
def test_max_deviation_on_infinite_or_nan_input_behaves_as_the_assignment(values, seed):
    rng = np.random.default_rng(seed)
    source = np.array(values, dtype=complex)
    target = rng.permutation(source)
    target[rng.integers(len(target))] = rng.choice(source)
    assert_same_deviation(Spectrum(source), Spectrum(target))
    assert_same_deviation(Spectrum(source), Spectrum(np.arange(len(source), dtype=complex)))


def test_max_deviation_solves_the_assignment_only_for_clustered_spectra(monkeypatch):
    calls = []
    solve = scipy.optimize.linear_sum_assignment

    def counted(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    repeated = Spectrum(np.repeat([0.0, 16.0, 32.0, 1 + 1j, 1 - 1j], 144))
    assert repeated.max_deviation(Spectrum(repeated.eigenvalues + 1e-12)) == pytest.approx(1e-12)
    assert calls == []
    clustered = Spectrum([16.0, 16.0 + 1e-9])
    assert clustered.max_deviation(Spectrum([16.0 + 0.9e-9, 16.0 + 3e-9])) == pytest.approx(2e-9)
    assert calls == [(2, 2)]


@st.composite
def block_matrices(draw):
    """A RepMatrix on a frame with N, M in 1..3 and K <= 27: dense, or sparse
    with a few shifts, with -0.0 at random entries and real parts."""
    N, M = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = draw(st.integers(1, {1: 18, 2: 4, 3: 2}[N] if M == 1 else {1: 6, 2: 3, 3: 2}[N]))
    grid = GridSpec(N, M, p)
    K = grid.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
    if draw(st.booleans()):  # sparse: keep the blocks of a few shifts, or of none
        B = to_matrix(FiniteOperator(grid, {
            tuple(rng.integers(p, size=N)): StepFunction(grid, rng.standard_normal((p**N, M, M)))
            for _ in range(draw(st.integers(0, 3)))}))
        entries = np.where(B.entries != 0, entries, 0.0)
    entries[rng.random((K, K)) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = -0.0
    entries.real[rng.random((K, K)) < 0.1] = -0.0
    return RepMatrix(grid, entries)


@given(block_matrices())
def test_from_matrix_equals_the_per_shift_oracle(B):
    got, want = from_matrix(B), from_matrix_oracle(B)
    assert list(got.terms) == list(want.terms)
    assert got.to_json_dict() == want.to_json_dict()
    for j in want.terms:
        assert got.terms[j].values.tobytes() == want.terms[j].values.tobytes()
    assert np.array_equal(to_matrix(got).entries, B.entries)
    assert from_matrix(RepMatrix(B.grid, np.full_like(B.entries, -0.0))).terms == {}
