import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

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

from conftest import ANTI_DIFFUSIVE_HEAT2D, matrix_exp, rand_op
from finop.matrep import expm_action, shift_rows, taylor_plan


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
