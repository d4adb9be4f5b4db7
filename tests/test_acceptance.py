"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from finop import (
    Spectrum,
    FiniteOperator,
    GridSpec,
    RepMatrix,
    SupernaturalNumber,
    build_permutation,
    classify,
    embed,
    evolve_compare,
    expand_digits,
    factorial_sn,
    from_matrix,
    is_car,
    lower,
    ode_to_pde,
    parse_expression,
    pde_to_ode,
    print_expression,
    spectrum,
    to_matrix,
)
from finop.dsl import Adjoint, Deriv, Identity, Mult, Product, Scale, Sum, rasterize
from finop.sampling import random_operator, random_vector
from finop.uhf import INF

from astgen import gen_expr
from conftest import all_cell_coords
from test_dsl import env_2d


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num} [{name}] PASS {detail}".rstrip())


def test_criterion_1_representation_laws():
    rng = np.random.default_rng(1)
    grids = [GridSpec(N, M, p) for N in (1, 2) for M in (1, 2) for p in (2, 3, 4, 6)]
    start = time.monotonic()
    worst_mul = 0.0
    for i in range(200):
        grid = grids[i % len(grids)]
        A = random_operator(rng, grid)
        B = random_operator(rng, grid)
        BA, BB = to_matrix(A).entries, to_matrix(B).entries
        alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        assert np.array_equal(to_matrix(alpha * A + beta * B).entries,
                              alpha * BA + beta * BB)
        assert np.array_equal(to_matrix(A.adjoint()).entries, BA.conj().T)
        dev = np.linalg.norm(to_matrix(A.compose(B)).entries - BA @ BB)
        scale = np.linalg.norm(BA, 2) * np.linalg.norm(BB, 2)
        assert dev <= 1e-12 * scale
        worst_mul = max(worst_mul, dev / scale)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, "representation laws",
           f"200 pairs, mul deviation <= {worst_mul:.2e}, {elapsed:.2f}s")


def test_criterion_2_bijectivity():
    rng = np.random.default_rng(2)
    grids = [
        GridSpec(N, M, p)
        for N in (1, 2, 3) for M in (1, 2, 3) for p in (1, 2, 3, 4, 6, 8)
        if M * p**N <= 96
    ]
    count = 0
    for grid in itertools.cycle(grids):
        A = random_operator(rng, grid, num_terms=min(4, grid.num_cells))
        assert from_matrix(to_matrix(A)).to_json_dict() == A.to_json_dict()
        K = grid.dim
        R = RepMatrix(grid, rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K)))
        assert np.array_equal(to_matrix(from_matrix(R)).entries, R.entries)
        count += 1
        if count >= 100:
            break
    report(2, "matrix bijectivity", f"{count} instances over {len(grids)} grid shapes, bit-exact")


def test_criterion_3_embedding():
    rng = np.random.default_rng(3)
    for (p, q) in ((2, 4), (2, 6), (3, 6)):
        for N, M in ((1, 2), (2, 1)):
            if M * q**N > 96:
                continue
            grid = GridSpec(N, M, p)
            A = random_operator(rng, grid)
            B = random_operator(rng, grid)
            # unital *-homomorphism against the matrix oracle
            lhs = to_matrix(embed(A.compose(B), q)).entries
            rhs = to_matrix(embed(A, q).compose(embed(B, q))).entries
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)
            assert np.array_equal(to_matrix(embed(A.adjoint(), q)).entries,
                                  to_matrix(embed(A, q).adjoint()).entries)
            assert np.array_equal(to_matrix(embed(A + B, q)).entries,
                                  to_matrix(embed(A, q)).entries + to_matrix(embed(B, q)).entries)
            ident = FiniteOperator.identity(grid)
            assert embed(ident, q).to_json_dict() == FiniteOperator.identity(
                GridSpec(N, M, q)).to_json_dict()
            # functoriality along p | q | s
            s = 12
            assert embed(embed(A, q), s).to_json_dict() == embed(A, s).to_json_dict()
            # eigenvalue set preserved, multiplicities scaled by (q/p)^N
            eig = spectrum(to_matrix(A)).eigenvalues
            sp_fine = spectrum(to_matrix(embed(A, q)))
            f = (q // p) ** N
            tol = 1e-8 * max(np.linalg.norm(to_matrix(A).entries), 1.0)
            assert sp_fine.max_deviation(Spectrum(np.repeat(eig, f))) <= tol
    report(3, "refinement embedding", "(2,4),(2,6),(3,6), K <= 96")


def test_criterion_4_digit_machinery():
    rng = np.random.default_rng(4)
    for _ in range(500):
        den = int(rng.integers(1, 10**9))
        num = int(rng.integers(0, den))
        N, M = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        exp = expand_digits(Fraction(num, den), N, M, n)
        assert 0 <= exp.residual < Fraction(1, M * math.factorial(n) ** N)
    # grid-aligned rationals terminate exactly
    for N, M, n in ((1, 2, 3), (2, 1, 3), (2, 2, 2)):
        K = M * math.factorial(n) ** N
        for k in range(K):
            assert expand_digits(Fraction(k, K), N, M, n).residual == 0
    # permutations at n <= 3 are bijections with level consistency
    for N in (1, 2):
        for M in (1, 2):
            perms = {n: build_permutation(N, M, n) for n in (1, 2, 3)}
            for P in perms.values():
                assert np.array_equal(P.inverse[P.forward], np.arange(P.size))
            for n in (1, 2):
                Pc, Pf = perms[n], perms[n + 1]
                pf_c, pf_f = math.factorial(n), math.factorial(n + 1)
                for kf in range(Pf.size):
                    cell_f, m = divmod(int(Pf.forward[kf]), M)
                    coords = []
                    rest = cell_f
                    for _ in range(N):
                        coords.append(rest % pf_f)
                        rest //= pf_f
                    flat_c = 0
                    for c in reversed(coords):
                        flat_c = flat_c * pf_c + c // (n + 1)
                    assert Pc.forward[kf // (n + 1) ** N] == flat_c * M + m
    report(4, "digit machinery", "500 rationals, bijectivity + aggregation for n <= 3")


def test_criterion_5_theorem1_transport():
    rng = np.random.default_rng(5)
    start = time.monotonic()
    cases = ([(2, M, 2) for M in (1, 2)] * 50 + [(2, 1, 3), (2, 2, 3)] * 10
             + [(1, 2, 3), (3, 1, 3)] * 10)
    assert len(cases) == 140
    for N, M, n in cases:
        pf = math.factorial(n)
        A = random_operator(rng, GridSpec(N, M, 2))
        res = pde_to_ode(A, n)
        assert res.ode.grid == GridSpec(1, 1, M * pf**N)
        assert res.certified and res.spectral_report.passed
        if (N, M, n) != (2, 1, 2):  # the one frame whose permutation is the identity
            assert not np.array_equal(res.permutation.forward, np.arange(res.K))
        B = to_matrix(embed(A, pf))
        tol = 1e-8 * max(np.linalg.norm(B.entries), 1.0)
        assert res.spectral_report.max_deviation <= tol
        back = ode_to_pde(res.ode, N, M, n)
        ref = embed(A, pf)
        assert set(back.terms) == set(ref.terms)
        scale = max(np.linalg.norm(B.entries), 1.0)
        for shift in ref.terms:
            assert np.allclose(back.terms[shift].values, ref.terms[shift].values,
                               atol=1e-13 * scale)
        s_pde = np.linalg.svd(B.entries, compute_uv=False)[-1]
        s_ode = np.linalg.svd(to_matrix(res.ode).entries, compute_uv=False)[-1]
        assert (s_pde > 1e-10) == (s_ode > 1e-10)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(5, "1D reduction transport", f"{len(cases)} operators, {elapsed:.2f}s")


def test_criterion_6_evolution():
    rng = np.random.default_rng(6)
    frames = [(2, 1, 2), (2, 1, 3), (1, 2, 3), (2, 2, 2)]
    worst = 0.0
    for N, M, n in frames:
        if (N, M, n) != (2, 1, 2):  # the one frame whose permutation is the identity
            P = build_permutation(N, M, n)
            assert not np.array_equal(P.forward, np.arange(P.size))
        for _ in range(20):
            A = random_operator(rng, GridSpec(N, M, 2))
            u0 = random_vector(rng, GridSpec(N, M, math.factorial(n)))
            rep = evolve_compare(A, u0, [0.1, 1.0], n)
            assert all(d <= 1e-8 * u0.norm() for d in rep.discrepancies)
            worst = max(worst, max(rep.discrepancies) / u0.norm())
    report(6, "evolution correspondence",
           f"{20 * len(frames)} operators over {len(frames)} frames, t in {{0.1, 1.0}}, "
           f"worst relative discrepancy {worst:.1e}")


def test_criterion_7_uhf_classification():
    universal = SupernaturalNumber(universal=True)
    two_inf = SupernaturalNumber.parse("2^inf")
    table = [
        # (N, M, base, expected exponents or "universal", expected CAR)
        (1, 1, two_inf, {2: INF}, True),
        (1, 2, two_inf, {2: INF}, True),
        (1, 4, two_inf, {2: INF}, True),
        (3, 1, two_inf, {2: INF}, True),
        (1, 3, two_inf, {2: INF, 3: 1}, False),
        (2, 3, two_inf, {2: INF, 3: 1}, False),
        (2, 6, two_inf, {2: INF, 3: 1}, False),
        (1, 1, universal, "universal", False),
        (2, 2, universal, "universal", False),
        (3, 5, universal, "universal", False),
        (1, 1, SupernaturalNumber.parse("3^2*5^1"), {3: 2, 5: 1}, False),
        (2, 2, SupernaturalNumber.parse("3^2"), {2: 1, 3: 4}, False),
    ]
    assert len(table) == 12
    for N, M, base, expected, car in table:
        got = classify(N, M, base)
        if expected == "universal":
            assert got.universal
        else:
            assert got.exponents == expected
        assert is_car(N, M, base) is car
    # Legendre's formula for n <= 12
    for n in range(1, 13):
        exps = factorial_sn(n).exponents
        for q in (2, 3, 5, 7, 11):
            legendre = sum(n // q**i for i in range(1, 12) if q**i <= n)
            assert exps.get(q, 0) == legendre
    report(7, "UHF classification", "12-case table + Legendre n <= 12")


def _shift_matrix(grid, shift):
    # independent oracle: permutation matrix of r -> r + shift on cells
    coords = all_cell_coords(grid.p, grid.N)
    nc = grid.num_cells
    S = np.zeros((nc, nc))
    for r in range(nc):
        tgt = (coords[r] + np.asarray(shift)) % grid.p
        flat = 0
        for c in tgt:
            flat = flat * grid.p + int(c)
        S[r, flat] = 1.0
    return np.kron(S, np.eye(grid.M))


def _oracle_matrix(node, env, grid):
    # independent evaluation of an AST to a dense matrix
    if isinstance(node, Identity):
        return np.eye(grid.dim, dtype=complex)
    if isinstance(node, Deriv):
        c = node.step * grid.p
        assert c.denominator == 1
        shift = [0] * grid.N
        shift[node.axis - 1] = int(c)
        return (1.0 / float(node.step)) * (
            _shift_matrix(grid, shift) - np.eye(grid.dim)
        )
    if isinstance(node, Mult):
        vals = rasterize(env[node.name], grid).values
        out = np.zeros((grid.dim, grid.dim), dtype=complex)
        for cidx in range(grid.num_cells):
            sl = slice(cidx * grid.M, (cidx + 1) * grid.M)
            out[sl, sl] = vals[cidx]
        return out
    if isinstance(node, Adjoint):
        return _oracle_matrix(node.expr, env, grid).conj().T
    if isinstance(node, Scale):
        return node.scalar * _oracle_matrix(node.expr, env, grid)
    if isinstance(node, Product):
        out = np.eye(grid.dim, dtype=complex)
        for f in node.factors:
            out = out @ _oracle_matrix(f, env, grid)
        return out
    if isinstance(node, Sum):
        return sum(_oracle_matrix(t, env, grid) for t in node.terms)
    raise TypeError(node)


def test_criterion_8_dsl():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        e = gen_expr(rng, int(rng.integers(0, 6)))
        assert parse_expression(print_expression(e)) == e
    env = env_2d()
    for _ in range(100):
        e = gen_expr(rng, 2)
        op = lower(e, env, 2, 1)
        grid = op.grid
        oracle = _oracle_matrix(e, env, grid)
        got = to_matrix(op).entries
        assert np.allclose(got, oracle, atol=1e-9 * max(np.linalg.norm(oracle), 1.0))
        # lcm grid minimality: no proper divisor of p carries every denominator
        denoms = {1} | set(_walk_denoms(e, env))
        p = grid.p
        assert p == math.lcm(*denoms)
        for d in range(1, p):
            if p % d == 0:
                # some step/breakpoint denominator does not divide d
                assert any(d % den != 0 for den in denoms)
    report(8, "operator DSL", "1000 AST round-trips, 100 lowering oracles, lcm minimal")


def _walk_denoms(expr, env):
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Deriv):
            yield node.step.denominator
        elif isinstance(node, Mult):
            for box in env[node.name].boxes:
                for lo, hi in box.intervals:
                    yield lo.denominator
                    yield hi.denominator
        elif isinstance(node, (Sum, Product)):
            stack.extend(node.terms if isinstance(node, Sum) else node.factors)
        elif isinstance(node, (Adjoint, Scale)):
            stack.append(node.expr)


def test_criterion_9_circulant_spectrum():
    worst = 0.0
    for p in range(2, 13):
        D = FiniteOperator.derivative(GridSpec(1, 1, p), 1, Fraction(1, p))
        sp = spectrum(to_matrix(D))
        expected = Spectrum([p * (np.exp(2j * np.pi * k / p) - 1) for k in range(p)])
        dev = sp.max_deviation(expected)
        assert dev <= 1e-10
        worst = max(worst, dev)
    report(9, "circulant spectrum", f"p in 2..12, max deviation {worst:.2e}")
