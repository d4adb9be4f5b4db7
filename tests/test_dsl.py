from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from finop import (
    FiniteOperator,
    GridSpec,
    ParseError,
    StepFunction,
    lower,
    lower_fop,
    parse_expression,
    parse_fop,
    print_expression,
    to_matrix,
    unflatten_cell,
)
from finop.dsl import (
    Adjoint,
    Box,
    CoeffDef,
    Deriv,
    Identity,
    Mult,
    Product,
    Scale,
    Sum,
    rasterize,
    select_grid,
)

from astgen import gen_expr


def env_2d(M=1):
    """Two coefficients with breakpoints at halves and thirds."""
    eye = np.eye(M, dtype=complex)
    half = (Fraction(0), Fraction(1, 2))
    third = (Fraction(1, 3), Fraction(1))
    full = (Fraction(0), Fraction(1))
    return {
        "S": CoeffDef("S", (Box((half, full), eye), Box((third, half), 2 * eye))),
        "T": CoeffDef("T", (Box((full, third), 1j * eye),)),
    }


def test_parse_examples():
    assert parse_expression("D(1,1/2)") == Deriv(1, Fraction(1, 2))
    e = parse_expression("M(S)*D(1,1/2) + M(T)")
    assert e == Sum((Product((Mult("S"), Deriv(1, Fraction(1, 2)))), Mult("T")))
    assert parse_expression("I") == Identity()
    assert parse_expression("adj(M(S))") == Adjoint(Mult("S"))
    assert parse_expression("(2+0i) * D(1,1/2)") == Scale(
        complex(2, 0), Deriv(1, Fraction(1, 2))
    )
    assert parse_expression("-M(S)") == Scale(complex(-1), Mult("S"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("D(1,)")
    assert exc.value.line == 1 and exc.value.col == 5
    with pytest.raises(ParseError):
        parse_expression("M(S) +")
    with pytest.raises(ParseError):
        parse_expression("D(1,0)")  # zero step


def test_print_canonical_form():
    assert print_expression(Scale(complex(2, 0), Deriv(1, Fraction(1, 2)))) == (
        "(2+0i) * D(1,1/2)"
    )
    assert print_expression(parse_expression("M(S)*D(1,1/2) + M(T)")) == (
        "M(S) * D(1,1/2) + M(T)"
    )


def test_parse_print_roundtrip_on_examples():
    for src in ("D(1,1/2)", "M(S)*D(1,1/2) + M(T)", "adj(M(S) + I) * D(2,-1/3)"):
        e = parse_expression(src)
        assert parse_expression(print_expression(e)) == e


def test_parse_print_roundtrip_random_asts():
    rng = np.random.default_rng(7)
    for _ in range(300):
        e = gen_expr(rng, int(rng.integers(0, 6)))
        assert parse_expression(print_expression(e)) == e


def test_select_grid_lcm():
    env = env_2d()
    grid = select_grid(parse_expression("D(1,1/2)*D(1,1/3)"), env, 1, 1)
    assert grid.p == 6
    grid = select_grid(parse_expression("M(S)"), env, 2, 1)
    assert grid.p == 6  # box endpoints at halves and thirds
    grid = select_grid(parse_expression("I"), env, 2, 2)
    assert grid.p == 1


def test_select_grid_errors():
    with pytest.raises(ValueError):
        select_grid(parse_expression("D(3,1/2)"), {}, 2, 1)
    with pytest.raises(ValueError):
        select_grid(parse_expression("M(U)"), {}, 1, 1)
    with pytest.raises(ValueError):
        select_grid(parse_expression("M(S)"), env_2d(M=2), 2, 1)  # M mismatch


def test_rasterize_painter_vs_sum():
    full = (Fraction(0), Fraction(1))
    half = (Fraction(0), Fraction(1, 2))
    one = np.eye(1, dtype=complex)
    paint = CoeffDef("c", (Box((full,), one), Box((half,), 3 * one)))
    summed = CoeffDef("c", paint.boxes, mode="sum")
    from finop import GridSpec

    g = GridSpec(1, 1, 2)
    assert np.array_equal(rasterize(paint, g).values.ravel(), [3, 1])
    assert np.array_equal(rasterize(summed, g).values.ravel(), [4, 1])


def test_rasterize_matches_midpoint_oracle():
    env = env_2d()
    from finop import GridSpec

    g = GridSpec(2, 1, 6)
    S = rasterize(env["S"], g)
    for c0 in range(6):
        for c1 in range(6):
            mid = (Fraction(2 * c0 + 1, 12), Fraction(2 * c1 + 1, 12))
            expected = 0.0
            for box in env["S"].boxes:  # painter's order: last covering wins
                if all(lo <= m < hi for m, (lo, hi) in zip(mid, box.intervals)):
                    expected = box.value[0, 0]
            assert S.value_at(mid)[0, 0] == expected


@st.composite
def box_sets(draw):
    """(CoeffDef, GridSpec) with boxes on denominators up to 15 and a grid
    they are in general not aligned to."""
    N = draw(st.integers(1, 3))
    grid = GridSpec(N, draw(st.integers(1, 2)), draw(st.integers(1, 14 if N < 3 else 7)))
    ends = st.lists(st.fractions(0, 1, max_denominator=15), min_size=2, max_size=2,
                    unique=True).map(sorted).map(tuple)
    boxes = []
    for _ in range(draw(st.integers(0, 4))):
        intervals = tuple(draw(ends) for _ in range(N))
        entries = draw(st.lists(st.integers(-3, 3), min_size=2 * grid.M**2,
                                max_size=2 * grid.M**2))
        value = np.array(entries[::2]) + 1j * np.array(entries[1::2])
        boxes.append(Box(intervals, value.reshape(grid.M, grid.M)))
    mode = draw(st.sampled_from(["paint", "sum"]))
    return CoeffDef("c", tuple(boxes), mode), grid


@given(box_sets())
def test_rasterize_matches_per_cell_midpoint_oracle(case):
    cdef, grid = case
    expected = np.zeros((grid.num_cells, grid.M, grid.M), dtype=complex)
    for flat in range(grid.num_cells):
        mid = [Fraction(2 * c + 1, 2 * grid.p) for c in unflatten_cell(flat, grid.p, grid.N)]
        for box in cdef.boxes:
            if all(lo <= m < hi for m, (lo, hi) in zip(mid, box.intervals)):
                expected[flat] = expected[flat] + box.value if cdef.mode == "sum" else box.value
    assert np.array_equal(rasterize(cdef, grid).values, expected)


def test_rasterize_rejects_box_of_wrong_dimension():
    cdef = CoeffDef("c", (Box(((Fraction(0), Fraction(1)),), np.eye(1)),))
    with pytest.raises(ValueError, match="1-D box, N=2"):
        rasterize(cdef, GridSpec(2, 1, 2))


def test_lower_examples():
    op = lower(parse_expression("I"), {}, 2, 2)
    assert op.grid.p == 1
    assert op.to_json_dict() == FiniteOperator.identity(op.grid).to_json_dict()

    op = lower(parse_expression("D(1,1/2)*D(1,1/3)"), {}, 1, 1)
    assert op.grid.p == 6
    from finop import GridSpec, embed

    D2 = FiniteOperator.derivative(GridSpec(1, 1, 2), 1, Fraction(1, 2))
    D3 = FiniteOperator.derivative(GridSpec(1, 1, 3), 1, Fraction(1, 3))
    oracle = embed(D2, 6).compose(embed(D3, 6))
    assert np.allclose(to_matrix(op).entries, to_matrix(oracle).entries, rtol=1e-13)


def test_lower_homomorphism_random():
    rng = np.random.default_rng(21)
    env = env_2d()
    for _ in range(25):
        a = gen_expr(rng, 2)
        b = gen_expr(rng, 2)
        from finop import common_refine

        la, lb = common_refine(lower(a, env, 2, 1), lower(b, env, 2, 1))
        ls = lower(Sum((a, b)), env, 2, 1)
        ls_r, sum_r = common_refine(ls, la + lb)
        assert np.allclose(to_matrix(ls_r).entries, to_matrix(sum_r).entries,
                           atol=1e-10 * max(1.0, np.linalg.norm(to_matrix(sum_r).entries)))
        lp = lower(Product((a, b)), env, 2, 1)
        lp_r, prod_r = common_refine(lp, la.compose(lb))
        assert np.allclose(to_matrix(lp_r).entries, to_matrix(prod_r).entries,
                           atol=1e-9 * max(1.0, np.linalg.norm(to_matrix(prod_r).entries)))


def test_fop_file():
    src = """
    # a 2D operator with a step coefficient
    N = 2
    M = 1
    coeff S {
        box [0,1/2) x [0,1) = [[1]]
    }
    operator { M(S) * D(1,1/2) + M(S) }
    """
    f = parse_fop(src)
    assert (f.N, f.M) == (2, 1)
    op, grid = lower_fop(f)
    assert grid.p == 2
    S = rasterize(f.coeffs["S"], grid)
    D = FiniteOperator.derivative(grid, 1, Fraction(1, 2))
    oracle = FiniteOperator.multiplication(S).compose(D) + FiniteOperator.multiplication(S)
    assert np.allclose(to_matrix(op).entries, to_matrix(oracle).entries, rtol=1e-13)


def test_fop_matrix_values():
    src = """
    M = 2
    coeff A { box [0,1) = [[1, 2+1i], [0, -1-1i]] }
    operator { M(A) }
    """
    op, grid = lower_fop(parse_fop(src))
    assert grid.M == 2 and grid.p == 1
    vals = op.terms[(0,)].values[0]
    assert vals[0, 1] == complex(2, 1)
    assert vals[1, 1] == complex(-1, -1)


def test_fop_missing_operator_block():
    with pytest.raises(ParseError):
        parse_fop("N = 2")
