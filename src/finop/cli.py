"""Command-line interface: repr | conjugate | spectrum | evolve | classify |
digits | verify.

JSON is the machine format, aligned tables the human format (--format).
FINOP_MAX_K caps the size K of any matrix or permutation. Exit code 0 means
every requested check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .digitmap import build_permutation, expand_digits
from .errors import DEFAULT_MAX_K, FinopError, check_size
from .grid import GridSpec, complex_pairs
from .isomorphism import evolve_compare, pde_to_ode
from .matrep import RepMatrix, from_matrix, spectrum, to_matrix
from .refinement import embed
from .sampling import random_operator, random_vector
from .uhf import SupernaturalNumber, classify, is_car
from .dsl import lower_fop, parse_fop, select_grid


def _read_fop(path: str):
    """The parsed .fop file and its minimal grid, before anything is lowered."""
    with open(path, encoding="utf-8") as fh:
        fop = parse_fop(fh.read())
    return fop, select_grid(fop.expr, fop.coeffs, fop.N, fop.M)


def _load_operator(path: str):
    """Lower a .fop file once its minimal grid is known to fit the size cap."""
    fop, grid = _read_fop(path)
    check_size(grid.dim, "matrix")
    return lower_fop(fop)


def _emit(args, payload: dict, table_lines):
    if args.format == "json":
        payload = {"version": __version__, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


# ---------------------------------------------------------------------------

def cmd_repr(args) -> int:
    if args.grid_info:
        grid = _read_fop(args.file)[1]
        print(f"N={grid.N} M={grid.M} p={grid.p} K={grid.dim}")
        return 0
    B = to_matrix(_load_operator(args.file)[0])
    if args.format == "csv":
        sys.stdout.write(B.to_csv())
    else:
        _emit(args, B.to_json_dict(),
              ("  ".join(f"{z.real:+.6g}{z.imag:+.6g}i" for z in row) for row in B.entries))
    return 0


def cmd_spectrum(args) -> int:
    op, _ = _load_operator(args.file)
    eig = spectrum(to_matrix(op)).eigenvalues
    payload = {"eigenvalues": complex_pairs(eig)}
    table = [f"{z.real:+.12g}  {z.imag:+.12g}i" for z in eig]
    _emit(args, payload, table)
    return 0


def cmd_conjugate(args) -> int:
    op, _ = _load_operator(args.file)
    result = pde_to_ode(op, args.level)
    payload = result.to_json_dict()
    rep = result.spectral_report
    route = (f"lift from K0={result.K0} to K={result.K}" if result.path == "lift"
             else f"direct at K={result.K}")
    table = [
        f"level {result.level}: K={result.K}",
        f"{route}; certificate "
        + ("PASS" if result.certified else f"FAIL at (row, col) = {result.first_mismatch}"),
        f"spectral deviation {rep.max_deviation:.3e} (tol {rep.tolerance:.3e}); "
        f"{rep.far_pairs} far pairs, sigma_min {rep.max_residual:.3e} "
        f"(eps {rep.epsilon:.3e}) -> {'PASS' if rep.passed else 'FAIL'}",
        f"1D operator has {len(result.ode.terms)} shift terms on p={result.ode.grid.p}",
    ]
    _emit(args, payload, table)
    return 0 if result.certified and rep.passed else 1


def cmd_evolve(args) -> int:
    op, grid = _load_operator(args.file)
    times = [float(t) for t in args.times.split(",")]
    fine = GridSpec(grid.N, grid.M, math.factorial(args.level))
    check_size(fine.dim, "permutation")  # u0 lives on the permutation's grid
    u0 = random_vector(np.random.default_rng(args.seed), fine)
    report = evolve_compare(op, u0, times, args.level)
    print("t,discrepancy,pass")
    for (t, d), ok in zip(report.rows(), report.verdicts):
        print(f"{t},{d!r},{'PASS' if ok else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_classify(args) -> int:
    base = SupernaturalNumber.parse(args.base)
    sn = classify(args.N, args.M, base)
    car = is_car(args.N, args.M, base)
    payload = {"supernatural_number": str(sn), "car": car}
    _emit(args, payload, [f"{sn}, CAR: {str(car).lower()}"])
    return 0


def cmd_digits(args) -> int:
    x = Fraction(args.x)
    exp = expand_digits(x, args.N, args.M, args.depth)
    parts = [f"x1={exp.x1}"] + [
        f"x{i}={d}" for i, d in enumerate(exp.digits, start=2)
    ]
    payload = {
        "x": str(x), "N": args.N, "M": args.M, "depth": args.depth,
        "x1": exp.x1, "digits": list(exp.digits), "residual": str(exp.residual),
    }
    _emit(args, payload, [", ".join(parts), f"residual={exp.residual}"])
    return 0


# ---------------------------------------------------------------------------

# (N, M, level) frames of the verify conjugation check; none has the identity
# as its digit permutation, so the check can fail.  Each operator is drawn on
# the level's n!-grid, so the minimal level is the level itself.
SPECTRUM_CHECK_FRAMES = ((2, 1, 3), (2, 2, 2))


def _verify_checks(seed: int):
    """Randomized invariant suite; yields (name, passed, detail)."""
    rng = np.random.default_rng(seed)

    def rand_pair(grid):
        return random_operator(rng, grid), random_operator(rng, grid)

    grids = [GridSpec(1, 1, 4), GridSpec(2, 2, 3), GridSpec(1, 2, 6), GridSpec(2, 1, 4)]

    worst = 0.0
    for grid in grids:
        for _ in range(5):
            A, B = rand_pair(grid)
            BA, BB = to_matrix(A).entries, to_matrix(B).entries
            scale = max(np.linalg.norm(BA) * np.linalg.norm(BB), 1.0)
            worst = max(worst,
                        np.linalg.norm(to_matrix(A + B).entries - BA - BB),
                        np.linalg.norm(to_matrix(A.compose(B)).entries - BA @ BB) / scale,
                        np.linalg.norm(to_matrix(A.adjoint()).entries - BA.conj().T))
    yield "representation laws (+, o, *)", worst <= 1e-12, f"max deviation {worst:.2e}"

    ok = True
    for grid in grids:
        A = random_operator(rng, grid)
        ok &= from_matrix(to_matrix(A)).to_json_dict() == A.to_json_dict()
        R = RepMatrix(grid, rng.standard_normal((grid.dim, grid.dim))
                      + 1j * rng.standard_normal((grid.dim, grid.dim)))
        ok &= bool(np.array_equal(to_matrix(from_matrix(R)).entries, R.entries))
    yield "matrix round-trips (bit-exact)", ok, "to/from matrix both directions"

    worst = 0.0
    for p, q in ((2, 4), (2, 6), (3, 6)):
        grid = GridSpec(2, 1, p)
        A, B = rand_pair(grid)
        lhs = to_matrix(embed(A.compose(B), q)).entries
        rhs = to_matrix(embed(A, q).compose(embed(B, q))).entries
        scale = max(np.linalg.norm(lhs), 1.0)
        worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    yield "embedding *-homomorphism", worst <= 1e-12, f"max deviation {worst:.2e}"

    ok = True
    for (N, M, n) in ((1, 2, 3), (2, 1, 3), (2, 2, 2)):
        P = build_permutation(N, M, n)
        ok &= bool(np.array_equal(P.inverse[P.forward], np.arange(P.size)))
    yield "permutation bijectivity", ok, "forward/inverse compose to identity"

    results = [pde_to_ode(random_operator(rng, GridSpec(N, M, math.factorial(level))), level)
               for N, M, level in SPECTRUM_CHECK_FRAMES]
    reports = [res.spectral_report for res in results]
    worst = max(rep.max_deviation / max(rep.scale, 1.0) for rep in reports)
    yield ("conjugation spectrum equality",
           all(res.certified and res.spectral_report.passed for res in results),
           f"certified; max relative deviation {worst:.2e}"
           if all(res.certified for res in results) else "certificate FAIL")


def cmd_verify(args) -> int:
    results = list(_verify_checks(args.seed))
    ok = all(passed for _, passed, _ in results)
    payload = {
        "seed": args.seed, "passed": bool(ok),
        "checks": [{"name": n, "passed": bool(p), "detail": d} for n, p, d in results],
    }
    width = max(len(n) for n, _, _ in results)
    table = [f"verify (seed={args.seed})",
             *(f"  {n:<{width}}  {'PASS' if p else 'FAIL'}  {d}" for n, p, d in results),
             f"overall: {'PASS' if ok else 'FAIL'}"]
    _emit(args, payload, table)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="finop", description=__doc__,
                                     epilog=f"FINOP_MAX_K defaults to {DEFAULT_MAX_K}.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("repr", cmd_repr, help="matrix representation of a .fop operator")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p.add_argument("--grid-info", action="store_true", help="print N, M, p, K only")

    p = add("spectrum", cmd_spectrum, help="eigenvalues of a .fop operator")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = add("conjugate", cmd_conjugate, help="reduce to a 1D scalar operator")
    p.add_argument("file")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = add("evolve", cmd_evolve, help="compare evolutions through the unitary")
    p.add_argument("file")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--times", default="0.1,1.0", help="comma-separated times")
    p.add_argument("--seed", type=int, default=0)

    p = add("classify", cmd_classify, help="supernatural number of the (N, M) algebra")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--base", required=True, help="e.g. 2^inf, 2^inf*3^1, universal")
    p.add_argument("--format", choices=["json", "table"], default="table")

    p = add("digits", cmd_digits, help="mixed-radix digit expansion of a rational")
    p.add_argument("--x", required=True, help="rational in [0,1), e.g. 3/4")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="table")

    p = add("verify", cmd_verify, help="randomized invariant suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=["json", "table"], default="table")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FinopError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
