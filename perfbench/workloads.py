"""The benchmark's workloads: inputs from a seed, timed operations, checks.

A workload turns (seed, cycle index) into a list of operations.  An
operation is a label, a call into finop that is timed, and a check of the
call's output that is not timed.  Inputs come from the benchmark's own numpy
generator, and the CLI's .fop files are copies kept in perfbench/inputs, so
edits to finop.sampling or demos/ cannot change what is measured.

Every cycle of a workload has the same shape (sizes, kinds, shifts and
order) for every seed; the seed draws only coefficients, boxes and vectors.
A run measures whole cycles, so each run sees the same mix of sizes.  Each
cycle's mix is chosen so that p50 and p75 of the latencies of a run of 3 to
8 cycles fall inside a group of operations of like cost, not at a step
between two sizes, where the value would jump between the sizes from run to
run.

A check returns a list of problems.  WRONG means an output differs from its
reference; FAIL means finop reported a failure itself (a FAIL verdict, a
nonzero exit).  Both count as failed operations; only WRONG makes the run's
outputs incorrect.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import finop.cli
import finop.digitmap as digitmap
import finop.dsl as dsl
import finop.isomorphism as iso
import finop.matrep as matrep
import finop.refinement as refinement
from finop.grid import GridSpec, StepFunction
from finop.operators import FiniteOperator, GridVector

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"

WRONG, FAIL = "wrong", "fail"

# rng stream of the warm-up operation, apart from every cycle's stream
WARMUP_STREAM = 1 << 30
# shift terms of a random operator, and the matrix 1-norm it is scaled to:
# the number of squarings expm does, and so its cost, follows that norm
RANDOM_TERMS = 3
RANDOM_NORM = 2.0
# boxes in each generated coefficient
FOP_BOXES = 4


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_terms(rng, N: int, M: int, p: int) -> dict:
    """RANDOM_TERMS distinct shifts of Z_p^N, each with a random step
    coefficient, scaled so that the operator's matrix 1-norm is RANDOM_NORM.

    The shifts depend on (N, M, p) alone and rng draws only the
    coefficients: which shifts an operator has changes the cost of
    pde_to_ode by up to 3x at K=216, so drawing them would vary the work.
    """
    flat = np.random.default_rng([N, M, p]).choice(p**N, size=RANDOM_TERMS, replace=False)
    terms = {
        tuple(int(c) for c in np.unravel_index(f, (p,) * N)): _complex(rng, (p**N, M, M))
        for f in flat
    }
    scale = RANDOM_NORM / np.abs(reference.dense_matrix(N, M, p, terms, p)).sum(axis=0).max()
    return {shift: values * scale for shift, values in terms.items()}


def build_operator(N: int, M: int, p: int, terms: dict) -> FiniteOperator:
    grid = GridSpec(N, M, p)
    return FiniteOperator(grid, {j: StepFunction(grid, v) for j, v in terms.items()})


def _literal(z: complex) -> str:
    return f"{z.real:.3f}{z.imag:+.3f}i"


def fop_source(rng, N: int, M: int, p: int, templates) -> str:
    """Random .fop text whose minimal grid has p cells per axis.

    The operator is 'M(A) * D(1,1/p)' plus one term per template, with {a}
    the last axis and {c} a random scalar.  The derivative fixes p, and every
    box endpoint is a multiple of 1/p.  Only values and box positions are
    random, so operators drawn for the same (N, M, p) cost about the same.
    """
    lines = ["# generated by perfbench", f"N = {N}", f"M = {M}"]
    for name, mode in (("A", ""), ("B", "sum ")):
        lines.append(f"coeff {mode}{name} {{")
        for _ in range(FOP_BOXES):
            intervals = []
            for _ in range(N):
                lo, hi = sorted(rng.choice(p + 1, size=2, replace=False))
                intervals.append(f"[{Fraction(int(lo), p)},{Fraction(int(hi), p)})")
            rows = ", ".join(
                "[" + ", ".join(_literal(z) for z in row) + "]" for row in _complex(rng, (M, M))
            )
            lines.append(f"    box {' x '.join(intervals)} = [{rows}]")
        lines.append("}")
    terms = [f"M(A) * D(1,1/{p})"]
    for template in templates:
        terms.append(template.format(p=p, a=N, c=_literal(complex(*rng.standard_normal(2)))))
    lines.append("operator { " + " + ".join(terms) + " }")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

class Reduce:
    """pde_to_ode and evolve_compare at K = 72..576: dense K x K stages."""

    # (N, M, level, base grid p, operator): random step coefficients, or lowered .fop.
    # Sorted by cost the twelve operations are K=72 and K=120 (4), pde_to_ode
    # at K=216 p=2, then a pair of like cost (evolve_compare at K=216 p=2 and
    # pde_to_ode at K=216 p=3) that holds p50, evolve_compare at K=216 p=3,
    # then the two K=576 pde_to_ode calls that hold p75, and the two K=576
    # evolve_compare calls.  Both K=576 cases are on p=2, so that the pair
    # around p75 costs the same.
    CYCLE = ((2, 2, 3, 2, "random"), (2, 1, 4, 2, "random"), (3, 1, 3, 3, "random"),
             (1, 1, 5, 4, "fop"), (2, 1, 4, 2, "random"), (3, 1, 3, 2, "random"))
    FOP_TEMPLATES = ("D({a},-1/{p}) * M(B)", "({c}) * I")
    TIMES = (0.1, 1.0)

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self) -> Op:
        return self._case(np.random.default_rng([self.seed, WARMUP_STREAM]), *self.CYCLE[0])[0]

    def cycle(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index])
        return [op for case in self.CYCLE for op in self._case(rng, *case)]

    def _case(self, rng, N, M, level, p, operator):
        pf = math.factorial(level)
        if operator == "random":
            terms = random_terms(rng, N, M, p)
            A = build_operator(N, M, p, terms)
        else:
            terms = None
            A, _ = dsl.lower_fop(dsl.parse_fop(fop_source(rng, N, M, p, self.FOP_TEMPLATES)))
        label = f"{operator} N={N} M={M} p={p} level={level}"
        u0 = GridVector(GridSpec(N, M, pf), _complex(rng, M * pf**N))

        def check_pde(result):
            fwd = reference.digit_forward(N, M, level)
            problems = []
            if not np.array_equal(result.permutation.forward, fwd):
                problems.append((WRONG, "forward differs from the divmod reference"))
            if terms is not None:
                B = reference.dense_matrix(N, M, p, terms, pf)
            else:
                B = matrep.to_matrix(refinement.embed(A, pf)).entries
            if not np.array_equal(matrep.to_matrix(result.ode).entries, B[fwd][:, fwd]):
                problems.append((WRONG, "1D matrix is not B[fwd][:, fwd]"))
            if not result.spectral_report.passed:
                problems.append((FAIL, "spectral verdict FAIL on an exact conjugation"
                                 if not problems else "spectral verdict FAIL"))
            return problems

        def check_evolve(report):
            return [] if report.passed else [(FAIL, f"evolution verdict FAIL {report.rows()}")]

        return [
            Op(f"pde_to_ode {label}", lambda: iso.pde_to_ode(A, level), check_pde),
            Op(f"evolve_compare {label}",
               lambda: iso.evolve_compare(A, u0, self.TIMES, level), check_evolve),
        ]


class Permute:
    """build_permutation and an apply_unitary round trip, K = 576..40320."""

    # (N, M, level), weighted toward small K.  Sorted by cost: K=576 (5), then
    # K=720 and K=1152 (5) around p50, K=5040, then K=10080..14400 (5)
    # around p75, and K=40320.
    CYCLE = ((2, 1, 4), (1, 1, 6), (3, 1, 4), (2, 1, 4), (2, 2, 4), (1, 2, 7),
             (2, 1, 4), (1, 1, 7), (1, 1, 6), (2, 1, 5), (2, 1, 4), (2, 2, 4),
             (3, 1, 4), (1, 1, 6), (2, 1, 4), (1, 2, 7), (1, 1, 8))

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self) -> Op:
        return self._op(np.random.default_rng([self.seed, WARMUP_STREAM]), *self.CYCLE[0])

    def cycle(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index])
        return [self._op(rng, *case) for case in self.CYCLE]

    def _op(self, rng, N, M, level):
        K = M * math.factorial(level) ** N
        u = GridVector(GridSpec(1, 1, K), _complex(rng, K))
        # made with the inputs, so that the check allocates less than the
        # operation and peak_rss_mb stays the operation's
        fwd = reference.digit_forward(N, M, level)
        moved = np.empty_like(u.values)
        moved[fwd] = u.values

        def run():
            P = digitmap.build_permutation(N, M, level)
            v = digitmap.apply_unitary(P, u)
            return P, v, digitmap.apply_unitary_inverse(P, v)

        def check(out):
            P, v, w = out
            problems = []
            if not np.array_equal(P.forward, fwd):
                problems.append((WRONG, "forward differs from the divmod reference"))
            elif not np.array_equal(v.values, moved):
                problems.append((WRONG, "apply_unitary does not send u[k] to forward[k]"))
            if not np.array_equal(w.values, u.values):
                problems.append((WRONG, "round trip is not exact"))
            return problems

        return Op(f"permutation N={N} M={M} level={level} K={K}", run, check)


class Algebra:
    """.fop parse and lower, embed onto 2p, compose with the adjoint, apply."""

    # (N, M, p): the lowered grid; the embedded one has (2p)^N cells.  The two
    # costliest cases come twice, so that a run of --seconds 20 has 200 to
    # 1000 operations at 0.6x to 1.6x this host's speed, and its tail is p95.
    CYCLE = ((1, 1, 1500), (2, 1, 40), (2, 2, 40), (3, 1, 10), (1, 2, 1000),
             (1, 1, 4000), (2, 2, 24), (3, 2, 8), (1, 1, 4000), (2, 1, 50), (2, 2, 40))
    TEMPLATES = ("M(B) * D({a},1/{p}) * M(A)", "adj(D({a},1/{p})) * M(A) * D({a},1/{p})",
                 "({c}) * M(B)")
    RTOL = 1e-12

    def __init__(self, seed: int):
        self.seed = seed

    def warmup(self) -> Op:
        return self._op(np.random.default_rng([self.seed, WARMUP_STREAM]), *self.CYCLE[0])

    def cycle(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index])
        return [self._op(rng, *case) for case in self.CYCLE]

    def _op(self, rng, N, M, p):
        text = fop_source(rng, N, M, p, self.TEMPLATES)
        fine = GridSpec(N, M, 2 * p)
        u = GridVector(fine, _complex(rng, fine.dim))

        def run():
            A, grid = dsl.lower_fop(dsl.parse_fop(text))
            Ae = refinement.embed(A, 2 * grid.p)
            As = Ae.adjoint()
            return Ae, As, Ae.compose(As).apply(u)

        def check(out):
            Ae, As, y = out
            if Ae.grid != fine:
                return [(WRONG, f"lowered and embedded grid {Ae.grid} != {fine}")]
            z = Ae.apply(As.apply(u)).values
            err = np.linalg.norm(y.values - z) / np.linalg.norm(z)
            if not err <= self.RTOL:
                return [(WRONG, f"(A o A*) u differs from A (A* u) by {err:.3e} relative")]
            return []

        return Op(f"algebra N={N} M={M} p={p} cells={(2 * p) ** N}", run, check)


class Cli:
    """finop CLI commands, one subprocess each (or in-process main when traced)."""

    CLASSIFY_BASES = ({2: math.inf}, {3: math.inf}, {2: math.inf, 3: 1}, {2: 2, 5: math.inf})

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def _run(self, argv):
        if self.in_process:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = finop.cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "finop.cli", *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def _op(self, label, argv, check):
        def checked(out):
            code, stdout = out
            try:
                problems = check(stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [(WRONG, f"unreadable output: {type(exc).__name__}: {exc}")]
            if code != 0:
                problems.append((FAIL, f"exit code {code}"))
            return problems

        return Op(label, lambda: self._run(argv), checked)

    def warmup(self) -> Op:
        return self._classify(np.random.default_rng([self.seed, WARMUP_STREAM]))

    def _classify(self, rng):
        N, M = int(rng.integers(1, 4)), int(rng.integers(1, 13))
        base = self.CLASSIFY_BASES[int(rng.integers(len(self.CLASSIFY_BASES)))]
        text = "*".join(f"{q}^{'inf' if e == math.inf else e}" for q, e in base.items())
        want = reference.supernatural(N, M, base)
        car = base == {2: math.inf} and M & (M - 1) == 0

        def check(stdout):
            got = json.loads(stdout)
            if reference.parse_supernatural(got["supernatural_number"]) != want or got["car"] != car:
                return [(WRONG, f"classify gave {got}, expected {want} car={car}")]
            return []

        argv = ["classify", "--N", str(N), "--M", str(M), "--base", text, "--format", "json"]
        return self._op(f"classify N={N} M={M} base={text}", argv, check)

    def _digits(self, rng):
        N, M, depth = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(3, 7))
        den = int(rng.integers(2, 1000))
        x = Fraction(int(rng.integers(0, den)), den)
        x1, digits, residual = reference.digits(x, N, M, depth)

        def check(stdout):
            got = json.loads(stdout)
            if (got["x1"], tuple(got["digits"]), Fraction(got["residual"])) != (x1, digits, residual):
                return [(WRONG, f"digits of {x} differ from the divmod reference")]
            return []

        argv = ["digits", "--x", str(x), "--N", str(N), "--M", str(M),
                "--depth", str(depth), "--format", "json"]
        return self._op(f"digits x={x} N={N} M={M} depth={depth}", argv, check)

    def cycle(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, index])
        N, M, p = 2, 2, 6
        K = M * p**N
        gen = self.workdir / f"gen-{index}.fop"
        gen.write_text(fop_source(rng, N, M, p, Reduce.FOP_TEMPLATES), encoding="utf-8")
        heat, advection = str(INPUTS / "heat2d.fop"), str(INPUTS / "advection.fop")

        def grid_info(stdout):
            want = f"N={N} M={M} p={p} K={K}"
            return [] if stdout.strip() == want else [(WRONG, f"grid info {stdout.strip()!r} != {want!r}")]

        def eigenvalues(stdout):
            n = len(json.loads(stdout)["eigenvalues"])
            return [] if n == K else [(WRONG, f"{n} eigenvalues for K={K}")]

        def conjugation(K_want):
            def check(stdout):
                got = json.loads(stdout)
                if got["K"] != K_want:
                    return [(WRONG, f"K={got['K']}, expected {K_want}")]
                return [] if got["spectral_report"]["passed"] else [(FAIL, "spectral verdict FAIL")]
            return check

        def evolution(stdout):
            lines = stdout.strip().splitlines()
            if lines[0] != "t,discrepancy,pass" or len(lines) != 3:
                return [(WRONG, f"evolution table {lines!r}")]
            failing = [row for row in lines[1:] if not row.endswith(",PASS")]
            return [(FAIL, f"evolution verdict FAIL {failing}")] if failing else []

        def verified(stdout):
            return [] if json.loads(stdout)["passed"] else [(FAIL, "verify FAIL")]

        seed = str(int(rng.integers(0, 2**31)))
        return [
            self._classify(rng),
            self._op("repr --grid-info generated", ["repr", str(gen), "--grid-info"], grid_info),
            self._op("conjugate heat2d --level 4",
                     ["conjugate", heat, "--level", "4", "--format", "json"], conjugation(576)),
            self._digits(rng),
            self._op("spectrum generated", ["spectrum", str(gen), "--format", "json"], eigenvalues),
            self._op("evolve heat2d --level 3",
                     ["evolve", heat, "--level", "3", "--seed", seed], evolution),
            self._op("conjugate generated --level 3",
                     ["conjugate", str(gen), "--level", "3", "--format", "json"], conjugation(72)),
            self._classify(rng),
            self._op("evolve advection --level 5",
                     ["evolve", advection, "--level", "5", "--seed", seed], evolution),
            self._op("conjugate advection --level 5",
                     ["conjugate", advection, "--level", "5", "--format", "json"], conjugation(120)),
            self._op("verify", ["verify", "--seed", seed, "--format", "json"], verified),
        ]


WORKLOADS = {"reduce": Reduce, "permute": Permute, "algebra": Algebra, "cli": Cli}
