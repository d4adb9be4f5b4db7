"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They shrink each workload's cycle to one small case, so a run takes seconds.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import finop.isomorphism  # noqa: E402
from finop import build_permutation, embed, to_matrix  # noqa: E402
from finop.matrep import RepMatrix  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Small cases, one cycle, one set-up and one startup probe."""
    monkeypatch.setattr(workloads.Reduce, "CYCLE", ((2, 2, 3, 2, "random"), (1, 1, 4, 2, "fop")))
    monkeypatch.setattr(workloads.Permute, "CYCLE", ((1, 1, 4), (2, 1, 3)))
    monkeypatch.setattr(workloads.Algebra, "CYCLE", ((1, 1, 12), (2, 2, 3)))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "STARTUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_OPS", 1)


def bench(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def declared(section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


@pytest.mark.parametrize("workload", ["reduce", "permute", "algebra"])
def test_smoke_prints_every_end_to_end_metric(tiny, workload):
    lines, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == declared("end_to_end")
    text = "\n".join(lines)
    for name in declared("end_to_end") + ["fail_frac"]:
        assert f"  {name} " in text
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["reduce", "permute", "algebra", "cli"])
def test_smoke_traced_prints_every_per_layer_metric(tiny, workload):
    _, result = bench(workload, 1)
    assert result["correct"]
    assert list(result["metrics"]) == declared("per_layer")
    calls = {name: m["value"] for name, m in result["metrics"].items() if name.endswith(".calls")}
    bypassed = {"reduce": ["dsl", "uhf", "cli"], "permute": ["matrep", "isomorphism", "cli"],
                "algebra": ["matrep", "digitmap", "isomorphism", "cli"],
                "cli": []}[workload]
    for layer in bypassed:
        assert calls[f"{layer}.calls"] == 0, layer
    assert sum(calls.values()) > 0


def test_swapped_row_in_the_1d_matrix_counts_as_failed(tiny, monkeypatch):
    original = finop.isomorphism.from_matrix

    def swap_rows(B):
        entries = np.array(B.entries)
        entries[[0, 1]] = entries[[1, 0]]
        return original(RepMatrix(B.grid, entries))

    monkeypatch.setattr(finop.isomorphism, "from_matrix", swap_rows)
    lines, result = bench("reduce", 0)
    assert not result["correct"]
    # every pde_to_ode result is wrong, half of all operations
    assert result["failed"] >= result["attempted"] // 2
    assert any("1D matrix is not B[fwd][:, fwd]" in line for line in lines)


@pytest.mark.parametrize("N, M, level", [(1, 1, 1), (1, 2, 3), (2, 1, 3), (2, 2, 3),
                                         (3, 1, 3), (1, 1, 5), (2, 1, 4), (1, 3, 4)])
def test_digit_forward_matches_build_permutation(N, M, level):
    assert np.array_equal(reference.digit_forward(N, M, level),
                          build_permutation(N, M, level).forward)


@pytest.mark.parametrize("N, M, p, q", [(2, 2, 2, 6), (3, 1, 3, 6), (1, 1, 4, 120), (1, 2, 4, 4)])
def test_dense_matrix_matches_to_matrix_bit_for_bit(N, M, p, q):
    terms = workloads.random_terms(np.random.default_rng(0), N, M, p)
    A = workloads.build_operator(N, M, p, terms)
    assert np.array_equal(reference.dense_matrix(N, M, p, terms, q), to_matrix(embed(A, q)).entries)


def test_digits_and_supernatural_references():
    from fractions import Fraction

    from finop import SupernaturalNumber, classify, expand_digits

    e = expand_digits(Fraction(3, 7), 2, 1, 5)
    assert reference.digits(Fraction(3, 7), 2, 1, 5) == (e.x1, e.digits, e.residual)
    got = classify(2, 6, SupernaturalNumber.parse("2^inf*3^1"))
    assert reference.parse_supernatural(str(got)) == reference.supernatural(
        2, 6, {2: math.inf, 3: 1})


def test_spans_nest_and_restore():
    rng = np.random.default_rng(1)
    A = workloads.build_operator(2, 1, 2, workloads.random_terms(rng, 2, 1, 2))
    original = finop.isomorphism.to_matrix
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert finop.isomorphism.to_matrix is not original
        finop.isomorphism.pde_to_ode(A, 2)
    finally:
        recorder.uninstall()
    assert finop.isomorphism.to_matrix is original
    by_id = {s.id: s for s in recorder.spans}
    to_matrix_span = next(s for s in recorder.spans if s.name == "matrep.to_matrix")
    assert by_id[to_matrix_span.parent].name == "isomorphism.pde_to_ode_self"
    metrics = tracing.layer_metrics(recorder.spans, 1.0)
    assert metrics["isomorphism.calls"][0] == 1
    assert metrics["matrep.dense_bytes"][0] == to_matrix_span.count > 0


def test_missing_target_reads_as_zero_calls(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("dsl.parse", "finop.dsl", "no_such_function", None, None),))
    recorder = tracing.Recorder()
    recorder.install()
    recorder.uninstall()
    assert tracing.layer_metrics(recorder.spans, 1.0)["dsl.calls"][0] == 0


def test_exits_nonzero_without_finop(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "reduce", "--seed", "1", "--seconds", "1"])
    assert exc.value.code not in (0, None)
