import json
from pathlib import Path

import numpy as np
import pytest

import finop.cli
import finop.refinement
from finop.cli import main

from conftest import ANTI_DIFFUSIVE_HEAT2D, swap_rows_in_from_matrix


@pytest.fixture
def deriv_file(tmp_path):
    f = tmp_path / "d.fop"
    f.write_text("N = 1\noperator { D(1,1/2) }\n")
    return str(f)


@pytest.fixture
def laplace2d_file(tmp_path):
    f = tmp_path / "lap.fop"
    f.write_text(
        "N = 2\n"
        "operator { (-1+0i) * D(1,-1/2) * D(1,1/2) + (-1+0i) * D(2,-1/2) * D(2,1/2) }\n"
    )
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repr_identity(tmp_path, capsys):
    f = tmp_path / "id.fop"
    f.write_text("operator { I }\n")
    code, out, _ = run(capsys, "repr", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [[[1.0, 0.0]]]
    assert "version" in payload


def test_repr_derivative_json_csv_and_grid_info(deriv_file, capsys):
    code, out, _ = run(capsys, "repr", deriv_file)
    assert code == 0
    entries = json.loads(out)["entries"]
    assert entries == [[[-2.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [-2.0, 0.0]]]
    code, out, _ = run(capsys, "repr", deriv_file, "--format", "csv")
    assert out.splitlines()[0] == "-2.0,0.0,2.0,0.0"
    code, out, _ = run(capsys, "repr", deriv_file, "--grid-info")
    assert out.strip() == "N=1 M=1 p=2 K=2"


def test_repr_grid_info_builds_no_matrix(deriv_file, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("to_matrix called for --grid-info")

    monkeypatch.setattr(finop.cli, "to_matrix", forbidden)
    code, out, _ = run(capsys, "repr", deriv_file, "--grid-info")
    assert code == 0
    assert out.strip() == "N=1 M=1 p=2 K=2"


def test_repr_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.fop"
    f.write_text("operator { D(1,) }\n")
    code, _, err = run(capsys, "repr", str(f))
    assert code == 2
    assert "line 1" in err


def test_spectrum(deriv_file, capsys):
    code, out, _ = run(capsys, "spectrum", deriv_file)
    assert code == 0
    eig = json.loads(out)["eigenvalues"]
    assert np.allclose(eig, [[-4.0, 0.0], [0.0, 0.0]], atol=1e-10)


def test_conjugate_identity(tmp_path, capsys):
    f = tmp_path / "id.fop"
    f.write_text("N = 2\noperator { I }\n")
    code, out, _ = run(capsys, "conjugate", str(f), "--level", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["K"] == 4
    assert payload["spectral_report"]["passed"] is True
    assert payload["spectral_report"]["max_deviation"] == 0.0


def test_conjugate_laplacian_passes(laplace2d_file, capsys):
    code, out, _ = run(capsys, "conjugate", laplace2d_file, "--level", "2")
    assert code == 0
    assert json.loads(out)["spectral_report"]["passed"] is True


def test_conjugate_level_too_small(tmp_path, capsys):
    f = tmp_path / "fine.fop"
    f.write_text("N = 1\noperator { D(1,1/5) }\n")
    code, _, err = run(capsys, "conjugate", str(f), "--level", "2")
    assert code == 2
    assert "refine" in err


def test_evolve(laplace2d_file, capsys):
    code, out, _ = run(capsys, "evolve", laplace2d_file, "--level", "2",
                       "--times", "0.1,1.0", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,discrepancy,pass"
    assert len(lines) == 3
    assert all(line.endswith("PASS") for line in lines[1:])


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--N", "2", "--M", "3", "--base", "2^inf")
    assert code == 0
    assert out.strip() == "2^inf * 3^1, CAR: false"
    code, out, _ = run(capsys, "classify", "--N", "1", "--M", "4", "--base", "2^inf")
    assert "CAR: true" in out


def test_digits(capsys):
    code, out, _ = run(capsys, "digits", "--x", "3/4", "--M", "2", "--N", "1",
                       "--depth", "3")
    assert code == 0
    assert out.splitlines()[0] == "x1=1, x2=1, x3=0"


def test_verify_pass_and_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--seed", "42", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--seed", "42", "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert payload["seed"] == 42
    assert len(payload["checks"]) == 5


def test_max_k_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FINOP_MAX_K", "3")
    f = tmp_path / "d.fop"
    f.write_text("N = 1\noperator { D(1,1/4) }\n")
    code, _, err = run(capsys, "repr", str(f))
    assert code == 2
    assert "FINOP_MAX_K" in err


def test_cap_is_checked_before_lowering(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("lower_fop called for a grid over the size cap")

    monkeypatch.setattr(finop.cli, "lower_fop", forbidden)
    monkeypatch.setenv("FINOP_MAX_K", "3")
    f = tmp_path / "d.fop"
    f.write_text("N = 1\noperator { D(1,1/4) }\n")  # minimal grid K = 4
    for argv in (("repr", str(f)), ("spectrum", str(f)), ("conjugate", str(f), "--level", "4")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "FINOP_MAX_K" in err
    code, out, _ = run(capsys, "repr", str(f), "--grid-info")
    assert code == 0
    assert out.strip() == "N=1 M=1 p=4 K=4"


def test_evolve_and_conjugate_over_the_cap_exit_2(capsys, monkeypatch):
    # K = 6!^2 = 518400 is over the default cap; no K x K matrix is built
    monkeypatch.delenv("FINOP_MAX_K", raising=False)
    heat2d = str(Path(__file__).resolve().parents[1] / "demos" / "heat2d.fop")
    for argv in (("evolve", heat2d, "--level", "6"), ("conjugate", heat2d, "--level", "6")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "FINOP_MAX_K" in err


def test_max_k_not_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FINOP_MAX_K", "abc")
    f = tmp_path / "d.fop"
    f.write_text("N = 1\noperator { D(1,1/4) }\n")
    code, _, err = run(capsys, "repr", str(f))
    assert code == 2
    assert "FINOP_MAX_K" in err and "'abc'" in err


def test_verify_spectrum_frames_are_not_identity_permutations():
    from finop.cli import SPECTRUM_CHECK_FRAMES
    from finop.digitmap import build_permutation

    for frame in SPECTRUM_CHECK_FRAMES:
        P = build_permutation(*frame)
        assert not np.array_equal(P.forward, np.arange(P.size)), frame


def test_evolve_loads_no_scipy():
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(Path(finop.cli.__file__).parents[1])}
    code = ("import sys, finop.cli; "
            "code = finop.cli.main(['evolve', 'demos/heat2d.fop', '--level', '3']); "
            "assert code == 0 and 'scipy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                   stdout=subprocess.DEVNULL)


def test_conjugate_advection_loads_no_scipy():
    # the source spectrum is repeated, not clustered, so no assignment is solved
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(Path(finop.cli.__file__).parents[1])}
    code = ("import sys, finop.cli; "
            "code = finop.cli.main(['conjugate', 'demos/advection.fop', '--level', '5']); "
            "assert code == 0 and 'scipy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                   stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("t", ["inf", "1e308", "nan"])
def test_evolve_with_a_time_that_overflows_the_plan_exits_2(capsys, t):
    advection = str(Path(__file__).resolve().parents[1] / "demos" / "advection.fop")
    code, out, err = run(capsys, "evolve", advection, "--level", "3", "--times", t)
    assert code == 2
    assert f"t={float(t)}" in err and "not finite" in err


@pytest.mark.parametrize("level", ["3", "4"])
def test_evolve_anti_diffusive_heat_passes_with_zero_discrepancy(tmp_path, capsys, level):
    # dense expm rounding, about eps ||exp(tB)||, used to fail this check
    f = tmp_path / "heat.fop"
    f.write_text(ANTI_DIFFUSIVE_HEAT2D)
    code, out, _ = run(capsys, "evolve", str(f), "--level", level, "--times", "0.1,1,10")
    assert code == 0
    assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == ["0.0"] * 3


def test_conjugate_heat2d_level_4_loads_no_scipy():
    # heat2d lifts from K0 = 4, where its clustered double eigenvalue -16 is
    # matched without the assignment
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(Path(finop.cli.__file__).parents[1])}
    code = ("import sys, finop.cli; "
            "code = finop.cli.main(['conjugate', 'demos/heat2d.fop', '--level', '4', "
            "'--format', 'json']); "
            "assert code == 0 and 'scipy' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                   stdout=subprocess.DEVNULL)


def test_conjugate_reports_the_lift_and_the_certificate(capsys):
    heat = str(Path(__file__).resolve().parents[1] / "demos" / "heat2d.fop")
    code, out, _ = run(capsys, "conjugate", heat, "--level", "4", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "lift from K0=4 to K=576; certificate PASS"
    assert "0 far pairs" in lines[2] and "eps 1.421e-13" in lines[2] and lines[2].endswith("PASS")
    code, out, _ = run(capsys, "conjugate", heat, "--level", "2", "--format", "json")
    payload = json.loads(out)
    assert (payload["K0"], payload["K"], payload["path"]) == (4, 4, "direct")
    assert payload["certificate"] == {"passed": True, "first_mismatch": None}
    assert payload["spectral_report"]["far_pairs"] == 0
    assert payload["spectral_report"]["epsilon"] == 10 * 4 * 2.0**-53 * 32


@pytest.mark.parametrize("t", ["1e300", "1e12"])
def test_evolve_with_a_time_over_the_product_ceiling_exits_2(capsys, t):
    import time

    advection = str(Path(__file__).resolve().parents[1] / "demos" / "advection.fop")
    start = time.monotonic()
    code, out, err = run(capsys, "evolve", advection, "--level", "3", "--times", t)
    assert code == 2 and time.monotonic() - start < 5
    assert f"t={float(t)}" in err


def test_taylor_plan_refuses_only_plans_over_the_ceiling():
    from finop.matrep import MAX_PRODUCTS, shift_rows, taylor_plan

    advection = str(Path(__file__).resolve().parents[1] / "demos" / "advection.fop")
    A = finop.cli._load_operator(advection)[0]
    cols, vals = shift_rows(finop.refinement.embed(A, 6))
    m, s, _ = taylor_plan(cols, vals, 1e5)  # about 2.2e6 products: still runs
    assert 10**6 < m * s <= MAX_PRODUCTS
    with pytest.raises(ValueError, match=rf"t=1000000000000.0: .* above the ceiling of {MAX_PRODUCTS}"):
        taylor_plan(cols, vals, 1e12)


def test_verify_conjugates_each_frame_directly_and_requires_the_certificate(capsys, monkeypatch):
    from finop.cli import SPECTRUM_CHECK_FRAMES

    results = []
    conjugate = finop.cli.pde_to_ode
    monkeypatch.setattr(finop.cli, "pde_to_ode",
                        lambda *args: results.append(conjugate(*args)) or results[-1])
    code, out, _ = run(capsys, "verify", "--seed", "3")
    assert code == 0
    assert len(results) == len(SPECTRUM_CHECK_FRAMES)
    for res in results:  # the operator is on the n!-grid, so nothing is lifted
        assert res.path == "direct" and res.certified
        assert not np.array_equal(res.permutation.forward, np.arange(res.K))

    swap_rows_in_from_matrix(monkeypatch)
    code, out, _ = run(capsys, "verify", "--seed", "3")
    assert code == 1
    assert "conjugation spectrum equality   FAIL  certificate FAIL" in out
