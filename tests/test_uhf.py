import math
import time

import pytest

from finop import SupernaturalNumber, classify, factorial_sn, is_car
from finop.cli import main
from finop.uhf import INF, _is_prime


def sn(text):
    return SupernaturalNumber.parse(text)


def test_from_int():
    assert SupernaturalNumber.from_int(12).exponents == {2: 2, 3: 1}
    assert SupernaturalNumber.from_int(1).exponents == {}
    with pytest.raises(ValueError):
        SupernaturalNumber.from_int(0)


def test_from_int_large_prime_is_fast():
    start = time.perf_counter()
    assert SupernaturalNumber.from_int(1000000000000037).exponents == {1000000000000037: 1}
    assert time.perf_counter() - start < 1.0


def test_from_int_refuses_two_primes_above_the_trial_bound():
    n = 1000003 * 1000033  # both prime, both above the trial-division bound
    assert _is_prime(1000003) and _is_prime(1000033)
    with pytest.raises(ValueError, match=str(n)):
        SupernaturalNumber.from_int(n)


def test_mul_absorption():
    assert (sn("2^inf") * sn("2^5")).exponents == {2: INF}
    universal = SupernaturalNumber(universal=True)
    assert (universal * sn("3^2")).universal
    assert (sn("3^2") * universal).universal


def test_mul_commutative_associative():
    a, b, c = sn("2^3*5^1"), sn("2^inf*3^2"), sn("7^1")
    assert (a * b).exponents == (b * a).exponents
    assert ((a * b) * c).exponents == (a * (b * c)).exponents


def test_divides():
    universal = SupernaturalNumber(universal=True)
    for a in (sn("2^3"), sn("3^inf*5^2"), universal, SupernaturalNumber.one()):
        assert a.divides(universal)
    assert sn("2^3").divides(sn("2^inf"))
    assert not sn("3^1").divides(sn("2^inf"))
    assert not universal.divides(sn("2^inf"))
    # partial order: reflexive, antisymmetric on explicit values
    assert sn("2^3*3^1").divides(sn("2^3*3^1"))


def test_pow():
    assert (sn("2^inf*3^1") ** 2).exponents == {2: INF, 3: 2}
    with pytest.raises(ValueError):
        sn("2^1") ** 0


def test_classify():
    base = sn("2^inf*7^1")
    assert classify(1, 1, base).exponents == base.exponents
    assert classify(2, 3, sn("2^inf")).exponents == {2: INF, 3: 1}
    assert classify(3, 4, SupernaturalNumber(universal=True)).universal
    assert str(classify(2, 3, sn("2^inf"))) == "2^inf * 3^1"


def test_is_car():
    assert is_car(1, 4, sn("2^inf"))
    assert is_car(3, 1, sn("2^inf"))  # M = 2^0
    assert not is_car(1, 3, sn("2^inf"))
    assert not is_car(1, 2, SupernaturalNumber(universal=True))
    assert not is_car(1, 2, sn("2^inf*3^1"))
    assert not is_car(1, 2, sn("2^5"))


def test_factorial_sn():
    assert factorial_sn(3).exponents == {2: 1, 3: 1}
    assert factorial_sn(6).exponents == {2: 4, 3: 2, 5: 1}
    for n in range(1, 12):
        assert factorial_sn(n).divides(factorial_sn(n + 1))
    exps = factorial_sn(11).exponents
    assert all(exps[q] >= 1 for q in (2, 3, 5, 7, 11))


def test_parse_and_str_roundtrip():
    for text in ("2^inf * 3^1", "5^2", "universal", "1"):
        assert str(SupernaturalNumber.parse(text)) == text
    assert sn("2^3 * 2^2").exponents == {2: 5}
    with pytest.raises(ValueError):
        sn("4^1")  # 4 is not prime


def _trial_division(q):
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def test_is_prime_matches_trial_division():
    assert [q for q in range(1, 10**4 + 1) if _is_prime(q)] == [
        q for q in range(1, 10**4 + 1) if _trial_division(q)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # composites that pass the strong test to every prime base up to 7 and 31
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(1000000000000037)


def test_is_prime_refuses_beyond_exact_range():
    big = 3317044064679887385961981 + 2
    with pytest.raises(ValueError, match=str(big)):
        _is_prime(big)
    with pytest.raises(ValueError, match=str(big)):
        sn(f"{big}^inf")


def test_classify_large_prime_base_is_fast(capsys):
    start = time.perf_counter()
    code = main(["classify", "--N", "1", "--M", "1", "--base", "1000000000000037^inf"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out.strip() == "1000000000000037^inf, CAR: false"
    assert elapsed < 1.0
