"""Tests for p-adic valuations, the integer split n = p^e u, and rational residues."""

import random
from fractions import Fraction
from math import inf

import pytest

from qcongruence.arith import padic_valuation, residue_of_rational, split_power
from qcongruence.errors import NotPIntegral


def test_padic_valuation_values():
    assert padic_valuation(9, 3) == 2
    assert padic_valuation(Fraction(9, 5), 3) == 2
    assert padic_valuation(Fraction(5, 27), 3) == -3
    assert padic_valuation(Fraction(-50), 5) == 2
    assert padic_valuation(0, 7) == inf


def test_padic_valuation_rejects_small_p():
    with pytest.raises(ValueError):
        padic_valuation(4, 1)


def _valuation_by_steps(x, p):
    """The exponent of p in x, dividing by p once per step."""
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def test_padic_valuation_matches_stepwise_division():
    # Exponents up to 600 around the powers of two that repeated squaring
    # steps through, at primes and at the odd composites 9 and 15, where the
    # exponent is still the largest e with p^e dividing.
    rng = random.Random(20)
    exponents = (0, 1, 2, 3, 5, 7, 8, 9, 31, 63, 64, 65, 127, 255, 256, 257, 511, 512, 600)
    for p in (3, 61, 9, 15):
        for e in exponents:
            for cofactor in (1, -1, 2, 5, -7, rng.randrange(1, 10**40)):
                n = p**e * cofactor
                assert padic_valuation(n, p) == _valuation_by_steps(n, p), (p, e, cofactor)
                v, unit = split_power(n, p)
                assert v == _valuation_by_steps(n, p) and unit * p**v == n and unit % p, (p, e, cofactor)
                den = p ** rng.choice(exponents) * rng.randrange(1, 10**20)
                x = Fraction(n, den)
                assert padic_valuation(x, p) == _valuation_by_steps(x, p), (p, e, x)
        assert padic_valuation(0, p) == inf
        assert padic_valuation(Fraction(0), p) == inf
        with pytest.raises(ZeroDivisionError):
            split_power(0, p)
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            padic_valuation(0, p)
        with pytest.raises(ValueError):
            padic_valuation(Fraction(9, 2), p)


def test_residue_of_rational():
    assert residue_of_rational(Fraction(1, 3), 5, 3) == 42  # 3 * 42 = 126 = 1 mod 125
    assert residue_of_rational(Fraction(-1), 7, 2) == 48
    assert residue_of_rational(13, 13, 2) == 13
    with pytest.raises(NotPIntegral):
        residue_of_rational(Fraction(1, 5), 5, 2)
