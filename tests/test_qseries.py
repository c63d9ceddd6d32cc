"""Tests for q-shifted factorials and truncated hypergeometric sums."""

import random
from fractions import Fraction

import pytest

from qcongruence.errors import (
    DegenerateParameters,
    NegativeLength,
    NonTerminating,
    OutOfRange,
    ZeroDenominatorFactor,
)
from qcongruence.polyring import QPoly, QRat, q_integer
from qcongruence.qseries import (
    QMonomialArg,
    TermSpec,
    check_terminating_identity,
    pochhammer,
    q_binomial,
    qma,
    truncated_sum,
    truncated_sum_prefixes,
)


def qrat_monomial(coeff, exp):
    if exp >= 0:
        return QRat.from_value(QPoly.monomial(exp, coeff))
    return QRat(QPoly.const(coeff), QPoly.monomial(-exp))


def reference_term(spec, k):
    """Term built directly from pochhammer products; independent oracle."""
    value = QRat.from_value(1)
    for arg, step in spec.numer:
        value = value * QRat.from_value(pochhammer(arg, step, k))
    for arg, step in spec.denom:
        value = value / QRat.from_value(pochhammer(arg, step, k))
    value = value * qrat_monomial(spec.z.coeff, spec.z.exp) ** k
    if spec.linear_factor:
        value = value * QRat.from_value(q_integer(2 * spec.d * k + spec.r))
    if spec.sign == -1 and k % 2 == 1:
        value = -value
    return value


def reference_sum(spec, order):
    total = QRat.from_value(0)
    for k in range(order + 1):
        total = total + reference_term(spec, k)
    return total


def test_pochhammer_small_values():
    q = qma(1, 1)
    assert pochhammer(q, 1, 0) == QPoly.one()
    assert pochhammer(q, 1, 1) == QPoly([1, -1])
    # (q; q)_3 = (1-q)(1-q^2)(1-q^3)
    expected = QPoly([1, -1]) * QPoly([1, 0, -1]) * QPoly([1, 0, 0, -1])
    assert pochhammer(q, 1, 3) == expected
    # (3q^2; q^3)_2 = (1 - 3q^2)(1 - 3q^5)
    got = pochhammer(qma(3, 2), 3, 2)
    assert got == QPoly([1, 0, -3]) * QPoly([1, 0, 0, 0, 0, -3])


def test_pochhammer_negative_exponent():
    # (q^-2; q)_3 = (1 - q^-2)(1 - q^-1)(1 - 1) = 0
    assert pochhammer(qma(1, -2), 1, 3) == QPoly.zero()
    # (q^-1; q^2)_2 = (1 - q^-1)(1 - q) = -(1-q)^2 / q
    got = pochhammer(qma(1, -1), 2, 2)
    assert isinstance(got, QRat)
    assert got == QRat(QPoly([1, -1]) * QPoly([1, -1]) * -1, QPoly.monomial(1))
    with pytest.raises(NegativeLength):
        pochhammer(qma(1, 1), 1, -1)


def test_q_binomial_frozen():
    got = q_binomial(4, 2)
    assert got == QPoly([1, 1, 2, 1, 1])
    assert q_binomial(5, 0) == QPoly.one()
    assert q_binomial(5, 5) == QPoly.one()
    with pytest.raises(OutOfRange):
        q_binomial(3, 4)
    with pytest.raises(OutOfRange):
        q_binomial(3, -1)


def test_q_binomial_pascal_recurrence():
    # [t s] = [t-1 s] + q^(t-s) [t-1 s-1]
    for t in range(2, 9):
        for s in range(1, t):
            lhs = q_binomial(t, s)
            rhs = q_binomial(t - 1, s) + QPoly.monomial(t - s) * q_binomial(t - 1, s - 1)
            assert lhs == rhs


def test_q_binomial_counts_at_one():
    from math import comb

    for t in range(8):
        for s in range(t + 1):
            assert q_binomial(t, s).eval_at(1) == comb(t, s)


def sample_spec(rng):
    def arg(lo=-2, hi=3):
        c = Fraction(rng.choice([1, -1, 2, -2, 3, Fraction(1, 2)]))
        return qma(c, rng.randint(lo, hi))

    numer = tuple((arg(), rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
    denom = []
    for _ in range(rng.randint(0, 2)):
        a = arg()
        step = rng.randint(1, 3)
        # keep factor exponents clear of hitting 1 - q^0
        while a.coeff == 1 and a.exp <= 0 and (-a.exp) % step == 0:
            a = arg()
        denom.append((a, step))
    return TermSpec(
        d=rng.randint(1, 3),
        r=rng.randint(-2, 3),
        numer=numer,
        denom=tuple(denom),
        z=arg(-2, 2),
        linear_factor=bool(rng.randint(0, 1)),
        sign=rng.choice([1, -1]),
    )


def test_truncated_sum_matches_reference():
    rng = random.Random(20260816)
    for _ in range(25):
        spec = sample_spec(rng)
        order = rng.randint(0, 5)
        assert truncated_sum(spec, order) == reference_sum(spec, order)


def test_truncated_sum_prefixes_consistent():
    rng = random.Random(77)
    spec = sample_spec(rng)
    prefixes = truncated_sum_prefixes(spec, [0, 2, 5])
    assert set(prefixes) == {0, 2, 5}
    for order, value in prefixes.items():
        assert value == truncated_sum(spec, order)


def test_truncated_sum_negative_linear_offset():
    # r = -3 makes the k = 0 term carry [-3] = -(q^-3)(1+q+q^2).
    spec = TermSpec(d=2, r=-3, numer=(), denom=(), z=qma(1, 0))
    got = truncated_sum(spec, 0)
    assert got == QRat(QPoly([-1, -1, -1]), QPoly.monomial(3))
    assert truncated_sum(spec, 1) == got + QRat.from_value(q_integer(1))


def test_zero_denominator_factor_detected():
    spec = TermSpec(
        d=1,
        r=1,
        numer=(),
        denom=(((qma(1, -2)), 2),),  # (q^-2; q^2)_k hits 1 - q^0 at i = 1
        z=qma(1, 1),
    )
    with pytest.raises(ZeroDenominatorFactor):
        truncated_sum(spec, 3)


def test_negative_order_rejected():
    spec = TermSpec(d=1, r=1, numer=(), denom=(), z=qma(1, 1))
    with pytest.raises(NegativeLength):
        truncated_sum(spec, -1)


def test_qchu_identity_seeds():
    for seed in range(6):
        result = check_terminating_identity("QCHU", rng_seed=seed)
        assert result.equal, result.detail


def test_qchu_explicit_small():
    result = check_terminating_identity(
        "QCHU", {"n": 3, "b": Fraction(2), "c": Fraction(1, 3)}
    )
    assert result.equal


def test_whipple_identity_seeds():
    for seed in range(4):
        result = check_terminating_identity("WHIPPLE_SPEC", rng_seed=seed)
        assert result.equal, result.detail
    for n in (1, 3, 5, 7):
        result = check_terminating_identity("WHIPPLE_SPEC", {"n": n, "b": Fraction(2)})
        assert result.equal, result.detail


def test_whipple_rejects_even_order():
    with pytest.raises(NonTerminating):
        check_terminating_identity("WHIPPLE_SPEC", {"n": 4, "b": Fraction(2)})


def test_jackson_identity_seeds():
    for seed in range(4):
        result = check_terminating_identity("JACKSON_SPEC", rng_seed=seed)
        assert result.equal, result.detail
    for n in (1, 4, 7):
        result = check_terminating_identity("JACKSON_SPEC", {"n": n, "b": Fraction(3)})
        assert result.equal, result.detail


def test_jackson_rejects_bad_order():
    with pytest.raises(NonTerminating):
        check_terminating_identity("JACKSON_SPEC", {"n": 5, "b": Fraction(2)})


def test_watson_identity_seeds():
    for seed in range(4):
        result = check_terminating_identity("WATSON_SPEC", rng_seed=seed)
        assert result.equal, result.detail


def test_watson_explicit_cases():
    for d, r, n in ((3, 1, 4), (3, 1, 7), (4, 1, 5), (5, 2, 7), (3, -1, 5)):
        result = check_terminating_identity(
            "WATSON_SPEC",
            {"d": d, "r": r, "n": n, "b": Fraction(2), "c": Fraction(3)},
        )
        assert result.equal, result.detail


def test_watson_rejects_degenerate():
    with pytest.raises(NonTerminating):
        check_terminating_identity(
            "WATSON_SPEC", {"d": 3, "r": 1, "n": 5, "b": Fraction(2), "c": Fraction(3)}
        )
    with pytest.raises(DegenerateParameters):
        check_terminating_identity(
            "WATSON_SPEC", {"d": 3, "r": 3, "n": 6, "b": Fraction(2), "c": Fraction(3)}
        )
    with pytest.raises(DegenerateParameters):
        check_terminating_identity(
            "QCHU", {"n": 2, "b": Fraction(1), "c": Fraction(2)}
        )


def test_identity_params_deterministic():
    a = check_terminating_identity("QCHU", rng_seed=5)
    b = check_terminating_identity("QCHU", rng_seed=5)
    assert a.params == b.params
    with pytest.raises(KeyError):
        check_terminating_identity("NOT_AN_IDENTITY")
