"""Tests for exact polynomial and rational-function arithmetic in q."""

import random
from fractions import Fraction

import pytest

from qcongruence import polyring
from qcongruence.errors import DivisionByZeroPoly
from qcongruence.expr import eval_expr, parse_expr
from qcongruence.polyring import (
    QFactored,
    QPoly,
    QRat,
    binomial_parts,
    binomial_reducible,
    cyclotomic,
    cyclotomic_form,
    pochhammer_parts,
    poly_divrem,
    poly_gcd,
    poly_product,
    poly_try_div,
    q_integer,
)


def rand_poly(rng, degree, zero_ok=True):
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree + 1)]
    p = QPoly(coeffs)
    if not zero_ok and p.is_zero():
        return QPoly([1] + coeffs[1:])
    return p


def rand_rat(rng, degree=4):
    num = rand_poly(rng, rng.randint(0, degree))
    den = rand_poly(rng, rng.randint(0, degree), zero_ok=False)
    return QRat(num, den)


def test_qpoly_construction_and_views():
    f = QPoly([1, 0, Fraction(-2, 3)])
    assert f.degree == 2
    assert f.coefficient(0) == 1
    assert f.coefficient(2) == Fraction(-2, 3)
    assert f.coefficient(7) == 0
    assert not f.is_zero() and not f.is_one() and not f.is_constant()
    assert QPoly.zero().is_zero()
    assert QPoly.one().is_one()
    assert QPoly.const(Fraction(3, 4)).is_constant()
    assert QPoly.monomial(3, 2) == QPoly([0, 0, 0, 2])


def test_qpoly_takes_int_and_fraction_coefficients_only():
    # Anything else would be truncated: QPoly([1, 0.5]) read as QPoly(1).
    assert QPoly([Fraction(2, 3), 1]) == QPoly.const(Fraction(2, 3)) + QPoly.monomial(1)
    for build in (
        lambda: QPoly([1, 0.5]),
        lambda: QPoly(["1/3"]),
        lambda: QPoly.const(0.5),
        lambda: QPoly.monomial(2, 0.5),
        lambda: QRat(0.25),
    ):
        with pytest.raises(TypeError, match="int or Fraction"):
            build()


def test_qpoly_ring_operations():
    one_plus_q = QPoly([1, 1])
    assert one_plus_q**2 == QPoly([1, 2, 1])
    assert one_plus_q * QPoly([1, -1]) == QPoly([1, 0, -1])
    assert one_plus_q + 1 == QPoly([2, 1])
    assert -one_plus_q == QPoly([-1, -1])
    assert one_plus_q.shift(2) == QPoly([0, 0, 1, 1])
    assert QPoly([0, 0, 3, 1]).trailing_order() == 2
    assert QPoly([2, 4]).monic() == QPoly([Fraction(1, 2), 1])


def test_qpoly_ring_axioms_random():
    rng = random.Random(20240311)
    for _ in range(60):
        f = rand_poly(rng, rng.randint(0, 5))
        g = rand_poly(rng, rng.randint(0, 5))
        h = rand_poly(rng, rng.randint(0, 5))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + QPoly.zero() == f
        assert f * QPoly.one() == f
        assert f + (-f) == QPoly.zero()


def test_poly_divrem_roundtrip_random():
    rng = random.Random(77)
    for _ in range(40):
        f = rand_poly(rng, rng.randint(0, 8))
        g = rand_poly(rng, rng.randint(0, 5), zero_ok=False)
        quot, rem = poly_divrem(f, g)
        assert quot * g + rem == f
        assert rem.is_zero() or rem.degree < g.degree
    with pytest.raises(DivisionByZeroPoly):
        poly_divrem(QPoly([1]), QPoly.zero())


def divrem_fraction_reference(f, g):
    """Schoolbook long division over Fractions, the independent reference."""
    rem = [f.coefficient(i) for i in range(f.degree + 1)]
    gc = [g.coefficient(i) for i in range(g.degree + 1)]
    dg = len(gc) - 1
    quot = [Fraction(0)] * max(len(rem) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i] / gc[-1]
        quot[i - dg] = c
        for j in range(dg + 1):
            rem[i - dg + j] -= c * gc[j]
    return QPoly(quot), QPoly(rem[:dg])


def test_poly_divrem_matches_fraction_reference():
    rng = random.Random(80)
    for trial in range(300):
        big = trial % 4 == 0
        f = rand_poly(rng, rng.randint(0, 40))
        if big:
            f = f + QPoly([rng.randint(-(2**200), 2**200) for _ in range(rng.randint(1, 30))])
        kind = trial % 3
        if kind == 0:  # monic with integer coefficients
            g = QPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 8))] + [1])
        elif kind == 1:  # monic with rational coefficients
            g = rand_poly(rng, rng.randint(1, 8), zero_ok=False).monic()
        else:  # not monic
            g = rand_poly(rng, rng.randint(0, 8), zero_ok=False)
            if big:
                g = g * (2**201 + 1)
        quot, rem = poly_divrem(f, g)
        assert (quot, rem) == divrem_fraction_reference(f, g)


def gcd_prs_reference(f, g):
    """Monic gcd through the PRS fallback alone."""
    if f.is_zero() and g.is_zero():
        return QPoly.zero()
    h = polyring._gcd_prs(polyring._primitive(f._nums), polyring._primitive(g._nums))
    return QPoly(h).monic()


def gcd_pairs(rng):
    x = QPoly([0, 1])

    def binomial(e):
        return 1 + -QPoly.monomial(e, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))

    for _ in range(40):
        d = rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 12, 15])
        common = cyclotomic(d) ** rng.randint(1, 4) * binomial(rng.randint(1, 6))
        yield common * rand_poly(rng, rng.randint(0, 6)), common * rand_poly(rng, rng.randint(0, 6))
    for _ in range(20):
        common = binomial(rng.randint(1, 8)) ** rng.randint(1, 3) * x ** rng.randint(0, 3)
        yield common * cyclotomic(rng.randint(1, 20)), common * binomial(rng.randint(1, 8))
    for _ in range(20):  # coefficients of 200 bits and more
        big = QPoly([rng.randint(-(2**220), 2**220) for _ in range(rng.randint(1, 6))])
        yield big * rand_poly(rng, rng.randint(0, 5)), big * (2**200 + rng.randint(1, 99))
        yield rand_poly(rng, rng.randint(1, 6)) * (2**210 + 3), big
    for _ in range(20):  # coprime pairs
        yield binomial(rng.randint(1, 8)), cyclotomic(rng.randint(1, 30)) ** rng.randint(1, 3)
        yield rand_poly(rng, rng.randint(1, 8)), rand_poly(rng, rng.randint(1, 8))
    yield QPoly.const(Fraction(3, 7)), cyclotomic(9)
    yield cyclotomic(9), QPoly.const(-5)
    yield QPoly.const(4), QPoly.const(6)
    yield QPoly.zero(), cyclotomic(5) * 3
    yield binomial(3) * 2, QPoly.zero()
    # gcd(f(256), g(256)) = 253 reads back as q - 3, which does not divide
    # q^2 + 244: the first evaluation point fails and the next one succeeds.
    yield QPoly([-3, 1]), QPoly([244, 0, 1])
    # Below the bound, at xi = 4, 3 - q evaluates to -1 and the candidate 1
    # would pass trial division; the bound, rounded up to a byte, puts xi at
    # 256.
    yield QPoly([3, -1]), QPoly([3, -1]) * QPoly([1, 1])


def test_poly_gcd_matches_prs():
    rng = random.Random(81)
    for f, g in gcd_pairs(rng):
        expected = gcd_prs_reference(f, g)
        assert poly_gcd(f, g) == expected
        assert poly_gcd(g, f) == expected
        if not f.is_zero() and not g.is_zero():
            d, f_r, g_r = polyring._gcd_cofactors(f, g)
            assert d == expected and d * f_r == f and d * g_r == g


def horner(nums, width):
    value = 0
    for c in reversed(nums):
        value = (value << width) + c
    return value


def test_pack_unpack_roundtrip_at_byte_widths():
    rng = random.Random(87)
    for width in range(8, 257, 8):
        half = 1 << (width - 1)
        lists = [
            [],
            [rng.randint(-half, half - 1) or 1],
            [-half, half - 1, 0, 0, -half, 1],
            [half - 1, -half] * 3,
            [5, 0, 0, 0, -half],  # a negative top coefficient
            [-half, -half, 1],  # |value| < 2**(2 width - 1): one more digit than its bits say
            [0, 0, half - 1],
        ]
        for _ in range(6):
            nums = [rng.choice((0, -half, half - 1, rng.randint(-half, half - 1))) for _ in range(rng.randint(1, 40))]
            lists.append(polyring._strip(nums) or [1])
        for nums in lists:
            value = polyring._pack(nums, width, max(map(abs, nums), default=0))
            assert value == horner(nums, width)
            assert polyring._unpack(value, width) == nums


def test_pack_wide_coefficients_matches_horner():
    # GCDHEU packs its larger operand at the smaller one's width.
    rng = random.Random(88)
    for width in (8, 16, 24, 64, 136):
        for _ in range(20):
            nums = [rng.randint(-(1 << 600), 1 << 600) >> rng.randint(0, 600) for _ in range(rng.randint(1, 60))]
            top = max(map(abs, nums))
            assert polyring._pack(nums, width, top) == horner(nums, width)


def test_mul_kronecker_matches_schoolbook():
    rng = random.Random(89)
    threshold = polyring._KRONECKER_THRESHOLD
    shapes = [(rng.randint(1, 200), rng.randint(1, 200)) for _ in range(30)]
    shapes += [(threshold + da, threshold + db) for da in (-1, 0, 1) for db in (-1, 0, 1)]
    shapes += [(1, 150), (threshold, 200), (180, threshold - 1), (2, 2)]
    for la, lb in shapes:
        bits = rng.randint(1, 600)
        a = [rng.randint(-(1 << bits), 1 << bits) for _ in range(la)]
        b = [rng.choice((0, rng.randint(-(1 << bits), 1 << bits))) for _ in range(lb)]
        a[-1] = a[-1] or 1
        b[-1] = b[-1] or -1
        want = polyring._mul_schoolbook(a, b)
        assert polyring._mul_kronecker(a, b) == want
        assert polyring._mul_lists(a, b) == want


def test_gcd_heu_matches_prs_at_byte_widths(monkeypatch):
    widths = []
    unpack = polyring._unpack

    def recording(value, width):
        widths.append(width)
        return unpack(value, width)

    monkeypatch.setattr(polyring, "_unpack", recording)
    rng = random.Random(90)
    pairs = [
        (polyring._primitive(f._nums), polyring._primitive(g._nums))
        for f, g in gcd_pairs(rng)
        if not f.is_constant() and not g.is_constant()
    ]
    for _ in range(10):  # a wide operand against a narrow one
        common = [rng.randint(-99, 99) for _ in range(rng.randint(1, 8))] + [rng.randint(1, 9)]
        wide = polyring._mul_lists(common, [rng.randint(-(1 << 500), 1 << 500) for _ in range(rng.randint(1, 30))])
        narrow = polyring._mul_lists(common, [rng.randint(-9, 9) for _ in range(rng.randint(1, 30))] + [1])
        pairs.append((polyring._primitive(wide), polyring._primitive(narrow)))
    for a, b in pairs:
        widths.clear()
        found = polyring._gcd_heu(a, b)
        assert found is not None
        h, qa, qb = found
        want = polyring._gcd_prs(a, b)
        if want[-1] < 0:
            want = [-c for c in want]
        assert h == want
        assert polyring._mul_lists(h, qa) == a and polyring._mul_lists(h, qb) == b
        bound = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
        assert all(w % 8 == 0 and 1 << w >= bound for w in widths)
    widths.clear()
    assert polyring._gcd_heu([-3, 1], [244, 0, 1]) == ([1], [-3, 1], [244, 0, 1])
    assert widths == [8, 16]  # the first point, xi = 256, fails


def test_poly_gcd_falls_back_to_prs(monkeypatch):
    monkeypatch.setattr(polyring, "_HEU_POINTS", 0)
    common = cyclotomic(6) ** 2 * (1 + -QPoly.monomial(2, Fraction(2, 3)))
    f = common * QPoly([1, 2, 3])
    g = common * QPoly([5, 0, -1, 7])
    assert polyring._gcd_heu(polyring._primitive(f._nums), polyring._primitive(g._nums)) is None
    assert poly_gcd(f, g) == common.monic()
    d, f_r, g_r = polyring._gcd_cofactors(f, g)
    assert d == common.monic()
    assert f_r == poly_try_div(f, d) and g_r == poly_try_div(g, d)
    assert polyring._gcd_prs([-1, 0, 1], [1, 2, 1]) in ([1, 1], [-1, -1])


def test_gcd_fallback_proves_coprime_pairs_modulo_a_prime(monkeypatch):
    monkeypatch.setattr(polyring, "_HEU_POINTS", 0)
    prs = polyring._gcd_prs

    def refuse(a, b):
        raise AssertionError("a coprime pair reached the PRS")

    rng = random.Random(81)
    kinds = set()
    for f, g in gcd_pairs(rng):
        if f.is_constant() or g.is_constant():
            continue
        want = gcd_prs_reference(f, g)
        kinds.add(want.degree == 0)
        monkeypatch.setattr(polyring, "_gcd_prs", refuse if want.degree == 0 else prs)
        d, f_r, g_r = polyring._gcd_cofactors(f, g)
        assert d == want and d * f_r == f and d * g_r == g
        monkeypatch.setattr(polyring, "_gcd_prs", prs)
    assert kinds == {True, False}


def test_gcd_fallback_skips_a_prime_that_divides_a_leading_coefficient(monkeypatch):
    first, second = polyring._COPRIME_PRIMES[:2]
    primes = []
    rem_mod = polyring._rem_mod

    def recording(a, b, p):
        primes.append(p)
        return rem_mod(a, b, p)

    monkeypatch.setattr(polyring, "_rem_mod", recording)
    # first*q + 1 and q + 2 are coprime, and first divides the leading coefficient.
    assert polyring._coprime_mod([1, first], [2, 1])
    assert primes and set(primes) == {second}
    primes.clear()
    assert polyring._coprime_mod([1, 3], [2, 1])
    assert primes and set(primes) == {first}
    primes.clear()
    assert not polyring._coprime_mod([2, 3, 1], [1, 1])  # (q + 1)(q + 2) and q + 1
    assert not polyring._coprime_mod([1, first * second], [2, 1])  # no usable prime
    assert primes == [first]


def test_poly_gcd_properties():
    rng = random.Random(78)
    for _ in range(25):
        f = rand_poly(rng, rng.randint(0, 4))
        g = rand_poly(rng, rng.randint(0, 4))
        h = rand_poly(rng, rng.randint(1, 3), zero_ok=False)
        gcd_plain = poly_gcd(f, g)
        gcd_scaled = poly_gcd(f * h, g * h)
        if f.is_zero() and g.is_zero():
            continue
        # gcd is monic and h divides the scaled gcd
        assert gcd_scaled.is_monic()
        _, rem = poly_divrem(gcd_scaled, h.monic())
        assert rem.is_zero()
        assert gcd_scaled == (gcd_plain * h).monic()


def test_exact_div_and_q_integer():
    assert q_integer(7) == QPoly([1] * 7)
    assert q_integer(1) == QPoly.one()
    assert q_integer(0) == QPoly.zero()
    neg = q_integer(-3)
    assert isinstance(neg, QRat)
    assert neg == QRat(QPoly([-1, -1, -1]), QPoly.monomial(3))
    assert poly_try_div(q_integer(6), q_integer(3)) == QPoly([1, 0, 0, 1])


def test_cyclotomic_small_values():
    assert cyclotomic(1) == QPoly([-1, 1])
    assert cyclotomic(2) == QPoly([1, 1])
    assert cyclotomic(4) == QPoly([1, 0, 1])
    assert cyclotomic(6) == QPoly([1, -1, 1])
    assert cyclotomic(12) == QPoly([1, 0, -1, 0, 1])


def test_cyclotomic_product_identities():
    # prod_{d | n} Phi_d = q^n - 1 determines every Phi_d, however built.
    for n in range(1, 211):
        product = QPoly.one()
        qint_product = QPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
                if d > 1:
                    qint_product = qint_product * cyclotomic(d)
        assert product == QPoly.monomial(n) + -1
        assert qint_product == q_integer(n)


def form_polynomial(form):
    """prod (q^e - 1)^x_e, by multiplication and one _divrem_int division."""
    up = poly_product(QPoly.monomial(e) + -1 for e, x in form for _ in range(x))
    down = poly_product(QPoly.monomial(e) + -1 for e, x in form for _ in range(-x))
    quot, rem = poly_divrem(up, down)
    assert rem.is_zero()
    return quot


def dividends(rng, divisor):
    """Dividends for divisor: divisible or not, lower degree, zero, with a
    rational denominator and with 200-bit coefficients."""
    x = QPoly([0, 1])
    small = QPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [rng.randint(1, 9)])
    big = QPoly([rng.randint(-(2**200), 2**200) for _ in range(rng.randint(1, 6))])
    out = [
        small * divisor,
        big * divisor,
        small * divisor * Fraction(rng.randint(1, 50), rng.randint(2, 50)),
        small * divisor + x ** rng.randint(0, divisor.degree + 3),
        big * divisor + QPoly([1]) * (2**199 + 1),
        (small * divisor + 1) * Fraction(1, 7),
        QPoly.zero(),
        divisor,
        divisor * divisor * small,
    ]
    if divisor.degree > 0:
        out.append(rand_poly(rng, rng.randint(0, divisor.degree - 1), zero_ok=False))
    return out


def assert_kernel_agrees(f, divisor, form=None):
    quot, rem = poly_divrem(f, divisor)  # always _divrem_int
    assert poly_try_div(f, divisor, form) == (quot if rem.is_zero() else None)


def qint_factor(n):
    """([n], 1, its binomial form): [n] = (q^n - 1) / (q - 1)."""
    return q_integer(n), 1, ((1, -1), (n, 1))


def phi_factor(d, k):
    """(Phi_d, k, Phi_d's binomial form)."""
    return cyclotomic(d), k, cyclotomic_form(d)


def named_product(factors):
    """The product of (f, mult, form) factors and its binomial form."""
    divisor = poly_product(f for f, mult, _ in factors for _ in range(mult))
    return divisor, polyring._merge_forms((form, mult) for _, mult, form in factors)


def test_binomial_kernel_matches_divrem_on_every_cyclotomic_to_210():
    rng = random.Random(83)
    for d in range(1, 211):
        phi, form = cyclotomic(d), cyclotomic_form(d)
        assert form_polynomial(form) == phi
        for f in dividends(rng, phi):
            assert_kernel_agrees(f, phi, form)


def test_binomial_kernel_on_q_integers_and_modulus_products():
    rng = random.Random(84)
    for n in range(2, 61):
        f, _, form = qint_factor(n)
        assert form_polynomial(form) == f
    products = []
    for n in range(2, 41):
        products.append([qint_factor(n)])
        for k in (1, 2, 3):
            products.append([qint_factor(n), phi_factor(n, k)])
    products.append([phi_factor(3, 2), qint_factor(4), phi_factor(10, 3)])
    products.append([phi_factor(1, 3), phi_factor(30, 2), phi_factor(105, 1)])
    for factors in products:
        divisor, form = named_product(factors)
        assert form_polynomial(form) == divisor
        for f in dividends(rng, divisor):
            assert_kernel_agrees(f, divisor, form)


def test_indexed_divisors_never_reach_divrem(monkeypatch):
    def refuse(*args):
        raise AssertionError("a general kernel called for an indexed divisor")

    products = [[phi_factor(12, 1)], [qint_factor(9)], [qint_factor(6), phi_factor(6, 2)]]
    monkeypatch.setattr(polyring, "poly_divrem", refuse)
    monkeypatch.setattr(polyring, "_divexact_int", refuse)
    for factors in products:
        divisor, form = named_product(factors)
        assert poly_try_div(divisor * QPoly([3, 0, 1]), divisor, form) == QPoly([3, 0, 1])
        assert poly_try_div(divisor * QPoly([3, 0, 1]) + 1, divisor, form) is None


def test_unindexed_divisors_divide_by_exact_quotients():
    # A scaled or negated cyclotomic, Phi_3(q^2), Phi_5 + q, a rational
    # binomial and a product with a factor of unknown shape, divided without
    # a binomial form: their primitive parts divide through _divexact_int,
    # with the quotients poly_divrem gives.
    rng = random.Random(85)
    products = [
        [(cyclotomic(7) * 2, 1)],
        [(-cyclotomic(2), 1)],
        [(QPoly([1, 0, 1, 0, 1]), 1)],
        [(cyclotomic(5) + QPoly([0, 1]), 1)],
        [(QPoly([Fraction(-1, 2), 0, 1]), 1)],
        [(cyclotomic(5), 1), (QPoly([Fraction(-1, 3), 1]), 2)],
    ]
    for factors in products:
        divisor = poly_product(f for f, mult in factors for _ in range(mult))
        for f in dividends(rng, divisor):
            assert_kernel_agrees(f, divisor)
    assert poly_try_div(cyclotomic(5), cyclotomic(7)) is None
    with pytest.raises(DivisionByZeroPoly):
        poly_try_div(QPoly.one(), QPoly.zero())


def test_exact_quotient_kernel_matches_divrem():
    # poly_try_div returns a quotient iff poly_divrem leaves no remainder, and
    # then the same quotient: for divisors with content > 1, negative leading
    # coefficients, 200-bit coefficients and every q^e - u/v, |u|, v <= 9,
    # e <= 4, against dividends divisible or not, shorter than the divisor,
    # zero, and with 200-bit coefficients.
    rng = random.Random(97)
    x = QPoly([0, 1])
    divisors = [
        cyclotomic(7) * 2,
        cyclotomic(9) * Fraction(-6, 5),
        QPoly([5, 0, -3, -6]),
        QPoly([4, -6, -10]),
        QPoly([rng.randint(-(2**200), 2**200) for _ in range(5)] + [3 * 2**200 + 7]),
    ]
    for e in range(1, 5):
        for c in sorted({Fraction(u, v) for u in range(-9, 10) if u for v in range(1, 10)}):
            divisors.append(x**e + -c)
    for divisor in divisors:
        for f in dividends(rng, divisor):
            assert_kernel_agrees(f, divisor)


def test_failing_trial_divisions_never_reach_divrem(monkeypatch):
    # A failing trial division by a rational binomial, and a failing GCDHEU
    # candidate, stop at the first inexact coefficient in _divexact_int.
    def refuse(a, b):
        raise AssertionError("_divrem_int called for an exact division")

    monkeypatch.setattr(polyring, "_divrem_int", refuse)
    x = QPoly([0, 1])
    f = poly_product(1 + -Fraction(2, 3) * x**k for k in range(1, 12)) + x**5
    for e in range(1, 5):
        for c in (Fraction(2, 3), Fraction(-5, 7), Fraction(9, 4)):
            assert poly_try_div(f, x**e + -c) is None
            assert poly_try_div(f * (x**e + -c), x**e + -c) == f
    # At xi = 256 the candidate q - 3 divides the first core, not the second.
    assert polyring._gcd_heu([-3, 1], [244, 0, 1]) == ([1], [-3, 1], [244, 0, 1])


def test_product_tree_equals_chained_product():
    rng = random.Random(86)
    for size in range(10):
        polys = [rand_poly(rng, rng.randint(0, 40), zero_ok=False) for _ in range(size)]
        chained = QPoly.one()
        for f in polys:
            chained = chained * f
        assert poly_product(polys) == chained
    factors = [phi_factor(d, rng.randint(1, 3)) for d in (1, 4, 9, 12, 35)]
    chained = QPoly.one()
    for f, mult, _ in factors:
        chained = chained * f**mult
    divisor, form = named_product(factors)
    assert divisor == chained
    assert form_polynomial(form) == chained


def test_binomial_reducible_follows_capelli():
    x = QPoly([0, 1])
    cases = {
        (Fraction(4), 2): True,  # q^2 - 4 = (q - 2)(q + 2)
        (Fraction(1, 4), 2): True,
        (Fraction(2), 2): False,
        (Fraction(-4), 2): False,  # q^2 + 4
        (Fraction(8), 3): True,
        (Fraction(-27, 8), 3): True,
        (Fraction(27, 8), 6): True,
        (Fraction(4), 6): True,  # 4 = 2^2 and 2 | 6
        (Fraction(2), 6): False,
        (Fraction(-4), 4): True,  # q^4 + 4 = (q^2 + 2q + 2)(q^2 - 2q + 2)
        (Fraction(-1, 4), 4): True,
        (Fraction(-1), 4): False,  # Phi_8
        (Fraction(16), 4): True,
        (Fraction(3), 5): False,
        (Fraction(7), 1): False,
        (Fraction(1), 2): True,
    }
    for (c, e), reducible in cases.items():
        assert binomial_reducible(c, e) is reducible, (c, e)
    # Each reducible case shows a factor: q^(e/p) - b for c = b^p, or the
    # Sophie Germain factor q^(e/2) + 2b q^(e/4) + 2b^2 for c = -4b^4.
    assert poly_try_div(x**6 + -Fraction(27, 8), x**2 + -Fraction(3, 2)) is not None
    assert poly_try_div(x**4 + 4, x**2 + 2 * x + 2) is not None
    assert poly_try_div(x**4 + Fraction(1, 4), x**2 + x + Fraction(1, 2)) is not None


def test_qrat_field_axioms_random():
    rng = random.Random(20240312)
    for _ in range(40):
        x = rand_rat(rng)
        y = rand_rat(rng)
        z = rand_rat(rng)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x - x == QRat.from_value(0)
        if x:
            assert x * x.inverse() == QRat.from_value(1)
            assert x ** (-2) == (x.inverse()) ** 2
        assert (x / y if y else x) is not None


def test_qrat_reduction_and_eval():
    # (q^2 - 1)/(q - 1) reduces to q + 1
    x = QRat(QPoly([-1, 0, 1]), QPoly([-1, 1]))
    assert x.den == QPoly.one()
    assert x.num == QPoly([1, 1])
    y = QRat(QPoly([1, 1]), QPoly([2]))
    assert y == QRat(QPoly([Fraction(1, 2), Fraction(1, 2)]), QPoly.one())
    with pytest.raises(DivisionByZeroPoly):
        QRat(QPoly.one(), QPoly.zero())


# -- cyclotomic-factored values ------------------------------------------------


def _same(factored, expected: QRat):
    got = factored.to_qrat() if isinstance(factored, QFactored) else factored
    assert (got.num, got.den) == (expected.num, expected.den), (factored, expected)


def test_binomial_parts_of_binomials():
    # The listed c at |e| <= 12 and every u/v, |u|, v <= 9, at |e| <= 4.  A
    # key q^|e| - c', built from integer cores, equals the same binomial
    # built from Fraction coefficients, c' = 1/c for e > 0 and c for e < 0.
    listed = (1, -1, 0, 2, Fraction(-1, 3), Fraction(9, 4))
    cases = [(Fraction(c), e) for c in listed for e in range(-12, 13)]
    grid = {Fraction(u, v) for u in range(-9, 10) for v in range(1, 10)}
    cases += [(c, e) for c in sorted(grid) for e in range(-4, 5)]
    for c, e in cases:
        unit, j, keys = binomial_parts(c, e)
        if c in (1, -1):
            assert all(isinstance(key, int) for key in keys)
        else:
            assert all(key.is_monic() and [key.coefficient(i) for i in range(key.degree + 1)].count(0) == key.degree - 1 for key in keys)
        if c not in (0, 1, -1) and e:
            assert keys == (QPoly([-1 / c if e > 0 else -c] + [0] * (abs(e) - 1) + [1]),), (c, e)
        factors = (key if isinstance(key, QPoly) else cyclotomic(key) for key in keys)
        product = poly_product(factors) * unit
        shift = max(-e, 0)
        binomial = QPoly.monomial(shift) + -QPoly.monomial(max(e, 0), c)
        assert j == (shift if c else 0)
        assert QRat(product, QPoly.monomial(j)) == QRat(binomial, QPoly.monomial(shift)), (c, e)
    assert binomial_parts(1, 0) == (0, 0, ())
    assert binomial_parts(-1, 0) == (2, 0, ())


def test_factored_materialises_cancelling_phi_and_q_powers():
    # N = Phi_2 Phi_3 q^2 (1 + 2q) over Phi_3^2 Phi_5 q^5
    N = cyclotomic(2) * cyclotomic(3) * QPoly([0, 0, 1, 2])
    value = QFactored(Fraction(3, 7), -5, N, {3: -2, 5: -1, 6: 2})
    assert value.j == -3 and value.N.coefficient(0) != 0
    expected = QRat(
        N * cyclotomic(6) ** 2 * Fraction(3, 7),
        cyclotomic(3) ** 2 * cyclotomic(5) * QPoly.monomial(5),
    )
    _same(value, expected)
    got = value.to_qrat()
    assert got.den == cyclotomic(3) * cyclotomic(5) * QPoly.monomial(3)
    # every Phi_d of the denominator divides N: a polynomial
    _same(QFactored(1, 0, cyclotomic(4) ** 2 * QPoly([1, 2]), {4: -2}), QRat(QPoly([1, 2])))


def _eval(text: str, env: dict | None = None) -> QRat:
    return eval_expr(parse_expr(text), env)


def test_factored_zero():
    for zero in (QFactored(0), QFactored(5, 3, QPoly.zero(), {2: 1}), QFactored.q_integer(0)):
        assert zero.c == 0 and zero.exps == {}
        _same(zero, QRat.from_value(0))
    one = QFactored.cyclotomic(3)
    _same(_eval("phi(3) * 0"), QRat.from_value(0))
    _same(_eval("0 / phi(3)"), QRat.from_value(0))
    _same(one + (-one), QRat.from_value(0))
    for text in ("phi(3) / 0", "0^(-2)"):
        with pytest.raises(DivisionByZeroPoly, match="inverse of zero rational function"):
            _eval(text)


def test_factored_q_integers_and_negative_powers():
    for r in range(-9, 10):
        _same(QFactored.q_integer(r), QRat.from_value(q_integer(r)))
    value = "qint(-4) * (-2/3*q^2) / phi(5)"
    reference = (
        QRat.from_value(q_integer(-4))
        * QRat(QPoly.monomial(2, Fraction(-2, 3)))
        / QRat(cyclotomic(5))
    )
    for e in (-3, -1, 0, 1, 2):
        _same(_eval(f"({value})^({e})"), reference**e)
    # a non-cyclotomic N has no exponent map to negate: QRat takes over
    _same(_eval(f"({value} + 1)^(-2)"), (reference + 1) ** -2)


def test_factored_binomial_n_splits_into_cyclotomics():
    one_plus_q = QFactored(1) + QFactored(1, 1)
    assert one_plus_q.N.is_one() and one_plus_q.exps == {2: 1}
    two_minus = QFactored(2) + -QFactored(2, 6)  # 2 (1 - q^6)
    assert two_minus.c == -2 and two_minus.exps == {1: 1, 2: 1, 3: 1, 6: 1}
    _same(_eval("3/(1 + q)^2"), QRat(QPoly.const(3), QPoly([1, 1]) ** 2))


def _pochhammer(coeff, exp, step, k, power=1):
    """(x; q^step)_k^power for x = coeff*q^exp, as expr's poch(..) builds it."""
    c, j, exps = pochhammer_parts(coeff, exp, step, k)
    return QFactored(c**power, j * power, exps={key: e * power for key, e in exps.items()})


def _atom(build, text, *args):
    """A factored value and the expression text that evaluates to it."""
    return build(*args), text.format(*args)


def test_factored_arithmetic_matches_qrat_random():
    # Sums directly on QFactored (no subtraction: expr builds a - b as
    # a + (-b)); products and quotients through expr's one product.
    rng = random.Random(1101)
    atoms = [
        lambda: _atom(QFactored.q_integer, "qint({})", rng.randint(-6, 8)),
        lambda: _atom(QFactored.cyclotomic, "phi({})", rng.randint(1, 12)),
        lambda: _atom(
            QFactored,
            "{}*q^({})",
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            rng.randint(-3, 3),
        ),
        lambda: _atom(
            _pochhammer,
            "poch({}*q^({}); q^{}; {})",
            Fraction(rng.choice([1, -1, 2, Fraction(-1, 3)])),
            rng.randint(-2, 3),
            rng.randint(1, 3),
            rng.randint(0, 3),
        ),
        # binomial keys that Capelli's theorem shows reducible: c = b^p with
        # p | e, and c = -4 b^4 with 4 | e, beside keys that share their factors
        lambda: _atom(
            _pochhammer,
            "poch({}*q^({}); q^{}; {})",
            Fraction(rng.choice([4, Fraction(4, 9), 8, Fraction(-1, 4), -4, Fraction(1, 2)])),
            rng.choice([-4, -2, -1, 1, 2, 3, 4]),
            rng.choice([1, 2, 4]),
            rng.randint(0, 2),
        ),
    ]
    shared = [
        # (1 - 2/3 q) / (1 - 4/9 q^2), its key q - 3/2 a factor of q^2 - 9/4
        (
            (_pochhammer(Fraction(2, 3), 1, 1, 1), "poch(2/3*q; q; 1)"),
            (_pochhammer(Fraction(4, 9), 2, 2, 1), "poch(4/9*q^2; q^2; 1)"),
        ),
        # q^2 - 2q + 2 is a factor of q^4 + 4, the key of 1 + 4 q^-4
        (
            (QFactored(1, 0, QPoly([2, -2, 1])), "(2 - 2*q + q^2)"),
            (_pochhammer(Fraction(-4), -4, 1, 1), "poch(-4*q^(-4); q; 1)"),
        ),
        # the numerator key q - 1/2, squared, is a factor of q^3 - 1/8
        (
            (_pochhammer(Fraction(2), 1, 2, 2, power=2), "poch(2*q; q^2; 2)^2"),
            (_pochhammer(Fraction(8), 3, 3, 2), "poch(8*q^3; q^3; 2)"),
        ),
    ]
    draws = [(rng.choice(atoms)(), rng.choice(atoms)()) for _ in range(150)]
    for (x, tx), (y, ty) in draws + shared:
        rx, ry = x.to_qrat(), y.to_qrat()
        _assert_form_multiplies_out(rx)
        _assert_form_multiplies_out(ry)
        assert _eval(tx) == rx and _eval(ty) == ry, (tx, ty)
        # sums against GCDHEU on the same values without their forms
        px, py = _without_form(rx), _without_form(ry)
        checks = [
            (lambda: (x + y).to_qrat(), px + py),
            (lambda: (x + (-y)).to_qrat(), px - py),
            (lambda: _eval(f"({tx}) * ({ty})"), rx * ry),
        ]
        if ry:
            checks.append((lambda: _eval(f"({tx}) / ({ty})"), rx / ry))
        for got, want in checks:
            got = got()
            _assert_form_multiplies_out(got)
            assert (got.num, got.den) == (want.num, want.den), (tx, ty, want)
        # mixed with a QRat: the QRat arithmetic takes over, same value
        assert _eval(f"({tx}) * y + ({tx})", {"y": ry}) == rx * ry + rx, (tx, ty)


def _without_form(r):
    """r with its factored denominator dropped: QRat.__add__ then takes GCDHEU."""
    return QRat._raw(r.num, r.den)


def _assert_form_multiplies_out(r):
    """r's den, built by this read where r kept only its form, is the eager
    product of the form; the read leaves the form as it was, and r + 0, -r
    and r * 2/3 keep it."""
    if r.form is None:
        return
    j, exps = r.form[0], dict(r.form[1])
    assert all(e > 0 for e in exps.values()), r
    assert r.den == polyring._times_keys(QPoly.one(), exps).shift(j), r
    assert r.form == (j, exps), r
    for y in (r + 0, -r, r * Fraction(2, 3)):
        assert y.form == r.form, r


def test_factored_sum_matches_the_gcd_sum(monkeypatch):
    # QRat.__add__ reads gcd(b1, b2) off two factored denominators, over
    # Phi_d keys, irreducible binomial keys and q-powers, and takes no gcd;
    # the same values without their forms take GCDHEU.  Sums y = z - x make
    # x + y cancel keys of g (and q-powers) down to z.
    rng = random.Random(2929)
    binomials = []
    for c, e in ((2, 1), (Fraction(-3, 5), 2), (Fraction(2, 3), 3), (5, 1), (Fraction(-1, 2), 2)):
        assert not binomial_reducible(Fraction(c), e)
        binomials.append(binomial_parts(Fraction(c), e)[2][0])
    keys = [1, 2, 3, 4, 5, 6, 8, 9, 12] + binomials

    def value():
        exps = {key: rng.choice([-3, -2, -1, -1, 1]) for key in rng.sample(keys, rng.randint(1, 5))}
        N = QPoly([rng.randint(1, 5)] + [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
        return QFactored(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)), rng.randint(-3, 2), N, exps)

    gcd_calls, cancelled, cancels = [], [], []
    real_gcd, real_divide = polyring._gcd_cofactors, polyring._divide_key

    def counted_gcd(f, g):
        gcd_calls.append((f, g))
        return real_gcd(f, g)

    def counted_divide(num, key, e):
        got = real_divide(num, key, e)
        cancelled.append(got[1])
        return got

    monkeypatch.setattr(polyring, "_gcd_cofactors", counted_gcd)
    monkeypatch.setattr(polyring, "_divide_key", counted_divide)

    def check(a, b):
        """a + b, checked, after a - b."""
        for x, y in ((a, -b), (a, b)):
            gcd_calls.clear()
            cancelled.clear()
            got = x + y
            cancels.append(sum(cancelled))
            factored = x.form is not None and y.form is not None
            if factored and not x.den.is_one() and not y.den.is_one():
                assert gcd_calls == []
                # the sum's den is left as its form: built below, on first read
                assert got._den is None or got._den.is_one(), (x, y)
            if factored and got:
                assert got.form is not None
            _assert_form_multiplies_out(got)
            want = _without_form(x) + _without_form(y)
            assert (got.num, got.den) == (want.num, want.den), (x, y)
        return got

    pairs = [(value(), value()) for _ in range(150)]
    for x, y in pairs:
        rx, ry = x.to_qrat(), y.to_qrat()
        assert rx.form is not None and ry.form is not None
        _assert_form_multiplies_out(rx)
        check(rx, ry)
    cancels.clear()
    for _ in range(60):
        x, z = value(), value()
        got = check(x.to_qrat(), (z + (-x)).to_qrat())
        want = z.to_qrat()
        assert (got.num, got.den, got.form) == (want.num, want.den, want.form)
    assert sum(map(bool, cancels)) > 40, cancels  # the keys of g did cancel

    # A Capelli-reducible key (q^2 - 1/4 of 1 - 4q^2) left in a denominator
    # gives no form, and the sum falls back to GCDHEU.
    reducible = QFactored(1, 0, QPoly([1, 1]), {binomial_parts(Fraction(4), 2)[2][0]: -1, 3: -1})
    r = reducible.to_qrat()
    assert r.form is None and not r.den.is_one()
    for x, _ in pairs[:20]:
        rx = x.to_qrat()
        if rx.den.is_one():
            continue
        gcd_calls.clear()
        check(rx, r)
        assert gcd_calls
