"""Tests for the p-adic Gamma function and the classical congruence checkers,
run through the catalog's classical statements."""

import random
from fractions import Fraction
from functools import partial
from math import gcd, inf

import pytest

from classical_oracle import at_one, closed_value, series_sum

from qcongruence.arith import padic_valuation, prime_factors, residue_of_rational
from qcongruence.errors import (
    NotPIntegral,
    SideConditionViolated,
    UnknownKind,
)
from qcongruence import catalog, padic
from qcongruence.catalog import run_statement
from qcongruence.padic import (
    _CUBIC,
    _QUARTIC,
    _GammaForm,
    _cubic_correction,
    _fifth_alt_series,
    _harmonic,
    _inner_double,
    _inner_double_bare,
    _sixth_series,
    bernoulli,
    gamma_p,
    verify_classical,
)

PRIMES = (5, 7, 11, 13)
CLASSICAL = [stmt for stmt in catalog.list_statements() if stmt.kind == "classical"]


def _bindings(p, s, d, r):
    return {key: v for key, v in (("p", p), ("s", s), ("d", d), ("r", r)) if v is not None}


def _records(stmt_id, p, s=1, d=None, r=None, m_choice="both"):
    """The records of one classical case, as run_statement writes them."""
    records = run_statement(stmt_id, _bindings(p, s, d, r), m_policy=m_choice)
    return [rec.to_json_dict() for rec in records]


def _sides(stmt_id, p, s=1, d=None, r=None):
    """(k, lhs, rhs) from the statement's checker, past the catalog's checks."""
    return catalog.get_statement(stmt_id).build(_bindings(p, s, d, r))[2:]


def _takes(stmt, option):
    """Whether a classical statement takes s ("takes_s") or d and r ("takes_dr")."""
    return stmt.build.keywords[option]


def _sum(series, m):
    """The series summed over 0 <= k <= m, from its triple at 13 built at R = inf."""
    ((_, s, w),) = padic._series_residues(series, (m,), 13, inf)
    return Fraction(s, w)


def _value(closed):
    """A closed form's exact value, from its triple at 13 built at R = inf."""
    v, a, b = closed.adic(13, inf)
    return Fraction(a, b) * Fraction(13) ** v


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for n in (3, 5, 7, 9, 11):
        assert bernoulli(n) == 0


def _rising(x, k):
    """The shifted factorial (x)_k, from the closed-form kernel."""
    a, b = Fraction(x).as_integer_ratio()
    return _value(padic._ratio(a, b, b, 0, k))


def test_harmonic_values():
    assert _value(_harmonic(0, 2)) == 0
    assert _value(_harmonic(3, 1)) == Fraction(11, 6)
    assert _value(_harmonic(6, 2)) == Fraction(5369, 3600)


def test_rising_values():
    assert _rising(Fraction(1, 2), 0) == 1
    assert _rising(Fraction(1, 2), 3) == Fraction(15, 8)
    assert _rising(Fraction(-2), 3) == 0


def test_gamma_small_arguments():
    # Gamma_p(1) = -1 and Gamma_p(2) = 1 for every odd p.
    assert gamma_p(1, 5, 2) == 24
    assert gamma_p(2, 5, 2) == 1
    assert gamma_p(3, 5, 2) == 23
    assert gamma_p(0, 5, 2) == 1


def test_gamma_half_square_is_minus_one():
    g = gamma_p(Fraction(1, 2), 5, 3)
    assert g * g % 5**3 == 5**3 - 1


def test_gamma_reflection_grid():
    # Gamma_p(x) Gamma_p(1-x) = (-1)^(m-1) with m the least nonnegative
    # residue of -x modulo p.
    args = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3),
            Fraction(3, 4), Fraction(1, 6), Fraction(5), Fraction(7, 2)]
    for p in PRIMES:
        for x in args:
            if padic_valuation(x, p) < 0:
                continue
            lhs = gamma_p(x, p, 3) * gamma_p(1 - x, p, 3) % p**3
            m = residue_of_rational(-x, p, 1)
            assert lhs == (-1 if (m - 1) % 2 else 1) % p**3, (p, x)


def test_gamma_functional_equation_grid():
    # Gamma_p(x+1) / Gamma_p(x) is -x when x is a p-unit and -1 otherwise.
    args = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3),
            Fraction(3, 4), Fraction(0), Fraction(5), Fraction(10, 3)]
    for p in PRIMES:
        for x in args:
            if padic_valuation(x, p) < 0:
                continue
            ratio = gamma_p(x + 1, p, 3) * pow(gamma_p(x, p, 3), -1, p**3) % p**3
            expected = -x if padic_valuation(x, p) == 0 else Fraction(-1)
            assert ratio == residue_of_rational(expected, p, 3), (p, x)


def test_gamma_precision_consistency():
    # More digits of the argument never change the leading digits of the value.
    for p in (5, 7):
        for x in (Fraction(1, 3), Fraction(3, 4), Fraction(9, 2)):
            if padic_valuation(x, p) < 0:
                continue
            wide = gamma_p(x, p, 4)
            narrow = gamma_p(x, p, 2)
            assert wide % p**2 == narrow


def test_gamma_p_at_13_to_the_7_and_its_domain():
    # 13^7 lies past the former precision budget of 10^7; Gamma_p(1/3) is
    # evaluated there like anywhere else (the loop takes a few seconds).
    value = gamma_p(Fraction(1, 3), 13, 7)
    assert type(value) is int and 0 <= value < 13**7
    assert value == _ref_gamma_residue(Fraction(1, 3), 13, 7)
    with pytest.raises(NotPIntegral):
        gamma_p(Fraction(1, 5), 5, 2)


def _rational_verdict(lhs, rhs, p, k):
    """verify_classical's verdict on lhs == rhs modulo p^k for two rationals."""
    (result,) = verify_classical(p, k, padic._closed(lhs), rhs, padic._Closed.ends)
    return result


def test_rational_congruent_basics():
    ok = _rational_verdict(Fraction(1, 3), Fraction(1, 3) + 125, 5, 3)
    assert ok.verified and ok.witness["valuation"] == 3
    exact = _rational_verdict(Fraction(2, 7), Fraction(2, 7), 5, 3)
    assert exact.verified and exact.witness["valuation"] is None
    bad = _rational_verdict(1, 2, 5, 1)
    assert not bad.verified and bad.witness == {"valuation": 0, "required": 1}
    with pytest.raises(NotPIntegral):
        _rational_verdict(Fraction(1, 5), 0, 5, 1)
    # At an odd composite p the sides are reduced before p is counted.
    assert _rational_verdict(Fraction(1, 3), 0, 9, 1).witness == {"valuation": 0, "required": 1}
    assert _rational_verdict(Fraction(2, 6), Fraction(1, 3) + 27, 9, 1).witness == {"valuation": 1}
    with pytest.raises(NotPIntegral):
        _rational_verdict(Fraction(1, 9), 0, 9, 1)
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match=f"^p must be at least 2, got {p}$"):
            _rational_verdict(1, 2, p, 1)


def _factor_readings(x, y, p, n):
    """_digit_verdict's readings of two rationals at n digits per factor q^e of p."""
    readings = []
    for q, e in prime_factors(p):
        sides = padic._closed(x).adic(q, e * n), padic._closed(y).adic(q, e * n)
        readings.append((q, e, e * n, *sides))
    return readings


def test_factored_valuation_matches_reduced_fractions():
    # The count of p = prod q^e in t/u, read from w_q = v_q(t) - v_q(u) of the
    # unreduced pair at each prime factor q, is padic_valuation of the reduced
    # Fraction, and t/u is refused (not p-integral) exactly when no w_q
    # exceeds -e.  Where some w_q is only a lower bound the rule gives the
    # same count or none.  Mixed signs: 25/3 at p = 15 reads 0, 1/15 is refused.
    assert padic._factored_valuation([(1, -1, True), (1, 2, True)]) == 0
    assert padic_valuation(Fraction(25, 3), 15) == 0
    assert padic._factored_valuation([(1, -1, True), (1, -1, True)]) == -1
    assert prime_factors(225) == ((3, 2), (5, 2)) and prime_factors(61) == ((61, 1),)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert [n for n in range(-2, 60) if padic._is_prime(n)] == primes
    rng = random.Random(37)
    outcomes = {"open": 0, "bounded": 0, "refused": 0}
    for p in (9, 15, 25, 27, 45, 63, 75, 225):
        factors = prime_factors(p)

        def part():
            n = rng.randrange(1, 40)
            for q, _ in factors:
                n *= q ** rng.choice((0, 0, 1, 2, 3, 5))
            return n

        for _ in range(150):
            common = part()
            t, u = rng.choice((-1, 1)) * part() * common, part() * common
            want = padic_valuation(Fraction(t, u), p)
            depths = [(e, padic_valuation(t, q) - padic_valuation(u, q), True) for q, e in factors]
            assert padic._factored_valuation(depths) == want, (t, u, p)
            assert any(w > -e for e, w, _ in depths) == (want >= 0), (t, u, p)
            outcomes["refused"] += want < 0
            bounded = [
                (e, w, True) if rng.random() < 0.5 else (e, w - rng.randrange(3), False)
                for e, w, _ in depths
            ]
            got = padic._factored_valuation(bounded)
            assert got in (None, want), (t, u, p, bounded)
            outcomes["open" if got is None else "bounded"] += any(not exact for _, _, exact in bounded)
    assert min(outcomes.values()) > 50, outcomes
    # The digit verdict at p = 15 on the mixed-sign pair, and its refusal to
    # decide where a side is not p-integral: the exact triples name that side.
    got = padic._digit_verdict(_factor_readings(Fraction(25, 3), 0, 15, 7), 1)
    assert got.witness == {"valuation": padic_valuation(Fraction(25, 3), 15), "required": 1}
    assert padic._digit_verdict(_factor_readings(Fraction(1, 15), 0, 15, 7), 1) is None
    with pytest.raises(NotPIntegral, match="^1/15 is not p-integral at p = 15$"):
        padic._digit_verdict(_factor_readings(Fraction(1, 15), 0, 15, inf), 1)
    with pytest.raises(NotPIntegral, match="^1/15 is not p-integral at p = 15$"):
        _rational_verdict(Fraction(1, 15), 0, 15, 1)


def test_digit_verdicts_at_composite_p_match_reduced_verdicts():
    # Rationals x and y = x + c p^j at composite p, read to n digits at each
    # prime factor: where the digits decide, they decide as the reduced
    # Fractions do, and they never decide equal sides or a side that is not
    # p-integral.  Read exactly (R = inf), they decide every pair, and name
    # the first side that is not p-integral.
    rng = random.Random(3701)
    decided = undecided = 0
    for _ in range(600):
        p = rng.choice((9, 15, 21, 25, 27, 45, 63, 75, 225))
        k, n = rng.randrange(1, 5), rng.randrange(1, 9)
        x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        y = x + Fraction(rng.randrange(4), rng.randrange(1, 100)) * Fraction(p) ** rng.randrange(-1, 8)
        got = padic._digit_verdict(_factor_readings(x, y, p, n), k)
        refused = [side for side in (x, y) if padic_valuation(side, p) < 0]
        if refused:
            assert got is None, (x, y, p)
            with pytest.raises(NotPIntegral) as info:
                padic._digit_verdict(_factor_readings(x, y, p, inf), k)
            assert str(info.value) == f"{refused[0]} is not p-integral at p = {p}"
            continue
        v = padic_valuation(x - y, p)
        want = {"valuation": None if x == y else v} if v >= k else {"valuation": v, "required": k}
        exact = padic._digit_verdict(_factor_readings(x, y, p, inf), k)
        assert (exact.verified, exact.witness) == (v >= k, want), (x, y, p, k)
        if got is None:
            undecided += 1
            continue
        assert x != y and (got.verified, got.witness) == (v >= k, want), (x, y, p, k, n)
        decided += 1
    assert decided > 200 and undecided > 100, (decided, undecided)


def test_quartic_sum_frozen_difference():
    # At p = 5 the half-range quartic sum misses its closed form by
    # exactly -5^6 * 13 / 2^15, comfortably inside the p^5 modulus.
    lhs = _sum(_QUARTIC, 2)
    assert lhs == Fraction(29835, 32768)
    rhs = Fraction(1, 4) * (
        5
        + Fraction(125, 4) * _value(_harmonic(2, 2))
        - Fraction(125, 8) * _value(_harmonic(1, 2))
    )
    assert lhs - rhs == Fraction(-203125, 32768)
    assert padic_valuation(lhs - rhs, 5) == 6


def test_cor_1_4_records():
    for p in PRIMES:
        records = _records("COR_1_4", p)
        assert [rec["m_choice"] for rec in records] == ["first", "second"]
        for rec in records:
            assert rec["status"] == "verified", rec
            assert rec["modulus"] == f"{p}^5"
    deep = _records("COR_1_4", 5, s=2)
    assert all(rec["status"] == "verified" for rec in deep)
    assert deep[0]["modulus"] == "5^6"


def test_cor_5_g_frozen_value():
    # d = 4, p = 5, r = 1: both sides reduce to 1015/1024 exactly.
    assert _sum(_fifth_alt_series(4, 1), 1) == Fraction(1015, 1024)
    records = _records("COR_5_G", 5, d=4, r=1)
    assert all(rec["status"] == "verified" for rec in records)


def test_sun_statements():
    assert _value(_harmonic(6, 2)) - Fraction(14, 3) * bernoulli(4) == Fraction(5929, 3600)
    for p in PRIMES:
        for stmt in ("SUN_H2", "SUN_H2HALF"):
            (rec,) = _records(stmt, p)
            assert rec["status"] == "verified", (stmt, p)
            assert rec["modulus"] == f"{p}^2"
    for p in (7, 11, 13):
        (rec,) = _records("SUN_H3", p)
        assert rec["status"] == "verified", p
        assert rec["modulus"] == f"{p}^1"


def test_gamma_statements():
    cases = [
        ("PROP_1_7", 13, "13^4"),
        ("PROP_1_7", 7, "7^3"),
        ("PROP_1_8", 7, "7^4"),
        ("PROP_1_8", 5, "5^5"),
        ("VH_A2", 5, "5^3"),
        ("VH_A2", 7, "7^3"),
        ("VH_D2", 7, "7^4"),
        ("LIU", 7, "7^4"),
        ("LR", 7, "7^6"),
        ("LR", 11, "11^6"),
    ]
    for stmt, p, modulus in cases:
        for rec in _records(stmt, p):
            assert rec["status"] == "verified", (stmt, p, rec)
            assert rec["modulus"] == modulus
    # Every Gamma_p form's offset p^j stays below the modulus p^k, so some
    # digits of the Gamma_p product are always compared.
    forms = 0
    for stmt in CLASSICAL:
        for case in stmt.desk:
            k, _, rhs = _sides(stmt.stmt_id, **case)
            if isinstance(rhs, _GammaForm):
                assert 0 <= rhs.val_offset < k, (stmt.stmt_id, case)
                forms += 1
    assert forms == 17


def test_gamma_statements_refuse_composite_p():
    # Gamma_p exists only at a prime p, so each Gamma_p statement is skipped
    # at an odd composite p that meets its other side conditions.
    for stmt, p in [
        ("PROP_1_7", 9),
        ("PROP_1_8", 25),
        ("VH_A2", 9),
        ("VH_A2", 21),
        ("VH_D2", 25),
        ("VH_D2", 55),
        ("LIU", 27),
        ("LR", 25),
    ]:
        with pytest.raises(SideConditionViolated) as info:
            _records(stmt, p)
        assert str(info.value) == f"p must be an odd prime, got {p}", (stmt, p)
    # VH_A2 at p = 3 mod 4 has the rational right side 0, which a composite p
    # still reaches; there the sum is not 0 modulo p^3.
    for p, v in ((15, 1), (27, 2)):
        (rec,) = _records("VH_A2", p)
        assert rec["status"] == "failed"
        assert rec["witness"] == {"valuation": v, "required": 3}


def test_gamma_congruent_negative_control():
    # Flipping the sign of the Gamma-product coefficient must be detected,
    # on the lhs's digits from the oracle and on its exact triple.
    _, closed, form = catalog._check_prop_1_7(13, 1)
    lhs = closed_value(lambda: catalog._check_prop_1_7(13, 1))[1]
    x = residue_of_rational(lhs, 13, 4)
    good = padic._gamma_verdict(x, form, 13, 4)
    assert good.verified
    assert padic._verdicts(closed, form, 13, 4, inf) == [good]
    flipped = _GammaForm(0, Fraction(1), form.factors)
    bad = padic._gamma_verdict(x, flipped, 13, 4)
    assert not bad.verified
    assert bad.witness["lhs_residue"] != bad.witness["rhs_residue"]
    assert padic._verdicts(closed, flipped, 13, 4, inf) == [bad]


def test_side_conditions_and_selection():
    # The checks come in one order, all before a slot is selected: d and r as
    # the statement takes them, s and an odd p, the checker's own conditions,
    # then a prime p for a Gamma_p right side.
    with pytest.raises(UnknownKind):
        _records("NOT_A_STATEMENT", 5)
    refused = [
        (("VH_D2", 11), {}, "p must be 1 mod 6, got 11"),
        (("COR_1_5", 5), {}, "p^s must be 1 mod 3, got 5 = 2 mod 3"),
        (("SUN_H2", 7), {"s": 2}, "SUN_H2 is a single-power statement; s must be 1, got 2"),
        (("SUN_H2", 4), {"s": 2}, "SUN_H2 is a single-power statement; s must be 1, got 2"),
        (("SUN_H2", 4), {}, "p must be an odd prime, got 4"),
        (("COR_1_4", 4), {"s": 0}, "p must be an odd prime, got 4"),
        (("COR_1_4", 5), {"s": 0}, "s must be positive, got 0"),
        (("COR_5_E", 4), {"s": 0}, "COR_5_E needs both d and r"),
        (("COR_5_E", 7), {}, "COR_5_E needs both d and r"),
        (("COR_5_E", 7), {"d": 3}, "COR_5_E needs both d and r"),
        (("LIU", 7), {"d": 3, "r": 1}, "LIU does not take d or r"),
        (("LIU", 4), {"d": 3, "r": 1}, "LIU does not take d or r"),
        (("COR_5_H", 7), {"d": 5, "r": 1}, "p^s = 7 must be -r mod d = 5"),
        # The degree-d statements' windows are their q families' at n = p^s.
        (("COR_5_E", 7), {"d": 0, "r": 1}, "n and d must be positive, got n=7, d=0"),
        (("COR_5_E", 9), {"d": 3, "r": 0}, "gcd(n, d) must be 1, got gcd(9, 3)"),
        (("COR_5_G", 5), {"s": 2, "d": 5, "r": 0}, "gcd(n, d) must be 1, got gcd(25, 5)"),
        (("COR_5_H", 15), {"d": 3, "r": -1}, "gcd(n, d) must be 1, got gcd(15, 3)"),
        (("COR_5_H", 7), {"d": 7, "r": 1}, "gcd(n, d) must be 1, got gcd(7, 7)"),
        (("LIU", 9), {}, "p must be 3 mod 4 and exceed 5, got 9"),
        (("LIU", 15), {}, "p must be an odd prime, got 15"),
        (("SUN_H2", 3), {"m_choice": "second"}, "p must exceed 3, got 3"),
        (("SUN_H2", 5), {"m_choice": "second"}, "statement offers a single truncation; no 'second' choice"),
    ]
    for args, kwargs, message in refused:
        with pytest.raises(SideConditionViolated) as info:
            _records(*args, **kwargs)
        assert str(info.value) == message, (args, kwargs)
    only = _records("COR_1_4", 5, m_choice="second")
    assert len(only) == 1 and only[0]["m_choice"] == "second"
    with pytest.raises(UnknownKind):
        _records("COR_1_4", 5, m_choice="nope")


def test_degree_d_statements_refuse_where_their_q_windows_do():
    # COR_5_E and COR_5_G are THM_D's shadow at n = p^s, COR_5_H THM_E's:
    # each refuses exactly where that window does, with its message, over
    # every odd p <= 31, s <= 2, d in -1..6 and r in -6..6.  COR_5_E's own
    # check that 2r/d is not a non-positive integer may refuse beside it.
    windows = {
        "COR_5_E": catalog._thm_d_window,
        "COR_5_G": catalog._thm_d_window,
        "COR_5_H": catalog._thm_e_window,
    }

    def refusal(check, *args, **kwargs):
        try:
            check(*args, **kwargs)
        except SideConditionViolated as exc:
            return str(exc)
        return None

    for p in range(3, 32, 2):
        for s in (1, 2):
            for d in range(-1, 7):
                for r in range(-6, 7):
                    for stmt_id, window in windows.items():
                        want = refusal(window, p**s, d, r, label="p^s")
                        got = refusal(_sides, stmt_id, p, s, d, r)
                        extra = stmt_id == "COR_5_E" and want is None and got is not None
                        if extra:
                            assert got.startswith("2r/d = "), (stmt_id, p, s, d, r, got)
                        else:
                            assert got == want, (stmt_id, p, s, d, r)


def test_d_and_r_must_be_integers():
    # After the check that both are given, d and r are read as the other
    # integer parameters are: a str, a float or a bool is refused by name.
    for bad in ("3", 3.0, True):
        for name in ("d", "r"):
            bindings = {"p": 7, "d": 3, "r": 1, name: bad}
            with pytest.raises(SideConditionViolated) as info:
                run_statement("COR_5_E", bindings)
            assert str(info.value) == f"parameter {name!r} must be an integer", (bad, name)


def test_all_acceptance_ids_registered():
    expected = {
        "COR_1_4", "COR_1_5", "COR_1_6", "PROP_1_7", "PROP_1_8",
        "VH_A2", "VH_D2", "LIU", "LR",
        "COR_5_E", "COR_5_G", "COR_5_H",
        "SUN_H2", "SUN_H2HALF", "SUN_H3",
    }
    assert {stmt.stmt_id for stmt in CLASSICAL} == expected
    for stmt in CLASSICAL:
        assert stmt.desk, stmt.stmt_id


def test_gamma_reflection_grid_high_precision():
    # Gamma_p(x) * Gamma_p(1-x) = (-1)^(m-1) with m the least nonnegative
    # residue of -x mod p, on a finer grid than the basic reflection test.
    for p in PRIMES:
        for x in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
            if x.denominator % p == 0:
                continue
            lhs = gamma_p(x, p, 4) * gamma_p(1 - x, p, 4) % p**4
            m = residue_of_rational(-x, p, 1)
            assert lhs == (-1 if (m - 1) % 2 else 1) % p**4, (p, x)


def test_gamma_functional_equation_integers():
    # Gamma_p(x+1)/Gamma_p(x) is -x for units and -1 on multiples of p,
    # checked across two full periods of integers.
    for p in (5, 7):
        for x in range(1, 2 * p + 1):
            ratio = gamma_p(x + 1, p, 3) * pow(gamma_p(x, p, 3), -1, p**3) % p**3
            expected = -x if x % p else -1
            assert ratio == expected % p**3, (p, x)


def test_gamma_wilson_consistency():
    # At integer p the product definition collapses to -(p-1)!.
    import math

    for p in PRIMES:
        expected = -math.factorial(p - 1)
        assert gamma_p(p, p, 4) == expected % p**4, p


def test_bernoulli_recurrence():
    # sum_{k=0}^{m} C(m+1, k) B_k = 0 for every m >= 1.
    import math

    for m in range(1, 21):
        total = sum(math.comb(m + 1, k) * bernoulli(k) for k in range(m + 1))
        assert total == 0, m


def test_q_to_one_bridge_matches_classical_sum():
    # The truncated q-side cubic sum at n = 4, M = 1 specializes at q = 1
    # to the classical sum of (6k+1) ((1/3)_k / k!)^6.
    from qcongruence.qseries import truncated_sum_prefixes, well_poised_spec

    lhs = truncated_sum_prefixes(well_poised_spec(3, 1), [1])[1]
    assert at_one(lhs) == _sum(_CUBIC, 1)
    assert _sum(_CUBIC, 1) == 1 + 7 * Fraction(1, 3) ** 6


# -- reference oracles: the term-by-term Fraction loops and the plain Gamma_p
# product, kept here to check the integer kernels against -------------------


def _ref_sum_quartic(m):
    total, t = Fraction(0), Fraction(1)
    for k in range(m + 1):
        total += (4 * k + 1) * t if k % 2 == 0 else -(4 * k + 1) * t
        t *= ((Fraction(1, 2) + k) / (k + 1)) ** 5
    return total


def _ref_sum_cubic(m):
    total, t = Fraction(0), Fraction(1)
    for k in range(m + 1):
        total += (6 * k + 1) * t
        t *= ((Fraction(1, 3) + k) / (k + 1)) ** 6
    return total


def _ref_sum_sixth(d, r, m):
    total, t = Fraction(0), Fraction(1)
    for k in range(m + 1):
        total += (2 * d * k + r) * t
        t *= ((Fraction(r, d) + k) / (k + 1)) ** 6
    return total


def _ref_sum_fifth_alt(d, r, m):
    total, t = Fraction(0), Fraction(1)
    for k in range(m + 1):
        term = (2 * d * k + r) * t
        total += term if k % 2 == 0 else -term
        t *= ((Fraction(r, d) + k) / (k + 1)) ** 5
    return total


def _ref_inner_double(d, r, length, scale, cube, bare=False):
    total, t, h = Fraction(0), Fraction(1), Fraction(0)
    for k in range(length + 1):
        if k:
            h += Fraction(1, (d * k) ** 2) + Fraction(1, (d * k - d + r) ** 2)
        total += t * (scale - cube * h)
        if bare:
            t *= (Fraction(r, d) + k) ** 2 * (Fraction(d - r, d) + k) / (k + 1) ** 3
        else:
            t *= (
                (Fraction(r, d) + k) ** 3
                * (Fraction(d - r, d) + k)
                / ((k + 1) ** 3 * (Fraction(2 * r, d) + k))
            )
    return total


def _ref_harmonic(m, ell):
    return sum((Fraction(1, k**ell) for k in range(1, m + 1)), Fraction(0))


def _ref_rising(x, k):
    out, x = Fraction(1), Fraction(x)
    for i in range(k):
        out *= x + i
    return out


def _ref_gamma_residue(x, p, precision):
    """The plain product loop behind gamma_p, with gamma_p's argument checks."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    x = Fraction(x)
    if padic_valuation(x, p) < 0:
        raise NotPIntegral(f"Gamma_p argument {x} is not p-integral at p = {p}")
    modulus = p**precision
    r = residue_of_rational(x, p, precision) or modulus
    acc = 1
    for k in range(1, r):
        if k % p:
            acc = acc * k % modulus
    return (modulus - acc) % modulus if r % 2 else acc


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error class and message must match too
        return (type(exc).__name__, str(exc))


# Truncation lengths: the small ones, and the ones s = 2 uses at P = 13^2, 17^2.
SMALL_LENGTHS = (0, 1, 2, 3, 4, 5, 7, 10)
S2_LENGTHS = ((169 - 1) // 2, 169 - 1, (289 - 1) // 2, 289 - 1)
DR_SHAPES = tuple(
    (d, r) for d in (3, 4, 5) for r in (-4, -3, -2, -1, 1, 2, 3, 4) if r % d and abs(r) < d + 1
)


def test_single_sums_match_fraction_loops():
    for m in SMALL_LENGTHS + S2_LENGTHS:
        assert _sum(_QUARTIC, m) == _ref_sum_quartic(m), m
        assert _sum(_CUBIC, m) == _ref_sum_cubic(m), m
    for d, r in DR_SHAPES:
        for m in SMALL_LENGTHS + ((169 - r) // d, (289 - r) // d):
            assert _sum(_sixth_series(d, r), m) == _ref_sum_sixth(d, r, m), (d, r, m)
            assert _sum(_fifth_alt_series(d, r), m) == _ref_sum_fifth_alt(d, r, m), (d, r, m)


def test_double_sums_match_fraction_loops():
    for d, r in DR_SHAPES:
        if 2 * r % d == 0 and r < 0:
            continue  # (2r/d)_k vanishes: COR_5_E skips these points
        for P in (169, 289):
            lengths = SMALL_LENGTHS + ((P - r) // d, (d * P - P - r) // d)
            scales = ((P, P**3), ((d - 1) * P, (d - 1) ** 3 * P**3))
            for m in lengths:
                for scale, cube in scales:
                    got = _value(_inner_double(d, r, m, scale, cube))
                    assert got == _ref_inner_double(d, r, m, scale, cube), (d, r, m)
                    got = _value(_inner_double_bare(d, r, m, scale, cube))
                    assert got == _ref_inner_double(d, r, m, scale, cube, bare=True), (d, r, m)


def test_harmonic_rising_and_correction_match_fraction_loops():
    for m in SMALL_LENGTHS + S2_LENGTHS:
        for ell in (1, 2, 3):
            assert _value(_harmonic(m, ell)) == _ref_harmonic(m, ell), (m, ell)
        for x in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 4),
                  Fraction(-7, 3), Fraction(-2), Fraction(1), 0):
            assert _rising(x, m) == _ref_rising(x, m), (x, m)
        expected = sum(
            (Fraction(1, (3 * j - 1) ** 2) - Fraction(1, (3 * j) ** 2) for j in range(1, m + 1)),
            Fraction(0),
        )
        assert _value(_cubic_correction(m)) == expected, m


def test_gamma_p_matches_plain_loop_at_every_residue():
    # Every residue r in 1..p^N with p^N <= 3000.
    for p in (3, 5, 7, 11, 13):
        precision = 1
        while p**precision <= 3000:
            for r in range(1, p**precision + 1):
                expected = _ref_gamma_residue(r, p, precision)
                value = gamma_p(r, p, precision)
                assert type(value) is int and 0 <= value < p**precision, (p, precision, r)
                assert value == expected, (p, precision, r)
            precision += 1


def test_gamma_p_rejects_composite_p():
    # Gamma_p is defined only at a prime p: an odd composite p is refused as an
    # even one is.
    for p in (2, 4, 9, 15, 25):
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}"):
            gamma_p(Fraction(1, 4), p, 1)


def _ref_gamma_residues(p, precision, rs):
    """_ref_gamma_residue at each integer r in rs, from one pass of its loop."""
    modulus = p**precision
    out, acc, start = {}, 1, 1  # acc = prod of the k < start prime to p
    for r in sorted(set(rs)):
        for k in range(start, r):
            if k % p:
                acc = acc * k % modulus
        start = r
        out[r] = (modulus - acc) % modulus if r % 2 else acc
    return out


ODD_PRIMES_TO_61 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def test_gamma_p_block_product_at_the_largest_n_with_p_to_the_n_below_10_7():
    # Every odd prime p <= 61 at the largest N with p^N <= 10^7, the former
    # precision budget (N = 14 at p = 3): the boundary residues and 20 seeded
    # random ones.
    former_budget = 10**7
    rng = random.Random(20211)
    largest = {}
    for p in ODD_PRIMES_TO_61:
        precision = 1
        while p ** (precision + 1) <= former_budget:
            precision += 1
        largest[p] = precision
        modulus = p**precision
        edges = [1, 2, p, p + 1, modulus - 1, modulus]
        rs = edges + [rng.randint(1, modulus) for _ in range(20)]
        expected = _ref_gamma_residues(p, precision, rs)
        for r in edges[:4]:
            assert expected[r] == _ref_gamma_residue(r, p, precision), (p, r)
        for r in rs:
            value = gamma_p(r, p, precision)
            assert type(value) is int and 0 <= value < modulus, (p, precision, r)
            assert value == expected[r], (p, precision, r)
    assert largest[3] == 14 and largest[61] == 3


def _ref_block_log(m, p, work):
    """sum over blocks k < m and units j < p of log(1 + k p / j), mod p^work."""
    total = Fraction(0)
    for k in range(m):
        for j in range(1, p):
            x = Fraction(k * p, j)  # term i has valuation >= i - log_3(i): these are enough
            total += sum(Fraction((-1) ** (i + 1), i) * x**i for i in range(1, 3 * work + 3))
    return residue_of_rational(total, p, work)


def test_gamma_p_block_log_matches_termwise_logarithms():
    # L modulo the working precision p^W, against the logarithm of every unit
    # factor of every block summed term by term.
    for p in (3, 5, 7):
        for precision in range(1, 7):
            work = padic._gamma_series(p, precision)[0]
            assert work >= precision
            for m in range(9):
                got = padic._block_log(m, p, precision)
                assert got == _ref_block_log(m, p, work), (p, precision, m)


def test_gamma_p_power_sums():
    for i in range(12):
        for m in range(8):
            assert padic._power_sum(i, m) == sum(k**i for k in range(m)), (i, m)


def test_m_choice_sums_only_the_selected_slot(monkeypatch):
    # Record the ends each pass sums to: a selected slot sums only its own
    # range, and both slots go in one pass, which runs over k up to the last
    # end once.  The digits decide unless a slot's sides are equal: only
    # COR_5_G's first slot at p = 5 is, so only a call that takes it makes a
    # second pass at twice the digits and then an exact one, and each sums
    # the first slot's range alone.
    passes = {}

    def spy(series, ends, p, n, kernel=padic._series_residues):
        passes.setdefault("exact" if n == inf else "digits", []).append(tuple(ends))
        return kernel(series, ends, p, n)

    monkeypatch.setattr(padic, "_series_residues", spy)
    # The first slots end at (5*41 - 41 + 1)/5 = 33 and (5 - 1)/4 = 1.
    cases = (("COR_5_H", 41, 5, -1, 33, ()), ("COR_5_G", 5, 4, 1, 1, ("first", "both")))
    for stmt, p, d, r, first, equal in cases:
        for m_choice, ends in (("first", (first,)), ("second", (p - 1,)), ("both", (first, p - 1))):
            passes.clear()
            _records(stmt, p, d=d, r=r, m_choice=m_choice)
            rerun = m_choice in equal
            assert passes.pop("digits") == [ends] + [(first,)] * rerun, (stmt, m_choice)
            assert passes == ({"exact": [(first,)]} if rerun else {}), (stmt, m_choice)


# The (d, r) shapes of the benchmark's classical pool, per statement.
POOL_DR = {
    "COR_5_E": [(3, r) for r in (1, -1, 2, -2, 4, -4)] + [(4, r) for r in (1, -1, 3, -3)],
    "COR_5_G": [(3, r) for r in (1, -1, 2, -2, 4, -4)] + [(4, r) for r in (1, -1, 3, -3)],
    "COR_5_H": [(d, r) for d in (3, 4, 5) for r in (1, -1)],
}


def _points(stmt, moduli, powers):
    """Every point of stmt at the given p and s (s = 1 only where it takes none)."""
    for p in moduli:
        for s in powers if _takes(stmt, "takes_s") else (1,):
            for dr in POOL_DR[stmt.stmt_id] if _takes(stmt, "takes_dr") else [()]:
                yield dict(p=p, s=s, **dict(zip("dr", dr)))


def _assert_slots_match(stmt_id, case, both):
    one_by_one = [
        rec
        for m_choice in ("first", "second")[: len(both)]
        for rec in _records(stmt_id, **case, m_choice=m_choice)
    ]
    assert one_by_one == both, (stmt_id, case)


def test_m_choice_records_match_both_slots():
    # The desk cases, then s = 2 and the pool's (d, r) shapes at p = 17 and
    # 19, where one pass differs most from two: COR_5_H's first slot is
    # (d-1)/d of its second.  Only the added points may break a side
    # condition.
    for stmt in CLASSICAL:
        for case in stmt.desk:
            _assert_slots_match(stmt.stmt_id, case, _records(stmt.stmt_id, **case))
        if not _takes(stmt, "takes_s"):
            continue
        for case in _points(stmt, (17, 19), (1, 2)):
            try:
                both = _records(stmt.stmt_id, **case)
            except SideConditionViolated:
                continue
            _assert_slots_match(stmt.stmt_id, case, both)


def _ref_valuation(x, p):
    x = Fraction(x)
    if x == 0:
        return float("inf")
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _ref_verdict(lhs, rhs, p, k):
    """The verdict from reduced Fractions: every side, difference and
    quotient is reduced before its valuation or residue is read."""
    if _ref_valuation(lhs, p) < 0:
        raise NotPIntegral(f"{lhs} is not p-integral at p = {p}")
    if isinstance(rhs, _GammaForm):
        j = rhs.val_offset
        needed = k - j
        if needed > 0:
            scaled = lhs / p**j
            if _ref_valuation(scaled, p) < 0:
                return False, {"valuation": int(_ref_valuation(lhs, p)), "required": k}
            modulus = p**needed
            rhs_res = residue_of_rational(rhs.coef, p, needed)
            for arg, e in rhs.factors:
                rhs_res = rhs_res * pow(gamma_p(arg, p, needed), e, modulus) % modulus
            lhs_res = residue_of_rational(scaled, p, needed)
            if lhs_res == rhs_res:
                return True, {"residue": rhs_res, "precision": needed}
            return False, {
                "lhs_residue": lhs_res,
                "rhs_residue": rhs_res,
                "modulus": f"{p}^{k}",
                "valuation_offset": j,
            }
        rhs = Fraction(0)
    if _ref_valuation(rhs, p) < 0:
        raise NotPIntegral(f"{rhs} is not p-integral at p = {p}")
    v = _ref_valuation(lhs - rhs, p)
    if v >= k:
        return True, {"valuation": None if lhs == rhs else int(v)}
    return False, {"valuation": int(v), "required": k}


def _ref_records(stmt_id, p, s=1, d=None, r=None):
    """_records's records for both slots, each side a Fraction from the
    oracle (each slot summed on its own) and reduced; a side that is not
    p-integral gives the one error record."""
    k, lhs, rhs = closed_value(lambda: _sides(stmt_id, p, s, d, r))
    if isinstance(lhs, padic._Truncations):
        # every term of the series is p-integral (_series_residues)
        assert gcd(lhs.series.d, p) == 1, (stmt_id, p, s, d, r)
        sides = [series_sum(lhs.series, end) for end in lhs.ends]
    else:
        sides = [lhs]
    params = {"p": p, "s": s, "d": d, "r": r} if d is not None else {"p": p, "s": s}
    records = []
    try:
        for slot, side in zip(("first", "second"), sides):
            verified, witness = _ref_verdict(side, rhs, p, k)
            records.append((f"{p}^{k}", slot, "verified" if verified else "failed", witness))
    except NotPIntegral as exc:
        records = [("", "first", "error", {"error": "NotPIntegral", "detail": str(exc)})]
    keys = ("modulus", "m_choice", "status", "witness")
    return [
        {"id": stmt_id, "params": params, **dict(zip(keys, rec)), "elapsed_ms": 0, "seed": 0}
        for rec in records
    ]


def test_pair_verdicts_match_reduced_fraction_reference():
    # Every statement at the pool's sizes (primes 17..61 at s = 1, 17 and 23
    # at s = 2, the pool's (d, r) shapes) and at the odd composite moduli of
    # its negative controls (s = 1 and 2 at 9, 15, 21, 25, 27, 33 and 35),
    # where records and errors must agree too.  The Gamma_p statements skip
    # composite p.
    primes = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    composites = (9, 15, 21, 25, 27, 33, 35)
    compared = 0
    for stmt in CLASSICAL:
        points = list(_points(stmt, primes + composites, (1,)))
        if _takes(stmt, "takes_s"):
            points += _points(stmt, (17, 23) + composites, (2,))
        for point in points:
            got = _outcome(_records, stmt.stmt_id, *point.values())
            if got[0] == "SideConditionViolated":
                continue
            expected = _outcome(_ref_records, stmt.stmt_id, *point.values())
            assert got == expected, (stmt.stmt_id, point)
            compared += 1
    assert compared > 400


def test_gamma_statements_past_the_former_budget_are_verified():
    # Points whose Gamma_p modulus p^N lies past 10^7, inside every
    # statement's hypotheses: verified, with the reference's records.
    points = [("LR", 31), ("LR", 37), ("LR", 43), ("LR", 61), ("LR", 199),
              ("PROP_1_7", 61), ("PROP_1_8", 61)]
    for stmt_id, p in points:
        records = _records(stmt_id, p)
        assert int(records[0]["modulus"].split("^")[1]) > 1
        assert all(rec["status"] == "verified" for rec in records), (stmt_id, p)
        assert records == _ref_records(stmt_id, p), (stmt_id, p)


def test_cor_5_e_pole_of_denominator_is_skipped():
    # d | 2r with r < 0 makes (2r/d)_k vanish in the double sum's denominator.
    with pytest.raises(SideConditionViolated, match="non-positive integer"):
        _records("COR_5_E", 5, d=2, r=-1)
    with pytest.raises(SideConditionViolated, match="non-positive integer"):
        _records("COR_5_E", 3, s=2, d=2, r=-7)
    assert all(rec["status"] == "verified" for rec in _records("COR_5_E", 5, d=2, r=1))


# -- verdicts from sides built as their first digits ----------------------------


def _all_points(s1_primes, s2_primes, s3_primes=()):
    """(id, point) for every statement: s = 1 at s1_primes, and where it takes
    s, s = 2 at s2_primes and s = 3 at s3_primes."""
    for stmt in CLASSICAL:
        yield from ((stmt.stmt_id, pt) for pt in _points(stmt, s1_primes, (1,)))
        if _takes(stmt, "takes_s"):
            yield from ((stmt.stmt_id, pt) for pt in _points(stmt, s2_primes, (2,)))
            yield from ((stmt.stmt_id, pt) for pt in _points(stmt, s3_primes, (3,)))


def _agrees_to_all_digits(rec) -> bool:
    """Whether a record's sides at a prime p agree to all 2 (k + _SPARE_DIGITS)
    digits, the most that are read before an exact build."""
    k = int(rec["modulus"].split("^")[1])
    v = rec["witness"].get("valuation", 0)
    return v is None or v >= 2 * (k + padic._SPARE_DIGITS)


def _undecided_by_digits(outcome) -> bool:
    """Whether the digits cannot decide some slot of this outcome: sides that
    agree to all their digits, or a side that is not p-integral."""
    if not isinstance(outcome, list):  # a side condition refused the point
        return False
    if outcome[0]["status"] == "error":
        return outcome[0]["witness"]["error"] == "NotPIntegral"
    return any(_agrees_to_all_digits(rec) for rec in outcome)


def test_residue_verdicts_match_exact_verdicts(monkeypatch):
    # Records, witnesses and raised errors from sides built as their first
    # digits are those of the exact sides: every statement and m_choice, s = 1
    # at the primes 3..61, s = 2 at 5..31 and s = 3 at 5..13, over the pool's
    # (d, r) shapes, and d = 1, where the harmonic tails' factor d - r + dk
    # vanishes at k = r - 1.  Only the calls the digits cannot decide build a
    # slot again exactly, so a kernel that gives up too early fails here, not
    # only in time.
    d_one = [
        (stmt_id, dict(p=p, s=s, d=1, r=r))
        for stmt_id in ("COR_5_E", "COR_5_G")
        for p in (5, 7, 11)
        for s in (1, 2)
        for r in (1, 2)
    ]
    points = list(_all_points(ODD_PRIMES_TO_61, (5, 7, 11, 13, 17, 19, 23, 29, 31), (5, 7, 11, 13)))
    points += d_one
    calls = [
        partial(_records, stmt_id, **pt, m_choice=m_choice)
        for stmt_id, pt in points
        for m_choice in ("both", "first", "second")
    ]
    verdicts = padic._verdicts
    exact_runs = []

    def spy(lhs, rhs, p, k, digits):
        if digits == inf:
            exact_runs.append(len(reduced))
        return verdicts(lhs, rhs, p, k, digits)

    monkeypatch.setattr(padic, "_verdicts", spy)
    reduced = []
    for call in calls:
        reduced.append(_outcome(call))
    undecided = [i for i, got in enumerate(reduced) if _undecided_by_digits(got)]
    assert exact_runs == undecided
    # from here on every side is built exactly
    monkeypatch.setattr(padic, "_verdicts", lambda lhs, rhs, p, k, digits: verdicts(lhs, rhs, p, k, inf))
    assert [_outcome(call) for call in calls] == reduced
    assert sum(isinstance(got, list) and got[0]["status"] != "error" for got in reduced) > 500
    assert sum(isinstance(got, list) and got[0]["params"]["s"] == 3 for got in reduced) > 100
    assert all(got[0]["status"] == "verified" for got in reduced[-3 * len(d_one) :])
    assert 0 < len(undecided) < 100


def test_exact_rerun_builds_only_the_undecided_slot(monkeypatch):
    # Both slots of every two-slot point at s = 1, p = 3..61: an exact pass
    # sums the ends of the slots whose sides agree to all digits, and no
    # other, so where one slot of two is undecided one slot is built.
    built = []

    def spy(series, ends, p, n, kernel=padic._series_residues):
        if n == inf:
            built.append(ends)
        return kernel(series, ends, p, n)

    monkeypatch.setattr(padic, "_series_residues", spy)
    one_of_two = 0
    for stmt_id, pt in _all_points(ODD_PRIMES_TO_61, ()):
        built.clear()
        got = _outcome(partial(_records, stmt_id, **pt))
        if not isinstance(got, list) or len(got) != 2 or got[0]["status"] == "error":
            continue
        lhs = _sides(stmt_id, **pt)[1]
        expected = tuple(end for end, rec in zip(lhs.ends, got) if _agrees_to_all_digits(rec))
        assert built == ([expected] if expected else []), (stmt_id, pt)
        one_of_two += len(expected) == 1
    assert one_of_two > 5


def _adic_error(closed, exact, p, precision):
    """v and v_p(exact - p^v a / b) for closed.adic(p, precision), b a unit:
    inf where the triple is the exact value, as it must be at R = inf."""
    v, a, b = closed.adic(p, precision)
    assert b % p, (a, b)
    if precision < inf:
        assert 0 <= a < p**precision and 0 < b < p**precision
    return v, padic_valuation(exact - Fraction(a, b) * Fraction(p) ** v, p)


def _assert_series_sums(series, ends, p, n):
    """The series' triples at R = n and at R = inf against the oracle's sums:
    each slot's residue modulo p^n, and its exact value."""
    sums = [series_sum(series, end) for end in ends]
    got = [padic._residue(x, p, n, n) for x in padic._series_residues(series, ends, p, n)]
    assert got == [residue_of_rational(x, p, n) for x in sums], (series.d, series.r, p, ends, n)
    exact = padic._series_residues(series, ends, p, inf)
    assert [Fraction(a, b) for _, a, b in exact] == sums, (series.d, series.r, p, ends)


def test_fixed_precision_sides_match_exact_pairs():
    # The kernels at prime p, at R = n and R = inf, against the oracle's
    # Fraction evaluation of each side's definition at seeded (p, s, d, r,
    # ends).  A truncated series' residues modulo p^n are the exact sums'
    # digits, at n where terms with v = n - 1 (the last that count) and
    # v >= n (the first that drop) occur, and at R = inf its triples are the
    # exact sums.  A closed form's triple (v, a, b) at precision R is its
    # exact value modulo p^(v+R), and at R = inf the exact value; that
    # includes harmonic tails whose terms 1/(dj)^2 with p | dj have negative
    # valuation, and whose v is then negative.
    rng = random.Random(35)
    term_valuations, depths = set(), set()
    for _ in range(80):
        p = rng.choice((3, 5, 7, 11, 13))
        P = p ** rng.choice((1, 2, 3) if p < 11 else (1, 2))
        # no linear factor r + dk, dk - d + r or 2r + dk vanishes
        d = rng.choice([d for d in (3, 4, 5) if d % p])
        r = rng.choice([r for r in range(-2 * d, 2 * d + 1) if r % d and (2 * r) % d])
        power = rng.choice((5, 6))
        series = (_fifth_alt_series if power == 5 else _sixth_series)(d, r)
        ends = tuple(sorted(rng.sample(range(P), 2)))[: rng.choice((1, 2))]
        n = rng.choice((1, 4, power, power + 1, 2 * power, 2 * power + 1))
        _assert_series_sums(series, ends, p, n)
        v = 0  # v_p(t_k) of the running term, k = 0..ends[-1]
        for k in range(ends[-1] + 1):
            term_valuations.add((v - n) if v >= n - 1 else None)
            v += power * (padic_valuation(r + d * k, p) - padic_valuation(d * k + d, p))
        length = rng.randrange(P)
        scale, cube, bare_cube = rng.choice((1, P, d * P)), rng.choice((1, P**3)), rng.choice((1, p, P**3))
        harmonic = rng.randrange(P), rng.choice((1, 2, 3))
        correction = rng.randrange(P)
        for build in (
            lambda: _inner_double(d, r, length, scale, cube),
            lambda: _inner_double_bare(d, r, length, 1, bare_cube),
            lambda: _harmonic(*harmonic),
            lambda: padic._ratio(r, d, 2 * r, d, length) ** 2 * padic._ratio(1, 2, 3, 2, length),
            lambda: _cubic_correction(correction) * P + Fraction(p, 3),
        ):
            closed, exact = build(), closed_value(build)
            for precision in (1, 3, 9, inf):
                v, error = _adic_error(closed, exact, p, precision)
                assert error >= v + precision, (p, P, d, r, length, precision)
            depths.add(v)
            # a negative v leaves the residue modulo p^n unknown
            want = None if v < 0 else residue_of_rational(exact, p, n)
            assert padic._residue(closed.adic(p, n), p, n, n) == want, (p, P, d, r, length, n)
            # an exact triple gives it where the value is p-integral
            if padic_valuation(exact, p) >= 0:
                assert padic._residue(closed.adic(p, inf), p, n, inf) == residue_of_rational(exact, p, n)
            else:
                with pytest.raises(NotPIntegral, match=f"^{exact} is not p-integral at p = {p}$"):
                    padic._residue(closed.adic(p, inf), p, n, inf)
    assert {-1, 0} <= term_valuations  # v = n - 1 and v = n both occur
    assert any(v >= 1 for v in term_valuations if v is not None)
    assert min(depths) <= -4


def test_vanishing_numerator_factor_ends_the_sum():
    # At d = 1 a linear factor of a numerator vanishes: r + dk at k = -r in a
    # series with r <= 0, d - r + dk at k = r - 1 in a harmonic tail.  That
    # term and every later one are 0, in the kernels as in the oracle.
    for p in (3, 5, 7):
        for r in (-3, -2, -1):
            for series in (_sixth_series(1, r), _fifth_alt_series(1, r)):
                for ends in ((-r - 1, -r), (-r, p * p - 1)):
                    _assert_series_sums(series, ends, p, 8)
        for r in (1, 2, 3):
            for build in (
                lambda: _inner_double(1, r, p * p - r, p * p, p**6),
                lambda: _inner_double_bare(1, r, p * p - r, p * p, p**6),
                lambda: padic._ratio(1 - r, 1, 1, 1, r + 2),
            ):
                closed, exact = build(), closed_value(build)
                for precision in (1, 4, inf):
                    v, error = _adic_error(closed, exact, p, precision)
                    assert error >= v + precision, (p, r, precision)


class _Shifted:
    """A left side plus a constant, built as the side is."""

    def __init__(self, side, shift):
        self.side, self.shift, self.ends = side, shift, side.ends

    def adics(self, p, n):
        # a truncated series' triples (0, s, w) stand for its sums s / w
        modulus = padic._modulus(p, n)
        return [(0, (s + self.shift * w) % modulus, w) for _, s, w in self.side.adics(p, n)]


def test_prime_negative_control_fails_at_k_minus_one():
    # A verified truncated sum plus a unit times p^(k-1) fails with valuation
    # k - 1, from the sides' digits and from the exact ones.
    shifted = 0
    for stmt_id, pt in _all_points((11, 17, 19, 23, 29), (7, 11)):
        try:
            k, lhs, rhs = _sides(stmt_id, **pt)
        except SideConditionViolated:
            continue
        if not isinstance(lhs, padic._Truncations) or isinstance(rhs, _GammaForm):
            continue
        p = pt["p"]
        side = _Shifted(lhs, (2 + 3 * p) * p ** (k - 1))
        for digits in (k + padic._SPARE_DIGITS, inf):
            for result in padic._verdicts(side, rhs, p, k, digits):
                assert not result.verified, (stmt_id, pt, digits)
                assert result.witness == {"valuation": k - 1, "required": k}, (stmt_id, pt, digits)
        shifted += 1
    assert shifted > 40
