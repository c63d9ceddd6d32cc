"""Tests for modulus construction and the congruence decision procedure."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qcongruence.congruence import (
    CongruenceResult,
    Modulus,
    _poly_text,
    _power_collision,
    build_modulus,
    congruent,
    sample_params,
)
from qcongruence.errors import DenominatorNotUnit, SamplingExhausted, UnknownKind
from qcongruence import catalog, congruence, polyring, qseries
from qcongruence.polyring import (
    QFactored,
    QPoly,
    QRat,
    cyclotomic,
    cyclotomic_exponents,
    cyclotomic_form,
    poly_divrem,
    poly_try_div,
    poly_gcd,
    q_integer,
)
from qcongruence.qseries import TermSpec, qma, truncated_sum_prefixes


def binom(c, e):
    """1 - c*q^e."""
    return QPoly([1] + [0] * (e - 1) + [-Fraction(c)])


def test_build_modulus_qint_phi():
    m = build_modulus("QINT_PHI_POW", 3, {"k": 4})
    assert m.factors == ((q_integer(3), 1), (cyclotomic(3), 4))
    assert m.monic_product == q_integer(3) * cyclotomic(3) ** 4
    assert m.forms == (((1, -1), (3, 1)), cyclotomic_form(3))
    assert m.label == "[3]*Phi(3)^4"


def test_build_modulus_trivial_at_one():
    m = build_modulus("QINT", 1)
    assert m.is_trivial()
    assert m.monic_product == QPoly.one()
    r = congruent(QRat.from_value(QPoly([0, 1])), 5, m)
    assert r.verified and r.witness.get("trivial")


def test_build_modulus_specialized():
    m = build_modulus("SPECIALIZED", 2, {"t": 1, "a": Fraction(2, 3), "b": Fraction(5)})
    expected = [
        binom(Fraction(2, 3), 2),
        QPoly([Fraction(2, 3), 0, -1]),
        binom(5, 2),
        QPoly([5, 0, -1]),
    ]
    assert [f for f, _ in m.factors] == expected
    assert all(mult == 1 for _, mult in m.factors)
    # The integer-built binomials equal those built from Fraction coefficients.
    for x in (Fraction(2, 3), Fraction(-7, 4), Fraction(5), Fraction(-1, 9), Fraction(9, 2)):
        for e in range(1, 5):
            m = build_modulus("SPECIALIZED", e, {"a": x})
            assert [f for f, _ in m.factors] == [
                QPoly([1] + [0] * (e - 1) + [-x]),
                QPoly([x] + [0] * (e - 1) + [-1]),
            ]


def test_build_modulus_unknown_kind():
    with pytest.raises(UnknownKind):
        build_modulus("TOTIENT", 3)


def test_congruent_simple_verified():
    m = Modulus([(cyclotomic(2), 1)])
    assert congruent(QRat.from_value(QPoly.monomial(2)), 1, m).verified


def test_congruent_exact_mode():
    x = QRat(QPoly([-1, 0, 1]), QPoly([-1, 1]))  # (q^2 - 1)/(q - 1)
    r = congruent(x, QPoly([1, 1]), None)
    assert r == CongruenceResult(True, {"difference": "0"})
    assert r.status == "verified"
    # x - q^3 = 1 + q - q^3: unequal, so the witness is the difference degree
    r = congruent(x, QPoly.monomial(3), None)
    assert r == CongruenceResult(False, {"difference_degree": 3})
    assert r.status == "failed"
    # no modulus is not the trivial modulus: "mod 1" holds for any pair
    assert congruent(x, QPoly.monomial(3), Modulus([])).verified


def test_congruence_result_status():
    assert CongruenceResult(True, {}).status == "verified"
    assert CongruenceResult(False, {}).status == "failed"
    m = build_modulus("QINT_PHI_POW", 5, {"k": 2})
    assert congruent(QRat.from_value(QPoly.monomial(1)), 0, m).status == "failed"
    with pytest.raises(AttributeError):
        CongruenceResult(True, {}).status = "failed"


def test_congruent_denominator_not_unit():
    m = Modulus([(QPoly([1, 1]), 1)])
    with pytest.raises(DenominatorNotUnit):
        congruent(QRat(QPoly.one(), QPoly([1, 1])), 0, m)


def test_congruent_failed_witness():
    m = build_modulus("QINT_PHI_POW", 5, {"k": 2})
    r = congruent(QRat.from_value(QPoly.monomial(1)), 0, m)
    assert not r.verified
    assert r.witness["remainder_degree"] == 1
    assert r.witness["failing_factor"].startswith("(")


def reference_unit_check(num, den, p):
    """The unit check by long division: cancel gcd(den mod p, p) against num.

    Returns the DenominatorNotUnit detail, or the numerator left to divide.
    """
    while not den.is_one():
        dr = poly_divrem(den, p)[1]
        h = p if dr.is_zero() else poly_gcd(dr, p)
        if h.degree == 0:
            break
        nr = poly_divrem(num, h)[1]
        g = h if nr.is_zero() else poly_gcd(nr, h)
        if g.degree == 0:
            return f"denominator shares the factor {_poly_text(h)} with the modulus"
        num = poly_try_div(num, g)
        den = poly_try_div(den, g)
    return num


def phi_exponents(m):
    """The Phi_d exponents ((d, k_d), ...) of m's binomial form, or None."""
    return None if m.form is None else cyclotomic_exponents(m.form)


def test_phi_exponents_of_indexed_moduli():
    assert phi_exponents(build_modulus("QINT", 12)) == ((2, 1), (3, 1), (4, 1), (6, 1), (12, 1))
    assert phi_exponents(build_modulus("PHI_POW", 9, {"k": 3})) == ((9, 3),)
    assert phi_exponents(build_modulus("QINT_PHI_POW", 6, {"k": 2})) == ((2, 1), (3, 1), (6, 3))
    assert phi_exponents(build_modulus("QINT_SPECIALIZED", 4, {"a": Fraction(2, 3)})) is None
    assert phi_exponents(Modulus([(QPoly([2, 1]), 1)])) is None
    named = Modulus([(cyclotomic(12), 2), (cyclotomic(1), 1)], forms=[cyclotomic_form(12), cyclotomic_form(1)])
    assert phi_exponents(named) == ((1, 1), (12, 2))
    # The same factors typed as polynomials carry no form.
    assert phi_exponents(Modulus([(QPoly([1, 0, -1, 0, 1]), 2), (QPoly([-1, 1]), 1)])) is None
    assert phi_exponents(Modulus([(QPoly([1, 0, 1, 0, 1]), 1)])) is None


def test_named_factors_carry_forms_in_a_fresh_process():
    # A qcong check modulus factor named qint(..) or phi(..) carries its
    # binomial form and one typed as a polynomial carries none, whether or
    # not the same values were built earlier in the process: typed, named,
    # then typed again, starting from a fresh interpreter with empty caches.
    code = (
        "from qcongruence.cli import _modulus_from_node\n"
        "from qcongruence.expr import parse_expr\n"
        "for text in ('(1+q)*(1+q+q^2)^2', 'phi(2)*qint(n)^2', '(1+q)*(1+q+q^2)^2'):\n"
        "    m = _modulus_from_node(parse_expr(text), {'n': 3})\n"
        "    print(m.forms, m.form)\n"
    )
    src = str(Path(congruence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    typed = "(None, None) None"
    named = "(((1, -1), (2, 1)), ((1, -1), (3, 1))) ((1, -3), (2, 1), (3, 2))"
    assert out.stdout.splitlines() == [typed, named, typed]


def unit_check_moduli(rng):
    """(modulus, n, k, factors a denominator may share) for the reference.

    [n], Phi_n^k and [n] Phi_n^k share their Phi_d; the specialization kinds,
    at sampled a and b, share a binomial, [n] or Phi_n; the typed moduli
    overlap ((1+q) and (1+q)^2), are reducible (q^4 - 16) or hold q - 2, the
    factor every denominator below carries.
    """
    for n in range(2, 31):
        for kind, k in (("QINT", 1), ("PHI_POW", 1), ("PHI_POW", 3), ("QINT_PHI_POW", 2), ("QINT_PHI_POW", 3)):
            m = build_modulus(kind, n, {"k": k})
            yield m, n, k, [cyclotomic(d) for d, _ in phi_exponents(m)]
    for n in range(1, 9):
        for kind, k in (("SPECIALIZED", 1), ("QINT_SPECIALIZED", 1), ("QINT_PHI_SPECIALIZED", 2)):
            sample = sample_params(["a", "b"], n, seed=rng.randrange(10**6))
            m = build_modulus(kind, n, {"k": k, **sample.assignments})
            yield m, n, k, [f.monic() for f, _ in m.factors]
    q_plus_1 = QPoly([1, 1])
    for factors, shareable in (
        ([(q_plus_1, 1), (QPoly([1, 2, 1]), 1)], [q_plus_1]),
        ([(QPoly([-16, 0, 0, 0, 1]), 1)], [QPoly([-2, 1]), QPoly([2, 1]), QPoly([4, 0, 1]), QPoly([-4, 0, 1])]),
        ([(QPoly([-2, 1]), 1), (q_plus_1, 1)], [QPoly([-2, 1]), q_plus_1]),
    ):
        yield Modulus(factors), 3, 2, shareable


def test_unit_check_matches_long_division_reference():
    # Reduced values whose denominators share a factor f^j (a Phi_d^j or a
    # binomial), j up to k + 1, with the modulus, or are coprime to it: the
    # division by P decides success, and on failure the unit check (binomial
    # passes or gcd(den mod P, P)) raises with the same detail as the
    # reference, or the witness is the long-division one.
    rng = random.Random(93)
    raised = verified = 0
    for m, n, k, shareable in unit_check_moduli(rng):
        p = m.monic_product
        f = rng.choice(shareable)
        for j in range(1, k + 2):
            den = f**j * QPoly([-2, 1]) * cyclotomic(rng.choice((1, 2 * n + 1)))
            shared = rng.randint(0, j)
            for num in (
                QPoly([rng.randint(1, 9), rng.randint(-9, 9), 1]) * f**shared,
                p * f**j * QPoly([1, 3]),
            ):
                value = QRat(num, den)
                want = reference_unit_check(value.num, value.den, p)
                if isinstance(want, str):
                    with pytest.raises(DenominatorNotUnit) as info:
                        congruent(value, 0, m)
                    assert str(info.value) == want
                    raised += 1
                else:
                    got = congruent(value, 0, m)
                    assert got.witness == long_division_witness(want, m)
                    verified += got.verified
    assert raised > 100 and verified > 100


def test_indexed_modulus_never_reaches_divrem_on_success(monkeypatch):
    # Every division by a divisor of known binomial form takes the binomial
    # passes: neither the long division nor the exact-quotient kernel runs
    # for a verified [n] Phi_n^k congruence, a failure's smallest failing
    # factor, the unit check that raises DenominatorNotUnit, or to_qrat's
    # trial divisions by its Phi_d keys.  A verified congruence of any kind
    # runs no unit check, so no long division or gcd; a failure and a
    # DenominatorNotUnit case each run it once.
    calls = []

    def counting(name):
        real = getattr(congruence, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        return counted

    def refuse(a, b):
        raise AssertionError("_divexact_int called for a divisor of known binomial form")

    coprime = QPoly([-2, 1]) * cyclotomic(7)
    verified = []
    for kind, n, k in (("QINT", 12, 1), ("PHI_POW", 5, 3), ("QINT_PHI_POW", 9, 2)):
        m = build_modulus(kind, n, {"k": k})
        verified.append((QRat(m.monic_product * QPoly([1, 4, 1]), coprime), m))
    m = build_modulus("QINT_PHI_POW", 9, {"k": 2})
    failing = q_integer(9) * QPoly([1, 1])  # [9] = Phi_3 Phi_9 divides it, Phi_9^2 does not
    failing_witness = long_division_witness(failing, m)
    not_unit = QRat(QPoly.one(), cyclotomic(9))
    keyed = QFactored(1, 0, cyclotomic(9) ** 2 * QPoly([1, 4, 1]), {9: -2, 4: -1})
    reduced = QRat(QPoly([1, 4, 1]), cyclotomic(4))
    for name in ("_shared_with_modulus", "poly_divrem", "poly_gcd"):
        monkeypatch.setattr(congruence, name, counting(name))
    monkeypatch.setattr(polyring, "_divexact_int", refuse)
    for value, modulus in verified:
        assert congruent(value, 0, modulus).verified
    assert calls == []
    got = congruent(failing, 0, m)
    assert not got.verified and got.witness == failing_witness
    assert got.witness["failing_factor"] == "(q^6+q^3+1)^2"
    assert calls.count("_shared_with_modulus") == 1
    calls.clear()
    with pytest.raises(DenominatorNotUnit):
        congruent(not_unit, 0, m)
    assert calls == ["_shared_with_modulus"]
    got = keyed.to_qrat()
    assert (got.num, got.den) == (reduced.num, reduced.den)
    # Specialization binomials have no binomial form, so a failure's unit
    # check is den mod P and a gcd; a verified congruence runs neither.
    monkeypatch.undo()
    calls.clear()
    for name in ("_shared_with_modulus", "poly_divrem", "poly_gcd"):
        monkeypatch.setattr(congruence, name, counting(name))
    params = {"a": Fraction(2, 5), "b": Fraction(-7, 3), "k": 2}
    for kind in ("SPECIALIZED", "QINT_SPECIALIZED", "QINT_PHI_SPECIALIZED"):
        m = build_modulus(kind, 3, params)
        assert congruent(QRat(m.monic_product, coprime), 0, m).verified
    assert calls == []
    assert not congruent(QRat(QPoly([1, 1]), coprime), 0, m).verified
    assert calls.count("_shared_with_modulus") == 1
    calls.clear()
    with pytest.raises(DenominatorNotUnit):
        congruent(QRat(QPoly.one(), m.factors[-1][0]), 0, m)
    assert calls.count("_shared_with_modulus") == 1


def long_division_witness(num, m):
    """congruent's witness for a polynomial num, by long division alone."""
    quot, rem = poly_divrem(num, m.monic_product)
    if rem.is_zero():
        return {"quotient_degree": quot.degree}
    candidates = []
    for f, mult in m.factors:
        left = num
        for j in range(1, mult + 1):
            left, r = poly_divrem(left, f.monic())
            if not r.is_zero():
                text = _poly_text(f)
                candidates.append((f.degree * j, text if j == 1 else f"{text}^{j}"))
                break
    return {
        "remainder_degree": rem.degree,
        "remainder_leading": str(rem.leading),
        "failing_factor": min(candidates)[1] if candidates else "",
    }


def test_congruent_witness_matches_long_division():
    # Moduli of q-integers and cyclotomics carry their binomial form and
    # their factors' forms, and are divided by the binomial passes; the
    # witnesses are unchanged.
    rng = random.Random(91)
    failing = set()
    for n in range(2, 16):
        for kind, k in (("QINT", 1), ("PHI_POW", 2), ("QINT_PHI_POW", 1), ("QINT_PHI_POW", 3)):
            m = build_modulus(kind, n, {"k": k})
            assert m.form is not None
            assert None not in m.forms
            small = QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))])
            for num in (
                small * m.monic_product,
                small * m.monic_product + QPoly.monomial(rng.randint(0, 5)),
                small * poly_try_div(m.monic_product, cyclotomic(n)) * QPoly([1, 1]),
                small * q_integer(n - 1),
                small,
                QPoly.zero(),
            ):
                got = congruent(num, 0, m)
                want = long_division_witness(num, m)
                assert got.witness == want
                assert got.verified == ("quotient_degree" in want)
                failing.add(want.get("failing_factor"))
    assert "" in failing and len(failing) > 10  # every branch of the witness ran


def test_congruent_thm_c_style_frozen():
    # 1 + [7] q^3 (1-q)^6/(1-q^3)^6 is congruent to 5[4] (1-q^2)^3/(1-q^3)^3
    # modulo [2]*Phi_2^5 = (1+q)^6.
    spec = TermSpec(
        d=3,
        r=1,
        numer=((qma(1, 1), 3),) * 6,
        denom=((qma(1, 3), 3),) * 6,
        z=qma(1, 3),
    )
    lhs = truncated_sum_prefixes(spec, [1])[1]
    one = qma(1, 1)
    rhs = (
        QRat.from_value(5)
        * QRat.from_value(q_integer(4))
        * QRat.from_value(QPoly([1, 0, -1])) ** 3
        / QRat.from_value(QPoly([1, 0, 0, -1])) ** 3
    )
    m = build_modulus("QINT_PHI_POW", 2, {"k": 5})
    assert congruent(lhs, rhs, m).verified
    # and the weaker modulus also holds (monotonicity witness)
    assert congruent(lhs, rhs, build_modulus("QINT_PHI_POW", 2, {"k": 1})).verified


def test_factored_sides_take_no_gcd(monkeypatch):
    # THM_B's partial sum and closed form both carry their factored
    # denominators, so lhs - rhs reads its gcd off their exponent maps.
    inst = catalog.instantiate("THM_B", {"n": 13}, "second")
    assert not inst.lhs.den.is_one() and not inst.rhs.den.is_one()
    assert inst.lhs.form is not None and inst.rhs.form is not None

    def refuse(f, g):
        raise AssertionError("_gcd_cofactors called for two factored denominators")

    monkeypatch.setattr(polyring, "_gcd_cofactors", refuse)
    assert congruent(inst.lhs, inst.rhs, inst.modulus).verified


def test_verified_congruence_builds_no_denominator(monkeypatch):
    # Sums and closed forms keep their denominators as exponent maps, and a
    # verified congruence reads only the numerator of lhs - rhs: with an
    # unbuilt den made to raise on read, these catalog values still verify,
    # and their difference has a form and no built den.  A fresh sum cache,
    # so that no earlier read built a cached sum's den.
    monkeypatch.setattr(qseries, "_ENGINES", qseries._EngineCache(8))
    cases = (("GS_16", 16, "first"), ("GWY", 17, "first"), ("GWY", 17, "second"), ("THM_C", 8, "first"))
    insts = [catalog.instantiate(stmt_id, {"n": n}, m) for stmt_id, n, m in cases]
    x = QFactored(Fraction(2, 3), -2, QPoly([1, 3]), {3: -2, 5: 1, 7: -1}).to_qrat()

    def built_only(r):
        if r._den is None:
            raise AssertionError(f"the denominator of {r.num!r} was multiplied out")
        return r._den

    monkeypatch.setattr(QRat, "den", property(built_only))
    for (stmt_id, n, m), inst in zip(cases, insts):
        assert congruent(inst.lhs, inst.rhs, inst.modulus).verified, (stmt_id, m)
        diff = inst.lhs - inst.rhs
        assert diff.form is not None and diff._den is None, (stmt_id, m)
    assert x.form == (2, {3: 2, 7: 1}) and x._den is None
    assert x + 0 is x and 0 + x is x
    for y, num in ((-x, -x.num), (3 * x, x.num * 3)):
        assert (y.num, y.form, y._den) == (num, x.form, None)


def rand_qrat(rng, max_deg=3):
    def rand_poly():
        return QPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, max_deg + 1))])

    num = rand_poly()
    den = QPoly.zero()
    while den.is_zero():
        den = rand_poly()
    return QRat(num, den)


def unit_rand_qrat(rng, m):
    while True:
        x = rand_qrat(rng)
        try:
            congruent(x, 0, m)
            return x
        except DenominatorNotUnit:
            continue


def test_congruence_equivalence_relation():
    rng = random.Random(404)
    m = build_modulus("QINT_PHI_POW", 4, {"k": 2})
    for _ in range(12):
        a = unit_rand_qrat(rng, m)
        b = unit_rand_qrat(rng, m)
        c = unit_rand_qrat(rng, m)
        assert congruent(a, a, m).verified
        ab = congruent(a, b, m).verified
        assert ab == congruent(b, a, m).verified
        if ab and congruent(b, c, m).verified:
            assert congruent(a, c, m).verified
        shifted = a + QRat.from_value(m.monic_product * rng.randint(1, 5))
        assert congruent(a, shifted, m).verified


def test_congruence_compatibility_laws():
    rng = random.Random(405)
    m = build_modulus("PHI_POW", 5, {"k": 2})
    for _ in range(8):
        a = unit_rand_qrat(rng, m)
        c = unit_rand_qrat(rng, m)
        b = a + QRat.from_value(m.monic_product) * unit_rand_qrat(rng, m)
        d = c + QRat.from_value(m.monic_product) * unit_rand_qrat(rng, m)
        assert congruent(a + c, b + d, m).verified
        assert congruent(a * c, b * d, m).verified


def test_congruent_monotone_over_factor():
    rng = random.Random(406)
    m1 = build_modulus("QINT", 6)
    m2 = build_modulus("PHI_POW", 6, {"k": 3})
    m12 = Modulus(m1.factors + m2.factors)
    for _ in range(6):
        a = unit_rand_qrat(rng, m12)
        b = a + QRat.from_value(m12.monic_product) * unit_rand_qrat(rng, m12)
        assert congruent(a, b, m12).verified
        assert congruent(a, b, m1).verified
        assert congruent(a, b, m2).verified


def specialization_relation(a, b, n):
    """(1-bq^n)(b-q^n)(-1-a^2+aq^n) / ((a-b)(1-ab)) as a QRat."""
    num = (
        QRat.from_value(binom(b, n))
        * QRat.from_value(QPoly([b] + [0] * (n - 1) + [-1]))
        * QRat.from_value(QPoly([-1 - a * a] + [0] * (n - 1) + [a]))
    )
    return num * (1 / ((a - b) * (1 - a * b)))


def test_specialization_relation_is_one():
    rng = random.Random(407)
    for n in range(1, 9):
        sample = sample_params(["a", "b"], n, 1, seed=rng.randint(0, 10**6))
        a, b = sample.assignments["a"], sample.assignments["b"]
        m = build_modulus("SPECIALIZED", n, {"t": 1, "a": a})
        assert congruent(specialization_relation(a, b, n), 1, m).verified


def test_sample_params_deterministic_and_guarded():
    s1 = sample_params(["a", "b"], 2, 1, seed=42)
    s2 = sample_params(["a", "b"], 2, 1, seed=42)
    assert s1.assignments == s2.assignments
    a, b = s1.assignments["a"], s1.assignments["b"]
    assert a not in (0, 1, -1) and b not in (0, 1, -1)
    assert a != b and a * b != 1 and a not in (b + 1, b - 1)
    s3 = sample_params(["a", "b"], 2, 1, seed=43)
    assert s3.assignments != s1.assignments or s3.seed != s1.seed


def test_sample_params_empty():
    s = sample_params([], 5, 1, seed=0)
    assert s.assignments == {}


def test_sample_params_exhaustion():
    # x and 1/x exclude each other, so at most 54 of the admissible u/v can
    # be drawn together, and 60 symbols can never all be assigned.
    with pytest.raises(SamplingExhausted):
        sample_params([f"s{i}" for i in range(60)], 2, 1, seed=0)


def _fraction_power_collision(x, y, bound=6):
    """The sampler's power test in Fraction arithmetic, as a reference."""
    for i in range(1, bound + 1):
        xi = x**i
        yj = Fraction(1)
        for _ in range(bound):
            yj *= y
            if xi == yj or xi * yj == 1:
                return True
    return False


def test_power_collision_matches_fraction_reference_on_sampler_grid():
    grid = sorted({Fraction(u, v) for u in range(-9, 10) for v in range(1, 10)})
    hits = 0
    for x in grid:
        for y in grid:
            expected = _fraction_power_collision(x, y)
            assert _power_collision(x, y) == expected, (x, y)
            hits += expected
    assert 0 < hits < len(grid) ** 2
