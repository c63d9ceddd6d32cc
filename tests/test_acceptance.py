"""Acceptance suite: one criterion per test, one printed pass line each.

Each test exercises a pinned slice of the library surface end to end and
asserts both correctness and, where stated, a wall-clock budget.  Budgets
are generous for slow machines; typical runs finish far below them.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction
from math import gcd, inf

from qcongruence import catalog
from qcongruence.congruence import build_modulus, congruent, sample_params
from qcongruence.expr import eval_expr, parse_expr
from qcongruence.padic import gamma_p
from qcongruence.polyring import (
    QPoly,
    QRat,
    crt_combine,
    cyclotomic,
    poly_divrem,
    q_integer,
)
from qcongruence.catalog import check_terminating_identity
from qcongruence.qseries import truncated_sum_prefixes, well_poised_spec


def _assert_all_verified(records, context):
    for rec in records:
        assert rec.status == "verified", (context, rec.params, rec.m_choice, rec.witness)


def _run_all(stmt_id, cases, **kwargs):
    records = []
    for case in cases:
        batch = catalog.run_statement(stmt_id, case, **kwargs)
        _assert_all_verified(batch, (stmt_id, case))
        records.extend(batch)
    return records


def test_c01_quartic_family_both_branches_and_subsumption():
    start = time.monotonic()
    cases = [{"n": n} for n in (1, 3, 5, 7, 9, 11, 13, 15)]
    records = _run_all("THM_A", cases)
    assert len(records) == 16  # both truncations per n
    # the stronger statement subsumes the historical cube record with the
    # older exponent, and the square record
    historical = (
        "qint(n)^2 * q^((1+n)/2)"
        " * poch(q^3; q^4; (n-1)/2) / poch(q^5; q^4; (n-1)/2)"
    )
    for n in (3, 7, 11, 15):
        lhs = truncated_sum_prefixes(well_poised_spec(2, 1, c=-1), [n - 1])[n - 1]
        wei = eval_expr(parse_expr(historical), {"n": n})
        assert congruent(lhs, wei, build_modulus("QINT_PHI_POW", n, {"k": 3})).verified, n
    _run_all("GWY", cases)
    elapsed = time.monotonic() - start
    assert elapsed < 60, elapsed
    print(f"C1 PASS: quartic family, both branches and truncations, subsumption ({elapsed:.1f}s)")


def test_c02_cubic_family_residue_one():
    start = time.monotonic()
    records = _run_all("THM_B", [{"n": n} for n in (1, 4, 7, 10, 13)])
    assert len(records) == 10
    elapsed = time.monotonic() - start
    assert elapsed < 60, elapsed
    print(f"C2 PASS: cubic family at n = 1 mod 3, both truncations ({elapsed:.1f}s)")


def test_c03_cubic_family_residue_two():
    start = time.monotonic()
    records = _run_all("THM_C", [{"n": n} for n in (2, 5, 8, 11)])
    assert len(records) == 8
    elapsed = time.monotonic() - start
    assert elapsed < 120, elapsed
    print(f"C3 PASS: cubic family at n = 2 mod 3, both truncations ({elapsed:.1f}s)")


def test_c04_parametric_families_seeded_specializations():
    start = time.monotonic()
    plan = {
        "PROP_2_1": [{"n": n} for n in (3, 5, 7)],
        "THM_2_2": [{"n": n} for n in (3, 5, 7)],
        "PROP_3_1": [{"n": n} for n in (2, 4, 5, 7)],
        "THM_3_2": [{"n": n} for n in (4, 7)],
        "THM_3_3": [{"n": n} for n in (2, 5)],
        "NW_A": [
            {"n": 4, "d": 3, "r": 1},
            {"n": 5, "d": 3, "r": -1},
            {"n": 7, "d": 3, "r": -2},
            {"n": 7, "d": 4, "r": 1},
            {"n": 3, "d": 4, "r": -1},
            {"n": 6, "d": 5, "r": 1},
            {"n": 7, "d": 5, "r": -3},
        ],
        "NW_B": [
            {"n": 4, "d": 3, "r": 1},
            {"n": 5, "d": 3, "r": -1},
            {"n": 7, "d": 3, "r": -2},
            {"n": 7, "d": 4, "r": 1},
            {"n": 3, "d": 4, "r": -1},
            {"n": 6, "d": 5, "r": 1},
            {"n": 7, "d": 5, "r": -3},
        ],
        "NW_23": [
            {"n": 2, "d": 3, "r": 1},
            {"n": 5, "d": 3, "r": 1},
            {"n": 4, "d": 3, "r": -1},
            {"n": 3, "d": 4, "r": 1},
            {"n": 5, "d": 4, "r": -1},
            {"n": 4, "d": 5, "r": 1},
        ],
        "PROP_5_3": [
            {"n": 4, "d": 3, "r": 1, "t": 1},
            {"n": 7, "d": 3, "r": 1, "t": 1},
            {"n": 5, "d": 4, "r": 1, "t": 1},
            {"n": 4, "d": 3, "r": -2, "t": 1},
            {"n": 2, "d": 3, "r": 1, "t": 2},
            {"n": 5, "d": 3, "r": 1, "t": 2},
            {"n": 3, "d": 4, "r": 1, "t": 3},
        ],
        "THM_5_4": [
            {"n": 4, "d": 3, "r": 1},
            {"n": 7, "d": 3, "r": 1},
            {"n": 5, "d": 4, "r": 1},
            {"n": 4, "d": 3, "r": -2},
        ],
        "THM_5_5": [
            {"n": 2, "d": 3, "r": 1},
            {"n": 5, "d": 3, "r": 1},
            {"n": 4, "d": 3, "r": -1},
            {"n": 3, "d": 4, "r": 1},
            {"n": 4, "d": 5, "r": 1},
        ],
    }
    for stmt_id, cases in plan.items():
        for case in cases:
            records = catalog.run_statement(stmt_id, case, trials=3)
            _assert_all_verified(records, (stmt_id, case))
            # three sampled specializations, each at every offered truncation
            assert len({rec.seed for rec in records}) == 3, (stmt_id, case)
    elapsed = time.monotonic() - start
    assert elapsed < 600, elapsed
    print(f"C4 PASS: parametric families, 3 seeded specializations each ({elapsed:.1f}s)")


def test_c05_degree_d_families_and_rhs_consistency():
    start = time.monotonic()
    thm_d_cases = [
        {"n": n, "d": 3, "r": 1} for n in (1, 4, 7, 10)
    ] + [
        {"n": n, "d": 4, "r": 1} for n in (1, 5, 9)
    ] + [
        {"n": n, "d": 5, "r": 1} for n in (1, 6)
    ]
    for case in thm_d_cases:
        records = catalog.run_statement("THM_D", case, trials=3)
        _assert_all_verified(records, ("THM_D", case))
    thm_e_cases = [
        {"n": n, "d": 3, "r": 1} for n in (2, 5, 8)
    ] + [
        {"n": n, "d": 4, "r": 1} for n in (3, 7)
    ] + [
        {"n": n, "d": 5, "r": 1} for n in (4, 9)
    ] + [
        {"n": n, "d": 3, "r": -1} for n in (4, 7, 10)
    ]
    _run_all("THM_E", thm_e_cases)
    # closed forms of the two hierarchies agree where they overlap
    for n in (1, 4, 7):
        d_rhs = eval_expr(
            parse_expr(catalog._THM_D_RHS), {"n": n, "d": 3, "r": 1, "c": Fraction(1)}
        )
        b_rhs = eval_expr(parse_expr(catalog._THM_B_RHS), {"n": n})
        assert congruent(d_rhs, b_rhs, build_modulus("QINT_PHI_POW", n, {"k": 4})).verified, n
    for n in (2, 5, 8):
        e_rhs = eval_expr(parse_expr(catalog._THM_E_RHS), {"n": n, "d": 3, "r": 1})
        c_rhs = eval_expr(parse_expr(catalog._THM_C_RHS), {"n": n})
        assert congruent(e_rhs, c_rhs, build_modulus("QINT_PHI_POW", n, {"k": 5})).verified, n
    elapsed = time.monotonic() - start
    print(f"C5 PASS: degree-d families to n = 10, closed forms consistent ({elapsed:.1f}s)")


def test_c06_classical_prime_power_statements():
    start = time.monotonic()
    plan = [
        ("VH_A2", [{"p": 5}, {"p": 13}, {"p": 7}, {"p": 11}], None),
        ("VH_D2", [{"p": 7}, {"p": 13}], "p^4"),
        ("LIU", [{"p": 7}, {"p": 11}], "p^4"),
        ("LR", [{"p": 7}, {"p": 11}, {"p": 13}], "p^6"),
        ("COR_1_4", [{"p": p, "s": 1} for p in (5, 7, 11, 13)], "p^5"),
        ("COR_1_4", [{"p": 5, "s": 2}], "p^6"),
        ("COR_1_5", [{"p": 7, "s": 1}, {"p": 13, "s": 1}], "p^5"),
        ("COR_1_6", [{"p": 5, "s": 1}, {"p": 11, "s": 1}], "p^6"),
        ("COR_5_E", [{"p": 7, "s": 1, "d": 3, "r": 1}, {"p": 5, "s": 1, "d": 4, "r": 1}], "p^5"),
        ("COR_5_G", [{"p": 7, "s": 1, "d": 3, "r": 1}, {"p": 5, "s": 1, "d": 4, "r": 1}], "p^5"),
        (
            "COR_5_H",
            [
                {"p": 5, "s": 1, "d": 3, "r": 1},
                {"p": 7, "s": 1, "d": 3, "r": -1},
                {"p": 7, "s": 1, "d": 4, "r": 1},
                {"p": 5, "s": 1, "d": 4, "r": -1},
            ],
            "p^6",
        ),
    ]
    for stmt_id, cases, modulus_shape in plan:
        for case in cases:
            records = catalog.run_statement(stmt_id, case)
            _assert_all_verified(records, (stmt_id, case))
            if modulus_shape is not None:
                expected = modulus_shape.replace("p", str(case["p"]))
                assert all(rec.modulus == expected for rec in records), (stmt_id, case)
    elapsed = time.monotonic() - start
    assert elapsed < 300, elapsed
    print(f"C6 PASS: classical prime-power statements verified ({elapsed:.1f}s)")


def test_c07_gamma_closed_forms():
    start = time.monotonic()
    for p in (13, 17):
        records = catalog.run_statement("PROP_1_7", {"p": p})
        _assert_all_verified(records, ("PROP_1_7", p))
        assert records[0].modulus == f"{p}^4"
    for p in (7, 11):
        records = catalog.run_statement("PROP_1_7", {"p": p})
        _assert_all_verified(records, ("PROP_1_7", p))
        assert records[0].modulus == f"{p}^3"
    for p in (7, 13):
        records = catalog.run_statement("PROP_1_8", {"p": p})
        _assert_all_verified(records, ("PROP_1_8", p))
        assert records[0].modulus == f"{p}^4"
    for p in (5, 11):
        records = catalog.run_statement("PROP_1_8", {"p": p})
        _assert_all_verified(records, ("PROP_1_8", p))
        assert records[0].modulus == f"{p}^5"
    elapsed = time.monotonic() - start
    print(f"C7 PASS: p-adic Gamma closed forms at both branches ({elapsed:.1f}s)")


def test_c08_harmonic_bernoulli_congruences():
    from qcongruence.padic import _harmonic, bernoulli

    start = time.monotonic()
    for p in (5, 7, 11, 13):
        _assert_all_verified(catalog.run_statement("SUN_H2", {"p": p}), ("SUN_H2", p))
        _assert_all_verified(
            catalog.run_statement("SUN_H2HALF", {"p": p}), ("SUN_H2HALF", p)
        )
    for p in (7, 11, 13):
        _assert_all_verified(catalog.run_statement("SUN_H3", {"p": p}), ("SUN_H3", p))
    # frozen difference at p = 7: divisible by 7^2 with cofactor 121/3600
    v, a, b = _harmonic(6, 2).adic(7, inf)  # built exactly, as 7^v a / b
    diff = Fraction(a * 7**v, b) - Fraction(2 * 7, 3) * bernoulli(4)
    assert diff == Fraction(5929, 3600)
    assert 5929 == 7**2 * 121
    elapsed = time.monotonic() - start
    print(f"C8 PASS: harmonic-number congruences with frozen p = 7 value ({elapsed:.1f}s)")


def test_c09_terminating_identity_checks():
    for identity_id in ("QCHU", "JACKSON_SPEC", "WHIPPLE_SPEC", "WATSON_SPEC"):
        start = time.monotonic()
        for seed in range(25):
            check = check_terminating_identity(identity_id, rng_seed=seed)
            assert check.equal, (identity_id, seed, check.params, check.detail)
        elapsed = time.monotonic() - start
        assert elapsed < 60, (identity_id, elapsed)
    print("C9 PASS: 25 seeded checks per terminating identity")


def test_c10_property_suites():
    start = time.monotonic()
    rng = random.Random(20240901)

    def rand_poly(degree):
        return QPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(degree + 1)])

    def rand_rat():
        num = rand_poly(rng.randint(0, 4))
        den = rand_poly(rng.randint(0, 4))
        if den.is_zero():
            den = QPoly([1, 1])
        return QRat(num, den)

    # ring and field axioms
    for _ in range(30):
        f, g, h = rand_poly(4), rand_poly(4), rand_poly(3)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        x, y = rand_rat(), rand_rat()
        assert x + y == y + x
        assert x * y == y * x
        if not x.is_zero():
            assert x * x.inverse() == QRat.from_value(1)

    # cyclotomic products up to 60
    for n in range(1, 61):
        full = QPoly.one()
        proper = QPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                full = full * cyclotomic(d)
                if d > 1:
                    proper = proper * cyclotomic(d)
        assert full == QPoly.monomial(n) - 1
        assert proper == q_integer(n)

    # CRT round trips, 100 seeded
    m1, m2 = cyclotomic(5), cyclotomic(6)
    for _ in range(100):
        x = rand_poly(rng.randint(0, 7))
        _, r1 = poly_divrem(x, m1)
        _, r2 = poly_divrem(x, m2)
        back = crt_combine(QRat.from_value(r1), m1, QRat.from_value(r2), m2)
        _, diff = poly_divrem(x - back.num, m1 * m2)
        assert diff.is_zero()

    # congruence relation: reflexive, symmetric in arguments, stable under
    # adding modulus multiples, 100 seeded draws
    pool = [
        build_modulus("QINT_PHI_POW", 3, {"k": 2}),
        build_modulus("QINT", 5),
        build_modulus("PHI_POW", 4, {"k": 2}),
    ]
    for _ in range(100):
        modulus = rng.choice(pool)
        x = rand_rat()
        if not x.den.is_one():
            x = QRat.from_value(x.num)  # keep denominators unit for this draw
        k = rand_poly(rng.randint(0, 3))
        shifted = x + QRat.from_value(k * modulus.monic_product)
        assert congruent(x, x, modulus).verified
        assert congruent(x, shifted, modulus).verified
        assert congruent(shifted, x, modulus).verified

    # Gamma reflection and functional grids
    from qcongruence.arith import residue_of_rational

    for p in (5, 7, 11, 13):
        for x in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
            lhs = gamma_p(x, p, 4) * gamma_p(1 - x, p, 4) % p**4
            m = residue_of_rational(-x, p, 1)
            assert lhs == (-1 if (m - 1) % 2 else 1) % p**4
        for x in range(1, p + 2):
            ratio = gamma_p(x + 1, p, 3) * pow(gamma_p(x, p, 3), -1, p**3) % p**3
            assert ratio == (-x if x % p else -1) % p**3

    # q -> 1 bridge
    from classical_oracle import series_sum
    from qcongruence.padic import _CUBIC

    lhs = truncated_sum_prefixes(well_poised_spec(3, 1), [1])[1]
    assert lhs.eval_at(1) == series_sum(_CUBIC, 1)

    # specialization unit relation, both orientations
    text = (
        "(1 - {y}*q^n) * ({y} - q^n) * (-1 - {x}^2 + {x}*q^n)"
        " / (({x} - {y}) * (1 - {x}*{y}))"
    )
    one = QRat.from_value(1)
    for n in (2, 5):
        for seed in range(3):
            sample = sample_params(("a", "b"), n, seed=seed)
            env = {"n": n, **sample.assignments}
            for x, y in (("a", "b"), ("b", "a")):
                value = eval_expr(parse_expr(text.format(x=x, y=y)), env)
                assert congruent(value, one, build_modulus("SPECIALIZED", n, {x: env[x]})).verified

    # auxiliary vanishing and matching lemmas
    for stmt_id in ("LEM_WEI_K", "LEM_WEI_M", "LEM_WEI_N", "LEM_PP"):
        stmt = catalog.get_statement(stmt_id)
        for case in stmt.desk:
            _assert_all_verified(catalog.run_statement(stmt_id, dict(case)), (stmt_id, case))

    elapsed = time.monotonic() - start
    print(f"C10 PASS: property suites over rings, CRT, Gamma, lemmas ({elapsed:.1f}s)")


def test_c11_negative_controls_fail_cleanly():
    q = eval_expr(parse_expr("q"), {})
    for stmt_id, n in (("THM_A", 3), ("THM_B", 4), ("THM_C", 2)):
        inst = catalog.instantiate(stmt_id, {"n": n})
        corrupted = replace(inst, rhs=inst.rhs * q)
        record = catalog.verify_instance(corrupted)
        assert record.status == "failed", (stmt_id, record.status)
        assert record.witness["remainder_degree"] >= 0, stmt_id
        assert Fraction(record.witness["remainder_leading"]) != 0, stmt_id
    print("C11 PASS: corrupted closed forms fail with remainder witnesses")
