"""Tests for the statement inventory, instantiation and the runner."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from classical_oracle import at_one, closed_value, series_sum
from qcongruence import catalog, padic
from qcongruence.congruence import Modulus, build_modulus, congruent, sample_params
from qcongruence.errors import SideConditionViolated, UnknownKind
from qcongruence.expr import eval_expr, parse_expr
from qcongruence.qseries import truncated_sum_prefixes, well_poised_spec


def test_inventory_shape():
    statements = catalog.list_statements()
    ids = [s.stmt_id for s in statements]
    assert len(ids) == len(set(ids))
    assert len(statements) == 39
    for stmt in statements:
        assert stmt.kind in ("sum", "expr", "equality", "classical")
        assert stmt.description and stmt.param_doc and stmt.side_doc
        assert stmt.desk, stmt.stmt_id
    with pytest.raises(UnknownKind):
        catalog.get_statement("NOT_A_STATEMENT")


def test_record_json_key_order():
    rec = catalog.run_statement("GS_16", {"n": 2})[0]
    data = rec.to_json_dict()
    assert list(data) == [
        "id",
        "params",
        "modulus",
        "m_choice",
        "status",
        "witness",
        "elapsed_ms",
        "seed",
    ]
    assert data["status"] == "verified"
    assert data["elapsed_ms"] == 0


def test_quartic_sum_statement_both_truncations():
    records = catalog.run_statement("THM_A", {"n": 3})
    assert [r.m_choice for r in records] == ["first", "second"]
    assert all(r.status == "verified" for r in records)
    assert all(r.modulus == "[3]*Phi(3)^4" for r in records)


def test_cubic_vanishing_statement():
    records = catalog.run_statement("GS_16", {"n": 4})
    assert len(records) == 1
    assert records[0].status == "verified"
    assert records[0].modulus == "[4]"


def test_instantiate_and_verify_instance():
    inst = catalog.instantiate("THM_C", {"n": 2}, m_choice="first")
    assert inst.m_value == 1
    assert inst.modulus.label == "[2]*Phi(2)^5"
    rec = catalog.verify_instance(inst)
    assert rec.status == "verified"
    second = catalog.instantiate("THM_C", {"n": 2}, m_choice="second")
    assert second.m_value == 1  # n - 1 coincides with (2n-1)/3 at n = 2
    assert catalog.verify_instance(second).status == "verified"


def test_corrupted_rhs_fails_with_witness():
    inst = catalog.instantiate("THM_B", {"n": 4})
    q = eval_expr(parse_expr("q"), {})
    result = congruent(inst.lhs, inst.rhs * q, inst.modulus)
    assert not result.verified
    assert result.witness["remainder_degree"] >= 0
    assert "failing_factor" in result.witness


def test_side_conditions_raise():
    with pytest.raises(SideConditionViolated):
        catalog.run_statement("THM_B", {"n": 5})
    with pytest.raises(SideConditionViolated):
        catalog.run_statement("GS_16", {"n": 3})
    with pytest.raises(SideConditionViolated):
        catalog.run_statement("THM_A", {"n": 4})
    with pytest.raises(SideConditionViolated):
        catalog.run_statement("GS_16", {"n": 4}, m_policy="second")
    with pytest.raises(SideConditionViolated):
        catalog.run_statement("THM_D", {"n": 4, "d": 3, "r": 2, "c": Fraction(2)})
    with pytest.raises(UnknownKind):
        catalog.run_statement("GS_16", {"n": 4}, m_policy="alternate")


def test_a_b_where_the_templates_divide_by_zero_are_refused():
    # _omega and _theta divide by (a - b)(1 - ab): at a = b or ab = 1 each
    # parametric family refuses the point by name, as a side condition, where
    # it once returned an error record naming DivisionByZeroPoly.
    points = [
        ("PROP_2_1", {"n": 13, "a": Fraction(1, 2), "b": Fraction(1, 2)}),
        ("PROP_2_1", {"n": 13, "a": 2, "b": Fraction(1, 2)}),
        ("THM_2_2", {"n": 5, "a": Fraction(1, 3), "b": 3}),
        ("PROP_3_1", {"n": 4, "a": 3, "b": 3}),
        ("THM_3_3", {"n": 11, "a": Fraction(2, 3), "b": Fraction(2, 3)}),
        ("PROP_5_3", {"n": 4, "d": 3, "r": 1, "a": 3, "b": 3, "c": 5}),
        ("THM_5_5", {"n": 2, "d": 3, "r": 1, "a": 3, "b": Fraction(1, 3)}),
    ]
    for stmt_id, bindings in points:
        a, b = Fraction(bindings["a"]), Fraction(bindings["b"])
        message = rf"^a = {a} and b = {b} make \(a - b\)\(1 - ab\) vanish$"
        with pytest.raises(SideConditionViolated, match=message):
            catalog.run_statement(stmt_id, bindings)
    # One step away from a = 1/b the same family verifies.
    records = catalog.run_statement("THM_5_5", {"n": 2, "d": 3, "r": 1, "a": 3, "b": Fraction(1, 2)})
    assert [r.status for r in records] == ["verified", "verified"]


def test_classical_delegation():
    records = catalog.run_statement("COR_1_4", {"p": 5, "s": 1})
    assert [r.m_choice for r in records] == ["first", "second"]
    assert all(r.status == "verified" for r in records)
    assert all(r.modulus == "5^5" for r in records)
    with pytest.raises(UnknownKind):
        catalog.instantiate("COR_1_4", {"p": 5})


def test_classical_and_q_statements_share_the_slot_rule():
    # A single-slot statement refuses 'second' with one message whatever its
    # kind, and an unknown policy is an unknown kind for both.
    for stmt_id, bindings in (("GS_16", {"n": 4}), ("SUN_H2", {"p": 5})):
        with pytest.raises(SideConditionViolated) as info:
            catalog.run_statement(stmt_id, bindings, m_policy="second")
        assert str(info.value) == "statement offers a single truncation; no 'second' choice"
        with pytest.raises(UnknownKind):
            catalog.run_statement(stmt_id, bindings, m_policy="alternate")


def test_sampling_is_deterministic():
    first = [r.to_json_dict() for r in catalog.run_statement("PROP_2_1", {"n": 3}, seed=4)]
    second = [r.to_json_dict() for r in catalog.run_statement("PROP_2_1", {"n": 3}, seed=4)]
    assert first == second
    shifted = [r.to_json_dict() for r in catalog.run_statement("PROP_2_1", {"n": 3}, seed=5)]
    assert first != shifted


def test_trials_below_one_raise():
    # the same refusal as the cli's --trials, for a library caller
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            catalog.run_statement("THM_3_2", {"n": 4}, trials=trials)


def test_explicit_symbols_bypass_sampling():
    records = catalog.run_statement(
        "THM_2_2",
        {"n": 3, "a": Fraction(2), "b": Fraction(3, 2)},
        m_policy="first",
    )
    assert len(records) == 1
    assert records[0].status == "verified"
    assert records[0].params["a"] == "2"
    assert records[0].params["b"] == "3/2"


def test_subsumption_of_historical_weaker_forms():
    # The shifted-square closed form also holds with the older exponent
    # (1+n)/2 modulo the cube [n]*Phi(n)^3, and the mod-[n]*Phi(n)^2 record
    # follows from the stronger statement.
    historical = (
        "qint(n)^2 * q^((1+n)/2)"
        " * poch(q^3; q^4; (n-1)/2) / poch(q^5; q^4; (n-1)/2)"
    )
    for n in (3, 7):
        lhs = truncated_sum_prefixes(well_poised_spec(2, 1, c=-1), [n - 1])[n - 1]
        wei = eval_expr(parse_expr(historical), {"n": n})
        cube = build_modulus("QINT_PHI_POW", n, {"k": 3})
        assert congruent(lhs, wei, cube).verified
        for rec in catalog.run_statement("GWY", {"n": n}):
            assert rec.status == "verified"


def _weaker_moduli(m: Modulus) -> list[Modulus]:
    """All moduli obtained by dropping exactly one factor multiplicity."""
    out = []
    for i, (f, mult) in enumerate(m.factors):
        factors = list(m.factors)
        if mult > 1:
            factors[i] = (f, mult - 1)
        else:
            factors.pop(i)
        out.append(Modulus(tuple(factors)))
    return out


def test_weaker_moduli_monotonicity():
    n = 7
    inst = catalog.instantiate("THM_A", {"n": n}, m_choice="first")
    strong = congruent(inst.lhs, inst.rhs, inst.modulus)
    assert strong.verified
    for weaker in _weaker_moduli(inst.modulus):
        assert congruent(inst.lhs, inst.rhs, weaker).verified


def test_specialization_unit_relation():
    # (1 - b q^n)(b - q^n)(-1 - a^2 + a q^n) / ((a - b)(1 - a b)) is 1
    # modulo (1 - a q^n)(a - q^n), and symmetrically in a and b.
    text = "(1 - {y}*q^n) * ({y} - q^n) * (-1 - {x}^2 + {x}*q^n) / (({x} - {y}) * (1 - {x}*{y}))"
    one = eval_expr(parse_expr("1"), {})
    for n in (2, 3, 5):
        for seed in range(4):
            sample = sample_params(("a", "b"), n, seed=seed)
            env = {"n": n, **sample.assignments}
            for x, y in (("a", "b"), ("b", "a")):
                value = eval_expr(parse_expr(text.format(x=x, y=y)), env)
                modulus = build_modulus("SPECIALIZED", n, {x: env[x]})
                assert congruent(value, one, modulus).verified, (n, seed, x)


def test_rhs_cross_consistency_between_families():
    # The double-series closed form at (d, r, c) = (3, 1, 1) collapses to the
    # single-series closed form modulo [n]*Phi(n)^4, and the [dn-n] variant
    # collapses to the 5[2n] form modulo [n]*Phi(n)^5.
    for n in (4, 7):
        d_rhs = eval_expr(
            parse_expr(catalog._THM_D_RHS), {"n": n, "d": 3, "r": 1, "c": Fraction(1)}
        )
        b_rhs = eval_expr(parse_expr(catalog._THM_B_RHS), {"n": n})
        modulus = build_modulus("QINT_PHI_POW", n, {"k": 4})
        assert congruent(d_rhs, b_rhs, modulus).verified, n
    for n in (2, 5):
        e_rhs = eval_expr(parse_expr(catalog._THM_E_RHS), {"n": n, "d": 3, "r": 1})
        c_rhs = eval_expr(parse_expr(catalog._THM_C_RHS), {"n": n})
        modulus = build_modulus("QINT_PHI_POW", n, {"k": 5})
        assert congruent(e_rhs, c_rhs, modulus).verified, n


def test_family_closed_forms_share_one_template():
    # THM_E's right side is THM_D's at bound dn - n and c = 1, and THM_5_5's is
    # PROP_5_3's at t = d - 1 and c = 1.
    a, b = Fraction(2), Fraction(-3, 5)
    for n, d, r in ((2, 3, 1), (4, 3, -1), (3, 4, 1)):
        thm_e = eval_expr(parse_expr(catalog._THM_E_RHS), {"n": n, "d": d, "r": r})
        thm_d = eval_expr(
            parse_expr(catalog._THM_D_RHS), {"n": d * n - n, "d": d, "r": r, "c": Fraction(1)}
        )
        assert thm_e == thm_d, (n, d, r)
        env = {"n": n, "d": d, "r": r, "a": a, "b": b}
        thm_5_5 = eval_expr(parse_expr(catalog._THM_5_5_RHS), env)
        prop_5_3 = eval_expr(
            parse_expr(catalog._PROP_5_3_RHS), {**env, "t": d - 1, "c": Fraction(1)}
        )
        assert thm_5_5 == prop_5_3, (n, d, r)


def test_equality_statement_records():
    for t in (0, 1, 4):
        records = catalog.run_statement("LEM_REL", {"t": t})
        assert len(records) == 1
        assert records[0].status == "verified"
        assert records[0].modulus == "exact"


def test_expression_statements():
    for stmt_id, n in (("LEM_WEI_K", 7), ("LEM_WEI_M", 9), ("LEM_WEI_N", 7), ("LEM_PP", 5)):
        records = catalog.run_statement(stmt_id, {"n": n})
        assert [r.status for r in records] == ["verified"], stmt_id


def test_degree_d_families_with_negative_offsets():
    for stmt_id, bindings in (
        ("THM_D", {"n": 4, "d": 3, "r": -2, "c": Fraction(3, 2)}),
        ("THM_E", {"n": 4, "d": 3, "r": -1}),
    ):
        records = catalog.run_statement(stmt_id, bindings)
        assert all(r.status == "verified" for r in records), stmt_id


def test_admitted_degree_d_points_have_integer_first_slots():
    # The builds take the first slot as a floor division, exact because the
    # side conditions make it so: at every point that a statement admits,
    # d times the first slot is tn - r (THM_D's window at t) or dn - n - r
    # (THM_E's window and NW_23), and no admitted slot is negative.
    numerators = {
        "THM_D": lambda n, d, r, t: n - r,
        "THM_5_4": lambda n, d, r, t: n - r,
        "PROP_5_3": lambda n, d, r, t: t * n - r,
        "THM_E": lambda n, d, r, t: d * n - n - r,
        "THM_5_5": lambda n, d, r, t: d * n - n - r,
        "NW_23": lambda n, d, r, t: d * n - n - r,
    }
    symbols = {"a": Fraction(2, 3), "b": Fraction(-3, 5), "c": Fraction(5, 7)}
    admitted = Counter()
    for stmt_id, numerator in numerators.items():
        build = catalog.get_statement(stmt_id).build
        for n in range(13):
            for d in range(7):
                for r in range(-7, 8):
                    for t in range(6) if stmt_id == "PROP_5_3" else (1,):
                        try:
                            plan = build({"n": n, "d": d, "r": r, "t": t, **symbols})
                        except SideConditionViolated:
                            continue
                        (slot, first), _ = plan.m_choices
                        assert slot == "first" and first >= 0
                        assert d * first == numerator(n, d, r, t), (stmt_id, n, d, r, t)
                        admitted[stmt_id] += 1
    assert set(admitted) == set(numerators) and min(admitted.values()) >= 10, admitted


def test_parametric_degree_d_statement_with_scale():
    records = catalog.run_statement(
        "PROP_5_3", {"n": 2, "d": 3, "r": 1, "t": 2}, trials=1
    )
    assert all(r.status == "verified" for r in records)
    with pytest.raises(SideConditionViolated):
        catalog.run_statement("PROP_5_3", {"n": 4, "d": 3, "r": 1, "t": 2}, trials=1)


# -- the q -> 1 bridge: catalog right sides against padic's closed forms ------

_BRIDGE = (
    [
        (
            "THM_A/COR_1_4",
            catalog._THM_A_RHS_1 if n % 4 == 1 else catalog._THM_A_RHS_3,
            {"n": n},
            lambda n=n: (n if n % 4 == 1 else n**2) * padic._quartic_closed(n),
        )
        for n in range(3, 24, 2)
    ]
    + [
        ("THM_B/COR_1_5", catalog._THM_B_RHS, {"n": n}, lambda n=n: n * padic._cubic_closed(n))
        for n in (4, 7, 10, 13)
    ]
    + [
        ("THM_C/COR_1_6", catalog._THM_C_RHS, {"n": n}, lambda n=n: 10 * n * padic._cubic_closed(n))
        for n in (2, 5, 8, 11)
    ]
    + [
        (
            "THM_D/COR_5_E",
            catalog._THM_D_RHS,
            {"n": n, "d": d, "r": r, "c": Fraction(1)},
            lambda n=n, d=d, r=r: padic._double_closed(d, r, n),
        )
        for n, d, r in ((4, 3, 1), (7, 3, 1), (5, 4, 1), (9, 4, 1), (6, 5, 1), (4, 3, -2))
    ]
    + [
        (
            "THM_E/COR_5_H",
            catalog._THM_E_RHS,
            {"n": n, "d": d, "r": r},
            lambda n=n, d=d, r=r: padic._double_closed(d, r, (d - 1) * n),
        )
        for n, d, r in ((2, 3, 1), (5, 3, 1), (3, 4, 1), (4, 3, -1))
    ]
)


@pytest.mark.parametrize(
    "text, env, closed",
    [case[1:] for case in _BRIDGE],
    ids=[f"{case[0]}-{case[2]}" for case in _BRIDGE],
)
def test_q_to_one_bridge_right_sides(text, env, closed):
    assert at_one(eval_expr(parse_expr(text), env)) == closed_value(closed)


@pytest.mark.parametrize("d, r", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2)])
def test_q_to_one_bridge_sums(d, r):
    # [2dk+r] (q^r; q^d)_k^6 / (q^d; q^d)_k^6 q^((2d-3r)k) -> (2dk+r) ((r/d)_k / k!)^6,
    # and c = -1 makes the alternating fifth power.
    for m in range(5):
        sixth, fifth_alt = (
            series_sum(series, m) for series in (padic._sixth_series(d, r), padic._fifth_alt_series(d, r))
        )
        assert at_one(truncated_sum_prefixes(well_poised_spec(d, r), [m])[m]) == sixth
        assert at_one(truncated_sum_prefixes(well_poised_spec(d, r, c=-1), [m])[m]) == fifth_alt


def test_catalog_texts_compile_on_first_use_only(monkeypatch):
    # Nothing is parsed or compiled at import ...
    code = "import qcongruence.cli\nfrom qcongruence import catalog\nprint(len(catalog._PARSED))\n"
    src = str(Path(catalog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]
    # ... and a parametric statement at two sampling seeds compiles each text once.
    compiled = Counter()
    compile_expr = catalog.compile_expr

    def counting(node):
        compiled[node] += 1
        return compile_expr(node)

    monkeypatch.setattr(catalog, "_PARSED", {})
    monkeypatch.setattr(catalog, "compile_expr", counting)
    records = [
        rec
        for seed in (1, 2)
        for rec in catalog.run_statement("THM_D", {"n": 4, "d": 3, "r": 1}, seed=seed, trials=1)
    ]
    assert {rec.status for rec in records} == {"verified"}
    assert compiled[parse_expr(catalog._THM_D_RHS)] == 1
    assert set(compiled.values()) == {1}
