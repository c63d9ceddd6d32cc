"""Tests for the expression language: parsing and evaluation."""

from fractions import Fraction

import pytest

from qcongruence import catalog
from qcongruence.errors import (
    DivisionByZeroPoly,
    NegativeLength,
    NonIntegerBound,
    SideConditionViolated,
    SpecSyntaxError,
    UnboundSymbol,
)
from qcongruence.expr import (
    Add,
    CongruenceSpec,
    Div,
    Mul,
    Neg,
    Phi,
    Pochhammer,
    Pow,
    QInt,
    QMonomial,
    RationalLit,
    Sub,
    Sum,
    SymbolRef,
    compile_expr,
    eval_expr,
    eval_int,
    load_spec_file,
    parse_expr,
    parse_spec,
)
from qcongruence.polyring import QFactored, QPoly, QRat, cyclotomic, q_integer
from qcongruence.qseries import QMonomialArg, qma


def test_parse_simple_shapes():
    assert parse_expr("3") == RationalLit(Fraction(3))
    assert parse_expr("q") == QMonomial(Fraction(1), RationalLit(Fraction(1)))
    assert parse_expr("q^5") == QMonomial(Fraction(1), RationalLit(Fraction(5)))
    assert parse_expr("qint(3)") == QInt(RationalLit(Fraction(3)))
    assert parse_expr("-n") == Neg(SymbolRef("n"))
    node = parse_expr("1 + 2*q")
    assert node == Add(
        RationalLit(Fraction(1)),
        Mul(RationalLit(Fraction(2)), QMonomial(Fraction(1), RationalLit(Fraction(1)))),
    )


def test_parse_precedence_and_associativity():
    # a - b - c is (a-b)-c; a/b/c is (a/b)/c; ^ binds tighter than * and -.
    assert eval_int(parse_expr("7 - 3 - 2")) == 2
    assert eval_int(parse_expr("24/4/2")) == 3
    assert eval_int(parse_expr("2*3^2")) == 18
    assert eval_int(parse_expr("-3^2")) == -9
    assert eval_int(parse_expr("(-3)^2")) == 9
    assert eval_int(parse_expr("2^(1+2)")) == 8


def test_parse_spec_example_sum():
    text = "sum(j, 1, (n-1)/2, (-1)^(j+1) * q^(2*j-n) / qint(2*j)^2)"
    node = parse_expr(text)
    assert isinstance(node, Sum)
    # at n = 3: j runs over {1}: q^(2-3)/[2]^2 = 1/(q (1+q)^2)
    got = eval_expr(node, {"n": 3})
    expected = QRat(QPoly.one(), QPoly.monomial(1) * QPoly([1, 1]) ** 2)
    assert got == expected
    # empty at n = 1
    assert eval_expr(node, {"n": 1}) == QRat.from_value(0)


def test_eval_qint_and_phi():
    assert eval_expr(parse_expr("qint(6)")) == QRat.from_value(q_integer(6))
    assert eval_expr(parse_expr("phi(6)")) == QRat.from_value(cyclotomic(6))
    assert eval_expr(parse_expr("qint(n)"), {"n": 4}) == QRat.from_value(QPoly([1, 1, 1, 1]))
    # negative q-integer: [-2] = -(1+q)/q^2
    assert eval_expr(parse_expr("qint(-2)")) == QRat(QPoly([-1, -1]), QPoly.monomial(2))


def test_compiling_a_constant_tree_evaluates_nothing(monkeypatch):
    # A tree without a symbol is compiled to closures like any other: its
    # q-integer is built when the compiled tree is evaluated, not before.
    calls = []
    q_integer_of = QFactored.q_integer

    def counting(cls, n):
        calls.append(n)
        return q_integer_of(n)

    monkeypatch.setattr(QFactored, "q_integer", classmethod(counting))
    compiled = compile_expr(parse_expr("qint(5)^2 * (1 + q)^2 / phi(3)"))
    assert calls == []
    expected = QRat.from_value(q_integer(5) ** 2 * QPoly([1, 1]) ** 2) / QRat.from_value(cyclotomic(3))
    assert eval_expr(compiled) == expected
    assert calls == [5]


def test_eval_pochhammer_forms():
    # (q; q)_3
    got = eval_expr(parse_expr("poch(q; q; 3)"))
    assert got == _reference_poch(qma(1, 1), 1, 3)
    # (b q^2; q^4)_k at b = 2/3, k = 2
    got = eval_expr(parse_expr("poch(b*q^2; q^4; k)"), {"b": Fraction(2, 3), "k": 2})
    assert got == _reference_poch(qma(Fraction(2, 3), 2), 4, 2)
    # symbolic step: (q^r; q^d)_2 at r = 1, d = 3
    got = eval_expr(parse_expr("poch(q^r; q^d; 2)"), {"r": 1, "d": 3})
    assert got == _reference_poch(qma(1, 1), 3, 2)
    # argument with division and negative exponent: (q^(-n)/c; q; 1)
    got = eval_expr(parse_expr("poch(q^(-n)/c; q; 1)"), {"n": 2, "c": Fraction(5)})
    assert got == _reference_poch(qma(Fraction(1, 5), -2), 1, 1)


def test_eval_power_negative_and_symbolic():
    env = {"n": 7, "d": 3, "r": 1, "c": Fraction(2)}
    # (c q^r)^((r-n)/d) = (2q)^(-2) = 1/(4 q^2)
    got = eval_expr(parse_expr("(c*q^r)^((r-n)/d)"), env)
    assert got == QRat(QPoly.const(Fraction(1, 4)), QPoly.monomial(2))
    with pytest.raises(NonIntegerBound):
        eval_expr(parse_expr("q^((r-n)/d)"), {"n": 6, "d": 4, "r": 1})


def test_eval_errors():
    with pytest.raises(UnboundSymbol):
        eval_expr(parse_expr("qint(n)"))
    with pytest.raises(NonIntegerBound):
        eval_int(parse_expr("1/2"))
    with pytest.raises(SpecSyntaxError) as err:
        parse_expr("qint(3")
    assert err.value.line == 1 and err.value.col > 1
    with pytest.raises(SpecSyntaxError):
        parse_expr("poch(2; x; 3)")
    with pytest.raises(SpecSyntaxError):
        parse_expr("1 + + 2")


def test_parse_error_position_multiline():
    with pytest.raises(SpecSyntaxError) as err:
        parse_expr("1 +\n2 $ 3")
    assert err.value.line == 2 and err.value.col == 3


def test_parse_spec_declaration():
    line = "MY_CONG : qint(2)^2 == q^2 + q + 1 mod phi(2) with a=2/3, b=-5"
    spec = parse_spec(line)
    assert isinstance(spec, CongruenceSpec)
    assert spec.spec_id == "MY_CONG"
    assert spec.bindings == {"a": Fraction(2, 3), "b": Fraction(-5)}
    assert spec.modulus is not None
    assert eval_expr(spec.modulus) == QRat.from_value(cyclotomic(2))
    bare = parse_spec("qint(3) + 1")
    assert not isinstance(bare, CongruenceSpec)


def test_load_spec_file(tmp_path):
    path = tmp_path / "sample.qcs"
    path.write_text(
        "# a comment line\n"
        "\n"
        "FIRST : qint(2)*qint(2) == 1 mod phi(2)  # trailing comment\n"
        "SECOND : q^4 == 1 mod phi(4)*phi(2)\n",
        encoding="utf-8",
    )
    specs = load_spec_file(path)
    assert [s.spec_id for s in specs] == ["FIRST", "SECOND"]
    assert specs[0].modulus is not None


def test_load_spec_file_rejects_bare_expression(tmp_path):
    path = tmp_path / "bad.qcs"
    path.write_text("qint(2) + 1\n", encoding="utf-8")
    with pytest.raises(SpecSyntaxError):
        load_spec_file(path)


# -- differential check against plain QRat arithmetic --------------------------


def _reference_poch(arg, step: int, k: int) -> QRat:
    """(x; q^step)_k as a product of QRat factors 1 - x q^(step*i)."""
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    if k < 0:
        raise NegativeLength(f"Pochhammer length {k} is negative")
    value = QRat.from_value(1)
    for i in range(k):
        e = arg.exp + step * i
        value = value * QRat(
            QPoly.monomial(max(-e, 0)) + -QPoly.monomial(max(e, 0), arg.coeff),
            QPoly.monomial(max(-e, 0)),
        )
    return value


def _reference_scalar(node, env: dict) -> Fraction:
    """Exact rational value of a q-free subexpression, walked node by node.

    Operands go in the evaluator's order: a Div's divisor and a Pow's
    exponent first.
    """
    if isinstance(node, RationalLit):
        return node.value
    if isinstance(node, SymbolRef):
        if node.name not in env:
            raise UnboundSymbol(f"symbol {node.name!r} is not bound")
        v = env[node.name]
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise NonIntegerBound(f"symbol {node.name!r} is not a rational scalar")
    if isinstance(node, Neg):
        return -_reference_scalar(node.a, env)
    if isinstance(node, Add):
        return _reference_scalar(node.a, env) + _reference_scalar(node.b, env)
    if isinstance(node, Sub):
        return _reference_scalar(node.a, env) - _reference_scalar(node.b, env)
    if isinstance(node, Mul):
        return _reference_scalar(node.a, env) * _reference_scalar(node.b, env)
    if isinstance(node, Div):
        d = _reference_scalar(node.b, env)
        if d == 0:
            raise ZeroDivisionError("division by zero in integer expression")
        return _reference_scalar(node.a, env) / d
    if isinstance(node, Pow):
        e = _reference_int(node.exp, env)
        base = _reference_scalar(node.base, env)
        if e < 0 and base == 0:
            raise ZeroDivisionError("zero to a negative power")
        return base**e
    if isinstance(node, Sum):
        lo = _reference_int(node.lower, env)
        hi = _reference_int(node.upper, env)
        total = Fraction(0)
        for j in range(lo, hi + 1):
            total += _reference_scalar(node.body, {**env, node.index: j})
        return total
    raise NonIntegerBound("expression involving q used where a number is required")


def _reference_int(node, env: dict) -> int:
    v = _reference_scalar(node, env)
    if v.denominator != 1:
        raise NonIntegerBound(f"expected an integer, got {v}")
    return int(v)


def _reference_monomial(node, env: dict) -> QMonomialArg:
    """A Pochhammer argument coeff * q^exp, walked node by node."""
    if isinstance(node, QMonomial):
        return QMonomialArg(node.coeff, _reference_int(node.exp, env))
    if isinstance(node, Neg):
        inner = _reference_monomial(node.a, env)
        return QMonomialArg(-inner.coeff, inner.exp)
    if isinstance(node, Mul):
        x = _reference_monomial(node.a, env)
        y = _reference_monomial(node.b, env)
        return QMonomialArg(x.coeff * y.coeff, x.exp + y.exp)
    if isinstance(node, Div):
        x = _reference_monomial(node.a, env)
        y = _reference_monomial(node.b, env)
        if y.coeff == 0:
            raise ZeroDivisionError("division by zero in Pochhammer argument")
        return QMonomialArg(x.coeff / y.coeff, x.exp - y.exp)
    if isinstance(node, Pow):
        x = _reference_monomial(node.base, env)
        e = _reference_int(node.exp, env)
        if x.coeff == 0 and e < 0:
            raise ZeroDivisionError("zero to a negative power")
        return QMonomialArg(x.coeff**e, x.exp * e)
    return QMonomialArg(_reference_scalar(node, env), 0)


def reference_eval(node, env: dict) -> QRat:
    """The value of node, every operation a reduced QRat operation."""
    if isinstance(node, RationalLit):
        return QRat.from_value(node.value)
    if isinstance(node, SymbolRef):
        if node.name not in env:
            raise UnboundSymbol(f"symbol {node.name!r} is not bound")
        return QRat.from_value(env[node.name])
    if isinstance(node, QMonomial):
        e = _reference_int(node.exp, env)
        return QRat(QPoly.monomial(max(e, 0), node.coeff), QPoly.monomial(max(-e, 0)))
    if isinstance(node, QInt):
        return QRat.from_value(q_integer(_reference_int(node.arg, env)))
    if isinstance(node, Phi):
        return QRat.from_value(cyclotomic(_reference_int(node.arg, env)))
    if isinstance(node, Pochhammer):
        arg = _reference_monomial(node.arg, env)
        return _reference_poch(arg, _reference_int(node.step, env), _reference_int(node.length, env))
    if isinstance(node, Sum):
        total = QRat.from_value(0)
        for j in range(_reference_int(node.lower, env), _reference_int(node.upper, env) + 1):
            total = total + reference_eval(node.body, {**env, node.index: j})
        return total
    if isinstance(node, Neg):
        return -reference_eval(node.a, env)
    if isinstance(node, Add):
        return reference_eval(node.a, env) + reference_eval(node.b, env)
    if isinstance(node, Sub):
        return reference_eval(node.a, env) - reference_eval(node.b, env)
    if isinstance(node, Mul):
        return reference_eval(node.a, env) * reference_eval(node.b, env)
    if isinstance(node, Div):
        return reference_eval(node.a, env) / reference_eval(node.b, env)
    if isinstance(node, Pow):
        return reference_eval(node.base, env) ** _reference_int(node.exp, env)
    raise TypeError(f"cannot evaluate {node!r}")


def _outcome(evaluate, node, env):
    """(num, den) of the value, or (exception class, message)."""
    try:
        value = evaluate(node, env)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return value.num, value.den


def _assert_same_as_reference(text: str, env: dict):
    node = parse_expr(text)
    got = _outcome(eval_expr, node, env)
    assert got == _outcome(reference_eval, node, env), (text, env)
    return got


# q_closed pool sizes: LEM_REL t <= 21, THM_A and GWY n <= 21, THM_E at d in {3, 4, 5}.
_POOL_POINTS = (
    [("LEM_REL", {"t": t}) for t in range(22)]
    + [(sid, {"n": n}) for sid in ("THM_A", "GWY") for n in range(1, 22, 2)]
    + [
        ("THM_E", {"n": n, "d": d, "r": r})
        for n, d, r in ((2, 3, 1), (4, 3, -1), (5, 3, 1), (7, 3, -1), (8, 3, 1),
                        (3, 4, 1), (5, 4, -1), (4, 5, 1))
    ]
)


def _template_points():
    """(text, env) for every catalog template at every desk and pool point;
    a parametric template at sampling seeds 0-7, as q_generic draws them."""
    points = [
        (s.stmt_id, dict(case))
        for s in catalog.list_statements()
        if s.kind != "classical"
        for case in s.desk
    ]
    for stmt_id, bindings in points + _POOL_POINTS:
        stmt = catalog.get_statement(stmt_id)
        for seed in range(8) if stmt.symbols else (None,):
            try:
                bound = catalog._bind_symbols(stmt, bindings, seed) if stmt.symbols else bindings
                plan = stmt.build(bound)
            except SideConditionViolated:
                continue
            for text in (plan.lhs, plan.rhs_text):
                if isinstance(text, str):
                    yield text, plan.env
    b, c = Fraction(-7, 3), Fraction(5, 2)
    for n in range(6):
        yield catalog._QCHU_RHS, {"n": n, "b": b, "c": c}
    for n in (1, 3, 5, 7, 9):
        yield catalog._WHIPPLE_RHS_1 if n % 4 == 1 else catalog._WHIPPLE_RHS_3, {"n": n, "b": b}
    for n in (1, 4, 7, 10):
        yield catalog._JACKSON_RHS, {"n": n, "b": b}
    for n, d, r in ((4, 3, 1), (7, 3, 1), (5, 4, 1), (2, 3, -1), (9, 5, -1)):
        yield catalog._WATSON_RHS, {"n": n, "d": d, "r": r, "b": b, "c": c}


def test_eval_expr_matches_qrat_reference_on_catalog_templates():
    texts = set()
    for text, env in _template_points():
        texts.add(text)
        num, _den = _assert_same_as_reference(text, env)
        assert isinstance(num, QPoly), (text, env)
    templates = {
        name: text
        for name, text in vars(catalog).items()
        if name.endswith(("_LHS", "_RHS", "_RHS_1", "_RHS_3")) and isinstance(text, str)
    }
    assert len(templates) >= 20
    assert [name for name, text in templates.items() if text not in texts] == []


# Texts with two errors, pinned to the one raised first: a Pow's exponent
# before its base in index arithmetic and the base first elsewhere, a Div's
# divisor first in index arithmetic, the Pochhammer argument before its length,
# and a divisor evaluated whole before the division by it.
_FIRST_ERROR = {
    "qint((1/0)^(1/2))": (NonIntegerBound, "expected an integer, got 1/2"),
    "(1/(q-q))^(1/2)": (DivisionByZeroPoly, "inverse of zero rational function"),
    "qint((1/0)/(2-2))": (ZeroDivisionError, "division by zero in integer expression"),
    "poch((1/0)*q; q; 1/2)": (ZeroDivisionError, "division by zero in Pochhammer argument"),
    "phi(1/0) / phi(0)": (ZeroDivisionError, "division by zero in integer expression"),
    "1/(0*phi(0))": (ValueError, "cyclotomic index must be positive, got 0"),
}


@pytest.mark.parametrize(
    "text",
    [
        "1/qint(0)",
        "qint(n - 3)^(-2)",
        "1/poch(q^(-2); q; 3)",
        "poch(1; q; 2)^(-1)",
        "1/(q - q)",
        "0^(-1)",
        "phi(0)",
        "phi(n - 4)",
        "poch(q; q^0; 2)",
        "poch(q; q; -1)",
        "q^(1/2)",
        "qint(m)",
        # q where an integer is required, the one shape no catalog text has
        "qint(q)",
        *_FIRST_ERROR,
    ],
)
def test_eval_expr_raises_like_qrat_reference(text):
    got = _assert_same_as_reference(text, {"n": 3, "x": Fraction(2)})
    assert isinstance(got[0], type) and issubclass(got[0], Exception), text
    assert _FIRST_ERROR.get(text, got) == got, text


@pytest.mark.parametrize(
    "text",
    [
        "qint(-3)^(-2) * phi(6)",
        "(1 + q)^(-3) * phi(2)^3",
        "(q^2 + 2*q + 1) / (1 + q)",
        "(2 - 2*q^3) / (1 - q)",
        "q^(-3) * (q^3 + q^5) - q^2",
        "poch(-q^(-3); q^2; 4) / poch(q; q; 3)",
        "poch(2*q^(-1); q; 3) / poch(q; q; 2)",
        "poch(q^(-n); q; n) + qint(n)",
        "sum(j, 3, 1, q)",
        "sum(j, 1, 5, q^j / qint(j)^2) * qint(4)^2 - 1/phi(3)",
        "(1 - q^6) / ((1 - q^2) * (1 - q^3)) - phi(6) * (1 - q) / (1 - q)",
        "x * (1 - x*q^2) / (1 - x*q^2) + 1/x",
        "(1 + q) / (x - q) * (x - q)^2",
        "poch(2/3*q; q; 1) / poch(4/9*q^2; q^2; 1)",
        "(2 + 2*q + q^2) / poch(-1/4*q^4; q; 1)",
        "(q^2 - 2*q + 2) / poch(-4*q^(-4); q; 1)",
        "poch(2*q; q^2; 2)^2 / poch(8*q^3; q^3; 2)",
        # Shapes that no catalog text has.  Only a negated sum reaches
        # QFactored.__neg__.  A sum whose N is not constant, at a positive
        # net power in a product, multiplies its N^k into the product's one
        # N (QPoly.__pow__ at k > 1), which the constructor splits into Phi_d
        # where it is q^6 - 1; at a negative net power it becomes a QRat
        # (QRat.__pow__, QRat.__truediv__) and the product continues in QRat
        # arithmetic.
        "-(2 + q)^2",
        "1 - (q + q^2)",
        "(2 + q)^-2 * (2 + q)^2",
        "1/(2 + q)/(3 + q^2)",
        "1/(2 + q)^-2",
        "(1 + q + q^2) * (q^4 - q^3 + q - 1)",
        "((2 + q)*(3 + q))^-1 * (2 + q)",
        "(2 + q)^2 / (2 + q)^3",
        # A sum in index arithmetic (an exponent and a Pochhammer length), and
        # a power of a monomial as a Pochhammer argument.
        "q^(sum(j, 1, 3, j)) * poch(q; q; sum(j, 0, 2, j - 1) + 1)",
        "poch((x*q^2)^3; q; 2) / poch((2*q^(-1))^(-2); q^2; 3)",
    ],
)
def test_eval_expr_matches_qrat_reference_on_edge_shapes(text):
    _assert_same_as_reference(text, {"n": 3, "x": Fraction(-2, 3)})
