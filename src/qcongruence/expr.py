"""A small expression language for closed forms and congruence declarations.

Grammar (one expression):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-')* atom ('^' exponent)?
    atom   := INT | 'q' ('^' exponent)? | 'qint' '(' expr ')'
            | 'phi' '(' expr ')'
            | 'poch' '(' expr ';' 'q' ('^' exponent)? ';' expr ')'
            | 'sum' '(' IDENT ',' expr ',' expr ',' expr ')'
            | IDENT | '(' expr ')'
    exponent := INT | IDENT | '(' expr ')' | '-' exponent

Declaration lines for spec files:

    <ID> : <expr> == <expr> [mod <expr>] [with sym=val, sym=val, ...]

'#' starts a comment.  Integer-valued subexpressions (exponents, Pochhammer
lengths, sum bounds) are evaluated exactly; a fractional value raises
NonIntegerBound.  Empty sums (lower bound above upper) are zero.

eval_expr evaluates every node in polyring's cyclotomic-factored QFactored
form, where products and quotients of q-integers, cyclotomics, q-powers and
Pochhammers with arguments +-q^e take no gcd.  Where QFactored falls back
(a division by a non-cyclotomic factor, such as a Pochhammer with another
rational argument), the evaluation continues in QRat arithmetic.  Either
way eval_expr returns the reduced QRat, the same value as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonIntegerBound, SpecSyntaxError, UnboundSymbol
from .polyring import QFactored, QRat
from .qseries import QMonomialArg

__all__ = [
    "Add",
    "CongruenceSpec",
    "Div",
    "Mul",
    "Neg",
    "Pochhammer",
    "Pow",
    "Phi",
    "QInt",
    "QMonomial",
    "RationalLit",
    "Sub",
    "Sum",
    "SymbolRef",
    "eval_expr",
    "eval_int",
    "load_spec_file",
    "parse_expr",
    "parse_spec",
    "to_text",
]


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class RationalLit:
    value: Fraction


@dataclass(frozen=True)
class QMonomial:
    coeff: Fraction
    exp: "Node"


@dataclass(frozen=True)
class SymbolRef:
    name: str


@dataclass(frozen=True)
class QInt:
    arg: "Node"


@dataclass(frozen=True)
class Phi:
    arg: "Node"


@dataclass(frozen=True)
class Pochhammer:
    arg: "Node"
    step: "Node"  # exponent e in the base q^e
    length: "Node"


@dataclass(frozen=True)
class Sum:
    index: str
    lower: "Node"
    upper: "Node"
    body: "Node"


@dataclass(frozen=True)
class Neg:
    a: "Node"


@dataclass(frozen=True)
class Add:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Sub:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Mul:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Div:
    a: "Node"
    b: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exp: "Node"


Node = (
    RationalLit
    | QMonomial
    | SymbolRef
    | QInt
    | Phi
    | Pochhammer
    | Sum
    | Neg
    | Add
    | Sub
    | Mul
    | Div
    | Pow
)


@dataclass(frozen=True)
class CongruenceSpec:
    spec_id: str
    lhs: Node
    rhs: Node
    modulus: Node | None
    bindings: dict

    def __post_init__(self):
        object.__setattr__(self, "bindings", dict(self.bindings))


# -- tokenizer ----------------------------------------------------------------

_PUNCT = {"+", "-", "*", "/", "^", "(", ")", ",", ";", ":"}


@dataclass(frozen=True)
class _Token:
    kind: str  # INT, IDENT, PUNCT, EQEQ, END
    text: str
    line: int
    col: int


def _tokenize(text: str, line_offset: int = 1) -> list[_Token]:
    tokens = []
    line = line_offset
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == "=" and i + 1 < len(text) and text[i + 1] == "=":
            tokens.append(_Token("EQEQ", "==", line, start_col))
            i += 2
            col += 2
            continue
        if ch == "=":
            tokens.append(_Token("PUNCT", "=", line, start_col))
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise SpecSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, message: str):
        tok = self.current
        raise SpecSyntaxError(message, tok.line, tok.col)

    def advance(self) -> _Token:
        tok = self.current
        if tok.kind != "END":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        tok = self.current
        if tok.kind in ("PUNCT", "EQEQ") and tok.text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str):
        if not self.accept(text):
            self._fail(f"expected {text!r}, found {self.current.text or 'end of input'!r}")

    def expect_ident(self) -> str:
        if self.current.kind != "IDENT":
            self._fail(f"expected a name, found {self.current.text or 'end of input'!r}")
        return self.advance().text

    # grammar rules

    def expr(self) -> Node:
        node = self.term()
        while True:
            if self.accept("+"):
                node = Add(node, self.term())
            elif self.accept("-"):
                node = Sub(node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            if self.accept("*"):
                node = Mul(node, self.factor())
            elif self.accept("/"):
                node = Div(node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        if self.accept("-"):
            return Neg(self.factor())
        node = self.atom()
        if self.accept("^"):
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> Node:
        if self.accept("-"):
            return Neg(self.exponent())
        tok = self.current
        if tok.kind == "INT":
            self.advance()
            return RationalLit(Fraction(int(tok.text)))
        if tok.kind == "IDENT":
            self.advance()
            return SymbolRef(tok.text)
        if self.accept("("):
            node = self.expr()
            self.expect(")")
            return node
        self._fail("expected an exponent")

    def _q_power(self) -> Node:
        """After consuming the IDENT 'q': optional '^' exponent."""
        if self.accept("^"):
            return self.exponent()
        return RationalLit(Fraction(1))

    def atom(self) -> Node:
        tok = self.current
        if tok.kind == "INT":
            self.advance()
            return RationalLit(Fraction(int(tok.text)))
        if self.accept("("):
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind != "IDENT":
            self._fail(f"expected a value, found {tok.text or 'end of input'!r}")
        name = self.advance().text
        if name == "q":
            return QMonomial(Fraction(1), self._q_power())
        if name in ("qint", "phi"):
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return QInt(arg) if name == "qint" else Phi(arg)
        if name == "poch":
            self.expect("(")
            arg = self.expr()
            self.expect(";")
            base = self.expect_ident()
            if base != "q":
                self._fail("Pochhammer base must be a power of q")
            step = self._q_power()
            self.expect(";")
            length = self.expr()
            self.expect(")")
            return Pochhammer(arg, step, length)
        if name == "sum":
            self.expect("(")
            index = self.expect_ident()
            self.expect(",")
            lower = self.expr()
            self.expect(",")
            upper = self.expr()
            self.expect(",")
            body = self.expr()
            self.expect(")")
            return Sum(index, lower, upper, body)
        return SymbolRef(name)


def parse_expr(text: str, line: int = 1) -> Node:
    parser = _Parser(_tokenize(text, line))
    node = parser.expr()
    if parser.current.kind != "END":
        parser._fail(f"unexpected trailing input {parser.current.text!r}")
    return node


def _parse_declaration(parser: _Parser) -> CongruenceSpec:
    spec_id = parser.expect_ident()
    parser.expect(":")
    lhs = parser.expr()
    if parser.current.kind != "EQEQ":
        parser._fail("expected '==' between the two sides")
    parser.advance()
    rhs = parser.expr()
    modulus = None
    bindings = {}
    if parser.current.kind == "IDENT" and parser.current.text == "mod":
        parser.advance()
        modulus = parser.expr()
    if parser.current.kind == "IDENT" and parser.current.text == "with":
        parser.advance()
        while True:
            sym = parser.expect_ident()
            parser.expect("=")
            neg = parser.accept("-")
            tok = parser.current
            if tok.kind != "INT":
                parser._fail("expected a rational value")
            parser.advance()
            num = int(tok.text)
            den = 1
            if parser.accept("/"):
                dtok = parser.current
                if dtok.kind != "INT":
                    parser._fail("expected a denominator")
                den = int(dtok.text)
                if den == 0:
                    parser._fail(f"zero denominator in the value of {sym!r}")
                parser.advance()
            bindings[sym] = Fraction(-num if neg else num, den)
            if not parser.accept(","):
                break
    if parser.current.kind != "END":
        parser._fail(f"unexpected trailing input {parser.current.text!r}")
    return CongruenceSpec(spec_id, lhs, rhs, modulus, bindings)


def parse_spec(text: str, line: int = 1):
    """Parse one line: a declaration if it starts with '<ID> :', else an expression."""
    tokens = _tokenize(text, line)
    if (
        len(tokens) >= 2
        and tokens[0].kind == "IDENT"
        and tokens[1].kind == "PUNCT"
        and tokens[1].text == ":"
    ):
        return _parse_declaration(_Parser(tokens))
    return parse_expr(text, line)


def load_spec_file(path) -> list[CongruenceSpec]:
    """Parse a declaration file: one congruence per line, '#' comments."""
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    specs = []
    for lineno, raw in enumerate(content.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parsed = parse_spec(stripped, lineno)
        if not isinstance(parsed, CongruenceSpec):
            raise SpecSyntaxError("expected a declaration '<ID> : lhs == rhs ...'", lineno, 1)
        specs.append(parsed)
    return specs


# -- evaluation ---------------------------------------------------------------


def _scalar(node: Node, env: dict) -> Fraction:
    """Exact rational value of a q-free subexpression."""
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
        return -_scalar(node.a, env)
    if isinstance(node, Add):
        return _scalar(node.a, env) + _scalar(node.b, env)
    if isinstance(node, Sub):
        return _scalar(node.a, env) - _scalar(node.b, env)
    if isinstance(node, Mul):
        return _scalar(node.a, env) * _scalar(node.b, env)
    if isinstance(node, Div):
        d = _scalar(node.b, env)
        if d == 0:
            raise ZeroDivisionError("division by zero in integer expression")
        return _scalar(node.a, env) / d
    if isinstance(node, Pow):
        e = eval_int(node.exp, env)
        base = _scalar(node.base, env)
        if e < 0 and base == 0:
            raise ZeroDivisionError("zero to a negative power")
        return base**e
    if isinstance(node, Sum):
        lo = eval_int(node.lower, env)
        hi = eval_int(node.upper, env)
        total = Fraction(0)
        inner = dict(env)
        for j in range(lo, hi + 1):
            inner[node.index] = j
            total += _scalar(node.body, inner)
        return total
    raise NonIntegerBound("expression involving q used where a number is required")


def eval_int(node: Node, env: dict | None = None) -> int:
    """Exact integer value of an index expression; NonIntegerBound otherwise."""
    v = _scalar(node, env or {})
    if v.denominator != 1:
        raise NonIntegerBound(f"expected an integer, got {v}")
    return int(v)


def _monomial_value(node: Node, env: dict) -> QMonomialArg:
    """Pochhammer arguments must reduce to coeff * q^exp."""
    if isinstance(node, QMonomial):
        return QMonomialArg(node.coeff, eval_int(node.exp, env))
    if isinstance(node, Neg):
        inner = _monomial_value(node.a, env)
        return QMonomialArg(-inner.coeff, inner.exp)
    if isinstance(node, Mul):
        x = _monomial_value(node.a, env)
        y = _monomial_value(node.b, env)
        return QMonomialArg(x.coeff * y.coeff, x.exp + y.exp)
    if isinstance(node, Div):
        x = _monomial_value(node.a, env)
        y = _monomial_value(node.b, env)
        if y.coeff == 0:
            raise ZeroDivisionError("division by zero in Pochhammer argument")
        return QMonomialArg(x.coeff / y.coeff, x.exp - y.exp)
    if isinstance(node, Pow):
        x = _monomial_value(node.base, env)
        e = eval_int(node.exp, env)
        if x.coeff == 0 and e < 0:
            raise ZeroDivisionError("zero to a negative power")
        return QMonomialArg(x.coeff**e, x.exp * e)
    return QMonomialArg(_scalar(node, env), 0)


def eval_expr(node: Node, env: dict | None = None) -> QRat:
    """Exact value of an expression as a reduced rational function of q."""
    value = _eval(node, env or {})
    return value.to_qrat() if isinstance(value, QFactored) else value


def _eval(node: Node, env: dict) -> QFactored | QRat:
    """Value of node in cyclotomic-factored form, or a QRat past a fallback."""
    if isinstance(node, RationalLit):
        return QFactored(node.value)
    if isinstance(node, SymbolRef):
        if node.name not in env:
            raise UnboundSymbol(f"symbol {node.name!r} is not bound")
        v = env[node.name]
        return QFactored(v) if isinstance(v, (int, Fraction)) else QRat.from_value(v)
    if isinstance(node, QMonomial):
        return QFactored(node.coeff, eval_int(node.exp, env))
    if isinstance(node, QInt):
        return QFactored.q_integer(eval_int(node.arg, env))
    if isinstance(node, Phi):
        return QFactored.cyclotomic(eval_int(node.arg, env))
    if isinstance(node, Pochhammer):
        arg = _monomial_value(node.arg, env)
        step = eval_int(node.step, env)
        length = eval_int(node.length, env)
        return QFactored.pochhammer(arg.coeff, arg.exp, step, length)
    if isinstance(node, Sum):
        lo = eval_int(node.lower, env)
        hi = eval_int(node.upper, env)
        terms = []
        inner = dict(env)
        for j in range(lo, hi + 1):
            inner[node.index] = j
            terms.append(_eval(node.body, inner))
        # A balanced tree of Adds expands operands of similar size.
        while len(terms) > 1:
            paired = [a + b for a, b in zip(terms[::2], terms[1::2])]
            terms = paired + terms[len(paired) * 2 :]
        return terms[0] if terms else QFactored(0)
    if isinstance(node, Neg):
        return -_eval(node.a, env)
    if isinstance(node, Add):
        return _eval(node.a, env) + _eval(node.b, env)
    if isinstance(node, Sub):
        return _eval(node.a, env) - _eval(node.b, env)
    if isinstance(node, Mul):
        return _eval(node.a, env) * _eval(node.b, env)
    if isinstance(node, Div):
        return _eval(node.a, env) / _eval(node.b, env)
    if isinstance(node, Pow):
        return _eval(node.base, env) ** eval_int(node.exp, env)
    raise TypeError(f"cannot evaluate {node!r}")


# -- printing -----------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _render(node: Node) -> tuple[str, int]:
    if isinstance(node, RationalLit):
        if node.value.denominator == 1:
            v = int(node.value)
            return (str(v), _PREC_ATOM if v >= 0 else _PREC_UNARY)
        return (f"{node.value.numerator}/{node.value.denominator}", _PREC_MUL)
    if isinstance(node, SymbolRef):
        return node.name, _PREC_ATOM
    if isinstance(node, QMonomial):
        body = "q" if node.exp == RationalLit(Fraction(1)) else f"q^{_exp_text(node.exp)}"
        if node.coeff == 1:
            return body, _PREC_ATOM
        coeff = RationalLit(node.coeff)
        return f"{_child(coeff, _PREC_MUL)}*{body}", _PREC_MUL
    if isinstance(node, QInt):
        return f"qint({_render(node.arg)[0]})", _PREC_ATOM
    if isinstance(node, Phi):
        return f"phi({_render(node.arg)[0]})", _PREC_ATOM
    if isinstance(node, Pochhammer):
        step = "q" if node.step == RationalLit(Fraction(1)) else f"q^{_exp_text(node.step)}"
        return (
            f"poch({_render(node.arg)[0]}; {step}; {_render(node.length)[0]})",
            _PREC_ATOM,
        )
    if isinstance(node, Sum):
        return (
            f"sum({node.index}, {_render(node.lower)[0]}, "
            f"{_render(node.upper)[0]}, {_render(node.body)[0]})",
            _PREC_ATOM,
        )
    if isinstance(node, Neg):
        return f"-{_child(node.a, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(node, Add):
        return f"{_child(node.a, _PREC_ADD)} + {_child(node.b, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(node, Sub):
        return f"{_child(node.a, _PREC_ADD)} - {_child(node.b, _PREC_ADD + 1)}", _PREC_ADD
    if isinstance(node, Mul):
        return f"{_child(node.a, _PREC_MUL)}*{_child(node.b, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(node, Div):
        return f"{_child(node.a, _PREC_MUL)}/{_child(node.b, _PREC_MUL + 1)}", _PREC_MUL
    if isinstance(node, Pow):
        return f"{_child(node.base, _PREC_ATOM)}^{_exp_text(node.exp)}", _PREC_POW
    raise TypeError(f"cannot render {node!r}")


def _child(node: Node, min_prec: int) -> str:
    text, prec = _render(node)
    if prec < min_prec:
        return f"({text})"
    return text


def _exp_text(node: Node) -> str:
    if isinstance(node, RationalLit) and node.value.denominator == 1 and node.value >= 0:
        return str(int(node.value))
    if isinstance(node, SymbolRef):
        return node.name
    return f"({_render(node)[0]})"


def to_text(node: Node) -> str:
    """Canonical source text; parse_expr(to_text(n)) reproduces the value of n."""
    return _render(node)[0]
