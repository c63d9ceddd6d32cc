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

compile_expr turns a tree into closures once, and eval_expr runs them at an
environment; the catalog compiles each of its texts on first use.  Index
arithmetic (exponents, lengths, sum bounds, qint and phi arguments) runs in
ints, with a Fraction only where a rational literal or a division makes
one.  Values are in polyring's factored QFactored form: a chain of
products, quotients and powers of constants, q-powers, q-integers,
cyclotomics, Pochhammers and sums at a positive power accumulates one
(c, j, exponent map) triple, with the sums' polynomial parts multiplied
into one N, and takes no gcd.  A sum at a negative power, or a symbol bound
to a QRat, turns the rest of its product into QRat arithmetic; that choice
is made in one place, _product.  Either way eval_expr returns the reduced
QRat.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZeroPoly, NonIntegerBound, SpecSyntaxError, UnboundSymbol
from .polyring import QFactored, QRat, pochhammer_parts, poly_product

__all__ = [
    "Add",
    "Compiled",
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
    "compile_expr",
    "eval_expr",
    "eval_int",
    "load_spec_file",
    "parse_expr",
    "parse_spec",
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
#
# A tree is compiled once into closures (Feeley and Lapalme, "Using closures
# for code generation", Computer Languages 12(1), 1987), in one of five modes:
#
#   _index     the exact rational value of a q-free subexpression, an int, or
#              a Fraction where a rational literal or a division makes one;
#   _integer   an _index value that must be an integer (NonIntegerBound);
#   _monomial  a Pochhammer argument coeff * q^exp as the pair (coeff, exp);
#   _value     a QFactored, or a QRat once a QRat, or a sum at a negative
#              power in a _product, entered it;
#   _factor    one factor of a _product: an atom as a (c, j, exps) triple or
#              a QFactored with N = 1, any other node as a _value.
#
# Each mode keeps the order in which the operands of a node are evaluated,
# and so which error a malformed expression raises first: a Div's divisor and
# a Pow's exponent come first in _index, a Pow's base first elsewhere.
# Compiling evaluates nothing: every closure runs at evaluation, so a
# malformed expression raises there.  A Sum binds its index in one cell that
# its body reads, so a compiled tree is not reentrant; the package evaluates
# on one thread.

_NOT_A_NUMBER = "expression involving q used where a number is required"
_ZERO_INVERSE = "inverse of zero rational function"
_NO_KEYS: dict = {}  # the exponent map of a factor without keys; never written


@dataclass(frozen=True)
class Compiled:
    """A tree compiled by compile_expr; eval_expr(compiled, env) runs it."""

    run: Callable[[dict], QRat]


def compile_expr(node: Node) -> Compiled:
    """Compile a tree once for evaluation at many environments."""
    value = _value(node, {})

    def run(env):
        v = value(env)
        return v.to_qrat() if isinstance(v, QFactored) else v

    return Compiled(run)


def eval_expr(node: Node | Compiled, env: dict | None = None) -> QRat:
    """Exact value of an expression as a reduced rational function of q."""
    if not isinstance(node, Compiled):
        node = compile_expr(node)
    return node.run(env or {})


def eval_int(node: Node, env: dict | None = None) -> int:
    """Exact integer value of an index expression; NonIntegerBound otherwise."""
    return _integer(node, {})(env or {})


def _rational(v: Fraction):
    return v.numerator if v.denominator == 1 else v


def _quotient(a, b):
    """a / b for ints and Fractions, b != 0: an int where b divides a."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _power(base, e: int):
    """base ** e for an int or Fraction base, exactly; base != 0 if e < 0."""
    return base**e if e >= 0 else Fraction(base) ** e


def _lookup(env: dict, name: str):
    try:
        return env[name]
    except KeyError:
        raise UnboundSymbol(f"symbol {name!r} is not bound") from None


def _symbol(name: str, scope: dict):
    """The rational value bound to name: a Sum index or an env entry."""
    cell = scope.get(name)
    if cell is not None:
        return lambda env: cell[0]

    def symbol(env):
        v = _lookup(env, name)
        if isinstance(v, (int, Fraction)):
            return v
        raise NonIntegerBound(f"symbol {name!r} is not a rational scalar")

    return symbol


def _index(node: Node, scope: dict):
    if isinstance(node, RationalLit):
        value = _rational(node.value)
        return lambda env: value
    if isinstance(node, SymbolRef):
        return _symbol(node.name, scope)
    if isinstance(node, Neg):
        a = _index(node.a, scope)
        return lambda env: -a(env)
    if isinstance(node, (Add, Sub, Mul)):
        a, b = _index(node.a, scope), _index(node.b, scope)
        if isinstance(node, Add):
            return lambda env: a(env) + b(env)
        if isinstance(node, Sub):
            return lambda env: a(env) - b(env)
        return lambda env: a(env) * b(env)
    if isinstance(node, Div):
        a, b = _index(node.a, scope), _index(node.b, scope)

        def div(env):
            d = b(env)
            if d == 0:
                raise ZeroDivisionError("division by zero in integer expression")
            return _quotient(a(env), d)

        return div
    if isinstance(node, Pow):
        base, exp = _index(node.base, scope), _integer(node.exp, scope)

        def power(env):
            e = exp(env)
            x = base(env)
            if e < 0 and x == 0:
                raise ZeroDivisionError("zero to a negative power")
            return _power(x, e)

        return power
    if isinstance(node, Sum):
        lower, upper = _integer(node.lower, scope), _integer(node.upper, scope)
        cell = [0]
        body = _index(node.body, {**scope, node.index: cell})

        def total(env):
            lo, hi = lower(env), upper(env)
            t = 0
            for k in range(lo, hi + 1):
                cell[0] = k
                t += body(env)
            return t

        return total

    def involves_q(env):
        raise NonIntegerBound(_NOT_A_NUMBER)

    return involves_q


def _integer(node: Node, scope: dict):
    if isinstance(node, SymbolRef) and node.name in scope:
        return _symbol(node.name, scope)  # a Sum index is an int
    value = _index(node, scope)

    def integer(env):
        v = value(env)
        if type(v) is int:
            return v
        if v.denominator != 1:
            raise NonIntegerBound(f"expected an integer, got {v}")
        return int(v)

    return integer


def _monomial(node: Node, scope: dict):
    if isinstance(node, QMonomial):
        coeff, exp = _rational(node.coeff), _integer(node.exp, scope)
        return lambda env: (coeff, exp(env))
    if isinstance(node, Neg):
        a = _monomial(node.a, scope)

        def neg(env):
            c, e = a(env)
            return -c, e

        return neg
    if isinstance(node, (Mul, Div)):
        a, b = _monomial(node.a, scope), _monomial(node.b, scope)
        if isinstance(node, Mul):

            def mul(env):
                (ca, ea), (cb, eb) = a(env), b(env)
                return ca * cb, ea + eb

            return mul

        def div(env):
            (ca, ea), (cb, eb) = a(env), b(env)
            if cb == 0:
                raise ZeroDivisionError("division by zero in Pochhammer argument")
            return _quotient(ca, cb), ea - eb

        return div
    if isinstance(node, Pow):
        base, exp = _monomial(node.base, scope), _integer(node.exp, scope)

        def power(env):
            c, x = base(env)
            e = exp(env)
            if c == 0 and e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return _power(c, e), x * e

        return power
    value = _index(node, scope)
    return lambda env: (value(env), 0)


def _value(node: Node, scope: dict):
    if isinstance(node, Sum):
        lower, upper = _integer(node.lower, scope), _integer(node.upper, scope)
        cell = [0]
        body = _value(node.body, {**scope, node.index: cell})

        def total(env):
            lo, hi = lower(env), upper(env)
            terms = []
            for k in range(lo, hi + 1):
                cell[0] = k
                terms.append(body(env))
            # A balanced tree of Adds expands operands of similar size.
            while len(terms) > 1:
                paired = [x + y for x, y in zip(terms[::2], terms[1::2])]
                terms = paired + terms[len(paired) * 2 :]
            return terms[0] if terms else QFactored(0)

        return total
    if isinstance(node, (Add, Sub)):
        # a - b is a + (-b): QFactored has no subtraction, and a product
        # takes the sign into its c.
        a = _value(node.a, scope)
        b = _value(node.b if isinstance(node, Add) else Neg(node.b), scope)
        return lambda env: a(env) + b(env)
    if isinstance(node, Neg) and isinstance(node.a, (Add, Sub, Sum)):
        a = _value(node.a, scope)
        return lambda env: -a(env)
    return _product(node, scope)


def _factor(node: Node, scope: dict):
    """An atom as a (c, j, exps) triple or a QFactored with N = 1; a symbol
    bound to a rational function as its QRat; any other node as a value."""
    if isinstance(node, RationalLit):
        triple = (_rational(node.value), 0, _NO_KEYS)
        return lambda env: triple
    if isinstance(node, SymbolRef):
        cell = scope.get(node.name)
        if cell is not None:
            return lambda env: (cell[0], 0, _NO_KEYS)
        name = node.name

        def symbol(env):
            v = _lookup(env, name)
            return (v, 0, _NO_KEYS) if isinstance(v, (int, Fraction)) else QRat.from_value(v)

        return symbol
    if isinstance(node, QMonomial):
        coeff, exp = _rational(node.coeff), _integer(node.exp, scope)
        return lambda env: (coeff, exp(env), _NO_KEYS)
    if isinstance(node, QInt):
        arg = _integer(node.arg, scope)
        return lambda env: QFactored.q_integer(arg(env))
    if isinstance(node, Phi):
        arg = _integer(node.arg, scope)
        return lambda env: QFactored.cyclotomic(arg(env))
    if isinstance(node, Pochhammer):
        arg = _monomial(node.arg, scope)
        step, length = _integer(node.step, scope), _integer(node.length, scope)
        seen = [None, {}]  # the last (coeff, exp, step) and its products by length

        def poch(env):
            # A Sum body asks for growing lengths of one argument: a product
            # not seen yet extends the longest shorter one.  The triples are
            # shared between calls and never written.
            coeff, exp = arg(env)
            x, k = (coeff, exp, step(env)), length(env)
            if seen[0] != x:
                seen[:] = x, {}
            known = seen[1]
            parts = known.get(k)
            if parts is None:
                i = max((i for i in known if i <= k), default=None)
                prefix = None if i is None else (i, known[i])
                parts = known[k] = pochhammer_parts(coeff, exp, x[2], k, prefix)
            return parts

        return poch
    if isinstance(node, (Sum, Add, Sub, Neg, Mul, Div, Pow)):
        return _value(node, scope)
    raise TypeError(f"cannot evaluate {node!r}")


def _product(node: Node, scope: dict):
    """One closure for a chain of Mul, Div, Neg and Pow.

    The chain is flattened into steps (factor, exponent, sign), every factor
    in its order in the tree; a divisor that is itself a product is one step,
    so it is evaluated whole before the division by it.  Every factor whose
    net exponent k = exponent * sign keeps the value factored -- an atom, a
    QFactored with N = 1, or a sum at k > 0 -- accumulates one triple: the
    numerator and denominator of c as ints, the q-power j and the exponent
    map, with each sum's N^k on a list that one poly_product multiplies.
    They are the fields of the single QFactored built at the end.  Any other
    factor (a sum at k < 0, or a QRat) becomes a QRat at its step, and the
    product of the triple continues in QRat arithmetic on its to_qrat: this
    is the one place that chooses between the factored form and QRat.  A
    zero raised to a negative power, or divided by, raises DivisionByZeroPoly
    right after its step, where the tree walk did.
    """
    steps = []
    first = 1  # the sign of the Negs along the chain

    def flatten(nd, divisor=False):
        nonlocal first
        if divisor and isinstance(nd, (Mul, Div, Neg)):
            steps.append((_factor(nd, scope), None, -1))
        elif isinstance(nd, Neg):
            first = -first
            flatten(nd.a)
        elif isinstance(nd, (Mul, Div)):
            flatten(nd.a)
            flatten(nd.b, isinstance(nd, Div))
        elif isinstance(nd, Pow):
            steps.append((_factor(nd.base, scope), _integer(nd.exp, scope), -1 if divisor else 1))
        else:
            steps.append((_factor(nd, scope), None, -1 if divisor else 1))

    flatten(node)

    def product(env):
        num, den, j, exps, sums, rest = first, 1, 0, {}, [], []
        for factor, exp, sign in steps:
            v = factor(env)
            e = 1
            if exp is not None:
                e = exp(env)
                if not e:
                    continue
            k = e * sign
            if type(v) is not tuple:
                if isinstance(v, QFactored) and (k > 0 or v.N.is_one()):
                    if not v.N.is_one():
                        sums.append(v.N**k)
                    v = v.c, v.j, v.exps
                else:
                    if isinstance(v, QFactored):
                        v = v.to_qrat()
                    if e != 1:
                        v = v**e
                    if sign < 0 and not v:
                        raise DivisionByZeroPoly(_ZERO_INVERSE)
                    rest.append((v, sign))
                    continue
            c, vj, vexps = v
            if not c:
                if e < 0 or sign < 0:
                    raise DivisionByZeroPoly(_ZERO_INVERSE)
                num = 0
                continue
            n, d = c.numerator, c.denominator
            if k == 1:
                num, den = num * n, den * d
            elif k == -1:
                num, den = num * d, den * n
            elif k > 0:
                num, den = num * n**k, den * d**k
            else:
                num, den = num * d**-k, den * n**-k
            j += vj * k
            for key, x in vexps.items():
                total = exps.get(key, 0) + x * k
                if total:
                    exps[key] = total
                else:
                    del exps[key]
        value = QFactored(Fraction(num, den), j, poly_product(sums), exps)
        if rest:
            value = value.to_qrat()
            for v, sign in rest:
                value = value * v if sign > 0 else value / v
        return value

    return product
