"""Declarative inventory of verifiable congruence statements, plus the runner.

Each q-side entry binds one left side, a truncated-sum shape (a
qseries.well_poised_spec) or an expression text; an expression text for its
right side, built from its family's template where the paper's theorems come
in families; a factored modulus, side conditions, and the truncation choices
the statement offers.  An entry's kind is its Statement.kind alone.  A
strengthened statement (THM_3_2, THM_3_3, THM_5_4) checks its own side
conditions and ends in its general statement's build.
Classical (q -> 1) entries bind one checker each, here: it tests the
statement's side conditions, the degree-d windows by its q family's at
n = p^s, and builds its sides from padic's series and closed forms, which
padic.verify_classical decides.  Statement ids are stable strings forming
the CLI contract.

Truncation slots are reported as "first" and "second" in records; what each
slot means (for example (n-1)/2 versus n-1) is part of the statement's
documentation returned by list_statements.

check_terminating_identity verifies the four closed summation formulas the
congruence proofs rest on (q-Chu-Vandermonde, and the very-well-poised
specializations whose parameters are pinned to q-powers) as exact
equalities; their right sides are the statements' templates at y = b, so
every closed form is written once, here.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Callable

from . import padic
from .congruence import Modulus, build_modulus, congruent, sample_params
from .errors import (
    DegenerateParameters,
    DenominatorNotUnit,
    NonIntegerBound,
    NonTerminating,
    QCongruenceError,
    SideConditionViolated,
    UnknownKind,
)
from .expr import Compiled, compile_expr, eval_expr, parse_expr
from .qseries import TermSpec, qma, truncated_sum_prefixes, well_poised_spec

__all__ = [
    "CongruenceInstance",
    "IdentityCheck",
    "Statement",
    "VerificationRecord",
    "check_terminating_identity",
    "get_statement",
    "instantiate",
    "list_statements",
    "run_statement",
    "verify_instance",
]

_RESAMPLE_STRIDE = 1_000_003
_MAX_RESAMPLES = 5


@dataclass(frozen=True)
class VerificationRecord:
    """One verdict line: serializable to the fixed-order JSONL schema."""

    stmt_id: str
    params: dict
    modulus: str
    m_choice: str
    status: str  # verified | failed | skipped | error
    witness: dict | None
    elapsed_ms: int = 0
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "id": self.stmt_id,
            "params": _json_safe(self.params),
            "modulus": self.modulus,
            "m_choice": self.m_choice,
            "status": self.status,
            "witness": _json_safe(self.witness),
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
        }


def _json_safe(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass(frozen=True)
class CongruenceInstance:
    """A fully evaluated statement at one parameter point and truncation."""

    stmt_id: str
    params: dict
    m_choice: str
    m_value: int | None
    lhs: object
    rhs: object
    modulus: Modulus | None
    kind: str
    seed: int | None = None


@dataclass(frozen=True)
class _Plan:
    """Everything needed to evaluate one q-side statement instance.

    lhs is the truncated sum's TermSpec for a "sum" statement, whose slots
    m_choices lists, and an expression text otherwise.
    """

    modulus: Modulus | None
    m_choices: tuple[tuple[str, int], ...]
    lhs: TermSpec | str
    rhs_text: str
    env: dict


@dataclass(frozen=True)
class Statement:
    stmt_id: str
    description: str
    kind: str  # sum | expr | equality | classical
    param_doc: str
    side_doc: str
    m_doc: str
    build: Callable
    symbols: tuple[str, ...] = ()
    desk: tuple[dict, ...] = ()


STATEMENTS: dict[str, Statement] = {}


def _register(stmt: Statement):
    if stmt.stmt_id in STATEMENTS:
        raise ValueError(f"duplicate statement id {stmt.stmt_id}")
    STATEMENTS[stmt.stmt_id] = stmt


def list_statements() -> list[Statement]:
    return list(STATEMENTS.values())


def get_statement(stmt_id: str) -> Statement:
    stmt = STATEMENTS.get(stmt_id)
    if stmt is None:
        raise UnknownKind(f"unknown statement id {stmt_id!r}")
    return stmt


# -- small helpers ---------------------------------------------------------


def _require(cond: bool, message: str, error=SideConditionViolated):
    if not cond:
        raise error(message)


def _int_param(bindings: dict, name: str, default=None) -> int:
    value = bindings.get(name, default)
    if value is None:
        raise SideConditionViolated(f"parameter {name!r} is required")
    if isinstance(value, bool) or not isinstance(value, int):
        raise SideConditionViolated(f"parameter {name!r} must be an integer")
    return value


def _frac_param(bindings: dict, name: str) -> Fraction:
    value = bindings.get(name)
    if value is None:
        raise SideConditionViolated(f"parameter {name!r} is required")
    value = Fraction(value)
    if value == 0:
        raise SideConditionViolated(f"parameter {name!r} must be nonzero")
    return value


def _ab_params(bindings: dict) -> tuple[Fraction, Fraction]:
    """a and b of the parametric templates, whose _omega and _theta divide
    by (a - b)(1 - ab): refused where that vanishes."""
    a, b = _frac_param(bindings, "a"), _frac_param(bindings, "b")
    _require(a != b and a * b != 1, f"a = {a} and b = {b} make (a - b)(1 - ab) vanish")
    return a, b


def _serialize_params(bindings: dict, symbols: tuple[str, ...]) -> dict:
    out = {}
    for key in ("n", "t", "d", "r", "p", "s"):
        if key in bindings and bindings[key] is not None:
            out[key] = bindings[key]
    for sym in symbols:
        if sym in bindings:
            out[sym] = str(Fraction(bindings[sym]))
    return out


# -- right-hand expression texts ---------------------------------------------
#
# Each closed form is written once: a family's template takes the text of its
# bound m ("n", "2*n", "t*n" or "(d*n-n)") and, for degree d, its weight c.

_CENTER_SUM = (
    "sum(j, 1, (n-1)/2, (-1)^(j+1) * q^(2*j-n) / qint(2*j)^2)"
)

_GWY_RHS_1 = "qint(n) * (poch(q^2; q^4; (n-1)/4) / poch(q^4; q^4; (n-1)/4))^2"
_WEI_RATIO = "poch(q^3; q^4; (n-1)/2) / poch(q^5; q^4; (n-1)/2)"
_WEI_RATIO_LHS = "qint(n)^2 * " + _WEI_RATIO
_THM_A_RHS_1 = _GWY_RHS_1 + f" * (1 + qint(n)^2 * {_CENTER_SUM})"
_THM_A_RHS_3 = "qint(n)^2 * q^((1-n)/2) * " + _WEI_RATIO


def _cubic_factor(m: str) -> str:
    """[m] ((q^2; q^3)_L / (q^3; q^3)_L)^3 with L = (m-1)/3."""
    length = f"({m}-1)/3"
    return f"qint({m}) * (poch(q^2; q^3; {length}) / poch(q^3; q^3; {length}))^3"


def _cubic_bracket(m: str) -> str:
    """1 + [m]^2 (2 - q^m) sum_{j<=(m-1)/3} (q^(3j-1)/[3j-1]^2 - q^(3j)/[3j]^2)."""
    power = f"q^{m}" if m.isidentifier() else f"q^({m})"
    return (
        f"1 + qint({m})^2 * (2 - {power}) * "
        f"sum(j, 1, ({m}-1)/3, q^(3*j-1) / qint(3*j-1)^2 - q^(3*j) / qint(3*j)^2)"
    )


_THM_B_RHS = _cubic_factor("n") + " * (" + _cubic_bracket("n") + ")"
_THM_C_RHS = "5 * " + _cubic_factor("2*n")
_LEM_OO_RHS = _cubic_factor("2*n") + " * (" + _cubic_bracket("2*n") + ")"
_LEM_PP_LHS = _cubic_bracket("2*n")

_WEI_CUBE_LHS = (
    "-(qint(n)^3) * q^(1-n) / (1+q)^2"
    " * poch(q^4; q^4; (n-3)/4)^2 / poch(q^6; q^4; (n-3)/4)^2"
)

_LEM_REL_LHS = "poch(q; q^2; t) / poch(q^2; q^2; t)"
_LEM_REL_RHS = "poch(q; q; 2*t) / (poch(q; q; t)^2 * poch(-q; q; t)^2)"


def _omega(x: str, y: str) -> str:
    return (
        f"(qint(n) * (-({x}*q^(-n))) * (1 - {y}*q^n) * ({y} - q^n)"
        f" / (({x} - {y}) * (1 - {x}*{y})))"
    )


def _quartic_ratio_1(y: str) -> str:
    """(y q^2, q^2/y; q^4)_L / (q^4/y, y q^4; q^4)_L with L = (n-1)/4."""
    length = "(n-1)/4"
    return (
        f"poch({y}*q^2; q^4; {length}) * poch(q^2/{y}; q^4; {length})"
        f" / (poch(q^4/{y}; q^4; {length}) * poch({y}*q^4; q^4; {length}))"
    )


def _quartic_ratio_3(y: str) -> str:
    """-q (y, 1/y; q^4)_L / (q^2/y, y q^2; q^4)_L with L = (n+1)/4."""
    length = "(n+1)/4"
    return (
        "(-(q))"
        f" * poch({y}; q^4; {length}) * poch(1/{y}; q^4; {length})"
        f" / (poch(q^2/{y}; q^4; {length}) * poch({y}*q^2; q^4; {length}))"
    )


def _quartic_term_1(x: str, y: str) -> str:
    return f"{_omega(x, y)} * {_quartic_ratio_1(y)}"


def _quartic_term_3(x: str, y: str) -> str:
    return f"{_omega(x, y)} * {_quartic_ratio_3(y)}"


_QUARTIC_AB_RHS_1 = _quartic_term_1("a", "b") + " + " + _quartic_term_1("b", "a")
_QUARTIC_AB_RHS_3 = _quartic_term_3("a", "b") + " + " + _quartic_term_3("b", "a")


def _theta(x: str, y: str, e: str) -> str:
    return (
        f"((1 - {y}*q^({e})) * ({y} - q^({e})) * (-1 - {x}^2 + {x}*q^({e}))"
        f" / (({x} - {y}) * (1 - {x}*{y})))"
    )


def _cubic_ratio(y: str, m: str) -> str:
    """(y q^2, q^2/y, q^2; q^3)_L / (q^3/y, y q^3, q^3; q^3)_L with L = (m-1)/3."""
    length = f"({m}-1)/3"
    return (
        f"poch({y}*q^2; q^3; {length}) * poch(q^2/{y}; q^3; {length})"
        f" * poch(q^2; q^3; {length})"
        f" / (poch(q^3/{y}; q^3; {length}) * poch({y}*q^3; q^3; {length})"
        f" * poch(q^3; q^3; {length}))"
    )


def _cubic_term(x: str, y: str) -> str:
    return f"qint(t*n) * {_theta(x, y, 't*n')} * {_cubic_ratio(y, 't*n')}"


_CUBIC_AB_RHS = _cubic_term("a", "b") + " + " + _cubic_term("b", "a")

_HARMONIC_PAIR = "q^(d*j) / qint(d*j)^2 + q^(d*j-d+r) / qint(d*j-d+r)^2"


def _degree_d_prefix(m: str, c: str) -> str:
    """[m] (c q^r)^((r-m)/d) (c q^(2r); q^d)_L / (q^d/c; q^d)_L with L = (m-r)/d."""
    length = f"({m}-r)/d"
    return (
        f"qint({m}) * ({c}*q^r)^((r-{m})/d)"
        f" * poch({c}*q^(2*r); q^d; {length}) / poch(q^d/{c}; q^d; {length})"
    )


def _double_series_rhs(m: str, c: str) -> str:
    """THM_D's closed form at bound m and weight c; THM_E's is m = dn - n, c = 1."""
    return (
        _degree_d_prefix(m, c)
        + f" * sum(k, 0, ({m}-r)/d,"
        f" poch(q^r; q^d; k)^2 * poch(q^(d-r); q^d; k) * poch({c}*q^r; q^d; k)"
        f" * q^(d*k) / (poch(q^d; q^d; k)^3 * poch({c}*q^(2*r); q^d; k))"
        f" * (1 - qint({m})^2 * (2 - q^{m})"
        f" * sum(j, 1, k, {_HARMONIC_PAIR})))"
    )


def _theta_inner(x: str, y: str, m: str, c: str) -> str:
    return (
        f"sum(k, 0, ({m}-r)/d,"
        f" poch({x}*q^r; q^d; k) * poch(q^r/{x}; q^d; k)"
        f" * poch({c}*q^r; q^d; k) * poch(q^(d-r); q^d; k) * q^(d*k)"
        f" / (poch({y}*q^d; q^d; k) * poch(q^d/{y}; q^d; k)"
        f" * poch({c}*q^(2*r); q^d; k) * poch(q^d; q^d; k)))"
    )


def _theta_series_rhs(m: str, c: str) -> str:
    """PROP_5_3's closed form at bound m and weight c; THM_5_5's is m = dn - n, c = 1."""
    return (
        _degree_d_prefix(m, c)
        + " * (" + _theta("a", "b", m) + " * " + _theta_inner("a", "b", m, c)
        + " + " + _theta("b", "a", m) + " * " + _theta_inner("b", "a", m, c) + ")"
    )


# The terminating identities' right sides, at n = nu and y = b.
_QCHU_RHS = "poch(c/b; q; n) / poch(c; q; n)"
_WHIPPLE_RHS_1 = "qint(n) * " + _quartic_ratio_1("b")
_WHIPPLE_RHS_3 = "qint(n) * " + _quartic_ratio_3("b")
_JACKSON_RHS = "qint(n) * " + _cubic_ratio("b", "n")
_WATSON_RHS = _degree_d_prefix("n", "c") + " * " + _theta_inner("q^n", "b", "n", "c")

_THM_D_RHS = _double_series_rhs("n", "c")
_THM_E_RHS = _double_series_rhs("(d*n-n)", "1")
_PROP_5_3_RHS = _theta_series_rhs("t*n", "c")
_THM_5_5_RHS = _theta_series_rhs("(d*n-n)", "1")


# -- per-statement builders ---------------------------------------------------


def _build_quartic(b: dict, k: int, rhs_1: str, rhs_3: str) -> _Plan:
    """THM_A and GWY: the quartic sum modulo [n]*Phi(n)^k, rhs by n mod 4."""
    n = _int_param(b, "n")
    _require(n >= 1 and n % 2 == 1, f"n must be a positive odd integer, got {n}")
    return _Plan(
        build_modulus("QINT_PHI_POW", n, {"k": k}),
        (("first", (n - 1) // 2), ("second", n - 1)),
        well_poised_spec(2, 1, c=-1),
        rhs_1 if n % 4 == 1 else rhs_3,
        {"n": n},
    )


def _cubic_n(b: dict, t: int) -> int:
    """n, checked to be t mod 3 for t in {1, 2}."""
    n = _int_param(b, "n")
    _require(n >= t and n % 3 == t, f"n must be {t} mod 3, got {n}")
    return n


def _build_cubic(b: dict, t: int, k: int, rhs: str) -> _Plan:
    """THM_B (t = 1, k = 4), THM_C and LEM_OO (t = 2, k = 5): the cubic sum modulo [n]*Phi(n)^k."""
    n = _cubic_n(b, t)
    return _Plan(
        build_modulus("QINT_PHI_POW", n, {"k": k}),
        (("first", (t * n - 1) // 3), ("second", n - 1)),
        well_poised_spec(3, 1),
        rhs,
        {"n": n},
    )


def _build_gs_16(b: dict) -> _Plan:
    n = _int_param(b, "n")
    _require(n >= 1 and n % 3 != 0, f"n must not be divisible by 3, got {n}")
    if n % 3 == 1:
        modulus = build_modulus("QINT", n)
    else:
        modulus = build_modulus("QINT_PHI_POW", n, {"k": 1})
    return _Plan(modulus, (("first", n - 1),), well_poised_spec(3, 1), "0", {"n": n})


def _build_quartic_ab(b: dict, kind: str) -> _Plan:
    """PROP_2_1 and THM_2_2: the parametric quartic sum, modulus by kind."""
    n = _int_param(b, "n")
    _require(n >= 1 and n % 2 == 1, f"n must be a positive odd integer, got {n}")
    a, bb = _ab_params(b)
    rhs = _QUARTIC_AB_RHS_1 if n % 4 == 1 else _QUARTIC_AB_RHS_3
    return _Plan(
        build_modulus(kind, n, {"a": a, "b": bb}),
        (("first", (n - 1) // 2), ("second", n - 1)),
        well_poised_spec(2, 1, a, bb, -1),
        rhs,
        {"n": n, "a": a, "b": bb},
    )


def _build_prop_3_1(b: dict) -> _Plan:
    n = _int_param(b, "n")
    _require(n >= 1 and n % 3 in (1, 2), f"n must be 1 or 2 mod 3, got {n}")
    t = _int_param(b, "t", n % 3)
    _require(t in (1, 2), f"t must be 1 or 2, got {t}")
    _require(n % 3 == t % 3, f"n = {n} must be congruent to t = {t} mod 3")
    return _prop_3_1_plan(b, n, t, "SPECIALIZED")


def _build_cubic_ab(b: dict, t: int, kind: str) -> _Plan:
    """THM_3_2 (t = 1) and THM_3_3 (t = 2): PROP_3_1 at t, modulo kind."""
    return _prop_3_1_plan(b, _cubic_n(b, t), t, kind)


def _prop_3_1_plan(b: dict, n: int, t: int, kind: str) -> _Plan:
    """The parametric cubic sum at n = t mod 3, modulo kind at t."""
    a, bb = _ab_params(b)
    return _Plan(
        build_modulus(kind, n, {"t": t, "a": a, "b": bb}),
        (("first", (t * n - 1) // 3), ("second", n - 1)),
        well_poised_spec(3, 1, a, bb),
        _CUBIC_AB_RHS,
        {"n": n, "t": t, "a": a, "b": bb},
    )


def _build_nw(b: dict, at_mu: bool) -> _Plan:
    """NW_A (truncated at mu, where d*mu = -r mod n) and NW_B (at n - 1)."""
    n = _int_param(b, "n")
    d = _int_param(b, "d")
    r = _int_param(b, "r")
    _require(n >= 1 and d >= 1, f"n and d must be positive, got n={n}, d={d}")
    _require(gcd(n, d) == 1, f"gcd(n, d) must be 1, got gcd({n}, {d})")
    a, bb, c = _frac_param(b, "a"), _frac_param(b, "b"), _frac_param(b, "c")
    if at_mu:
        m = (-r) * pow(d, -1, n) % n if n > 1 else 0
    else:
        m = n - 1
    return _Plan(
        build_modulus("QINT", n),
        (("first", m),),
        well_poised_spec(d, r, a, bb, 1 / c),
        "0",
        {"n": n, "d": d, "r": r, "a": a, "b": bb, "c": c},
    )


def _build_nw_23(b: dict) -> _Plan:
    n = _int_param(b, "n")
    d = _int_param(b, "d")
    r = _int_param(b, "r")
    _require(r in (1, -1), f"r must be +-1, got {r}")
    _require(n > 1 and d >= 3, f"need n > 1 and d >= 3, got n={n}, d={d}")
    _require(n >= d - r, f"n = {n} is below d - r = {d - r}")
    _require(gcd(n, d) == 1, f"gcd(n, d) must be 1, got gcd({n}, {d})")
    _require((n + r) % d == 0, f"n = {n} must be -r mod d = {d}")
    a, bb = _frac_param(b, "a"), _frac_param(b, "b")
    return _Plan(
        build_modulus("QINT_PHI_POW", n, {"k": 1}),
        (("first", (d * n - n - r) // d), ("second", n - 1)),
        well_poised_spec(d, r, a, bb),
        "0",
        {"n": n, "d": d, "r": r, "a": a, "b": bb},
    )


def _build_lem_rel(b: dict) -> _Plan:
    t = _int_param(b, "t")
    _require(t >= 0, f"t must be nonnegative, got {t}")
    return _Plan(None, (), _LEM_REL_LHS, _LEM_REL_RHS, {"t": t})


def _build_wei_cube(b: dict, kind: str, bindings: dict | None, rhs: str) -> _Plan:
    """LEM_WEI_K and LEM_WEI_N: the cubed [n] ratio, modulus and rhs given."""
    n = _int_param(b, "n")
    _require(n >= 3 and n % 4 == 3, f"n must be 3 mod 4, got {n}")
    return _Plan(build_modulus(kind, n, bindings), (), _WEI_CUBE_LHS, rhs, {"n": n})


def _build_lem_wei_m(b: dict) -> _Plan:
    n = _int_param(b, "n")
    _require(n >= 1 and n % 2 == 1, f"n must be a positive odd integer, got {n}")
    return _Plan(build_modulus("QINT", n), (), _WEI_RATIO_LHS, "0", {"n": n})


def _build_lem_pp(b: dict) -> _Plan:
    n = _int_param(b, "n")
    _require(n >= 2 and n % 3 == 2, f"n must be 2 mod 3, got {n}")
    return _Plan(build_modulus("PHI_POW", n, {"k": 2}), (), _LEM_PP_LHS, "5", {"n": n})


def _thm_d_window(n: int, d: int, r: int, t: int = 1, label: str = "n"):
    """gcd(n, d) = 1, d + tn - dn <= r <= tn and tn = r mod d, which make
    (tn - r)/d a nonnegative integer; label names tn in the messages."""
    _require(n >= 1 and d >= 1, f"n and d must be positive, got n={n}, d={d}")
    _require(gcd(n, d) == 1, f"gcd(n, d) must be 1, got gcd({n}, {d})")
    tn = t * n
    _require(d + tn - d * n <= r <= tn, f"r = {r} outside the window {d + tn - d * n}..{tn}")
    _require(tn % d == r % d, f"{label} = {tn} and r = {r} disagree mod d = {d}")


def _build_thm_d(b: dict) -> _Plan:
    n, d, r = _int_param(b, "n"), _int_param(b, "d"), _int_param(b, "r")
    _thm_d_window(n, d, r)
    c = _frac_param(b, "c")
    return _Plan(
        build_modulus("QINT_PHI_POW", n, {"k": 4}),
        (("first", (n - r) // d), ("second", n - 1)),
        well_poised_spec(d, r, c=c),
        _THM_D_RHS,
        {"n": n, "d": d, "r": r, "c": c},
    )


def _thm_e_window(n: int, d: int, r: int, label: str = "n"):
    """r = +-1, d >= 3, n + r >= d, gcd(n, d) = 1 and n = -r mod d, which make
    (dn - n - r)/d a nonnegative integer; label names n in the messages."""
    _require(r in (1, -1), f"r must be +-1, got {r}")
    _require(d >= 3, f"d must be at least 3, got {d}")
    _require(n >= 1, f"{label} must be positive, got {n}")
    _require(n + r >= d, f"{label} + r = {n + r} is below d = {d}")
    _require(gcd(n, d) == 1, f"gcd(n, d) must be 1, got gcd({n}, {d})")
    _require((n + r) % d == 0, f"{label} = {n} must be -r mod d = {d}")


def _build_thm_e(b: dict) -> _Plan:
    n, d, r = _int_param(b, "n"), _int_param(b, "d"), _int_param(b, "r")
    _thm_e_window(n, d, r)
    return _Plan(
        build_modulus("QINT_PHI_POW", n, {"k": 5}),
        (("first", (d * n - n - r) // d), ("second", n - 1)),
        well_poised_spec(d, r),
        _THM_E_RHS,
        {"n": n, "d": d, "r": r},
    )


def _build_prop_5_3(b: dict) -> _Plan:
    n, d, r = _int_param(b, "n"), _int_param(b, "d"), _int_param(b, "r")
    t = _int_param(b, "t", 1)
    _require(n >= 1 and d >= 2, f"n must be positive and d >= 2, got n={n}, d={d}")
    _require(t in (1, d - 1), f"t must be 1 or d-1 = {d - 1}, got {t}")
    _thm_d_window(n, d, r, t, "tn")
    return _prop_5_3_plan(b, n, d, r, t, "SPECIALIZED")


def _build_thm_5_4(b: dict) -> _Plan:
    """PROP_5_3 at t = 1, with [n] added to its modulus."""
    n, d, r = _int_param(b, "n"), _int_param(b, "d"), _int_param(b, "r")
    _thm_d_window(n, d, r)
    return _prop_5_3_plan(b, n, d, r, 1, "QINT_SPECIALIZED")


def _prop_5_3_plan(b: dict, n: int, d: int, r: int, t: int, kind: str) -> _Plan:
    """The parametric degree-d sum in _thm_d_window at t, modulo kind at t."""
    (a, bb), c = _ab_params(b), _frac_param(b, "c")
    return _Plan(
        build_modulus(kind, n, {"t": t, "a": a, "b": bb}),
        (("first", (t * n - r) // d), ("second", n - 1)),
        well_poised_spec(d, r, a, bb, c),
        _PROP_5_3_RHS,
        {"n": n, "t": t, "d": d, "r": r, "a": a, "b": bb, "c": c},
    )


def _build_thm_5_5(b: dict) -> _Plan:
    n, d, r = _int_param(b, "n"), _int_param(b, "d"), _int_param(b, "r")
    _thm_e_window(n, d, r)
    a, bb = _ab_params(b)
    return _Plan(
        build_modulus("QINT_PHI_SPECIALIZED", n, {"t": d - 1, "a": a, "b": bb}),
        (("first", (d * n - n - r) // d), ("second", n - 1)),
        well_poised_spec(d, r, a, bb),
        _THM_5_5_RHS,
        {"n": n, "d": d, "r": r, "a": a, "b": bb},
    )


# -- inventory -----------------------------------------------------------------

_ODD_N_DESK = tuple({"n": n} for n in (1, 3, 5, 7, 9, 11, 13, 15))
_TWO_MOD_3_DESK = tuple({"n": n} for n in (2, 5, 8, 11))
_NW_DESK = (
    {"n": 5, "d": 3, "r": 1},
    {"n": 5, "d": 3, "r": -1},
    {"n": 7, "d": 3, "r": -2},
    {"n": 7, "d": 4, "r": 1},
    {"n": 3, "d": 4, "r": -1},
    {"n": 6, "d": 5, "r": 1},
    {"n": 7, "d": 5, "r": -3},
)

_register(
    Statement(
        "THM_A",
        "alternating quartic sum vs centred closed forms, modulo [n]*Phi(n)^4",
        "sum",
        "n: positive odd integer",
        "n odd; branch by n mod 4",
        "first: M=(n-1)/2; second: M=n-1",
        build=partial(_build_quartic, k=4, rhs_1=_THM_A_RHS_1, rhs_3=_THM_A_RHS_3),
        desk=_ODD_N_DESK,
    )
)
_register(
    Statement(
        "THM_B",
        "cubic sum vs tail-corrected closed form, modulo [n]*Phi(n)^4",
        "sum",
        "n: positive integer, n = 1 mod 3",
        "n = 1 mod 3",
        "first: M=(n-1)/3; second: M=n-1",
        build=partial(_build_cubic, t=1, k=4, rhs=_THM_B_RHS),
        desk=tuple({"n": n} for n in (1, 4, 7, 10, 13)),
    )
)
_register(
    Statement(
        "THM_C",
        "cubic sum vs 5[2n] closed form, modulo [n]*Phi(n)^5",
        "sum",
        "n: positive integer, n = 2 mod 3",
        "n = 2 mod 3",
        "first: M=(2n-1)/3; second: M=n-1",
        build=partial(_build_cubic, t=2, k=5, rhs=_THM_C_RHS),
        desk=_TWO_MOD_3_DESK,
    )
)
_register(
    Statement(
        "GS_16",
        "cubic sum vanishes modulo [n] (n = 1 mod 3) or [n]*Phi(n) (n = 2 mod 3)",
        "sum",
        "n: positive integer not divisible by 3",
        "n != 0 mod 3; modulus depends on n mod 3",
        "first: M=n-1",
        build=_build_gs_16,
        desk=tuple({"n": n} for n in (2, 4, 5, 7, 8)),
    )
)
_register(
    Statement(
        "GWY",
        "alternating quartic sum vs square closed form, modulo [n]*Phi(n)^2",
        "sum",
        "n: positive odd integer",
        "n odd; RHS is 0 when n = 3 mod 4",
        "first: M=(n-1)/2; second: M=n-1",
        build=partial(_build_quartic, k=2, rhs_1=_GWY_RHS_1, rhs_3="0"),
        desk=_ODD_N_DESK,
    )
)
_register(
    Statement(
        "PROP_2_1",
        "parametric quartic sum vs Omega combination, modulo the a,b binomials",
        "sum",
        "n: positive odd integer; a, b: generic nonzero rationals",
        "n odd; a, b avoid degenerate products",
        "first: M=(n-1)/2; second: M=n-1",
        symbols=("a", "b"),
        build=partial(_build_quartic_ab, kind="SPECIALIZED"),
        desk=tuple({"n": n} for n in (3, 5, 7)),
    )
)
_register(
    Statement(
        "THM_2_2",
        "parametric quartic sum vs Omega combination, modulo [n] times the a,b binomials",
        "sum",
        "n: positive odd integer; a, b: generic nonzero rationals",
        "n odd; a, b avoid degenerate products",
        "first: M=(n-1)/2; second: M=n-1",
        symbols=("a", "b"),
        build=partial(_build_quartic_ab, kind="QINT_SPECIALIZED"),
        desk=tuple({"n": n} for n in (3, 5, 7)),
    )
)
_register(
    Statement(
        "NW_A",
        "six-parameter sum truncated at mu vanishes modulo [n]",
        "sum",
        "n, d: positive coprime integers; r: integer; a, b, c: generic rationals",
        "gcd(n, d) = 1; truncation mu solves d*mu = -r mod n",
        "first: M=mu",
        symbols=("a", "b", "c"),
        build=partial(_build_nw, at_mu=True),
        desk=_NW_DESK,
    )
)
_register(
    Statement(
        "NW_B",
        "six-parameter sum truncated at n-1 vanishes modulo [n]",
        "sum",
        "n, d: positive coprime integers; r: integer; a, b, c: generic rationals",
        "gcd(n, d) = 1",
        "first: M=n-1",
        symbols=("a", "b", "c"),
        build=partial(_build_nw, at_mu=False),
        desk=_NW_DESK,
    )
)
_register(
    Statement(
        "LEM_REL",
        "odd-over-even Pochhammer ratio equals central q-binomial over (-q;q)_t^2",
        "equality",
        "t: nonnegative integer",
        "t >= 0",
        "exact equality; no truncation",
        build=_build_lem_rel,
        desk=tuple({"t": t} for t in (0, 1, 2, 3, 5, 8, 12)),
    )
)
_register(
    Statement(
        "LEM_WEI_K",
        "cubed [n] ratio expression vanishes modulo [n]",
        "expr",
        "n: positive integer, n = 3 mod 4",
        "n = 3 mod 4",
        "single expression; no truncation",
        build=partial(_build_wei_cube, kind="QINT", bindings=None, rhs="0"),
        desk=tuple({"n": n} for n in (3, 7, 11, 15)),
    )
)
_register(
    Statement(
        "LEM_WEI_M",
        "squared [n] Pochhammer ratio vanishes modulo [n]",
        "expr",
        "n: positive odd integer",
        "n odd",
        "single expression; no truncation",
        build=_build_lem_wei_m,
        desk=_ODD_N_DESK,
    )
)
_register(
    Statement(
        "LEM_WEI_N",
        "cubed [n] ratio matches the shifted square form modulo [n]*Phi(n)^4",
        "expr",
        "n: positive integer, n = 3 mod 4",
        "n = 3 mod 4",
        "single expression; no truncation",
        build=partial(_build_wei_cube, kind="QINT_PHI_POW", bindings={"k": 4}, rhs=_THM_A_RHS_3),
        desk=tuple({"n": n} for n in (3, 7, 11, 15)),
    )
)
_register(
    Statement(
        "PROP_3_1",
        "parametric cubic sum vs Theta combination, modulo the a,b binomials at q^(tn)",
        "sum",
        "n: positive integer with n = t mod 3; t in {1, 2} (default n mod 3); a, b: generic rationals",
        "n = t mod 3, t in {1, 2}",
        "first: T=(tn-1)/3; second: T=n-1",
        symbols=("a", "b"),
        build=_build_prop_3_1,
        desk=tuple({"n": n} for n in (2, 4, 5, 7, 8)),
    )
)
_register(
    Statement(
        "THM_3_2",
        "parametric cubic sum vs Theta combination, modulo [n] times the a,b binomials",
        "sum",
        "n: positive integer, n = 1 mod 3; a, b: generic rationals",
        "n = 1 mod 3",
        "first: M=(n-1)/3; second: M=n-1",
        symbols=("a", "b"),
        build=partial(_build_cubic_ab, t=1, kind="QINT_SPECIALIZED"),
        desk=tuple({"n": n} for n in (4, 7)),
    )
)
_register(
    Statement(
        "THM_3_3",
        "parametric cubic sum vs Theta combination, modulo [n]*Phi(n) times the a,b binomials at q^(2n)",
        "sum",
        "n: positive integer, n = 2 mod 3; a, b: generic rationals",
        "n = 2 mod 3",
        "first: M=(2n-1)/3; second: M=n-1",
        symbols=("a", "b"),
        build=partial(_build_cubic_ab, t=2, kind="QINT_PHI_SPECIALIZED"),
        desk=tuple({"n": n} for n in (2, 5, 8)),
    )
)
_register(
    Statement(
        "NW_23",
        "four-parameter squared sum vanishes modulo [n]*Phi(n)",
        "sum",
        "n > 1; d >= 3; r = +-1; a, b: generic rationals",
        "n >= d - r, gcd(n, d) = 1, n = -r mod d",
        "first: M=(dn-n-r)/d; second: M=n-1",
        symbols=("a", "b"),
        build=_build_nw_23,
        desk=(
            {"n": 2, "d": 3, "r": 1},
            {"n": 5, "d": 3, "r": 1},
            {"n": 4, "d": 3, "r": -1},
            {"n": 3, "d": 4, "r": 1},
            {"n": 5, "d": 4, "r": -1},
            {"n": 4, "d": 5, "r": 1},
        ),
    )
)
_register(
    Statement(
        "LEM_OO",
        "cubic sum vs [2n] tail-corrected closed form, modulo [n]*Phi(n)^5",
        "sum",
        "n: positive integer, n = 2 mod 3",
        "n = 2 mod 3",
        "first: M=(2n-1)/3; second: M=n-1",
        build=partial(_build_cubic, t=2, k=5, rhs=_LEM_OO_RHS),
        desk=_TWO_MOD_3_DESK,
    )
)
_register(
    Statement(
        "LEM_PP",
        "tail-corrected bracket is 5 modulo Phi(n)^2",
        "expr",
        "n: positive integer, n = 2 mod 3",
        "n = 2 mod 3",
        "single expression; no truncation",
        build=_build_lem_pp,
        desk=_TWO_MOD_3_DESK,
    )
)
_register(
    Statement(
        "THM_D",
        "degree-d sixth-power sum with weight c vs double series, modulo [n]*Phi(n)^4",
        "sum",
        "n, d: positive coprime integers; r: integer in the window; c: generic nonzero rational",
        "d + n - dn <= r <= n and n = r mod d",
        "first: M=(n-r)/d; second: M=n-1",
        symbols=("c",),
        build=_build_thm_d,
        desk=(
            {"n": 1, "d": 3, "r": 1},
            {"n": 4, "d": 3, "r": 1},
            {"n": 7, "d": 3, "r": 1},
            {"n": 10, "d": 3, "r": 1},
            {"n": 1, "d": 4, "r": 1},
            {"n": 5, "d": 4, "r": 1},
            {"n": 9, "d": 4, "r": 1},
            {"n": 1, "d": 5, "r": 1},
            {"n": 6, "d": 5, "r": 1},
            {"n": 4, "d": 3, "r": -2},
            {"n": 6, "d": 5, "r": -4},
        ),
    )
)
_register(
    Statement(
        "THM_E",
        "degree-d sixth-power sum vs [dn-n] double series, modulo [n]*Phi(n)^5",
        "sum",
        "n: positive integer; d >= 3; r = +-1",
        "n + r >= d, gcd(n, d) = 1, n = -r mod d",
        "first: M=(dn-n-r)/d; second: M=n-1",
        build=_build_thm_e,
        desk=(
            {"n": 2, "d": 3, "r": 1},
            {"n": 5, "d": 3, "r": 1},
            {"n": 8, "d": 3, "r": 1},
            {"n": 3, "d": 4, "r": 1},
            {"n": 7, "d": 4, "r": 1},
            {"n": 4, "d": 5, "r": 1},
            {"n": 9, "d": 5, "r": 1},
            {"n": 4, "d": 3, "r": -1},
            {"n": 7, "d": 3, "r": -1},
            {"n": 10, "d": 3, "r": -1},
        ),
    )
)
_register(
    Statement(
        "PROP_5_3",
        "parametric degree-d sum vs Theta-weighted double series, modulo the a,b binomials at q^(tn)",
        "sum",
        "n, d coprime; t in {1, d-1}; r in the window; a, b, c: generic rationals",
        "d + tn - dn <= r <= tn and tn = r mod d",
        "first: T=(tn-r)/d; second: T=n-1",
        symbols=("a", "b", "c"),
        build=_build_prop_5_3,
        desk=(
            {"n": 4, "d": 3, "r": 1, "t": 1},
            {"n": 7, "d": 3, "r": 1, "t": 1},
            {"n": 5, "d": 4, "r": 1, "t": 1},
            {"n": 4, "d": 3, "r": -2, "t": 1},
            {"n": 2, "d": 3, "r": 1, "t": 2},
            {"n": 5, "d": 3, "r": 1, "t": 2},
            {"n": 3, "d": 4, "r": 1, "t": 3},
        ),
    )
)
_register(
    Statement(
        "THM_5_4",
        "parametric degree-d sum vs Theta-weighted double series, modulo [n] times the a,b binomials",
        "sum",
        "n, d coprime; r in the window; a, b, c: generic rationals",
        "d + n - dn <= r <= n and n = r mod d",
        "first: M=(n-r)/d; second: M=n-1",
        symbols=("a", "b", "c"),
        build=_build_thm_5_4,
        desk=(
            {"n": 4, "d": 3, "r": 1},
            {"n": 7, "d": 3, "r": 1},
            {"n": 5, "d": 4, "r": 1},
            {"n": 4, "d": 3, "r": -2},
        ),
    )
)
_register(
    Statement(
        "THM_5_5",
        "four-parameter squared sum vs Theta-weighted double series, modulo [n]*Phi(n) times the a,b binomials at q^(dn-n)",
        "sum",
        "n: positive; d >= 3; r = +-1; a, b: generic rationals",
        "n + r >= d, gcd(n, d) = 1, n = -r mod d",
        "first: M=(dn-n-r)/d; second: M=n-1",
        symbols=("a", "b"),
        build=_build_thm_5_5,
        desk=(
            {"n": 2, "d": 3, "r": 1},
            {"n": 5, "d": 3, "r": 1},
            {"n": 4, "d": 3, "r": -1},
            {"n": 3, "d": 4, "r": 1},
            {"n": 4, "d": 5, "r": 1},
        ),
    )
)


# -- classical (q -> 1) statements ----------------------------------------------
#
# Each is the q -> 1 shadow, at n = p^s, of a q statement, decided in padic.
# _build_classical checks p, s, d and r, then calls the statement's checker,
# which validates the side conditions left (the degree-d ones by its q
# family's window at n = p^s) and returns
#   (modulus exponent k, lhs, rhs)
# where lhs is either padic._Truncations, one truncated series with an end per
# truncation slot, of which padic.verify_classical sums only the slots
# selected, or the single slot's left side as a padic._Closed; rhs is a
# _Closed, a Fraction (a pure rational congruence) or a padic._GammaForm,
# admitted only at a prime p, Gamma_p's domain.  Nothing is summed before
# verify_classical picks the precision.  The checks come in this order, all
# before a slot is selected, because the first that fails is a skipped
# record's reason: d and r given exactly when the statement takes them, s and
# an odd p, the checker's conditions, and a prime p for a Gamma_p right side.
# Each checker's comment names the slots' ends.

# Gamma_p(1/4)^4 and Gamma_p(1/3)^9, the Gamma_p products of the quartic and
# cubic statements.
_GAMMA_QUARTER = ((Fraction(1, 4), 4),)
_GAMMA_THIRD = ((Fraction(1, 3), 9),)


def _build_classical(b: dict, stmt_id: str, checker, takes_s: bool, takes_dr: bool):
    """(params, p, k, lhs, rhs) of a classical statement at (p, s[, d, r])."""
    p, s = _int_param(b, "p"), _int_param(b, "s", 1)
    d, r = b.get("d"), b.get("r")
    if takes_dr:
        _require(d is not None and r is not None, f"{stmt_id} needs both d and r")
        d, r = _int_param(b, "d"), _int_param(b, "r")
    else:
        _require(d is None and r is None, f"{stmt_id} does not take d or r")
    if not takes_s:
        _require(s == 1, f"{stmt_id} is a single-power statement; s must be 1, got {s}")
    _require(p >= 3 and p % 2 == 1, f"p must be an odd prime, got {p}")
    _require(s >= 1, f"s must be positive, got {s}")
    k, lhs, rhs = checker(p, s, *((d, r) if takes_dr else ()))
    _require(not isinstance(rhs, padic._GammaForm) or padic._is_prime(p), f"p must be an odd prime, got {p}")
    return _serialize_params({"p": p, "s": s, "d": d, "r": r}, ()), p, k, lhs, rhs


def _classical(stmt_id, description, side_doc, checker, desk, takes_s=False, takes_dr=False):
    """Register a classical statement whose build runs checker."""
    _register(
        Statement(
            stmt_id,
            description,
            "classical",
            "p: odd prime"
            + ("; s: power >= 1" if takes_s else "")
            + ("; d, r: degree and offset" if takes_dr else ""),
            side_doc,
            "first/second: statement truncation versus full range p^s-1",
            partial(_build_classical, stmt_id=stmt_id, checker=checker, takes_s=takes_s, takes_dr=takes_dr),
            desk=desk,
        )
    )


def _check_cor_1_4(p: int, s: int):
    P = p**s
    rhs = (P if P % 4 == 1 else P**2) * padic._quartic_closed(P)
    return s + 4, padic._Truncations(padic._QUARTIC, ((P - 1) // 2, P - 1)), rhs  # (p^s-1)/2, p^s-1


def _check_cubic(p: int, s: int, t: int, scale: int):
    """COR_1_5 (t = 1, scale 1) and COR_1_6 (t = 2, scale 10), mod p^(s+3+t)."""
    P = p**s
    _require(P % 3 == t, f"p^s must be {t} mod 3, got {P} = {P % 3} mod 3")
    rhs = scale * P * padic._cubic_closed(P)
    return s + 3 + t, padic._Truncations(padic._CUBIC, ((t * P - 1) // 3, P - 1)), rhs  # (tp^s-1)/3, p^s-1


def _check_prop_1_7(p: int, s: int):
    _require(p > 5, f"p must exceed 5, got {p}")
    k, j, coef = (4, 0, Fraction(-1)) if p % 4 == 1 else (3, 1, Fraction(-1, 16))
    return k, padic._quartic_closed(p), padic._GammaForm(j, coef, _GAMMA_QUARTER)


def _check_prop_1_8(p: int, s: int):
    _require(p != 3, "p = 3 makes 1/3 non-integral")
    k, j, coef = (4, 0, Fraction(-1)) if p % 6 == 1 else (5, 3, Fraction(-1, 27))
    return k, padic._cubic_closed(p), padic._GammaForm(j, coef, _GAMMA_THIRD)


def _check_vh_a2(p: int, s: int):
    rhs = padic._GammaForm(1, Fraction(-1), ((Fraction(3, 4), -4),)) if p % 4 == 1 else Fraction(0)
    return 3, padic._Truncations(padic._QUARTIC, ((p - 1) // 2,)), rhs


def _check_vh_d2(p: int, s: int):
    _require(p % 6 == 1, f"p must be 1 mod 6, got {p}")
    rhs = padic._GammaForm(1, Fraction(-1), _GAMMA_THIRD)
    return 4, padic._Truncations(padic._CUBIC, ((p - 1) // 3,)), rhs


def _check_liu(p: int, s: int):
    _require(p > 5 and p % 4 == 3, f"p must be 3 mod 4 and exceed 5, got {p}")
    rhs = padic._GammaForm(3, Fraction(-1, 16), _GAMMA_QUARTER)
    return 4, padic._Truncations(padic._QUARTIC, ((p - 1) // 2,)), rhs


def _check_lr(p: int, s: int):
    _require(p != 3, "p = 3 makes 1/3 non-integral")
    j, coef = (1, Fraction(-1)) if p % 6 == 1 else (4, Fraction(-10, 27))
    return 6, padic._Truncations(padic._CUBIC, (p - 1,)), padic._GammaForm(j, coef, _GAMMA_THIRD)


def _check_cor_5_e(p: int, s: int, d: int, r: int):
    """THM_D's shadow at c = 1."""
    P = p**s
    _thm_d_window(P, d, r, label="p^s")
    _require(
        2 * r > 0 or 2 * r % d,
        f"2r/d = {Fraction(2 * r, d)} is a non-positive integer, so (2r/d)_k vanishes in a denominator",
    )
    rhs = padic._double_closed(d, r, P)
    return s + 4, padic._Truncations(padic._sixth_series(d, r), ((P - r) // d, P - 1)), rhs  # (p^s-r)/d, p^s-1


def _check_cor_5_g(p: int, s: int, d: int, r: int):
    P = p**s
    _thm_d_window(P, d, r, label="p^s")
    length = (P - r) // d
    sign = -1 if ((r - P) // d) % 2 else 1
    rhs = sign * padic._inner_double_bare(d, r, length, P, P**3)
    return s + 4, padic._Truncations(padic._fifth_alt_series(d, r), (length, P - 1)), rhs  # (p^s-r)/d, p^s-1


def _check_cor_5_h(p: int, s: int, d: int, r: int):
    """THM_E's shadow."""
    P = p**s
    _thm_e_window(P, d, r, label="p^s")
    rhs = padic._double_closed(d, r, (d - 1) * P)
    # (dp^s-p^s-r)/d, p^s-1
    return s + 5, padic._Truncations(padic._sixth_series(d, r), ((d * P - P - r) // d, P - 1)), rhs


def _check_sun_h2(p: int, s: int, parts: int, coef: int):
    """SUN_H2 (parts 1, coef 2) and SUN_H2HALF (parts 2, coef 7)."""
    _require(p > 3, f"p must exceed 3, got {p}")
    return 2, padic._harmonic((p - 1) // parts, 2), Fraction(coef * p, 3) * padic.bernoulli(p - 3)


def _check_sun_h3(p: int, s: int):
    _require(p > 5, f"p must exceed 5, got {p}")
    return 1, padic._harmonic(p // 4, 3), Fraction(-9) * padic.bernoulli(p - 3)


_classical(
    "COR_1_4",
    "alternating quartic sum vs harmonic-corrected closed form mod p^(s+4)",
    "p odd prime, s >= 1; branch by p^s mod 4",
    _check_cor_1_4,
    ({"p": 5, "s": 1}, {"p": 7, "s": 1}, {"p": 11, "s": 1}, {"p": 13, "s": 1}, {"p": 5, "s": 2}),
    takes_s=True,
)
_classical(
    "COR_1_5",
    "cubic sum vs harmonic-corrected closed form mod p^(s+4)",
    "p odd prime, s >= 1, p^s = 1 mod 3",
    partial(_check_cubic, t=1, scale=1),
    ({"p": 7, "s": 1}, {"p": 13, "s": 1}),
    takes_s=True,
)
_classical(
    "COR_1_6",
    "cubic sum vs 10 p^s times a shifted-factorial cube mod p^(s+5)",
    "p odd prime, s >= 1, p^s = 2 mod 3",
    partial(_check_cubic, t=2, scale=10),
    ({"p": 5, "s": 1}, {"p": 11, "s": 1}),
    takes_s=True,
)
_classical(
    "PROP_1_7",
    "quartic closed forms vs -Gamma_p(1/4)^4 (mod p^4 resp. p^3)",
    "p > 5 prime; branch by p mod 4",
    _check_prop_1_7,
    ({"p": 13}, {"p": 17}, {"p": 7}, {"p": 11}),
)
_classical(
    "PROP_1_8",
    "cubic closed forms vs -Gamma_p(1/3)^9 (mod p^4 resp. p^5)",
    "p odd prime, p != 3; branch by p mod 6",
    _check_prop_1_8,
    ({"p": 7}, {"p": 13}, {"p": 5}, {"p": 11}),
)
_classical(
    "VH_A2",
    "alternating quartic sum vs -p/Gamma_p(3/4)^4 mod p^3 (0 when p = 3 mod 4)",
    "p odd prime; branch by p mod 4",
    _check_vh_a2,
    ({"p": 5}, {"p": 13}, {"p": 7}, {"p": 11}),
)
_classical(
    "VH_D2",
    "cubic sum vs -p Gamma_p(1/3)^9 mod p^4",
    "p prime, p = 1 mod 6",
    _check_vh_d2,
    ({"p": 7}, {"p": 13}),
)
_classical(
    "LIU",
    "alternating quartic sum vs -(p^3/16) Gamma_p(1/4)^4 mod p^4",
    "p > 5 prime, p = 3 mod 4",
    _check_liu,
    ({"p": 7}, {"p": 11}),
)
_classical(
    "LR",
    "full cubic sum vs Gamma_p(1/3)^9 forms mod p^6, both residue branches",
    "p prime, p != 3; branch by p mod 6",
    _check_lr,
    ({"p": 7}, {"p": 11}, {"p": 13}),
)
_classical(
    "COR_5_E",
    "degree-d sixth-power sum vs double sum with harmonic tails mod p^(s+4)",
    "p odd prime, s >= 1, gcd(p,d) = 1, p^s = r mod d, d+p^s-dp^s <= r <= p^s, "
    "2r/d not a non-positive integer",
    _check_cor_5_e,
    ({"p": 7, "s": 1, "d": 3, "r": 1}, {"p": 5, "s": 1, "d": 4, "r": 1}),
    takes_s=True,
    takes_dr=True,
)
_classical(
    "COR_5_G",
    "alternating degree-d fifth-power sum vs signed double sum mod p^(s+4)",
    "p odd prime, s >= 1, gcd(p,d) = 1, p^s = r mod d, d+p^s-dp^s <= r <= p^s",
    _check_cor_5_g,
    ({"p": 7, "s": 1, "d": 3, "r": 1}, {"p": 5, "s": 1, "d": 4, "r": 1}),
    takes_s=True,
    takes_dr=True,
)
_classical(
    "COR_5_H",
    "degree-d sixth-power sum vs (d-1)-scaled double sum mod p^(s+5)",
    "p odd prime, s >= 1, r = +-1, d >= 3, gcd(p,d) = 1, p^s = -r mod d, p^s+r >= d",
    _check_cor_5_h,
    (
        {"p": 5, "s": 1, "d": 3, "r": 1},
        {"p": 7, "s": 1, "d": 3, "r": -1},
        {"p": 7, "s": 1, "d": 4, "r": 1},
        {"p": 5, "s": 1, "d": 4, "r": -1},
    ),
    takes_s=True,
    takes_dr=True,
)
_classical(
    "SUN_H2",
    "H_{p-1}^(2) = (2p/3) B_{p-3} mod p^2",
    "p prime, p > 3",
    partial(_check_sun_h2, parts=1, coef=2),
    ({"p": 5}, {"p": 7}, {"p": 11}, {"p": 13}),
)
_classical(
    "SUN_H2HALF",
    "H_{(p-1)/2}^(2) = (7p/3) B_{p-3} mod p^2",
    "p prime, p > 3",
    partial(_check_sun_h2, parts=2, coef=7),
    ({"p": 5}, {"p": 7}, {"p": 11}, {"p": 13}),
)
_classical(
    "SUN_H3",
    "H_{floor(p/4)}^(3) = -9 B_{p-3} mod p",
    "p prime, p > 5",
    _check_sun_h3,
    ({"p": 7}, {"p": 11}, {"p": 13}),
)


# -- evaluation and running -----------------------------------------------------


def _select_choices(m_choices, m_policy: str):
    if m_policy == "both":
        return list(m_choices)
    if m_policy == "first":
        return [m_choices[0]]
    if m_policy == "second":
        if len(m_choices) < 2:
            raise SideConditionViolated(
                "statement offers a single truncation; no 'second' choice"
            )
        return [m_choices[1]]
    raise UnknownKind(f"unknown m_choice policy {m_policy!r}")


def _fallback_slot(m_policy: str) -> str:
    """The slot named by a record that no evaluated truncation produced."""
    return m_policy if m_policy in ("first", "second") else "first"


def _label(modulus: Modulus | None) -> str:
    return "exact" if modulus is None else modulus.label


def _bind_symbols(stmt: Statement, bindings: dict, seed: int) -> dict:
    """bindings plus a draw at seed for every free symbol it does not give."""
    n = _int_param(bindings, "n")
    t_scale = bindings.get("t", 1) if isinstance(bindings.get("t", 1), int) else 1
    sample = sample_params(stmt.symbols, n, t=t_scale, seed=seed)
    merged = dict(bindings)
    for sym, value in sample.assignments.items():
        merged.setdefault(sym, value)
    return merged


_PARSED: dict[str, Compiled] = {}


def _parsed(text: str) -> Compiled:
    """A catalog expression text, parsed and compiled on first use only."""
    code = _PARSED.get(text)
    if code is None:
        code = _PARSED[text] = compile_expr(parse_expr(text))
    return code


def _evaluate(plan: _Plan, m_policy: str):
    """Evaluate a plan: (rhs, [(slot, m, lhs)]) for the slots m_policy selects.

    Sum statements share one pass over the series for all selected
    truncations; the others have a single slot, "first", with m None.
    """
    if isinstance(plan.lhs, TermSpec):
        chosen = _select_choices(plan.m_choices, m_policy)
        rhs = eval_expr(_parsed(plan.rhs_text), plan.env)
        prefixes = truncated_sum_prefixes(plan.lhs, sorted({m for _, m in chosen}))
        return rhs, [(slot, m, prefixes[m]) for slot, m in chosen]
    if m_policy == "second":
        raise SideConditionViolated("statement offers a single evaluation; no 'second' choice")
    lhs = eval_expr(_parsed(plan.lhs), plan.env)
    rhs = eval_expr(_parsed(plan.rhs_text), plan.env)
    return rhs, [("first", None, lhs)]


class _Stopwatch:
    """Per-record elapsed milliseconds; reports 0 when timing is off."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.mark = time.monotonic()

    def lap(self) -> int:
        if not self.enabled:
            return 0
        now = time.monotonic()
        ms = int(round((now - self.mark) * 1000))
        self.mark = now
        return ms


def _run_q_once(
    stmt: Statement,
    bindings: dict,
    m_policy: str,
    seed: int | None,
    timestamps: bool,
    resample_on_bad_denominator: bool,
) -> list[VerificationRecord]:
    """Evaluate one fully bound q-side case; one record per truncation."""
    plan = stmt.build(bindings)
    params = _serialize_params(plan.env, stmt.symbols)
    label = _label(plan.modulus)
    watch = _Stopwatch(timestamps)
    records = []

    def emit(slot, status, witness):
        records.append(
            VerificationRecord(
                stmt.stmt_id, params, label, slot, status, witness, watch.lap(), seed
            )
        )

    try:
        rhs, slots = _evaluate(plan, m_policy)
        for slot, _, lhs in slots:
            result = congruent(lhs, rhs, plan.modulus)
            emit(slot, result.status, result.witness)
    except DenominatorNotUnit:
        if resample_on_bad_denominator:
            raise
        emit(_fallback_slot(m_policy), "error", {"error": "DenominatorNotUnit"})
    except (QCongruenceError, ZeroDivisionError) as exc:
        if isinstance(exc, (SideConditionViolated, NonIntegerBound, UnknownKind)):
            raise
        emit(_fallback_slot(m_policy), "error", {"error": type(exc).__name__, "detail": str(exc)})
    return records


def _run_q_trial(
    stmt: Statement,
    bindings: dict,
    m_policy: str,
    trial_seed: int,
    timestamps: bool,
) -> list[VerificationRecord]:
    """Sample the statement's free symbols and verify; resample on unlucky
    draws: a denominator that is not a unit, or a draw refused beside a
    given value."""
    given = any(sym in bindings for sym in stmt.symbols)
    last = None
    for attempt in range(_MAX_RESAMPLES):
        sample_seed = trial_seed + attempt * _RESAMPLE_STRIDE
        merged = _bind_symbols(stmt, bindings, sample_seed)
        try:
            return _run_q_once(stmt, merged, m_policy, sample_seed, timestamps, True)
        except DenominatorNotUnit as exc:
            last = exc
        except SideConditionViolated:
            # sample_params draws no pair that _ab_params refuses, so only a
            # draw beside a given a or b can be refused for the draw; a
            # refusal of the given values recurs at every draw.
            if not given or attempt == _MAX_RESAMPLES - 1:
                raise
    return [
        VerificationRecord(
            stmt.stmt_id,
            _serialize_params(bindings, stmt.symbols),
            "",
            _fallback_slot(m_policy),
            "error",
            {"error": "DenominatorNotUnit", "detail": str(last)},
            0,
            trial_seed,
        )
    ]


def _run_classical(
    stmt: Statement,
    bindings: dict,
    m_policy: str,
    seed: int | None,
    timestamps: bool,
) -> list[VerificationRecord]:
    """Check one classical case at (p, s[, d, r]); one record per truncation."""
    watch = _Stopwatch(timestamps)
    params, p, k, lhs, rhs = stmt.build(bindings)
    chosen = _select_choices(tuple(zip(("first", "second"), lhs.ends)), m_policy)
    try:
        results = padic.verify_classical(p, k, lhs, rhs, [end for _, end in chosen])
    except (QCongruenceError, ZeroDivisionError) as exc:
        witness = {"error": type(exc).__name__, "detail": str(exc)}
        slot = _fallback_slot(m_policy)
        return [VerificationRecord(stmt.stmt_id, params, "", slot, "error", witness, 0, seed)]
    label = f"{p}^{k}"
    return [
        VerificationRecord(
            stmt.stmt_id, params, label, slot, result.status, result.witness, watch.lap(), seed
        )
        for (slot, _), result in zip(chosen, results)
    ]


def run_statement(
    stmt_id: str,
    bindings: dict | None = None,
    m_policy: str = "both",
    seed: int = 0,
    trials: int = 3,
    timestamps: bool = False,
) -> list[VerificationRecord]:
    """Verify one statement at one parameter point; one record per check.

    Parametric statements (those with free rational symbols) run `trials`
    independently sampled specializations unless every symbol is given in
    bindings.  Raises SideConditionViolated when the parameter point is
    outside the statement's side conditions, and ValueError when trials < 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    stmt = get_statement(stmt_id)
    bindings = dict(bindings or {})
    if stmt.kind == "classical":
        return _run_classical(stmt, bindings, m_policy, seed, timestamps)
    missing = [sym for sym in stmt.symbols if sym not in bindings]
    if not missing:
        return _run_q_once(stmt, bindings, m_policy, seed, timestamps, False)
    records = []
    for i in range(trials):
        records.extend(_run_q_trial(stmt, bindings, m_policy, seed + i, timestamps))
    return records


def instantiate(
    stmt_id: str, bindings: dict, m_choice: str = "first", seed: int = 0
) -> CongruenceInstance:
    """Fully evaluate one q-side statement instance at one truncation choice.

    Free symbols not present in bindings are sampled deterministically from
    the seed.  Classical statements are verified through run_statement
    instead and cannot be instantiated as rational functions of q.
    """
    stmt = get_statement(stmt_id)
    if stmt.kind == "classical":
        raise UnknownKind(
            f"{stmt_id} is a classical statement; use run_statement instead"
        )
    if any(sym not in bindings for sym in stmt.symbols):
        bindings = _bind_symbols(stmt, bindings, seed)
    plan = stmt.build(bindings)
    # "both" instantiates the first slot only, so only that prefix is summed.
    rhs, [(slot, m, lhs)] = _evaluate(plan, "first" if m_choice == "both" else m_choice)
    return CongruenceInstance(
        stmt_id,
        _serialize_params(plan.env, stmt.symbols),
        slot,
        m,
        lhs,
        rhs,
        plan.modulus,
        stmt.kind,
        seed,
    )


def verify_instance(inst: CongruenceInstance, timestamps: bool = False) -> VerificationRecord:
    """Decide one evaluated instance.  A congruence that fails is recorded
    as its status; congruent's DenominatorNotUnit, a modulus that shares a
    factor with the denominator, is raised."""
    watch = _Stopwatch(timestamps)
    result = congruent(inst.lhs, inst.rhs, inst.modulus)
    return VerificationRecord(
        inst.stmt_id,
        inst.params,
        _label(inst.modulus),
        inst.m_choice,
        result.status,
        result.witness,
        watch.lap(),
        inst.seed,
    )


# -- terminating identities --------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    identity_id: str
    params: dict
    equal: bool
    detail: str = ""


def _terminating_sum(spec: TermSpec, m: int):
    """The sum through k = m of a series whose term m + 1 must vanish."""
    sums = truncated_sum_prefixes(spec, [m, m + 1] if m else [m])
    if m + 1 in sums and sums[m + 1] != sums[m]:
        raise NonTerminating(f"term {m + 1} did not vanish")
    return sums[m]


def _check_qchu(n: int, b: Fraction, c: Fraction):
    _require(b not in (0, 1) and c not in (0, 1), "b, c must avoid 0 and 1", DegenerateParameters)
    spec = TermSpec(
        d=1,
        r=0,
        numer=((qma(1, -n), 1), (qma(b, 0), 1)),
        denom=((qma(1, 1), 1), (qma(c, 0), 1)),
        z=qma(c / b, n),
        linear_factor=False,
    )
    lhs = truncated_sum_prefixes(spec, [n])[n]
    return lhs, eval_expr(_parsed(_QCHU_RHS), {"n": n, "b": b, "c": c})


def _check_whipple(n: int, b: Fraction):
    if n < 1 or n % 2 == 0:
        raise NonTerminating(f"series terminates only for odd n, got {n}")
    _require(b not in (0, 1, -1), "b must avoid 0 and +-1", DegenerateParameters)
    lhs = _terminating_sum(well_poised_spec(2, 1, qma(1, -n), b, -1), (n - 1) // 2)
    rhs = _WHIPPLE_RHS_1 if n % 4 == 1 else _WHIPPLE_RHS_3
    return lhs, eval_expr(_parsed(rhs), {"n": n, "b": b})


def _check_jackson(nu: int, b: Fraction):
    if nu < 1 or nu % 3 != 1:
        raise NonTerminating(f"series terminates only for tn = 1 (mod 3), got {nu}")
    _require(b not in (0, 1, -1), "b must avoid 0 and +-1", DegenerateParameters)
    lhs = _terminating_sum(well_poised_spec(3, 1, qma(1, -nu), b), (nu - 1) // 3)
    return lhs, eval_expr(_parsed(_JACKSON_RHS), {"n": nu, "b": b})


def _check_watson(nu: int, d: int, r: int, b: Fraction, c: Fraction):
    if d < 1 or nu < 1 or (nu - r) % d != 0 or nu < r:
        raise NonTerminating(f"series terminates only for nu = r (mod d), nu >= r")
    if nu % d == 0:
        raise DegenerateParameters("d divides nu: a denominator factor vanishes")
    _require(b not in (0, 1, -1) and c not in (0, 1, -1), "b, c must avoid 0 and +-1", DegenerateParameters)
    _require(b != c and b * c != 1, "b and c must be independent", DegenerateParameters)
    lhs = _terminating_sum(well_poised_spec(d, r, qma(1, -nu), b, c), (nu - r) // d)
    return lhs, eval_expr(_parsed(_WATSON_RHS), {"n": nu, "d": d, "r": r, "b": b, "c": c})


def _sample_fraction(rng: random.Random, forbid=()) -> Fraction:
    for _ in range(1000):
        u = rng.randint(-9, 9)
        v = rng.randint(1, 9)
        x = Fraction(u, v)
        if x in (0, 1, -1) or x in forbid:
            continue
        return x
    raise DegenerateParameters("sampler could not find an admissible value")


def check_terminating_identity(identity_id: str, params: dict | None = None, rng_seed=0) -> IdentityCheck:
    """Exact check of one terminating summation identity.

    The left side is a truncated sum, the right side its closed form from
    the catalog templates, and the verdict congruent's exact check.
    Unsupplied free parameters are sampled deterministically from rng_seed.
    Raises NonTerminating / DegenerateParameters for inadmissible parameters.
    """
    params = dict(params or {})
    rng = random.Random(f"identity:{identity_id}:{rng_seed}")
    if identity_id == "QCHU":
        n = params.setdefault("n", rng.randint(0, 9))
        b = params.setdefault("b", _sample_fraction(rng))
        c = params.setdefault("c", _sample_fraction(rng, forbid=(b,)))
        lhs, rhs = _check_qchu(n, Fraction(b), Fraction(c))
    elif identity_id == "WHIPPLE_SPEC":
        n = params.setdefault("n", rng.choice([1, 3, 5, 7, 9, 11]))
        b = params.setdefault("b", _sample_fraction(rng))
        lhs, rhs = _check_whipple(n, Fraction(b))
    elif identity_id == "JACKSON_SPEC":
        if "n" not in params:
            params["n"] = rng.choice([1, 4, 7, 10])
        n = params["n"]
        b = params.setdefault("b", _sample_fraction(rng))
        lhs, rhs = _check_jackson(n, Fraction(b))
    elif identity_id == "WATSON_SPEC":
        if "d" not in params:
            params["d"] = rng.choice([3, 4, 5])
        d = params["d"]
        if "r" not in params:
            params["r"] = rng.choice([1, 1, -1])
        r = params["r"]
        if "n" not in params:
            _require(d >= 1, f"d must be positive, got {d}", NonTerminating)
            low = max(1, (1 - r) // d + 1)
            _require(
                low <= 3,
                f"n must be given: r + d*k <= 1 for every k <= 3 at d = {d}, r = {r}",
                DegenerateParameters,
            )
            params["n"] = r + d * rng.randint(low, 3)
        n = params["n"]
        b = params.setdefault("b", _sample_fraction(rng))
        c = params.setdefault("c", _sample_fraction(rng, forbid=(b, 1 / Fraction(b))))
        lhs, rhs = _check_watson(n, d, r, Fraction(b), Fraction(c))
    else:
        raise KeyError(f"unknown identity id {identity_id!r}")
    equal = congruent(lhs, rhs, None).verified
    detail = "" if equal else f"lhs != rhs, difference {(lhs - rhs)!r}"
    return IdentityCheck(identity_id, params, equal, detail)
