"""Modulus construction and the rational-function congruence decision.

A congruence A = B (mod P) over the field of rational functions in q means:
write A - B = N/D in lowest terms; then D must be coprime to P and P must
divide N.  Every public QRat constructor and operation returns lowest terms
(QRat._raw is private and trusted to be given them), so congruent reads N/D
off the difference and cancels nothing.  Where both sides carry their
factored denominators (QRat.form: partial sums and closed forms reduced by
QFactored.to_qrat), the difference reads the gcd of the two denominators off
their exponent maps and takes no polynomial gcd; any other pair takes GCDHEU.
Such a difference keeps its denominator as that map, and a verified
congruence never multiplies it out: only the failure path reads D.

congruent divides first: one poly_try_div of N by P, handed P's binomial
form, decides success, so a P made of named q-integers and cyclotomics
takes polyring's binomial passes.  That division alone proves the unit
condition: if P | N, a common factor of D and P would divide N too, and
gcd(N, D) = 1.  Only a failed division runs the unit check gcd(D, P), and
raises DenominatorNotUnit when it is not 1.  For a P with a binomial form
the check is prod Phi_d^min(k_d, nu_d(D)), from trial divisions of D by each
Phi_d with binomial passes, no gcd taken; any other P pays one long division
D mod P and a gcd.  Then long division of N by P and trial divisions by each
factor, each passed the form stored with that factor, build the witness of
the failure.

Moduli keep their factored shape ([n], Phi_n(q)^k, specialization binomials)
both for readable reports and so a failure can name the smallest factor that
does not divide.  A factor's binomial form comes from where it is named, never
from its coefficients: build_modulus gives one to [n] and Phi_n, the cli to a
qint(..) or phi(..) factor, and a factor typed as a polynomial, such as 1+q,
has none and divides through the general kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DenominatorNotUnit, SamplingExhausted, UnknownKind
from .polyring import (
    QPoly,
    QRat,
    _divide_key,
    _merge_forms,
    cyclotomic,
    cyclotomic_exponents,
    cyclotomic_form,
    poly_divrem,
    poly_gcd,
    poly_product,
    poly_try_div,
    q_integer,
    q_integer_form,
)

__all__ = [
    "CongruenceResult",
    "Modulus",
    "ParamSample",
    "build_modulus",
    "congruent",
    "sample_params",
]

MODULUS_KINDS = (
    "QINT",
    "PHI_POW",
    "QINT_PHI_POW",
    "SPECIALIZED",
    "QINT_SPECIALIZED",
    "QINT_PHI_SPECIALIZED",
)


def _poly_text(f: QPoly) -> str:
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coefficient(i)
        if c == 0:
            continue
        if i == 0:
            parts.append(f"{c}")
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            sign = "-" if c < 0 else ""
            term = f"{sign}{mag}q" if i == 1 else f"{sign}{mag}q^{i}"
            parts.append(term)
    text = "+".join(parts).replace("+-", "-")
    return f"({text})"


class Modulus:
    """Product of nonconstant polynomial factors with multiplicities.

    forms, when given, runs beside factors: each factor's binomial form
    ((e, x_e), ...), f = prod_e (q^e - 1)^x_e, or None, as the code that
    named the factor ([n], Phi_d) knows it.  form merges them into the
    product's form if every factor has one, else it is None.  congruent
    passes form to every division by P, so such a P takes the binomial
    passes.
    """

    __slots__ = ("factors", "forms", "label", "monic_product", "form")

    def __init__(self, factors, label: str = "", forms=None):
        factors = tuple(factors)
        kept, kept_forms = [], []
        for (f, mult), form in zip(factors, forms or (None,) * len(factors), strict=True):
            if mult < 0:
                raise ValueError("factor multiplicity must be nonnegative")
            if mult == 0 or f.is_constant():
                continue
            kept.append((f, mult))
            kept_forms.append(form)
        product = poly_product(f for f, mult in kept for _ in range(mult))
        if None in kept_forms:
            form = None
        else:
            form = _merge_forms((x, mult) for x, (_, mult) in zip(kept_forms, kept))
        object.__setattr__(self, "factors", tuple(kept))
        object.__setattr__(self, "forms", tuple(kept_forms))
        object.__setattr__(self, "form", form)
        object.__setattr__(
            self, "monic_product", product.monic() if not product.is_constant() else QPoly.one()
        )
        object.__setattr__(self, "label", label or self.describe())

    def __setattr__(self, name, value):
        raise AttributeError("Modulus is immutable")

    def is_trivial(self) -> bool:
        return not self.factors

    def describe(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for f, mult in self.factors:
            text = _poly_text(f)
            parts.append(text if mult == 1 else f"{text}^{mult}")
        return "*".join(parts)

    def __repr__(self):
        return f"Modulus({self.label})"


def build_modulus(kind: str, n: int, bindings: dict | None = None) -> Modulus:
    """Assemble a modulus of the given kind at order n.

    bindings may carry: k (the Phi exponent, default 1), t (the q-power scale
    in specialization binomials, default 1), and rational values for any of
    a, b, c, each contributing the factor pair (1 - x q^(tn))(x - q^(tn)).
    """
    if n < 1:
        raise ValueError(f"modulus order must be positive, got {n}")
    bindings = dict(bindings or {})
    k = int(bindings.get("k", 1))
    t = int(bindings.get("t", 1))
    if kind not in MODULUS_KINDS:
        raise UnknownKind(f"unknown modulus kind {kind!r}")

    factors: list[tuple[QPoly, int]] = []
    forms: list = []
    label_parts: list[str] = []
    if kind.startswith("QINT"):
        factors.append((q_integer(n), 1))
        forms.append(q_integer_form(n))
        label_parts.append(f"[{n}]")
    if "PHI" in kind:
        factors.append((cyclotomic(n), k))
        forms.append(cyclotomic_form(n))
        label_parts.append(f"Phi({n})" if k == 1 else f"Phi({n})^{k}")
    if "SPECIALIZED" in kind:
        e = t * n
        for sym in ("a", "b", "c"):
            if sym not in bindings:
                continue
            x = Fraction(bindings[sym])
            u, v, gap = x.numerator, x.denominator, [0] * (e - 1)
            low = QPoly._make([v, *gap, -u], v)  # 1 - x q^(tn)
            high = QPoly._make([u, *gap, -v], v)  # x - q^(tn)
            factors.append((low, 1))
            factors.append((high, 1))
            forms += [None, None]
            label_parts.append(f"(1-{sym}*q^{e})({sym}-q^{e})")
    return Modulus(factors, "*".join(label_parts) if label_parts else "1", forms)


@dataclass(frozen=True)
class CongruenceResult:
    verified: bool
    witness: dict

    def __bool__(self):
        return self.verified

    @property
    def status(self) -> str:
        return "verified" if self.verified else "failed"


def _smallest_failing_factor(num: QPoly, m: Modulus) -> str:
    candidates = []
    for (f, mult), form in zip(m.factors, m.forms):
        fm, rem = f.monic(), num
        for j in range(1, mult + 1):
            rem = poly_try_div(rem, fm, form)
            if rem is None:
                text = _poly_text(f)
                candidates.append((fm.degree * j, text if j == 1 else f"{text}^{j}"))
                break
    if not candidates:
        return ""
    return min(candidates)[1]


def _shared_with_modulus(den: QPoly, m: Modulus) -> QPoly:
    """gcd(den, P) for the monic product P of m.

    For P = prod Phi_d^k_d (m.form is not None) the gcd is
    prod Phi_d^min(k_d, nu_d(den)), each nu_d found by polyring's trial
    division with binomial passes (_divide_key); any other P pays one long
    division den mod P and a gcd.
    """
    p = m.monic_product
    if m.form is None:
        dr = poly_divrem(den, p)[1]
        return p if dr.is_zero() else poly_gcd(dr, p)
    shared = []
    for d, k in cyclotomic_exponents(m.form):
        den, j = _divide_key(den, d, k)
        shared += [cyclotomic(d)] * j
    return poly_product(shared)


def congruent(lhs, rhs, m: Modulus | None) -> CongruenceResult:
    """Decide lhs = rhs (mod m) over rational functions of q.

    m=None asks for exact equality: the witness is the difference "0" or the
    degree of its numerator.  A trivial modulus (every factor constant) is
    "mod 1" and holds for any pair.  Otherwise the witness carries the
    quotient degree on success, or the remainder shape and smallest failing
    factor.  When P does not divide the numerator, raises DenominatorNotUnit
    if the reduced denominator shares a factor with the modulus, which makes
    the congruence meaningless rather than false.
    """
    if m is not None and m.is_trivial():
        return CongruenceResult(True, {"quotient_degree": -1, "trivial": True})
    diff = QRat.from_value(lhs) - QRat.from_value(rhs)
    if m is None:
        if diff.num.is_zero():
            return CongruenceResult(True, {"difference": "0"})
        return CongruenceResult(False, {"difference_degree": diff.num.degree})
    p, num = m.monic_product, diff.num
    quotient = poly_try_div(num, p, m.form)
    if quotient is not None:
        return CongruenceResult(True, {"quotient_degree": quotient.degree})
    h = _shared_with_modulus(diff.den, m)
    if h.degree > 0:
        raise DenominatorNotUnit(
            f"denominator shares the factor {_poly_text(h)} with the modulus"
        )
    rem = poly_divrem(num, p)[1]
    return CongruenceResult(
        False,
        {
            "remainder_degree": rem.degree,
            "remainder_leading": str(rem.leading),
            "failing_factor": _smallest_failing_factor(num, m),
        },
    )


@dataclass(frozen=True)
class ParamSample:
    seed: int
    assignments: dict
    rejection_count: int


def _power_collision(x: Fraction, y: Fraction, bound: int = 6) -> bool:
    # Reject pairs tied by x^i = y^j or x^i y^j = 1 (small i, j): such
    # relations can make nominally distinct specialization binomials share
    # polynomial factors.  Powers of a reduced fraction are reduced, so each
    # is compared as its (numerator, positive denominator) pair.
    a, b, c, d = x.numerator, x.denominator, y.numerator, y.denominator
    ties = set()
    for j in range(1, bound + 1):
        cj, dj = c**j, d**j
        ties.add((cj, dj))
        if cj:
            ties.add((dj, cj) if cj > 0 else (-dj, -cj))
    return any((a**i, b**i) in ties for i in range(1, bound + 1))


def sample_params(symbols, n: int, t: int = 1, seed=0) -> ParamSample:
    """Deterministic generic rationals u/v (|u|, v <= 9) for the free symbols.

    Guards: no value in {0, 1, -1}; pairwise distinct; for any pair x, y:
    x*y != 1, x != y +- 1, and no small power relation x^i = y^j.
    Raises SamplingExhausted after 1000 rejected draws.
    """
    symbols = list(symbols)
    rng = random.Random(f"params:{','.join(symbols)}:{n}:{t}:{seed}")
    rejections = 0
    while rejections <= 1000:
        assignment: dict[str, Fraction] = {}
        ok = True
        for sym in symbols:
            u = rng.randint(-9, 9)
            v = rng.randint(1, 9)
            x = Fraction(u, v)
            if x in (0, 1, -1):
                ok = False
                break
            for prev in assignment.values():
                if (
                    x == prev
                    or x * prev == 1
                    or x == prev + 1
                    or x == prev - 1
                    or _power_collision(x, prev)
                ):
                    ok = False
                    break
            if not ok:
                break
            assignment[sym] = x
        if ok:
            return ParamSample(seed=seed, assignments=assignment, rejection_count=rejections)
        rejections += 1
    raise SamplingExhausted(
        f"no admissible assignment for {symbols} after {rejections} rejections"
    )
