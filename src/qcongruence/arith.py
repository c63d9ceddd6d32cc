"""Exact integer, rational and p-adic scalar arithmetic.

Rationals are `fractions.Fraction` (exported as BigRat); everything in the
package that says "exact rational" means this type.  PadicInt is a residue
carried together with its context (p, precision N), i.e. an element of
Z/p^N Z viewed as a truncated p-adic integer.  Operations between PadicInt
values require identical contexts and raise ValueError otherwise; silent
coercion between precisions is a bug factory in congruence work.

binary_split is the one summation kernel of the package: padic sums
classical series and closed forms over the integers with it, modulo p^M at
a prime p (see padic), and qseries sums q-series over polynomials in q.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .errors import InsufficientPrecision, NotAUnit, NotPIntegral

BigRat = Fraction

__all__ = [
    "BigRat",
    "PadicInt",
    "binary_split",
    "inv_mod_prime_power",
    "padic_valuation",
    "residue_of_rational",
]


def padic_valuation(x: BigRat | int, p: int):
    """Exponent of p in x; +infinity iff x == 0.

    An int is read as it is; anything else as a Fraction, whose exponent is
    that of its numerator minus that of its denominator.  Each exponent is
    found by repeated squaring of p (_exponent), so a large one costs
    O(log v) big divisions instead of v.

    >>> padic_valuation(Fraction(9, 5), 3)
    2
    >>> padic_valuation(Fraction(1, 3), 3)
    -1
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if x == 0:
        return inf
    if isinstance(x, int):
        return _exponent(x, p)
    x = Fraction(x)
    return _exponent(x.numerator, p) - _exponent(x.denominator, p)


def _exponent(n: int, p: int) -> int:
    """The largest e with p^e dividing n, for n != 0.

    Divide by p, p^2, p^4, ... while they divide, then by the same powers
    downwards: the exponent left after the first phase is below the power
    that failed, so the second phase reads it off bit by bit.
    """
    powers = []
    power = p
    while True:
        quotient, rest = divmod(n, power)
        if rest:
            break
        n = quotient
        powers.append(power)
        power *= power
    e = (1 << len(powers)) - 1
    for i in range(len(powers) - 1, -1, -1):
        quotient, rest = divmod(n, powers[i])
        if not rest:
            n = quotient
            e += 1 << i
    return e


def binary_split(lo: int, hi: int, leaf, modulus: int | None = None):
    """(P, Q, T) over lo <= k < hi, hi > lo, by binary splitting.

    leaf(k) is the one-term triple (p_k, q_k, t_k), and two adjacent ranges
    merge as P = P1 P2, Q = Q1 Q2, T = T1 Q2 + P1 T2 (Haible and Papanikolaou,
    "Fast multiprecision evaluation of series of rational numbers", ANTS
    1998).  So T/Q = sum_k t_k/q_k * prod_{lo<=i<k} p_i/q_i over one common
    denominator Q = prod q_k.  The entries may be integers or polynomials.
    Leaves are evaluated in increasing k, so the first one to raise is the
    lowest.

    With an integer modulus every merge reduces P, Q and T modulo it.  The
    merges only add and multiply, so the results are the exact P, Q and T
    reduced modulo `modulus` (a range of one leaf is returned as it is).
    """
    if hi - lo == 1:
        return leaf(lo)
    mid = (lo + hi) // 2
    p1, q1, t1 = binary_split(lo, mid, leaf, modulus)
    p2, q2, t2 = binary_split(mid, hi, leaf, modulus)
    if modulus is None:
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2
    return p1 * p2 % modulus, q1 * q2 % modulus, (t1 * q2 + p1 * t2) % modulus


def inv_mod_prime_power(a: int, p: int, n: int) -> int:
    """Inverse of a modulo p**n; raises NotAUnit when p divides a."""
    m = p**n
    if a % p == 0:
        raise NotAUnit(f"{a} is not a unit modulo {p}^{n}")
    return pow(a, -1, m)


def residue_of_rational(x: BigRat | int, p: int, n: int) -> int:
    """Residue of a p-integral rational modulo p**n, in [0, p**n).

    Raises NotPIntegral when p divides the denominator of x.
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotPIntegral(f"{x} has p = {p} in its denominator")
    m = p**n
    return x.numerator * pow(x.denominator, -1, m) % m


class PadicInt:
    """Residue modulo p**precision with context checking.

    The residue is kept reduced to [0, p**precision).  Arithmetic stays within
    one context; mixing contexts raises ValueError.  Integers and p-integral
    Fractions coerce on the fly.
    """

    __slots__ = ("p", "precision", "residue")

    def __init__(self, p: int, precision: int, residue: int | BigRat):
        if p < 2:
            raise ValueError(f"p must be at least 2, got {p}")
        if precision < 1:
            raise ValueError(f"precision must be positive, got {precision}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "precision", precision)
        if isinstance(residue, Fraction):
            residue = residue_of_rational(residue, p, precision)
        object.__setattr__(self, "residue", residue % p**precision)

    def __setattr__(self, name, value):
        raise AttributeError("PadicInt is immutable")

    def _coerce(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if (other.p, other.precision) != (self.p, self.precision):
                raise ValueError(
                    f"mismatched p-adic contexts: ({self.p}, {self.precision}) "
                    f"vs ({other.p}, {other.precision})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return PadicInt(self.p, self.precision, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.p, self.precision, self.residue + other.residue)

    __radd__ = __add__

    def __neg__(self):
        return PadicInt(self.p, self.precision, -self.residue)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.p, self.precision, self.residue - other.residue)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.p, self.precision, self.residue * other.residue)

    __rmul__ = __mul__

    def inverse(self) -> "PadicInt":
        return PadicInt(
            self.p, self.precision, inv_mod_prime_power(self.residue, self.p, self.precision)
        )

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return PadicInt(self.p, self.precision, pow(self.residue, e, self.p**self.precision))

    def truncate(self, precision: int) -> "PadicInt":
        """Forget digits down to a smaller precision."""
        if precision > self.precision:
            raise InsufficientPrecision(
                f"cannot raise precision {self.precision} to {precision}"
            )
        return PadicInt(self.p, precision, self.residue % self.p**precision)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = PadicInt(self.p, self.precision, other)
            except NotPIntegral:
                return False
        if not isinstance(other, PadicInt):
            return NotImplemented
        return (self.p, self.precision, self.residue) == (
            other.p,
            other.precision,
            other.residue,
        )

    def __hash__(self):
        return hash((self.p, self.precision, self.residue))

    def __repr__(self):
        return f"PadicInt(p={self.p}, N={self.precision}, {self.residue})"
