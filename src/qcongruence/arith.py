"""Exact integer, rational and p-adic scalar arithmetic.

Rationals are `fractions.Fraction` (exported as BigRat); everything in the
package that says "exact rational" means this type.  A p-adic integer known
to N digits is a plain int residue modulo p^N (residue_of_rational).

binary_split is the one exact summation kernel of the package: padic sums
classical series and closed forms over the integers with it where their
digits at a prime p cannot decide (see padic), and qseries sums q-series
over polynomials in q.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .errors import NotPIntegral

BigRat = Fraction

__all__ = [
    "BigRat",
    "binary_split",
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


def binary_split(lo: int, hi: int, leaf):
    """(P, Q, T) over lo <= k < hi, hi > lo, by binary splitting.

    leaf(k) is the one-term triple (p_k, q_k, t_k), and two adjacent ranges
    merge as P = P1 P2, Q = Q1 Q2, T = T1 Q2 + P1 T2 (Haible and Papanikolaou,
    "Fast multiprecision evaluation of series of rational numbers", ANTS
    1998).  So T/Q = sum_k t_k/q_k * prod_{lo<=i<k} p_i/q_i over one common
    denominator Q = prod q_k.  The entries may be integers or polynomials.
    Leaves are evaluated in increasing k, so the first one to raise is the
    lowest.
    """
    if hi - lo == 1:
        return leaf(lo)
    mid = (lo + hi) // 2
    p1, q1, t1 = binary_split(lo, mid, leaf)
    p2, q2, t2 = binary_split(mid, hi, leaf)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def residue_of_rational(x: BigRat | int, p: int, n: int) -> int:
    """Residue of a p-integral rational modulo p**n, in [0, p**n).

    Raises NotPIntegral when p divides the denominator of x.
    """
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotPIntegral(f"{x} has p = {p} in its denominator")
    m = p**n
    return x.numerator * pow(x.denominator, -1, m) % m
