"""The integer toolkit: factorisation, valuations, residues and the summation kernel.

Rationals are `fractions.Fraction` (exported as BigRat); everything in the
package that says "exact rational" means this type.  A p-adic integer known
to N digits is a plain int residue modulo p^N (residue_of_rational).

prime_factors is the one factorisation (cached (q, e) pairs) and split_power
the one valuation of an integer (n = p^e u), through which padic_valuation
reads a rational's.  polyring's Capelli test and cyclotomic forms and padic's
Gamma_p domain and composite moduli read the factorisation; padic splits
every linear factor of a classical side with split_power.

binary_split is the exact summation kernel of qseries, which sums q-series
over polynomials in q with it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import inf

from .errors import NotPIntegral

BigRat = Fraction

__all__ = [
    "BigRat",
    "binary_split",
    "padic_valuation",
    "prime_factors",
    "residue_of_rational",
    "split_power",
]


def padic_valuation(x: BigRat | int, p: int):
    """Exponent of p in x; +infinity iff x == 0.

    An int is read as it is; anything else as a Fraction, whose exponent is
    that of its numerator minus that of its denominator (split_power).

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
        return split_power(x, p)[0]
    x = Fraction(x)
    return split_power(x.numerator, p)[0] - split_power(x.denominator, p)[0]


def split_power(n: int, p: int) -> tuple[int, int]:
    """(e, u) with n = p^e u and p not dividing u, for n != 0.

    Divide by p, p^2, p^4, ... while they divide, then by the same powers
    downwards: the exponent left after the first phase is below the power
    that failed, so the second phase reads it off bit by bit, and a large e
    costs O(log e) big divisions instead of e.
    """
    if not n:
        raise ZeroDivisionError("0 has no p-adic valuation")
    powers = []
    while not n % p:
        n //= p
        powers.append(p)
        p *= p
    e = (1 << len(powers)) - 1
    while powers:
        power = powers.pop()
        if not n % power:
            n //= power
            e += 1 << len(powers)
    return e, n


@cache
def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """((q, e), ...) with n = prod q^e over the primes q dividing n, in
    increasing q, by trial division; () for n = 1."""
    factors, q = (), 2
    while q * q <= n:
        if n % q == 0:
            e, n = split_power(n, q)
            factors += ((q, e),)
        q += 1
    return factors + ((n, 1),) if n > 1 else factors


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
