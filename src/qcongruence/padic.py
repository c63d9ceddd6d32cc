"""Morita's p-adic Gamma function and the classical congruences' sums and verdicts.

gamma_p evaluates Morita's p-adic Gamma function, which is defined only at a
prime p (an odd one here), at a p-integral rational to N digits via the
product formula: pick the integer representative r in [1, p**N] of the
argument and form (-1)^r * prod of k < r prime to p.  The function is 1-Lipschitz in the p-adic
metric, so N digits of the argument give N exact digits of the value.  The
product is not multiplied out: with r - 1 = M p + s it is
(p-1)!^M * exp(L) * prod_{j<=s} (M p + j), where L, the p-adic logarithm of
the M full blocks divided by (p-1)!^M, is a short series in power sums of
0..M-1 (Faulhaber's formula).  Both series are cut by monotone valuation
bounds, exp's after its last term that can be nonzero modulo p^N and L's at
N plus the digits that exp's division by t! costs, so the cost is O(N^2)
operations whatever r is.

The catalog registers the classical (q -> 1) statements, each with a
checker here (COR_1_5 and COR_1_6 share one, as do SUN_H2 and SUN_H2HALF),
which returns the modulus exponent k and the two sides.  They are pure
rational-number congruences, decided exactly (p-adic Gamma products reduced
to residues) by the p-adic valuation of the difference, in
verify_classical.  The sides are truncated sums (a statement with two
truncation slots sums the shorter range once and goes on to the longer) and
closed forms (_Closed) made of shifted factorials, harmonic numbers and
harmonic tails.

At a prime p each side is built as its first n = k + 6 digits, in fixed
relative precision (Caruso, "Computations with p-adic numbers",
arXiv:1701.06794): a value is p^v a / b with v an exact integer and a, b
known modulo p^R, so it is known modulo p^(v+R).  Every loop splits each
linear factor into its power of p, which v counts, and its unit part, whose
image modulo p^R is exact, so nothing is guessed.  The truncated sums'
terms are p-integral (p does not divide d), so they are summed modulo p^n
and a term with v >= n drops out; the closed forms are built at R = n.
Where the digits cannot decide a slot (the sides agree to all n digits, a
side has v < 0, which a term of negative valuation such as 1/(dj)^2 with
p | dj can bring, or NotPIntegral must name a side) that slot alone is
built again exactly, as an unreduced pair summed by arith.binary_split, the
kernel that qseries sums its q-series with.  The Gamma_p statements need a prime p,
which the catalog checks; the rational ones are still decided at an odd
composite p, from exact sides reduced to Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, inf, isqrt

from .arith import BigRat, binary_split, padic_valuation, residue_of_rational
from .congruence import CongruenceResult
from .errors import NotPIntegral, SideConditionViolated

__all__ = [
    "bernoulli",
    "gamma_p",
    "rational_congruent",
    "verify_classical",
]

# Gamma_p(1/4)^4 and Gamma_p(1/3)^9, the Gamma_p products of the quartic and
# cubic statements.
_GAMMA_QUARTER = ((Fraction(1, 4), 4),)
_GAMMA_THIRD = ((Fraction(1, 3), 9),)


# -- sides: exact pairs, and fixed relative precision at a prime p ----------------
#
# Every side is a sum or a product over k of rationals made of linear factors
# in k, and each has two builds.
#
# Exact, an unreduced pair (T, Q) standing for T/Q, summed by
# arith.binary_split.  A hypergeometric sum  sum_{k<=m} a(k) t_k  with t_0 = 1
# and t_{k+1} = t_k p(k) / q(k)  is binary_split over 0 <= k <= m with the
# leaves (p(k), q(k), a(k) q(k)); a product prod n_k/d_k is P and Q of the
# leaves (n_k, d_k, 0), and a plain sum of n_k/d_k is T and Q of the leaves
# (d_k, d_k, n_k).  The exact pairs decide at composite p, and at prime p
# where the digits below cannot.
#
# At a prime p, fixed relative precision (Caruso, "Computations with p-adic
# numbers", arXiv:1701.06794).  A value is a triple (v, a, b) standing for
# p^v a / b, with v an exact integer, b a p-adic unit and a a p-adic integer,
# a and b known modulo p^R.  The value is then known modulo p^(v+R), and the
# arithmetic keeps that so, every residue reduced modulo p^R:
#   product  (v1 + v2, a1 a2, b1 b2), as (a1 + x p^R)(a2 + y p^R) = a1 a2 mod p^R;
#   power    (e v, a^e, b^e);
#   sum      (v1, a1 b2 + p^(v2-v1) a2 b1, b1 b2) for v1 <= v2.
# A loop over k carries its running product so: each linear factor's power
# of p is split off (v counts it exactly) and its unit part is multiplied
# in modulo p^R, an exact image.  A loop's sum takes the least v of its
# terms: a term below the sum so far lowers it (the sum is multiplied by
# p^difference), a term R or more above it is 0 modulo p^(v+R).  So v is the
# same whatever R is, and it is negative only where terms are: a harmonic
# term 1/(dj)^2 with p | dj, or a running term with more p in its
# denominators than in its numerators so far.  A closed form read to n
# digits is built at R = n; where its v is negative the exact pair decides
# (_Closed.residues).  A linear factor that vanishes in a numerator makes
# that term and every later one 0, so a loop stops there.


class _Closed:
    """A closed form: pair() builds it exactly as an unreduced pair (a, b)
    standing for a/b, adic(p, R) at prime p as a triple (v, a, b) modulo p^R.

    Sums, products and powers of closed forms and rationals are closed
    forms.  As a left side a closed form is one truncation slot, with no end.
    """

    __slots__ = ("pair", "adic")
    ends = (None,)

    def __init__(self, pair, adic):
        self.pair, self.adic = pair, adic

    def pairs(self) -> list[tuple[int, int]]:
        return [self.pair()]

    def residues(self, p: int, n: int) -> list[int | None]:
        """[the value modulo p^n], or [None] where its v is negative: known
        modulo p^(v+n) only, it is left to the exact pair, which also names a
        value that is not p-integral."""
        v, a, b = self.adic(p, n)
        if v < 0:
            return [None]
        modulus = p**n
        return [a * p**v * pow(b, -1, modulus) % modulus]

    def __add__(self, other) -> "_Closed":
        other = _closed(other)

        def pair():
            (a, b), (c, d) = self.pair(), other.pair()
            return a * d + c * b, b * d

        def adic(p, precision):
            (v, a, b), (w, c, d) = sorted((self.adic(p, precision), other.adic(p, precision)))
            modulus = p**precision
            return v, (a * d + p ** (w - v) * c * b) % modulus, b * d % modulus

        return _Closed(pair, adic)

    __radd__ = __add__

    def __mul__(self, other) -> "_Closed":
        other = _closed(other)

        def pair():
            (a, b), (c, d) = self.pair(), other.pair()
            return a * c, b * d

        def adic(p, precision):
            (v, a, b), (w, c, d) = self.adic(p, precision), other.adic(p, precision)
            modulus = p**precision
            return v + w, a * c % modulus, b * d % modulus

        return _Closed(pair, adic)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "_Closed":
        def pair():
            a, b = self.pair()
            return a**e, b**e

        def adic(p, precision):
            v, a, b = self.adic(p, precision)
            modulus = p**precision
            return v * e, pow(a, e, modulus), pow(b, e, modulus)

        return _Closed(pair, adic)


def _closed(x) -> _Closed:
    """x as a closed form; a rational is its reduced pair."""
    if isinstance(x, _Closed):
        return x
    a, b = x.as_integer_ratio()

    def adic(p, precision):
        if not a:
            return 0, 0, 1
        (i, u), (j, w) = _split_power(a, p), _split_power(b, p)
        modulus = p**precision
        return i - j, u % modulus, w % modulus

    return _Closed(lambda: (a, b), adic)


def _ratio(a: int, b: int, c: int, d: int, length: int) -> _Closed:
    """prod_{i<length} (a + b i) / (c + d i)."""

    def pair():
        if length <= 0:
            return 1, 1
        p, q, _ = binary_split(0, length, lambda i: (a + b * i, c + d * i, 0))
        return p, q

    def adic(p, precision):
        modulus = p**precision
        v, u, w = 0, 1, 1
        for i in range(length):
            num, den = a + b * i, c + d * i
            if num % p == 0:
                if not num:
                    return 0, 0, 1
                e, num = _split_power(num, p)
                v += e
            if den % p == 0:
                e, den = _split_power(den, p)
                v -= e
            u, w = u * num % modulus, w * den % modulus
        return v, u, w

    return _Closed(pair, adic)


def _fraction_sum(lo: int, hi: int, f) -> _Closed:
    """sum n_k/d_k over lo <= k < hi for f(k) = (n_k, d_k)."""

    def leaf(k):
        n, d = f(k)
        return d, d, n

    def pair():
        if hi <= lo:
            return 0, 1
        _, q, t = binary_split(lo, hi, leaf)
        return t, q

    def adic(p, precision):
        modulus = p**precision
        v, s, w = 0, 0, 1  # the sum so far, p^v s / w
        for k in range(lo, hi):
            num, den = f(k)
            e = 0
            if den % p == 0:
                e, den = _split_power(den, p)
                if v > -e:
                    s, v = s * p ** (v + e) % modulus, -e
            s = (s * den + num * p ** (-e - v) * w) % modulus
            w = w * den % modulus
        return v, s, w

    return _Closed(pair, adic)


def _harmonic(m: int, ell: int) -> _Closed:
    return _fraction_sum(1, m + 1, lambda k: (1, k**ell))


def _series_harmonic(lo: int, hi: int, term):
    """(P, Q, T, G, D, W) over lo <= k < hi, hi > lo, with weight a(k) = 1.

    term(k) = (p(k), q(k), u(k), v(k)) with g(k) = u(k)/v(k).  P, Q and T are
    those of binary_split; G/D = sum g(k) over the range; and W/(Q D) is the
    weighted tail sum_k h(k) prod_{lo<=j<k} p(j)/q(j) with
    h(k) = sum_{lo<=j<=k} g(j).  Two adjacent ranges merge by
    W = W1 Q2 D2 + P1 (G1 T2 D2 + W2 D1), as in binary_split.

    This is the one recursion beside binary_split.  W needs the running sum
    G/D at every merge, which binary_split's entries carry only as objects:
    P a 2x2 matrix acting on (t_k, t_k h_k) and T a vector, whose method
    calls at every merge cost more than the plain products here.
    """
    if hi - lo == 1:
        p, q, u, v = term(lo)
        return p, q, q, u, v, q * u
    mid = (lo + hi) // 2
    p1, q1, t1, g1, d1, w1 = _series_harmonic(lo, mid, term)
    p2, q2, t2, g2, d2, w2 = _series_harmonic(mid, hi, term)
    return (
        p1 * p2,
        q1 * q2,
        t1 * q2 + p1 * t2,
        g1 * d2 + g2 * d1,
        d1 * d2,
        w1 * q2 * d2 + p1 * (g1 * t2 * d2 + w2 * d1),
    )


_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]


def bernoulli(n: int) -> BigRat:
    """Bernoulli number B_n from B_0 = 1 and sum(C(n,k) B_k, k<n) = 0 for n > 1."""
    if n < 0:
        raise ValueError(f"Bernoulli index must be nonnegative, got {n}")
    while len(_BERNOULLI_CACHE) <= n:
        m = len(_BERNOULLI_CACHE)  # compute B_m from B_0..B_{m-1}
        acc = Fraction(0)
        binom = 1  # C(m+1, k), starting at k = 0
        for k in range(m):
            acc += binom * _BERNOULLI_CACHE[k]
            binom = binom * (m + 1 - k) // (k + 1)
        _BERNOULLI_CACHE.append(-acc / (m + 1))
    return _BERNOULLI_CACHE[n]


# -- p-adic Gamma --------------------------------------------------------------
#
# The product over k < r prime to p is taken in blocks of p - 1
# consecutive units.  Write r - 1 = M p + s with 0 <= s < p.  Block m < M is
# prod_{0<j<p} (m p + j) = (p-1)! prod_j (1 + m p / j), and the logarithms of
# the second factors add up, over all M blocks, to
#   L = sum_{i>=1} (-1)^(i+1) (p^i / i) H_i S_i(M),
#   H_i = sum_{0<j<p} j^-i,   S_i(M) = sum_{0<=m<M} m^i,
# so the product is (p-1)!^M exp(L) prod_{0<j<=s} (M p + j), the block-product
# form of the expansions of Gamma_p in Cohen, Number Theory II (GTM 240),
# section 11.5.  v_p(L) >= 1 and p is odd, so exp converges.
#
# Precision: the term L^t / t! has valuation >= t - v_p(t!) >= t - (t-1)/(p-1),
# a bound that grows with t.  A valuation is an integer, so the term vanishes
# modulo p^N once the bound exceeds N - 1: exp keeps t only while
# t (p-2) + 1 <= (N-1)(p-1).  Dividing by t! costs v_p(t!) digits, so L is
# needed modulo p^W with W = N + v_p(t!) for the last t kept.  The i-th term
# of L has valuation >= i - v_p(i) >= i - floor(log_p i), again growing with
# i, so the log series stops where that reaches W.

_GAMMA_SERIES: dict[tuple[int, int], tuple] = {}


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, isqrt(n) + 1))


def _split_power(n: int, p: int) -> tuple[int, int]:
    """(e, u) with n = p^e u and p not dividing u, for n != 0.

    n = 0 raises ZeroDivisionError.  The side loops stop at a numerator
    factor that vanishes, as every later term is 0, and no statement's side
    conditions let a denominator factor vanish.
    """
    if not n:
        raise ZeroDivisionError("a linear factor of a classical side vanishes")
    e = 0
    while n % p == 0:
        e, n = e + 1, n // p
    return e, n


def _power_sum(i: int, m: int) -> int:
    """sum_{0<=k<m} k**i by Faulhaber's formula (B_1 = -1/2)."""
    total = sum(comb(i + 1, j) * bernoulli(j) * m ** (i + 1 - j) for j in range(i + 1))
    return int(total / (i + 1))


def _gamma_series(p: int, precision: int) -> tuple:
    """(W, log coefficients, exp coefficients, (p-1)! mod p^N) for prime p.

    The i-th log coefficient is (-1)^(i+1) (p^i / i) H_i mod p^W; the t-th exp
    coefficient is (p^v, u^-1 mod p^N) with t! = p^v u.
    """
    key = (p, precision)
    series = _GAMMA_SERIES.get(key)
    if series is None:
        modulus = p**precision
        exp_coefs = [(1, 1)]
        t, v, unit = 1, 0, 1  # t! = p^v * unit
        while t * (p - 2) + 1 <= (precision - 1) * (p - 1):  # t - (t-1)/(p-1) <= N - 1
            e, u = _split_power(t, p)
            v, unit = v + e, unit * u
            exp_coefs.append((p**v, pow(unit, -1, modulus)))
            t += 1
        work = precision + v
        mod_w = p**work
        inverses = [pow(j, -1, mod_w) for j in range(1, p)]
        powers = [1] * (p - 1)
        log_coefs = []
        i, log_floor = 1, 0  # log_floor = floor(log_p i)
        while i - log_floor < work:
            powers = [a * b % mod_w for a, b in zip(powers, inverses)]
            e, u = _split_power(i, p)
            c = p ** (i - e) * pow(u, -1, mod_w) * sum(powers)
            log_coefs.append((c if i % 2 else -c) % mod_w)
            i += 1
            if i == p ** (log_floor + 1):
                log_floor += 1
        series = _GAMMA_SERIES[key] = (
            work,
            tuple(log_coefs),
            tuple(exp_coefs),
            factorial(p - 1) % modulus,
        )
    return series


def _block_log(m: int, p: int, precision: int) -> int:
    """L over the first m blocks, modulo p^W."""
    work, log_coefs, _, _ = _gamma_series(p, precision)
    return sum(c * _power_sum(i, m) for i, c in enumerate(log_coefs, 1)) % p**work


def _gamma_prime(r: int, p: int, precision: int) -> int:
    """Gamma_p(r) mod p^precision, by the block product above."""
    work, _, exp_coefs, block = _gamma_series(p, precision)
    modulus, mod_w = p**precision, p**work
    m, s = divmod(r - 1, p)
    ell = _block_log(m, p, precision)
    exp_l, power = 0, 1  # power = ell^t mod p^W
    for fact_p, fact_unit_inverse in exp_coefs:
        exp_l += power // fact_p * fact_unit_inverse
        power = power * ell % mod_w
    acc = pow(block, m, modulus) * exp_l % modulus
    for j in range(1, s + 1):
        acc = acc * (m * p + j) % modulus
    return -acc % modulus if r % 2 else acc


def gamma_p(x: BigRat, p: int, precision: int) -> int:
    """Gamma_p(x) modulo p**precision, as a residue in [0, p**precision), for
    an odd prime p and a p-integral rational x.

    Gamma_p(x) = Gamma_p(r) = (-1)^r prod_{0<k<r, p prime to k} k for the
    representative r of x in 1..p**precision.  That product is
    (p-1)!^M exp(L) prod_{j<=s} (M p + j) with r - 1 = M p + s, L a p-adic
    logarithm summed in closed form (see the comment above), so the cost does
    not depend on r.
    """
    if p == 2 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if precision < 1:
        raise ValueError(f"precision must be positive, got {precision}")
    x = Fraction(x)
    if padic_valuation(x, p) < 0:
        raise NotPIntegral(f"Gamma_p argument {x} is not p-integral at p = {p}")
    r = residue_of_rational(x, p, precision) or p**precision
    return _gamma_prime(r, p, precision)


@dataclass(frozen=True)
class _GammaForm:
    """p^val_offset * coef * prod Gamma_p(arg)^e, with coef a p-unit."""

    val_offset: int
    coef: Fraction
    factors: tuple[tuple[Fraction, int], ...]


# The verdicts below read each side modulo p^n: an exact side (a rational or
# an unreduced pair (t, q) standing for t/q) through _digits, a side built at
# prime p (see verify_classical) as its residue.  For prime p they read only
# remainders, so they take no gcd; a Fraction is built only to name a side in
# NotPIntegral.

# Digits read beyond p^k: the valuation witness comes from them unless the
# sides agree to all of them, and only then are the exact sides built and
# cross-multiplied.  Any count is exact; it only sets how often that happens.
# On the benchmark's classical cases (seeds 1-10, 6,114 verdicts at prime p)
# unequal sides agree to at most k + 5 digits, so with six spare digits only
# the 88 equal pairs are cross-multiplied: 88 of the 3,730 calls at prime p
# build a slot again exactly.
_SPARE_DIGITS = 6


def _pair(x) -> tuple[int, int]:
    """x as (numerator, denominator): a pair as it is, a rational reduced."""
    return x if isinstance(x, tuple) else Fraction(x).as_integer_ratio()


def _digits(side, p: int, n: int) -> int:
    """An exact side modulo p^n for prime p; NotPIntegral when it is not p-integral.

    With e = v_p(q), t/q = (t/p^e) / (q/p^e) and q/p^e is a unit, so the
    first n digits of t/q come from t and q modulo p^(e+n).
    """
    t, q = _pair(side)
    e = padic_valuation(q, p)
    unit, modulus = p**e, p**n
    rest = t % (unit * modulus)
    if rest % unit:
        raise NotPIntegral(f"{Fraction(t, q)} is not p-integral at p = {p}")
    return rest // unit * pow(q % (unit * modulus) // unit, -1, modulus) % modulus


def _valuation_result(v, k: int) -> CongruenceResult:
    if v >= k:
        return CongruenceResult(True, {"valuation": None if v == inf else int(v)})
    return CongruenceResult(False, {"valuation": int(v), "required": k})


def rational_congruent(lhs, rhs: BigRat, p: int, k: int) -> CongruenceResult:
    """Verified iff lhs == rhs modulo p**k, both sides p-integral.

    At prime p, v_p(lhs - rhs) is read from both sides' first
    k + _SPARE_DIGITS digits; only sides that agree to all of them are
    cross-multiplied, to tell equality from a valuation that high.
    """
    if not _is_prime(p):
        return _reduced_verdict(Fraction(*_pair(lhs)), Fraction(*_pair(rhs)), p, k)
    n = k + _SPARE_DIGITS
    gap = (_digits(lhs, p, n) - _digits(rhs, p, n)) % p**n
    if gap:
        return _valuation_result(padic_valuation(gap, p), k)
    (t, q), (a, b) = _pair(lhs), _pair(rhs)
    return _valuation_result(padic_valuation(t * b - a * q, p) - padic_valuation(q * b, p), k)


def _gamma_congruent(lhs, form: _GammaForm, p: int, k: int) -> CongruenceResult:
    """Verified iff the exact lhs == p^j * coef * prod Gamma_p(arg)^e modulo
    p**k, for prime p and j < k."""
    return _gamma_verdict(_digits(lhs, p, k), form, p, k)


def _gamma_verdict(x: int, form: _GammaForm, p: int, k: int) -> CongruenceResult:
    """_gamma_congruent from x, lhs modulo p^k: its residue p^-j lhs modulo
    p^(k-j) is x / p^j."""
    j = form.val_offset
    if x % p**j:  # v_p(lhs) < j
        return CongruenceResult(False, {"valuation": padic_valuation(x, p), "required": k})
    return _residue_result(x // p**j, _gamma_residue(form, p, k - j), p, k, j)


def _gamma_residue(form: _GammaForm, p: int, needed: int) -> int:
    """coef * prod Gamma_p(arg)^e modulo p^needed.

    A negative e inverts modulo p^needed: every Gamma_p value is a unit,
    +- a product of integers prime to p.
    """
    modulus = p**needed
    acc = residue_of_rational(form.coef, p, needed)
    for arg, e in form.factors:
        acc = acc * pow(gamma_p(arg, p, needed), e, modulus) % modulus
    return acc


def _residue_result(lhs_res: int, rhs_res: int, p: int, k: int, j: int) -> CongruenceResult:
    if lhs_res == rhs_res:
        return CongruenceResult(True, {"residue": rhs_res, "precision": k - j})
    return CongruenceResult(
        False,
        {
            "lhs_residue": lhs_res,
            "rhs_residue": rhs_res,
            "modulus": f"{p}^{k}",
            "valuation_offset": j,
        },
    )


def _reduced_verdict(lhs: Fraction, rhs: Fraction, p: int, k: int) -> CongruenceResult:
    """The rational verdict at an odd composite p, which the side conditions
    of the rational statements still admit.

    There the counts of p in a numerator and a denominator are not additive,
    so both sides are reduced Fractions and the difference is reduced again
    before it is counted.  This goes when the side conditions refuse
    composite p for every statement.
    """
    if padic_valuation(lhs, p) < 0:
        raise NotPIntegral(f"{lhs} is not p-integral at p = {p}")
    if padic_valuation(rhs, p) < 0:
        raise NotPIntegral(f"{rhs} is not p-integral at p = {p}")
    v = padic_valuation(lhs - rhs, p)
    if v >= k:
        return CongruenceResult(True, {"valuation": None if lhs == rhs else int(v)})
    return CongruenceResult(False, {"valuation": int(v), "required": k})


# -- truncated classical sums --------------------------------------------------


class _Series:
    """sum_k sign^k (2dk+r) ((r/d)_k / k!)^power, the one shape of the
    statements' truncated series.

    term(k) = (p(k), q(k), a(k)) for the sum  sum_k a(k) t_k,  t_0 = 1,
    t_{k+1} = t_k p(k) / q(k).
    """

    __slots__ = ("d", "r", "power", "sign")

    def __init__(self, d: int, r: int, power: int, sign: int):
        self.d, self.r, self.power, self.sign = d, r, power, sign

    def term(self, k: int) -> tuple[int, int, int]:
        d, r, power = self.d, self.r, self.power
        return self.sign * (r + d * k) ** power, (d * k + d) ** power, 2 * d * k + r


def _sixth_series(d: int, r: int) -> _Series:
    """sum_k (2dk+r) ((r/d)_k / k!)^6."""
    return _Series(d, r, 6, 1)


def _fifth_alt_series(d: int, r: int) -> _Series:
    """sum_k (-1)^k (2dk+r) ((r/d)_k / k!)^5."""
    return _Series(d, r, 5, -1)


# sum_k (-1)^k (4k+1) ((1/2)_k / k!)^5 and sum_k (6k+1) ((1/3)_k / k!)^6.
_QUARTIC = _fifth_alt_series(2, 1)
_CUBIC = _sixth_series(3, 1)


class _Truncations:
    """A series truncated after k = m for each m in ends, one per slot.

    ends do not decrease, so the first slot's sum is a prefix of the second's.
    """

    __slots__ = ("series", "ends")

    def __init__(self, series: _Series, ends: tuple[int, ...]):
        self.series, self.ends = series, ends

    def pairs(self) -> list[tuple[int, int]]:
        return _truncated_sums(self.series, self.ends)

    def residues(self, p: int, n: int) -> list[int | None]:
        return _series_residues(self.series, self.ends, p, n)


def _truncated_sums(series: _Series, ends) -> list[tuple[int, int]]:
    """[(T, Q)] with T/Q = sum_{0<=k<=m} of the series, one exact pair per m.

    ends holds one end or two that do not decrease.  binary_split sums the
    range up to the first end, then the rest, and the two merge once
    without the whole range's P, so each k is evaluated once.
    """

    def leaf(k):
        num, den, a = series.term(k)
        return num, den, a * den

    first, *rest = ends
    p, q, t = binary_split(0, first + 1, leaf)
    pairs = [(t, q)]
    if rest:
        (second,) = rest
        if second > first:
            _, q2, t2 = binary_split(first + 1, second + 1, leaf)
            t, q = t * q2 + p * t2, q * q2
        pairs.append((t, q))
    return pairs


def _series_residues(series: _Series, ends, p: int, n: int) -> list[int | None]:
    """[sum_{0<=k<=m} of the series modulo p^n, one per m in ends] at prime p.

    The running term t_k is p^v u / w with v exact and u, w units modulo
    p^n (see the sides' comment), and the sum so far is s / w.  Every term of
    the statements' series, a power of (r/d)_k / k! = (-1)^k binom(-r/d, k)
    with p not dividing d, is p-integral, so the sum is known modulo p^n and
    a term with v >= n adds 0.  Where a running term reaches v < 0, which no
    statement's series does, this slot and the later ones are None: the
    exact sums decide them.
    """
    d, r, power, sign = series.d, series.r, series.power, series.sign
    modulus = p**n
    s, u, w, v, scale = 0, 1, 1, 0, 1  # scale = p^v, or 0 once v >= n
    x, y = r, d  # t_{k+1} / t_k = sign (x / y)^power, x = r + dk, y = d(k + 1)
    residues = []
    k = 0
    for end in ends:
        while k <= end:
            s += (2 * x - r) * u * scale
            x_unit, y_unit = x, y
            if x % p == 0:
                if not x:  # t_(k+1) and every later term are 0
                    s = s * pow(w, -1, modulus) % modulus
                    return residues + [s] * (len(ends) - len(residues))
                e, x_unit = _split_power(x, p)
                v += power * e
                scale = p**v if v < n else 0
            if y % p == 0:
                e, y_unit = _split_power(y, p)
                v -= power * e
                if v < 0:
                    return residues + [None] * (len(ends) - len(residues))
                scale = p**v if v < n else 0
            y_unit = y_unit**power
            u = sign * x_unit**power * u % modulus
            w, s = w * y_unit % modulus, s * y_unit % modulus
            x, y, k = x + d, y + d, k + 1
        residues.append(s * pow(w, -1, modulus) % modulus)
    return residues


def _harmonic_tail_sum(d: int, r: int, length: int, scale: int, cube: int, term) -> _Closed:
    """sum_{k<=length} t_k (scale - cube * h_k), with t_0 = 1 and
    t_{k+1} / t_k = p(k) / q(k) for term(k) = (p(k), q(k)), and
    h_k = sum_{1<=j<=k} (1/(dj)^2 + 1/(dj-d+r)^2).
    """

    def with_g(k):
        p, q = term(k)
        if k == 0:
            return p, q, 0, 1
        a, b = (d * k) ** 2, (d * k - d + r) ** 2
        return p, q, a + b, a * b

    def pair():
        _, q, t, _, den, w = _series_harmonic(0, length + 1, with_g)
        return scale * t * den - cube * w, q * den

    def adic(p, precision):
        # t_k = p^v u / w, h_k = p^vh g / e and the sum so far p^vs s / (w e),
        # each as in the sides' comment.
        modulus = p**precision
        (i, scale_unit), (j, cube_unit) = _split_power(scale, p), _split_power(cube, p)
        v, u, w = 0, 1, 1
        vh, g, e = 0, 0, 1
        vs, s = 0, 0
        low, x, y = min(i, j), p ** (i - min(i, j)), p ** (j - min(i, j))
        for k in range(length + 1):
            if k:
                a, b = (d * k) ** 2, (d * k - d + r) ** 2
                den, c = a * b, 0
                if den % p == 0:
                    c, den = _split_power(den, p)
                    if vh > -c:
                        g, vh = g * p ** (vh + c) % modulus, -c
                        low = min(i, j + vh)
                        x, y = p ** (i - low), p ** (j + vh - low)
                g = (g * den + (a + b) * p ** (-c - vh) * e) % modulus
                e, s = e * den % modulus, s * den % modulus
            # t_k (scale - cube h_k) = p^(v + low) u (x scale' e - y cube' g) / (w e)
            if vs > v + low:
                s, vs = s * p ** (vs - v - low) % modulus, v + low
            s = (s + u * (x * scale_unit * e - y * cube_unit * g) * p ** (v + low - vs)) % modulus
            num, den = term(k)
            if num % p == 0:
                if not num:  # t_(k+1) and every later term are 0
                    break
                c, num = _split_power(num, p)
                v += c
            if den % p == 0:
                c, den = _split_power(den, p)
                v -= c
            u, w, s = u * num % modulus, w * den % modulus, s * den % modulus
        return vs, s, w * e % modulus

    return _Closed(pair, adic)


def _inner_double(d: int, r: int, length: int, scale: int, cube: int) -> _Closed:
    """sum_{k<=length} (r/d)_k^3 (1-r/d)_k / (k!^3 (2r/d)_k) {scale - cube * h_k}

    with h_k = sum_{j<=k} (1/(dj)^2 + 1/(dj-d+r)^2), the q -> 1 image of the
    double-series right-hand sides.
    """
    return _harmonic_tail_sum(
        d, r, length, scale, cube,
        lambda k: ((r + d * k) ** 3 * (d - r + d * k), (d * k + d) ** 3 * (2 * r + d * k)),
    )


def _inner_double_bare(d: int, r: int, length: int, scale: int, cube: int) -> _Closed:
    """Like _inner_double but with term (r/d)_k^2 (1-r/d)_k / k!^3."""
    return _harmonic_tail_sum(
        d, r, length, scale, cube,
        lambda k: ((r + d * k) ** 2 * (d - r + d * k), (d * k + d) ** 3),
    )


# -- one checker per statement ------------------------------------------------
#
# The catalog registers each classical statement with its checker below and
# checks p, s, d and r before calling it.  Each checker validates the side
# conditions left, then returns
#   (modulus exponent k, lhs, rhs)
# where lhs is either _Truncations, one truncated series with an end per
# truncation slot, of which verify_classical sums only the slots selected, or
# the single slot's left side as a _Closed; rhs is a _Closed or a Fraction
# (pure rational congruence) or a _GammaForm, which the catalog admits only
# at a prime p, Gamma_p's domain.  Nothing is summed before verify_classical
# picks the precision.  Each comment names the slots' ends.


def _require(cond: bool, message: str):
    if not cond:
        raise SideConditionViolated(message)


# The closed forms below write each quotient of shifted factorials
# (a/b)_m / (c/d)_m with b = d as the _ratio prod (a + b i) / (c + b i).


def _cubic_correction(n: int) -> _Closed:
    """sum_{j<=n} (1/(3j-1)^2 - 1/(3j)^2), each term (6j-1) / (3j (3j-1))^2."""
    return _fraction_sum(1, n + 1, lambda j: (6 * j - 1, (3 * j * (3 * j - 1)) ** 2))


def _quartic_closed(P: int) -> _Closed:
    """PROP_1_7's left side at p = P; COR_1_4's right side is P or P^2 times it."""
    if P % 4 == 1:
        quarter = (P - 1) // 4
        return _ratio(1, 2, 2, 2, quarter) ** 2 * (  # (1/2)_m / (1)_m
            1
            + Fraction(P**2, 4) * _harmonic((P - 1) // 2, 2)
            + Fraction(-(P**2), 8) * _harmonic(quarter, 2)
        )
    return _ratio(3, 4, 5, 4, (P - 1) // 2)  # (3/4)_m / (5/4)_m


def _cubic_closed(P: int) -> _Closed:
    """PROP_1_8's left side at p = P; COR_1_5's and COR_1_6's are P and 10P times it."""
    if P % 3 == 1:
        third = (P - 1) // 3
        return _ratio(2, 3, 3, 3, third) ** 3 * (1 + P**2 * _cubic_correction(third))
    return _ratio(2, 3, 3, 3, (2 * P - 1) // 3) ** 3  # (2/3)_m / (1)_m


def _double_closed(d: int, r: int, N: int) -> _Closed:
    """COR_5_E's right side at N = p^s, and COR_5_H's at N = (d-1) p^s."""
    length = (N - r) // d
    return _ratio(2 * r, d, d, d, length) * _inner_double(d, r, length, N, N**3)


def _check_cor_1_4(p: int, s: int):
    P = p**s
    rhs = (P if P % 4 == 1 else P**2) * _quartic_closed(P)
    return s + 4, _Truncations(_QUARTIC, ((P - 1) // 2, P - 1)), rhs  # (p^s-1)/2, p^s-1


def _check_cubic(p: int, s: int, t: int, scale: int):
    """COR_1_5 (t = 1, scale 1) and COR_1_6 (t = 2, scale 10), mod p^(s+3+t)."""
    P = p**s
    _require(P % 3 == t, f"p^s must be {t} mod 3, got {P} = {P % 3} mod 3")
    rhs = scale * P * _cubic_closed(P)
    return s + 3 + t, _Truncations(_CUBIC, ((t * P - 1) // 3, P - 1)), rhs  # (tp^s-1)/3, p^s-1


def _check_prop_1_7(p: int, s: int):
    _require(p > 5, f"p must exceed 5, got {p}")
    k, j, coef = (4, 0, Fraction(-1)) if p % 4 == 1 else (3, 1, Fraction(-1, 16))
    return k, _quartic_closed(p), _GammaForm(j, coef, _GAMMA_QUARTER)


def _check_prop_1_8(p: int, s: int):
    _require(p != 3, "p = 3 makes 1/3 non-integral")
    k, j, coef = (4, 0, Fraction(-1)) if p % 6 == 1 else (5, 3, Fraction(-1, 27))
    return k, _cubic_closed(p), _GammaForm(j, coef, _GAMMA_THIRD)


def _check_vh_a2(p: int, s: int):
    rhs = _GammaForm(1, Fraction(-1), ((Fraction(3, 4), -4),)) if p % 4 == 1 else Fraction(0)
    return 3, _Truncations(_QUARTIC, ((p - 1) // 2,)), rhs


def _check_vh_d2(p: int, s: int):
    _require(p % 6 == 1, f"p must be 1 mod 6, got {p}")
    rhs = _GammaForm(1, Fraction(-1), _GAMMA_THIRD)
    return 4, _Truncations(_CUBIC, ((p - 1) // 3,)), rhs


def _check_liu(p: int, s: int):
    _require(p > 5 and p % 4 == 3, f"p must be 3 mod 4 and exceed 5, got {p}")
    rhs = _GammaForm(3, Fraction(-1, 16), _GAMMA_QUARTER)
    return 4, _Truncations(_QUARTIC, ((p - 1) // 2,)), rhs


def _check_lr(p: int, s: int):
    _require(p != 3, "p = 3 makes 1/3 non-integral")
    j, coef = (1, Fraction(-1)) if p % 6 == 1 else (4, Fraction(-10, 27))
    return 6, _Truncations(_CUBIC, (p - 1,)), _GammaForm(j, coef, _GAMMA_THIRD)


def _require_window(P: int, d: int, r: int):
    _require(d >= 1, f"d must be positive, got {d}")
    _require(gcd(P, d) == 1, f"gcd(p, d) must be 1, got d = {d}")
    _require(
        d + P - d * P <= r <= P,
        f"r = {r} outside the window {d + P - d * P}..{P}",
    )
    _require(P % d == r % d, f"p^s = {P} and r = {r} disagree mod d = {d}")


def _check_cor_5_e(p: int, s: int, d: int, r: int):
    P = p**s
    _require_window(P, d, r)
    _require(
        2 * r > 0 or 2 * r % d,
        f"2r/d = {Fraction(2 * r, d)} is a non-positive integer, so (2r/d)_k vanishes in a denominator",
    )
    length = (P - r) // d
    rhs = _double_closed(d, r, P)
    return s + 4, _Truncations(_sixth_series(d, r), (length, P - 1)), rhs  # (p^s-r)/d, p^s-1


def _check_cor_5_g(p: int, s: int, d: int, r: int):
    P = p**s
    _require_window(P, d, r)
    length = (P - r) // d
    sign = -1 if ((r - P) // d) % 2 else 1
    rhs = sign * _inner_double_bare(d, r, length, P, P**3)
    return s + 4, _Truncations(_fifth_alt_series(d, r), (length, P - 1)), rhs  # (p^s-r)/d, p^s-1


def _check_cor_5_h(p: int, s: int, d: int, r: int):
    _require(r in (1, -1), f"r must be +-1, got {r}")
    P = p**s
    _require(d >= 3, f"d must be at least 3, got {d}")
    _require(P + r >= d, f"p^s + r = {P + r} is below d = {d}")
    _require(gcd(P, d) == 1, f"gcd(p, d) must be 1, got d = {d}")
    _require((P + r) % d == 0, f"p^s = {P} must be -r mod d = {d}")
    length = (d * P - P - r) // d
    rhs = _double_closed(d, r, (d - 1) * P)
    # (dp^s-p^s-r)/d, p^s-1
    return s + 5, _Truncations(_sixth_series(d, r), (length, P - 1)), rhs


def _check_sun_h2(p: int, s: int, parts: int, coef: int):
    """SUN_H2 (parts 1, coef 2) and SUN_H2HALF (parts 2, coef 7)."""
    _require(p > 3, f"p must exceed 3, got {p}")
    return 2, _harmonic((p - 1) // parts, 2), Fraction(coef * p, 3) * bernoulli(p - 3)


def _check_sun_h3(p: int, s: int):
    _require(p > 5, f"p must exceed 5, got {p}")
    return 1, _harmonic(p // 4, 3), Fraction(-9) * bernoulli(p - 3)


def verify_classical(p: int, k: int, lhs, rhs, ends) -> list[CongruenceResult]:
    """A checker's lhs against rhs modulo p^k: one verdict per end.

    ends are the ends of the truncation slots to decide, in the order of
    lhs.ends; a closed left side is its one slot.  Side conditions are the
    caller's: a _GammaForm rhs needs a prime p.  At prime p the slots are
    decided from their digits, and only a slot those leave undecided is
    built again exactly.
    """
    if isinstance(lhs, _Truncations):
        lhs = _Truncations(lhs.series, tuple(ends))
    if not _is_prime(p):
        return _verdicts(lhs, rhs, p, k, None)
    results = _verdicts(lhs, rhs, p, k, k + _SPARE_DIGITS)
    undecided = [i for i, result in enumerate(results) if result is None]
    if undecided:
        if isinstance(lhs, _Truncations):
            lhs = _Truncations(lhs.series, tuple(lhs.ends[i] for i in undecided))
        for i, result in zip(undecided, _verdicts(lhs, rhs, p, k, None)):
            results[i] = result
    return results


def _verdicts(lhs, rhs, p: int, k: int, digits: int | None) -> list[CongruenceResult | None]:
    """One verdict per slot of lhs (_Truncations or _Closed) against rhs.

    With digits = n, at prime p, this is the one place that picks the
    precision: each side is built as its first n digits (k of them against
    a Gamma_p product, which reads no more), and a slot is None where they
    cannot decide: a side that is not p-integral, whose exact value
    NotPIntegral must name, or sides that agree to all n digits.  With None
    the sides are built exactly.
    """
    if digits is None:
        sides = lhs.pairs()
        if isinstance(rhs, _GammaForm):
            return [_gamma_congruent(side, rhs, p, k) for side in sides]
        (rhs,) = _closed(rhs).pairs()
        return [rational_congruent(side, rhs, p, k) for side in sides]
    if isinstance(rhs, _GammaForm):
        return [x if x is None else _gamma_verdict(x, rhs, p, k) for x in lhs.residues(p, k)]
    modulus = p**digits
    (y,) = _closed(rhs).residues(p, digits)
    if y is None:
        return [None] * len(lhs.ends)

    def verdict(x):
        gap = 0 if x is None else (x - y) % modulus
        return _valuation_result(padic_valuation(gap, p), k) if gap else None

    return [verdict(x) for x in lhs.residues(p, digits)]
