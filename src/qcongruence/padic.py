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

The catalog registers the classical (q -> 1) statements, each with its
checker here, which returns the modulus exponent and the two sides.  They
are pure rational-number congruences, decided exactly (p-adic Gamma
products reduced to residues) by the p-adic valuation of the difference,
in verify_classical.  Both sides are unreduced pairs (T, Q) summed
by arith.binary_split, the kernel that qseries sums its q-series with: the
truncated sums (a statement with two truncation slots sums the shorter
range once and merges the rest onto it) and the closed forms, whose shifted
factorials, harmonic numbers and harmonic tails are binary_split leaves
combined by pair arithmetic (_Closed).  For prime p the verdict reads T and
Q only modulo p^(e + n), e = v_p(Q), and n = k + 6 digits, so
verify_classical builds each side modulo p^M, M = e + n: e is counted
beforehand by Legendre's formula over the linear factors of Q, and every
merge reduces modulo p^M.  The digits are read only after the check
v_p(Q mod p^M) + n <= M, which proves them whatever the count said.  Where
the residues cannot decide (the check fails, the sides agree to all n
digits, or NotPIntegral must name a side) the same sides are built again
exactly.  The Gamma_p statements need a prime p, which the catalog checks;
the rational ones are still decided at an odd composite p, from exact sides
reduced to Fractions.
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


# -- exact sums and closed forms as unreduced pairs ------------------------------
#
# A hypergeometric sum  sum_{k<=m} a(k) t_k  with t_0 = 1 and
# t_{k+1} = t_k p(k) / q(k)  is arith.binary_split over 0 <= k <= m with the
# leaves (p(k), q(k), a(k) q(k)): the sum is the pair (T, Q), never reduced.
# A product prod f(k) is the P of the leaves (f(k), 1, 0), and a plain sum of
# n_k/d_k is (T, Q) of the leaves (d_k, d_k, n_k).
#
# At prime p a verdict reads a side t/q only modulo p^(e+n), e = v_p(q) (see
# _digits), so verify_classical builds it modulo p^M, M = e + n: the merges of
# binary_split and of the pair arithmetic below only add and multiply, so they
# give the exact t and q reduced modulo p^M.  e is counted before anything is
# built.  Every denominator here is a product of progressions
# (c, d, lo, hi, e) = prod_{lo<=k<hi} (c + d k)^e, whose valuation is
# Legendre's formula on a progression (_progression_valuation).
#
# The linear factors are written out a second time beside the leaves that
# multiply them (_Series.factors, the factors of _fraction_sum and
# _harmonic_tail_sum) because counting from the leaves themselves, v_p of each
# leaf's q, evaluates every leaf once more before the side is built: on the
# `classical` case lists of seeds 1-3 that added 0.16-0.28 s, about 15 % of
# the replay, against 0.01 s for the progressions (2-vCPU Xeon, Python
# 3.11.7).  A factor left out makes the count short, which costs time, not
# correctness: the check in _digits fails and the side is built again
# exactly.  test_padic's residue test fails on any such fallback.


def _progression_valuation(c: int, d: int, lo: int, hi: int, p: int) -> int:
    """v_p(prod_{lo<=k<hi} (c + d k)) for prime p, no factor being 0.

    The count of k in the range with p^i | c + d k, summed over i >= 1.  Once
    the power of p common to c and d is taken out, either p divides d and no
    factor has p, or d is a unit and p^i | c + d k exactly when
    k = -c/d modulo p^i.
    """
    if hi <= lo:
        return 0
    total = 0
    while c % p == 0 and d % p == 0:
        c, d, total = c // p, d // p, total + hi - lo
    if d % p == 0:
        return total
    bound = max(abs(c + d * lo), abs(c + d * (hi - 1)))
    power = p
    while power <= bound:
        root = -c * pow(d, -1, power) % power
        total += (hi - 1 - root) // power - (lo - 1 - root) // power
        power *= p
    return total


def _den_valuation(den, p: int) -> int:
    """v_p of the product of the progressions (c, d, lo, hi, e) in den."""
    return sum(e * _progression_valuation(c, d, lo, hi, p) for c, d, lo, hi, e in den)


def _span(factors, lo: int, hi: int) -> tuple:
    """The progressions of prod_{lo<=k<hi} of the linear factors (c, d, e)."""
    return tuple((c, d, lo, hi, e) for c, d, e in factors)


def _reduced(a: int, b: int, modulus: int | None) -> tuple[int, int]:
    return (a, b) if modulus is None else (a % modulus, b % modulus)


class _Closed:
    """A closed form as an unreduced pair (a, b) standing for a/b.

    pair(modulus) builds it, a and b reduced modulo `modulus` when one is
    given.  den lists the progressions whose product is b, so v_p(b) is
    counted without building b.  Sums, products and powers of closed forms
    and rationals are closed forms: b of a sum or a product is b1 b2, so
    their den is den1 + den2.  As a left side a closed form is one
    truncation slot, with no end.
    """

    __slots__ = ("pair", "den")
    ends = (None,)

    def __init__(self, pair, den: tuple):
        self.pair, self.den = pair, den

    def pairs(self, modulus: int | None) -> list[tuple[int, int]]:
        return [self.pair(modulus)]

    def __add__(self, other) -> "_Closed":
        other = _closed(other)

        def pair(modulus):
            (a, b), (c, d) = self.pair(modulus), other.pair(modulus)
            return _reduced(a * d + c * b, b * d, modulus)

        return _Closed(pair, self.den + other.den)

    __radd__ = __add__

    def __mul__(self, other) -> "_Closed":
        other = _closed(other)

        def pair(modulus):
            (a, b), (c, d) = self.pair(modulus), other.pair(modulus)
            return _reduced(a * c, b * d, modulus)

        return _Closed(pair, self.den + other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "_Closed":
        def pair(modulus):
            a, b = self.pair(modulus)
            return pow(a, e, modulus), pow(b, e, modulus)

        return _Closed(pair, tuple((c, d, lo, hi, f * e) for c, d, lo, hi, f in self.den))


def _closed(x) -> _Closed:
    """x as a closed form; a rational is its reduced pair."""
    if isinstance(x, _Closed):
        return x
    a, b = Fraction(x).as_integer_ratio()
    return _Closed(lambda modulus: (a, b), ((b, 0, 0, 1, 1),))


def _ratio(a: int, b: int, c: int, d: int, length: int) -> _Closed:
    """prod_{i<length} (a + b i) / (c + d i): P and Q of the leaves (a + b i, c + d i, 0)."""

    def pair(modulus):
        if length <= 0:
            return 1, 1
        p, q, _ = binary_split(0, length, lambda i: (a + b * i, c + d * i, 0), modulus)
        return p, q

    return _Closed(pair, _span(((c, d, 1),), 0, length))


def _fraction_sum(lo: int, hi: int, f, factors) -> _Closed:
    """sum n_k/d_k over lo <= k < hi for f(k) = (n_k, d_k), with d_k the
    product of the linear factors (c + d k)^e in factors: T and Q of the
    leaves (d_k, d_k, n_k)."""

    def leaf(k):
        n, d = f(k)
        return d, d, n

    def pair(modulus):
        if hi <= lo:
            return 0, 1
        _, q, t = binary_split(lo, hi, leaf, modulus)
        return t, q

    return _Closed(pair, _span(factors, lo, hi))


def _harmonic(m: int, ell: int) -> _Closed:
    return _fraction_sum(1, m + 1, lambda k: (1, k**ell), ((0, 1, ell),))


def _series_harmonic(lo: int, hi: int, term, modulus: int | None = None):
    """(P, Q, T, G, D, W) over lo <= k < hi, hi > lo, with weight a(k) = 1.

    term(k) = (p(k), q(k), u(k), v(k)) with g(k) = u(k)/v(k).  P, Q and T are
    those of binary_split; G/D = sum g(k) over the range; and W/(Q D) is the
    weighted tail sum_k h(k) prod_{lo<=j<k} p(j)/q(j) with
    h(k) = sum_{lo<=j<=k} g(j).  Two adjacent ranges merge by
    W = W1 Q2 D2 + P1 (G1 T2 D2 + W2 D1), reduced modulo `modulus` when one is
    given, as in binary_split.

    This is the one recursion beside binary_split.  W needs the running sum
    G/D at every merge, which binary_split's entries carry only as objects:
    P a 2x2 matrix acting on (t_k, t_k h_k) and T a vector.  Folded that way,
    the merges' method calls made COR_5_E's right side at p = 37, s = 2,
    d = 3 take 4.4 ms instead of 2.5 ms modulo p^M.
    """
    if hi - lo == 1:
        p, q, u, v = term(lo)
        return p, q, q, u, v, q * u
    mid = (lo + hi) // 2
    p1, q1, t1, g1, d1, w1 = _series_harmonic(lo, mid, term, modulus)
    p2, q2, t2, g2, d2, w2 = _series_harmonic(mid, hi, term, modulus)
    p, q, t = p1 * p2, q1 * q2, t1 * q2 + p1 * t2
    g, d, w = g1 * d2 + g2 * d1, d1 * d2, w1 * q2 * d2 + p1 * (g1 * t2 * d2 + w2 * d1)
    if modulus is None:
        return p, q, t, g, d, w
    return p % modulus, q % modulus, t % modulus, g % modulus, d % modulus, w % modulus


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
    """(e, u) with n = p^e u and p not dividing u, for n >= 1."""
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


# The verdicts below take each side as a rational, as an unreduced pair
# (t, q) standing for t/q, or, from verify_classical at prime p, as
# _Residues: t and q known only modulo p^M.  For prime p they read only
# remainders (_digits), so they take no gcd; a Fraction is built only to
# name a side in NotPIntegral.

# Digits read beyond p^k: the valuation witness comes from them unless the
# sides agree to all of them, and only then are the exact sides built and
# cross-multiplied.  Any count is exact; it only sets how often that happens.
# On the benchmark's classical cases (seeds 1-10, 6,114 verdicts at prime p)
# unequal sides agree to at most k + 5 digits, so with six spare digits only
# the 88 equal pairs are cross-multiplied: 88 of the 3,730 calls at prime p
# build their sides again exactly.
_SPARE_DIGITS = 6


class _Residues:
    """An unreduced pair (t, q) known only modulo p^exponent."""

    __slots__ = ("t", "q", "exponent")

    def __init__(self, t: int, q: int, exponent: int):
        self.t, self.q, self.exponent = t, q, exponent


class _Inexact(Exception):
    """_Residues cannot decide this verdict: verify_classical reruns it on
    the exact sides."""


def _pair(x) -> tuple[int, int]:
    """x as (numerator, denominator): a pair as it is, a rational reduced."""
    if isinstance(x, _Residues):
        return x.t, x.q
    return x if isinstance(x, tuple) else Fraction(x).as_integer_ratio()


def _digits(side, p: int, n: int) -> int:
    """side modulo p^n for prime p; NotPIntegral when it is not p-integral.

    With e = v_p(q), t/q = (t/p^e) / (q/p^e) and q/p^e is a unit, so the
    first n digits of t/q come from t and q modulo p^(e+n).  A _Residues
    side is read only after the check v_p(q mod p^M) + n <= M: a valuation
    below M is that of the exact q, and p^(e+n) divides p^M, so the digits
    are exact whatever count chose M.  Where the check fails, or where
    NotPIntegral would have to name the exact value, _Inexact is raised.
    """
    t, q = _pair(side)
    e = padic_valuation(q, p)
    residues = isinstance(side, _Residues)
    if residues and e + n > side.exponent:
        raise _Inexact
    unit, modulus = p**e, p**n
    rest = t % (unit * modulus)
    if rest % unit:
        if residues:
            raise _Inexact
        raise NotPIntegral(f"{Fraction(t, q)} is not p-integral at p = {p}")
    return rest // unit * pow(q % (unit * modulus) // unit, -1, modulus) % modulus


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
        v = padic_valuation(gap, p)
    elif isinstance(lhs, _Residues) or isinstance(rhs, _Residues):
        raise _Inexact
    else:
        (t, q), (a, b) = _pair(lhs), _pair(rhs)
        v = padic_valuation(t * b - a * q, p) - padic_valuation(q * b, p)
    if v >= k:
        return CongruenceResult(True, {"valuation": None if v == inf else int(v)})
    return CongruenceResult(False, {"valuation": int(v), "required": k})


def _gamma_congruent(lhs, form: _GammaForm, p: int, k: int) -> CongruenceResult:
    """Verified iff lhs == p^j * coef * prod Gamma_p(arg)^e modulo p**k, for
    prime p and j < k.

    lhs is taken as by rational_congruent; its residue p^-j lhs modulo
    p^(k-j) comes from its first k digits.
    """
    j = form.val_offset
    x = _digits(lhs, p, k)
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
    """A hypergeometric series by its binary_split leaf (p(k), q(k), a(k) q(k)),
    with q(k) the product of the linear factors (c + d k)^e in factors."""

    __slots__ = ("leaf", "factors")

    def __init__(self, leaf, factors: tuple):
        self.leaf, self.factors = leaf, factors


def _sixth_series(d: int, r: int) -> _Series:
    """sum_k (2dk+r) ((r/d)_k / k!)^6."""

    def leaf(k):
        q = (d * k + d) ** 6
        return (r + d * k) ** 6, q, (2 * d * k + r) * q

    return _Series(leaf, ((d, d, 6),))


def _fifth_alt_series(d: int, r: int) -> _Series:
    """sum_k (-1)^k (2dk+r) ((r/d)_k / k!)^5."""

    def leaf(k):
        q = (d * k + d) ** 5
        return -((r + d * k) ** 5), q, (2 * d * k + r) * q

    return _Series(leaf, ((d, d, 5),))


# sum_k (-1)^k (4k+1) ((1/2)_k / k!)^5 and sum_k (6k+1) ((1/3)_k / k!)^6.
_QUARTIC = _fifth_alt_series(2, 1)
_CUBIC = _sixth_series(3, 1)


class _Truncations:
    """A series truncated after k = m for each m in ends, one per slot.

    ends do not decrease, so the first slot's sum is a prefix of the
    second's, and den, the progressions of the last slot's Q, counts the
    valuation of every slot's Q or more.
    """

    __slots__ = ("series", "ends")

    def __init__(self, series: _Series, ends: tuple[int, ...]):
        self.series, self.ends = series, ends

    @property
    def den(self) -> tuple:
        return _span(self.series.factors, 0, self.ends[-1] + 1)

    def pairs(self, modulus: int | None) -> list[tuple[int, int]]:
        return _truncated_sums(self.series, self.ends, modulus)


def _truncated_sums(series: _Series, ends, modulus: int | None = None) -> list[tuple[int, int]]:
    """[(T, Q)] with T/Q = sum_{0<=k<=m} of the series, one pair per m.

    ends holds one end or two that do not decrease.  binary_split sums the
    range up to the first end, then the rest, and the two merge once
    without the whole range's P, so each k is evaluated once.  The pairs
    are not reduced, or are reduced modulo `modulus` when one is given.
    """
    first, *rest = ends
    p, q, t = binary_split(0, first + 1, series.leaf, modulus)
    pairs = [(t, q)]
    if rest:
        (second,) = rest
        if second > first:
            _, q2, t2 = binary_split(first + 1, second + 1, series.leaf, modulus)
            t, q = _reduced(t * q2 + p * t2, q * q2, modulus)
        pairs.append((t, q))
    return pairs


def _harmonic_tail_sum(d: int, r: int, length: int, scale: int, cube: int, term, factors) -> _Closed:
    """sum_{k<=length} t_k (scale - cube * h_k), with t_0 = 1 and
    t_{k+1} / t_k = p(k) / q(k) for term(k) = (p(k), q(k)), q(k) the product
    of the linear factors in factors, and
    h_k = sum_{1<=j<=k} (1/(dj)^2 + 1/(dj-d+r)^2).
    """

    def with_g(k):
        p, q = term(k)
        if k == 0:
            return p, q, 0, 1
        a, b = (d * k) ** 2, (d * k - d + r) ** 2
        return p, q, a + b, a * b

    def pair(modulus):
        _, q, t, _, den, w = _series_harmonic(0, length + 1, with_g, modulus)
        return _reduced(scale * t * den - cube * w, q * den, modulus)

    h_factors = ((0, d, 2), (r - d, d, 2))
    return _Closed(pair, _span(factors, 0, length + 1) + _span(h_factors, 1, length + 1))


def _inner_double(d: int, r: int, length: int, scale: int, cube: int) -> _Closed:
    """sum_{k<=length} (r/d)_k^3 (1-r/d)_k / (k!^3 (2r/d)_k) {scale - cube * h_k}

    with h_k = sum_{j<=k} (1/(dj)^2 + 1/(dj-d+r)^2), the q -> 1 image of the
    double-series right-hand sides.
    """
    return _harmonic_tail_sum(
        d, r, length, scale, cube,
        lambda k: ((r + d * k) ** 3 * (d - r + d * k), (d * k + d) ** 3 * (2 * r + d * k)),
        ((d, d, 3), (2 * r, d, 1)),
    )


def _inner_double_bare(d: int, r: int, length: int, scale: int, cube: int) -> _Closed:
    """Like _inner_double but with term (r/d)_k^2 (1-r/d)_k / k!^3."""
    return _harmonic_tail_sum(
        d, r, length, scale, cube,
        lambda k: ((r + d * k) ** 2 * (d - r + d * k), (d * k + d) ** 3),
        ((d, d, 3),),
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
# picks the modulus.  Each comment names the slots' ends.


def _require(cond: bool, message: str):
    if not cond:
        raise SideConditionViolated(message)


# The closed forms below write each quotient of shifted factorials
# (a/b)_m / (c/d)_m with b = d as the _ratio prod (a + b i) / (c + b i).


def _cubic_correction(n: int) -> _Closed:
    """sum_{j<=n} (1/(3j-1)^2 - 1/(3j)^2), each term (6j-1) / (3j (3j-1))^2."""
    return _fraction_sum(
        1, n + 1, lambda j: (6 * j - 1, (3 * j * (3 * j - 1)) ** 2), ((0, 3, 2), (-1, 3, 2))
    )


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


def _check_cor_1_5(p: int, s: int):
    P = p**s
    _require(P % 3 == 1, f"p^s must be 1 mod 3, got {P} = {P % 3} mod 3")
    third = (P - 1) // 3
    rhs = P * _cubic_closed(P)
    return s + 4, _Truncations(_CUBIC, (third, P - 1)), rhs  # (p^s-1)/3, p^s-1


def _check_cor_1_6(p: int, s: int):
    P = p**s
    _require(P % 3 == 2, f"p^s must be 2 mod 3, got {P} = {P % 3} mod 3")
    length = (2 * P - 1) // 3
    rhs = 10 * P * _cubic_closed(P)
    return s + 5, _Truncations(_CUBIC, (length, P - 1)), rhs  # (2p^s-1)/3, p^s-1


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


def _check_sun_h2(p: int, s: int):
    _require(p > 3, f"p must exceed 3, got {p}")
    return 2, _harmonic(p - 1, 2), Fraction(2 * p, 3) * bernoulli(p - 3)


def _check_sun_h2half(p: int, s: int):
    _require(p > 3, f"p must exceed 3, got {p}")
    return 2, _harmonic((p - 1) // 2, 2), Fraction(7 * p, 3) * bernoulli(p - 3)


def _check_sun_h3(p: int, s: int):
    _require(p > 5, f"p must exceed 5, got {p}")
    return 1, _harmonic(p // 4, 3), Fraction(-9) * bernoulli(p - 3)


def verify_classical(p: int, k: int, lhs, rhs, ends) -> list[CongruenceResult]:
    """A checker's lhs against rhs modulo p^k: one verdict per end.

    ends are the ends of the truncation slots to decide, in the order of
    lhs.ends; a closed left side is its one slot.  Side conditions are the
    caller's: a _GammaForm rhs needs a prime p.
    """
    if isinstance(lhs, _Truncations):
        lhs = _Truncations(lhs.series, tuple(ends))
    try:
        return _verdicts(lhs, rhs, p, k, k + _SPARE_DIGITS if _is_prime(p) else None)
    except _Inexact:
        return _verdicts(lhs, rhs, p, k, None)


def _verdicts(lhs, rhs, p: int, k: int, digits: int | None) -> list[CongruenceResult]:
    """One verdict per left side of lhs (_Truncations or _Closed) against rhs.

    With digits = n, at prime p, this is the one place that picks a modulus:
    each side is built modulo p^M, M = e + n with e the valuation of its
    denominator counted from den, and decided as _Residues, which raise
    _Inexact where they cannot decide.  With None the sides are exact.
    """

    def build(side):
        if digits is None:
            return side.pairs(None)
        exponent = _den_valuation(side.den, p) + digits
        return [_Residues(t, q, exponent) for t, q in side.pairs(p**exponent)]

    if isinstance(rhs, _Closed):
        (rhs,) = build(rhs)
    if isinstance(rhs, _GammaForm):
        return [_gamma_congruent(side, rhs, p, k) for side in build(lhs)]
    return [rational_congruent(side, rhs, p, k) for side in build(lhs)]
