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

The classical (q -> 1) statements are the catalog's: each one's checker
there tests its side conditions and returns the modulus exponent k and the
two sides, built from the series and closed forms here.  They are pure
rational-number congruences, decided exactly (p-adic Gamma products reduced
to residues) by the p-adic valuation of the difference, in
verify_classical.  The sides are truncated sums (a statement with two
truncation slots sums the shorter range once and goes on to the longer) and
closed forms (_Closed) made of shifted factorials, harmonic numbers and
harmonic tails.

At each prime factor q^e of p (a prime p is its own, with e = 1) each side
is built as its first n = e (k + 6) digits, in fixed relative precision
(Caruso, "Computations with p-adic numbers", arXiv:1701.06794): a value is
q^v a / b with v an exact integer and a, b known modulo q^R, so it is known
modulo q^(v+R).  Every loop splits each linear factor into its power of q,
which v counts, and its unit part, whose image modulo q^R is exact, so
nothing is guessed.  The truncated sums' terms are q-integral (q does not
divide d), so they are summed modulo q^n and a term with v >= n drops out;
the closed forms are built at R = n.  The valuation of lhs - rhs at each q,
exact unless the sides agree to all their digits there, gives the count of
p in it (_factored_valuation).  A slot those digits cannot decide (sides
that agree that far, or a side not shown p-integral, which NotPIntegral
must then name) is built once more at twice the digits, and if those
cannot decide it either, by the same loops at R = inf, where a reduction
modulo q^R leaves a value as it is: the triples are then exact, and so is
every valuation read from them.  The Gamma_p statements need a prime p,
which the catalog checks.  The factorisation of p and the split of each
linear factor into its power of q and a unit are arith's (prime_factors,
split_power).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, inf, prod

from .arith import BigRat, padic_valuation, prime_factors, residue_of_rational, split_power
from .congruence import CongruenceResult
from .errors import NotPIntegral

__all__ = [
    "bernoulli",
    "gamma_p",
    "verify_classical",
]

# -- sides: fixed relative precision, and exact at R = inf ----------------------
#
# Every side is a sum or a product over k of rationals made of linear factors
# in k, built at a prime p in fixed relative precision (Caruso, "Computations
# with p-adic numbers", arXiv:1701.06794); a composite modulus is read at each
# of its prime factors (see the verdicts).  A value is a triple (v, a, b)
# standing for p^v a / b, with v an exact integer, b a p-adic unit and a a
# p-adic integer, a and b known modulo p^R.  The value is then known modulo
# p^(v+R), and the arithmetic keeps that so, every residue reduced modulo p^R:
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
# digits is built at R = n; where its v is negative it is known modulo
# p^(v+n) only.  A linear factor that vanishes in a numerator makes that
# term and every later one 0, so a loop stops there.
#
# R = inf is the exact build, by the same loops: its modulus (_modulus) is
# _EXACT, whose reduction leaves a value as it is, so a and b are the exact
# products and sums, and the triple is the value itself.  The exact build
# decides only the slots that the digits cannot.


class _Exact:
    """The modulus p^R at R = inf: x % _EXACT is x."""

    __slots__ = ()

    def __rmod__(self, x):
        return x


_EXACT = _Exact()


def _modulus(p: int, precision):
    """p^precision, or _EXACT at precision inf."""
    return _EXACT if precision == inf else p**precision


class _Closed:
    """A closed form: adic(p, R) builds it at a prime p as a triple (v, a, b)
    modulo p^R, exactly at R = inf.

    Sums, products and powers of closed forms and rationals are closed
    forms.  As a left side a closed form is one truncation slot, with no end.
    """

    __slots__ = ("adic",)
    ends = (None,)

    def __init__(self, adic):
        self.adic = adic

    def adics(self, p: int, n) -> list[tuple[int, int, int]]:
        """[its triple at R = n]."""
        return [self.adic(p, n)]

    def __add__(self, other) -> "_Closed":
        other = _closed(other)
        return _Closed(
            lambda p, precision: _adic_sum(self.adic(p, precision), other.adic(p, precision), p, precision)
        )

    __radd__ = __add__

    def __mul__(self, other) -> "_Closed":
        other = _closed(other)

        def adic(p, precision):
            (v, a, b), (w, c, d) = self.adic(p, precision), other.adic(p, precision)
            modulus = _modulus(p, precision)
            return v + w, a * c % modulus, b * d % modulus

        return _Closed(adic)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "_Closed":
        def adic(p, precision):
            v, a, b = self.adic(p, precision)
            modulus = _modulus(p, precision)
            return v * e, a**e % modulus, b**e % modulus

        return _Closed(adic)


def _adic_sum(x, y, p: int, precision) -> tuple[int, int, int]:
    """x + y for two triples (v, a, b) at p, to the lesser v's precision."""
    if x[0] > y[0]:
        x, y = y, x
    (v, a, b), (w, c, d) = x, y
    modulus = _modulus(p, precision)
    return v, (a * d + p ** min(w - v, precision) * c * b) % modulus, b * d % modulus


def _closed(x) -> _Closed:
    """x as a closed form; a rational is read from its reduced numerator and
    denominator."""
    if isinstance(x, _Closed):
        return x
    a, b = x.as_integer_ratio()

    def adic(p, precision):
        if not a:
            return 0, 0, 1
        (i, u), (j, w) = split_power(a, p), split_power(b, p)
        modulus = _modulus(p, precision)
        return i - j, u % modulus, w % modulus

    return _Closed(adic)


def _ratio(a: int, b: int, c: int, d: int, length: int) -> _Closed:
    """prod_{i<length} (a + b i) / (c + d i)."""

    def adic(p, precision):
        modulus = _modulus(p, precision)
        v, u, w = 0, 1, 1
        for i in range(length):
            num, den = a + b * i, c + d * i
            if num % p == 0:
                if not num:
                    return 0, 0, 1
                e, num = split_power(num, p)
                v += e
            if den % p == 0:
                e, den = split_power(den, p)
                v -= e
            u, w = u * num % modulus, w * den % modulus
        return v, u, w

    return _Closed(adic)


def _fraction_sum(lo: int, hi: int, f) -> _Closed:
    """sum n_k/d_k over lo <= k < hi for f(k) = (n_k, d_k)."""

    def adic(p, precision):
        modulus = _modulus(p, precision)
        v, s, w = 0, 0, 1  # the sum so far, p^v s / w
        for k in range(lo, hi):
            num, den = f(k)
            e = 0
            if den % p == 0:
                e, den = split_power(den, p)
                if v > -e:
                    s, v = s * p ** (v + e) % modulus, -e
            s = (s * den + num * p ** (-e - v) * w) % modulus
            w = w * den % modulus
        return v, s, w

    return _Closed(adic)


def _harmonic(m: int, ell: int) -> _Closed:
    return _fraction_sum(1, m + 1, lambda k: (1, k**ell))


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
    return prime_factors(n) == ((n, 1),)


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
            e, u = split_power(t, p)
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
            e, u = split_power(i, p)
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


# The verdicts below read each side as its triple at each prime factor of p,
# built to a fixed precision or exactly (see _verdicts).  They read only
# remainders and valuations, so they take no gcd; a Fraction is built only to
# name a side in NotPIntegral.

# Digits read beyond p^k (e times as many at a prime factor q^e of p): the
# valuation witness comes from them unless the sides agree to all of them;
# then the slot is built again at twice the digits, and only where the sides
# agree to all of those is it built exactly.  Any count is exact; it only
# sets how often that happens.  On the benchmark's classical cases (seeds
# 1-10: 6,580 slots in 3,730 calls at prime p, 290 slots in 150 calls at
# composite p) the first digits decide every slot but the 88 whose sides are
# equal, all at prime p, which take all three builds.  Twice the digits
# decide COR_5_H at (d, r) = (3, -1) and s = 3, whose sides agree to 14 or 15
# digits at k = 8.  Every classical statement at the odd composites 9..63,
# s = 1 and 2, d <= 6 and r in -4..5 has 1,712 slots: 1,560 are decided by
# the first digits, 36 by twice as many, and 116, all with equal sides,
# exactly.
_SPARE_DIGITS = 6


def _valuation_result(v, k: int) -> CongruenceResult:
    if v >= k:
        return CongruenceResult(True, {"valuation": None if v == inf else int(v)})
    return CongruenceResult(False, {"valuation": int(v), "required": k})


def _gamma_verdict(x: int, form: _GammaForm, p: int, k: int) -> CongruenceResult:
    """Verified iff lhs == p^j * coef * prod Gamma_p(arg)^e modulo p**k, for
    prime p and j < k, from x, lhs modulo p^k: its residue p^-j lhs modulo
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


# -- truncated classical sums --------------------------------------------------


class _Series:
    """sum_k sign^k (2dk+r) ((r/d)_k / k!)^power, the one shape of the
    statements' truncated series."""

    __slots__ = ("d", "r", "power", "sign")

    def __init__(self, d: int, r: int, power: int, sign: int):
        self.d, self.r, self.power, self.sign = d, r, power, sign


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

    def adics(self, p: int, n) -> list[tuple[int, int, int]]:
        """One triple per slot: its sum at R = n (_series_residues)."""
        return _series_residues(self.series, self.ends, p, n)


def _series_residues(series: _Series, ends, p: int, n) -> list[tuple[int, int, int]]:
    """[(0, s, w) standing for sum_{0<=k<=m} of the series, one per m in ends]
    at prime p, with s and w modulo p^n, exact at n = inf.

    The running term t_k is p^v u / w with v exact and u, w units modulo
    p^n (see the sides' comment), and the sum so far is s / w.  Every term of
    the statements' series, a power of (r/d)_k / k! = (-1)^k binom(-r/d, k)
    with p not dividing d, which the catalog's checkers ensure, is
    p-integral, so v >= 0, the sum is known modulo p^n and a term with
    v >= n adds 0.
    """
    d, r, power, sign = series.d, series.r, series.power, series.sign
    modulus = _modulus(p, n)
    s, u, w, v, scale = 0, 1, 1, 0, 1  # scale = p^v, or 0 once v >= n
    x, y = r, d  # t_{k+1} / t_k = sign (x / y)^power, x = r + dk, y = d(k + 1)
    sums = []
    k = 0
    for end in ends:
        while k <= end:
            s += (2 * x - r) * u * scale
            x_unit, y_unit = x, y
            if x % p == 0:
                if not x:  # t_(k+1) and every later term are 0
                    return sums + [(0, s % modulus, w)] * (len(ends) - len(sums))
                e, x_unit = split_power(x, p)
                v += power * e
                scale = p**v if v < n else 0
            if y % p == 0:
                e, y_unit = split_power(y, p)
                v -= power * e
                scale = p**v if v < n else 0
            y_unit = y_unit**power
            u = sign * x_unit**power * u % modulus
            w, s = w * y_unit % modulus, s * y_unit % modulus
            x, y, k = x + d, y + d, k + 1
        sums.append((0, s, w))
    return sums


def _harmonic_tail_sum(d: int, r: int, length: int, scale: int, cube: int, term) -> _Closed:
    """sum_{k<=length} t_k (scale - cube * h_k), with t_0 = 1 and
    t_{k+1} / t_k = p(k) / q(k) for term(k) = (p(k), q(k)), and
    h_k = sum_{1<=j<=k} (1/(dj)^2 + 1/(dj-d+r)^2).
    """

    def adic(p, precision):
        # t_k = p^v u / w, h_k = p^vh g / e and the sum so far p^vs s / (w e),
        # each as in the sides' comment.
        modulus = _modulus(p, precision)
        (i, scale_unit), (j, cube_unit) = split_power(scale, p), split_power(cube, p)
        v, u, w = 0, 1, 1
        vh, g, e = 0, 0, 1
        vs, s = 0, 0
        low, x, y = min(i, j), p ** (i - min(i, j)), p ** (j - min(i, j))
        for k in range(length + 1):
            if k:
                a, b = (d * k) ** 2, (d * k - d + r) ** 2
                den, c = a * b, 0
                if den % p == 0:
                    c, den = split_power(den, p)
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
                c, num = split_power(num, p)
                v += c
            if den % p == 0:
                c, den = split_power(den, p)
                v -= c
            u, w, s = u * num % modulus, w * den % modulus, s * den % modulus
        return vs, s, w * e % modulus

    return _Closed(adic)


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


def verify_classical(p: int, k: int, lhs, rhs, ends) -> list[CongruenceResult]:
    """A catalog checker's lhs against rhs modulo p^k: one verdict per end.

    ends are the ends of the truncation slots to decide, in the order of
    lhs.ends; a closed left side is its one slot.  Side conditions are the
    caller's: a _GammaForm rhs needs a prime p.  The slots are decided from
    their first n = k + _SPARE_DIGITS digits at each prime factor of p; a
    slot those leave undecided is built again at 2n digits, and one that is
    still undecided exactly, at R = inf.
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    n = k + _SPARE_DIGITS
    if isinstance(lhs, _Truncations):
        lhs = _Truncations(lhs.series, tuple(ends))
    results = _verdicts(lhs, rhs, p, k, n)
    for digits in (2 * n, inf):
        undecided = [i for i, result in enumerate(results) if result is None]
        if not undecided:
            break
        if isinstance(lhs, _Truncations):
            lhs = _Truncations(lhs.series, tuple(ends[i] for i in undecided))
        for i, result in zip(undecided, _verdicts(lhs, rhs, p, k, digits)):
            results[i] = result
    return results


def _verdicts(lhs, rhs, p: int, k: int, digits) -> list[CongruenceResult | None]:
    """One verdict per slot of lhs (_Truncations or _Closed) against rhs.

    This is the one place that picks the precision: at each prime factor q^e
    of p each side is built as its first e * digits digits at q (k of them
    at a prime p against a Gamma_p product, which reads no more), exactly
    where digits is inf, and a slot is None where they cannot decide
    (_digit_verdict).  Exact sides decide every slot.
    """
    if isinstance(rhs, _GammaForm):
        precision = k if digits < inf else inf
        residues = [_residue(x, p, k, precision) for x in lhs.adics(p, precision)]
        return [x if x is None else _gamma_verdict(x, rhs, p, k) for x in residues]
    rhs = _closed(rhs)
    readings = [[] for _ in lhs.ends]
    for q, e in prime_factors(p):
        precision = e * digits
        y = rhs.adic(q, precision)
        for reading, x in zip(readings, lhs.adics(q, precision)):
            reading.append((q, e, precision, x, y))
    return [_digit_verdict(reading, k) for reading in readings]


# -- verdicts from the digits at each prime factor of p ----------------------------
#
# At p = prod q^e, v_p of a reduced fraction N/D counts the p^j dividing N
# less those dividing D, and p^j divides N when q^(e j) does for each q: so
#   v_p(N/D) = min_q floor(w_q+ / e) - min_q floor(w_q- / e),
# with w_q = v_q(N/D), w_q+ = max(w_q, 0) = v_q(N) and w_q- = max(-w_q, 0) =
# v_q(D).  A prime p is the one factor, e = 1, where this is w_p.  The count
# is not additive: 1/3 and 1/5 are 15-integral and their sum 8/15 is not.  A
# side is p-integral (v_p >= 0) exactly when some w_q > -e.


def _residue(x, p: int, n: int, precision) -> int | None:
    """The triple x built at R = precision, modulo p^n; None where v < 0
    leaves it known modulo p^(v+R) only.  An exact triple (R = inf) is
    p-integral there or raises NotPIntegral."""
    v, a, b = x
    if v < 0:
        if precision < inf:
            return None
        if _depth(x, p, precision)[0] < 0:
            raise _not_p_integral(x, p, p)
        v, a = 0, a // p**-v
    modulus = p**n
    return a * p**v * pow(b, -1, modulus) % modulus


def _not_p_integral(x, q: int, p: int) -> NotPIntegral:
    """NotPIntegral naming the reduced value of the exact triple x at q."""
    v, a, b = x
    value = Fraction(a * q**v, b) if v >= 0 else Fraction(a, b * q**-v)
    return NotPIntegral(f"{value} is not p-integral at p = {p}")


def _depth(x, q: int, precision) -> tuple[int, bool]:
    """(w, exact): w = v_q of the triple x = (v, a, b) with a known modulo
    q^precision, exact where a is nonzero there or precision is inf, else
    only a lower bound."""
    v, a, _ = x
    return (v + padic_valuation(a, q), True) if a else (v + precision, precision == inf)


def _factored_valuation(depths) -> int | None:
    """v_p(x) for p = prod q^e from depths [(e, w, exact)], one per prime
    factor q^e: w is v_q(x) where exact and a lower bound of it elsewhere.
    None where the bounds leave v_p(x) open (see the comment above)."""
    num = least = den = inf  # min floor(w+/e): exact, and a lower bound; min floor(w-/e)
    den_open = False
    for e, w, exact in depths:
        count = max(w, 0) // e if w < inf else inf  # inf // e is nan
        least = min(least, count)
        if exact:
            num = min(num, count)
        if exact or w > -e:  # a bound w > -e leaves D fewer than e factors q
            den = min(den, max(-w, 0) // e)
        else:
            den_open = True
    if num > least or (den_open and den):  # num is inf where no w is exact
        return None
    return num - den


def _digit_verdict(readings, k: int) -> CongruenceResult | None:
    """A slot's verdict from readings [(q, e, precision, x, y)], the two
    sides' triples x and y at each prime factor q^e of p, or None where they
    cannot decide: a side not shown p-integral, or a count of p in
    lhs - rhs that the digits leave open, as they do for equal sides.  Exact
    triples decide: a side that is not p-integral raises NotPIntegral, lhs
    first, and equal sides read v_p = inf."""
    depths, lhs_integral, rhs_integral = [], False, False
    for q, e, precision, x, y in readings:
        lhs_integral = lhs_integral or x[0] > -e or _depth(x, q, precision)[0] > -e
        rhs_integral = rhs_integral or y[0] > -e or _depth(y, q, precision)[0] > -e
        v, c, d = y
        gap = _adic_sum(x, (v, -c, d), q, precision)  # lhs - rhs
        depths.append((e, *_depth(gap, q, precision)))
    if not (lhs_integral and rhs_integral):
        if precision < inf:
            return None
        p = prod(q**e for q, e, *_ in readings)
        raise _not_p_integral(y if lhs_integral else x, q, p)
    v = _factored_valuation(depths)
    return None if v is None else _valuation_result(v, k)
