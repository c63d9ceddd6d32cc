"""Dense univariate polynomials and rational functions over exact rationals.

QPoly is represented as an integer coefficient array with one shared positive
denominator (canonical: no trailing zero coefficients, gcd(content, den) = 1).
This keeps the hot loops in pure integer arithmetic; Fractions appear only at
the API surface.  Multiplication uses schoolbook convolution below 24
coefficients and Kronecker substitution above, which delegates the work to
CPython's C-level big-integer multiplication.  Its digit width is a whole
number of bytes (Harvey, J. Symbolic Comput. 44, 2009), so packing and
unpacking are one int.to_bytes and int.from_bytes pass each, linear in the
length: every coefficient is offset by 2**(width-1) into an unsigned digit.

QRat is a reduced rational function: numerator and monic denominator with
gcd 1, normalized at construction.  A QRat from to_qrat may carry its
denominator's factored form q^j * prod key^e (QRat.form); adding two values
that both carry one reads g = gcd(b1, b2) off the exponent maps, multiplies
each numerator by the other side's cofactor keys, and trial-divides the sum
only by q and the keys of equal exponent (Henrici, J. ACM 3, 1956): no gcd is
taken, and the sum carries its own form.  Every other sum, and every QRat
product, takes polynomial gcds.  The kernels under it work on the integer
cores.  Polynomial gcd is GCDHEU (Char, Geddes and Gonnet, J. Symbolic
Comput. 7, 1989): the integer gcd of the primitive cores evaluated at
xi >= 2 min(|f|, |g|) + 2, read back as symmetric base-xi digits.  xi is
2**width with the width rounded up to whole bytes, so the same packing
serves, and rounding up keeps xi above the bound.  The candidate's
primitive part is the gcd exactly when trial division shows that it divides
both cores, and those trial divisions are the cofactors QRat reduces by.
After a few failed points, a constant gcd modulo a prime that divides
neither leading coefficient proves the cores coprime (Brown, J. ACM 18,
1971); otherwise the gcd falls back to a primitive PRS (polynomial
remainder sequence) over the integers.

Exact division has two kernels, and poly_try_div is the one place that picks
one.  A divisor whose binomial form prod_e (q^e - 1)^x_e its caller holds
-- a Modulus for its product and each factor named as a q-integer [n] or a
Phi_d, to_qrat, QRat sums and congruent's unit check for every Phi_d they
divide by -- is divided by binomial passes: one shifted subtraction per unit
of x_e < 0, then per unit of x_e > 0 a running sum over each residue class
mod e, exact iff the top e sums vanish.
That is O(2^omega(d) deg f) element steps in C for Phi_d.  Every other
divisor divides its primitive part through _divexact_int, which GCDHEU's
candidates use too.  By Gauss's lemma a primitive divisor divides over Q
only if it divides over Z, so the leading coefficient divides the top
coefficient at every step of an exact division: the first step where it
does not ends the attempt, and nothing is rescaled.  Only a remainder that
is wanted (poly_divrem, the PRS) goes through the fraction-free
long-division loop, which scales the remainder by lc / gcd(lc, top) where
the leading coefficient does not divide the top one.

Cyclotomic polynomials are built by the binomial passes of their Moebius
form, Phi_n = prod_{e | n} (q^e - 1)^mu(n/e), over the primes of n from
arith.prime_factors (which Capelli's test and _divisors, the split of [n]
and 1 -+ q^e into Phi_d, read too), and memoized for the life of the
process (the cache is only ever extended, so concurrent readers are safe).

QFactored keeps a rational function as c * q^j * N * prod key^e_key, the
form closed forms and partial sums are written in.  A key is an index d for
Phi_d or a monic binomial q^e - c, c != +-1, keyed by its polynomial.
binomial_parts is the one split of a factor 1 - c*q^e into a unit, a
q-power and such keys; Pochhammer products and qseries' sum denominators
are built from it.  QFactored itself only negates and adds, a sum expanding
both N over the smaller exponents; products, quotients and powers are
expr's, which adds and scales the exponent maps and takes no gcd.
_times_keys multiplies a polynomial by such a map in one pass, and divides
by the keys of negative exponent where the caller knows the quotient is
exact, as qseries' partial sums do; an inexact one raises.
to_qrat is the one reduction of a factored fraction: trial division of N by
every key of the denominator (binomial passes for the Phi_d), a gcd only for
the binomial keys that Capelli's theorem (binomial_reducible) shows
reducible, and the leftover denominator multiplied out; without such a key
the result carries the keys left as its form.  A sum with a QRat
continues in QRat arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd as igcd
from math import lcm as ilcm
from operator import neg, sub

from .arith import prime_factors
from .errors import DivisionByZeroPoly, NegativeLength

__all__ = [
    "QFactored",
    "QPoly",
    "QRat",
    "binomial_parts",
    "binomial_reducible",
    "cyclotomic",
    "cyclotomic_exponents",
    "cyclotomic_form",
    "pochhammer_parts",
    "poly_divrem",
    "poly_gcd",
    "poly_product",
    "q_integer",
    "q_integer_form",
]

_KRONECKER_THRESHOLD = 24


def _content(nums) -> int:
    g = 0
    for c in nums:
        if c:
            g = igcd(g, c)
            if g == 1:
                return 1
    return g


def _strip(nums: list[int]) -> list[int]:
    while nums and nums[-1] == 0:
        nums.pop()
    return nums


def _mul_schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _offset(step: int, count: int) -> int:
    """2**(width-1) at each of count digit positions, width = 8 * step bits:
    the offset that turns symmetric digits into unsigned ones."""
    return int.from_bytes((bytes(step - 1) + b"\x80") * count, "little")


def _pack(nums, width: int, top: int) -> int:
    """Value of the integer polynomial at q = 2**width, width a multiple of 8.

    top bounds |c| over nums.  When top < 2**(width-1), every c + 2**(width-1)
    is one unsigned width-bit digit: the digits are joined by int.to_bytes,
    read by one int.from_bytes, and the offset is subtracted again.  Wider
    coefficients (GCDHEU's larger operand) are split by index mod k, with
    k * width > top.bit_length(): each class packs at width k * width and is
    shifted into place.  Linear in the size of nums either way.
    """
    k = top.bit_length() // width + 1
    if k > 1:
        return sum(_pack(nums[r::k], k * width, top) << (r * width) for r in range(k))
    step = width >> 3
    half = 1 << (width - 1)
    data = b"".join([(c + half).to_bytes(step, "little") for c in nums])
    return int.from_bytes(data, "little") - _offset(step, len(nums))


def _unpack(value: int, width: int) -> list[int]:
    """Symmetric base-2**width digits of value, low order first, width a
    multiple of 8, trailing zeros stripped.

    The digits lie in [-2**(width-1), 2**(width-1)), so _unpack inverts _pack
    for every coefficient list in that range whose last entry is nonzero.
    Adding the offset makes every digit an unsigned byte string of one
    int.to_bytes, each read back by int.from_bytes.  A top nonzero digit at
    position i means |value| > 2**(i width - 2), so (value.bit_length() + 1)
    // width + 1 positions hold every digit.
    """
    step = width >> 3
    count = (value.bit_length() + 1) // width + 1
    data = (value + _offset(step, count)).to_bytes(step * count, "little")
    half = 1 << (width - 1)
    from_bytes = int.from_bytes
    return _strip([from_bytes(data[i : i + step], "little") - half for i in range(0, len(data), step)])


def _mul_kronecker(a, b):
    # The digit width, a whole number of bytes, is chosen so every
    # convolution coefficient fits with a sign bit.
    max_a = max(map(abs, a))
    max_b = max(map(abs, b))
    bound = max_a * max_b * min(len(a), len(b))
    width = (bound.bit_length() + 9) & -8
    return _unpack(_pack(a, width, max_a) * _pack(b, width, max_b), width)


def _mul_lists(a, b):
    if not a or not b:
        return []
    if len(a) < _KRONECKER_THRESHOLD or len(b) < _KRONECKER_THRESHOLD:
        return _mul_schoolbook(a, b)
    return _mul_kronecker(a, b)


def _exact(value) -> Fraction:
    """value as a Fraction; TypeError for anything but an int or a Fraction."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, got {value!r}")
    return Fraction(value)


class QPoly:
    """Dense polynomial in q over exact rationals."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs=()):
        """Build from an iterable of int or Fraction coefficients, low order
        first; any other coefficient raises TypeError."""
        fracs = [_exact(c) for c in coeffs]
        lcm = ilcm(*(f.denominator for f in fracs))
        self._init_canonical(_strip([f.numerator * (lcm // f.denominator) for f in fracs]), lcm)

    def _init_canonical(self, nums: list[int], den: int):
        if den < 0:
            den = -den
            nums = [-c for c in nums]
        if not nums:
            object.__setattr__(self, "_nums", ())
            object.__setattr__(self, "_den", 1)
            return
        if den != 1:
            g = igcd(_content(nums), den)
            if g > 1:
                nums = [c // g for c in nums]
                den //= g
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def _make(cls, nums: list[int], den: int) -> "QPoly":
        p = object.__new__(cls)
        p._init_canonical(_strip(list(nums)), den)
        return p

    @classmethod
    def zero(cls) -> "QPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "QPoly":
        return _ONE

    @classmethod
    def monomial(cls, exp: int, coeff=1) -> "QPoly":
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative")
        c = _exact(coeff)
        if c == 0:
            return _ZERO
        return cls._make([0] * exp + [c.numerator], c.denominator)

    @classmethod
    def const(cls, value) -> "QPoly":
        v = _exact(value)
        if v == 0:
            return _ZERO
        return cls._make([v.numerator], v.denominator)

    # -- inspection ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def is_one(self) -> bool:
        return self._nums == (1,) and self._den == 1

    def is_constant(self) -> bool:
        return len(self._nums) <= 1

    def is_monic(self) -> bool:
        return bool(self._nums) and self._nums[-1] == self._den

    @property
    def leading(self) -> Fraction:
        if not self._nums:
            return Fraction(0)
        return Fraction(self._nums[-1], self._den)

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._nums):
            return Fraction(self._nums[i], self._den)
        return Fraction(0)

    def trailing_order(self) -> int:
        """Multiplicity of q dividing the polynomial (0 for nonzero constant)."""
        for i, c in enumerate(self._nums):
            if c:
                return i
        return 0

    # -- arithmetic ----------------------------------------------------------

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self):
        return hash((self._nums, self._den))

    def __neg__(self):
        return QPoly._make([-c for c in self._nums], self._den)

    def _coerce(self, other):
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, da, b, db = self._nums, self._den, other._nums, other._den
        if da == db:
            den = da
            sa, sb = 1, 1
        else:
            den = ilcm(da, db)
            sa, sb = den // da, den // db
        n = max(len(a), len(b))
        out = [0] * n
        for i, c in enumerate(a):
            out[i] = c * sa
        for i, c in enumerate(b):
            out[i] += c * sb
        return QPoly._make(out, den)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly._make([c * other for c in self._nums], self._den)
        if isinstance(other, Fraction):
            num = other.numerator
            return QPoly._make([c * num for c in self._nums], self._den * other.denominator)
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self._nums or not other._nums:
            return _ZERO
        return QPoly._make(_mul_lists(self._nums, other._nums), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("QPoly power must be nonnegative; use QRat for inverses")
        result = _ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k; negative k divides and must be exact."""
        if k == 0 or not self._nums:
            return self
        if k > 0:
            return QPoly._make([0] * k + list(self._nums), self._den)
        if self.trailing_order() < -k:
            raise ValueError(f"shift by {k} is not exact")
        return QPoly._make(list(self._nums[-k:]), self._den)

    def monic(self) -> "QPoly":
        if not self._nums:
            raise DivisionByZeroPoly("zero polynomial has no monic scaling")
        lead = self._nums[-1]
        return QPoly._make([c * (1 if lead > 0 else -1) for c in self._nums], abs(lead))

    def __repr__(self):
        if not self._nums:
            return "QPoly(0)"
        parts = []
        for i in range(len(self._nums) - 1, -1, -1):
            c = self.coefficient(i)
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                mon = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        s = " + ".join(parts).replace("+ -", "- ")
        return f"QPoly({s})"


_ZERO = QPoly.__new__(QPoly)
_ZERO._init_canonical([], 1)
_ONE = QPoly.__new__(QPoly)
_ONE._init_canonical([1], 1)


def poly_divrem(f: QPoly, g: QPoly) -> tuple[QPoly, QPoly]:
    """Quotient and remainder with deg(rem) < deg(g); exact over the rationals."""
    if g.is_zero():
        raise DivisionByZeroPoly("polynomial division by zero")
    if f.degree < g.degree:
        return _ZERO, f
    quot, rem, scale = _divrem_int(f._nums, g._nums)
    # scale*F = quot*G + rem on the cores F = f*f._den, G = g*g._den.
    den = scale * f._den
    if g._den != 1:
        quot = [c * g._den for c in quot]
    return QPoly._make(quot, den), QPoly._make(rem, den)


def _divrem_int(a, b) -> tuple[list[int], list[int], int]:
    """Fraction-free division of integer cores: (quot, rem, scale) with
    scale*a == quot*b + rem and len(rem) <= len(b) - 1.

    The remainder (and the quotient so far) is scaled by lc / gcd(lc, top)
    only when the leading coefficient lc of b does not divide the top
    coefficient, so scale is 1 whenever b divides a over the integers.
    """
    db = len(b) - 1
    lc = b[-1]
    terms = [(j, y) for j, y in enumerate(b[:db]) if y]  # skips the zeros of sparse divisors
    rem = list(a)
    quot = [0] * (len(a) - db)
    scale = 1
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        t, r = divmod(c, lc)
        if r:
            m = abs(lc) // igcd(lc, c)
            scale *= m
            rem = [x * m for x in rem[:i]]
            quot = [x * m for x in quot]
            t = c * m // lc
        k = i - db
        quot[k] = t
        for j, y in terms:
            rem[k + j] -= t * y
    return quot, rem[:db], scale


def _binomial_div(nums, form) -> list[int] | None:
    """Integer core nums divided by prod_e (q^e - 1)^x_e, or None if inexact.

    form is a tuple of (e, x_e) pairs.  Each factor with x_e < 0 multiplies
    by (1 - q^e) once per unit of -x_e, one shifted subtraction.  Each factor
    with x_e > 0 then divides by (1 - q^e): the quotient h of f = (1 - q^e) h
    is h[i] = f[i] + h[i - e], a running sum over every residue class mod e,
    and the division is exact iff the top e sums vanish.  The sign of
    (q^e - 1) = -(1 - q^e) is applied once at the end.
    """
    out = list(nums)
    if not out:
        return out
    flips = 0
    for e, x in form:
        flips += x
        for _ in range(-x):
            pad = [0] * e
            out = list(map(sub, out + pad, pad + out))
    for e, x in form:
        for _ in range(x):
            n = len(out) - e
            if n <= 0:
                return None
            if e == 1:
                out = list(accumulate(out))
            else:
                for r in range(e):
                    out[r::e] = accumulate(out[r::e])
            if any(out[n:]):
                return None
            del out[n:]
    return list(map(neg, out)) if flips & 1 else out


def _divexact_int(a, b) -> list[int] | None:
    """Exact quotient a / b of integer cores, or None if b does not divide a.

    b must be primitive.  By Gauss's lemma a primitive b divides a over Q
    only if it divides it over Z, so then every quotient coefficient is an
    integer and lc(b) divides the top coefficient at every step: the first
    step where it does not proves that b does not divide a.  Nothing is ever
    rescaled.
    """
    db = len(b) - 1
    lc = b[-1]
    terms = [(j, y) for j, y in enumerate(b[:db]) if y]  # skips the zeros of sparse divisors
    rem = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        t, r = divmod(c, lc)
        if r:
            return None
        k = i - db
        quot[k] = t
        for j, y in terms:
            rem[k + j] -= t * y
    return None if any(rem[:db]) else quot


def poly_try_div(f: QPoly, g: QPoly, form=None):
    """Quotient if g divides f exactly, else None.

    This is where every exact division picks its kernel.  form is g's
    binomial form ((e, x_e), ...), g = prod_e (q^e - 1)^x_e, when the caller
    holds it (it named g as a q-integer or a Phi_d): then g goes through the
    binomial passes of _binomial_div.  Any other g divides its primitive part
    through _divexact_int.  With f = F / df and g = cg G / dg, G primitive, the
    quotient is (F / G) dg / (df cg).
    """
    if form is not None:
        nums = _binomial_div(f._nums, form)
        return None if nums is None else QPoly._make(nums, f._den)
    if g.is_zero():
        raise DivisionByZeroPoly("polynomial division by zero")
    cg = _content(g._nums)
    quot = _divexact_int(f._nums, [c // cg for c in g._nums] if cg > 1 else g._nums)
    if quot is None:
        return None
    if g._den != 1:
        quot = [c * g._den for c in quot]
    return QPoly._make(quot, f._den * cg)


def poly_product(polys) -> QPoly:
    """Product of the given polynomials by a balanced tree.

    Pairing operands of similar size keeps Kronecker multiplication busy on
    large operands instead of growing one product by a small factor at a time.
    """
    polys = list(polys)
    if not polys:
        return _ONE
    while len(polys) > 1:
        paired = [a * b for a, b in zip(polys[::2], polys[1::2])]
        if len(polys) % 2:
            paired.append(polys[-1])
        polys = paired
    return polys[0]


def _primitive(nums) -> list[int]:
    g = _content(nums)
    return [c // g for c in nums] if g > 1 else list(nums)


def _gcd_prs(a: list[int], b: list[int]) -> list[int]:
    """Gcd of two nonzero primitive integer cores by a primitive PRS."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_strip(_divrem_int(a, b)[1]))
    return a


_HEU_POINTS = 6


def _gcd_heu(a: list[int], b: list[int]):
    """GCDHEU on two nonzero primitive integer cores; None if every point fails.

    With xi >= 2 min(|a|, |b|) + 2, the primitive part h of the symmetric
    base-xi digits of gcd(a(xi), b(xi)) is the gcd of a and b if and only if
    h divides both (Char, Geddes and Gonnet 1989), so an accepted result is
    proved, not guessed.  xi = 2**width with width a whole number of bytes,
    rounded up from the bound at the first point and at every widening, so
    evaluation and interpolation are _pack and _unpack.  Returns (h, a / h,
    b / h) with h[-1] > 0: the trial divisions that prove h, by
    _divexact_int since h is primitive, also give the cofactors, and a
    candidate that fails is usually rejected at its first inexact step.
    """
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    bound = 2 * min(top_a, top_b) + 2
    width = ((bound - 1).bit_length() + 7) & -8
    for _ in range(_HEU_POINTS):
        h = _primitive(_unpack(igcd(_pack(a, width, top_a), _pack(b, width, top_b)), width))
        if len(h) == 1:
            return [1], a, b
        if h[-1] < 0:
            h = [-c for c in h]
        qa = _divexact_int(a, h)
        if qa is not None:
            qb = _divexact_int(b, h)
            if qb is not None:
                return h, qa, qb
        width = (width + width // 4 + 9) & -8
    return None


# Primes for the coprimality proof before the PRS (the Mersenne primes M31
# and M61); a leading coefficient divisible by one moves the proof to the next.
_COPRIME_PRIMES = (2**31 - 1, 2**61 - 1)


def _rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over GF(p), both reduced mod p, b[-1] != 0; trailing zeros stripped."""
    r = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            for k in range(db):
                r[i - db + k] = (r[i - db + k] - c * b[k]) % p
    del r[db:]
    return _strip(r)


def _coprime_mod(a: list[int], b: list[int]) -> bool:
    """Whether two nonconstant integer cores have a constant gcd modulo the
    first of _COPRIME_PRIMES that divides neither leading coefficient.

    Modulo such a prime the gcd has at least the degree of the gcd over the
    integers (Brown, J. ACM 18, 1971), so True proves a and b coprime; False
    proves nothing, and no usable prime gives False.
    """
    p = next((p for p in _COPRIME_PRIMES if a[-1] % p and b[-1] % p), None)
    if p is None:
        return False
    a, b = [c % p for c in a], [c % p for c in b]
    while len(b) > 1:
        a, b = b, _rem_mod(a, b, p)
    return bool(b)


def _gcd_cofactors(f: QPoly, g: QPoly) -> tuple[QPoly, QPoly, QPoly]:
    """(d, f / d, g / d) for the monic gcd d of two nonzero polynomials.

    GCDHEU on the primitive integer cores.  Where it fails, a constant gcd
    modulo a prime proves the cores coprime; otherwise a primitive PRS is
    the fallback, and gets its cofactors by one exact division each.
    """
    ca, cb = _content(f._nums), _content(g._nums)
    a = [c // ca for c in f._nums] if ca > 1 else list(f._nums)
    b = [c // cb for c in g._nums] if cb > 1 else list(g._nums)
    found = _gcd_heu(a, b)
    if found is None and _coprime_mod(a, b):
        found = [1], a, b
    elif found is None:
        h = _gcd_prs(a, b)
        if h[-1] < 0:
            h = [-c for c in h]
        found = h, _divexact_int(a, h), _divexact_int(b, h)
    h, qa, qb = found
    if len(h) == 1:
        return _ONE, f, g
    # f = (ca / f._den) a and d = h / lead, so f / d = (ca * lead / f._den) (a / h).
    lead = h[-1]
    sa, sb = ca * lead, cb * lead
    return (
        QPoly._make(h, lead),
        QPoly._make([c * sa for c in qa] if sa != 1 else qa, f._den),
        QPoly._make([c * sb for c in qb] if sb != 1 else qb, g._den),
    )


def poly_gcd(f: QPoly, g: QPoly) -> QPoly:
    """Monic gcd of two polynomials, by _gcd_cofactors unless one is zero."""
    if f.is_zero():
        return g.monic() if not g.is_zero() else _ZERO
    if g.is_zero():
        return f.monic()
    return _gcd_cofactors(f, g)[0]


@lru_cache(maxsize=1024)
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1 in increasing order, read off its factorisation."""
    out = [1]
    for q, e in prime_factors(n):
        out = [d * q**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def _rational_root(c: Fraction, p: int) -> bool:
    """Whether c is the p-th power of a rational."""
    if c < 0 and p % 2 == 0:
        return False
    for n in (abs(c.numerator), c.denominator):
        root = _iroot(n, p)
        if root**p != n:
            return False
    return True


def _iroot(n: int, p: int) -> int:
    """floor(n ** (1/p)) for n >= 0, by integer Newton steps from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // p)
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=256)
def binomial_reducible(c: Fraction, e: int) -> bool:
    """Whether q^e - c (equivalently 1 - c q^e) is reducible over Q.

    By Capelli's theorem it is reducible exactly when c = b^p for a prime
    p | e, or when 4 | e and c = -4 b^4.
    """
    if e % 4 == 0 and _rational_root(-c / 4, 4):
        return True
    return any(_rational_root(c, p) for p, _ in prime_factors(e))


_CYCLOTOMIC_CACHE: dict[int, QPoly] = {}


@lru_cache(maxsize=1024)
def cyclotomic_form(n: int) -> tuple[tuple[int, int], ...]:
    """Binomial form of Phi_n: Phi_n = prod_{e | n} (q^e - 1)^mu(n/e), one
    e per squarefree n/e."""
    primes = [p for p, _ in prime_factors(n)]
    pairs = []
    for mask in range(1 << len(primes)):
        e, x = n, 1
        for i, p in enumerate(primes):
            if mask >> i & 1:
                e //= p
                x = -x
        pairs.append((e, x))
    return tuple(sorted(pairs))


def q_integer_form(n: int) -> tuple[tuple[int, int], ...]:
    """Binomial form of [n] = (q^n - 1) / (q - 1)."""
    return ((1, -1), (n, 1))


def _require_index(n: int):
    if n < 1:
        raise ValueError(f"cyclotomic index must be positive, got {n}")


def cyclotomic(n: int) -> QPoly:
    """n-th cyclotomic polynomial Phi_n, by the binomial passes of its form.

    Memoized; the cache is only appended to, never mutated in place.
    """
    _require_index(n)
    hit = _CYCLOTOMIC_CACHE.get(n)
    if hit is not None:
        return hit
    form = cyclotomic_form(n)
    # Phi_n = 1 / prod_e (q^e - 1)^(-mu(n/e)), an exact division of 1.
    result = QPoly._make(_binomial_div([1], tuple((e, -x) for e, x in form)), 1)
    _CYCLOTOMIC_CACHE[n] = result
    return result


def _merge_forms(forms):
    """Binomial form of a product, from (form, multiplicity) pairs."""
    total: dict[int, int] = {}
    for form, mult in forms:
        for e, x in form:
            total[e] = total.get(e, 0) + x * mult
    return tuple(sorted((e, x) for e, x in total.items() if x))


def cyclotomic_exponents(form) -> tuple[tuple[int, int], ...]:
    """((d, k_d), ...) with prod_e (q^e - 1)^x_e = prod Phi_d^k_d for the
    binomial form ((e, x_e), ...): k_d = sum_{d | e} x_e."""
    exps: dict[int, int] = {}
    for e, x in form:
        for d in _divisors(e):
            exps[d] = exps.get(d, 0) + x
    return tuple((d, k) for d, k in sorted(exps.items()) if k)


@lru_cache(maxsize=1024)
def binomial_parts(c: Fraction, e: int) -> tuple[Fraction, int, tuple]:
    """1 - c*q^e as (unit, j, keys), j >= 0, the one split of such a factor:

        1 - c*q^e = unit * q^(-j) * prod_{key in keys} key.

    A key is an index d, standing for Phi_d, when c = +-1, and otherwise the
    monic binomial q^|e| - c' itself, a QPoly: the exponent-map keys of
    QFactored.  For e > 0, 1 - q^e = -prod_{d | e} Phi_d, 1 + q^e = prod Phi_d
    over the d | 2e that do not divide e, and 1 - c*q^e = -c (q^e - 1/c); for
    e < 0, 1 - c*q^e = q^e (q^-e - c).  At e = 0 or c = 0 the value is the
    unit 1 - c*q^e, which is 0 for e = 0, c = 1.
    """
    if e == 0 or c == 0:
        return 1 - c if e == 0 else 1, 0, ()
    f, j = abs(e), max(0, -e)
    if c == 1:
        return (-1 if e > 0 else 1), j, _divisors(f)
    if c == -1:
        return 1, j, tuple(d for d in _divisors(2 * f) if f % d)
    # q^f - u/v = (v q^f - u) / v from integer cores, with c' = 1/c for e > 0.
    u, v = (c.denominator, c.numerator) if e > 0 else (c.numerator, c.denominator)
    return (-c if e > 0 else 1), j, (QPoly._make([-u] + [0] * (f - 1) + [v], v),)


def pochhammer_parts(
    coeff: Fraction, exp: int, step: int, k: int, prefix=None
) -> tuple[Fraction, int, dict]:
    """(x; q^step)_k = prod_{i<k} (1 - x q^(step*i)) for x = coeff*q^exp as
    (c, j, exps), the fields of a QFactored with N = 1: every factor split by
    binomial_parts into the exponent map.

    prefix, when given, is (i, parts) with i <= k and parts what this call
    returned at length i for the same x and step: only the factors i..k-1
    are split, into a copy of its map."""
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    if k < 0:
        raise NegativeLength(f"Pochhammer length {k} is negative")
    start, (c, j, exps) = prefix or (0, (Fraction(1), 0, {}))
    exps = dict(exps)
    for i in range(start, k):
        unit, shift, keys = binomial_parts(coeff, exp + step * i)
        c *= unit
        j -= shift
        for key in keys:
            exps[key] = exps.get(key, 0) + 1
    return c, j, exps


def q_integer(r: int):
    """q-integer [r] = (1 - q^r)/(1 - q); QPoly for r >= 0, QRat for r < 0."""
    if r >= 0:
        return QPoly._make([1] * r, 1)
    j = -r
    return QRat._raw(QPoly._make([-1] * j, 1), QPoly.monomial(j))


class QRat:
    """Reduced rational function: numerator over a monic denominator, gcd 1.

    Every public constructor and operation returns lowest terms, which
    congruence.congruent relies on; _raw is private and trusts its caller.

    form is the factored denominator (j, exps), den = q^j * prod key^e over
    exps, every e > 0 and every key irreducible (an index d for Phi_d or an
    irreducible monic binomial, as in QFactored), or None when it is not
    known.  to_qrat and the sum of two such values set it, and negation,
    scaling by a constant and addition of a polynomial keep it.  While form
    is known, den is not multiplied out until something reads it: the first
    read builds it, once, and keeps it.  congruent reads only num of a
    difference that verifies, so that difference's den is never built.
    """

    __slots__ = ("num", "_den", "form")

    def __init__(self, num, den=None):
        if not isinstance(num, QPoly):
            num = QPoly.const(num)
        if den is None:
            den = _ONE
        elif not isinstance(den, QPoly):
            den = QPoly.const(den)
        if den.is_zero():
            raise DivisionByZeroPoly("rational function with zero denominator")
        if not den.is_one() and not num.is_zero():
            g, num_r, den_r = _gcd_cofactors(num, den)
            if g.degree > 0:
                num, den = num_r, den_r
        if num.is_zero():
            den = _ONE
        elif not den.is_monic():
            lead = den.leading
            den = den * (1 / lead)
            num = num * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "form", None)

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    @classmethod
    def _raw(cls, num: QPoly, den: QPoly | None, form=None) -> "QRat":
        """Trusted constructor: den monic (or one), gcd(num, den) = 1, and
        form is den's factored form or None; den may be None when form is
        known, and is then built on first read."""
        r = object.__new__(cls)
        zero = num.is_zero()
        if zero or form == (0, {}):
            den = _ONE
        object.__setattr__(r, "num", num)
        object.__setattr__(r, "_den", den)
        object.__setattr__(r, "form", None if zero else form)
        return r

    @property
    def den(self) -> QPoly:
        """The monic denominator; the one place a form is multiplied out."""
        den = self._den
        if den is None:
            j, exps = self.form
            den = _times_keys(_ONE, exps).shift(j)
            object.__setattr__(self, "_den", den)
        return den

    def _den_is_one(self) -> bool:
        # an unbuilt den has a form other than (0, {}), so it is not one
        return self._den is not None and self._den.is_one()

    @classmethod
    def from_value(cls, v) -> "QRat":
        if isinstance(v, QRat):
            return v
        if isinstance(v, QPoly):
            return cls._raw(v, _ONE)
        return cls._raw(QPoly.const(v), _ONE)

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, QRat):
            return other
        if isinstance(other, (QPoly, int, Fraction)):
            return QRat.from_value(other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __neg__(self):
        return QRat._raw(-self.num, self._den, self.form)

    def __add__(self, other):
        """The reduced sum.  Where both denominators carry their form, the
        sum is _add_factored's, with no gcd; otherwise GCDHEU gives
        g = gcd(b1, b2) and its cofactors, and the numerator is reduced
        against g by a second gcd.  x + 0 and 0 + x are x itself."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        if self._den_is_one():
            if other._den_is_one():
                return QRat._raw(self.num + other.num, _ONE)
            return QRat._raw(self.num * other.den + other.num, other.den, other.form)
        if other._den_is_one():
            return QRat._raw(self.num + other.num * self.den, self.den, self.form)
        if self.form is not None and other.form is not None:
            return self._add_factored(other)
        a1, b1, a2, b2 = self.num, self.den, other.num, other.den
        g, b1r, b2r = _gcd_cofactors(b1, b2)
        if g.degree == 0:
            return QRat._raw(a1 * b2 + a2 * b1, b1 * b2)
        num = a1 * b2r + a2 * b1r
        if num.is_zero():
            return _QRAT_ZERO
        h, num_r, g_r = _gcd_cofactors(num, g)
        if h.degree > 0:
            num, g = num_r, g_r
        return QRat._raw(num, g * b1r * b2r)

    __radd__ = __add__

    def _add_factored(self, other) -> "QRat":
        """self + other from the two factored denominators (Henrici, J. ACM 3,
        1956), with gcd(b1, b2) read off the exponent maps, not computed.

        The keys are pairwise coprime irreducibles, all prime to q (a binomial
        q^e - c, c != +-1, has no root on the unit circle, so it is prime to
        every Phi_d).  So g = gcd(b1, b2) = q^min(j) prod key^min(e, e'), and
        b1/g, b2/g are the cofactor maps.  The numerator
        num = a1 (b2/g) + a2 (b1/g) multiplies each a by the other side's
        cofactor keys in one _times_keys pass, never forming b/g.  With both
        sides in lowest terms num is prime to b1/g and b2/g, so only q and the
        keys with e = e', which divide neither cofactor, can divide it, each
        at most to its exponent in g: trial division by those alone reduces
        the sum.  Its denominator, b1 b2 / g less what cancelled, is returned
        as its form alone; it is multiplied out only if something reads den.
        """
        (j1, exps1), (j2, exps2) = self.form, other.form
        j = min(j1, j2)
        g = {key: min(e, exps2[key]) for key, e in exps1.items() if key in exps2}
        cof1 = {key: e - g.get(key, 0) for key, e in exps1.items() if e > g.get(key, 0)}
        cof2 = {key: e - g.get(key, 0) for key, e in exps2.items() if e > g.get(key, 0)}
        num = _times_keys(self.num, cof2).shift(j2 - j) + _times_keys(other.num, cof1).shift(j1 - j)
        if num.is_zero():
            return _QRAT_ZERO
        t = min(num.trailing_order(), j)
        num = num.shift(-t)
        cancelled = {}
        for key, e in g.items():
            if exps1[key] == exps2[key]:
                num, n = _divide_key(num, key, e)
                if n:
                    cancelled[key] = -n
        exps = _add_exps(_add_exps(exps1, cof2), cancelled)
        return QRat._raw(num, None, (j1 + j2 - j - t, exps))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QRat._raw(self.num * Fraction(other), self._den, self.form)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.num, self.den, other.num, other.den
        if a1.is_zero() or a2.is_zero():
            return _QRAT_ZERO
        if not b2.is_one():
            g, a1_r, b2_r = _gcd_cofactors(a1, b2)
            if g.degree > 0:
                a1, b2 = a1_r, b2_r
        if not b1.is_one():
            g, a2_r, b1_r = _gcd_cofactors(a2, b1)
            if g.degree > 0:
                a2, b1 = a2_r, b1_r
        return QRat._raw(a1 * a2, b1 * b2)

    __rmul__ = __mul__

    def inverse(self) -> "QRat":
        if self.num.is_zero():
            raise DivisionByZeroPoly("inverse of zero rational function")
        num, den = self.den, self.num
        lead = den.leading
        if lead != 1:
            inv = 1 / lead
            num, den = num * inv, den * inv
        return QRat._raw(num, den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        if e == 0:
            return _QRAT_ONE
        base = self if e > 0 else self.inverse()
        e = abs(e)
        result = _QRAT_ONE
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __repr__(self):
        if self.den.is_one():
            return f"QRat({self.num!r})"
        return f"QRat({self.num!r} / {self.den!r})"


_QRAT_ZERO = QRat._raw(_ZERO, _ONE)
_QRAT_ONE = QRat._raw(_ONE, _ONE)


def _times_keys(f: QPoly, exps: dict) -> QPoly:
    """f * prod key^k over exps; a k < 0 divides, and the quotient must be
    exact.

    Binomial keys with k > 0 are multiplied in by a product tree, and those
    with k < 0 divided out by one poly_try_div by their product.  The Phi_d
    go in by binomial passes: their product's form prod_e (q^e - 1)^x_e
    merges their signed Moebius forms, and _binomial_div by its negation
    multiplies by every factor with x_e > 0 before it divides by those with
    x_e < 0.  With every k >= 0 each division is exact by construction; an
    inexact quotient is a caller's error and raises ArithmeticError.
    """
    up, down = [], []
    for key, k in exps.items():
        if isinstance(key, QPoly):
            (up if k > 0 else down).extend([key] * abs(k))
    if up:
        f = f * poly_product(up)
    if down:
        f = poly_try_div(f, poly_product(down))
        if f is None:
            raise ArithmeticError("binomial keys do not divide exactly")
    form = _merge_forms(
        (cyclotomic_form(d), k) for d, k in exps.items() if not isinstance(d, QPoly)
    )
    if not form:
        return f
    nums = _binomial_div(f._nums, tuple((e, -x) for e, x in form))
    if nums is None:
        raise ArithmeticError("cyclotomic keys do not divide exactly")
    return QPoly._make(nums, f._den)


def _divide_key(num: QPoly, key, e: int) -> tuple[QPoly, int]:
    """(num / key^n, n) for the largest n <= e with key^n | num, by trial
    divisions: binomial passes for a Phi_d, the general kernel for a
    binomial key."""
    f, form = (key, None) if isinstance(key, QPoly) else (cyclotomic(key), cyclotomic_form(key))
    n = 0
    while n < e and not num.is_one():
        quotient = poly_try_div(num, f, form)
        if quotient is None:
            break
        num, n = quotient, n + 1
    return num, n


def _add_exps(a: dict, b: dict) -> dict:
    """Exponent map of a product, zero exponents dropped."""
    out = dict(a)
    for d, e in b.items():
        total = out.get(d, 0) + e
        if total:
            out[d] = total
        else:
            del out[d]
    return out


class QFactored:
    """A rational function kept as c * q^j * N * prod_key key^e_key.

    c is a Fraction (an int is converted, anything else raises TypeError),
    j an integer, N a QPoly with N(0) != 0 (the constant 1 unless a sum made
    it), and exps maps each key to its exponent e != 0: an int d stands for
    Phi_d, a QPoly for a monic binomial q^e - c, c != +-1, as binomial_parts
    makes them.  Add expands both N over the smaller exponent of each key
    and q, and with a QRat continues in QRat arithmetic; there is no
    subtraction, since expr builds a - b as a + (-b).  There is no product
    either: expr's _product accumulates the fields of the one QFactored it
    builds, and is the one place that falls back to QRat.  to_qrat gives the
    canonical reduced QRat of the value.
    """

    __slots__ = ("c", "j", "N", "exps")

    def __init__(self, c, j: int = 0, N: QPoly = _ONE, exps=None):
        """Normalized value: N carries no q-power, a constant N is folded
        into c, and a binomial N = a(1 - c'q^f), c' = +-1, is split into
        cyclotomics.  Other binomials stay in N: as keys, every later Add
        would multiply them out again."""
        if not isinstance(c, Fraction):
            c = _exact(c)
        exps = {} if exps is None else exps
        if not c or N.is_zero():
            c, j, N, exps = Fraction(0), 0, _ONE, {}
        elif N is not _ONE:
            shift = N.trailing_order()
            if shift:
                N, j = N.shift(-shift), j + shift
            terms = len(N._nums) - N._nums.count(0)
            if terms == 1:
                c, N = c * N.coefficient(0), _ONE
            elif terms == 2 and abs(N._nums[0]) == abs(N._nums[-1]):
                unit, _, keys = binomial_parts(-N._nums[-1] // N._nums[0], N.degree)
                c, N = c * unit * N.coefficient(0), _ONE
                exps = _add_exps(exps, dict.fromkeys(keys, 1))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, name, value):
        raise AttributeError("QFactored is immutable")

    @classmethod
    def q_integer(cls, r: int) -> "QFactored":
        """[r] = prod_{d | r, d > 1} Phi_d, and [r] = -q^r [-r] for r < 0."""
        if not r:
            return _FACTORED_ZERO
        return cls(-1 if r < 0 else 1, min(r, 0), _ONE, {d: 1 for d in _divisors(abs(r)) if d > 1})

    @classmethod
    def cyclotomic(cls, n: int) -> "QFactored":
        _require_index(n)
        return cls(1, 0, _ONE, {n: 1})

    def __neg__(self):
        return QFactored(-self.c, self.j, self.N, self.exps)

    def __add__(self, other):
        if isinstance(other, QRat):
            return self.to_qrat() + other
        if not isinstance(other, QFactored):
            return NotImplemented
        if not other.c:
            return self
        if not self.c:
            return other
        if self.j == other.j and self.N is other.N is _ONE and self.exps == other.exps:
            return QFactored(self.c + other.c, self.j, _ONE, self.exps)
        j = min(self.j, other.j)
        exps = {}
        for d in self.exps.keys() | other.exps.keys():
            e = min(self.exps.get(d, 0), other.exps.get(d, 0))
            if e:
                exps[d] = e
        return QFactored(1, j, self._expand(j, exps) + other._expand(j, exps), exps)

    __radd__ = __add__

    def _expand(self, j: int, exps: dict) -> QPoly:
        """self / (q^j prod key^exps_key) as one polynomial; needs the
        exponents of self to be at least j and exps."""
        N = self.N
        if self.exps != exps:
            keys = self.exps.keys() | exps.keys()
            N = _times_keys(N, {d: self.exps.get(d, 0) - exps.get(d, 0) for d in keys})
        return (N * self.c).shift(self.j - j)

    def to_qrat(self) -> QRat:
        """The reduced QRat.

        The binomial keys of the numerator are multiplied into N, and N is
        trial-divided by every key of the denominator, the Phi_d by binomial
        passes.  Trial division is complete for irreducible keys, and the
        numerator's Phi_d are coprime to the denominator.  A binomial key that
        Capelli's theorem (binomial_reducible) shows reducible can share a
        proper factor with N, so those keys alone pay a gcd each: cancelling
        gcd(N, f) one key at a time leaves N coprime to what remains of every
        key, since binomials q^e - c are squarefree, and reducing N modulo
        the small key first keeps the gcd small.  Without such a key the
        result carries its denominator's form alone: q^max(-j, 0) and the
        keys left, whose gcds QRat addition reads off; the denominator is
        multiplied out only if something reads den.
        """
        if not self.c:
            return _QRAT_ZERO
        numer = {key: e for key, e in self.exps.items() if e > 0}
        num = _times_keys(self.N, {key: e for key, e in numer.items() if isinstance(key, QPoly)})
        denom: dict = {}
        shared: list[QPoly] = []
        for key, e in self.exps.items():
            if e > 0:
                continue
            num, n = _divide_key(num, key, -e)
            e = -e - n
            if e and isinstance(key, QPoly) and binomial_reducible(-key.coefficient(0), key.degree):
                shared.extend([key] * e)
            elif e:
                denom[key] = e
        rest = []
        for f in shared:
            g = poly_gcd(poly_divrem(num, f)[1], f)
            if g.degree > 0:
                num, f = poly_try_div(num, g), poly_try_div(f, g)
            rest.append(f)
        numerator = _times_keys(num, {d: e for d, e in numer.items() if not isinstance(d, QPoly)})
        if self.c != 1:
            numerator = numerator * self.c
        numerator, j = numerator.shift(max(self.j, 0)), max(-self.j, 0)
        if not rest:
            return QRat._raw(numerator, None, (j, denom))
        return QRat._raw(numerator, _times_keys(poly_product(rest), denom).shift(j))

    def __repr__(self):
        return f"QFactored({self.c}, q^{self.j}, {self.N!r}, {self.exps})"


_FACTORED_ZERO = QFactored(0)
