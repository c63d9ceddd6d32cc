"""q-shifted factorials and truncated basic hypergeometric sums.

A TermSpec describes the k-th summand of a truncated series

    [2dk + r] * prod_i (x_i; q^s_i)_k / prod_j (y_j; q^t_j)_k * z^k

where every Pochhammer argument and z is a rational multiple of a q-power
(possibly with negative exponent).  well_poised_spec builds the one
very-well-poised family that every catalog sum and every identity but
q-Chu-Vandermonde truncates.  truncated_sum_prefixes evaluates partial
sums exactly, and this module does nothing else: closed forms live in
catalog, and expressions' Pochhammer products in polyring.pochhammer_parts.

A partial sum is summed by binary splitting (arith.binary_split, the kernel
padic sums classical series with) over a *factored* common denominator:
polyring.binomial_parts splits every factor 1 - x q^e, numerator and
denominator alike, into a unit, a q-power and the keys of QFactored,
cyclotomic indices for coefficients +-1 and monic binomials otherwise, and
each side's keys are multiplied in by one polyring._times_keys (binomial
passes for the Phi_d).  The same maps bound the reduced denominator: term
k's exponent of a key is the numerator's minus the denominator's through
index k - 1, plus one for each Phi_d of its [2dk + r], so every nonzero
term's denominator divides prod key^lam, lam the largest such -exponent.
The rest of the chained denominator therefore divides the sum's numerator
exactly and is divided out in one _times_keys pass, which raises if it is
not exact.  What is left goes to QFactored.to_qrat, the one reduction of a
factored fraction: trial division by the keys, a gcd only for binomials
that Capelli's theorem shows reducible, and the leftover denominator
multiplied out.  Those trial divisions fail, unless the sum cancels more
than its terms show, as a terminating sum can.

truncated_sum_prefixes, the entry point of every sum, keeps a per-process
cache of partial sums keyed on the (frozen, hashable) TermSpec, beside
polyring's _CYCLOTOMIC_CACHE.  Catalog statements share a few series across
n and slots, so a sweep extends one partial sum by merging it with the next
range instead of summing again from k = 0, and a repeated (spec, order) is a
lookup.  The cache is a bounded LRU over specs (sampled parameters make
every spec new), holds nothing at import, and lives per process, hence per
pool worker.  Sums are exact and reduced values unique, so cached and fresh
results are equal.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

from .arith import binary_split
from .errors import (
    DegenerateParameters,
    NegativeLength,
    ZeroDenominatorFactor,
)
from .polyring import QFactored, QPoly, QRat, _exact, _times_keys, binomial_parts

__all__ = [
    "QMonomialArg",
    "TermSpec",
    "truncated_sum_prefixes",
    "well_poised_spec",
]


@dataclass(frozen=True)
class QMonomialArg:
    """A rational multiple of a q-power: coeff * q**exp (exp may be negative)."""

    coeff: Fraction
    exp: int

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", _exact(self.coeff))


def qma(coeff, exp: int) -> QMonomialArg:
    return QMonomialArg(coeff, exp)


@dataclass(frozen=True)
class TermSpec:
    """Shape of the k-th summand; see the module docstring.

    numer/denom pair each argument with its own step.  d and r drive the
    [2dk + r] linear factor when linear_factor is set, for d >= 0.
    """

    d: int
    r: int
    numer: tuple[tuple[QMonomialArg, int], ...]
    denom: tuple[tuple[QMonomialArg, int], ...]
    z: QMonomialArg
    linear_factor: bool = True

    def __hash__(self):
        # The sum cache hashes a spec on every lookup and store, and the
        # field hash walks every nested argument, so it is computed once.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.d, self.r, self.numer, self.denom, self.z, self.linear_factor))
            object.__setattr__(self, "_hash", h)
        return h


def well_poised_spec(d: int, r: int, a=1, b=1, c=1) -> TermSpec:
    """The very-well-poised term of which every catalog sum is a truncation:

        [2dk + r] * prod_{x=a,b} (x q^r, q^r/x; q^d)_k / (q^d/x, x q^d; q^d)_k
                  * (c q^r, q^r; q^d)_k / (q^d/c, q^d; q^d)_k * (q^(2d-3r)/c)^k

    a, b and c are nonzero rationals or QMonomialArgs, so a = q^-n makes the
    series terminate.  c = -1 gives the alternating quartic shape at
    (d, r) = (2, 1), since (-q, q; q^2)_k = (q^2; q^4)_k.
    """
    a, b, c = (x if isinstance(x, QMonomialArg) else qma(x, 0) for x in (a, b, c))

    def times(x, e):  # x q^e
        return qma(x.coeff, x.exp + e)

    def over(x, e):  # q^e / x
        return qma(1 / x.coeff, e - x.exp)

    numer = (times(a, r), over(a, r), times(b, r), over(b, r), times(c, r), qma(1, r))
    denom = (over(a, d), times(a, d), over(b, d), times(b, d), over(c, d), qma(1, d))
    return TermSpec(
        d, r, tuple((x, d) for x in numer), tuple((x, d) for x in denom), over(c, 2 * d - 3 * r)
    )


def _split_factors(args, i: int) -> tuple[Fraction, int, dict]:
    """prod (1 - x q^(step i)) over the (x, step) in args as (unit, j, exps),
    each factor split by binomial_parts: the product is unit * q^(-j) *
    prod key^exps[key] over the keys of QFactored."""
    unit, j, exps = Fraction(1), 0, {}
    for arg, step in args:
        u, shift, keys = binomial_parts(arg.coeff, arg.exp + step * i)
        unit *= u
        j += shift
        for key in keys:
            exps[key] = exps.get(key, 0) + 1
    return unit, j, exps


class _PartialSum:
    """The partial sum over 0 <= k < self.k of a TermSpec series.

    Term k is a_k * prod_{0<i<=k} p_i/q_i: p_i/q_i folds the factors with
    index i - 1, and a_k = q^J [2dk + r], J = max(0, -r), has no negative
    q-power.  binary_split over the leaves (p_k, q_k, a_k p_k), p_0 = q_0 = 1,
    gives sum = T / (q^qpow * prod key^mult over den), q^J included, with
    the keys of QFactored: an index d for Phi_d or a monic binomial.

    As the leaves are built in increasing k, net holds the key exponents of
    prod_{0<i<=k} p_i/q_i and lam the largest denominator exponent of a
    nonzero term.  A term is 0 when its [2dk + r] is [0], or once a
    numerator factor was 0 (dead), as past the end of a terminating sum.
    """

    def __init__(self, spec: TermSpec):
        if spec.linear_factor and spec.d < 0:
            raise ValueError(f"d must be nonnegative with a linear factor, got {spec.d}")
        self.spec = spec
        self.P = QPoly.one()
        self.T = QPoly.zero()
        self.den: dict = {}
        self.net: dict = {}  # key exponents of the next term's product
        self.lam: dict = {}  # largest denominator exponent of a nonzero term
        self.dead = False  # a numerator factor was 0: every later term is 0
        self.qpow = max(0, -spec.r) if spec.linear_factor else 0
        self.k = 0  # next term index

    def _ratio(self, i: int) -> tuple[QPoly, QPoly]:
        """(p, q) of the factors with index i; records q's keys and q-power.

        Both sides are split by binomial_parts: the units and z's
        coefficient go into p, each side's q^(-j) into the other side, and
        each side's keys are multiplied in by _times_keys.
        """
        spec = self.spec
        nunit, nshift, numer = _split_factors(spec.numer, i)
        dunit, dshift, denom = _split_factors(spec.denom, i)
        if not dunit:
            raise ZeroDenominatorFactor("denominator factor 1 - q^0 is zero")
        if spec.z.coeff == 0:
            raise DegenerateParameters("z coefficient is zero")
        pshift, qshift = dshift + max(spec.z.exp, 0), nshift + max(-spec.z.exp, 0)
        den, net = self.den, self.net
        for key, k in numer.items():
            net[key] = net.get(key, 0) + k
        for key, k in denom.items():
            den[key] = den.get(key, 0) + k
            net[key] = net.get(key, 0) - k
        self.dead = self.dead or not nunit
        self.qpow += qshift
        p = _times_keys(QPoly.const(nunit / dunit * spec.z.coeff), numer)
        return p.shift(pshift), _times_keys(QPoly.one(), denom).shift(qshift)

    def _bound(self, m: int):
        """Raise lam to the denominator exponents of the term whose product
        has the exponents net and whose [m] = prod_{d | m, d > 1} Phi_d
        (m = 1 without a linear factor); a zero term changes nothing."""
        if self.dead or not m:
            return
        lam = self.lam
        for key, e in self.net.items():
            if e < 0:
                e = -e - (isinstance(key, int) and key > 1 and m % key == 0)
                if e > lam.get(key, 0):
                    lam[key] = e

    def _leaf(self, k: int) -> tuple[QPoly, QPoly, QPoly]:
        spec = self.spec
        p, q = self._ratio(k - 1) if k else (QPoly.one(), QPoly.one())
        if not spec.linear_factor:
            self._bound(1)
            return p, q, p
        # q^J [m] = +-(q^lo + ... + q^(hi-1)), with [m] = -q^m [-m] for m < 0
        m = 2 * spec.d * k + spec.r
        self._bound(m)
        lo, hi = sorted((max(0, -spec.r), max(0, -spec.r) + m))
        return p, q, QPoly._make([0] * lo + [1 if m > 0 else -1] * (hi - lo), 1) * p

    def extend(self, hi: int):
        """Add the terms self.k <= k < hi, hi > self.k."""
        p, q, t = binary_split(self.k, hi, self._leaf)
        self.T = self.T * q + self.P * t
        self.P = self.P * p
        self.k = hi

    def value(self) -> QRat:
        """Reduced value of the partial sum; does not disturb state.

        Every nonzero term's denominator divides prod key^lam, so the rest
        of the chained denominator, prod key^(den - lam), divides T exactly
        and is divided out in one _times_keys pass; an inexact quotient
        raises ArithmeticError.  to_qrat then only proves that nothing more
        cancels.
        """
        lam = self.lam
        T = _times_keys(self.T, {key: lam.get(key, 0) - mult for key, mult in self.den.items()})
        return QFactored(1, -self.qpow, T, {key: -e for key, e in lam.items()}).to_qrat()


class _EngineCache:
    """Per-process LRU of (partial sum, values by order), keyed on TermSpec.

    A call takes its entry out of the dict and puts it back only when it
    returns normally, so two threads never extend one partial sum, and a
    call that raises (say at a vanishing denominator factor) leaves no
    half-extended state behind: the next call starts again and raises the
    same error at the same term.
    """

    def __init__(self, size: int):
        self.size = size
        self._entries: OrderedDict[TermSpec, tuple[_PartialSum, dict[int, QRat]]] = OrderedDict()
        self._lock = threading.Lock()

    def take(self, spec: TermSpec):
        with self._lock:
            return self._entries.pop(spec, None)

    def put(self, spec: TermSpec, entry: tuple[_PartialSum, dict[int, QRat]]):
        with self._lock:
            self._entries[spec] = entry
            if len(self._entries) > self.size:
                self._entries.popitem(last=False)


# Catalog statements share a handful of series (THM_A and GWY the quartic,
# THM_B, THM_C, GS_16 and LEM_OO the cubic), while sampled parameters make
# every spec new, so the cache must be bounded.  On the perfbench q_closed
# case lists a spec comes back at most five other specs later.
_ENGINES = _EngineCache(8)


def _advance(state: _PartialSum, orders: list[int], out: dict[int, QRat]):
    """Extend state through each of orders in turn, storing its value in out."""
    for m in orders:
        state.extend(m + 1)
        out[m] = state.value()


def truncated_sum_prefixes(spec: TermSpec, orders) -> dict[int, QRat]:
    """Partial sums sum_{k=0}^{M} term_k for each M in orders.

    The partial sum for spec and its values are cached (see _EngineCache): a
    higher order extends the cached sum from where it stopped, a repeated
    order is a lookup, and an order behind it that was never asked for gets
    one private pass from k = 0.
    """
    orders = sorted(set(orders))
    if not orders:
        return {}
    if orders[0] < 0:
        raise NegativeLength(f"truncation order {orders[0]} is negative")
    state, known = _ENGINES.take(spec) or (_PartialSum(spec), {})
    missing = [m for m in orders if m not in known]
    behind = [m for m in missing if m < state.k]
    if behind:
        _advance(_PartialSum(spec), behind, known)
    _advance(state, missing[len(behind) :], known)
    _ENGINES.put(spec, (state, known))
    return {m: known[m] for m in orders}

