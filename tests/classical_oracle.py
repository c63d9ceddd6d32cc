"""A plain-Fraction oracle for the classical sides.

Each side is evaluated term by term from its definition, with none of
padic's loops: a truncated series from _Series.term, and a closed form by
building it with padic's three closed-form kernels (_ratio, _fraction_sum
and _harmonic_tail_sum) replaced by evaluations of their docstrings below,
so that every closed form built from them is a Fraction.  Each evaluation
keeps its sums and products as integer numerators over one running
denominator, with no p split off and nothing reduced, and reduces once at
the end.
"""

from fractions import Fraction
from math import prod
from unittest import mock

from qcongruence import padic


def series_sum(series, m):
    """sum_{0<=k<=m} a(k) t_k of a padic._Series, with term(k) = (p(k), q(k), a(k)),
    t_0 = 1 and t_{k+1} = t_k p(k) / q(k)."""
    s, t, w = 0, 1, 1  # t_k = t / w and the sum so far s / w
    for k in range(m + 1):
        num, den, a = series.term(k)
        s, t, w = (s + a * t) * den, t * num, w * den
    return Fraction(s, w)


def _ratio(a, b, c, d, length):
    """prod_{i<length} (a + b i) / (c + d i)."""
    return Fraction(prod(a + b * i for i in range(length)), prod(c + d * i for i in range(length)))


def _fraction_sum(lo, hi, f):
    """sum n_k/d_k over lo <= k < hi for f(k) = (n_k, d_k)."""
    s, w = 0, 1  # the sum so far s / w
    for k in range(lo, hi):
        num, den = f(k)
        s, w = s * den + num * w, w * den
    return Fraction(s, w)


def _harmonic_tail_sum(d, r, length, scale, cube, term):
    """sum_{k<=length} t_k (scale - cube * h_k), with t_0 = 1,
    t_{k+1} / t_k = p(k) / q(k) for term(k) = (p(k), q(k)), and
    h_k = sum_{1<=j<=k} (1/(dj)^2 + 1/(dj-d+r)^2)."""
    t, w, h, e, s = 1, 1, 0, 1, 0  # t_k = t / w, h_k = h / e and the sum so far s / (w e)
    for k in range(length + 1):
        if k:
            a, b = (d * k) ** 2, (d * k - d + r) ** 2
            h, e, s = h * a * b + (a + b) * e, e * a * b, s * a * b
        s += t * (scale * e - cube * h)
        num, den = term(k)
        t, w, s = t * num, w * den, s * den
    return Fraction(s, w * e)


def closed_value(build):
    """build() with every padic closed form built as a Fraction: build is a
    closed-form builder or a checker call, taking no arguments."""
    kernels = {"_ratio": _ratio, "_fraction_sum": _fraction_sum, "_harmonic_tail_sum": _harmonic_tail_sum}
    with mock.patch.multiple(padic, **kernels):
        return build()
