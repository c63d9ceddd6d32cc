"""Tests for q-shifted factorials and truncated hypergeometric sums."""

import functools
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest

from qcongruence.errors import (
    DegenerateParameters,
    NegativeLength,
    NonTerminating,
    ZeroDenominatorFactor,
)
from qcongruence import polyring, qseries
from qcongruence.catalog import check_terminating_identity
from qcongruence.expr import eval_expr, parse_expr
from qcongruence.polyring import QFactored, QPoly, QRat, cyclotomic, q_integer
from qcongruence.qseries import (
    QMonomialArg,
    TermSpec,
    qma,
    truncated_sum_prefixes,
    well_poised_spec,
)


def qrat_monomial(coeff, exp):
    if exp >= 0:
        return QRat.from_value(QPoly.monomial(exp, coeff))
    return QRat(QPoly.const(coeff), QPoly.monomial(-exp))


def reference_poch(arg, step, k):
    """(x; q^step)_k as a product of QRat factors 1 - x q^(step*i)."""
    value = QRat.from_value(1)
    for i in range(k):
        value = value * (1 + -qrat_monomial(arg.coeff, arg.exp + step * i))
    return value


def reference_term(spec, k):
    """Term built factor by factor in QRat arithmetic; independent oracle."""
    value = QRat.from_value(1)
    for arg, step in spec.numer:
        value = value * reference_poch(arg, step, k)
    for arg, step in spec.denom:
        value = value / reference_poch(arg, step, k)
    value = value * qrat_monomial(spec.z.coeff, spec.z.exp) ** k
    if spec.linear_factor:
        value = value * QRat.from_value(q_integer(2 * spec.d * k + spec.r))
    return value


def reference_sum(spec, order):
    total = QRat.from_value(0)
    for k in range(order + 1):
        total = total + reference_term(spec, k)
    return total


def poch(text):
    return eval_expr(parse_expr(f"poch({text})"))


def test_rational_inputs_take_int_and_fraction_only():
    # A float or a string would be read through Fraction(..): 0.1 as
    # 3602879701896397/36028797018963968, "1/3" parsed as text.
    for build in (
        lambda: QMonomialArg(0.1, 0),
        lambda: qma("1/3", 1),
        lambda: QFactored(0.5),
        lambda: well_poised_spec(2, 1, 0.5),
    ):
        with pytest.raises(TypeError, match="int or Fraction"):
            build()
    assert qma(Fraction(1, 3), 1) == QMonomialArg(Fraction(1, 3), 1)
    assert QMonomialArg(2, 0).coeff == Fraction(2) and QFactored(2).c == Fraction(2)


def test_pochhammer_small_values():
    assert poch("q; q; 0") == QPoly.one()
    assert poch("q; q; 1") == QPoly([1, -1])
    # (q; q)_3 = (1-q)(1-q^2)(1-q^3)
    expected = QPoly([1, -1]) * QPoly([1, 0, -1]) * QPoly([1, 0, 0, -1])
    assert poch("q; q; 3") == expected
    # (3q^2; q^3)_2 = (1 - 3q^2)(1 - 3q^5)
    got = poch("3*q^2; q^3; 2")
    assert got == QPoly([1, 0, -3]) * QPoly([1, 0, 0, 0, 0, -3])


def test_pochhammer_negative_exponent():
    # (q^-2; q)_3 = (1 - q^-2)(1 - q^-1)(1 - 1) = 0
    assert poch("q^(-2); q; 3") == QPoly.zero()
    # (q^-1; q^2)_2 = (1 - q^-1)(1 - q) = -(1-q)^2 / q
    got = poch("q^(-1); q^2; 2")
    assert got.den == QPoly.monomial(1)
    assert got == QRat(QPoly([1, -1]) * QPoly([1, -1]) * -1, QPoly.monomial(1))
    with pytest.raises(NegativeLength):
        poch("q; q; -1")


def sample_spec(rng):
    def arg(lo=-2, hi=3):
        c = Fraction(rng.choice([1, -1, 2, -2, 3, Fraction(1, 2)]))
        return qma(c, rng.randint(lo, hi))

    numer = tuple((arg(), rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
    denom = []
    for _ in range(rng.randint(0, 2)):
        a = arg()
        step = rng.randint(1, 3)
        # keep factor exponents clear of hitting 1 - q^0
        while a.coeff == 1 and a.exp <= 0 and (-a.exp) % step == 0:
            a = arg()
        denom.append((a, step))
    d, r = rng.randint(1, 3), rng.randint(-2, 3)
    z = arg(-2, 2)
    linear_factor = bool(rng.randint(0, 1))
    sign = rng.choice([1, -1])  # an alternating sign is a negated z
    return TermSpec(d, r, numer, tuple(denom), qma(sign * z.coeff, z.exp), linear_factor)


def test_truncated_sum_matches_reference():
    rng = random.Random(20260816)
    for _ in range(25):
        spec = sample_spec(rng)
        order = rng.randint(0, 5)
        assert truncated_sum_prefixes(spec, [order])[order] == reference_sum(spec, order)


def chained_snapshot(engine):
    """The engine's partial sum reduced by one full gcd over the chained
    denominator q^qpow * prod key^mult: the oracle for snapshot."""
    den = QPoly.monomial(engine.qpow)
    for key, mult in engine.den.items():
        den = den * (cyclotomic(key) if isinstance(key, int) else key) ** mult
    return QRat(engine.T, den)


def test_snapshot_is_reduced_over_the_chained_denominator():
    rng = random.Random(78)
    powers = [4, Fraction(1, 4), 9, 8, -8, -4, 16, Fraction(-1, 4), 2, 1, -1]
    specs = [sample_spec(rng) for _ in range(15)]

    def arg():
        return qma(rng.choice(powers), rng.randint(1, 4))

    for _ in range(15):
        specs.append(
            TermSpec(
                d=1,
                r=rng.randint(0, 2),
                numer=tuple((arg(), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))),
                denom=tuple((arg(), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))),
                z=qma(rng.choice([1, -1, 2]), rng.randint(0, 1)),
                linear_factor=bool(rng.randint(0, 1)),
            )
        )
    for spec in specs:
        engine = qseries._PartialSum(spec)
        for _ in range(5):
            try:
                engine.extend(engine.k + 1)
            except ZeroDenominatorFactor:
                break
            got, want = engine.value(), chained_snapshot(engine)
            assert (got.num, got.den) == (want.num, want.den)


def test_snapshot_reduces_a_reducible_binomial_part():
    # 1 + (1 - 2q)/(1 - 4q^2) = (q + 1)/(q + 1/2): trial division by the
    # whole part q^2 - 1/4 cannot remove the q - 1/2 it shares with the sum.
    spec = TermSpec(
        d=1, r=0, numer=((qma(2, 1), 1),), denom=((qma(4, 2), 1),), z=qma(1, 0), linear_factor=False
    )
    got = truncated_sum_prefixes(spec, [1])[1]
    assert (got.num, got.den) == (QPoly([1, 1]), QPoly([Fraction(1, 2), 1]))


def test_termspec_hash_is_computed_once():
    spec = well_poised_spec(2, 1, c=-1)
    fields = (spec.d, spec.r, spec.numer, spec.denom, spec.z, spec.linear_factor)
    assert "_hash" not in vars(spec)
    assert hash(spec) == hash(fields)
    assert vars(spec)["_hash"] == hash(fields)
    twin = well_poised_spec(2, 1, c=-1)
    assert twin == spec and hash(twin) == hash(spec)
    assert {spec: 1}[twin] == 1
    assert well_poised_spec(3, 1) != spec


def test_truncated_sum_prefixes_consistent():
    rng = random.Random(77)
    spec = sample_spec(rng)
    prefixes = truncated_sum_prefixes(spec, [0, 2, 5])
    assert set(prefixes) == {0, 2, 5}
    for order, value in prefixes.items():
        assert value == truncated_sum_prefixes(spec, [order])[order]


def test_truncated_sum_negative_linear_offset():
    # r = -3 makes the k = 0 term carry [-3] = -(q^-3)(1+q+q^2).
    spec = TermSpec(d=2, r=-3, numer=(), denom=(), z=qma(1, 0))
    got = truncated_sum_prefixes(spec, [0])[0]
    assert got == QRat(QPoly([-1, -1, -1]), QPoly.monomial(3))
    assert truncated_sum_prefixes(spec, [1])[1] == got + QRat.from_value(q_integer(1))


def test_zero_denominator_factor_detected():
    spec = TermSpec(
        d=1,
        r=1,
        numer=(),
        denom=(((qma(1, -2)), 2),),  # (q^-2; q^2)_k hits 1 - q^0 at i = 1
        z=qma(1, 1),
    )
    with pytest.raises(ZeroDenominatorFactor):
        truncated_sum_prefixes(spec, [3])[3]


def test_negative_d_with_linear_factor_rejected():
    # q^J [2dk + r] with J = max(0, -r) has no negative q-power only for d >= 0
    with pytest.raises(ValueError):
        truncated_sum_prefixes(TermSpec(d=-1, r=1, numer=(), denom=(), z=qma(1, 1)), [3])[3]
    spec = TermSpec(d=-1, r=1, numer=(), denom=(), z=qma(1, 1), linear_factor=False)
    assert truncated_sum_prefixes(spec, [2])[2] == reference_sum(spec, 2)


def test_zero_z_raises_from_term_one_on():
    # z enters the sum only from term 1 on, so order 0 is [2] = 1 + q.
    spec = TermSpec(d=1, r=2, numer=(), denom=(), z=qma(0, 1))
    assert truncated_sum_prefixes(spec, [0])[0] == QRat.from_value(QPoly([1, 1]))
    with pytest.raises(DegenerateParameters, match="^z coefficient is zero$"):
        truncated_sum_prefixes(spec, [1])[1]


def test_negative_order_rejected():
    spec = TermSpec(d=1, r=1, numer=(), denom=(), z=qma(1, 1))
    with pytest.raises(NegativeLength):
        truncated_sum_prefixes(spec, [-1])[-1]


def test_qchu_identity_seeds():
    for seed in range(6):
        result = check_terminating_identity("QCHU", rng_seed=seed)
        assert result.equal, result.detail


def test_qchu_explicit_small():
    result = check_terminating_identity(
        "QCHU", {"n": 3, "b": Fraction(2), "c": Fraction(1, 3)}
    )
    assert result.equal


def test_whipple_identity_seeds():
    for seed in range(4):
        result = check_terminating_identity("WHIPPLE_SPEC", rng_seed=seed)
        assert result.equal, result.detail
    for n in (1, 3, 5, 7):
        result = check_terminating_identity("WHIPPLE_SPEC", {"n": n, "b": Fraction(2)})
        assert result.equal, result.detail


def test_whipple_rejects_even_order():
    with pytest.raises(NonTerminating):
        check_terminating_identity("WHIPPLE_SPEC", {"n": 4, "b": Fraction(2)})


def test_jackson_identity_seeds():
    for seed in range(4):
        result = check_terminating_identity("JACKSON_SPEC", rng_seed=seed)
        assert result.equal, result.detail
    for n in (1, 4, 7):
        result = check_terminating_identity("JACKSON_SPEC", {"n": n, "b": Fraction(3)})
        assert result.equal, result.detail


def test_jackson_rejects_bad_order():
    with pytest.raises(NonTerminating):
        check_terminating_identity("JACKSON_SPEC", {"n": 5, "b": Fraction(2)})


def test_watson_identity_seeds():
    for seed in range(4):
        result = check_terminating_identity("WATSON_SPEC", rng_seed=seed)
        assert result.equal, result.detail


def test_watson_explicit_cases():
    for d, r, n in ((3, 1, 4), (3, 1, 7), (4, 1, 5), (5, 2, 7), (3, -1, 5)):
        result = check_terminating_identity(
            "WATSON_SPEC",
            {"d": d, "r": r, "n": n, "b": Fraction(2), "c": Fraction(3)},
        )
        assert result.equal, result.detail


def test_watson_rejects_degenerate():
    with pytest.raises(NonTerminating):
        check_terminating_identity(
            "WATSON_SPEC", {"d": 3, "r": 1, "n": 5, "b": Fraction(2), "c": Fraction(3)}
        )
    with pytest.raises(DegenerateParameters):
        check_terminating_identity(
            "WATSON_SPEC", {"d": 3, "r": 3, "n": 6, "b": Fraction(2), "c": Fraction(3)}
        )
    with pytest.raises(DegenerateParameters):
        check_terminating_identity(
            "QCHU", {"n": 2, "b": Fraction(1), "c": Fraction(2)}
        )


def test_identity_params_deterministic():
    a = check_terminating_identity("QCHU", rng_seed=5)
    b = check_terminating_identity("QCHU", rng_seed=5)
    assert a.params == b.params
    with pytest.raises(KeyError):
        check_terminating_identity("NOT_AN_IDENTITY")


# -- engine cache behind truncated_sum_prefixes --------------------------------


@pytest.fixture
def engines(monkeypatch):
    """A fresh, empty engine cache of the production size, for one test."""
    cache = qseries._EngineCache(qseries._ENGINES.size)
    monkeypatch.setattr(qseries, "_ENGINES", cache)
    return cache


def fresh_prefixes(spec, orders):
    """One uncached pass, a term at a time: the oracle for cached results."""
    engine = qseries._PartialSum(spec)
    out = {}
    for m in range(max(orders) + 1):
        engine.extend(m + 1)
        if m in orders:
            out[m] = engine.value()
    return out


def assert_same_prefixes(got, want):
    assert sorted(got) == sorted(want)
    for m, value in want.items():
        # snapshots are not canonicalised, so compare the stored pair too
        assert (got[m].num, got[m].den) == (value.num, value.den), m


def test_well_poised_spec_matches_literal_shapes():
    # the cubic sum of THM_B and THM_C, field for field
    cubic = TermSpec(3, 1, ((qma(1, 1), 3),) * 6, ((qma(1, 3), 3),) * 6, qma(1, 3))
    assert well_poised_spec(3, 1) == cubic
    # Watson's left side at nu = 7, (d, r) = (3, 1), b = 2, c = -3/2: a = q^-7
    b, c = Fraction(2), Fraction(-3, 2)
    watson = TermSpec(
        3,
        1,
        tuple((x, 3) for x in (qma(1, -6), qma(1, 8), qma(b, 1), qma(1 / b, 1), qma(c, 1), qma(1, 1))),
        tuple((x, 3) for x in (qma(1, 10), qma(1, -4), qma(1 / b, 3), qma(b, 3), qma(1 / c, 3), qma(1, 3))),
        qma(1 / c, 3),
    )
    assert well_poised_spec(3, 1, qma(1, -7), b, c) == watson


def test_quartic_is_the_c_minus_one_case():
    # (-q, q; q^2)_k = (q^2; q^4)_k and (-q^2, q^2; q^2)_k = (q^4; q^4)_k, so
    # c = -1 is the alternating quartic sum of THM_A and GWY written with
    # step-4 factors and z = -q.
    numer = ((qma(1, 1), 2),) * 4 + ((qma(1, 2), 4),)
    denom = ((qma(1, 2), 2),) * 4 + ((qma(1, 4), 4),)
    quartic = TermSpec(2, 1, numer, denom, qma(-1, 1))
    orders = list(range(7))
    assert_same_prefixes(
        truncated_sum_prefixes(well_poised_spec(2, 1, c=-1), orders), fresh_prefixes(quartic, orders)
    )


CACHED_SPECS = {
    "quartic": well_poised_spec(2, 1, c=-1),
    "cubic": well_poised_spec(3, 1),
    "thm_e": well_poised_spec(3, -1),
    "thm_d_c": well_poised_spec(3, -1, c=Fraction(-3, 2)),
}

ORDER_SEQUENCES = {
    "increasing": [[0], [2], [5], [7]],
    "decreasing": [[7], [5], [2], [0]],
    "repeated": [[4], [4], [4, 4], [4]],
    # a sweep over n: the first slot, the second, then both
    "slots": [[1], [2], [1, 2], [2, 4], [3], [3, 6], [6], [0, 5]],
}


@pytest.mark.parametrize("sequence", sorted(ORDER_SEQUENCES))
@pytest.mark.parametrize("name", sorted(CACHED_SPECS))
def test_cached_prefixes_match_fresh_pass(engines, name, sequence):
    spec = CACHED_SPECS[name]
    for orders in ORDER_SEQUENCES[sequence]:
        assert_same_prefixes(truncated_sum_prefixes(spec, orders), fresh_prefixes(spec, orders))
    assert truncated_sum_prefixes(spec, [3])[3] == fresh_prefixes(spec, [3])[3]


def test_engine_cache_is_bounded_lru(engines):
    rng = random.Random(4242)
    specs = []
    while len(specs) < engines.size + 3:
        spec = sample_spec(rng)
        if spec not in specs:
            specs.append(spec)
    for spec in specs[: engines.size]:
        truncated_sum_prefixes(spec, [2])
    assert list(engines._entries) == specs[: engines.size]
    truncated_sum_prefixes(specs[0], [3])  # touch the oldest
    for spec in specs[engines.size :]:
        truncated_sum_prefixes(spec, [1])
        assert len(engines._entries) <= engines.size
    assert list(engines._entries) == (
        specs[4 : engines.size] + [specs[0]] + specs[engines.size :]
    )
    # requests after eviction start again and still agree with a fresh pass
    for spec in specs[1:4] + specs[:1]:
        assert_same_prefixes(truncated_sum_prefixes(spec, [1, 3]), fresh_prefixes(spec, [1, 3]))
        assert len(engines._entries) <= engines.size


def test_evicted_catalog_spec_resumes_correctly(engines):
    cubic = CACHED_SPECS["cubic"]
    truncated_sum_prefixes(cubic, [2, 4])
    rng = random.Random(99)
    others = set()
    while len(others) < engines.size:
        others.add(sample_spec(rng))
    for spec in others:
        truncated_sum_prefixes(spec, [1])
    assert cubic not in engines._entries
    for orders in ([3], [4, 6], [2]):
        assert_same_prefixes(truncated_sum_prefixes(cubic, orders), fresh_prefixes(cubic, orders))


def test_cache_forgets_engine_that_raised(engines):
    spec = TermSpec(
        d=1,
        r=1,
        numer=(),
        denom=(((qma(1, -2)), 2),),  # (q^-2; q^2)_k hits 1 - q^0 at term 2
        z=qma(1, 1),
    )
    low = truncated_sum_prefixes(spec, [0, 1])
    with pytest.raises(ZeroDenominatorFactor) as first:
        truncated_sum_prefixes(spec, [1, 3])
    assert spec not in engines._entries
    for orders in ([2], [3], [0, 5]):
        with pytest.raises(ZeroDenominatorFactor) as again:
            truncated_sum_prefixes(spec, orders)
        assert str(again.value) == str(first.value)
    assert_same_prefixes(truncated_sum_prefixes(spec, [1]), {1: low[1]})
    assert_same_prefixes(truncated_sum_prefixes(spec, [0, 1]), low)


def test_cache_forgets_engine_interrupted_mid_snapshot(engines, monkeypatch):
    spec = CACHED_SPECS["quartic"]
    truncated_sum_prefixes(spec, [2])
    real = polyring.poly_try_div

    def interrupted(*args):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(polyring, "poly_try_div", interrupted)
    with pytest.raises(RuntimeError):
        truncated_sum_prefixes(spec, [3, 5])
    assert spec not in engines._entries
    monkeypatch.setattr(polyring, "poly_try_div", real)
    for orders in ([4], [3, 5], [2]):
        assert_same_prefixes(truncated_sum_prefixes(spec, orders), fresh_prefixes(spec, orders))


def test_threads_never_share_an_engine(engines):
    specs = [CACHED_SPECS["cubic"], CACHED_SPECS["thm_e"]]
    plans = [[[1], [3], [2, 5], [6], [0, 4]], [[5], [2], [6], [1, 3]]]
    want = {
        (i, m): value
        for i, spec in enumerate(specs)
        for m, value in fresh_prefixes(spec, range(7)).items()
    }
    errors = []

    def work(shift):
        try:
            for step in range(12):
                i = (shift + step) % 2
                orders = plans[i][(shift + step) % len(plans[i])]
                got = truncated_sum_prefixes(specs[i], orders)
                for m in orders:
                    if (got[m].num, got[m].den) != (want[i, m].num, want[i, m].den):
                        errors.append((i, m))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(engines._entries) <= engines.size



# -- value(): the chained denominator less what the terms show cancels ---------


def full_denominator_value(engine):
    """The engine's partial sum reduced by to_qrat over the whole chained
    denominator q^qpow * prod key^den: the oracle for value()."""
    den = {key: -mult for key, mult in engine.den.items()}
    return QFactored(1, -engine.qpow, engine.T, den).to_qrat()


BOUND_ORDERS = range(21)

# The quartic and THM_E's (d, r), the cubic (3, 1) among them: Phi_d keys only.
CATALOG_SHAPES = {"quartic": well_poised_spec(2, 1, c=-1)} | {
    f"({d},{r})": well_poised_spec(d, r) for d in (3, 4, 5) for r in (1, -1)
}
# At r = -d every term past k = 1 is 0, and terms 0 and 1 cancel.
TERMINATING_SHAPES = {f"({d},{-d})": well_poised_spec(d, -d) for d in (3, 4, 5)}
BOUND_SPECS = CATALOG_SHAPES | TERMINATING_SHAPES | {
    # binomial keys q^e - c, c != +-1
    "rational": well_poised_spec(3, 1, Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2)),
    # (2q; q)_k / (4q^2; q)_k, no linear factor: the reducible binomial key
    # q^2 - 1/4 takes to_qrat's gcd branch
    "reducible": TermSpec(
        1, 0, ((qma(2, 1), 1),), ((qma(4, 2), 1),), qma(1, 0), linear_factor=False
    ),
    # (q^-8; q^2)_k in the numerator: every term past k = 4 is 0
    "terminating": well_poised_spec(2, 1, qma(1, -9), 1, -1),
    # [2k - 2] (q; q)_k / (q^2; q)_k q^k: term 1 is [0]
    "zero term": TermSpec(1, -2, ((qma(1, 1), 1),), ((qma(1, 2), 1),), qma(1, 1)),
}


@functools.cache
def bound_walk(name):
    """For each order 0..20 of BOUND_SPECS[name], asked for one at a time
    through a private engine cache: (value, the oracle's value, the
    poly_try_div calls that found a quotient while the value was made, the
    engine's lam).  Extending an engine makes no poly_try_div call."""
    spec, real, found, out = BOUND_SPECS[name], polyring.poly_try_div, [], {}

    def counting(f, g, form=None):
        quotient = real(f, g, form)
        found.append(quotient is not None)
        return quotient

    engines = qseries._EngineCache(1)
    with mock.patch.object(qseries, "_ENGINES", engines):
        for m in BOUND_ORDERS:
            found.clear()
            with mock.patch.object(polyring, "poly_try_div", counting):
                value = truncated_sum_prefixes(spec, [m])[m]
            engine = engines._entries[spec][0]
            out[m] = value, full_denominator_value(engine), sum(found), dict(engine.lam)
    return out


@pytest.mark.parametrize("name", sorted(BOUND_SPECS))
def test_value_matches_the_full_denominator_reduction(name):
    walk = bound_walk(name)
    for m in BOUND_ORDERS:
        value, want, _, lam = walk[m]
        assert (value.num, value.den) == (want.num, want.den), m
        # the same order in one pass from k = 0
        engine = qseries._PartialSum(BOUND_SPECS[name])
        engine.extend(m + 1)
        assert engine.lam == lam, m
    fresh = engine.value()
    assert (fresh.num, fresh.den) == (value.num, value.den)


@pytest.mark.parametrize("name", sorted(CATALOG_SHAPES) + ["zero term"])
def test_value_leaves_to_qrat_nothing_to_cancel(name):
    # lam is the reduced denominator's exponent of every key, so each trial
    # division by a key of lam fails (and the value is right, as tested above)
    assert [m for m in BOUND_ORDERS if bound_walk(name)[m][2]] == []


def test_zero_terms_leave_the_bound_alone():
    # Past k = 4 every term is 0, so lam, and the keys to_qrat still
    # cancels, are those of order 4.  Those cancellations are the sum's own:
    # the terms at k = 1 and 2 each have Phi_7 in their denominator, and
    # their sum does not.
    walk = bound_walk("terminating")
    assert walk[4][3] != walk[3][3]
    assert walk[2][2] > 0
    for m in range(5, 21):
        assert walk[m][2:] == walk[4][2:], m


@pytest.mark.parametrize("name", ["(3,1)", "rational"])
def test_value_raises_when_the_bound_is_one_too_low(monkeypatch, name):
    engine = qseries._PartialSum(BOUND_SPECS[name])
    engine.extend(9)
    lam = dict(engine.lam)
    assert any(isinstance(key, QPoly) for key in lam) == (name == "rational")
    for key, e in lam.items():
        monkeypatch.setattr(engine, "lam", lam | {key: e - 1})
        with pytest.raises(ArithmeticError):
            engine.value()
