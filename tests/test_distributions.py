"""Moment vectors of the analytic distribution handles: the one-pass raw
moments, one vector per law and order, the truncated exponential's positive
part, and parameter checks."""

import math
import operator
import struct
import sys
import threading
from functools import partial

import numpy as np
import pytest
from helpers import CallCounter
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tailbound import (
    Bernoulli,
    Beta,
    DomainError,
    EnsembleSpec,
    MomentVector,
    PointMass,
    Support,
    TailboundError,
    TruncatedExponential,
    Uniform,
    bennett_bound,
    hoeffding_bound,
    moments_from_samples,
    reflect_moments,
    restrict_order,
    shift_to_origin,
)
from tailbound.cli import main
from tailbound import distributions
from tailbound.distributions import _from_log, _kummer_scaled


def bits(values):
    return [struct.pack("<d", v) for v in values]


# the per-order formulas that the one-pass loops replace, one call per k


def uniform_moment(lo, hi, k):
    total = lo_j = 1.0
    for _ in range(k):
        lo_j *= lo
        total = total * hi + lo_j
    return total / (k + 1)


def beta_moment(a, b, k):
    m = 1.0
    for j in range(k):
        m *= (a + j) / (a + b + j)
    return m


def _uniform(pair):
    lo, width = pair
    return Uniform(lo, lo + width), lambda k: uniform_moment(lo, lo + width, k)


def _beta(pair):
    a, b = pair
    return Beta(a, b), lambda k: beta_moment(a, b, k)


laws = st.one_of(
    st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)).map(_uniform),
    st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)).map(_beta),
    st.floats(0.0, 1.0).map(lambda q: (Bernoulli(q), lambda k: q)),
    st.floats(-1e3, 1e3).map(lambda c: (PointMass(c), lambda k: c ** k)),
)


@settings(max_examples=300, deadline=None)
@given(law=laws, p=st.integers(1, 8))
def test_moments_match_the_per_order_formulas_bit_for_bit(law, p):
    dist, per_order = law
    want = [per_order(k) for k in range(1, p + 1)]
    assert bits(dist.moments(p)) == bits(want)
    assert bits(dist.moment_vector(p).mu) == bits(want)
    assert dist.moment(p) == want[-1]
    assert dist.moment(0) == 1.0


@pytest.mark.parametrize("dist", [Uniform(0.0, 1.0), Beta(2.0, 3.0),
                                  Bernoulli(0.3), PointMass(0.5),
                                  TruncatedExponential(1.0, 2.0)])
@pytest.mark.parametrize("p", [0, -1, -2, 2.0, None, np.int64(2), True])
def test_moment_vector_rejects_an_order_that_is_not_a_positive_integer(
        dist, p):
    # the order is checked before any moment is computed or read, and before
    # the stored vectors are: 2.0 and np.int64(2) hash and compare equal to 2,
    # and True to 1
    dist.moment_vector(1)
    dist.moment_vector(2)
    with pytest.raises(DomainError,
                       match="order p must be a positive integer"):
        dist.moment_vector(p)


LAWS = [
    lambda: Uniform(0.0, 1.0), lambda: Uniform(-0.5, 1.0),
    lambda: Beta(2.0, 3.0), lambda: Bernoulli(0.3), lambda: PointMass(0.5),
    lambda: TruncatedExponential(1.0, 2.0),
]
LAW_IDS = ["uniform", "uniform-signed", "beta", "bernoulli", "point",
           "truncexp"]


@pytest.mark.parametrize("make", LAWS, ids=LAW_IDS)
@pytest.mark.parametrize("p", [1, 2, 3, 6])
def test_a_law_builds_one_vector_per_order(make, p):
    dist = make()
    mv = dist.moment_vector(p)
    assert dist.moment_vector(p) is mv
    assert dist.moment_vector(p + 1) is not mv
    # equal but distinct laws keep their own vectors
    twin = make()
    assert twin == dist and hash(twin) == hash(dist)
    assert twin.moment_vector(p) == mv and twin.moment_vector(p) is not mv
    assert repr(dist) == repr(twin)


def test_bounds_over_one_list_of_laws_build_each_vector_once(monkeypatch):
    # as a sweep does: Bennett at two thresholds, then Hoeffding, same order
    laws = [Beta(2.0, 3.0), Uniform(-0.5, 1.0), Bernoulli(0.3)]
    counters = [CallCounter(monkeypatch, type(law), "moments")
                for law in laws]
    for p in (2, 4):
        for t in (0.5, 1.5):
            bennett_bound(EnsembleSpec([law.moment_vector(p) for law in laws]),
                          t, p)
        hoeffding_bound(EnsembleSpec([law.moment_vector(p) for law in laws]),
                        1.0, p)
    assert [counter.calls for counter in counters] == [2, 2, 2]


def test_racing_threads_get_one_vector():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            dist = TruncatedExponential(1.0, 2.0)
            start = threading.Barrier(8)
            got = []

            def build():
                start.wait(timeout=10)
                got.append(dist.moment_vector(5))

            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(got) == 8
            assert all(mv is dist.moment_vector(5) for mv in got)
    finally:
        sys.setswitchinterval(interval)


EPS = 2.0 ** -52


def truncexp_moment(b, rate, k):
    """E(b - E)^k for E ~ Exponential(rate), as the binomial sum over
    E(E^j) = j!/rate^j that the moment recurrence replaced."""
    total = 0.0
    for j in range(k + 1):
        total += (math.comb(k, j) * b ** (k - j) * (-1.0) ** j
                  * math.factorial(j) / rate ** j)
    return total


def truncexp_exact(b, rate, k):
    """E(b - E)^k at 60 digits, and the scale S_k = sum_j C(k, j) |b|^(k-j)
    j!/rate^j against which a float evaluation's rounding error is bounded:
    the binomial sum of absolute values."""
    import mpmath

    with mpmath.workdps(60):
        b, rate = mpmath.mpf(b), mpmath.mpf(rate)
        terms = [mpmath.binomial(k, j) * b ** (k - j) * (-1) ** j
                 * mpmath.factorial(j) / rate ** j for j in range(k + 1)]
        return mpmath.fsum(terms), mpmath.fsum(map(abs, terms))


@settings(max_examples=300, deadline=None)
@given(b=st.floats(-1e3, 1e3),
       rate=st.one_of(st.floats(1e-3, 1e3),
                      st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
       p=st.integers(1, 8))
def test_truncexp_moments_within_a_few_eps_of_the_exact_value(b, rate, p):
    # mu_k = b^k - (k/rate) mu_{k-1} is not bit-identical to the binomial
    # sum, but both stay within 4 k eps S_k of the exact moment
    dist = TruncatedExponential(b, rate)
    got = dist.moments(p)
    assert dist.moment_vector(p).mu == got
    assert dist.moment(p) == got[-1]
    for k in range(1, p + 1):
        exact, scale = truncexp_exact(b, rate, k)
        tol = 4 * k * EPS * scale
        assert abs(got[k - 1] - exact) <= tol, (k, got[k - 1], exact)
        assert abs(truncexp_moment(b, rate, k) - exact) <= tol


def test_truncexp_moments_past_the_float_range():
    with pytest.raises(DomainError, match="leaves the float range"):
        TruncatedExponential(1e200, 1.0).moment_vector(2)


def truncexp_positive_part(b, rate, p):
    """E max((b - E)^p, 0) = b^p a I_p for a = rate b, where
    I_p = int_0^1 u^p e^{a(u-1)} du. Integration by parts gives
    a I_p = 1 - p I_{p-1} and a I_0 = 1 - e^{-a}; the recursion loses about
    log10(p/a) digits a step, so it runs at 160 digits for 50 that hold."""
    import mpmath

    with mpmath.workdps(160):
        b, rate = mpmath.mpf(b), mpmath.mpf(rate)
        a = rate * b
        integral = -mpmath.expm1(-a) / a
        for j in range(1, p + 1):
            integral = (1 - j * integral) / a
        return float(b ** p * a * integral)


# a = rate b from 1e-6 to 2e3: Kummer's series up to 1e3, its large-s
# expansion above
RATE_TIMES_B = [1e-6, 3e-4, 0.02, 0.5, 1.0, 2.7, 9.0, 41.0, 150.0, 622.0,
                798.3, 999.0, 1000.5, 1395.3, 2e3]


@pytest.mark.parametrize("a", RATE_TIMES_B)
@pytest.mark.parametrize("b", [1.0, 0.37, 4.5])
def test_truncexp_odd_positive_part_against_mpmath(a, b):
    d = TruncatedExponential(b, a / b)
    for p in (1, 3, 5, 7, 9):
        want = truncexp_positive_part(d.b, d.rate, p)
        assert d.positive_part_moment(p) == pytest.approx(want, rel=1e-13)
        assert d.moment_vector(p).positive_part_pth \
            == pytest.approx(want, rel=1e-13)


def truncexp_positive_part_quad(b, rate, p):
    """int_0^b rate (b - x)^p e^{-rate x} dx by mpmath's quadrature at 50
    digits, split where e^{-rate x} has fallen to e^-1, e^-10 and e^-100."""
    import mpmath

    with mpmath.workdps(50):
        b, rate = mpmath.mpf(b), mpmath.mpf(rate)
        cuts = sorted({mpmath.mpf(0), b}
                      | {c / rate for c in (1, 10, 100) if c / rate < b})
        return mpmath.quad(
            lambda x: rate * (b - x) ** p * mpmath.exp(-rate * x), cuts)


# a = rate b, log-spaced over [1e-3, 1e3]. For each odd p the larger a take
# the recurrence a m_k = 1 - k m_{k-1} (every a >= p, and a little below,
# where prod_{a<j<=p} j/a <= 2) and the smaller the series of positive
# terms; sqrt(10) +- 0.05 straddles the switch at p = 5
POSITIVE_PART_A = sorted([*np.geomspace(1e-3, 1e3, 19).tolist(), 3.11, 3.21])


@pytest.mark.parametrize("p", range(1, 16, 2))
def test_truncexp_odd_positive_part_against_quadrature(monkeypatch, p):
    # the largest error over 1,500 log-spaced a in [1e-3, 1e3] and these p
    # was 5.2 eps (1.16e-15, p = 9 and a = 6.58, the recurrence); Kummer's
    # series reached 35 eps there (at a near 1e3)
    kummer = CallCounter(monkeypatch, distributions, "_kummer_scaled")
    b = 0.37
    for a in POSITIVE_PART_A:
        d = TruncatedExponential(b, a / b)
        want = truncexp_positive_part_quad(d.b, d.rate, p)
        assert abs(d.positive_part_moment(p) - want) <= 6 * EPS * want, a
    assert kummer.calls == 0


@pytest.mark.parametrize("p, a", [(1001, 750.0), (1001, 900.0)])
def test_truncexp_positive_part_past_the_series_range(monkeypatch, p, a):
    # prod_{a<j<=p} j/a is far above 2, and the series' terms would
    # overflow past a = 700: Kummer's function, within 4.3e-15 here
    import mpmath

    kummer = CallCounter(monkeypatch, distributions, "_kummer_scaled")
    got = TruncatedExponential(1.0, a).positive_part_moment(p)
    with mpmath.workdps(50):
        want = a * mpmath.exp(-a) * mpmath.hyp1f1(p + 1, p + 2, a) / (p + 1)
    assert abs(got - want) <= 1e-14 * want
    assert kummer.calls == 1


@pytest.mark.parametrize("alpha,gamma,s", [
    (4.0, 5.0, 622.0), (4.0, 5.0, 798.3), (4.0, 5.0, 999.0),
    (1.0, 5.0, -622.0)])
def test_kummer_series_past_its_rescales(alpha, gamma, s):
    # the series divides by 2^800 as it grows; a rounded log(2^800) added
    # per rescale put e^{-s} M 1.1e-14 to 1.8e-14 off at these tilts
    import mpmath

    with mpmath.workdps(50):
        want = mpmath.exp(-s) * mpmath.hyp1f1(alpha, gamma, s)
    got = _from_log(*_kummer_scaled(alpha, gamma, s))
    assert abs(got - want) <= 5e-15 * want


@pytest.mark.parametrize("s", [-3314.5, 0.5, 1000.5, 3314.5, 1e7])
def test_kummer_at_equal_parameters(s):
    # M(alpha, alpha, s) = e^s; past s = 1e3 the large-s expansion once
    # passed gamma - alpha = 0 to math.lgamma, and below s = -1e3 Kummer's
    # transformation passed it alpha = 0
    assert _kummer_scaled(3.1396913441781052e+50, 3.1396913441781052e+50,
                          s) == (1.0, 0.0)


@pytest.mark.parametrize("b", [0.0, -0.5, -40.0])
def test_truncexp_positive_part_vanishes_below_zero(b):
    d = TruncatedExponential(b, 2.0)
    for p in (1, 3, 5):
        assert d.positive_part_moment(p) == 0.0
        assert d.moment_vector(p).positive_part_pth == 0.0


@pytest.mark.parametrize("b", [1e6, 1e100])
def test_truncexp_positive_part_on_wide_supports(b):
    # adaptive quadrature over [0, b] missed the mass near 0 here and
    # returned 0.0
    d = TruncatedExponential(b, 1.0)
    want = truncexp_positive_part(b, 1.0, 3)
    assert d.moment_vector(3).positive_part_pth \
        == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("p", [3, 5])
def test_bennett_bound_on_a_wide_truncated_exponential(p):
    mv = TruncatedExponential(1e6, 1.0).moment_vector(p)
    result = bennett_bound(EnsembleSpec.iid_replicate(mv, 1), 1e6, p)
    assert 0.0 < result.bound <= 1.0


def test_point_mass_just_below_zero_keeps_a_zero_positive_part():
    # within the support's tolerance of its lower end 0, the mean is
    # negative while E max(X, 0) is 0
    mv = PointMass(-1e-13, 0.0, 1.0).moment_vector(1)
    assert mv.mu == (-1e-13,)
    assert mv.positive_part_pth == 0.0


@pytest.mark.parametrize("make, name", [
    (lambda v: TruncatedExponential(1.0, v), "rate"),
    (lambda v: TruncatedExponential(v, 1.0), "b"),
    (lambda v: Beta(v, 2.0), "a"),
    (lambda v: Beta(2.0, v), "b"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(make, name, value):
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        make(value)


@pytest.mark.parametrize("params, name", [("b=1,rate=nan", "rate"),
                                          ("b=1,rate=inf", "rate"),
                                          ("b=nan,rate=1", "b")])
def test_cli_reports_a_non_finite_truncexp_parameter(capsys, params, name):
    code = main(["bound", "--family", "bennett", "--dist", "truncexp",
                 "--params", params, "--p", "3", "--t", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{name} must be" in err
    assert "quadrature" not in err


@pytest.mark.parametrize("params", ["a=nan,b=2", "a=2,b=inf"])
def test_cli_reports_a_non_finite_beta_parameter(capsys, params):
    code = main(["bound", "--family", "bennett", "--dist", "beta",
                 "--params", params, "--p", "3", "--t", "1"])
    assert code == 2
    assert "positive and finite" in capsys.readouterr().err


FLOAT_TYPED_LAWS = [
    lambda: Uniform(-1, 2), lambda: Uniform(np.float64(0.25), 1),
    lambda: Bernoulli(1), lambda: Bernoulli(np.float64(0.3)),
    lambda: PointMass(2), lambda: PointMass(2, -1, 3),
    lambda: PointMass(np.float64(-0.5), -1, np.float64(1.5)),
    lambda: Beta(2, 3), lambda: Beta(np.float64(2.5), 3),
    lambda: TruncatedExponential(1, 2),
    lambda: TruncatedExponential(np.float64(1.5), np.float64(0.5)),
]
FLOAT_TYPED_IDS = [
    "uniform-int", "uniform-float64", "bernoulli-int", "bernoulli-float64",
    "point-int", "point-int-support", "point-float64", "beta-int",
    "beta-float64", "truncexp-int", "truncexp-float64",
]


def assert_holds_floats(mv):
    assert type(mv.p) is int
    assert [type(m) for m in mv.mu] == [float] * mv.p
    assert type(mv.positive_part_pth) is float


@pytest.mark.parametrize("make", FLOAT_TYPED_LAWS, ids=FLOAT_TYPED_IDS)
@pytest.mark.parametrize("p", range(1, 9))
def test_vectors_hold_floats_whatever_the_parameter_types(make, p):
    mv = make().moment_vector(p)
    assert_holds_floats(mv)
    moved = []
    if mv.support.lower is not None:
        moved = [shift_to_origin(mv), reflect_moments(mv)]
    for v in (mv, *moved):
        assert_holds_floats(v)
        for q in range(1, p + 1):
            # an odd positive part below 0 is not in the analytic moments
            if q == p or q % 2 == 0 or v.support.is_nonnegative:
                assert_holds_floats(restrict_order(v, q))


def vector_bits(mv):
    return (type(mv), mv.p, bits(mv.mu), bits([mv.positive_part_pth]),
            mv.support, mv.samples)


def derived_outcomes(build, p):
    """The vector build() and the vectors moved and restricted from it, each
    as its bits or as the type and message of the exception it raised."""
    results = []

    def record(call):
        try:
            mv = call()
        except TailboundError as exc:
            results.append((type(exc), str(exc)))
            return None
        results.append(vector_bits(mv))
        return mv

    mv = record(build)
    vectors = [mv]
    if mv is not None and mv.support.lower is not None:
        vectors += [record(lambda: shift_to_origin(mv)),
                    record(lambda: reflect_moments(mv))]
    for v in filter(None, vectors):
        for q in range(1, p + 1):
            record(lambda: restrict_order(v, q))
    return results


def through_the_constructor(call):
    """call() with each vector the program derives built by the public
    MomentVector constructor from the same values."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MomentVector, "_derived", classmethod(
            lambda cls, p, mu, support, pos, samples=None:
                cls(p, mu, support, pos, samples)))
        return call()


# magnitudes from 1e-300 to 1e300, of either sign
magnitudes = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
                       st.integers(-300, 299))
signed = st.one_of(st.just(0.0), magnitudes, magnitudes.map(operator.neg))


@st.composite
def law_makers(draw):
    kind = draw(st.sampled_from(["uniform", "bernoulli", "beta", "point",
                                 "truncexp"]))
    if kind == "uniform":
        make = partial(Uniform, *sorted([draw(signed), draw(signed)]))
    elif kind == "bernoulli":
        make = partial(Bernoulli, draw(st.floats(0.0, 1.0)))
    elif kind == "beta":
        make = partial(Beta, draw(magnitudes), draw(magnitudes))
    elif kind == "point":
        lo, c, hi = sorted([draw(signed), draw(signed), draw(signed)])
        make = partial(PointMass, c, lo, hi)
    else:
        make = partial(TruncatedExponential, draw(signed), draw(magnitudes))
    try:
        make()
    except TailboundError:
        assume(False)
    return make


@settings(max_examples=150, deadline=None)
@given(make=law_makers(), p=st.integers(1, 8))
# a shift far from the origin loses every digit
@example(make=partial(Uniform, 1000.0, 1001.0), p=6)
@example(make=partial(Uniform, 1000.0, 1001.0), p=4)
def test_law_vectors_match_the_public_constructor(make, p):
    def build():
        return make().moment_vector(p)

    assert (derived_outcomes(build, p)
            == through_the_constructor(lambda: derived_outcomes(build, p)))


@settings(max_examples=60, deadline=None)
@given(lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3),
       units=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
       p=st.integers(1, 8))
def test_sample_vectors_match_the_public_constructor(lo, width, units, p):
    support = Support.interval(lo, lo + width)
    data = [min(lo + u * width, support.upper) for u in units]

    def build():
        return moments_from_samples(data, p, support)

    assert (derived_outcomes(build, p)
            == through_the_constructor(lambda: derived_outcomes(build, p)))
