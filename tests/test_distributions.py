"""Moment vectors of the analytic distribution handles: the one-pass raw
moments, the truncated exponential's positive part, and parameter checks."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbound import (
    Bernoulli,
    Beta,
    DomainError,
    EnsembleSpec,
    PointMass,
    TruncatedExponential,
    Uniform,
    bennett_bound,
)
from tailbound.cli import main


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


def truncexp_moment(b, rate, k):
    total = 0.0
    for j in range(k + 1):
        total += (math.comb(k, j) * b ** (k - j) * (-1.0) ** j
                  * math.factorial(j) / rate ** j)
    return total


def _uniform(pair):
    lo, width = pair
    return Uniform(lo, lo + width), lambda k: uniform_moment(lo, lo + width, k)


def _beta(pair):
    a, b = pair
    return Beta(a, b), lambda k: beta_moment(a, b, k)


def _truncexp(pair):
    b, rate = pair
    return (TruncatedExponential(b, rate),
            lambda k: truncexp_moment(b, rate, k))


laws = st.one_of(
    st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)).map(_uniform),
    st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)).map(_beta),
    st.floats(0.0, 1.0).map(lambda q: (Bernoulli(q), lambda k: q)),
    st.floats(-1e3, 1e3).map(lambda c: (PointMass(c), lambda k: c ** k)),
    st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)).map(_truncexp),
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
