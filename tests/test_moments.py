import math
import struct

import numpy as np
import pytest
from helpers import random_interval_mv
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tailbound import (
    Bernoulli,
    Beta,
    DomainError,
    EnsembleSpec,
    InfeasibleMomentsError,
    MomentVector,
    OrderError,
    PointMass,
    Support,
    TailboundError,
    Uniform,
    moments_from_samples,
    read_sample_file,
    reflect_moments,
    restrict_order,
    shift_to_origin,
)


class TestSupport:
    def test_interval_requires_order(self):
        with pytest.raises(DomainError):
            Support.interval(1.0, 1.0)

    def test_upper_only_has_no_width(self):
        s = Support.upper_only(2.0)
        assert s.lower is None
        with pytest.raises(DomainError):
            _ = s.width

    def test_upper_must_be_finite(self):
        with pytest.raises(DomainError):
            Support.interval(0.0, math.inf)


class TestMomentVector:
    def test_positive_part_defaults_on_nonnegative_support(self):
        mv = MomentVector(2, (0.5, 0.4), Support.interval(0.0, 1.0))
        assert mv.positive_part_pth == 0.4

    def test_positive_part_required_below_zero(self):
        with pytest.raises(DomainError):
            MomentVector(3, (0.0, 0.5, 0.1), Support.interval(-1.0, 1.0))

    def test_rejects_support_chain_violation(self):
        # mu2 > upper * mu1 is impossible on [0, 1]
        with pytest.raises(InfeasibleMomentsError):
            MomentVector(2, (0.5, 0.6), Support.interval(0.0, 1.0))

    def test_rejects_cauchy_schwarz_violation(self):
        with pytest.raises(InfeasibleMomentsError) as err:
            MomentVector(3, (0.5, 0.4, 0.05), Support.interval(0.0, 1.0))
        assert "Cauchy-Schwarz" in str(err.value)

    def test_accepts_tolerable_noise(self):
        mv = Uniform(0.0, 1.0).moment_vector(4)
        noisy = tuple(m * (1 + 1e-12) if k % 2 else m
                      for k, m in enumerate(mv.mu))
        MomentVector(4, noisy, mv.support)  # must not raise

    def test_no_chain_validation_on_upper_only_support(self):
        # values like these are upper bounds, not genuine moments
        MomentVector(3, (0.0, 2.0, 1.0), Support.upper_only(1.0),
                     positive_part_pth=1.0)

    def test_moment_accessor(self):
        mv = Uniform(0.0, 1.0).moment_vector(3)
        assert mv.moment(0) == 1.0
        assert mv.moment(2) == pytest.approx(1 / 3)
        with pytest.raises(OrderError):
            mv.moment(4)

    def test_restrict_order(self):
        mv = Uniform(0.0, 1.0).moment_vector(5)
        r = restrict_order(mv, 2)
        assert r.p == 2
        assert r.mu == mv.mu[:2]
        assert r.positive_part_pth == pytest.approx(1 / 3)
        with pytest.raises(OrderError):
            restrict_order(r, 5)

    def test_restrict_order_odd_unbounded_needs_samples(self):
        mv = MomentVector(4, (0.0, 1.0, 0.5, 2.0), Support.upper_only(1.0),
                          positive_part_pth=2.0)
        even = restrict_order(mv, 2)
        assert even.positive_part_pth == 1.0
        with pytest.raises(OrderError):
            restrict_order(mv, 3)


class TestMomentsFromSamples:
    def test_point_mass(self):
        mv = moments_from_samples([1.0, 1.0, 1.0], 3, Support.interval(0, 1))
        assert mv.mu == (1.0, 1.0, 1.0)

    def test_symmetric_two_point(self):
        mv = moments_from_samples([0.0, 1.0], 2, Support.interval(0, 1))
        assert mv.mu == (0.5, 0.5)

    def test_converges_to_uniform_moments(self, rng):
        n = 10 ** 6
        data = rng.random(n)
        mv = moments_from_samples(data, 4, Support.interval(0, 1))
        for k in range(1, 5):
            exact = 1.0 / (k + 1)
            sd = float(np.std(data ** k))
            assert abs(mv.mu[k - 1] - exact) <= 5 * sd / math.sqrt(n)

    def test_positive_part_for_even_order_keeps_negative_mass(self):
        # E max(X^2, 0) = E X^2 even when every sample is negative
        mv = moments_from_samples([-0.5, -0.25], 2, Support.interval(-1, 1))
        assert mv.positive_part_pth == pytest.approx((0.25 + 0.0625) / 2)

    def test_names_offending_index(self):
        with pytest.raises(DomainError) as err:
            moments_from_samples([0.5, 1.5, 0.2], 2, Support.interval(0, 1))
        assert "index 1" in str(err.value)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            moments_from_samples([], 2, Support.interval(0, 1))


class TestAnalyticConstructors:
    def test_uniform_unit_interval(self):
        mv = Uniform(0.0, 1.0).moment_vector(2)
        assert mv.mu == pytest.approx((0.5, 1 / 3), rel=1e-15)
        d = (mv.mu[1] / mv.mu[0]) ** 2
        assert d == pytest.approx(4 / 9, rel=1e-15)

    def test_uniform_first_moment(self):
        assert Uniform(0.0, 1.0).moment_vector(1).mu == (0.5,)

    def test_uniform_zero_two(self):
        mv = Uniform(0.0, 2.0).moment_vector(4)
        assert mv.mu == pytest.approx((1.0, 4 / 3, 2.0, 16 / 5), rel=1e-15)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1e150), (1e8, 1e8 + 1.0),
                                       (1e3, 1e3 + 1e-3), (0.3, 1.7)])
    def test_uniform_against_mpmath(self, lo, hi):
        # (hi^(k+1) - lo^(k+1)) / ((k+1)(hi - lo)) in floats overflows for
        # a huge hi and cancels for a narrow support far from 0
        import mpmath
        p = 2 if hi > 1e100 else 6
        mv = Uniform(lo, hi).moment_vector(p)
        with mpmath.workdps(60):
            a, b = mpmath.mpf(lo), mpmath.mpf(hi)
            want = [float((b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a)))
                    for k in range(1, p + 1)]
        assert mv.mu == pytest.approx(want, rel=1e-14)

    def test_uniform_positive_part_past_the_float_range_of_its_power(self):
        # odd p with lo < 0 < hi: E max(X^3, 0) = hi^4 / (4 (hi - lo)) is
        # 2.5e299 here, although hi^4 itself overflows
        import mpmath
        mv = Uniform(-1.0, 1e100).moment_vector(3)
        with mpmath.workdps(60):
            a, b = mpmath.mpf(-1), mpmath.mpf(1e100)
            want = [float((b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a)))
                    for k in (1, 2, 3)]
            pos = float(b ** 4 / (4 * (b - a)))
        assert mv.mu == pytest.approx(want, rel=1e-14)
        assert mv.positive_part_pth == pytest.approx(pos, rel=1e-14)

    def test_uniform_positive_part_unchanged_where_finite(self):
        # the fallback runs only where the direct form overflows
        for lo, hi in ((-1.0, 2.0), (-0.3, 0.7), (-5.0, 1e50)):
            got = Uniform(lo, hi).positive_part_moment(3)
            assert got == hi ** 4 / (4 * (hi - lo))

    def test_uniform_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            Uniform(1.0, 1.0).moment_vector(2)

    def test_bernoulli_constant_moments(self):
        assert Bernoulli(0.3).moment_vector(4).mu == (0.3,) * 4

    def test_beta_moments_match_sampling(self, rng):
        mv = Beta(2.0, 5.0).moment_vector(3)
        data = rng.beta(2.0, 5.0, 200_000)
        for k in range(1, 4):
            est = float(np.mean(data ** k))
            sd = float(np.std(data ** k))
            assert abs(mv.mu[k - 1] - est) <= 5 * sd / math.sqrt(len(data))

    def test_point_inside_support(self):
        mv = PointMass(0.5, 0, 1).moment_vector(3)
        assert mv.mu == (0.5, 0.25, 0.125)
        with pytest.raises(DomainError):
            PointMass(2.0, 0, 1).moment_vector(2)


class TestShiftAndReflect:
    def test_shift_point_mass_at_lower_bound(self):
        mv = PointMass(-1.0, -1.0, 1.0).moment_vector(3)
        shifted = shift_to_origin(mv)
        assert shifted.support.lower == 0.0
        assert shifted.support.upper == 2.0
        assert shifted.mu == (0.0, 0.0, 0.0)

    def test_shift_uniform_matches_analytic(self):
        mv = Uniform(-1.0, 1.0).moment_vector(4)
        shifted = shift_to_origin(mv)
        expected = Uniform(0.0, 2.0).moment_vector(4)
        assert shifted.mu == pytest.approx(expected.mu, rel=1e-13)

    def test_shift_two_point_pm_one(self):
        # values {-1, +1} with P(+1) = q, shifted by +1: E(Y+1)^k = q 2^k
        q = 0.3
        data = np.array([-1.0] * 7 + [1.0] * 3)
        mv = moments_from_samples(data, 3, Support.interval(-1, 1))
        shifted = shift_to_origin(mv)
        assert shifted.mu == pytest.approx(tuple(q * 2 ** k for k in (1, 2, 3)),
                                           rel=1e-12)

    def test_shift_noop_at_origin(self):
        mv = Uniform(0.0, 1.0).moment_vector(3)
        assert shift_to_origin(mv) is mv

    def test_reflect_symmetric_uniform(self):
        mv = Uniform(0.0, 1.0).moment_vector(4)
        assert reflect_moments(mv).mu == pytest.approx(mv.mu, rel=1e-12)

    def test_reflect_point_at_upper_bound(self):
        mv = PointMass(1.0, 0, 1).moment_vector(3)
        assert reflect_moments(mv).mu == (0.0, 0.0, 0.0)

    def test_reflect_bernoulli(self):
        mv = Bernoulli(0.3).moment_vector(4)
        assert reflect_moments(mv).mu == pytest.approx((0.7,) * 4, rel=1e-13)

    def test_reflect_twice_is_identity(self, rng):
        for _ in range(20):
            mv = random_interval_mv(rng, 4)
            back = reflect_moments(reflect_moments(mv))
            assert back.mu == pytest.approx(mv.mu, rel=1e-10, abs=1e-12)

    def test_reflect_twice_on_samples(self, rng):
        data = rng.random(1000)
        mv = moments_from_samples(data, 3, Support.interval(0, 1))
        back = reflect_moments(reflect_moments(mv))
        assert back.mu == pytest.approx(mv.mu, rel=1e-10)

    @pytest.mark.parametrize("transform", [shift_to_origin, reflect_moments])
    def test_precision_lost_far_from_the_origin(self, transform):
        # a valid law whose raw moments near 1e18 cancel every digit in the
        # binomial re-expansion: the rounding, not the law, breaks the chain
        mv = Uniform(1000.0, 1001.0).moment_vector(6)
        with pytest.raises(DomainError, match="lose precision") as raised:
            transform(mv)
        assert not isinstance(raised.value, InfeasibleMomentsError)

    def test_infeasible_vector_stays_infeasible_when_shifted(self):
        # mu[1]*mu[3] = 7.695 < mu[2]^2 = 8.41 after the shift, far past what
        # rounding can explain
        mv = MomentVector(3, (0.9, 0.1, 0.05), Support.interval(-1.0, 1.0),
                          0.05)
        with pytest.raises(InfeasibleMomentsError, match="Cauchy-Schwarz"):
            shift_to_origin(mv)

    def test_requires_bounded_below(self):
        mv = MomentVector(2, (0.0, 1.0), Support.upper_only(1.0),
                          positive_part_pth=1.0)
        with pytest.raises(DomainError):
            shift_to_origin(mv)
        with pytest.raises(DomainError):
            reflect_moments(mv)


def bits(values):
    return [struct.pack("<d", v) for v in values]


def tolerant_check(mu, support, pos):
    """MomentVector's feasibility checks on a nonnegative support as they
    were before their strict pre-tests: every tolerance is computed for
    every entry."""
    b = support.upper
    prev = 1.0
    for k, m in enumerate(mu, start=1):
        scale = max(abs(b * prev), abs(m), 1e-300)
        if m < -1e-9 * scale:
            raise InfeasibleMomentsError(
                f"mu[{k}] = {m} is negative for a variable on "
                f"[{support.lower}, {b}]")
        if m - b * prev > 1e-9 * scale:
            raise InfeasibleMomentsError(
                f"support chain violated: mu[{k}] = {m} exceeds "
                f"upper*mu[{k - 1}] = {b * prev}")
        prev = m
    m = (1.0, *mu)
    for d in range(1, len(mu)):
        lhs = m[d - 1] * m[d + 1]
        try:
            rhs = m[d] ** 2
        except OverflowError:
            raise DomainError(f"mu[{d}]^2 leaves the float range") from None
        if lhs - rhs < -1e-9 * max(abs(lhs), rhs, 1e-300):
            raise InfeasibleMomentsError(
                f"Cauchy-Schwarz chain violated: mu[{d - 1}]*mu[{d + 1}] = "
                f"{lhs} < mu[{d}]^2 = {rhs}")
    if pos is None:
        return
    if pos < 0.0:
        raise InfeasibleMomentsError(
            f"E max(X^p, 0) cannot be negative; got {pos}")
    if pos - mu[-1] < -1e-9 * max(abs(mu[-1]), 1e-300):
        raise InfeasibleMomentsError(
            f"on a nonnegative support E max(X^p, 0) = E X^p = "
            f"{mu[-1]}, but positive_part_pth = {pos}")


def nudged(draw, value):
    """value moved by an ulp, by 1e-12 to 1e-7 relative, or to a tiny
    negative value or 0, or left as it is."""
    how = draw(st.sampled_from(["none", "ulp", "relative", "tiny", "zero"]))
    if how == "ulp":
        return math.nextafter(value, draw(st.sampled_from([-1.0, 1.0]))
                              * math.inf)
    if how == "relative":
        return value * (1.0 + (draw(st.sampled_from([-1.0, 1.0]))
                               * 10.0 ** draw(st.floats(-12.0, -7.0))))
    if how == "tiny":
        return -draw(st.sampled_from([5e-324, 1e-310, 1e-300, 1e-200,
                                      1e-30]))
    return 0.0 if how == "zero" else value


def outcome(call):
    try:
        call()
    except TailboundError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def nudged_moments(draw):
    """The finite leading moments (up to 8) of a discrete law on
    [0, upper], upper up to 1e160, with one entry nudged, and E max(X^p, 0)
    as None or the last moment nudged."""
    upper = 10.0 ** draw(st.integers(-3, 160))
    atoms = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(atoms),
                            max_size=len(atoms)))
    total = math.fsum(weights)
    mu = []
    for k in range(1, draw(st.integers(1, 8)) + 1):
        try:
            m = math.fsum(w * (x * upper) ** k
                          for w, x in zip(weights, atoms)) / total
        except OverflowError:
            break
        if not math.isfinite(m):
            break
        mu.append(m)
    assume(mu)
    i = draw(st.integers(0, len(mu) - 1))
    mu[i] = nudged(draw, mu[i])
    pos = nudged(draw, mu[-1]) if draw(st.booleans()) else None
    return mu, Support.interval(0.0, upper), pos


@st.composite
def interval_vectors(draw):
    """Moment vectors of discrete laws on [lo, lo + width], lo of either
    sign, with the exact positive part where lo < 0."""
    lo = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(1e-3, 1e3))
    p = draw(st.integers(1, 8))
    atoms = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(atoms),
                            max_size=len(atoms)))
    ys = [lo + x * width for x in atoms]
    total = math.fsum(weights)
    mu = [math.fsum(w * y ** k for w, y in zip(weights, ys)) / total
          for k in range(1, p + 1)]
    pos = math.fsum(w * max(y ** p, 0.0) for w, y in zip(weights, ys)) / total
    try:
        return MomentVector(p, mu, Support.interval(lo, lo + width), pos)
    except TailboundError:
        assume(False)


# the binomial sums that shift_to_origin and reflect_moments evaluate,
# one moment(j) and one power per term


def shifted_by_formula(mv):
    a = mv.support.lower
    mu = []
    for k in range(1, mv.p + 1):
        total = 0.0
        for j in range(k + 1):
            total += math.comb(k, j) * mv.moment(j) * (-a) ** (k - j)
        mu.append(0.0 if -1e-15 < total < 0.0 else total)
    return mu


def reflected_by_formula(mv):
    b = mv.support.upper
    mu = [sum(math.comb(k, j) * b ** (k - j) * (-1.0) ** j * mv.moment(j)
              for j in range(k + 1))
          for k in range(1, mv.p + 1)]
    return [0.0 if -1e-15 < m < 0.0 else m for m in mu]


class TestValidationAndTransformsAgainstTheirFormulas:
    @settings(max_examples=500, deadline=None)
    @given(case=nudged_moments())
    # a point mass at 1e100: mu[2]^2 = 1e400 leaves the float range
    @example(case=([1e100, 1e200, 1e300], Support.interval(0.0, 1e100),
                   None))
    # past the support chain's tolerance, and within it
    @example(case=([0.5, 0.25 * (1 + 2e-9)], Support.interval(0.0, 0.5),
                   None))
    @example(case=([0.5, 0.25 * (1 + 5e-10)], Support.interval(0.0, 0.5),
                   None))
    # a negative moment after a zero one, where the scale is tiny
    @example(case=([0.0, -1e-200], Support.interval(0.0, 1.0), None))
    @example(case=([0.5, 0.4, 0.05], Support.interval(0.0, 1.0), None))
    # a negative variance, past the tolerance and within it
    @example(case=([0.5, 0.2], Support.interval(0.0, 1.0), None))
    @example(case=([0.5, 0.25 * (1 - 5e-10)], Support.interval(0.0, 1.0),
                   None))
    # a positive part below E X^p, past the tolerance and within it
    @example(case=([0.5, 0.3], Support.interval(0.0, 1.0), 0.3 * (1 - 2e-9)))
    @example(case=([0.5, 0.3], Support.interval(0.0, 1.0), 0.3 * (1 - 5e-10)))
    def test_verdicts_match_the_tolerant_checks(self, case):
        mu, support, pos = case
        want = outcome(lambda: tolerant_check(mu, support, pos))
        got = outcome(lambda: MomentVector(len(mu), mu, support, pos))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(mv=interval_vectors())
    def test_shift_and_reflect_match_the_binomial_sums_bit_for_bit(self, mv):
        width = mv.support.width
        for transform, formula in ((shift_to_origin, shifted_by_formula),
                                   (reflect_moments, reflected_by_formula)):
            if transform is shift_to_origin and mv.support.lower == 0.0:
                assert shift_to_origin(mv) is mv
                continue
            try:
                want = formula(mv)
            except OverflowError:
                with pytest.raises(DomainError, match="float range"):
                    transform(mv)
                continue
            try:
                got = transform(mv).mu
            except TailboundError as exc:
                # rejected after the transform: so are the formula's values,
                # as infeasible where the transform blames lost precision
                lost = "lose precision" in str(exc)
                with pytest.raises(InfeasibleMomentsError if lost
                                   else type(exc)) as raised:
                    MomentVector(mv.p, want, Support.interval(0.0, width),
                                 want[-1])
                if lost:
                    assert str(raised.value) in str(exc)
                else:
                    assert str(exc) in str(raised.value)
                continue
            assert bits(got) == bits(want)


class TestFeasibilityProperties:
    def test_cauchy_schwarz_chain_on_random_mixtures(self, rng):
        for _ in range(100):
            mv = random_interval_mv(rng, int(rng.integers(3, 7)))
            for d in range(1, mv.p - 1):
                lhs = mv.mu[d - 1] * mv.mu[d + 1]
                rhs = mv.mu[d] ** 2
                assert lhs - rhs >= -1e-12 * lhs

    def test_sample_moments_satisfy_chain(self, rng):
        data = rng.random(5000) ** 2
        mv = moments_from_samples(data, 6, Support.interval(0, 1))
        for d in range(1, 5):
            assert mv.mu[d - 1] * mv.mu[d + 1] >= mv.mu[d] ** 2 * (1 - 1e-12)


class TestEnsembleSpec:
    def test_replication(self):
        mv = Uniform(0, 1).moment_vector(2)
        spec = EnsembleSpec.iid_replicate(mv, 5)
        assert spec.n == 5
        assert all(v is mv for v in spec.variables)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            EnsembleSpec(())


class TestSampleFile:
    def test_plain_values(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0.25\n0.5\n\n# comment\n0.75\n")
        assert list(read_sample_file(path)) == [0.25, 0.5, 0.75]

    def test_two_column_csv_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,value\na,0.25\nb,0.5\n")
        assert list(read_sample_file(path)) == [0.25, 0.5]

    def test_rejects_bad_token(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0.25\nnot-a-number\n")
        with pytest.raises(DomainError):
            read_sample_file(path)
