import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from helpers import binomial_sf, exact_mgf, irwin_hall_sf

from tailbound import (
    Bernoulli,
    Beta,
    ConfigError,
    DomainError,
    OracleError,
    PointMass,
    TruncatedExponential,
    Uniform,
    brute_root_scan,
    make_distribution,
    mc_tail,
    solve_poly_exp,
)
from tailbound import distributions, oracle

E = math.e


class TestMcTail:
    def test_point_mass_never_deviates(self):
        est = mc_tail(PointMass(0.5, lo=0, hi=1), n=4, t=0.1, trials=2000, seed=1)
        assert est.probability == 0.0
        assert est.stderr == 0.0

    def test_single_uniform_exact_tail(self):
        # P(X - 1/2 >= 1/4) = 1/4
        est = mc_tail(Uniform(0, 1), n=1, t=0.25, trials=400_000, seed=2)
        assert abs(est.probability - 0.25) <= 3 * est.stderr

    def test_two_uniforms_corner_triangle(self):
        # P(X1 + X2 - 1 >= 1/2) = area of the corner triangle = 1/8
        est = mc_tail(Uniform(0, 1), n=2, t=0.5, trials=400_000, seed=3)
        assert abs(est.probability - 0.125) <= 3 * est.stderr

    @pytest.mark.parametrize("dist", [
        Beta(2, 5), Uniform(-1.0, 2.0), Bernoulli(0.3), PointMass(0.5),
        TruncatedExponential(1.0, 2.5)])
    def test_deterministic_for_fixed_seed(self, dist):
        a = mc_tail(dist, n=6, t=0.4, trials=50_000, seed=99)
        b = mc_tail(dist, n=6, t=0.4, trials=50_000, seed=99)
        assert a == b

    def test_seed_changes_estimate(self):
        a = mc_tail(Uniform(0, 1), n=5, t=0.5, trials=20_000, seed=1)
        b = mc_tail(Uniform(0, 1), n=5, t=0.5, trials=20_000, seed=2)
        assert a.probability != b.probability

    def test_stderr_formula(self):
        est = mc_tail(Uniform(0, 1), n=3, t=0.3, trials=10_000, seed=5)
        expected = math.sqrt(est.probability * (1 - est.probability) / 10_000)
        assert est.stderr == pytest.approx(expected, rel=1e-12)

    def test_rejects_tiny_trial_counts(self):
        with pytest.raises(DomainError):
            mc_tail(Uniform(0, 1), n=1, t=0.1, trials=10, seed=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(trials=5000.5), "trials must be an integer; got 5000.5"),
        (dict(trials="5000"), "trials must be an integer; got '5000'"),
        (dict(seed="x"), "the seed must be a nonnegative integer; got 'x'"),
        (dict(seed=1.0), "the seed must be a nonnegative integer; got 1.0"),
        (dict(seed=-1), "the seed must be a nonnegative integer; got -1"),
        (dict(t=math.nan), "the threshold t must be finite; got nan"),
        (dict(t=math.inf), "the threshold t must be finite; got inf"),
        (dict(t=-math.inf), "the threshold t must be finite; got -inf"),
    ])
    def test_rejects_inputs_that_are_not_counts_seeds_or_thresholds(
            self, kwargs, message):
        # trials=5000.5 and seed="x" raised a bare TypeError, seed=-1
        # numpy's ValueError, and t=nan returned probability 0
        args = dict(dist=Uniform(0, 1), n=3, t=0.5, trials=5000, seed=1)
        with pytest.raises(DomainError) as info:
            mc_tail(**{**args, **kwargs})
        assert str(info.value) == message

    def test_numpy_integers_are_counts_and_seeds(self):
        plain = mc_tail(Uniform(0, 1), 3, 0.5, trials=5000, seed=1)
        numpy = mc_tail(Uniform(0, 1), np.int64(3), 0.5,
                        trials=np.int32(5000), seed=np.uint64(1))
        assert numpy == plain
        assert type(numpy.trials) is int and type(numpy.seed) is int

    # (n, trials, block): the 100_003 trials end in a partial block at each
    # n, and a block of 64 draws holds 9 trials at n = 7 and one at n = 100
    SIZES = [(1, 100_003, None), (7, 100_003, None), (100, 100_003, None),
             (7, 3_001, 64), (100, 3_001, 64)]

    @pytest.mark.parametrize("n,trials,block", SIZES)
    def test_uniform_sums_match_irwin_hall(self, monkeypatch, n, trials,
                                           block):
        if block is not None:
            monkeypatch.setattr(oracle, "_BLOCK", block)
        # one standard deviation of the sum above its mean: a tail near 0.16
        t = math.sqrt(n / 12.0)
        exact = irwin_hall_sf(n, n / 2.0 + t)
        est = mc_tail(Uniform(0, 1), n, t, trials=trials, seed=n)
        assert abs(est.probability - exact) \
            <= 5.0 * math.sqrt(exact * (1.0 - exact) / trials)

    @pytest.mark.parametrize("n,trials,block", SIZES)
    def test_bernoulli_sums_match_the_binomial_tail(self, monkeypatch, n,
                                                    trials, block):
        if block is not None:
            monkeypatch.setattr(oracle, "_BLOCK", block)
        q = 0.3
        k = math.ceil(n * q)
        # halfway between attainable sums, so rounding of the centred sum
        # cannot move a draw across t
        t = k + 0.5 - n * q
        exact = binomial_sf(n, q, k + 1)
        est = mc_tail(Bernoulli(q), n, t, trials=trials, seed=n)
        assert abs(est.probability - exact) \
            <= 5.0 * math.sqrt(exact * (1.0 - exact) / trials)

    def test_blocks_reuse_one_buffer(self):
        # twenty blocks of n * m = 65,530 draws: the draws of one block
        # (512 KiB) and the sums of its trials are all that is held. A
        # fresh array per block was held beside the previous one
        n = 10
        tracemalloc.start()
        try:
            mc_tail(Uniform(0, 1), n, 1.0, trials=20 * (oracle._BLOCK // n),
                    seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * oracle._BLOCK


class TestExactMgf:
    """The closed forms in tests/helpers.py, the reference for the MGF
    envelope tests."""

    def test_one_at_zero(self):
        for dist in (Uniform(0, 1), Bernoulli(0.3), Beta(2, 2),
                     PointMass(0.4, lo=0, hi=1),
                     TruncatedExponential(1.0, 2.0)):
            assert exact_mgf(dist, 0.0) == pytest.approx(1.0, rel=1e-10)

    def test_uniform_at_one(self):
        assert exact_mgf(Uniform(0, 1), 1.0) == pytest.approx(E - 1, rel=1e-12)

    def test_bernoulli_two_point_form(self):
        q, s = 0.3, 1.7
        assert exact_mgf(Bernoulli(q), s) == pytest.approx(
            q * math.exp(s) + 1 - q, rel=1e-14)

    def test_beta_against_quadrature_of_samples(self, rng):
        # independent check: empirical MGF of a large beta sample
        s = 2.0
        data = rng.beta(2.0, 5.0, 400_000)
        empirical = float(np.mean(np.exp(s * data)))
        sd = float(np.std(np.exp(s * data)))
        assert abs(exact_mgf(Beta(2, 5), s) - empirical) \
            <= 5 * sd / math.sqrt(len(data))

    def test_large_tilt_without_overflow(self):
        assert exact_mgf(Uniform(0, 1), -800.0) == pytest.approx(
            1 / 800, rel=1e-14)

    def test_truncated_exponential_closed_form(self):
        d = TruncatedExponential(b=0.5, rate=2.0)
        s = 1.3
        assert exact_mgf(d, s) == pytest.approx(
            math.exp(0.5 * s) * 2.0 / (2.0 + s), rel=1e-13)


class TestBruteRootScan:
    def test_degree_zero(self):
        rs = brute_root_scan([E], 0)
        assert rs.roots[0] == pytest.approx(1.0, abs=1e-10)

    def test_degree_one_lambert_identity(self):
        rs = brute_root_scan([2.0, 1.0], 1)
        assert len(rs.roots) == 1
        assert rs.roots[0] == pytest.approx(
            2.0 - float(mpmath.lambertw(mpmath.e ** 2)), abs=1e-10)

    def test_matches_production_solver(self, rng):
        # the fixed alpha has two roots 0.004 apart, closer than a coarse
        # grid step: its residual dips 1e-5 below zero near x = 0.947
        inputs = [[3.7257185101862467, 5.0, -4.0]]
        for _ in range(500):
            q = int(rng.integers(0, 6))
            alpha = [float(rng.uniform(1.2, 60.0))]
            alpha += [float(v) for v in rng.normal(0.0, 2.0, q)]
            inputs.append(alpha)
        for alpha in inputs:
            q = len(alpha) - 1
            # the solver's tail form: a = alpha_0 - 1, c_j = alpha_j + 1/j!
            ours = solve_poly_exp([alpha[0] - 1.0] + [
                a_j + 1.0 / math.factorial(j)
                for j, a_j in enumerate(alpha[1:], start=1)])
            brute = brute_root_scan(alpha, q, resolution=100_000)
            assert len(ours.roots) == len(brute.roots)
            for a, b in zip(ours.roots, brute.roots):
                assert abs(a - b) <= 1e-8 * (1 + abs(a))

    def test_rejects_low_resolution(self):
        with pytest.raises(DomainError):
            brute_root_scan([2.0], 0, resolution=1000)

    @staticmethod
    def _whole_grid_roots(alpha, resolution):
        """The scan evaluated on the whole np.linspace grid at once, with
        the same bisection: the blocked scan must give the same bits."""
        q = len(alpha) - 1
        x_max = max(4.0 * math.log(alpha[0]), 50.0)
        for _ in range(4):
            grid = np.linspace(0.0, x_max, resolution)
            with np.errstate(over="ignore"):
                values = alpha[0] - np.exp(grid)
                for j in range(1, q + 1):
                    values -= alpha[j] * grid ** j
            signs = np.sign(values)
            flips = np.flatnonzero(signs[:-1] * signs[1:] < 0)
            exact = np.flatnonzero(signs[1:] == 0)
            if flips.size or exact.size:
                break
            x_max *= 2.0

        def residual(x):
            poly = 0.0
            for j in range(q, 0, -1):
                poly = (poly + alpha[j]) * x
            try:
                return alpha[0] - poly - math.exp(x)
            except OverflowError:
                return alpha[0] - poly - math.inf

        roots = [float(grid[i + 1]) for i in exact]
        for i in flips:
            lo, hi = float(grid[i]), float(grid[i + 1])
            flo = residual(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = residual(mid)
                if fmid == 0.0 or hi - lo <= 1e-14 * (1.0 + mid):
                    lo = hi = mid
                    break
                if (fmid > 0.0) == (flo > 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
        return tuple(sorted(roots))

    def test_blocks_match_whole_grid_and_stay_small(self, rng):
        inputs = [(3.7257185101862467, 5.0, -4.0)]
        for _ in range(40):
            q = int(rng.integers(1, 6))
            alpha = [float(rng.uniform(1.2, 60.0))]
            alpha += [float(v) for v in rng.normal(0.0, 2.0, q)]
            inputs.append(tuple(alpha))
        for alpha in inputs:
            assert brute_root_scan(alpha).roots \
                == self._whole_grid_roots(alpha, 200_000)
        tracemalloc.start()
        try:
            brute_root_scan(inputs[0], resolution=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole grid holds five float64 arrays of 1.6 MB each
        assert peak < 1 << 20


class TestSample:
    """sample(rng, out) fills out in place with the very doubles that
    numpy's sized calls draw from the same stream: those calls are the
    reference."""

    SIZED = {
        "uniform": lambda d, rng, shape: rng.uniform(d.lo, d.hi, shape),
        "bernoulli": lambda d, rng, shape:
            (rng.random(shape) < d.q).astype(float),
        "point": lambda d, rng, shape: np.full(shape, d.c),
        "beta": lambda d, rng, shape: rng.beta(d.a, d.b, shape),
        "truncexp": lambda d, rng, shape:
            d.b - rng.exponential(1.0 / d.rate, shape),
    }

    @staticmethod
    def _laws(rng):
        def scale():
            return float(10.0 ** rng.uniform(-3.0, 3.0))

        for _ in range(160):
            lo = float(rng.choice([-1.0, 1.0])) * scale()
            yield Uniform(lo, lo + scale())
            yield Bernoulli(float(rng.uniform()))
            yield PointMass(lo)
            yield Beta(scale(), scale())
            yield TruncatedExponential(lo, scale())

    def test_same_doubles_as_the_sized_calls(self):
        for i, law in enumerate(self._laws(np.random.default_rng(14))):
            shape = (3, 50) if i % 2 else (150,)
            want = self.SIZED[law.tag](law, np.random.default_rng(i), shape)
            out = np.empty(shape)
            got = law.sample(np.random.default_rng(i), out)
            assert got is out
            assert got.tobytes() == want.tobytes(), law

    def test_uniform_width_that_overflows(self):
        # rng.uniform raised OverflowError here: (hi - lo) U would be inf
        with pytest.raises(DomainError):
            Uniform(-1e308, 1e308).sample(np.random.default_rng(0),
                                          np.empty(4))


class TestDistributionFactory:
    def test_known_tags(self):
        assert make_distribution("uniform", lo=0, hi=2).tag == "uniform"
        assert make_distribution("bernoulli", q=0.2).tag == "bernoulli"
        assert make_distribution("beta", a=2, b=3).tag == "beta"
        assert make_distribution("point", c=0.5).tag == "point"
        assert make_distribution("truncexp", b=1, rate=2).tag == "truncexp"
        assert make_distribution("truncated-exponential", b=1, rate=2).tag \
            == "truncexp"

    def test_unknown_tag(self):
        with pytest.raises(ConfigError):
            make_distribution("cauchy")

    def test_missing_parameter(self):
        with pytest.raises(ConfigError):
            make_distribution("bernoulli")

    def test_unused_parameter(self):
        with pytest.raises(ConfigError):
            make_distribution("uniform", lo=0, hi=1, q=0.5)

    def test_moment_vectors_validate(self):
        for tag, params in [("uniform", {"lo": 0.0, "hi": 1.0}),
                            ("bernoulli", {"q": 0.25}),
                            ("beta", {"a": 2.0, "b": 2.0}),
                            ("truncexp", {"b": 1.0, "rate": 1.0})]:
            mv = make_distribution(tag, **params).moment_vector(4)
            assert mv.p == 4

    def test_truncexp_moments_match_sampling(self, rng):
        d = TruncatedExponential(b=1.0, rate=1.5)
        data = d.sample(rng, np.empty(400_000))
        for k in (1, 2, 3):
            sd = float(np.std(data ** k))
            assert abs(d.moment(k) - float(np.mean(data ** k))) \
                <= 5 * sd / math.sqrt(len(data))
        pos = np.maximum(data ** 3, 0.0)
        assert abs(d.positive_part_moment(3) - float(np.mean(pos))) \
            <= 5 * float(np.std(pos)) / math.sqrt(len(data))


class TestTiltedExpectations:
    """(E X e^{sX}, E X^2 e^{sX}) scaled by e^{-s*upper}, against mpmath
    quadrature of the scaled integrands."""

    @staticmethod
    def _reference(density, lo, hi, upper, s):
        import mpmath
        pts = [lo, (lo + hi) / 2, hi]
        with mpmath.workdps(30):
            first = mpmath.quad(
                lambda x: x * mpmath.exp(s * (x - upper)) * density(x), pts)
            second = mpmath.quad(
                lambda x: x * x * mpmath.exp(s * (x - upper)) * density(x), pts)
        return float(first), float(second)

    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 2.3), (3.7, 0.8)])
    @pytest.mark.parametrize("s", [-3.0, 0.0, 0.7, 12.0, 900.0])
    def test_beta(self, a, b, s):
        import mpmath
        norm = mpmath.beta(a, b)

        def density(x):
            return x ** (a - 1) * (1 - x) ** (b - 1) / norm

        got = Beta(a, b).tilted_first_second(s)
        want = self._reference(density, 0, 1, 1.0, s)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.5, 2.3), (10.0, 100.0),
                                     (50.5, 30.2)])
    @pytest.mark.parametrize("s", [999.0, 1001.0, 5e3, 1e5, 1e7])
    def test_beta_large_tilt(self, a, b, s):
        # past s = 1e3 the large-s expansion takes over where it applies;
        # reference: E X^k e^{sX} = E(X^k) M(a+k, a+b+k, s), by mpmath
        import mpmath
        d = Beta(a, b)
        with mpmath.workdps(40):
            exact = [d.moment(k) * mpmath.exp(-s)
                     * mpmath.hyp1f1(a + k, a + b + k, s) for k in (1, 2)]
            want = tuple(float(v) for v in exact)
            ratio = float(exact[1] / exact[0])
        got = d.tilted_first_second(s)
        if min(want) >= sys.float_info.min:
            assert got == pytest.approx(want, rel=1e-12)
        else:
            # the e^{-s} scale underflows (Beta(10, 100) at s = 1e5, 1e7):
            # the law picks another factor, which keeps the ratio
            assert got[0] >= sys.float_info.min
            assert got[1] / got[0] == pytest.approx(ratio, rel=1e-12)

    def test_beta_rejects_non_finite_tilt(self):
        for s in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                Beta(2.0, 3.0).tilted_first_second(s)

    def test_beta_series_is_capped(self, monkeypatch):
        # a = 0.5, b = 1e4 at s = 5e3: the large-s expansion does not apply
        # and the series needs about s terms
        monkeypatch.setattr(distributions, "_MAX_TERMS", 1000)
        with pytest.raises(OracleError):
            Beta(0.5, 1e4).tilted_first_second(5e3)

    @pytest.mark.parametrize("s", [1e-6, 0.05, 3.0, 900.0])
    def test_uniform(self, s):
        got = Uniform(0.3, 1.7).tilted_first_second(s)
        want = self._reference(lambda x: 1 / 1.4, 0.3, 1.7, 1.7, s)
        assert got == pytest.approx(want, rel=1e-10)

    @staticmethod
    def _uniform_exact(lo, hi, s):
        # (1/w) int_lo^hi x^k e^{s(x-hi)} dx for k = 1, 2 from the
        # antiderivatives e^{sx}(x/s - 1/s^2), e^{sx}(x^2/s - 2x/s^2 + 2/s^3),
        # whose terms cancel by up to 25 digits at the smallest tilts
        import mpmath
        with mpmath.workdps(80):
            lo, hi, s = mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(s)

            def f1(x):
                return mpmath.exp(s * (x - hi)) * (x / s - 1 / s ** 2)

            def f2(x):
                return mpmath.exp(s * (x - hi)) * (x * x / s - 2 * x / s ** 2
                                                   + 2 / s ** 3)

            first = (f1(hi) - f1(lo)) / (hi - lo)
            second = (f2(hi) - f2(lo)) / (hi - lo)
            return float(first), float(second), float(second / first)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.3, 1.7), (0.9, 1.0),
                                       (10.0, 11.0), (0.0, 1e-3), (0.0, 2.5)])
    def test_uniform_against_antiderivatives(self, lo, hi):
        # s*hi = 1e-4 was the switch between a series and closed forms whose
        # terms cancel; the limit bound's tilts run through it
        for s_hi in (1e-7, 1e-5, 9e-5, 1.01e-4, 1.2e-4, 2e-4, 1e-3, 0.05,
                     1.0, 7.0, 50.0, 1e3):
            s = s_hi / hi
            first, second = Uniform(lo, hi).tilted_first_second(s)
            want = self._uniform_exact(lo, hi, s)
            assert (first, second, second / first) == pytest.approx(
                want, rel=1e-13), s

    def test_closed_forms_do_not_overflow(self):
        s = 5000.0
        assert Bernoulli(0.2).tilted_first_second(s) == (0.2, 0.2)
        first, second = PointMass(0.5, 0.0, 1.0).tilted_first_second(s)
        assert first == 0.5 * math.exp(-2500.0) and second == 0.5 * first
        first, second = TruncatedExponential(2.0, 1.0).tilted_first_second(s)
        # b E e^{-sE} - E E e^{-sE} for E ~ Exp(1)
        assert first == pytest.approx((2.0 - 1.0 / 5001.0) / 5001.0, rel=1e-12)
        assert math.isfinite(second)
