"""Bennett bounds against the paper's value at 50 digits.

The paper's bound is exp(min over s > 0 of F(s)), with

    F(s) = -s t + sum_i n_i [sum_{k=2}^{p-1} s^k mu_ik/k!
                             + mu_ip^+/b^p T_{p+1}(s b)],

T_{p+1}(x) = e^x - sum_{j<=p-1} x^j/j! and mu_ip^+ = E max(X_i^p, 0). The
reference below takes each law's moments from its parameters in mpmath,
and the minimum from a scan of F refined by the root of F' at each local
minimum of the scan. It does not use the root equation the library solves
and imports nothing from tailbound.
"""

import math

import mpmath
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tailbound import Beta, EnsembleSpec, TruncatedExponential, Uniform, bennett_bound
from tailbound.cli import main

# the largest relative distance from the 50-digit value measured over 700
# drawn cases like the property's was 2.6e-13, at a bound of 5.4e-79 (a
# rate of -181 to within 1.5e-15)
TOLERANCE = 1e-10


def law_moments_mp(kind, params, p):
    """(mu_2, ..., mu_{p-1}, mu_p^+) of one law at 50 digits."""
    mp = mpmath.mp
    if kind == "truncexp":
        # X = b - E, E ~ Exponential(rate)
        b, rate = (mpmath.mpf(v) for v in params)
        mu = [sum(mpmath.binomial(k, j) * b ** (k - j) * (-1) ** j
                  * mpmath.factorial(j) / rate ** j for j in range(k + 1))
              for k in range(2, p + 1)]
        if p % 2:
            mu[-1] = 0 if b <= 0 else rate * mp.quad(
                lambda u: u ** p * mpmath.exp(rate * (u - b)), [0, b])
        return mu
    if kind == "beta":
        a, c = (mpmath.mpf(v) for v in params)
        return [mpmath.fprod((a + i) / (a + c + i) for i in range(k))
                for k in range(2, p + 1)]
    lo = mpmath.mpf(params[0])
    mu = [(1 - lo ** (k + 1)) / ((k + 1) * (1 - lo)) for k in range(2, p + 1)]
    if p % 2 and lo < 0:
        mu[-1] = 1 / ((p + 1) * (1 - lo))
    return mu


def paper_bound_mp(members, b, t, p):
    """exp(min_s F(s)) at 50 digits for members [(kind, params, n), ...],
    all with upper end b."""
    with mpmath.workdps(50):
        b, t = mpmath.mpf(b), mpmath.mpf(t)
        sums = [mpmath.mpf(0)] * (p - 1)
        for kind, params, n in members:
            for i, m in enumerate(law_moments_mp(kind, params, p)):
                sums[i] += n * m

        def tail(x, order):
            # sum_{j>=order} x^j/j!, as its series below x = 1
            if x >= 1:
                return mpmath.exp(x) - sum(x ** j / mpmath.factorial(j)
                                           for j in range(order))
            term = total = x ** order / mpmath.factorial(order)
            j = order
            while term > total * mpmath.mpf(10) ** -60:
                j += 1
                term *= x / j
                total += term
            return total

        def f(y):
            # F at s = y/b
            s = y / b
            poly = sum(s ** k * sums[k - 2] / mpmath.factorial(k)
                       for k in range(2, p))
            return -s * t + poly + sums[-1] / b ** p * tail(y, p)

        def df(y):
            s = y / b
            poly = sum(s ** (k - 1) * sums[k - 2] / mpmath.factorial(k - 1)
                       for k in range(2, p))
            return -t + poly + sums[-1] / b ** (p - 1) * tail(y, p - 1)

        # past y_max, F' > 0: T_p grows at least as fast as the polynomial
        # once y >= 2 p and T_p exceeds it
        y_max = mpmath.mpf(2 * p)
        while not sums[-1] / b ** (p - 1) * tail(y_max, p - 1) > t + sum(
                abs(sums[k - 2]) * (y_max / b) ** (k - 1)
                / mpmath.factorial(k - 1) for k in range(2, p)):
            y_max *= 2
        with mpmath.workdps(20):
            grid = ([y_max * mpmath.mpf(10) ** (-e / 10) for e in range(300, 0, -1)]
                    + [y_max * i / 400 for i in range(1, 401)])
            grid = sorted(set(grid))
            values = [f(y) for y in grid]
        best = mpmath.mpf(0)
        for i in range(len(grid)):
            lower = values[i - 1] if i else mpmath.inf
            upper = values[i + 1] if i + 1 < len(grid) else mpmath.inf
            if values[i] <= lower and values[i] <= upper:
                lo = grid[i - 1] if i else grid[i] / 2
                hi = grid[i + 1] if i + 1 < len(grid) else grid[i] * 2
                y = mpmath.findroot(df, (lo, hi), solver="anderson",
                                    verify=False)
                best = min(best, f(y), values[i])
        return mpmath.exp(best)


def library_record(members, t, p):
    vectors = []
    for kind, params, n in members:
        law = {"truncexp": TruncatedExponential, "beta": Beta,
               "uniform": Uniform}[kind](*params)
        vectors += [law.moment_vector(p)] * n
    return bennett_bound(EnsembleSpec(vectors), t, p)


def assert_close(got, want):
    want = float(want)
    assert abs(got - want) <= TOLERANCE * want + 1e-300, (got, want)


@st.composite
def ensembles(draw):
    """Members [(kind, params, n)] sharing one upper end b, with p and t.
    At b = 1 they mix truncated exponentials, Beta and Uniform(lo, 1) laws;
    at another b they are truncated exponentials."""
    b = draw(st.one_of(st.just(1.0), st.floats(-3.0, math.log10(3.0)).map(
        lambda e: 10.0 ** e)))
    kinds = ["truncexp", "beta", "uniform"] if b == 1.0 else ["truncexp"]
    members = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "truncexp":
            params = (b, 10.0 ** draw(st.floats(math.log10(0.05), math.log10(20.0))))
        elif kind == "beta":
            params = (draw(st.floats(0.2, 20.0)), draw(st.floats(0.2, 20.0)))
        else:
            params = (draw(st.floats(-3.0, 0.9)), 1.0)
        members.append((kind, params, draw(st.integers(1, 30))))
    p = draw(st.integers(2, 8))
    count = sum(n for _, _, n in members)
    t = count * b * 10.0 ** draw(st.floats(-4.0, 0.5))
    return members, b, t, p


class TestAgainstThePaper:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ensembles())
    # ROADMAP item 1's b = 0.001 law, where alpha_0 - 1 was 2e-10
    @example(([("truncexp", (0.001, 1.0), 1)], 0.001, 5.0, 4))
    def test_bound_is_the_paper_value(self, case):
        members, b, t, p = case
        assert_close(library_record(members, t, p).bound,
                     paper_bound_mp(members, b, t, p))

    @pytest.mark.parametrize("params, n, t, p", [
        ("b=1,rate=0.1", 10, 5, 6),
        ("b=1,rate=0.1", 10, 5, 8),
        ("b=1,rate=0.1", 10, 1, 8),
        ("b=0.001,rate=1", 1, 5, 4),
        ("b=0.001,rate=1", 1, 5, 6),
    ])
    def test_long_lower_tails_from_the_cli(self, capsys, params, n, t, p):
        # alpha_0 = 1 + a rounded a = 1.4e-13 to 2.1e-10 and lost c_j
        # under 1/j!: these printed values up to 3.8e-3 away from the
        # paper's, and the last exited 2
        code = main(["bound", "--family", "bennett", "--dist", "truncexp",
                     "--params", params, "--n", str(n), "--t", str(t),
                     "--p", str(p)])
        out = capsys.readouterr().out
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        b, rate = (float(kv.split("=")[1]) for kv in params.split(","))
        want = paper_bound_mp([("truncexp", (b, rate), n)], b, t, p)
        assert abs(float(row[3]) - float(want)) <= 1e-11 * float(want)


class TestOrderThreeClosedForm:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ensembles())
    # alpha = (1.4, 1/3): y = 4.2 - W(3 e^4.2)
    @example(([("uniform", (0.0, 1.0), 1)], 1.0, 0.1, 3))
    def test_root_is_the_lambert_w_closed_form(self, case):
        # the paper's p = 3 root y = z - W(e^z/alpha_1), z = alpha_0/alpha_1,
        # with alpha_0 = 1 + t b^2/mu^3 and alpha_1 = b mu^2/mu^3 - 1 from the
        # laws' parameters at 50 digits (alpha_1 near 0, all mass near b,
        # is left out)
        members, b, t, _ = case
        with mpmath.workdps(50):
            mu2 = mu3 = mpmath.mpf(0)
            for kind, params, n in members:
                m2, m3 = law_moments_mp(kind, params, 3)
                mu2 += n * m2
                mu3 += n * m3
            b_mp = mpmath.mpf(b)
            alpha0 = 1 + t * b_mp ** 2 / mu3
            alpha1 = b_mp * mu2 / mu3 - 1
            assume(alpha1 > mpmath.mpf(10) ** -20)
            z = alpha0 / alpha1
            want = z - mpmath.lambertw(mpmath.exp(z) / alpha1)
        got = library_record(members, t, 3).y_star
        assert abs(got - want) <= TOLERANCE * want, (got, want)
