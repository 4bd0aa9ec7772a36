import math

import pytest

import reference as ref
from workloads import split_importtime


def test_irwin_hall_at_two():
    # the sum of two uniforms has density 2 - x on [1, 2]
    assert ref.irwin_hall_sf(2, 1.5) == pytest.approx(0.125, rel=1e-14)
    assert ref.irwin_hall_sf(2, 0.5) == pytest.approx(1 - 0.125, rel=1e-14)
    assert ref.irwin_hall_sf(2, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_irwin_hall_large_n_is_symmetric():
    assert ref.irwin_hall_sf(100, 50.0) == pytest.approx(0.5, rel=1e-12)
    assert ref.irwin_hall_sf(100, 53.0) + ref.irwin_hall_sf(100, 47.0) == \
        pytest.approx(1.0, rel=1e-12)


def test_binomial_tail():
    assert ref.binomial_sf(3, 0.5, 2) == pytest.approx(0.5, rel=1e-14)
    assert ref.binomial_sf(10, 0.3, 0) == pytest.approx(1.0, rel=1e-14)
    assert ref.binomial_sf(10, 0.3, 10) == pytest.approx(0.3 ** 10, rel=1e-12)


def test_classical_hoeffding_of_forty_uniforms_is_exp_minus_five():
    x = ref.hoeffding_exponent(10.0, [(("uniform", 0.0, 1.0), 40)], 1)
    assert math.exp(-x) == pytest.approx(math.exp(-5.0), rel=1e-15)


@pytest.mark.parametrize("var", [("uniform", 0.0, 2.0), ("beta", 2.0, 5.0),
                                 ("bernoulli", 0.3)])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_envelope_factor_at_zero(var, p):
    mu = ref.moments(var, p)
    b = ref.support(var)[1]
    want = (float(mu[1]) / (float(mu[0]) * b)) ** 2
    assert ref.envelope_factor(mu, b, 0.0) == pytest.approx(want, rel=1e-12)


def test_envelope_factor_is_one_for_one_moment():
    assert ref.envelope_factor([0.5], 1.0, 3.0) == pytest.approx(1.0, rel=1e-12)


def test_bennett_two_moments_has_the_classical_form():
    # p = 2: one root log(alpha_0), and the rate is (mu2/b^2) h(b t/mu2)
    t, b, mu2 = 1.5, 1.0, 2.0
    alpha = ref.bennett_alpha(t, b, 2, [mu2])
    root = math.log(float(alpha[0]))
    log_bound = ref.bennett_log_bound(t, b, 2, [mu2], [root])
    assert math.exp(log_bound) == pytest.approx(ref.bennett_classical(t, mu2, b),
                                                rel=1e-12)


def test_truncated_exponential_positive_part_matches_quadrature():
    import mpmath as mp

    var = ("truncexp", 1.0, 2.0)
    want = mp.quad(lambda e: (1 - e) ** 3 * 2 * mp.exp(-2 * e), [0, 1])
    assert float(ref.positive_part(var, 3)) == pytest.approx(float(want), rel=1e-12)


def test_reflection_identities():
    beta = ("beta", 2.0, 5.0)
    # E(1 - X) for Beta(2, 5) is 5/7
    assert float(ref.raw_moment(ref.reflected(beta), 1)) == pytest.approx(5 / 7)
    uni = ("uniform", 1.0, 3.0)
    assert float(ref.raw_moment(ref.shifted(uni), 2)) == pytest.approx(4 / 3)


def test_split_importtime_counts_top_level_scipy_imports():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |     scipy._lib\n"
        "import time:       200 |        300 |   scipy\n"
        "import time:       400 |        400 |     scipy.special._ufuncs\n"
        "import time:       500 |        900 |   scipy.special\n"
        "import time:        50 |       1300 | tailbound.special\n"
        "Traceback (most recent call last):\n"
    )
    rest, scipy_ms = split_importtime(stderr)
    assert scipy_ms == pytest.approx(1.2)
    assert rest == "Traceback (most recent call last):\n"
