"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest
from helpers import (
    bennett_bound_generic,
    envelope_derivative,
    exact_mgf,
    random_interval_mv,
    random_upper_bounded_mv,
    w_defining_residual,
)

from tailbound import (
    Bernoulli,
    Beta,
    EnsembleSpec,
    TruncatedExponential,
    Uniform,
    bennett_bound,
    bennett_p3_lambert,
    c_factor,
    classical_sample_size,
    hoeffding_bound,
    hoeffding_limit,
    hoeffding_two_sided,
    mc_tail,
    mgf_upper_bound,
    restrict_order,
    sample_size_for_ci,
)

MC_TRIALS = 1_000_000


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def test_criterion_01_c_factor_range():
    rng = np.random.default_rng(101)
    grid = np.linspace(0.0, 50.0, 26)
    worst_low, worst_high = math.inf, -math.inf
    for _ in range(500):
        mv = random_interval_mv(rng, int(rng.integers(1, 7)))
        for y in grid:
            c = c_factor(mv, float(y))
            worst_low = min(worst_low, c)
            worst_high = max(worst_high, c)
    ok = worst_low > 0.0 and worst_high <= 1.0 + 1e-12
    report(1, "improvement factor lies in (0, 1]", ok,
           f"min={worst_low:.3g} max={worst_high:.17g}")


def test_criterion_02_dominates_classical_bound():
    ensembles = [
        (Uniform(0, 1).moment_vector(5), 10),
        (Bernoulli(0.3).moment_vector(5), 20),
        (Beta(2, 5).moment_vector(5), 15),
    ]
    worst = math.inf
    for mv, n in ensembles:
        spec = EnsembleSpec.iid_replicate(mv, n)
        for frac in np.linspace(0.05, 0.4, 8):
            t = float(frac * n)
            classical = hoeffding_bound(spec, t, 1).bound
            for p in (2, 3, 5):
                worst = min(worst, classical - hoeffding_bound(spec, t, p).bound)
    report(2, "moment-improved bound never exceeds the classical one",
           worst >= -1e-12, f"min slack={worst:.3g}")


def test_criterion_03_uniform_ratio_curve():
    n = 40
    u = Uniform(0, 1)
    ratios = []
    for t in np.linspace(0.1, 0.4, 20):
        classical = math.exp(-2 * n * float(t) ** 2)
        improved = hoeffding_limit([u] * n, n * float(t)).bound
        ratios.append(classical / improved)
    ok = all(r >= 1.0 for r in ratios) and all(
        b > a for a, b in zip(ratios, ratios[1:]))
    report(3, "uniform ratio curve is >= 1 and strictly increasing", ok,
           f"ratio[0]={ratios[0]:.4g} ratio[-1]={ratios[-1]:.4g}")


def test_criterion_04_mgf_envelope_dominates():
    dists = [Uniform(0, 1), Bernoulli(0.3), Beta(2, 2)]
    worst = math.inf
    for dist in dists:
        for p in range(1, 6):
            mv = dist.moment_vector(p)
            for s in np.linspace(0.0, 10.0, 21):
                slack = mgf_upper_bound(mv, float(s)) - exact_mgf(dist, float(s))
                worst = min(worst, slack)
    report(4, "MGF envelope dominates the exact MGF", worst >= -1e-10,
           f"min slack={worst:.3g}")


def test_criterion_05_envelope_monotone_in_order():
    dists = [Uniform(0, 1), Bernoulli(0.3), Beta(2, 2)]
    ok = True
    for dist in dists:
        mv = dist.moment_vector(6)
        for s in (0.5, 1.0, 5.0):
            values = [mgf_upper_bound(restrict_order(mv, p), s)
                      for p in [2, 3, 4, 5, 6]]
            ok &= all(b <= a * (1 + 1e-14) for a, b in zip(values, values[1:]))
    report(5, "envelope values nonincreasing in the moment order", ok)


def test_criterion_06_second_moment_golden_forms():
    rng = np.random.default_rng(606)
    worst_forms, worst_path = 0.0, 0.0
    for _ in range(100):
        mu2 = float(rng.uniform(0.05, 4.0))
        b = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.01, 5.0))
        u = b * t / mu2
        form_a = math.exp(t / b - (t / b + mu2 / b ** 2) * math.log(u + 1.0))
        form_b = math.exp(-(mu2 / b ** 2) * ((u + 1) * math.log(u + 1) - u))
        worst_forms = max(worst_forms, abs(form_a - form_b) / form_b)
        from tailbound import MomentVector, Support
        mv = MomentVector(2, (0.0, mu2), Support.upper_only(b),
                          positive_part_pth=mu2)
        generic = bennett_bound(EnsembleSpec.iid_replicate(mv, 1), t, 2).bound
        worst_path = max(worst_path,
                         abs(generic - min(form_b, 1.0)) / min(form_b, 1.0))
    ok = worst_forms <= 1e-12 and worst_path <= 1e-12
    report(6, "second-moment bound: printed forms and generic path agree", ok,
           f"forms={worst_forms:.3g} path={worst_path:.3g}")


def test_criterion_07_lambert_path_consistency():
    rng = np.random.default_rng(707)
    worst_rel, worst_res = 0.0, 0.0
    for _ in range(200):
        mv = random_upper_bounded_mv(rng, 3, b=float(rng.uniform(0.3, 2.5)))
        n = int(rng.integers(1, 8))
        spec = EnsembleSpec.iid_replicate(mv, n)
        t = float(rng.uniform(0.01, 2.0)) * n * mv.support.upper
        closed = bennett_p3_lambert(spec, t)
        scanned = bennett_bound_generic(spec, t, 3)
        worst_rel = max(worst_rel,
                        abs(closed.bound - scanned.bound) / scanned.bound)
        worst_res = max(worst_res, w_defining_residual(closed))
    ok = worst_rel <= 1e-9 and worst_res <= 1e-12
    report(7, "Lambert closed form matches the root scan", ok,
           f"max rel diff={worst_rel:.3g} max W residual={worst_res:.3g}")


def test_criterion_08_third_moment_tightens_second():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        mv = random_upper_bounded_mv(rng, 3)
        spec = EnsembleSpec.iid_replicate(mv, int(rng.integers(1, 5)))
        t = float(rng.uniform(0.02, 2.0))
        p2 = bennett_bound(spec, t, 2).bound
        p3 = bennett_p3_lambert(spec, t).bound
        ok &= p3 <= p2 + 1e-12
    # equality when the third moment carries no information (mu3 = mu2)
    eq_spec = EnsembleSpec.iid_replicate(Bernoulli(0.35).moment_vector(3), 6)
    for t in (0.2, 0.9, 2.5):
        p2 = bennett_bound(eq_spec, t, 2).bound
        p3 = bennett_p3_lambert(eq_spec, t).bound
        ok &= abs(p3 - p2) <= 1e-10
    report(8, "three-moment bound is tighter, equal when uninformative", ok)


def test_criterion_09_monte_carlo_validity():
    configs = [
        ("hoeffding", Uniform(0, 1), 10, (1, 2, 3)),
        ("hoeffding", Uniform(0, 1), 40, (1, 2, 3)),
        ("hoeffding", Bernoulli(0.3), 20, (1, 2, 3)),
        ("bennett", TruncatedExponential(b=1.0, rate=1.0), 10, (2, 3)),
    ]
    worst = math.inf
    for family, dist, n, p_list in configs:
        mv = dist.moment_vector(max(p_list))
        spec = EnsembleSpec.iid_replicate(mv, n)
        scale = 1.0  # per-variable range for these laws
        for i, frac in enumerate((0.08, 0.15, 0.3)):
            t = frac * n * scale
            estimate = mc_tail(dist, n, t, trials=MC_TRIALS, seed=900 + i)
            for p in p_list:
                if family == "hoeffding":
                    bound = hoeffding_bound(spec, t, p).bound
                else:
                    bound = bennett_bound(spec, t, p).bound
                worst = min(worst, bound + 3 * estimate.stderr
                            - estimate.probability)
    report(9, "every bound dominates the Monte-Carlo tail", worst >= 0.0,
           f"min margin={worst:.3g}")


def test_criterion_10_log_convex_derivative():
    rng = np.random.default_rng(1010)
    h = 1e-3
    worst = math.inf
    for _ in range(50):
        mv = random_interval_mv(rng, int(rng.integers(2, 7)))

        def logv1(y):
            return math.log(envelope_derivative(mv, y, 1))

        for y in np.linspace(h, 10.0, 25):
            second = (logv1(y - h) - 2 * logv1(y) + logv1(y + h)) / (h * h)
            worst = min(worst, second)
    report(10, "log of the envelope derivative is convex", worst >= -1e-8,
           f"min numeric second derivative={worst:.3g}")


def test_criterion_11_bernoulli_degeneracy():
    worst = 0.0
    for q in (0.1, 0.3, 0.7):
        spec = EnsembleSpec.iid_replicate(Bernoulli(q).moment_vector(6), 12)
        for t in (0.5, 2.0):
            base = hoeffding_bound(spec, t, 1).bound
            for p in range(2, 7):
                rel = abs(hoeffding_bound(spec, t, p).bound - base) / base
                worst = max(worst, rel)
    report(11, "Bernoulli inputs reduce every order to the classical bound",
           worst <= 1e-12, f"max rel diff={worst:.3g}")


def test_criterion_12_sample_size_closure():
    mv = Uniform(0, 1).moment_vector(3)
    ok = True
    for alpha in (0.01, 0.05):
        for t in (0.05, 0.1):
            for p in (1, 2, 3):
                n = sample_size_for_ci(mv, t, alpha, p)
                ok &= n <= classical_sample_size(1.0, t, alpha)
                bound = hoeffding_two_sided([mv] * n, n * t, p).bound
                ok &= bound <= alpha + 1e-12
    report(12, "returned sample size meets the confidence level", ok)
