"""Reference values computed apart from tailbound, for checking its outputs.

Nothing here imports tailbound. Moments come from distribution identities
(a shifted uniform is a uniform, a reflected Beta(a, b) is a Beta(b, a)),
the improvement factor from numerically differentiating the moment
envelope's definition in mpmath, Bennett bounds from the printed formulas,
and tail probabilities from exact Irwin-Hall and binomial sums.

A variable is a plain tuple: ("uniform", lo, hi), ("beta", a, b),
("bernoulli", q), ("truncexp", b, rate), being b minus an
Exponential(rate) variable, or ("empirical", lo, hi, values), the uniform
law on a sample on the support [lo, hi].
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 50


def support(var) -> tuple[float | None, float]:
    kind = var[0]
    if kind == "uniform":
        return var[1], var[2]
    if kind in ("beta", "bernoulli"):
        return 0.0, 1.0
    if kind == "truncexp":
        return None, var[1]
    if kind == "empirical":
        return var[1], var[2]
    raise ValueError(f"unknown variable {var!r}")


def raw_moment(var, k: int):
    """E X^k as an mpmath number."""
    with mp.workdps(DPS):
        kind = var[0]
        if k == 0:
            return mp.mpf(1)
        if kind == "uniform":
            lo, hi = mp.mpf(var[1]), mp.mpf(var[2])
            return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))
        if kind == "beta":
            a, b = mp.mpf(var[1]), mp.mpf(var[2])
            return mp.rf(a, k) / mp.rf(a + b, k)
        if kind == "bernoulli":
            return mp.mpf(var[1])
        if kind == "truncexp":
            b, r = mp.mpf(var[1]), mp.mpf(var[2])
            # E E^j = j!/r^j for E ~ Exponential(r)
            return mp.fsum(mp.binomial(k, j) * b ** (k - j) * (-1) ** j
                           * mp.factorial(j) / r ** j for j in range(k + 1))
        if kind == "empirical":
            return mp.mpf(math.fsum(x ** k for x in var[3])) / len(var[3])
        raise ValueError(f"unknown variable {var!r}")


def positive_part(var, p: int):
    """E max(X^p, 0) as an mpmath number."""
    lo, hi = support(var)
    if p % 2 == 0 or (lo is not None and lo >= 0):
        return raw_moment(var, p)
    with mp.workdps(DPS):
        if var[0] == "empirical":
            return mp.mpf(math.fsum(max(x ** p, 0.0) for x in var[3])) / len(var[3])
        if var[0] == "uniform":
            if hi <= 0:
                return mp.mpf(0)
            hi_, lo_ = mp.mpf(hi), mp.mpf(lo)
            return hi_ ** (p + 1) / ((p + 1) * (hi_ - lo_))
        if var[0] == "truncexp":
            b, r = mp.mpf(var[1]), mp.mpf(var[2])
            if b <= 0:
                return mp.mpf(0)
            # X^p > 0 exactly when E < b; E[E^j; E < b] = j!/r^j P(Gamma(j+1, r) < b)
            return mp.fsum(
                mp.binomial(p, j) * b ** (p - j) * (-1) ** j * mp.factorial(j)
                / r ** j * mp.gammainc(j + 1, 0, r * b, regularized=True)
                for j in range(p + 1))
    raise ValueError(f"no positive part for {var!r}")


def shifted(var):
    """The law of X - lo on [0, hi - lo]."""
    lo, hi = support(var)
    if lo is None:
        raise ValueError("shifting needs a bounded-below variable")
    if var[0] == "uniform":
        return ("uniform", 0.0, hi - lo)
    if var[0] == "empirical":
        return ("empirical", 0.0, hi - lo, tuple(x - lo for x in var[3]))
    return var


def reflected(var):
    """The law of hi - X on [0, hi - lo]."""
    lo, hi = support(var)
    if var[0] == "uniform":
        return ("uniform", 0.0, hi - lo)
    if var[0] == "beta":
        return ("beta", var[2], var[1])
    if var[0] == "bernoulli":
        return ("bernoulli", 1.0 - var[1])
    if var[0] == "empirical":
        return ("empirical", 0.0, hi - lo, tuple(hi - x for x in var[3]))
    raise ValueError(f"cannot reflect {var!r}")


def moments(var, p: int) -> list:
    return [raw_moment(var, k) for k in range(1, p + 1)]


def envelope_factor(mu, b, y) -> float:
    """(v''(y)/v'(y))^2 for the order-p moment envelope at unit scale.

    v(y) = mu_p/b^p (e^y - sum_{j<p} y^j/j!) + sum_{j<p} y^j mu_j/(b^j j!),
    differentiated numerically by mpmath. mu lists E Y^1..E Y^p of a
    variable Y on [0, b].
    """
    with mp.workdps(DPS):
        mu = [mp.mpf(1)] + [mp.mpf(m) for m in mu]
        b = mp.mpf(b)
        p = len(mu) - 1
        facts = [mp.factorial(j) for j in range(p)]

        def v(x):
            tail = mp.exp(x) - mp.fsum(x ** j / facts[j] for j in range(p))
            poly = mp.fsum(x ** j * mu[j] / (b ** j * facts[j]) for j in range(p))
            return mu[p] / b ** p * tail + poly

        y = mp.mpf(y)
        return float((mp.diff(v, y, 2) / mp.diff(v, y, 1)) ** 2)


def hoeffding_exponent(t, groups, p: int, two_sided: bool = False) -> float:
    """x with the Hoeffding bound equal to min(k*exp(-x), 1), k = 1 or 2.

    groups lists (var, multiplicity) for variables bounded on both sides.
    p = 1 gives the classical 2 t^2 / sum w_i^2.
    """
    widths = [support(v)[1] - support(v)[0] for v, _ in groups]
    if p == 1:
        denom = math.fsum(m * w * w for (_, m), w in zip(groups, widths))
        return 2.0 * t * t / denom
    sides = [shifted] + ([reflected] if two_sided else [])
    per_side = []
    for side in sides:
        mus = [moments(side(v), p) for v, _ in groups]
        d_n = mp.fsum(m * (mu[1] / mu[0]) ** 2 for (_, m), mu in zip(groups, mus))
        per_side.append([envelope_factor(mu, w, 4 * t * w / d_n)
                         for mu, w in zip(mus, widths)])
    cs = [max(cs) for cs in zip(*per_side)]
    denom = math.fsum(m * w * w * c for (_, m), w, c in zip(groups, widths, cs))
    return 2.0 * t * t / denom


def bennett_classical(t, mu2, b) -> float:
    """exp(-(mu2/b^2) h(b t/mu2)), h(u) = (1+u) log(1+u) - u."""
    u = b * t / mu2
    return math.exp(-(mu2 / (b * b)) * ((1.0 + u) * math.log1p(u) - u))


def bennett_aggregate(groups, p: int):
    """Common upper bound b and summed (mu^2, ..., mu^p) of the ensemble,
    the last entry summing positive parts E max(X^p, 0)."""
    b = support(groups[0][0])[1]
    agg = [mp.fsum(m * raw_moment(v, k) for v, m in groups) for k in range(2, p)]
    agg.append(mp.fsum(m * positive_part(v, p) for v, m in groups))
    return b, agg


def bennett_alpha(t, b, p: int, agg) -> list:
    """alpha_0 = 1 + t b^(p-1)/mu^p, alpha_j = b^(p-j-1) mu^(j+1)/(mu^p j!) - 1/j!."""
    with mp.workdps(DPS):
        t, b = mp.mpf(t), mp.mpf(b)
        mu_p = agg[-1]
        alpha = [1 + t * b ** (p - 1) / mu_p]
        for j in range(1, p - 1):
            alpha.append(b ** (p - j - 1) * agg[j - 1] / (mu_p * mp.factorial(j))
                         - 1 / mp.factorial(j))
        return alpha


def bennett_log_bound(t, b, p: int, agg, roots) -> float:
    """max over roots y of the Bennett rate expression (the log of the bound
    before capping at 1)."""
    with mp.workdps(DPS):
        t, b = mp.mpf(t), mp.mpf(b)

        def inner(y):
            y = mp.mpf(y)
            total = t / b - (t / b + agg[0] / b ** 2) * y
            for j in range(2, p):
                f = mp.factorial(j)
                coeff = agg[j - 2] / (b ** j * f) - agg[j - 1] / (b ** (j + 1) * f)
                total += coeff * y ** j
            return total

        return float(max(inner(y) for y in roots))


def poly_exp_residual(alpha, x) -> float:
    """alpha_0 - sum_j alpha_j x^j - e^x, scaled by 1 + e^x."""
    with mp.workdps(DPS):
        x = mp.mpf(x)
        f = alpha[0] - mp.fsum(a * x ** j for j, a in enumerate(alpha) if j) - mp.exp(x)
        return float(abs(f) / (1 + mp.exp(x)))


def tilted_ratio_sq(var, lam) -> float:
    """(E X^2 e^{lam X} / E X e^{lam X})^2 by mpmath quadrature."""
    with mp.workdps(30):
        lam = mp.mpf(lam)
        kind = var[0]
        if kind == "bernoulli":
            return 1.0
        if kind == "uniform":
            lo, hi = var[1], var[2]
            first = mp.quad(lambda x: x * mp.exp(lam * x), [lo, hi])
            second = mp.quad(lambda x: x * x * mp.exp(lam * x), [lo, hi])
        elif kind == "beta":
            a, b = mp.mpf(var[1]), mp.mpf(var[2])

            def pdf(x):
                return x ** (a - 1) * (1 - x) ** (b - 1)

            first = mp.quad(lambda x: x * mp.exp(lam * x) * pdf(x), [0, 1])
            second = mp.quad(lambda x: x * x * mp.exp(lam * x) * pdf(x), [0, 1])
        else:
            raise ValueError(f"no tilted moments for {var!r}")
        return float((second / first) ** 2)


def limit_exponent(t, groups) -> float:
    """x with the all-moments limit bound equal to min(exp(-x), 1)."""
    d_n = math.fsum(m * float(raw_moment(v, 2) / raw_moment(v, 1)) ** 2
                    for v, m in groups)
    lam = 4.0 * t / d_n
    denom = math.fsum(m * tilted_ratio_sq(v, lam) for v, m in groups)
    return 2.0 * t * t / denom


def irwin_hall_sf(n: int, x: float) -> float:
    """P(U_1 + ... + U_n >= x) for independent Uniform(0, 1) variables."""
    if x <= 0:
        return 1.0
    if x >= n:
        return 0.0
    # by symmetry P(S >= x) = P(S <= n - x) = F(n - x), with
    # F(z) = sum_{k <= z} (-1)^k C(n, k) (z - k)^n / n!
    with mp.workdps(n + 40):
        z = mp.mpf(n) - mp.mpf(x)
        total = mp.fsum((-1) ** k * mp.binomial(n, k) * (z - k) ** n
                        for k in range(int(mp.floor(z)) + 1))
        return float(total / mp.factorial(n))


def binomial_sf(n: int, q: float, k: int) -> float:
    """P(K >= k) for K ~ Binomial(n, q)."""
    with mp.workdps(40):
        q = mp.mpf(q)
        return float(mp.fsum(mp.binomial(n, j) * q ** j * (1 - q) ** (n - j)
                             for j in range(max(k, 0), n + 1)))


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol
