"""Robustness properties over drawn inputs.

Every public bound function returns a bound in [0, 1] or raises a
TailboundError, and the CLI exits with one of its documented codes
(0, 2, 3, 4, 5) without a traceback, whatever the flags.
"""

import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tailbound import (
    Bernoulli,
    Beta,
    EnsembleSpec,
    MomentVector,
    PointMass,
    Support,
    TailboundError,
    TruncatedExponential,
    Uniform,
    bennett_bound,
    bennett_p3_lambert,
    bennett_unique_root,
    classical_sample_size,
    hoeffding_bound,
    hoeffding_iid,
    hoeffding_limit,
    hoeffding_missing_factor,
    hoeffding_small_t,
    hoeffding_two_sided,
    sample_size_for_ci,
)
from tailbound.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

finite = st.floats(-1e300, 1e300)
positive = st.floats(1e-300, 1e300)
thresholds = st.one_of(
    st.floats(1e-6, 1e4, allow_nan=False),
    st.sampled_from([0.0, -1.0, math.inf, math.nan, 1e300]))


@st.composite
def laws(draw):
    kind = draw(st.sampled_from(["uniform", "bernoulli", "beta", "point",
                                 "truncexp"]))
    try:
        if kind == "uniform":
            return Uniform(draw(finite), draw(finite))
        if kind == "bernoulli":
            return Bernoulli(draw(st.floats(0.0, 1.0)))
        if kind == "beta":
            return Beta(draw(st.floats(0.05, 1e4)), draw(st.floats(0.05, 1e4)))
        if kind == "point":
            c = draw(finite)
            return PointMass(c, c - draw(st.floats(0.0, 1e300)),
                             c + draw(positive))
        return TruncatedExponential(draw(finite), draw(positive))
    except TailboundError:
        assume(False)


def _in_unit_interval_or_error(call):
    try:
        result = call()
    except TailboundError:
        return
    assert 0.0 <= result.bound <= 1.0, result


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dists=st.lists(laws(), min_size=1, max_size=3),
       n=st.integers(1, 40), t=thresholds, p=st.integers(1, 6),
       c=st.floats(0.01, 10.0))
def test_bounds_in_unit_interval_or_tailbound_error(dists, n, t, p, c):
    try:
        vectors = [d.moment_vector(p) for d in dists]
    except TailboundError:
        assume(False)
    mv = vectors[0]
    variables = [v for v in vectors for _ in range(n)]
    spec = EnsembleSpec(variables)
    calls = [
        lambda: hoeffding_bound(spec, t, p),
        lambda: hoeffding_iid(mv, n, t, p),
        lambda: hoeffding_two_sided(variables, t, p),
        lambda: hoeffding_small_t(mv, n, t, c, p),
        lambda: hoeffding_limit([d for d in dists for _ in range(n)], t),
        lambda: hoeffding_missing_factor(variables, t, p, c),
        lambda: bennett_bound(spec, t, p),
        lambda: bennett_p3_lambert(spec, t),
        lambda: bennett_unique_root(spec, t, p),
    ]
    for call in calls:
        _in_unit_interval_or_error(call)


def _iid(dist, p, n=1):
    return EnsembleSpec.iid_replicate(dist.moment_vector(p), n)


# inputs whose arithmetic leaves the float range: each must give a bound in
# [0, 1] or a TailboundError, not an OverflowError, ZeroDivisionError or NaN
REPRODUCERS = {
    "bennett rate overflows exp": lambda: bennett_bound(
        _iid(TruncatedExponential(1e-30, 1.0), 3), 5.0, 3),
    "bennett rate is nan": lambda: bennett_bound(
        _iid(TruncatedExponential(2.220446049250313e-16, 1.0), 2), 1e300, 2),
    "bennett b^p underflows": lambda: bennett_bound(
        _iid(TruncatedExponential(1e-300, 1.0), 2), 1e300, 2),
    "lambert alpha_0 overflows": lambda: bennett_p3_lambert(
        _iid(Bernoulli(1e-300), 3), 1e300),
    "range squared underflows": lambda: hoeffding_bound(
        _iid(Uniform(-1.3273103534144456e-234, 0.0), 1), 1.0, 1),
    "second moment underflows": lambda: hoeffding_bound(
        _iid(Uniform(-1.3273103534144456e-234, 0.0), 2), 1.0, 2),
    "range squared overflows": lambda: hoeffding_bound(
        _iid(PointMass(5e199, 0.0, 1e200), 1), 1e-300, 1),
    "factor argument overflows": lambda: hoeffding_bound(
        _iid(Uniform(0.0, 2.220446049250313e-16), 3), 1e300, 3),
    "moment chain square overflows": lambda: hoeffding_bound(
        _iid(Uniform(-9.574184802887659e30, 0.0), 6), 1.0, 6),
    "limit D_n underflows": lambda: hoeffding_limit(
        [PointMass(5e-301, 0.0, 1e-300)], 1e-300),
    "limit denominator underflows": lambda: hoeffding_limit(
        [Uniform(0.0, 5.269689363541348e-95)], 1.0),
    "limit moments overflow": lambda: hoeffding_limit(
        [Uniform(0.0, 1e150)], 1e-300),
    "limit tilted series overflows": lambda: hoeffding_limit(
        [Uniform(0.0, 0.0625), Uniform(0.0, 8.35802042173345e-43)], 1662.0),
    "truncexp moments overflow": lambda: TruncatedExponential(
        1e-300, 1e300).moment_vector(2),
    "truncexp rate power underflows": lambda: TruncatedExponential(
        1.0, 1e-300).moment_vector(2),
    "missing-factor denominator underflows": lambda: hoeffding_missing_factor(
        [MomentVector(1, (1e-200,), Support.interval(0.0, 2e-200))], 1.0, 1,
        sigma2=1.0),
    "missing-factor D_n underflows": lambda: hoeffding_missing_factor(
        [MomentVector(2, (1e-200, 0.0), Support.interval(0.0, 2e-200))], 1.0,
        2, sigma2=1.0),
    "sample size overflows": lambda: sample_size_for_ci(
        MomentVector(1, (5e199,), Support.interval(0.0, 1e200)), 1.0, 0.05, 1),
    "classical sample size divides by t^2 = 0": lambda: classical_sample_size(
        1.0, 1e-200, 0.05),
}


@pytest.mark.parametrize("name", sorted(REPRODUCERS))
def test_float_range_reproducers(name):
    try:
        result = REPRODUCERS[name]()
    except TailboundError:
        return
    if hasattr(result, "bound"):
        assert 0.0 <= result.bound <= 1.0, result


# ---------------------------------------------------------------------------
# CLI fuzz

grid_text = st.one_of(
    st.builds(lambda lo, hi, k: f"{lo}:{hi}:{k}",
              st.sampled_from(["0", "0.1", "0.5", "1", "-1", "2", "nan",
                               "inf", "x"]),
              st.sampled_from(["0.1", "1", "2", "3", "10", "-2", "inf",
                               "1e300"]),
              st.sampled_from(["-1", "0", "1", "2", "3", "5", "2.5", "k"])),
    st.lists(st.sampled_from(["0.1", "0.5", "1", "2", "5", "0", "-1",
                              "nan", "1e300", ""]),
             min_size=1, max_size=3).map(",".join),
    st.sampled_from(["1", "0.25", "", "1:2", "1:2:3:4"]))

dist_flags = st.one_of(
    st.tuples(st.just("uniform"), st.sampled_from(
        ["lo=0,hi=1", "lo=-1,hi=2", "lo=1,hi=0", "", "lo=0,hi=x"])),
    st.tuples(st.just("bernoulli"), st.sampled_from(
        ["q=0.3", "q=0", "q=1", "q=2", ""])),
    st.tuples(st.just("beta"), st.sampled_from(
        ["a=2,b=3", "a=0.5,b=0.5", "a=1,b=10000", "a=0,b=1", "a=2"])),
    st.tuples(st.just("point"), st.sampled_from(
        ["c=0.5", "c=0", "c=0.5,lo=0,hi=1", "c=2,lo=0,hi=1"])),
    st.tuples(st.just("truncexp"), st.sampled_from(
        ["b=1,rate=2", "b=-1,rate=1", "rate=0", ""])),
    st.tuples(st.just("cauchy"), st.just("")),
).map(lambda pair: ["--dist", pair[0]] + (["--params", pair[1]]
                                          if pair[1] else []))

data_values = st.lists(
    st.one_of(st.floats(-0.5, 1.5, allow_nan=False),
              st.sampled_from([math.nan, math.inf])),
    min_size=0, max_size=30)

support_flags = st.sampled_from(
    [["--support", "0,1"], ["--support", "-1,2"], ["--support", "1,0"],
     ["--upper", "1"], ["--upper", "1.5"], ["--support", "0,1", "--upper", "1"],
     []])

mu_flags = st.sampled_from(
    ["0.5,0.333,0.25", "0.5,0.3333333333333333,0.25,0.2,0.16666",
     "0.5,0.1", "0.5", "x", "-0.5,0.3,-0.2"]).map(lambda m: ["--mu", m])


@st.composite
def cli_argv(draw, data_path):
    command = draw(st.sampled_from(["bound", "compare", "sample-size",
                                    "moments", "verify"]))
    argv = [command]
    source = draw(st.sampled_from(["dist", "data", "mu", "none", "two"]))
    if source in ("dist", "two"):
        argv += draw(dist_flags)
    if source in ("data", "two"):
        argv += ["--data", data_path] + draw(support_flags)
    if source == "mu":
        argv += draw(mu_flags) + draw(support_flags)
        if draw(st.booleans()):
            argv += ["--pos-pth", draw(st.sampled_from(["0.2", "-1"]))]
    if draw(st.booleans()):
        argv += ["--inflate", draw(st.sampled_from(["1", "1.5", "0.5"]))]
    argv += ["--n", str(draw(st.integers(-1, 30)))]
    if command != "moments" and draw(st.integers(0, 9)):
        argv += ["--t", draw(grid_text)]
    if command in ("bound", "verify"):
        argv += ["--family", draw(st.sampled_from(["hoeffding", "bennett",
                                                   "both"]))]
        argv += ["--p", draw(st.sampled_from(["1", "2", "3", "2,4", "0",
                                              "6", "x"]))]
        if draw(st.booleans()):
            argv.append("--per-var")
    if command == "bound" and draw(st.booleans()):
        argv.append("--two-sided")
    if command == "compare":
        if draw(st.booleans()):
            argv.append("--limit")
        if draw(st.booleans()):
            argv += ["--p", draw(st.sampled_from(["1", "2", "3", "0"]))]
        if draw(st.booleans()):
            argv.append("--per-var")
    if command in ("sample-size", "moments"):
        argv += ["--p", draw(st.sampled_from(["1", "2", "3", "4", "0"]))]
    if command == "sample-size":
        argv += ["--alpha", draw(st.sampled_from(["0.05", "0.5", "0", "1"]))]
    if command == "verify":
        argv += ["--trials", draw(st.sampled_from(["999", "1000", "2000"])),
                 "--seed", str(draw(st.integers(0, 5)))]
    argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return argv


def _write_data(path, values, csv, header):
    lines = ["id,value" if csv else "value"] if header else []
    for i, v in enumerate(values):
        lines.append(f"{i},{v!r}" if csv else repr(v))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def data_dir():
    with tempfile.TemporaryDirectory() as tmp:
        yield tmp


@pytest.mark.parametrize("argv", [
    ["moments", "--mu", "x", "--support", "0,1"],
    ["bound", "--mu", "0.5,0.3", "--support", "0,y", "--t", "1"],
])
def test_cli_rejects_non_numeric_moments_and_support(argv, capsys):
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data(), values=data_values, csv=st.booleans(),
       header=st.booleans())
def test_cli_exits_with_documented_code(data_dir, capsys, data, values, csv,
                                        header):
    path = os.path.join(data_dir, "samples.txt")
    _write_data(path, values, csv, header)
    argv = data.draw(cli_argv(path))
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
