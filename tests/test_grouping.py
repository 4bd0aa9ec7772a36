"""Grouped ensembles: repeated references to one variable are prepared once.

Grouping is by object identity, so an ensemble built from fresh, equal but
distinct copies runs the per-variable path and serves as the reference.
"""

import numpy as np
import pytest
from helpers import CallCounter, random_interval_mv, random_upper_bounded_mv
from hypothesis import given, settings
from hypothesis import strategies as st

import tailbound.hoeffding as hoeffding_module
import tailbound.moments as moments_module
from tailbound import (
    Beta,
    Bernoulli,
    EnsembleSpec,
    MomentVector,
    Support,
    Uniform,
    bennett_bound,
    hoeffding_bound,
    hoeffding_limit,
    hoeffding_missing_factor,
    hoeffding_two_sided,
    moments_from_samples,
)
from tailbound.cli import main
from tailbound.moments import expand_runs, identity_runs

REL = 1e-12

# index patterns into three base variables: mixed runs such as [a, a, b, a, c, c]
PATTERNS = st.lists(st.integers(0, 2), min_size=1, max_size=9)


def _fresh(mv):
    return MomentVector(mv.p, mv.mu, mv.support, mv.positive_part_pth,
                        samples=mv.samples)


def _interval_bases(p):
    rng = np.random.default_rng(11)
    data = rng.uniform(-0.5, 1.5, 40)
    return [random_interval_mv(rng, p),
            Uniform(-0.7, 1.3).moment_vector(p),
            moments_from_samples(data, p, Support.interval(-0.5, 1.5))]


def _same(got, want):
    assert got == pytest.approx(want, rel=REL, abs=0.0)


def _check_records(grouped, reference):
    _same(grouped.bound, reference.bound)
    _same(grouped.s_star, reference.s_star)
    assert len(grouped.c_values) == len(reference.c_values)
    _same(list(grouped.c_values), list(reference.c_values))
    if reference.d_n is None:
        assert grouped.d_n is None
    else:
        _same(grouped.d_n, reference.d_n)


class TestRuns:
    def test_collapses_consecutive_references(self):
        a, b, c = object(), object(), object()
        assert identity_runs((a, a, b, a, c, c)) == ((a, b, a, c), (2, 1, 1, 2))

    def test_distinct_items_one_run_each(self):
        items = tuple(object() for _ in range(5))
        assert identity_runs(items) == (items, (1,) * 5)
        assert identity_runs(items[:1]) == (items[:1], (1,))
        assert identity_runs(()) == ((), ())

    def test_equal_copies_stay_apart(self):
        mv = Uniform(0, 1).moment_vector(2)
        copy = _fresh(mv)
        assert copy == mv
        spec = EnsembleSpec((mv, copy, mv))
        assert all(v is w for v, w in zip(spec.vectors, (mv, copy, mv), strict=True))
        assert spec.counts == (1, 1, 1)

    def test_expand_restores_order(self):
        values, counts = identity_runs(tuple("aabacc"))
        assert expand_runs(values, counts, 6) == tuple("aabacc")

    def test_variables_expand_groups(self):
        a, b = Uniform(0, 1).moment_vector(2), Uniform(0, 2).moment_vector(2)
        spec = EnsembleSpec([a, a, b, a])
        assert spec.n == 4
        assert spec.vectors == (a, b, a) and spec.counts == (2, 1, 1)
        assert all(x is y for x, y in zip(spec.variables, (a, a, b, a)))

    def test_iid_replicate_is_one_group(self):
        mv = Uniform(0, 1).moment_vector(2)
        spec = EnsembleSpec.iid_replicate(mv, 10**9)
        assert spec.vectors[0] is mv and spec.counts == (10**9,)
        assert spec.n == 10**9


class TestMatchesPerVariablePath:
    @settings(max_examples=40, deadline=None)
    @given(PATTERNS, st.integers(1, 4), st.floats(0.05, 0.8))
    def test_hoeffding_one_and_two_sided(self, pattern, p, scale):
        bases = _interval_bases(4)
        grouped = [bases[i] for i in pattern]
        fresh = [_fresh(bases[i]) for i in pattern]
        assert len(EnsembleSpec(fresh).vectors) == len(pattern)
        t = scale * len(pattern)
        _check_records(hoeffding_bound(EnsembleSpec(grouped), t, p),
                       hoeffding_bound(EnsembleSpec(fresh), t, p))
        _check_records(hoeffding_two_sided(grouped, t, p),
                       hoeffding_two_sided(fresh, t, p))

    @settings(max_examples=40, deadline=None)
    @given(PATTERNS, st.integers(1, 4), st.floats(0.05, 1.0))
    def test_missing_factor(self, pattern, p, scale):
        # recentered Z = X + b on [0, 2b] with E Z = b
        two_point = MomentVector(4, tuple(2.0 ** k / 2.0 for k in range(1, 5)),
                                 Support.interval(0.0, 2.0))
        bases = [Uniform(0.0, 2.0).moment_vector(4), Uniform(0.0, 3.0).moment_vector(4),
                 two_point]
        grouped = [bases[i] for i in pattern]
        fresh = [_fresh(bases[i]) for i in pattern]
        sigma2 = sum(v.mu[1] - v.mu[0] ** 2 for v in grouped)
        t = scale * sigma2 / max(v.mu[0] for v in grouped)
        _check_records(hoeffding_missing_factor(grouped, t, p),
                       hoeffding_missing_factor(fresh, t, p))

    @settings(max_examples=40, deadline=None)
    @given(PATTERNS, st.integers(2, 4), st.floats(0.2, 3.0))
    def test_bennett(self, pattern, p, scale):
        rng = np.random.default_rng(5)
        # an upper-only vector cannot be trimmed to odd orders: build at p
        bases = [random_upper_bounded_mv(rng, p) for _ in range(3)]
        grouped = [bases[i] for i in pattern]
        fresh = [_fresh(bases[i]) for i in pattern]
        t = scale * len(pattern) ** 0.5
        got = bennett_bound(EnsembleSpec(grouped), t, p)
        want = bennett_bound(EnsembleSpec(fresh), t, p)
        _same(got.bound, want.bound)
        _same(list(got.aggregated_moments), list(want.aggregated_moments))
        _same(list(got.alpha), list(want.alpha))

    @settings(max_examples=25, deadline=None)
    @given(PATTERNS, st.floats(0.2, 2.0))
    def test_limit(self, pattern, scale):
        bases = [Uniform(0.0, 1.0), Bernoulli(0.3), Beta(2.0, 3.0)]
        grouped = [bases[i] for i in pattern]
        fresh = [_copy_dist(bases[i]) for i in pattern]
        t = scale * len(pattern) ** 0.5
        _check_records(hoeffding_limit(grouped, t), hoeffding_limit(fresh, t))


def _copy_dist(d):
    if isinstance(d, Uniform):
        return Uniform(d.lo, d.hi)
    if isinstance(d, Bernoulli):
        return Bernoulli(d.q)
    return Beta(d.a, d.b)


class TestPreparationIsPerGroup:
    N = 10_000

    def _counters(self, monkeypatch):
        return {name: CallCounter(monkeypatch, hoeffding_module, name)
                for name in ("shift_to_origin", "reflect_moments",
                             "c_factor_from_moments")}

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_one_sided(self, monkeypatch, p):
        mv = Uniform(-0.5, 1.5).moment_vector(4)
        counters = self._counters(monkeypatch)
        result = hoeffding_bound(EnsembleSpec.iid_replicate(mv, self.N), 50.0, p)
        assert len(result.c_values) == self.N
        assert counters["shift_to_origin"].calls == 1
        assert counters["reflect_moments"].calls == 0
        assert counters["c_factor_from_moments"].calls == 1

    def test_order_one_prepares_once(self, monkeypatch):
        mv = Uniform(-0.5, 1.5).moment_vector(4)
        counters = self._counters(monkeypatch)
        result = hoeffding_bound(EnsembleSpec.iid_replicate(mv, self.N), 50.0, 1)
        assert result.d_n is not None
        assert counters["shift_to_origin"].calls == 1

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_two_sided(self, monkeypatch, p):
        mv = Uniform(-0.5, 1.5).moment_vector(4)
        counters = self._counters(monkeypatch)
        result = hoeffding_two_sided([mv] * self.N, 50.0, p)
        assert len(result.c_values) == self.N
        assert counters["shift_to_origin"].calls == 1
        assert counters["reflect_moments"].calls == 1
        assert counters["c_factor_from_moments"].calls == 2

    def test_limit_tilts_each_law_once(self, monkeypatch):
        calls = []
        original = Beta.tilted_first_second

        def counted(self, s):
            calls.append(s)
            return original(self, s)

        monkeypatch.setattr(Beta, "tilted_first_second", counted)
        result = hoeffding_limit([Beta(2.0, 3.0)] * self.N, 100.0)
        assert len(calls) == 1
        assert len(result.c_values) == self.N


class TestSampleBackedEnsemble:
    def test_cli_data_ensemble_shifts_samples_once(self, monkeypatch, capsys,
                                                    tmp_path):
        data = np.random.default_rng(3).uniform(-0.5, 1.5, 200)
        path = tmp_path / "values.txt"
        path.write_text("\n".join(repr(float(x)) for x in data) + "\n")
        counter = CallCounter(monkeypatch, moments_module, "moments_from_samples")
        code = main(["bound", "--data", str(path), "--support=-0.5,1.5",
                     "--n", "1000", "--t", "50", "--p", "2"])
        capsys.readouterr()
        assert code == 0
        # shift_to_origin recomputes from the shifted samples exactly once
        assert counter.calls == 1
