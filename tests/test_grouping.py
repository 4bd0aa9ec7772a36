"""Grouped ensembles: repeated references to one variable are prepared once.

Grouping is by object identity, so an ensemble built from fresh, equal but
distinct copies runs the per-variable path and serves as the reference.
"""

import threading
import tracemalloc

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
    HoeffdingBound,
    MomentVector,
    Support,
    Uniform,
    bennett_bound,
    hoeffding_bound,
    hoeffding_limit,
    hoeffding_missing_factor,
    hoeffding_two_sided,
    moments_from_samples,
    reflect_moments,
    shift_to_origin,
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
        counter = CallCounter(monkeypatch, moments_module, "_sample_vector")
        code = main(["bound", "--data", str(path), "--support=-0.5,1.5",
                     "--n", "1000", "--t", "50", "--p", "2"])
        capsys.readouterr()
        assert code == 0
        # one pass over the samples read, then shift_to_origin recomputes
        # from the shifted samples exactly once
        assert counter.calls == 2


class TestSamplesMoveOnce:
    """A sample-backed vector is shifted or reflected once, not once per
    threshold; the kept move gives the records a fresh move gives."""

    SUPPORT = Support.interval(-0.5, 1.5)

    @staticmethod
    def _data(seed, n=300):
        return np.random.default_rng(seed).uniform(-0.5, 1.5, n)

    @pytest.mark.parametrize("k", [1, 20])
    @pytest.mark.parametrize("extra, passes", [
        (["--family", "both", "--p", "2,3,4"], 1),
        (["--p", "1,2,3", "--two-sided"], 2),
    ])
    def test_cli_grid_moves_the_samples_once(self, monkeypatch, capsys,
                                             tmp_path, k, extra, passes):
        path = tmp_path / "values.txt"
        path.write_text("\n".join(map(repr, self._data(5).tolist())) + "\n")
        # every pass over samples builds its vector in _sample_vector: one
        # for the samples read, then one per move
        counter = CallCounter(monkeypatch, moments_module, "_sample_vector")
        code = main(["bound", "--data", str(path), "--support=-0.5,1.5",
                     "--n", "100", "--t", f"0.05:0.4:{k}", "--per-var",
                     *extra])
        capsys.readouterr()
        assert code == 0
        assert counter.calls == 1 + passes

    def test_kept_moves_give_the_records_of_fresh_moves(self):
        a = moments_from_samples(self._data(6), 4, self.SUPPORT)
        b = moments_from_samples(self._data(7), 4, self.SUPPORT)
        specs = [EnsembleSpec.iid_replicate(a, 50),
                 EnsembleSpec.iid_replicate(b, 50),
                 EnsembleSpec([a, b, b, a])]
        calls = [hoeffding_bound, hoeffding_two_sided]
        for t in (2.0, 5.0, 11.0):
            for p in (1, 2, 3, 4):
                # alternate between the vectors: every call turns the kept
                # move of the call before away, or reuses it
                for spec in specs:
                    for call in calls:
                        got = call(spec, t, p)
                        moments_module._moved.clear()
                        want = call(spec, t, p)
                        assert got == want
                        assert repr(got) == repr(want)

    @pytest.mark.parametrize("transform", [shift_to_origin, reflect_moments])
    def test_equal_samples_in_another_vector_move_again(self, monkeypatch,
                                                        transform):
        data = self._data(8)
        a = moments_from_samples(data, 3, self.SUPPORT)
        twin = moments_from_samples(data, 3, self.SUPPORT)
        counter = CallCounter(monkeypatch, moments_module, "_sample_vector")
        first = transform(a)
        assert transform(a) is first
        assert counter.calls == 1
        second = transform(twin)
        assert counter.calls == 2
        assert second is not first and second == first
        assert transform(twin) is second and counter.calls == 2

    @pytest.mark.parametrize("transform", [shift_to_origin, reflect_moments])
    def test_a_move_in_another_thread_between_lookup_and_store(
            self, monkeypatch, transform):
        a = moments_from_samples(self._data(9), 3, self.SUPPORT)
        b = moments_from_samples(self._data(10), 3, self.SUPPORT)
        want_a, want_b = transform(a), transform(b)
        moments_module._moved.clear()
        real = moments_module._sample_vector
        theirs = []

        def patched(*args):
            # the first move runs another vector's move to its end first,
            # as a thread switch after the lookup would
            if not theirs:
                theirs.append(None)
                thread = threading.Thread(
                    target=lambda: theirs.append(transform(b)))
                thread.start()
                thread.join(timeout=60)
                assert not thread.is_alive()
            return real(*args)

        monkeypatch.setattr(moments_module, "_sample_vector", patched)
        assert transform(a) == want_a
        assert theirs[1] == want_b
        for mv, want in ((b, want_b), (a, want_a), (a, want_a), (b, want_b)):
            assert transform(mv) == want


class TestFactorsStayGrouped:
    """A record keeps one factor per group; c_values expands them on read."""

    # an expanded c_values would take 80 MB here; at 10^9 a regression
    # would ask the machine for 8 GB instead of failing
    N = 10**7

    def _peak_bytes(self, call):
        call()  # caches and interned constants are not the call's cost
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    @pytest.mark.parametrize("name", ["one_sided", "two_sided",
                                      "missing_factor", "limit"])
    def test_iid_bound_allocates_o1_while_c_values_is_unread(self, name):
        mv = Uniform(0.0, 2.0).moment_vector(3)
        spec = EnsembleSpec.iid_replicate(mv, self.N)
        calls = {
            "one_sided": lambda: hoeffding_bound(spec, 1e7, 3),
            "two_sided": lambda: hoeffding_two_sided(spec, 1e7, 3),
            "missing_factor": lambda: hoeffding_missing_factor(spec, 1e3, 3),
            "limit": lambda: hoeffding_limit(
                EnsembleSpec.iid_replicate(Uniform(0.0, 2.0), self.N), 1e7),
        }
        result, peak = self._peak_bytes(calls[name])
        assert peak < 64 * 1024
        assert result.c_counts == (self.N,)
        assert len(result.c_groups) == 1

    def test_c_values_expands_the_groups_in_order(self):
        a, b = Uniform(0, 1).moment_vector(3), Uniform(0, 3).moment_vector(3)
        result = hoeffding_bound(EnsembleSpec([a, a, b, a]), 2.0, 3)
        assert result.c_counts == (2, 1, 1)
        ca, cb, ca2 = result.c_groups
        assert ca == ca2 and ca != cb
        assert result.c_values == (ca, ca, cb, ca)

    def test_constructor_takes_a_tuple(self):
        record = HoeffdingBound(1.0, 2, 0.5, (0.25, 0.25, -0.0, 0.0), None,
                                2.0, "one_sided")
        assert record.c_values == (0.25, 0.25, -0.0, 0.0)
        # runs go by identity, so -0.0 and 0.0 stay apart
        assert [str(c) for c in record.c_values] == ["0.25", "0.25", "-0.0",
                                                    "0.0"]


def _hexed(record):
    """A record's fields with every float as its exact bits."""
    def one(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(map(one, value))
        return value
    return [one(getattr(record, name)) for name in HoeffdingBound._fields]


def _expanded(record):
    """c_values as the per-variable record stored it: each group's factor
    repeated over its variables."""
    return tuple(c for c, count in zip(record.c_groups, record.c_counts)
                 for _ in range(count))


class TestSpecAndListFormsAgree:
    """The ensemble form and the list form of a bound give the same record,
    bit for bit, with c_values the expansion of the groups."""

    @settings(max_examples=60, deadline=None)
    @given(PATTERNS, st.integers(1, 4), st.floats(0.05, 0.8))
    def test_two_sided(self, pattern, p, scale):
        bases = _interval_bases(4)
        variables = [bases[i] for i in pattern]
        t = scale * len(pattern)
        got = hoeffding_two_sided(EnsembleSpec(variables), t, p)
        want = hoeffding_two_sided(variables, t, p)
        assert _hexed(got) == _hexed(want)
        assert got.c_values == _expanded(want)
        assert len(got.c_values) == len(pattern)

    @settings(max_examples=40, deadline=None)
    @given(PATTERNS, st.integers(1, 4), st.floats(0.05, 1.0))
    def test_missing_factor(self, pattern, p, scale):
        bases = [Uniform(0.0, 2.0).moment_vector(4),
                 Uniform(0.0, 3.0).moment_vector(4),
                 MomentVector(4, tuple(2.0 ** k / 2.0 for k in range(1, 5)),
                              Support.interval(0.0, 2.0))]
        variables = [bases[i] for i in pattern]
        sigma2 = sum(v.mu[1] - v.mu[0] ** 2 for v in variables)
        t = scale * sigma2 / max(v.mu[0] for v in variables)
        got = hoeffding_missing_factor(EnsembleSpec(variables), t, p)
        want = hoeffding_missing_factor(variables, t, p)
        assert _hexed(got) == _hexed(want)
        assert got.c_values == _expanded(want)

    @settings(max_examples=25, deadline=None)
    @given(PATTERNS, st.floats(0.2, 2.0))
    def test_limit(self, pattern, scale):
        bases = [Uniform(0.0, 1.0), Bernoulli(0.3), Beta(2.0, 3.0)]
        laws = [bases[i] for i in pattern]
        t = scale * len(pattern) ** 0.5
        got = hoeffding_limit(EnsembleSpec(laws), t)
        want = hoeffding_limit(laws, t)
        assert _hexed(got) == _hexed(want)
        assert got.c_values == _expanded(want)

    @pytest.mark.parametrize("n", [1, 7, 10_000])
    def test_iid_replicate_matches_the_repeated_list(self, n):
        mv = Uniform(-0.5, 1.5).moment_vector(4)
        law = Beta(2.0, 3.0)
        pairs = [
            (hoeffding_two_sided(EnsembleSpec.iid_replicate(mv, n), 0.3 * n,
                                 3),
             hoeffding_two_sided([mv] * n, 0.3 * n, 3)),
            (hoeffding_limit(EnsembleSpec.iid_replicate(law, n), 0.3 * n),
             hoeffding_limit([law] * n, 0.3 * n)),
        ]
        for got, want in pairs:
            assert _hexed(got) == _hexed(want)
            assert got.c_counts == (n,)
