"""Bennett calls that reuse the threshold-free work of the call before.

bennett_bound keeps b, the aggregated moments, the root equation's
c_1..c_{p-2} and the rate's coefficients of its last call, and
solve_poly_exp the derivative levels of its last Rolle isolation. A call with the kept state must return the very record, or
raise the very error, that it gives with nothing kept.
"""

import threading
from functools import partial

import helpers
import pytest
from helpers import CallCounter, bennett_bound_generic
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tailbound import (
    Bernoulli,
    Beta,
    DomainError,
    EnsembleSpec,
    MomentVector,
    PointMass,
    PreconditionError,
    SolverFailureError,
    Support,
    TailboundError,
    TruncatedExponential,
    Uniform,
    bennett,
    bennett_bound,
    special,
)


def outcome(call):
    """call()'s record, or the type and message of its TailboundError."""
    try:
        return call()
    except TailboundError as exc:
        return type(exc), str(exc)


def fresh(call):
    """outcome(call) with nothing kept, leaving the kept state as it was."""
    kept = bennett._last, special._last_levels
    bennett._last = special._last_levels = None
    try:
        return outcome(call)
    finally:
        bennett._last, special._last_levels = kept


def assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)


@pytest.fixture(autouse=True)
def nothing_kept(monkeypatch):
    monkeypatch.setattr(bennett, "_last", None)
    monkeypatch.setattr(special, "_last_levels", None)


@st.composite
def laws_below_one(draw):
    """A law whose support ends at 1."""
    kind = draw(st.sampled_from(["beta", "truncexp", "uniform", "bernoulli",
                                 "point"]))
    if kind == "beta":
        return Beta(draw(st.floats(0.2, 20.0)), draw(st.floats(0.2, 20.0)))
    if kind == "truncexp":
        return TruncatedExponential(1.0, draw(st.floats(0.2, 10.0)))
    if kind == "uniform":
        return Uniform(draw(st.floats(-3.0, 0.9)), 1.0)
    if kind == "bernoulli":
        return Bernoulli(draw(st.floats(0.01, 0.99)))
    c = draw(st.floats(0.0, 1.0))
    return PointMass(c, 0.0, 1.0)


# a run of calls on one ensemble and order: which of the three ensembles,
# p (3 for "p3"), and exponents e for thresholds 10^e times the
# ensemble's size, e in [-3, 3], whose roots need right ends from 1 to
# beyond 8
runs = st.tuples(
    st.integers(0, 2), st.integers(2, 8),
    st.sampled_from(["bound", "bound", "p3"]),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))


class TestRecordsAreUnchanged:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.lists(laws_below_one(), min_size=1, max_size=5),
                    min_size=3, max_size=3),
           st.lists(runs, min_size=1, max_size=6))
    def test_every_call_matches_a_call_with_nothing_kept(self, ensembles,
                                                         plan):
        for which, p, how, exponents in plan:
            laws = ensembles[which]
            if how == "p3":
                p = 3
            for e in exponents:
                t = len(laws) * 10.0 ** e
                # rebuilt for every call from the laws' vectors, which
                # each law hands out again: the same objects every time
                spec = EnsembleSpec([law.moment_vector(p) for law in laws])
                call = partial(bennett_bound, spec, t, p)
                want = fresh(call)
                assert_same(outcome(call), want)

    def test_thresholds_with_different_right_ends(self):
        # a negative summed third moment keeps these equations from the
        # Newton path, so they reach the Rolle isolation and its levels
        spec = EnsembleSpec.iid_replicate(Uniform(-1.5, 1).moment_vector(5), 3)
        for t in (0.5, 10.0, 0.1, 100.0, 3.0):
            want = fresh(lambda: bennett_bound(spec, t, 5))
            assert_same(bennett_bound(spec, t, 5), want)
        # the kept levels served right ends 1, 2, 4 and 8
        assert sorted(special._last_levels[2]) == [1.0, 2.0, 4.0, 8.0]

    def test_equal_vectors_that_are_other_objects(self, monkeypatch):
        def spec_of_new_laws():
            laws = (Beta(2, 3), Uniform(-1, 1), TruncatedExponential(1.0, 2.0))
            return EnsembleSpec([law.moment_vector(5) for law in laws])

        first, second = spec_of_new_laws(), spec_of_new_laws()
        assert first == second
        assert first.vectors[0] is not second.vectors[0]
        counter = CallCounter(monkeypatch, bennett, "aggregate_moments")
        assert_same(bennett_bound(first, 0.7, 5), bennett_bound(second, 0.7, 5))
        assert counter.calls == 2
        assert bennett._last[0] is second.vectors

    def test_a_repeat_reuses_the_threshold_free_work(self, monkeypatch):
        # summed third moment 0.086 - 5 < 0: the Rolle path
        spec = EnsembleSpec((Beta(2, 3).moment_vector(5),
                             Uniform(-3, 1).moment_vector(5)))
        aggregated = CallCounter(monkeypatch, bennett, "aggregate_moments")
        levels = CallCounter(monkeypatch, special, "_derivative_levels")
        for t in (0.5, 1.5, 0.2):
            bennett_bound(spec, t, 5)
        assert aggregated.calls == 1
        assert levels.calls == 1
        # the same vector objects with other counts, then another order:
        # both miss
        doubled = EnsembleSpec((spec.vectors[0], *spec.vectors))
        assert doubled.vectors == spec.vectors
        got = bennett_bound(doubled, 0.2, 5)
        assert aggregated.calls == 2
        bennett_bound(doubled, 0.2, 4)
        assert aggregated.calls == 3
        assert_same(got, fresh(lambda: bennett_bound(doubled, 0.2, 5)))


class TestSingleRootSolves:
    def test_a_single_root_solve_builds_no_levels_and_keeps_none(
            self, monkeypatch):
        # Beta(2, 3) alone has positive summed moments, so every c_j is
        # >= 0: the Newton path, at every threshold
        concave = EnsembleSpec.iid_replicate(Beta(2, 3).moment_vector(5), 10)
        rolle = EnsembleSpec((Beta(2, 3).moment_vector(5),
                              Uniform(-3, 1).moment_vector(5)))
        levels = CallCounter(monkeypatch, special, "_derivative_levels")
        for t in (0.5, 10.0, 0.1):
            assert bennett_bound(concave, t, 5).roots.unique
        assert levels.calls == 0
        assert special._last_levels is None
        bennett_bound(rolle, 0.5, 5)
        kept = special._last_levels
        assert levels.calls == 1 and kept is not None
        for t in (100.0, 3.0):
            got = bennett_bound(concave, t, 5)
            assert got.roots.unique
            assert_same(got, fresh(lambda: bennett_bound(concave, t, 5)))
        # the Rolle levels stayed, and the next Rolle call reuses them
        assert special._last_levels is kept
        got = bennett_bound(rolle, 1.5, 5)
        assert levels.calls == 1
        assert_same(got, fresh(lambda: bennett_bound(rolle, 1.5, 5)))


def far_spec():
    # alpha_6 = -1.4e292: the residual's polynomial overflows before x = 1024,
    # so no right end is certified
    mv = MomentVector(8, (0.1, 0.5, 0.1, 0.3, 0.1, 0.2, -1e10, 0.1),
                      Support.upper_only(1.0), positive_part_pth=1e-285)
    return EnsembleSpec.iid_replicate(mv, 1)


class TestErrorsAreUnchanged:
    """Each error has the type and message it had before any state was
    kept, on the first call and on a repeat."""

    def raises_twice(self, call, kind, message):
        for _ in range(2):
            with pytest.raises(kind) as err:
                call()
            assert str(err.value) == message

    def test_order_that_is_not_an_int_after_a_good_call(self):
        spec = EnsembleSpec.iid_replicate(Uniform(0, 1).moment_vector(3), 4)
        bennett_bound(spec, 0.5, 3)
        self.raises_twice(lambda: bennett_bound(spec, 0.5, 3.0), DomainError,
                          "order p must be an integer >= 2; got 3.0")
        assert bennett._last[2] == 3

    def test_mixed_upper_bounds(self):
        spec = EnsembleSpec((Uniform(0, 1).moment_vector(2),
                             Uniform(0, 2).moment_vector(2)))
        self.raises_twice(
            lambda: bennett_bound(spec, 0.5, 2), DomainError,
            "all variables must share one upper bound; got 1.0 and 2.0")
        assert bennett._last is None

    @pytest.mark.parametrize("p", [3, 5])
    def test_a_rounding_to_zero_after_a_good_call(self, p):
        # 100 copies of each law: a = t b^(p-1)/mu^p rounds to 0 at the
        # least positive t
        spec = EnsembleSpec([Beta(2, 3).moment_vector(p)] * 100
                            + [Uniform(-1, 1).moment_vector(p)] * 100)
        good = bennett_bound(spec, 0.5, p)
        kept = bennett._last
        message = "a must be positive for a positive root to exist; got 0.0"
        self.raises_twice(lambda: bennett_bound(spec, 5e-324, p),
                          PreconditionError, message)
        assert bennett._last is kept
        assert_same(bennett_bound(spec, 0.5, p), good)

    def test_no_certified_right_end(self):
        spec = far_spec()
        for t, alpha0 in ((1.0, "1e+285"), (2.0, "2e+285")):
            self.raises_twice(
                lambda: bennett_bound(spec, t, 8), SolverFailureError,
                f"no right end certifies the roots of alpha=({alpha0}, "
                "5e+284, 4.9999999999999996e+283, 4.999999999999999e+283, "
                "4.1666666666666663e+282, 1.6666666666666667e+282, "
                "-1.3888888888888887e+292) below x=1024")
        assert bennett._last is None
        assert special._last_levels is None


class TestGenericReferenceStaysIndependent:
    @pytest.mark.parametrize("p", [3, 5])
    def test_generic_call_between_two_calls(self, monkeypatch, p):
        spec = EnsembleSpec((Beta(2, 3).moment_vector(p),
                             Uniform(-1, 1).moment_vector(p)))
        bennett_bound(spec, 0.5, p)
        kept_levels = special._last_levels
        generic = CallCounter(monkeypatch, helpers, "poly_exp_roots")
        levels = CallCounter(monkeypatch, special, "_derivative_levels")
        bennett_bound_generic(spec, 1.5, p)
        # the generic solve built its own levels and kept none
        assert generic.calls == 1
        assert levels.calls == 1
        assert special._last_levels is kept_levels
        assert_same(bennett_bound(spec, 1.5, p),
                    fresh(lambda: bennett_bound(spec, 1.5, p)))


def run_between(monkeypatch, module, name, other):
    """Make the first call of module.name first run other() to the end in
    another thread, as a thread switch just before it would. Returns the
    list that other's outcome goes into."""
    real = getattr(module, name)
    results, calls = [], []

    def patched(*args):
        calls.append(args)
        if len(calls) == 1:
            thread = threading.Thread(
                target=lambda: results.append(outcome(other)))
            thread.start()
            thread.join()
        return real(*args)

    monkeypatch.setattr(module, name, patched)
    return results


class TestInterleavedCalls:
    """A call on another ensemble runs between one call's lookup of the
    kept state and its use of it. Both records are still those of calls
    with nothing kept, and so is every later call on either ensemble."""

    @pytest.mark.parametrize("module, name", [
        (bennett, "_leading"), (bennett, "solve_poly_exp"),
        (special, "_last_level"), (special, "_sign_change_roots")])
    def test_another_call_between_lookup_and_use(self, monkeypatch, module,
                                                 name):
        # both summed third moments are negative, so both calls reach the
        # Rolle isolation and keep their levels
        mine = EnsembleSpec((Beta(2, 3).moment_vector(5),
                             Uniform(-3, 1).moment_vector(5)))
        theirs = EnsembleSpec((TruncatedExponential(1.0, 0.5).moment_vector(5),
                               Beta(5, 1).moment_vector(5)))
        bennett_bound(mine, 0.5, 5)
        other = partial(bennett_bound, theirs, 2.0, 5)
        results = run_between(monkeypatch, module, name, other)
        got = bennett_bound(mine, 1.5, 5)
        assert len(results) == 1
        assert_same(got, fresh(partial(bennett_bound, mine, 1.5, 5)))
        assert_same(results[0], fresh(other))
        for spec, t in ((mine, 0.7), (theirs, 0.7), (mine, 0.3)):
            assert_same(bennett_bound(spec, t, 5),
                        fresh(partial(bennett_bound, spec, t, 5)))
