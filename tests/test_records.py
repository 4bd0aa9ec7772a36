"""Value semantics of the record types: construction by position, keyword
and default, equality, hash, immutability, and repr text (which error
messages embed, so the CLI's stderr depends on it)."""

import copy
import pickle

import numpy as np
import pytest

from tailbound import (
    BennettBound,
    Bernoulli,
    Beta,
    Distribution,
    DomainError,
    EnsembleSpec,
    HoeffdingBound,
    MgfBoundCurve,
    MomentVector,
    PointMass,
    RootSet,
    SolverFailureError,
    Support,
    TailEstimate,
    TightnessComparison,
    TruncatedExponential,
    Uniform,
    bennett_bound,
)

UNIT = "Support(lower=0.0, upper=1.0)"
MV2 = ("MomentVector(p=2, mu=(0.5, 0.3333333333333333), support=" + UNIT
       + ", positive_part_pth=0.3333333333333333)")


def _hoeffding(**kw):
    fields = dict(t=1.0, p=2, bound=0.5, c_values=(0.25, 0.25), d_n=None,
                  s_star=2.0, mode="iid")
    return HoeffdingBound(**{**fields, **kw})


def _bennett(**kw):
    fields = dict(t=1.0, p=3, bound=0.5, alpha=(2.0, 0.25),
                  roots=RootSet((0.5,), True), y_star=0.5,
                  aggregated_moments=(1.0, 0.5), b=1.0)
    return BennettBound(**{**fields, **kw})


# (class, build by keywords -> record, the same built positionally or by
# defaults, a record differing in one field, its repr as a dataclass gave it)
CASES = [
    (Uniform, lambda: Uniform(lo=0.0, hi=1.0), lambda: Uniform(),
     lambda: Uniform(0.0, 2.0), "Uniform(lo=0.0, hi=1.0)"),
    (Bernoulli, lambda: Bernoulli(q=0.25), lambda: Bernoulli(0.25),
     lambda: Bernoulli(0.5), "Bernoulli(q=0.25)"),
    (PointMass, lambda: PointMass(c=0.5, lo=0.5, hi=1.5),
     lambda: PointMass(0.5), lambda: PointMass(0.5, 0.0, 1.5),
     "PointMass(c=0.5, lo=0.5, hi=1.5)"),
    (Beta, lambda: Beta(a=2.0, b=3), lambda: Beta(2.0, 3),
     lambda: Beta(3, 2.0), "Beta(a=2.0, b=3)"),
    (TruncatedExponential, lambda: TruncatedExponential(b=1.0, rate=1.0),
     lambda: TruncatedExponential(), lambda: TruncatedExponential(2.0, 0.5),
     "TruncatedExponential(b=1.0, rate=1.0)"),
    (Support, lambda: Support(lower=None, upper=2.0),
     lambda: Support.upper_only(2), lambda: Support(0.0, 2.0),
     "Support(lower=None, upper=2.0)"),
    (MomentVector,
     lambda: MomentVector(p=2, mu=(0.5, 0.3), support=Support(0.0, 1.0)),
     lambda: MomentVector(2, [0.5, 0.3], Support(0.0, 1.0), 0.3),
     lambda: MomentVector(2, (0.5, 0.4), Support(0.0, 1.0)),
     "MomentVector(p=2, mu=(0.5, 0.3), support=" + UNIT
     + ", positive_part_pth=0.3)"),
    (EnsembleSpec, lambda: EnsembleSpec(variables=[Uniform(0, 1).moment_vector(2)] * 3),
     lambda: EnsembleSpec.iid_replicate(Uniform(0, 1).moment_vector(2), 3),
     lambda: EnsembleSpec.iid_replicate(Uniform(0, 1).moment_vector(2), 4),
     f"EnsembleSpec(vectors=({MV2},), counts=(3,), n=3)"),
    (RootSet, lambda: RootSet(roots=(1.0, 2.5), unique=False),
     lambda: RootSet((1.0, 2.5), False), lambda: RootSet((1.0, 2.5), True),
     "RootSet(roots=(1.0, 2.5), unique=False)"),
    (HoeffdingBound, _hoeffding,
     lambda: HoeffdingBound(1.0, 2, 0.5, (0.25, 0.25), None, 2.0, "iid"),
     lambda: _hoeffding(d_n=0.5),
     "HoeffdingBound(t=1.0, p=2, bound=0.5, c_values=(0.25, 0.25), "
     "d_n=None, s_star=2.0, mode='iid')"),
    (BennettBound, _bennett,
     lambda: BennettBound(1.0, 3, 0.5, (2.0, 0.25), RootSet((0.5,), True),
                          0.5, (1.0, 0.5), 1.0),
     lambda: _bennett(b=2.0),
     "BennettBound(t=1.0, p=3, bound=0.5, alpha=(2.0, 0.25), "
     "roots=RootSet(roots=(0.5,), unique=True), y_star=0.5, "
     "aggregated_moments=(1.0, 0.5), b=1.0)"),
    (TightnessComparison,
     lambda: TightnessComparison(t=1.0, bound_p2=0.5, bound_p3=0.25),
     lambda: TightnessComparison(1.0, 0.5, 0.25),
     lambda: TightnessComparison(1.0, 0.5, 0.125),
     "TightnessComparison(t=1.0, bound_p2=0.5, bound_p3=0.25)"),
    (MgfBoundCurve,
     lambda: MgfBoundCurve(p=2, moments=Uniform(0, 1).moment_vector(3)),
     lambda: MgfBoundCurve(2, Uniform(0, 1).moment_vector(2)),
     lambda: MgfBoundCurve(3, Uniform(0, 1).moment_vector(3)),
     f"MgfBoundCurve(p=2, moments={MV2})"),
    (TailEstimate,
     lambda: TailEstimate(t=1.0, probability=0.01, stderr=0.001, trials=1000,
                          seed=7),
     lambda: TailEstimate(1.0, 0.01, 0.001, 1000, 7),
     lambda: TailEstimate(1.0, 0.01, 0.001, 1000, 8),
     "TailEstimate(t=1.0, probability=0.01, stderr=0.001, trials=1000, "
     "seed=7)"),
]
IDS = [case[0].__name__ for case in CASES]


def _with_vectors(law):
    law.moment_vector(4)
    return law


# a law that holds a built vector compares, hashes and prints as one that
# does not, and carries the vector through pickle and copy
CASES.append((Uniform, lambda: _with_vectors(Uniform(lo=0.0, hi=1.0)),
              lambda: Uniform(), lambda: _with_vectors(Uniform(0.0, 2.0)),
              "Uniform(lo=0.0, hi=1.0)"))
IDS.append("Uniform-with-vectors")

FIELDS = {
    Uniform: ("lo", "hi"), Bernoulli: ("q",), PointMass: ("c", "lo", "hi"),
    Beta: ("a", "b"), TruncatedExponential: ("b", "rate"),
    Support: ("lower", "upper"),
    MomentVector: ("p", "mu", "support", "positive_part_pth"),
    EnsembleSpec: ("vectors", "counts", "n"), RootSet: ("roots", "unique"),
    HoeffdingBound: ("t", "p", "bound", "c_values", "d_n", "s_star", "mode"),
    BennettBound: ("t", "p", "bound", "alpha", "roots", "y_star",
                   "aggregated_moments", "b"),
    TightnessComparison: ("t", "bound_p2", "bound_p3"),
    MgfBoundCurve: ("p", "moments"),
    TailEstimate: ("t", "probability", "stderr", "trials", "seed"),
}


@pytest.mark.parametrize("cls,make,same,other,text", CASES, ids=IDS)
class TestRecordSemantics:
    def test_construction(self, cls, make, same, other, text):
        a, b = make(), same()
        assert type(a) is cls and type(b) is cls
        assert a == b and not a != b
        assert a != other()

    def test_hash_follows_equality(self, cls, make, same, other, text):
        assert hash(make()) == hash(same())
        assert len({make(), same(), other()}) == 2

    def test_repr(self, cls, make, same, other, text):
        rec = make()
        assert repr(rec) == text
        assert str(rec) == text
        fields = ", ".join(f"{f}={getattr(rec, f)!r}" for f in FIELDS[cls])
        assert text == f"{cls.__name__}({fields})"

    def test_frozen(self, cls, make, same, other, text):
        rec = make()
        for name in (*FIELDS[cls], "unknown"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(rec, FIELDS[cls][0])
        assert rec == same()

    def test_no_equality_across_types(self, cls, make, same, other, text):
        assert make() != text
        assert make() != tuple(getattr(make(), f) for f in FIELDS[cls])

    def test_pickle_and_copy(self, cls, make, same, other, text):
        rec = make()
        clones = (pickle.loads(pickle.dumps(rec)), copy.copy(rec),
                  copy.deepcopy(rec))
        for clone in clones:
            assert type(clone) is cls and clone == rec
            assert repr(clone) == text
        if isinstance(rec, Distribution):
            # a law's built vectors go with it
            assert [clone._vectors for clone in clones] == [rec._vectors] * 3
            for clone in clones:
                assert clone.moment_vector(4) == rec.moment_vector(4)


def test_distribution_derived_attributes():
    u = Uniform(-1, 2.5)
    assert (u.tag, u.support) == ("uniform", Support(-1.0, 2.5))
    assert repr(u) == "Uniform(lo=-1, hi=2.5)"
    assert PointMass(0.5).support == Support(0.5, 1.5)
    assert TruncatedExponential(b=2.0).support == Support.upper_only(2.0)
    assert Beta(1, 2) != Uniform(0, 1)


def test_validation_still_runs():
    with pytest.raises(DomainError):
        Uniform(lo=1.0, hi=0.0)
    with pytest.raises(DomainError):
        Support(2.0, 1.0)
    with pytest.raises(DomainError):
        MomentVector(p=0, mu=(), support=Support(0.0, 1.0))
    with pytest.raises(SolverFailureError):
        RootSet((), True)
    with pytest.raises(DomainError):
        _hoeffding(mode="sideways")


def test_moment_vector_samples_stay_out_of_value_semantics():
    data = np.array([0.1, 0.5, 0.9])
    plain = MomentVector(2, (0.5, 0.3), Support(0.0, 1.0))
    backed = MomentVector(2, (0.5, 0.3), Support(0.0, 1.0), samples=data)
    assert backed.samples is data and plain.samples is None
    assert backed == plain and hash(backed) == hash(plain)
    assert repr(backed) == repr(plain)
    assert "samples" not in repr(backed)


def test_bound_records_round_trip_through_json():
    spec = EnsembleSpec.iid_replicate(Bernoulli(0.3).moment_vector(3), 20)
    h = _hoeffding(d_n=0.25, c_values=(0.5,) * 3, mode="one_sided")
    b = bennett_bound(spec, 2.0, 3)
    for rec in (h, b):
        back = type(rec).from_json_dict(rec.to_json_dict())
        assert back == rec and repr(back) == repr(rec)
