"""Value semantics of the record classes.

The hashable records compare field by field against their own class only and
hash as the tuple of their fields, so sets and dict keys built from them do
not depend on how a value was spelled at construction.  The records with
mutable fields compare the same way and are unhashable.  Reprs are pinned
byte for byte.
"""

import pytest

from tlblob import __version__
from tlblob.blobrep import BlobRepReport
from tlblob.diagrams import BlobPairing, CompositionResult, Pairing, identity
from tlblob.faithful import FaithfulnessCertificate
from tlblob.reference import MaskIndependenceReport
from tlblob.rings import LaurentInt
from tlblob.tensorrep import Rho0Config, Rho0Rep, SparseRepMatrix, rho0
from tlblob.tlcert import TriangularityReport
from tlblob.walks import Walk, WalkPair
from tlblob.words import GenWord, PresentationReport, WordEval

I2 = identity(2)
W12 = Walk((1, 2))

# (class, arguments, other arguments that canonicalise to the same value,
#  the canonical fields in declaration order)
CASES = [
    (Pairing, (2, 2, ((3, 2), (1, 0))), (2, 2, [(0, 1), (2, 3)]),
     (2, 2, ((0, 1), (2, 3)))),
    (BlobPairing, (I2, [(2, 0)]), (I2, frozenset({(0, 2)})),
     (I2, frozenset({(0, 2)}))),
    (CompositionResult, (I2, 1), (I2, 1, 0, 0), (I2, 1, 0, 0)),
    (Walk, ([1, 2],), ("12",), ((1, 2),)),
    (WalkPair, (Walk([1, 2]), W12), (W12, Walk("12")), (W12, W12)),
    (GenWord, ([1, "e"], 3), ((1, "e"), 3, "standard"), ((1, "e"), 3, "standard")),
    (WordEval, (BlobPairing(I2), 0, 1, 0), (BlobPairing(I2, ()), 0, 1, 0),
     (BlobPairing(I2), 0, 1, 0)),
    (Rho0Config, (2, 1), (2, 1), (2, 1)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, same_args, fields", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, args, same_args, fields):
    a, b = cls(*args), cls(*same_args)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, args, same_args, fields", CASES, ids=IDS)
def test_never_equal_to_a_tuple_or_another_class(cls, args, same_args, fields):
    value = cls(*args)
    lookalike = type("Lookalike", (cls,), {"__slots__": ()})(*args)
    assert value != fields and fields != value
    assert value != lookalike and lookalike != value


def test_same_fields_in_two_classes_stay_unequal():
    assert CompositionResult(I2, 1, 0, 0) != WordEval(I2, 1, 0, 0)


def test_canonical_fields():
    assert Pairing(2, 2, ((3, 2), (1, 0))).pairs == ((0, 1), (2, 3))
    assert Walk([1, 2]).steps == (1, 2)
    assert BlobPairing(I2, [(2, 0)]).blobbed == frozenset({(0, 2)})
    assert GenWord([1, 2], 3).letters == (1, 2)


def test_sparse_matrix_drops_zeros_and_is_unhashable():
    one = LaurentInt.one()
    mat = SparseRepMatrix(1, 1, {(0, 0): LaurentInt.zero(), (1, 1): one}, "laurent")
    assert mat.entries == {(1, 1): one}
    assert mat == SparseRepMatrix(1, 1, {(1, 1): one}, "laurent")
    with pytest.raises(TypeError):
        hash(mat)


def test_rho0_rep_compares_by_fields_and_is_unhashable():
    assert rho0(Rho0Config(2, 1)) == rho0(Rho0Config(2, 1))
    assert rho0(Rho0Config(2, 1)) != rho0(Rho0Config(2, 2))
    with pytest.raises(TypeError):
        hash(rho0(Rho0Config(2, 1)))


ONE = LaurentInt.one()
M1 = SparseRepMatrix(1, 1, {(0, 0): LaurentInt.x_power(1), (1, 1): ONE}, "laurent")
M1_REPR = ("SparseRepMatrix(rows_log2=1, cols_log2=1, "
           "entries={(0, 0): 1*x, (1, 1): 1}, ring='laurent')")

# (value, its exact repr): one small value per record class.
REPRS = [
    (Pairing(2, 2, ((2, 3), (1, 0))), "Pairing(2,2; (t1,t2), (b1,b2))"),
    (BlobPairing(I2, [(0, 2)]), "BlobPairing(2,2; (t1,b1)*, (t2,b2))"),
    (CompositionResult(I2, 1),
     "CompositionResult(diagram=Pairing(2,2; (t1,b1), (t2,b2)), "
     "plain_loops=1, blob_loops=0, blob_merges=0)"),
    (W12, "12"),
    (WalkPair(Walk("11"), Walk("11")), "(11,11)"),
    (GenWord([1, "e"], 3), "GenWord('u1 e', n=3, standard)"),
    (WordEval(BlobPairing(I2), 0, 1, 0),
     "WordEval(diagram=BlobPairing(2,2; (t1,b1), (t2,b2)), "
     "plain_loops=0, blob_loops=1, blob_merges=0)"),
    (PresentationReport([("u1.u1 = delta u1", M1)], {"gamma": ONE}),
     f"PresentationReport(violations=[('u1.u1 = delta u1', {M1_REPR})], "
     "empirical_scalars={'gamma': 1})"),
    (M1, M1_REPR),
    (Rho0Config(2, 1), "Rho0Config(n=2, m=1)"),
    (Rho0Rep(Rho0Config(1, 0), M1),
     f"Rho0Rep(config=Rho0Config(n=1, m=0), e={M1_REPR}, u_factors={{}}, u={{}})"),
    (TriangularityReport(2, [(W12, (0, 0), "diagonal-zero")]),
     "TriangularityReport(n=2, failures=[(12, (0, 0), 'diagonal-zero')], "
     "nonwalk_entries=0)"),
    (FaithfulnessCertificate(2, 2, 2, "exact", tool_version="0.0"),
     "FaithfulnessCertificate(n=2, basis_size=2, rank=2, method='exact', "
     "mask_checks=[], witness=None, tool_version='0.0')"),
    (MaskIndependenceReport(2, 3, 7, 2, [2, 2, 2]),
     "MaskIndependenceReport(n=2, trials=3, seed=7, basis_size=2, ranks=[2, 2, 2])"),
    (BlobRepReport(1, 4, [], False, {"gamma": ONE}),
     "BlobRepReport(n=1, pairs_checked=4, failures=[], sign_normalized=False, "
     "empirical_scalars={'gamma': 1}, expected_scalars={})"),
]


@pytest.mark.parametrize("value, text", REPRS,
                         ids=[type(value).__name__ for value, _ in REPRS])
def test_repr(value, text):
    assert repr(value) == text


# (class, arguments, the fields in declaration order) of the unhashable records.
UNHASHABLE = [
    (TriangularityReport, (2, [(W12, (0, 0), "diagonal-zero")], []),
     (2, [(W12, (0, 0), "diagonal-zero")], [])),
    (FaithfulnessCertificate, (2, 2, 2, "exact"),
     (2, 2, 2, "exact", [], None, __version__)),
    (MaskIndependenceReport, (2, 3, 7, 2, [2, 2, 2]), (2, 3, 7, 2, [2, 2, 2])),
    (BlobRepReport, (1, 4, [], False), (1, 4, [], False, {}, {})),
    (PresentationReport, ([], {"gamma": ONE}), ([], {"gamma": ONE})),
    (SparseRepMatrix, (1, 1, dict(M1.entries), "laurent"),
     (1, 1, M1.entries, "laurent")),
    (Rho0Rep, (Rho0Config(1, 0), M1), (Rho0Config(1, 0), M1, {}, {})),
]
UNHASHABLE_IDS = [case[0].__name__ for case in UNHASHABLE]


@pytest.mark.parametrize("cls, args, fields", UNHASHABLE, ids=UNHASHABLE_IDS)
def test_unhashable_records_compare_by_fields(cls, args, fields):
    a, b = cls(*args), cls(*fields)
    assert a == b and not a != b
    with pytest.raises(TypeError):
        hash(a)
    b_fields = [getattr(b, name) for name in cls.__slots__]
    assert b_fields == list(fields)
    b_fields[0] = -1
    assert a != cls(*b_fields)


@pytest.mark.parametrize("cls, args, fields", UNHASHABLE, ids=UNHASHABLE_IDS)
def test_unhashable_records_never_equal_a_tuple_or_a_subclass(cls, args, fields):
    value = cls(*args)
    lookalike = type("Lookalike", (cls,), {"__slots__": ()})(*args)
    assert value != fields and fields != value
    assert value != lookalike and lookalike != value
