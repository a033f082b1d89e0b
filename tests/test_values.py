"""Value semantics of the record classes.

The hashable records compare field by field against their own class only and
hash as the tuple of their fields, so sets and dict keys built from them do
not depend on how a value was spelled at construction.
"""

import pytest

from tlblob.diagrams import BlobPairing, CompositionResult, Pairing, identity
from tlblob.rings import LaurentInt
from tlblob.tensorrep import Rho0Config, SparseRepMatrix, rho0
from tlblob.walks import Walk, WalkPair
from tlblob.words import GenWord, WordEval

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
