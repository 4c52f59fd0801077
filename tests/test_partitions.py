import random
from fractions import Fraction

import pytest

from isobaric import verify
from isobaric.partitions import ExponentVector, exponent_vectors, multinomial, vector_count, weight_dot

from helpers import brute_force_vectors, partition_count, slot_exponent_vectors


def test_enumeration_order_n3_k3():
    got = [a.multiplicities for a in exponent_vectors(3, 3)]
    assert got == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]


def test_enumeration_order_n4_k2():
    got = [a.multiplicities for a in exponent_vectors(4, 2)]
    assert got == [(4, 0), (2, 1), (0, 2)]


def test_enumeration_matches_brute_force():
    # The pruned enumeration against the sorted brute force, k > n included.
    # Slots past n are zero in every vector, so one product over 14 slots
    # serves every k.
    for n in range(0, 13):
        full = brute_force_vectors(n, 14)
        for k in range(1, 15):
            want = sorted((v[:k] for v in full if not any(v[k:])), reverse=True)
            vecs = exponent_vectors(n, k)
            assert [a.multiplicities for a in vecs] == want
            assert len(vecs) == len(set(vecs)) == partition_count(n, k) == vector_count(n, k)


def _fields(vecs):
    return [(a.multiplicities, a.degree, a.norm) for a in vecs]


def test_enumeration_matches_slot_oracle():
    # The used-parts recursion against the old one-frame-per-slot route:
    # same vectors, degrees and norms, in the same order.
    for n in range(0, 23):
        for k in range(1, 25):
            assert _fields(exponent_vectors(n, k)) == _fields(slot_exponent_vectors(n, k)), (n, k)
    rng = random.Random(2014)
    drawn = [(rng.randint(23, 30), rng.randint(1, 34)) for _ in range(3)]
    for n, k in [(40, 40), (50, 12), (60, 6), (200, 2), (10**6, 1)] + drawn:
        assert _fields(exponent_vectors(n, k)) == _fields(slot_exponent_vectors(n, k)), (n, k)


def _norm_off_by_one(n, k):
    vecs = list(exponent_vectors(n, k))
    a = vecs[-1]
    vecs[-1] = ExponentVector._trusted(a.multiplicities, a.degree, a.norm + 1)
    return tuple(vecs)


def _duplicate_replaces_missing(n, k):
    vecs = list(exponent_vectors(n, k))
    if len(vecs) > 1:
        vecs[-1] = vecs[-2]
    return tuple(vecs)


@pytest.mark.parametrize(
    "mutant, message",
    [
        (_norm_off_by_one, "norm drift at n=0, k=1"),
        (_duplicate_replaces_missing, "keys not strictly descending at n=2, k=2"),
    ],
)
def test_verify_partitions_catches_mutants(monkeypatch, mutant, message):
    # Both keep every degree and the vector count, which is all the suite
    # checked before.
    assert verify.suite_partitions(12) == (True, "")
    monkeypatch.setattr(verify, "exponent_vectors", mutant)
    assert verify.suite_partitions(12) == (False, message)


def test_enumerated_vectors_match_public_constructor():
    for n in range(0, 11):
        for k in (1, 2, 5, n + 3):
            for a in exponent_vectors(n, k):
                b = ExponentVector(a.multiplicities)
                assert a == b and hash(a) == hash(b)
                assert (a.k, a.degree, a.norm, repr(a)) == (b.k, b.degree, b.norm, repr(b))
                assert a.degree == n
                with pytest.raises(AttributeError):
                    a.multiplicities = (1,)


def test_wide_part_bound_pads_zeros():
    # Only min(n, k) slots are enumerated; k far beyond n costs no recursion.
    (vec,) = exponent_vectors(1, 1500)
    assert vec.multiplicities == (1,) + (0,) * 1499 and vec.degree == 1 and vec.norm == 1
    assert len(exponent_vectors(3, 5000)) == 3


def test_vector_count_saturates_cheaply():
    for n in range(0, 30):
        for k in range(1, 12):
            exact = partition_count(n, k)
            assert vector_count(n, k) == exact
            for cap in (1, 2, 7, 100, 10**6):
                assert vector_count(n, k, cap) == min(exact, cap)
    assert vector_count(80, 80) == 15796476
    assert vector_count(80, 80, 10**6 + 1) == 10**6 + 1
    # Far past the cap no table is built: these return at once.
    assert vector_count(10**12, 1, 10**6 + 1) == 1
    assert vector_count(10**12, 2, 10**6 + 1) == 10**6 + 1
    assert vector_count(10**12, 10**12, 10**6 + 1) == 10**6 + 1
    with pytest.raises(ValueError):
        vector_count(3, 0)
    with pytest.raises(ValueError):
        vector_count(-1, 2)


def test_enumeration_descending_lex():
    for n in range(0, 9):
        for k in range(1, 6):
            keys = [a.multiplicities for a in exponent_vectors(n, k)]
            assert keys == sorted(keys, reverse=True)


def test_enumeration_stable_past_n():
    # Raising k beyond n only pads trailing zero slots.
    for n in range(1, 8):
        base = [a.multiplicities for a in exponent_vectors(n, n)]
        for k in range(n + 1, n + 4):
            padded = [a.multiplicities for a in exponent_vectors(n, k)]
            assert [m[:n] for m in padded] == base
            assert all(all(x == 0 for x in m[n:]) for m in padded)


def test_degree_and_norm():
    a = ExponentVector((2, 0, 1))
    assert a.degree == 5
    assert a.norm == 3
    assert a.k == 3
    assert ExponentVector((0,)).degree == 0
    assert ExponentVector((0,)).norm == 0


def test_count_accessor_zero_beyond_bound():
    a = ExponentVector((1, 2))
    assert a.count(1) == 1
    assert a.count(2) == 2
    assert a.count(3) == 0
    assert a.count(99) == 0
    with pytest.raises(ValueError):
        a.count(0)


def test_invalid_vectors_rejected():
    with pytest.raises(ValueError):
        ExponentVector(())
    with pytest.raises(ValueError):
        ExponentVector((1, -1))
    with pytest.raises(ValueError):
        exponent_vectors(3, 0)
    with pytest.raises(ValueError):
        exponent_vectors(-1, 2)


def test_multinomial_small_values():
    assert multinomial(ExponentVector((3, 0, 0))) == 1
    assert multinomial(ExponentVector((1, 1, 0))) == 2
    assert multinomial(ExponentVector((0, 0, 1))) == 1
    assert multinomial(ExponentVector((2, 2))) == 6
    assert multinomial(ExponentVector((1, 1, 1))) == 6


def test_multinomial_factorial_oracle():
    from math import factorial

    for n in range(0, 8):
        for k in range(1, 5):
            for a in exponent_vectors(n, k):
                denom = 1
                for m in a.multiplicities:
                    denom *= factorial(m)
                assert multinomial(a) * denom == factorial(a.norm)


def test_weight_dot():
    a = ExponentVector((2, 1))
    assert weight_dot(a, lambda j: Fraction(1)) == 3
    assert weight_dot(a, lambda j: Fraction(j)) == 4
    assert weight_dot(a, lambda j: Fraction(1, j)) == Fraction(5, 2)


def test_hashable_and_iterable():
    a = ExponentVector((1, 0, 1))
    assert tuple(a) == (1, 0, 1)
    assert len(a) == 3
    assert len({a, ExponentVector((1, 0, 1))}) == 1
    assert ExponentVector([1, 0, 1]) == a and a != (1, 0, 1)


def test_copy_and_pickle_round_trip():
    import copy
    import pickle

    a = exponent_vectors(5, 3)[2]
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)
        assert (b.degree, b.norm, repr(b)) == (a.degree, a.norm, repr(a))


def test_immutable_with_repr():
    a = ExponentVector((2, 1))
    assert a.degree == 4
    with pytest.raises(AttributeError):
        a.multiplicities = (1, 1)
    with pytest.raises(AttributeError):
        a.degree = 5
    with pytest.raises(AttributeError):
        del a.multiplicities
    assert a.degree == 4 and repr(a) == "ExponentVector(2, 1)"
