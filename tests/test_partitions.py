from fractions import Fraction

import pytest

from isobaric.partitions import ExponentVector, exponent_vectors, multinomial, weight_dot

from helpers import brute_force_vectors, partition_count


def test_enumeration_order_n3_k3():
    got = [a.multiplicities for a in exponent_vectors(3, 3)]
    assert got == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]


def test_enumeration_order_n4_k2():
    got = [a.multiplicities for a in exponent_vectors(4, 2)]
    assert got == [(4, 0), (2, 1), (0, 2)]


def test_enumeration_matches_brute_force():
    for n in range(0, 9):
        for k in range(1, 9):
            vecs = exponent_vectors(n, k)
            assert {a.multiplicities for a in vecs} == brute_force_vectors(n, k)
            assert len(vecs) == len(set(vecs)) == partition_count(n, k)


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
