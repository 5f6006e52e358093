"""Noncrossing partition combinatorics against brute-force oracles."""

from itertools import product

import pytest

from freepoisson.errors import (DomainError, ShapeError, SizeLimitError,
                                ValidationError)
from freepoisson.ncpart import (NcPartition, catalan, enumerate_nc,
                                is_noncrossing, kreweras, refinement_leq,
                                relabel)

from oracles import kreweras_brute


def all_set_partitions(n):
    """Every set partition of {1..n} (oracle enumeration)."""
    if n == 0:
        yield []
        return
    for sub in all_set_partitions(n - 1):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [n]] + sub[i + 1:]
        yield sub + [[n]]


def test_enumerate_counts_match_catalan():
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == catalan(n)


def test_enumerate_matches_bruteforce_filter():
    for n in range(1, 8):
        brute = {NcPartition(n, p).blocks for p in all_set_partitions(n)
                 if is_noncrossing(p, n=n)}
        fast = {p.blocks for p in enumerate_nc(n)}
        assert brute == fast


def test_enumerate_order_deterministic_lexicographic():
    parts = enumerate_nc(4)
    keys = [p.blocks for p in parts]
    assert keys == sorted(keys)
    assert parts == enumerate_nc(4)


def test_enumerate_n3_has_five_all_noncrossing():
    parts = enumerate_nc(3)
    assert len(parts) == 5
    assert len(list(all_set_partitions(3))) == 5


def test_enumerate_n4_excludes_the_crossing():
    parts = enumerate_nc(4)
    assert len(parts) == 14
    crossing = ((1, 3), (2, 4))
    assert all(p.blocks != crossing for p in parts)
    assert len(list(all_set_partitions(4))) == 15


def test_enumerate_n1():
    assert enumerate_nc(1) == [NcPartition(1, [[1]])]


def test_enumerate_bounds():
    with pytest.raises(DomainError):
        enumerate_nc(0)
    with pytest.raises(SizeLimitError):
        enumerate_nc(17)


def test_is_noncrossing_examples():
    assert not is_noncrossing([[1, 3], [2, 4]])
    assert is_noncrossing([[1, 4], [2, 3]])
    for n in (1, 3, 6):
        assert is_noncrossing([list(range(1, n + 1))], n=n)


def test_is_noncrossing_rejects_malformed():
    with pytest.raises(ShapeError):
        is_noncrossing([[1, 2], [2, 3]], n=3)
    with pytest.raises(ShapeError):
        is_noncrossing([[1], [3]], n=3)
    with pytest.raises(ShapeError):
        is_noncrossing([[0, 1]], n=1)


def test_canonical_form_unique_and_hashable():
    a = NcPartition(4, [[2], [3, 1], [4]])
    b = NcPartition(4, [[1, 3], [4], [2]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.blocks == ((1, 3), (2,), (4,))


def test_partition_constructor_rejects_crossing():
    with pytest.raises(ValidationError):
        NcPartition(4, [[1, 3], [2, 4]])


def test_refinement_order():
    for n in (3, 4):
        bottom = NcPartition.singletons(n)
        top = NcPartition.one_block(n)
        for p in enumerate_nc(n):
            assert refinement_leq(bottom, p)
            assert refinement_leq(p, top)
    s = NcPartition(3, [[1, 2], [3]])
    p = NcPartition(3, [[1, 3], [2]])
    assert not refinement_leq(s, p)
    with pytest.raises(ShapeError):
        refinement_leq(NcPartition.singletons(2), NcPartition.singletons(3))


def test_kreweras_extremes():
    for n in (1, 2, 4, 6):
        assert kreweras(NcPartition.singletons(n)) == NcPartition.one_block(n)
    assert kreweras(NcPartition(2, [[1, 2]])) == NcPartition.singletons(2)


def test_kreweras_example_n3():
    assert kreweras(NcPartition(3, [[1, 3], [2]])) == \
        NcPartition(3, [[1, 2], [3]])


def test_kreweras_matches_bruteforce_maximal_complement():
    for n in range(1, 6):
        for p in enumerate_nc(n):
            assert kreweras(p) == kreweras_brute(p)


def test_kreweras_block_count_identity():
    for n in range(1, 9):
        for p in enumerate_nc(n):
            assert len(p) + len(kreweras(p)) == n + 1


def test_kreweras_squared_is_cyclic_shift():
    for n in range(1, 9):
        gamma = {i: (i - 2) % n + 1 for i in range(1, n + 1)}
        for p in enumerate_nc(n):
            assert kreweras(kreweras(p)) == relabel(p, gamma)


def test_kreweras_is_bijection():
    for n in range(1, 8):
        parts = enumerate_nc(n)
        images = {kreweras(p) for p in parts}
        assert len(images) == len(parts)


def test_kreweras_equals_gamma_of_inverse():
    # K = gamma o K^{-1}, i.e. K(K(pi)) = gamma(pi), checked via inverse map
    for n in range(2, 8):
        gamma = {i: (i - 2) % n + 1 for i in range(1, n + 1)}
        inverse = {kreweras(p): p for p in enumerate_nc(n)}
        for p in enumerate_nc(n):
            assert kreweras(p) == relabel(inverse[p], gamma)


def test_json_roundtrip():
    p = NcPartition(4, [[1, 3], [2], [4]])
    assert NcPartition.from_json(p.to_json()) == p
    assert p.to_json() == {"n": 4, "blocks": [[1, 3], [2], [4]]}
