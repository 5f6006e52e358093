"""Noncrossing partition combinatorics against brute-force oracles."""

import copy
import pickle
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

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
        enumerate_nc(13)
    with pytest.raises(SizeLimitError):
        enumerate_nc(17)


def test_enumerate_returns_shared_objects_in_fresh_lists():
    for n in range(1, 10):
        first, second = enumerate_nc(n), enumerate_nc(n)
        assert first == second
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
    parts = enumerate_nc(5)
    parts.append(NcPartition.singletons(5))
    assert len(enumerate_nc(5)) == catalan(5)
    parts.clear()
    assert len(enumerate_nc(5)) == catalan(5)


def test_kreweras_memoized_on_the_partition():
    for n in range(1, 10):
        for p in enumerate_nc(n):
            k = kreweras(p)
            assert kreweras(p) is k
            fresh = NcPartition(n, p.blocks)
            assert kreweras(fresh) == k


def test_kreweras_returns_the_shared_member():
    for n in range(1, 9):
        members = {p: p for p in enumerate_nc(n)}
        for p in enumerate_nc(n):
            assert kreweras(p) is members[kreweras(p)]
        assert kreweras(NcPartition(n, [[i] for i in range(1, n + 1)])) \
            is members[NcPartition.one_block(n)]


def test_nc_blocks_are_held_once():
    parts = enumerate_nc(8)
    blocks = [b for p in parts for b in p.blocks]
    assert len({id(b) for b in blocks}) == len(set(blocks))


def test_memo_slot_is_immutable():
    p = NcPartition(3, [[1, 3], [2]])
    kreweras(p)
    with pytest.raises(AttributeError):
        p._kreweras = NcPartition.singletons(3)
    assert kreweras(p) == NcPartition(3, [[1, 2], [3]])


@pytest.mark.parametrize("dup", [
    copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
    ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle(dup):
    for p in enumerate_nc(5):
        kreweras(p)
        q = dup(p)
        assert q == p
        assert hash(q) == hash(p)
        assert kreweras(q) == kreweras(p)


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
    # an empty block is refused before the blocks are sorted on their heads
    with pytest.raises(ShapeError, match="empty block"):
        is_noncrossing([[1], []])
    with pytest.raises(ShapeError, match="empty block"):
        NcPartition(2, [[1, 2], []])


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kreweras_identities_property(data):
    n = data.draw(st.integers(1, 10))
    parts = enumerate_nc(n)
    p = parts[data.draw(st.integers(0, len(parts) - 1))]
    k = kreweras(p)
    assert len(p) + len(k) == n + 1
    gamma_inv = {i: (i - 2) % n + 1 for i in range(1, n + 1)}
    assert kreweras(k) == relabel(p, gamma_inv)
    assert NcPartition(n, k.blocks).blocks == k.blocks


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
