"""Noncrossing partitions of {1..n}: enumeration, refinement order and the
Kreweras complement.

Partitions are kept in a canonical form (blocks sorted ascending, blocks
ordered by minimum) so equality is structural and enumeration order is
reproducible.

Each NC(n) is built, validated and held once per process: the partition
objects hold the canonical block tuples of the enumeration, and equal
blocks are one tuple.  ``enumerate_nc`` returns a fresh list of the same
immutable objects on every call, and a partition keeps its Kreweras
complement, which is the shared member of NC(n) once that is built.
Enumeration stops at ``MAX_ENUM_N`` = 12: building NC(12), 208,012
partitions, takes about 4 s and adds about 45 MB to the resident size
(250 MB when each object held its own copy of the tuples), and each
further n costs about four times as much.  ``MAX_N`` = 16 is the
word-length cap of the first-block engine in ``ncps``.
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import chain, product
from math import comb
from operator import itemgetter

from .errors import DomainError, ShapeError, SizeLimitError, ValidationError

MAX_N = 16
MAX_ENUM_N = 12


def catalan(n):
    """The n-th Catalan number."""
    return comb(2 * n, n) // (n + 1)


class NcPartition:
    """A noncrossing partition of {1..n} in canonical form."""

    __slots__ = ("n", "blocks", "_kreweras")

    def __init__(self, n, blocks):
        self._hold(n, _canonical(blocks))

    @classmethod
    def _of_canonical(cls, n, blocks):
        """Validate and hold ``blocks``, already canonical, as they are."""
        p = cls.__new__(cls)
        p._hold(n, blocks)
        return p

    def _hold(self, n, blocks):
        _check_partition(n, blocks)
        if not _noncrossing(blocks):
            raise ValidationError("blocks are crossing", witness=[list(b) for b in blocks])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_kreweras", None)

    def __setattr__(self, *a):
        raise AttributeError("NcPartition is immutable")

    def __reduce__(self):
        # Copies and unpickled objects go through the validating
        # constructor; the memoized complement is not carried over.
        return (NcPartition, (self.n, [list(b) for b in self.blocks]))

    def __eq__(self, other):
        return isinstance(other, NcPartition) and self.n == other.n \
            and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return "NcPartition(%d, %s)" % (self.n, [list(b) for b in self.blocks])

    def __len__(self):
        """Number of blocks."""
        return len(self.blocks)

    def to_json(self):
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, obj):
        return cls(int(obj["n"]), obj["blocks"])

    @classmethod
    def singletons(cls, n):
        return cls(n, [[i] for i in range(1, n + 1)])

    @classmethod
    def one_block(cls, n):
        return cls(n, [list(range(1, n + 1))])


def _canonical(blocks):
    # sorted whole: disjoint blocks compare by their first elements
    blocks = [tuple(sorted(b)) for b in blocks]
    if () in blocks:
        raise ShapeError("empty block")
    return tuple(sorted(blocks))


def _check_partition(n, blocks):
    if n < 1:
        raise DomainError("n must be >= 1, got %d" % n)
    seen = set()
    for b in blocks:
        for x in b:
            if not isinstance(x, int) or not 1 <= x <= n:
                raise ShapeError("element %r outside 1..%d" % (x, n))
            if x in seen:
                raise ShapeError("element %d repeated" % x)
            seen.add(x)
    if len(seen) != n:
        raise ShapeError("blocks do not cover 1..%d" % n)


def _noncrossing(blocks):
    # Elements of a noncrossing partition close like balanced parentheses:
    # scan 1..n keeping a stack of open blocks.
    owner = {}
    last = {}
    for bi, b in enumerate(blocks):
        for x in b:
            owner[x] = bi
        last[bi] = b[-1]
    n = len(owner)
    stack = []
    opened = set()
    for i in range(1, n + 1):
        bi = owner[i]
        if bi in opened:
            if not stack or stack[-1] != bi:
                return False
        else:
            opened.add(bi)
            stack.append(bi)
        if i == last[bi]:
            stack.pop()
    return True


def is_noncrossing(blocks, n=None):
    """True iff ``blocks`` is a noncrossing set partition of {1..n}."""
    if n is None:
        n = sum(len(b) for b in blocks)
    blocks = _canonical(blocks)
    _check_partition(n, blocks)
    return _noncrossing(blocks)


_BLOCKS = {}


def _intern(block):
    return _BLOCKS.setdefault(block, block)


@lru_cache(maxsize=None)
def _enumerate_canonical(n):
    """All noncrossing partitions of {1..n} as canonical block tuples.

    Equal blocks are one shared tuple, across partitions and across n.
    """
    if n == 0:
        return ((),)
    out = []
    rest = range(2, n + 1)
    # Choose the block containing 1; the gaps it leaves between consecutive
    # members are partitioned independently (joining across a gap would
    # cross the first block), each shifted past its left end.
    for mask in range(1 << (n - 1)):
        first = _intern((1,) + tuple(x for i, x in enumerate(rest)
                                     if mask >> i & 1))
        ends = first[1:] + (n + 1,)
        choices = [[tuple(_intern(tuple(x + lo for x in b)) for b in sub)
                    for sub in _enumerate_canonical(hi - lo - 1)]
                   for lo, hi in zip(first, ends)]
        for gaps in product(*choices):
            out.append(tuple(sorted(chain((first,), *gaps),
                                    key=itemgetter(0))))
    return tuple(sorted(out))


_NC = {}


def _partitions(n):
    """NC(n) as validated ``NcPartition`` objects, built once per n.

    They hold the tuples of ``_enumerate_canonical(n)``, so NC(n) is held
    once.
    """
    if n not in _NC:
        _NC[n] = tuple(NcPartition._of_canonical(n, blocks)
                       for blocks in _enumerate_canonical(n))
    return _NC[n]


def enumerate_nc(n):
    """All of NC(n), lexicographic on the canonical block lists.

    Returns a new list on each call; its elements are shared, immutable
    objects.
    """
    if n < 1:
        raise DomainError("n must be >= 1, got %d" % n)
    if n > MAX_ENUM_N:
        raise SizeLimitError("n = %d exceeds the enumeration cap %d"
                             % (n, MAX_ENUM_N))
    return list(_partitions(n))


def refinement_leq(sigma, pi):
    """True iff every block of sigma is contained in a block of pi."""
    if sigma.n != pi.n:
        raise ShapeError("mismatched ground sets: %d vs %d" % (sigma.n, pi.n))
    owner = {}
    for bi, b in enumerate(pi.blocks):
        for x in b:
            owner[x] = bi
    for b in sigma.blocks:
        if len({owner[x] for x in b}) != 1:
            return False
    return True


def kreweras(pi):
    """Kreweras complement, via cycles of (block permutation)^-1 o (1..n).

    Each block acts as the cycle sending every element to the next larger
    one (largest wraps to smallest); composing its inverse with the full
    cycle i -> i+1 yields the complement's blocks.  The result is computed
    once per partition object and kept on it; once NC(n) is built, it is
    the shared member of ``enumerate_nc(n)``.
    """
    if pi._kreweras is not None:
        return pi._kreweras
    n = pi.n
    nxt = {}
    for b in pi.blocks:
        for k, x in enumerate(b):
            nxt[x] = b[(k + 1) % len(b)]
    inv = {v: k for k, v in nxt.items()}
    gamma = lambda i: i % n + 1
    perm = {i: inv[gamma(i)] for i in range(1, n + 1)}
    seen = set()
    blocks = []
    for i in range(1, n + 1):
        if i in seen:
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        blocks.append(cyc)
    if n in _NC:
        k = _NC[n][bisect_left(_enumerate_canonical(n), _canonical(blocks))]
    else:
        k = NcPartition(n, blocks)
    object.__setattr__(pi, "_kreweras", k)
    return k


def relabel(pi, perm):
    """Apply an index map {1..n}->{1..n} to every element."""
    return NcPartition(pi.n, [[perm[x] for x in b] for b in pi.blocks])
