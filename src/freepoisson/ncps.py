"""Finite-dimensional noncommutative probability spaces and the
moment/cumulant engine.

A space is a block-diagonal *-algebra M = (+) M_{n_b}(C) carrying the weight
phi(x) = trace(rho x) for a positive definite block-diagonal density rho.
The weight need not be a state: trace(rho) > 1 is allowed and is how finite
weights enter the rescaling identities.

Moments M and free cumulants R are linked by the lattice sum
M(w) = sum over noncrossing partitions pi of the block products R_pi(w).
The engine evaluates it by the first-block recursion (Nica & Speicher,
Lectures on the Combinatorics of Free Probability, 2006): M(w) is the sum,
over the blocks V that contain position 1, of R(w|V) times the product of
M over the gaps that V leaves.  Solving the same identity for the one-block
term inverts it.  Both directions are memoized per word, visit at most
2^(n-1) first blocks per word of length n, and cap words at
``ncpart.MAX_N`` letters.

The lattice sum is homogeneous of degree |w|: if D is the least common
denominator of an exact table, D^|w| R(w) and D^|w| M(w) are integers, and
the same holds block by block and gap by gap.  So tables of ``int`` and
``Fraction`` values run the recursion on Python ints and divide once per
output word; other scalars keep their own arithmetic.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import lcm
from operator import attrgetter, itemgetter

import numpy as np

from . import _scalars as sc
from .errors import (DomainError, NotClosingError, NotPsdError,
                     NotTracialError, ShapeError, SizeLimitError,
                     ValidationError)
from .ncpart import MAX_N, enumerate_nc, kreweras

FLOAT_TOL = 1e-10


class NcProbSpace:
    """Block-diagonal matrix algebra with weight trace(rho . )."""

    def __init__(self, block_dims, density, mode=sc.FLOAT):
        if mode not in (sc.EXACT, sc.FLOAT):
            raise DomainError("unknown scalar mode %r" % mode)
        self.block_dims = tuple(int(d) for d in block_dims)
        if any(d < 1 for d in self.block_dims):
            raise DomainError("block dims must be positive")
        if mode == sc.EXACT and any(d != 1 for d in self.block_dims):
            raise DomainError("exact mode supports diagonal algebras only")
        self.mode = mode
        self.density = [sc.array(b, mode) for b in density]
        if len(self.density) != len(self.block_dims):
            raise ShapeError("density block count mismatch")
        for d, b in zip(self.block_dims, self.density):
            if b.shape != (d, d):
                raise ShapeError("density block shape %s != (%d, %d)"
                                 % (b.shape, d, d))
        if mode == sc.EXACT and any(b[0, 0] <= 0 for b in self.density):
            raise NotPsdError("density is not positive definite")
        self._spectra = None if mode == sc.EXACT else self._gate()

    def _gate(self):
        """Per block, the spectral gate's (eigenvalues, eigenvectors) of the
        float density, which must be positive definite."""
        return [sc.spectral_gate("density", sc.to_float_array(b),
                                 require="positive definite")[:2]
                for b in self.density]

    def density_powers(self):
        """Per block, the float (rho^{1/2}, rho^{-1/2}, rho^{-1})."""
        return [((vec * np.sqrt(ev)) @ vec.conj().T,
                 (vec / np.sqrt(ev)) @ vec.conj().T,
                 (vec / ev) @ vec.conj().T)
                for ev, vec in self._spectra or self._gate()]

    def total_weight(self):
        """phi(1) = trace(rho)."""
        return sum(b.trace() for b in self.density)

    def is_state(self):
        w = self.total_weight()
        if self.mode == sc.EXACT:
            return w == 1
        return abs(w - 1) < FLOAT_TOL

    def element(self, blocks):
        """Wrap per-block matrix data as an element of the algebra."""
        mats = [sc.array(b, self.mode) for b in blocks]
        for d, b in zip(self.block_dims, mats):
            if b.shape != (d, d):
                raise ShapeError("element block shape mismatch")
        return mats

    def identity(self):
        return [sc.eye(d, self.mode) for d in self.block_dims]

    def multiply(self, x, y):
        return [bx @ by for bx, by in zip(x, y)]

    def phi(self, x):
        """The weight phi(x) = trace(rho x)."""
        total = sc.scalar_zero(self.mode)
        for rho, b in zip(self.density, x):
            total = total + (rho @ b).trace()
        return total

    def rescale(self, alpha):
        """The same algebra with weight alpha*phi."""
        if self.mode == sc.EXACT:
            alpha = sc.as_fraction(alpha)
        return NcProbSpace(self.block_dims,
                           [alpha * b for b in self.density], self.mode)

    def to_json(self):
        from .cli import encode_matrix
        return {"blocks": list(self.block_dims),
                "density": [encode_matrix(b, self.mode) for b in self.density],
                "mode": self.mode}


def diag_space(weights, mode=sc.EXACT):
    """Commutative space C^d with weight sum(w_i x_i)."""
    return NcProbSpace([1] * len(weights),
                       [[[w]] for w in weights], mode)


def moment(space, word):
    """M_n(x_1,...,x_n) = phi(x_1 ... x_n)."""
    if not word:
        raise DomainError("word must be nonempty")
    prod = word[0]
    for x in word[1:]:
        prod = space.multiply(prod, x)
    return space.phi(prod)


def partitioned_moment(space, pi, word):
    """M_pi: the product of block moments over the partition pi."""
    if len(word) != pi.n:
        raise ShapeError("|word| = %d but pi.n = %d" % (len(word), pi.n))
    total = sc.scalar_one(space.mode)
    for block in pi.blocks:
        total = total * moment(space, [word[v - 1] for v in block])
    return total


@lru_cache(maxsize=None)
def _first_blocks(n):
    """The blocks V of {0..n-1} that contain 0, each with its gaps.

    A block is stored as the getter of its sub-key (``key[:1]`` for the
    singleton, since ``itemgetter`` of one index returns a bare item) and
    each gap as a ``slice``: the gaps are the nonempty intervals strictly
    between consecutive members of V and after its last member.  The
    one-block V = (0..n-1), which leaves no gaps, comes last.
    """
    if n < 1:
        raise DomainError("n must be >= 1, got %d" % n)
    if n > MAX_N:
        raise SizeLimitError("n = %d exceeds the hard cap %d" % (n, MAX_N))
    out = []
    for mask in range(1 << (n - 1)):
        block = (0,) + tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
        ends = block[1:] + (n,)
        gaps = tuple(slice(lo + 1, hi)
                     for lo, hi in zip(block, ends) if hi > lo + 1)
        getter = itemgetter(*block) if len(block) > 1 \
            else itemgetter(slice(0, 1))
        out.append((getter, gaps))
    return tuple(out)


def _moment_slots(r_slots):
    """Memoized moments M(key) = sum_{V ∋ 1} R(key|V) prod_gaps M(key|gap).

    ``r_slots`` maps sub-keys to cumulants.  A key is any tuple: a label
    word, or slot positions in 1..n.
    """
    @lru_cache(maxsize=None)
    def m(key):
        total = 0
        for block, gaps in _first_blocks(len(key)):
            term = r_slots(block(key))
            for gap in gaps:
                term = term * m(key[gap])
            total = total + term
        return total
    return m


def _cumulant_slots(m_slots):
    """Memoized cumulants: the first-block sum solved for R(key).

    R(key) = M(key) - sum over V ∋ 1, V != key, of R(key|V) times the gap
    moments.  The moment oracle ``m_slots`` is memoized as well, because
    the same gaps recur under many first blocks.
    """
    m = lru_cache(maxsize=None)(m_slots)

    @lru_cache(maxsize=None)
    def r(key):
        proper = _first_blocks(len(key))[:-1]
        total = m(key)
        for block, gaps in proper:
            term = r(block(key))
            for gap in gaps:
                term = term * m(key[gap])
            total = total - term
        return total
    return r


def _on_integers(recursion, get, values):
    """``recursion(get)``, run on integer numerators where it can be.

    If ``values`` mix ``int`` and ``Fraction`` and nothing else, with least
    common denominator D, each value the recursion reaches is scaled to the
    int D^|key| * get(key) and the result of a word is divided by D^|word|.
    Other tables (all ``int``, float, complex, numpy scalars, whose int64
    would overflow) run on their own scalars.
    """
    kinds = set(map(type, values))
    if Fraction not in kinds or not kinds <= {int, Fraction}:
        return recursion(get)
    den = lcm(*set(map(attrgetter("denominator"), values)))

    @lru_cache(maxsize=None)
    def scaled(key):
        v = get(key)
        return v.numerator * (den ** len(key) // v.denominator)

    run = recursion(scaled)
    return lambda word: Fraction(run(word), den ** len(word))


def cumulants_from_moments(moments):
    """Invert M_n = sum_{pi in NC(n)} R_pi on word-indexed data.

    ``moments`` maps label words (tuples) to scalars and must contain every
    subword the recursion reaches; a missing one raises ValidationError.
    Returns the same-shaped mapping of free cumulants.
    """
    def m(word):
        if word not in moments:
            raise ValidationError("moments missing subword %r" % (word,))
        return moments[word]

    r = _on_integers(_cumulant_slots, m, moments.values())
    return {word: r(word) for word in moments}


def moments_table(cumulants, words):
    """M(w) = sum over NC(|w|) of block products of cumulants, per word.

    ``cumulants`` is a word-indexed mapping (or a CumulantFunctional); the
    words share one memo, so a subword common to several is summed once.
    Returns a dict from each word (as a tuple) to its moment; a subword
    missing from a mapping raises ValidationError.
    """
    if isinstance(cumulants, CumulantFunctional):
        get, values = cumulants.value, cumulants.values.values()
    else:
        get, values = cumulants.__getitem__, cumulants.values()
    m = _on_integers(_moment_slots, get, values)
    try:
        return {w: m(w) for w in map(tuple, words)}
    except KeyError as exc:
        raise ValidationError("cumulants missing subword %r"
                              % (exc.args[0],)) from None


def moments_from_cumulants(cumulants, word):
    """M_n(word) = sum over NC(|word|) of block products of cumulants.

    ``cumulants`` is a word-indexed mapping (or a CumulantFunctional).
    """
    word = tuple(word)
    return moments_table(cumulants, [word])[word]


class CumulantFunctional:
    """Word-indexed free cumulant data R_n(y_{i_1},...,y_{i_n}).

    ``values`` maps words over ``index_set`` (tuples of labels, lengths
    1..d_max) to scalars.  ``star`` names the adjoint label of each label
    (default: every generator self-adjoint).  A tracial tag asserts cyclic
    symmetry, which is what the Gram construction below requires.
    """

    def __init__(self, index_set, values, d_max, tracial=False, star=None):
        self.index_set = tuple(index_set)
        self.values = {tuple(w): v for w, v in values.items()}
        self.d_max = int(d_max)
        self.tracial = bool(tracial)
        self.star = dict(star) if star else {i: i for i in self.index_set}
        self._validate()

    def _validate(self):
        for w in self.values:
            if len(w) > self.d_max:
                raise ShapeError("word %r longer than d_max=%d" % (w, self.d_max))
            for lab in w:
                if lab not in self.index_set:
                    raise ShapeError("unknown label %r" % (lab,))
        for w, v in self.values.items():
            ws = self.star_word(w)
            if ws in self.values:
                other = self.values[ws]
                if isinstance(v, Fraction):
                    ok = other == v
                else:
                    ok = abs(np.conjugate(v) - other) < 1e-9 * (1 + abs(v))
                if not ok:
                    raise ValidationError(
                        "values(w*) != conj(values(w)) at %r" % (w,))
        if self.tracial:
            for w, v in self.values.items():
                rot = w[1:] + w[:1]
                if rot in self.values:
                    diff = self.values[rot] - v
                    bad = diff != 0 if isinstance(v, Fraction) \
                        else abs(diff) > 1e-9 * (1 + abs(v))
                    if bad:
                        raise NotTracialError(
                            "cyclic symmetry fails at %r" % (w,))

    def star_word(self, w):
        return tuple(self.star[c] for c in reversed(w))

    def value(self, word):
        word = tuple(word)
        if len(word) > self.d_max:
            raise ShapeError("word %r exceeds d_max=%d" % (word, self.d_max))
        return self.values.get(word, 0)

    @classmethod
    def constant(cls, c, d_max, label="x", tracial=True):
        """Single self-adjoint variable with all cumulants equal to c."""
        vals = {(label,) * k: c for k in range(1, d_max + 1)}
        return cls([label], vals, d_max, tracial=tracial)

    @classmethod
    def from_sequence(cls, seq, label="x", tracial=True):
        """kappa_1..kappa_n given positionally (seq[0] = kappa_1)."""
        vals = {(label,) * (k + 1): v for k, v in enumerate(seq)}
        return cls([label], vals, len(seq), tracial=tracial)


# -- free multiplication (moments/cumulants of products of free elements) --

def slots_from_sequence(seq):
    """Slot functional for identical arguments: R(V) = seq[|V|-1]."""
    def f(positions):
        k = len(positions)
        if k > len(seq):
            raise ShapeError("need order %d, have %d" % (k, len(seq)))
        return seq[k - 1]
    return f


def product_moments_free(r_x, y_slots, n, y_given="cumulants"):
    """Moments and cumulants of (x_1 y_1, ..., x_n y_n) for free families.

    r_x and y_slots are slot functionals: callables on tuples of positions
    in 1..n returning the cumulant (resp. cumulant or moment) of the
    arguments at those slots.  Returns (R_n, M_n) of the product word via

        R_n = sum_pi R_pi(x) R_{K(pi)}(y),
        M_n = sum_pi R_pi(x) M_{K(pi)}(y).

    n past ``ncpart.MAX_ENUM_N`` raises ``SizeLimitError``.
    """
    if y_given == "cumulants":
        r_y = y_slots
        m_y = _moment_slots(y_slots)
    elif y_given == "moments":
        m_y = y_slots
        r_y = _cumulant_slots(y_slots)
    else:
        raise DomainError("y_given must be 'cumulants' or 'moments'")

    def pi_product(slots, pi):
        total = 1
        for block in pi.blocks:
            total = total * slots(tuple(block))
        return total

    r_total = 0
    m_total = 0
    for pi in enumerate_nc(n):
        rx = pi_product(r_x, pi)
        k = kreweras(pi)
        m_total = m_total + rx * pi_product(m_y, k)
        r_total = r_total + rx * pi_product(r_y, k)
    return r_total, m_total


def check_freeness(space, family_a, family_b, n_max):
    """Mixed-cumulant freeness test up to order n_max.

    Returns (True, None) or (False, witness_word) where the witness names
    positions 'a<i>'/'b<j>' of a word with a nonvanishing mixed cumulant.
    """
    if n_max > 8:
        raise DomainError("n_max capped at 8")
    names_a = ["a%d" % i for i in range(len(family_a))]
    names_b = ["b%d" % i for i in range(len(family_b))]
    elements = dict(zip(names_a + names_b, list(family_a) + list(family_b)))
    tol = 0 if space.mode == sc.EXACT else FLOAT_TOL

    def mom(word):
        return moment(space, [elements[c] for c in word])

    return mixed_cumulants_vanish(mom, names_a, names_b, n_max, tol)


def mixed_cumulants_vanish(moment_fn, labels_a, labels_b, n_max, tol=0):
    """Freeness test against an external moment oracle (e.g. vacuum state).

    Words over both label sets are tried by length, then lexicographically
    in the order labels_a + labels_b; the first with a cumulant beyond
    ``tol`` is returned as the witness.
    """
    cum = _cumulant_slots(moment_fn)
    set_a, set_b = set(labels_a), set(labels_b)
    for n in range(2, n_max + 1):
        for word in iproduct(list(labels_a) + list(labels_b), repeat=n):
            if set_a.isdisjoint(word) or set_b.isdisjoint(word):
                continue
            v = cum(word)
            bad = v != 0 if tol == 0 else abs(v) > tol
            if bad:
                return False, list(word)
    return True, None


# -- Gram construction of the pseudo Hilbert algebra from cumulants --

def build_pseudo_algebra(cf, degree):
    """Quotient the word algebra by the null space of <w1,w2> = R(w1* w2).

    Requires a tracial functional (the null space is then a *-ideal) with
    data up to order 2*(degree+1).  The words up to length degree+1 run by
    length, and one elimination of their Gram (``_scalars.gram_pivots``)
    picks the basis words: the pivots, each word independent of the words
    before it modulo the null space.  Multiplication closes at ``degree``
    iff no pivot is longer than ``degree``; otherwise NotClosingError.  An
    indefinite Gram raises NotPsdError.  The left multiplications by the
    generators and S are solved in the basis, one matrix solve each.
    """
    from .algebra import PseudoHilbertAlgebra, structure_constants

    if not cf.tracial:
        raise NotTracialError(
            "pseudo-algebra construction requires a tracial cumulant "
            "functional; the null space need not be a *-ideal otherwise")
    if degree < 1 or degree > 6:
        raise DomainError("degree must be in 1..6")
    if cf.d_max < 2 * (degree + 1):
        raise ShapeError("need cumulant data up to order %d" % (2 * (degree + 1)))

    exact = all(isinstance(v, (Fraction, int)) for v in cf.values.values())
    mode = sc.EXACT if exact else sc.FLOAT

    words = []
    for length in range(1, degree + 2):
        words.extend(tuple(w) for w in iproduct(cf.index_set, repeat=length))
    index = {w: i for i, w in enumerate(words)}

    m = len(words)
    gram_all = sc.zeros((m, m), mode)
    for i in range(m):
        for j in range(m):
            gram_all[i, j] = cf.value(cf.star_word(words[i]) + words[j])

    pivots = sc.gram_pivots(gram_all, mode)
    rank_d = sum(len(words[i]) <= degree for i in pivots)
    if rank_d < len(pivots):
        raise NotClosingError(
            "multiplication does not close at degree %d "
            "(rank %d -> %d)" % (degree, rank_d, len(pivots)))

    basis_words = [words[i] for i in pivots]
    gram_q = gram_all[np.ix_(pivots, pivots)]

    def coords(image):
        """Column j: the coordinates of the word image(basis_words[j])."""
        cols = [index[image(w)] for w in basis_words]
        return sc.solve_gram(gram_q, gram_all[np.ix_(pivots, cols)], mode)

    gen_mats = {g: coords(lambda w: (g,) + w) for g in cf.index_set}

    # pi_l for each basis vector: compose generator actions along its word.
    lmul = []
    for w in basis_words:
        mat = sc.eye(rank_d, mode)
        for g in reversed(w):
            mat = gen_mats[g] @ mat
        lmul.append(mat)

    alg = PseudoHilbertAlgebra(
        gram=gram_q, smat=coords(cf.star_word),
        structure=structure_constants(lmul, rank_d, mode), mode=mode)
    alg.basis_words = basis_words
    return alg
