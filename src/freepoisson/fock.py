"""Truncated full Fock space over a finite-dimensional pseudo left Hilbert
algebra: creation/annihilation/preservation operators, the centered and
uncentered random-weight fields X and Y, Wick products, vacuum moments,
graded modular maps, right fields, and the finite-weight Wick embedding.

``GnsAlgebra`` is the one construction of L^2(M, phi) for a block-diagonal
space: matrix-unit basis, Gram, S, left multiplication, unit, Delta and J,
each built per block in closed form, Delta and J on first use.
``quantize.L2Space`` is its
orthonormal transport.  The truncation L is capped at ``MAX_TRUNCATION``
before the per-degree bookkeeping is built.

Vectors are stored sparsely as {index-tuple: coefficient}; a tuple of
length k addresses the elementary tensor e_{i1} x ... x e_{ik} in degree k.
An exact vector holds integer numerators over one denominator, in lowest
terms; ``FockVector.entries`` forms its ``Fraction`` values on read, and
every exact result equals, bit for bit, what ``Fraction`` arithmetic
gives.  Float vectors hold their coefficients over 1.

Operators are formal sums of words in the six elementary letters (left and
right creation / annihilation / gauge); ``_letter_leg`` decodes each into
the leg matrix it applies.  The letter interpreter serves vector
application and exact comparison.  An operator decodes each distinct
letter once, from its nonzeros (``_decode``): integer leg columns over D,
the lcm of the leg's nonzero denominators.  A field's gauge letter reads
pi_l(xi) from the structure constants, with no dense matrix, and an
annihilation letter computes its Gram row once.  ``FockOperator.apply``
runs each word on numerators, sums the terms' images over the lcm of
their denominators and divides by the gcd once per call; float vectors
run the same loop over denominator 1.  Overflow past the truncation is
detected letter by letter ("strict" mode) or projected away ("projective"
mode).  ``FockOperator.is_close`` compares exact operators column by
column, applying both to each basis vector it needs; no exact matrix is
ever built.  Float matrices and norms are built from sparse letter blocks
instead: each letter is one CSR matrix on the truncated space
(kron(leg, I) per degree), a word is their product, and
``FockOperator.sparse`` sums the words.  ``transport`` moves every letter
through a pair (left, right) of one-particle maps, as the functor F does:
``FockOperator.norm`` transports by (G^{1/2}, G^{-1/2}) and takes the top
singular value of the CSR with ARPACK, never densifying, under a budget
on the nonzeros of a letter block; second quantization transports the
Wick words on the dilation space by (p_N, p_N*).  The Fock inner product
and the graded modular maps expand each entry leg by leg through one
helper, ``_legwise``, on integer Gram rows or leg columns over their lcm
D (a degree-k entry carries D^k).  scipy.sparse and scipy.sparse.linalg
are imported inside these functions only, so exact work never loads them.
"""

import math
from fractions import Fraction
from functools import cached_property
from itertools import product

import numpy as np

from . import _scalars as sc
from .algebra import PseudoHilbertAlgebra, trivial_algebra
from .errors import (DomainError, NotTracialError, OverflowError_,
                     ShapeError, SizeLimitError, TruncationError)

STRICT = "strict"
PROJECTIVE = "projective"
# FockSpace keeps dim**k for every degree k <= L, so the truncation is
# capped before that list is built
MAX_TRUNCATION = 1000
# norm() refuses, before building anything, a space whose largest possible
# letter block would hold more nonzeros than this
MAX_NORM_NNZ = 10 ** 6
# below this many dimensions a dense SVD is faster than ARPACK
DENSE_NORM_DIM = 128


# -- GNS construction ------------------------------------------------------

class GnsAlgebra(PseudoHilbertAlgebra):
    """The left Hilbert algebra of a block-diagonal space (M, phi).

    This is the one construction of L^2(M, phi): ``quantize.L2Space`` is
    its transport to orthonormal coordinates.  Basis vectors are the
    matrix units (b, i, j) in row-major order, so eta(x) concatenates the
    flattened blocks and every structure matrix is block diagonal.  On a
    block with density rho:

      * Gram <eta(x), eta(y)> = trace(rho x* y): kron(1, rho^T);
      * S eta(x) = eta(x*): the swap (i, j) -> (j, i);
      * left multiplication by the unit e_ij: kron(e_ij, 1);
      * Delta eta(x) = eta(rho x rho^{-1}): kron(rho, rho^{-T});
      * J eta(x) = eta(rho^{1/2} x* rho^{-1/2}) = jmat conj(eta(x)), with
        jmat = kron(rho^{1/2}, rho^{-1/2 T}) composed with the swap, so
        that J = S Delta^{-1/2}.

    Exact spaces are diagonal, so there Delta = 1 and J = S.
    """

    def __init__(self, space):
        self.space = space
        mode = space.mode
        dims = space.block_dims
        self.units = [(b, i, j) for b, d in enumerate(dims)
                      for i in range(d) for j in range(d)]
        self._offsets = np.cumsum([0] + [d * d for d in dims]).tolist()
        self._swaps = [np.arange(d * d).reshape(d, d).T.ravel() for d in dims]
        eyes = [sc.eye(d, mode) for d in dims]
        # pi_l(e_ij) maps e_jk to e_ik
        one = sc.scalar_one(mode)
        structure = [(o + i * d + j, o + i * d + k, o + j * d + k, one)
                     for d, o in zip(dims, self._offsets)
                     for i, j, k in product(range(d), repeat=3)]
        super().__init__(
            gram=self._blockdiag([_kron(e, rho.T)
                                  for e, rho in zip(eyes, space.density)],
                                 mode),
            smat=self._blockdiag([sc.eye(d * d, mode)[:, s]
                                  for d, s in zip(dims, self._swaps)], mode),
            structure=structure,
            unit=np.concatenate([e.ravel() for e in eyes]), mode=mode)

    def _blockdiag(self, blocks, mode):
        dim = self._offsets[-1]
        out = sc.zeros((dim, dim), mode)
        for o, m in zip(self._offsets, blocks):
            out[o:o + len(m), o:o + len(m)] = m
        return out

    # Delta and J are built on first use: most callers of a float space
    # need only the Gram, and each needs the powers of every density block

    @cached_property
    def _powers(self):
        return self.space.density_powers()

    @cached_property
    def delta(self):
        if self.mode == sc.EXACT:
            return sc.eye(self.dim, self.mode)
        return self._blockdiag([_kron(rho, rinv.T) for rho, (_, _, rinv)
                                in zip(self.space.density, self._powers)],
                               self.mode)

    @cached_property
    def jmat(self):
        if self.mode == sc.EXACT:
            return self.smat.copy()
        return self._blockdiag([_kron(rh, rhi.T)[:, s] for (rh, rhi, _), s
                                in zip(self._powers, self._swaps)], self.mode)

    def eta(self, x):
        """Coordinates of the element x in the matrix-unit basis."""
        return sc.array(np.concatenate([np.asarray(b).ravel() for b in x]),
                        self.mode)

    def from_eta(self, v):
        """The element whose matrix-unit coordinates are v."""
        dims = self.space.block_dims
        parts = np.split(sc.array(v, self.mode),
                         np.cumsum([d * d for d in dims])[:-1])
        return [p.reshape(d, d).copy() for p, d in zip(parts, dims)]

    def phi(self, x):
        return self.space.phi(x)


def _kron(a, b):
    # np.kron of two d x d blocks; np.kron's own per-call overhead is most
    # of the construction time at these sizes
    d = len(a)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d * d, d * d)


def gns_algebra(space):
    """GNS pseudo Hilbert algebra of (M, phi); see GnsAlgebra."""
    return GnsAlgebra(space)


# -- truncated Fock space --------------------------------------------------

class FockSpace:
    """Bookkeeping for the truncation C Omega + H + ... + H^{x L}."""

    def __init__(self, alg, L):
        if L > MAX_TRUNCATION:
            raise SizeLimitError("truncation %d exceeds the cap %d"
                                 % (L, MAX_TRUNCATION))
        if L < 0:
            raise DomainError("truncation must be >= 0")
        self.alg = alg
        self.dim = alg.dim
        self.gram = alg.gram
        self.L = int(L)
        self.mode = alg.mode
        self.degree_dims = [self.dim ** k for k in range(self.L + 1)]
        self.total_dim = sum(self.degree_dims)
        self.offsets = [0]
        for d in self.degree_dims[:-1]:
            self.offsets.append(self.offsets[-1] + d)
        self._gram_rows = None

    def check_dense_cap(self):
        """Dense matrices are capped; sparse vector work and norm() are not.

        matrix() allocates total_dim^2 entries.  norm() stays sparse and is
        bounded by the nonzero budget that it checks instead.
        """
        if self.total_dim ** 2 > 4 * 10 ** 6:
            raise DomainError("truncated space too large for dense "
                              "realization (total_dim^2 > 4e6)")

    def index(self, idx):
        k = len(idx)
        pos = 0
        for i in idx:
            pos = pos * self.dim + i
        return self.offsets[k] + pos

    def basis_tuples(self):
        for k in range(self.L + 1):
            for idx in product(range(self.dim), repeat=k):
                yield idx

    def vacuum(self):
        return FockVector(self, {(): sc.scalar_one(self.mode)})

    def vector_from_tensor(self, legs):
        """Elementary tensor xi_1 x ... x xi_k from coordinate vectors."""
        if len(legs) > self.L:
            raise TruncationError("tensor degree %d > L=%d" % (len(legs), self.L))
        vec = self.vacuum()
        for leg in reversed(legs):
            vec = creation(self, leg).apply(vec)
        return vec

    def inner(self, u, v):
        """Fock inner product of two sparse vectors.

        Each entry of u is expanded through the nonzeros of the Gram rows
        of its legs and looked up in v: a dict join for a diagonal Gram.
        Exact Gram rows are integers over their lcm D; a degree-k entry
        carries D^k, so it is raised by D^(L-k) to the common D^L.
        """
        if self._gram_rows is None:
            # column a of the transposed Gram lists the nonzeros of row a
            rows, den, _, _, _ = _decode(self, ("g", np.asarray(self.gram).T))
            self._gram_rows = rows, den
        rows, den = self._gram_rows
        raise_to = [den ** (self.L - k) for k in range(self.L + 1)]
        exact = self.mode == sc.EXACT
        total = 0 if exact else 0j
        vn = v._num
        for idx, cu in u._num.items():
            s = raise_to[len(idx)]
            c = cu.conjugate() if s == 1 else cu.conjugate() * s
            for jdx, x in _legwise(idx, c, rows).items():
                cv = vn.get(jdx)
                if cv is not None:
                    total = total + x * cv
        if exact:
            return Fraction(total, u._den * v._den * den ** self.L)
        return total


def _legwise(idx, c, cols):
    """One entry c at idx, expanded leg by leg: {jdx: c * x_1 ... x_k}.

    ``cols[a]`` lists the (b, x) pairs a leg index a expands into: the
    nonzeros of column a of a leg matrix, or of row a of the Gram.
    """
    partial = {(): c}
    for a in idx:
        partial = {key + (b,): v * x for key, v in partial.items()
                   for b, x in cols[a]}
    return partial


def _numerators(values, mode):
    """(numerators, D): exact values as integers over D, the lcm of their
    denominators; float values as they are, over D = 1."""
    if mode != sc.EXACT:
        return values, 1
    fracs = [sc.as_fraction(x) for x in values]
    den = math.lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs], den


class FockVector:
    """Sparse graded vector: {index tuple -> coefficient}.

    Stored as numerators over one denominator: an exact vector holds the
    integers ``_num[idx]`` over the positive integer ``_den``, in lowest
    terms; a float vector holds its coefficients over 1.  ``entries`` is
    the {index tuple: coefficient} mapping, with ``Fraction`` values in
    exact mode, formed on first read; treat it as read-only.
    """

    def __init__(self, fock, entries=None):
        entries = {} if entries is None else entries
        nums, den = _numerators(list(entries.values()), fock.mode)
        self._set(fock, dict(zip(entries, nums)), den)

    @classmethod
    def _of(cls, fock, num, den):
        """The vector num / den; exact ones are divided by their gcd."""
        vec = cls.__new__(cls)
        vec._set(fock, num, den)
        return vec

    def _set(self, fock, num, den):
        if fock.mode == sc.EXACT:
            g = math.gcd(den, *num.values())
            if g > 1:
                num, den = {k: v // g for k, v in num.items()}, den // g
        self.fock, self._num, self._den, self._entries = fock, num, den, None

    @property
    def entries(self):
        if self.fock.mode != sc.EXACT:
            return self._num
        if self._entries is None:
            self._entries = {k: Fraction(v, self._den)
                             for k, v in self._num.items()}
        return self._entries

    def _combine(self, other, sign):
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        out = dict(self._num) if a == 1 else {k: v * a for k, v in
                                              self._num.items()}
        for k, v in other._num.items():
            out[k] = out.get(k, 0) + b * v
        return FockVector._of(self.fock, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c):
        den = 1
        if self.fock.mode == sc.EXACT:
            c = sc.as_fraction(c)
            c, den = c.numerator, c.denominator
        return FockVector._of(self.fock, {k: c * v for k, v in
                                          self._num.items()}, self._den * den)

    def inner(self, other):
        return self.fock.inner(self, other)

    def norm(self):
        return float(abs(self.inner(self))) ** 0.5

    def vacuum_coefficient(self):
        c = self._num.get(())
        if c is None:
            return sc.scalar_zero(self.fock.mode)
        return Fraction(c, self._den) if self.fock.mode == sc.EXACT else c

    def dense(self):
        out = sc.zeros(self.fock.total_dim, self.fock.mode)
        for idx, c in self.entries.items():
            out[self.fock.index(idx)] = c
        return out

    def is_close(self, other, tol=1e-10):
        diff = self - other
        if self.fock.mode == sc.EXACT:
            return all(v == 0 for v in diff._num.values())
        return all(abs(v) <= tol for v in diff._num.values())


# -- elementary letters ----------------------------------------------------

class _Multiplier:
    """Gauge payload pi_l(v), or pi_r(v) when ``right``, held as v.

    The interpreter reads its nonzeros from the algebra's structure
    constants; numpy sees the dense matrix (``np.asarray``), which the
    float letter blocks and the gauge adjoint use.
    """

    def __init__(self, alg, v, right=False):
        self.alg, self.v, self.right = alg, v, right

    def nonzeros(self):
        return sorted(self.alg.multiplication(self.v, self.right).items())

    def __array__(self, dtype=None, copy=None):
        m = (self.alg.pi_r if self.right else self.alg.pi_l)(self.v)
        return m if dtype is None else m.astype(dtype)


def _letter_leg(fock, letter):
    """(leg, up, down, left): a letter takes ``down`` legs (0 or 1) off the
    left or right end of a tensor and puts back ``up`` legs: the column of
    ``leg`` (the payload column, its Gram row or the gauge matrix) that
    the taken leg indexes, or column 0 when none is taken."""
    kind, payload = letter
    if kind in ("c", "cr"):
        leg, up, down = np.asarray(payload).reshape(-1, 1), 1, 0
    elif kind in ("a", "ar"):
        leg, up, down = fock.alg.gram_row(payload).reshape(1, -1), 0, 1
    elif kind in ("g", "gr"):
        leg, up, down = payload, 1, 1
    else:
        raise DomainError("unknown letter kind %r" % kind)
    return leg, up, down, kind in ("c", "a", "g")


def _decode(fock, letter):
    """(cols, den, up, down, left): a letter as the interpreter runs it.

    ``cols[j]`` lists the (b, x) nonzeros of column j of the letter's leg
    (see _letter_leg), rows ascending; exact x are integers over the
    letter's ``den``, the lcm of the leg's nonzero denominators, and float
    ones are kept over 1.  A multiplication payload's nonzeros are read
    from the structure constants, any other leg's from its matrix.
    """
    leg, up, down, left = _letter_leg(fock, letter)
    if isinstance(leg, _Multiplier):
        nz = leg.nonzeros()
    else:
        nz = [((r, c), x) for r, row in enumerate(np.asarray(leg).tolist())
              for c, x in enumerate(row) if x]
    xs, den = _numerators([x for _, x in nz], fock.mode)
    cols = [[] for _ in range(fock.dim if down else 1)]
    for ((b, j), _), x in zip(nz, xs):
        cols[j].append((b, x))
    return cols, den, up, down, left


def _apply_letter(fock, letter, entries, mode_trunc):
    """One decoded letter on the numerators {index tuple: coefficient}.

    The image is over the input's denominator times the letter's.  An
    entry whose image would pass degree L raises OverflowError_ in strict
    mode, whatever the payload, and is dropped in projective mode.
    """
    cols, _, up, down, left = letter
    out = {}
    for idx, c in entries.items():
        k = len(idx)
        if k < down:
            continue
        if k + up - down > fock.L:
            if mode_trunc == STRICT:
                raise OverflowError_(
                    "creation past degree %d in strict mode" % fock.L)
            continue
        col = cols[(idx[0] if left else idx[-1]) if down else 0]
        rest = idx[down:] if left else idx[:k - down]
        for b, x in col:
            key = ((b,) + rest if left else rest + (b,)) if up else rest
            val = x * c
            if val:
                out[key] = out.get(key, 0) + val
    return out


def _adjoint_letter(fock, letter):
    kind, payload = letter
    flip = {"c": "a", "a": "c", "cr": "ar", "ar": "cr"}
    if kind in flip:
        return (flip[kind], payload)
    # gauge: adjoint w.r.t. the Gram inner product
    g = fock.gram
    adj = sc.solve_gram(g, sc.conj(np.asarray(payload)).T @ g, fock.mode)
    return (kind, adj)


def _letter_matrix(fock, letter):
    """One letter as a CSR matrix on the truncated space.

    A left letter is kron(leg, I) and a right letter kron(I, leg) in each
    degree (see _letter_leg).  Legs past degree L are dropped, as in
    projective application.  The CSR is written in sorted order straight
    from the index arithmetic.
    """
    import scipy.sparse as sp
    leg, up, down, left = _letter_leg(fock, letter)
    leg = sc.to_float_array(leg)
    m, n = leg.shape
    r, c = np.nonzero(leg)      # row-major, so columns ascend in each row
    vals = leg[r, c]
    counts = np.bincount(r, minlength=m)
    starts = np.cumsum(counts) - counts
    # output row j, counted from offsets[up], puts leg row i[j] beside
    # basis vector rest[j] of degree k[j] (of s[j]) of the untouched legs
    top = fock.L - max(up, down)
    offs = np.append(fock.offsets, fock.total_dim)
    dims = np.asarray(fock.degree_dims)
    k = np.repeat(np.arange(top + 1), m * dims[:top + 1])
    j, s = np.arange(k.size) - m * offs[k], dims[k]
    i, rest = (j // s, j % s) if left else (j % m, j // m)
    row_nnz = np.zeros(fock.total_dim, dtype=np.int64)
    row_nnz[offs[up]:offs[up] + k.size] = counts[i]
    indptr = np.concatenate(([0], np.cumsum(row_nnz)))
    # a row holds its leg row's nonzeros e, in order
    row = np.repeat(np.arange(k.size), counts[i])
    e = starts[i[row]] + np.arange(row.size) - indptr[offs[up] + row]
    cols = offs[k + down][row] + (c[e] * s[row] + rest[row] if left
                                  else rest[row] * n + c[e])
    # 32-bit indices where they fit, as scipy would otherwise copy them down
    itype = np.int32 if max(fock.total_dim, e.size) < 2 ** 31 else np.int64
    return sp.csr_matrix((vals[e], cols.astype(itype), indptr.astype(itype)),
                         shape=(fock.total_dim, fock.total_dim))


# -- operators ---------------------------------------------------------------

class FockOperator:
    """Formal sum of words in elementary letters, on one truncated space.

    ``terms`` is a list of (coefficient, letters) where letters form the
    word applied right-to-left.  The empty word is the identity.
    """

    def __init__(self, fock, terms, mode=STRICT):
        if mode not in (STRICT, PROJECTIVE):
            raise DomainError("mode must be strict or projective")
        self.fock = fock
        self.terms = [(c, tuple(ls)) for c, ls in terms]
        self.mode = mode
        self._letters = {}      # (kind, id(payload)) -> _decode(letter)

    # algebra of operators
    def __add__(self, other):
        other = self._coerce(other)
        return FockOperator(self.fock, self.terms + other.terms, self.mode)

    def __sub__(self, other):
        other = self._coerce(other)
        neg = [(-c, ls) for c, ls in other.terms]
        return FockOperator(self.fock, self.terms + neg, self.mode)

    def __mul__(self, other):
        if not isinstance(other, FockOperator):
            return self.scale(other)
        self._check_same_fock(other)
        terms = [(ca * cb, la + lb)
                 for ca, la in self.terms for cb, lb in other.terms]
        return FockOperator(self.fock, terms, self.mode)

    def __matmul__(self, other):
        return self.__mul__(other)

    def __rmul__(self, c):
        return self.scale(c)

    def scale(self, c):
        return FockOperator(self.fock, [(c * cc, ls) for cc, ls in self.terms],
                            self.mode)

    def _coerce(self, other):
        if isinstance(other, FockOperator):
            return self._check_same_fock(other)
        return identity(self.fock, self.mode).scale(other)

    def _check_same_fock(self, other):
        if other.fock is not self.fock:
            raise ShapeError("operators on different Fock spaces")
        return other

    def with_mode(self, mode):
        op = FockOperator(self.fock, self.terms, mode)
        op._letters = self._letters
        return op

    def adjoint(self):
        terms = []
        for c, ls in self.terms:
            adj = tuple(_adjoint_letter(self.fock, l) for l in reversed(ls))
            terms.append((np.conjugate(c), adj))
        return FockOperator(self.fock, terms, self.mode)

    # action
    def apply(self, vec):
        if vec.fock is not self.fock:
            raise ShapeError("vector lives on a different Fock space")
        exact = self.fock.mode == sc.EXACT
        images, den = [], 1
        for c, letters in self.terms:
            ent, d = vec._num, vec._den
            for letter in reversed(letters):
                key = (letter[0], id(letter[1]))
                dec = self._letters.get(key)
                if dec is None:
                    dec = self._letters[key] = _decode(self.fock, letter)
                ent = _apply_letter(self.fock, dec, ent, self.mode)
                d *= dec[1]
                if not ent:
                    break
            if ent:
                if exact:
                    c = sc.as_fraction(c)
                    c, d = c.numerator, d * c.denominator
                images.append((c, ent, d))
                den = math.lcm(den, d)
        # each term's image over the lcm of the terms' denominators
        out = {}
        for c, ent, d in images:
            m = c if d == den else c * (den // d)
            for k, v in ent.items():
                val = m * v
                if val:
                    out[k] = out.get(k, 0) + val
        return FockVector._of(self.fock, {k: v for k, v in out.items() if v},
                              den)

    def sparse(self):
        """Sum of c * (L_1 @ ... @ L_n) over the terms, as CSR.

        Float, and projective like matrix().  Each distinct letter is
        built once per call.  The words are walked in sorted order as a
        prefix trie, so a prefix shared by several words is multiplied
        once and only the current path's products are held; the scaled
        words are summed by one COO build.
        """
        import scipy.sparse as sp
        f = self.fock
        blocks = {}
        keyed = sorted(
            (tuple((kind, id(payload)) for kind, payload in letters), i)
            for i, (_, letters) in enumerate(self.terms))
        path, stack = (), []    # stack[j] = L_1 @ ... @ L_{j+1}
        rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        data = [np.zeros(0, dtype=complex)]
        for keys, i in keyed:
            c, letters = self.terms[i]
            same = 0
            for a, b in zip(path, keys):
                if a != b:
                    break
                same += 1
            del stack[same:]
            for key, letter in zip(keys[same:], letters[same:]):
                if key not in blocks:
                    blocks[key] = _letter_matrix(f, letter)
                stack.append(stack[-1] @ blocks[key] if stack else blocks[key])
            path = keys
            word = stack[-1] if stack else sp.identity(
                f.total_dim, dtype=complex, format="csr")
            coo = word.tocoo()
            rows.append(coo.row)
            cols.append(coo.col)
            data.append(complex(c) * coo.data)
        return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows),
                                                     np.concatenate(cols))),
                             shape=(f.total_dim, f.total_dim))

    def matrix(self):
        """Dense matrix in the graded canonical basis (float, projective).

        sparse() densified under the dense cap.  Exact operators have no
        matrix: compare them with is_close, which interprets only the
        columns it compares.
        """
        f = self.fock
        if f.mode == sc.EXACT:
            raise DomainError("exact operators have no dense matrix; "
                              "compare them with is_close")
        f.check_dense_cap()
        return self.sparse().toarray()

    def norm(self):
        """Operator norm w.r.t. the Fock inner product (float).

        The largest singular value of F(G^{1/2}) A F(G^{-1/2}): the terms
        transported letter by letter by (G^{1/2}, G^{-1/2}) onto the Fock
        space of a trivial algebra (see transport), formed as CSR and
        never densified past DENSE_NORM_DIM: ARPACK (scipy's svds,
        k=1) from a fixed random start vector, since an all-ones start
        can lie in the kernel of these symmetric operators.  Repeated
        calls return the same float, except that with a degenerate top
        singular value ARPACK's last few ulps can depend on where its
        work arrays land in memory.  Below DENSE_NORM_DIM dimensions, where
        ARPACK is slower and rejects the smallest shapes, a dense SVD is
        taken instead.  Either runs in real arithmetic when the twisted
        matrix has no imaginary part.  Raises DomainError, before any CSR
        is built, when the largest letter block (a full gauge leg, dim^2
        nonzeros in each degree below L) would hold more than MAX_NORM_NNZ
        nonzeros; the word products are not bounded.
        """
        f = self.fock
        nnz = f.dim ** 2 * (f.total_dim - f.degree_dims[-1])
        if nnz > MAX_NORM_NNZ:
            raise DomainError("truncated space too large for norm(): "
                              "%d nonzeros > %d" % (nnz, MAX_NORM_NNZ))
        g = sc.to_float_array(f.gram)
        ev, vec = np.linalg.eigh(0.5 * (g + g.conj().T))
        gh = (vec * np.sqrt(np.clip(ev, 0, None))) @ vec.conj().T
        ghi = (vec / np.sqrt(np.clip(ev, 1e-300, None))) @ vec.conj().T
        twisted = transport(self.terms, f.L, gh, ghi).sparse()
        scale = float(np.abs(twisted.data).max(initial=0.0))
        if scale == 0.0:
            return 0.0
        # Scaled to a largest entry of 1, with entries below 1e-150 dropped,
        # so that ARPACK's A* A cannot underflow.  The dropped part moves
        # the norm by far less than an ulp, since the largest entry bounds
        # the norm from below.  The parts are divided apart, as complex
        # division by a subnormal overflows.
        re, im = twisted.data.real / scale, twisted.data.imag / scale
        re[np.abs(re) < 1e-150] = 0.0
        im[np.abs(im) < 1e-150] = 0.0
        twisted.data = re + 1j * im if im.any() else re
        n = min(twisted.shape)
        if n < DENSE_NORM_DIM:
            return scale * float(np.linalg.norm(twisted.toarray(), 2))
        from scipy.sparse.linalg import ArpackError, svds
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            top = svds(twisted, k=1, v0=v0, return_singular_vectors=False)
        except ArpackError:
            # no shift applies at a very degenerate top: widen the Krylov space
            top = svds(twisted, k=1, v0=v0, ncv=min(n, 60),
                       return_singular_vectors=False)
        return scale * float(top[0])

    def is_close(self, other, tol=1e-10, max_input_degree=None):
        """Equality as projective matrices on the truncated space.

        ``max_input_degree`` restricts the compared columns: products of
        operators are only faithful to the untruncated composite on inputs
        low enough that no intermediate leg overflows the truncation.
        Exact operators are applied to each compared basis vector and the
        images must agree exactly; float ones compare the column slice of
        sparse() - other.sparse() entrywise within ``tol``.  Both are
        refused past the dense cap, like matrix().
        """
        f = self.fock
        self._check_same_fock(other)
        f.check_dense_cap()
        top = f.L if max_input_degree is None else max_input_degree
        if f.mode == sc.EXACT:
            a, b = self.with_mode(PROJECTIVE), other.with_mode(PROJECTIVE)
            for idx in f.basis_tuples():
                if len(idx) > top:
                    break
                e = FockVector._of(f, {idx: 1}, 1)
                if not a.apply(e).is_close(b.apply(e)):
                    return False
            return True
        d = (self.sparse() - other.sparse())[:, :f.offsets[top]
                                             + f.degree_dims[top]]
        return float(np.abs(d.data).max(initial=0.0)) <= tol


def transport(terms, L, left, right):
    """The terms with each letter moved by the pair (left, right), as a
    projective operator on FockSpace(trivial_algebra(len(left)), L).

    ``right`` is the adjoint A* of A = ``left`` from the terms' inner
    product to the plain one: (G^{1/2}, G^{-1/2}) in norm(), (p_N, p_N*)
    in second quantization.  Creation and annihilation payloads u become
    A u, gauge payloads T become A T A*: F(A) c(u) = c(Au) F(A),
    a(v) F(A)* = F(A)* a(Av) and F(A) Lambda(T) F(A)* = Lambda(A T A*).
    Each distinct letter is moved once, so sparse() still shares word
    prefixes and letter blocks.
    """
    moved = {}
    out = []
    for c, letters in terms:
        word = []
        for kind, payload in letters:
            key = (kind, id(payload))
            if key not in moved:
                m = left @ sc.to_float_array(payload)
                moved[key] = (kind, m @ right if kind in ("g", "gr") else m)
            word.append(moved[key])
        out.append((c, tuple(word)))
    return FockOperator(FockSpace(trivial_algebra(len(left)), L), out,
                        PROJECTIVE)


def identity(fock, mode=STRICT):
    return FockOperator(fock, [(sc.scalar_one(fock.mode), ())], mode)


def creation(fock, xi, mode=STRICT):
    return FockOperator(fock, [(sc.scalar_one(fock.mode), (("c", xi),))], mode)


def annihilation(fock, xi, mode=STRICT):
    """l*(xi): contracts the first leg against xi."""
    return FockOperator(fock, [(sc.scalar_one(fock.mode), (("a", xi),))], mode)


def gauge(fock, t, mode=STRICT):
    t = sc.array(t, fock.mode)
    return FockOperator(fock, [(sc.scalar_one(fock.mode), (("g", t),))], mode)


def field_X(fock, xi, mode=STRICT):
    """X(xi) = l(xi) + l*(S xi) + Lambda(pi_l(xi))."""
    alg = fock.alg
    xi = alg.vector(xi) if not isinstance(xi, np.ndarray) else xi
    one = sc.scalar_one(fock.mode)
    return FockOperator(fock, [
        (one, (("c", xi),)),
        (one, (("a", alg.s_apply(xi)),)),
        (one, (("g", _Multiplier(alg, xi)),)),
    ], mode)


def field_Y(fock, x, mode=STRICT):
    """Y(x) = X(eta(x)) + phi(x) for an element of the underlying space."""
    alg = fock.alg
    if not isinstance(alg, GnsAlgebra):
        raise DomainError("field_Y needs a GNS algebra built from a space")
    xi = alg.eta(x)
    return field_X(fock, xi, mode) + identity(fock, mode).scale(alg.phi(x))


def vacuum_moment(ops):
    """<Omega, op_1 ... op_k Omega>; exact when nothing overflows.

    All operators must share one Fock space whose truncation is at least
    the word length (each letter moves degree by at most one, so strict
    application then never overflows).  The empty word is the identity.
    """
    if not ops:
        return 1
    fock = ops[0].fock
    vec = fock.vacuum()
    for op in reversed(ops):
        if op.fock is not fock:
            raise ShapeError("operators on different Fock spaces")
        vec = op.apply(vec)
    return vec.vacuum_coefficient()


# -- Wick products -----------------------------------------------------------

def wick_words(ups, downs, gauges):
    """Letter words of the closed splitting sum for Psi(xi_1 x ... x xi_n).

    ``ups``, ``downs`` and ``gauges`` hold each leg's creation,
    annihilation and gauge payload.  For s = 0..n the words are
    ups[:s] downs[s:] and, for s < n, ups[:s] gauges[s] downs[s+1:]:
    creations left, at most one gauge letter in the middle and
    annihilations right.  No legs give the empty word.
    """
    n = len(ups)
    words = [tuple(("c", u) for u in ups[:s]) +
             tuple(("a", v) for v in downs[s:]) for s in range(n + 1)]
    words += [tuple(("c", u) for u in ups[:s]) + (("g", gauges[s]),) +
              tuple(("a", v) for v in downs[s + 1:]) for s in range(n)]
    return words


def wick(fock, legs, mode=STRICT):
    """The Wick operator Psi(xi_1 x ... x xi_n) by the closed splitting sum.

    Every word puts creations left, at most one gauge letter in the middle
    and annihilations right, so Psi(legs) Omega = legs and intermediate
    degrees never exceed max(input, output) degree.
    """
    alg = fock.alg
    legs = [alg.vector(x) if not isinstance(x, np.ndarray) else x for x in legs]
    one = sc.scalar_one(fock.mode)
    words = wick_words(legs, [alg.s_apply(x) for x in legs],
                       [_Multiplier(alg, x) for x in legs])
    return FockOperator(fock, [(one, w) for w in words], mode)


def wick_multiply(alg, left, right):
    """Product expansion Psi(left) Psi(right) as a sum of Wick tensors.

    Returns a list of (coefficient, tuple-of-leg-vectors); the empty tuple
    denotes the identity.  Contractions pair the last legs of ``left``
    against the first legs of ``right``; the extra family merges one
    algebra product in the middle.
    """
    left = [alg.vector(x) if not isinstance(x, np.ndarray) else x for x in left]
    right = [alg.vector(x) if not isinstance(x, np.ndarray) else x
             for x in right]
    n, m = len(left), len(right)
    out = []
    coef = sc.scalar_one(alg.mode)
    for k in range(min(n, m) + 1):
        if k > 0:
            coef = coef * alg.inner(alg.s_apply(left[n - k]), right[k - 1])
            if coef == 0:
                break
        tensor = tuple(left[:n - k]) + tuple(right[k:])
        out.append((coef, tensor))
        if k < min(n, m):
            merged = alg.multiply(left[n - k - 1], right[k])
            tensor2 = tuple(left[:n - k - 1]) + (merged,) + tuple(right[k + 1:])
            out.append((coef, tensor2))
    return [(c, t) for c, t in out if c != 0]


def wick_sum_operator(fock, terms, mode=STRICT):
    """Realize a list of (coefficient, legs) as a sum of Wick operators."""
    out = None
    for c, legs in terms:
        op = wick(fock, list(legs), mode).scale(c)
        out = op if out is None else out + op
    return out if out is not None else identity(fock, mode).scale(0)


# -- modular structure -------------------------------------------------------

class GradedMap:
    """Degree-wise map F(A): legwise matrix action, optional leg reversal
    and optional conjugation (antilinear maps)."""

    def __init__(self, fock, leg_matrix, reverse=False, antilinear=False):
        self.fock = fock
        self.leg_matrix = leg_matrix
        self.reverse = reverse
        self.antilinear = antilinear

    def apply(self, vec):
        """Exact legs are integers over their lcm D; a degree-k entry
        carries D^k and is raised by D^(L-k) to the common D^L."""
        f = self.fock
        cols, den, _, _, _ = _decode(f, ("g", self.leg_matrix))
        raise_to = [den ** (f.L - k) for k in range(f.L + 1)]
        out = {}
        for idx, c in vec._num.items():
            if self.antilinear:
                c = c.conjugate()
            s = raise_to[len(idx)]
            if s != 1:
                c = c * s
            src = idx[::-1] if self.reverse else idx
            for key, v in _legwise(src, c, cols).items():
                if v:
                    out[key] = out.get(key, 0) + v
        return FockVector._of(f, {k: v for k, v in out.items() if v},
                              vec._den * den ** f.L)


def modular_ops(fock):
    """(S_Omega, J_Omega, Delta_Omega) of the vacuum state.

    S_Omega reverses legs and applies S; Delta_Omega acts legwise by Delta;
    J_Omega reverses legs and applies J.
    """
    alg = fock.alg
    delta = alg.delta if alg.delta is not None else sc.eye(alg.dim, alg.mode)
    jm = alg.jmat if alg.jmat is not None else alg.smat
    s_om = GradedMap(fock, alg.smat, reverse=True, antilinear=True)
    j_om = GradedMap(fock, jm, reverse=True, antilinear=True)
    d_om = GradedMap(fock, delta, reverse=False, antilinear=False)
    return s_om, j_om, d_om


# -- right fields ------------------------------------------------------------

def right_field(fock, eta, mode=STRICT):
    """X_r(eta) = right creation + annihilation + preservation.

    Only available over tracial algebras; the non-tracial right version
    needs S* and right-bounded vectors and is deliberately not emulated.
    """
    alg = fock.alg
    if not alg.is_tracial():
        raise NotTracialError("right fields require a tracial algebra")
    eta = alg.vector(eta) if not isinstance(eta, np.ndarray) else eta
    one = sc.scalar_one(fock.mode)
    return FockOperator(fock, [
        (one, (("cr", eta),)),
        (one, (("ar", alg.s_apply(eta)),)),
        (one, (("gr", _Multiplier(alg, eta, right=True)),)),
    ], mode)


# -- Wick embedding of tensor powers (finite weight) --------------------------

def wick_embedding_In(fock, factors):
    """I_n(x_1 x ... x x_n) = Psi(x_1 xi x ... x x_n xi), xi = eta(1).

    ``factors`` is a list of elements of the underlying space (a single
    elementary tensor).  Returns (operator, operator_norm).
    """
    alg = fock.alg
    if not isinstance(alg, GnsAlgebra):
        raise DomainError("wick embedding needs a GNS algebra")
    if alg.unit is None:
        raise DomainError("weight is not finite / algebra has no unit")
    n = len(factors)
    if n > 4:
        raise DomainError("embedding order capped at 4")
    legs = [alg.eta(x) for x in factors]
    legs = [alg.pi_l(leg) @ alg.unit for leg in legs]
    op = wick(fock, legs, PROJECTIVE)
    return op, op.norm()


def haagerup_bound(space, n):
    """(n+1) phi(1)^{n/2} + n phi(1)^{(n-1)/2}: the cb-norm bound for I_n."""
    w = float(abs(space.total_weight()))
    return (n + 1) * w ** (n / 2.0) + n * w ** ((n - 1) / 2.0)
