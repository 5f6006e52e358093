"""Truncated full Fock space over a finite-dimensional pseudo left Hilbert
algebra: creation/annihilation/preservation operators, the centered and
uncentered random-weight fields X and Y, Wick products, vacuum moments,
graded modular maps, right fields, and the finite-weight Wick embedding.

Vectors are stored sparsely as {index-tuple: coefficient}; a tuple of
length k addresses the elementary tensor e_{i1} x ... x e_{ik} in degree k.
Operators are formal sums of words in the six elementary letters (left and
right creation / annihilation / gauge), so application to a vector is exact
in rational mode and overflow past the truncation can be detected letter by
letter ("strict" mode) or silently projected away ("projective" mode).
"""

import numpy as np

from . import _scalars as sc
from .algebra import PseudoHilbertAlgebra
from .errors import (DomainError, NotTracialError, OverflowError_,
                     ShapeError, TruncationError, ValidationError)

STRICT = "strict"
PROJECTIVE = "projective"


# -- GNS construction ------------------------------------------------------

class GnsAlgebra(PseudoHilbertAlgebra):
    """The left Hilbert algebra of a block-diagonal space (M, phi).

    Basis vectors are matrix units; inner product <eta(x), eta(y)> =
    trace(rho x* y); involution eta(x) -> eta(x*); modular data
    Delta eta(x) = eta(rho x rho^{-1}) and J = S Delta^{-1/2}.
    """

    def __init__(self, space):
        self.space = space
        mode = space.mode
        units = []          # (block, i, j)
        for b, d in enumerate(space.block_dims):
            for i in range(d):
                for j in range(d):
                    units.append((b, i, j))
        self.units = units
        dim = len(units)
        pos = {u: k for k, u in enumerate(units)}

        gram = sc.zeros((dim, dim), mode)
        for a, (b1, i, j) in enumerate(units):
            for c, (b2, k, l) in enumerate(units):
                if b1 == b2 and i == k:
                    gram[a, c] = space.density[b1][l, j]

        smat = sc.zeros((dim, dim), mode)
        for a, (b, i, j) in enumerate(units):
            smat[pos[(b, j, i)], a] = sc.scalar_one(mode)

        lmul = []
        for (b, i, j) in units:
            m = sc.zeros((dim, dim), mode)
            d = space.block_dims[b]
            for l in range(d):
                m[pos[(b, i, l)], pos[(b, j, l)]] = sc.scalar_one(mode)
            lmul.append(m)

        unit = sc.zeros(dim, mode)
        for b, d in enumerate(space.block_dims):
            for i in range(d):
                unit[pos[(b, i, i)]] = sc.scalar_one(mode)

        super().__init__(gram=gram, smat=smat, lmul=lmul, unit=unit, mode=mode)

        if mode == sc.EXACT:
            # diagonal rational densities commute: trivial modular structure
            self.delta = sc.eye(dim, mode)
            self.jmat = smat.copy()
        else:
            self.delta = sc.zeros((dim, dim), mode)
            self.jmat = sc.zeros((dim, dim), mode)
            for b, d in enumerate(space.block_dims):
                rho = sc.to_float_array(space.density[b])
                ev, vec = np.linalg.eigh(0.5 * (rho + rho.conj().T))
                if ev.min() <= 0:
                    raise ValidationError("density not faithful")
                rh = (vec * np.sqrt(ev)) @ vec.conj().T
                rhi = (vec / np.sqrt(ev)) @ vec.conj().T
                rinv = (vec / ev) @ vec.conj().T
                for i in range(d):
                    for j in range(d):
                        u = np.zeros((d, d), dtype=complex)
                        u[i, j] = 1.0
                        dm = rho @ u @ rinv
                        jm = rh @ u.conj().T @ rhi
                        for k in range(d):
                            for l in range(d):
                                col = pos[(b, i, j)]
                                self.delta[pos[(b, k, l)], col] = dm[k, l]
                                self.jmat[pos[(b, k, l)], col] = jm[k, l]

    def eta(self, x):
        """Coordinates of the element x in the matrix-unit basis."""
        v = sc.zeros(self.dim, self.mode)
        for a, (b, i, j) in enumerate(self.units):
            v[a] = x[b][i, j]
        return v

    def from_eta(self, v):
        blocks = [sc.zeros((d, d), self.mode) for d in self.space.block_dims]
        for a, (b, i, j) in enumerate(self.units):
            blocks[b][i, j] = v[a]
        return blocks

    def phi(self, x):
        return self.space.phi(x)


def gns_algebra(space):
    """GNS pseudo Hilbert algebra of (M, phi); see GnsAlgebra."""
    return GnsAlgebra(space)


# -- truncated Fock space --------------------------------------------------

class FockSpace:
    """Bookkeeping for the truncation C Omega + H + ... + H^{x L}."""

    def __init__(self, alg, L, mode=None):
        if L < 0:
            raise DomainError("truncation must be >= 0")
        self.alg = alg
        self.dim = alg.dim
        self.gram = alg.gram
        self.L = int(L)
        self.mode = alg.mode if mode is None else mode
        self.degree_dims = [self.dim ** k for k in range(self.L + 1)]
        self.total_dim = sum(self.degree_dims)
        self.offsets = [0]
        for d in self.degree_dims[:-1]:
            self.offsets.append(self.offsets[-1] + d)
        self._gram_half = None

    def check_dense_cap(self):
        """Dense realizations are capped; sparse vector work is not.

        matrix() and gram_half() allocate total_dim^2 entries each.
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
        from itertools import product as iproduct
        for k in range(self.L + 1):
            for idx in iproduct(range(self.dim), repeat=k):
                yield idx

    def vacuum(self):
        return FockVector(self, {(): sc.scalar_one(self.mode)})

    def vector_from_tensor(self, legs):
        """Elementary tensor xi_1 x ... x xi_k from coordinate vectors."""
        if len(legs) > self.L:
            raise TruncationError("tensor degree %d > L=%d" % (len(legs), self.L))
        ent = {(): sc.scalar_one(self.mode)}
        for leg in reversed(legs):
            new = {}
            for idx, c in ent.items():
                for a in range(self.dim):
                    if leg[a] != 0:
                        key = (a,) + idx
                        new[key] = new.get(key, 0) + leg[a] * c
            ent = new
        return FockVector(self, ent)

    def gram_leg_row(self, v):
        """Row vector w with w[i] = <v, e_i> (for annihilation letters)."""
        return self.alg.gram_row(v)

    def inner(self, u, v):
        """Fock inner product of two sparse vectors.

        Each entry of u is expanded through the nonzeros of the Gram rows
        of its legs and looked up in v: a dict join for a diagonal Gram.
        """
        rows = self.alg.gram_rows
        total = sc.scalar_zero(self.mode)
        for idx, cu in u.entries.items():
            partial = {(): np.conjugate(cu)}
            for a in idx:
                partial = {key + (b,): c * g for key, c in partial.items()
                           for b, g in rows[a]}
            for jdx, c in partial.items():
                cv = v.entries.get(jdx)
                if cv is not None:
                    total = total + c * cv
        return total

    def gram_half(self):
        """Blockdiag (G^{1/2})^{x k}, for operator norms (float only)."""
        if self._gram_half is None:
            self.check_dense_cap()
            g = sc.to_float_array(self.gram)
            ev, vec = np.linalg.eigh(0.5 * (g + g.conj().T))
            gh = (vec * np.sqrt(np.clip(ev, 0, None))) @ vec.conj().T
            ghi = (vec / np.sqrt(np.clip(ev, 1e-300, None))) @ vec.conj().T
            half = np.zeros((self.total_dim, self.total_dim), dtype=complex)
            halfinv = np.zeros_like(half)
            half[0, 0] = 1.0
            halfinv[0, 0] = 1.0
            blk = np.array([[1.0]], dtype=complex)
            blki = np.array([[1.0]], dtype=complex)
            for k in range(1, self.L + 1):
                blk = np.kron(blk, gh)
                blki = np.kron(blki, ghi)
                o = self.offsets[k]
                half[o:o + blk.shape[0], o:o + blk.shape[0]] = blk
                halfinv[o:o + blk.shape[0], o:o + blk.shape[0]] = blki
            self._gram_half = (half, halfinv)
        return self._gram_half


class FockVector:
    """Sparse graded vector: {index tuple -> coefficient}."""

    def __init__(self, fock, entries=None):
        self.fock = fock
        self.entries = {} if entries is None else dict(entries)

    def copy(self):
        return FockVector(self.fock, self.entries)

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return FockVector(self.fock, out)

    def __sub__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) - v
        return FockVector(self.fock, out)

    def scale(self, c):
        return FockVector(self.fock, {k: c * v for k, v in self.entries.items()})

    def prune(self, tol=0.0):
        if tol == 0.0:
            ent = {k: v for k, v in self.entries.items() if v != 0}
        else:
            ent = {k: v for k, v in self.entries.items() if abs(v) > tol}
        return FockVector(self.fock, ent)

    def degree_components(self):
        out = {}
        for idx, c in self.entries.items():
            out.setdefault(len(idx), {})[idx] = c
        return out

    def inner(self, other):
        return self.fock.inner(self, other)

    def norm(self):
        return float(abs(self.inner(self))) ** 0.5

    def vacuum_coefficient(self):
        return self.entries.get((), sc.scalar_zero(self.fock.mode))

    def dense(self):
        out = sc.zeros(self.fock.total_dim, self.fock.mode)
        for idx, c in self.entries.items():
            out[self.fock.index(idx)] = c
        return out

    def is_close(self, other, tol=1e-10):
        diff = self - other
        if self.fock.mode == sc.EXACT:
            return all(v == 0 for v in diff.entries.values())
        return all(abs(v) <= tol for v in diff.entries.values())


# -- elementary letters ----------------------------------------------------

def _apply_letter(fock, letter, entries, mode_trunc):
    kind, payload = letter
    dim = fock.dim
    L = fock.L
    out = {}

    def put(key, val):
        if val == 0:
            return
        out[key] = out.get(key, 0) + val

    if kind in ("c", "cr"):
        v = payload
        for idx, c in entries.items():
            if len(idx) == L:
                if mode_trunc == STRICT:
                    raise OverflowError_(
                        "creation past degree %d in strict mode" % L)
                continue
            for a in range(dim):
                if v[a] != 0:
                    key = (a,) + idx if kind == "c" else idx + (a,)
                    put(key, v[a] * c)
    elif kind in ("a", "ar"):
        row = fock.gram_leg_row(payload)
        for idx, c in entries.items():
            if not idx:
                continue
            leg = idx[0] if kind == "a" else idx[-1]
            w = row[leg]
            if w != 0:
                key = idx[1:] if kind == "a" else idx[:-1]
                put(key, w * c)
    elif kind in ("g", "gr"):
        t = payload
        for idx, c in entries.items():
            if not idx:
                continue
            leg = idx[0] if kind == "g" else idx[-1]
            for b in range(dim):
                if t[b, leg] != 0:
                    key = (b,) + idx[1:] if kind == "g" else idx[:-1] + (b,)
                    put(key, t[b, leg] * c)
    else:
        raise DomainError("unknown letter kind %r" % kind)
    return out


def _adjoint_letter(fock, letter):
    kind, payload = letter
    flip = {"c": "a", "a": "c", "cr": "ar", "ar": "cr"}
    if kind in flip:
        return (flip[kind], payload)
    # gauge: adjoint w.r.t. the Gram inner product
    g = fock.gram
    if fock.mode == sc.EXACT:
        th = sc.conj(payload).T
        cols = [sc.solve_gram(g, (th @ g)[:, j], fock.mode)
                for j in range(fock.dim)]
        adj = sc.zeros((fock.dim, fock.dim), fock.mode)
        for j, col in enumerate(cols):
            for i in range(fock.dim):
                adj[i, j] = col[i]
    else:
        gf = sc.to_float_array(g)
        adj = np.linalg.solve(gf, sc.to_float_array(payload).conj().T @ gf)
    return (kind, adj)


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
        self._matrix = None

    # algebra of operators
    def __add__(self, other):
        other = self._coerce(other)
        return FockOperator(self.fock, self.terms + other.terms, self.mode)

    def __sub__(self, other):
        other = self._coerce(other)
        neg = [(-c, ls) for c, ls in other.terms]
        return FockOperator(self.fock, self.terms + neg, self.mode)

    def __mul__(self, other):
        if np.isscalar(other) or isinstance(other, (int, float, complex)) \
                or not isinstance(other, FockOperator):
            return self.scale(other)
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
            return other
        return identity(self.fock, self.mode).scale(other)

    def with_mode(self, mode):
        return FockOperator(self.fock, self.terms, mode)

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
        out = {}
        for c, letters in self.terms:
            ent = vec.entries
            for letter in reversed(letters):
                ent = _apply_letter(self.fock, letter, ent, self.mode)
                if not ent:
                    break
            for k, v in ent.items():
                val = c * v
                if val != 0:
                    out[k] = out.get(k, 0) + val
        return FockVector(self.fock, out).prune()

    def matrix(self):
        """Dense matrix in the graded canonical basis (cached)."""
        if self._matrix is None:
            f = self.fock
            f.check_dense_cap()
            m = sc.zeros((f.total_dim, f.total_dim), f.mode)
            for idx in f.basis_tuples():
                col = self.with_mode(PROJECTIVE).apply(
                    FockVector(f, {idx: sc.scalar_one(f.mode)}))
                j = f.index(idx)
                for key, v in col.entries.items():
                    m[f.index(key), j] = v
            self._matrix = m
        return self._matrix

    def norm(self):
        """Operator norm w.r.t. the Fock inner product (float mode)."""
        half, halfinv = self.fock.gram_half()
        a = sc.to_float_array(self.matrix())
        return float(np.linalg.norm(half @ a @ halfinv, 2))

    def is_close(self, other, tol=1e-10, max_input_degree=None):
        """Equality as matrices on the truncated space.

        ``max_input_degree`` restricts the compared columns: products of
        operators are only faithful to the untruncated composite on inputs
        low enough that no intermediate leg overflows the truncation.
        """
        f = self.fock
        d = self.matrix() - other.matrix()
        if max_input_degree is not None:
            cols = f.offsets[max_input_degree] + f.degree_dims[max_input_degree]
            d = d[:, :cols]
        if f.mode == sc.EXACT:
            return all(x == 0 for x in d.reshape(-1))
        return float(np.abs(sc.to_float_array(d)).max()) <= tol


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
        (one, (("g", alg.pi_l(xi)),)),
    ], mode)


def field_Y(fock, x, mode=STRICT):
    """Y(x) = X(eta(x)) + phi(x) for an element of the underlying space."""
    alg = fock.alg
    if not isinstance(alg, GnsAlgebra):
        raise DomainError("field_Y needs a GNS algebra built from a space")
    xi = alg.eta(x)
    return field_X(fock, xi, mode) + identity(fock, mode).scale(alg.phi(x))


def vacuum_moment(ops, L=None):
    """<Omega, op_1 ... op_k Omega>; exact when nothing overflows.

    All operators must share one Fock space whose truncation is at least
    the word length (each letter moves degree by at most one, so strict
    application then never overflows).  The empty word is the identity.
    """
    if not ops:
        return 1
    fock = ops[0].fock
    if L is not None and fock.L < L:
        raise TruncationError("fock truncation %d < requested L=%d"
                              % (fock.L, L))
    vec = fock.vacuum()
    for op in reversed(ops):
        if op.fock is not fock:
            raise ShapeError("operators on different Fock spaces")
        vec = op.apply(vec)
    return vec.vacuum_coefficient()


# -- Wick products -----------------------------------------------------------

def wick(fock, legs, mode=STRICT):
    """The Wick operator Psi(xi_1 x ... x xi_n) by the closed splitting sum.

    Every word puts creations left, at most one gauge letter in the middle
    and annihilations right, so Psi(legs) Omega = legs and intermediate
    degrees never exceed max(input, output) degree.
    """
    alg = fock.alg
    legs = [alg.vector(x) if not isinstance(x, np.ndarray) else x for x in legs]
    n = len(legs)
    one = sc.scalar_one(fock.mode)
    if n == 0:
        return identity(fock, mode)
    terms = []
    for s in range(1, n + 2):
        letters = [("c", legs[i]) for i in range(s - 1)] + \
                  [("a", alg.s_apply(legs[j])) for j in range(s - 1, n)]
        terms.append((one, tuple(letters)))
    for s in range(1, n + 1):
        letters = [("c", legs[i]) for i in range(s - 1)] + \
                  [("g", alg.pi_l(legs[s - 1]))] + \
                  [("a", alg.s_apply(legs[j])) for j in range(s, n)]
        terms.append((one, tuple(letters)))
    return FockOperator(fock, terms, mode)


def wick_by_recursion(fock, legs, mode=STRICT):
    """Test oracle: Psi via X(xi_1) Psi(rest) - <S xi_1, xi_2> Psi(tail)
    - Psi(xi_1 xi_2 x tail)."""
    alg = fock.alg
    legs = [alg.vector(x) if not isinstance(x, np.ndarray) else x for x in legs]
    if not legs:
        return identity(fock, mode)
    if len(legs) == 1:
        return field_X(fock, legs[0], mode)
    head, second, tail = legs[0], legs[1], legs[2:]
    out = field_X(fock, head, mode) * wick_by_recursion(fock, legs[1:], mode)
    out = out - wick_by_recursion(fock, tail, mode).scale(
        alg.inner(alg.s_apply(head), second))
    out = out - wick_by_recursion(fock, [alg.multiply(head, second)] + tail,
                                  mode)
    return out


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
        out = {}
        t = self.leg_matrix
        dim = self.fock.dim
        for idx, c in vec.entries.items():
            if self.antilinear:
                c = np.conjugate(c)
            src = tuple(reversed(idx)) if self.reverse else idx
            partial = {(): c}
            for leg in src:
                new = {}
                for key, v in partial.items():
                    for b in range(dim):
                        if t[b, leg] != 0:
                            kk = key + (b,)
                            new[kk] = new.get(kk, 0) + v * t[b, leg]
                partial = new
            for key, v in partial.items():
                if v != 0:
                    out[key] = out.get(key, 0) + v
        return FockVector(self.fock, out).prune()


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
        (one, (("gr", alg.pi_r(eta)),)),
    ], mode)


# -- Wick embedding of tensor powers (finite weight) --------------------------

def wick_embedding_In(fock, factors, L=None):
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
    if L is not None and fock.L < 2 * n:
        raise TruncationError("need L >= 2n")
    legs = [alg.eta(x) for x in factors]
    legs = [alg.pi_l(leg) @ alg.unit for leg in legs]
    op = wick(fock, legs, PROJECTIVE)
    return op, op.norm()


def haagerup_bound(space, n):
    """(n+1) phi(1)^{n/2} + n phi(1)^{(n-1)/2}: the cb-norm bound for I_n."""
    w = float(abs(space.total_weight()))
    return (n + 1) * w ** (n / 2.0) + n * w ** ((n - 1) / 2.0)
