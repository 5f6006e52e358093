"""Finite-dimensional pseudo left Hilbert algebras.

An algebra here is a coordinate space C^d with

  * a positive-definite Gram matrix G (inner product <u,v> = u^H G v,
    conjugate-linear in the first slot),
  * an antilinear involution S(v) = smat @ conj(v),
  * left-multiplication matrices lmul[i] = pi_l(e_i) per basis vector
    (multiplication may be degenerate, including identically zero),
  * optional unit vector, and optional modular data Delta (linear) and
    J (antilinear, jmat @ conj(v)).

Compatibility conditions (<xi eta, zeta> = <eta, (S xi) zeta>, S an
anti-homomorphism with S^2 = 1, associativity) are checked by validate(),
which tests keep honest on every constructor.

The dense arrays gram, smat and lmul stay public, but every primitive
(pi_l, pi_r, s_apply, multiply, inner, gram_row) works from the nonzero
structure constants recorded at construction: the (row, col, value)
entries of each lmul[i] and of smat, and the per-row nonzeros of the Gram
(gram_rows).  A function algebra has one entry per lmul[i] and a diagonal
Gram, so its primitives cost O(d) instead of O(d^2) or O(d^3).
"""

import numpy as np

from . import _scalars as sc
from .errors import DomainError, ShapeError, ValidationError


class PseudoHilbertAlgebra:

    def __init__(self, gram, smat, lmul, unit=None, delta=None, jmat=None,
                 mode=sc.FLOAT):
        self.mode = mode
        self.gram = sc.array(gram, mode)
        self.smat = sc.array(smat, mode)
        self.lmul = [sc.array(m, mode) for m in lmul]
        self.dim = self.gram.shape[0]
        if self.gram.shape != (self.dim, self.dim):
            raise ShapeError("gram must be square")
        if self.smat.shape != (self.dim, self.dim):
            raise ShapeError("smat shape mismatch")
        if len(self.lmul) != self.dim:
            raise ShapeError("need one lmul matrix per basis vector")
        for m in self.lmul:
            if m.shape != (self.dim, self.dim):
                raise ShapeError("lmul shape mismatch")
        self.unit = None if unit is None else sc.array(unit, mode)
        self.delta = None if delta is None else sc.array(delta, mode)
        self.jmat = None if jmat is None else sc.array(jmat, mode)
        self._lmul_nz = [_nonzeros(m) for m in self.lmul]
        self._s_nz = _nonzeros(self.smat)
        self.gram_rows = [[] for _ in range(self.dim)]
        for r, c, x in _nonzeros(self.gram):
            self.gram_rows[r].append((c, x))

    # -- vector operations ------------------------------------------------

    def vector(self, coords):
        v = sc.array(coords, self.mode)
        if v.shape != (self.dim,):
            raise ShapeError("vector length %s != %d" % (v.shape, self.dim))
        return v

    def basis(self, i):
        v = sc.zeros(self.dim, self.mode)
        v[i] = sc.scalar_one(self.mode)
        return v

    def inner(self, u, v):
        total = sc.scalar_zero(self.mode)
        for i, row in enumerate(self.gram_rows):
            if u[i] != 0:
                cu = u[i].conjugate()
                for j, g in row:
                    if v[j] != 0:
                        total = total + cu * g * v[j]
        return total

    def gram_row(self, v):
        """Row vector w with w[i] = <v, e_i>."""
        out = sc.zeros(self.dim, self.mode)
        for j, x in enumerate(np.asarray(v).tolist()):
            if x != 0:
                cx = x.conjugate()
                for i, g in self.gram_rows[j]:
                    out[i] += cx * g
        return out

    def norm(self, u):
        return float(abs(self.inner(u, u))) ** 0.5

    def s_apply(self, v):
        vc = sc.conj(v)
        out = sc.zeros(self.dim, self.mode)
        for r, c, x in self._s_nz:
            if vc[c] != 0:
                out[r] += x * vc[c]
        return out

    def j_apply(self, v):
        if self.jmat is None:
            return self.s_apply(v)
        return self.jmat @ sc.conj(v)

    def pi_l(self, v):
        """Matrix of left multiplication by the vector v."""
        out = sc.zeros((self.dim, self.dim), self.mode)
        for i, entries in enumerate(self._lmul_nz):
            if v[i] != 0:
                for r, c, x in entries:
                    out[r, c] += v[i] * x
        return out

    def pi_r(self, v):
        """Matrix of right multiplication by the vector v."""
        out = sc.zeros((self.dim, self.dim), self.mode)
        for i, entries in enumerate(self._lmul_nz):
            for r, c, x in entries:
                if v[c] != 0:
                    out[r, i] += x * v[c]
        return out

    def multiply(self, u, v):
        out = sc.zeros(self.dim, self.mode)
        for i, entries in enumerate(self._lmul_nz):
            if u[i] != 0:
                for r, c, x in entries:
                    if v[c] != 0:
                        out[r] += u[i] * x * v[c]
        return out

    def is_tracial(self):
        """Trivial modular operator (Delta = 1 within tolerance)."""
        if self.delta is None:
            return True
        eye = sc.eye(self.dim, self.mode)
        if self.mode == sc.EXACT:
            return bool(np.all(self.delta == eye))
        return np.linalg.norm(sc.to_float_array(self.delta - eye)) < 1e-10

    # -- structure checks (used by tests) ---------------------------------

    def validate(self, tol=1e-9):
        def close(a, b):
            if self.mode == sc.EXACT:
                return np.all(a == b)
            return np.linalg.norm(sc.to_float_array(a) -
                                  sc.to_float_array(b)) < tol

        for i in range(self.dim):
            ei = self.basis(i)
            if not close(self.s_apply(self.s_apply(ei)), ei):
                raise ValidationError("S is not an involution")
        for i in range(self.dim):
            for j in range(self.dim):
                ei, ej = self.basis(i), self.basis(j)
                prod = self.multiply(ei, ej)
                for k in range(self.dim):
                    ek = self.basis(k)
                    lhs = self.inner(prod, ek)
                    rhs = self.inner(ej, self.multiply(self.s_apply(ei), ek))
                    if self.mode == sc.EXACT:
                        ok = lhs == rhs
                    else:
                        ok = abs(lhs - rhs) < tol
                    if not ok:
                        raise ValidationError(
                            "<xi eta, zeta> != <eta, (S xi) zeta> at "
                            "(%d, %d, %d)" % (i, j, k))
                if not close(self.s_apply(prod),
                             self.multiply(self.s_apply(ej),
                                           self.s_apply(ei))):
                    raise ValidationError("S is not an anti-homomorphism")
                # associativity: pi_l(e_i e_j) == pi_l(e_i) pi_l(e_j)
                if not close(self.pi_l(prod), self.lmul[i] @ self.lmul[j]):
                    raise ValidationError("multiplication not associative")
        return True

    def to_json(self):
        from .cli import encode_matrix
        obj = {"gram": encode_matrix(self.gram, self.mode),
               "s": encode_matrix(self.smat, self.mode),
               "lmul": [encode_matrix(m, self.mode) for m in self.lmul],
               "mode": self.mode}
        if self.unit is not None:
            obj["unit"] = encode_matrix(self.unit.reshape(1, -1), self.mode)[0]
        return obj


def _nonzeros(mat):
    """(row, col, value) of each nonzero entry, in row-major order."""
    rows, cols = np.nonzero(mat)
    return list(zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist()))


# -- constructors ----------------------------------------------------------

def trivial_algebra(dim, mode=sc.FLOAT, gram=None):
    """Zero multiplication, S = plain conjugation: a semicircular system."""
    z = sc.zeros((dim, dim), mode)
    return PseudoHilbertAlgebra(
        gram=sc.eye(dim, mode) if gram is None else gram,
        smat=sc.eye(dim, mode),
        lmul=[z.copy() for _ in range(dim)],
        mode=mode)


def function_algebra(weights, mode=sc.EXACT):
    """Functions on a finite set of points with the given point masses.

    Basis vectors are the indicator idempotents; S is conjugation.
    """
    d = len(weights)
    if d == 0:
        raise DomainError("need at least one point")
    lmul = []
    for i in range(d):
        m = sc.zeros((d, d), mode)
        m[i, i] = sc.scalar_one(mode)
        lmul.append(m)
    g = sc.zeros((d, d), mode)
    for i, w in enumerate(weights):
        wi = sc.as_fraction(w) if mode == sc.EXACT else complex(w)
        if not (wi > 0 if mode == sc.EXACT else wi.real > 0):
            raise DomainError("weights must be positive")
        g[i, i] = wi
    alg = PseudoHilbertAlgebra(
        gram=g, smat=sc.eye(d, mode), lmul=lmul,
        unit=[1] * d, mode=mode)
    return alg


def direct_sum(a, b):
    """Orthogonal direct sum; cross products vanish."""
    if a.mode != b.mode:
        raise DomainError("mixed scalar modes")
    mode = a.mode
    d = a.dim + b.dim
    g = sc.zeros((d, d), mode)
    g[:a.dim, :a.dim] = a.gram
    g[a.dim:, a.dim:] = b.gram
    s = sc.zeros((d, d), mode)
    s[:a.dim, :a.dim] = a.smat
    s[a.dim:, a.dim:] = b.smat
    lmul = []
    for i in range(a.dim):
        m = sc.zeros((d, d), mode)
        m[:a.dim, :a.dim] = a.lmul[i]
        lmul.append(m)
    for i in range(b.dim):
        m = sc.zeros((d, d), mode)
        m[a.dim:, a.dim:] = b.lmul[i]
        lmul.append(m)
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = sc.zeros(d, mode)
        unit[:a.dim] = a.unit
        unit[a.dim:] = b.unit
    out = PseudoHilbertAlgebra(gram=g, smat=s, lmul=lmul, unit=unit, mode=mode)
    if a.delta is not None or b.delta is not None:
        da = a.delta if a.delta is not None else sc.eye(a.dim, mode)
        db = b.delta if b.delta is not None else sc.eye(b.dim, mode)
        out.delta = sc.zeros((d, d), mode)
        out.delta[:a.dim, :a.dim] = da
        out.delta[a.dim:, a.dim:] = db
    return out
