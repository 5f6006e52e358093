"""Finite-dimensional pseudo left Hilbert algebras.

An algebra here is a coordinate space C^d with

  * a positive-definite Gram matrix G (inner product <u,v> = u^H G v,
    conjugate-linear in the first slot),
  * an antilinear involution S(v) = smat @ conj(v),
  * a multiplication, stored only as its nonzero structure constants
    (i, r, c, x), x being entry (r, c) of pi_l(e_i); it may be degenerate,
    even identically zero (no constants at all),
  * optional unit vector, and optional modular data Delta (linear) and
    J (antilinear, jmat @ conj(v)); ``None`` when absent.

Compatibility conditions (<xi eta, zeta> = <eta, (S xi) zeta>, S an
anti-homomorphism with S^2 = 1, associativity) are checked by validate(),
which tests keep honest on every constructor.

The constructors below write the constants directly; a caller holding
dense left-multiplication matrices converts them with
``structure_constants``.  Every primitive (pi_l, pi_r, s_apply, multiply,
inner, gram_row) reads only nonzeros: the constants, the entries of smat
and the per-row nonzeros of the Gram (gram_rows), so a function algebra
is built in O(d^2) and its primitives cost O(d).  ``multiplication``
returns the nonzeros of pi_l(v) or pi_r(v); pi_l and pi_r are their dense
fill, and ``lmul`` a dense view derived on each read, for validate() and
the Stinespring bimodule.
"""

import numpy as np

from . import _scalars as sc
from .errors import DomainError, ShapeError, ValidationError


class PseudoHilbertAlgebra:

    # modular data, when given; a subclass may derive them on first use
    delta = jmat = None

    def __init__(self, gram, smat, structure, unit=None, delta=None,
                 jmat=None, mode=sc.FLOAT):
        self.mode = mode
        self.gram = sc.array(gram, mode)
        self.smat = sc.array(smat, mode)
        self.dim = self.gram.shape[0]
        if self.gram.shape != (self.dim, self.dim):
            raise ShapeError("gram must be square")
        if self.smat.shape != (self.dim, self.dim):
            raise ShapeError("smat shape mismatch")
        # structure[i] lists the (row, col, value) nonzeros of pi_l(e_i)
        self.structure = [[] for _ in range(self.dim)]
        for i, r, c, x in structure:
            if not 0 <= min(i, r, c) <= max(i, r, c) < self.dim:
                raise ShapeError("structure constant index out of range")
            self.structure[i].append((r, c, x))
        self.unit = None if unit is None else sc.array(unit, mode)
        if delta is not None:
            self.delta = sc.array(delta, mode)
        if jmat is not None:
            self.jmat = sc.array(jmat, mode)
        self._s_nz = _nonzeros(self.smat)
        self.gram_rows = [[] for _ in range(self.dim)]
        for r, c, x in _nonzeros(self.gram):
            self.gram_rows[r].append((c, x))

    @property
    def lmul(self):
        """Dense pi_l(e_i) per basis vector, derived on each read."""
        return [self.pi_l(self.basis(i)) for i in range(self.dim)]

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
            if x:
                cx = x if self.mode == sc.EXACT else x.conjugate()
                for i, g in self.gram_rows[j]:
                    out[i] += cx * g
        return out

    def s_apply(self, v):
        v = np.asarray(v).tolist()
        out = sc.zeros(self.dim, self.mode)
        for r, c, x in self._s_nz:
            if v[c]:
                # conjugation is the identity on rationals
                out[r] += x * (v[c] if self.mode == sc.EXACT
                               else v[c].conjugate())
        return out

    def j_apply(self, v):
        if self.jmat is None:
            return self.s_apply(v)
        return self.jmat @ sc.conj(v)

    def multiplication(self, v, right=False):
        """{(row, col): x} over the nonzero entries of pi_l(v), or of pi_r(v)
        when ``right``, read from the structure constants."""
        v = np.asarray(v).tolist()
        out = {}
        for i, entries in enumerate(self.structure):
            if right:
                for r, c, x in entries:
                    if v[c]:
                        rc, p = (r, i), x * v[c]
                        out[rc] = out[rc] + p if rc in out else p
            elif v[i]:
                for r, c, x in entries:
                    rc, p = (r, c), v[i] * x
                    out[rc] = out[rc] + p if rc in out else p
        return {rc: x for rc, x in out.items() if x}

    def pi_l(self, v):
        """Matrix of left multiplication by the vector v."""
        return self._dense(self.multiplication(v))

    def pi_r(self, v):
        """Matrix of right multiplication by the vector v."""
        return self._dense(self.multiplication(v, right=True))

    def _dense(self, entries):
        out = sc.zeros((self.dim, self.dim), self.mode)
        for rc, x in entries.items():
            out[rc] = x
        return out

    def multiply(self, u, v):
        out = sc.zeros(self.dim, self.mode)
        for i, entries in enumerate(self.structure):
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

    def validate(self):
        tol = 1e-9

        def close(a, b):
            if self.mode == sc.EXACT:
                return np.all(a == b)
            return np.linalg.norm(sc.to_float_array(a) -
                                  sc.to_float_array(b)) < tol

        for i in range(self.dim):
            ei = self.basis(i)
            if not close(self.s_apply(self.s_apply(ei)), ei):
                raise ValidationError("S is not an involution")
        lmul = self.lmul
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
                if not close(self.pi_l(prod), lmul[i] @ lmul[j]):
                    raise ValidationError("multiplication not associative")
        return True


def _nonzeros(mat):
    """(row, col, value) of each nonzero entry, in row-major order."""
    rows, cols = np.nonzero(mat)
    return list(zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist()))


def structure_constants(lmul, dim, mode):
    """(i, r, c, x) for each nonzero entry (r, c) of the dense lmul[i]."""
    if len(lmul) != dim:
        raise ShapeError("need one lmul matrix per basis vector")
    out = []
    for i, m in enumerate(lmul):
        m = sc.array(m, mode)
        if m.shape != (dim, dim):
            raise ShapeError("lmul shape mismatch")
        out += [(i, r, c, x) for r, c, x in _nonzeros(m)]
    return out


# -- constructors ----------------------------------------------------------

def trivial_algebra(dim, mode=sc.FLOAT, gram=None):
    """Zero multiplication, S = plain conjugation: a semicircular system."""
    return PseudoHilbertAlgebra(
        gram=sc.eye(dim, mode) if gram is None else gram,
        smat=sc.eye(dim, mode), structure=[], mode=mode)


def function_algebra(weights, mode=sc.EXACT):
    """Functions on a finite set of points with the given point masses.

    Basis vectors are the indicator idempotents; S is conjugation.
    """
    d = len(weights)
    if d == 0:
        raise DomainError("need at least one point")
    g = sc.zeros((d, d), mode)
    for i, w in enumerate(weights):
        wi = sc.as_fraction(w) if mode == sc.EXACT else complex(w)
        if not (wi > 0 if mode == sc.EXACT else wi.real > 0):
            raise DomainError("weights must be positive")
        g[i, i] = wi
    one = sc.scalar_one(mode)
    return PseudoHilbertAlgebra(
        gram=g, smat=sc.eye(d, mode),
        structure=[(i, i, i, one) for i in range(d)],
        unit=[1] * d, mode=mode)


def direct_sum(a, b):
    """Orthogonal direct sum; cross products vanish.

    Delta and J are block diagonal, each summand contributing its own or,
    lacking one, the identity and S.
    """
    if a.mode != b.mode:
        raise DomainError("mixed scalar modes")
    mode = a.mode
    d = a.dim + b.dim

    def blockdiag(ma, mb):
        out = sc.zeros((d, d), mode)
        out[:a.dim, :a.dim] = ma
        out[a.dim:, a.dim:] = mb
        return out

    structure = [(i + o, r + o, c + o, x)
                 for alg, o in ((a, 0), (b, a.dim))
                 for i, entries in enumerate(alg.structure)
                 for r, c, x in entries]
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = sc.zeros(d, mode)
        unit[:a.dim] = a.unit
        unit[a.dim:] = b.unit
    delta = jmat = None
    if a.delta is not None or b.delta is not None:
        delta = blockdiag(sc.eye(a.dim, mode) if a.delta is None else a.delta,
                          sc.eye(b.dim, mode) if b.delta is None else b.delta)
    if a.jmat is not None or b.jmat is not None:
        jmat = blockdiag(a.smat if a.jmat is None else a.jmat,
                         b.smat if b.jmat is None else b.jmat)
    return PseudoHilbertAlgebra(gram=blockdiag(a.gram, b.gram),
                                smat=blockdiag(a.smat, b.smat),
                                structure=structure, unit=unit, delta=delta,
                                jmat=jmat, mode=mode)
