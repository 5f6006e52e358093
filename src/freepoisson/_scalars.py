"""Scalar-mode helpers: exact rationals vs complex floats.

Exact mode stores ``fractions.Fraction`` entries in object-dtype numpy
arrays; float mode uses ``complex128``.  Every question the package asks
of a Gram matrix (is it PSD, which columns are independent of the ones
before them, what are the coordinates of a vector) is answered here by
one symmetric elimination in index order, the same in both modes, so the
rest of the package can stay mode-agnostic.  Float PSD decisions on a
spectrum (Choi, CP gaps, Stinespring Gram, density) use one spectral gate.
"""

from fractions import Fraction

import numpy as np

from .errors import NotPsdError

EXACT = "exact"
FLOAT = "float"
PIVOT_TOL = 1e-9


def as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    return Fraction(x)


def array(data, mode):
    """Build a 1- or 2-d array in the requested scalar mode."""
    if mode == EXACT:
        a = np.empty(np.shape(data), dtype=object)
        flat = a.reshape(-1)
        src = np.asarray(data, dtype=object).reshape(-1)
        for i, x in enumerate(src):
            flat[i] = as_fraction(x)
        return a
    return np.asarray(data, dtype=complex)


def zeros(shape, mode):
    if mode == EXACT:
        a = np.empty(shape, dtype=object)
        a.reshape(-1)[:] = [Fraction(0)] * a.size
        return a
    return np.zeros(shape, dtype=complex)


def eye(n, mode):
    a = zeros((n, n), mode)
    one = Fraction(1) if mode == EXACT else 1.0
    for i in range(n):
        a[i, i] = one
    return a


def conj(a):
    """Elementwise conjugate; a no-op for rational entries."""
    return np.conjugate(a)


def scalar_zero(mode):
    return Fraction(0) if mode == EXACT else 0j


def scalar_one(mode):
    return Fraction(1) if mode == EXACT else 1.0 + 0j


def _eliminate(gram, mode, rhs=None):
    """Symmetric elimination of a Hermitian ``gram`` in index order.

    Step k subtracts pivot row k, scaled, from the rows below it, carrying
    the columns of ``rhs`` along.  Returns the pivots, the indices k whose
    column is independent of the columns before it, and the eliminated
    rows.  The Schur pivot of column k is its squared distance from the
    span of the earlier columns; it counts as zero when it is at most
    ``PIVOT_TOL`` times the column's own diagonal entry in float mode, and
    when it is 0 in exact mode.  A negative pivot, or a zero pivot whose
    row is not zero (in float: an entry a_kj with |a_kj|^2 past
    ``PIVOT_TOL`` * a_kk * a_jj), raises NotPsdError.
    """
    a = array(gram, mode)
    n = len(a)
    diag = np.zeros(n) if mode == EXACT else a.diagonal().real
    b = zeros((n, 0), mode) if rhs is None else array(rhs, mode)
    a = np.hstack([a, b[:, None] if b.ndim == 1 else b])
    pivots = []
    for k in range(n):
        p, zero = a[k, k].real, PIVOT_TOL * diag[k]
        if p <= zero:
            if p < -zero or np.any(np.abs(a[k, k + 1:n]) ** 2
                                   > zero * diag[k + 1:]):
                raise NotPsdError("Gram matrix is not PSD (pivot %d)" % k,
                                  witness={"pivot": k})
            continue
        pivots.append(k)
        a[k + 1:, k:] -= np.outer(a[k + 1:, k] / p, a[k, k:])
    return pivots, a


def gram_pivots(gram, mode):
    """The pivots of a Hermitian PSD matrix, in index order.

    Index k is a pivot iff column k is independent of columns 0..k-1, so
    the pivots of a leading block are a prefix of the pivots, and the
    principal submatrix on the pivots is positive definite.  An indefinite
    ``gram`` raises NotPsdError.
    """
    return _eliminate(gram, mode)[0]


def solve_gram(gram, rhs, mode):
    """Solve ``gram @ c = rhs`` against a positive definite Gram matrix.

    ``rhs`` is a vector or a matrix of columns, and ``c`` has its shape.
    Exact mode runs the elimination of ``gram_pivots`` on the right-hand
    columns, then back substitution; a singular or indefinite ``gram``
    raises NotPsdError.  Float mode calls ``numpy.linalg.solve``.
    """
    if mode == FLOAT:
        return np.linalg.solve(np.asarray(gram, dtype=complex),
                               np.asarray(rhs, dtype=complex))
    pivots, a = _eliminate(gram, mode, rhs)
    n = len(a)
    if len(pivots) < n:
        raise NotPsdError("Gram matrix is not positive definite")
    c = a[:, n:]
    for k in reversed(range(n)):
        c[k] = (c[k] - a[k, k + 1:n] @ c[k + 1:]) / a[k, k]
    return c.reshape(np.shape(rhs))


def spectral_gate(what, a, b=None, require=None):
    """The one rule of float PSD decisions, on a Hermitian ``a`` or ``a - b``.

    Returns the ascending eigenvalues, the eigenvectors as columns, the mask
    of the eigenvalues above the zero band |lambda| <= PIVOT_TOL * scale,
    and the slack lambda_min / scale.  The scale is the largest |lambda| of
    the matrix, or of either term of a difference.  NotPsdError naming
    ``what``, with the slack as witness, is raised for an anti-Hermitian
    entry past the band, and when ``require`` is "PSD" (slack >=
    -PIVOT_TOL) or "positive definite" (no eigenvalue in the band) and fails.
    """
    d = np.asarray(a if b is None else a - b, dtype=complex)
    ev, vec = np.linalg.eigh(0.5 * (d + d.conj().T))
    scale = (np.abs(ev).max(initial=0.0) if b is None
             else max(np.linalg.norm(t, 2) for t in (a, b)))
    keep = ev > PIVOT_TOL * scale
    slack = float(ev[0] / scale) if scale else 0.0
    if np.abs(d - d.conj().T).max(initial=0.0) > PIVOT_TOL * scale:
        require = "Hermitian"
    elif keep.all() or require == "PSD" and slack >= -PIVOT_TOL:
        require = None
    if require:
        raise NotPsdError("%s is not %s" % (what, require),
                          witness={"slack": slack})
    return ev, vec, keep, slack


def to_float_array(a):
    if isinstance(a, np.ndarray) and a.dtype == object:
        return np.asarray(a, dtype=float).astype(complex)
    return np.asarray(a, dtype=complex)
