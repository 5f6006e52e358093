"""Scalar-mode helpers: exact rationals vs complex floats.

Exact mode stores ``fractions.Fraction`` entries in object-dtype numpy
arrays; float mode uses ``complex128``.  All linear algebra that must stay
exact (ranks, solves, Gram pivoting) lives here so the rest of the package
can stay mode-agnostic.
"""

from fractions import Fraction

import numpy as np

EXACT = "exact"
FLOAT = "float"


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


def exact_rank(mat):
    """Rank of a matrix with Fraction entries via Gaussian elimination."""
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f = m[i][c] / pv
                for j in range(c, cols):
                    m[i][j] -= f * m[r][j]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def exact_solve(mat, rhs):
    """Solve a nonsingular square Fraction system by elimination."""
    n = len(mat)
    m = [list(mat[i]) + [rhs[i]] for i in range(n)]
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            raise ZeroDivisionError("singular exact system")
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


def rank(mat, mode):
    if mode == EXACT:
        return exact_rank(mat)
    a = np.asarray(mat, dtype=complex)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > 1e-9 * s[0]))


def solve_gram(gram, rhs, mode):
    """Solve ``gram @ c = rhs`` for coordinates against a PD Gram matrix."""
    if mode == EXACT:
        return np.array(exact_solve([list(r) for r in gram], list(rhs)),
                        dtype=object)
    return np.linalg.solve(np.asarray(gram, dtype=complex),
                           np.asarray(rhs, dtype=complex))


def to_float_array(a):
    if isinstance(a, np.ndarray) and a.dtype == object:
        return np.asarray(a, dtype=float).astype(complex)
    return np.asarray(a, dtype=complex)
