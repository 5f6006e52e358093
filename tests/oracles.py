"""Reference implementations, for tests only.

Each lattice oracle sums over every noncrossing partition (or pair of
them) that its definition names, with no recursion shared with the
library, so the library's faster forms can be compared against it.  The
dense oracles compute the algebra primitives from the full structure
matrices, where the library reads only their nonzero entries.  The Fock
oracles build the whole projective matrix of an operator, one
interpreted basis column at a time, in exact or float mode (the library
builds no exact matrix: its exact ``is_close`` interprets only the
columns it compares, and its float matrices come from sparse letter
blocks), and build Wick operators by the defining recursion, where the
library uses the closed splitting sum.  The letter
block oracle builds through COO and lets scipy sort, where the library
writes canonical CSR directly.  The second quantization oracle compiles
the Wick words on the Fock space over the whole dilation space and
compresses the operator by Kronecker powers of p_N (``kron_powers``),
where the library transports each letter.  The
reference interpreter runs Fock vectors as plain {index tuple:
coefficient} dicts of ``Fraction`` (or complex) values and reads each
letter's dense leg on every application, where the library holds exact
vectors as integer numerators over one denominator and decodes each
letter once per operator from its nonzeros.  The
modular oracle applies Delta and J to one matrix unit at a time, where the
library uses their closed Kronecker forms per block.  The first-block
oracles run the library's recursion on the table's own scalars, with the
same operations in the same order, where the library scales exact tables
to integers.  The Cauchy quadrature oracle integrates a closed-form
density against 1/(z - t) adaptively, where the library evaluates the
density's Herglotz closed form.  The Gram pivot oracle keeps a column
when the determinant of the kept principal block, expanded by cofactors,
stays nonzero, where the library runs one symmetric elimination.
"""

import math

import numpy as np
from scipy import integrate

from freepoisson import _scalars as sc
from freepoisson.algebra import trivial_algebra
from freepoisson.errors import DomainError, OverflowError_, TruncationError
from freepoisson.fock import (PROJECTIVE, STRICT, FockOperator, FockSpace,
                              FockVector, field_X, identity, wick_words)
from freepoisson.ncpart import (enumerate_nc, is_noncrossing,
                                refinement_leq)
from freepoisson.transforms import density_function
from freepoisson.variation import difference_words


def lattice_moment(cumulants, word):
    """M(word) = sum over NC(|word|) of block products of cumulants."""
    total = 0
    for pi in enumerate_nc(len(word)):
        term = 1
        for block in pi.blocks:
            term = term * cumulants[tuple(word[v - 1] for v in block)]
        total = total + term
    return total


def lattice_cumulants(moments):
    """Moebius inversion of the lattice sum: R(w) = M(w) - sum_{pi < 1} R_pi.

    ``moments`` maps label words to scalars and holds every subword of
    every word it holds.
    """
    cums = {}
    for word in sorted(moments, key=len):
        total = moments[word]
        for pi in enumerate_nc(len(word)):
            if len(pi) == 1:
                continue
            term = 1
            for block in pi.blocks:
                term = term * cums[tuple(word[v - 1] for v in block)]
            total = total - term
        cums[word] = total
    return cums


def _first_blocks(n):
    for mask in range(1 << (n - 1)):
        block = (0,) + tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
        ends = block[1:] + (n,)
        yield block, [range(lo + 1, hi) for lo, hi in zip(block, ends)
                      if hi > lo + 1]


def first_block_moments(cumulants, words):
    """M(w) for each word by the first-block recursion, in plain arithmetic."""
    memo = {}

    def m(key):
        if key not in memo:
            total = 0
            for block, gaps in _first_blocks(len(key)):
                term = cumulants[tuple(key[i] for i in block)]
                for gap in gaps:
                    term = term * m(tuple(key[i] for i in gap))
                total = total + term
            memo[key] = total
        return memo[key]

    return {w: m(w) for w in words}


def first_block_cumulants(moments):
    """R(w) for each word of ``moments`` by the first-block inversion."""
    memo = {}

    def r(key):
        if key not in memo:
            total = moments[key]
            for block, gaps in list(_first_blocks(len(key)))[:-1]:
                term = r(tuple(key[i] for i in block))
                for gap in gaps:
                    term = term * moments[tuple(key[i] for i in gap)]
                total = total - term
            memo[key] = total
        return memo[key]

    return {w: r(w) for w in moments}


def kreweras_brute(pi):
    """The largest sigma with pi u sigma noncrossing interleaved.

    Elements of sigma live on the barred copy placed at positions
    1 < 1' < 2 < 2' < ... < n < n'.  Quadratic in |NC(n)|.
    """
    n = pi.n
    best = None
    for sigma in enumerate_nc(n):
        union = [[2 * x - 1 for x in b] for b in pi.blocks] + \
                [[2 * x for x in b] for b in sigma.blocks]
        if is_noncrossing(union, n=2 * n):
            if best is None or refinement_leq(best, sigma):
                best = sigma
    return best


def variation_error_squared_nc(exp, n_bins):
    """phi(D* D) of the variation difference via the noncrossing sums.

    Vacuum moments of X-words are Sum over NC(n) of block factors
    <S g_{v1}, g_{v2} ... g_{vr}> (singletons vanish); exact in rational
    mode.  Quadratic in the term count, for small N only.
    """
    alg, terms = difference_words(exp, n_bins)
    mode = alg.mode

    def r_block(word):
        if len(word) < 2:
            return sc.scalar_zero(mode)
        prod = word[1]
        for g in word[2:]:
            prod = alg.multiply(prod, g)
        return alg.inner(alg.s_apply(word[0]), prod)

    def x_moment(word):
        if not word:
            return sc.scalar_one(mode)
        total = sc.scalar_zero(mode)
        for pi in enumerate_nc(len(word)):
            term = sc.scalar_one(mode)
            for block in pi.blocks:
                term = term * r_block([word[v - 1] for v in block])
                if term == 0:
                    break
            total = total + term
        return total

    total = sc.scalar_zero(mode)
    for c1, w1 in terms:
        star1 = tuple(alg.s_apply(g) for g in reversed(w1))
        for c2, w2 in terms:
            total = total + np.conjugate(c1) * c2 * x_moment(star1 + w2)
    return total


# -- dense structure-constant formulas ----------------------------------------
# The left-multiplication matrices lmul[i] = pi_l(e_i) of each constructor,
# built densely, one d x d matrix per basis vector: the reference for the
# structure constants the constructors write directly.

def function_lmul(d, mode):
    """Indicator idempotents: lmul[i] = e_ii."""
    out = []
    for i in range(d):
        m = sc.zeros((d, d), mode)
        m[i, i] = sc.scalar_one(mode)
        out.append(m)
    return out


def trivial_lmul(d, mode):
    return [sc.zeros((d, d), mode) for _ in range(d)]


def direct_sum_lmul(a, b, mode):
    """Each summand's lmul in its diagonal block; cross products vanish."""
    d = len(a) + len(b)
    out = []
    for lmul, o in ((a, 0), (b, len(a))):
        for m in lmul:
            big = sc.zeros((d, d), mode)
            big[o:o + len(m), o:o + len(m)] = m
            out.append(big)
    return out


def gns_lmul(dims, mode):
    """kron(e_ij, 1) in block b for each matrix unit (b, i, j), row-major."""
    dim = sum(d * d for d in dims)
    out, o = [], 0
    for d in dims:
        for i in range(d):
            for j in range(d):
                m = sc.zeros((dim, dim), mode)
                m[o + i * d:o + i * d + d, o + j * d:o + j * d + d] = \
                    sc.eye(d, mode)
                out.append(m)
        o += d * d
    return out


def dense_pi_l(lmul, v, mode):
    out = sc.zeros((len(v), len(v)), mode)
    for i, m in enumerate(lmul):
        if v[i] != 0:
            out = out + v[i] * m
    return out


def dense_pi_r(lmul, v, mode):
    out = sc.zeros((len(v), len(v)), mode)
    for i, m in enumerate(lmul):
        out[:, i] = m @ v
    return out


def dense_s_apply(alg, v):
    return alg.smat @ sc.conj(v)


def dense_multiply(lmul, u, v, mode):
    return dense_pi_l(lmul, u, mode) @ v


def dense_inner(alg, u, v):
    return sc.conj(u) @ alg.gram @ v


def dense_gram_row(alg, v):
    return sc.conj(v) @ alg.gram


def dense_fock_inner(u, v):
    """dense(u)^H blockdiag(G^{x k}) dense(v) on the truncated space."""
    fock = u.fock
    du, dv = u.dense(), v.dense()
    total = sc.scalar_zero(fock.mode)
    block = sc.eye(1, fock.mode)
    for k in range(fock.L + 1):
        if k:
            block = np.kron(block, fock.gram)
        o, n = fock.offsets[k], fock.degree_dims[k]
        total = total + sc.conj(du[o:o + n]) @ block @ dv[o:o + n]
    return total


# -- GNS modular data ---------------------------------------------------------

def gns_modular_units(space):
    """(Delta, jmat) of a float space on the row-major matrix units.

    Column (b, i, j) is Delta(e_ij) = rho e_ij rho^{-1}, resp.
    J(e_ij) = rho^{1/2} e_ij* rho^{-1/2}, written out in the units.
    """
    units = [(b, i, j) for b, d in enumerate(space.block_dims)
             for i in range(d) for j in range(d)]
    pos = {u: k for k, u in enumerate(units)}
    delta = np.zeros((len(units), len(units)), dtype=complex)
    jmat = np.zeros_like(delta)
    for b, d in enumerate(space.block_dims):
        rho = sc.to_float_array(space.density[b])
        ev, vec = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        rh = (vec * np.sqrt(ev)) @ vec.conj().T
        rhi = (vec / np.sqrt(ev)) @ vec.conj().T
        rinv = (vec / ev) @ vec.conj().T
        for i in range(d):
            for j in range(d):
                u = np.zeros((d, d), dtype=complex)
                u[i, j] = 1.0
                dm = rho @ u @ rinv
                jm = rh @ u.conj().T @ rhi
                col = pos[(b, i, j)]
                for k in range(d):
                    for l in range(d):
                        delta[pos[(b, k, l)], col] = dm[k, l]
                        jmat[pos[(b, k, l)], col] = jm[k, l]
    return delta, jmat


# -- Fock operators -----------------------------------------------------------

def interpreted_matrix(op):
    """Projective matrix of a Fock operator, one interpreted column a time."""
    f = op.fock
    proj = op.with_mode(PROJECTIVE)
    m = sc.zeros((f.total_dim, f.total_dim), f.mode)
    for idx in f.basis_tuples():
        col = proj.apply(FockVector(f, {idx: sc.scalar_one(f.mode)}))
        for key, v in col.entries.items():
            m[f.index(key), f.index(idx)] = v
    return m


# -- reference letter interpreter ---------------------------------------------

def _ref_leg(fock, letter):
    """(dense leg, up, down, left) of a letter, as the library defines it."""
    kind, payload = letter
    if kind in ("c", "cr"):
        leg, up, down = np.asarray(payload).reshape(-1, 1), 1, 0
    elif kind in ("a", "ar"):
        leg = dense_gram_row(fock.alg, np.asarray(payload)).reshape(1, -1)
        up, down = 0, 1
    elif kind in ("g", "gr"):
        leg, up, down = np.asarray(payload), 1, 1
    else:
        raise DomainError("unknown letter kind %r" % kind)
    return leg, up, down, kind in ("c", "a", "g")


def ref_apply_letter(fock, letter, entries, mode_trunc):
    """One letter on a {index tuple: coefficient} dict."""
    leg, up, down, left = _ref_leg(fock, letter)
    out = {}
    for idx, c in entries.items():
        k = len(idx)
        if k < down:
            continue
        if k + up - down > fock.L:
            if mode_trunc == STRICT:
                raise OverflowError_("creation past degree %d" % fock.L)
            continue
        j = (idx[0] if left else idx[-1]) if down else 0
        rest = idx[down:] if left else idx[:k - down]
        for b in range(leg.shape[0]):
            x = leg[b, j]
            if x == 0:
                continue
            key = ((b,) + rest if left else rest + (b,)) if up else rest
            val = x * c
            if val != 0:
                out[key] = out.get(key, 0) + val
    return out


def ref_apply(op, entries):
    """FockOperator.apply on a dict: each word right to left, stopping at
    an empty intermediate dict, then the scaled images summed."""
    out = {}
    for c, letters in op.terms:
        ent = entries
        for letter in reversed(letters):
            ent = ref_apply_letter(op.fock, letter, ent, op.mode)
            if not ent:
                break
        for k, v in ent.items():
            val = c * v
            if val != 0:
                out[k] = out.get(k, 0) + val
    return {k: v for k, v in out.items() if v != 0}


def ref_vector_from_tensor(fock, legs):
    if len(legs) > fock.L:
        raise TruncationError("tensor degree %d > L=%d" % (len(legs), fock.L))
    ent = {(): sc.scalar_one(fock.mode)}
    for leg in reversed(legs):
        ent = ref_apply_letter(fock, ("c", leg), ent, STRICT)
    return ent


def _ref_legwise(idx, c, mat):
    """{jdx: c * mat[j1, i1] ... mat[jk, ik]} over nonzero products."""
    partial = {(): c}
    for a in idx:
        partial = {key + (b,): v * mat[b, a] for key, v in partial.items()
                   for b in range(mat.shape[0]) if mat[b, a] != 0}
    return partial


def ref_inner(fock, u, v):
    """sum conj(u[i]) G[i1, j1] ... G[ik, jk] v[j] over the dicts."""
    total = sc.scalar_zero(fock.mode)
    gram_t = np.asarray(fock.gram).T
    for idx, cu in u.items():
        for jdx, c in _ref_legwise(idx, np.conjugate(cu), gram_t).items():
            cv = v.get(jdx)
            if cv is not None:
                total = total + c * cv
    return total


def ref_graded_apply(gmap, entries):
    """GradedMap.apply on a dict."""
    out = {}
    t = np.asarray(gmap.leg_matrix)
    for idx, c in entries.items():
        if gmap.antilinear:
            c = np.conjugate(c)
        src = idx[::-1] if gmap.reverse else idx
        for key, v in _ref_legwise(src, c, t).items():
            if v != 0:
                out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def ref_is_close(a, b, max_input_degree=None):
    """Exact is_close: both operators projective on each basis vector up
    to the input degree, the images equal."""
    f = a.fock
    top = f.L if max_input_degree is None else max_input_degree
    pa, pb = a.with_mode(PROJECTIVE), b.with_mode(PROJECTIVE)
    for idx in f.basis_tuples():
        if len(idx) > top:
            break
        e = {idx: sc.scalar_one(f.mode)}
        if ref_apply(pa, e) != ref_apply(pb, e):
            return False
    return True


def coo_letter_matrix(fock, letter):
    """One letter as CSR, from COO triplets that scipy sorts and sums."""
    import scipy.sparse as sp
    kind, payload = letter
    if kind in ("c", "cr"):
        leg, up, down = sc.to_float_array(payload).reshape(-1, 1), 1, 0
    elif kind in ("a", "ar"):
        leg = sc.to_float_array(fock.alg.gram_row(payload)).reshape(1, -1)
        up, down = 0, 1
    else:
        leg, up, down = sc.to_float_array(payload), 1, 1
    r, c = np.nonzero(leg)
    vals = leg[r, c]
    rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    data = [np.zeros(0, dtype=complex)]
    for k in range(fock.L + 1 - max(up, down)):
        rest = np.arange(fock.dim ** k)
        if kind in ("c", "a", "g"):
            rows.append((r[:, None] * rest.size + rest).ravel())
            cols.append((c[:, None] * rest.size + rest).ravel())
            data.append(np.repeat(vals, rest.size))
        else:
            rows.append((rest[:, None] * leg.shape[0] + r).ravel())
            cols.append((rest[:, None] * leg.shape[1] + c).ravel())
            data.append(np.tile(vals, rest.size))
        rows[-1] += fock.offsets[k + up]
        cols[-1] += fock.offsets[k + down]
    n = fock.total_dim
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(n, n))


def wick_by_recursion(fock, legs, mode=STRICT):
    """Psi via X(xi_1) Psi(rest) - <S xi_1, xi_2> Psi(tail)
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


def dense_twisted_norm(fock, a):
    """||G^{1/2} A G^{-1/2}||_2 with blockdiag((G^{+-1/2})^{x k}) dense."""
    g = sc.to_float_array(fock.gram)
    ev, vec = np.linalg.eigh(g)
    gh = (vec * np.sqrt(ev)) @ vec.conj().T
    ghi = (vec / np.sqrt(ev)) @ vec.conj().T
    half = np.zeros((fock.total_dim, fock.total_dim), dtype=complex)
    halfinv = np.zeros_like(half)
    bh = bhi = np.eye(1)
    for k in range(fock.L + 1):
        if k:
            bh, bhi = np.kron(bh, gh), np.kron(bhi, ghi)
        o, n = fock.offsets[k], fock.degree_dims[k]
        half[o:o + n, o:o + n] = bh
        halfinv[o:o + n, o:o + n] = bhi
    return float(np.linalg.norm(half @ sc.to_float_array(a) @ halfinv, 2))


# -- second quantization ------------------------------------------------------

def kron_powers(leg, L):
    """F(leg) = blockdiag(leg^{x k}, k = 0..L) as CSR.

    ``leg`` may be rectangular: F maps the truncated Fock space over its
    column space to the one over its row space, with 1 on the vacuum.
    """
    import scipy.sparse as sp
    leg = sc.to_float_array(leg)
    r, c = np.nonzero(leg)
    vals = leg[r, c]
    br, bc, bv = np.zeros(1, dtype=int), np.zeros(1, dtype=int), np.ones(1)
    rows, cols, data = [br], [bc], [bv]
    ro = co = 1
    for k in range(1, L + 1):
        br = (br[:, None] * leg.shape[0] + r).ravel()
        bc = (bc[:, None] * leg.shape[1] + c).ravel()
        bv = (bv[:, None] * vals).ravel()
        rows.append(br + ro)
        cols.append(bc + co)
        data.append(bv)
        ro, co = ro + leg.shape[0] ** k, co + leg.shape[1] ** k
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(ro, co))


def dilation_second_quantize(t, wick_terms, L, dilation):
    """F(p_N) W F(p_N)* with the Wick words W compiled on the Fock space
    over the whole dilation space L^2(M) + H_T + L^2(N)."""
    dil = dilation
    s_m = dil.l2m.smat_onb()
    terms = []
    for coeff, legs in wick_terms:
        legs = [np.asarray(x, dtype=complex) for x in legs]
        words = wick_words([dil.k_m @ x for x in legs],
                           [dil.k_m @ (s_m @ np.conj(x)) for x in legs],
                           [dil.pi_tilde(dil.l2m.from_onb(x)) for x in legs])
        terms += [(coeff, w) for w in words]
    op = FockOperator(FockSpace(trivial_algebra(dil.tilde_dim), L), terms,
                      PROJECTIVE)
    p_fock = kron_powers(dil.p_n, L)
    return (p_fock @ op.sparse() @ p_fock.conj().T).toarray()


# -- Gram pivots ----------------------------------------------------------------

def cofactor_det(m):
    """The determinant of a square list of Fractions, by cofactor expansion
    along the first row (the empty matrix has determinant 1)."""
    if not m:
        return 1
    return sum((-1) ** j * x * cofactor_det([row[:j] + row[j + 1:]
                                             for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def greedy_pivots(gram):
    """Column i is kept iff the principal block on the kept columns and i
    has a nonzero determinant."""
    kept = []
    for i in range(len(gram)):
        trial = kept + [i]
        if cofactor_det([[gram[r][c] for c in trial] for r in trial]):
            kept = trial
    return kept


# -- Cauchy transform -----------------------------------------------------------

def quadrature_cauchy(measure, z):
    """G(z) with the atoms summed and the density integrated adaptively.

    Real z inside the density's support gives the boundary value from
    above: minus the principal value of the integral of f(t)/(t - x),
    minus i pi f(x).
    """
    z = complex(z)
    total = sum(w / (z - t) for t, w in measure.atoms) + 0j
    if measure.density is None:
        return total
    tol = 1e-9
    f, (lo, hi) = density_function(measure.density)
    x, y = z.real, z.imag
    if y == 0 and lo < x < hi:
        pv = integrate.quad(f, lo, hi, weight="cauchy", wvar=x,
                            epsabs=tol, epsrel=tol, limit=200)[0]
        return total - pv - 1j * math.pi * f(x)
    re = integrate.quad(lambda t: (x - t) * f(t) / ((x - t) ** 2 + y * y),
                        lo, hi, epsabs=tol, epsrel=tol, limit=200)[0]
    im = integrate.quad(lambda t: -y * f(t) / ((x - t) ** 2 + y * y),
                        lo, hi, epsabs=tol, epsrel=tol, limit=200)[0]
    return total + re + 1j * im
