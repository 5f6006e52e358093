"""Reference implementations, for tests only.

Each lattice oracle sums over every noncrossing partition (or pair of
them) that its definition names, with no recursion shared with the
library, so the library's faster forms can be compared against it.  The
dense oracles compute the algebra primitives from the full structure
matrices, where the library reads only their nonzero entries.
"""

import numpy as np

from freepoisson import _scalars as sc
from freepoisson.ncpart import (enumerate_nc, is_noncrossing,
                                refinement_leq)
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

def dense_pi_l(alg, v):
    out = sc.zeros((alg.dim, alg.dim), alg.mode)
    for i in range(alg.dim):
        if v[i] != 0:
            out = out + v[i] * alg.lmul[i]
    return out


def dense_pi_r(alg, v):
    out = sc.zeros((alg.dim, alg.dim), alg.mode)
    for i in range(alg.dim):
        out[:, i] = alg.lmul[i] @ v
    return out


def dense_s_apply(alg, v):
    return alg.smat @ sc.conj(v)


def dense_multiply(alg, u, v):
    return dense_pi_l(alg, u) @ v


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
