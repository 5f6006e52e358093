"""Algebra primitives, which read only the nonzero structure constants,
against the dense structure-matrix formulas in ``oracles``."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from freepoisson import _scalars as sc
from freepoisson.algebra import (PseudoHilbertAlgebra, direct_sum,
                                 function_algebra, trivial_algebra)
from freepoisson.fock import FockSpace, FockVector, gns_algebra
from freepoisson.ncps import NcProbSpace

FRAC = st.fractions(min_value=-3, max_value=3, max_denominator=5)
WEIGHT = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=5)
REAL = st.floats(min_value=-2, max_value=2)
CPLX = st.builds(complex, REAL, REAL)
# half the coordinates of a drawn vector are zero, so sparsity shows
SCALARS = {sc.EXACT: st.one_of(st.just(F(0)), FRAC),
           sc.FLOAT: st.one_of(st.just(0j), CPLX)}


def _draw_matrix(data, n, elems):
    return [data.draw(st.lists(elems, min_size=n, max_size=n))
            for _ in range(n)]


def _draw_algebra(data, kind):
    if kind == "function":
        weights = data.draw(st.lists(WEIGHT, min_size=1, max_size=4))
        return function_algebra(weights, mode=sc.EXACT)
    if kind == "direct_sum":
        weights = data.draw(st.lists(WEIGHT, min_size=1, max_size=3))
        gauss = data.draw(st.lists(WEIGHT, min_size=1, max_size=2))
        gram = sc.zeros((len(gauss), len(gauss)), sc.EXACT)
        for i, w in enumerate(gauss):
            gram[i, i] = w
        return direct_sum(function_algebra(weights, mode=sc.EXACT),
                          trivial_algebra(len(gauss), sc.EXACT, gram=gram))
    if kind == "gns":
        # one 1x1 block and one 2x2 block with a non-diagonal density
        m = np.array(_draw_matrix(data, 2, CPLX))
        rho = m @ m.conj().T + 0.5 * np.eye(2)
        rho = 0.5 * (rho + rho.conj().T)
        w = data.draw(st.floats(min_value=0.25, max_value=3))
        return gns_algebra(NcProbSpace([1, 2], [[[w]], rho], mode=sc.FLOAT))
    # a random positive-definite Gram with random sparse S and lmul; the
    # comparison needs no algebra axioms
    n = data.draw(st.integers(1, 3))
    b = np.array(_draw_matrix(data, n, CPLX))
    gram = np.eye(n) + 0.25 * b @ b.conj().T
    gram = 0.5 * (gram + gram.conj().T)
    sparse = SCALARS[sc.FLOAT]
    return PseudoHilbertAlgebra(
        gram=gram, smat=_draw_matrix(data, n, sparse),
        lmul=[_draw_matrix(data, n, sparse) for _ in range(n)],
        mode=sc.FLOAT)


def _draw_vector(data, alg):
    coords = data.draw(st.lists(SCALARS[alg.mode], min_size=alg.dim,
                                max_size=alg.dim))
    return alg.vector(coords)


def _assert_same(got, want, mode):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if mode == sc.EXACT:
        assert got.dtype == object
        assert all(isinstance(x, F) for x in got.reshape(-1))
        assert bool(np.all(got == want))
    else:
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        assert float(np.abs(got - want).max(initial=0.0)) <= 1e-12 * scale


KINDS = ["function", "direct_sum", "gns", "random_gram"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_primitives_match_dense_formulas(kind, data):
    alg = _draw_algebra(data, kind)
    u, v = _draw_vector(data, alg), _draw_vector(data, alg)
    mode = alg.mode
    _assert_same(alg.pi_l(u), oracles.dense_pi_l(alg, u), mode)
    _assert_same(alg.pi_r(u), oracles.dense_pi_r(alg, u), mode)
    _assert_same(alg.s_apply(u), oracles.dense_s_apply(alg, u), mode)
    _assert_same(alg.multiply(u, v), oracles.dense_multiply(alg, u, v), mode)
    _assert_same(alg.inner(u, v), oracles.dense_inner(alg, u, v), mode)
    _assert_same(alg.gram_row(u), oracles.dense_gram_row(alg, u), mode)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fock_inner_matches_dense_gram(kind, data):
    alg = _draw_algebra(data, kind)
    fock = FockSpace(alg, 3)
    index = st.integers(0, alg.dim - 1)
    pool = data.draw(st.lists(
        st.integers(0, 3).flatmap(
            lambda k: st.tuples(*[index] * k)),
        min_size=1, max_size=8))
    coeff = SCALARS[alg.mode]
    u = FockVector(fock, {key: data.draw(coeff) for key in pool})
    # v shares part of u's support, so the join finds matches
    v = FockVector(fock, {key: data.draw(coeff) for key in pool
                          if data.draw(st.booleans())})
    _assert_same(fock.inner(u, v), oracles.dense_fock_inner(u, v), alg.mode)
