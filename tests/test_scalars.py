"""The symmetric elimination behind every Gram decision: pivots, the PSD
gate and exact solves."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freepoisson import _scalars as sc
from freepoisson.errors import NotPsdError

from oracles import greedy_pivots

_FRAC = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _gram(draw, shift=0):
    """G = B^T D B (+ shift * I) for a rational k x n matrix B and a
    positive diagonal D, so rank(G) <= k when shift is 0."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    b = np.array(draw(st.lists(st.lists(_FRAC, min_size=n, max_size=n),
                               min_size=k, max_size=k)), dtype=object)
    d = draw(st.lists(st.fractions(min_value=F(1, 4), max_value=4,
                                   max_denominator=4),
                      min_size=k, max_size=k))
    g = b.T @ np.diag(np.array(d, dtype=object)) @ b
    return g + F(shift) * np.identity(n, dtype=object), k


@settings(max_examples=80, deadline=None)
@given(_gram(), st.data())
def test_pivots_match_greedy_determinants(gk, data):
    g, k = gk
    want = greedy_pivots([list(row) for row in g])
    assert sc.gram_pivots(g, sc.EXACT) == want
    assert len(want) <= k
    # pushing one diagonal entry below zero makes G indefinite
    j = data.draw(st.integers(0, len(g) - 1))
    bad = g.copy()
    bad[j, j] -= max(g.diagonal()) + 1
    with pytest.raises(NotPsdError):
        sc.gram_pivots(bad, sc.EXACT)


@settings(max_examples=60, deadline=None)
@given(_gram(shift=F(1, 2)), st.data())
def test_solve_gram_is_exact_for_vectors_and_matrices(gk, data):
    g, n = gk[0], len(gk[0])
    vec = np.array(data.draw(st.lists(_FRAC, min_size=n, max_size=n)),
                   dtype=object)
    cols = data.draw(st.integers(0, 3))
    mat = np.array(data.draw(st.lists(
        st.lists(_FRAC, min_size=cols, max_size=cols),
        min_size=n, max_size=n)), dtype=object).reshape(n, cols)
    for rhs in (vec, mat):
        c = sc.solve_gram(g, rhs, sc.EXACT)
        assert c.shape == rhs.shape
        assert all(type(x) is F for x in c.ravel())
        assert (g @ c == rhs).all()


def test_solve_gram_rejects_a_singular_gram():
    with pytest.raises(NotPsdError):
        sc.solve_gram([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)], sc.EXACT)


def test_float_pivots_are_relative_to_each_column():
    # the Hankel Gram of three atoms (t, w), whose diagonal runs from 914
    # to 5.9e14: its first three columns are pivots, although 914 is below
    # 1e-9 times the largest diagonal entry
    atoms = [(2.0, 1.5), (-4.0, 0.5), (30.0, 1.0)]
    g = np.array([[sum(w * t ** (i + j) for t, w in atoms)
                   for j in range(1, 6)] for i in range(1, 6)])
    assert sc.gram_pivots(g, sc.FLOAT) == [0, 1, 2]
    assert sc.gram_pivots(np.zeros((2, 2)), sc.FLOAT) == []
    with pytest.raises(NotPsdError):
        sc.gram_pivots([[0.0, 1e-3], [1e-3, 1.0]], sc.FLOAT)
