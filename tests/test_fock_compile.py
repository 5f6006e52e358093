"""Float Fock operators compiled from sparse letter blocks, against the
letter-by-letter interpreter and a dense Gram-twisted SVD in ``oracles``."""

from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from freepoisson import _scalars as sc
from freepoisson.algebra import function_algebra, trivial_algebra
from freepoisson.fock import (PROJECTIVE, STRICT, FockOperator, FockSpace,
                              gns_algebra)
from freepoisson.ncps import NcProbSpace, diag_space

KINDS = ("c", "cr", "a", "ar", "g", "gr")
REAL = st.floats(min_value=-2, max_value=2)
CPLX = st.builds(complex, REAL, REAL)
FRAC = st.fractions(min_value=-3, max_value=3, max_denominator=5)
# one 1x1 block and one 2x2 block with a non-diagonal complex density
GNS_SPACE = NcProbSpace(
    [1, 2], [[[0.7]], [[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.6]]], mode=sc.FLOAT)


def _float_algebra(data, kind):
    if kind == "trivial":
        return trivial_algebra(data.draw(st.integers(1, 3)))
    if kind == "function":
        weights = data.draw(st.lists(st.floats(0.25, 3), min_size=1,
                                     max_size=3))
        return function_algebra(weights, mode=sc.FLOAT)
    return gns_algebra(GNS_SPACE)


def _draw_operator(data, fock, scalars, mode):
    """0-3 terms, each a word of 0-4 letters of any of the six kinds."""
    d = fock.dim

    def payload(kind):
        n = d * d if kind in ("g", "gr") else d
        vals = data.draw(st.lists(scalars, min_size=n, max_size=n))
        shape = (d, d) if kind in ("g", "gr") else (d,)
        return sc.array(np.array(vals, dtype=object).reshape(shape),
                        fock.mode)

    terms = []
    for _ in range(data.draw(st.integers(0, 3))):
        word = data.draw(st.lists(st.sampled_from(KINDS), max_size=4))
        terms.append((data.draw(scalars),
                      tuple((k, payload(k)) for k in word)))
    return FockOperator(fock, terms, mode)


def _assert_close(got, want):
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["trivial", "function", "gns"]),
       L=st.integers(0, 3), real=st.booleans(),
       mode=st.sampled_from([STRICT, PROJECTIVE]))
def test_float_matrix_and_norm_match_interpreter(data, kind, L, real, mode):
    alg = _float_algebra(data, kind)
    fock = FockSpace(alg, L)
    # real payloads on a real diagonal Gram give a real twisted matrix,
    # so norm() takes its real SVD branch; complex ones the complex branch
    op = _draw_operator(data, fock, REAL if real else CPLX, mode)
    want = oracles.interpreted_matrix(op)
    _assert_close(op.matrix(), want)
    _assert_close(op.sparse().toarray(), want)
    norm = oracles.dense_twisted_norm(fock, want)
    assert abs(op.norm() - norm) <= 1e-12 * max(1.0, norm)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["function", "gns"]),
       L=st.integers(0, 2), mode=st.sampled_from([STRICT, PROJECTIVE]))
def test_exact_matrix_equals_interpreter(data, kind, L, mode):
    weights = data.draw(st.lists(st.fractions(min_value=F(1, 4), max_value=3,
                                              max_denominator=5), min_size=1,
                                 max_size=2))
    alg = (function_algebra(weights) if kind == "function"
           else gns_algebra(diag_space(weights)))
    fock = FockSpace(alg, L)
    op = _draw_operator(data, fock, FRAC, mode)
    got = op.matrix()
    assert got.dtype == object
    assert all(isinstance(x, F) for x in got.reshape(-1))
    assert bool(np.all(got == oracles.interpreted_matrix(op)))


def test_operator_without_terms_is_zero():
    fock = FockSpace(gns_algebra(GNS_SPACE), 2)
    op = FockOperator(fock, [], PROJECTIVE)
    assert op.sparse().shape == (fock.total_dim, fock.total_dim)
    assert op.sparse().nnz == 0
    assert not op.matrix().any()
    assert op.norm() == 0.0
