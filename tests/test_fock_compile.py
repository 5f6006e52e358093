"""Float Fock operators compiled from sparse letter blocks, against the
letter-by-letter interpreter and a dense Gram-twisted SVD in ``oracles``.
Spaces of at least ``DENSE_NORM_DIM`` dimensions take norm() through
ARPACK; smaller ones through its dense branch."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from freepoisson import _scalars as sc
from freepoisson.algebra import function_algebra, trivial_algebra
from freepoisson.fock import (DENSE_NORM_DIM, PROJECTIVE, STRICT,
                              FockOperator, FockSpace, _letter_matrix,
                              annihilation, creation, gauge, gns_algebra,
                              wick_embedding_In)
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alg", [
    trivial_algebra(2), function_algebra([0.5, 1.25, 2.0], mode=sc.FLOAT)],
    ids=["dim2", "dim3"])
def test_letter_blocks_are_canonical_csr(kind, alg):
    # written straight as sorted CSR arrays, bit for bit what scipy makes
    # of the COO triplets; every other payload entry is zero, so some leg
    # rows are short or empty
    rng = np.random.default_rng(4)
    d = alg.dim
    shape = (d, d) if kind in ("g", "gr") else (d,)
    payload = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    payload.ravel()[::2] = 0.0
    for L in (0, 1, 4):
        fock = FockSpace(alg, L)
        got = _letter_matrix(fock, (kind, payload))
        want = oracles.coo_letter_matrix(fock, (kind, payload))
        assert got.has_canonical_format
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.data, want.data)


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


@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["trivial", "function", "gns"]),
       real=st.booleans(), mode=st.sampled_from([STRICT, PROJECTIVE]))
def test_sparse_norm_matches_dense_svd(data, kind, real, mode):
    if kind == "trivial":
        alg, L = trivial_algebra(2), data.draw(st.integers(7, 8))
    elif kind == "function":
        weights = data.draw(st.lists(st.floats(0.25, 3), min_size=2,
                                     max_size=3))
        alg = function_algebra(weights, mode=sc.FLOAT)
        L = 7 if len(weights) == 2 else 5
    else:
        alg, L = gns_algebra(GNS_SPACE), 3
    fock = FockSpace(alg, L)
    assert fock.total_dim >= DENSE_NORM_DIM
    op = _draw_operator(data, fock, REAL if real else CPLX, mode)
    want = oracles.dense_twisted_norm(fock, op.sparse().toarray())
    assert abs(op.norm() - want) <= 1e-12 * max(1.0, want)


def test_sparse_norm_of_zero_operators():
    fock = FockSpace(trivial_algebra(2), 8)
    assert FockOperator(fock, [], PROJECTIVE).norm() == 0.0
    # cancelling words leave explicit zeros in the CSR
    x = creation(fock, np.array([1.0, 2.0]), PROJECTIVE)
    assert (x - x).sparse().nnz > 0
    assert (x - x).norm() == 0.0


@pytest.mark.parametrize("kind, alg, coeff, payload", [
    ("", trivial_algebra(2), 5e-254, None),
    ("", trivial_algebra(2), 2.2e-313j, None),
    ("ar", function_algebra([0.5, 1.0], mode=sc.FLOAT), 1.75,
     np.array([1.208239005174194e-298, 1.75])),
], ids=["tiny-identity", "subnormal-identity", "tiny-entry"])
def test_sparse_norm_of_tiny_entries(kind, alg, coeff, payload):
    # ARPACK iterates on A* A: unscaled, the first two underflow to a
    # zero Krylov vector, and the last stalls the restart
    fock = FockSpace(alg, 7)
    word = ((kind, payload),) if kind else ()
    op = FockOperator(fock, [(coeff, word)], PROJECTIVE)
    want = oracles.dense_twisted_norm(fock, op.sparse().toarray())
    assert want > 0
    assert abs(op.norm() - want) <= 1e-12 * want


def test_sparse_norm_when_arpack_finds_no_shift():
    # A* A of this right creation has a top eigenvalue of high
    # multiplicity: ARPACK's default Krylov space (20 vectors) applies no
    # shift and raises, and norm() retries in a larger one
    fock = FockSpace(function_algebra([2.872664225926311, 1.900024039181581],
                                      mode=sc.FLOAT), 7)
    xi = np.array([0.9836862193959992j, 0.3253497939276868])
    op = FockOperator(fock, [(1.900024039181581j, (("cr", xi),))], STRICT)
    want = oracles.dense_twisted_norm(fock, op.sparse().toarray())
    assert abs(op.norm() - want) <= 1e-12 * want


def test_sparse_norm_of_symmetric_operators():
    L = 8
    fock = FockSpace(trivial_algebra(2), L)
    xi = np.array([1.0, -1.0])
    # c(xi) + a(xi) is the Jacobi matrix of the free semicircle on the
    # chain xi^{x k}: its norm is 2 |xi| cos(pi / (L + 2))
    x = creation(fock, xi, PROJECTIVE) + annihilation(fock, xi, PROJECTIVE)
    want = 2 * np.sqrt(2) * np.cos(np.pi / (L + 2))
    assert abs(x.norm() - want) <= 1e-12 * want
    assert abs(x.norm() - oracles.dense_twisted_norm(fock, x.matrix())) \
        <= 1e-12 * want
    # the gauge by the projection onto xi kills every all-ones vector, so
    # a start vector of ones would leave ARPACK with nothing to iterate on
    proj = gauge(fock, np.outer(xi, xi) / 2, PROJECTIVE)
    assert not (proj.sparse() @ np.ones(fock.total_dim)).any()
    assert abs(proj.norm() - 1.0) <= 1e-12


def test_sparse_norm_is_deterministic():
    # a Wick embedding over the non-diagonal complex space, as criterion 8
    # takes it: the fixed start vector gives the identical float each call
    fock = FockSpace(gns_algebra(GNS_SPACE), 4)
    rng = np.random.default_rng(3)
    factors = [[rng.normal(size=(1, 1)),
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))]
               for _ in range(2)]
    op, first = wick_embedding_In(fock, factors)
    assert op.norm() == first


def test_sparse_norm_with_degenerate_top_singular_value():
    # A* A has rank 62 of 156 and a fourfold top eigenvalue.  Here the
    # last few ulps of ARPACK's result depend on where its work arrays
    # land in memory, so repeated calls agree only to a few ulps
    fock = FockSpace(gns_algebra(GNS_SPACE), 3)
    rng = np.random.default_rng(3)
    legs = [rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
            for _ in range(2)]
    x = FockOperator(fock, [(1.0, (("c", legs[0]), ("a", legs[1]))),
                            (0.5, (("g", np.outer(legs[1], legs[0])),))],
                     PROJECTIVE)
    want = oracles.dense_twisted_norm(fock, x.matrix())
    for _ in range(5):
        assert abs(x.norm() - want) <= 1e-14 * want
