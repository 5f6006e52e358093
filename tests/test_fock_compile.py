"""Float Fock operators compiled from sparse letter blocks, against the
letter-by-letter interpreter and a dense Gram-twisted SVD in ``oracles``.
Spaces of at least ``DENSE_NORM_DIM`` dimensions take norm() through
ARPACK; smaller ones through its dense branch.  Operator comparison, in
both modes, against column slices of the interpreted matrix, and the
graded maps against Kronecker powers of their leg matrix."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from freepoisson import _scalars as sc
from freepoisson.algebra import function_algebra, trivial_algebra
from freepoisson.errors import DomainError
from freepoisson.fock import (DENSE_NORM_DIM, PROJECTIVE, STRICT,
                              FockOperator, FockSpace, FockVector, GradedMap,
                              _letter_matrix, annihilation, creation, gauge,
                              gns_algebra, modular_ops, wick,
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


def _exact_algebra(data, kind):
    weights = data.draw(st.lists(st.fractions(min_value=F(1, 4), max_value=3,
                                              max_denominator=5), min_size=1,
                                 max_size=2))
    return (function_algebra(weights) if kind == "function"
            else gns_algebra(diag_space(weights)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["trivial", "function", "gns"]),
       exact=st.booleans(), L=st.integers(0, 3),
       pair=st.sampled_from(["equal", "other", "high"]),
       modes=st.tuples(st.sampled_from([STRICT, PROJECTIVE]),
                       st.sampled_from([STRICT, PROJECTIVE])))
def test_is_close_matches_interpreted_column_slices(data, kind, exact, L,
                                                    pair, modes):
    if exact:
        alg = _exact_algebra(data, "function" if kind == "trivial" else kind)
    else:
        alg = _float_algebra(data, kind)
    fock = FockSpace(alg, L)
    scalars = FRAC if exact else CPLX
    op = _draw_operator(data, fock, scalars, modes[0])
    # "equal": the same terms in reversed order, the same operator summed
    # in another order; "other": an independent draw; "high": op plus j
    # annihilations by basis vectors, which vanish exactly on the inputs
    # of degree below j
    terms = op.terms[::-1]
    if pair == "other":
        terms = _draw_operator(data, fock, scalars, modes[1]).terms
    elif pair == "high":
        j = data.draw(st.integers(1, max(L, 1)))
        down = tuple(("a", alg.basis(data.draw(st.integers(0, alg.dim - 1))))
                     for _ in range(j))
        terms = op.terms + [(sc.scalar_one(fock.mode), down)]
    other = FockOperator(fock, terms, modes[1])
    diff = oracles.interpreted_matrix(op) - oracles.interpreted_matrix(other)
    tol = 1e-10
    for k in list(range(L + 1)) + [None]:
        top = L if k is None else k
        cols = diff[:, :fock.offsets[top] + fock.degree_dims[top]]
        if exact:
            want = all(x == 0 for x in cols.reshape(-1))
        else:
            gap = float(np.abs(cols).max(initial=0.0))
            # a verdict this close to tol depends on the summation order
            assume(abs(gap - tol) > 1e-6 * tol)
            want = gap <= tol
        assert op.is_close(other, tol=tol, max_input_degree=k) == want
        if pair == "equal":
            assert want


def test_exact_operators_have_no_dense_matrix():
    alg = function_algebra([F(1, 2), F(3, 4)])
    fock = FockSpace(alg, 2)
    op = creation(fock, alg.vector([F(1), F(2, 3)]), PROJECTIVE)
    with pytest.raises(DomainError, match="is_close"):
        op.matrix()
    assert op.is_close(op.adjoint().adjoint())


def _reversal(fock):
    """Index array p with (R v)[i] = v[p[i]], R reversing the legs."""
    p = np.empty(fock.total_dim, dtype=int)
    for idx in fock.basis_tuples():
        p[fock.index(idx)] = fock.index(idx[::-1])
    return p


@settings(max_examples=40, deadline=None)
@given(data=st.data(), L=st.integers(0, 3), modular=st.booleans())
def test_graded_map_matches_kron_powers(data, L, modular):
    if modular:
        fock = FockSpace(gns_algebra(GNS_SPACE), min(L, 2))
        maps = modular_ops(fock)
    else:
        fock = FockSpace(trivial_algebra(data.draw(st.integers(1, 3))), L)
        d = fock.dim
        vals = data.draw(st.lists(st.sampled_from([0.0, 0.0, 1.0]) | CPLX,
                                  min_size=d * d, max_size=d * d))
        leg = np.array(vals, dtype=complex).reshape(d, d)
        maps = [GradedMap(fock, leg, reverse=data.draw(st.booleans()),
                          antilinear=data.draw(st.booleans()))]
    keys = data.draw(st.lists(st.sampled_from(list(fock.basis_tuples())),
                              unique=True, max_size=12))
    v = FockVector(fock, {key: data.draw(CPLX) for key in keys})
    perm = _reversal(fock)
    for g in maps:
        x = v.dense()
        x = x[perm] if g.reverse else x
        x = np.conj(x) if g.antilinear else x
        want = oracles.kron_powers(g.leg_matrix, fock.L) @ x
        _assert_close(g.apply(v).dense(), want)


def test_operator_without_terms_is_zero():
    fock = FockSpace(gns_algebra(GNS_SPACE), 2)
    op = FockOperator(fock, [], PROJECTIVE)
    assert op.sparse().shape == (fock.total_dim, fock.total_dim)
    assert op.sparse().nnz == 0
    assert not op.matrix().any()
    assert op.norm() == 0.0


def test_norm_builds_each_distinct_letter_once(monkeypatch):
    # the norm transports each distinct letter once, so the 7 words of a
    # 3-leg Wick operator share 9 letter blocks: one creation, one
    # annihilation and one gauge letter per leg
    import freepoisson.fock as fock_mod
    built, build = [], fock_mod._letter_matrix
    monkeypatch.setattr(fock_mod, "_letter_matrix",
                        lambda f, letter: built.append(letter[0])
                        or build(f, letter))
    rng = np.random.default_rng(3)
    legs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(3)]
    op = wick(FockSpace(gns_algebra(GNS_SPACE), 3), legs, PROJECTIVE)
    assert op.norm() > 0
    assert sorted(built) == ["a"] * 3 + ["c"] * 3 + ["g"] * 3


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
