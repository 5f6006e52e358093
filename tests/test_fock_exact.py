"""The exact Fock interpreter, which runs integer numerators over one
denominator and decodes each letter once per operator, against the
``Fraction`` reference interpreter in ``oracles``: the same values, of the
same type, and the same errors."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from freepoisson import _scalars as sc
from freepoisson.algebra import (PseudoHilbertAlgebra, direct_sum,
                                 function_algebra, trivial_algebra)
from freepoisson.errors import DomainError, OverflowError_, TruncationError
from freepoisson.fock import (PROJECTIVE, STRICT, FockOperator, FockSpace,
                              FockVector, field_X, gns_algebra, modular_ops,
                              right_field, wick)
from freepoisson.ncps import NcProbSpace, diag_space

KINDS = ("c", "cr", "a", "ar", "g", "gr")
# negative, zero and mixed-denominator values; a third of them zero
FRAC = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3,
                                             max_denominator=7))
WEIGHT = st.fractions(min_value=F(1, 5), max_value=3, max_denominator=7)
ERRORS = (DomainError, OverflowError_, TruncationError)


def _draw_algebra(data):
    kind = data.draw(st.sampled_from(
        ["function", "trivial", "direct_sum", "gns"]))
    weights = data.draw(st.lists(WEIGHT, min_size=1, max_size=3))
    if kind == "function":
        return function_algebra(weights, mode=sc.EXACT)
    if kind == "gns":
        return gns_algebra(diag_space(weights[:2]))
    # a positive-definite Gram with an off-diagonal entry when there is room
    gram = sc.zeros((len(weights), len(weights)), sc.EXACT)
    for i, w in enumerate(weights):
        gram[i, i] = w + 1
    if len(weights) > 1:
        gram[0, 1] = gram[1, 0] = data.draw(st.sampled_from(
            [F(0), F(1, 2), F(-1, 3)]))
    trivial = trivial_algebra(len(weights), sc.EXACT, gram=gram)
    if kind == "trivial":
        return trivial
    return direct_sum(function_algebra(weights[:1], mode=sc.EXACT), trivial)


def _vector(data, alg):
    return alg.vector(data.draw(st.lists(FRAC, min_size=alg.dim,
                                         max_size=alg.dim)))


def _draw_operator(data, fock):
    """A sum of random words in the six letters (dense gauge payloads),
    times a field and, over tracial algebras, a right field, whose gauge
    letters read their nonzeros from the structure constants."""
    alg, d = fock.alg, fock.dim

    def payload(kind):
        if kind in ("g", "gr"):
            return sc.array([data.draw(st.lists(FRAC, min_size=d,
                                                max_size=d))
                             for _ in range(d)], sc.EXACT)
        return _vector(data, alg)

    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        word = data.draw(st.lists(st.sampled_from(KINDS), max_size=3))
        terms.append((data.draw(FRAC), tuple((k, payload(k)) for k in word)))
    mode = data.draw(st.sampled_from([STRICT, PROJECTIVE]))
    op = FockOperator(fock, terms, mode)
    if data.draw(st.booleans()):
        op = field_X(fock, _vector(data, alg), mode) * op
    if alg.is_tracial() and data.draw(st.booleans()):
        op = op + right_field(fock, _vector(data, alg), mode)
    return op


def _draw_vector(data, fock):
    keys = data.draw(st.lists(st.integers(0, fock.L).flatmap(
        lambda k: st.tuples(*[st.integers(0, fock.dim - 1)] * k)),
        max_size=6))
    return {key: data.draw(FRAC) for key in keys}


def _same(lib, ref):
    """Equal values, each a Fraction."""
    if isinstance(lib, dict):
        assert lib == ref
        assert all(type(v) is F for v in lib.values())
    else:
        assert lib == ref and type(lib) is F


def _agree(lib_call, ref_call):
    """The same value or the same error from both interpreters."""
    try:
        ref = ref_call()
    except ERRORS as e:
        with pytest.raises(type(e)):
            lib_call()
        return
    _same(lib_call(), ref)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_interpreter_matches_fraction_reference(data):
    alg = _draw_algebra(data)
    fock = FockSpace(alg, data.draw(st.integers(1, 3)))
    op = _draw_operator(data, fock)
    u, v = _draw_vector(data, fock), _draw_vector(data, fock)
    vu, vv = FockVector(fock, u), FockVector(fock, v)
    _agree(lambda: op.apply(vu).entries, lambda: oracles.ref_apply(op, u))
    _same(fock.inner(vu, vv), oracles.ref_inner(fock, u, v))
    legs = [_vector(data, alg)
            for _ in range(data.draw(st.integers(0, fock.L + 1)))]
    _agree(lambda: fock.vector_from_tensor(legs).entries,
           lambda: oracles.ref_vector_from_tensor(fock, legs))
    other = _draw_operator(data, fock)
    top = data.draw(st.integers(0, fock.L))
    assert op.is_close(other, max_input_degree=top) == \
        oracles.ref_is_close(op, other, top)
    assert op.is_close(op + other.scale(0), max_input_degree=top)
    for gmap in modular_ops(fock):
        _same(gmap.apply(vu).entries, oracles.ref_graded_apply(gmap, u))


def test_unknown_letter_kind_raises_when_applied():
    alg = function_algebra([F(1, 2)])
    fk = FockSpace(alg, 2)
    op = FockOperator(fk, [(F(1), (("x", alg.basis(0)),))])
    with pytest.raises(DomainError):
        op.apply(fk.vacuum())


def test_exact_is_close_decodes_each_annihilation_payload_once(monkeypatch):
    # criterion 07's shape: a dim-2 rational GNS algebra at L 6 and a 3-leg
    # Wick operator against the recursion
    space = diag_space([F(1, 3), F(1, 2)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 6)
    legs = [alg.vector(x) for x in
            ([F(1, 2), F(-2, 3)], [F(3), F(0)], [F(-1, 4), F(5, 3)])]
    closed, rec = wick(fk, legs), oracles.wick_by_recursion(fk, legs)
    payloads = {id(p) for op in (closed, rec) for _, word in op.terms
                for kind, p in word if kind in ("a", "ar")}
    calls = []
    gram_row = PseudoHilbertAlgebra.gram_row

    def counted(self, v):
        calls.append(id(v))
        return gram_row(self, v)

    monkeypatch.setattr(PseudoHilbertAlgebra, "gram_row", counted)
    assert closed.is_close(rec, max_input_degree=fk.L - 3)
    assert sorted(calls) == sorted(payloads)
    # the projective copies share the decoded letters, so comparing the
    # same operators again decodes nothing
    assert closed.is_close(rec, max_input_degree=fk.L - 3)
    assert len(calls) == len(payloads)


def test_integer_numerators_in_lowest_terms():
    alg = function_algebra([F(1, 3), F(2, 5)])
    fk = FockSpace(alg, 4)
    v = FockVector(fk, {(0,): F(2, 6), (1, 0): F(-4, 9), (): F(0)})
    assert v.entries == {(0,): F(1, 3), (1, 0): F(-4, 9), (): F(0)}
    assert (v + v.scale(-1)).is_close(FockVector(fk))
    x = field_X(fk, alg.vector([F(3, 4), F(-1, 6)]))
    out = x.apply(x.apply(v))
    assert math.gcd(out._den, *out._num.values()) == 1
    assert all(type(c) is int for c in out._num.values())


def test_gauge_letters_of_fields_read_their_own_side():
    # M_2 under the trace: tracial but not commutative, so pi_l != pi_r and
    # a right field's gauge letter must read right multiplication
    alg = gns_algebra(NcProbSpace([2], [[[0.5, 0], [0, 0.5]]], sc.FLOAT))
    fk = FockSpace(alg, 3)
    rng = np.random.default_rng(3)
    eta, xi, zeta = (alg.vector(rng.normal(size=4) + 1j * rng.normal(size=4))
                     for _ in range(3))
    v = fk.vector_from_tensor([xi, zeta])
    for op in (right_field(fk, eta), field_X(fk, eta)):
        lib = op.apply(v).entries
        ref = oracles.ref_apply(op, v.entries)
        assert lib.keys() == ref.keys()
        assert all(abs(lib[k] - ref[k]) < 1e-12 for k in ref)
