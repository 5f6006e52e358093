"""Truncated Fock machinery: GNS data, fields, Wick calculus, modular maps,
right fields, the embedding norm bound, and truncation semantics."""

import random
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freepoisson import _scalars as sc
from freepoisson.algebra import function_algebra, trivial_algebra
from freepoisson.errors import (DomainError, NotTracialError,
                                OverflowError_, ShapeError, SizeLimitError,
                                TruncationError)
from freepoisson.fock import (MAX_TRUNCATION, PROJECTIVE, STRICT,
                              FockOperator, FockSpace, FockVector,
                              annihilation, creation, field_X, field_Y, gauge,
                              gns_algebra, haagerup_bound, identity,
                              modular_ops, right_field, vacuum_moment, wick,
                              wick_embedding_In, wick_multiply,
                              wick_sum_operator)
from freepoisson.ncpart import enumerate_nc
from freepoisson.ncps import NcProbSpace, diag_space
from freepoisson.quantize import L2Space
from oracles import gns_modular_units, wick_by_recursion


def rand_frac(rng, lo=-3, hi=3, den=3):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def rational_algebra(rng, dim=2):
    space = diag_space([rand_frac(rng, 1, 3) for _ in range(dim)])
    return space, gns_algebra(space)


def extract_cumulant(ops, fock):
    """Multilinear cumulant of the given operator word via the recursion."""
    cache = {}

    def mom(idx):
        return vacuum_moment([ops[i] for i in idx])

    def rec(idx):
        if idx in cache:
            return cache[idx]
        total = mom(idx)
        for pi in enumerate_nc(len(idx)):
            if len(pi) == 1:
                continue
            term = 1
            for blk in pi.blocks:
                term = term * rec(tuple(idx[v - 1] for v in blk))
            total = total - term
        cache[idx] = total
        return total

    return rec(tuple(range(len(ops))))


# -- GNS algebra --------------------------------------------------------------

def test_gns_trivial_scalar():
    space = diag_space([F(1)])
    alg = gns_algebra(space)
    assert alg.dim == 1
    assert alg.gram[0, 0] == 1
    assert alg.smat[0, 0] == 1
    assert alg.is_tracial()
    alg.validate()


def test_gns_diagonal_tracial():
    space = diag_space([F(1, 3), F(2, 3)])
    alg = gns_algebra(space)
    assert alg.gram[0, 0] == F(1, 3) and alg.gram[1, 1] == F(2, 3)
    assert alg.is_tracial()
    alg.validate()


def test_gns_matrix_block_modular_data():
    space = NcProbSpace([2], [np.diag([1 / 3, 2 / 3])], mode=sc.FLOAT)
    alg = gns_algebra(space)
    alg.validate()
    # Delta eta(e_12) = (rho_1/rho_2) eta(e_12) = (1/2) eta(e_12)
    e12 = alg.eta(space.element([[[0, 1], [0, 0]]]))
    out = sc.to_float_array(alg.delta) @ sc.to_float_array(e12)
    assert np.allclose(out, 0.5 * sc.to_float_array(e12))
    ev = sorted(np.linalg.eigvals(sc.to_float_array(alg.delta)).real)
    assert np.allclose(ev, [0.5, 1.0, 1.0, 2.0])
    # S = J Delta^{1/2} as antilinear maps
    d = sc.to_float_array(alg.delta)
    evd, vec = np.linalg.eigh(0.5 * (d + d.conj().T))
    dhalf = (vec * np.sqrt(evd)) @ vec.conj().T
    lhs = sc.to_float_array(alg.smat)
    rhs = sc.to_float_array(alg.jmat) @ np.conj(dhalf)
    assert np.allclose(lhs, rhs)


def random_density(data, d):
    """A complex, generally non-diagonal positive definite d x d density."""
    re = data.draw(st.lists(st.floats(-1, 1), min_size=d * d, max_size=d * d))
    im = data.draw(st.lists(st.floats(-1, 1), min_size=d * d, max_size=d * d))
    a = np.reshape(re, (d, d)) + 1j * np.reshape(im, (d, d))
    return a @ a.conj().T + 0.2 * np.eye(d)


def assert_rel_close(got, want, rtol):
    scale = max(1.0, float(np.abs(want).max()))
    assert float(np.abs(got - want).max()) <= rtol * scale


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gns_closed_forms_match_per_unit_oracle(data):
    dims = data.draw(st.sampled_from([[1, 1], [2], [2, 1], [3]]))
    space = NcProbSpace(dims, [random_density(data, d) for d in dims],
                        mode=sc.FLOAT)
    alg = gns_algebra(space)
    delta, jmat = gns_modular_units(space)
    assert_rel_close(alg.delta, delta, 1e-13)
    assert_rel_close(alg.jmat, jmat, 1e-13)
    alg.validate()

    l2 = L2Space(space)
    jo = l2.jmat_onb()
    # Delta is positive in the orthonormal coordinates; S = J Delta^{1/2}
    d_onb = l2.linear_map_onb(alg.delta)
    ev, vec = np.linalg.eigh(0.5 * (d_onb + d_onb.conj().T))
    assert ev.min() > 0
    dhalf = (vec * np.sqrt(ev)) @ vec.conj().T
    assert_rel_close(l2.smat_onb(), jo @ np.conj(dhalf), 1e-10)
    # J is an antiunitary involution there
    assert_rel_close(jo @ np.conj(jo), np.eye(l2.dim), 1e-10)
    assert_rel_close(jo.conj().T @ jo, np.eye(l2.dim), 1e-10)

    # L2Space is the Cholesky transport of the core
    assert_rel_close(l2.chol @ l2.chol.conj().T, alg.gram, 1e-13)
    assert_rel_close(l2.smat_onb(), l2.antilinear_map_onb(alg.smat), 1e-13)
    assert_rel_close(l2.jmat_onb(), l2.antilinear_map_onb(alg.jmat), 1e-13)
    x = [random_density(data, d) - 0.5j * np.eye(d) for d in dims]
    assert_rel_close(l2.lmult_onb(x),
                     l2.linear_map_onb(alg.pi_l(alg.eta(x))), 1e-13)


def test_gns_rejects_non_faithful():
    with pytest.raises(Exception):
        NcProbSpace([1, 1], [[[1]], [[0]]], mode=sc.FLOAT)


# -- fields -------------------------------------------------------------------

def test_trivial_algebra_field_is_semicircular():
    alg = trivial_algebra(1, mode=sc.FLOAT)
    fk = FockSpace(alg, 6)
    x = field_X(fk, [1.0])
    moms = [vacuum_moment([x] * n) for n in range(1, 7)]
    assert np.allclose([complex(m).real for m in moms], [0, 1, 0, 2, 0, 5])


def test_field_applied_to_vacuum_is_the_vector():
    rng = random.Random(0)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 4)
    xi = alg.vector([F(2, 3), F(-1, 2)])
    out = field_X(fk, xi).apply(fk.vacuum())
    assert out.entries == {(0,): F(2, 3), (1,): F(-1, 2)}


def test_poisson_field_moments():
    space = diag_space([F(1)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 5)
    y = field_Y(fk, space.identity())
    moms = [vacuum_moment([y] * n) for n in range(1, 5)]
    assert moms == [F(1), F(2), F(5), F(14)]


def test_poisson_field_rate_lambda():
    lam = F(3, 2)
    space = diag_space([lam])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 6)
    y = field_Y(fk, space.identity())
    from freepoisson.ncps import CumulantFunctional, moments_from_cumulants
    cf = CumulantFunctional.constant(lam, 6)
    for n in range(1, 7):
        assert vacuum_moment([y] * n) == \
            moments_from_cumulants(cf, ("x",) * n)


def test_field_Y_zero():
    space = diag_space([F(1, 2), F(1, 2)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 3)
    zero = space.element([[[0]], [[0]]])
    out = field_Y(fk, zero).apply(fk.vacuum())
    assert out.entries == {}


def test_joint_cumulants_of_Y_are_weight_moments():
    rng = random.Random(7)
    space = diag_space([F(1, 3), F(1, 2)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 6)
    xs = [space.element([[[rand_frac(rng)]], [[rand_frac(rng)]]])
          for _ in range(5)]
    ops = [field_Y(fk, x) for x in xs]
    from freepoisson.ncps import moment
    got = extract_cumulant(ops, fk)
    assert got == moment(space, xs)


def test_joint_cumulants_of_X():
    rng = random.Random(13)
    space, alg = rational_algebra(rng, dim=2)
    fk = FockSpace(alg, 6)
    xis = [alg.vector([rand_frac(rng) for _ in range(alg.dim)])
           for _ in range(4)]
    ops = [field_X(fk, xi) for xi in xis]
    # R_1 = 0; R_n = <S xi_1, xi_2 ... xi_n>
    assert vacuum_moment([ops[0]]) == 0
    got = extract_cumulant(ops, fk)
    prod = xis[1]
    for z in xis[2:]:
        prod = alg.multiply(prod, z)
    assert got == alg.inner(alg.s_apply(xis[0]), prod)


def test_vacuum_moments_equal_nc_sums_random_words():
    rng = random.Random(21)
    space, alg = rational_algebra(rng, dim=3)
    fk = FockSpace(alg, 5)
    xis = [alg.vector([rand_frac(rng) for _ in range(alg.dim)])
           for _ in range(3)]
    ops = {i: field_X(fk, xi) for i, xi in enumerate(xis)}

    def r_block(idx):
        if len(idx) < 2:
            return F(0)
        prod = xis[idx[1]]
        for i in idx[2:]:
            prod = alg.multiply(prod, xis[i])
        return alg.inner(alg.s_apply(xis[idx[0]]), prod)

    for n in range(1, 6):
        for word in [tuple(rng.randrange(3) for _ in range(n))
                     for _ in range(3)]:
            lhs = vacuum_moment([ops[i] for i in word])
            rhs = F(0)
            for pi in enumerate_nc(n):
                term = F(1)
                for blk in pi.blocks:
                    term *= r_block(tuple(word[v - 1] for v in blk))
                rhs += term
            assert lhs == rhs, (word,)


# -- elementary operators ------------------------------------------------------

def test_annihilation_creation_pairing():
    rng = random.Random(2)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 3)
    xi = alg.vector([rand_frac(rng), rand_frac(rng)])
    eta = alg.vector([rand_frac(rng), rand_frac(rng)])
    got = vacuum_moment([annihilation(fk, xi), creation(fk, eta)])
    assert got == alg.inner(xi, eta)


def test_empty_word_moment():
    assert vacuum_moment([]) == 1


def test_fock_cumulant_theorem_order_n():
    rng = random.Random(31)
    space, alg = rational_algebra(rng)
    for n in range(2, 6):
        fk = FockSpace(alg, n)
        xi = alg.vector([rand_frac(rng), rand_frac(rng)])
        eta = alg.vector([rand_frac(rng), rand_frac(rng)])
        ts = [sc.array([[rand_frac(rng) for _ in range(2)] for _ in range(2)],
                       sc.EXACT) for _ in range(n - 2)]
        ops = [annihilation(fk, xi)] + [gauge(fk, t) for t in ts] + \
            [creation(fk, eta)]
        got = extract_cumulant(ops, fk)
        prod = eta
        for t in reversed(ts):
            prod = t @ prod
        assert got == alg.inner(xi, prod)


def test_fock_cumulants_vanish_on_misplaced_patterns():
    rng = random.Random(33)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 5)
    xi = alg.vector([F(1), F(1, 2)])
    t = sc.array([[F(1), F(0)], [F(1, 3), F(2)]], sc.EXACT)
    cases = [
        [creation(fk, xi), annihilation(fk, xi)],           # wrong order
        [gauge(fk, t), gauge(fk, t)],                       # no l* ... l
        [annihilation(fk, xi), gauge(fk, t)],               # missing l
        [creation(fk, xi), gauge(fk, t), annihilation(fk, xi)],
        [annihilation(fk, xi), creation(fk, xi), gauge(fk, t)],
    ]
    for ops in cases:
        assert extract_cumulant(ops, fk) == 0, ops


def test_gauge_norm_bound():
    rng = np.random.default_rng(5)
    space = NcProbSpace([1, 1], [[[0.7]], [[1.1]]], mode=sc.FLOAT)
    alg = gns_algebra(space)
    fk = FockSpace(alg, 4)
    for _ in range(5):
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lam = gauge(fk, t, mode=PROJECTIVE)
        g = sc.to_float_array(alg.gram)
        evg, vec = np.linalg.eigh(g)
        gh = (vec * np.sqrt(evg)) @ vec.conj().T
        ghi = (vec / np.sqrt(evg)) @ vec.conj().T
        tnorm = np.linalg.norm(gh @ t @ ghi, 2)
        assert lam.norm() <= tnorm + 1e-10


def test_adjoint_identities():
    rng = random.Random(17)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 4)
    xi = alg.vector([rand_frac(rng), rand_frac(rng)])
    x = field_X(fk, xi)
    xs = field_X(fk, alg.s_apply(xi))
    assert x.adjoint().is_close(xs, max_input_degree=3)


def test_strict_mode_moments_independent_of_L():
    space = diag_space([F(2, 3)])
    alg = gns_algebra(space)
    word_len = 4
    vals = []
    for L in (4, 5, 7):
        fk = FockSpace(alg, L)
        y = field_Y(fk, space.identity())
        vals.append(vacuum_moment([y] * word_len))
    assert vals[0] == vals[1] == vals[2]


def test_strict_mode_overflow_raises():
    space = diag_space([F(1)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 2)
    x = field_X(fk, alg.eta(space.identity()))
    with pytest.raises(OverflowError_):
        vacuum_moment([x, x, x])
    xp = x.with_mode(PROJECTIVE)
    vacuum_moment([xp, xp, xp])   # projective mode just truncates


def _top_degree_vector():
    """3 e_0 x e_1 at the top degree L = 2 of an exact function algebra."""
    alg = function_algebra([F(1), F(2)])
    fk = FockSpace(alg, 2)
    return alg, fk, FockVector(fk, {(0, 1): F(3)})


def _word(fk, letters, mode=STRICT):
    return FockOperator(fk, [(F(1), tuple(letters))], mode)


@pytest.mark.parametrize("kind", ["c", "cr"])
@pytest.mark.parametrize("zero", [False, True], ids=["payload", "zero"])
def test_strict_creation_at_top_degree_raises(kind, zero):
    # the degree rule is checked per entry, before the payload is read
    alg, fk, top = _top_degree_vector()
    letter = (kind, alg.vector([0, 0] if zero else [1, 1]))
    with pytest.raises(OverflowError_):
        _word(fk, [letter]).apply(top)
    assert _word(fk, [letter], PROJECTIVE).apply(top).entries == {}


@pytest.mark.parametrize("kind, want", [
    ("a", {(1,): F(3)}), ("ar", {(0,): F(6)}),
    ("g", {(0, 1): F(3)}), ("gr", {(0, 1): F(3)})])
def test_strict_annihilation_and_gauge_at_top_degree(kind, want):
    alg, fk, top = _top_degree_vector()
    one = alg.vector([1, 1])
    letter = (kind, alg.pi_l(one) if kind in ("g", "gr") else one)
    for mode in (STRICT, PROJECTIVE):
        assert _word(fk, [letter], mode).apply(top).entries == want


def test_word_stops_at_an_exactly_zero_vector():
    alg, fk, top = _top_degree_vector()
    c = ("c", alg.vector([1, 1]))
    # e_1 is orthogonal to the first leg e_0, and a zero gauge kills all
    for dead in (("a", alg.basis(1)), ("g", sc.zeros((2, 2), sc.EXACT))):
        for mode in (STRICT, PROJECTIVE):
            assert _word(fk, [c, c, dead], mode).apply(top).entries == {}
    live = ("a", alg.basis(0))
    with pytest.raises(OverflowError_):
        _word(fk, [c, c, live]).apply(top)
    assert _word(fk, [c, c, live], PROJECTIVE).apply(top).entries == {}
    assert _word(fk, [c, live], PROJECTIVE).apply(top).entries == {
        (0, 1): F(3), (1, 1): F(3)}


def test_dense_cap_bounds_allocated_entries():
    # matrix() allocates total_dim^2 entries: dim 2, L 8 has total_dim 511
    # and passes; L 11 has 4095 (1.7e7 entries) and raises.  norm() stays
    # sparse, so it is not capped there
    alg = trivial_algebra(2)
    xi = np.array([1.0, 0.5], dtype=complex)
    with pytest.raises(DomainError):
        creation(FockSpace(alg, 11), xi, PROJECTIVE).matrix()
    assert abs(creation(FockSpace(alg, 11), xi, PROJECTIVE).norm()
               - np.linalg.norm(xi)) < 1e-12
    op = creation(FockSpace(alg, 8), xi, PROJECTIVE)
    assert op.matrix().shape == (511, 511)
    assert abs(op.norm() - np.linalg.norm(xi)) < 1e-12
    # is_close compares columns of the same matrices and keeps the cap,
    # in both modes
    for a in (alg, function_algebra([F(1), F(1)])):
        big = creation(FockSpace(a, 11), a.vector([1, 0]), PROJECTIVE)
        with pytest.raises(DomainError):
            big.is_close(big)


def test_operator_arithmetic_needs_one_fock_space():
    f1 = FockSpace(function_algebra([F(1), F(2)]), 3)
    f2 = FockSpace(function_algebra([F(1), F(3)]), 3)
    f3 = FockSpace(trivial_algebra(3), 3)
    xi = f1.alg.vector([F(1), F(1)])
    a1, c1 = annihilation(f1, xi), creation(f1, xi)
    c2 = creation(f2, xi)
    assert vacuum_moment([a1 * c1]) == 3
    assert vacuum_moment([annihilation(f2, xi) * c2]) == 4
    for other in (c2, creation(f3, np.ones(3))):
        for combine in (lambda x, y: x + y, lambda x, y: x - y,
                        lambda x, y: x * y, lambda x, y: x @ y,
                        lambda x, y: x.is_close(y)):
            with pytest.raises(ShapeError):
                combine(a1, other)
    assert (2 * c1 - c1).is_close(c1)
    assert (c1 + 1).is_close(identity(f1) + c1)


def test_norm_budget_refuses_before_building(monkeypatch):
    # dim 3 at L 12: a full gauge leg's block has 9 * (3^12 + ... + 3^0 -
    # 3^12) = 2,391,480 > MAX_NORM_NNZ nonzeros; nothing may be built
    import freepoisson.fock as fock_mod

    def no_build(*args):
        raise AssertionError("built a CSR past the nonzero budget")

    monkeypatch.setattr(fock_mod, "_letter_matrix", no_build)
    gram = np.array([[2.0, 0.5, 0.5], [0.5, 2.0, 0.5], [0.5, 0.5, 2.0]])
    fk = FockSpace(trivial_algebra(3, gram=gram), 12)
    with pytest.raises(DomainError):
        field_X(fk, np.array([1.0, 0.0, 0.0]), PROJECTIVE).norm()


def test_norm_with_a_dense_gram_matches_the_jacobi_closed_form():
    # dim 3 at L 8: 9 * 3,280 nonzeros in the largest letter block.  With
    # zero multiplication and S = 1, X(e1) = l(e1) + l*(e1) acts on the
    # chain Omega, e1, e1 x e1, ... as a path of L + 1 sites with hopping
    # ||e1||_G, whose norm is 2 ||e1||_G cos(pi / (L + 2))
    gram = np.array([[2.0, 0.5, 0.5], [0.5, 2.0, 0.5], [0.5, 0.5, 2.0]])
    fk = FockSpace(trivial_algebra(3, gram=gram), 8)
    got = field_X(fk, np.array([1.0, 0.0, 0.0]), PROJECTIVE).norm()
    want = 2 * np.sqrt(2.0) * np.cos(np.pi / 10)
    assert abs(got - want) <= 1e-12 * want


def test_truncation_capped_before_bookkeeping():
    alg = trivial_algebra(2)
    assert FockSpace(alg, MAX_TRUNCATION).L == MAX_TRUNCATION
    with pytest.raises(SizeLimitError):
        FockSpace(alg, MAX_TRUNCATION + 1)


def test_orthogonal_projections_give_free_additive_fields():
    space = diag_space([F(1, 3), F(1, 2)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 5)
    p1 = alg.eta(space.element([[[1]], [[0]]]))
    p2 = alg.eta(space.element([[[0]], [[1]]]))
    x1, x2 = field_X(fk, p1), field_X(fk, p2)
    x12 = field_X(fk, alg.eta(space.identity()))
    assert (x1 + x2).is_close(x12, max_input_degree=4)
    from freepoisson.ncps import mixed_cumulants_vanish
    ops = {"a": x1, "b": x2}
    ok, _ = mixed_cumulants_vanish(
        lambda w: vacuum_moment([ops[c] for c in w]), ["a"], ["b"], 5)
    assert ok


# -- Wick calculus ------------------------------------------------------------

def test_wick_base_cases():
    rng = random.Random(41)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 3)
    assert wick(fk, []).is_close(identity(fk))
    xi = alg.vector([F(1), F(2)])
    assert wick(fk, [xi]).is_close(field_X(fk, xi))


def test_wick_closed_equals_recursion_and_defining_property():
    rng = random.Random(43)
    space, alg = rational_algebra(rng)
    for n in (2, 3, 4):
        fk = FockSpace(alg, n + 2)
        legs = [alg.vector([rand_frac(rng), rand_frac(rng)])
                for _ in range(n)]
        closed = wick(fk, legs)
        rec = wick_by_recursion(fk, legs)
        assert closed.is_close(rec, max_input_degree=2)
        assert closed.apply(fk.vacuum()).is_close(fk.vector_from_tensor(legs))


def test_wick_two_leg_recursion_identity():
    rng = random.Random(47)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 4)
    a = alg.vector([rand_frac(rng), rand_frac(rng)])
    b = alg.vector([rand_frac(rng), rand_frac(rng)])
    lhs = field_X(fk, a) * field_X(fk, b) \
        - identity(fk).scale(alg.inner(alg.s_apply(a), b)) \
        - wick(fk, [alg.multiply(a, b)])
    out = lhs.apply(fk.vacuum())
    assert out.is_close(fk.vector_from_tensor([a, b]))


def test_wick_multiplication_formula_cases():
    rng = random.Random(53)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 6)
    a = alg.vector([rand_frac(rng), rand_frac(rng)])
    b = alg.vector([rand_frac(rng), rand_frac(rng)])
    # n = m = 1
    terms = wick_multiply(alg, [a], [b])
    expect = {(): alg.inner(alg.s_apply(a), b)}
    got_op = wick_sum_operator(fk, terms)
    direct = wick(fk, [a]) * wick(fk, [b])
    assert direct.is_close(got_op, max_input_degree=fk.L - 1)
    # one factor empty
    assert wick_multiply(alg, [], [b]) == [(F(1), (b,))]
    left_only = wick_multiply(alg, [a], [])
    assert left_only == [(F(1), (a,))]


def test_wick_multiplication_random_two_by_two():
    rng = random.Random(59)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 6)
    for _ in range(3):
        left = [alg.vector([rand_frac(rng), rand_frac(rng)])
                for _ in range(2)]
        right = [alg.vector([rand_frac(rng), rand_frac(rng)])
                 for _ in range(2)]
        prod = wick(fk, left) * wick(fk, right)
        expand = wick_sum_operator(fk, wick_multiply(alg, left, right))
        assert prod.is_close(expand, max_input_degree=fk.L - 2)


# -- modular maps --------------------------------------------------------------

def test_modular_fixes_vacuum():
    space = diag_space([F(1, 2), F(1, 2)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 3)
    s_om, j_om, d_om = modular_ops(fk)
    om = fk.vacuum()
    assert s_om.apply(om).is_close(om)
    assert j_om.apply(om).is_close(om)
    assert d_om.apply(om).is_close(om)


def test_modular_tracial_delta_identity_and_isometry():
    rng = random.Random(61)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 3)
    s_om, j_om, d_om = modular_ops(fk)
    v = fk.vector_from_tensor([alg.vector([F(1), F(1, 2)]),
                               alg.vector([F(0), F(2)])])
    assert d_om.apply(v).is_close(v)
    sv = s_om.apply(v)
    assert sv.inner(sv) == v.inner(v)


def test_wick_star_vacuum_equals_S_omega():
    rng = random.Random(67)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 5)
    s_om, _, _ = modular_ops(fk)
    for n in (1, 2, 3):
        legs = [alg.vector([rand_frac(rng), rand_frac(rng)])
                for _ in range(n)]
        lhs = wick(fk, legs).adjoint().apply(fk.vacuum())
        rhs = s_om.apply(fk.vector_from_tensor(legs))
        assert lhs.is_close(rhs)


def test_modular_nontracial_SOmega_from_wick_adjoint():
    space = NcProbSpace([2], [np.diag([1 / 3, 2 / 3])], mode=sc.FLOAT)
    alg = gns_algebra(space)
    fk = FockSpace(alg, 4)
    s_om, j_om, d_om = modular_ops(fk)
    rng = np.random.default_rng(8)
    legs = [alg.vector(rng.normal(size=4) + 1j * rng.normal(size=4))
            for _ in range(2)]
    lhs = wick(fk, legs).adjoint().apply(fk.vacuum())
    rhs = s_om.apply(fk.vector_from_tensor(legs))
    assert lhs.is_close(rhs, tol=1e-9)
    # S_Omega = J_Omega Delta_Omega^{1/2} on this vector
    v = fk.vector_from_tensor(legs)
    half = GradedHalfDelta(fk)
    assert s_om.apply(v).is_close(j_om.apply(half.apply(v)), tol=1e-9)


class GradedHalfDelta:
    """Legwise Delta^{1/2}, for the modular factorization test."""

    def __init__(self, fk):
        d = sc.to_float_array(fk.alg.delta)
        ev, vec = np.linalg.eigh(0.5 * (d + d.conj().T))
        from freepoisson.fock import GradedMap
        self._map = GradedMap(fk, (vec * np.sqrt(ev)) @ vec.conj().T)

    def apply(self, v):
        return self._map.apply(v)


# -- right fields ---------------------------------------------------------------

def test_right_field_vacuum_and_commutation():
    rng = random.Random(71)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 4)
    eta = alg.vector([rand_frac(rng), rand_frac(rng)])
    xi = alg.vector([rand_frac(rng), rand_frac(rng)])
    xr = right_field(fk, eta)
    assert xr.apply(fk.vacuum()).entries == \
        {(i,): c for i, c in enumerate(eta) if c != 0}
    x = field_X(fk, xi)
    comm = x * xr - xr * x
    zero = identity(fk).scale(0)
    assert comm.is_close(zero, max_input_degree=fk.L - 1)


def test_right_field_is_J_conjugated_left_field():
    rng = random.Random(73)
    space, alg = rational_algebra(rng)
    fk = FockSpace(alg, 3)
    eta = alg.vector([rand_frac(rng), rand_frac(rng)])
    _, j_om, _ = modular_ops(fk)
    xr = right_field(fk, eta)
    x = field_X(fk, alg.j_apply(eta))
    for idx_vec in [fk.vacuum(),
                    fk.vector_from_tensor([alg.vector([F(1), F(0)])]),
                    fk.vector_from_tensor([alg.vector([F(1), F(1)]),
                                           alg.vector([F(0), F(1)])])]:
        lhs = xr.apply(idx_vec)
        rhs = j_om.apply(x.apply(j_om.apply(idx_vec)))
        assert lhs.is_close(rhs)


def test_right_field_rejects_nontracial():
    space = NcProbSpace([2], [np.diag([1 / 3, 2 / 3])], mode=sc.FLOAT)
    alg = gns_algebra(space)
    fk = FockSpace(alg, 3)
    with pytest.raises(NotTracialError):
        right_field(fk, alg.basis(0))


# -- Wick embedding -------------------------------------------------------------

def test_embedding_vacuum_image():
    space = NcProbSpace([1, 1], [[[0.8]], [[0.9]]], mode=sc.FLOAT)
    alg = gns_algebra(space)
    fk = FockSpace(alg, 4)
    xs = [space.element([[[1.5]], [[-0.5]]]),
          space.element([[[0.25]], [[2.0]]])]
    op, _ = wick_embedding_In(fk, xs)
    got = op.apply(fk.vacuum())
    legs = [alg.eta(x) for x in xs]
    assert got.is_close(fk.vector_from_tensor(legs), tol=1e-10)


def test_embedding_norm_bound_order1_identity():
    space = NcProbSpace([1, 1], [[[0.8]], [[0.9]]], mode=sc.FLOAT)
    alg = gns_algebra(space)
    fk = FockSpace(alg, 4)
    op, norm = wick_embedding_In(fk, [space.identity()])
    w = float(abs(space.total_weight()))
    assert norm <= 2 * w ** 0.5 + 1 + 1e-9
    assert norm <= haagerup_bound(space, 1) + 1e-9


def test_embedding_norm_bound_random_order2():
    rng = np.random.default_rng(12)
    space = NcProbSpace([1, 1], [[[0.6]], [[1.2]]], mode=sc.FLOAT)
    alg = gns_algebra(space)
    fk = FockSpace(alg, 6)
    w = float(abs(space.total_weight()))
    for _ in range(5):
        d = rng.normal(size=2)
        x = space.element([[[d[0]]], [[d[1]]]])
        op, norm = wick_embedding_In(fk, [x, x])
        xnorm = float(np.abs(d).max()) ** 2
        assert norm <= (3 * w + 2 * w ** 0.5) * xnorm + 1e-9


def test_embedding_requires_unit():
    alg = trivial_algebra(2, mode=sc.FLOAT)
    fk = FockSpace(alg, 4)
    with pytest.raises(Exception):
        wick_embedding_In(fk, [[1.0, 0.0]])
