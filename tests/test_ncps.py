"""Moment/cumulant engine: exact roundtrips, product formulas, freeness,
and the Gram construction of the word algebra."""

import json
import random
from fractions import Fraction as F
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freepoisson import _scalars as sc, ncps
from freepoisson.cli import run
from freepoisson.errors import (NotClosingError, NotPsdError, NotTracialError,
                                SizeLimitError, ValidationError)
from freepoisson.ncpart import NcPartition, catalan, enumerate_nc
from freepoisson.ncps import (CumulantFunctional, NcProbSpace,
                              build_pseudo_algebra, check_freeness,
                              cumulants_from_moments, diag_space, moment,
                              moments_from_cumulants, moments_table,
                              partitioned_moment, product_moments_free,
                              slots_from_sequence)

from oracles import (first_block_cumulants, first_block_moments,
                     lattice_cumulants, lattice_moment)


def rand_frac(rng, lo=-4, hi=4, den=5):
    return F(rng.randint(lo, hi), rng.randint(1, den))


# -- spaces and moments -------------------------------------------------------

def test_moment_of_identity_in_state():
    space = diag_space([F(1, 2), F(1, 2)])
    assert space.is_state()
    assert moment(space, [space.identity()]) == 1


def test_moment_square_of_symmetry():
    space = diag_space([F(1, 2), F(1, 2)])
    x = space.element([[[1]], [[-1]]])
    assert moment(space, [x, x]) == 1


def test_moment_weighted_projection():
    space = diag_space([F(1, 3), F(2, 3)])
    x = space.element([[[3]], [[0]]])
    assert moment(space, [x, x]) == 3


def test_matrix_block_moment():
    space = NcProbSpace([2], [[[0.3, 0.1], [0.1, 0.7]]], mode=sc.FLOAT)
    x = space.element([[[0, 1], [1, 0]]])
    got = moment(space, [x, x])
    rho = np.array([[0.3, 0.1], [0.1, 0.7]])
    assert abs(got - np.trace(rho)) < 1e-12


def test_partitioned_moment_examples():
    space = diag_space([F(1, 3), F(2, 3)])
    x = space.element([[[3]], [[0]]])
    one_block = NcPartition.one_block(3)
    singles = NcPartition.singletons(3)
    word = [x, x, x]
    assert partitioned_moment(space, one_block, word) == moment(space, word)
    assert partitioned_moment(space, singles, word) == moment(space, [x]) ** 3
    mid = NcPartition(3, [[1, 3], [2]])
    assert partitioned_moment(space, mid, word) == \
        moment(space, [x, x]) * moment(space, [x])
    assert partitioned_moment(space, mid, word) == 3


# -- moment <-> cumulant ------------------------------------------------------

def test_point_mass_cumulants():
    a = F(3, 2)
    moms = {("x",) * k: a ** k for k in range(1, 5)}
    cums = cumulants_from_moments(moms)
    assert cums[("x",)] == a
    for k in range(2, 5):
        assert cums[("x",) * k] == 0


def test_semicircle_cumulants():
    moms = {("x",): F(0), ("x", "x"): F(1), ("x",) * 3: F(0),
            ("x",) * 4: F(2)}
    cums = cumulants_from_moments(moms)
    assert cums[("x", "x")] == 1
    assert cums[("x",)] == 0 and cums[("x",) * 3] == 0
    assert cums[("x",) * 4] == 0


def test_catalan_moments_have_unit_cumulants():
    cat = [1, 2, 5, 14, 42, 132]
    moms = {("x",) * (k + 1): F(c) for k, c in enumerate(cat)}
    cums = cumulants_from_moments(moms)
    for k in range(1, 7):
        assert cums[("x",) * k] == 1


def test_roundtrip_exact_random_order8():
    rng = random.Random(11)
    cums = {("x",) * k: rand_frac(rng) for k in range(1, 9)}
    moms = {w: moments_from_cumulants(cums, w) for w in cums}
    assert cumulants_from_moments(moms) == cums
    # opposite direction: random moments -> cumulants -> moments
    moms2 = {("x",) * k: rand_frac(rng) for k in range(1, 9)}
    cums2 = cumulants_from_moments(moms2)
    for w in moms2:
        assert moments_from_cumulants(cums2, w) == moms2[w]


def test_roundtrip_multivariable():
    rng = random.Random(5)
    words = [w for k in range(1, 5) for w in product("ab", repeat=k)]
    cums = {w: rand_frac(rng) for w in words}
    moms = {w: moments_from_cumulants(cums, w) for w in words}
    assert cumulants_from_moments(moms) == cums


@pytest.mark.parametrize("letters, max_len", [("ab", 6), ("x", 10)])
def test_engine_matches_lattice_sums(letters, max_len):
    rng = random.Random(17 + max_len)
    words = [w for k in range(1, max_len + 1)
             for w in product(letters, repeat=k)]
    cums = {w: rand_frac(rng) for w in words}
    for w in words:
        assert moments_from_cumulants(cums, w) == lattice_moment(cums, w), w
    moms = {w: rand_frac(rng) for w in words}
    assert cumulants_from_moments(moms) == lattice_cumulants(moms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_roundtrip_property_random_word_tables(data):
    letters, max_len = data.draw(st.sampled_from([("x", 7), ("xy", 4)]))
    words = [w for k in range(1, data.draw(st.integers(1, max_len)) + 1)
             for w in product(letters, repeat=k)]
    frac = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    cums = data.draw(st.fixed_dictionaries({w: frac for w in words}))
    moms = {w: moments_from_cumulants(cums, w) for w in words}
    assert cumulants_from_moments(moms) == cums


def test_missing_subword_is_validation_error():
    moms = {("x",): F(1), ("x", "x", "x"): F(2)}
    with pytest.raises(ValidationError):
        cumulants_from_moments(moms)
    # moments_table names the missing word, exact or float
    for cums in ({("x", "x"): F(1, 2)}, {("x", "x"): 1.0}):
        with pytest.raises(ValidationError, match=r"\('x',\)"):
            moments_table(cums, [("x", "x")])


def test_word_past_cap_is_size_limit_in_both_directions():
    word = ("x",) * 17
    with pytest.raises(SizeLimitError):
        cumulants_from_moments({word: F(1)})
    with pytest.raises(SizeLimitError):
        moments_from_cumulants({word: F(1)}, word)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_engine_matches_lattice_sums_on_exact_tables(data):
    letters = "xyz"[:data.draw(st.integers(1, 3))]
    max_len = {1: 7, 2: 4, 3: 3}[len(letters)]
    words = [w for k in range(1, max_len + 1)
             for w in product(letters, repeat=k)]
    ints = st.integers(-6, 6)
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    value = data.draw(st.sampled_from([ints, fracs, st.one_of(ints, fracs)]))
    table = data.draw(st.fixed_dictionaries({w: value for w in words}))
    assert moments_table(table, words) == \
        {w: lattice_moment(table, w) for w in words}
    assert cumulants_from_moments(table) == lattice_cumulants(table)


def test_all_int_tables_return_ints():
    words = [w for k in range(1, 6) for w in product("ab", repeat=k)]
    table = {w: (-1) ** len(w) * (len(w) + (w[0] == "a")) for w in words}
    moms = moments_table(table, words)
    cums = cumulants_from_moments(table)
    for out in (moms, cums):
        assert all(type(v) is int for v in out.values())
    assert cumulants_from_moments(moms) == table


@pytest.mark.parametrize("draw", [
    lambda rng: rng.uniform(-2, 2),
    lambda rng: complex(rng.uniform(-2, 2), rng.uniform(-1, 1)),
    lambda rng: np.int64(rng.randint(-3, 3)),
    lambda rng: rng.choice([rand_frac(rng), np.int64(rng.randint(-3, 3))]),
    lambda rng: rng.choice([rand_frac(rng), rng.uniform(-2, 2)])],
    ids=["float", "complex", "int64", "fraction_and_int64",
         "fraction_and_float"])
def test_inexact_tables_keep_plain_arithmetic(draw):
    rng = random.Random(23)
    words = [w for k in range(1, 6) for w in product("ab", repeat=k)]
    table = {w: draw(rng) for w in words}

    def bits(out):
        return [(type(out[w]), repr(out[w])) for w in words]

    assert bits(moments_table(table, words)) == \
        bits(first_block_moments(table, words))
    assert bits(cumulants_from_moments(table)) == \
        bits(first_block_cumulants(table))


def test_cum_to_moments_json_is_the_same_batched_or_per_word(capsys,
                                                             monkeypatch):
    rng = random.Random(31)
    words = [w for k in range(1, 6) for w in product("ab", repeat=k)]
    values = [{"word": list(w),
               "value": {"num": rng.randint(-4, 4), "den": rng.randint(1, 5)}}
              for w in words]
    argv = ["cum", "to-moments", "--mode", "exact", "--inline",
            json.dumps({"values": values})]
    assert run(argv) == 0
    batched = capsys.readouterr().out
    table = moments_table
    monkeypatch.setattr(ncps, "moments_table", lambda cums, ws: {
        w: table(cums, [w])[w] for w in map(tuple, ws)})
    assert run(argv) == 0
    assert capsys.readouterr().out == batched


def test_closed_forms_at_order_16():
    words = [("x",) * n for n in range(1, 17)]
    semicircle = {w: int(len(w) == 2) for w in words}
    moms = moments_table(semicircle, words)
    assert moms == {w: 0 if len(w) % 2 else catalan(len(w) // 2)
                    for w in words}
    assert cumulants_from_moments(moms) == semicircle
    lam = F(3, 7)
    poisson = {w: lam for w in words}
    narayana = {w: [comb(len(w), k) * comb(len(w), k - 1) // len(w)
                    for k in range(1, len(w) + 1)] for w in words}
    moms = moments_table(poisson, words)
    assert moms == {w: sum(c * lam ** (k + 1) for k, c in enumerate(ns))
                    for w, ns in narayana.items()}
    assert cumulants_from_moments(moms) == poisson


def test_moments_from_cumulants_counting():
    ones = CumulantFunctional.constant(F(1), 8)
    assert moments_from_cumulants(ones, ("x",) * 4) == 14
    pair = CumulantFunctional.from_sequence([F(0), F(1), F(0), F(0)])
    assert moments_from_cumulants(pair, ("x",) * 4) == 2
    k1 = CumulantFunctional.from_sequence([F(7)])
    assert moments_from_cumulants(k1, ("x",)) == 7


def test_multilinearity_of_cumulants():
    rng = random.Random(3)
    space = diag_space([rand_frac(rng, 1, 3) for _ in range(3)])
    xs = [space.element([[[rand_frac(rng)]] for _ in range(3)])
          for _ in range(4)]
    a, b = F(2, 3), F(-5, 2)
    combo = space.element([[[a * xs[0][i][0, 0] + b * xs[1][i][0, 0]]]
                           for i in range(3)])

    def cum_of(word):
        # direct recursion on the specific word
        def rec(w):
            total = moment(space, list(w))
            for pi in enumerate_nc(len(w)):
                if len(pi) == 1:
                    continue
                term = F(1)
                for blk in pi.blocks:
                    term *= rec(tuple(w[v - 1] for v in blk))
                total -= term
            return total
        return rec(tuple(word))

    lhs = cum_of([combo, xs[2], xs[3]])
    rhs = a * cum_of([xs[0], xs[2], xs[3]]) + b * cum_of([xs[1], xs[2], xs[3]])
    assert lhs == rhs


def test_cyclic_symmetry_for_tracial_space():
    rng = random.Random(8)
    space = diag_space([F(1, 4), F(1, 4), F(1, 2)])  # commutative => tracial
    xs = [space.element([[[rand_frac(rng)]] for _ in range(3)])
          for _ in range(6)]

    def rec(w):
        total = moment(space, list(w))
        for pi in enumerate_nc(len(w)):
            if len(pi) == 1:
                continue
            term = F(1)
            for blk in pi.blocks:
                term *= rec(tuple(w[v - 1] for v in blk))
            total -= term
        return total

    word = tuple(xs)
    rot = word[1:] + word[:1]
    assert rec(word) == rec(rot)


# -- products of free elements ------------------------------------------------

def test_product_with_unit_is_identity():
    rng = random.Random(2)
    kx = [rand_frac(rng) for _ in range(5)]
    r_x = slots_from_sequence(kx)
    # y = 1: kappa_1 = 1, higher cumulants vanish
    r_y = slots_from_sequence([F(1), F(0), F(0), F(0), F(0)])
    for n in (1, 2, 3, 4):
        r_n, m_n = product_moments_free(r_x, r_y, n)
        assert r_n == kx[n - 1]


def test_product_rescaling_model():
    # x arbitrary, y = s^2 free Poisson rate 1/alpha: M_n(x s^2, ...) =
    # sum_pi alpha^{|pi| - 1 - n} M_pi(x) ... checked in the alpha-scaled form
    rng = random.Random(4)
    alpha = F(2, 3)
    space = diag_space([F(1, 2), F(1, 2)])
    us = [space.element([[[rand_frac(rng)]], [[rand_frac(rng)]]])
          for _ in range(4)]
    n = 4

    def m_slots(positions):
        return moment(space, [us[p - 1] for p in positions])

    from freepoisson.ncps import _cumulant_slots
    r_x = _cumulant_slots(m_slots)
    r_y = slots_from_sequence([1 / alpha] * n)
    _, m_prod = product_moments_free(r_x, r_y, n)
    expect = sum(alpha ** (len(pi) - 1 - n) *
                 partitioned_moment(space, pi, us)
                 for pi in enumerate_nc(n))
    assert m_prod == expect


def test_product_order_one():
    r_x = slots_from_sequence([F(3, 2)])
    r_y = slots_from_sequence([F(4, 5)])
    r1, m1 = product_moments_free(r_x, r_y, 1)
    assert r1 == F(3, 2) * F(4, 5) == m1


def test_product_formula_against_fock_matrix_model():
    # two free elements realized over orthogonal summands of a Fock space:
    # direct vacuum moments of (AB)^n match the product theorem, n <= 5
    from freepoisson.fock import FockSpace, field_Y, gns_algebra, vacuum_moment
    from freepoisson.ncps import _cumulant_slots
    space = diag_space([F(1, 2), F(1, 2)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 12)
    u1 = space.element([[[F(3, 2)]], [[F(0)]]])
    u2 = space.element([[[F(0)]], [[F(-2, 3)]]])
    a_op = field_Y(fk, u1)
    b_op = field_Y(fk, u2)

    def a_moment(positions):
        return vacuum_moment([a_op] * len(positions))

    def b_moment(positions):
        return vacuum_moment([b_op] * len(positions))

    r_a = _cumulant_slots(a_moment)
    r_b = _cumulant_slots(b_moment)
    for n in range(1, 6):
        direct = vacuum_moment([a_op, b_op] * n)
        _, via_theorem = product_moments_free(r_a, r_b, n)
        assert direct == via_theorem, n


def test_product_past_enumeration_cap_is_size_limit():
    seq = slots_from_sequence([F(1)] * 13)
    with pytest.raises(SizeLimitError):
        product_moments_free(seq, seq, 13)


def test_product_accepts_moment_data():
    rng = random.Random(9)
    kx = [rand_frac(rng) for _ in range(4)]
    ky = [rand_frac(rng) for _ in range(4)]
    r_x, r_y = slots_from_sequence(kx), slots_from_sequence(ky)
    from freepoisson.ncps import _moment_slots
    m_y = _moment_slots(r_y)
    for n in (2, 3, 4):
        a = product_moments_free(r_x, r_y, n)
        b = product_moments_free(r_x, m_y, n, y_given="moments")
        assert a == b


# -- freeness testing ---------------------------------------------------------

def test_constants_are_free_from_everything():
    space = diag_space([F(1, 2), F(1, 2)])
    x = space.element([[[2]], [[-1]]])
    ok, witness = check_freeness(space, [x], [space.identity()], 4)
    assert ok and witness is None


def test_element_not_free_from_itself():
    space = diag_space([F(1, 2), F(1, 2)])
    x = space.element([[[2]], [[-1]]])   # nonzero variance
    ok, witness = check_freeness(space, [x], [x], 4)
    assert not ok
    assert len(witness) == 2


def test_fock_orthogonal_projections_are_free():
    from freepoisson.fock import FockSpace, field_X, gns_algebra, vacuum_moment
    from freepoisson.ncps import mixed_cumulants_vanish
    space = diag_space([F(1, 3), F(1, 2)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 5)
    p1 = alg.eta(space.element([[[1]], [[0]]]))
    p2 = alg.eta(space.element([[[0]], [[1]]]))
    ops = {"p1": field_X(fk, p1), "p2": field_X(fk, p2)}

    def mom(word):
        return vacuum_moment([ops[c] for c in word])

    ok, witness = mixed_cumulants_vanish(mom, ["p1"], ["p2"], 5)
    assert ok, witness


# -- Gram construction --------------------------------------------------------

def test_pseudo_algebra_semicircular_is_one_dimensional_trivial():
    cf = CumulantFunctional.from_sequence(
        [F(0), F(1)] + [F(0)] * 6, tracial=True)
    alg = build_pseudo_algebra(cf, 3)
    assert alg.dim == 1
    assert alg.gram[0, 0] == 1
    # xi^2 = 0 and S xi = xi
    assert alg.multiply(alg.basis(0), alg.basis(0))[0] == 0
    assert alg.s_apply(alg.basis(0))[0] == 1
    alg.validate()


def test_pseudo_algebra_free_poisson_is_one_dimensional_idempotent():
    lam = F(5, 3)
    cf = CumulantFunctional.constant(lam, 12)
    alg = build_pseudo_algebra(cf, 5)
    assert alg.dim == 1
    assert alg.gram[0, 0] == lam
    xi2 = alg.multiply(alg.basis(0), alg.basis(0))
    assert xi2[0] == 1          # xi . xi = xi in the quotient
    assert alg.inner(alg.basis(0), xi2) == lam   # <xi, xi^2> = kappa_3
    alg.validate()


def test_pseudo_algebra_two_atoms_gives_function_algebra():
    # cumulant data = moments of (1/3) delta_2 + (2/3) delta_5
    pts = [(F(2), F(1, 3)), (F(5), F(2, 3))]
    vals = {("x",) * k: sum(w * t ** k for t, w in pts) for k in range(1, 13)}
    cf = CumulantFunctional(["x"], vals, 12, tracial=True)
    alg = build_pseudo_algebra(cf, 5)
    assert alg.dim == 2
    alg.validate()
    # multiplication is diagonalizable with idempotent spectrum: the image
    # of x acts with eigenvalues {2, 5} (pointwise multiplication by x)
    lx = sc.to_float_array(alg.pi_l(alg.basis(0)))
    ev = sorted(np.linalg.eigvals(lx).real)
    assert abs(ev[0] - 2) < 1e-9 and abs(ev[1] - 5) < 1e-9


def test_pseudo_algebra_two_atoms_in_float():
    # the same data as floats: the float elimination finds the same basis
    pts = [(2.0, 1 / 3), (5.0, 2 / 3)]
    vals = {("x",) * k: sum(w * t ** k for t, w in pts) for k in range(1, 13)}
    alg = build_pseudo_algebra(CumulantFunctional(["x"], vals, 12,
                                                  tracial=True), 5)
    assert alg.mode == sc.FLOAT and alg.dim == 2
    assert alg.basis_words == [("x",), ("x", "x")]
    ev = sorted(np.linalg.eigvals(alg.pi_l(alg.basis(0))).real)
    assert abs(ev[0] - 2) < 1e-9 and abs(ev[1] - 5) < 1e-9


def test_pseudo_algebra_of_integer_data_stays_exact():
    # int cumulants run the elimination on Fractions: int / int would be
    # a float division, whose rounding reads as rank
    vals = {("x",) * k: 2 ** k + 2 * 5 ** k for k in range(1, 13)}
    alg = build_pseudo_algebra(CumulantFunctional(["x"], vals, 12,
                                                  tracial=True), 5)
    assert alg.mode == sc.EXACT and alg.dim == 2
    assert all(type(x) is F for x in alg.smat.ravel())
    lx = alg.pi_l(alg.basis(0))
    assert sorted(np.linalg.eigvals(sc.to_float_array(lx)).real) \
        == pytest.approx([2, 5])


@pytest.mark.parametrize("labels", [["x"], ["x", "y"]])
def test_pseudo_algebra_of_the_zero_functional_is_zero(labels):
    vals = {w: F(0) for k in range(1, 7) for w in product(labels, repeat=k)}
    alg = build_pseudo_algebra(CumulantFunctional(labels, vals, 6,
                                                  tracial=True), 2)
    assert alg.dim == 0 and alg.basis_words == []
    assert alg.gram.shape == alg.smat.shape == (0, 0)


def test_pseudo_algebra_def_condition_2():
    lam = F(2)
    cf = CumulantFunctional.constant(lam, 12)
    alg = build_pseudo_algebra(cf, 5)
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                lhs = alg.inner(alg.multiply(alg.basis(i), alg.basis(j)),
                                alg.basis(k))
                rhs = alg.inner(alg.basis(j),
                                alg.multiply(alg.s_apply(alg.basis(i)),
                                             alg.basis(k)))
                assert lhs == rhs


def test_pseudo_algebra_requires_tracial():
    cf = CumulantFunctional.constant(F(1), 12, tracial=False)
    with pytest.raises(NotTracialError):
        build_pseudo_algebra(cf, 3)


def test_pseudo_algebra_rejects_non_psd():
    vals = {("x",): F(0), ("x", "x"): F(0), ("x",) * 3: F(1)}
    vals.update({("x",) * k: F(0) for k in range(4, 13)})
    cf = CumulantFunctional(["x"], vals, 12, tracial=True)
    with pytest.raises((NotPsdError, NotClosingError)):
        build_pseudo_algebra(cf, 3)


def test_star_consistency_validated():
    with pytest.raises(Exception):
        CumulantFunctional(
            ["x", "y"], {("x", "y"): 1.0, ("y", "x"): 2.0}, 2,
            star={"x": "x", "y": "y"})
