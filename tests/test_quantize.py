"""Completely positive maps, Petz duality, Stinespring bimodules, and
second quantization through the explicit dilation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from freepoisson import _scalars as sc
from freepoisson.errors import DomainError, NotTracialError, ValidationError
from freepoisson.ncps import NcProbSpace
from freepoisson.quantize import (CpMap, L2Space, biweight, build_dilation,
                                  check_admissible, conjugate_embedding,
                                  petz_dual, second_quantize,
                                  stinespring_bimodule,
                                  wick_matrix_on_target, _embed)


def space2(w1, w2):
    return NcProbSpace([1, 1], [[[w1]], [[w2]]], mode=sc.FLOAT)


def random_admissible(rng, src, tgt, slack=0.9):
    """Random CP map between diagonal C^2 spaces, scaled into admissibility."""
    a = rng.uniform(0.1, 1.0, size=(2, 2))
    phi = np.array([float(abs(complex(b[0][0]))) for b in src.density])
    psi = np.array([float(abs(complex(b[0][0]))) for b in tgt.density])
    scale = min(1.0 / a.sum(axis=1).max(), (phi / (a.T @ psi)).min())
    a *= scale * slack
    kraus = []
    for i in range(2):
        for j in range(2):
            k = np.zeros((2, 2), dtype=complex)
            k[i, j] = math.sqrt(a[i, j])
            kraus.append(k)
    return CpMap(src, tgt, kraus)


def random_element(rng, space, herm=False):
    out = []
    for d in space.block_dims:
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if herm:
            m = 0.5 * (m + m.conj().T)
        out.append(m)
    return out


# -- admissibility -------------------------------------------------------------

def test_identity_map_admissible():
    s = space2(0.5, 0.5)
    t = CpMap(s, s, [np.eye(2, dtype=complex)])
    rep = check_admissible(t)
    assert rep.cp and rep.subunital and rep.weight_decreasing


def test_zero_map_admissible():
    t = CpMap(space2(0.5, 0.5), space2(0.3, 0.7), [])
    rep = check_admissible(t)
    assert rep.admissible


def test_averaging_conditional_expectation():
    # C^2 -> C averaging (trace-preserving conditional expectation onto
    # scalars); weight decreasing iff the dual density inequality holds
    src = space2(0.5, 0.5)
    tgt = NcProbSpace([1], [[[1.0]]], mode=sc.FLOAT)
    k1 = np.array([[math.sqrt(0.5), 0]], dtype=complex)
    k2 = np.array([[0, math.sqrt(0.5)]], dtype=complex)
    t = CpMap(src, tgt, [k1, k2])
    rep = check_admissible(t)
    assert rep.cp and rep.subunital and rep.weight_decreasing
    # psi(T(x)) = phi(x) here: equality case of weight decrease
    x = [[[2.0]], [[4.0]]]
    assert abs(tgt.phi(t.apply(x)) - src.phi(src.element(x))) < 1e-12


def test_admissibility_witness_when_not_subunital():
    s = space2(0.5, 0.5)
    t = CpMap(s, s, [2.0 * np.eye(2, dtype=complex)])
    rep = check_admissible(t)
    assert rep.cp and not rep.subunital
    assert "subunital" in rep.witnesses


# -- Petz dual -----------------------------------------------------------------

def test_dual_of_identity():
    s = space2(0.4, 0.8)
    t = CpMap(s, s, [np.eye(2, dtype=complex)])
    d = petz_dual(t)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = random_element(rng, s)
        assert np.allclose(_embed(s, d.apply(x)), _embed(s, x))


def test_dual_biweight_identity_random():
    rng = np.random.default_rng(1)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    d = petz_dual(t)
    for _ in range(20):
        m = random_element(rng, src)
        n = random_element(rng, tgt)
        lhs = biweight(src, d.apply(n), m)
        rhs = biweight(tgt, n, t.apply(m))
        assert abs(lhs - rhs) < 1e-9


def test_dual_on_full_matrix_blocks():
    rng = np.random.default_rng(2)
    src = NcProbSpace([2], [[[0.5, 0.1], [0.1, 0.4]]], mode=sc.FLOAT)
    tgt = NcProbSpace([2], [[[0.3, 0.0], [0.0, 0.6]]], mode=sc.FLOAT)
    k = 0.4 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    t = CpMap(src, tgt, [k])
    d = petz_dual(t)
    for _ in range(10):
        m = random_element(rng, src)
        n = random_element(rng, tgt)
        assert abs(biweight(src, d.apply(n), m) -
                   biweight(tgt, n, t.apply(m))) < 1e-9


def test_double_dual_is_identity():
    rng = np.random.default_rng(3)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    tss = petz_dual(petz_dual(t))
    for _ in range(5):
        x = random_element(rng, src)
        assert np.allclose(_embed(tgt, tss.apply(x)),
                           _embed(tgt, t.apply(x)), atol=1e-10)


def test_dual_l2_action_is_J_T2star_J():
    rng = np.random.default_rng(4)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    d = petz_dual(t)
    l2m, l2n = L2Space(src), L2Space(tgt)
    t2 = t.t2_matrix(l2m, l2n)
    d2 = d.t2_matrix(l2n, l2m)
    jm, jn = l2m.jmat_onb(), l2n.jmat_onb()
    # antilinear composition J_M T2^* J_N as a linear matrix
    composed = jm @ np.conj(t2.conj().T) @ np.conj(jn)
    assert np.allclose(composed, d2, atol=1e-10)


def draw_matrix(data, rows, cols):
    n = rows * cols
    re = data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    im = data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    return np.reshape(re, (rows, cols)) + 1j * np.reshape(im, (rows, cols))


def draw_space(data):
    dims = data.draw(st.sampled_from([[1, 1], [2], [2, 1]]))
    dens = []
    for d in dims:
        a = draw_matrix(data, d, d)
        dens.append(a @ a.conj().T + 0.2 * np.eye(d))
    return NcProbSpace(dims, dens, mode=sc.FLOAT)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_petz_dual_identity_and_involution_random(data):
    # the dual is defined for any CP map, admissible or not
    src, tgt = draw_space(data), draw_space(data)
    dm, dn = sum(src.block_dims), sum(tgt.block_dims)
    kraus = [draw_matrix(data, dn, dm)
             for _ in range(data.draw(st.integers(1, 3)))]
    t = CpMap(src, tgt, kraus)
    d = petz_dual(t)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    for _ in range(3):
        m = random_element(rng, src)
        n = random_element(rng, tgt)
        lhs = biweight(src, d.apply(n), m)
        rhs = biweight(tgt, n, t.apply(m))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
    x = random_element(rng, src)
    got = _embed(tgt, petz_dual(d).apply(x))
    want = _embed(tgt, t.apply(x))
    assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def test_weight_preserving_inclusion_dualizes_to_expectation():
    # N = C included into M = C^2 with matched total weight; the dual is the
    # generalized conditional expectation and is unital
    src = NcProbSpace([1], [[[1.1]]], mode=sc.FLOAT)
    tgt = space2(0.6, 0.5)
    t = CpMap(src, tgt, [np.array([[1.0], [1.0]], dtype=complex)])
    e = petz_dual(t)
    one_m = e.apply(tgt.identity())
    assert np.allclose(_embed(src, one_m), np.eye(1), atol=1e-10)
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = random_element(rng, tgt)
        n = random_element(rng, src)
        assert abs(biweight(tgt, t.apply(n), m) -
                   biweight(src, n, e.apply(m))) < 1e-9


# -- Stinespring bimodule --------------------------------------------------------

def test_bimodule_identity_on_scalars():
    s = NcProbSpace([1], [[[1.0]]], mode=sc.FLOAT)
    t = CpMap(s, s, [np.eye(1, dtype=complex)])
    hs = stinespring_bimodule(t)
    assert hs.dim == 1


def test_bimodule_state_map_is_full_tensor_product():
    # T = phi(.) 1 on (C^2, state): <m1 (x) xi1, m2 (x) xi2> factors as
    # phi(m1* m2) <xi1, xi2>, so the Gram is G_M (x) G_N with full rank 4
    s = space2(0.5, 0.5)
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            u = np.zeros((2, 2), dtype=complex)
            u[i, j] = 1.0
            val = 0.5 * np.trace(np.diag([u[0, 0], u[1, 1]])) * np.eye(2)
            for k in range(2):
                for l in range(2):
                    choi[i * 2 + k, j * 2 + l] = val[k, l]
    t = CpMap.from_choi(s, s, choi)
    # the map really is x -> phi(x) 1
    x = s.element([[[3.0]], [[5.0]]])
    assert np.allclose(_embed(s, t.apply(x)), 4.0 * np.eye(2))
    hs = stinespring_bimodule(t)
    assert hs.dim == 4


def test_i_n_contraction_iff_subunital():
    rng = np.random.default_rng(6)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    hs = stinespring_bimodule(t)
    assert np.linalg.norm(hs.i_n, 2) <= 1 + 1e-10
    t_bad = CpMap(src, tgt, [1.4 * np.eye(2, dtype=complex)])
    hs_bad = stinespring_bimodule(t_bad)
    assert np.linalg.norm(hs_bad.i_n, 2) > 1 + 1e-10


def test_bimodule_actions_commute():
    rng = np.random.default_rng(7)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    hs = stinespring_bimodule(t)
    for um in hs.left_actions:
        for un in hs.right_actions:
            lm = hs.left_actions[um]
            rn = hs.right_actions[un]
            assert np.allclose(lm @ rn, rn @ lm, atol=1e-10)


def test_conjugate_embedding_is_isometry():
    rng = np.random.default_rng(8)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    c, hs_dual, hs = conjugate_embedding(t)
    assert c.shape == (hs.dim, hs_dual.dim)
    # in conjugated coordinates the embedding is a linear isometry
    assert np.abs(c.conj().T @ c - np.eye(hs_dual.dim)).max() < 1e-8


# -- second quantization -----------------------------------------------------------

def test_dilation_isometries():
    rng = np.random.default_rng(9)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    for _ in range(5):
        t = random_admissible(rng, src, tgt)
        dil = build_dilation(t)
        km, pn = dil.k_m, dil.p_n
        assert np.abs(km.conj().T @ km - np.eye(2)).max() < 1e-10
        assert np.abs(pn @ pn.conj().T - np.eye(2)).max() < 1e-10
        assert np.abs(dil.hs.i_n.conj().T @ dil.j_m - dil.t2).max() < 1e-10


def test_dilation_compresses_the_map():
    rng = np.random.default_rng(10)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    dil = build_dilation(t)
    for _ in range(5):
        m = random_element(rng, src)
        act = np.zeros((dil.hs.dim, dil.hs.dim), dtype=complex)
        for a, u in enumerate(dil.l2m.units):
            act += complex(m[u[0]][u[1], u[2]]) * dil.hs.left_actions[u]
        lhs = dil.hs.i_n.conj().T @ act @ dil.hs.i_n
        rhs = dil.l2n.lmult_onb(t.apply(m))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_second_quantization_identity_map():
    s = space2(0.5, 0.5)
    t = CpMap(s, s, [np.eye(2, dtype=complex)])
    rng = np.random.default_rng(11)
    L = 4
    legs = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2)]
    got = second_quantize(t, [(1.0, legs)], L)
    want = wick_matrix_on_target(t, legs, L)
    assert np.abs(got - want).max() < 1e-10


def test_second_quantization_wick_preservation():
    rng = np.random.default_rng(12)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    dil = build_dilation(t)
    for n in (1, 2, 3):
        L = n + 2
        legs = [rng.normal(size=2) + 1j * rng.normal(size=2)
                for _ in range(n)]
        got = second_quantize(t, [(1.0, legs)], L, dilation=dil)
        want = wick_matrix_on_target(t, [dil.t2 @ x for x in legs], L)
        assert np.abs(got - want).max() < 1e-8


def test_second_quantization_vacuum_state_preserved():
    rng = np.random.default_rng(13)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    from freepoisson.fock import FockSpace, wick
    l2m = L2Space(src)
    alg_m = l2m.onb_algebra()
    L = 5
    fkm = FockSpace(alg_m, L)
    terms = []
    for n in (1, 2, 3):
        legs = [rng.normal(size=2) + 1j * rng.normal(size=2)
                for _ in range(n)]
        terms.append((complex(rng.normal()), legs))
    got = second_quantize(t, terms, L)
    source_op = None
    for c, legs in terms:
        op = wick(fkm, legs, mode="projective").scale(c)
        source_op = op if source_op is None else source_op + op
    src_mat = sc.to_float_array(source_op.matrix())
    assert abs(got[0, 0] - src_mat[0, 0]) < 1e-9


def test_onb_algebra_keeps_the_modular_operator():
    """The onb view carries Delta, so a non-tracial space stays non-tracial
    and the vacuum modular operator is Delta, not 1."""
    from freepoisson.fock import FockSpace, GnsAlgebra, modular_ops, right_field
    space = NcProbSpace([2], [[[0.7, 0.1], [0.1, 0.3]]], mode=sc.FLOAT)
    l2 = L2Space(space)
    gns = GnsAlgebra(space)
    alg = l2.onb_algebra()
    assert not gns.is_tracial()
    assert not alg.is_tracial()
    assert np.array_equal(alg.delta, l2.linear_map_onb(gns.delta))
    fk = FockSpace(alg, 2)
    with pytest.raises(NotTracialError):
        right_field(fk, np.eye(alg.dim)[0])
    d_om = modular_ops(fk)[2].leg_matrix
    assert np.array_equal(d_om, alg.delta)
    assert not np.allclose(d_om, np.eye(alg.dim))


def test_ou_semigroup_scales_degrees():
    s = space2(0.5, 0.5)
    rng = np.random.default_rng(14)
    tt = 0.35
    t = CpMap.scalar(s, math.exp(-tt))
    for n in (1, 2, 3):
        L = n + 2
        legs = [rng.normal(size=2) for _ in range(n)]
        got = second_quantize(t, [(1.0, legs)], L)
        want = math.exp(-n * tt) * wick_matrix_on_target(t, legs, L)
        assert np.abs(got - want).max() < 1e-10


def test_duality_exchange_on_words():
    # Gamma(T)* computed through the Fock-level L2 formula equals the
    # second quantization of the Petz dual, on words of length <= 2
    rng = np.random.default_rng(15)
    src = space2(0.6, 0.9)
    tgt = space2(0.8, 0.5)
    t = random_admissible(rng, src, tgt)
    d = petz_dual(t)
    l2m, l2n = L2Space(src), L2Space(tgt)
    t2 = t.t2_matrix(l2m, l2n)
    d2 = d.t2_matrix(l2n, l2m)
    jm, jn = l2m.jmat_onb(), l2n.jmat_onb()
    for n in (1, 2):
        legs = [rng.normal(size=2) + 1j * rng.normal(size=2)
                for _ in range(n)]
        # vector J_{Omega,M} F(T2)^H J_{Omega,N} (legs tensor), legwise
        def legmap(v):
            return jm @ np.conj(t2.conj().T @ (jn @ np.conj(v)))
        lhs_legs = [legmap(x) for x in legs]
        # leg order reverses twice, so stays in place
        rhs_legs = [d2 @ x for x in legs]
        for a, b in zip(lhs_legs, rhs_legs):
            assert np.allclose(a, b, atol=1e-9)


def test_second_quantize_rejects_inadmissible():
    s = space2(0.5, 0.5)
    t = CpMap(s, s, [1.5 * np.eye(2, dtype=complex)])
    with pytest.raises(ValidationError):
        build_dilation(t)
    with pytest.raises(ValidationError):
        second_quantize(t, [(1.0, [np.ones(2)])], 4)
    # admissibility is still checked before the truncation
    with pytest.raises(ValidationError):
        second_quantize(t, [(1.0, [np.ones(2)])], 1)


def test_admissibility_is_checked_once_per_dilation(monkeypatch):
    from freepoisson import quantize
    calls = []

    def counted(t, *args):
        calls.append(t)
        return check_admissible(t, *args)

    monkeypatch.setattr(quantize, "check_admissible", counted)
    t = random_admissible(np.random.default_rng(11), space2(0.6, 0.9),
                          space2(0.8, 0.5))
    dil = build_dilation(t)
    assert len(calls) == 1
    for L in (3, 4):
        second_quantize(t, [(1.0, [np.ones(2)])], L, dilation=dil)
    assert len(calls) == 1
    second_quantize(t, [(1.0, [np.ones(2)])], 3)
    assert len(calls) == 2


def test_second_quantize_needs_no_dilation_fock_space():
    # four Kraus maps between 2-point spaces: a dilation space of
    # dimension 8, whose Fock space at L 7 has 2,396,745 dimensions; the
    # legs are compressed onto the 255-dimensional target space instead.
    # L 11 (4095^2 > 4e6 entries) is refused by the target's dense cap.
    rng = np.random.default_rng(7)
    s = space2(0.6, 0.9)
    t = random_admissible(rng, s, s)
    dil = build_dilation(t)
    assert dil.tilde_dim == 8
    legs = [np.ones(2)]
    got = second_quantize(t, [(1.0, legs)], 7, dilation=dil)
    want = wick_matrix_on_target(t, [dil.t2 @ x for x in legs], 7)
    assert got.shape == (255, 255)
    assert np.abs(got - want).max() < 1e-8
    with pytest.raises(DomainError, match="dense"):
        second_quantize(t, [(1.0, legs)], 11, dilation=dil)


def test_second_quantize_builds_each_distinct_letter_once(monkeypatch):
    # each leg gives one creation, one annihilation and one gauge payload;
    # the transport onto the target moves each once, however many words
    # hold it, so the target's letter blocks are built once per payload
    import freepoisson.fock as fock_mod
    built, build = [], fock_mod._letter_matrix
    monkeypatch.setattr(fock_mod, "_letter_matrix",
                        lambda f, letter: built.append(letter[0])
                        or build(f, letter))
    rng = np.random.default_rng(9)
    s = space2(0.6, 0.9)
    t = random_admissible(rng, s, s)
    terms = [(1.0, [rng.normal(size=2) for _ in range(3)]),
             (0.5j, [rng.normal(size=2)])]
    second_quantize(t, terms, 5)
    assert sorted(built) == ["a"] * 4 + ["c"] * 4 + ["g"] * 4


def test_second_quantize_rejects_a_non_coisometric_p_n():
    rng = np.random.default_rng(8)
    s = space2(0.6, 0.9)
    t = random_admissible(rng, s, s)
    dil = build_dilation(t)
    bad = dataclasses.replace(dil, p_n=1.1 * dil.p_n)
    with pytest.raises(DomainError, match="coisometry"):
        second_quantize(t, [(1.0, [np.ones(2)])], 3, dilation=bad)
    second_quantize(t, [(1.0, [np.ones(2)])], 3, dilation=dil)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_second_quantize_matches_dilation_fock_oracle(data):
    # per-leg compression through p_N against the Wick words compiled on
    # the Fock space over the whole dilation space and sandwiched by F(p_N)
    weight = st.floats(0.2, 1.5)
    src = space2(data.draw(weight), data.draw(weight))
    tgt = space2(data.draw(weight), data.draw(weight))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    if data.draw(st.booleans()):
        t = random_admissible(rng, src, tgt,
                              slack=data.draw(st.floats(0.1, 1.0)))
    else:
        t = CpMap(src, tgt, [])
    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(1, 3))
        legs = [rng.normal(size=2) + 1j * rng.normal(size=2)
                for _ in range(n)]
        terms.append((complex(rng.normal(), rng.normal()), legs))
    L = max(len(legs) for _, legs in terms) + 2
    dil = build_dilation(t)
    got = second_quantize(t, terms, L, dilation=dil)
    want = oracles.dilation_second_quantize(t, terms, L, dil)
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= 1e-12 * scale
