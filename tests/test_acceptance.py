"""Acceptance suite: the twelve exit criteria, one test each.

Each test prints a single PASS line on success (run with -s to see them);
tolerances are pinned here and nowhere else.
"""

import math
import random
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from freepoisson import _scalars as sc
from freepoisson import transforms as tr
from freepoisson.classify import (FreeGroupFactor, WithAtom,
                                  filtration_classify, freedim_combine,
                                  poisson_filtration)
from freepoisson.fock import (PROJECTIVE, FockSpace, annihilation, creation,
                              field_X, field_Y, gauge, gns_algebra,
                              haagerup_bound, identity, modular_ops,
                              vacuum_moment, wick, wick_embedding_In,
                              wick_multiply, wick_sum_operator)
from freepoisson.ncpart import (NcPartition, catalan, enumerate_nc, kreweras,
                                relabel)
from freepoisson.ncps import (CumulantFunctional, cumulants_from_moments,
                              diag_space, moment, moments_from_cumulants,
                              partitioned_moment, product_moments_free,
                              slots_from_sequence, _cumulant_slots)
from freepoisson.quantize import (CpMap, L2Space, biweight, build_dilation,
                                  check_admissible, petz_dual,
                                  second_quantize, wick_matrix_on_target)
from freepoisson.variation import VariationExperiment, run_experiment
from oracles import wick_by_recursion


def report(num, text):
    print("PASS criterion %2d: %s" % (num, text))


def rand_frac(rng, lo=-3, hi=3, den=3):
    return F(rng.randint(lo, hi), rng.randint(1, den))


def extract_cumulant(ops):
    cache = {}

    def rec(idx):
        if idx in cache:
            return cache[idx]
        total = vacuum_moment([ops[i] for i in idx])
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


def test_criterion_01_combinatorics_exactness():
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == catalan(n)
    for n in range(1, 9):
        gamma = {i: (i - 2) % n + 1 for i in range(1, n + 1)}
        for p in enumerate_nc(n):
            k = kreweras(p)
            assert len(p) + len(k) == n + 1
            assert kreweras(k) == relabel(p, gamma)
    report(1, "|NC(n)| = Catalan(n) up to 10; Kreweras identities up to 8")


def test_criterion_02_moment_cumulant_roundtrip():
    rng = random.Random(2025)
    cums = {("x",) * k: rand_frac(rng) for k in range(1, 9)}
    moms = {w: moments_from_cumulants(cums, w) for w in cums}
    assert cumulants_from_moments(moms) == cums
    moms2 = {("x",) * k: rand_frac(rng) for k in range(1, 9)}
    cums2 = cumulants_from_moments(moms2)
    assert all(moments_from_cumulants(cums2, w) == moms2[w] for w in moms2)
    words = [w for k in range(1, 6) for w in product("ab", repeat=k)]
    cums3 = {w: rand_frac(rng) for w in words}
    moms3 = {w: moments_from_cumulants(cums3, w) for w in words}
    assert cumulants_from_moments(moms3) == cums3
    report(2, "orders <= 8 exact rational roundtrip, both directions")


def test_criterion_03_fock_cumulant_oracle():
    rng = random.Random(33)
    for dim in (1, 2, 3):
        space = diag_space([rand_frac(rng, 1, 3) for _ in range(dim)])
        alg = gns_algebra(space)
        fk = FockSpace(alg, 5)
        xis = [alg.vector([rand_frac(rng) for _ in range(alg.dim)])
               for _ in range(3)]
        ops = [field_X(fk, xi) for xi in xis]

        def r_block(idx):
            if len(idx) < 2:
                return F(0)
            prod = xis[idx[1]]
            for i in idx[2:]:
                prod = alg.multiply(prod, xis[i])
            return alg.inner(alg.s_apply(xis[idx[0]]), prod)

        for n in range(1, 6):
            words = [tuple(rng.randrange(len(xis)) for _ in range(n))
                     for _ in range(4)]
            for word in words:
                lhs = vacuum_moment([ops[i] for i in word])
                rhs = F(0)
                for pi in enumerate_nc(n):
                    term = F(1)
                    for blk in pi.blocks:
                        term *= r_block(tuple(word[v - 1] for v in blk))
                    rhs += term
                assert lhs == rhs
    report(3, "vacuum moments of X-words equal NC sums exactly (dims <= 3, "
           "length <= 5)")


def test_criterion_04_fock_cumulant_theorem():
    rng = random.Random(44)
    space = diag_space([rand_frac(rng, 1, 3) for _ in range(2)])
    alg = gns_algebra(space)
    for n in range(2, 6):
        fk = FockSpace(alg, n)
        xi = alg.vector([rand_frac(rng), rand_frac(rng)])
        eta = alg.vector([rand_frac(rng), rand_frac(rng)])
        ts = [sc.array([[rand_frac(rng) for _ in range(2)]
                        for _ in range(2)], sc.EXACT)
              for _ in range(n - 2)]
        ops = [annihilation(fk, xi)] + [gauge(fk, t) for t in ts] + \
            [creation(fk, eta)]
        got = extract_cumulant(ops)
        prod = eta
        for t in reversed(ts):
            prod = t @ prod
        assert got == alg.inner(xi, prod)
    # misplaced argument patterns vanish
    fk = FockSpace(alg, 5)
    xi = alg.vector([F(1), F(1, 2)])
    t = sc.array([[F(1), F(1, 3)], [F(0), F(2)]], sc.EXACT)
    for ops in ([creation(fk, xi), annihilation(fk, xi)],
                [gauge(fk, t), gauge(fk, t)],
                [creation(fk, xi), gauge(fk, t), annihilation(fk, xi)],
                [annihilation(fk, xi), gauge(fk, t)],
                [creation(fk, xi), creation(fk, xi), annihilation(fk, xi)]):
        assert extract_cumulant(ops) == 0
    report(4, "R_n(l*, Lambda...Lambda, l) = <xi, T1...T_{n-2} eta> exactly, "
           "n <= 5; misplaced patterns vanish")


def test_criterion_05_rescaling_moment_identities():
    rng = random.Random(55)
    weights = [F(1, 6), F(1, 3), F(1, 2)]     # base state
    space = diag_space(weights)
    assert space.is_state()
    us = [space.element([[[rand_frac(rng)]] for _ in range(3)])
          for _ in range(6)]
    for alpha in (F(1, 2), F(1), F(2)):
        scaled = space.rescale(alpha)
        alg = gns_algebra(scaled)
        fk = FockSpace(alg, 6)
        for n in (1, 2, 3, 4, 5, 6):
            word = us[:n]
            ops = [field_Y(fk, u) for u in word]
            fock_val = vacuum_moment(ops)
            nc_val = sum(alpha ** len(pi) *
                         partitioned_moment(space, pi, word)
                         for pi in enumerate_nc(n))
            assert fock_val == nc_val
            # s u s (resp. p s u s p) model via the product theorem:
            # alpha^{n+1} M_n(u_1 s^2, ..., u_n s^2), s^2 of rate 1/alpha

            def m_slots(positions, _w=word):
                return moment(space, [_w[p - 1] for p in positions])

            r_u = _cumulant_slots(m_slots)
            r_s2 = slots_from_sequence([1 / alpha] * n)
            _, m_prod = product_moments_free(r_u, r_s2, n)
            assert fock_val == alpha ** (n + 1) * m_prod
    report(5, "Y-moments over alpha*phi = sum alpha^{|pi|} M_pi = "
           "compressed s.u.s model, alpha in {1/2, 1, 2}, n <= 6, exact")


def test_criterion_06_free_poisson_law():
    for lam in (0.5, 1.0, 2.0):
        m = tr.free_poisson_measure(lam)
        assert abs(m.moment(0) - 1.0) < 1e-8
        lo, hi = tr.free_poisson_support(lam)
        assert abs(lo - (math.sqrt(lam) - 1) ** 2) < 1e-9
        assert abs(hi - (math.sqrt(lam) + 1) ** 2) < 1e-9
        cf = CumulantFunctional.constant(lam, 6)
        for n in range(1, 7):
            want = float(moments_from_cumulants(cf, ("x",) * n))
            assert abs(m.moment(n) - want) < 1e-6
    report(6, "density+atom moments match kappa=lambda NC sums (1e-6); "
           "mass 1 (1e-8); support endpoints (1e-9)")


def test_criterion_07_wick_calculus():
    rng = random.Random(77)
    space = diag_space([F(1, 3), F(1, 2)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 6)
    s_om, _, _ = modular_ops(fk)
    for n in (1, 2, 3, 4):
        legs = [alg.vector([rand_frac(rng), rand_frac(rng)])
                for _ in range(n)]
        closed = wick(fk, legs)
        assert closed.is_close(wick_by_recursion(fk, legs),
                               max_input_degree=fk.L - n)
        assert closed.apply(fk.vacuum()).is_close(
            fk.vector_from_tensor(legs))
        assert closed.adjoint().apply(fk.vacuum()).is_close(
            s_om.apply(fk.vector_from_tensor(legs)))
    for n, m in ((1, 1), (1, 2), (2, 2), (1, 3)):
        left = [alg.vector([rand_frac(rng), rand_frac(rng)])
                for _ in range(n)]
        right = [alg.vector([rand_frac(rng), rand_frac(rng)])
                 for _ in range(m)]
        prod = wick(fk, left) * wick(fk, right)
        expand = wick_sum_operator(fk, wick_multiply(alg, left, right))
        assert prod.is_close(expand, max_input_degree=fk.L - m)
    report(7, "closed formula == recursion == defining property; "
           "multiplication == operator product; Psi(w)*Omega = S_Omega(w); "
           "exact, lengths <= 4")


def test_criterion_08_haagerup_bound():
    rng = np.random.default_rng(88)
    space = diag_space([0.7, 1.1], mode=sc.FLOAT)
    alg = gns_algebra(space)
    total = 0
    worst_slack = math.inf
    for n in (1, 2, 3):
        fk = FockSpace(alg, 2 * n + 2)
        bound_factor = haagerup_bound(space, n)
        per_n = 34 if n == 3 else 33
        for _ in range(per_n):
            xs = [space.element([[[rng.normal()]], [[rng.normal()]]])
                  for _ in range(n)]
            xnorm = 1.0
            for x in xs:
                xnorm *= max(abs(complex(x[0][0, 0])),
                             abs(complex(x[1][0, 0])))
            op, norm = wick_embedding_In(fk, xs)
            bound = bound_factor * xnorm
            assert norm <= bound + 1e-9, (n, norm, bound)
            if bound > 0:
                worst_slack = min(worst_slack, bound - norm)
            total += 1
    assert total == 100
    report(8, "||I_n(x)|| within the cb bound on 100 random tensors "
           "(n <= 3, L = 2n+2); minimal slack %.3e" % worst_slack)


def test_criterion_09_second_quantization():
    rng = np.random.default_rng(99)
    src = diag_space([0.6, 0.9], mode=sc.FLOAT)
    tgt = diag_space([0.8, 0.5], mode=sc.FLOAT)
    phi = np.array([0.6, 0.9])
    psi = np.array([0.8, 0.5])
    checked = 0
    for trial in range(25):
        a = rng.uniform(0.05, 1.0, size=(2, 2))
        scale = min(1.0 / a.sum(axis=1).max(), (phi / (a.T @ psi)).min())
        a *= scale * rng.uniform(0.5, 0.99)
        kraus = []
        for i in range(2):
            for j in range(2):
                k = np.zeros((2, 2), dtype=complex)
                k[i, j] = math.sqrt(a[i, j])
                kraus.append(k)
        t = CpMap(src, tgt, kraus)
        assert check_admissible(t).admissible
        dil = build_dilation(t)
        assert np.abs(dil.k_m.conj().T @ dil.k_m - np.eye(2)).max() < 1e-10
        assert np.abs(dil.p_n @ dil.p_n.conj().T - np.eye(2)).max() < 1e-10
        d = petz_dual(t)
        for _ in range(3):
            m = [np.array([[rng.normal() + 1j * rng.normal()]])
                 for _ in range(2)]
            nn = [np.array([[rng.normal() + 1j * rng.normal()]])
                  for _ in range(2)]
            assert abs(biweight(src, d.apply(nn), m) -
                       biweight(tgt, nn, t.apply(m))) < 1e-9
        n = trial % 3 + 1
        L = n + 2
        legs = [rng.normal(size=2) + 1j * rng.normal(size=2)
                for _ in range(n)]
        got = second_quantize(t, [(1.0, legs)], L, dilation=dil)
        want = wick_matrix_on_target(t, [dil.t2 @ x for x in legs], L)
        assert np.abs(got - want).max() < 1e-8
        # vacuum state preserved
        from freepoisson.fock import wick as build_wick
        alg_m = L2Space(src).onb_algebra()
        fkm = FockSpace(alg_m, L)
        src_op = build_wick(fkm, legs, mode=PROJECTIVE)
        assert abs(got[0, 0] -
                   complex(sc.to_float_array(src_op.matrix())[0, 0])) < 1e-8
        checked += 1
    assert checked == 25
    tt = 0.45
    tou = CpMap.scalar(src, math.exp(-tt))
    for n in (1, 2, 3):
        legs = [rng.normal(size=2) for _ in range(n)]
        got = second_quantize(tou, [(1.0, legs)], n + 2)
        want = math.exp(-n * tt) * wick_matrix_on_target(tou, legs, n + 2)
        assert np.abs(got - want).max() < 1e-10
    report(9, "25 random admissible maps: Wick preservation (1e-8), "
           "isometry/coisometry (1e-10), biweight duality (1e-9), "
           "OU scaling e^{-nt}")


def test_criterion_10_levy_ito():
    rng = np.random.default_rng(1010)
    for _ in range(5):
        base = np.array([-2.2, 0.7, 2.5])
        locs = base + rng.uniform(-0.2, 0.2, size=3)
        ws = rng.uniform(0.2, 1.5, size=3)
        t = tr.LevyTriple(a=float(rng.normal()),
                          b=float(rng.uniform(0.3, 1.2)),
                          rho=tr.Measure(atoms=list(zip(map(float, locs),
                                                        map(float, ws)))))
        ks = tr.cumulants_from_triple(t, 12)
        t2, verdict = tr.recover_triple_from_cumulants(ks)
        assert verdict.fid
        for (lg, wg), (lw, ww) in zip(sorted(t2.rho.atoms),
                                      sorted(t.rho.atoms)):
            assert abs(lg - lw) < 1e-7
        assert abs(t2.a - t.a) < 1e-7 and abs(t2.b - t.b) < 1e-6
        parts = tr.levy_ito_split(t)
        zs = [complex(rng.uniform(-0.15, 0.15), rng.uniform(0.01, 0.15))
              for _ in range(20)]
        for z in zs:
            total = sum(tr.levy_khintchine_C(p, z) for p in parts)
            assert abs(total - tr.levy_khintchine_C(t, z)) < 1e-10
    bad, verdict = tr.recover_triple_from_cumulants([0, 0, 1, 0, 0, 0])
    assert bad is None and not verdict.fid
    report(10, "triple -> cumulants -> triple roundtrip (atoms 1e-7); "
           "split C-additivity at 20 points (1e-10); non-FID rejected")


def test_criterion_11_variation_convergence():
    for k in (2, 3):
        exp = VariationExperiment(atoms=[(1, 1)], b=0, t=1, k=k,
                                  n_list=(4, 8, 16, 32, 64))
        res = run_experiment(exp)
        errs = res["errors"]
        assert all(a > b for a, b in zip(errs, errs[1:])), (k, errs)
        assert -0.65 <= res["slope"] <= -0.35, (k, res["slope"])
    report(11, "L2 errors strictly decrease along N in {4..64}; log-log "
           "slope within [-0.65, -0.35] for k in {2, 3}")


def test_criterion_12_filtration_classification():
    # Poisson filtration branches on a grid, including both boundaries
    for alpha in (0.1, 0.5, 0.999, 1.0, 1.5, 2.0, 3.7):
        d = poisson_filtration(alpha)
        if alpha < 1:
            assert d == WithAtom(2, alpha)
        else:
            assert d == FreeGroupFactor(2 * alpha)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    for mass in (0.5, 1.0, 2.0):
        for t in grid:
            triple = tr.LevyTriple(a=0.0, b=0.0,
                                   rho=tr.Measure(atoms=[(1.0, mass)]))
            d = filtration_classify(triple, t)
            tm = t * mass
            if tm >= 1:
                assert d == FreeGroupFactor(2 * tm)
            else:
                assert d == WithAtom(2, tm)
    # b -> 0 boundary: any nonzero b gives L(F_inf), b = 0 falls back
    triple_g = tr.LevyTriple(a=0.0, b=1e-12,
                             rho=tr.Measure(atoms=[(1.0, 1.0)]))
    assert filtration_classify(triple_g, 1.0) == \
        FreeGroupFactor(float("inf"))
    triple_0 = tr.LevyTriple(a=0.0, b=0.0,
                             rho=tr.Measure(atoms=[(1.0, 1.0)]))
    assert filtration_classify(triple_0, 1.0) == FreeGroupFactor(2.0)
    # boundary t rho(R) = 1: parameter -> 2 and atom weight -> 0 together
    eps = 1e-9
    below = filtration_classify(triple_0, 1.0 - eps)
    assert isinstance(below, WithAtom) and abs(below.alpha - 1) < 1e-8
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 9)
        alpha = n + F(rng.randint(1, 48), 48)
        assert freedim_combine(n, alpha) == 2 * alpha
    report(12, "all displayed filtration branches on the grid incl. "
           "boundaries; freedim identity exact on 200 random inputs")
