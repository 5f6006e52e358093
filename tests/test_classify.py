"""Symbolic classification: parameter arithmetic, finite-weight descriptors,
the factoriality predicate, and the filtration branches."""

import random
from fractions import Fraction as F

import pytest

from freepoisson import transforms as tr
from freepoisson.classify import (INF, Compression, DirectSum,
                                  FreeGroupFactor, FreeProduct, Opaque,
                                  WithAtom, factoriality, filtration_classify,
                                  freedim_combine, gamma_finite_weight,
                                  modular_spectrum_subgroup,
                                  poisson_filtration, simplify)
from freepoisson.errors import DomainError


def triple(a, b, atoms):
    return tr.LevyTriple(a=a, b=b, rho=tr.Measure(atoms=atoms))


# -- parameter arithmetic --------------------------------------------------------

def test_freedim_displayed_case():
    assert freedim_combine(1, F(3, 2)) == 3


def test_freedim_endpoints():
    assert freedim_combine(2, 3) == 6
    assert freedim_combine(1, 2) == 4


def test_freedim_identity_random():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 9)
        alpha = n + F(rng.randint(1, 60), 60)
        assert freedim_combine(n, alpha) == 2 * alpha


def test_freedim_domain():
    with pytest.raises(DomainError):
        freedim_combine(0, F(1, 2))
    with pytest.raises(DomainError):
        freedim_combine(2, F(7, 2))


def test_simplify_merges_free_groups():
    got = simplify(FreeProduct((FreeGroupFactor(2), FreeGroupFactor(3))))
    assert got == FreeGroupFactor(5)


def test_simplify_absorbs_atom_interval():
    expr = FreeProduct((FreeGroupFactor(4), WithAtom(2, 0.25)))
    assert simplify(expr) == FreeGroupFactor(4.5)


# -- finite-weight descriptors ------------------------------------------------------

def test_gamma_lebesgue_unit_weight():
    m = Opaque("L^inf[0,1]", diffuse_abelian=True)
    assert gamma_finite_weight(m, 1) == FreeGroupFactor(2)


def test_gamma_half_weight_diffuse():
    m = Opaque("L^inf[0,1]", diffuse_abelian=True)
    assert gamma_finite_weight(m, 0.5) == WithAtom(2, 0.5)


def test_gamma_weight_three_diffuse():
    m = Opaque("L^inf[0,1]", diffuse_abelian=True)
    assert gamma_finite_weight(m, 3) == FreeGroupFactor(6)


def test_gamma_general_m_small_weight():
    m = Opaque("M")
    got = gamma_finite_weight(m, 0.4)
    assert isinstance(got, DirectSum)
    (expr, w), (atom, w2) = got.parts
    assert atom == "C" and abs(w - 0.4) < 1e-12 and abs(w2 - 0.6) < 1e-12
    assert expr == FreeProduct((Opaque("L(Z)"), m))


def test_gamma_general_m_large_weight_compressed():
    m = Opaque("M")
    got = gamma_finite_weight(m, 2.0)
    assert isinstance(got, FreeProduct)
    lz, comp = got.parts
    assert lz == Opaque("L(Z)")
    assert isinstance(comp, Compression)
    assert abs(comp.weight - 0.5) < 1e-12


def test_gamma_rejects_trivial_m():
    with pytest.raises(DomainError):
        gamma_finite_weight(Opaque("C", trivial=True), 1.0)


# -- factoriality -------------------------------------------------------------------

def test_factoriality_cases():
    assert factoriality(0.5, False) == (False,
                                        "total weight below 1 leaves a "
                                        "central atom")
    ok, note = factoriality(1.0, False)
    assert ok and "III_lambda" in note
    assert factoriality(float("inf"), True)[0] is False
    assert factoriality(7.0, False)[0] is True


def test_modular_subgroup_reports():
    assert modular_spectrum_subgroup([1.0, 1.0]) == ("trivial",)
    kind, gen = modular_spectrum_subgroup([2.0, 4.0, 0.5])
    assert kind == "cyclic" and abs(gen - 2.0) < 1e-9
    kind, gen = modular_spectrum_subgroup([2.0, 2.0 ** 0.5])
    assert kind == "cyclic" and abs(gen - 2.0 ** 0.5) < 1e-6
    assert modular_spectrum_subgroup([2.0, 3.0])[0] == "dense"
    # irrational log ratio: genuinely dense
    import math
    assert modular_spectrum_subgroup([2.0, math.exp(math.pi)])[0] == "dense"


# -- filtration branches --------------------------------------------------------------

def test_filtration_gaussian_part_gives_infinite():
    t = triple(0.0, 1.0, [(1.0, 0.3)])
    assert filtration_classify(t, 1.0) == FreeGroupFactor(INF)


def test_filtration_infinite_mass_flag():
    t = triple(0.0, 0.0, [(1.0, 1.0)])
    assert filtration_classify(t, 1.0, rho_infinite=True) == \
        FreeGroupFactor(INF)


def test_filtration_large_time():
    t = triple(0.0, 0.0, [(1.0, 1.0)])
    assert filtration_classify(t, 3.0) == FreeGroupFactor(6.0)


def test_filtration_small_time():
    t = triple(0.0, 0.0, [(1.0, 1.0)])
    assert filtration_classify(t, 0.5) == WithAtom(2, 0.5)


def test_filtration_boundary_continuity():
    t = triple(0.0, 0.0, [(2.0, 1.0)])
    eps = 1e-6
    below = filtration_classify(t, 1.0 - eps)
    at = filtration_classify(t, 1.0)
    above = filtration_classify(t, 1.0 + eps)
    assert isinstance(below, WithAtom) and abs(below.alpha - 1.0) < 1e-5
    assert at == FreeGroupFactor(2.0)
    assert isinstance(above, FreeGroupFactor)
    assert abs(above.r - 2.0) < 1e-5
    # parameter nondecreasing in t
    params = []
    for tt in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        d = filtration_classify(t, tt)
        params.append(d.r if isinstance(d, FreeGroupFactor) else 2 * d.alpha)
    assert params == sorted(params)


def test_filtration_requires_positive_time():
    t = triple(0.0, 0.0, [(1.0, 1.0)])
    with pytest.raises(DomainError):
        filtration_classify(t, 0.0)


def test_poisson_filtration_branches():
    assert poisson_filtration(1.0) == FreeGroupFactor(2.0)
    assert poisson_filtration(0.25) == WithAtom(2, 0.25)
    assert poisson_filtration(2.5) == FreeGroupFactor(5.0)


def test_poisson_matches_filtration_on_grid():
    for alpha in (0.2, 0.6, 1.0, 1.7, 3.2):
        t = triple(0.0, 0.0, [(1.0, alpha)])
        assert poisson_filtration(alpha) == filtration_classify(t, 1.0)


def test_descriptor_json():
    assert FreeGroupFactor(INF).to_json()["r"] == "inf"
    j = WithAtom(2, 0.5).to_json()
    assert j == {"kind": "with_atom", "r": 2.0, "alpha": 0.5}
