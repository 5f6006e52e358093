"""Analytic transforms: Cauchy/cumulant transforms, the free Poisson law,
Levy-Khintchine evaluation, splitting, recovery, and free convolution."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freepoisson import transforms as tr
from freepoisson.errors import DomainError, ValidationError
from freepoisson.ncps import CumulantFunctional, moments_from_cumulants
from oracles import quadrature_cauchy


# -- Cauchy transform ----------------------------------------------------------

def test_cauchy_point_mass_at_origin():
    m = tr.Measure(atoms=[(0.0, 1.0)])
    assert abs(tr.cauchy_transform(m, 1j) - (-1j)) < 1e-15


def test_cauchy_point_mass_general():
    m = tr.Measure(atoms=[(2.5, 1.0)])
    for z in (4.0, 1j, -3 + 2j):
        assert abs(tr.cauchy_transform(m, z) - 1 / (z - 2.5)) < 1e-14


def test_cauchy_free_poisson_closed_form_matches_quadrature():
    m = tr.free_poisson_measure(1.0)
    for z in (3 + 0j, 5.0, 2 + 1j, -0.5 + 0.25j):
        a = tr.cauchy_transform(m, z)
        b = quadrature_cauchy(m, z)
        assert abs(a - b) < 1e-7, z


def test_cauchy_boundary_value_gives_density():
    lam = 1.0
    m = tr.free_poisson_measure(lam)
    for x in (1.0, 2.0, 3.0):
        g = quadrature_cauchy(m, complex(x, 0.0))
        f = tr.free_poisson_density(lam, x)[0]
        assert abs(-g.imag / math.pi - f) < 1e-7


def test_cauchy_at_atom_rejected():
    m = tr.Measure(atoms=[(1.0, 1.0)])
    with pytest.raises(DomainError):
        tr.cauchy_transform(m, 1.0)


def test_measure_json_roundtrip():
    for m in (tr.free_poisson_measure(0.7),
              tr.Measure(atoms=[(-1.0, 0.4)],
                         density=("semicircle", 0.5, 1.2))):
        assert tr.Measure.from_json(m.to_json()) == m


@pytest.mark.parametrize("density, key, message", [
    ({"kind": "free_poisson"}, "lambda",
     "free_poisson density is missing 'lambda'"),
    ({"kind": "semicircle", "a": 0.0}, "b",
     "semicircle density is missing 'b'"),
    ({"lambda": 1.0}, "kind", "unknown density kind None"),
    ({"kind": "cauchy"}, "kind", "unknown density kind 'cauchy'"),
])
def test_measure_from_json_names_a_missing_key(density, key, message):
    # a ValidationError, where a bare KeyError escaped before
    with pytest.raises(ValidationError, match=message) as info:
        tr.Measure.from_json({"density": density})
    assert info.value.witness == {"field": "density." + key}


def test_nevanlinna_property():
    rng = np.random.default_rng(0)
    measures = [tr.free_poisson_measure(0.7),
                tr.Measure(atoms=[(-1.0, 0.4), (2.0, 0.6)]),
                tr.Measure(density=("semicircle", 0.5, 1.2))]
    for m in measures:
        for _ in range(10):
            z = complex(rng.uniform(-4, 4), rng.uniform(1e-3, 3.0))
            assert tr.cauchy_transform(m, z).imag < 0


# -- cumulant transform ----------------------------------------------------------

def test_cumulant_transform_point_mass():
    m = tr.Measure(atoms=[(1.75, 1.0)])
    for z in (0.1, 0.2, 0.05j):
        assert abs(tr.cumulant_transform(m, z) - 1.75 * z) < 1e-10


def test_cumulant_transform_free_poisson():
    for lam in (1.0, 2.0):
        m = tr.free_poisson_measure(lam)
        for z in (0.1, 0.2j):
            got = tr.cumulant_transform(m, z)
            want = lam * z / (1 - z)
            assert abs(got - want) < 1e-8, (lam, z)


def test_cumulant_transform_small_z_limit_is_mean():
    m = tr.Measure(atoms=[(0.5, 0.3), (2.0, 0.7)])
    z = 1e-5
    c = tr.cumulant_transform(m, z)
    assert abs(c / z - m.mean()) < 1e-3


def test_cumulant_series_coefficients_match_lambda():
    lam = 1.4
    m = tr.free_poisson_measure(lam)
    # Fourier extraction of the series coefficients on a small circle
    r, npts = 0.15, 64
    samples = [tr.cumulant_transform(m, r * np.exp(2j * np.pi * k / npts))
               for k in range(npts)]
    for n in range(1, 9):
        coeff = sum(s * np.exp(-2j * np.pi * k * n / npts)
                    for k, s in enumerate(samples)) / (npts * r ** n)
        assert abs(coeff - lam) < 1e-6, n


# -- free Poisson density ---------------------------------------------------------

def test_density_value_at_two():
    val, atom = tr.free_poisson_density(1.0, 2.0)
    assert abs(val - 1 / (2 * math.pi)) < 1e-15
    assert atom == 0.0


def test_density_interior_value():
    val, _ = tr.free_poisson_density(1.0, 3.0)
    assert abs(val - math.sqrt(3) / (6 * math.pi)) < 1e-15


def test_density_atom_weight():
    assert tr.free_poisson_density(0.5, 1.0)[1] == 0.5
    assert tr.free_poisson_density(2.0, 1.0)[1] == 0.0


def test_density_support_endpoints():
    for lam in (0.5, 1.0, 2.0):
        lo, hi = tr.free_poisson_support(lam)
        assert abs(lo - (math.sqrt(lam) - 1) ** 2) < 1e-9
        assert abs(hi - (math.sqrt(lam) + 1) ** 2) < 1e-9
        assert tr.free_poisson_density(lam, lo - 1e-9)[0] == 0
        assert tr.free_poisson_density(lam, hi + 1e-9)[0] == 0


def test_density_total_mass_one():
    for lam in (0.5, 1.0, 2.0):
        m = tr.free_poisson_measure(lam)
        assert abs(m.moment(0) - 1.0) < 1e-8


def test_density_moments_match_nc_sums():
    for lam in (0.5, 1.0, 2.0):
        m = tr.free_poisson_measure(lam)
        cf = CumulantFunctional.constant(lam, 6)
        for n in range(1, 7):
            want = float(moments_from_cumulants(cf, ("x",) * n))
            assert abs(m.moment(n) - want) < 1e-6, (lam, n)


def test_density_rejects_bad_rate():
    for lam in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            tr.free_poisson_density(lam, 1.0)


# -- Levy-Khintchine ---------------------------------------------------------------

def test_lk_gaussian_only():
    t = tr.LevyTriple(a=1.5, b=2.0, rho=tr.Measure(atoms=[]))
    z = 0.3 + 0.1j
    assert abs(tr.levy_khintchine_C(t, z) - (1.5 * z + 4.0 * z * z)) < 1e-14


def test_lk_centered_free_poisson():
    lam = 0.8
    t = tr.LevyTriple(a=0, b=0, rho=tr.Measure(atoms=[(1.0, lam)]))
    for z in (0.2, 0.4j):
        want = lam * z ** 2 / (1 - z)
        assert abs(tr.levy_khintchine_C(t, z) - want) < 1e-14


def test_lk_compound_no_compensation():
    lam = 0.6
    t = tr.LevyTriple(a=0, b=0, rho=tr.Measure(atoms=[(2.0, lam)]))
    z = 0.1
    want = lam * (1 / (1 - 2 * z) - 1)
    assert abs(tr.levy_khintchine_C(t, z) - want) < 1e-14


def test_lk_pole_reported():
    t = tr.LevyTriple(a=0, b=0, rho=tr.Measure(atoms=[(2.0, 1.0)]))
    with pytest.raises(DomainError):
        tr.levy_khintchine_C(t, 0.5)


def test_triple_rejects_atom_at_zero():
    with pytest.raises(ValidationError):
        tr.LevyTriple(a=0, b=0, rho=tr.Measure(atoms=[(0.0, 1.0)]))


# -- Levy-Ito splitting ----------------------------------------------------------

def test_split_small_support_has_no_compound_part():
    t = tr.LevyTriple(a=0.2, b=0.1,
                      rho=tr.Measure(atoms=[(0.5, 1.0), (-1.0, 0.3)]))
    g, comp, cp = tr.levy_ito_split(t)
    assert cp.rho.atoms == []
    assert sorted(comp.rho.atoms) == [(-1.0, 0.3), (0.5, 1.0)]


def test_split_indicator():
    t = tr.LevyTriple(a=0, b=0,
                      rho=tr.Measure(atoms=[(0.5, 1.0), (3.0, 2.0)]))
    g, comp, cp = tr.levy_ito_split(t)
    assert comp.rho.atoms == [(0.5, 1.0)]
    assert cp.rho.atoms == [(3.0, 2.0)]


def test_split_c_additivity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        atoms = [(float(rng.uniform(-3, 3)) or 0.1, float(rng.uniform(0.1, 2)))
                 for _ in range(3)]
        t = tr.LevyTriple(a=float(rng.normal()), b=float(rng.uniform(0, 1.5)),
                          rho=tr.Measure(atoms=atoms))
        parts = tr.levy_ito_split(t)
        for z in [0.05j, 0.1 + 0.02j, -0.07 + 0.01j]:
            total = sum(tr.levy_khintchine_C(p, z) for p in parts)
            assert abs(total - tr.levy_khintchine_C(t, z)) < 1e-10


# -- cumulants of triples -----------------------------------------------------------

def test_cumulants_gaussian_triple():
    t = tr.LevyTriple(a=0.7, b=1.5, rho=tr.Measure(atoms=[]))
    ks = tr.cumulants_from_triple(t, 6)
    assert ks == [0.7, 2.25, 0, 0, 0, 0]


def test_cumulants_centered_poisson_triple():
    lam = 1.3
    t = tr.LevyTriple(a=0, b=0, rho=tr.Measure(atoms=[(1.0, lam)]))
    ks = tr.cumulants_from_triple(t, 6)
    assert ks[0] == 0
    assert all(abs(k - lam) < 1e-14 for k in ks[1:])


def test_roundtrip_triple_cumulants_triple():
    # atom locations kept separated: recovery from finitely many moments is
    # inherently ill-conditioned for clustered nodes
    rng = np.random.default_rng(6)
    for _ in range(5):
        base = np.array([-2.0, 0.8, 2.6])
        locs = base + rng.uniform(-0.15, 0.15, size=3)
        ws = rng.uniform(0.2, 1.5, size=3)
        t = tr.LevyTriple(a=float(rng.normal()),
                          b=float(rng.uniform(0.3, 1.0)),
                          rho=tr.Measure(atoms=list(zip(map(float, locs),
                                                        map(float, ws)))))
        ks = tr.cumulants_from_triple(t, 12)
        t2, verdict = tr.recover_triple_from_cumulants(ks)
        assert verdict.fid
        assert abs(t2.a - t.a) < 1e-7
        assert abs(t2.b - t.b) < 1e-6
        got = sorted(t2.rho.atoms)
        want = sorted(t.rho.atoms)
        for (t_got, w_got), (t_want, w_want) in zip(got, want):
            assert abs(t_got - t_want) < 1e-7
            assert abs(w_got - w_want) < 1e-6


def test_recover_semicircular():
    ks = [0.0, 1.0] + [0.0] * 6
    t, verdict = tr.recover_triple_from_cumulants(ks)
    assert verdict.fid
    assert t.rho.atoms == []
    assert abs(t.b - 1.0) < 1e-12 and abs(t.a) < 1e-12


def test_recover_constant_cumulants():
    lam = 0.9
    ks = [lam] * 10
    t, verdict = tr.recover_triple_from_cumulants(ks)
    assert verdict.fid
    assert abs(t.a - lam) < 1e-9
    assert t.b < 1e-9
    assert len(t.rho.atoms) == 1
    loc, w = t.rho.atoms[0]
    assert abs(loc - 1.0) < 1e-9 and abs(w - lam) < 1e-9


def test_recover_rejects_non_fid():
    # kappa_3 alone violates Hankel positivity
    t, verdict = tr.recover_triple_from_cumulants([0, 0, 1, 0, 0, 0])
    assert t is None and not verdict.fid


def test_recover_refuses_a_psd_hankel_without_a_representing_measure():
    # sigma = (1, 0, 0, 0, 1) has a PSD Hankel with pivots 0 and 2; sigma_2
    # = 0 would make sigma the point mass at 0, whose sigma_4 is 0
    t, verdict = tr.recover_triple_from_cumulants([0, 1, 0, 0, 0, 1])
    assert t is None and not verdict.fid and verdict.pivot == 1
    assert verdict.reason.endswith("has no representing measure")
    t, verdict = tr.recover_triple_from_cumulants([0, 0, 1, 0, 0, 0])
    assert verdict.reason.endswith("is not PSD") and verdict.pivot == 0


def test_recover_counts_a_gaussian_part_beside_a_small_atom():
    # sigma has mass at 0 and an atom at 0.1416: an SVD rank with an
    # absolute floor counted 3 of its 4 atoms and returned b = 0 with an
    # atom at 0.003 of weight 4e4
    t = tr.LevyTriple(a=0.37, b=0.655, rho=tr.Measure(
        atoms=[(2.967, 0.954), (2.115, 1.339), (0.1416, 0.633)]))
    got, verdict = tr.recover_triple_from_cumulants(
        tr.cumulants_from_triple(t, 12))
    assert verdict.fid and verdict.rank == 4
    assert abs(got.b - t.b) < 1e-6 and abs(got.a - t.a) < 1e-6
    for (lg, wg), (lw, ww) in zip(sorted(got.rho.atoms),
                                  sorted(t.rho.atoms)):
        assert abs(lg - lw) < 1e-6 and abs(wg - ww) < 1e-6


_LOC = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
    lambda t: t != 0)
_MASS = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_recover_is_scale_invariant(scale):
    """kappa scaled by c keeps the atom locations and scales the Levy
    weights, b^2 and a by c: the weight floor is relative to sigma_0."""
    triple = tr.LevyTriple(a=0.37, b=0.655, rho=tr.Measure(atoms=[
        (2.967, 0.954), (2.115, 1.339), (0.1416, 0.633)]))
    kappas = tr.cumulants_from_triple(triple, 10)
    want, _ = tr.recover_triple_from_cumulants(kappas)
    got, verdict = tr.recover_triple_from_cumulants(
        [scale * k for k in kappas])
    assert verdict.fid and len(got.rho.atoms) == len(want.rho.atoms) == 3
    for (t, w), (t0, w0) in zip(sorted(got.rho.atoms),
                                sorted(want.rho.atoms)):
        assert abs(t - t0) < 1e-6 * abs(t0)
        assert abs(w - scale * w0) < 1e-6 * scale * w0
    assert abs(got.b ** 2 - scale * want.b ** 2) < 1e-6 * scale * want.b ** 2
    assert abs(got.a - scale * want.a) < 1e-6 * scale * abs(want.a)


@settings(max_examples=60, deadline=None)
@given(st.lists(_LOC, max_size=4, unique=True), st.data())
def test_exact_kappas_recover_rank_atoms_plus_gaussian(locs, data):
    """k distinct nonzero atoms and a Gaussian part give sigma k + 1 atoms;
    rational kappas take the exact elimination, which finds all of them."""
    triple = tr.LevyTriple(
        a=data.draw(_MASS), b=data.draw(_MASS),
        rho=tr.Measure(atoms=[(t, data.draw(_MASS)) for t in locs]))
    kappas = tr.cumulants_from_triple(triple, 12)
    assert all(isinstance(k, (int, F)) for k in kappas)
    _, verdict = tr.recover_triple_from_cumulants(kappas)
    assert verdict.fid and verdict.rank == len(locs) + 1


# -- free convolution ----------------------------------------------------------------

def test_convolve_shift():
    m = tr.free_poisson_measure(1.0)
    conv = tr.free_convolve(m, tr.Measure(atoms=[(1.0, 1.0)]))
    xs = np.linspace(1.2, 4.8, 13)
    vals, fails = conv.density_on_grid(xs)
    assert not fails
    ref = [tr.free_poisson_density(1.0, x - 1)[0] for x in xs]
    assert np.max(np.abs(vals - ref)) < 1e-6


def test_convolve_poisson_plus_poisson():
    conv = tr.free_convolve(tr.free_poisson_measure(1.0),
                            tr.free_poisson_measure(1.0))
    t2 = tr.free_poisson_triple(2.0)
    for z in (0.1, 0.07j, 0.12 + 0.03j):
        assert abs(conv.c(z) - tr.levy_khintchine_C(t2, z)) < 1e-9
    ks = tr.cumulants_from_triple(t2, 6)
    assert all(abs(k - 2.0) < 1e-12 for k in ks)


def test_convolve_bernoulli_gives_arcsine():
    """b = (delta_-1 + delta_1)/2 has no closed-form C, so both parts use
    Newton inversion; b boxplus b is the arcsine law 1/(pi sqrt(4 - x^2))."""
    b = tr.Measure(atoms=[(-1.0, 0.5), (1.0, 0.5)])
    conv = tr.free_convolve(b, b)
    for z in (0.1, 0.05j, -0.08 + 0.03j):
        assert conv.c(z) == 2 * tr.cumulant_transform(b, z)
    xs = np.linspace(-1.6, 1.6, 9)
    vals, fails = conv.density_on_grid(xs)
    assert not fails
    ref = 1.0 / (math.pi * np.sqrt(4.0 - xs ** 2))
    assert np.max(np.abs(vals - ref)) < 1e-6


def test_bernoulli_square_matches_arcsine_across_the_support():
    """b boxplus b on linspace(-2.5, 2.5, 9) and 2.05, 2.1667, 3.0: the
    arcsine density at the interior points, +-1.875 included, and zero
    outside the support [-2, 2], with no failed point."""
    b = tr.Measure(atoms=[(-1.0, 0.5), (1.0, 0.5)])
    xs = np.concatenate([np.linspace(-2.5, 2.5, 9), [2.05, 2.1667, 3.0]])
    vals, fails = tr.free_convolve(b, b).density_on_grid(xs)
    assert not fails
    inside = np.abs(xs) < 2
    ref = 1.0 / (math.pi * np.sqrt(4.0 - xs[inside] ** 2))
    assert np.max(np.abs(vals[inside] - ref)) < 1e-6
    assert np.all(vals[~inside] < 1e-6)


def test_convolution_cauchy_from_a_critical_start():
    """For z = iy, y <= 1, the default start is i, where G_b' = 0, so the
    first step is the fixed-point step; G is the arcsine 1/sqrt(z^2 - 4).
    A part with no mass is refused."""
    b = tr.Measure(atoms=[(-1.0, 0.5), (1.0, 0.5)])
    for y in (1e-4, 0.5):
        g = tr.free_convolve(b, b).cauchy(complex(0.0, y))
        assert abs(g - 1 / (1j * math.sqrt(4 + y * y))) < 1e-12
    with pytest.raises(DomainError):
        tr.free_convolve(b, tr.Measure())


def test_bernoulli_cube_matches_kesten_mckay():
    """Three measures, none with a closed-form C: b boxplus b boxplus b is
    the Kesten-McKay law 3 sqrt(8 - x^2) / (2 pi (9 - x^2)) on
    [-sqrt 8, sqrt 8]."""
    b = tr.Measure(atoms=[(-1.0, 0.5), (1.0, 0.5)])
    xs = np.linspace(-2.6, 2.6, 11)
    vals, fails = tr.free_convolve(b, b, b).density_on_grid(xs)
    assert not fails
    ref = 3 * np.sqrt(8.0 - xs ** 2) / (2 * math.pi * (9.0 - xs ** 2))
    assert np.max(np.abs(vals - ref)) < 1e-6


def _random_triple(rng):
    n = int(rng.integers(1, 4))
    locs = rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)
    return tr.LevyTriple(
        a=float(rng.normal()), b=float(rng.uniform(0.0, 1.0)),
        rho=tr.Measure(atoms=[(float(t), float(w)) for t, w
                              in zip(locs, rng.uniform(0.1, 1.5, n))]))


def _triple_pairs():
    """40 seeded triple pairs with two points each, Im z in {1, 3}."""
    rng = np.random.default_rng(2024)
    for _ in range(40):
        t1, t2 = _random_triple(rng), _random_triple(rng)
        for y in (1.0, 3.0):
            yield t1, t2, complex(rng.uniform(-3.0, 3.0), y)


def test_cumulant_transform_adds_under_convolution():
    """C(t1) + C(t2) = C(t1 + t2): G of t1 boxplus t2 is G of the summed
    triple (a1 + a2, sqrt(b1^2 + b2^2), rho1 + rho2) boxplus delta_0."""
    delta0 = tr.Measure(atoms=[(0.0, 1.0)])
    for t1, t2, z in _triple_pairs():
        summed = tr.LevyTriple(a=t1.a + t2.a, b=math.hypot(t1.b, t2.b),
                               rho=tr.Measure(atoms=t1.rho.atoms
                                              + t2.rho.atoms))
        g = tr.free_convolve(t1, t2).cauchy(z)
        want = tr.free_convolve(summed, delta0).cauchy(z)
        assert abs(g - want) <= 1e-12 * abs(want)


def test_convolution_cauchy_stays_in_the_lower_half_plane():
    for t1, t2, z in _triple_pairs():
        assert tr.free_convolve(t1, t2).cauchy(z).imag < 0


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0])
def test_free_poisson_triple_shift_density(lam):
    shift = 0.7
    lo, hi = tr.free_poisson_support(lam)
    xs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 9)
    conv = tr.free_convolve(tr.free_poisson_triple(lam),
                            tr.Measure(atoms=[(shift, 1.0)]))
    vals, fails = conv.density_on_grid(xs + shift)
    assert not fails
    ref = [tr.free_poisson_density(lam, x)[0] for x in xs]
    assert np.max(np.abs(vals - ref)) < 1e-6


def test_compound_poisson_transform_matches_fock_moments():
    # C_{Y(x)}(z) = phi(1/(1-zx) - 1) for a two-atom x, checked to order 6
    from fractions import Fraction as F
    from freepoisson.fock import FockSpace, field_Y, gns_algebra, vacuum_moment
    from freepoisson.ncps import diag_space
    space = diag_space([F(1, 3), F(2, 3)])
    alg = gns_algebra(space)
    fk = FockSpace(alg, 6)
    x = space.element([[[F(1, 2)]], [[F(3)]]])
    y = field_Y(fk, x)
    fock_moments = [float(vacuum_moment([y] * n)) for n in range(1, 7)]
    # cumulants of Y(x) are phi(x^n): series of phi(1/(1-zx) - 1)
    kappas = [float(space.phi([b ** n for b in x])) for n in range(1, 7)]
    cf = CumulantFunctional.from_sequence(kappas)
    for n in range(1, 7):
        want = moments_from_cumulants(cf, ("x",) * n)
        assert abs(fock_moments[n - 1] - want) < 1e-10
