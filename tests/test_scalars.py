"""The symmetric elimination behind every Gram decision: pivots, the PSD
gate and exact solves."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freepoisson import _scalars as sc
from freepoisson.errors import NotPsdError, ValidationError

from oracles import greedy_pivots

_FRAC = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _gram(draw, shift=0):
    """G = B^T D B (+ shift * I) for a rational k x n matrix B and a
    positive diagonal D, so rank(G) <= k when shift is 0."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    b = np.array(draw(st.lists(st.lists(_FRAC, min_size=n, max_size=n),
                               min_size=k, max_size=k)), dtype=object)
    d = draw(st.lists(st.fractions(min_value=F(1, 4), max_value=4,
                                   max_denominator=4),
                      min_size=k, max_size=k))
    g = b.T @ np.diag(np.array(d, dtype=object)) @ b
    return g + F(shift) * np.identity(n, dtype=object), k


@settings(max_examples=80, deadline=None)
@given(_gram(), st.data())
def test_pivots_match_greedy_determinants(gk, data):
    g, k = gk
    want = greedy_pivots([list(row) for row in g])
    assert sc.gram_pivots(g, sc.EXACT) == want
    assert len(want) <= k
    # pushing one diagonal entry below zero makes G indefinite
    j = data.draw(st.integers(0, len(g) - 1))
    bad = g.copy()
    bad[j, j] -= max(g.diagonal()) + 1
    with pytest.raises(NotPsdError):
        sc.gram_pivots(bad, sc.EXACT)


@settings(max_examples=60, deadline=None)
@given(_gram(shift=F(1, 2)), st.data())
def test_solve_gram_is_exact_for_vectors_and_matrices(gk, data):
    g, n = gk[0], len(gk[0])
    vec = np.array(data.draw(st.lists(_FRAC, min_size=n, max_size=n)),
                   dtype=object)
    cols = data.draw(st.integers(0, 3))
    mat = np.array(data.draw(st.lists(
        st.lists(_FRAC, min_size=cols, max_size=cols),
        min_size=n, max_size=n)), dtype=object).reshape(n, cols)
    for rhs in (vec, mat):
        c = sc.solve_gram(g, rhs, sc.EXACT)
        assert c.shape == rhs.shape
        assert all(type(x) is F for x in c.ravel())
        assert (g @ c == rhs).all()


def test_solve_gram_rejects_a_singular_gram():
    with pytest.raises(NotPsdError):
        sc.solve_gram([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)], sc.EXACT)


def test_float_pivots_are_relative_to_each_column():
    # the Hankel Gram of three atoms (t, w), whose diagonal runs from 914
    # to 5.9e14: its first three columns are pivots, although 914 is below
    # 1e-9 times the largest diagonal entry
    atoms = [(2.0, 1.5), (-4.0, 0.5), (30.0, 1.0)]
    g = np.array([[sum(w * t ** (i + j) for t, w in atoms)
                   for j in range(1, 6)] for i in range(1, 6)])
    assert sc.gram_pivots(g, sc.FLOAT) == [0, 1, 2]
    assert sc.gram_pivots(np.zeros((2, 2)), sc.FLOAT) == []
    with pytest.raises(NotPsdError):
        sc.gram_pivots([[0.0, 1e-3], [1e-3, 1.0]], sc.FLOAT)


# -- the spectral gate -----------------------------------------------------------

def test_gate_returns_the_spectrum_the_kept_mask_and_the_slack():
    ev, vec, keep, slack = sc.spectral_gate("m", np.diag([2.0, -1e-12, 1e-10]))
    assert list(ev) == [-1e-12, 1e-10, 2.0]
    assert np.allclose(np.abs(vec), np.eye(3)[[1, 2, 0]].T)
    # the zero band is |lambda| <= PIVOT_TOL * 2, so 1e-10 is dropped
    assert list(keep) == [False, False, True]
    assert slack == -0.5e-12
    ev, _, keep, slack = sc.spectral_gate("zero", np.zeros((2, 2)))
    assert list(ev) == [0.0, 0.0] and not keep.any() and slack == 0.0


def test_gate_requires_psd_or_definite_relative_to_the_scale():
    sc.spectral_gate("m", np.diag([1.0, -1e-10]), require="PSD")
    with pytest.raises(NotPsdError, match="m is not PSD") as info:
        sc.spectral_gate("m", np.diag([1.0, -1e-8]), require="PSD")
    assert info.value.witness == {"slack": -1e-8}
    # a density with eigenvalues 1 and 1e-15 is not positive definite
    with pytest.raises(NotPsdError, match="density is not positive definite"):
        sc.spectral_gate("density", np.diag([1.0, 1e-15]),
                         require="positive definite")
    sc.spectral_gate("density", np.diag([1.0, 1e-8]),
                     require="positive definite")


def test_gate_refuses_a_matrix_that_is_not_hermitian():
    for m in ([[1.0, 2.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]],
              [[1.0, 1j], [1j, 1.0]]):
        with pytest.raises(NotPsdError, match="Choi matrix is not Hermitian"):
            sc.spectral_gate("Choi matrix", np.array(m))
    # an anti-Hermitian part inside the zero band is symmetrized away
    ev = sc.spectral_gate("m", np.array([[1.0, 1e-10], [0.0, 1.0]]))[0]
    assert np.allclose(ev, [1 - 5e-11, 1 + 5e-11])


def test_gate_scales_a_difference_by_its_terms():
    # 1 - (1 + 5e-10): the difference is -5e-10, inside the band of the
    # terms' scale 1, though it is the difference's own largest |lambda|
    _, _, keep, slack = sc.spectral_gate("gap", np.eye(2),
                                         (1 + 5e-10) * np.eye(2))
    assert -1e-9 < slack < 0 and not keep.any()
    _, _, _, slack = sc.spectral_gate("gap", np.eye(2), (1 + 2e-9) * np.eye(2))
    assert slack < -1e-9
    # the larger term sets the scale
    a, b = np.diag([1e6, 1.0]), np.diag([1e6, 1.0 + 1e-4])
    assert sc.spectral_gate("gap", a, b)[3] == pytest.approx(-1e-10)


def _spectrum_with_margin(rng, n):
    """Eigenvalues at least a factor 10 away from the zero band's edge."""
    kinds = [lambda: rng.uniform(0.1, 1.0), lambda: 0.0,
             lambda: rng.uniform(-1e-11, 1e-11), lambda: -rng.uniform(1e-7, 1e-3)]
    ev = [kinds[rng.integers(len(kinds))]() for _ in range(n)]
    ev[0] = 1.0
    return ev


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["choi", "stinespring", "hankel", "density",
                        "weight"]),
       st.sampled_from([1e-12, 1e12]))
def test_gate_decisions_are_scale_invariant(seed, kind, c):
    """Scaling the gated matrix by 10^-12 or 10^12 flips no decision."""
    from freepoisson import quantize as qz, transforms as tr
    from freepoisson.ncps import NcProbSpace
    rng = np.random.default_rng(seed)

    def herm(ev):
        n = len(ev)
        u, _ = np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
        return (u * np.asarray(ev)) @ u.conj().T

    def space():
        return NcProbSpace([1, 2], [[[rng.uniform(0.2, 1.0)]],
                                    herm(rng.uniform(0.2, 1.0, size=2))],
                           mode=sc.FLOAT)

    src, tgt = space(), space()
    choi = herm(_spectrum_with_margin(rng, 9))
    kraus = [rng.normal(size=(3, 3)) for _ in range(int(rng.integers(1, 3)))]
    rho = herm(np.abs(_spectrum_with_margin(rng, 3)))
    triple = tr.LevyTriple(
        a=0.5, b=float(rng.uniform(0.0, 1.0) * rng.integers(2)),
        rho=tr.Measure(atoms=[(float(t), float(rng.uniform(0.2, 1.5)))
                              for t in rng.choice([-2.5, -1.5, -0.5, 0.75,
                                                   1.5, 3.0],
                                                  size=int(rng.integers(5)),
                                                  replace=False)]))
    kappas = tr.cumulants_from_triple(triple, 12)
    _, v = np.linalg.eigh(src.density[1])
    u = np.eye(3, dtype=complex)
    u[1:, 1:] = (v * np.exp(1j * rng.uniform(0, 6, size=2))) @ v.conj().T

    def run(s):
        if kind == "choi":
            return len(qz.CpMap.from_choi(src, tgt, s * choi).kraus)
        if kind == "stinespring":
            return qz.stinespring_bimodule(
                qz.CpMap(src, tgt, [np.sqrt(s) * k for k in kraus])).dim
        if kind == "hankel":
            v = tr.recover_triple_from_cumulants(
                kappas[:1] + [s * x for x in kappas[1:]])[1]
            return v.fid, v.rank
        if kind == "density":
            return len(NcProbSpace([3], [s * rho]).density_powers())
        # conjugation by a unitary that commutes with rho is an equality
        # case of weight decrease, decided on rounding noise alone
        m = NcProbSpace(src.block_dims, [s * b for b in src.density])
        return qz.check_admissible(qz.CpMap(m, m, [u])).admissible

    def outcome(s):
        try:
            return run(s)
        except ValidationError as exc:
            return exc.message

    assert outcome(c) == outcome(1.0)
