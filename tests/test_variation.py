"""k-th variation: algebra layout, exact dual-path errors, freeness of
increments, decay, and the rate regression."""

import math
from fractions import Fraction as F

import pytest

from freepoisson import _scalars as sc
from freepoisson.errors import DomainError
from freepoisson.fock import FockSpace, field_X, vacuum_moment
from freepoisson.ncps import mixed_cumulants_vanish
from freepoisson.variation import (VariationExperiment, build_levy_algebra,
                                   difference_words, rate_regression,
                                   run_experiment, variation_error)

from oracles import variation_error_squared_nc


# -- algebra layout ------------------------------------------------------------

def test_algebra_single_atom_single_bin():
    alg, layout = build_levy_algebra([(F(1), F(1))], 0, F(1), 1)
    assert alg.dim == 1
    assert alg.gram[0, 0] == 1
    assert layout[("jump", 0, 0)] == 0
    alg.validate()


def test_algebra_two_atoms_two_bins():
    alg, _ = build_levy_algebra([(F(1), F(1)), (F(2), F(1))], 0, F(1), 2)
    assert alg.dim == 4
    for i in range(4):
        assert alg.gram[i, i] == F(1, 2)
    alg.validate()


def test_algebra_gaussian_only_is_trivial_multiplication():
    alg, layout = build_levy_algebra([], F(1), F(1), 2)
    assert alg.dim == 2
    for i in range(2):
        for j in range(2):
            assert all(x == 0 for x in
                       alg.multiply(alg.basis(i), alg.basis(j)))
    assert ("gauss", 0) in layout
    alg.validate()


def test_algebra_dimension_cap():
    with pytest.raises(DomainError):
        build_levy_algebra([(F(k + 1), F(1)) for k in range(4)], 1, 1, 16)


# -- errors: oracle agreement and closed forms -----------------------------------

def test_error_squared_exact_poisson_case():
    exp = VariationExperiment(atoms=[(1, 1)], b=0, t=1, k=2,
                              n_list=(1, 2, 4))
    for n in (1, 2, 4):
        assert F(variation_error_squared_nc(exp, n)) == F(1, n)
        assert abs(variation_error(exp, n) - math.sqrt(1 / n)) < 1e-12


def _vector_error_squared(exp, n_bins):
    """||D Omega||^2 from the realized difference vector, in exact mode."""
    alg, terms = difference_words(exp, n_bins)
    fock = FockSpace(alg, exp.truncation)
    total = None
    for coeff, word in terms:
        vec = fock.vacuum()
        for g in reversed(word):
            vec = field_X(fock, g).apply(vec)
        vec = vec.scale(coeff)
        total = vec if total is None else total + vec
    return fock.inner(total, total)


def test_dual_path_agreement_small():
    # realized-vector path == noncrossing-sum path, exactly, dims <= 4
    for atoms, b, k, ns in [
        ([(1, 1)], 0, 2, (1, 2, 4)),
        ([(F(1, 2), F(2, 3)), (F(2), F(1, 3))], 0, 2, (1, 2)),
        ([(1, 1)], 0, 3, (1, 2, 4)),
        ([(F(3, 2), F(1, 2))], F(1, 2), 2, (1, 2)),
        ([], 1, 3, (1, 2, 4)),
    ]:
        exp = VariationExperiment(atoms=atoms, b=b, t=1, k=k, n_list=ns)
        for n in ns:
            fock_sq = _vector_error_squared(exp, n)
            nc = variation_error_squared_nc(exp, n)
            assert isinstance(fock_sq, F) and isinstance(nc, F)
            assert fock_sq == nc, (atoms, b, k, n)
            direct = variation_error(exp, n)
            assert abs(direct ** 2 - float(nc)) < 1e-12, (atoms, b, k, n)


def test_gaussian_k2_error_closed_form():
    # || X(xi)^2 - b^2 t ||_{L2} = b^2 t / sqrt(N): the degree-0 part
    # cancels at every N, the degree-2 part carries 1/sqrt(N)
    b, t = F(3, 2), F(1)
    exp = VariationExperiment(atoms=[], b=b, t=t, k=2, n_list=(1, 2, 4, 8))
    for n in (1, 2, 4, 8):
        got = variation_error(exp, n)
        want = float(b) ** 2 * float(t) / math.sqrt(n)
        assert abs(got - want) < 1e-12
    errs = [variation_error(exp, n) for n in (1, 2, 4, 8)]
    assert all(a > bb for a, bb in zip(errs, errs[1:]))


def test_increments_free_and_identically_distributed():
    exp = VariationExperiment(atoms=[(F(1), F(1)), (F(2), F(1, 2))],
                              b=0, t=1, k=2)
    alg, terms = difference_words(exp, 2)
    fk = FockSpace(alg, 4)
    from freepoisson.variation import _increment_vector, build_levy_algebra
    alg2, layout = build_levy_algebra(exp.atoms, exp.b, exp.t, 2,
                                      mode=sc.EXACT)
    f0 = _increment_vector(alg, layout, exp.atoms, exp.b, 0, sc.EXACT)
    f1 = _increment_vector(alg, layout, exp.atoms, exp.b, 1, sc.EXACT)
    ops = {"a": field_X(fk, f0), "b": field_X(fk, f1)}
    ok, witness = mixed_cumulants_vanish(
        lambda w: vacuum_moment([ops[c] for c in w]), ["a"], ["b"], 4)
    assert ok, witness
    # identically distributed: all moments match
    for n in range(1, 5):
        assert vacuum_moment([ops["a"]] * n) == vacuum_moment([ops["b"]] * n)


def test_errors_decrease_for_doubling_bins():
    exp = VariationExperiment(atoms=[(F(1), F(1))], b=F(1, 2), t=1, k=2,
                              n_list=(2, 4, 8, 16))
    errs = [variation_error(exp, n) for n in exp.n_list]
    assert all(a > b for a, b in zip(errs, errs[1:]))


# -- regression -----------------------------------------------------------------

def test_regression_recovers_half_power():
    ns = [4, 8, 16, 32, 64]
    fit = rate_regression(ns, [2.0 / math.sqrt(n) for n in ns])
    assert abs(fit["slope"] + 0.5) < 1e-12


def test_regression_recovers_linear_power():
    ns = [4, 8, 16, 32]
    fit = rate_regression(ns, [5.0 / n for n in ns])
    assert abs(fit["slope"] + 1.0) < 1e-12


def test_regression_degenerate_exact():
    fit = rate_regression([4, 8, 16, 32], [0.0, 0.0, 0.0, 0.0])
    assert fit["exact"] and fit["slope"] is None


def test_regression_needs_points():
    with pytest.raises(DomainError):
        rate_regression([4, 8], [1.0, 0.5])


def test_run_experiment_poisson_slope_band():
    exp = VariationExperiment(atoms=[(1, 1)], b=0, t=1, k=2,
                              n_list=(4, 8, 16, 32))
    res = run_experiment(exp)
    assert -0.65 <= res["slope"] <= -0.35
    assert all(a > b for a, b in zip(res["errors"], res["errors"][1:]))


def test_free_sum_norm_inequality_spot_check():
    # || sum X_i || <= ||X_1|| + 2 sqrt(n) ||X_1||_2 + (n+1)|phi(X_1)| on
    # free identically distributed self-adjoint tuples built on the bins
    exp = VariationExperiment(atoms=[(F(1), F(1))], b=0, t=1, k=2)
    alg, layout = build_levy_algebra(exp.atoms, 0, F(1), 4, mode=sc.EXACT)
    # float copy for norms
    algf, layoutf = build_levy_algebra([(1.0, 1.0)], 0.0, 1.0, 4,
                                       mode=sc.FLOAT)
    from freepoisson.variation import _increment_vector
    fk = FockSpace(algf, 4)
    ops = [field_X(fk, _increment_vector(algf, layoutf, [(1.0, 1.0)],
                                         0.0, i, sc.FLOAT), mode="projective")
           for i in range(4)]
    total = ops[0]
    for op in ops[1:]:
        total = total + op
    lhs = total.norm()
    x1 = ops[0]
    l2 = x1.apply(fk.vacuum()).norm()
    mean = abs(complex(vacuum_moment([x1])))
    rhs = x1.norm() + 2 * math.sqrt(4) * l2 + 5 * mean
    assert lhs <= rhs + 1e-9
