"""Desk-scale k-th variation of a bounded free Levy process.

The process lives over the commutative algebra of functions on
(atoms of rho) x (time bins), with gram weights atom-weight * t/N,
optionally adjoined one trivial-multiplication generator per bin for the
Gaussian part.  The k-th variation error

    || sum_i X(f_i)^k  -  (delta_{k,2} b^2 t + Y(x^k chi_[0,t])) ||_{L^2}

is computed exactly from vacuum vectors (the difference applied to the
vacuum), then the decay against the bin count N is fit by a log-log slope.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _scalars as sc
from .algebra import direct_sum, function_algebra, trivial_algebra
from .errors import DomainError, ShapeError
from .fock import FockSpace, field_X

DIM_CAP = 64


@dataclass
class VariationExperiment:
    """Configuration: triple data (atomic rho), horizon t, power k, bins."""

    atoms: list                 # (location, weight), rationals preferred
    b: object = 0               # Gaussian scale
    t: object = 1
    k: int = 2
    n_list: tuple = (4, 8, 16, 32, 64)

    def __post_init__(self):
        if self.k < 2:
            raise DomainError("variation power k must be >= 2")
        if len(self.atoms) > 4:
            raise DomainError("at most 4 atoms")
        if any(w <= 0 for _, w in self.atoms):
            raise DomainError("atom weights must be positive")
        for n in self.n_list:
            if n < 1:
                raise DomainError("bin counts must be positive")

    @property
    def truncation(self):
        return 2 * self.k + 2

    def is_exact(self):
        vals = [self.b, self.t] + [v for a in self.atoms for v in a]
        return all(isinstance(v, (int, Fraction)) for v in vals)


def build_levy_algebra(atoms, b, t, n_bins, mode=None):
    """Function algebra on atoms x bins, plus trivial Gaussian generators.

    Returns (algebra, layout) where layout maps ("jump", atom_index, bin)
    and ("gauss", bin) to coordinates.
    """
    if mode is None:
        mode = sc.EXACT if all(isinstance(v, (int, Fraction))
                               for v in [b, t] +
                               [x for a in atoms for x in a]) else sc.FLOAT
    n_atoms = len(atoms)
    use_gauss = b != 0
    dim = n_atoms * n_bins + (n_bins if use_gauss else 0)
    if dim > DIM_CAP:
        raise DomainError("algebra dimension %d exceeds cap %d"
                          % (dim, DIM_CAP))
    if mode == sc.EXACT:
        bw = Fraction(t) / n_bins
        weights = [Fraction(w) * bw for _, w in atoms for _ in range(n_bins)]
    else:
        bw = float(t) / n_bins
        weights = [float(w) * bw for _, w in atoms for _ in range(n_bins)]
    layout = {}
    for a in range(n_atoms):
        for i in range(n_bins):
            layout[("jump", a, i)] = a * n_bins + i
    if n_atoms:
        alg = function_algebra(weights, mode=mode)
    else:
        alg = None
    if use_gauss:
        gram = sc.zeros((n_bins, n_bins), mode)
        for i in range(n_bins):
            gram[i, i] = bw
        gauss = trivial_algebra(n_bins, mode=mode, gram=gram)
        base = n_atoms * n_bins
        for i in range(n_bins):
            layout[("gauss", i)] = base + i
        alg = direct_sum(alg, gauss) if alg is not None else gauss
    if alg is None:
        raise DomainError("empty algebra: no atoms and b = 0")
    return alg, layout


def _increment_vector(alg, layout, atoms, b, i, mode):
    """f_{i,N} = (b xi + x) restricted to bin i, as algebra coordinates."""
    v = sc.zeros(alg.dim, mode)
    for a, (loc, _) in enumerate(atoms):
        v[layout[("jump", a, i)]] = (Fraction(loc) if mode == sc.EXACT
                                     else float(loc))
    if b != 0:
        v[layout[("gauss", i)]] = (Fraction(b) if mode == sc.EXACT
                                   else float(b))
    return v


def _target_terms(alg, layout, atoms, b, t, k, n_bins, mode):
    """delta_{2,k} b^2 t + Y(x^k chi_[0,t]) as (scalar, X-argument)."""
    h = sc.zeros(alg.dim, mode)
    for a, (loc, w) in enumerate(atoms):
        lk = (Fraction(loc) if mode == sc.EXACT else float(loc)) ** k
        for i in range(n_bins):
            h[layout[("jump", a, i)]] = lk
    # phi(x^k chi) = t * sum w * loc^k
    if mode == sc.EXACT:
        scalar = Fraction(t) * sum(Fraction(w) * Fraction(loc) ** k
                                   for loc, w in atoms)
        if k == 2:
            scalar += Fraction(b) ** 2 * Fraction(t)
    else:
        scalar = float(t) * sum(float(w) * float(loc) ** k
                                for loc, w in atoms)
        if k == 2:
            scalar += float(b) ** 2 * float(t)
    return scalar, h


def difference_words(exp, n_bins):
    """The difference operator as (coefficient, generator-word) terms.

    Words are tuples of algebra coordinate vectors g with each letter an
    X(g) factor; the empty word is a scalar.
    """
    mode = sc.EXACT if exp.is_exact() else sc.FLOAT
    alg, layout = build_levy_algebra(exp.atoms, exp.b, exp.t, n_bins,
                                     mode=mode)
    one = sc.scalar_one(mode)
    terms = []
    for i in range(n_bins):
        f = _increment_vector(alg, layout, exp.atoms, exp.b, i, mode)
        terms.append((one, (f,) * exp.k))
    scalar, h = _target_terms(alg, layout, exp.atoms, exp.b, exp.t, exp.k,
                              n_bins, mode)
    terms.append((-one, (h,)))
    terms.append((-scalar, ()))
    return alg, terms


def variation_error_squared(exp, n_bins):
    """||D Omega||^2 of the realized difference vector.

    Exact (a Fraction) when the experiment data is rational.  Each X(g) is
    built once per distinct generator.
    """
    alg, terms = difference_words(exp, n_bins)
    fock = FockSpace(alg, exp.truncation)
    omega = fock.vacuum()
    fields = {}     # id(g) -> X(g): a k-th power repeats one generator
    total = None
    for coeff, word in terms:
        vec = omega
        for g in reversed(word):
            if id(g) not in fields:
                fields[id(g)] = field_X(fock, g)
            vec = fields[id(g)].apply(vec)
        vec = vec.scale(coeff)
        total = vec if total is None else total + vec
    return total.inner(total)


def variation_error(exp, n_bins):
    """L^2 distance of the binned k-th power sum from its limit.

    Exact (rational) when the experiment data is rational: the error is
    sqrt of an exactly computed squared norm.
    """
    return math.sqrt(float(abs(variation_error_squared(exp, n_bins))))


def rate_regression(n_values, errors):
    """Least-squares slope of log(error) against log(N).

    Zero errors mean the limit is hit exactly; that is reported instead of
    a slope.
    """
    if len(n_values) != len(errors):
        raise ShapeError("mismatched lengths")
    if len(n_values) < 4:
        raise DomainError("need at least 4 points")
    if any(e == 0 for e in errors):
        return {"exact": True, "slope": None}
    xs = np.log(np.asarray(n_values, dtype=float))
    ys = np.log(np.asarray(errors, dtype=float))
    slope, _ = np.polyfit(xs, ys, 1)
    return {"exact": False, "slope": float(slope)}


def run_experiment(exp):
    """(N, error) table plus the fitted log-log slope."""
    errors = [variation_error(exp, n) for n in exp.n_list]
    fit = rate_regression(list(exp.n_list), errors)
    return {"n": list(exp.n_list), "errors": errors, **fit}
