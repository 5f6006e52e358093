"""Analytic free probability on the upper half plane.

Cauchy transforms of atomic and closed-form measures, the cumulant
transform C(z) = z G^{-1}(z) - 1 by damped Newton inversion, the
Marchenko-Pastur (free Poisson) family, the free Levy-Khintchine formula
for atomic Levy measures, the Levy-Ito splitting, triple <-> cumulant
conversion with a Hankel positivity gate, and free additive convolution
with Stieltjes density recovery.

All Levy measures are finite atomic, so every integral is a finite sum and
the splitting is exact.  Atoms with |t| <= 1 sit in the compensated part;
the location t = +-1 is included there, matching the indicator convention
chi_[-1,1].
"""

import math
from dataclasses import dataclass, field
from numbers import Rational
from typing import Optional

import numpy as np

from . import _scalars as sc
from .errors import (DomainError, NonConvergenceError, NotPsdError,
                     ShapeError, ValidationError)

NEWTON_TOL = 1e-12
NEWTON_MAXIT = 100
STIELTJES_EPS = 1e-4
# the JSON parameters of each density kind, in the order of its tuple
_DENSITY_PARAMS = {"free_poisson": ("lambda",), "semicircle": ("a", "b")}


@dataclass
class Measure:
    """Finite positive measure: atoms plus an optional closed-form density.

    Density tags: ("free_poisson", lam) and ("semicircle", a, b) where a is
    the mean and b the semicircular scale (variance b^2, support radius 2b).
    """

    atoms: list = field(default_factory=list)
    density: Optional[tuple] = None

    def __post_init__(self):
        locs = [t for t, _ in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValidationError("atom locations must be distinct")
        for _, w in self.atoms:
            if w <= 0:
                raise ValidationError("atom weights must be positive")
        if self.density is not None:
            kind = self.density[0]
            if kind == "free_poisson":
                if self.density[1] <= 0:
                    raise DomainError("free Poisson rate must be positive")
            elif kind == "semicircle":
                if self.density[2] <= 0:
                    raise DomainError("semicircle scale must be positive")
            else:
                raise DomainError("unknown density tag %r" % (kind,))

    def mean(self):
        total = sum(w * t for t, w in self.atoms)
        if self.density is not None:
            # MP continuous part has mean lam (its atom contributes zero);
            # the semicircle tag has mean a
            total += self.density[1]
        return total

    def moment(self, n):
        """n-th raw moment, quadrature for the density part."""
        total = sum(w * t ** n for t, w in self.atoms)
        if self.density is not None:
            from scipy import integrate   # loaded by quadrature users only
            f, (lo, hi) = density_function(self.density)
            val, _ = integrate.quad(lambda x: x ** n * f(x), lo, hi,
                                    epsabs=1e-10, epsrel=1e-10, limit=200)
            total += val
        return total

    def to_json(self):
        obj = {"atoms": [[float(t), float(w)] for t, w in self.atoms]}
        if self.density is not None:
            kind, *values = self.density
            obj["density"] = {"kind": kind, **dict(zip(
                _DENSITY_PARAMS[kind], map(float, values)))}
        return obj

    @classmethod
    def from_json(cls, obj):
        """The inverse of ``to_json``; a density whose kind is unknown or
        that lacks a parameter raises ValidationError naming it."""
        atoms = [(float(t), float(w)) for t, w in obj.get("atoms", [])]
        density = None
        d = obj.get("density")
        if d:
            kind = d.get("kind")
            if kind not in _DENSITY_PARAMS:
                raise ValidationError("unknown density kind %r" % (kind,),
                                      witness={"field": "density.kind"})
            for key in _DENSITY_PARAMS[kind]:
                if key not in d:
                    raise ValidationError(
                        "%s density is missing %r" % (kind, key),
                        witness={"field": "density." + key})
            density = (kind,) + tuple(float(d[key])
                                      for key in _DENSITY_PARAMS[kind])
        return cls(atoms=atoms, density=density)


def free_poisson_support(lam):
    return ((math.sqrt(lam) - 1) ** 2, (math.sqrt(lam) + 1) ** 2)


def free_poisson_density(lam, x):
    """Density value at x and the atom weight at 0 of the rate-lam law.

    The absolutely continuous part is
        sqrt(4 lam - (x - (lam+1))^2) / (2 pi x)
    on [(sqrt(lam)-1)^2, (sqrt(lam)+1)^2], and the atom at zero carries
    max(1-lam, 0).  Total mass is one.
    """
    if not 0 < lam < math.inf:
        raise DomainError("rate must be positive and finite")
    atom = max(1.0 - lam, 0.0)
    lo, hi = free_poisson_support(lam)
    x = float(x)
    if x <= lo or x >= hi:
        return 0.0, atom
    disc = 4 * lam - (x - (lam + 1)) ** 2
    if disc <= 0:
        return 0.0, atom
    return math.sqrt(disc) / (2 * math.pi * x), atom


def density_function(tag):
    """(callable density, (lo, hi)) for a closed-form tag."""
    kind = tag[0]
    if kind == "free_poisson":
        lam = tag[1]
        lo, hi = free_poisson_support(lam)
        return (lambda x: free_poisson_density(lam, x)[0]), (lo, hi)
    if kind == "semicircle":
        a, b = tag[1], tag[2]

        def f(x):
            d = 4 * b * b - (x - a) ** 2
            return math.sqrt(d) / (2 * math.pi * b * b) if d > 0 else 0.0
        return f, (a - 2 * b, a + 2 * b)
    raise DomainError("unknown density tag %r" % (kind,))


def _edge_sqrt(w, half_width):
    """sqrt((w - h)(w + h)) on the branch cut [-h, h], ~ w at infinity."""
    return np.sqrt(w - half_width) * np.sqrt(w + half_width)


def cauchy_transform(measure, z):
    """G(z) = integral of 1/(z - t) against the measure.

    Atoms are summed exactly; closed-form densities use their explicit
    Herglotz form.  Real z inside a density's support returns the boundary
    value from above (principal value minus i pi f(x)).
    """
    z = complex(z)
    total = 0j
    for t, w in measure.atoms:
        if z == t:
            raise DomainError("evaluation at an atom", witness=float(t))
        total += w / (z - t)
    if measure.density is not None:
        total += _density_g(measure.density, z)
    return total


def _cauchy_derivative(measure, z):
    z = complex(z)
    total = 0j
    for t, w in measure.atoms:
        total += -w / (z - t) ** 2
    if measure.density is not None:
        h = 1e-6 * max(1.0, abs(z))
        total += (_density_g(measure.density, z + h)
                  - _density_g(measure.density, z - h)) / (2 * h)
    return total


def _density_g(tag, z):
    """Herglotz closed form of a tagged density's Cauchy transform at a
    complex z.  The free Poisson form carries the atom of MP_lam at 0 for
    lam < 1; it is subtracted, since the Measure lists that atom."""
    if tag[0] == "free_poisson":
        lam = tag[1]
        s = _edge_sqrt(z - (lam + 1), 2 * math.sqrt(lam))
        g = (z + 1 - lam - s) / (2 * z)
        if lam < 1:
            g -= (1 - lam) / z
        return g
    a, b = tag[1], tag[2]
    w = z - a
    return (w - _edge_sqrt(w, 2 * b)) / (2 * b * b)


def _newton_invert(g, gprime, target, seed):
    """Solve g(w) = target by damped Newton from ``seed``."""
    w = complex(seed)
    r = g(w) - target
    for _ in range(NEWTON_MAXIT):
        if abs(r) < NEWTON_TOL:
            return w
        d = gprime(w)
        if d == 0:
            raise NonConvergenceError("Newton hit a critical point",
                                      witness=[w.real, w.imag])
        step = -r / d
        lam = 1.0
        for _ in range(60):
            w2 = w + lam * step
            try:
                r2 = g(w2) - target
            except (DomainError, ZeroDivisionError):
                lam *= 0.5
                continue
            if abs(r2) < abs(r):
                break
            lam *= 0.5
        else:
            raise NonConvergenceError("Newton stalled",
                                      witness=[w.real, w.imag])
        w, r = w2, r2
    if abs(r) < NEWTON_TOL:
        return w
    raise NonConvergenceError("Newton did not converge",
                              witness=[w.real, w.imag])


def cumulant_transform(measure, z):
    """C(z) = z G^{-1}(z) - 1 near zero, by Newton inversion of G."""
    z = complex(z)
    if z == 0:
        return 0j
    seed = 1.0 / z + measure.mean()
    g = lambda w: cauchy_transform(measure, w)
    winv = _newton_invert(g, lambda w: _cauchy_derivative(measure, w), z, seed)
    return z * winv - 1.0


@dataclass
class LevyTriple:
    """Free Levy-Khintchine data (a, b, rho) with finite atomic rho."""

    a: float
    b: float
    rho: Measure

    def __post_init__(self):
        if self.b < 0:
            raise DomainError("Gaussian scale b must be >= 0")
        if self.rho.density is not None:
            raise ValidationError("Levy measure must be atomic")
        for t, _ in self.rho.atoms:
            if t == 0:
                raise ValidationError("Levy measure may not charge 0")

    def rho_mass(self):
        return sum(w for _, w in self.rho.atoms)

    def to_json(self):
        return {"a": float(self.a), "b": float(self.b),
                "rho": self.rho.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(a=float(obj["a"]), b=float(obj["b"]),
                   rho=Measure.from_json(obj["rho"]))


def levy_khintchine_C(triple, z):
    """C(z) = a z + b^2 z^2 + sum_t w (1/(1 - z t) - 1 - z t [|t|<=1])."""
    z = complex(z)
    total = triple.a * z + triple.b ** 2 * z * z
    for t, w in triple.rho.atoms:
        if z * t == 1:
            raise DomainError("pole at z = 1/t", witness=float(t))
        term = 1.0 / (1.0 - z * t) - 1.0
        if abs(t) <= 1:
            term -= z * t
        total += w * term
    return total


def levy_khintchine_C_prime(triple, z):
    z = complex(z)
    total = complex(triple.a) + 2 * triple.b ** 2 * z
    for t, w in triple.rho.atoms:
        term = t / (1.0 - z * t) ** 2
        if abs(t) <= 1:
            term -= t
        total += w * term
    return total


def levy_ito_split(triple):
    """Split into (gaussian, compensated small jumps, large-jump compound).

    The parts are themselves triples whose C functions add back to the
    original: (a, b, 0), (0, 0, rho|[-1,1]) and (0, 0, rho restricted to
    |t| > 1); the compound part carries no compensation because all its
    atoms exceed 1 in modulus.
    """
    small = [(t, w) for t, w in triple.rho.atoms if abs(t) <= 1]
    large = [(t, w) for t, w in triple.rho.atoms if abs(t) > 1]
    gaussian = LevyTriple(a=triple.a, b=triple.b, rho=Measure(atoms=[]))
    compensated = LevyTriple(a=0.0, b=0.0, rho=Measure(atoms=small))
    compound = LevyTriple(a=0.0, b=0.0, rho=Measure(atoms=large))
    return gaussian, compensated, compound


def cumulants_from_triple(triple, n_max):
    """kappa_1..kappa_{n_max} of the law with the given triple."""
    if n_max > 12:
        raise DomainError("n_max capped at 12")
    kappas = []
    for n in range(1, n_max + 1):
        if n == 1:
            k = triple.a + sum(w * t for t, w in triple.rho.atoms
                               if abs(t) > 1)
        elif n == 2:
            k = triple.b ** 2 + sum(w * t * t for t, w in triple.rho.atoms)
        else:
            k = sum(w * t ** n for t, w in triple.rho.atoms)
        kappas.append(k)
    return kappas


@dataclass
class FidVerdict:
    fid: bool
    reason: str = ""
    rank: int = 0
    pivot: Optional[int] = None     # the Hankel column that fails the gate


def recover_triple_from_cumulants(kappas):
    """Rebuild (a, b, rho) from kappa_1..kappa_{2m+2}.

    The canonical measure sigma has moments sigma_k = kappa_{k+2}.  The
    sequence is freely infinitely divisible at this order iff the Hankel
    matrix of sigma is PSD and its pivots (``_scalars.gram_pivots``, exact
    when every kappa is rational) are 0..r-1: a later pivot leaves no
    representing measure.  Atoms of sigma come from the quadrature pencil
    on the leading r x r block; mass at zero becomes b^2, an atom (t, v)
    becomes a Levy atom (t, v / t^2), and the drift is kappa_1 minus the
    large-jump correction.
    """
    if len(kappas) < 2 or len(kappas) % 2 != 0:
        raise ShapeError("need kappa_1..kappa_{2m+2} (even count >= 2)")
    m = (len(kappas) - 2) // 2
    if m > 5:
        raise DomainError("m capped at 5")
    sigma = [float(k) for k in kappas[1:]]          # sigma_k = kappa_{k+2}
    refuse = lambda why, pivot: (None, FidVerdict(
        False, "Hankel matrix of the canonical measure " + why, 0, pivot))
    try:
        pivots = sc.gram_pivots(
            [[kappas[1 + i + j] for j in range(m + 1)] for i in range(m + 1)],
            sc.EXACT if all(isinstance(k, Rational) for k in kappas)
            else sc.FLOAT)
    except NotPsdError as exc:
        return refuse("is not PSD", exc.witness["pivot"])
    rank = len(pivots)
    if pivots != list(range(rank)):
        return refuse("has no representing measure",
                      next(k for k, p in enumerate(pivots) if k != p))
    if rank > m:
        raise DomainError("canonical measure rank %d exceeds m=%d; "
                          "insufficient cumulant data" % (rank, m))
    from scipy.linalg import eigh
    hankel = lambda s: np.array([[sigma[s + i + j] for j in range(rank)]
                                 for i in range(rank)]).reshape(rank, rank)
    # symmetric-definite pencil: the leading block is positive definite
    nodes = eigh(hankel(1), hankel(0), eigvals_only=True)
    weights = np.linalg.solve(np.vander(nodes, rank, increasing=True).T,
                              np.array(sigma[:rank]))
    wtol = 1e-9 * max(1.0, abs(sigma[0]))
    b2 = 0.0
    rho_atoms = []
    for t, w in zip(nodes, weights):
        if w <= wtol:
            continue
        if abs(t) < 1e-9:
            b2 += w
        else:
            # snap nodes that straddle the compensation boundary, so the
            # strict chi_[-1,1] convention classifies them stably
            if abs(abs(t) - 1.0) < 1e-9:
                t = math.copysign(1.0, t)
            rho_atoms.append((float(t), float(w / (t * t))))
    a = float(kappas[0]) - sum(w * t for t, w in rho_atoms if abs(t) > 1)
    triple = LevyTriple(a=a, b=math.sqrt(max(b2, 0.0)),
                        rho=Measure(atoms=rho_atoms))
    return triple, FidVerdict(True, "ok", rank)


# -- free additive convolution ----------------------------------------------

def _transform_of(part):
    """(C, C', mean) of a measure or a Levy triple.

    Triples use the Levy-Khintchine formula.  A unit point mass, the full
    free Poisson law (continuous part plus its zero atom) and a pure
    semicircle have C in closed form; every other measure inverts its
    Cauchy transform by Newton, with C' by a central difference.
    """
    if isinstance(part, LevyTriple):
        return (lambda z: levy_khintchine_C(part, z),
                lambda z: levy_khintchine_C_prime(part, z),
                cumulants_from_triple(part, 1)[0])
    mean = part.mean()
    atoms, tag = part.atoms, part.density
    if tag is None and len(atoms) == 1 and abs(atoms[0][1] - 1.0) < 1e-14:
        a = atoms[0][0]
        return (lambda z: a * z), (lambda z: complex(a)), mean
    if tag is not None and tag[0] == "free_poisson":
        lam = tag[1]
        if sorted(atoms) == ([(0.0, 1.0 - lam)] if lam < 1 else []):
            return (lambda z: lam * z / (1 - z),
                    lambda z: lam / (1 - z) ** 2, mean)
    if tag is not None and tag[0] == "semicircle" and not atoms:
        a, b = tag[1], tag[2]
        return (lambda z: a * z + b * b * z * z,
                lambda z: a + 2 * b * b * z, mean)

    def c(z):
        return cumulant_transform(part, z)

    def c_prime(z):
        h = 1e-7 * max(1.0, abs(z))
        return (c(z + h) - c(z - h)) / (2 * h)
    return c, c_prime, mean


class FreeConvolution:
    """mu boxplus nu via additivity of the cumulant transform.

    ``cauchy(z)`` solves (C(w) + 1)/w = z for w by damped Newton (the
    inverse Cauchy transform of the convolution is known in closed form
    through C); densities come from Stieltjes inversion with Richardson
    extrapolation in the regularization height.
    """

    def __init__(self, parts):
        if len(parts) < 2:
            raise DomainError("need at least two factors")
        self._cs, self._c_primes, means = zip(*map(_transform_of, parts))
        self._mean = sum(means)

    def c(self, z):
        return sum(c(z) for c in self._cs)

    def c_prime(self, z):
        return sum(c_prime(z) for c_prime in self._c_primes)

    def mean(self):
        return self._mean

    def cauchy(self, z, seed=None):
        """G(z) of the convolution: the root u of C(u) + 1 - z u = 0."""
        z = complex(z)
        if seed is None:
            seed = 1.0 / z

        def f(u):
            return self.c(u) + 1.0 - z * u

        def fp(u):
            return self.c_prime(u) - z

        last = None
        for trial in (seed, seed * (1 + 1e-3 + 1e-3j),
                      seed * (1 - 2e-3j), 1.0 / z):
            try:
                return _newton_invert(f, fp, 0.0, trial)
            except NonConvergenceError as exc:
                last = exc
        raise last

    def density_on_grid(self, xs):
        """Recovered density by -Im G(x + i eps)/pi, Richardson order 2,
        at eps = STIELTJES_EPS.

        Returns (values, failures): failed grid points carry NaN and are
        listed with the failure message.
        """
        values = []
        failures = []
        seeds = (None, None)
        for x in xs:
            try:
                gs = []
                for eps, w in zip((STIELTJES_EPS, 2 * STIELTJES_EPS), seeds):
                    # continuation: walk down from a safe height on the
                    # first point, then reuse the neighbour's solution
                    heights = np.geomspace(1.0, eps, 12) if w is None \
                        else [eps]
                    for height in heights:
                        w = self.cauchy(complex(x, height), seed=w)
                    gs.append(w)
                seeds = gs
                f1, f2 = (-g.imag / math.pi for g in gs)
                values.append(max(2 * f1 - f2, 0.0))
            except NonConvergenceError as exc:
                values.append(float("nan"))
                failures.append((float(x), exc.message))
                seeds = (None, None)
        return np.array(values), failures


def free_convolve(*parts):
    """Free additive convolution of measures and/or Levy triples."""
    return FreeConvolution(list(parts))


def free_poisson_measure(lam):
    """The full rate-lam law: continuous MP part plus its atom at zero."""
    atoms = [(0.0, 1.0 - lam)] if lam < 1 else []
    return Measure(atoms=atoms, density=("free_poisson", float(lam)))


def free_poisson_triple(lam):
    """Levy triple of the rate-lam law: all free cumulants equal lam."""
    return LevyTriple(a=float(lam), b=0.0, rho=Measure(atoms=[(1.0, float(lam))]))
