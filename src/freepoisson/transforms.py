"""Analytic free probability on the upper half plane.

Cauchy transforms of atomic and closed-form measures, the cumulant
transform C(z) = z G^{-1}(z) - 1 by damped Newton inversion, the
Marchenko-Pastur (free Poisson) family, the free Levy-Khintchine formula
for atomic Levy measures, the Levy-Ito splitting, triple <-> cumulant
conversion with a Hankel positivity gate, and free additive convolution
by subordination, with Stieltjes density recovery.

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
    return _cauchy_pair(measure, z)[0]


def _cauchy_pair(measure, z):
    """G(z) and G'(z), both in closed form."""
    z = complex(z)
    g = dg = 0j
    for t, w in measure.atoms:
        if z == t:
            raise DomainError("evaluation at an atom", witness=float(t))
        g += w / (z - t)
        dg += -w / (z - t) ** 2
    if measure.density is not None:
        dens, ddens = _density_g(measure.density, z)
        g, dg = g + dens, dg + ddens
    return g, dg


def _density_g(tag, z):
    """Herglotz closed form g of a tagged density's Cauchy transform at a
    complex z, and g' from the quadratic g solves.  The free Poisson form
    drops the atom of MP_lam at 0 for lam < 1, which the Measure lists."""
    if tag[0] == "free_poisson":
        lam = tag[1]
        s = _edge_sqrt(z - (lam + 1), 2 * math.sqrt(lam))
        g = (z + 1 - lam - s) / (2 * z)
        atom = (1 - lam) / z if lam < 1 else 0.0
        return g - atom, g * (g - 1) / s + atom / z
    a, b = tag[1], tag[2]
    s = _edge_sqrt(z - a, 2 * b)
    g = (z - a - s) / (2 * b * b)
    return g, -g / s


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
    winv = _newton_invert(lambda w: cauchy_transform(measure, w),
                          lambda w: _cauchy_pair(measure, w)[1], z, seed)
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


def _voiculescu(triples, w):
    """phi(w) = w C(1/w) of the boxplus of triples, and phi'(w): each adds
    a + b^2/w + sum_t rho_t (t^2/(w - t) + t [|t| > 1])."""
    phi = dphi = 0
    for triple in triples:
        phi += triple.a + triple.b ** 2 / w
        dphi -= triple.b ** 2 / (w * w)
        for t, m in triple.rho.atoms:
            phi += m * (t * t / (w - t) + (t if abs(t) > 1 else 0.0))
            dphi -= m * t * t / (w - t) ** 2
    return phi, dphi


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
    wtol = sc.PIVOT_TOL * abs(sigma[0])
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

def _closed_triple(part):
    """The Levy triple of a part whose C has a closed form (a triple, a
    unit point mass, the full free Poisson law or a pure semicircle)."""
    if isinstance(part, LevyTriple):
        return part
    atoms, tag = part.atoms, part.density
    if tag is None and len(atoms) == 1 and abs(atoms[0][1] - 1.0) < 1e-14:
        return LevyTriple(a=atoms[0][0], b=0.0, rho=Measure())
    if tag and tag[0] == "free_poisson" \
            and part == free_poisson_measure(tag[1]):
        return free_poisson_triple(tag[1])
    if tag and tag[0] == "semicircle" and not atoms:
        return LevyTriple(a=tag[1], b=tag[2], rho=Measure())
    return None


class FreeConvolution:
    """mu_1 boxplus ... boxplus mu_n by subordination.

    Parts whose C has a closed form fold into one law nu, which enters by
    phi(w) = w C_nu(1/w); every other measure mu_i by F_i = 1/G_i (with
    none, mu_1 = delta_0, whose F is the identity).  The subordination
    points solve omega_i = z - phi(F_i(omega_i)) + sum_{j != i} (F_j(omega_j)
    - omega_j), and G = G_1(omega_1): the one fixed point of an analytic
    map of C+ into {Im w >= Im z} (Biane 1998; Belinschi-Bercovici 2007).
    """

    def __init__(self, parts):
        if len(parts) < 2:
            raise DomainError("need at least two factors")
        self._parts = [(p, _closed_triple(p)) for p in parts]
        self._nu = [t for _, t in self._parts if t]
        self._measures = [p for p, t in self._parts if not t] \
            or [Measure(atoms=[(0.0, 1.0)])]
        if not all(m.atoms or m.density for m in self._measures):
            raise DomainError("a measure part carries no mass")

    def c(self, z):
        return sum(levy_khintchine_C(t, z) if t else cumulant_transform(p, z)
                   for p, t in self._parts)

    def mean(self):
        return sum(cumulants_from_triple(t, 1)[0] if t else p.mean()
                   for p, t in self._parts)

    def cauchy(self, z):
        """G(z) of the convolution, for Im z > 0."""
        return self._subordinate(complex(z), None)[1]

    def _step(self, z, omega):
        """At omega: the size of the residual r_i = F_i + phi(F_i) - z -
        sum_j (F_j - omega_j), zero at the subordination points; where the
        Newton step and the fixed-point step lead; G_1(omega_1) and G'(z)."""
        gs = [_cauchy_pair(m, w) for m, w in zip(self._measures, omega)]
        fs = [(1 / g, -dg / (g * g)) for g, dg in gs]
        shift = z + sum([f - w for (f, _), w in zip(fs, omega)])
        r, d = [], []
        for f, df in fs:
            phi, dphi = _voiculescu(self._nu, f)
            r.append(f + phi - shift)
            d.append(df * (1 + dphi))
        fixed = [w - ri for w, ri in zip(omega, r)]
        try:
            # Sherman-Morrison inverts J = diag(d) - 1 (q d)^T; omega' = J^-1 1
            q = [(df - 1) / di for (_, df), di in zip(fs, d)]
            k = sum(qi * ri for qi, ri in zip(q, r)) / (1 - sum(q))
            dg = gs[0][1] / ((1 - sum(q)) * d[0])
        except ZeroDivisionError:   # a critical point: take the fixed point
            return math.inf, fixed, fixed, gs[0][0], None
        return (max(map(abs, r)),
                [w - (ri + k) / di for w, ri, di in zip(omega, r, d)],
                fixed, gs[0][0], dg)

    def _subordinate(self, z, omega):
        """(subordination points, G, G') at z, by Newton from ``omega``
        (default: z lifted to height 1).  A Newton step that would leave
        {Im w >= Im z} or not shrink the residual gives way to the fixed-point
        step, so every iterate stays there: the root found is physical."""
        if omega is None:
            omega = [complex(z.real, max(1.0, z.imag))] * len(self._measures)
        tol = NEWTON_TOL * max(1.0, abs(z))
        size, newton, fixed, g, dg = self._step(z, omega)
        for _ in range(NEWTON_MAXIT):
            if size < tol:
                return omega, g, dg
            got = (self._step(z, newton)
                   if all(w.imag >= z.imag for w in newton) else None)
            if got is None or not got[0] < size:    # NaN shrinks nothing
                newton, got = fixed, self._step(z, fixed)
            omega, (size, newton, fixed, g, dg) = newton, got
        raise NonConvergenceError("subordination did not converge",
                                  witness=[z.real, z.imag])

    def density_on_grid(self, xs):
        """Density -Im G(x + i eps)/pi at eps = STIELTJES_EPS, taken to
        eps = 0 to second order by its eps-derivative -Re G'(x + i eps)/pi;
        each point starts from its neighbour's subordination points.
        Returns (values, failures): failed points carry NaN and are listed
        with the failure message.
        """
        values, failures = [], []
        start = None
        for x in xs:
            try:
                start, g, dg = self._subordinate(complex(x, STIELTJES_EPS),
                                                 start)
            except NonConvergenceError as exc:
                values.append(float("nan"))
                failures.append((float(x), exc.message))
                continue
            values.append(max((STIELTJES_EPS * dg.real - g.imag) / math.pi,
                              0.0))
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
