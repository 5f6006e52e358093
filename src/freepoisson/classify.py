"""Symbolic classification of the algebras generated by free Poisson
weights: interpolated free-group-factor parameter arithmetic, the
finite-weight isomorphism descriptors, the factoriality predicate, and
the filtration-algebra branches for free Levy processes.

Descriptors are symbolic expressions; the only rewriting performed is the
pair of closed-form rules the isomorphism theorems actually use:
L(F_r) * L(F_s) = L(F_{r+s}) and the absorption identity
L(F_{2n}) * (L(F_2)_beta + C_{1-beta}) = L(F_{2n + 2 beta}).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ValidationError

INF = float("inf")


@dataclass(frozen=True)
class FreeGroupFactor:
    """L(F_r) with r in (1, inf]."""

    r: float

    def __post_init__(self):
        if not (self.r > 1):
            raise DomainError("free group parameter must exceed 1")

    def to_json(self):
        return {"kind": "interpolated_free_group",
                "r": "inf" if self.r == INF else float(self.r)}


@dataclass(frozen=True)
class WithAtom:
    """L(F_r)_alpha + C_{1-alpha}: a factor plus a scalar atom."""

    r: float
    alpha: float

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise DomainError("atom weight must be in (0, 1)")
        if not (self.r > 1):
            raise DomainError("free group parameter must exceed 1")

    def to_json(self):
        return {"kind": "with_atom",
                "r": "inf" if self.r == INF else float(self.r),
                "alpha": float(self.alpha)}


@dataclass(frozen=True)
class Opaque:
    """A named component we do not decompose (e.g. L(Z), a general M)."""

    name: str
    trivial: bool = False
    diffuse_abelian: bool = False

    def to_json(self):
        return {"kind": "opaque", "name": self.name}


@dataclass(frozen=True)
class FreeProduct:
    parts: tuple

    def to_json(self):
        return {"kind": "free_product",
                "parts": [p.to_json() for p in self.parts]}


@dataclass(frozen=True)
class DirectSum:
    """Weighted direct sum; weights must total 1."""

    parts: tuple  # of (descriptor-or-"C", weight)

    def __post_init__(self):
        total = sum(w for _, w in self.parts)
        if abs(float(total) - 1.0) > 1e-12:
            raise ValidationError("direct sum weights must total 1")

    def to_json(self):
        return {"kind": "direct_sum",
                "parts": [{"component": ("C" if p == "C" else p.to_json()),
                           "weight": float(w)} for p, w in self.parts]}


@dataclass(frozen=True)
class Compression:
    part: object
    weight: float

    def to_json(self):
        return {"kind": "compression", "weight": float(self.weight),
                "part": self.part.to_json()}


def simplify(desc):
    """Apply the two free-product rewrite rules where they match."""
    if isinstance(desc, FreeProduct):
        parts = [simplify(p) for p in desc.parts]
        # merge free group factors
        rs = [p.r for p in parts if isinstance(p, FreeGroupFactor)]
        rest = [p for p in parts if not isinstance(p, FreeGroupFactor)]
        merged = []
        if rs:
            merged.append(FreeGroupFactor(sum(rs) if INF not in rs else INF))
        parts = merged + rest
        # absorption: L(F_s) * (L(F_2)_beta + C_(1-beta)) = L(F_{s + 2 beta})
        out = []
        fg = None
        for p in parts:
            if isinstance(p, FreeGroupFactor) and fg is None:
                fg = p
            else:
                out.append(p)
        if fg is not None:
            kept = []
            for p in out:
                if isinstance(p, WithAtom) and p.r == 2 and fg.r != INF:
                    fg = FreeGroupFactor(fg.r + 2 * p.alpha)
                else:
                    kept.append(p)
            out = kept
            if not out:
                return fg
            out = [fg] + out
        if len(out) == 1:
            return out[0]
        return FreeProduct(tuple(out))
    return desc


def freedim_combine(n, alpha):
    """2n + 2(alpha-n)^2 + 2(alpha-n)(n+1-alpha), checked equal to 2 alpha.

    Exact rational evaluation of the parameter arithmetic behind composing
    integer free-group factors with one fractional interval.
    """
    n = int(n)
    alpha = Fraction(alpha)
    if n < 1 or not (n < alpha <= n + 1):
        raise DomainError("need n >= 1 and alpha in (n, n+1]")
    beta = alpha - n
    value = 2 * n + 2 * beta * beta + 2 * beta * (1 - beta)
    if value != 2 * alpha:
        raise ValidationError("parameter identity violated",
                              witness={"n": n, "alpha": str(alpha)})
    return value


def poisson_filtration(alpha):
    """Descriptor of the algebra over L^infty[0, alpha] with Lebesgue weight."""
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if alpha < 1:
        return WithAtom(r=2, alpha=alpha)
    return FreeGroupFactor(r=2 * alpha)


def gamma_finite_weight(m_descriptor, alpha):
    """Isomorphism class of the algebra of (M, alpha * phi), phi a state.

    Diffuse abelian M yields the closed free-group forms; a general
    nontrivial M yields the symbolic free-product expression (compressed
    when alpha > 1).  M = C is rejected: that case is the plain Poisson
    filtration handled by poisson_filtration.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if isinstance(m_descriptor, Opaque) and m_descriptor.trivial:
        raise DomainError("M = C has no nontrivial generator; "
                          "use poisson_filtration")
    if isinstance(m_descriptor, Opaque) and m_descriptor.diffuse_abelian:
        return poisson_filtration(alpha)
    lz = Opaque("L(Z)")
    if alpha < 1:
        return DirectSum(((FreeProduct((lz, m_descriptor)), alpha),
                          ("C", 1 - alpha)))
    if alpha == 1:
        return FreeProduct((lz, m_descriptor))
    inner = FreeProduct((m_descriptor,
                         DirectSum((("C", 1 / alpha),
                                    ("C", 1 - 1 / alpha)))))
    return FreeProduct((lz, Compression(inner, 1 / alpha)))


def factoriality(total_weight, algebra_is_trivial):
    """(is_factor, note): a factor iff phi(1) >= 1 and M != C.

    When true the type is II_1 or III_lambda with lambda != 0; the note
    records that, nothing finer is computed here.
    """
    if algebra_is_trivial:
        return False, "M = C never generates a factor"
    if total_weight >= 1:
        return True, "type II_1 or III_lambda with lambda != 0"
    return False, "total weight below 1 leaves a central atom"


def modular_spectrum_subgroup(eigenvalues):
    """The subgroup of R_+ generated by Delta eigenvalues, as a report.

    Returns ("trivial",), ("cyclic", generator) when all logs are
    commensurable, or ("dense",) otherwise.  Input data is finite, so no
    closure claims are made.
    """
    logs = []
    for ev in eigenvalues:
        ev = float(ev)
        if ev <= 0:
            raise DomainError("Delta eigenvalues must be positive")
        l = math.log(ev)
        if abs(l) > 1e-9:
            logs.append(l)
    if not logs:
        return ("trivial",)
    base = min(abs(l) for l in logs)
    ratios = [l / base for l in logs]
    fracs = []
    for r in ratios:
        # only small-denominator commensurability counts as cyclic; float
        # data cannot certify anything finer
        f = Fraction(r).limit_denominator(720)
        if abs(float(f) - r) > 1e-9 * max(1.0, abs(r)):
            return ("dense",)
        fracs.append(f)
    g = fracs[0]
    for f in fracs[1:]:
        g = Fraction(math.gcd(g.numerator * f.denominator,
                              f.numerator * g.denominator),
                     g.denominator * f.denominator)
    return ("cyclic", math.exp(base * float(g)))


def filtration_classify(triple, t, rho_infinite=False):
    """Filtration algebra of the free Levy process with the given triple.

    Nonzero Gaussian part or infinite Levy mass gives L(F_inf); otherwise
    the total jump weight t * rho(R) interpolates through the Poisson
    filtration branches.
    """
    t = float(t)
    if t <= 0:
        raise DomainError("time must be positive")
    if rho_infinite or triple.b != 0:
        return FreeGroupFactor(r=INF)
    mass = t * triple.rho_mass()
    if mass >= 1:
        return FreeGroupFactor(r=2 * mass)
    if mass == 0:
        raise DomainError("degenerate process: b = 0 and rho = 0")
    return WithAtom(r=2, alpha=mass)
